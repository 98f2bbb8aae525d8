//! Replays the committed chaos reproducer corpus
//! (`tests/fixtures/chaos/*.json`) against the real protocol on the
//! deterministic simulator. Each fixture was captured and shrunk by the
//! adversary engine against a deliberately weakened Alg 1 (see the
//! corpus README); the shipping protocol must stay clean on all of
//! them, forever.
//!
//! The `#[ignore]`d tests run the fault strategies at the nightly seed
//! budgets (`cargo test --release -p sss-integration --test
//! chaos_regressions -- --ignored`).

use sss_chaos::{run_campaign, run_case_sim, BackendChoice, CampaignConfig, Fixture};
use sss_core::Alg1;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/chaos")
}

fn corpus() -> Vec<Fixture> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("fixture corpus directory") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let fixture = Fixture::from_json(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert_eq!(
            fixture.name,
            path.file_stem().unwrap().to_str().unwrap(),
            "fixture name must match its file stem"
        );
        out.push(fixture);
    }
    out
}

#[test]
fn corpus_is_nonempty_and_canonical() {
    let fixtures = corpus();
    assert!(
        fixtures.len() >= 3,
        "the committed corpus must not silently vanish"
    );
    for fx in &fixtures {
        // Re-serialization is exact: the committed files are in the
        // canonical format, so diffs stay reviewable.
        let path = corpus_dir().join(format!("{}.json", fx.name));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(fx.to_json(), on_disk, "{} is not canonical", fx.name);
    }
}

#[test]
fn real_protocol_is_clean_on_every_committed_reproducer() {
    for fx in corpus() {
        let sc = fx.scenario();
        let n = sc.n;
        let outcome = run_case_sim(&sc, |id| Alg1::new(id, n));
        assert!(
            outcome.oracle.ok(),
            "fixture '{}' (recorded against the weakened protocol, \
             violations then: {:?}) now fails on the real protocol: {:?}",
            fx.name,
            fx.violations,
            outcome
                .oracle
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
        assert!(
            outcome.report.stats.ops_completed > 0,
            "fixture '{}' replay completed no operations — a vacuous pass",
            fx.name
        );
    }
}

/// Runs `cfg` against Alg 1. A finding panics with its scenario —
/// shrunk, for simulator findings — as fixture JSON, ready to commit.
fn deep_soak(cfg: CampaignConfig) {
    let n = cfg.n;
    let report = run_campaign(&cfg, move |id| Alg1::new(id, n));
    assert!(report.stabilizations > 0, "the corruption strategies ran");
    let fixtures: Vec<String> = report
        .findings
        .iter()
        .map(|f| f.fixture().to_json())
        .collect();
    assert!(
        fixtures.is_empty(),
        "{} finding(s), shrunk:\n{}",
        fixtures.len(),
        fixtures.join("\n")
    );
}

#[test]
#[ignore = "nightly seed budget"]
fn deep_soak_64_seeds_on_both_backends() {
    deep_soak(CampaignConfig {
        seeds: (0..64).collect(),
        ..CampaignConfig::default()
    });
}

/// The hunting overrides (short think times, write-heavy mix, heavy
/// duplication) under which `planted_mutation_is_caught_and_shrunk`
/// catches a weakened Alg 1, pointed at the real protocol. Simulator
/// only, so every finding shrinks deterministically.
#[test]
#[ignore = "nightly seed budget"]
fn deep_hunt_128_seeds_on_the_simulator() {
    deep_soak(
        CampaignConfig {
            seeds: (0..128).collect(),
            backend: BackendChoice::Sim,
            ..CampaignConfig::default()
        }
        .hunting(),
    );
}

/// A larger cluster stresses quorum geometry n = 5 cannot: bigger
/// minorities, 3-way partitions.
#[test]
#[ignore = "nightly seed budget"]
fn deep_soak_n7_32_seeds_on_both_backends() {
    deep_soak(CampaignConfig {
        n: 7,
        seeds: (0..32).collect(),
        ..CampaignConfig::default()
    });
}
