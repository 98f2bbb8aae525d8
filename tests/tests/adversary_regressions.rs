//! Replays the committed adversarial reproducer corpus
//! (`tests/fixtures/chaos/adversary/*.json`) against `Bounded<Alg1>` on
//! the deterministic simulator. These fixtures were minimized by ddmin
//! with a property-preserving predicate: the property each preserves is
//! the *adversarial behaviour itself* — a global reset finishing under
//! an active partition, a persistent equivocator that the honest core
//! survives — so the replay asserts those properties, not merely a
//! clean verdict.
//!
//! The `#[ignore]`d tests sweep both adversarial strategies at the
//! nightly seed budgets (`cargo test --release -p sss-integration --test
//! adversary_regressions -- --ignored`).

use sss_chaos::{
    bounded_alg1, run_campaign, run_case_sim, BackendChoice, CampaignConfig, CaseOutcome, Fixture,
    StrategyKind, INV_EPOCH_MONOTONICITY, INV_NO_STALE_EPOCH_LEAK, INV_POST_RESET_LINEARIZABILITY,
};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/chaos/adversary")
}

fn corpus() -> Vec<Fixture> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("adversary fixture directory") {
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

fn replay(fx: &Fixture) -> CaseOutcome {
    let sc = fx.scenario();
    run_case_sim(&sc, bounded_alg1(sc.strategy, sc.n))
}

fn held(outcome: &CaseOutcome, invariant: &str) -> bool {
    outcome
        .oracle
        .survival
        .as_ref()
        .is_some_and(|s| s.held.contains(&invariant))
}

#[test]
fn adversary_corpus_is_nonempty_and_canonical() {
    let fixtures = corpus();
    let strategies: Vec<StrategyKind> = fixtures.iter().map(|f| f.strategy).collect();
    assert!(
        strategies.contains(&StrategyKind::CounterExhaustion)
            && strategies.contains(&StrategyKind::ByzantineStorm),
        "both adversarial strategies must stay covered: {strategies:?}"
    );
    for fx in &fixtures {
        let path = corpus_dir().join(format!("{}.json", fx.name));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(fx.to_json(), on_disk, "{} is not canonical", fx.name);
    }
}

#[test]
fn counter_exhaustion_fixtures_fire_a_clean_reset() {
    for fx in corpus()
        .iter()
        .filter(|f| f.strategy == StrategyKind::CounterExhaustion)
    {
        let outcome = replay(fx);
        assert!(
            outcome.oracle.ok(),
            "fixture '{}' violates: {:?}",
            fx.name,
            outcome
                .oracle
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
        assert!(
            outcome
                .report
                .probes
                .iter()
                .all(|p| p.epoch >= 1 && !p.wrapping),
            "fixture '{}' must finish a global reset on every node: {:?}",
            fx.name,
            outcome.report.probes
        );
        assert!(
            held(&outcome, INV_POST_RESET_LINEARIZABILITY),
            "fixture '{}' must verify the post-reset suffix: {:?}",
            fx.name,
            outcome.oracle.survival
        );
        assert!(
            outcome.report.stats.ops_completed > 0,
            "fixture '{}' replay completed no operations — a vacuous pass",
            fx.name
        );
    }
}

#[test]
fn byzantine_storm_fixtures_keep_the_honest_core_intact() {
    for fx in corpus()
        .iter()
        .filter(|f| f.strategy == StrategyKind::ByzantineStorm)
    {
        let outcome = replay(fx);
        assert!(
            outcome.oracle.ok(),
            "Byzantine observations must never escalate to violations: {:?}",
            outcome
                .oracle
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
        assert!(
            !outcome.oracle.lin_checked,
            "liars on the wire: the full-history check must not run"
        );
        assert!(
            held(&outcome, INV_EPOCH_MONOTONICITY) && held(&outcome, INV_NO_STALE_EPOCH_LEAK),
            "fixture '{}' must hold the honest-core invariants: {:?}",
            fx.name,
            outcome.oracle.survival
        );
        assert!(
            outcome.report.stats.ops_completed > 0,
            "fixture '{}' replay completed no operations — a vacuous pass",
            fx.name
        );
    }
}

/// Every adversarial strategy × `seeds` on `Bounded<Alg1>`, n nodes, on
/// the simulator. A fault-only case that breaks an invariant panics with
/// its shrunk scenario as fixture JSON, ready to commit.
fn deep_adversary_soak(n: usize, seeds: u64) {
    let mut fixtures = Vec::new();
    for strategy in StrategyKind::ADVERSARIAL {
        let cfg = CampaignConfig {
            n,
            strategies: vec![strategy],
            seeds: (0..seeds).collect(),
            backend: BackendChoice::Sim,
            shrink_runs: 150,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, bounded_alg1(strategy, n));
        fixtures.extend(report.findings.iter().map(|f| f.fixture().to_json()));
    }
    assert!(
        fixtures.is_empty(),
        "{} finding(s), shrunk:\n{}",
        fixtures.len(),
        fixtures.join("\n")
    );
}

#[test]
#[ignore = "nightly seed budget"]
fn deep_adversary_soak_64_seeds() {
    deep_adversary_soak(5, 64);
}

#[test]
#[ignore = "nightly seed budget"]
fn deep_adversary_soak_n7_24_seeds() {
    deep_adversary_soak(7, 24);
}
