//! E16 — Chaos soak: the adversary engine sweeps strategy-generated
//! fault plans against Alg 1 on both backends, every run judged by the
//! linearizability checker plus the self-stabilization oracle, every
//! simulator finding delta-debugged down to a committable reproducer.
//!
//! Modes:
//! * default — full soak: per-strategy campaign table (cases, op
//!   counters, corruption/stabilization/inconclusive tallies, findings)
//!   with each finding's shrink summary; exits 1 if anything failed;
//! * `--smoke` — CI gate: every strategy × 4 seeds on **both** backends
//!   (the ISSUE's floor), exits 1 on any oracle violation;
//! * `--degrade` — graceful-degradation measurement: fail-fast latency
//!   under a majority partition on the threaded runtime versus the op
//!   timeout, plus retry-after-heal recovery (the README's numbers).
//!
//! Flags (soak/smoke):
//! * `--backend {sim,threads,both}` — backends to sweep (default both);
//! * `--seeds N` — seeds per strategy (default 4);
//! * `--strategy NAME` — restrict to one strategy (default all five);
//! * `--n N` — cluster size (default 5);
//! * `--shrink-runs N` — shrink budget per finding (default 400);
//! * `--hunt` — apply the "hunt harder" workload/link overrides
//!   ([`CampaignConfig::hunting`]): short think times, write-heavy mix,
//!   heavy duplication — the settings under which
//!   `sss-chaos`'s `planted_mutation_is_caught_and_shrunk` test catches a
//!   deliberately weakened Alg 1;
//! * `--out DIR` — write each finding (shrunk when available) as a
//!   fixture JSON into DIR, the format `tests/fixtures/chaos/` commits;
//! * `--http PORT` — attach the live ops plane: every case's trace also
//!   feeds a [`sss_obs::OpsPlane`] aggregator served over HTTP
//!   (`/node_info`, `/metrics`, `/shards`) for the duration of the soak,
//!   so a dashboard or scraper can watch faults and stabilizations land
//!   in real time (`0` picks an ephemeral port).

use sss_chaos::{
    run_campaign_with_ops, BackendChoice, CampaignConfig, CampaignReport, Fixture, StrategyKind,
};
use sss_core::Alg1;
use sss_obs::{OpsHttpServer, OpsPlane, Tracer};
use sss_runtime::{Cluster, ClusterConfig, ClusterError, RetryPolicy};
use sss_types::NodeId;
use std::time::{Duration, Instant};

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{name} takes a value"))
            .clone()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--degrade") {
        degrade();
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");

    let n: usize = flag_value("--n").map_or(5, |v| v.parse().expect("--n takes an integer"));
    let seeds: u64 =
        flag_value("--seeds").map_or(4, |v| v.parse().expect("--seeds takes an integer"));
    let backend = flag_value("--backend").map_or(BackendChoice::Both, |v| {
        BackendChoice::from_name(&v).unwrap_or_else(|| panic!("--backend takes sim|threads|both"))
    });
    let strategies: Vec<StrategyKind> =
        match flag_value("--strategy") {
            None => StrategyKind::ALL.to_vec(),
            Some(name) => vec![StrategyKind::from_name(&name)
                .unwrap_or_else(|| panic!("unknown strategy '{name}'"))],
        };
    let shrink_runs: usize = flag_value("--shrink-runs")
        .map_or(400, |v| v.parse().expect("--shrink-runs takes an integer"));
    let out_dir = flag_value("--out");
    // The smoke gate is the ISSUE's acceptance floor: every strategy,
    // ≥4 seeds, both backends, zero violations.
    let (backend, strategies, shrink_runs) = if smoke {
        (BackendChoice::Both, StrategyKind::ALL.to_vec(), shrink_runs)
    } else {
        (backend, strategies, shrink_runs)
    };

    println!(
        "E16: chaos soak — {} strategies × {seeds} seeds, n = {n}, backend = {backend:?}\n",
        strategies.len()
    );

    // --http attaches the live ops plane: campaign cases forward their
    // traces into the aggregator, and the aggregator's state is served
    // over HTTP for the duration of the soak.
    let ops_plane = flag_value("--http").map(|v| {
        let port: u16 = v.parse().expect("--http takes a port number");
        let ops = OpsPlane::start(n);
        let server = OpsHttpServer::serve(ops.metrics(), port).expect("bind ops HTTP server");
        println!(
            "ops plane: http://{} (/node_info, /metrics, /shards)\n",
            server.addr()
        );
        (ops, server)
    });
    let ops_tracer = ops_plane
        .as_ref()
        .map_or_else(Tracer::off, |(ops, _)| ops.tracer());

    let mut table = sss_bench::Table::new(&[
        "strategy",
        "cases",
        "completed",
        "timed out",
        "unavailable",
        "corrupt",
        "stabilized",
        "inconcl",
        "findings",
    ]);
    let mut findings_total = 0usize;
    let mut reports: Vec<(StrategyKind, CampaignReport)> = Vec::new();
    let hunt = args.iter().any(|a| a == "--hunt");
    for &strategy in &strategies {
        let mut cfg = CampaignConfig {
            n,
            strategies: vec![strategy],
            seeds: (0..seeds).collect(),
            backend,
            shrink_runs,
            ..CampaignConfig::default()
        };
        if hunt {
            cfg = cfg.hunting();
        }
        let report =
            run_campaign_with_ops(&cfg, move |id| Alg1::new(id, n), |_, _| {}, &ops_tracer);
        table.row(vec![
            strategy.name().to_string(),
            report.cases.to_string(),
            report.ops_completed.to_string(),
            report.ops_timed_out.to_string(),
            report.ops_unavailable.to_string(),
            report.corruptions.to_string(),
            report.stabilizations.to_string(),
            report.inconclusive.to_string(),
            report.findings.len().to_string(),
        ]);
        findings_total += report.findings.len();
        reports.push((strategy, report));
    }
    table.print();

    for (strategy, report) in &reports {
        for (i, f) in report.findings.iter().enumerate() {
            println!();
            println!(
                "FINDING {}#{i} [{}] {}:",
                strategy.name(),
                f.backend,
                f.scenario.label()
            );
            for v in &f.violations {
                println!("  - {v}");
            }
            if let Some(s) = &f.shrunk {
                println!(
                    "  shrunk {} -> {} events in {} re-executions",
                    s.from_events, s.to_events, s.runs
                );
            }
            if let Some(dir) = &out_dir {
                let mut sc = f.scenario.clone();
                if let Some(s) = &f.shrunk {
                    sc = sc.with_plan(s.plan.clone());
                }
                let name = format!("{}-s{}-{}-{i}", strategy.name(), sc.seed, f.backend);
                let fx = Fixture::capture(&name, f.backend, &sc, f.violations.clone());
                std::fs::create_dir_all(dir).expect("create --out dir");
                let path = format!("{dir}/{name}.json");
                std::fs::write(&path, fx.to_json()).expect("write fixture");
                println!("  fixture -> {path}");
            }
        }
    }

    if let Some((ops, server)) = ops_plane {
        let folded = ops.stop();
        drop(server);
        println!();
        println!(
            "ops plane: folded {} records ({} cycles, {} tainted at close, {} shed)",
            folded.records(),
            folded.cycles(),
            folded.tainted_count(),
            folded.shed()
        );
    }

    println!();
    if findings_total == 0 {
        println!(
            "soak: clean ({} strategies, zero oracle violations)",
            strategies.len()
        );
        if smoke {
            println!("smoke: OK");
        }
    } else {
        println!("soak: {findings_total} finding(s) — see above");
        std::process::exit(1);
    }
}

/// The graceful-degradation measurement: with a majority partitioned
/// away, client operations must fail fast with `Unavailable` (carrying
/// the failure detector's evidence) instead of stalling for the full op
/// timeout; after `Heal`, a retrying client recovers within its backoff
/// budget.
fn degrade() {
    let n = 5;
    let trials = 5;
    let mut cfg = ClusterConfig::new(n);
    cfg.op_timeout = Duration::from_secs(3);
    let op_timeout = cfg.op_timeout;
    println!("E16 --degrade: fail-fast under quorum loss (n = {n}, op_timeout = {op_timeout:?})\n");
    let cluster = Cluster::new(cfg, move |id| Alg1::new(id, n));
    // Warm the heard matrix so silence is attributable to the partition.
    cluster.client(NodeId(0)).write(1 << 40).unwrap();
    cluster.await_rounds(2);
    // Node 4 lands in a 2-node minority: no reachable majority.
    cluster.partition(&[
        [NodeId(0), NodeId(1), NodeId(2)].as_slice(),
        [NodeId(3), NodeId(4)].as_slice(),
    ]);

    let mut table = sss_bench::Table::new(&["trial", "op", "outcome", "latency", "% of timeout"]);
    let mut worst = Duration::ZERO;
    for trial in 0..trials {
        for (op, run) in [("write", true), ("snapshot", false)] {
            let client = cluster.client(NodeId(4));
            let started = Instant::now();
            let err = if run {
                client.write(((4u64 + 1) << 40) | (trial + 2)).unwrap_err()
            } else {
                client.snapshot().unwrap_err()
            };
            let elapsed = started.elapsed();
            worst = worst.max(elapsed);
            let outcome = match err {
                ClusterError::Unavailable(ev) => {
                    format!("Unavailable ({}/{} reachable)", ev.reachable, ev.required)
                }
                other => format!("{other:?}"),
            };
            table.row(vec![
                trial.to_string(),
                op.to_string(),
                outcome,
                format!("{:.1} ms", elapsed.as_secs_f64() * 1e3),
                format!(
                    "{:.1}%",
                    100.0 * elapsed.as_secs_f64() / op_timeout.as_secs_f64()
                ),
            ]);
        }
    }
    table.print();

    // Recovery: a retrying client rides its backoff over the heal.
    let retry = cluster.client(NodeId(4)).retrying(RetryPolicy::default());
    let started = Instant::now();
    let retrier = std::thread::spawn(move || retry.write((5u64 << 40) | 99));
    std::thread::sleep(Duration::from_millis(50));
    cluster.heal_partition();
    retrier
        .join()
        .unwrap()
        .expect("retry must succeed after heal");
    let recovered = started.elapsed();
    cluster.shutdown();

    println!();
    println!(
        "worst fail-fast latency: {:.1} ms ({:.1}% of the {op_timeout:?} op timeout; pre-detector \
         behaviour was a full-timeout stall)",
        worst.as_secs_f64() * 1e3,
        100.0 * worst.as_secs_f64() / op_timeout.as_secs_f64(),
    );
    println!(
        "retry-after-heal: recovered in {:.1} ms (heal injected 50 ms in)",
        recovered.as_secs_f64() * 1e3
    );
    let bound = op_timeout.mul_f64(0.2);
    if worst >= bound {
        eprintln!("GATE FAIL: fail-fast exceeded 20% of the op timeout");
        std::process::exit(1);
    }
}
