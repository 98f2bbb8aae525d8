//! Algorithm 3's client operations run on demand, not on the `do
//! forever` timer: virtual time shows what the timer contributes to an
//! operation (nothing) and what it alone still has to do (stabilize).

use sss_core::{Alg3, Alg3Config};
use sss_sim::{Sim, SimConfig};
use sss_types::{NodeId, Protocol, SnapshotOp};

const N: usize = 3;

fn sim(round_interval: u64) -> Sim<Alg3> {
    let cfg = SimConfig {
        round_interval,
        ..SimConfig::small(N)
    };
    Sim::new(cfg, |id| Alg3::new(id, N, Alg3Config { delta: 2 }))
}

/// Virtual latencies of a write at p0 followed by a snapshot at p1, both
/// on an otherwise idle system.
fn write_then_snapshot_latencies(round_interval: u64) -> Vec<u64> {
    let mut sim = sim(round_interval);
    sim.invoke_at(5, NodeId(0), SnapshotOp::Write(41));
    assert!(sim.run_until_idle(5_000_000));
    sim.invoke_at(sim.now() + 1, NodeId(1), SnapshotOp::Snapshot);
    assert!(sim.run_until_idle(5_000_000));
    let latencies: Vec<u64> = sim
        .history()
        .completed()
        .map(|r| r.completed_at.expect("completed") - r.invoked_at)
        .collect();
    assert_eq!(latencies.len(), 2);
    latencies
}

#[test]
fn a_hundred_times_longer_rounds_leave_uncontended_latency_unchanged() {
    let base = SimConfig::small(N).round_interval;
    let short = write_then_snapshot_latencies(base);
    assert_eq!(short, write_then_snapshot_latencies(100 * base));
    // And neither operation waited for a round in the first place.
    assert!(short.iter().all(|&l| l < base), "{short:?}");
}

#[test]
fn the_heartbeat_alone_restores_the_invariants_after_corruption() {
    let mut sim = sim(SimConfig::small(N).round_interval);
    sim.run_until(1_000);
    for k in 0..N {
        sim.corrupt_node_now(NodeId(k));
    }
    // No client traffic: only rounds and the gossip they send.
    let deadline = sim.now() + 10 * sim.config().round_interval;
    sim.run_until(deadline);
    for k in 0..N {
        assert!(sim.node(NodeId(k)).local_invariants_hold(), "p{k}");
    }
}
