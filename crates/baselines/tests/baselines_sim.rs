//! End-to-end tests of the three baselines under the simulator.

use sss_baselines::{Dgfr1, Dgfr2, Stacked};
use sss_sim::{Sim, SimConfig};
use sss_types::{MsgKind, NodeId, OpResponse, Protocol, SnapshotOp};

#[test]
fn dgfr1_write_then_snapshot() {
    let mut s = Sim::new(SimConfig::small(3), |id| Dgfr1::init(id, 3));
    s.invoke_at(0, NodeId(0), SnapshotOp::Write(42));
    assert!(s.run_until_idle(5_000_000));
    s.invoke_at(s.now(), NodeId(1), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(10_000_000));
    let snap = s
        .history()
        .completed()
        .find_map(|r| r.response.as_ref().and_then(OpResponse::as_snapshot))
        .unwrap();
    assert_eq!(snap.value_of(NodeId(0)), Some(42));
}

#[test]
fn dgfr1_no_background_traffic() {
    let mut s = Sim::new(SimConfig::small(3), |id| Dgfr1::init(id, 3));
    s.run_until(100_000);
    assert_eq!(s.metrics().total_sent(), 0, "idle baseline is silent");
}

#[test]
fn dgfr1_does_not_recover_from_corruption() {
    // The headline negative result: rewinding ts at one node makes its
    // subsequent writes invisible, and nothing ever repairs it.
    let mut s = Sim::new(SimConfig::small(3), |id| Dgfr1::init(id, 3));
    s.invoke_at(0, NodeId(0), SnapshotOp::Write(1));
    for _ in 0..5 {
        let t = s.now() + 1;
        s.invoke_at(t, NodeId(0), SnapshotOp::Write(2));
        s.run_until_idle(5_000_000);
    }
    // ts at p0 is now ≥ 6 everywhere. Rewind p0's ts only (targeted
    // corruption; reg keeps the high-ts entry at the other nodes).
    s.node_mut(NodeId(0)).restart(); // all variables re-initialized: ts = 0
    s.run_for_cycles(6, 50_000_000);
    assert!(
        !s.node(NodeId(0)).local_invariants_hold() || s.node(NodeId(0)).ts() == 0,
        "no gossip: p0 cannot learn its own old timestamp"
    );
    // A new write by p0 uses ts=1 and loses to the stale ts=6 value.
    s.invoke_at(s.now(), NodeId(0), SnapshotOp::Write(99));
    s.run_until_idle(5_000_000);
    s.invoke_at(s.now(), NodeId(1), SnapshotOp::Snapshot);
    s.run_until_idle(10_000_000);
    let snap = s
        .history()
        .completed()
        .filter_map(|r| r.response.as_ref().and_then(OpResponse::as_snapshot))
        .last()
        .unwrap();
    assert_ne!(
        snap.value_of(NodeId(0)),
        Some(99),
        "the new write was swallowed — exactly the failure the paper fixes"
    );
}

#[test]
fn dgfr2_write_then_snapshot() {
    let mut s = Sim::new(SimConfig::small(3), |id| Dgfr2::new(id, 3));
    s.invoke_at(0, NodeId(0), SnapshotOp::Write(7));
    assert!(s.run_until_idle(5_000_000));
    s.invoke_at(s.now(), NodeId(1), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(20_000_000));
    let snap = s
        .history()
        .completed()
        .find_map(|r| r.response.as_ref().and_then(OpResponse::as_snapshot))
        .unwrap();
    assert_eq!(snap.value_of(NodeId(0)), Some(7));
}

#[test]
fn dgfr2_all_nodes_snapshot_concurrently() {
    let mut s = Sim::new(SimConfig::small(4).with_seed(9), |id| Dgfr2::new(id, 4));
    for i in 0..4 {
        s.invoke_at(10 + i, NodeId(i as usize), SnapshotOp::Snapshot);
    }
    assert!(s.run_until_idle(100_000_000));
    assert_eq!(s.history().completed().count(), 4);
}

#[test]
fn dgfr2_uses_reliable_broadcast_traffic() {
    let mut s = Sim::new(SimConfig::small(4), |id| Dgfr2::new(id, 4));
    s.invoke_at(10, NodeId(0), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(50_000_000));
    let m = s.metrics();
    assert!(m.kind(MsgKind::Snap).sent > 0, "SNAP reliably broadcast");
    assert!(m.kind(MsgKind::End).sent > 0, "END reliably broadcast");
}

#[test]
fn dgfr2_tolerates_minority_crash() {
    let mut s = Sim::new(SimConfig::small(5).with_seed(2), |id| Dgfr2::new(id, 5));
    s.crash_at(0, NodeId(4));
    s.invoke_at(10, NodeId(0), SnapshotOp::Write(3));
    s.invoke_at(20, NodeId(1), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(100_000_000));
}

#[test]
fn stacked_write_then_snapshot() {
    let mut s = Sim::new(SimConfig::small(3), |id| Stacked::new(id, 3));
    s.invoke_at(0, NodeId(0), SnapshotOp::Write(5));
    assert!(s.run_until_idle(5_000_000));
    s.invoke_at(s.now(), NodeId(2), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(10_000_000));
    let snap = s
        .history()
        .completed()
        .find_map(|r| r.response.as_ref().and_then(OpResponse::as_snapshot))
        .unwrap();
    assert_eq!(snap.value_of(NodeId(0)), Some(5));
}

#[test]
fn stacked_snapshot_costs_about_8n_messages() {
    let n = 5;
    let mut s = Sim::new(SimConfig::small(n), move |id| Stacked::new(id, n));
    s.run_until(1_000); // settle rounds
    let before = s.metrics().clone();
    s.invoke_at(s.now(), NodeId(0), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(10_000_000));
    let d = s.metrics().delta_since(&before);
    let sent = d.total_sent();
    // Double collect: 2 × (query + ack + write-back + ack) ≈ 8n.
    assert!(
        (6 * n as u64..=10 * n as u64).contains(&sent),
        "expected ≈8n messages, got {sent}"
    );
}

#[test]
fn stacked_write_costs_about_2n_messages() {
    let n = 5;
    let mut s = Sim::new(SimConfig::small(n), move |id| Stacked::new(id, n));
    s.run_until(1_000);
    let before = s.metrics().clone();
    s.invoke_at(s.now(), NodeId(0), SnapshotOp::Write(1));
    assert!(s.run_until_idle(10_000_000));
    let d = s.metrics().delta_since(&before);
    let sent = d.total_sent();
    assert!(
        (2 * n as u64 - 2..=3 * n as u64).contains(&sent),
        "expected ≈2n messages, got {sent}"
    );
}

#[test]
fn all_baselines_deterministic() {
    let h1 = {
        let mut s = Sim::new(SimConfig::harsh(3).with_seed(4), |id| Dgfr2::new(id, 3));
        s.invoke_at(0, NodeId(0), SnapshotOp::Snapshot);
        s.run_until_idle(50_000_000);
        s.trace_hash()
    };
    let h2 = {
        let mut s = Sim::new(SimConfig::harsh(3).with_seed(4), |id| Dgfr2::new(id, 3));
        s.invoke_at(0, NodeId(0), SnapshotOp::Snapshot);
        s.run_until_idle(50_000_000);
        s.trace_hash()
    };
    assert_eq!(h1, h2);
}
