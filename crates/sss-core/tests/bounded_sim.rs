//! End-to-end tests of the Section 5 bounded-counter construction under
//! the simulator.

use sss_core::{Alg1, Alg3, Alg3Config, Bounded, BoundedConfig};
use sss_sim::{FaultKind, MemorySink, Sim, SimConfig, TraceEvent, Tracer};
use sss_types::{NodeId, OpResponse, Protocol, SnapshotOp};
use sss_workload::unique_value;

type B1 = Bounded<Alg1>;

fn sim1(n: usize, max_int: u64, seed: u64) -> Sim<B1> {
    Sim::new(SimConfig::small(n).with_seed(seed), move |id| {
        Bounded::new(Alg1::new(id, n), BoundedConfig { max_int })
    })
}

#[test]
fn normal_operation_below_threshold() {
    let mut s = sim1(3, 1_000, 1);
    s.invoke_at(0, NodeId(0), SnapshotOp::Write(unique_value(NodeId(0), 1)));
    assert!(s.run_until_idle(5_000_000));
    s.invoke_at(s.now(), NodeId(1), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(10_000_000));
    assert_eq!(s.node(NodeId(0)).epoch(), 0);
    assert_eq!(s.node(NodeId(0)).resets_done(), 0);
}

#[test]
fn reaching_maxint_triggers_a_global_reset_preserving_values() {
    let max_int = 8;
    let mut s = sim1(3, max_int, 2);
    // Perform max_int writes at node 0: the index hits the threshold.
    for seq in 1..=max_int {
        let t = s.now() + 1;
        s.invoke_at(
            t,
            NodeId(0),
            SnapshotOp::Write(unique_value(NodeId(0), seq)),
        );
        if !s.run_until_idle(50_000_000) {
            break; // the last write may be aborted by the reset — fine
        }
    }
    // Run until the reset completes everywhere.
    let done = s.run_while(200_000_000, |sim| {
        (0..3).any(|i| sim.node(NodeId(i)).epoch() == 0 || sim.node(NodeId(i)).is_wrapping())
    });
    assert!(done, "global reset completes");
    for i in 0..3 {
        let node = s.node(NodeId(i));
        assert_eq!(node.epoch(), 1, "node {i} epoch");
        // Indices wrapped to small values…
        assert!(node.inner().ts() <= 1, "node {i} wrapped ts");
        // …but the last written value survived.
        assert_eq!(
            node.inner().reg().get(NodeId(0)).val,
            unique_value(NodeId(0), max_int),
            "node {i} kept the register value"
        );
    }
    // The object is usable after the reset.
    s.invoke_at(
        s.now(),
        NodeId(1),
        SnapshotOp::Write(unique_value(NodeId(1), 1)),
    );
    s.invoke_at(s.now() + 1, NodeId(2), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(100_000_000));
    let snap = s
        .history()
        .completed()
        .filter_map(|r| r.response.as_ref().and_then(OpResponse::as_snapshot))
        .last()
        .unwrap();
    assert_eq!(
        snap.value_of(NodeId(0)),
        Some(unique_value(NodeId(0), max_int)),
        "post-reset snapshot sees the preserved value"
    );
}

#[test]
fn corrupted_counter_jump_is_healed_by_reset() {
    // A transient fault pushes an index near MAXINT: the construction
    // wraps it instead of dying of overflow.
    let mut s = sim1(4, 1 << 16, 3);
    s.invoke_at(0, NodeId(1), SnapshotOp::Write(unique_value(NodeId(1), 1)));
    assert!(s.run_until_idle(5_000_000));
    // Corruption: indices jump to ~2^20 > MAXINT (corrupt draws % 2^20).
    s.corrupt_node_now(NodeId(2));
    let healed = s.run_while(500_000_000, |sim| {
        (0..4).any(|i| {
            let node = sim.node(NodeId(i));
            node.is_wrapping() || !node.local_invariants_hold()
        })
    });
    assert!(healed, "all nodes below MAXINT and not wrapping");
    let epochs: Vec<u64> = (0..4).map(|i| s.node(NodeId(i)).epoch()).collect();
    assert!(
        epochs.iter().all(|&e| e == epochs[0]),
        "epoch agreement: {epochs:?}"
    );
    // Usable afterwards.
    s.invoke_at(s.now(), NodeId(3), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(100_000_000));
}

/// A transient fault injected with `corrupt_node_now` is probed at
/// once, like a scheduled one: its `EpochChange` record directly follows
/// its `Fault` record, at the same virtual time, rather than waiting for
/// the node's next step.
#[test]
fn immediate_corruption_reports_its_epoch_change_at_once() {
    let (sink, buf) = MemorySink::new();
    let mut s = sim1(3, 1 << 16, 5);
    s.set_tracer(Tracer::new(3).with_sink(sink));
    s.invoke_at(0, NodeId(0), SnapshotOp::Write(unique_value(NodeId(0), 1)));
    assert!(s.run_until_idle(5_000_000));
    let p = NodeId(1);
    let before = s.node(p).epoch();
    s.corrupt_node_now(p);
    let epoch = s.node(p).epoch();
    assert_ne!(epoch, before, "the corruption redraws p's epoch");
    let now = s.now();
    s.run_until(now + 1_000);
    let records = buf.records();
    let is_fault = |e: &TraceEvent| {
        *e == TraceEvent::Fault {
            kind: FaultKind::Corrupt,
            node: Some(p),
            peer: None,
        }
    };
    let k = records.iter().position(|r| is_fault(&r.event)).unwrap();
    let next = records.get(k + 1).expect("a record follows the fault");
    assert_eq!((records[k].at, next.at), (now, now));
    assert!(
        matches!(next.event, TraceEvent::EpochChange { node, epoch: e, .. } if node == p && e == epoch),
        "the fault's epoch change comes next, got {:?}",
        next.event
    );
}

#[test]
fn aborts_are_bounded_and_reported() {
    let max_int = 5;
    let mut s = sim1(3, max_int, 4);
    for seq in 1..=max_int + 2 {
        let t = s.now() + 1;
        s.invoke_at(
            t,
            NodeId(0),
            SnapshotOp::Write(unique_value(NodeId(0), seq)),
        );
        s.run_until_idle(50_000_000);
    }
    s.run_while(200_000_000, |sim| {
        (0..3).any(|i| sim.node(NodeId(i)).is_wrapping())
    });
    let total_aborts: u64 = (0..3).map(|i| s.node(NodeId(i)).aborted_ops()).sum();
    let completed = s.history().completed().count();
    // The write that pushes the index to MAXINT may itself be aborted
    // (its node disables operations before collecting the acks).
    assert!(
        completed >= max_int as usize - 1,
        "most writes completed: {completed}"
    );
    assert!(
        total_aborts <= 4,
        "only a bounded number aborted: {total_aborts}"
    );
}

#[test]
fn bounded_alg3_also_resets() {
    let n = 3;
    let max_int = 6;
    let mut s: Sim<Bounded<Alg3>> = Sim::new(SimConfig::small(n).with_seed(5), move |id| {
        Bounded::new(
            Alg3::new(id, n, Alg3Config { delta: 0 }),
            BoundedConfig { max_int },
        )
    });
    for seq in 1..=max_int {
        let t = s.now() + 1;
        s.invoke_at(
            t,
            NodeId(1),
            SnapshotOp::Write(unique_value(NodeId(1), seq)),
        );
        if !s.run_until_idle(50_000_000) {
            break;
        }
    }
    let done = s.run_while(300_000_000, |sim| {
        (0..n).any(|i| sim.node(NodeId(i)).epoch() == 0 || sim.node(NodeId(i)).is_wrapping())
    });
    assert!(done, "Alg3 reset completes");
    for i in 0..n {
        assert_eq!(
            s.node(NodeId(i)).inner().reg().get(NodeId(1)).val,
            unique_value(NodeId(1), max_int),
            "value preserved at node {i}"
        );
    }
    // Snapshot after reset works and sees the preserved value.
    s.invoke_at(s.now(), NodeId(2), SnapshotOp::Snapshot);
    assert!(s.run_until_idle(100_000_000));
}

/// The paper's *seldom fairness* requirement made visible: the global
/// reset needs every node to participate, so a crashed node stalls the
/// reset (operations stay disabled) until it resumes — after which the
/// reset completes and normal operation returns. Outside reset periods no
/// fairness is needed, which is the whole point of "seldom".
#[test]
fn reset_requires_seldom_fairness() {
    let max_int = 6;
    let mut s = sim1(4, max_int, 7);
    s.crash_at(0, NodeId(3));
    // Drive the index to the threshold (majority is alive: writes work).
    for seq in 1..=max_int {
        let t = s.now() + 1;
        s.invoke_at(
            t,
            NodeId(0),
            SnapshotOp::Write(unique_value(NodeId(0), seq)),
        );
        if !s.run_until_idle(100_000_000) {
            break;
        }
    }
    // The reset cannot finish while p3 is crashed: the coordinator waits
    // for all n sync responses (the paper assumes all nodes are alive
    // during the seldom reset).
    let finished_while_crashed = s.run_while(30_000_000, |sim| {
        (0..4).any(|i| sim.node(NodeId(i)).is_wrapping() || sim.node(NodeId(i)).epoch() == 0)
    });
    assert!(
        !finished_while_crashed,
        "reset must stall without full participation"
    );
    // Resume: fairness is restored, the reset completes everywhere.
    s.resume_at(s.now() + 1, NodeId(3));
    let done = s.run_while(500_000_000, |sim| {
        (0..4).any(|i| sim.node(NodeId(i)).is_wrapping() || sim.node(NodeId(i)).epoch() == 0)
    });
    assert!(done, "reset completes once the node resumes");
    for i in 0..4 {
        assert_eq!(s.node(NodeId(i)).epoch(), 1);
    }
}
