//! The batched message plane, end to end: every message a step emits
//! travels (the outbox and the threaded runtime merge nothing, as the
//! simulator merges nothing), the batched threaded runtime must pass the
//! linearizability checker on the same fault plan the simulator passes,
//! and the runtime counters the benchmark reads must actually count.

use sss_checker::check;
use sss_core::{Alg1, Alg1Msg};
use sss_runtime::{Cluster, ClusterConfig, ThreadBackend};
use sss_sim::{Backend, RunReport, SimBackend, SimConfig};
use sss_types::{Effects, NodeId, OpId, OpResponse, Outbox, Protocol, SnapshotOp, Tagged};
use sss_workload::{unique_value, FaultEvent, FaultPlan, WorkloadSpec};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: usize = 4;

// ---------- every emitted message travels -------------------------------

fn gossip(ts: u64) -> Alg1Msg {
    Alg1Msg::Gossip {
        cell: Tagged::new(ts * 10, ts),
    }
}

/// Two gossip cells to one peer, the second a join of the first, both
/// leave the outbox, in push order.
#[test]
fn outbox_keeps_joinable_gossip_to_one_peer() {
    let mut out = Outbox::new(N);
    out.push(NodeId(1), gossip(1));
    out.push(NodeId(2), gossip(5));
    out.push(NodeId(1), gossip(2));
    let sent: Vec<(NodeId, Alg1Msg)> = out.drain().collect();
    assert_eq!(
        sent,
        vec![
            (NodeId(1), gossip(1)),
            (NodeId(2), gossip(5)),
            (NodeId(1), gossip(2)),
        ]
    );
}

/// Node 0 answers an invocation by sending node 1 two joinable gossip
/// cells in one step; every node records each message it receives.
struct TwoGossips {
    id: NodeId,
    received: Arc<Mutex<Vec<Alg1Msg>>>,
}

impl Protocol for TwoGossips {
    type Msg = Alg1Msg;
    fn id(&self) -> NodeId {
        self.id
    }
    fn n(&self) -> usize {
        2
    }
    fn on_round(&mut self, _fx: &mut Effects<Alg1Msg>) {}
    fn on_message(&mut self, _from: NodeId, msg: Alg1Msg, _fx: &mut Effects<Alg1Msg>) {
        self.received.lock().unwrap().push(msg);
    }
    fn invoke(&mut self, id: OpId, _op: SnapshotOp, fx: &mut Effects<Alg1Msg>) {
        fx.send(NodeId(1), gossip(1));
        fx.send(NodeId(1), gossip(2));
        fx.complete(id, OpResponse::WriteDone);
    }
    fn is_busy(&self) -> bool {
        false
    }
    fn corrupt(&mut self, _rng: &mut dyn rand::RngCore) {}
    fn restart(&mut self) {}
}

/// The threaded runtime delivers both of one step's joinable gossip
/// sends to their peer, in emission order: it merges nothing.
#[test]
fn both_joinable_gossip_sends_of_one_step_are_delivered() {
    let received = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&received);
    let cluster = Cluster::new(ClusterConfig::new(2), move |id| TwoGossips {
        id,
        received: Arc::clone(&log),
    });
    cluster.client(NodeId(0)).write(1).unwrap();
    // The sends reached node 1's inbox before the reply left node 0, and
    // the step that runs node 1's next round drains that inbox first.
    cluster.await_rounds(1);
    cluster.shutdown();
    assert_eq!(*received.lock().unwrap(), vec![gossip(1), gossip(2)]);
}

// ---------- cross-backend parity under one fault plan -------------------

fn recovery_plan() -> FaultPlan {
    FaultPlan::new()
        .at(2_000, FaultEvent::Crash(NodeId(3)))
        .at(
            3_000,
            FaultEvent::Partition(vec![vec![NodeId(0), NodeId(1), NodeId(2)], vec![NodeId(3)]]),
        )
        .at(7_000, FaultEvent::Heal)
        .at(9_000, FaultEvent::Resume(NodeId(3)))
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        ops_per_node: 4,
        think: (200, 2_000),
        op_timeout: 20_000,
        ..WorkloadSpec::default()
    }
}

fn assert_linearizable(report: &RunReport, n: usize, total_ops: u64) {
    let v = check(&report.history, n);
    assert!(
        v.is_linearizable(),
        "[{}] history must be linearizable: {:?}",
        report.backend,
        v.violations
    );
    assert_eq!(
        report.stats.ops_completed + report.stats.ops_timed_out + report.stats.ops_unavailable,
        total_ops,
        "[{}] every issued op is accounted for",
        report.backend
    );
    assert!(
        report.stats.ops_completed > 0,
        "[{}] no progress",
        report.backend
    );
}

/// The same crash → partition → heal plan, replayed through the shared
/// `Backend` trait on the simulator and on the batched threaded runtime,
/// passes the checker on both: batching changes the schedule, never the
/// semantics.
#[test]
fn same_fault_plan_linearizable_on_sim_and_batched_threads() {
    let n = N;
    let plan = recovery_plan();
    let spec = workload();
    let total = (n * spec.ops_per_node) as u64;

    let mut sim = SimBackend::new(SimConfig::small(n), move |id| Alg1::new(id, n));
    assert_linearizable(&sim.run(&plan, &spec), n, total);

    let mut threads = ThreadBackend::new(ClusterConfig::new(n), move |id| Alg1::new(id, n));
    let report = threads.run(&plan, &spec);
    assert_linearizable(&report, n, total);
    assert!(
        report.stats.messages_dropped > 0,
        "the partition window must drop traffic"
    );
}

// ---------- runtime counters behind the benchmark -----------------------

/// A short all-nodes write storm on the batched runtime: the
/// per-message delivery counters the benchmark reads must move.
#[test]
fn write_storm_batches_and_counts() {
    let n = N;
    let cluster = Cluster::new(ClusterConfig::new(n), move |id| Alg1::new(id, n));
    let deadline = Instant::now() + Duration::from_millis(300);
    let joins: Vec<_> = (0..n)
        .map(|k| {
            let client = cluster.client(NodeId(k));
            std::thread::spawn(move || {
                let mut seq = 0;
                while Instant::now() < deadline {
                    seq += 1;
                    let _ = client.write(unique_value(NodeId(k), seq));
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    let stats = cluster.net_stats();
    let h = cluster.history();
    cluster.shutdown();
    assert!(stats.rounds > 0, "nodes must run rounds");
    assert!(stats.delivered > 0, "deliveries must be counted");
    assert!(stats.batches > 0, "batch count must move");
    let v = check(&h, n);
    assert!(v.is_linearizable(), "{:?}", v.violations);
}
