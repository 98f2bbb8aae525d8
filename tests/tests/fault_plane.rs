//! The shared fault plane, end to end: one declarative `FaultPlan` and one
//! `WorkloadSpec` replayed through the `Backend` trait on every backend —
//! the discrete-event simulator, the threaded runtime and the UDP
//! runtime — must yield linearizable histories on each, with every issued
//! operation accounted for, and every corrupted node must report its
//! recovery in the trace. Plus the threaded mirror of the simulator's
//! crash → partition → heal → recovery scenario
//! (`crates/sim/tests/partitions_and_flows.rs`), validated by the checker.

use sss_baselines::Dgfr1;
use sss_checker::check;
use sss_core::{Alg1, Alg3, Alg3Config};
use sss_runtime::{
    Cluster, ClusterConfig, ClusterError, SocketBackend, SocketConfig, ThreadBackend,
};
use sss_sim::{
    Backend, FaultKind, MemorySink, RunReport, SimBackend, SimConfig, TraceEvent, Tracer,
};
use sss_types::{NodeId, Protocol, WireMsg};
use sss_workload::{unique_value, FaultEvent, FaultPlan, WorkloadSpec};
use std::time::Duration;

/// Crash a node, partition it away, heal, resume — the canonical recovery
/// arc. No corruption here on purpose: corrupted registers may surface
/// never-written values in snapshots, so only the post-recovery *suffix*
/// is linearizable after a `Corrupt` (Dijkstra's criterion); cross-backend
/// full-history checks use crash/partition/link faults only.
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
        ops_per_node: 6,
        think: (200, 2_000),
        op_timeout: 20_000,
        ..WorkloadSpec::default()
    }
}

fn assert_linearizable_and_accounted(report: &RunReport, n: usize, total_ops: u64) {
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
        "[{}] every issued op completes, times out, or fails fast as unavailable",
        report.backend
    );
    assert!(
        report.stats.ops_completed > 0,
        "[{}] the majority side must make progress",
        report.backend
    );
}

/// The simulator, the threaded runtime and the real-socket UDP runtime
/// (whose fault shim sits at the datagram send hook), each running
/// protocol instances built by `mk`.
fn every_backend<P>(
    n: usize,
    mk: impl FnMut(NodeId) -> P + Clone + 'static,
) -> Vec<Box<dyn Backend>>
where
    P: Protocol + 'static,
    P::Msg: WireMsg,
{
    vec![
        Box::new(SimBackend::new(SimConfig::small(n), mk.clone())),
        Box::new(ThreadBackend::new(ClusterConfig::new(n), mk.clone())),
        Box::new(SocketBackend::new(SocketConfig::new(n), mk)),
    ]
}

/// Regression test for the sim/runtime partition-semantics divergence,
/// extended to every fault kind a backend replays: each row's fault plan,
/// replayed through the shared `Backend` trait, yields a linearizable
/// history on every backend. A random minority crash + resume (Alg1) and
/// a partition + heal (Alg1) need no row of their own: the first row
/// replays both kinds on the same protocol. The DGFR baseline replays the
/// same plan, since it is Alg1 without the boxed lines and shares its wire
/// codec.
#[test]
fn same_fault_plan_linearizable_on_all_backends() {
    let n = 4;
    let alg1 = move |id| Alg1::new(id, n);
    let alg3 = move |id| Alg3::new(id, n, Alg3Config { delta: 4 });
    let scenarios = [
        (
            "alg1: crash, partition, heal, resume",
            recovery_plan(),
            6,
            every_backend(n, alg1),
        ),
        (
            "dgfr1: crash, partition, heal, resume",
            recovery_plan(),
            6,
            every_backend(n, move |id| Dgfr1::init(id, n)),
        ),
        (
            // A detectable restart of a live node is declared as a crash
            // immediately followed by the restart.
            "alg1: crash, detectable restart, resume",
            FaultPlan::new()
                .at(2_000, FaultEvent::Crash(NodeId(1)))
                .at(3_900, FaultEvent::Crash(NodeId(0)))
                .at(4_000, FaultEvent::Restart(NodeId(0)))
                .at(8_000, FaultEvent::Resume(NodeId(1))),
            8,
            every_backend(n, alg1),
        ),
        (
            "alg3 δ=4: crash and a transient directed link cut",
            FaultPlan::new()
                .at(2_000, FaultEvent::Crash(NodeId(3)))
                .at(3_000, link(0, 1, false))
                .at(7_000, link(0, 1, true))
                .at(9_000, FaultEvent::Resume(NodeId(3))),
            8,
            every_backend(n, alg3),
        ),
    ];
    for (name, plan, ops_per_node, mut backends) in scenarios {
        let spec = WorkloadSpec {
            ops_per_node,
            ..workload()
        };
        for backend in &mut backends {
            let report = backend.run(&plan, &spec);
            assert_linearizable_and_accounted(&report, n, (n * ops_per_node) as u64);
            assert!(
                report.stats.messages_dropped > 0,
                "[{}] {name}: the fault window must drop traffic",
                report.backend
            );
        }
    }
}

/// E15's scenario on every backend: a fault plan corrupts p1, p2 and p0
/// in turn under a mixed workload, and after each node's
/// `Fault{Corrupt}` the trace must show that node's `Stabilized` probe
/// (a dead probe would void the recovery claims).
#[test]
fn every_corrupted_node_stabilizes_on_every_backend() {
    let n = 4;
    let plan = FaultPlan::new()
        .at(2_000, FaultEvent::Corrupt(NodeId(1)))
        .at(4_000, FaultEvent::Corrupt(NodeId(2)))
        .at(6_000, FaultEvent::Corrupt(NodeId(0)));
    for mut backend in every_backend(n, move |id| Alg1::new(id, n)) {
        let (sink, buf) = MemorySink::new();
        let tracer = Tracer::new(n).with_sink(sink);
        backend.run_traced(&plan, &workload(), &tracer);
        let records = buf.records();
        let corruptions: Vec<(usize, NodeId)> = records
            .iter()
            .enumerate()
            .filter_map(|(k, r)| match r.event {
                TraceEvent::Fault {
                    kind: FaultKind::Corrupt,
                    node: Some(node),
                    ..
                } => Some((k, node)),
                _ => None,
            })
            .collect();
        assert_eq!(
            corruptions.len(),
            3,
            "[{}] every corruption",
            backend.label()
        );
        for (k, node) in corruptions {
            assert!(
                records[k..]
                    .iter()
                    .any(|r| r.event == TraceEvent::Stabilized { node }),
                "[{}] {node} never stabilized after its corruption",
                backend.label()
            );
        }
    }
}

fn link(from: usize, to: usize, up: bool) -> FaultEvent {
    FaultEvent::SetLink {
        from: NodeId(from),
        to: NodeId(to),
        up,
    }
}

/// The simulated backend is a deterministic function of
/// (config, plan, workload): two runs produce identical histories.
#[test]
fn sim_backend_is_deterministic() {
    let n = 4;
    let plan = recovery_plan();
    let spec = workload();
    let run = || SimBackend::new(SimConfig::small(n), move |id| Alg1::new(id, n)).run(&plan, &spec);
    let (a, b) = (run(), run());
    assert_eq!(a.stats.ops_completed, b.stats.ops_completed);
    assert_eq!(a.stats.ops_timed_out, b.stats.ops_timed_out);
    assert_eq!(a.stats.messages_dropped, b.stats.messages_dropped);
    assert_eq!(a.stats.model_time, b.stats.model_time);
    let recs = |r: &RunReport| -> Vec<_> { r.history.completed().cloned().collect() };
    assert_eq!(recs(&a), recs(&b), "histories must be identical");
}

/// Threaded mirror of `crates/sim/tests/partitions_and_flows.rs`:
/// crash → (resume) → partition → heal → recovery on real threads, with
/// the full history checked for linearizability.
#[test]
fn threads_crash_partition_heal_recovery() {
    let n = 3;
    let mut cfg = ClusterConfig::new(n);
    cfg.op_timeout = Duration::from_millis(250);
    let cluster = Cluster::new(cfg, move |id| Alg1::new(id, n));

    // Healthy baseline.
    cluster
        .client(NodeId(0))
        .write(unique_value(NodeId(0), 1))
        .unwrap();

    // Crash a minority: the survivors still form a majority.
    cluster.crash(NodeId(2));
    cluster
        .client(NodeId(1))
        .write(unique_value(NodeId(1), 1))
        .unwrap();
    cluster.resume(NodeId(2));

    // Group partition: the singleton side has no majority and must not
    // complete — either the failure detector indicts the unreachable
    // majority first (fail-fast `Unavailable`) or the op times out,
    // whichever races ahead of the other.
    cluster.partition(&[[NodeId(0)].as_slice(), [NodeId(1), NodeId(2)].as_slice()]);
    let err = cluster
        .client(NodeId(0))
        .write(unique_value(NodeId(0), 2))
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::Timeout | ClusterError::Unavailable(_)),
        "isolated minority must fail its op, got {err:?}"
    );
    assert!(
        cluster.messages_dropped() > 0,
        "partition drops must be accounted"
    );

    // Heal: the previously isolated node recovers full service.
    cluster.heal_partition();
    cluster
        .client(NodeId(0))
        .write(unique_value(NodeId(0), 3))
        .unwrap();
    let view = cluster.client(NodeId(2)).snapshot().unwrap();
    assert_eq!(view.value_of(NodeId(0)), Some(unique_value(NodeId(0), 3)));

    let h = cluster.history();
    cluster.shutdown();
    let v = check(&h, n);
    assert!(v.is_linearizable(), "{:?}", v.violations);
}
