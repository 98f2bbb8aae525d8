//! The batched message plane, end to end: per-link coalescing must be
//! semantically invisible (a merged delivery leaves a receiver in the
//! same state as the sequential deliveries it replaced), the batched and
//! unbatched threaded runtimes must both pass the linearizability
//! checker on the same fault plan the simulator passes, and the runtime
//! counters the benchmark reads must actually count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sss_checker::check;
use sss_core::{Alg1, Alg1Msg};
use sss_runtime::{BatchPolicy, Cluster, ClusterConfig, ThreadBackend};
use sss_sim::{Backend, RunReport, SimBackend, SimConfig};
use sss_types::{ArbitraryMsg, Effects, NodeId, Payload, ProtoMsg, Protocol, RegArray, Tagged};
use sss_workload::{unique_value, FaultEvent, FaultPlan, WorkloadSpec};
use std::time::{Duration, Instant};

const N: usize = 4;

// ---------- coalescing is a semantic no-op (property) -------------------

fn rand_array(rng: &mut StdRng, n: usize) -> RegArray {
    let mut a = RegArray::bottom(n);
    for k in 0..n {
        a.set(
            NodeId(k),
            Tagged {
                ts: rng.next_u64() % 64,
                val: rng.next_u64() % 1024,
            },
        );
    }
    a
}

/// A message of the same variant whose payload dominates `msg`'s — the
/// shape retransmission produces, and the case coalescing targets.
fn grown(msg: &Alg1Msg, rng: &mut StdRng) -> Alg1Msg {
    let grow = |reg: &Payload, rng: &mut StdRng| -> Payload {
        let mut r: RegArray = (**reg).clone();
        r.merge_from(&rand_array(rng, reg.n()));
        r.into()
    };
    match msg {
        Alg1Msg::Write { reg } => Alg1Msg::Write {
            reg: grow(reg, rng),
        },
        Alg1Msg::WriteAck { reg } => Alg1Msg::WriteAck {
            reg: grow(reg, rng),
        },
        Alg1Msg::Snapshot { reg, ssn } => Alg1Msg::Snapshot {
            reg: grow(reg, rng),
            ssn: *ssn,
        },
        Alg1Msg::SnapshotAck { reg, ssn } => Alg1Msg::SnapshotAck {
            reg: grow(reg, rng),
            ssn: *ssn,
        },
        Alg1Msg::Gossip { cell } => Alg1Msg::Gossip {
            cell: cell.join(Tagged {
                ts: rng.next_u64() % 64,
                val: rng.next_u64() % 1024,
            }),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any pair of messages the `Outbox` would merge, delivering the
    /// merged message leaves a receiver in exactly the state sequential
    /// delivery would have (`try_coalesce`'s soundness contract). The
    /// suppressed second delivery may cost a duplicate ack — effects are
    /// deliberately *not* compared — but protocol state must agree.
    #[test]
    fn coalesced_delivery_is_state_equivalent(
        seed in any::<u64>(),
        preamble in 0usize..4,
        derive in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = Alg1::new(NodeId(0), N);
        let mut merged = Alg1::new(NodeId(0), N);
        let mut fx = Effects::new();
        let from = NodeId(1);

        // Identical warm-up traffic so coalescing is tested against
        // arbitrary (not just pristine) receiver state.
        for _ in 0..preamble {
            let m = Alg1Msg::arbitrary(&mut rng, N, 1 << 10);
            seq.on_message(from, m.clone(), &mut fx);
            merged.on_message(from, m, &mut fx);
        }

        let m1 = Alg1Msg::arbitrary(&mut rng, N, 1 << 10);
        let m2 = match derive {
            0 => Alg1Msg::arbitrary(&mut rng, N, 1 << 10), // unrelated
            1 => grown(&m1, &mut rng),                     // retransmission, grown
            _ => m1.clone(),                               // exact retransmission
        };

        seq.on_message(from, m1.clone(), &mut fx);
        seq.on_message(from, m2.clone(), &mut fx);

        let mut joined = m1;
        if joined.try_coalesce(&m2) {
            merged.on_message(from, joined, &mut fx);
        } else {
            merged.on_message(from, joined, &mut fx);
            merged.on_message(from, m2, &mut fx);
        }

        prop_assert_eq!(seq.reg(), merged.reg(), "register views diverged");
        prop_assert_eq!(seq.ts(), merged.ts(), "write timestamps diverged");
        prop_assert_eq!(seq.ssn(), merged.ssn(), "snapshot indices diverged");
    }
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
/// `Backend` trait on the simulator and on the threaded runtime under
/// both an explicit batched policy and the unbatched ablation, passes
/// the checker everywhere: batching and coalescing change the schedule,
/// never the semantics.
#[test]
fn same_fault_plan_linearizable_batched_and_unbatched() {
    let n = N;
    let plan = recovery_plan();
    let spec = workload();
    let total = (n * spec.ops_per_node) as u64;

    let mut sim = SimBackend::new(SimConfig::small(n), move |id| Alg1::new(id, n));
    assert_linearizable(&sim.run(&plan, &spec), n, total);

    for policy in [BatchPolicy::default(), BatchPolicy::unbatched()] {
        let mut threads = ThreadBackend::new(ClusterConfig::new(n), move |id| Alg1::new(id, n));
        threads.set_batch_policy(policy);
        let report = threads.run(&plan, &spec);
        assert_linearizable(&report, n, total);
        assert!(
            report.stats.messages_dropped > 0,
            "the partition window must drop traffic (policy {policy:?})"
        );
    }
}

// ---------- runtime counters behind the benchmark -----------------------

/// A short all-nodes write storm on the default (batched, coalescing)
/// policy: the per-message delivery counters the benchmark reads must
/// move, and a single-core storm must both batch (mean drain > 1 message
/// somewhere) and coalesce (retransmitted broadcasts / repeated acks
/// merge on the wire).
#[test]
fn write_storm_batches_and_coalesces() {
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
    assert!(
        stats.coalesced > 0,
        "a contended storm must coalesce some wire traffic: {stats:?}"
    );
    let v = check(&h, n);
    assert!(v.is_linearizable(), "{:?}", v.violations);
}

/// `BatchPolicy::unbatched()` is a faithful ablation: one message per
/// drain, no coalescing — the counters must reflect that exactly.
#[test]
fn unbatched_policy_disables_coalescing() {
    let n = 3;
    let cfg = ClusterConfig::new(n).with_batch(BatchPolicy::unbatched());
    let cluster = Cluster::new(cfg, move |id| Alg1::new(id, n));
    for round in 1..=20 {
        for k in 0..n {
            cluster
                .client(NodeId(k))
                .write(unique_value(NodeId(k), round))
                .unwrap();
        }
    }
    let view = cluster.client(NodeId(0)).snapshot().unwrap();
    let stats = cluster.net_stats();
    cluster.shutdown();
    assert_eq!(stats.coalesced, 0, "unbatched must never coalesce");
    assert!(stats.delivered > 0);
    for k in 0..n {
        assert_eq!(
            view.value_of(NodeId(k)),
            Some(unique_value(NodeId(k), 20)),
            "every node's final write must be visible"
        );
    }
}
