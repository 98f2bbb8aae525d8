//! E6 — Transient-fault recovery of the self-stabilizing
//! always-terminating algorithm (Theorem 2).
//!
//! Claim reproduced: within `O(1)` asynchronous cycles after arbitrary
//! corruption of every node's state (indices, registers, the whole
//! `pndTsk` table, and all in-flight messages), the system reaches a
//! consistent state (Definition 1's invariants) — for every `δ`, and
//! independent of `n`. Afterwards the object remains fully usable.

use sss_bench::{recovery_cycles, run_cross_backend, BackendChoice, Table, N_SWEEP};
use sss_core::{Alg3, Alg3Config};
use sss_net::{Backend, FaultEvent, FaultPlan, WorkloadSpec};
use sss_runtime::{ClusterConfig, SocketBackend, SocketConfig, ThreadBackend};
use sss_sim::{Sim, SimBackend, SimConfig};
use sss_types::{NodeId, SnapshotOp};

/// After corruption + recovery, do a write and a snapshot still complete?
fn usable_after_recovery(n: usize, delta: u64) -> bool {
    let mut sim = Sim::new(SimConfig::small(n).with_seed(9), move |id| {
        Alg3::new(id, n, Alg3Config { delta })
    });
    sim.run_for_cycles(2, 1_000_000_000);
    for i in 0..n {
        sim.corrupt_node_now(NodeId(i));
    }
    sim.corrupt_channels_now(1.0, 1 << 20);
    if !sim.run_for_cycles(12, 4_000_000_000) {
        return false;
    }
    let t = sim.now() + 1;
    sim.invoke_at(t, NodeId(0), SnapshotOp::Write(7));
    sim.invoke_at(t + 1, NodeId(1), SnapshotOp::Snapshot);
    sim.run_until_idle(4_000_000_000)
}

fn main() {
    println!("E6: recovery of Algorithm 3 from full-state corruption — Theorem 2\n");
    let mut t = Table::new(&[
        "n",
        "δ=0 recovery (cycles)",
        "δ=4 recovery (cycles)",
        "δ=64 recovery (cycles)",
        "usable after (δ=4)",
    ]);
    for &n in N_SWEEP {
        let avg = |delta: u64| -> String {
            let seeds = [1u64, 2, 3];
            let mut total = 0u64;
            for &s in &seeds {
                let c = recovery_cycles(
                    SimConfig::small(n).with_seed(s),
                    move |id| Alg3::new(id, n, Alg3Config { delta }),
                    true,
                    64,
                )
                .expect("alg3 recovers");
                total += c;
            }
            assert!(
                total <= 2 * seeds.len() as u64,
                "n={n} δ={delta}: recovery took more than 2 cycles on average"
            );
            format!("{:.1}", total as f64 / seeds.len() as f64)
        };
        assert!(
            usable_after_recovery(n, 4),
            "n={n}: unusable after recovery"
        );
        t.row(vec![n.to_string(), avg(0), avg(4), avg(64), "yes".into()]);
    }
    t.print();
    println!();
    println!("expected shape: a small constant number of cycles in every cell,");
    println!("flat in both n and δ (Theorem 2's O(1)); the usability column is");
    println!("'yes' everywhere.");

    // Cross-backend scenario (--backend sim|threads|both): the
    // always-terminating algorithm under a crash plus a transient
    // directed-link cut, same fault plan on both execution models.
    println!();
    println!("scenario: alg3 (δ=4) under crash + transient link cut");
    let choice = BackendChoice::from_args();
    let n = 4;
    let plan = FaultPlan::new()
        .at(2_000, FaultEvent::Crash(NodeId(3)))
        .at(
            3_000,
            FaultEvent::SetLink {
                from: NodeId(0),
                to: NodeId(1),
                up: false,
            },
        )
        .at(
            7_000,
            FaultEvent::SetLink {
                from: NodeId(0),
                to: NodeId(1),
                up: true,
            },
        )
        .at(9_000, FaultEvent::Resume(NodeId(3)));
    let workload = WorkloadSpec {
        ops_per_node: 8,
        think: (200, 2_000),
        op_timeout: 20_000,
        ..WorkloadSpec::default()
    };
    let mut backends: Vec<Box<dyn Backend>> = Vec::new();
    if choice.sim() {
        backends.push(Box::new(SimBackend::new(SimConfig::small(n), move |id| {
            Alg3::new(id, n, Alg3Config { delta: 4 })
        })));
    }
    if choice.threads() {
        backends.push(Box::new(ThreadBackend::new(
            ClusterConfig::new(n),
            move |id| Alg3::new(id, n, Alg3Config { delta: 4 }),
        )));
    }
    if choice.sockets() {
        backends.push(Box::new(SocketBackend::new(
            SocketConfig::new(n),
            move |id| Alg3::new(id, n, Alg3Config { delta: 4 }),
        )));
    }
    assert!(
        run_cross_backend(n, backends, &plan, &workload),
        "history must stay linearizable on every backend"
    );
}
