//! E13: every protocol's histories are linearizable under randomized
//! mixed workloads, packet loss/duplication/reordering, and crash faults.

use sss_baselines::{Dgfr1, Dgfr2, Stacked};
use sss_checker::check;
use sss_core::{Alg1, Alg3, Alg3Config, Bounded, BoundedConfig};
use sss_sim::{Sim, SimConfig};
use sss_types::{NodeId, Protocol};
use sss_workload::{FaultPlan, MixedConfig, MixedDriver};

fn run_mixed<P: Protocol>(
    cfg: SimConfig,
    mk: impl FnMut(NodeId) -> P,
    wl: MixedConfig,
    faults: Option<FaultPlan>,
) -> sss_types::History {
    let n = cfg.n;
    let mut sim = Sim::new(cfg, mk);
    // With mid-run crashes some ops never complete and the driver cannot
    // stop on its own; 30M virtual µs is plenty for every surviving op.
    let horizon = if faults.is_some() {
        30_000_000
    } else {
        3_000_000_000
    };
    if let Some(plan) = faults {
        sim.apply_plan(&plan);
    }
    let mut driver = MixedDriver::new(n, wl);
    sim.run_with_driver(&mut driver, horizon);
    sim.history().clone()
}

fn assert_linearizable(h: &sss_types::History, n: usize, label: &str) {
    let completed = h.completed().count();
    assert!(completed > 0, "{label}: no operations completed");
    let verdict = check(h, n);
    assert!(
        verdict.is_linearizable(),
        "{label}: violations {:?}",
        verdict.violations
    );
}

fn wl(seed: u64) -> MixedConfig {
    MixedConfig {
        ops_per_node: 12,
        write_ratio: 0.6,
        think: (0, 150),
        seed,
        nodes: None,
    }
}

#[test]
fn alg1_linearizable_reliable_network() {
    for seed in 0..3 {
        let n = 4;
        let h = run_mixed(
            SimConfig::small(n).with_seed(seed),
            move |id| Alg1::new(id, n),
            wl(seed),
            None,
        );
        assert_linearizable(&h, n, &format!("alg1 seed {seed}"));
    }
}

#[test]
fn alg1_linearizable_harsh_network() {
    for seed in 0..3 {
        let n = 4;
        let h = run_mixed(
            SimConfig::harsh(n).with_seed(100 + seed),
            move |id| Alg1::new(id, n),
            wl(seed),
            None,
        );
        assert_linearizable(&h, n, &format!("alg1 harsh seed {seed}"));
    }
}

#[test]
fn alg1_linearizable_with_minority_crashes() {
    let n = 5;
    let (plan, _) = FaultPlan::new().crash_random_minority(n, 400, 77);
    let h = run_mixed(
        SimConfig::small(n).with_seed(8),
        move |id| Alg1::new(id, n),
        wl(8),
        Some(plan),
    );
    // Ops at crashed nodes never finish; the checker treats them as
    // pending, which is exactly right.
    let verdict = check(&h, n);
    assert!(verdict.is_linearizable(), "{:?}", verdict.violations);
}

#[test]
fn alg3_linearizable_across_deltas() {
    for delta in [0u64, 1, 4, 1_000] {
        let n = 4;
        let h = run_mixed(
            SimConfig::small(n).with_seed(delta + 1),
            move |id| Alg3::new(id, n, Alg3Config { delta }),
            wl(delta),
            None,
        );
        assert_linearizable(&h, n, &format!("alg3 δ={delta}"));
    }
}

#[test]
fn alg3_linearizable_harsh_network() {
    let n = 4;
    let delta = 2;
    let h = run_mixed(
        SimConfig::harsh(n).with_seed(42),
        move |id| Alg3::new(id, n, Alg3Config { delta }),
        wl(13),
        None,
    );
    assert_linearizable(&h, n, "alg3 harsh");
}

#[test]
fn alg3_linearizable_with_minority_crashes() {
    let n = 5;
    let (plan, _) = FaultPlan::new().crash_random_minority(n, 400, 31);
    let h = run_mixed(
        SimConfig::small(n).with_seed(9),
        move |id| Alg3::new(id, n, Alg3Config { delta: 1 }),
        wl(9),
        Some(plan),
    );
    let verdict = check(&h, n);
    assert!(verdict.is_linearizable(), "{:?}", verdict.violations);
}

#[test]
fn dgfr1_linearizable_without_faults() {
    let n = 4;
    let h = run_mixed(
        SimConfig::harsh(n).with_seed(5),
        move |id| Dgfr1::init(id, n),
        wl(5),
        None,
    );
    assert_linearizable(&h, n, "dgfr1");
}

#[test]
fn dgfr2_linearizable_without_faults() {
    let n = 3;
    let h = run_mixed(
        SimConfig::small(n).with_seed(6),
        move |id| Dgfr2::new(id, n),
        MixedConfig {
            ops_per_node: 8,
            ..wl(6)
        },
        None,
    );
    assert_linearizable(&h, n, "dgfr2");
}

#[test]
fn stacked_linearizable_without_faults() {
    let n = 4;
    let h = run_mixed(
        SimConfig::small(n).with_seed(7),
        move |id| Stacked::new(id, n),
        wl(7),
        None,
    );
    assert_linearizable(&h, n, "stacked");
}

#[test]
fn bounded_alg1_linearizable_below_threshold() {
    let n = 4;
    let h = run_mixed(
        SimConfig::small(n).with_seed(11),
        move |id| Bounded::new(Alg1::new(id, n), BoundedConfig::default()),
        wl(11),
        None,
    );
    assert_linearizable(&h, n, "bounded(alg1)");
}

#[test]
fn self_stabilizing_protocols_linearizable_post_recovery() {
    // Corrupt every node mid-run; the *suffix* after a flush barrier must
    // be linearizable (Dijkstra's criterion checks the suffix).
    let n = 4;
    let mut sim = Sim::new(SimConfig::small(n).with_seed(21), move |id| {
        Alg1::new(id, n)
    });
    // Pre-fault traffic.
    let mut driver = MixedDriver::new(n, wl(21));
    sim.run_with_driver(&mut driver, 3_000_000_000);
    // Transient fault at every node + channels.
    for i in 0..n {
        sim.corrupt_node_now(NodeId(i));
    }
    sim.corrupt_channels_now(1.0, 1 << 20);
    // Recovery period (Theorem 1: O(1) cycles).
    assert!(sim.run_for_cycles(10, 3_000_000_000));
    // The checked suffix starts here and includes the flush barrier.
    let barrier_t = sim.now();
    // Flush barrier: one fresh write per node so every register holds a
    // known (suffix) value again — garbage planted by the fault is the
    // "arbitrary initial state" the suffix criterion allows, and the
    // barrier overwrites it before any suffix snapshot runs.
    for i in 0..n {
        let node = NodeId(i);
        let t = sim.now() + 1;
        sim.invoke_at(
            t,
            node,
            sss_types::SnapshotOp::Write(sss_workload::unique_value(node, 900 + i as u64)),
        );
        assert!(sim.run_until_idle(3_000_000_000), "barrier write at {node}");
    }
    // Post-recovery workload.
    let mut driver2 = MixedDriver::new(
        n,
        MixedConfig {
            ops_per_node: 8,
            write_ratio: 0.5,
            think: (0, 100),
            seed: 22,
            nodes: None,
        },
    );
    sim.run_with_driver(&mut driver2, 6_000_000_000);
    // Check only the suffix; include the barrier writes as context by
    // building the model from everything invoked after the corruption…
    // the barrier writes themselves are in the suffix, so every value a
    // suffix snapshot can return is known.
    let suffix = sim.history().suffix_from(barrier_t);
    let verdict = check(&suffix, n);
    assert!(
        verdict.is_linearizable(),
        "post-recovery suffix: {:?}",
        verdict.violations
    );
}
