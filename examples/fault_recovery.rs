//! Transient-fault recovery: self-stabilization in action.
//!
//! Run with:
//! ```sh
//! cargo run -p sss-examples --bin fault_recovery
//! ```
//!
//! Runs the same scenario against the paper's self-stabilizing
//! Algorithm 1 and against Delporte-Gallet et al.'s original algorithm:
//! a transient fault rewinds one node's entire state (including its write
//! index). The self-stabilizing variant repairs the index via gossip
//! within O(1) asynchronous cycles and subsequent writes are visible;
//! the baseline silently loses every later write of the damaged node —
//! forever.

use sss_baselines::Dgfr1;
use sss_core::Alg1;
use sss_sim::{FaultEvent, FaultPlan, Sim, SimConfig};
use sss_types::{NodeId, OpResponse, Protocol, SnapshotOp};

const VICTIM: NodeId = NodeId(0);
const OBSERVER: NodeId = NodeId(1);

/// Runs the scenario; returns (recovered_cycles, new_write_visible).
fn scenario<P: Protocol>(label: &str, mk: impl FnMut(NodeId) -> P) -> bool {
    let n = 4;
    let mut sim = Sim::new(SimConfig::small(n).with_seed(11), mk);

    // Build up history: the victim writes several times.
    for seq in 1..=5u64 {
        let t = sim.now() + 1;
        sim.invoke_at(t, VICTIM, SnapshotOp::Write(1000 + seq));
        assert!(sim.run_until_idle(10_000_000));
    }

    // Transient fault, declared through the shared fault plane: the
    // victim's variables are re-initialized (a detectable restart is the
    // mildest "corruption" — it zeroes ts). The same plan could be
    // replayed verbatim on the threaded runtime via `Cluster::apply_plan`.
    println!("[{label}] injecting fault: victim state re-initialized");
    // The down-phase is explicit — `validate()` rejects a Restart of a
    // node that never crashed.
    let plan = FaultPlan::new()
        .at(sim.now() + 1, FaultEvent::Crash(VICTIM))
        .at(sim.now() + 2, FaultEvent::Restart(VICTIM));
    sim.apply_plan(&plan);
    sim.run_until(sim.now() + 10);

    // Give the system a few asynchronous cycles to (maybe) repair.
    let before = sim.cycles();
    sim.run_for_cycles(6, 100_000_000);
    println!(
        "[{label}] {} cycles elapsed; victim local invariants hold: {}",
        sim.cycles() - before,
        sim.node(VICTIM).local_invariants_hold()
    );

    // The victim writes a new value; an observer snapshots.
    let t = sim.now() + 1;
    sim.invoke_at(t, VICTIM, SnapshotOp::Write(9999));
    sim.run_until_idle(10_000_000);
    let t = sim.now() + 1;
    sim.invoke_at(t, OBSERVER, SnapshotOp::Snapshot);
    sim.run_until_idle(10_000_000);

    let snap = sim
        .history()
        .completed()
        .filter_map(|r| r.response.as_ref().and_then(OpResponse::as_snapshot))
        .last()
        .expect("snapshot completed");
    let visible = snap.value_of(VICTIM) == Some(9999);
    println!(
        "[{label}] post-fault write visible in snapshot: {} (saw {:?})",
        visible,
        snap.value_of(VICTIM)
    );
    visible
}

fn main() {
    let n = 4;
    println!("=== self-stabilizing Algorithm 1 ===");
    let ss = scenario("alg1-ss", move |id| Alg1::new(id, n));
    println!();
    println!("=== Delporte-Gallet et al. baseline (no self-stabilization) ===");
    let base = scenario("dgfr1", move |id| Dgfr1::init(id, n));
    println!();
    assert!(ss, "self-stabilizing variant must recover");
    assert!(
        !base,
        "baseline must lose the write (this is the paper's motivation)"
    );
    println!("ok: the self-stabilizing algorithm recovered; the baseline lost a write");
}
