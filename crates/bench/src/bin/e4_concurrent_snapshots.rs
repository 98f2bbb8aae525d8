//! E4 — Concurrent snapshots by all nodes (paper §4, Figure 3 lower
//! drawing).
//!
//! Claim reproduced: Algorithm 2 handles one snapshot task at a time at
//! `O(n²)` messages each; Algorithm 3's many-jobs-stealing batches all
//! pending tasks into shared query rounds, improving both total message
//! count and makespan when all `n` nodes snapshot concurrently.

use sss_baselines::Dgfr2;
use sss_bench::Table;
use sss_core::{Alg3, Alg3Config};
use sss_sim::{Sim, SimConfig};
use sss_types::{NodeId, Protocol, SnapshotOp};

struct Outcome {
    total_msgs: u64,
    per_snap: u64,
    makespan_us: u64,
}

fn run<P: Protocol>(cfg: SimConfig, mk: impl FnMut(NodeId) -> P) -> Outcome {
    let n = cfg.n;
    let mut sim = Sim::new(cfg, mk);
    sim.run_until(2_000);
    let before = sim.metrics().clone();
    let t0 = sim.now();
    for i in 0..n {
        sim.invoke_at(t0 + 1 + i as u64, NodeId(i), SnapshotOp::Snapshot);
    }
    assert!(sim.run_until_idle(4_000_000_000), "all snapshots complete");
    let makespan = sim
        .history()
        .completed()
        .map(|r| r.completed_at.unwrap())
        .max()
        .unwrap()
        - t0;
    let d = sim.metrics().delta_since(&before);
    Outcome {
        total_msgs: d.op_messages_sent(),
        per_snap: d.op_messages_sent() / n as u64,
        makespan_us: makespan,
    }
}

fn main() {
    println!("E4: all n nodes snapshot concurrently — batching vs one-at-a-time\n");
    let mut t = Table::new(&[
        "n",
        "dgfr2 msgs",
        "alg3 δ=0 msgs",
        "alg3 δ=4 msgs",
        "dgfr2 msgs/snap",
        "alg3 δ=0 msgs/snap",
        "dgfr2 makespan(us)",
        "alg3 δ=0 makespan(us)",
    ]);
    for &n in &[4usize, 8, 16] {
        let b = run(SimConfig::small(n), move |id| Dgfr2::new(id, n));
        let a0 = run(SimConfig::small(n), move |id| {
            Alg3::new(id, n, Alg3Config { delta: 0 })
        });
        let a4 = run(SimConfig::small(n), move |id| {
            Alg3::new(id, n, Alg3Config { delta: 4 })
        });
        assert!(
            a0.per_snap < b.per_snap && a0.makespan_us < b.makespan_us,
            "n={n}: Algorithm 3 must beat Algorithm 2 on messages per snapshot and makespan"
        );
        t.row(vec![
            n.to_string(),
            b.total_msgs.to_string(),
            a0.total_msgs.to_string(),
            a4.total_msgs.to_string(),
            b.per_snap.to_string(),
            a0.per_snap.to_string(),
            b.makespan_us.to_string(),
            a0.makespan_us.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("expected shape: Algorithm 3 completes the n concurrent snapshots");
    println!("with fewer messages per snapshot and a shorter makespan than");
    println!("Algorithm 2's sequential task processing.");
}
