//! The paper's claims as data: one function per claim (E1–E13, E15,
//! E16, E19, F1–F3, A1), each running its deterministic simulator
//! measurement and returning the tables EXPERIMENTS.md records.
//!
//! A claim function asserts nothing. `tests/claims.rs` checks the
//! paper's shape on the returned cells and that EXPERIMENTS.md contains
//! every rendered table verbatim; the `claims` binary prints [`ALL`] as
//! markdown.

use crate::{
    gossip_per_cycle, measure_single_op, recovery_cycles, snapshot_latency_cycles, Table, N_SWEEP,
};
use sss_baselines::{Dgfr1, Dgfr2, Stacked};
use sss_chaos::{
    bounded_alg1, run_campaign, run_case_sim, BackendChoice, CampaignConfig, CaseOutcome,
    InvariantSurvival, Scenario, StrategyKind, INV_EPOCH_MONOTONICITY, INV_NO_STALE_EPOCH_LEAK,
    INV_POST_RESET_LINEARIZABILITY, INV_RESET_TERMINATION,
};
use sss_checker::check;
use sss_core::{Alg1, Alg1Msg, Alg3, Alg3Config, Bounded, BoundedConfig};
use sss_net::{ByzBehavior, FaultEvent};
use sss_obs::{FaultState, RecoveryEpisode};
use sss_sim::{
    Backend, Ctl, Driver, MemorySink, OpClass, Sim, SimBackend, SimConfig, SimTime, TraceBuffer,
    TraceEvent, TraceRecord, Tracer, WorkloadSpec,
};
use sss_types::{ArbitraryMsg, MsgKind, NodeId, OpId, OpResponse, Protocol, SnapshotOp};
use sss_workload::{unique_value, FaultPlan, MixedConfig, MixedDriver};

/// One claim's measurement: the tables its EXPERIMENTS.md section
/// records.
#[derive(Debug)]
pub struct Claim {
    /// `E1`…`E13`, `E15`, `E16`, `E19`, `F1`…`F3` or `A1`.
    pub id: &'static str,
    /// The rest of the claim's EXPERIMENTS.md heading, `## {id} — {title}`.
    pub title: &'static str,
    /// The measured tables, in print order.
    pub tables: Vec<Table>,
}

impl Claim {
    /// The claim's EXPERIMENTS.md heading line.
    pub fn heading(&self) -> String {
        format!("## {} — {}", self.id, self.title)
    }

    /// The heading, then every table, as markdown.
    pub fn markdown(&self) -> String {
        let mut out = format!("{}\n", self.heading());
        for t in &self.tables {
            out.push('\n');
            out.push_str(&t.markdown());
        }
        out
    }
}

/// Every claim, in EXPERIMENTS.md order.
pub const ALL: [fn() -> Claim; 20] = [
    e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e15, e16, e19, f1, f2, f3, a1,
];

fn one_decimal(x: f64) -> String {
    format!("{x:.1}")
}

fn two_decimals(x: f64) -> String {
    format!("{x:.2}")
}

/// Mean cycles over `seeds`, or `NEVER` if any seed missed its budget.
fn mean_cycles(seeds: &[u64], f: impl FnMut(&u64) -> Option<u64>) -> String {
    let total: Option<u64> = seeds.iter().map(f).sum();
    total.map_or("NEVER".into(), |t| {
        one_decimal(t as f64 / seeds.len() as f64)
    })
}

/// E1: each `write` / `snapshot` of Algorithm 1 uses `O(n)` messages of
/// `O(ν·n)` bits, with and without the paper's self-stabilization
/// additions; those add `O(n²)` gossip messages of `O(ν)` bits per
/// asynchronous cycle. One operation on an idle reliable network.
pub fn e1() -> Claim {
    let mut t = Table::new(&[
        "n",
        "write msgs (dgfr1)",
        "write msgs (alg1-ss)",
        "snap msgs (dgfr1)",
        "snap msgs (alg1-ss)",
        "write bits (alg1-ss)",
        "gossip msgs/cycle",
        "gossip bits/msg",
        "n(n-1)",
    ]);
    for &n in N_SWEEP {
        let op = |dgfr: bool, node: usize, op: SnapshotOp| {
            let cfg = SimConfig::small(n);
            if dgfr {
                measure_single_op(cfg, move |id| Dgfr1::init(id, n), NodeId(node), op)
            } else {
                measure_single_op(cfg, move |id| Alg1::new(id, n), NodeId(node), op)
            }
        };
        let w_base = op(true, 0, SnapshotOp::Write(1));
        let w_ss = op(false, 0, SnapshotOp::Write(1));
        let s_base = op(true, 1, SnapshotOp::Snapshot);
        let s_ss = op(false, 1, SnapshotOp::Snapshot);
        let (g_msgs, g_bits) = gossip_per_cycle(SimConfig::small(n), move |id| Alg1::new(id, n), 6);
        t.row(vec![
            n.to_string(),
            w_base.op_msgs.to_string(),
            w_ss.op_msgs.to_string(),
            s_base.op_msgs.to_string(),
            s_ss.op_msgs.to_string(),
            w_ss.op_bits.to_string(),
            g_msgs.to_string(),
            (g_bits / g_msgs.max(1)).to_string(),
            (n * (n - 1)).to_string(),
        ]);
    }
    Claim {
        id: "E1",
        title: "Per-operation message cost, non-blocking algorithm (§1 claim (1), §3, Fig. 1)",
        tables: vec![t],
    }
}

/// E2: Delporte-Gallet et al.'s always-terminating Algorithm 2 costs
/// `O(n²)` messages per snapshot (every node helps every task, plus two
/// reliable broadcasts) against `O(n)` for the non-blocking Algorithm 1.
pub fn e2() -> Claim {
    let mut t = Table::new(&[
        "n",
        "dgfr2 snap msgs",
        "dgfr2 / n²",
        "dgfr1 snap msgs",
        "dgfr1 / n",
        "dgfr2 latency(us)",
        "dgfr1 latency(us)",
    ]);
    for &n in N_SWEEP {
        let s2 = measure_single_op(
            SimConfig::small(n),
            move |id| Dgfr2::new(id, n),
            NodeId(0),
            SnapshotOp::Snapshot,
        );
        let s1 = measure_single_op(
            SimConfig::small(n),
            move |id| Dgfr1::init(id, n),
            NodeId(0),
            SnapshotOp::Snapshot,
        );
        t.row(vec![
            n.to_string(),
            s2.op_msgs.to_string(),
            two_decimals(s2.op_msgs as f64 / (n * n) as f64),
            s1.op_msgs.to_string(),
            two_decimals(s1.op_msgs as f64 / n as f64),
            s2.latency_us.to_string(),
            s1.latency_us.to_string(),
        ]);
    }
    Claim {
        id: "E2",
        title: "Always-terminating baseline costs `O(n²)` per snapshot (§4, Fig. 2)",
        tables: vec![t],
    }
}

/// E3: for `δ > 0` an uncontended Algorithm 3 snapshot costs `O(n)`
/// snapshot-path messages (only the initiator queries); `δ = 0` recruits
/// helpers, the `O(n²)` regime of Algorithm 2, which is measured beside it.
pub fn e3() -> Claim {
    let mut t = Table::new(&[
        "n",
        "alg3 δ=0 msgs",
        "alg3 δ=16 msgs",
        "dgfr2 msgs",
        "δ=16 / n",
        "δ=0 / n²",
        "alg3 δ=16 latency(us)",
    ]);
    for &n in N_SWEEP {
        let alg3 = |delta: u64| {
            measure_single_op(
                SimConfig::small(n),
                move |id| Alg3::new(id, n, Alg3Config { delta }),
                NodeId(0),
                SnapshotOp::Snapshot,
            )
        };
        let (z, d) = (alg3(0), alg3(16));
        let b = measure_single_op(
            SimConfig::small(n),
            move |id| Dgfr2::new(id, n),
            NodeId(0),
            SnapshotOp::Snapshot,
        );
        t.row(vec![
            n.to_string(),
            z.snap_msgs.to_string(),
            d.snap_msgs.to_string(),
            b.op_msgs.to_string(),
            two_decimals(d.snap_msgs as f64 / n as f64),
            two_decimals(z.snap_msgs as f64 / (n * n) as f64),
            d.latency_us.to_string(),
        ]);
    }
    Claim {
        id: "E3",
        title: "Algorithm 3's uncontended snapshot (§4, Fig. 3 upper)",
        tables: vec![t],
    }
}

/// Messages and makespan of all `n` nodes snapshotting at once.
struct Concurrent {
    total_msgs: u64,
    per_snap: u64,
    makespan_us: u64,
}

fn all_snapshot<P: Protocol>(cfg: SimConfig, mk: impl FnMut(NodeId) -> P) -> Concurrent {
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
        .map(|r| r.completed_at.expect("completed"))
        .max()
        .expect("snapshots recorded")
        - t0;
    let d = sim.metrics().delta_since(&before);
    Concurrent {
        total_msgs: d.op_messages_sent(),
        per_snap: d.op_messages_sent() / n as u64,
        makespan_us: makespan,
    }
}

/// E4: with all `n` nodes snapshotting concurrently, Algorithm 3's
/// many-jobs-stealing batches the pending tasks into shared query
/// rounds, while Algorithm 2 serves one task at a time at `O(n²)` each.
pub fn e4() -> Claim {
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
        let b = all_snapshot(SimConfig::small(n), move |id| Dgfr2::new(id, n));
        let alg3 = |delta: u64| {
            all_snapshot(SimConfig::small(n), move |id| {
                Alg3::new(id, n, Alg3Config { delta })
            })
        };
        let (a0, a4) = (alg3(0), alg3(4));
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
    Claim {
        id: "E4",
        title: "Concurrent snapshots by all nodes (§4, Fig. 3 lower)",
        tables: vec![t],
    }
}

/// Theorem 1's *global* invariant: for every in-flight message m and every
/// node p_i, m's information about p_i's register never exceeds what p_i
/// itself knows (`m.reg[i].ts ≤ ts_i`). Checked by inspecting the
/// simulated channels directly.
fn global_invariant_holds(sim: &Sim<Alg1>) -> bool {
    let n = sim.config().n;
    let ts: Vec<u64> = (0..n).map(|i| sim.node(NodeId(i)).ts()).collect();
    sim.in_flight().all(|(_, _, msg)| {
        let reg = match msg {
            Alg1Msg::Write { reg }
            | Alg1Msg::WriteAck { reg }
            | Alg1Msg::Snapshot { reg, .. }
            | Alg1Msg::SnapshotAck { reg, .. } => reg.clone(),
            Alg1Msg::Gossip { .. } => return true, // O(ν): checked via reg below
        };
        (0..n).all(|i| reg.get(NodeId(i)).ts <= ts[i])
    })
}

/// Cycles until the global invariant (including channels) holds after
/// corrupting every node and every in-flight message.
fn global_recovery(n: usize, seed: u64, budget: u64) -> Option<u64> {
    let mut sim = Sim::new(SimConfig::small(n).with_seed(seed), move |id| {
        Alg1::new(id, n)
    });
    sim.run_for_cycles(2, 100_000_000);
    for i in 0..n {
        sim.corrupt_node_now(NodeId(i));
    }
    sim.corrupt_channels_now(1.0, 1 << 20);
    let start = sim.cycles();
    loop {
        let local = (0..n).all(|i| sim.node(NodeId(i)).local_invariants_hold());
        if local && global_invariant_holds(&sim) {
            return Some(sim.cycles() - start);
        }
        if sim.cycles() - start >= budget || !sim.run_for_cycles(1, 1_000_000_000) {
            return None;
        }
    }
}

/// The baseline's failure mode: restart one node, write, snapshot — is
/// the post-fault write lost?
fn baseline_loses_write(n: usize) -> bool {
    let mut sim = Sim::new(SimConfig::small(n), move |id| Dgfr1::init(id, n));
    for seq in 1..=4u64 {
        let t = sim.now() + 1;
        sim.invoke_at(t, NodeId(0), SnapshotOp::Write(100 + seq));
        assert!(sim.run_until_idle(200_000_000));
    }
    sim.restart_at(sim.now() + 1, NodeId(0)); // ts rewinds to 0
    sim.run_until(sim.now() + 10_000);
    let t = sim.now() + 1;
    sim.invoke_at(t, NodeId(0), SnapshotOp::Write(999));
    sim.run_until_idle(200_000_000);
    let t = sim.now() + 1;
    sim.invoke_at(t, NodeId(1), SnapshotOp::Snapshot);
    sim.run_until_idle(200_000_000);
    let snap = sim
        .history()
        .completed()
        .filter_map(|r| r.response.as_ref().and_then(OpResponse::as_snapshot))
        .last()
        .expect("the snapshot completes");
    snap.value_of(NodeId(0)) != Some(999)
}

fn yes_no(b: bool) -> String {
    String::from(if b { "yes" } else { "no" })
}

/// Seeds the recovery claims average over.
const RECOVERY_SEEDS: [u64; 3] = [1, 2, 3];

/// E5 (Theorem 1): Algorithm 1 restores its invariants within `O(1)`
/// asynchronous cycles after every node's state (and, in the later
/// columns, every in-flight message) is replaced with arbitrary values,
/// independent of `n`. The DGFR baseline, lacking gossip and index
/// floors, loses a write after a detectable restart rewinds its index.
pub fn e5() -> Claim {
    let mut t = Table::new(&[
        "n",
        "alg1-ss recovery (cycles, state only)",
        "alg1-ss recovery (cycles, +channels)",
        "incl. in-flight invariant",
        "dgfr1 loses a write after restart",
    ]);
    for &n in N_SWEEP {
        let local = |channels: bool| {
            mean_cycles(&RECOVERY_SEEDS, |&s| {
                recovery_cycles(
                    SimConfig::small(n).with_seed(s),
                    move |id| Alg1::new(id, n),
                    channels,
                    64,
                )
            })
        };
        t.row(vec![
            n.to_string(),
            local(false),
            local(true),
            mean_cycles(&RECOVERY_SEEDS, |&s| global_recovery(n, s, 64)),
            yes_no(baseline_loses_write(n)),
        ]);
    }
    Claim {
        id: "E5",
        title: "Theorem 1: `O(1)`-cycle recovery of Algorithm 1",
        tables: vec![t],
    }
}

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

/// E6 (Theorem 2): within `O(1)` asynchronous cycles after arbitrary
/// corruption of every node's state (indices, registers, the whole
/// `pndTsk` table) and all in-flight messages, Algorithm 3 is consistent
/// again (Definition 1) for every `δ` and `n`, and remains usable.
pub fn e6() -> Claim {
    let mut t = Table::new(&[
        "n",
        "δ=0 recovery (cycles)",
        "δ=4 recovery (cycles)",
        "δ=64 recovery (cycles)",
        "usable after (δ=4)",
    ]);
    for &n in N_SWEEP {
        let recovery = |delta: u64| {
            mean_cycles(&RECOVERY_SEEDS, |&s| {
                recovery_cycles(
                    SimConfig::small(n).with_seed(s),
                    move |id| Alg3::new(id, n, Alg3Config { delta }),
                    true,
                    64,
                )
            })
        };
        t.row(vec![
            n.to_string(),
            recovery(0),
            recovery(4),
            recovery(64),
            yes_no(usable_after_recovery(n, 4)),
        ]);
    }
    Claim {
        id: "E6",
        title: "Theorem 2: `O(1)`-cycle recovery of Algorithm 3",
        tables: vec![t],
    }
}

/// E7 (Theorem 3): one node snapshots while every other node writes
/// back-to-back on a lossy network (n = 6). The snapshot completes after
/// a quiet double read or, once it has seen `δ` concurrent writes, by
/// blocking writes — so the writes it admits grow with `δ`, and so does
/// its latency, within `O(δ)` cycles. Also the latency distribution of a
/// 60/40 write/snapshot mix, as percentiles and as a log₂ histogram.
pub fn e7() -> Claim {
    let n = 6;
    let mut t = Table::new(&[
        "δ",
        "latency (cycles)",
        "concurrent writes observed",
        "latency/δ",
    ])
    .captioned("snapshot under a write storm (3 seeds)");
    for &delta in &[0u64, 1, 2, 4, 8, 16, 32] {
        let runs: Vec<(u64, u64)> = [3u64, 5, 8]
            .iter()
            .map(|&s| {
                snapshot_latency_cycles(
                    SimConfig::harsh(n).with_seed(s),
                    move |id| Alg3::new(id, n, Alg3Config { delta }),
                    NodeId(0),
                    n - 1, // every other node writes
                    64 + 16 * delta,
                )
                .expect("Theorem 3: an Algorithm 3 snapshot terminates")
            })
            .collect();
        let mean =
            |f: fn(&(u64, u64)) -> u64| runs.iter().map(f).sum::<u64>() as f64 / runs.len() as f64;
        let cycles = mean(|r| r.0);
        t.row(vec![
            delta.to_string(),
            one_decimal(cycles),
            one_decimal(mean(|r| r.1)),
            if delta > 0 {
                two_decimals(cycles / delta as f64)
            } else {
                "-".into()
            },
        ]);
    }

    let mut lat = Table::new(&["δ", "class", "count", "p50", "p95", "p99", "p99.9", "max"])
        .captioned("latency (virtual µs) under a 60/40 write/snapshot mix");
    let mut hists = Vec::new();
    for delta in [0u64, 4, 16] {
        let mut sim = Sim::new(SimConfig::harsh(n).with_seed(5), move |id| {
            Alg3::new(id, n, Alg3Config { delta })
        });
        let mut driver = MixedDriver::new(
            n,
            MixedConfig {
                ops_per_node: 30,
                write_ratio: 0.6,
                think: (0, 120),
                seed: 5,
                nodes: None,
            },
        );
        sim.run_with_driver(&mut driver, 3_000_000_000);
        for class in [OpClass::Write, OpClass::Snapshot] {
            let s = sim.metrics().latency(class);
            lat.row(vec![
                delta.to_string(),
                format!("{class:?}").to_lowercase(),
                s.count.to_string(),
                s.p50.to_string(),
                s.p95.to_string(),
                s.p99.to_string(),
                s.p999.to_string(),
                s.max.to_string(),
            ]);
            if class == OpClass::Snapshot {
                hists.push(s.histogram);
            }
        }
    }

    let mut buckets: Vec<(u64, u64)> = hists
        .iter()
        .flat_map(|h| h.nonzero().map(|(lo, hi, _)| (lo, hi)))
        .collect();
    buckets.sort_unstable();
    buckets.dedup();
    let mut hist = Table::new(&["bucket (µs)", "δ=0", "δ=4", "δ=16"])
        .captioned("snapshots per log₂ latency bucket, same mix");
    for (lo, hi) in buckets {
        let mut row = vec![format!("{lo}–{hi}")];
        for h in &hists {
            let c = h.nonzero().find(|&(l, _, _)| l == lo).map_or(0, |b| b.2);
            row.push(c.to_string());
        }
        hist.row(row);
    }
    Claim {
        id: "E7",
        title: "Theorem 3: snapshot latency is `O(δ)` under concurrent writes",
        tables: vec![t, lat, hist],
    }
}

/// Continuous writers at every node but `p0`, which takes `snaps_left`
/// snapshots back to back.
struct Load {
    snaps_left: u64,
    next_seq: Vec<u64>,
}

impl Driver<Alg3> for Load {
    fn init(&mut self, ctl: &mut Ctl<'_, <Alg3 as Protocol>::Msg>) {
        ctl.invoke(NodeId(0), SnapshotOp::Snapshot);
        for k in 1..ctl.n() {
            self.next_seq[k] += 1;
            ctl.invoke(
                NodeId(k),
                SnapshotOp::Write(unique_value(NodeId(k), self.next_seq[k])),
            );
        }
    }
    fn on_completion(
        &mut self,
        node: NodeId,
        _id: OpId,
        resp: &OpResponse,
        ctl: &mut Ctl<'_, <Alg3 as Protocol>::Msg>,
    ) {
        match resp {
            OpResponse::Snapshot(_) => {
                self.snaps_left -= 1;
                if self.snaps_left == 0 {
                    ctl.stop();
                } else {
                    ctl.invoke(node, SnapshotOp::Snapshot);
                }
            }
            OpResponse::WriteDone => {
                let k = node.index();
                self.next_seq[k] += 1;
                ctl.invoke(
                    node,
                    SnapshotOp::Write(unique_value(node, self.next_seq[k])),
                );
            }
        }
    }
}

/// E8 (§1 claim (2)): the δ trade-off under 5 non-stop writers and 10
/// back-to-back snapshots (n = 6). `δ = 0` pins writes down for the
/// fastest snapshots; larger `δ` buys write availability — at least `δ`
/// writes proceed per snapshot — paid in snapshot latency.
pub fn e8() -> Claim {
    let n = 6;
    let mut t = Table::new(&[
        "δ",
        "snap msgs/snap",
        "snap p50(us)",
        "snap p95(us)",
        "writes completed",
        "writes / snapshot",
    ]);
    for &delta in &[0u64, 1, 2, 4, 8, 16, 32, 64] {
        let mut sim = Sim::new(SimConfig::small(n).with_seed(11 + delta), move |id| {
            Alg3::new(id, n, Alg3Config { delta })
        });
        let mut load = Load {
            snaps_left: 10,
            next_seq: vec![0; n],
        };
        sim.run_with_driver(&mut load, 300_000_000);
        let count = |write: bool| {
            sim.history()
                .completed()
                .filter(|r| matches!(r.op, SnapshotOp::Write(_)) == write)
                .count() as u64
        };
        let (writes, done) = (count(true), count(false).max(1));
        let stats = sim
            .history()
            .latency_stats(|r| matches!(r.op, SnapshotOp::Snapshot))
            .expect("snapshots completed");
        let m = sim.metrics();
        let snap_msgs: u64 = [
            MsgKind::Snapshot,
            MsgKind::SnapshotAck,
            MsgKind::Save,
            MsgKind::SaveAck,
        ]
        .iter()
        .map(|&k| m.kind(k).sent)
        .sum();
        t.row(vec![
            delta.to_string(),
            (snap_msgs / done).to_string(),
            stats.p50.to_string(),
            stats.p95.to_string(),
            writes.to_string(),
            one_decimal(writes as f64 / done as f64),
        ]);
    }
    Claim {
        id: "E8",
        title: "The δ trade-off (§1 claim (2))",
        tables: vec![t],
    }
}

/// E9 (§5): once an index reaches `MAXINT`, operations are disabled and
/// the global reset wraps the indices while preserving every register
/// value; only the operations issued while the reset runs abort, so
/// about `MAXINT` operations run between resets. One writer at `p0`
/// (n = 4) runs well past the threshold; `MAXINT` is tiny so the seldom
/// event is observable.
pub fn e9() -> Claim {
    let n = 4;
    let mut t = Table::new(&[
        "MAXINT",
        "writes attempted",
        "writes completed",
        "ops aborted",
        "resets",
        "epochs agree",
        "values preserved",
    ]);
    for &max_int in &[8u64, 16, 32, 64] {
        let mut sim: Sim<Bounded<Alg1>> =
            Sim::new(SimConfig::small(n).with_seed(max_int), move |id| {
                Bounded::new(Alg1::new(id, n), BoundedConfig { max_int })
            });
        let attempts = max_int + max_int / 2;
        for seq in 1..=attempts {
            let t0 = sim.now() + 1;
            sim.invoke_at(
                t0,
                NodeId(0),
                SnapshotOp::Write(unique_value(NodeId(0), seq)),
            );
            sim.run_until_idle(500_000_000);
        }
        // Let any in-progress reset finish.
        sim.run_while(2_000_000_000, |s| {
            (0..n).any(|i| s.node(NodeId(i)).is_wrapping())
        });
        let completed = sim.history().completed().count() as u64;
        let aborted: u64 = (0..n).map(|i| sim.node(NodeId(i)).aborted_ops()).sum();
        let epochs: Vec<u64> = (0..n).map(|i| sim.node(NodeId(i)).epoch()).collect();
        // Every node must still hold a value written before the wrap.
        let last_val = sim
            .history()
            .completed()
            .filter_map(|r| match r.op {
                SnapshotOp::Write(v) => Some(v),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let preserved =
            (0..n).all(|i| sim.node(NodeId(i)).inner().reg().get(NodeId(0)).val >= last_val.min(1));
        t.row(vec![
            max_int.to_string(),
            attempts.to_string(),
            completed.to_string(),
            aborted.to_string(),
            sim.node(NodeId(0)).resets_done().to_string(),
            epochs.iter().all(|&e| e == epochs[0]).to_string(),
            preserved.to_string(),
        ]);
    }
    Claim {
        id: "E9",
        title: "§5: bounded counters and the global reset",
        tables: vec![t],
    }
}

/// E10's cycle budget: a snapshot slower than this reads as starved.
const E10_BUDGET: u64 = 150;

/// E10 (§3 vs §4): snapshot latency in cycles while `k` of 8 nodes write
/// back-to-back on a lossy network. Algorithm 1's snapshot only
/// terminates once writes cease, so the non-blocking columns grow with
/// write concurrency (unbounded in the worst case); Algorithm 3 and
/// Algorithm 2 make writes yield and stay bounded.
pub fn e10() -> Claim {
    let n = 8;
    let mut t = Table::new(&[
        "k writers",
        "dgfr1",
        "alg1-ss",
        "dgfr2",
        "alg3-ss δ=0",
        "alg3-ss δ=8",
    ]);
    for &k in &[1usize, 3, 5, 7] {
        let cfg = SimConfig::harsh(n).with_seed(2 + k as u64);
        let cell = |res: Option<(u64, u64)>| match res {
            Some((c, _)) => c.to_string(),
            None => format!("starved (>{E10_BUDGET})"),
        };
        let (p0, b) = (NodeId(0), E10_BUDGET);
        let alg3 = move |delta| move |id| Alg3::new(id, n, Alg3Config { delta });
        t.row(vec![
            k.to_string(),
            cell(snapshot_latency_cycles(
                cfg,
                move |id| Dgfr1::init(id, n),
                p0,
                k,
                b,
            )),
            cell(snapshot_latency_cycles(
                cfg,
                move |id| Alg1::new(id, n),
                p0,
                k,
                b,
            )),
            cell(snapshot_latency_cycles(
                cfg,
                move |id| Dgfr2::new(id, n),
                p0,
                k,
                b,
            )),
            cell(snapshot_latency_cycles(cfg, alg3(0), p0, k, b)),
            cell(snapshot_latency_cycles(cfg, alg3(8), p0, k, b)),
        ]);
    }
    Claim {
        id: "E10",
        title: "Non-blocking vs always-terminating under write storms (§3 vs §4)",
        tables: vec![t],
    }
}

/// E11 (related work): ABD-emulated registers under a double-collect
/// snapshot cost ≈ `8n` messages and 4 round trips per snapshot; the
/// integrated Delporte-Gallet design ≈ `2n` and one. Latency on the
/// simulated network (1–10 µs one-way delays) is the round-trip proxy.
pub fn e11() -> Claim {
    let mut t = Table::new(&[
        "n",
        "stacked snap msgs",
        "stacked /8n",
        "integrated snap msgs",
        "integrated /2n",
        "stacked latency(us)",
        "integrated latency(us)",
        "stacked write msgs",
        "integrated write msgs",
    ]);
    for &n in N_SWEEP {
        let stacked = |op| {
            measure_single_op(
                SimConfig::small(n),
                move |id| Stacked::new(id, n),
                NodeId(0),
                op,
            )
        };
        let integrated = |op| {
            measure_single_op(
                SimConfig::small(n),
                move |id| Dgfr1::init(id, n),
                NodeId(0),
                op,
            )
        };
        let (ss, is) = (
            stacked(SnapshotOp::Snapshot),
            integrated(SnapshotOp::Snapshot),
        );
        let (sw, iw) = (
            stacked(SnapshotOp::Write(1)),
            integrated(SnapshotOp::Write(1)),
        );
        t.row(vec![
            n.to_string(),
            ss.op_msgs.to_string(),
            two_decimals(ss.op_msgs as f64 / (8 * n) as f64),
            is.op_msgs.to_string(),
            two_decimals(is.op_msgs as f64 / (2 * n) as f64),
            ss.latency_us.to_string(),
            is.latency_us.to_string(),
            sw.op_msgs.to_string(),
            iw.op_msgs.to_string(),
        ]);
    }
    Claim {
        id: "E11",
        title: "Stacking costs 8n msgs / 4 RTT vs 2n / 1 RTT (related work)",
        tables: vec![t],
    }
}

/// How long E12 waits for an operation with `f` nodes crashed: 500
/// rounds. With a majority alive both operations finish within a few
/// rounds, so an operation still pending here is blocked.
const CRASH_HORIZON: SimTime = 50_000;

/// Crashes the `f` highest ids, then runs a write and a snapshot at
/// surviving nodes. Returns whether both completed.
fn survives<P: Protocol>(cfg: SimConfig, mk: impl FnMut(NodeId) -> P, f: usize) -> bool {
    let n = cfg.n;
    let mut sim = Sim::new(cfg, mk);
    for i in 0..f {
        sim.crash_at(0, NodeId(n - 1 - i));
    }
    sim.invoke_at(10, NodeId(0), SnapshotOp::Write(unique_value(NodeId(0), 1)));
    sim.invoke_at(20, NodeId(1), SnapshotOp::Snapshot);
    sim.run_until_idle(CRASH_HORIZON)
}

/// E12 (§2): with `n = 5`, every operation completes with up to
/// `f < n/2` crashed nodes and blocks at `f ≥ n/2`, for both
/// self-stabilizing algorithms; a single resume then restores liveness
/// without restarting anything.
pub fn e12() -> Claim {
    let n = 5;
    let mut t = Table::new(&[
        "f (crashed)",
        "majority alive",
        "alg1-ss completes",
        "alg3-ss completes",
    ]);
    for f in 0..=3usize {
        let cfg = SimConfig::small(n).with_seed(f as u64);
        t.row(vec![
            f.to_string(),
            (2 * (n - f) > n).to_string(),
            survives(cfg, move |id| Alg1::new(id, n), f).to_string(),
            survives(cfg, move |id| Alg3::new(id, n, Alg3Config { delta: 1 }), f).to_string(),
        ]);
    }

    let mut sim = Sim::new(SimConfig::small(n).with_seed(42), move |id| {
        Alg1::new(id, n)
    });
    for i in 0..3 {
        sim.crash_at(0, NodeId(n - 1 - i));
    }
    sim.invoke_at(10, NodeId(0), SnapshotOp::Write(unique_value(NodeId(0), 1)));
    let blocked = !sim.run_until_idle(CRASH_HORIZON);
    sim.resume_at(sim.now() + 1, NodeId(4));
    let unblocked = sim.run_until_idle(sim.now() + CRASH_HORIZON);
    let mut resume = Table::new(&[
        "f (crashed)",
        "alg1-ss write blocked",
        "completes after one resume",
    ])
    .captioned("resume: p4 comes back, nothing restarts");
    resume.row(vec!["3".into(), blocked.to_string(), unblocked.to_string()]);
    Claim {
        id: "E12",
        title: "Crash tolerance: `2f < n` (§2)",
        tables: vec![t, resume],
    }
}

const LINEARIZABLE: &str = "linearizable";
const VIOLATION: &str = "VIOLATION";

/// A 40-op mixed workload (n = 4), optionally with a minority crash at
/// t = 400: completed ops and the checker's verdict.
fn verdict<P: Protocol>(
    cfg: SimConfig,
    mk: impl FnMut(NodeId) -> P,
    crash: bool,
) -> (usize, &'static str) {
    let n = cfg.n;
    let mut sim = Sim::new(cfg, mk);
    if crash {
        let (plan, _) = FaultPlan::new().crash_random_minority(n, 400, 17);
        sim.apply_plan(&plan);
    }
    let mut driver = MixedDriver::new(
        n,
        MixedConfig {
            ops_per_node: 10,
            write_ratio: 0.6,
            think: (0, 120),
            seed: 5,
            nodes: None,
        },
    );
    // Crashed nodes leave ops pending forever; bound the horizon.
    let horizon = if crash { 30_000_000 } else { 3_000_000_000 };
    sim.run_with_driver(&mut driver, horizon);
    let h = sim.history();
    let ok = check(h, n).is_linearizable();
    (
        h.completed().count(),
        if ok { LINEARIZABLE } else { VIOLATION },
    )
}

/// Runs a mixed workload, corrupts every node and channel, waits ten
/// cycles, lets every node write once (the barrier), runs a second mixed
/// workload, and checks the history from the barrier on: completed ops
/// of that suffix and the checker's verdict.
fn post_recovery<P: Protocol>(mut sim: Sim<P>, n: usize) -> (usize, &'static str)
where
    P::Msg: ArbitraryMsg,
{
    let mixed = |ops_per_node, seed| {
        MixedDriver::new(
            n,
            MixedConfig {
                ops_per_node,
                seed,
                ..MixedConfig::default()
            },
        )
    };
    sim.run_with_driver(&mut mixed(6, 3), 3_000_000_000);
    for i in 0..n {
        sim.corrupt_node_now(NodeId(i));
    }
    sim.corrupt_channels_now(1.0, 1 << 20);
    if !sim.run_for_cycles(10, 3_000_000_000) {
        return (0, "unrecovered");
    }
    let barrier_t = sim.now();
    for i in 0..n {
        let t = sim.now() + 1;
        sim.invoke_at(
            t,
            NodeId(i),
            SnapshotOp::Write(unique_value(NodeId(i), 500 + i as u64)),
        );
        if !sim.run_until_idle(3_000_000_000) {
            return (0, "unrecovered");
        }
    }
    sim.run_with_driver(&mut mixed(8, 4), 6_000_000_000);
    let suffix = sim.history().suffix_from(barrier_t);
    let ok = check(&suffix, n).is_linearizable();
    (
        suffix.completed().count(),
        if ok { LINEARIZABLE } else { VIOLATION },
    )
}

/// E13 (§1 task, §2 fault model): every protocol's recorded history is
/// checked for linearizability on a reliable and a lossy, duplicating,
/// reordering network and with a mid-run minority crash; for the
/// self-stabilizing algorithms also the suffix after full corruption of
/// every node and channel (Dijkstra's criterion).
pub fn e13() -> Claim {
    let n = 4;
    let mut t = Table::new(&["protocol", "network", "faults", "ops", "verdict"]);
    let mut add = |name: &str, net: &str, faults: &str, (ops, v): (usize, &str)| {
        t.row(vec![
            name.into(),
            net.into(),
            faults.into(),
            ops.to_string(),
            v.into(),
        ]);
    };
    let (small, harsh) = (SimConfig::small(n), SimConfig::harsh(n));
    let alg1 = move |id| Alg1::new(id, n);
    let alg3 = move |delta| move |id| Alg3::new(id, n, Alg3Config { delta });
    add("alg1-ss", "reliable", "none", verdict(small, alg1, false));
    add("alg1-ss", "harsh", "none", verdict(harsh, alg1, false));
    add("alg1-ss", "reliable", "crash", verdict(small, alg1, true));
    for delta in [0u64, 4] {
        let name = format!("alg3-ss δ={delta}");
        add(&name, "harsh", "none", verdict(harsh, alg3(delta), false));
        add(
            &name,
            "reliable",
            "crash",
            verdict(small, alg3(delta), true),
        );
    }
    let dgfr1 = move |id| Dgfr1::init(id, n);
    add("dgfr1", "harsh", "none", verdict(harsh, dgfr1, false));
    add(
        "dgfr2",
        "reliable",
        "none",
        verdict(small, move |id| Dgfr2::new(id, n), false),
    );
    add(
        "stacked",
        "harsh",
        "none",
        verdict(harsh, move |id| Stacked::new(id, n), false),
    );
    let corrupted = "corrupt all, suffix";
    let seeded = small.with_seed(9);
    add(
        "alg1-ss",
        "reliable",
        corrupted,
        post_recovery(Sim::new(seeded, alg1), n),
    );
    add(
        "alg3-ss δ=2",
        "reliable",
        corrupted,
        post_recovery(Sim::new(seeded, alg3(2)), n),
    );
    Claim {
        id: "E13",
        title: "Linearizability everywhere (§1 task description)",
        tables: vec![t],
    }
}

/// Reads recovery episodes off an `n`-node trace: each `Stabilized`
/// probe with the completed asynchronous cycles and model µs since its
/// node's latest corruption.
fn recovery_episodes(n: usize, records: &[TraceRecord]) -> Vec<RecoveryEpisode> {
    let mut faults = FaultState::new(n);
    records.iter().filter_map(|r| faults.fold(r)).collect()
}

/// E15 (Theorems 1 and 2, read from the trace plane alone): a fault plan
/// corrupts p1, p2 and p0 in turn while a mixed workload runs on
/// Algorithm 1, n = 4. A node's recovery is the `CycleEnd`s between its
/// latest `Fault{Corrupt}` and its next `Stabilized` probe.
pub fn e15() -> Claim {
    let n = 4;
    let plan = FaultPlan::new()
        .at(2_000, FaultEvent::Corrupt(NodeId(1)))
        .at(4_000, FaultEvent::Corrupt(NodeId(2)))
        .at(6_000, FaultEvent::Corrupt(NodeId(0)));
    let workload = WorkloadSpec {
        ops_per_node: 6,
        think: (200, 1_500),
        op_timeout: 20_000,
        ..WorkloadSpec::default()
    };
    let (sink, buf) = MemorySink::new();
    let tracer = Tracer::new(n).with_sink(sink);
    SimBackend::new(SimConfig::small(n).with_seed(0xE15), move |id| {
        Alg1::new(id, n)
    })
    .run_traced(&plan, &workload, &tracer);
    let mut t = Table::new(&["node", "recovery (cycles)", "recovery (model µs)"]);
    for e in recovery_episodes(n, &buf.records()) {
        t.row(vec![
            e.node.to_string(),
            e.cycles.to_string(),
            e.model_us.to_string(),
        ]);
    }
    Claim {
        id: "E15",
        title: "Recovery read from the trace plane (Thms. 1 & 2)",
        tables: vec![t],
    }
}

/// E16: the chaos engine's five fault strategies × 4 seeds against
/// Algorithm 1 on the simulator, n = 5, each run judged by the
/// linearizability checker and the self-stabilization oracle.
pub fn e16() -> Claim {
    let n = 5;
    let mut t = Table::new(&[
        "strategy",
        "cases",
        "completed",
        "timed out",
        "corrupt",
        "stabilized",
        "inconcl",
        "findings",
    ]);
    for strategy in StrategyKind::ALL {
        let cfg = CampaignConfig {
            n,
            strategies: vec![strategy],
            backend: BackendChoice::Sim,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&cfg, move |id| Alg1::new(id, n));
        t.row(vec![
            strategy.name().to_string(),
            r.cases.to_string(),
            r.ops_completed.to_string(),
            r.ops_timed_out.to_string(),
            r.corruptions.to_string(),
            r.stabilizations.to_string(),
            r.inconclusive.to_string(),
            r.findings.len().to_string(),
        ]);
    }
    Claim {
        id: "E16",
        title: "Chaos campaign: five fault strategies against Algorithm 1",
        tables: vec![t],
    }
}

/// The non-honest Byzantine activations in a plan, as `p0 equivocate,
/// …` (the quiesce suffix's return-to-honesty events are not lies).
fn liars(sc: &Scenario) -> String {
    sc.plan
        .events()
        .iter()
        .filter_map(|(_, ev)| match ev {
            FaultEvent::Byzantine { node, behavior } if *behavior != ByzBehavior::Honest => {
                Some(format!("{node} {}", behavior.name()))
            }
            _ => None,
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Did a node change epoch while a partition was active — did the reset
/// race the cut rather than finish before it?
fn reset_during_partition(sc: &Scenario, outcome: &CaseOutcome) -> bool {
    let mut faults = FaultState::new(sc.n);
    outcome.records.iter().any(|r| {
        faults.fold(r);
        matches!(r.event, TraceEvent::EpochChange { .. }) && faults.partitioned()
    })
}

/// E19 (§5 against executions the paper does not promise to handle):
/// the two adversarial strategies × 4 seeds on `Bounded<Alg1>`, n = 5.
/// `counter-exhaustion` seeds every index next to `MAXINT` and races the
/// global reset against partitions and coordinator crashes;
/// `byzantine-storm` fields `1..=f` liars. Under liars the oracle lists
/// which §5 invariants survived instead of failing.
pub fn e19() -> Claim {
    let n = 5;
    let seeds = 4u64;
    let mut t = Table::new(&[
        "strategy",
        "cases",
        "completed",
        "aborted",
        "resets",
        "resets under partition",
        "stale drops",
        "audits",
        "inv broken",
        "violations",
    ]);
    let mut runs: Vec<(Scenario, CaseOutcome)> = Vec::new();
    for strategy in StrategyKind::ADVERSARIAL {
        let first = runs.len();
        for seed in 0..seeds {
            let sc = strategy.scenario(n, seed);
            let outcome = run_case_sim(&sc, bounded_alg1(strategy, n));
            runs.push((sc, outcome));
        }
        let cases = &runs[first..];
        let sum = |f: &dyn Fn(&(Scenario, CaseOutcome)) -> u64| -> String {
            cases.iter().map(f).sum::<u64>().to_string()
        };
        t.row(vec![
            strategy.name().to_string(),
            seeds.to_string(),
            sum(&|(_, o)| o.report.stats.ops_completed),
            sum(&|(_, o)| {
                o.report
                    .history
                    .records()
                    .iter()
                    .filter(|r| r.aborted)
                    .count() as u64
            }),
            sum(&|(_, o)| u64::from(o.report.probes.iter().any(|p| p.epoch >= 1))),
            sum(&|(sc, o)| u64::from(reset_during_partition(sc, o))),
            sum(&|(_, o)| o.report.probes.iter().map(|p| p.stale_epoch_dropped).sum()),
            sum(&|(_, o)| u64::from(o.oracle.survival.is_some())),
            sum(&|(_, o)| {
                o.oracle
                    .survival
                    .as_ref()
                    .map_or(0, |s| s.broken.len() as u64)
            }),
            sum(&|(_, o)| o.oracle.violations.len() as u64),
        ]);
    }

    let mut tally =
        Table::new(&["invariant", "held", "broken"]).captioned("invariant survival, every case");
    for inv in [
        INV_EPOCH_MONOTONICITY,
        INV_NO_STALE_EPOCH_LEAK,
        INV_RESET_TERMINATION,
        INV_POST_RESET_LINEARIZABILITY,
    ] {
        let count = |f: &dyn Fn(&InvariantSurvival) -> bool| {
            runs.iter()
                .filter(|(_, o)| o.oracle.survival.as_ref().is_some_and(f))
                .count()
                .to_string()
        };
        tally.row(vec![
            inv.to_string(),
            count(&|s| s.held.contains(&inv)),
            count(&|s| s.broken.iter().any(|(b, _)| *b == inv)),
        ]);
    }

    let mut broken =
        Table::new(&["strategy", "seed", "liars", "invariant"]).captioned("every broken invariant");
    for (sc, o) in &runs {
        let Some(survival) = &o.oracle.survival else {
            continue;
        };
        for (inv, _) in &survival.broken {
            broken.row(vec![
                sc.strategy.name().to_string(),
                sc.seed.to_string(),
                liars(sc),
                inv.to_string(),
            ]);
        }
    }
    Claim {
        id: "E19",
        title: "Adversary soak: Byzantine liars + bounded-counter wraparound",
        tables: vec![t, tally, broken],
    }
}

/// Nodes in the figures' scenarios.
const FIG_N: usize = 3;

/// One message delivery extracted from a trace.
struct Flow {
    time: u64,
    from: NodeId,
    to: NodeId,
    kind: MsgKind,
}

/// The `Deliver` events of a trace buffer, as flows.
fn deliveries(buf: &TraceBuffer) -> Vec<Flow> {
    buf.records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Deliver { from, to, kind } => Some(Flow {
                time: r.at,
                from,
                to,
                kind,
            }),
            _ => None,
        })
        .collect()
}

/// Runs write(p0) → snapshot(p1) → write(p0) under a tracing simulator
/// and returns the snapshot phase's deliveries and the delivery count
/// of each phase. A phase ends when its operation completes, so a late
/// acknowledgement lands in the next phase.
fn figure<P: Protocol>(mk: impl FnMut(NodeId) -> P) -> (Vec<Flow>, [usize; 3]) {
    let mut sim = Sim::new(SimConfig::small(FIG_N).with_seed(1), mk);
    sim.run_until(2_000);
    let (sink, buf) = MemorySink::new();
    sim.set_tracer(Tracer::new(FIG_N).with_sink(sink));
    let mut phase = |node, op| {
        sim.invoke_at(sim.now(), NodeId(node), op);
        assert!(sim.run_until_idle(100_000_000));
        let flows = deliveries(&buf);
        buf.clear();
        flows
    };
    let w1 = phase(0, SnapshotOp::Write(101)).len();
    let snap = phase(1, SnapshotOp::Snapshot);
    let w2 = phase(0, SnapshotOp::Write(102)).len();
    let counts = [w1, snap.len(), w2];
    (snap, counts)
}

fn phase_table(rows: &[(&str, [usize; 3])]) -> Table {
    let mut t = Table::new(&["algorithm", "write₁", "snapshot", "write₂"])
        .captioned("deliveries per phase of write(p0) → snapshot(p1) → write(p0)");
    for (name, c) in rows {
        t.row(vec![
            name.to_string(),
            c[0].to_string(),
            c[1].to_string(),
            c[2].to_string(),
        ]);
    }
    t
}

fn flow_table(caption: &str, flows: &[Flow]) -> Table {
    let mut t = Table::new(&["t(us)", "flow", "message"]).captioned(caption);
    for f in flows {
        t.row(vec![
            f.time.to_string(),
            format!("{} → {}", f.from, f.to),
            format!("{:?}", f.kind),
        ]);
    }
    t
}

/// F1 (Figure 1): the snapshot phase's deliveries under DGFR Algorithm 1
/// (upper drawing) and the self-stabilizing Algorithm 1 (lower), n = 3:
/// the gossip interleaves without touching operation traffic.
pub fn f1() -> Claim {
    let (upper, uc) = figure(move |id| Dgfr1::init(id, FIG_N));
    let (lower, lc) = figure(move |id| Alg1::new(id, FIG_N));
    Claim {
        id: "F1",
        title: "Figure 1: Algorithm 1 without and with gossip",
        tables: vec![
            phase_table(&[("dgfr1", uc), ("alg1-ss", lc)]),
            flow_table("snapshot phase, upper: DGFR Algorithm 1", &upper),
            flow_table(
                "snapshot phase, lower: self-stabilizing Algorithm 1",
                &lower,
            ),
        ],
    }
}

/// F2 (Figure 2): the same scenario under DGFR Algorithm 2 — reliable
/// broadcasts (`Snap`/`RbAck`) and all-node helping.
pub fn f2() -> Claim {
    let (flows, c) = figure(move |id| Dgfr2::new(id, FIG_N));
    Claim {
        id: "F2",
        title: "Figure 2: Algorithm 2's reliable broadcasts",
        tables: vec![
            phase_table(&[("dgfr2", c)]),
            flow_table("snapshot phase: DGFR Algorithm 2", &flows),
        ],
    }
}

/// F3 (Figure 3): the same scenario under Algorithm 3 with `δ = 8`
/// (upper drawing: the initiator queries alone), and all three nodes
/// snapshotting concurrently under `δ = 0` (lower: one shared batch).
pub fn f3() -> Claim {
    let (flows, c) = figure(move |id| Alg3::new(id, FIG_N, Alg3Config { delta: 8 }));

    let mut sim = Sim::new(SimConfig::small(FIG_N).with_seed(2), move |id| {
        Alg3::new(id, FIG_N, Alg3Config { delta: 0 })
    });
    sim.run_until(2_000);
    let (sink, buf) = MemorySink::new();
    sim.set_tracer(Tracer::new(FIG_N).with_sink(sink));
    for i in 0..FIG_N {
        sim.invoke_at(sim.now() + i as u64, NodeId(i), SnapshotOp::Snapshot);
    }
    assert!(sim.run_until_idle(200_000_000));
    let all = deliveries(&buf);
    let mut lower = Table::new(&["message", "deliveries"])
        .captioned("lower: all 3 nodes snapshot concurrently, δ = 0");
    for k in [
        MsgKind::Snapshot,
        MsgKind::SnapshotAck,
        MsgKind::Save,
        MsgKind::SaveAck,
    ] {
        let c = all.iter().filter(|f| f.kind == k).count();
        lower.row(vec![format!("{k:?}"), c.to_string()]);
    }
    let op_msgs = all.iter().filter(|f| !f.kind.is_gossip()).count();
    lower.row(vec!["all but gossip".into(), op_msgs.to_string()]);
    lower.row(vec!["per snapshot".into(), (op_msgs / FIG_N).to_string()]);
    Claim {
        id: "F3",
        title: "Figure 3: Algorithm 3 alone and batched",
        tables: vec![
            phase_table(&[("alg3-ss δ=8", c)]),
            flow_table("snapshot phase, upper: Algorithm 3, δ = 8", &flows),
            lower,
        ],
    }
}

/// Rewinds node 0's state via a detectable restart after four writes,
/// then counts cycles until node 0 knows its old timestamp again
/// (`ts ≥ 4`, relearnt through gossip). `None` if it never does.
fn targeted_recovery(k: u64, budget_cycles: u64) -> Option<u64> {
    let n = 4;
    let mut sim = Sim::new(SimConfig::small(n).with_seed(7 + k), move |id| {
        Alg1::with_gossip_every(id, n, k)
    });
    for seq in 1..=4u64 {
        let t = sim.now() + 1;
        sim.invoke_at(
            t,
            NodeId(0),
            SnapshotOp::Write(unique_value(NodeId(0), seq)),
        );
        assert!(sim.run_until_idle(100_000_000));
    }
    sim.restart_at(sim.now() + 1, NodeId(0));
    sim.run_until(sim.now() + 2);
    let start = sim.cycles();
    loop {
        if sim.node(NodeId(0)).ts() >= 4 {
            return Some(sim.cycles() - start);
        }
        if sim.cycles() - start >= budget_cycles || !sim.run_for_cycles(1, 1_000_000_000) {
            return None;
        }
    }
}

/// A1 (ablation of the paper's gossip): gossip every `k`-th `do
/// forever` iteration (`k = 0` disables it), n = 4. Recovery after a
/// targeted `ts` rewind grows with `k` and gossip traffic falls ~1/k;
/// without gossip the node never recovers — gossip is the recovery
/// mechanism, not an optimization.
pub fn a1() -> Claim {
    let n = 4;
    let mut t = Table::new(&[
        "gossip every k rounds",
        "recovery after ts rewind (cycles)",
        "gossip msgs/cycle",
    ]);
    for &k in &[1u64, 2, 4, 8, 0] {
        let (g, _) = gossip_per_cycle(
            SimConfig::small(n).with_seed(3),
            move |id| Alg1::with_gossip_every(id, n, k),
            6,
        );
        t.row(vec![
            if k == 0 {
                "disabled".into()
            } else {
                k.to_string()
            },
            targeted_recovery(k, 64).map_or("NEVER".into(), |c| c.to_string()),
            g.to_string(),
        ]);
    }
    Claim {
        id: "A1",
        title: "Ablation: gossip cadence",
        tables: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_sim::FaultKind;

    #[test]
    fn a_second_corruption_restarts_the_recovery_clock() {
        let p1 = NodeId(1);
        let corrupt = TraceEvent::Fault {
            kind: FaultKind::Corrupt,
            node: Some(p1),
            peer: None,
        };
        let stabilized = TraceEvent::Stabilized { node: p1 };
        let events = [
            (100, corrupt.clone()),
            (200, TraceEvent::CycleEnd { index: 0 }),
            (300, corrupt.clone()),
            (400, TraceEvent::CycleEnd { index: 1 }),
            (500, stabilized.clone()),
            (600, TraceEvent::CycleEnd { index: 2 }),
            (700, TraceEvent::CycleEnd { index: 3 }),
            (800, TraceEvent::CycleEnd { index: 4 }),
            (900, corrupt),
            (1_000, TraceEvent::CycleEnd { index: 5 }),
            (1_100, stabilized),
        ];
        let records: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(seq, (at, event))| TraceRecord {
                seq: seq as u64,
                at,
                event,
            })
            .collect();
        let short = RecoveryEpisode {
            node: p1,
            cycles: 1,
            model_us: 200,
        };
        // Each episode runs from the node's latest corruption: the first
        // corruption is superseded, not left queued for the next probe.
        assert_eq!(recovery_episodes(3, &records), vec![short, short]);
    }
}
