//! Measurement harness for the paper's claims.
//!
//! The paper is a theory contribution with no measured tables; every
//! quantitative claim (message complexities, O(1)-cycle recovery, the δ
//! trade-off, the figures' message flows) is a function in [`claims`]
//! that returns its table as data. `tests/claims.rs` asserts each
//! claim's shape on that data and that EXPERIMENTS.md records every
//! table verbatim; the `claims` binary prints them all. This library
//! holds the common instruments:
//!
//! * [`measure_single_op`] — traffic and latency attributable to one
//!   operation on an otherwise idle system (the regime of Figures 1–3);
//! * [`recovery_cycles`] — asynchronous cycles until a protocol's local
//!   invariants hold at every node after full-state corruption
//!   (Theorems 1 and 2);
//! * [`snapshot_latency_cycles`] — snapshot latency in asynchronous
//!   cycles under a concurrent writer (Theorem 3);
//! * [`Table`] — the table type every claim renders, aligned for a
//!   terminal or as markdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;

use sss_sim::{Metrics, MetricsDelta, Sim, SimConfig};
use sss_types::{MsgKind, NodeId, Protocol, SnapshotOp};

/// Traffic and latency of a single operation on an idle system.
#[derive(Clone, Debug)]
pub struct OpCost {
    /// Non-gossip messages attributable to the operation.
    pub op_msgs: u64,
    /// Snapshot-path messages only (SNAPSHOT/ack + SAVE/ack).
    pub snap_msgs: u64,
    /// Gossip messages sent during the window (background).
    pub gossip_msgs: u64,
    /// Non-gossip bits.
    pub op_bits: u64,
    /// Operation latency in virtual microseconds.
    pub latency_us: u64,
    /// The traffic breakdown for custom queries.
    pub delta: MetricsDelta,
}

/// Runs `op` at `node` on an idle simulation and attributes traffic to it.
///
/// The simulator settles for a moment first; after completion the window
/// stays open briefly so in-flight helper traffic is counted too.
///
/// # Panics
///
/// Panics if the operation does not complete within the (generous)
/// virtual-time budget — for these protocols on an idle reliable network
/// that indicates a bug.
pub fn measure_single_op<P: Protocol>(
    cfg: SimConfig,
    mk: impl FnMut(NodeId) -> P,
    node: NodeId,
    op: SnapshotOp,
) -> OpCost {
    let mut sim = Sim::new(cfg, mk);
    sim.run_until(2_000); // settle initial rounds
    let before = sim.metrics().clone();
    let id = sim.invoke_at(sim.now(), node, op);
    assert!(
        sim.run_until_idle(200_000_000),
        "single op failed to complete"
    );
    // Let helper traffic already in flight land and be counted.
    let tail = sim.now() + 3 * sim.config().net.delay_max;
    sim.run_until(tail);
    let delta = sim.metrics().delta_since(&before);
    let rec = sim
        .history()
        .records()
        .iter()
        .find(|r| r.id == id)
        .expect("measured op recorded");
    let snap_msgs = [
        MsgKind::Snapshot,
        MsgKind::SnapshotAck,
        MsgKind::Save,
        MsgKind::SaveAck,
        MsgKind::Snap,
        MsgKind::End,
        MsgKind::RbAck,
        MsgKind::Query,
        MsgKind::QueryAck,
        MsgKind::WriteBack,
        MsgKind::WriteBackAck,
    ]
    .iter()
    .map(|&k| delta.kind(k).sent)
    .sum();
    OpCost {
        op_msgs: delta.op_messages_sent(),
        snap_msgs,
        gossip_msgs: delta.gossip_sent(),
        op_bits: bits_excluding_gossip(&delta),
        latency_us: rec.completed_at.expect("completed") - rec.invoked_at,
        delta,
    }
}

fn bits_excluding_gossip(m: &Metrics) -> u64 {
    m.kinds()
        .filter(|(k, _)| !k.is_gossip())
        .map(|(_, c)| c.bits_sent)
        .sum()
}

/// Gossip traffic per asynchronous cycle on an idle system.
pub fn gossip_per_cycle<P: Protocol>(
    cfg: SimConfig,
    mk: impl FnMut(NodeId) -> P,
    cycles: u64,
) -> (u64, u64) {
    let mut sim = Sim::new(cfg, mk);
    sim.run_for_cycles(2, 100_000_000); // settle
    let before = sim.metrics().clone();
    let c0 = sim.cycles();
    assert!(sim.run_for_cycles(cycles, 1_000_000_000));
    let elapsed = sim.cycles() - c0;
    let delta = sim.metrics().delta_since(&before);
    let per_cycle_msgs = delta.gossip_sent() / elapsed.max(1);
    let per_cycle_bits = delta.kind(MsgKind::Gossip).bits_sent / elapsed.max(1);
    (per_cycle_msgs, per_cycle_bits)
}

/// Corrupts every node (and optionally all channels), then counts the
/// asynchronous cycles until every node's local invariants hold again.
/// Returns `None` if the budget is exhausted first (i.e. no recovery —
/// expected for the non-self-stabilizing baselines).
pub fn recovery_cycles<P: Protocol>(
    cfg: SimConfig,
    mk: impl FnMut(NodeId) -> P,
    corrupt_channels: bool,
    budget_cycles: u64,
) -> Option<u64>
where
    P::Msg: sss_types::ArbitraryMsg,
{
    let n = cfg.n;
    let mut sim = Sim::new(cfg, mk);
    sim.run_for_cycles(2, 100_000_000); // a warmed-up system
    for i in 0..n {
        sim.corrupt_node_now(NodeId(i));
    }
    if corrupt_channels {
        sim.corrupt_channels_now(1.0, 1 << 20);
    }
    let start = sim.cycles();
    loop {
        if (0..n).all(|i| sim.node(NodeId(i)).local_invariants_hold()) {
            return Some(sim.cycles() - start);
        }
        if sim.cycles() - start >= budget_cycles {
            return None;
        }
        if !sim.run_for_cycles(1, 1_000_000_000) {
            return None;
        }
    }
}

/// Closed-loop back-to-back writers at every node except the
/// snapshotter; stops the run when the snapshot completes.
struct StormDriver {
    snapshotter: NodeId,
    writers: usize,
    seqs: Vec<u64>,
}

impl<P: Protocol> sss_sim::Driver<P> for StormDriver {
    fn init(&mut self, ctl: &mut sss_sim::Ctl<'_, P::Msg>) {
        let mut started = 0;
        for k in 0..ctl.n() {
            let node = NodeId(k);
            if node != self.snapshotter && started < self.writers {
                started += 1;
                self.seqs[k] += 1;
                ctl.invoke(
                    node,
                    SnapshotOp::Write(sss_workload::unique_value(node, self.seqs[k])),
                );
            }
        }
    }
    fn on_completion(
        &mut self,
        node: NodeId,
        _id: sss_types::OpId,
        resp: &sss_types::OpResponse,
        ctl: &mut sss_sim::Ctl<'_, P::Msg>,
    ) {
        match resp {
            sss_types::OpResponse::Snapshot(_) => ctl.stop(),
            sss_types::OpResponse::WriteDone => {
                let k = node.index();
                self.seqs[k] += 1;
                ctl.invoke(
                    node,
                    SnapshotOp::Write(sss_workload::unique_value(node, self.seqs[k])),
                );
            }
        }
    }
}

/// Latency of one snapshot, in asynchronous cycles, while every other
/// node writes back-to-back (a write storm). Returns
/// `Some((cycles, concurrent_writes))`, or `None` if the snapshot missed
/// the cycle budget — starvation, expected for the non-blocking
/// algorithms.
pub fn snapshot_latency_cycles<P: Protocol>(
    cfg: SimConfig,
    mk: impl FnMut(NodeId) -> P,
    snapshotter: NodeId,
    writers: usize,
    budget_cycles: u64,
) -> Option<(u64, u64)> {
    let n = cfg.n;
    let round = cfg.round_interval;
    let mut sim = Sim::new(cfg, mk);
    sim.run_for_cycles(1, 100_000_000);
    let id = sim.invoke_at(sim.now() + 1, snapshotter, SnapshotOp::Snapshot);
    let mut driver = StormDriver {
        snapshotter,
        writers,
        seqs: vec![0; n],
    };
    // A cycle spans a couple of round intervals; budget with slack.
    let horizon = sim.now() + (budget_cycles + 8) * round * 8;
    sim.run_with_driver(&mut driver, horizon);
    let rec = sim
        .history()
        .records()
        .iter()
        .find(|r| r.id == id)
        .expect("snapshot recorded");
    let (Some(done_at), _) = (rec.completed_at, ()) else {
        return None;
    };
    let invoked_at = rec.invoked_at;
    let b = sim.cycle_boundaries();
    let cycles =
        (b.partition_point(|&t| t <= done_at) - b.partition_point(|&t| t <= invoked_at)) as u64;
    if cycles > budget_cycles {
        return None; // completed, but far beyond the budget: report starvation
    }
    let writes_concurrent = sim
        .history()
        .completed()
        .filter(|r| {
            matches!(r.op, SnapshotOp::Write(_))
                && r.completed_at.unwrap() >= invoked_at
                && r.invoked_at <= done_at
        })
        .count() as u64;
    Some((cycles, writes_concurrent))
}

/// A table of string cells: printed aligned for a terminal, or rendered
/// as markdown for EXPERIMENTS.md.
#[derive(Debug)]
pub struct Table {
    caption: Option<String>,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            caption: None,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets the line [`Table::markdown`] prints above the table, which
    /// tells apart the tables of a claim that has several.
    pub fn captioned(mut self, caption: &str) -> Self {
        self.caption = Some(caption.to_string());
        self
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The cells of the column headed `header`, top to bottom.
    ///
    /// # Panics
    ///
    /// Panics if no column has that header.
    pub fn column(&self, header: &str) -> Vec<&str> {
        let k = self
            .headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("no column {header:?} in {:?}", self.headers));
        self.rows.iter().map(|r| r[k].as_str()).collect()
    }

    /// Renders the table as markdown, after its caption in italics.
    pub fn markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = match &self.caption {
            Some(c) => format!("*{c}*\n\n"),
            None => String::new(),
        };
        out.push_str(&line(&self.headers));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }
}

/// The standard node sizes experiments sweep.
pub const N_SWEEP: &[usize] = &[4, 8, 16, 32];

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::Alg1;

    #[test]
    fn single_op_measurement_is_plausible() {
        let n = 4;
        let cost = measure_single_op(
            SimConfig::small(n),
            move |id| Alg1::new(id, n),
            NodeId(0),
            SnapshotOp::Write(7),
        );
        // One write ≈ broadcast + acks ≈ 2n, certainly within [n, 4n].
        assert!(cost.op_msgs >= n as u64 && cost.op_msgs <= 4 * n as u64);
        assert!(cost.latency_us > 0);
    }

    #[test]
    fn gossip_rate_is_quadratic_in_n() {
        let (g4, _) = gossip_per_cycle(SimConfig::small(4), |id| Alg1::new(id, 4), 4);
        let (g8, _) = gossip_per_cycle(SimConfig::small(8), |id| Alg1::new(id, 8), 4);
        assert!(
            g8 > 2 * g4,
            "gossip/cycle must grow superlinearly: {g4} vs {g8}"
        );
    }

    #[test]
    fn recovery_is_fast_for_alg1() {
        let c = recovery_cycles(SimConfig::small(4), |id| Alg1::new(id, 4), true, 32)
            .expect("alg1 recovers");
        assert!(c <= 8, "O(1) cycles, got {c}");
    }
}
