//! The live ops-plane aggregator: folds the [`TraceEvent`] stream into
//! rolling per-node state a dashboard or HTTP endpoint can serve.
//!
//! The paper's self-stabilization guarantee is a *live* property —
//! convergence from arbitrary state — so the operationally interesting
//! signal is the transition into a legal execution as it happens, not
//! the post-mortem tables of E15/E16. [`ClusterMetrics::fold`]
//! consumes one [`TraceRecord`] at a time (live, [`OpsPlane`] folds each
//! record as it is emitted) and maintains:
//!
//! * per-node **health** (up/crashed) and **taint** status (corrupted,
//!   not yet re-stabilized), with corruption/stabilization counters —
//!   the live view of Thm 1/2's recovery, kept by the one
//!   [`FaultState`] machine every other reader of the fault stream uses;
//! * per-node **quorum reachability**, reconstructed observationally
//!   from the fault stream (crashes, explicit link cuts, and link-down
//!   drop evidence while a partition is active);
//! * per-node **op latency**: a rolling recent-sample summary plus
//!   time-bucketed sparkline windows, both reported as
//!   [`LatencySummary`] — the same type every offline artifact uses;
//! * **drop and fault counters** by cause, and a bounded scrolling
//!   **event feed** of faults, recoveries, and stabilization probes;
//! * optional per-shard gauges ([`ShardGauge`]) pushed in from the
//!   sharded service layer.
//!
//! Folding is a pure function of the record stream (plus the configured
//! window width), so two aggregators fed the same records agree exactly
//! — the property the golden fixture test pins.

use crate::event::{DropCause, FaultKind, TraceEvent, TraceRecord, TraceTime};
use crate::faults::FaultState;
use crate::jsonv::JsonValue;
use crate::sink::TraceSink;
use crate::stats::LatencySummary;
use crate::tracer::Tracer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Sparkline resolution: how many trailing time windows each node keeps.
pub const SPARK_WINDOWS: usize = 32;

/// Default sparkline window width in model microseconds (100 ms).
pub const DEFAULT_WINDOW_US: u64 = 100_000;

/// Recent-latency ring depth per node (the "current" summary's horizon).
const RECENT_SAMPLES: usize = 1024;

/// Per-window sample cap (bounds memory on hot nodes; the percentile
/// error from capping is irrelevant at sparkline resolution).
const WINDOW_SAMPLES: usize = 512;

/// In-flight op table cap per node: if completes go missing faster
/// than this, the table is cleared rather than growing without bound.
const INFLIGHT_CAP: usize = 4096;

/// Default bound on the scrolling fault/recovery event feed.
const FEED_CAP: usize = 64;

/// One time-bucketed latency window (sparkline cell).
#[derive(Clone, Debug)]
struct SparkWindow {
    /// Which window (at / window_us) this cell covers.
    index: u64,
    /// Completed-op latency samples in the window (capped).
    samples: Vec<u64>,
}

/// Rolling traffic and latency state for one node (its fault state is
/// [`ClusterMetrics::faults`]).
#[derive(Clone, Debug)]
pub struct NodeMetrics {
    /// Operations invoked at this node.
    pub invoked: u64,
    /// Operations completed at this node.
    pub completed: u64,
    /// Operations aborted (global reset) at this node.
    pub aborted: u64,
    /// Messages this node discarded for carrying a stale epoch tag.
    pub stale_epoch_dropped: u64,
    /// Messages this node sent (0 under [`OpsPlane`], which drops
    /// `Send` records).
    pub sent: u64,
    /// Messages delivered to this node (0 under [`OpsPlane`]).
    pub delivered: u64,
    /// Drops by [`DropCause`]: `link_down`, `loss`, `capacity`,
    /// `crashed`, counted at the sender.
    pub drops: [u64; 4],
    /// Invoke timestamps of ops still in flight, by op id.
    inflight: HashMap<u64, TraceTime>,
    /// Most recent completed-op latencies (bounded ring).
    recent: VecDeque<u64>,
    /// Trailing sparkline windows, sorted by index, oldest first.
    windows: VecDeque<SparkWindow>,
}

impl NodeMetrics {
    fn new() -> NodeMetrics {
        NodeMetrics {
            invoked: 0,
            completed: 0,
            aborted: 0,
            stale_epoch_dropped: 0,
            sent: 0,
            delivered: 0,
            drops: [0; 4],
            inflight: HashMap::new(),
            recent: VecDeque::new(),
            windows: VecDeque::new(),
        }
    }

    fn record_latency(&mut self, at: TraceTime, sample: u64, window_us: u64) {
        if self.recent.len() == RECENT_SAMPLES {
            self.recent.pop_front();
        }
        self.recent.push_back(sample);
        // A completion can be folded after a later one: the live
        // backends stamp its time before the emission lock orders it. It
        // joins its window while that window is kept and is dropped once
        // it is older than every kept window.
        let index = at / window_us.max(1);
        let slot = self.windows.iter().rposition(|w| w.index <= index);
        match slot {
            Some(k) if self.windows[k].index == index => {
                let w = &mut self.windows[k];
                if w.samples.len() < WINDOW_SAMPLES {
                    w.samples.push(sample);
                }
            }
            None if self.windows.len() == SPARK_WINDOWS => {}
            _ => {
                let pos = slot.map_or(0, |k| k + 1);
                let samples = vec![sample];
                self.windows.insert(pos, SparkWindow { index, samples });
                if self.windows.len() > SPARK_WINDOWS {
                    self.windows.pop_front();
                }
            }
        }
    }

    /// Summary of the most recent completed-op latencies (bounded ring).
    pub fn latency(&self) -> LatencySummary {
        let samples: Vec<u64> = self.recent.iter().copied().collect();
        LatencySummary::from_samples(&samples)
    }

    /// Operations currently in flight (invoked, not yet completed).
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Total drops, all causes.
    pub fn drops_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// The p50 latency of each of the last [`SPARK_WINDOWS`] time
    /// windows, oldest first, `0` for windows with no completions — the
    /// series a dashboard renders as a sparkline. The newest window
    /// always occupies the last cell, and gaps (windows with no
    /// completions) stay zero, so stalls are visible as holes.
    pub fn sparkline(&self) -> Vec<u64> {
        let mut out = vec![0u64; SPARK_WINDOWS];
        let Some(last) = self.windows.back() else {
            return out;
        };
        let newest = last.index;
        for w in &self.windows {
            let age = (newest - w.index) as usize;
            if age >= SPARK_WINDOWS {
                continue;
            }
            let slot = SPARK_WINDOWS - 1 - age;
            out[slot] = LatencySummary::from_samples(&w.samples).p50;
        }
        out
    }
}

/// One entry of the scrolling fault/recovery event feed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeedEntry {
    /// Model-microsecond timestamp.
    pub at: TraceTime,
    /// Human-readable one-liner (`crash p4`, `stabilized p2`, …).
    pub text: String,
}

/// Live gauges for one service shard, pushed into the aggregator by the
/// sharded service layer (`sss-service` converts its `ShardStats`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardGauge {
    /// Shard index.
    pub shard: usize,
    /// Requests waiting in the admission queue right now.
    pub queue_depth: u64,
    /// Requests admitted since start.
    pub accepted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed.
    pub failed: u64,
    /// Requests rejected with `Overloaded`.
    pub overloaded: u64,
    /// Requests rejected with `Unavailable`.
    pub unavailable: u64,
    /// Requests absorbed into group commits.
    pub absorbed: u64,
    /// Protocol operations actually issued by group commits.
    pub protocol_ops: u64,
    /// The shard's failure detector currently reports it down.
    pub down: bool,
    /// Completed-request latency summary.
    pub latency: LatencySummary,
}

impl ShardGauge {
    /// Group-commit collapse: requests absorbed per protocol operation
    /// issued (`1.0` before any flush).
    pub fn collapse_factor(&self) -> f64 {
        if self.protocol_ops == 0 {
            1.0
        } else {
            self.absorbed as f64 / self.protocol_ops as f64
        }
    }

    /// The gauge as a JSON object (the `/shards` endpoint's schema).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("shard".into(), JsonValue::UInt(self.shard as u64)),
            ("queue_depth".into(), JsonValue::UInt(self.queue_depth)),
            ("accepted".into(), JsonValue::UInt(self.accepted)),
            ("completed".into(), JsonValue::UInt(self.completed)),
            ("failed".into(), JsonValue::UInt(self.failed)),
            ("overloaded".into(), JsonValue::UInt(self.overloaded)),
            ("unavailable".into(), JsonValue::UInt(self.unavailable)),
            ("absorbed".into(), JsonValue::UInt(self.absorbed)),
            ("protocol_ops".into(), JsonValue::UInt(self.protocol_ops)),
            (
                "collapse_factor".into(),
                JsonValue::Num((self.collapse_factor() * 100.0).round() / 100.0),
            ),
            ("down".into(), JsonValue::Bool(self.down)),
            ("latency".into(), self.latency.to_json()),
        ])
    }
}

/// The rolling cluster state the ops plane serves.
///
/// Fold records in with [`ClusterMetrics::fold`]; read per-node state,
/// quorum reachability, and render views back out. Folding is
/// deterministic in the record stream.
#[derive(Clone, Debug)]
pub struct ClusterMetrics {
    n: usize,
    now: TraceTime,
    records: u64,
    faults: FaultState,
    /// Directed links currently believed cut: explicit `LinkDown` faults
    /// plus link-down drop evidence observed while a partition is
    /// active. Cleared by `Heal`. Sorted for deterministic rendering.
    cuts: Vec<(usize, usize)>,
    nodes: Vec<NodeMetrics>,
    feed: VecDeque<FeedEntry>,
    window_us: u64,
    shards: Vec<ShardGauge>,
}

impl ClusterMetrics {
    /// An empty aggregator for `n` nodes with the default sparkline
    /// window width ([`DEFAULT_WINDOW_US`]).
    pub fn new(n: usize) -> ClusterMetrics {
        ClusterMetrics::with_window(n, DEFAULT_WINDOW_US)
    }

    /// An empty aggregator with an explicit sparkline window width in
    /// model microseconds (the tests' narrow windows).
    fn with_window(n: usize, window_us: u64) -> ClusterMetrics {
        ClusterMetrics {
            n,
            now: 0,
            records: 0,
            faults: FaultState::new(n),
            cuts: Vec::new(),
            nodes: (0..n).map(|_| NodeMetrics::new()).collect(),
            feed: VecDeque::new(),
            window_us: window_us.max(1),
            shards: Vec::new(),
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The newest timestamp folded so far (model microseconds).
    pub fn now(&self) -> TraceTime {
        self.now
    }

    /// Records folded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Per-node fault state, the cycle count and whether a partition is
    /// active.
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Per-node traffic and latency state, indexed by node id.
    pub fn node(&self, i: usize) -> &NodeMetrics {
        &self.nodes[i]
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[NodeMetrics] {
        &self.nodes
    }

    /// The scrolling fault/recovery feed, oldest first (bounded).
    pub fn feed(&self) -> impl Iterator<Item = &FeedEntry> {
        self.feed.iter()
    }

    /// Latest shard gauges (empty unless a service pushes them).
    pub fn shards(&self) -> &[ShardGauge] {
        &self.shards
    }

    /// Replaces the shard gauges with a fresh snapshot from the service.
    pub fn set_shards(&mut self, shards: Vec<ShardGauge>) {
        self.shards = shards;
    }

    fn push_feed(&mut self, at: TraceTime, text: String) {
        if self.feed.len() == FEED_CAP {
            self.feed.pop_front();
        }
        self.feed.push_back(FeedEntry { at, text });
    }

    fn cut(&mut self, from: usize, to: usize) {
        if let Err(slot) = self.cuts.binary_search(&(from, to)) {
            self.cuts.insert(slot, (from, to));
        }
    }

    fn uncut(&mut self, from: usize, to: usize) {
        if let Ok(slot) = self.cuts.binary_search(&(from, to)) {
            self.cuts.remove(slot);
        }
    }

    /// Folds one trace record into the rolling state.
    pub fn fold(&mut self, rec: &TraceRecord) {
        self.now = self.now.max(rec.at);
        self.records += 1;
        let at = rec.at;
        match &rec.event {
            TraceEvent::OpInvoke { node, id, .. } => {
                if let Some(nm) = self.nodes.get_mut(node.index()) {
                    nm.invoked += 1;
                    if nm.inflight.len() >= INFLIGHT_CAP {
                        // Completes were shed faster than invokes; reset
                        // rather than leak.
                        nm.inflight.clear();
                    }
                    nm.inflight.insert(id.0, at);
                }
            }
            TraceEvent::OpComplete { node, id, .. } => {
                let window_us = self.window_us;
                if let Some(nm) = self.nodes.get_mut(node.index()) {
                    nm.completed += 1;
                    if let Some(t0) = nm.inflight.remove(&id.0) {
                        nm.record_latency(at, at.saturating_sub(t0), window_us);
                    }
                }
            }
            TraceEvent::OpAbort { node, id } => {
                if let Some(nm) = self.nodes.get_mut(node.index()) {
                    nm.aborted += 1;
                    nm.inflight.remove(&id.0);
                }
                self.push_feed(at, format!("abort op at p{}", node.index()));
            }
            TraceEvent::Send { from, .. } => {
                if let Some(nm) = self.nodes.get_mut(from.index()) {
                    nm.sent += 1;
                }
            }
            TraceEvent::Deliver { to, .. } => {
                if let Some(nm) = self.nodes.get_mut(to.index()) {
                    nm.delivered += 1;
                }
            }
            TraceEvent::Drop {
                from, to, cause, ..
            } => {
                let idx = match cause {
                    DropCause::LinkDown => 0,
                    DropCause::Loss => 1,
                    DropCause::Capacity => 2,
                    DropCause::Crashed => 3,
                };
                if let Some(nm) = self.nodes.get_mut(from.index()) {
                    nm.drops[idx] += 1;
                }
                // A partition's groups aren't in the trace schema; while
                // one is active, link-down drops are the observable
                // evidence of which directed links it cut.
                if self.faults.partitioned() && *cause == DropCause::LinkDown {
                    self.cut(from.index(), to.index());
                }
            }
            TraceEvent::Fault { kind, node, peer } => {
                let loc = node.map(|p| format!("p{}", p.index()));
                match (kind, node, peer) {
                    (FaultKind::Heal, ..) => self.cuts.clear(),
                    (FaultKind::LinkDown, Some(f), Some(t)) => self.cut(f.index(), t.index()),
                    (FaultKind::LinkUp, Some(f), Some(t)) => self.uncut(f.index(), t.index()),
                    _ => {}
                }
                let text = match (loc, peer) {
                    (Some(l), Some(p)) => format!("{} {l}->p{}", kind.label(), p.index()),
                    (Some(l), None) => format!("{} {l}", kind.label()),
                    (None, _) => kind.label().to_string(),
                };
                self.push_feed(at, text);
            }
            TraceEvent::Stabilized { node } => {
                self.push_feed(at, format!("stabilized p{}", node.index()));
            }
            TraceEvent::EpochChange {
                node,
                epoch,
                stale_dropped,
            } => {
                if let Some(nm) = self.nodes.get_mut(node.index()) {
                    nm.stale_epoch_dropped = nm.stale_epoch_dropped.max(*stale_dropped);
                }
                // The machine folds this record below: it still holds
                // the node's epoch from before it.
                let prior = self.faults.nodes().get(node.index());
                if prior.is_some_and(|nf| *epoch > nf.epoch) {
                    self.push_feed(at, format!("epoch {epoch} p{}", node.index()));
                }
            }
            TraceEvent::CycleEnd { .. } | TraceEvent::BatchDrain { .. } => {}
        }
        self.faults.fold(rec);
    }

    /// Folds a batch of records in order.
    pub fn fold_all<'a>(&mut self, recs: impl IntoIterator<Item = &'a TraceRecord>) {
        for rec in recs {
            self.fold(rec);
        }
    }

    /// Quorum size required for progress (a majority).
    pub fn quorum_required(&self) -> usize {
        self.n / 2 + 1
    }

    /// How many nodes `i` can currently reach (itself included):
    /// non-crashed peers whose directed link from `i` is not believed
    /// cut. `0` if `i` is itself crashed.
    pub fn reachable(&self, i: usize) -> usize {
        if self.faults.node(i).crashed {
            return 0;
        }
        1 + (0..self.n)
            .filter(|&j| {
                j != i && !self.faults.node(j).crashed && self.cuts.binary_search(&(i, j)).is_err()
            })
            .count()
    }

    /// Whether `i` currently reaches a majority.
    pub fn quorum_ok(&self, i: usize) -> bool {
        self.reachable(i) >= self.quorum_required()
    }

    /// The sparkline window width, model microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The `/node_info` document: the whole aggregator state as JSON.
    pub fn to_node_info_json(&self) -> JsonValue {
        let nodes: Vec<JsonValue> = (0..self.n)
            .map(|i| {
                let nm = &self.nodes[i];
                let nf = self.faults.node(i);
                let health = if nf.crashed { "crashed" } else { "up" };
                JsonValue::Obj(vec![
                    ("node".into(), JsonValue::UInt(i as u64)),
                    ("health".into(), JsonValue::Str(health.to_string())),
                    ("tainted".into(), JsonValue::Bool(nf.taint.is_some())),
                    ("byzantine".into(), JsonValue::Bool(nf.byzantine)),
                    ("epoch".into(), JsonValue::UInt(nf.epoch)),
                    (
                        "stale_epoch_dropped".into(),
                        JsonValue::UInt(nm.stale_epoch_dropped),
                    ),
                    ("corruptions".into(), JsonValue::UInt(nf.corruptions)),
                    ("stabilizations".into(), JsonValue::UInt(nf.stabilizations)),
                    ("restarts".into(), JsonValue::UInt(nf.restarts)),
                    (
                        "quorum".into(),
                        JsonValue::Obj(vec![
                            (
                                "reachable".into(),
                                JsonValue::UInt(self.reachable(i) as u64),
                            ),
                            (
                                "required".into(),
                                JsonValue::UInt(self.quorum_required() as u64),
                            ),
                            ("ok".into(), JsonValue::Bool(self.quorum_ok(i))),
                        ]),
                    ),
                    (
                        "ops".into(),
                        JsonValue::Obj(vec![
                            ("invoked".into(), JsonValue::UInt(nm.invoked)),
                            ("completed".into(), JsonValue::UInt(nm.completed)),
                            ("aborted".into(), JsonValue::UInt(nm.aborted)),
                            ("inflight".into(), JsonValue::UInt(nm.inflight() as u64)),
                        ]),
                    ),
                    (
                        "drops".into(),
                        JsonValue::Obj(vec![
                            ("link_down".into(), JsonValue::UInt(nm.drops[0])),
                            ("loss".into(), JsonValue::UInt(nm.drops[1])),
                            ("capacity".into(), JsonValue::UInt(nm.drops[2])),
                            ("crashed".into(), JsonValue::UInt(nm.drops[3])),
                        ]),
                    ),
                    ("latency".into(), nm.latency().to_json()),
                    (
                        "sparkline_p50_us".into(),
                        JsonValue::Arr(nm.sparkline().into_iter().map(JsonValue::UInt).collect()),
                    ),
                ])
            })
            .collect();
        let feed: Vec<JsonValue> = self
            .feed
            .iter()
            .map(|e| {
                JsonValue::Obj(vec![
                    ("at_us".into(), JsonValue::UInt(e.at)),
                    ("text".into(), JsonValue::Str(e.text.clone())),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("at_us".into(), JsonValue::UInt(self.now)),
            ("n".into(), JsonValue::UInt(self.n as u64)),
            ("records_folded".into(), JsonValue::UInt(self.records)),
            ("cycles".into(), JsonValue::UInt(self.faults.cycles())),
            (
                "partitioned".into(),
                JsonValue::Bool(self.faults.partitioned()),
            ),
            (
                "tainted_nodes".into(),
                JsonValue::UInt(self.faults.tainted_count() as u64),
            ),
            ("window_us".into(), JsonValue::UInt(self.window_us)),
            ("nodes".into(), JsonValue::Arr(nodes)),
            ("events".into(), JsonValue::Arr(feed)),
        ])
    }

    /// The `/shards` document.
    pub fn shards_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("at_us".into(), JsonValue::UInt(self.now)),
            (
                "shards".into(),
                JsonValue::Arr(self.shards.iter().map(ShardGauge::to_json).collect()),
            ),
        ])
    }

    /// The `/metrics` document: Prometheus text exposition format
    /// (version 0.0.4) over the same aggregator state.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let gauge = |buf: &mut String, name: &str, help: &str| {
            let _ = writeln!(buf, "# HELP {name} {help}");
            let _ = writeln!(buf, "# TYPE {name} gauge");
        };
        let counter = |buf: &mut String, name: &str, help: &str| {
            let _ = writeln!(buf, "# HELP {name} {help}");
            let _ = writeln!(buf, "# TYPE {name} counter");
        };

        gauge(&mut out, "sss_model_time_us", "Newest folded model time");
        let _ = writeln!(out, "sss_model_time_us {}", self.now);
        counter(&mut out, "sss_records_folded_total", "Trace records folded");
        let _ = writeln!(out, "sss_records_folded_total {}", self.records);
        counter(
            &mut out,
            "sss_cycles_total",
            "Asynchronous cycles completed",
        );
        let _ = writeln!(out, "sss_cycles_total {}", self.faults.cycles());
        gauge(
            &mut out,
            "sss_partitioned",
            "1 while a group partition is active",
        );
        let _ = writeln!(
            out,
            "sss_partitioned {}",
            u8::from(self.faults.partitioned())
        );

        // One sample per node: (name, type, help, values in id order).
        let faults = self.faults.nodes();
        let per_node: [(&str, &str, &str, Vec<u64>); 8] = [
            (
                "sss_node_up",
                "gauge",
                "1 if the node is not crashed",
                faults.iter().map(|s| u64::from(!s.crashed)).collect(),
            ),
            (
                "sss_node_tainted",
                "gauge",
                "1 while corrupted state has not re-stabilized",
                faults
                    .iter()
                    .map(|s| u64::from(s.taint.is_some()))
                    .collect(),
            ),
            (
                "sss_node_byzantine",
                "gauge",
                "1 while the fault plane rewrites this node's outgoing messages",
                faults.iter().map(|s| u64::from(s.byzantine)).collect(),
            ),
            (
                "sss_node_epoch",
                "gauge",
                "Current bounded-counter global-reset epoch",
                faults.iter().map(|s| s.epoch).collect(),
            ),
            (
                "sss_node_stale_epoch_dropped_total",
                "counter",
                "Messages discarded for carrying a stale epoch tag",
                self.nodes.iter().map(|nm| nm.stale_epoch_dropped).collect(),
            ),
            (
                "sss_node_quorum_reachable",
                "gauge",
                "Nodes reachable from this node, itself included",
                (0..self.n).map(|i| self.reachable(i) as u64).collect(),
            ),
            (
                "sss_node_stabilized_total",
                "counter",
                "Stabilization probes passed",
                faults.iter().map(|s| s.stabilizations).collect(),
            ),
            (
                "sss_node_ops_completed_total",
                "counter",
                "Operations completed",
                self.nodes.iter().map(|nm| nm.completed).collect(),
            ),
        ];
        for (name, kind, help, values) in per_node {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (i, v) in values.iter().enumerate() {
                let _ = writeln!(out, "{name}{{node=\"p{i}\"}} {v}");
            }
        }
        counter(
            &mut out,
            "sss_node_drops_total",
            "Messages dropped, by cause",
        );
        for (i, nm) in self.nodes.iter().enumerate() {
            for (ci, cause) in ["link_down", "loss", "capacity", "crashed"]
                .iter()
                .enumerate()
            {
                let _ = writeln!(
                    out,
                    "sss_node_drops_total{{node=\"p{i}\",cause=\"{cause}\"}} {}",
                    nm.drops[ci]
                );
            }
        }
        gauge(
            &mut out,
            "sss_node_op_latency_us",
            "Recent completed-op latency quantiles",
        );
        for (i, nm) in self.nodes.iter().enumerate() {
            let lat = nm.latency();
            for (q, v) in [("0.5", lat.p50), ("0.95", lat.p95), ("0.99", lat.p99)] {
                let _ = writeln!(
                    out,
                    "sss_node_op_latency_us{{node=\"p{i}\",quantile=\"{q}\"}} {v}"
                );
            }
        }
        if !self.shards.is_empty() {
            gauge(&mut out, "sss_shard_queue_depth", "Admission queue depth");
            for s in &self.shards {
                let _ = writeln!(
                    out,
                    "sss_shard_queue_depth{{shard=\"{}\"}} {}",
                    s.shard, s.queue_depth
                );
            }
            gauge(
                &mut out,
                "sss_shard_collapse_factor",
                "Requests absorbed per protocol op issued by group commit",
            );
            for s in &self.shards {
                let _ = writeln!(
                    out,
                    "sss_shard_collapse_factor{{shard=\"{}\"}} {:.2}",
                    s.shard,
                    s.collapse_factor()
                );
            }
            counter(&mut out, "sss_shard_completed_total", "Requests completed");
            for s in &self.shards {
                let _ = writeln!(
                    out,
                    "sss_shard_completed_total{{shard=\"{}\"}} {}",
                    s.shard, s.completed
                );
            }
        }
        out
    }
}

/// A turnkey live ops plane: a tracer that drops the per-message
/// `Send`/`Deliver` flood and folds every other record into a shared
/// [`ClusterMetrics`] as it is emitted.
///
/// Hand [`OpsPlane::tracer`] clones to any backend (`new_traced`,
/// `run_traced`) and read the rolling state through
/// [`OpsPlane::metrics`] / [`OpsPlane::snapshot`] — the dashboard and
/// the HTTP server both serve off the same `Arc`.
pub struct OpsPlane {
    metrics: Arc<Mutex<ClusterMetrics>>,
    tracer: Tracer,
}

/// The ops plane's sink: folds each record into the shared metrics.
struct FoldSink(Arc<Mutex<ClusterMetrics>>);

impl TraceSink for FoldSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.lock().fold(rec);
    }
}

impl OpsPlane {
    /// Starts an ops plane for `n` nodes with the default sparkline
    /// window.
    pub fn start(n: usize) -> OpsPlane {
        let metrics = Arc::new(Mutex::new(ClusterMetrics::new(n)));
        // The fold runs on the emitting thread, under the tracer's
        // emission lock, so the lock order is emission lock → metrics
        // lock. Nothing may emit while it holds the metrics lock: a
        // reader that needs other state (service gauges, say) gathers it
        // before it locks.
        let tracer = Tracer::enabled(false).with_sink(FoldSink(Arc::clone(&metrics)));
        OpsPlane { metrics, tracer }
    }

    /// A tracer handle to attach to a backend. Clones share the plane.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// The shared rolling state (lock to read or to push shard gauges).
    pub fn metrics(&self) -> Arc<Mutex<ClusterMetrics>> {
        Arc::clone(&self.metrics)
    }

    /// A point-in-time clone of the rolling state.
    pub fn snapshot(&self) -> ClusterMetrics {
        self.metrics.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_types::{MsgKind, NodeId, OpClass, OpId};

    fn rec(seq: u64, at: TraceTime, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, at, event }
    }

    fn fault(kind: FaultKind, node: Option<usize>, peer: Option<usize>) -> TraceEvent {
        TraceEvent::Fault {
            kind,
            node: node.map(NodeId),
            peer: peer.map(NodeId),
        }
    }

    #[test]
    fn health_and_taint_follow_the_fault_stream() {
        let mut m = ClusterMetrics::new(3);
        assert!(!m.faults().node(1).crashed);
        m.fold(&rec(0, 100, fault(FaultKind::Crash, Some(1), None)));
        assert!(m.faults().node(1).crashed);
        assert_eq!(m.reachable(1), 0, "a crashed node reaches nobody");
        assert_eq!(m.reachable(0), 2, "peers see the crash");
        assert!(m.quorum_ok(0), "2 of 3 is still a majority");
        m.fold(&rec(1, 200, fault(FaultKind::Resume, Some(1), None)));
        assert!(!m.faults().node(1).crashed);
        assert_eq!(m.reachable(0), 3);

        m.fold(&rec(2, 300, fault(FaultKind::Corrupt, Some(2), None)));
        assert!(m.faults().node(2).taint.is_some());
        assert_eq!(m.faults().tainted_count(), 1);
        m.fold(&rec(3, 400, TraceEvent::Stabilized { node: NodeId(2) }));
        assert!(m.faults().node(2).taint.is_none());
        assert_eq!(m.faults().node(2).stabilizations, 1);
        assert_eq!(m.faults().node(2).corruptions, 1);

        // The feed saw all four transitions.
        let texts: Vec<&str> = m.feed().map(|e| e.text.as_str()).collect();
        assert_eq!(
            texts,
            ["crash p1", "resume p1", "corrupt p2", "stabilized p2"]
        );
    }

    #[test]
    fn latency_flows_into_summary_and_sparkline() {
        let mut m = ClusterMetrics::with_window(2, 100);
        for (i, (t0, t1)) in [(0u64, 40u64), (100, 120), (210, 290)].iter().enumerate() {
            let id = OpId(i as u64);
            m.fold(&rec(
                0,
                *t0,
                TraceEvent::OpInvoke {
                    node: NodeId(0),
                    id,
                    class: OpClass::Write,
                },
            ));
            m.fold(&rec(
                1,
                *t1,
                TraceEvent::OpComplete {
                    node: NodeId(0),
                    id,
                    class: OpClass::Write,
                },
            ));
        }
        let lat = m.node(0).latency();
        assert_eq!(lat.count, 3);
        assert_eq!(lat.min, 20);
        assert_eq!(lat.max, 80);
        assert_eq!(m.node(0).inflight(), 0);
        // Three completions in windows 0, 1, 2 → the sparkline's last
        // three cells carry their p50s.
        let spark = m.node(0).sparkline();
        assert_eq!(spark.len(), SPARK_WINDOWS);
        assert_eq!(&spark[SPARK_WINDOWS - 3..], &[40, 20, 80]);
        // Node 1 saw nothing.
        assert_eq!(m.node(1).latency().count, 0);
        assert_eq!(m.node(1).sparkline(), vec![0; SPARK_WINDOWS]);
    }

    #[test]
    fn partition_reachability_is_learned_from_drop_evidence() {
        let mut m = ClusterMetrics::new(4);
        m.fold(&rec(0, 10, fault(FaultKind::Partition, None, None)));
        assert!(m.faults().partitioned());
        // Groups {0,1} | {2,3}: the trace shows link-down drops across
        // the cut as traffic hits it.
        for (f, t) in [(0usize, 2usize), (0, 3), (2, 0), (2, 1), (3, 1)] {
            m.fold(&rec(
                1,
                20,
                TraceEvent::Drop {
                    from: NodeId(f),
                    to: NodeId(t),
                    kind: MsgKind::Gossip,
                    cause: DropCause::LinkDown,
                },
            ));
        }
        assert_eq!(m.reachable(0), 2, "p0 sees {{p0, p1}}");
        assert!(!m.quorum_ok(0), "2 of 4 is not a majority");
        assert_eq!(m.quorum_required(), 3);
        // Heal restores everything.
        m.fold(&rec(2, 30, fault(FaultKind::Heal, None, None)));
        assert!(!m.faults().partitioned());
        assert_eq!(m.reachable(0), 4);
        assert!(m.quorum_ok(0));
    }

    #[test]
    fn explicit_link_faults_cut_and_restore() {
        let mut m = ClusterMetrics::new(3);
        m.fold(&rec(0, 10, fault(FaultKind::LinkDown, Some(0), Some(2))));
        assert_eq!(m.reachable(0), 2);
        assert_eq!(m.reachable(2), 3, "cuts are directed");
        m.fold(&rec(1, 20, fault(FaultKind::LinkUp, Some(0), Some(2))));
        assert_eq!(m.reachable(0), 3);
    }

    #[test]
    fn drops_count_by_cause_and_loss_does_not_imply_a_cut() {
        let mut m = ClusterMetrics::new(2);
        m.fold(&rec(
            0,
            10,
            TraceEvent::Drop {
                from: NodeId(0),
                to: NodeId(1),
                kind: MsgKind::Write,
                cause: DropCause::Loss,
            },
        ));
        assert_eq!(m.node(0).drops[1], 1);
        assert_eq!(m.node(0).drops_total(), 1);
        assert_eq!(m.reachable(0), 2, "plain loss is not link evidence");
        // Link-down drops outside a partition window don't create cuts
        // either (they could be a stale plan link; only the partition
        // window makes the inference sound).
        m.fold(&rec(
            1,
            20,
            TraceEvent::Drop {
                from: NodeId(0),
                to: NodeId(1),
                kind: MsgKind::Write,
                cause: DropCause::LinkDown,
            },
        ));
        assert_eq!(m.reachable(0), 2);
    }

    #[test]
    fn folding_is_deterministic() {
        let stream: Vec<TraceRecord> = vec![
            rec(0, 10, fault(FaultKind::Corrupt, Some(0), None)),
            rec(
                1,
                20,
                TraceEvent::OpInvoke {
                    node: NodeId(1),
                    id: OpId(7),
                    class: OpClass::Snapshot,
                },
            ),
            rec(
                2,
                60,
                TraceEvent::OpComplete {
                    node: NodeId(1),
                    id: OpId(7),
                    class: OpClass::Snapshot,
                },
            ),
            rec(3, 80, TraceEvent::Stabilized { node: NodeId(0) }),
            rec(4, 90, TraceEvent::CycleEnd { index: 4 }),
        ];
        let mut a = ClusterMetrics::new(3);
        let mut b = ClusterMetrics::new(3);
        a.fold_all(&stream);
        b.fold_all(&stream);
        assert_eq!(
            a.to_node_info_json().render(),
            b.to_node_info_json().render()
        );
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(a.faults().cycles(), 5);
    }

    #[test]
    fn node_info_json_round_trips_and_carries_the_schema() {
        let mut m = ClusterMetrics::new(2);
        m.fold(&rec(0, 10, fault(FaultKind::Crash, Some(1), None)));
        let doc = JsonValue::parse(&m.to_node_info_json().render()).unwrap();
        assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            doc.get("records_folded").and_then(JsonValue::as_u64),
            Some(1)
        );
        let nodes = doc.get("nodes").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(
            nodes[1].get("health").and_then(JsonValue::as_str),
            Some("crashed")
        );
        let q = nodes[0].get("quorum").unwrap();
        assert_eq!(q.get("reachable").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(q.get("ok").and_then(JsonValue::as_bool), Some(false));
        let events = doc.get("events").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(
            events[0].get("text").and_then(JsonValue::as_str),
            Some("crash p1")
        );
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let mut m = ClusterMetrics::new(2);
        m.fold(&rec(0, 10, fault(FaultKind::Corrupt, Some(0), None)));
        m.set_shards(vec![ShardGauge {
            shard: 0,
            queue_depth: 5,
            absorbed: 40,
            protocol_ops: 10,
            ..ShardGauge::default()
        }]);
        let text = m.to_prometheus();
        assert!(text.contains("sss_node_tainted{node=\"p0\"} 1"));
        assert!(text.contains("sss_node_up{node=\"p1\"} 1"));
        assert!(text.contains("sss_shard_queue_depth{shard=\"0\"} 5"));
        assert!(text.contains("sss_shard_collapse_factor{shard=\"0\"} 4.00"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparsable sample value in {line:?}"
            );
            assert!(parts.next().is_some());
        }
    }

    #[test]
    fn shard_gauge_collapse_and_json() {
        let g = ShardGauge {
            shard: 3,
            queue_depth: 7,
            accepted: 100,
            completed: 90,
            absorbed: 90,
            protocol_ops: 30,
            ..ShardGauge::default()
        };
        assert!((g.collapse_factor() - 3.0).abs() < 1e-9);
        let j = g.to_json();
        assert_eq!(j.get("shard").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(j.get("queue_depth").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            j.get("collapse_factor").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(ShardGauge::default().collapse_factor(), 1.0);
    }

    fn op(kind: OpClass, node: usize, id: u64, done: bool) -> TraceEvent {
        let (node, id) = (NodeId(node), OpId(id));
        if done {
            TraceEvent::OpComplete {
                node,
                id,
                class: kind,
            }
        } else {
            TraceEvent::OpInvoke {
                node,
                id,
                class: kind,
            }
        }
    }

    #[test]
    fn late_completion_joins_its_window_or_is_dropped() {
        let mut m = ClusterMetrics::with_window(1, 100);
        let w = OpClass::Write;
        // Op 2 completes in window 1 before op 1's window-0 completion
        // is folded.
        m.fold(&rec(0, 10, op(w, 0, 1, false)));
        m.fold(&rec(1, 20, op(w, 0, 2, false)));
        m.fold(&rec(2, 101, op(w, 0, 2, true)));
        m.fold(&rec(3, 99, op(w, 0, 1, true)));
        let spark = m.node(0).sparkline();
        assert_eq!(&spark[SPARK_WINDOWS - 2..], &[89, 81]);
        // Windows 2..=33 push windows 0 and 1 out of the kept 32.
        for k in 2..=33u64 {
            m.fold(&rec(k, 100 * k, op(w, 0, 10 + k, false)));
            m.fold(&rec(k, 100 * k + 5, op(w, 0, 10 + k, true)));
        }
        // A late window-1 sample is older than every kept window, and a
        // late window-5 sample joins window 5 (p50 of {1, 5} is 1).
        m.fold(&rec(40, 150, op(w, 0, 100, false)));
        m.fold(&rec(41, 504, op(w, 0, 101, false)));
        m.fold(&rec(42, 190, op(w, 0, 100, true)));
        m.fold(&rec(43, 505, op(w, 0, 101, true)));
        let spark = m.node(0).sparkline();
        let mut want = vec![5; SPARK_WINDOWS];
        want[5 - 2] = 1;
        assert_eq!(spark, want);
        assert_eq!(
            m.node(0).latency().count,
            36,
            "the summary keeps every sample"
        );
    }

    #[test]
    fn ops_plane_folds_live_emissions() {
        const THREADS: usize = 4;
        const OPS: u64 = 10_000;
        let plane = OpsPlane::start(THREADS);
        // All four start together, so their emissions contend for the
        // emission lock and interleave.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for node in 0..THREADS {
                let (tracer, start) = (plane.tracer(), &start);
                s.spawn(move || {
                    start.wait();
                    for k in 0..OPS {
                        let (id, at) = (node as u64 * OPS + k, 10 * k);
                        tracer.emit(at, op(OpClass::Write, node, id, false));
                        tracer.emit(
                            at + 1,
                            TraceEvent::Send {
                                from: NodeId(node),
                                to: NodeId((node + 1) % THREADS),
                                kind: MsgKind::Write,
                                bits: 64,
                            },
                        );
                        tracer.emit(at + 5, op(OpClass::Write, node, id, true));
                    }
                });
            }
        });
        let m = plane.snapshot();
        assert_eq!(m.records(), THREADS as u64 * OPS * 2, "sends are dropped");
        assert_eq!(m.records(), plane.tracer().emitted());
        for nm in m.nodes() {
            assert_eq!((nm.invoked, nm.completed, nm.sent), (OPS, OPS, 0));
            assert_eq!(nm.inflight(), 0);
            assert_eq!(nm.latency().p50, 5);
        }
    }
}
