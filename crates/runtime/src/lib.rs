//! An in-process deployment runtime for the snapshot protocols.
//!
//! Where `sss-sim` runs protocols deterministically under virtual time,
//! this crate runs the *same* [`Protocol`] state machines under real
//! concurrency and wall-clock time, with a blocking client API — the way
//! an application would actually embed the library:
//!
//! ```no_run
//! use sss_runtime::{Cluster, ClusterConfig};
//! use sss_core::Alg1;
//! use sss_types::NodeId;
//!
//! let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
//! let client = cluster.client(NodeId(0));
//! client.write(42).unwrap();
//! let view = cluster.client(NodeId(1)).snapshot().unwrap();
//! assert_eq!(view.value_of(NodeId(0)), Some(42));
//! cluster.shutdown();
//! ```
//!
//! A node is a passive **engine**: its protocol instance and step buffers
//! sit behind one mutex, and whichever thread delivers to the node runs
//! its step — a client's `write` on three nodes goes home node → peers →
//! acknowledgements → completion on the calling thread, with no thread
//! hand-off and no timer on the way (DESIGN.md §8.1 has the driver rules
//! and the lock discipline). The cluster's one background thread is the
//! self-stabilization heartbeat: it fires the `do forever` iteration of
//! every node nobody else drove past its round deadline (gossip,
//! retransmission, stale-information clean-up) and picks up work a
//! caller's step budget left behind. Inter-node links are two-lane
//! inboxes ([`NodeInbox`]: a control lane for client invocations, a data
//! lane for protocol traffic) whose loss / duplication / partition
//! decisions come from the shared fault plane ([`sss_net::LinkModel`] —
//! the same model the simulator uses, so a [`FaultPlan`] means the same
//! thing on both backends, modulo virtual vs. wall-clock time; the
//! model's *delay* verdicts are ignored here because real thread
//! scheduling already provides asynchrony). Each step drains the whole
//! data backlog (bounded by [`BatchPolicy::max_batch`]) and applies it as
//! **one protocol step**, coalescing consecutive same-destination replies
//! before they travel (see [`sss_types::Outbox`]). The runtime records a
//! [`History`] with microsecond timestamps, so the linearizability
//! checker applies to real concurrent executions too.
//!
//! [`SocketCluster`] is the other deployment shape: one thread and one
//! UDP socket per node, parked in the kernel's receive call.

// `deny` rather than `forbid`: the socket backend's `mmsg` module opts
// back in for its hand-declared `sendmmsg`/`recvmmsg` FFI (the workspace
// vendors no `libc`); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_net::{ByzState, DropReason, LinkConfig, LinkModel, LinkVerdict, MODEL_ROUND_US};
use sss_types::{
    ByzBehavior, Effects, History, NodeId, OpClass, OpId, OpResponse, Outbox, ProtoMsg, Protocol,
    SnapshotOp, SnapshotView, Value,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

mod backend;
mod inbox;
mod mmsg;
mod socket;
pub use backend::ThreadBackend;
pub use inbox::{CtlMsg, InboxClosed, InvokeRejected, NodeInbox};
pub use mmsg::SyscallMode;
pub use socket::{SocketBackend, SocketCluster, SocketConfig};
// Re-export the shared fault plane and the trace plane so runtime users
// need only one import.
pub use sss_net::{Backend, BatchPolicy, FaultEvent, FaultPlan, RunReport, RunStats, WorkloadSpec};
pub use sss_obs::{
    DropCause, FaultKind, MemorySink, SubscriberSink, TraceBuffer, TraceEvent, TraceRecord, Tracer,
};

/// The `ν` (encoded object size, bits) used for trace-event message
/// sizing on this backend — matching the simulator's default config so
/// the two backends' `Send` events report identical bit counts.
const TRACE_NU_BITS: u32 = 64;

/// Errors returned by the blocking client API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The operation did not complete within the client timeout and the
    /// failure detector has no indictment — the slow path, not the
    /// expected one ([`ClusterError::Unavailable`] fires first whenever
    /// a majority is actually unreachable).
    Timeout,
    /// The contacted node cannot currently assemble a majority — it is
    /// crashed, or too many of its peers have gone silent — so the
    /// operation was failed fast with the detector's evidence instead of
    /// stalling out the full `op_timeout`.
    Unavailable(Unavailable),
    /// The operation was aborted by a bounded-counter global reset while
    /// the node was at `epoch`. **The outcome is unknown**: the paper's
    /// §5 criterion allows aborting in-flight operations during the
    /// seldom wrap periods, and an aborted write may or may not have
    /// reached a majority before the reset discarded the in-flight
    /// quorum state. Unlike [`ClusterError::Timeout`], blind re-issue is
    /// NOT safe for writes — re-read (snapshot) first and only re-write
    /// if the value is absent, as [`RetryingClient::write`] does.
    Aborted {
        /// The node's reset epoch when the abort fired.
        epoch: u64,
    },
    /// The cluster has shut down.
    Shutdown,
}

/// The failure detector's evidence behind a
/// [`ClusterError::Unavailable`]: who was suspected, how many peers
/// were still reachable, and how long the quietest suspect had been
/// silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unavailable {
    /// The node the client contacted.
    pub node: NodeId,
    /// Whether the contacted node itself is crashed (ops invoked on a
    /// crashed node are swallowed until it resumes).
    pub node_crashed: bool,
    /// Peers (incl. the node itself when alive) heard from within the
    /// suspicion window.
    pub reachable: usize,
    /// The majority threshold the protocols need (`n/2 + 1`).
    pub required: usize,
    /// Peers that have been silent past `suspect_after`.
    pub suspected: Vec<NodeId>,
    /// How long the *least*-silent suspect has been quiet — a lower
    /// bound on how stale the node's view of the quorum is.
    pub silent_for: Duration,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Timeout => write!(f, "operation timed out"),
            ClusterError::Unavailable(ev) => {
                if ev.node_crashed {
                    write!(f, "{:?} is crashed", ev.node)?;
                } else {
                    write!(
                        f,
                        "{:?} reaches {}/{} needed for a majority",
                        ev.node, ev.reachable, ev.required
                    )?;
                }
                write!(
                    f,
                    " (suspects {:?}, silent ≥ {:?})",
                    ev.suspected, ev.silent_for
                )
            }
            ClusterError::Aborted { epoch } => {
                write!(f, "operation aborted by a global reset (epoch {epoch})")
            }
            ClusterError::Shutdown => write!(f, "cluster has shut down"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Errors returned by the fire-and-forget [`Client::submit`] path.
///
/// Historically `submit` could only fail on shutdown: the invoke lane
/// was unbounded, so a saturated node silently queued (and an open-loop
/// injector silently grew the node's memory) instead of pushing back.
/// With the bounded lane ([`ClusterConfig::invoke_queue`]) saturation
/// surfaces as [`SubmitError::Full`], which admission-control layers —
/// the sharded service front end — turn into an `Overloaded` fail-fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The node's invoke backlog is at [`ClusterConfig::invoke_queue`]
    /// capacity; shed the operation or retry later.
    Full,
    /// The cluster has shut down.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "node invoke queue is full"),
            SubmitError::Shutdown => write!(f, "cluster has shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Configuration of a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: usize,
    /// Interval between `do forever` iterations.
    pub round_interval: Duration,
    /// Client operation timeout.
    pub op_timeout: Duration,
    /// The channel model — the shared fault-plane [`LinkConfig`]. Delay
    /// bounds are ignored on this backend (thread scheduling supplies
    /// the asynchrony); loss, duplication and capacity apply.
    pub net: LinkConfig,
    /// RNG seed for the link model's per-link coin streams.
    pub seed: u64,
    /// How long a peer may stay silent before the failure detector
    /// suspects it. When the contacted node cannot reach a majority of
    /// unsuspected peers, client ops fail fast with
    /// [`ClusterError::Unavailable`] instead of stalling out the full
    /// [`ClusterConfig::op_timeout`]. Peers a node has *never* heard
    /// from are not suspected (idle startup is not evidence of failure).
    pub suspect_after: Duration,
    /// Inbox-drain batching and per-link coalescing policy (see
    /// [`BatchPolicy`]); [`BatchPolicy::unbatched`] reproduces the
    /// pre-batching one-message-per-step delivery for ablations.
    pub batch: BatchPolicy,
    /// Admission bound on each node's queued-but-undrained client
    /// invocations, enforced by the fire-and-forget [`Client::submit`]
    /// path (`0` = unbounded). Blocking clients are closed-loop — at
    /// most one outstanding op each — so only open-loop injection can
    /// saturate the lane; when it does, `submit` returns
    /// [`SubmitError::Full`] instead of queueing without bound.
    pub invoke_queue: usize,
}

impl ClusterConfig {
    /// A reliable-link configuration for `n` nodes with a 2 ms round
    /// interval, a 5 s client timeout, and a 100 ms suspicion window
    /// (≈ 50 round intervals — generous enough for loaded CI machines,
    /// still 50× faster than waiting out the op timeout).
    pub fn new(n: usize) -> Self {
        ClusterConfig {
            n,
            round_interval: Duration::from_millis(2),
            op_timeout: Duration::from_secs(5),
            net: LinkConfig::reliable(),
            seed: 0xBEEF,
            suspect_after: Duration::from_millis(100),
            batch: BatchPolicy::default(),
            invoke_queue: 8192,
        }
    }

    /// Enables message loss/duplication (builder-style).
    pub fn with_chaos(mut self, loss: f64, dup: f64) -> Self {
        self.net.loss = loss;
        self.net.dup = dup;
        self
    }

    /// Overrides the batching/coalescing policy (builder-style).
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Converts a fault-plan model time (model µs) to the wall-clock
    /// offset this cluster replays it at: plan times are calibrated
    /// against [`MODEL_ROUND_US`]-µs rounds, so they scale by
    /// `round_interval / MODEL_ROUND_US`.
    pub fn wall_offset(&self, model_t: u64) -> Duration {
        Duration::from_micros(self.round_interval.as_micros() as u64 * model_t / MODEL_ROUND_US)
    }
}

/// The state behind the runtime's asynchronous-cycle proxy (see
/// [`Shared::on_traced_round`]).
struct CycleProxy {
    /// Per-node round counts at the start of the current cycle.
    baseline: Vec<u64>,
    /// Index of the cycle currently accumulating.
    index: u64,
}

struct Shared {
    history: Mutex<History>,
    started: Instant,
    next_op: AtomicU64,
    /// The shared fault-plane link model: every inter-node send asks it
    /// for a loss/duplication/partition verdict, exactly as in the
    /// simulator.
    links: Mutex<LinkModel>,
    /// Messages dropped by the link model or by crashed receivers.
    dropped: AtomicU64,
    /// The trace plane ([`Tracer::off`] unless the cluster was built with
    /// [`Cluster::new_traced`]).
    tracer: Tracer,
    /// The round interval in wall µs, for scaling wall time to model
    /// time in trace timestamps.
    round_us: u64,
    /// Per-node completed `do forever` iterations (cycle proxy input).
    round_counts: Vec<AtomicU64>,
    /// Per-node crashed flags: excluded from the cycle proxy (mirroring
    /// the simulator's live-set semantics) and treated as unavailable by
    /// the failure detector.
    crashed: Vec<AtomicBool>,
    cycle: Mutex<CycleProxy>,
    /// Failure-detector heartbeat matrix: `last_heard[me * n + from]` is
    /// the wall-µs timestamp (≥ 1) at which `me` last received any
    /// message from `from`; 0 means never. Written by whoever steps `me` on
    /// every delivery, read by clients deciding whether a majority is
    /// reachable.
    last_heard: Vec<AtomicU64>,
    /// [`ClusterConfig::suspect_after`] in µs.
    suspect_us: u64,
    /// Whether the configured link model is a no-op for non-partitioned
    /// links (no loss, no duplication, unbounded capacity). When this
    /// holds *and* no link is currently cut ([`Shared::links_dirty`]),
    /// senders skip the link-model lock entirely; the only thing skipped
    /// is the delay coin this backend ignores anyway, so the fast path
    /// is observationally equivalent.
    net_transparent_base: bool,
    /// Set whenever a link may have been cut (set-link-down or any
    /// partition), cleared only by a full heal — conservative, so the
    /// fast path never skips a LinkDown verdict.
    links_dirty: AtomicBool,
    /// Whether receivers must release link capacity on delivery
    /// (`net.capacity > 0`; static, so the batched release pass can be
    /// skipped entirely on unbounded configs).
    cap_release: bool,
    /// Data-plane messages applied by node protocol steps.
    delivered: AtomicU64,
    /// Non-empty data batches applied ([`Shared::delivered`] ÷ this =
    /// mean batch size).
    batches: AtomicU64,
    /// Outgoing messages absorbed into an earlier wire message by
    /// per-link coalescing.
    coalesced: AtomicU64,
    /// UDP send syscalls issued (socket backend only; 0 in-process).
    send_syscalls: AtomicU64,
    /// UDP receive syscalls issued (socket backend only; 0 in-process).
    recv_syscalls: AtomicU64,
    /// Wire frames encoded and handed to the kernel (socket backend).
    frames_sent: AtomicU64,
    /// Wire frames received and decoded successfully (socket backend).
    frames_recv: AtomicU64,
    /// Received frames rejected by the codec (checksum/format); each is
    /// also counted in [`Shared::dropped`] — a mangled frame *is* a lost
    /// message to a self-stabilizing protocol.
    frames_rejected: AtomicU64,
    /// Per-node stale-epoch drop counters, published by the node's steps
    /// from `ProtocolStats::stale_epoch_dropped` once per round (always
    /// 0 for protocols without an epoch envelope).
    stale_epoch_dropped: Vec<AtomicU64>,
    /// Reset-aborted operations the clients have not yet observed:
    /// `OpId.0 → epoch at abort`. Lets [`Client::run`] distinguish a
    /// dropped reply channel caused by a global reset
    /// ([`ClusterError::Aborted`]) from a plain [`ClusterError::Timeout`].
    aborted_ops: Mutex<HashMap<u64, u64>>,
}

impl Shared {
    /// The shared state both the in-process cluster and the socket
    /// cluster hang off one `Arc`: history, fault plane, trace plane,
    /// failure detector, and the message-plane counters.
    fn new(cfg: &ClusterConfig, tracer: Tracer) -> Self {
        let n = cfg.n;
        Shared {
            history: Mutex::new(History::new()),
            started: Instant::now(),
            next_op: AtomicU64::new(0),
            links: Mutex::new(LinkModel::new(n, cfg.net, cfg.seed ^ 0x11_4e7)),
            dropped: AtomicU64::new(0),
            tracer,
            round_us: (cfg.round_interval.as_micros() as u64).max(1),
            round_counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            cycle: Mutex::new(CycleProxy {
                baseline: vec![0; n],
                index: 0,
            }),
            last_heard: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            suspect_us: (cfg.suspect_after.as_micros() as u64).max(1),
            net_transparent_base: cfg.net.loss == 0.0
                && cfg.net.dup == 0.0
                && cfg.net.capacity == 0,
            links_dirty: AtomicBool::new(false),
            cap_release: cfg.net.capacity > 0,
            delivered: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            send_syscalls: AtomicU64::new(0),
            recv_syscalls: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            frames_recv: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            stale_epoch_dropped: (0..n).map(|_| AtomicU64::new(0)).collect(),
            aborted_ops: Mutex::new(HashMap::new()),
        }
    }

    /// The message-plane counter snapshot (see [`Cluster::net_stats`]).
    fn net_stats(&self) -> NetStats {
        NetStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            rounds: self
                .round_counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
            send_syscalls: self.send_syscalls.load(Ordering::Relaxed),
            recv_syscalls: self.recv_syscalls.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            stale_epoch_dropped: self
                .stale_epoch_dropped
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
        }
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Wall time scaled to model microseconds: plan times are calibrated
    /// against [`MODEL_ROUND_US`]-µs rounds, so a cluster running
    /// `round_us`-µs rounds divides elapsed wall time by
    /// `round_us / MODEL_ROUND_US`. Trace timestamps from both backends
    /// thereby share one axis.
    fn model_now(&self) -> u64 {
        self.now_us() * MODEL_ROUND_US / self.round_us
    }

    /// Advances the asynchronous-cycle proxy after `node` completed a
    /// `do forever` iteration (the caller has already incremented
    /// `round_counts`). The wall-clock backend cannot observe
    /// global in-flight message counts the way the simulator's
    /// `CycleTracker` does, so it uses the rounds-only over-approximation:
    /// a cycle ends once every non-crashed node has completed an
    /// iteration since the previous boundary. With round intervals far
    /// exceeding delivery latency (the deployment regime), this tracks
    /// the paper's cycle definition to within a constant factor.
    fn on_traced_round(&self, _node: NodeId) {
        let mut cy = self.cycle.lock();
        let complete = (0..self.round_counts.len()).all(|i| {
            self.crashed[i].load(Ordering::Relaxed)
                || self.round_counts[i].load(Ordering::Relaxed) > cy.baseline[i]
        });
        if complete {
            let index = cy.index;
            cy.index += 1;
            for (i, b) in cy.baseline.iter_mut().enumerate() {
                *b = self.round_counts[i].load(Ordering::Relaxed);
            }
            self.tracer
                .emit(self.model_now(), TraceEvent::CycleEnd { index });
        }
    }

    /// Records that `me` just received a message from `from` (the
    /// failure detector's heartbeat source; every protocol message
    /// counts, so no extra traffic is needed).
    fn heard(&self, me: NodeId, from: NodeId) {
        let n = self.crashed.len();
        self.last_heard[me.index() * n + from.index()]
            .store(self.now_us().max(1), Ordering::Relaxed);
    }

    /// The failure detector's verdict for an op contacted at `node`:
    /// `Some(evidence)` when the node is crashed or cannot currently
    /// reach a majority (too many peers silent past the suspicion
    /// window), `None` when the op still has a quorum's worth of hope.
    fn unavailable(&self, node: NodeId) -> Option<Unavailable> {
        let n = self.crashed.len();
        let required = n / 2 + 1;
        let node_crashed = self.crashed[node.index()].load(Ordering::Relaxed);
        let now = self.now_us();
        let mut reachable = usize::from(!node_crashed); // the node itself
        let mut suspected = Vec::new();
        let mut min_silence = u64::MAX;
        for peer in 0..n {
            if peer == node.index() {
                continue;
            }
            let last = self.last_heard[node.index() * n + peer].load(Ordering::Relaxed);
            // Never-heard peers are *not* suspected: silence before the
            // first contact is indistinguishable from an idle start.
            if last == 0 || now.saturating_sub(last) <= self.suspect_us {
                reachable += 1;
            } else {
                suspected.push(NodeId(peer));
                min_silence = min_silence.min(now - last);
            }
        }
        if !node_crashed && reachable >= required {
            return None;
        }
        Some(Unavailable {
            node,
            node_crashed,
            reachable,
            required,
            suspected,
            silent_for: Duration::from_micros(if min_silence == u64::MAX {
                0
            } else {
                min_silence
            }),
        })
    }
}

/// Message-plane counters of the batched runtime (see
/// [`Cluster::net_stats`]). Together with completed-operation counts,
/// these are the benchmark's event accounting: one event per `do
/// forever` round and per delivered message, with coalesced messages
/// reported separately (they were absorbed before travelling).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Data-plane messages applied by protocol steps.
    pub delivered: u64,
    /// Outgoing messages absorbed into an earlier wire message by
    /// per-link coalescing (never travelled, state-equivalently).
    pub coalesced: u64,
    /// Non-empty data batches applied (`delivered / batches` = mean
    /// batch size).
    pub batches: u64,
    /// Completed `do forever` iterations across all nodes.
    pub rounds: u64,
    /// UDP send syscalls issued. Always 0 on the in-process backends;
    /// on the socket backend, `frames_sent / send_syscalls` is the send
    /// batching factor the `e18` ablation gates on.
    pub send_syscalls: u64,
    /// UDP receive syscalls issued (0 in-process).
    pub recv_syscalls: u64,
    /// Wire frames encoded and handed to the kernel (0 in-process).
    pub frames_sent: u64,
    /// Wire frames received and decoded successfully (0 in-process).
    pub frames_recv: u64,
    /// Received frames rejected by the codec (checksum or format); also
    /// counted as drops, mirroring how the fault plane's corruption
    /// surfaces on the in-process backends.
    pub frames_rejected: u64,
    /// Inner protocol messages discarded by the bounded-counter epoch
    /// envelope (stale or foreign epoch), summed across nodes. Always 0
    /// for protocols without the envelope; a non-zero value under a
    /// Byzantine replay campaign is the visible footprint of the §5
    /// defense working.
    pub stale_epoch_dropped: u64,
}

impl NetStats {
    /// The counters as a JSON object — one render path shared by the
    /// ops-plane HTTP endpoint and the bench result emitters, so the
    /// field names stay in lock-step everywhere the stats appear.
    pub fn to_json(&self) -> sss_obs::JsonValue {
        use sss_obs::JsonValue as J;
        J::Obj(vec![
            ("delivered".into(), J::UInt(self.delivered)),
            ("coalesced".into(), J::UInt(self.coalesced)),
            ("batches".into(), J::UInt(self.batches)),
            ("rounds".into(), J::UInt(self.rounds)),
            ("send_syscalls".into(), J::UInt(self.send_syscalls)),
            ("recv_syscalls".into(), J::UInt(self.recv_syscalls)),
            ("frames_sent".into(), J::UInt(self.frames_sent)),
            ("frames_recv".into(), J::UInt(self.frames_recv)),
            ("frames_rejected".into(), J::UInt(self.frames_rejected)),
            (
                "stale_epoch_dropped".into(),
                J::UInt(self.stale_epoch_dropped),
            ),
        ])
    }
}

/// A running cluster of protocol nodes: `n` passive engines (see
/// `Engines`) driven by whoever delivers to them, plus one heartbeat
/// thread.
pub struct Cluster<P: Protocol> {
    core: Arc<Engines<P>>,
    /// The heartbeat thread (`None` once halted).
    heartbeat: Option<JoinHandle<()>>,
}

impl<P: Protocol + 'static> Cluster<P> {
    /// Builds `cfg.n` node engines, each protocol instance from `mk`, and
    /// starts the cluster's one heartbeat thread.
    pub fn new(cfg: ClusterConfig, mk: impl FnMut(NodeId) -> P) -> Self {
        Self::new_traced(cfg, Tracer::off(), mk)
    }

    /// [`Cluster::new`] with the trace plane attached: every engine step
    /// and client emits structured [`TraceEvent`]s through `tracer`,
    /// timestamped in model microseconds (wall time scaled by the round
    /// interval, so traces line up with simulator traces of the same
    /// plan). With [`Tracer::off`] this is exactly [`Cluster::new`].
    pub fn new_traced(cfg: ClusterConfig, tracer: Tracer, mut mk: impl FnMut(NodeId) -> P) -> Self {
        let n = cfg.n;
        let shared = Arc::new(Shared::new(&cfg, tracer));
        let first_round = shared.now_us() + shared.round_us;
        let slots = (0..n)
            .map(|i| {
                let proto = mk(NodeId(i));
                assert_eq!(proto.n(), n, "protocol instance disagrees about n");
                Slot {
                    inbox: Arc::new(NodeInbox::new()),
                    engine: Mutex::new(Some(Node::new(proto, &cfg))),
                    next_round: AtomicU64::new(first_round),
                }
            })
            .collect();
        let core = Arc::new(Engines {
            slots,
            shared,
            cfg,
            stop: AtomicBool::new(false),
            heartbeat: OnceLock::new(),
        });
        let core2 = Arc::clone(&core);
        let heartbeat = std::thread::Builder::new()
            .name("sss-heartbeat".into())
            .spawn(move || core2.heartbeat_loop())
            .expect("spawn heartbeat thread");
        core.heartbeat
            .set(heartbeat.thread().clone())
            .expect("heartbeat handle is set once");
        Cluster {
            core,
            heartbeat: Some(heartbeat),
        }
    }

    /// A blocking client bound to `node`.
    pub fn client(&self, node: NodeId) -> Client<P> {
        let core = Arc::clone(&self.core);
        Client {
            inbox: Arc::clone(&self.core.slots[node.index()].inbox),
            node,
            shared: Arc::clone(&self.core.shared),
            timeout: self.core.cfg.op_timeout,
            invoke_cap: self.core.cfg.invoke_queue,
            nudge: Arc::new(move || core.drive(node.index())),
            patience: COMPLETION_PATIENCE,
        }
    }

    /// Applies a fault-plane control message to `node` **before
    /// returning**: the engine lock is taken blocking, so "inject, then
    /// assert" needs no settle time. Having held the lock, this thread
    /// owes the node a step for any push that lost its `try_lock`
    /// meanwhile.
    fn control(&self, node: NodeId, c: CtlMsg) {
        if let Some(engine) = self.core.slots[node.index()].engine.lock().as_mut() {
            engine.control(node, c, &self.core);
        }
        self.core.drive(node.index());
    }

    /// Pauses `node` (crash). Messages keep arriving and are lost.
    pub fn crash(&self, node: NodeId) {
        self.control(node, CtlMsg::Crash);
    }

    /// Resumes a crashed `node` with its state intact.
    pub fn resume(&self, node: NodeId) {
        self.control(node, CtlMsg::Resume);
    }

    /// Injects a transient fault at `node`.
    pub fn corrupt(&self, node: NodeId, seed: u64) {
        self.control(node, CtlMsg::Corrupt(seed));
    }

    /// Detectably restarts `node`: all its variables are re-initialized
    /// (also clears a crash).
    pub fn restart(&self, node: NodeId) {
        self.control(node, CtlMsg::Restart);
    }

    /// Puts `node` into Byzantine `behavior`: every message it sends
    /// from now on is rewritten through the shared sender-side hook
    /// ([`sss_net::ByzState`]), exactly as the simulator rewrites it for
    /// the same plan. [`ByzBehavior::Honest`] clears the mode.
    pub fn set_byzantine(&self, node: NodeId, behavior: ByzBehavior) {
        self.control(node, CtlMsg::Byzantine(behavior));
    }

    /// Returns once every non-crashed node has completed `k` more `do
    /// forever` iterations than it had on entry — the counted
    /// replacement for "sleep a few rounds" wherever gossip must have
    /// gone round (a populated heard-matrix, a healed corruption). An
    /// iteration is counted before its messages are flushed, so only the
    /// first `k − 1` awaited iterations are known to have sent theirs.
    ///
    /// # Panics
    ///
    /// If the rounds have not happened 10 s past their schedule: some
    /// driver is stuck inside an engine, and hanging would hide it.
    pub fn await_rounds(&self, k: u32) {
        let shared = &self.core.shared;
        let count = |i: usize| shared.round_counts[i].load(Ordering::Relaxed);
        let target: Vec<u64> = (0..self.core.cfg.n)
            .map(|i| count(i) + u64::from(k))
            .collect();
        let guard = Instant::now() + self.core.cfg.round_interval * k + AWAIT_ROUNDS_GUARD;
        while (0..target.len())
            .any(|i| !shared.crashed[i].load(Ordering::Relaxed) && count(i) < target[i])
        {
            assert!(Instant::now() < guard, "await_rounds({k}): rounds stalled");
            sleep_until(shared.started + Duration::from_micros(self.core.next_round()));
            // Past the deadline any driver fires the round — this one too,
            // rather than spinning until the heartbeat thread is scheduled.
            (0..target.len()).for_each(|i| self.core.drive(i));
        }
    }

    /// The failure detector's current verdict for `node`:
    /// `Some(evidence)` when the node is crashed or cannot presently
    /// reach a majority of unsuspected peers, `None` when it can. This
    /// is the same check client ops consult before failing fast with
    /// [`ClusterError::Unavailable`]; service layers poll it to decide
    /// whether to shed a shard's traffic at admission instead of
    /// queueing ops that are doomed to fail.
    pub fn availability(&self, node: NodeId) -> Option<Unavailable> {
        self.core.shared.unavailable(node)
    }

    /// Cuts or restores the directed link `from → to`; while down, every
    /// message on it is dropped (the protocols' retransmission masks
    /// transient cuts; a full partition blocks minority sides).
    pub fn set_link(&self, from: NodeId, to: NodeId, up: bool) {
        self.core.shared.links.lock().set_link(from, to, up);
        if !up {
            // Restoring one link does NOT clear the flag (another may
            // still be down); only a full heal re-enables the fast path.
            self.core.shared.links_dirty.store(true, Ordering::Relaxed);
        }
        if self.core.shared.tracer.is_on() {
            let kind = if up {
                FaultKind::LinkUp
            } else {
                FaultKind::LinkDown
            };
            self.core.shared.tracer.emit(
                self.core.shared.model_now(),
                TraceEvent::Fault {
                    kind,
                    node: Some(from),
                    peer: Some(to),
                },
            );
        }
    }

    /// Partitions the cluster into `groups` using the shared fault-plane
    /// semantics ([`sss_net::cut_matrix`]): links between different
    /// groups are cut in both directions, links within a group restored,
    /// ungrouped nodes isolated. Accepts any group representation
    /// (`&[&[NodeId]]` literals, the [`FaultPlan`]'s `&[Vec<NodeId>]`,
    /// …) through one implementation.
    pub fn partition<G: AsRef<[NodeId]>>(&self, groups: &[G]) {
        let groups: Vec<Vec<NodeId>> = groups.iter().map(|g| g.as_ref().to_vec()).collect();
        self.core.shared.links.lock().partition(&groups);
        self.core.shared.links_dirty.store(true, Ordering::Relaxed);
        if self.core.shared.tracer.is_on() {
            self.core.shared.tracer.emit(
                self.core.shared.model_now(),
                TraceEvent::Fault {
                    kind: FaultKind::Partition,
                    node: None,
                    peer: None,
                },
            );
        }
    }

    /// Restores every link.
    pub fn heal_partition(&self) {
        self.core.shared.links.lock().heal();
        self.core.shared.links_dirty.store(false, Ordering::Relaxed);
        if self.core.shared.tracer.is_on() {
            self.core.shared.tracer.emit(
                self.core.shared.model_now(),
                TraceEvent::Fault {
                    kind: FaultKind::Heal,
                    node: None,
                    peer: None,
                },
            );
        }
    }

    /// Replays a shared fault plan against this cluster, blocking until
    /// the last event has fired. Model times scale onto the wall clock
    /// via [`ClusterConfig::wall_offset`]; corruptions draw their seed
    /// from the plan ([`FaultPlan::corruption_seed`]), so the post-fault
    /// state matches a simulator replay of the same plan.
    ///
    /// # Panics
    ///
    /// If the plan is malformed for this cluster size
    /// (`FaultPlan::validate`).
    pub fn apply_plan(&self, plan: &FaultPlan) {
        if let Err(e) = plan.validate(self.core.cfg.n) {
            panic!("malformed fault plan: {e}");
        }
        let start = Instant::now();
        for (t, ev) in plan.sorted_events() {
            // Every event's deadline is anchored to the plan's start, not
            // to the previous event, so sleep overshoot cannot accumulate
            // across a long plan (`sleep_until` re-arms after early
            // wakeups and is a no-op for deadlines already past).
            sleep_until(start + self.core.cfg.wall_offset(t));
            match ev {
                FaultEvent::Crash(node) => self.crash(*node),
                FaultEvent::Resume(node) => self.resume(*node),
                FaultEvent::Restart(node) => self.restart(*node),
                FaultEvent::Corrupt(node) => self.corrupt(*node, plan.corruption_seed(t, *node)),
                FaultEvent::Partition(groups) => self.partition(groups),
                FaultEvent::Heal => self.heal_partition(),
                FaultEvent::SetLink { from, to, up } => self.set_link(*from, *to, *up),
                FaultEvent::Byzantine { node, behavior } => self.set_byzantine(*node, *behavior),
            }
        }
    }

    /// A copy of the recorded client-boundary history.
    pub fn history(&self) -> History {
        self.core.shared.history.lock().clone()
    }

    /// Messages dropped so far by the link model (loss, capacity,
    /// partition) or by crashed receivers.
    pub fn messages_dropped(&self) -> u64 {
        self.core.shared.dropped.load(Ordering::Relaxed)
    }

    /// Message-plane counters: deliveries, coalesced sends, applied
    /// batches, and completed rounds across all nodes.
    pub fn net_stats(&self) -> NetStats {
        self.core.shared.net_stats()
    }

    /// The configuration this cluster runs with.
    pub fn config(&self) -> &ClusterConfig {
        &self.core.cfg
    }

    /// The trace plane this cluster emits through ([`Tracer::off`]
    /// unless built with [`Cluster::new_traced`]).
    pub fn tracer(&self) -> &Tracer {
        &self.core.shared.tracer
    }

    /// Stops the heartbeat thread and returns the nodes' final protocol
    /// states.
    pub fn shutdown(mut self) -> Vec<P> {
        self.halt().expect("heartbeat thread panicked")
    }
}

impl<P: Protocol> Cluster<P> {
    /// Joins the heartbeat thread, closes every inbox and takes the node
    /// engines out (dropping their reply senders, so a client still
    /// blocked on one sees the disconnect). Idempotent: a second call
    /// finds nothing left to take.
    fn halt(&mut self) -> std::thread::Result<Vec<P>> {
        self.core.stop.store(true, Ordering::SeqCst);
        let joined = self.heartbeat.take().map_or(Ok(()), |h| {
            h.thread().unpark();
            h.join()
        });
        let shared = &self.core.shared;
        let protos = self.core.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.inbox.close();
            let node = slot.engine.lock().take()?;
            // Final stats publish so `net_stats` reflects the whole run
            // even when the last round never fired.
            shared.stale_epoch_dropped[i]
                .store(node.proto.stats().stale_epoch_dropped, Ordering::Relaxed);
            Some(node.proto)
        });
        let protos = protos.collect();
        joined.map(|()| protos)
    }
}

impl<P: Protocol> Drop for Cluster<P> {
    /// A cluster dropped without [`Cluster::shutdown`] still stops its
    /// heartbeat thread (a panic of which `Drop` must not re-raise).
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// Sleeps until `deadline`, re-arming after early wakeups; a no-op for
/// deadlines already past. Callers anchor waits to absolute deadlines so
/// per-sleep overshoot cannot accumulate into drift.
fn sleep_until(deadline: Instant) {
    while let Some(wait) = deadline.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// A blocking client handle for one node.
pub struct Client<P: Protocol> {
    inbox: Arc<NodeInbox<P::Msg>>,
    node: NodeId,
    shared: Arc<Shared>,
    timeout: Duration,
    invoke_cap: usize,
    /// Called after every invoke push, on the invoking thread: an
    /// in-process cluster installs [`Engines::drive`] — the caller runs
    /// its own operation — while a socket node parks in a blocking
    /// receive, so its cluster fires a wake datagram at the node's port.
    nudge: Arc<dyn Fn() + Send + Sync>,
    /// How long [`Client::run`] yields and re-polls for the reply before
    /// it parks (zero on the socket backend, whose replies are a kernel
    /// round trip away).
    patience: Duration,
}

impl<P: Protocol> Clone for Client<P> {
    fn clone(&self) -> Self {
        Client {
            inbox: Arc::clone(&self.inbox),
            node: self.node,
            shared: Arc::clone(&self.shared),
            timeout: self.timeout,
            invoke_cap: self.invoke_cap,
            nudge: Arc::clone(&self.nudge),
            patience: self.patience,
        }
    }
}

impl<P: Protocol> Client<P> {
    /// The node this client talks to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Overrides the per-operation timeout (builder-style) — workload
    /// runners use this to apply a spec's scaled `op_timeout`.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Records the completion of operation `id` with `resp` at the client
    /// boundary (history, trace).
    fn completed(&self, id: OpId, class: OpClass, resp: OpResponse) -> OpResponse {
        let now = self.shared.now_us();
        self.shared
            .history
            .lock()
            .record_complete(id, resp.clone(), now);
        if self.shared.tracer.is_on() {
            self.shared.tracer.emit(
                self.shared.model_now(),
                TraceEvent::OpComplete {
                    node: self.node,
                    id,
                    class,
                },
            );
        }
        resp
    }

    fn run(&self, op: SnapshotOp) -> Result<OpResponse, ClusterError> {
        let id = OpId(self.shared.next_op.fetch_add(1, Ordering::Relaxed));
        let class = OpClass::of(&op);
        let (done_tx, done_rx) = bounded(1);
        {
            let now = self.shared.now_us();
            self.shared
                .history
                .lock()
                .record_invoke(self.node, id, op, now);
        }
        if self.shared.tracer.is_on() {
            self.shared.tracer.emit(
                self.shared.model_now(),
                TraceEvent::OpInvoke {
                    node: self.node,
                    id,
                    class,
                },
            );
        }
        self.inbox
            .push_ctl(CtlMsg::Invoke {
                id,
                op,
                done: done_tx,
            })
            .map_err(|_| ClusterError::Shutdown)?;
        (self.nudge)();
        // In process the nudge usually completed the operation; if not,
        // it is a few engine steps from done on another thread.
        let invoked = Instant::now();
        while invoked.elapsed() < self.patience {
            if let Ok(resp) = done_rx.try_recv() {
                return Ok(self.completed(id, class, resp));
            }
            std::thread::yield_now();
        }
        // Poll the reply in slices of the suspicion window, so a lost
        // quorum surfaces as `Unavailable` (with the failure detector's
        // evidence) well before the full op timeout: detection latency is
        // `suspect_after` plus at most one slice, not `op_timeout`.
        let deadline = invoked + self.timeout;
        let slice = Duration::from_micros((self.shared.suspect_us / 4).max(1_000));
        loop {
            let now = Instant::now();
            if now >= deadline {
                // Out of time: prefer the detector's evidence if it
                // indicts anyone, else report a bare timeout.
                return Err(match self.shared.unavailable(self.node) {
                    Some(ev) => ClusterError::Unavailable(ev),
                    None => ClusterError::Timeout,
                });
            }
            match done_rx.recv_timeout(slice.min(deadline - now)) {
                Ok(resp) => return Ok(self.completed(id, class, resp)),
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(ev) = self.shared.unavailable(self.node) {
                        return Err(ClusterError::Unavailable(ev));
                    }
                }
                // The node dropped the reply channel: a bounded-counter
                // reset aborted the op. Surface the distinct `Aborted`
                // error (outcome unknown — see the variant docs) when
                // the abort table confirms it; fall back to `Timeout`
                // for a channel lost any other way.
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(match self.shared.aborted_ops.lock().remove(&id.0) {
                        Some(epoch) => ClusterError::Aborted { epoch },
                        None => ClusterError::Timeout,
                    })
                }
            }
        }
    }

    /// Fire-and-forget invocation for **open-loop load generation**:
    /// queues the operation and returns its id without waiting for it;
    /// the completion (if the protocol produces one) arrives on `done`.
    /// On an in-process cluster the calling thread drives the operation,
    /// so the completion may be sent from inside this call: `done` must
    /// have room for it (unbounded, or one slot per outstanding op).
    ///
    /// Unlike [`Client::write`] / [`Client::snapshot`], nothing is
    /// recorded in the cluster history, no timeout is armed, and the
    /// failure detector is not consulted — this is the offered-rate
    /// injection interface of `e14_throughput --open-loop` and the
    /// sharded service layer's batch path, not a client-facing API
    /// (histories produced alongside it are not checkable).
    ///
    /// Admission is bounded by [`ClusterConfig::invoke_queue`]: once
    /// that many invocations are queued and undrained at the node, the
    /// submit is refused with [`SubmitError::Full`] instead of queueing
    /// without bound (the pre-fix behavior silently absorbed overload
    /// into the inbox).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the node's invoke backlog is at
    /// capacity; [`SubmitError::Shutdown`] if the cluster stopped.
    pub fn submit(&self, op: SnapshotOp, done: Sender<OpResponse>) -> Result<OpId, SubmitError> {
        let id = OpId(self.shared.next_op.fetch_add(1, Ordering::Relaxed));
        self.inbox
            .push_invoke(CtlMsg::Invoke { id, op, done }, self.invoke_cap)
            .map_err(|e| match e {
                InvokeRejected::Full => SubmitError::Full,
                InvokeRejected::Closed => SubmitError::Shutdown,
            })?;
        (self.nudge)();
        Ok(id)
    }

    /// The failure detector's current verdict for this client's node —
    /// [`Cluster::availability`] reachable from a cloned client handle
    /// (service-layer shard workers hold clients, not the cluster).
    pub fn availability(&self) -> Option<Unavailable> {
        self.shared.unavailable(self.node)
    }

    /// Blocking `write(v)`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Timeout`] if no majority acknowledges in time;
    /// [`ClusterError::Shutdown`] if the cluster stopped.
    pub fn write(&self, v: Value) -> Result<(), ClusterError> {
        self.run(SnapshotOp::Write(v)).map(|_| ())
    }

    /// Blocking `snapshot()`.
    ///
    /// # Errors
    ///
    /// Same as [`Client::write`].
    pub fn snapshot(&self) -> Result<SnapshotView, ClusterError> {
        match self.run(SnapshotOp::Snapshot)? {
            OpResponse::Snapshot(view) => Ok(view),
            OpResponse::WriteDone => unreachable!("snapshot returned write response"),
        }
    }

    /// Wraps this client in a bounded retry layer (builder-style): failed
    /// ops ([`ClusterError::Timeout`] / [`ClusterError::Unavailable`])
    /// are re-issued up to [`RetryPolicy::attempts`] times with jittered
    /// exponential backoff, so callers ride out partitions and recover
    /// promptly after a `Heal`.
    pub fn retrying(self, policy: RetryPolicy) -> RetryingClient<P> {
        RetryingClient {
            client: self,
            policy,
            salt: AtomicU64::new(0),
        }
    }
}

/// Backoff schedule for [`RetryingClient`]: attempt `k` (0-based) sleeps
/// a uniformly jittered duration in `[d/2, d)` where
/// `d = min(base · 2^k, cap)` — "equal jitter", so concurrent clients
/// de-synchronize instead of retrying in lockstep after a `Heal`.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (the first try counts; 1 means no retries).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on the un-jittered backoff.
    pub cap: Duration,
    /// Seed for the jitter stream (deterministic per client + attempt).
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 6 attempts, 10 ms base, 320 ms cap: worst-case sleep budget
    /// ≈ 10 + 20 + 40 + 80 + 160 ms ≈ 310 ms (halved in expectation by
    /// jitter), sized so a client outlives a short partition without
    /// stalling for seconds.
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(320),
            seed: 0x5EED_BACC,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `attempt` (0-based),
    /// drawn deterministically from `seed ^ salt`.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(self.cap);
        let us = exp.as_micros() as u64;
        if us < 2 {
            return exp;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Duration::from_micros(us / 2 + rand::Rng::gen_range(&mut rng, 0..us / 2))
    }
}

/// A [`Client`] with bounded, jittered-exponential-backoff retries —
/// build one with [`Client::retrying`]. `Timeout` and `Unavailable`
/// results are retried (the underlying ops are idempotent: a write
/// re-issue is a fresh op, a snapshot has no side effects); `Shutdown`
/// is returned immediately.
///
/// [`ClusterError::Aborted`] is **not** blindly retried for writes: an
/// abort leaves the outcome unknown (the write may have reached a
/// majority before the reset), so [`RetryingClient::write`] first
/// re-reads via a snapshot and only re-issues the write if the value is
/// absent. Snapshots, having no side effects, retry aborts like
/// timeouts.
pub struct RetryingClient<P: Protocol> {
    client: Client<P>,
    policy: RetryPolicy,
    /// Per-call jitter salt, so successive retries (and cloned clients
    /// with different counters) sleep de-correlated durations.
    salt: AtomicU64,
}

impl<P: Protocol> RetryingClient<P> {
    /// The node this client talks to.
    pub fn node(&self) -> NodeId {
        self.client.node()
    }

    /// The wrapped single-shot client.
    pub fn inner(&self) -> &Client<P> {
        &self.client
    }

    fn run_retry<T>(
        &self,
        mut op: impl FnMut() -> Result<T, ClusterError>,
    ) -> Result<T, ClusterError> {
        let mut last = ClusterError::Timeout;
        for attempt in 0..self.policy.attempts.max(1) {
            match op() {
                Ok(v) => return Ok(v),
                Err(ClusterError::Shutdown) => return Err(ClusterError::Shutdown),
                Err(e) => last = e,
            }
            if attempt + 1 < self.policy.attempts.max(1) {
                let salt = self.salt.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.policy.backoff(attempt, salt));
            }
        }
        Err(last)
    }

    /// [`Client::write`] with retries. A reset-aborted attempt is never
    /// blindly re-issued: the outcome of an aborted write is unknown, so
    /// this re-reads (snapshot) first and treats a visible value as
    /// success — only a confirmed-absent write is retried.
    ///
    /// # Errors
    ///
    /// The last failure once the attempt budget is exhausted.
    pub fn write(&self, v: Value) -> Result<(), ClusterError> {
        self.run_retry(|| match self.client.write(v) {
            Err(ClusterError::Aborted { epoch }) => {
                // Outcome unknown: re-read before re-write. If our value
                // is already visible the write took effect before the
                // reset; re-issuing it would double-apply.
                match self.client.snapshot() {
                    Ok(view) if view.value_of(self.client.node()) == Some(v) => Ok(()),
                    Ok(_) => Err(ClusterError::Aborted { epoch }),
                    Err(e) => Err(e),
                }
            }
            r => r,
        })
    }

    /// [`Client::snapshot`] with retries.
    ///
    /// # Errors
    ///
    /// Same as [`RetryingClient::write`].
    pub fn snapshot(&self) -> Result<SnapshotView, ClusterError> {
        self.run_retry(|| self.client.snapshot())
    }
}

/// How many engine steps one [`Engines::drive`] call spends before it
/// hands what is left of its work-list to the heartbeat thread: the bound
/// on how much of other callers' traffic a caller helps with on its own
/// operation's path (an uncontended write on `n` nodes takes about `3n`).
const DRIVE_BUDGET: usize = 256;

/// How long an in-process client keeps yielding the processor and
/// re-polling for its reply before it parks on the reply channel — about
/// what the park and its wake-up would cost. When the client's own
/// [`Engines::drive`] did not finish the operation, another driver holds
/// the engine that will, a few engine steps away: with a processor to
/// spare the yield returns at once (a poll loop), without one it runs
/// that driver.
const COMPLETION_PATIENCE: Duration = Duration::from_micros(50);

/// How far past their schedule [`Cluster::await_rounds`] lets the awaited
/// rounds run before it declares the heartbeat broken.
const AWAIT_ROUNDS_GUARD: Duration = Duration::from_secs(10);

/// The node engines of one [`Cluster`] and the rules for driving them.
///
/// A node is passive: its state sits behind [`Slot::engine`] and advances
/// only when some thread runs [`Node::step`] on it. Whoever pushes into a
/// node's inbox — a client invoking, a control call, another node's flush
/// — then [drives](Engines::drive) it: `try_lock` the engine, step it,
/// and step the nodes that step sent to, from an explicit work-list. A
/// thread holds **at most one** engine lock at a time and takes no engine
/// lock below any other lock (engine → inbox / links / history, never
/// engine → engine), so drivers cannot deadlock; a `try_lock` that loses
/// is covered by the holder, which re-checks the inbox *after* unlocking.
struct Engines<P: Protocol> {
    slots: Vec<Slot<P>>,
    shared: Arc<Shared>,
    cfg: ClusterConfig,
    /// Tells the heartbeat thread to exit.
    stop: AtomicBool,
    /// The heartbeat thread, for the `unpark` of a hand-off.
    heartbeat: OnceLock<Thread>,
}

/// One node's place in [`Engines`].
struct Slot<P: Protocol> {
    inbox: Arc<NodeInbox<P::Msg>>,
    /// `None` once the cluster halted and took the state out.
    engine: Mutex<Option<Node<P>>>,
    /// When the node's next `do forever` iteration is due, in wall µs on
    /// [`Shared::started`]. Written only under the engine lock (which is
    /// what makes the first driver past the deadline the one that fires
    /// the round); read lock-free by the heartbeat to time its sleep.
    next_round: AtomicU64,
}

/// One node's engine state — the protocol instance and the buffers its
/// steps reuse (effects, coalescing outbox, link-verdict scratch, the two
/// drain lanes), so steady-state steps allocate nothing.
struct Node<P: Protocol> {
    proto: P,
    pending: Vec<(OpId, Sender<OpResponse>)>,
    crashed: bool,
    /// Stabilization probe: set when a corruption lands, cleared (with a
    /// `Stabilized` trace event) once the protocol's local invariants
    /// hold again. Only maintained while the tracer is on.
    tainted: bool,
    fx: Effects<P::Msg>,
    outbox: Outbox<P::Msg>,
    wire: Vec<Verdicted<P::Msg>>,
    ctl: Vec<CtlMsg>,
    batch: Vec<(NodeId, P::Msg)>,
    /// Byzantine rewrite state (None = honest), armed by the fault plane;
    /// seeded from the cluster seed so a plan replays the same lies here
    /// as on the simulator.
    byz: Option<ByzState<P::Msg>>,
    /// Last epoch observed by the EpochChange trace probe.
    last_epoch: u64,
}

/// The nodes a driver still has to step, each at most once in the queue.
struct WorkList {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl WorkList {
    fn new(n: usize) -> Self {
        WorkList {
            queue: VecDeque::new(),
            queued: vec![false; n],
        }
    }

    fn push(&mut self, i: usize) {
        if !std::mem::replace(&mut self.queued[i], true) {
            self.queue.push_back(i);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let i = self.queue.pop_front()?;
        self.queued[i] = false;
        Some(i)
    }
}

impl<P: Protocol> Engines<P> {
    /// Steps node `start` and everything its steps deliver to, until the
    /// work-list is empty or [`DRIVE_BUDGET`] is spent; what is left then
    /// goes to the heartbeat thread with one `unpark` (its next scan
    /// would find it anyway — the hand-off is for promptness).
    fn drive(&self, start: usize) {
        let mut work = WorkList::new(self.slots.len());
        work.push(start);
        let mut budget = DRIVE_BUDGET;
        while let Some(i) = work.pop() {
            if budget == 0 {
                if let Some(heartbeat) = self.heartbeat.get() {
                    heartbeat.unpark();
                }
                return;
            }
            budget -= 1;
            let slot = &self.slots[i];
            // A busy engine is its holder's to re-check, below.
            let Some(mut engine) = slot.engine.try_lock() else {
                continue;
            };
            if let Some(node) = engine.as_mut() {
                node.step(NodeId(i), self, &mut work);
            }
            drop(engine);
            // After the unlock: a push that arrived while this thread
            // held the engine found `try_lock` busy and walked away.
            if slot.inbox.has_work() {
                work.push(i);
            }
        }
    }

    /// The earliest round deadline over all nodes (wall µs).
    fn next_round(&self) -> u64 {
        let due = |s: &Slot<P>| s.next_round.load(Ordering::Relaxed);
        self.slots.iter().map(due).min().unwrap_or(u64::MAX)
    }

    /// The cluster's one background thread: the self-stabilization
    /// heartbeat (it fires the round of every node nobody else drove past
    /// its deadline) and the fallback driver for work a caller's budget
    /// left behind. Parks until the next deadline or a hand-off.
    fn heartbeat_loop(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            let now = self.shared.now_us();
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.next_round.load(Ordering::Relaxed) <= now || slot.inbox.has_work() {
                    self.drive(i);
                }
            }
            let wait = self.next_round().saturating_sub(self.shared.now_us());
            std::thread::park_timeout(Duration::from_micros(wait));
        }
    }
}

impl<P: Protocol> Node<P> {
    fn new(proto: P, cfg: &ClusterConfig) -> Self {
        Node {
            proto,
            pending: Vec::new(),
            crashed: false,
            tainted: false,
            fx: Effects::new(),
            outbox: Outbox::new(cfg.n).with_coalescing(cfg.batch.coalesce),
            wire: Vec::new(),
            ctl: Vec::new(),
            batch: Vec::new(),
            byz: None,
            last_epoch: 0,
        }
    }

    /// Applies one control-plane message: a client invocation drained
    /// from the inbox, or a fault injection applied synchronously by
    /// [`Cluster::control`].
    fn control(&mut self, me: NodeId, c: CtlMsg, eng: &Engines<P>) {
        let shared = &*eng.shared;
        match c {
            // The socket backend's exit signal; a `Cluster` halts by
            // taking the node out of its slot.
            CtlMsg::Stop => {}
            CtlMsg::Crash => {
                self.crashed = true;
                // The shared flag feeds the failure detector (and the
                // cycle proxy when tracing), so it is kept regardless of
                // tracer state.
                shared.crashed[me.index()].store(true, Ordering::Relaxed);
                if shared.tracer.is_on() {
                    emit_fault(shared, FaultKind::Crash, me);
                }
            }
            CtlMsg::Resume => {
                self.crashed = false;
                shared.crashed[me.index()].store(false, Ordering::Relaxed);
                if shared.tracer.is_on() {
                    emit_fault(shared, FaultKind::Resume, me);
                }
            }
            CtlMsg::Corrupt(seed) => {
                let mut corrupt_rng = StdRng::seed_from_u64(seed);
                self.proto.corrupt(&mut corrupt_rng);
                if shared.tracer.is_on() {
                    emit_fault(shared, FaultKind::Corrupt, me);
                    // Check immediately: a corruption that happens to
                    // land in a legal state stabilizes in zero steps.
                    self.tainted = true;
                    self.probe(shared);
                }
            }
            CtlMsg::Byzantine(behavior) => {
                self.byz = if matches!(behavior, ByzBehavior::Honest) {
                    None
                } else {
                    Some(ByzState::new(me, behavior, eng.cfg.seed))
                };
                if shared.tracer.is_on() {
                    let kind = if self.byz.is_none() {
                        FaultKind::Honest
                    } else {
                        FaultKind::Byzantine
                    };
                    emit_fault(shared, kind, me);
                }
            }
            CtlMsg::Restart => {
                self.proto.restart();
                self.crashed = false;
                shared.crashed[me.index()].store(false, Ordering::Relaxed);
                if shared.tracer.is_on() {
                    emit_fault(shared, FaultKind::Restart, me);
                    // Re-initialization resolves an outstanding
                    // corruption.
                    self.probe(shared);
                }
            }
            CtlMsg::Invoke { id, op, done } => {
                // A crashed node swallows the invocation but keeps the
                // reply channel open, so the client waits out its full
                // timeout — the same pacing as the simulator's clients
                // against a crashed node.
                self.pending.push((id, done));
                if !self.crashed {
                    self.proto.invoke(id, op, &mut self.fx);
                }
            }
        }
    }

    /// The stabilization and epoch trace probes (caller has already
    /// checked `tracer.is_on()`).
    fn probe(&mut self, shared: &Shared) {
        check_stabilized(&self.proto, &mut self.tainted, shared);
        check_epoch(&self.proto, &mut self.last_epoch, shared);
    }

    /// One engine step, run under the node's engine lock by whichever
    /// thread is driving: take all queued invocations and up to
    /// `max_batch` data messages without blocking, run the `do forever`
    /// iteration if it is due, apply the data as one protocol step, and
    /// flush once. Every node the flush delivers to goes onto `work`.
    fn step(&mut self, me: NodeId, eng: &Engines<P>, work: &mut WorkList) {
        let shared = &*eng.shared;
        let slot = &eng.slots[me.index()];
        // The deadline argument is a leftover of the blocking drain.
        let (max_batch, no_wait) = (eng.cfg.batch.max_batch, shared.started);
        slot.inbox
            .drain(&mut self.ctl, &mut self.batch, max_batch, no_wait);
        // Control plane first: client ops never queue behind a data
        // backlog.
        let mut ctl = std::mem::take(&mut self.ctl);
        for c in ctl.drain(..) {
            self.control(me, c, eng);
        }
        self.ctl = ctl;
        // Run the `do forever` iteration on schedule even under a
        // continuous message stream (a busy inbox must not starve gossip
        // or retransmission), on whichever thread gets here first after
        // the deadline — a sleeper alone cannot keep the schedule when
        // client threads saturate the processors. Deadlines advance by
        // whole intervals from the previous deadline — not from `now` —
        // so scheduling wobble does not accumulate; intervals missed
        // entirely under overload are skipped rather than run as a
        // catch-up burst.
        let now = shared.now_us();
        let due = slot.next_round.load(Ordering::Relaxed);
        if now >= due {
            let missed = (now - due) / shared.round_us;
            slot.next_round
                .store(due + (missed + 1) * shared.round_us, Ordering::Relaxed);
            if !self.crashed {
                self.proto.on_round(&mut self.fx);
                shared.round_counts[me.index()].fetch_add(1, Ordering::Relaxed);
                shared.stale_epoch_dropped[me.index()]
                    .store(self.proto.stats().stale_epoch_dropped, Ordering::Relaxed);
                if shared.tracer.is_on() {
                    shared.on_traced_round(me);
                    self.probe(shared);
                }
            }
        }
        // Data plane: apply the whole drained backlog as one protocol
        // step. Model time, capacity release, tracing and counters are
        // all per batch, not per hop.
        let drained = self.batch.len();
        if drained > 0 {
            let tracing = shared.tracer.is_on();
            if shared.cap_release {
                // One link-model lock for the whole batch (never held
                // together with an inbox lock; see `flush`).
                let mut links = shared.links.lock();
                for (from, _) in self.batch.iter().filter(|(f, _)| *f != me) {
                    links.on_delivered(*from, me);
                }
            }
            // Feed the failure detector: any received message is a
            // heartbeat, even to a crashed receiver (the *peer* is
            // evidently alive and connected).
            for (from, _) in self.batch.iter().filter(|(f, _)| *f != me) {
                shared.heard(me, *from);
            }
            if !self.crashed {
                if tracing {
                    let t = shared.model_now();
                    for (from, msg) in &self.batch {
                        shared.tracer.emit(
                            t,
                            TraceEvent::Deliver {
                                from: *from,
                                to: me,
                                kind: msg.kind(),
                            },
                        );
                    }
                }
                for (from, msg) in self.batch.drain(..) {
                    self.proto.on_message(from, msg, &mut self.fx);
                }
                shared
                    .delivered
                    .fetch_add(drained as u64, Ordering::Relaxed);
                shared.batches.fetch_add(1, Ordering::Relaxed);
                if tracing {
                    self.probe(shared);
                }
            } else {
                // Crashed receiver: the backlog is lost, same accounting
                // as the simulator's.
                shared.dropped.fetch_add(drained as u64, Ordering::Relaxed);
                if tracing {
                    let t = shared.model_now();
                    for (from, msg) in &self.batch {
                        shared.tracer.emit(
                            t,
                            TraceEvent::Drop {
                                from: *from,
                                to: me,
                                kind: msg.kind(),
                                cause: DropCause::Crashed,
                            },
                        );
                    }
                }
                self.batch.clear();
            }
        }
        // One coalesced flush for everything this step produced
        // (invocations, the round, the data batch).
        let coalesced = self.flush(me, eng, work);
        if shared.tracer.is_on() && (drained > 0 || coalesced > 0) {
            shared.tracer.emit(
                shared.model_now(),
                TraceEvent::BatchDrain {
                    node: me,
                    drained: drained as u32,
                    coalesced: coalesced as u32,
                },
            );
        }
    }
}

/// Emits a node-scoped fault event (caller has already checked
/// `tracer.is_on()`).
fn emit_fault(shared: &Shared, kind: FaultKind, node: NodeId) {
    shared.tracer.emit(
        shared.model_now(),
        TraceEvent::Fault {
            kind,
            node: Some(node),
            peer: None,
        },
    );
}

/// Emits the `Send` trace event of `msg` on `from → to` (caller has
/// already checked `tracer.is_on()`).
fn emit_send<M: ProtoMsg>(shared: &Shared, from: NodeId, to: NodeId, msg: &M) {
    shared.tracer.emit(
        shared.model_now(),
        TraceEvent::Send {
            from,
            to,
            kind: msg.kind(),
            bits: msg.size_bits(TRACE_NU_BITS),
        },
    );
}

/// The stabilization probe: if the node is tainted by a corruption and
/// its local invariants hold again, clear the taint and emit
/// [`TraceEvent::Stabilized`] (caller has already checked
/// `tracer.is_on()`).
fn check_stabilized<P: Protocol>(proto: &P, tainted: &mut bool, shared: &Shared) {
    if *tainted && proto.local_invariants_hold() {
        *tainted = false;
        shared.tracer.emit(
            shared.model_now(),
            TraceEvent::Stabilized { node: proto.id() },
        );
    }
}

/// The epoch probe: emits [`TraceEvent::EpochChange`] when the node's
/// bounded-counter epoch moved since the last check — a no-op for
/// protocols without an epoch envelope (caller has already checked
/// `tracer.is_on()`).
fn check_epoch<P: Protocol>(proto: &P, last_epoch: &mut u64, shared: &Shared) {
    if let Some(epoch) = proto.epoch_probe() {
        if epoch != *last_epoch {
            *last_epoch = epoch;
            shared.tracer.emit(
                shared.model_now(),
                TraceEvent::EpochChange {
                    node: proto.id(),
                    epoch,
                    stale_dropped: proto.stats().stale_epoch_dropped,
                },
            );
        }
    }
}

/// A wire message with its link-model verdict, staged so verdicts are
/// drawn under one link lock and deliveries pushed after it is released.
struct Verdicted<M> {
    to: NodeId,
    msg: M,
    /// `Ok(duplicate?)` to deliver, `Err(reason)` if the link dropped it.
    verdict: Result<bool, DropReason>,
}

impl<P: Protocol> Node<P> {
    /// Flushes one step's accumulated effects: sends (coalesced per
    /// destination, then either fast-pathed straight into peer inboxes
    /// or run through the link model under a **single** lock
    /// acquisition), completions, and aborts. Every peer delivered to
    /// goes onto `work` (the node's own loopback traffic is found by the
    /// driver's inbox re-check). Returns the number of sends absorbed by
    /// coalescing.
    ///
    /// Lock discipline: the links lock is only ever held while
    /// *computing verdicts* — never across an inbox push — and the drain
    /// copies out of the inbox and releases it before the link model is
    /// touched, so `links → inbox` nesting cannot deadlock.
    fn flush(&mut self, me: NodeId, eng: &Engines<P>, work: &mut WorkList) -> u64 {
        let shared = &*eng.shared;
        let epoch = self.proto.epoch_probe().unwrap_or(0);
        let tracing = shared.tracer.is_on();
        let coalesced_before = self.outbox.coalesced();
        for (to, msg) in self.fx.drain_sends() {
            // The Byzantine plane sits here — after the protocol produced
            // the send, before coalescing and the link model — the same
            // logical point as the simulator's rewrite. Self-deliveries are
            // never rewritten (a node cannot lie to itself).
            let msg = match self.byz.as_mut() {
                Some(state) if to != me => state.rewrite(to, msg),
                _ => msg,
            };
            if to == me {
                // Self-delivery: reliable, immediate (an internal step) —
                // bypasses the link model and the coalescing outbox.
                if tracing {
                    emit_send(shared, me, to, &msg);
                }
                eng.slots[me.index()].inbox.push_data(me, msg);
            } else {
                self.outbox.push(to, msg);
            }
        }
        let coalesced = self.outbox.coalesced() - coalesced_before;
        if coalesced > 0 {
            shared.coalesced.fetch_add(coalesced, Ordering::Relaxed);
        }
        if !self.outbox.is_empty() {
            // All loss/duplication/partition decisions come from the shared
            // fault plane. Delay verdicts are ignored: thread scheduling and
            // inbox queueing already make delivery timing asynchronous —
            // which is also why the fast path below may skip the model
            // entirely when it could only have drawn those ignored coins.
            if shared.net_transparent_base && !shared.links_dirty.load(Ordering::Relaxed) {
                for (to, msg) in self.outbox.drain() {
                    if tracing {
                        emit_send(shared, me, to, &msg);
                    }
                    eng.slots[to.index()].inbox.push_data(me, msg);
                    work.push(to.index());
                }
            } else {
                {
                    let mut links = shared.links.lock();
                    for (to, msg) in self.outbox.drain() {
                        let verdict = match links.on_send(me, to) {
                            LinkVerdict::Deliver { duplicate, .. } => Ok(duplicate.is_some()),
                            LinkVerdict::Drop(reason) => Err(reason),
                        };
                        self.wire.push(Verdicted { to, msg, verdict });
                    }
                }
                for Verdicted { to, msg, verdict } in self.wire.drain(..) {
                    if tracing {
                        // `Send` records the attempt (matching the sim's
                        // accounting); a link drop adds a `Drop` after it.
                        emit_send(shared, me, to, &msg);
                    }
                    match verdict {
                        Err(reason) => {
                            shared.dropped.fetch_add(1, Ordering::Relaxed);
                            if tracing {
                                shared.tracer.emit(
                                    shared.model_now(),
                                    TraceEvent::Drop {
                                        from: me,
                                        to,
                                        kind: msg.kind(),
                                        cause: reason.into(),
                                    },
                                );
                            }
                        }
                        Ok(duplicate) => {
                            let inbox = &eng.slots[to.index()].inbox;
                            if duplicate {
                                inbox.push_data(me, msg.clone());
                            }
                            inbox.push_data(me, msg);
                            work.push(to.index());
                        }
                    }
                }
            }
        }
        for (id, resp) in self.fx.drain_completions() {
            if let Some(pos) = self.pending.iter().position(|(pid, _)| *pid == id) {
                let (_, done) = self.pending.swap_remove(pos);
                let _ = done.send(resp);
            }
        }
        for id in self.fx.drain_aborts() {
            // Aborted operations (bounded-counter resets) unblock the client
            // by dropping the reply sender. Record the abort *first*: the
            // drop is what wakes the client's Disconnected path, which then
            // consults the table to return `ClusterError::Aborted` instead
            // of a misleading `Timeout`.
            shared.aborted_ops.lock().insert(id.0, epoch);
            let now = shared.now_us();
            shared.history.lock().try_record_abort(id, now);
            if tracing {
                shared
                    .tracer
                    .emit(shared.model_now(), TraceEvent::OpAbort { node: me, id });
            }
            self.pending.retain(|(pid, _)| *pid != id);
        }
        coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::{Alg1, Alg3, Alg3Config};

    #[test]
    fn write_then_snapshot_roundtrip() {
        let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
        cluster.client(NodeId(0)).write(42).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(42));
        cluster.shutdown();
    }

    #[test]
    fn alg3_roundtrip() {
        let cluster = Cluster::new(ClusterConfig::new(3), |id| {
            Alg3::new(id, 3, Alg3Config { delta: 1 })
        });
        cluster.client(NodeId(2)).write(7).unwrap();
        let view = cluster.client(NodeId(0)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(2)), Some(7));
        cluster.shutdown();
    }

    #[test]
    fn survives_loss_and_duplication() {
        let cluster = Cluster::new(ClusterConfig::new(3).with_chaos(0.2, 0.1), |id| {
            Alg1::new(id, 3)
        });
        for i in 0..5 {
            cluster.client(NodeId(i % 3)).write(100 + i as u64).unwrap();
        }
        let view = cluster.client(NodeId(0)).snapshot().unwrap();
        assert!(view.value_of(NodeId(0)).is_some());
        cluster.shutdown();
    }

    #[test]
    fn crashed_minority_does_not_block() {
        let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
        cluster.crash(NodeId(2));
        cluster.client(NodeId(0)).write(5).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(5));
        cluster.shutdown();
    }

    #[test]
    fn crashed_majority_times_out_then_resume_recovers() {
        let mut cfg = ClusterConfig::new(3);
        cfg.op_timeout = Duration::from_millis(200);
        let cluster = Cluster::new(cfg, |id| Alg1::new(id, 3));
        cluster.crash(NodeId(1));
        cluster.crash(NodeId(2));
        // With the majority crashed the op cannot complete. The failure
        // detector reports `Unavailable` once the peers' silence crosses
        // the suspicion window; if the crash landed before any gossip
        // was ever heard, the detector has no evidence and the op falls
        // back to a bare `Timeout`.
        let err = cluster.client(NodeId(0)).write(5).unwrap_err();
        assert!(
            matches!(err, ClusterError::Timeout | ClusterError::Unavailable(_)),
            "unexpected error: {err:?}"
        );
        cluster.resume(NodeId(1));
        // The protocol retransmits; a later op succeeds.
        cluster.client(NodeId(0)).write(6).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn history_is_recorded() {
        let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
        cluster.client(NodeId(0)).write(1).unwrap();
        cluster.client(NodeId(1)).snapshot().unwrap();
        let h = cluster.history();
        assert_eq!(h.completed().count(), 2);
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_are_linearizable() {
        let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
        let mut joins = Vec::new();
        for i in 0..3usize {
            let client = cluster.client(NodeId(i));
            joins.push(std::thread::spawn(move || {
                for seq in 1..=5u64 {
                    let v = ((i as u64 + 1) << 40) | seq;
                    client.write(v).unwrap();
                    let _ = client.snapshot().unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let h = cluster.history();
        cluster.shutdown();
        let verdict = sss_checker::check(&h, 3);
        assert!(
            verdict.is_linearizable(),
            "violations: {:?}",
            verdict.violations
        );
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use sss_core::Alg1;

    #[test]
    fn partition_blocks_minority_and_heals() {
        let mut cfg = ClusterConfig::new(3);
        cfg.op_timeout = Duration::from_millis(300);
        let cluster = Cluster::new(cfg, |id| Alg1::new(id, 3));
        // Establish gossip first so the failure detector has heard every
        // peer at least once (never-heard peers are not suspected): the
        // first write alone can finish before the first gossip round,
        // and one *completed* round of gossip from everyone populates
        // the matrix.
        cluster.client(NodeId(0)).write(1).unwrap();
        cluster.await_rounds(2);
        cluster.partition(&[[NodeId(0), NodeId(1)].as_slice(), [NodeId(2)].as_slice()]);
        // Majority side works.
        cluster.client(NodeId(0)).write(4).unwrap();
        // Minority side fails fast with the detector's evidence — the
        // suspicion window (100 ms) is well under the 300 ms op timeout.
        let err = cluster.client(NodeId(2)).write(2).unwrap_err();
        match err {
            ClusterError::Unavailable(ev) => {
                assert!(!ev.node_crashed);
                assert!(ev.reachable < ev.required);
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        // Heal: retransmission completes the op on a later attempt.
        cluster.heal_partition();
        cluster.client(NodeId(2)).write(3).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(4));
        cluster.shutdown();
    }

    #[test]
    fn single_link_cut_is_harmless() {
        let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
        cluster.set_link(NodeId(0), NodeId(1), false);
        cluster.client(NodeId(0)).write(9).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(9));
        cluster.shutdown();
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use sss_core::Alg1;
    use sss_obs::TraceEvent;

    #[test]
    fn traced_cluster_emits_full_event_lifecycle() {
        let (sink, buf) = MemorySink::new();
        let tracer = Tracer::new(3).with_sink(sink);
        let cluster = Cluster::new_traced(ClusterConfig::new(3), tracer, |id| Alg1::new(id, 3));
        cluster.client(NodeId(0)).write(42).unwrap();
        cluster.corrupt(NodeId(1), 7);
        cluster.client(NodeId(1)).snapshot().unwrap();
        // A few rounds, so cycles complete and the corrupted node's
        // invariants re-converge.
        cluster.await_rounds(3);
        cluster.shutdown();
        let recs = buf.records();
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        let has = |f: &dyn Fn(&TraceEvent) -> bool| recs.iter().any(|r| f(&r.event));
        assert!(has(&|e| matches!(
            e,
            TraceEvent::OpInvoke {
                node: NodeId(0),
                ..
            }
        )));
        assert!(has(&|e| matches!(
            e,
            TraceEvent::OpComplete {
                node: NodeId(0),
                ..
            }
        )));
        assert!(has(&|e| matches!(e, TraceEvent::Send { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::Deliver { .. })));
        assert!(has(&|e| matches!(
            e,
            TraceEvent::Fault {
                kind: FaultKind::Corrupt,
                node: Some(NodeId(1)),
                ..
            }
        )));
        assert!(
            has(&|e| matches!(e, TraceEvent::Stabilized { node: NodeId(1) })),
            "corrupted node must re-converge and emit Stabilized"
        );
        // The cycle proxy advances and indices are dense from zero.
        let cycles: Vec<u64> = recs
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::CycleEnd { index } => Some(index),
                _ => None,
            })
            .collect();
        assert!(!cycles.is_empty());
        assert_eq!(cycles, (0..cycles.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn untraced_cluster_emits_nothing() {
        let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
        cluster.client(NodeId(0)).write(1).unwrap();
        assert!(!cluster.tracer().is_on());
        assert_eq!(cluster.tracer().emitted(), 0);
        cluster.shutdown();
    }
}

#[cfg(test)]
mod restart_tests {
    use super::*;
    use sss_core::Alg1;

    #[test]
    fn detectable_restart_recovers_via_gossip() {
        let n = 3;
        let cluster = Cluster::new(ClusterConfig::new(n), move |id| Alg1::new(id, n));
        for seq in 1..=3u64 {
            cluster.client(NodeId(0)).write(100 + seq).unwrap();
        }
        cluster.restart(NodeId(0));
        // Gossip re-teaches p0 its own timestamp within a few rounds.
        cluster.await_rounds(3);
        cluster.client(NodeId(0)).write(999).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(
            view.value_of(NodeId(0)),
            Some(999),
            "post-restart write visible (the self-stabilizing property)"
        );
        cluster.shutdown();
    }

    #[test]
    fn restart_clears_crash() {
        let n = 3;
        let cluster = Cluster::new(ClusterConfig::new(n), move |id| Alg1::new(id, n));
        cluster.crash(NodeId(2));
        cluster.restart(NodeId(2));
        cluster.client(NodeId(2)).write(5).unwrap();
        cluster.shutdown();
    }
}
