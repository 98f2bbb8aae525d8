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
//! A node is a passive **engine**: its protocol instance and step
//! buffers, stepped by whichever thread delivers to the node. One lock,
//! the cluster's *driver domain*, carries the right to step all of its
//! engines, so one thread at a time does — a client's `write` on three
//! nodes goes home node → peers → acknowledgements → completion on the
//! calling thread, with no thread hand-off and no timer on the way, and a
//! client that finds the domain held leaves its invocation to the holder
//! (DESIGN.md §8.1 has the driver rules and the lock discipline). The
//! cluster's one background thread is the self-stabilization heartbeat:
//! it fires the `do forever` iteration of every node nobody else drove
//! past its round deadline (gossip,
//! retransmission, stale-information clean-up) and picks up work a
//! caller's step budget left behind. Inter-node links are two-lane
//! inboxes ([`NodeInbox`]: a control lane for client invocations, a data
//! lane for protocol traffic) whose loss / duplication / partition
//! decisions come from the shared fault plane ([`sss_net::LinkModel`] —
//! the same model the simulator uses, so a [`FaultPlan`] means the same
//! thing on both backends, modulo virtual vs. wall-clock time; the
//! model's *delay* verdicts are ignored here because real thread
//! scheduling already provides asynchrony). Each step drains the whole
//! data backlog (up to 1,024 messages) and applies it as
//! **one protocol step**, whose sends all travel, in emission order, as
//! on the simulator (see [`sss_types::Outbox`]). The runtime records a
//! [`History`] with microsecond timestamps, so the linearizability
//! checker applies to real concurrent executions too.
//!
//! Each engine steps an [`sss_net::Process`], the type the simulator
//! steps too: faults, their trace records, the stabilization and epoch
//! probes and the Byzantine send hook are applied there once. The engine
//! keeps only its timing model — the inbox drain, the
//! transparent-link fast path and the failure detector's crash flags.
//!
//! `SocketCluster` (Linux) is the other deployment shape: the same
//! engines, each behind a UDP socket and in a driver domain of its own. A
//! client still steps its home node on the invoking thread, and a reactor
//! of one thread per core waits on all node sockets at once and steps
//! whichever node received datagrams.

// `deny` rather than `forbid`: the socket backend's `mmsg` module opts
// back in for its hand-declared `sendmmsg`/`recvmmsg`/`epoll` FFI (the
// workspace vendors no `libc`); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use engine::{Engines, Heartbeat, InProc, Node, RoundTimer};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_net::{LinkConfig, LinkModel, MODEL_ROUND_US};
use sss_types::{
    History, NodeId, OpClass, OpId, OpResponse, Protocol, SnapshotOp, SnapshotView, Value,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod backend;
#[macro_use]
mod engine;
mod inbox;
#[cfg(target_os = "linux")]
mod mmsg;
#[cfg(target_os = "linux")]
mod socket;
pub use backend::ThreadBackend;
pub use inbox::{CtlMsg, InboxClosed, InvokeRejected, NodeInbox};
#[cfg(target_os = "linux")]
pub use socket::{SocketBackend, SocketCluster, SocketConfig};
// Re-export the shared fault plane and the trace plane so runtime users
// need only one import.
pub use sss_net::{Backend, FaultEvent, FaultPlan, RunReport, RunStats, WorkloadSpec};
pub use sss_obs::{DropCause, FaultKind, MemorySink, TraceBuffer, TraceEvent, TraceRecord, Tracer};

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
/// were still reachable, and for how many of the contacted node's own
/// rounds the quietest suspect had been silent.
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
    /// Rounds the contacted node has completed since it last heard the
    /// *least*-silent suspect (0 when it suspects nobody).
    pub silent_rounds: u64,
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
                    " (suspects {:?}, silent ≥ {} rounds)",
                    ev.suspected, ev.silent_rounds
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
/// A saturated node pushes back: its invoke lane holds at most
/// [`INVOKE_QUEUE`] invocations, and the sharded service turns
/// [`SubmitError::Full`] into an `Overloaded` fail-fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The node's invoke backlog is at capacity ([`INVOKE_QUEUE`]); shed
    /// the operation or retry later.
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
    /// suspects it, counted in the suspecting node's own rounds: a node
    /// suspects a peer once it has completed
    /// `ceil(suspect_after / round_interval)` `do forever` iterations
    /// without a message from it. Rounds never run faster than the
    /// wall clock, so a silent peer is suspected no sooner than
    /// `suspect_after`; a process freeze stops the rounds too, so it
    /// indicts nobody. When the contacted node cannot reach a majority
    /// of unsuspected peers, client ops fail fast with
    /// [`ClusterError::Unavailable`] instead of stalling out the full
    /// [`ClusterConfig::op_timeout`]. Peers a node has *never* heard
    /// from are not suspected (idle startup is not evidence of failure).
    pub suspect_after: Duration,
}

/// Admission bound on each node's queued-but-undrained client
/// invocations, enforced by the fire-and-forget [`Client::submit`]
/// path. Blocking clients are closed-loop — at most one outstanding op
/// each — so only open-loop injection can saturate the lane; when it
/// does, `submit` returns [`SubmitError::Full`] instead of queueing
/// without bound.
pub const INVOKE_QUEUE: usize = 8192;

impl ClusterConfig {
    /// A reliable-link configuration for `n` nodes with a 2 ms round
    /// interval, a 5 s client timeout, and a 100 ms suspicion window
    /// (50 of the suspecting node's rounds, still 50× faster than
    /// waiting out the op timeout).
    pub fn new(n: usize) -> Self {
        ClusterConfig {
            n,
            round_interval: Duration::from_millis(2),
            op_timeout: Duration::from_secs(5),
            net: LinkConfig::reliable(),
            seed: 0xBEEF,
            suspect_after: Duration::from_millis(100),
        }
    }

    /// Enables message loss/duplication (builder-style).
    pub fn with_chaos(mut self, loss: f64, dup: f64) -> Self {
        self.net.loss = loss;
        self.net.dup = dup;
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
    /// `me`'s completed-round count when it last received any message
    /// from `from`; `u64::MAX` means never. Written by whoever steps `me`
    /// on every drained batch, read by clients deciding whether a
    /// majority is reachable. No clock is read on either side.
    last_heard: Vec<AtomicU64>,
    /// [`ClusterConfig::suspect_after`] in the suspecting node's rounds:
    /// `ceil(suspect_after / round_interval)`, at least 1.
    suspect_rounds: u64,
    /// Whether the configured link model is a no-op for non-partitioned
    /// links (no loss, no duplication, unbounded capacity). When this
    /// holds *and* no link is currently cut ([`Shared::links_dirty`]),
    /// senders skip the link-model lock entirely; the only thing skipped
    /// is the delay coin this backend ignores anyway, so the fast path
    /// is observationally equivalent.
    net_transparent_base: bool,
    /// Whether any link is cut: written under the link-model lock by
    /// every link fault ([`Shared::link_fault`]), read lock-free by the
    /// fast path, so it never skips a LinkDown verdict.
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
    /// UDP send syscalls issued (socket backend only; 0 in-process).
    send_syscalls: AtomicU64,
    /// Receive-side syscalls issued (socket backend only; 0 in-process):
    /// readiness waits plus receive calls, see [`NetStats::recv_syscalls`].
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
            last_heard: (0..n * n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            suspect_rounds: (cfg.suspect_after.as_nanos())
                .div_ceil(cfg.round_interval.as_nanos().max(1))
                .max(1) as u64,
            net_transparent_base: cfg.net.loss == 0.0
                && cfg.net.dup == 0.0
                && cfg.net.capacity == 0,
            links_dirty: AtomicBool::new(false),
            cap_release: cfg.net.capacity > 0,
            delivered: AtomicU64::new(0),
            batches: AtomicU64::new(0),
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
            coalesced: 0,
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

    /// Records that `me` just drained a batch holding messages from the
    /// `senders` (the failure detector's heartbeat source; every
    /// protocol message counts, so no extra traffic is needed). Each is
    /// stamped with `me`'s own completed-round count: one counter load
    /// per batch.
    fn heard(&self, me: NodeId, senders: impl Iterator<Item = NodeId>) {
        let n = self.crashed.len();
        let stamp = self.round_counts[me.index()].load(Ordering::Relaxed);
        let row = &self.last_heard[me.index() * n..][..n];
        for from in senders {
            row[from.index()].store(stamp, Ordering::Relaxed);
        }
    }

    /// The failure detector's verdict for an op contacted at `node`:
    /// `Some(evidence)` when the node is crashed or cannot currently
    /// reach a majority (too many peers silent for
    /// [`Shared::suspect_rounds`] of its own rounds), `None` when the op
    /// still has a quorum's worth of hope. The verdict changes only when
    /// `node` completes a round or drains a batch.
    fn unavailable(&self, node: NodeId) -> Option<Unavailable> {
        let n = self.crashed.len();
        let required = n / 2 + 1;
        let node_crashed = self.crashed[node.index()].load(Ordering::Relaxed);
        let rounds = self.round_counts[node.index()].load(Ordering::Relaxed);
        let row = &self.last_heard[node.index() * n..][..n];
        // Rounds `node` completed since it last heard `peer`. A
        // never-heard peer reads as 0: silence before the first contact
        // is indistinguishable from an idle start.
        let silence = |peer: usize| rounds.saturating_sub(row[peer].load(Ordering::Relaxed));
        let (suspected, silences): (Vec<NodeId>, Vec<u64>) = (0..n)
            .filter(|&peer| peer != node.index())
            .map(|peer| (NodeId(peer), silence(peer)))
            .filter(|&(_, silent)| silent >= self.suspect_rounds)
            .unzip();
        let reachable = n - suspected.len() - usize::from(node_crashed);
        if !node_crashed && reachable >= required {
            return None;
        }
        Some(Unavailable {
            node,
            node_crashed,
            reachable,
            required,
            suspected,
            silent_rounds: silences.into_iter().min().unwrap_or(0),
        })
    }

    /// Applies a link-scoped fault (see [`Cluster::set_link`],
    /// [`Cluster::partition`], [`Cluster::heal_partition`]). While a link
    /// is cut, [`Shared::links_dirty`] sends every message through the
    /// link model.
    fn link_fault(&self, ev: &FaultEvent) {
        let mut links = self.links.lock();
        links.apply_fault(ev, &self.tracer, self.model_now());
        self.links_dirty.store(links.any_down(), Ordering::Relaxed);
    }
}

/// Message-plane counters of the batched runtime (see
/// [`Cluster::net_stats`]). Together with completed-operation counts,
/// these are the benchmark's event accounting: one event per `do
/// forever` round and per delivered message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Data-plane messages applied by protocol steps.
    pub delivered: u64,
    /// Always 0: every message a step emits travels. The field stays
    /// because the benchmark reads it for `runtime.coalesced_share`.
    pub coalesced: u64,
    /// Non-empty data batches applied (`delivered / batches` = mean
    /// batch size).
    pub batches: u64,
    /// Completed `do forever` iterations across all nodes.
    pub rounds: u64,
    /// UDP send syscalls issued. Always 0 on the in-process backends;
    /// on the socket backend, `frames_sent / send_syscalls` is the send
    /// batching factor.
    pub send_syscalls: u64,
    /// Receive-side syscalls issued (0 in-process): every readiness wait
    /// of a socket reactor (`epoll_pwait2`, whether it returned ready
    /// sockets or timed out for a round) plus one `recvmmsg` per ready
    /// socket.
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

/// A running cluster of protocol nodes: `n` passive engines driven by
/// whoever delivers to them, plus one heartbeat thread.
pub struct Cluster<P: Protocol> {
    core: Arc<Engines<P, InProc>>,
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
        let shared = Arc::new(Shared::new(&cfg, tracer));
        let nodes = (0..cfg.n)
            .map(|i| Some(Node::new(mk(NodeId(i)), &cfg, InProc)))
            .collect();
        let net = Heartbeat {
            thread: OnceLock::new(),
            wakes: AtomicU64::new(0),
        };
        let hosted = 0..cfg.n;
        let core = Arc::new(Engines::new(nodes, shared, cfg, hosted, net));
        let core2 = Arc::clone(&core);
        let heartbeat = std::thread::Builder::new()
            .name("sss-heartbeat".into())
            .spawn(move || core2.heartbeat_loop())
            .expect("spawn heartbeat thread");
        core.net
            .thread
            .set(heartbeat.thread().clone())
            .expect("heartbeat handle is set once");
        Cluster {
            core,
            heartbeat: Some(heartbeat),
        }
    }

    engine_shell!();

    /// The configuration this cluster runs with.
    pub fn config(&self) -> &ClusterConfig {
        &self.core.cfg
    }

    /// Stops the heartbeat thread and returns the nodes' final protocol
    /// states.
    pub fn shutdown(mut self) -> Vec<P> {
        self.halt().expect("heartbeat thread panicked")
    }
}

impl<P: Protocol> Cluster<P> {
    /// Joins the heartbeat thread and takes the node engines out.
    /// Idempotent: a second call finds nothing left to take.
    fn halt(&mut self) -> std::thread::Result<Vec<P>> {
        self.core.stop.store(true, Ordering::SeqCst);
        let joined = self.heartbeat.take().map_or(Ok(()), |h| {
            h.thread().unpark();
            h.join()
        });
        joined.map(|()| self.core.take_nodes())
    }
}

impl<P: Protocol> Drop for Cluster<P> {
    /// A cluster dropped without [`Cluster::shutdown`] still stops its
    /// heartbeat thread (a panic of which `Drop` must not re-raise).
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

impl<P: Protocol> Engines<P, InProc> {
    /// The cluster's one background thread: the self-stabilization
    /// heartbeat (it fires the round of every node nobody else drove past
    /// its deadline) and the fallback driver for work a caller's budget
    /// left behind. Parks until the next deadline or a hand-off; a round
    /// it found the domain held on is the holder's, so it parks past that
    /// deadline ([`RoundTimer`]).
    fn heartbeat_loop(&self) {
        let mut timer = RoundTimer::new(self.cfg.n);
        while !self.stop.load(Ordering::SeqCst) {
            self.net.wakes.fetch_add(1, Ordering::Relaxed);
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.inbox.has_work() {
                    self.drive(i);
                }
            }
            let next = timer.fire(self, self.hosted.clone());
            let wait = next.saturating_sub(self.shared.now_us());
            std::thread::park_timeout(Duration::from_micros(wait));
        }
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
    /// Called after every invoke push, on the invoking thread: the
    /// cluster's drive of the home node, so the caller runs its own
    /// operation as far as that node takes it.
    nudge: Arc<dyn Fn() + Send + Sync>,
    /// How long [`Client::await_reply`] yields and re-polls for the
    /// reply before it parks (the backend's `Wire::PATIENCE`).
    patience: Duration,
}

impl<P: Protocol> Clone for Client<P> {
    fn clone(&self) -> Self {
        Client {
            inbox: Arc::clone(&self.inbox),
            node: self.node,
            shared: Arc::clone(&self.shared),
            timeout: self.timeout,
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

    /// Runs `op` at this client's node, recording its invocation and
    /// completion at the client boundary (history, trace).
    fn run(&self, op: SnapshotOp) -> Result<OpResponse, ClusterError> {
        let id = OpId(self.shared.next_op.fetch_add(1, Ordering::Relaxed));
        let (node, class, tracer) = (self.node, OpClass::of(&op), &self.shared.tracer);
        let (done, rx) = bounded(1);
        let now = self.shared.now_us();
        self.shared.history.lock().record_invoke(node, id, op, now);
        if tracer.is_on() {
            let ev = TraceEvent::OpInvoke { node, id, class };
            tracer.emit(self.shared.model_now(), ev);
        }
        let invoke = CtlMsg::Invoke { id, op, done };
        self.inbox
            .push_ctl(invoke)
            .map_err(|_| ClusterError::Shutdown)?;
        (self.nudge)();
        let resp = self.await_reply(id, &rx, Instant::now())?;
        let now = self.shared.now_us();
        let history = &self.shared.history;
        history.lock().record_complete(id, resp.clone(), now);
        if tracer.is_on() {
            let ev = TraceEvent::OpComplete { node, id, class };
            tracer.emit(self.shared.model_now(), ev);
        }
        Ok(resp)
    }

    /// Waits on `rx` for the reply to operation `id`, invoked at this
    /// client's node at `since` (the blocking ops' wait, and the sharded
    /// service's for ops it [submitted](Client::submit)). It yields and
    /// re-polls for the backend's patience — in process the operation is
    /// usually a few engine steps from done — then parks, asking the
    /// failure detector once per round interval (its verdict changes only
    /// when a round completes) until the client timeout from `since`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Unavailable`] once the detector indicts the node
    /// or its quorum, [`ClusterError::Aborted`] for a reset-aborted op,
    /// else [`ClusterError::Timeout`].
    pub fn await_reply(
        &self,
        id: OpId,
        rx: &Receiver<OpResponse>,
        since: Instant,
    ) -> Result<OpResponse, ClusterError> {
        while since.elapsed() < self.patience {
            if let Ok(resp) = rx.try_recv() {
                return Ok(resp);
            }
            std::thread::yield_now();
        }
        let deadline = since + self.timeout;
        let round = Duration::from_micros(self.shared.round_us);
        loop {
            let now = Instant::now();
            if now >= deadline {
                // Out of time: prefer the detector's evidence if it
                // indicts anyone, else report a bare timeout.
                return Err(self
                    .availability()
                    .map_or(ClusterError::Timeout, ClusterError::Unavailable));
            }
            match rx.recv_timeout(round.min(deadline - now)) {
                Ok(resp) => return Ok(resp),
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(ev) = self.availability() {
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
    /// recorded in the cluster history, and no timeout or failure
    /// detector applies unless the caller waits through
    /// [`Client::await_reply`] — this is the offered-rate injection
    /// interface of the benchmark's windowed workloads and the sharded
    /// service layer's batch path, not a client-facing API (histories
    /// produced alongside it are not checkable).
    ///
    /// Admission is bounded by [`INVOKE_QUEUE`]: once that many
    /// invocations are queued and undrained at the node, the submit is
    /// refused with [`SubmitError::Full`] instead of queueing without
    /// bound.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the node's invoke backlog is at
    /// capacity; [`SubmitError::Shutdown`] if the cluster stopped.
    pub fn submit(&self, op: SnapshotOp, done: Sender<OpResponse>) -> Result<OpId, SubmitError> {
        let id = OpId(self.shared.next_op.fetch_add(1, Ordering::Relaxed));
        self.inbox
            .push_invoke(CtlMsg::Invoke { id, op, done }, INVOKE_QUEUE)
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
