//! The node engine both cluster shells run.
//!
//! A node is a passive [`Node`] — its protocol instance and the buffers
//! its steps reuse — behind one mutex, and it advances only when some
//! thread runs [`Node::step`] on it. [`Cluster`](crate::Cluster) and
//! [`SocketCluster`](crate::SocketCluster) share all of it: the step
//! (drain → round → batch → flush), the control plane, the driver rules
//! of [`Engines::drive`], `await_rounds` and fault-plan replay. They differ
//! only in where a flush sends a node's peer traffic, which is the
//! [`Wire`] type parameter: [`InProc`] pushes into the peer's inbox and
//! puts the peer on the driver's work-list, the socket backend packs
//! frames per peer for one `sendmmsg`. The parameter is monomorphised, so
//! neither backend's hot path pays for the other's.

use crate::{sleep_until, Client, ClusterConfig, CtlMsg, NodeInbox, Shared, TRACE_NU_BITS};
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_net::{ByzState, DropReason, FaultEvent, FaultPlan, LinkVerdict};
use sss_obs::{DropCause, FaultKind, TraceEvent};
use sss_types::{ByzBehavior, Effects, NodeId, OpId, OpResponse, Outbox, ProtoMsg, Protocol};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The public surface [`Cluster`](crate::Cluster) and
/// [`SocketCluster`](crate::SocketCluster) share: both are shells over
/// one `core: Arc<Engines<P, _>>`, so every method is one delegation.
macro_rules! engine_shell {
    () => {
        /// A blocking client bound to `node` (hosted by this process): an
        /// invocation drives the node on the calling thread, so the caller
        /// runs its own operation as far as that node takes it.
        pub fn client(&self, node: sss_types::NodeId) -> $crate::Client<P> {
            self.core.client(node)
        }

        /// The failure detector's current verdict for `node`:
        /// `Some(evidence)` when the node is crashed or cannot presently
        /// reach a majority of unsuspected peers, `None` when it can. This
        /// is the same check client ops consult before failing fast with
        /// [`ClusterError::Unavailable`](crate::ClusterError::Unavailable);
        /// service layers poll it to decide whether to shed a shard's
        /// traffic at admission instead of queueing ops that are doomed to
        /// fail.
        pub fn availability(&self, node: sss_types::NodeId) -> Option<$crate::Unavailable> {
            self.core.shared.unavailable(node)
        }

        /// Pauses `node` (crash). Messages keep arriving and are lost.
        ///
        /// This and the other fault injections apply **before returning**:
        /// the engine lock is taken blocking, so "inject, then assert"
        /// needs no settle time.
        pub fn crash(&self, node: sss_types::NodeId) {
            self.core.control(node, $crate::CtlMsg::Crash);
        }

        /// Resumes a crashed `node` with its state intact.
        pub fn resume(&self, node: sss_types::NodeId) {
            self.core.control(node, $crate::CtlMsg::Resume);
        }

        /// Injects a transient fault at `node`.
        pub fn corrupt(&self, node: sss_types::NodeId, seed: u64) {
            self.core.control(node, $crate::CtlMsg::Corrupt(seed));
        }

        /// Detectably restarts `node`: all its variables are re-initialized
        /// (also clears a crash).
        pub fn restart(&self, node: sss_types::NodeId) {
            self.core.control(node, $crate::CtlMsg::Restart);
        }

        /// Puts `node` into Byzantine `behavior`: every message it sends
        /// from now on is rewritten through the shared sender-side hook
        /// ([`sss_net::ByzState`]), exactly as the simulator rewrites it
        /// for the same plan — before the link model and the wire codec,
        /// so forged copies leave well-formed and checksummed.
        /// [`ByzBehavior::Honest`](sss_types::ByzBehavior::Honest) clears
        /// the mode.
        pub fn set_byzantine(&self, node: sss_types::NodeId, behavior: sss_types::ByzBehavior) {
            self.core.control(node, $crate::CtlMsg::Byzantine(behavior));
        }

        /// Returns once every hosted, non-crashed node has completed `k`
        /// more `do forever` iterations than it had on entry — the counted
        /// replacement for "sleep a few rounds" wherever gossip must have
        /// gone round (a populated heard-matrix, a healed corruption). An
        /// iteration is counted before its messages are flushed, so only
        /// the first `k − 1` awaited iterations are known to have sent
        /// theirs.
        ///
        /// # Panics
        ///
        /// If the rounds have not happened 10 s past their schedule: some
        /// driver is stuck inside an engine, and hanging would hide it.
        pub fn await_rounds(&self, k: u32) {
            self.core.await_rounds(k);
        }

        /// Cuts or restores the directed link `from → to` in the shared
        /// fault plane; while down, every message on it is dropped (the
        /// protocols' retransmission masks transient cuts; a full
        /// partition blocks minority sides).
        pub fn set_link(&self, from: sss_types::NodeId, to: sss_types::NodeId, up: bool) {
            self.core.shared.set_link(from, to, up);
        }

        /// Partitions the cluster into `groups` using the shared
        /// fault-plane semantics ([`sss_net::cut_matrix`]): links between
        /// different groups are cut in both directions, links within a
        /// group restored, ungrouped nodes isolated. Accepts any group
        /// representation (`&[&[NodeId]]` literals, the
        /// [`FaultPlan`](sss_net::FaultPlan)'s `&[Vec<NodeId>]`, …).
        pub fn partition<G: AsRef<[sss_types::NodeId]>>(&self, groups: &[G]) {
            self.core.shared.partition(groups);
        }

        /// Restores every link.
        pub fn heal_partition(&self) {
            self.core.shared.heal_partition();
        }

        /// Replays a shared fault plan against this cluster, blocking until
        /// the last event has fired. Model times scale onto the wall clock
        /// via [`ClusterConfig::wall_offset`](crate::ClusterConfig::wall_offset);
        /// corruptions draw their seed from the plan
        /// ([`FaultPlan::corruption_seed`](sss_net::FaultPlan::corruption_seed)),
        /// so the post-fault state matches a simulator replay of the same
        /// plan.
        ///
        /// # Panics
        ///
        /// If the plan is malformed for this cluster size
        /// (`FaultPlan::validate`), or targets a node another process
        /// hosts.
        pub fn apply_plan(&self, plan: &sss_net::FaultPlan) {
            self.core.apply_plan(plan);
        }

        /// A copy of the recorded client-boundary history.
        pub fn history(&self) -> sss_types::History {
            self.core.shared.history.lock().clone()
        }

        /// Messages dropped so far by the link model (loss, capacity,
        /// partition), by crashed receivers, and — over sockets — as
        /// checksum-rejected frames.
        pub fn messages_dropped(&self) -> u64 {
            let dropped = &self.core.shared.dropped;
            dropped.load(std::sync::atomic::Ordering::Relaxed)
        }

        /// Message-plane counters: deliveries, coalesced sends, applied
        /// batches, completed rounds, and on sockets the syscall and frame
        /// counters.
        pub fn net_stats(&self) -> $crate::NetStats {
            self.core.shared.net_stats()
        }

        /// The trace plane this cluster emits through
        /// ([`Tracer::off`](sss_obs::Tracer::off) unless built with
        /// `new_traced`).
        pub fn tracer(&self) -> &sss_obs::Tracer {
            &self.core.shared.tracer
        }
    };
}

/// How many engine steps one [`Engines::drive`] call spends before it
/// hands what is left of its work-list to a background thread: the bound
/// on how much of other callers' traffic a caller helps with on its own
/// operation's path (an uncontended in-process write on `n` nodes takes
/// about `3n`).
const DRIVE_BUDGET: usize = 256;

/// How far past their schedule [`Engines::await_rounds`] lets the awaited
/// rounds run before it declares the round drivers broken.
const AWAIT_ROUNDS_GUARD: Duration = Duration::from_secs(10);

/// The state of a transport that every driver shares, outside the
/// engine locks.
pub(crate) trait Transport {
    /// Shared transport state (the heartbeat handle, the node sockets).
    type Net: Send + Sync;
}

/// Where a node's flush sends its peer traffic — the one thing the two
/// backends do differently.
pub(crate) trait Wire<P: Protocol>: Transport + Sized + Send + 'static {
    /// Whether a driver's re-check after unlocking also covers a round
    /// deadline that passed while it held the engine. A backend whose
    /// round timer thread may have walked away from that engine needs it;
    /// the in-process heartbeat simply fires the round on its next scan.
    const RECHECK_ROUNDS: bool;
    /// How long a client whose own drive did not finish its operation
    /// yields and re-polls for the reply before it parks on the reply
    /// channel — worth it only while the reply is a few engine steps
    /// away, about what the park and its wake-up would cost.
    const PATIENCE: Duration;
    /// Carries one peer message that passed the link model — twice when
    /// the link duplicated it.
    fn send(
        &mut self,
        eng: &Engines<P, Self>,
        work: &mut WorkList,
        me: NodeId,
        to: NodeId,
        msg: P::Msg,
        duplicate: bool,
    );
    /// Ends one flush's peer traffic.
    fn finish(&mut self, eng: &Engines<P, Self>, me: NodeId);
    /// A drive spent its budget with `node` still owing work: wakes the
    /// background thread that will pick it up.
    fn hand_off(eng: &Engines<P, Self>, node: usize);
}

/// The in-process wire: a send is a push into the peer's inbox, and the
/// peer goes onto the pushing driver's work-list.
pub(crate) struct InProc;

impl Transport for InProc {
    /// The heartbeat thread, for the `unpark` of a hand-off.
    type Net = OnceLock<Thread>;
}

impl<P: Protocol> Wire<P> for InProc {
    const RECHECK_ROUNDS: bool = false;
    /// When the client's own drive did not finish the operation, another
    /// driver holds the engine that will, a few engine steps away: with a
    /// processor to spare the yield returns at once (a poll loop), without
    /// one it runs that driver.
    const PATIENCE: Duration = Duration::from_micros(50);

    #[inline]
    fn send(
        &mut self,
        eng: &Engines<P, Self>,
        work: &mut WorkList,
        me: NodeId,
        to: NodeId,
        msg: P::Msg,
        duplicate: bool,
    ) {
        let inbox = &eng.slots[to.index()].inbox;
        if duplicate {
            inbox.push_data(me, msg.clone());
        }
        inbox.push_data(me, msg);
        work.push(to.index());
    }

    #[inline]
    fn finish(&mut self, _: &Engines<P, Self>, _: NodeId) {}

    fn hand_off(eng: &Engines<P, Self>, _: usize) {
        if let Some(heartbeat) = eng.net.get() {
            heartbeat.unpark();
        }
    }
}

/// The node engines of one cluster and the rules for driving them.
///
/// Whoever pushes into a node's inbox — a client invoking, a control
/// call, another node's flush, a socket reactor that received datagrams —
/// then [drives](Engines::drive) it: `try_lock` the engine, step it, and
/// step the nodes that step sent to, from an explicit work-list. A thread
/// holds **at most one** engine lock at a time and takes no engine lock
/// below any other lock (engine → inbox / links / history, never engine →
/// engine), so drivers cannot deadlock; a `try_lock` that loses walks away
/// and is covered by the holder, which re-checks the node *after*
/// unlocking.
pub(crate) struct Engines<P: Protocol, W: Transport> {
    pub(crate) slots: Vec<Slot<P, W>>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) cfg: ClusterConfig,
    /// The nodes this process runs (all of them but on a multi-process
    /// socket cluster); the other slots stay empty.
    pub(crate) hosted: Range<usize>,
    /// Tells the background threads to exit.
    pub(crate) stop: AtomicBool,
    pub(crate) net: W::Net,
}

/// One node's place in [`Engines`].
pub(crate) struct Slot<P: Protocol, W> {
    pub(crate) inbox: Arc<NodeInbox<P::Msg>>,
    /// `None` once the cluster halted and took the state out, and for a
    /// node another process hosts.
    pub(crate) engine: Mutex<Option<Node<P, W>>>,
    /// When the node's next `do forever` iteration is due, in wall µs on
    /// [`Shared::started`]. Written only under the engine lock (which is
    /// what makes the first driver past the deadline the one that fires
    /// the round); read lock-free by the round timers.
    pub(crate) next_round: AtomicU64,
}

impl<P: Protocol, W> Slot<P, W> {
    /// A slot whose first round is due at `first_round` (wall µs).
    pub(crate) fn new(engine: Option<Node<P, W>>, first_round: u64) -> Self {
        Slot {
            inbox: Arc::new(NodeInbox::new()),
            engine: Mutex::new(engine),
            next_round: AtomicU64::new(first_round),
        }
    }
}

/// One node's engine state — the protocol instance and the buffers its
/// steps reuse (effects, coalescing outbox, link-verdict scratch, the two
/// drain lanes, the wire's send state), so steady-state steps allocate
/// nothing.
pub(crate) struct Node<P: Protocol, W> {
    pub(crate) proto: P,
    pending: Vec<(OpId, Sender<OpResponse>)>,
    crashed: bool,
    /// Stabilization probe: set when a corruption lands, cleared (with a
    /// `Stabilized` trace event) once the protocol's local invariants
    /// hold again. Only maintained while the tracer is on.
    tainted: bool,
    fx: Effects<P::Msg>,
    outbox: Outbox<P::Msg>,
    verdicts: Vec<Verdicted<P::Msg>>,
    ctl: Vec<CtlMsg>,
    batch: Vec<(NodeId, P::Msg)>,
    /// Byzantine rewrite state (None = honest), armed by the fault plane;
    /// seeded from the cluster seed so a plan replays the same lies here
    /// as on the simulator.
    byz: Option<ByzState<P::Msg>>,
    /// Last epoch observed by the EpochChange trace probe.
    last_epoch: u64,
    wire: W,
}

/// The nodes a driver still has to step, each at most once in the queue.
pub(crate) struct WorkList {
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

    pub(crate) fn push(&mut self, i: usize) {
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

impl<P: Protocol + 'static, W: Wire<P>> Engines<P, W> {
    /// A blocking client bound to `node`: every invocation is followed by
    /// a [drive](Engines::drive) of `node` on the invoking thread.
    pub(crate) fn client(self: &Arc<Self>, node: NodeId) -> Client<P> {
        self.assert_hosted(node);
        let core = Arc::clone(self);
        Client {
            inbox: Arc::clone(&self.slots[node.index()].inbox),
            node,
            shared: Arc::clone(&self.shared),
            timeout: self.cfg.op_timeout,
            invoke_cap: self.cfg.invoke_queue,
            nudge: Arc::new(move || core.drive(node.index())),
            patience: W::PATIENCE,
        }
    }
}

impl<P: Protocol, W: Transport> Engines<P, W> {
    fn assert_hosted(&self, node: NodeId) {
        assert!(
            self.hosted.contains(&node.index()),
            "{node:?} is hosted by another process"
        );
    }

    /// Whether node `i`'s round deadline has passed.
    fn round_due(&self, i: usize) -> bool {
        self.slots[i].next_round.load(Ordering::Relaxed) <= self.shared.now_us()
    }

    /// The earliest round deadline over all nodes (wall µs).
    pub(crate) fn next_round(&self) -> u64 {
        let due = |s: &Slot<P, W>| s.next_round.load(Ordering::Relaxed);
        self.slots.iter().map(due).min().unwrap_or(u64::MAX)
    }

    /// Closes every inbox and takes the hosted engines out (dropping their
    /// reply senders, so a client still blocked on one sees the
    /// disconnect), returning the final protocol states in node order.
    /// Idempotent: a second call finds nothing left to take.
    pub(crate) fn take_nodes(&self) -> Vec<P> {
        let shared = &self.shared;
        let protos = self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.inbox.close();
            let node = slot.engine.lock().take()?;
            // Final stats publish so `net_stats` reflects the whole run
            // even when the last round never fired.
            shared.stale_epoch_dropped[i]
                .store(node.proto.stats().stale_epoch_dropped, Ordering::Relaxed);
            Some(node.proto)
        });
        protos.collect()
    }
}

impl<P: Protocol, W: Wire<P>> Engines<P, W> {
    /// Steps node `start` and everything its steps deliver to, until the
    /// work-list is empty or [`DRIVE_BUDGET`] is spent; what is left then
    /// goes to a background thread ([`Wire::hand_off`]).
    pub(crate) fn drive(&self, start: usize) {
        let mut work = WorkList::new(self.slots.len());
        work.push(start);
        let mut budget = DRIVE_BUDGET;
        while let Some(i) = work.pop() {
            if budget == 0 {
                W::hand_off(self, i);
                return;
            }
            budget -= 1;
            let slot = &self.slots[i];
            // A busy engine is its holder's to re-check, below.
            let Some(mut engine) = slot.engine.try_lock() else {
                continue;
            };
            let Some(node) = engine.as_mut() else {
                continue;
            };
            node.step(NodeId(i), self, &mut work);
            drop(engine);
            // After the unlock: a push that arrived while this thread held
            // the engine found `try_lock` busy and walked away, and so did
            // a round timer that found the deadline passed.
            if slot.inbox.has_work() || (W::RECHECK_ROUNDS && self.round_due(i)) {
                work.push(i);
            }
        }
    }

    /// Applies a fault-plane control message to `node` **before
    /// returning**: the engine lock is taken blocking, so "inject, then
    /// assert" needs no settle time. Having held the lock, this thread
    /// owes the node a step for any push that lost its `try_lock`
    /// meanwhile.
    pub(crate) fn control(&self, node: NodeId, c: CtlMsg) {
        self.assert_hosted(node);
        if let Some(engine) = self.slots[node.index()].engine.lock().as_mut() {
            engine.control(node, c, self);
        }
        self.drive(node.index());
    }

    /// See [`Cluster::await_rounds`](crate::Cluster::await_rounds).
    pub(crate) fn await_rounds(&self, k: u32) {
        let shared = &self.shared;
        let count = |i: usize| shared.round_counts[i].load(Ordering::Relaxed);
        let target: Vec<(usize, u64)> = self
            .hosted
            .clone()
            .map(|i| (i, count(i) + u64::from(k)))
            .collect();
        let guard = Instant::now() + self.cfg.round_interval * k + AWAIT_ROUNDS_GUARD;
        while target
            .iter()
            .any(|&(i, t)| !shared.crashed[i].load(Ordering::Relaxed) && count(i) < t)
        {
            assert!(Instant::now() < guard, "await_rounds({k}): rounds stalled");
            sleep_until(shared.started + Duration::from_micros(self.next_round()));
            // Past the deadline any driver fires the round — this one too,
            // rather than waiting until a round timer is scheduled.
            self.hosted.clone().for_each(|i| self.drive(i));
        }
    }

    /// Replays a shared fault plan, blocking until the last event has
    /// fired (see [`Cluster::apply_plan`](crate::Cluster::apply_plan)).
    pub(crate) fn apply_plan(&self, plan: &FaultPlan) {
        if let Err(e) = plan.validate(self.cfg.n) {
            panic!("malformed fault plan: {e}");
        }
        let start = Instant::now();
        for (t, ev) in plan.sorted_events() {
            // Every event's deadline is anchored to the plan's start, not
            // to the previous event, so sleep overshoot cannot accumulate
            // across a long plan (`sleep_until` re-arms after early
            // wakeups and is a no-op for deadlines already past).
            sleep_until(start + self.cfg.wall_offset(t));
            let shared = &self.shared;
            match ev {
                FaultEvent::Crash(node) => self.control(*node, CtlMsg::Crash),
                FaultEvent::Resume(node) => self.control(*node, CtlMsg::Resume),
                FaultEvent::Restart(node) => self.control(*node, CtlMsg::Restart),
                FaultEvent::Corrupt(node) => {
                    self.control(*node, CtlMsg::Corrupt(plan.corruption_seed(t, *node)))
                }
                FaultEvent::Partition(groups) => shared.partition(groups),
                FaultEvent::Heal => shared.heal_partition(),
                FaultEvent::SetLink { from, to, up } => shared.set_link(*from, *to, *up),
                FaultEvent::Byzantine { node, behavior } => {
                    self.control(*node, CtlMsg::Byzantine(*behavior))
                }
            }
        }
    }
}

impl<P: Protocol, W> Node<P, W> {
    pub(crate) fn new(proto: P, cfg: &ClusterConfig, wire: W) -> Self {
        assert_eq!(proto.n(), cfg.n, "protocol instance disagrees about n");
        Node {
            proto,
            pending: Vec::new(),
            crashed: false,
            tainted: false,
            fx: Effects::new(),
            outbox: Outbox::new(cfg.n).with_coalescing(cfg.batch.coalesce),
            verdicts: Vec::new(),
            ctl: Vec::new(),
            batch: Vec::new(),
            byz: None,
            last_epoch: 0,
            wire,
        }
    }

    /// The trace probes (caller has already checked `tracer.is_on()`):
    /// if the node is tainted by a corruption and its local invariants
    /// hold again, clear the taint and emit [`TraceEvent::Stabilized`];
    /// if its bounded-counter epoch moved, emit
    /// [`TraceEvent::EpochChange`] (protocols without an epoch envelope
    /// never do).
    fn probe(&mut self, shared: &Shared) {
        let p = &self.proto;
        if self.tainted && p.local_invariants_hold() {
            self.tainted = false;
            let node = p.id();
            shared
                .tracer
                .emit(shared.model_now(), TraceEvent::Stabilized { node });
        }
        if let Some(epoch) = p.epoch_probe().filter(|&e| e != self.last_epoch) {
            self.last_epoch = epoch;
            let (node, stale_dropped) = (p.id(), p.stats().stale_epoch_dropped);
            shared.tracer.emit(
                shared.model_now(),
                TraceEvent::EpochChange {
                    node,
                    epoch,
                    stale_dropped,
                },
            );
        }
    }
}

impl<P: Protocol, W: Wire<P>> Node<P, W> {
    /// Applies one control-plane message: a client invocation drained
    /// from the inbox, or a fault injection applied synchronously by
    /// [`Engines::control`].
    fn control(&mut self, me: NodeId, c: CtlMsg, eng: &Engines<P, W>) {
        let shared = &*eng.shared;
        match c {
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

    /// One engine step, run under the node's engine lock by whichever
    /// thread is driving: take all queued invocations and up to
    /// `max_batch` data messages without blocking, run the `do forever`
    /// iteration if it is due, apply the data as one protocol step, and
    /// flush once. Every node the flush delivers to in process goes onto
    /// `work`.
    fn step(&mut self, me: NodeId, eng: &Engines<P, W>, work: &mut WorkList) {
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

    /// Flushes one step's accumulated effects: sends (coalesced per
    /// destination, then either fast-pathed straight to the wire or run
    /// through the link model under a **single** lock acquisition),
    /// completions, and aborts. Self-sends bypass the link model and the
    /// wire onto the node's own inbox data lane (the driver's inbox
    /// re-check finds them). Returns the number of sends absorbed by
    /// coalescing.
    ///
    /// Lock discipline: the links lock is only ever held while
    /// *computing verdicts* — never across a send — and the drain copies
    /// out of the inbox and releases it before the link model is touched,
    /// so `links → inbox` nesting cannot deadlock.
    fn flush(&mut self, me: NodeId, eng: &Engines<P, W>, work: &mut WorkList) -> u64 {
        let shared = &*eng.shared;
        let epoch = self.proto.epoch_probe().unwrap_or(0);
        let tracing = shared.tracer.is_on();
        let coalesced_before = self.outbox.coalesced();
        for (to, msg) in self.fx.drain_sends() {
            // The Byzantine plane sits here — after the protocol produced
            // the send, before coalescing, the link model and the wire
            // codec (so forged copies leave correctly checksummed) — the
            // same logical point as the simulator's rewrite.
            // Self-deliveries are never rewritten (a node cannot lie to
            // itself).
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
            // fault plane (the fault shim). Delay verdicts are ignored:
            // thread scheduling and the kernel already make delivery timing
            // asynchronous — which is also why the fast path below may skip
            // the model entirely when it could only have drawn those
            // ignored coins.
            if shared.net_transparent_base && !shared.links_dirty.load(Ordering::Relaxed) {
                for (to, msg) in self.outbox.drain() {
                    if tracing {
                        emit_send(shared, me, to, &msg);
                    }
                    self.wire.send(eng, work, me, to, msg, false);
                }
            } else {
                {
                    let mut links = shared.links.lock();
                    for (to, msg) in self.outbox.drain() {
                        let verdict = match links.on_send(me, to) {
                            LinkVerdict::Deliver { duplicate, .. } => Ok(duplicate.is_some()),
                            LinkVerdict::Drop(reason) => Err(reason),
                        };
                        self.verdicts.push(Verdicted { to, msg, verdict });
                    }
                }
                for Verdicted { to, msg, verdict } in self.verdicts.drain(..) {
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
                        Ok(duplicate) => self.wire.send(eng, work, me, to, msg, duplicate),
                    }
                }
            }
            self.wire.finish(eng, me);
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

/// A wire message with its link-model verdict, staged so verdicts are
/// drawn under one link lock and sends made after it is released.
struct Verdicted<M> {
    to: NodeId,
    msg: M,
    /// `Ok(duplicate?)` to deliver, `Err(reason)` if the link dropped it.
    verdict: Result<bool, DropReason>,
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
