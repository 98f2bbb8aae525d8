//! The node engine both cluster shells run.
//!
//! A node is a passive [`Node`] — its protocol instance and the buffers
//! its steps reuse — and it advances only when some thread runs
//! [`Node::step`] on it. The right to step engines belongs to a *driver
//! domain*: one lock over a set of engines and the work-list their holder
//! drives them from. [`Cluster`](crate::Cluster) and
//! [`SocketCluster`](crate::SocketCluster) share all of it: the step
//! (drain → round → batch → flush), the control plane, the driver rules
//! of [`Engines::drive`], `await_rounds` and fault-plan replay. They differ
//! in where a flush sends a node's peer traffic and in how wide a domain
//! is, which is the [`Wire`] type parameter: [`InProc`] pushes into the
//! peer's inbox and puts the peer on the driver's work-list, with one
//! domain per cluster (one thread at a time steps all of its engines);
//! the socket backend packs frames per peer for one `sendmmsg`, with one
//! domain per node (its reactors step nodes in parallel). The parameter
//! is monomorphised, so neither backend's hot path pays for the other's.

use crate::{sleep_until, Client, ClusterConfig, CtlMsg, NodeInbox, Shared};
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_net::{DropReason, FaultEvent, FaultPlan, LinkVerdict, Process};
use sss_obs::{DropCause, TraceEvent};
use sss_types::{Effects, NodeId, OpId, OpResponse, Outbox, ProtoMsg, Protocol};
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
        /// the node's driver domain is taken blocking, so "inject, then
        /// assert" needs no settle time.
        pub fn crash(&self, node: sss_types::NodeId) {
            self.core.fault(sss_net::FaultEvent::Crash(node), 0);
        }

        /// Resumes a crashed `node` with its state intact.
        pub fn resume(&self, node: sss_types::NodeId) {
            self.core.fault(sss_net::FaultEvent::Resume(node), 0);
        }

        /// Injects a transient fault at `node`.
        pub fn corrupt(&self, node: sss_types::NodeId, seed: u64) {
            self.core.fault(sss_net::FaultEvent::Corrupt(node), seed);
        }

        /// Detectably restarts `node`: all its variables are re-initialized
        /// (also clears a crash).
        pub fn restart(&self, node: sss_types::NodeId) {
            self.core.fault(sss_net::FaultEvent::Restart(node), 0);
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
        /// driver is stuck inside a domain, and hanging would hide it.
        pub fn await_rounds(&self, k: u32) {
            self.core.await_rounds(k);
        }

        /// Cuts or restores the directed link `from → to` in the shared
        /// fault plane; while down, every message on it is dropped (the
        /// protocols' retransmission masks transient cuts; a full
        /// partition blocks minority sides).
        pub fn set_link(&self, from: sss_types::NodeId, to: sss_types::NodeId, up: bool) {
            self.core
                .fault(sss_net::FaultEvent::SetLink { from, to, up }, 0);
        }

        /// Partitions the cluster into `groups` using the shared
        /// fault-plane semantics ([`sss_net::cut_matrix`]): links between
        /// different groups are cut in both directions, links within a
        /// group restored, ungrouped nodes isolated. Accepts any group
        /// representation (`&[&[NodeId]]` literals, the
        /// [`FaultPlan`](sss_net::FaultPlan)'s `&[Vec<NodeId>]`, …).
        pub fn partition<G: AsRef<[sss_types::NodeId]>>(&self, groups: &[G]) {
            let groups = groups.iter().map(|g| g.as_ref().to_vec()).collect();
            self.core.fault(sss_net::FaultEvent::Partition(groups), 0);
        }

        /// Restores every link.
        pub fn heal_partition(&self) {
            self.core.fault(sss_net::FaultEvent::Heal, 0);
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

        /// Message-plane counters: deliveries, applied batches, completed
        /// rounds, and on sockets the syscall and frame counters.
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

/// How many engine steps one [`Engines::drive`] call spends, over all the
/// times it takes the domain, before it hands what is left of the
/// work-list to a background thread: the bound on how much of other
/// callers' traffic a caller carries on its own operation's path (an
/// uncontended in-process write on `n` nodes takes about `3n`).
const DRIVE_BUDGET: usize = 256;

/// The most data messages one engine step drains and applies as one
/// protocol step before it flushes and re-checks control traffic.
const MAX_BATCH: usize = 1024;

/// How far past their schedule [`Engines::await_rounds`] lets the awaited
/// rounds run before it declares the round drivers broken.
const AWAIT_ROUNDS_GUARD: Duration = Duration::from_secs(10);

/// The state of a transport that every driver shares, outside the
/// domain locks.
pub(crate) trait Transport {
    /// Shared transport state (the heartbeat handle, the node sockets).
    type Net: Send + Sync;
    /// Whether one driver domain spans all of a cluster's engines, so one
    /// thread at a time steps them all, rather than one domain per node.
    const CLUSTER_DOMAIN: bool;
}

/// Where a node's flush sends its peer traffic — with the width of a
/// driver domain ([`Transport::CLUSTER_DOMAIN`]), what the two backends
/// do differently.
pub(crate) trait Wire<P: Protocol>: Transport + Sized + Send + 'static {
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

/// The in-process cluster's one background thread, as drivers see it.
pub(crate) struct Heartbeat {
    /// For the `unpark` of a hand-off.
    pub(crate) thread: OnceLock<Thread>,
    /// How many times it has woken to look at the engines.
    pub(crate) wakes: AtomicU64,
}

impl Transport for InProc {
    type Net = Heartbeat;
    /// The paper's processes are sequential state machines exchanging
    /// messages, so stepping them from one core at a time allows every
    /// execution the model does, and keeps the engines' state on the core
    /// that steps them.
    const CLUSTER_DOMAIN: bool = true;
}

impl<P: Protocol> Wire<P> for InProc {
    /// When the client's own drive did not finish the operation, the
    /// domain's holder will, a few engine steps away: with a processor to
    /// spare the yield returns at once (a poll loop), without one it runs
    /// that holder.
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
        if let Some(heartbeat) = eng.net.thread.get() {
            heartbeat.unpark();
        }
    }
}

/// The node engines of one cluster and the rules for driving them.
///
/// Whoever pushes into a node's inbox — a client invoking, a control
/// call, another node's flush, a socket reactor that received datagrams —
/// then [drives](Engines::drive) it: `try_lock` the node's driver domain,
/// step the node, and step the nodes that step sent to, from the domain's
/// work-list. A thread holds **at most one** domain lock at a time and
/// takes none below any other lock (domain → inbox / links / history,
/// never domain → domain), so drivers cannot deadlock; a `try_lock` that
/// loses walks away and is covered by the holder, which re-scans the
/// domain's nodes *after* releasing it.
pub(crate) struct Engines<P: Protocol, W: Transport> {
    pub(crate) slots: Vec<Slot<P>>,
    domains: Vec<Mutex<Domain<P, W>>>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) cfg: ClusterConfig,
    /// The nodes this process runs (all of them but on a multi-process
    /// socket cluster); the other slots stay empty.
    pub(crate) hosted: Range<usize>,
    /// Tells the background threads to exit.
    pub(crate) stop: AtomicBool,
    pub(crate) net: W::Net,
}

/// What drivers reach of one node without holding its domain.
pub(crate) struct Slot<P: Protocol> {
    pub(crate) inbox: Arc<NodeInbox<P::Msg>>,
    /// When the node's next `do forever` iteration is due, in wall µs on
    /// [`Shared::started`]. Written only under the domain lock (which is
    /// what makes the first driver past the deadline the one that fires
    /// the round); read lock-free by the round timers.
    pub(crate) next_round: AtomicU64,
}

/// One driver domain: the engines one lock gives the right to step, and
/// the work-list their holder drives them from — kept between holders,
/// so a drive allocates nothing.
struct Domain<P: Protocol, W> {
    /// The domain's first node: `engines[k]` is node `first + k`.
    first: usize,
    /// `None` once the cluster halted and took the state out, and for a
    /// node another process hosts.
    engines: Vec<Option<Node<P, W>>>,
    work: WorkList,
}

/// One node's engine state — the process (its protocol instance under
/// the shared fault model) and the buffers its steps reuse (effects,
/// outbox, link-verdict scratch, the two drain lanes, the
/// wire's send state), so steady-state steps allocate nothing.
pub(crate) struct Node<P: Protocol, W> {
    process: Process<P>,
    pending: Vec<(OpId, Sender<OpResponse>)>,
    fx: Effects<P::Msg>,
    outbox: Outbox<P::Msg>,
    verdicts: Vec<Verdicted<P::Msg>>,
    ctl: Vec<CtlMsg>,
    batch: Vec<(NodeId, P::Msg)>,
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

/// What a thread that fires rounds — the in-process heartbeat, a socket
/// reactor, `await_rounds` — remembers between looks: per node, a passed
/// deadline it found the node's domain held on. The holder re-scans after
/// releasing and so owes that node its round; the timer does not look at
/// the deadline again (it would find it passed at once, and spin) until
/// the holder has moved it or a round interval has gone by.
pub(crate) struct RoundTimer {
    /// Per node: `(deadline lost on, when to look at it again)`.
    lost: Vec<(u64, u64)>,
}

impl RoundTimer {
    pub(crate) fn new(n: usize) -> Self {
        RoundTimer {
            lost: vec![(u64::MAX, u64::MAX); n],
        }
    }

    /// When (wall µs) node `i`, whose round is due at `deadline`, next
    /// needs this timer.
    fn look_at(&self, i: usize, deadline: u64) -> u64 {
        match self.lost[i] {
            (lost, retry) if lost == deadline => retry,
            _ => deadline,
        }
    }

    /// Drives every node of `nodes` whose round this timer owes, and
    /// returns when (wall µs) it must look next.
    pub(crate) fn fire<P: Protocol, W: Wire<P>>(
        &mut self,
        eng: &Engines<P, W>,
        nodes: impl IntoIterator<Item = usize>,
    ) -> u64 {
        let now = eng.shared.now_us();
        let deadline = |i: usize| eng.slots[i].next_round.load(Ordering::Relaxed);
        let mut next = u64::MAX;
        for i in nodes {
            let mut look = self.look_at(i, deadline(i));
            if look <= now {
                eng.drive(i);
                // A round the drive fired is due past `now`.
                let after = deadline(i);
                if after <= now {
                    self.lost[i] = (after, now + eng.shared.round_us);
                }
                look = self.look_at(i, after);
            }
            next = next.min(look);
        }
        next
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
            nudge: Arc::new(move || core.drive(node.index())),
            patience: W::PATIENCE,
        }
    }
}

impl<P: Protocol, W: Transport> Engines<P, W> {
    /// The engines of a cluster of `nodes.len()` nodes (`None` for a node
    /// another process hosts), grouped into the wire's driver domains,
    /// with every hosted node's first round one interval away.
    pub(crate) fn new(
        nodes: Vec<Option<Node<P, W>>>,
        shared: Arc<Shared>,
        cfg: ClusterConfig,
        hosted: Range<usize>,
        net: W::Net,
    ) -> Self {
        let n = nodes.len();
        let first_round = shared.now_us() + shared.round_us;
        let slots = (0..n)
            .map(|i| Slot {
                inbox: Arc::new(NodeInbox::new()),
                next_round: AtomicU64::new(if hosted.contains(&i) {
                    first_round
                } else {
                    u64::MAX
                }),
            })
            .collect();
        let domain = |first, engines| {
            Mutex::new(Domain {
                first,
                engines,
                work: WorkList::new(n),
            })
        };
        let domains = if W::CLUSTER_DOMAIN {
            vec![domain(0, nodes)]
        } else {
            let per_node = nodes.into_iter().enumerate();
            per_node.map(|(i, node)| domain(i, vec![node])).collect()
        };
        Engines {
            slots,
            domains,
            shared,
            cfg,
            hosted,
            stop: AtomicBool::new(false),
            net,
        }
    }

    fn assert_hosted(&self, node: NodeId) {
        assert!(
            self.hosted.contains(&node.index()),
            "{node:?} is hosted by another process"
        );
    }

    /// Node `i`'s driver domain and the nodes it spans.
    fn domain(&self, i: usize) -> (&Mutex<Domain<P, W>>, Range<usize>) {
        if W::CLUSTER_DOMAIN {
            (&self.domains[0], self.hosted.clone())
        } else {
            (&self.domains[i], i..i + 1)
        }
    }

    /// Closes every inbox and takes the hosted engines out (dropping their
    /// reply senders, so a client still blocked on one sees the
    /// disconnect), returning the final protocol states in node order.
    /// Idempotent: a second call finds nothing left to take.
    pub(crate) fn take_nodes(&self) -> Vec<P> {
        self.slots.iter().for_each(|slot| slot.inbox.close());
        let mut protos = Vec::new();
        for domain in &self.domains {
            let mut domain = domain.lock();
            let first = domain.first;
            for (k, engine) in domain.engines.iter_mut().enumerate() {
                let Some(node) = engine.take() else {
                    continue;
                };
                // Final stats publish so `net_stats` reflects the whole run
                // even when the last round never fired.
                let proto = node.process.into_proto();
                self.shared.stale_epoch_dropped[first + k]
                    .store(proto.stats().stale_epoch_dropped, Ordering::Relaxed);
                protos.push(proto);
            }
        }
        protos
    }
}

impl<P: Protocol, W: Wire<P>> Engines<P, W> {
    /// Steps node `start` and everything its steps deliver to, until the
    /// domain's work-list is empty or [`DRIVE_BUDGET`] is spent; what is
    /// left then goes to a background thread ([`Wire::hand_off`]). A
    /// domain someone else holds is theirs to drive: this returns at once.
    pub(crate) fn drive(&self, start: usize) {
        let (domain, nodes) = self.domain(start);
        let mut budget = DRIVE_BUDGET;
        let mut next = start;
        loop {
            // A held domain is its holder's to re-scan, below.
            let Some(mut held) = domain.try_lock() else {
                return;
            };
            let Domain {
                first,
                engines,
                work,
            } = &mut *held;
            work.push(next);
            while let Some(i) = work.pop() {
                if budget == 0 {
                    work.push(i);
                    drop(held);
                    W::hand_off(self, i);
                    return;
                }
                budget -= 1;
                if let Some(node) = engines[i - *first].as_mut() {
                    node.step(NodeId(i), self, work);
                    // Self-sends, and a backlog past `max_batch`.
                    if self.slots[i].inbox.has_work() {
                        work.push(i);
                    }
                }
            }
            drop(held);
            // After the release: a push, or a round deadline, that found
            // the domain held walked away. A halted cluster owes nothing.
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let now = self.shared.now_us();
            let owes = |i: &usize| {
                let slot = &self.slots[*i];
                slot.inbox.has_work() || slot.next_round.load(Ordering::Relaxed) <= now
            };
            match nodes.clone().find(owes) {
                Some(i) => next = i,
                None => return,
            }
        }
    }

    /// Applies fault `ev` **before returning** — to the links, or to its
    /// process (with `seed` as a corruption's seed) under the node's
    /// domain, taken blocking — so "inject, then assert" needs no settle
    /// time. Having held the domain, this thread owes it the re-scan of a
    /// release, which a drive does.
    pub(crate) fn fault(&self, ev: FaultEvent, seed: u64) {
        let Some(node) = ev.process() else {
            return self.shared.link_fault(&ev);
        };
        self.assert_hosted(node);
        {
            let mut domain = self.domain(node.index()).0.lock();
            let k = node.index() - domain.first;
            if let Some(engine) = domain.engines[k].as_mut() {
                engine.control(node, CtlMsg::Fault { ev, seed }, self);
            }
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
        // Past the deadline any driver fires the round — this one too,
        // rather than waiting until a round timer is scheduled.
        let mut timer = RoundTimer::new(self.cfg.n);
        let mut look = shared.now_us();
        while target
            .iter()
            .any(|&(i, t)| !shared.crashed[i].load(Ordering::Relaxed) && count(i) < t)
        {
            assert!(Instant::now() < guard, "await_rounds({k}): rounds stalled");
            sleep_until(shared.started + Duration::from_micros(look));
            look = timer.fire(self, self.hosted.clone());
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
            let seed = ev.process().map_or(0, |node| plan.corruption_seed(t, node));
            self.fault(ev.clone(), seed);
        }
    }
}

impl<P: Protocol, W> Node<P, W> {
    pub(crate) fn new(proto: P, cfg: &ClusterConfig, wire: W) -> Self {
        assert_eq!(proto.n(), cfg.n, "protocol instance disagrees about n");
        Node {
            // Seeded from the cluster seed, so a plan tells the same lies
            // here as on the simulator.
            process: Process::new(proto, cfg.seed),
            pending: Vec::new(),
            fx: Effects::new(),
            outbox: Outbox::new(cfg.n),
            verdicts: Vec::new(),
            ctl: Vec::new(),
            batch: Vec::new(),
            wire,
        }
    }
}

impl<P: Protocol, W: Wire<P>> Node<P, W> {
    /// Applies one control-plane message: a client invocation drained
    /// from the inbox, or a fault injection applied synchronously by
    /// [`Engines::fault`].
    fn control(&mut self, me: NodeId, c: CtlMsg, eng: &Engines<P, W>) {
        let shared = &*eng.shared;
        match c {
            CtlMsg::Fault { ev, seed } => {
                let rng = &mut StdRng::seed_from_u64(seed);
                let process = &mut self.process;
                process.apply(&ev, rng, &shared.tracer, shared.model_now());
                // The shared flag feeds the failure detector (and the
                // cycle proxy when tracing), so it is kept regardless of
                // tracer state.
                shared.crashed[me.index()].store(process.is_crashed(), Ordering::Relaxed);
            }
            CtlMsg::Invoke { id, op, done } => {
                // A crashed node swallows the invocation but keeps the
                // reply channel open, so the client waits out its full
                // timeout — the same pacing as the simulator's clients
                // against a crashed node.
                self.pending.push((id, done));
                if !self.process.is_crashed() {
                    self.process.proto_mut().invoke(id, op, &mut self.fx);
                }
            }
        }
    }

    /// One engine step, run under the node's domain lock by whichever
    /// thread is driving: take all queued invocations and up to
    /// `max_batch` data messages without blocking, run the `do forever`
    /// iteration if it is due, apply the data as one protocol step, and
    /// flush once. Every node the flush delivers to in process goes onto
    /// `work`.
    fn step(&mut self, me: NodeId, eng: &Engines<P, W>, work: &mut WorkList) {
        let shared = &*eng.shared;
        let slot = &eng.slots[me.index()];
        // The deadline argument is a leftover of the blocking drain.
        let no_wait = shared.started;
        slot.inbox
            .drain(&mut self.ctl, &mut self.batch, MAX_BATCH, no_wait);
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
            if !self.process.is_crashed() {
                let proto = self.process.proto_mut();
                proto.on_round(&mut self.fx);
                shared.round_counts[me.index()].fetch_add(1, Ordering::Relaxed);
                shared.stale_epoch_dropped[me.index()]
                    .store(proto.stats().stale_epoch_dropped, Ordering::Relaxed);
                if shared.tracer.is_on() {
                    shared.on_traced_round(me);
                    self.process.probe(&shared.tracer, shared.model_now());
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
            let senders = self.batch.iter().map(|(f, _)| *f);
            shared.heard(me, senders.filter(|f| *f != me));
            if !self.process.is_crashed() {
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
                let proto = self.process.proto_mut();
                for (from, msg) in self.batch.drain(..) {
                    proto.on_message(from, msg, &mut self.fx);
                }
                shared
                    .delivered
                    .fetch_add(drained as u64, Ordering::Relaxed);
                shared.batches.fetch_add(1, Ordering::Relaxed);
                if tracing {
                    self.process.probe(&shared.tracer, shared.model_now());
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
        // One flush for everything this step produced (invocations, the
        // round, the data batch).
        self.flush(me, eng, work);
        if shared.tracer.is_on() && drained > 0 {
            shared.tracer.emit(
                shared.model_now(),
                TraceEvent::BatchDrain {
                    node: me,
                    drained: drained as u32,
                    coalesced: 0,
                },
            );
        }
    }

    /// Flushes one step's accumulated effects: sends (every one, in
    /// emission order, either fast-pathed straight to the wire or run
    /// through the link model under a **single** lock acquisition),
    /// completions, and aborts. Self-sends bypass the link model and the
    /// wire onto the node's own inbox data lane (the driver's inbox
    /// re-check finds them).
    ///
    /// Lock discipline: the links lock is only ever held while
    /// *computing verdicts* — never across a send — and the drain copies
    /// out of the inbox and releases it before the link model is touched,
    /// so `links → inbox` nesting cannot deadlock.
    fn flush(&mut self, me: NodeId, eng: &Engines<P, W>, work: &mut WorkList) {
        let shared = &*eng.shared;
        let epoch = self.process.proto().epoch_probe().unwrap_or(0);
        let tracing = shared.tracer.is_on();
        let lying = self.process.is_byzantine();
        for (to, msg) in self.fx.drain_sends() {
            // The Byzantine hook sits here — after the protocol produced
            // the send, before the link model and the wire codec (so
            // forged copies leave correctly checksummed) — the same
            // logical point as the simulator's rewrite.
            let msg = if lying {
                self.process.rewrite(to, msg)
            } else {
                msg
            };
            if to == me {
                // Self-delivery: reliable, immediate (an internal step) —
                // bypasses the link model and the outbox.
                if tracing {
                    emit_send(shared, me, to, &msg);
                }
                eng.slots[me.index()].inbox.push_data(me, msg);
            } else {
                self.outbox.push(to, msg);
            }
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

/// Emits the `Send` trace event of `msg` on `from → to` (caller has
/// already checked `tracer.is_on()`).
fn emit_send<M: ProtoMsg>(shared: &Shared, from: NodeId, to: NodeId, msg: &M) {
    shared.tracer.emit(
        shared.model_now(),
        TraceEvent::Send {
            from,
            to,
            kind: msg.kind(),
            bits: msg.size_bits(sss_types::NU_BITS),
        },
    );
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, ClusterConfig};
    use sss_core::Alg1;
    use sss_types::NodeId;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    /// The failure detector counts the suspecting node's rounds, so a
    /// freeze of every engine (the one driver domain held for three
    /// suspicion windows) indicts nobody, where a clock-reading detector
    /// suspects every peer. A crashed majority is still indicted within
    /// `K + 1` of the survivor's rounds, `K = suspect_after / round_interval`.
    #[test]
    fn a_freeze_indicts_nobody_and_a_crashed_majority_is_indicted_in_k_plus_one_rounds() {
        let cfg = ClusterConfig::new(3);
        let k = (cfg.suspect_after.as_micros() / cfg.round_interval.as_micros()) as u32;
        let cluster = Cluster::new(cfg, |id| Alg1::new(id, 3));
        // Every node has heard every peer: silence now counts.
        cluster.await_rounds(2);
        {
            let _held = cluster.core.domains[0].lock();
            std::thread::sleep(3 * cluster.config().suspect_after);
        }
        for i in 0..3 {
            let verdict = cluster.availability(NodeId(i));
            assert_eq!(verdict, None, "p{i} was indicted by a freeze");
        }
        cluster.crash(NodeId(1));
        cluster.crash(NodeId(2));
        cluster.await_rounds(k + 1);
        let ev = cluster
            .availability(NodeId(0))
            .expect("the majority is indicted");
        assert_eq!(ev.suspected, [NodeId(1), NodeId(2)]);
        assert_eq!((ev.node_crashed, ev.reachable, ev.required), (false, 1, 2));
        assert!(ev.silent_rounds >= u64::from(k), "{ev:?}");
        cluster.shutdown();
    }

    /// A heartbeat that finds the cluster's driver domain held on a passed
    /// round deadline leaves the round to the holder and parks past the
    /// deadline, so while a client's drive holds the domain the heartbeat
    /// wakes about once per round interval. One that spun on the passed
    /// deadline fails this by counts: its twenty wakes would come just
    /// after the first deadline, not over ten round intervals.
    #[test]
    fn heartbeat_parks_while_the_domain_is_held() {
        let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
        let core = &cluster.core;
        let wakes = || core.net.wakes.load(Ordering::Relaxed);
        let rounds = cluster.net_stats().rounds;
        {
            // As a client's drive holds it.
            let _held = core.domains[0].lock();
            let (from, start) = (wakes(), Instant::now());
            let guard = start + Duration::from_secs(10);
            while wakes() < from + 20 {
                assert!(Instant::now() < guard, "the heartbeat stopped waking");
                std::thread::yield_now();
            }
            let intervals = start.elapsed().as_micros() / core.cfg.round_interval.as_micros();
            assert!(
                intervals >= 10,
                "the heartbeat woke 20 times in {intervals} round intervals"
            );
            assert_eq!(cluster.net_stats().rounds, rounds, "the domain was held");
        }
        // Nothing re-scanned when this thread released the domain; the
        // heartbeat looks again one interval after each round it lost.
        cluster.await_rounds(2);
        cluster.shutdown();
    }
}
