//! The simulation loop: nodes, channels, faults, drivers.

use crate::config::SimConfig;
use crate::cycles::CycleTracker;
use crate::event::{Ev, EventQueue};
use crate::metrics::Metrics;
use crate::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sss_net::{FaultEvent, FaultPlan, LinkModel, LinkVerdict, Process};
use sss_obs::{DropCause, TraceEvent, Tracer};
use sss_types::{
    ArbitraryMsg, Effects, History, NodeId, OpClass, OpId, OpResponse, ProcessSet, ProtoMsg,
    Protocol, SnapshotOp,
};

/// Uniform jitter (virtual µs) added to each round's schedule,
/// de-synchronizing nodes (an asynchronous system has no common clock).
const ROUND_JITTER: SimTime = 10;

/// A workload driver: receives completion callbacks and may schedule
/// further operations, implementing closed-loop workloads (think of it as
/// the application sitting on top of the snapshot object).
///
/// All methods have empty defaults; [`NoDriver`] is the trivial driver for
/// pre-scheduled runs.
pub trait Driver<P: Protocol> {
    /// Called once before the first event is processed.
    fn init(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        let _ = ctl;
    }

    /// Called when an operation completes at `node`.
    fn on_completion(
        &mut self,
        node: NodeId,
        id: OpId,
        resp: &OpResponse,
        ctl: &mut Ctl<'_, P::Msg>,
    ) {
        let _ = (node, id, resp, ctl);
    }

    /// Called when an operation is aborted by a global reset.
    fn on_abort(&mut self, node: NodeId, id: OpId, ctl: &mut Ctl<'_, P::Msg>) {
        let _ = (node, id, ctl);
    }

    /// Called when a wake-up scheduled via [`Ctl::wake_at`] fires.
    fn on_wake(&mut self, token: u64, ctl: &mut Ctl<'_, P::Msg>) {
        let _ = (token, ctl);
    }
}

/// The trivial driver: never reacts.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoDriver;

impl<P: Protocol> Driver<P> for NoDriver {}

/// The control surface handed to [`Driver`] callbacks: schedule operations,
/// wake-ups, or stop the run.
pub struct Ctl<'a, M> {
    now: SimTime,
    n: usize,
    queue: &'a mut EventQueue<M>,
    next_op: &'a mut u64,
    outstanding: &'a mut usize,
    stop: &'a mut bool,
}

/// The [`Ctl`] over `$sim`'s scheduling state — a macro rather than a
/// method so it borrows only those fields (a drain of `scratch` may be
/// live).
macro_rules! ctl {
    ($sim:ident, $stop:expr) => {
        Ctl {
            now: $sim.now,
            n: $sim.cfg.n,
            queue: &mut $sim.queue,
            next_op: &mut $sim.next_op,
            outstanding: &mut $sim.outstanding,
            stop: $stop,
        }
    };
}

impl<M> Ctl<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Invokes `op` at `node` immediately (processed after the current
    /// event), returning the fresh operation id.
    pub fn invoke(&mut self, node: NodeId, op: SnapshotOp) -> OpId {
        self.invoke_at(self.now, node, op)
    }

    /// Invokes `op` at `node` at absolute time `t` (clamped to now).
    pub fn invoke_at(&mut self, t: SimTime, node: NodeId, op: SnapshotOp) -> OpId {
        let id = OpId(*self.next_op);
        *self.next_op += 1;
        *self.outstanding += 1;
        self.queue
            .push(t.max(self.now), Ev::Invoke { node, id, op });
        id
    }

    /// Schedules a driver wake-up carrying `token` at absolute time `t`.
    pub fn wake_at(&mut self, t: SimTime, token: u64) {
        self.queue.push(t.max(self.now), Ev::Wake { token });
    }

    /// Stops the run after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// The deterministic simulator. See the crate docs for the model.
pub struct Sim<P: Protocol> {
    cfg: SimConfig,
    /// The nodes, under the shared fault model (crash flags, the trace
    /// probes' state, Byzantine modes).
    procs: Vec<Process<P>>,
    round_token: Vec<u64>,
    queue: EventQueue<P::Msg>,
    rng: StdRng,
    now: SimTime,
    metrics: Metrics,
    history: History,
    cycles: CycleTracker,
    next_op: u64,
    outstanding: usize,
    links: LinkModel,
    /// Invocation time and class per operation, indexed by `OpId` (ids are
    /// allocated densely from 0, so a flat vector beats hashing).
    op_meta: Vec<Option<(SimTime, OpClass)>>,
    /// Reusable effect buffer: drained in place after every protocol step,
    /// so the hot loop never allocates per event.
    scratch: Effects<P::Msg>,
    trace: u64,
    tracer: Tracer,
    /// Cycle boundaries already emitted as [`TraceEvent::CycleEnd`].
    traced_cycles: u64,
}

impl<P: Protocol> Sim<P> {
    /// Builds a simulation of `cfg.n` nodes, constructing each protocol
    /// instance with `mk`. Initial `do forever` rounds are staggered across
    /// the first round interval so nodes never run in lockstep.
    pub fn new(cfg: SimConfig, mut mk: impl FnMut(NodeId) -> P) -> Self {
        assert!(cfg.n >= 1, "need at least one node");
        let procs: Vec<Process<P>> = (0..cfg.n)
            .map(|i| Process::new(mk(NodeId(i)), cfg.seed))
            .collect();
        for p in &procs {
            assert_eq!(p.proto().n(), cfg.n, "protocol instance disagrees about n");
        }
        let mut sim = Sim {
            procs,
            round_token: vec![0; cfg.n],
            // Steady state holds O(n²) in-flight messages plus one round
            // event per node; pre-size so the heap never reallocates.
            queue: EventQueue::with_capacity(4 * cfg.n * cfg.n + 2 * cfg.n + 16),
            rng: StdRng::seed_from_u64(cfg.seed),
            now: 0,
            metrics: Metrics::new(),
            history: History::new(),
            cycles: CycleTracker::new(cfg.n),
            next_op: 0,
            outstanding: 0,
            // The link model gets its own seed stream so fault-plane
            // coins stay independent of round jitter and corruption.
            links: LinkModel::new(cfg.n, cfg.net, cfg.seed ^ 0x11_4e7),
            op_meta: Vec::new(),
            scratch: Effects::new(),
            trace: 0xcbf29ce484222325,
            tracer: Tracer::off(),
            traced_cycles: 0,
            cfg,
        };
        for i in 0..cfg.n {
            let offset = 1 + (i as SimTime * sim.cfg.round_interval) / cfg.n as SimTime;
            sim.push_round(i, offset);
        }
        sim
    }

    fn push_round(&mut self, node: usize, at: SimTime) {
        let token = self.round_token[node];
        self.queue.push(
            at,
            Ev::Round {
                node: NodeId(node),
                token,
            },
        );
    }

    /// The configuration this simulation runs with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The live (non-crashed) process set.
    pub fn live(&self) -> ProcessSet {
        let mut l = ProcessSet::full(self.cfg.n);
        for (i, p) in self.procs.iter().enumerate() {
            if p.is_crashed() {
                l.remove(NodeId(i));
            }
        }
        l
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.procs[node.index()].is_crashed()
    }

    /// Immutable access to a node's protocol state (for invariant probes).
    pub fn node(&self, id: NodeId) -> &P {
        self.procs[id.index()].proto()
    }

    /// Mutable access to a node's protocol state (tests only; prefer the
    /// fault-injection API).
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        self.procs[id.index()].proto_mut()
    }

    /// Traffic counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The client-boundary history recorded so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Asynchronous cycles completed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.cycles()
    }

    /// Virtual times at which each asynchronous-cycle boundary was
    /// reached (for latency-in-cycles measurements).
    pub fn cycle_boundaries(&self) -> &[SimTime] {
        self.cycles.boundaries()
    }

    /// Number of invoked operations that have not yet completed or aborted.
    pub fn outstanding_ops(&self) -> usize {
        self.outstanding
    }

    /// A hash over the processed event sequence; equal seeds must yield
    /// equal hashes (determinism check).
    pub fn trace_hash(&self) -> u64 {
        self.trace
    }

    /// Cuts or restores the directed link `from → to` now. While a link
    /// is down every message on it is dropped — a temporary violation of
    /// communication fairness (a partition). Protocol liveness is only
    /// guaranteed again after [`Sim::heal_partition`].
    ///
    /// Like every link fault it goes through
    /// [`LinkModel::apply_fault`], so a traced run records it; unlike a
    /// planned one it does not enter [`Sim::trace_hash`].
    pub fn set_link(&mut self, from: NodeId, to: NodeId, up: bool) {
        let ev = FaultEvent::SetLink { from, to, up };
        self.links.apply_fault(&ev, &self.tracer, self.now);
    }

    /// Partitions the system into `groups` using the shared fault-plane
    /// semantics ([`sss_net::cut_matrix`]): links between different
    /// groups are cut in both directions, links within a group restored,
    /// ungrouped nodes isolated. Traced, not hashed, as
    /// [`Sim::set_link`].
    pub fn partition(&mut self, groups: &[&[NodeId]]) {
        let groups = groups.iter().map(|g| g.to_vec()).collect();
        let ev = FaultEvent::Partition(groups);
        self.links.apply_fault(&ev, &self.tracer, self.now);
    }

    /// Restores every link. Traced, not hashed, as [`Sim::set_link`].
    pub fn heal_partition(&mut self) {
        self.links
            .apply_fault(&FaultEvent::Heal, &self.tracer, self.now);
    }

    /// The shared link model (fault-plane state: cuts, in-flight load).
    pub fn links(&self) -> &LinkModel {
        &self.links
    }

    /// Attaches the trace plane: every protocol-lifecycle event from now
    /// on is emitted through `tracer` (stamped with virtual time). Pass
    /// [`Tracer::off`] to detach. Tracing costs one branch per potential
    /// event when off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer handle (off by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// In-flight messages, in no particular order.
    pub fn in_flight(&self) -> impl Iterator<Item = (NodeId, NodeId, &P::Msg)> {
        self.queue.iter().filter_map(|e| match &e.ev {
            Ev::Deliver { from, to, msg } => Some((*from, *to, msg)),
            _ => None,
        })
    }

    // ----- scheduling -------------------------------------------------

    /// Schedules an operation invocation, returning its id.
    pub fn invoke_at(&mut self, t: SimTime, node: NodeId, op: SnapshotOp) -> OpId {
        ctl!(self, &mut false).invoke_at(t, node, op)
    }

    /// Schedules fault `ev` at `t`; a corruption draws from `seed` (a
    /// plan's), or with `None` from the simulator's RNG.
    fn fault_at(&mut self, t: SimTime, ev: FaultEvent, seed: Option<u64>) {
        let ev = Box::new(ev);
        self.queue.push(t.max(self.now), Ev::Fault { ev, seed });
    }

    /// Schedules a crash: `node` stops taking steps at `t`.
    pub fn crash_at(&mut self, t: SimTime, node: NodeId) {
        self.fault_at(t, FaultEvent::Crash(node), None);
    }

    /// Schedules a resume: `node` continues, state intact (the paper's
    /// *undetectable restart*).
    pub fn resume_at(&mut self, t: SimTime, node: NodeId) {
        self.fault_at(t, FaultEvent::Resume(node), None);
    }

    /// Schedules a detectable restart: all of `node`'s variables are
    /// re-initialized at `t`.
    pub fn restart_at(&mut self, t: SimTime, node: NodeId) {
        self.fault_at(t, FaultEvent::Restart(node), None);
    }

    /// Whether `node` is currently rewriting its outgoing messages.
    pub fn is_byzantine(&self, node: NodeId) -> bool {
        self.procs[node.index()].is_byzantine()
    }

    /// Schedules the whole fault plan at its virtual times, each
    /// corruption seeded from the plan. This is the simulator's entry
    /// point into the shared fault plane — the threaded runtime replays
    /// the same plan via `Cluster::apply_plan`.
    ///
    /// # Panics
    ///
    /// If the plan is malformed for this cluster size
    /// (`FaultPlan::validate`).
    pub fn apply_plan(&mut self, plan: &FaultPlan) {
        if let Err(e) = plan.validate(self.cfg.n) {
            panic!("malformed fault plan: {e}");
        }
        for (t, ev) in plan.sorted_events() {
            let seed = match ev {
                FaultEvent::Corrupt(node) => Some(plan.corruption_seed(t, *node)),
                _ => None,
            };
            self.fault_at(t, ev.clone(), seed);
        }
    }

    /// Injects a transient fault at `node` right now.
    pub fn corrupt_node_now(&mut self, node: NodeId) {
        self.trace = fold(self.trace, 0xC0);
        let ev = FaultEvent::Corrupt(node);
        self.procs[node.index()].apply(&ev, &mut self.rng, &self.tracer, self.now);
    }

    // ----- trace-plane probes ------------------------------------------

    /// Emits a [`TraceEvent::CycleEnd`] for every asynchronous-cycle
    /// boundary the tracker crossed since the last call.
    fn emit_new_cycles(&mut self) {
        while self.traced_cycles < self.cycles.cycles() {
            let at = self.cycles.boundaries()[self.traced_cycles as usize];
            self.tracer.emit(
                at,
                TraceEvent::CycleEnd {
                    index: self.traced_cycles,
                },
            );
            self.traced_cycles += 1;
        }
    }

    /// Replaces each in-flight message, independently with probability
    /// `prob`, by an arbitrary message — transient corruption of the
    /// communication channels. `max_index` bounds how large corrupted
    /// operation indices may be.
    pub fn corrupt_channels_now(&mut self, prob: f64, max_index: u64)
    where
        P::Msg: ArbitraryMsg,
    {
        let Sim {
            queue, rng, cfg, ..
        } = self;
        let n = cfg.n;
        queue.mutate_all(|e| {
            if let Ev::Deliver { msg, .. } = &mut e.ev {
                if rng.gen_bool(prob) {
                    *msg = <P::Msg as ArbitraryMsg>::arbitrary(rng, n, max_index);
                }
            }
        });
    }

    // ----- running ----------------------------------------------------

    /// Runs without a driver until virtual time `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_with_driver(&mut NoDriver, until);
    }

    /// Runs with `driver` until virtual time `until` or until the driver
    /// calls [`Ctl::stop`].
    pub fn run_with_driver<D: Driver<P>>(&mut self, driver: &mut D, until: SimTime) {
        let mut stop = false;
        {
            let mut ctl = ctl!(self, &mut stop);
            driver.init(&mut ctl);
        }
        while !stop {
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    self.step(driver, &mut stop);
                }
                _ => break,
            }
        }
        self.now = self
            .now
            .max(until.min(self.queue.peek_time().unwrap_or(until)));
    }

    /// Runs until every invoked operation has completed (or aborted), or
    /// until `max_t`. Returns whether the system became idle.
    pub fn run_until_idle(&mut self, max_t: SimTime) -> bool {
        self.run_while(max_t, |sim| sim.outstanding > 0)
    }

    /// Runs until `target` further asynchronous cycles have completed or
    /// `max_t` is reached; returns whether the cycles completed.
    pub fn run_for_cycles(&mut self, target: u64, max_t: SimTime) -> bool {
        let goal = self.cycles.cycles() + target;
        self.run_while(max_t, |sim| sim.cycles.cycles() < goal)
    }

    /// Runs while `cond` holds, up to `max_t`; returns `true` if `cond`
    /// became false (i.e. the wait succeeded).
    pub fn run_while(&mut self, max_t: SimTime, cond: impl Fn(&Sim<P>) -> bool) -> bool {
        let mut stop = false;
        while cond(self) {
            match self.queue.peek_time() {
                Some(t) if t <= max_t => self.step(&mut NoDriver, &mut stop),
                _ => return false,
            }
        }
        true
    }

    fn step<D: Driver<P>>(&mut self, driver: &mut D, stop: &mut bool) {
        let Some(entry) = self.queue.pop() else {
            return;
        };
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        match entry.ev {
            Ev::Round { node, token } => {
                self.trace = fold(self.trace, 1 + node.index() as u64);
                let proc = &mut self.procs[node.index()];
                if proc.is_crashed() || token != self.round_token[node.index()] {
                    return; // chain dies; Resume/Restart starts a new one
                }
                proc.proto_mut().on_round(&mut self.scratch);
                self.metrics.rounds += 1;
                let live = self.live();
                self.cycles.on_round(node, &live, self.now);
                self.apply_effects(node, driver, stop);
                if self.tracer.is_on() {
                    self.procs[node.index()].probe(&self.tracer, self.now);
                    self.emit_new_cycles();
                }
                let jitter = self.rng.gen_range(0..=ROUND_JITTER);
                let next = self.now + self.cfg.round_interval + jitter;
                self.queue.push(next, Ev::Round { node, token });
            }
            Ev::Deliver { from, to, msg } => {
                self.trace = fold(self.trace, 0x100 + to.index() as u64);
                self.cycles.on_gone(entry.seq, self.now);
                if from != to {
                    self.links.on_delivered(from, to);
                }
                if self.procs[to.index()].is_crashed() {
                    self.metrics.on_dropped(msg.kind());
                    if self.tracer.is_on() {
                        self.tracer.emit(
                            self.now,
                            TraceEvent::Drop {
                                from,
                                to,
                                kind: msg.kind(),
                                cause: DropCause::Crashed,
                            },
                        );
                        self.emit_new_cycles();
                    }
                    return;
                }
                self.metrics.on_delivered(msg.kind());
                if self.tracer.is_on() {
                    self.tracer.emit(
                        self.now,
                        TraceEvent::Deliver {
                            from,
                            to,
                            kind: msg.kind(),
                        },
                    );
                }
                let proc = self.procs[to.index()].proto_mut();
                proc.on_message(from, msg, &mut self.scratch);
                self.apply_effects(to, driver, stop);
                if self.tracer.is_on() {
                    self.procs[to.index()].probe(&self.tracer, self.now);
                    self.emit_new_cycles();
                }
            }
            Ev::Invoke { node, id, op } => {
                self.trace = fold(self.trace, 0x200 + node.index() as u64);
                self.history.record_invoke(node, id, op, self.now);
                if self.tracer.is_on() {
                    self.tracer.emit(
                        self.now,
                        TraceEvent::OpInvoke {
                            node,
                            id,
                            class: OpClass::of(&op),
                        },
                    );
                }
                let idx = id.0 as usize;
                if self.op_meta.len() <= idx {
                    self.op_meta.resize(idx + 1, None);
                }
                self.op_meta[idx] = Some((self.now, OpClass::of(&op)));
                let proc = &mut self.procs[node.index()];
                if proc.is_crashed() {
                    return; // invoked at a crashed node: never completes
                }
                proc.proto_mut().invoke(id, op, &mut self.scratch);
                self.apply_effects(node, driver, stop);
            }
            Ev::Fault { ev, seed } => {
                self.trace = fold(self.trace, fault_code(&ev));
                let Some(node) = ev.process() else {
                    self.links.apply_fault(&ev, &self.tracer, self.now);
                    return;
                };
                let i = node.index();
                let was_crashed = self.procs[i].is_crashed();
                // Plan-seeded: the same "arbitrary" state on every backend
                // replaying the plan.
                let mut seeded = seed.map(StdRng::seed_from_u64);
                let rng: &mut dyn RngCore = seeded.as_mut().unwrap_or(&mut self.rng);
                self.procs[i].apply(&ev, rng, &self.tracer, self.now);
                match *ev {
                    FaultEvent::Crash(_) => {
                        self.round_token[i] += 1;
                        let live = self.live();
                        self.cycles.on_live_change(&live, self.now);
                        if self.tracer.is_on() {
                            self.emit_new_cycles();
                        }
                    }
                    FaultEvent::Resume(_) | FaultEvent::Restart(_) if was_crashed => {
                        self.round_token[i] += 1;
                        let token = self.round_token[i];
                        self.queue.push(self.now + 1, Ev::Round { node, token });
                    }
                    _ => {}
                }
            }
            Ev::Wake { token } => {
                self.trace = fold(self.trace, 0x700 + token);
                let mut ctl = ctl!(self, stop);
                driver.on_wake(token, &mut ctl);
            }
        }
    }

    /// Drains `self.scratch` — the reusable effect buffer the preceding
    /// protocol step wrote into — scheduling sends and reporting
    /// completions/aborts. Draining in place keeps the buffer's capacity,
    /// and field-disjoint borrows let the loop mutate the queue, metrics
    /// and link model while the drain iterator holds `self.scratch`.
    fn apply_effects<D: Driver<P>>(&mut self, at: NodeId, driver: &mut D, stop: &mut bool) {
        let lying = self.procs[at.index()].is_byzantine();
        for (to, msg) in self.scratch.drain_sends() {
            // The Byzantine hook sits here — after the protocol produced
            // the send, before the link model rules on it — so all three
            // backends rewrite at the same logical point.
            let msg = if lying {
                self.procs[at.index()].rewrite(to, msg)
            } else {
                msg
            };
            let kind = msg.kind();
            let bits = msg.size_bits(sss_types::NU_BITS);
            self.metrics.on_sent(kind, bits);
            if self.tracer.is_on() {
                self.tracer.emit(
                    self.now,
                    TraceEvent::Send {
                        from: at,
                        to,
                        kind,
                        bits,
                    },
                );
            }
            if to == at {
                // Self-delivery: reliable, immediate (an internal step).
                let seq = self.queue.push(self.now, Ev::Deliver { from: at, to, msg });
                self.cycles.on_send(seq);
                continue;
            }
            // All loss/capacity/dup/delay decisions come from the shared
            // fault plane; the simulator only schedules the outcome.
            match self.links.on_send(at, to) {
                LinkVerdict::Drop(reason) => {
                    self.metrics.on_dropped(kind);
                    if self.tracer.is_on() {
                        self.tracer.emit(
                            self.now,
                            TraceEvent::Drop {
                                from: at,
                                to,
                                kind,
                                cause: reason.into(),
                            },
                        );
                    }
                }
                LinkVerdict::Deliver { delay, duplicate } => {
                    if let Some(delay2) = duplicate {
                        let seq2 = self.queue.push(
                            self.now + delay2,
                            Ev::Deliver {
                                from: at,
                                to,
                                msg: msg.clone(),
                            },
                        );
                        self.cycles.on_send(seq2);
                    }
                    let seq = self
                        .queue
                        .push(self.now + delay, Ev::Deliver { from: at, to, msg });
                    self.cycles.on_send(seq);
                }
            }
        }
        for (id, resp) in self.scratch.drain_completions() {
            self.history.record_complete(id, resp.clone(), self.now);
            self.metrics.ops_completed += 1;
            if let Some((t0, class)) = self.op_meta.get_mut(id.0 as usize).and_then(Option::take) {
                self.metrics.record_latency(class, self.now - t0);
                if self.tracer.is_on() {
                    self.tracer.emit(
                        self.now,
                        TraceEvent::OpComplete {
                            node: at,
                            id,
                            class,
                        },
                    );
                }
            }
            self.outstanding = self.outstanding.saturating_sub(1);
            let mut ctl = ctl!(self, stop);
            driver.on_completion(at, id, &resp, &mut ctl);
        }
        for id in self.scratch.drain_aborts() {
            self.history.record_abort(id, self.now);
            self.metrics.ops_aborted += 1;
            self.op_meta.get_mut(id.0 as usize).and_then(Option::take);
            if self.tracer.is_on() {
                self.tracer
                    .emit(self.now, TraceEvent::OpAbort { node: at, id });
            }
            self.outstanding = self.outstanding.saturating_sub(1);
            let mut ctl = ctl!(self, stop);
            driver.on_abort(at, id, &mut ctl);
        }
    }
}

fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100000001b3)
}

/// A fault event's code in the trace hash (pinned by the determinism
/// goldens, so these never change).
fn fault_code(ev: &FaultEvent) -> u64 {
    let at = |base: u64, node: &NodeId| base + node.index() as u64;
    match ev {
        FaultEvent::Crash(node) => at(0x300, node),
        FaultEvent::Resume(node) => at(0x400, node),
        FaultEvent::Restart(node) => at(0x500, node),
        FaultEvent::Corrupt(node) => at(0x600, node),
        FaultEvent::Partition(groups) => 0x800 + groups.len() as u64,
        FaultEvent::Heal => 0x900,
        FaultEvent::SetLink { from, .. } => at(0xA00, from),
        FaultEvent::Byzantine { node, .. } => at(0xB00, node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_types::{MsgKind, OpResponse};

    /// A toy protocol: every round it gossips a counter; a Write op
    /// completes after one broadcast round-trip (majority of echoes).
    struct Toy {
        id: NodeId,
        n: usize,
        pending: Option<OpId>,
        echoers: ProcessSet,
    }

    #[derive(Clone, Debug)]
    enum ToyMsg {
        Ping,
        Echo,
    }

    impl ProtoMsg for ToyMsg {
        fn kind(&self) -> MsgKind {
            match self {
                ToyMsg::Ping => MsgKind::Write,
                ToyMsg::Echo => MsgKind::WriteAck,
            }
        }
        fn size_bits(&self, _nu: u32) -> u64 {
            64
        }
    }

    impl Protocol for Toy {
        type Msg = ToyMsg;
        fn id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn on_round(&mut self, fx: &mut Effects<ToyMsg>) {
            if self.pending.is_some() {
                fx.broadcast(self.n, &ToyMsg::Ping);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: ToyMsg, fx: &mut Effects<ToyMsg>) {
            match msg {
                ToyMsg::Ping => fx.send(from, ToyMsg::Echo),
                ToyMsg::Echo => {
                    self.echoers.insert(from);
                    if let Some(id) = self.pending {
                        if self.echoers.is_majority() {
                            self.pending = None;
                            fx.complete(id, OpResponse::WriteDone);
                        }
                    }
                }
            }
        }
        fn invoke(&mut self, id: OpId, _op: SnapshotOp, fx: &mut Effects<ToyMsg>) {
            self.echoers.clear();
            self.pending = Some(id);
            fx.broadcast(self.n, &ToyMsg::Ping);
        }
        fn is_busy(&self) -> bool {
            self.pending.is_some()
        }
        fn corrupt(&mut self, _rng: &mut dyn rand::RngCore) {
            self.echoers.clear();
        }
        fn restart(&mut self) {
            self.pending = None;
            self.echoers.clear();
        }
    }

    fn toy(n: usize) -> impl FnMut(NodeId) -> Toy {
        move |id| Toy {
            id,
            n,
            pending: None,
            echoers: ProcessSet::new(n),
        }
    }

    #[test]
    fn op_completes_on_reliable_network() {
        let mut sim = Sim::new(SimConfig::small(3), toy(3));
        sim.invoke_at(0, NodeId(0), SnapshotOp::Write(1));
        assert!(sim.run_until_idle(100_000));
        assert_eq!(sim.history().completed().count(), 1);
        assert!(sim.metrics().kind(MsgKind::Write).sent >= 3);
    }

    #[test]
    fn op_completes_despite_loss_via_round_retransmission() {
        let mut sim = Sim::new(SimConfig::harsh(3).with_seed(5), toy(3));
        sim.invoke_at(0, NodeId(0), SnapshotOp::Write(1));
        assert!(sim.run_until_idle(10_000_000));
        let m = sim.metrics();
        let dropped: u64 = m.kinds().map(|(_, c)| c.dropped).sum();
        assert!(dropped > 0, "loss occurred");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let mut hashes = vec![];
        for _ in 0..2 {
            let mut sim = Sim::new(SimConfig::harsh(4).with_seed(99), toy(4));
            sim.invoke_at(0, NodeId(1), SnapshotOp::Write(2));
            sim.run_until(50_000);
            hashes.push(sim.trace_hash());
        }
        assert_eq!(hashes[0], hashes[1]);
        let mut sim = Sim::new(SimConfig::harsh(4).with_seed(100), toy(4));
        sim.invoke_at(0, NodeId(1), SnapshotOp::Write(2));
        sim.run_until(50_000);
        assert_ne!(
            sim.trace_hash(),
            hashes[0],
            "different seed, different trace"
        );
    }

    #[test]
    fn crashed_node_makes_no_progress_and_majority_still_completes() {
        let mut sim = Sim::new(SimConfig::small(5), toy(5));
        sim.crash_at(0, NodeId(3));
        sim.crash_at(0, NodeId(4));
        sim.invoke_at(10, NodeId(0), SnapshotOp::Write(1));
        assert!(sim.run_until_idle(1_000_000));
        assert!(sim.is_crashed(NodeId(3)));
    }

    #[test]
    fn no_majority_no_completion() {
        let mut sim = Sim::new(SimConfig::small(3), toy(3));
        sim.crash_at(0, NodeId(1));
        sim.crash_at(0, NodeId(2));
        sim.invoke_at(10, NodeId(0), SnapshotOp::Write(1));
        assert!(
            !sim.run_until_idle(200_000),
            "must time out without majority"
        );
        assert_eq!(sim.outstanding_ops(), 1);
    }

    #[test]
    fn resume_restores_progress() {
        let mut sim = Sim::new(SimConfig::small(3), toy(3));
        sim.crash_at(0, NodeId(1));
        sim.crash_at(0, NodeId(2));
        sim.invoke_at(10, NodeId(0), SnapshotOp::Write(1));
        sim.resume_at(5_000, NodeId(1));
        assert!(sim.run_until_idle(1_000_000));
    }

    #[test]
    fn cycles_advance_continuously() {
        let mut sim = Sim::new(SimConfig::small(3), toy(3));
        assert!(sim.run_for_cycles(5, 1_000_000));
        assert!(sim.cycles() >= 5);
    }

    #[test]
    fn invoke_on_crashed_node_stays_outstanding() {
        let mut sim = Sim::new(SimConfig::small(3), toy(3));
        sim.crash_at(0, NodeId(0));
        sim.invoke_at(10, NodeId(0), SnapshotOp::Write(1));
        assert!(!sim.run_until_idle(100_000));
        assert_eq!(sim.history().pending().count(), 1);
    }

    #[test]
    fn corrupt_event_reaches_protocol() {
        let mut sim = Sim::new(SimConfig::small(3), toy(3));
        sim.node_mut(NodeId(0)).echoers.insert(NodeId(2));
        sim.corrupt_node_now(NodeId(0));
        assert!(sim.node(NodeId(0)).echoers.is_empty());
    }

    #[test]
    fn scratch_effects_do_not_leak_across_steps() {
        // The runner recycles one Effects buffer for every protocol step;
        // an entry surviving a drain would be re-applied on the next step
        // and show up as phantom traffic. Toy nodes send nothing while no
        // op is pending, so once the write completes the network must go
        // and stay quiet.
        let mut sim = Sim::new(SimConfig::small(3), toy(3));
        sim.invoke_at(0, NodeId(0), SnapshotOp::Write(1));
        assert!(sim.run_until_idle(100_000));
        let sent_after_op = sim.metrics().total_sent();
        let t = sim.now();
        sim.run_until(t + 50_000);
        assert_eq!(
            sim.metrics().total_sent(),
            sent_after_op,
            "idle rounds must not send; a leaked scratch entry would"
        );
    }

    #[test]
    fn metrics_window_attribution() {
        let mut sim = Sim::new(SimConfig::small(3), toy(3));
        sim.run_until(1_000);
        let before = sim.metrics().clone();
        sim.invoke_at(sim.now(), NodeId(0), SnapshotOp::Write(1));
        sim.run_until_idle(1_000_000);
        let d = sim.metrics().delta_since(&before);
        assert!(d.kind(MsgKind::Write).sent >= 3);
        assert_eq!(d.ops_completed, 1);
    }
}
