//! One shard: a full snapshot group ([`Cluster`]) plus its group-commit
//! batcher.
//!
//! The batcher is the mechanism that lets a group serve many more
//! client requests per second than it completes protocol operations. It
//! is **demand-driven** (natural batching, no timer): it sleeps only
//! while the admission queue is empty, flushes the moment a request
//! arrives, and whatever arrives while that flush waits on its protocol
//! operations *is* the next batch. Each flush drains the queue (up to
//! `max_per_flush` requests) and **collapses** it —
//!
//! * all queued writes to the same register become *one* protocol write
//!   carrying the last value (the earlier writes linearize at the same
//!   point and are immediately overwritten — ordinary group commit);
//! * all queued snapshot requests are answered by *one* protocol
//!   snapshot, taken at a rotating contact node after the flush's
//!   writes were submitted.
//!
//! So a flush issues at most `nodes + 1` protocol operations regardless
//! of how many client requests it absorbed. One flush is in flight per
//! shard at a time, which keeps per-key write order and bounds the
//! shard's throughput by `max_per_flush / op_latency` — what the
//! group's protocol sustains, not a pacing interval. Under light load a
//! request costs one protocol round trip and batches hold one or two
//! requests; under backlog flushes take longer, so batches (and the
//! collapse factor) grow by themselves.
//!
//! Key → register routing: register `i` of a group is written by node
//! `i` (the paper's single-writer registers), so a key's home register
//! inside its shard is `mix64`-hashed exactly like the ring's key →
//! shard step. A write waits on its home node's protocol op; snapshots
//! wait on the contact node's.
//!
//! Failure semantics: before each flush — and once per
//! `round_interval` while the queue is idle — the batcher probes the
//! runtime's failure detector. If *no* node of the group can reach a
//! majority the shard is marked down — admission then fails fast with
//! [`ServiceError::Unavailable`] — and every drained request is failed
//! with the same error. The flag clears automatically once the detector
//! sees a quorum again (the idle probe needs no traffic to run). A
//! minority crash keeps the shard up: only keys homed on the crashed
//! node fail (their protocol writes cannot start until it resumes, so
//! they time out at `flush_timeout`), while other registers and
//! snapshots keep completing.

use crate::{ServiceError, ServiceReply, ServiceResult};
use crossbeam::channel::{bounded, Receiver, Sender};
use sss_net::{mix64, FaultPlan};
use sss_obs::{ShardGauge, Tracer};
use sss_runtime::{Client, Cluster, ClusterConfig, SubmitError};
use sss_sim::LatencySummary;
use sss_types::{NodeId, OpResponse, Protocol, SnapshotOp, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Salt separating key → register hashing from the ring's key → shard
/// hashing (same key, independent streams).
const REGISTER_SALT: u64 = 0x5245_4721;

/// The register (and therefore writer node) serving `key` inside an
/// `n`-process group. Pure, shared by the threaded and simulated
/// service layers.
pub(crate) fn register_for(seed: u64, key: u64, n: usize) -> usize {
    (mix64(seed ^ REGISTER_SALT, key) % n as u64) as usize
}

/// Per-shard tuning. The defaults suit a 3-process group on a busy CI
/// host; the service applies one config to every shard.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Processes (and registers) per group.
    pub nodes: usize,
    /// Most requests one flush absorbs; the rest wait for the next one.
    pub max_per_flush: usize,
    /// Admission-queue bound; a full queue rejects with
    /// [`ServiceError::Overloaded`].
    pub queue_cap: usize,
    /// How long a flush waits for its protocol operations before
    /// failing the stragglers' requests with
    /// [`ServiceError::Unavailable`].
    pub flush_timeout: Duration,
    /// The group's `do forever` round interval
    /// ([`ClusterConfig::round_interval`]). Also the idle batcher's
    /// quorum-probe period: detector evidence only changes when a round
    /// gossips.
    pub round_interval: Duration,
    /// Failure-detector suspicion window
    /// ([`ClusterConfig::suspect_after`]).
    pub suspect_after: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            nodes: 3,
            max_per_flush: 512,
            queue_cap: 4096,
            flush_timeout: Duration::from_secs(1),
            round_interval: Duration::from_millis(2),
            suspect_after: Duration::from_millis(100),
        }
    }
}

/// One client request, parked in the admission queue until a flush.
pub(crate) enum Request {
    /// A keyed write.
    Write {
        /// Routing key (fixes the home register).
        key: u64,
        /// Value to write.
        value: Value,
        /// Admission time, for end-to-end latency accounting.
        t0: Instant,
        /// Completion channel (`None` for fire-and-forget submission).
        done: Option<Sender<ServiceResult>>,
    },
    /// A snapshot of the shard's register array.
    Snapshot {
        /// Admission time.
        t0: Instant,
        /// Completion channel.
        done: Option<Sender<ServiceResult>>,
    },
}

impl Request {
    fn into_parts(self) -> (Instant, Option<Sender<ServiceResult>>) {
        match self {
            Request::Write { t0, done, .. } | Request::Snapshot { t0, done } => (t0, done),
        }
    }
}

/// Outcome counters and the latency distribution of one shard.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Admitted requests that completed successfully.
    pub completed: u64,
    /// Admitted requests that failed after admission (quorum loss,
    /// flush timeout, shutdown).
    pub failed: u64,
    /// Admission rejections due to a full queue.
    pub overloaded: u64,
    /// Admission rejections due to the down flag (fail-fast while the
    /// group cannot reach a majority).
    pub unavailable: u64,
    /// Requests sitting in the admission queue at the instant of this
    /// snapshot (a live gauge, not a cumulative counter).
    pub queue_depth: u64,
    /// Requests absorbed by group-commit flushes since start (every
    /// drained request counts, whatever its eventual outcome).
    pub absorbed: u64,
    /// Protocol operations the flushes actually issued: at most
    /// `nodes + 1` per flush, however many requests it absorbed.
    pub protocol_ops: u64,
    /// Group-commit flushes since start; `absorbed / flushes` is the
    /// mean batch size.
    pub flushes: u64,
    /// Whether the shard's batcher currently considers its group
    /// quorum-less.
    pub down: bool,
    /// End-to-end (admission → completion) latency of successful
    /// requests, in microseconds.
    pub latency: LatencySummary,
}

impl ShardStats {
    /// Admitted requests not yet resolved either way.
    pub fn pending(&self) -> u64 {
        self.accepted - self.completed - self.failed
    }

    /// Group-commit collapse: requests absorbed per protocol operation
    /// issued (`1.0` before any flush). The batcher's whole point is
    /// keeping this well above 1 under load.
    pub fn collapse_factor(&self) -> f64 {
        if self.protocol_ops == 0 {
            1.0
        } else {
            self.absorbed as f64 / self.protocol_ops as f64
        }
    }

    /// This snapshot as the ops-plane's [`ShardGauge`] — the shape the
    /// dashboard's shard panel and the `/shards` endpoint consume.
    pub fn gauge(&self) -> ShardGauge {
        ShardGauge {
            shard: self.shard,
            queue_depth: self.queue_depth,
            accepted: self.accepted,
            completed: self.completed,
            failed: self.failed,
            overloaded: self.overloaded,
            unavailable: self.unavailable,
            absorbed: self.absorbed,
            protocol_ops: self.protocol_ops,
            down: self.down,
            latency: self.latency,
        }
    }
}

#[derive(Default)]
struct StatsInner {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    overloaded: AtomicU64,
    unavailable: AtomicU64,
    absorbed: AtomicU64,
    protocol_ops: AtomicU64,
    flushes: AtomicU64,
    samples: Mutex<Vec<u64>>,
}

/// The bounded admission queue. Pushes never block: a full queue is the
/// caller's backpressure signal. The batcher parks on the condvar only
/// while the queue is empty; a push wakes it only if it is parked (the
/// `NodeInbox` idiom), so admission pays no futex call while the
/// batcher is busy flushing.
struct Queue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

struct QueueInner {
    buf: VecDeque<Request>,
    closed: bool,
    /// Whether the batcher is parked on the condvar. Set by the batcher
    /// before it waits, taken by the producer that wakes it.
    parked: bool,
}

enum PushError {
    Full,
    Closed,
}

impl Queue {
    fn new() -> Queue {
        Queue {
            inner: Mutex::new(QueueInner {
                buf: VecDeque::new(),
                closed: false,
                parked: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn try_push(&self, req: Request, cap: usize) -> Result<(), PushError> {
        let wake = {
            let mut q = self.inner.lock().expect("queue poisoned");
            if q.closed {
                return Err(PushError::Closed);
            }
            if q.buf.len() >= cap {
                return Err(PushError::Full);
            }
            q.buf.push_back(req);
            std::mem::take(&mut q.parked)
        };
        // Notify after the guard is dropped, so the woken batcher does
        // not immediately block on the mutex.
        if wake {
            self.cv.notify_one();
        }
        Ok(())
    }

    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.cv.notify_one();
    }

    /// Requests currently parked (the dashboard's queue-depth gauge).
    fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").buf.len()
    }

    /// Parks while the queue is empty — until a push, a close, or
    /// `idle_deadline` (the batcher's quorum-probe period) — then drains
    /// up to `max` requests without waiting for more. Returns the batch
    /// and whether the queue is closed *and* empty (the batcher's exit
    /// condition).
    fn drain_at(&self, idle_deadline: Instant, max: usize) -> (Vec<Request>, bool) {
        let mut q = self.inner.lock().expect("queue poisoned");
        while q.buf.is_empty() && !q.closed {
            let Some(left) = idle_deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            q.parked = true;
            let (guard, _) = self.cv.wait_timeout(q, left).expect("queue poisoned");
            q = guard;
            q.parked = false;
        }
        let take = q.buf.len().min(max);
        let batch: Vec<Request> = q.buf.drain(..take).collect();
        let finished = q.closed && q.buf.is_empty();
        (batch, finished)
    }
}

/// One shard: the group's [`Cluster`], its admission queue, its batcher
/// thread, and the down flag. See the [module docs](self).
pub(crate) struct Shard<P: Protocol> {
    id: usize,
    cluster: Arc<Cluster<P>>,
    queue: Arc<Queue>,
    stats: Arc<StatsInner>,
    down: Arc<AtomicBool>,
    cfg: ShardConfig,
    batcher: Option<JoinHandle<()>>,
}

impl<P: Protocol + 'static> Shard<P> {
    /// Boots the group and its batcher with the trace plane attached:
    /// the shard's cluster emits through `tracer` (node ids are
    /// group-local, `0..nodes`). `seed` is the *service* seed; the
    /// shard derives its own cluster seed and routing stream. Pass
    /// [`Tracer::off`] for an untraced shard.
    pub(crate) fn start_traced(
        id: usize,
        cfg: ShardConfig,
        seed: u64,
        tracer: Tracer,
        mk: impl FnMut(NodeId) -> P,
    ) -> Shard<P> {
        let n = cfg.nodes;
        let mut ccfg = ClusterConfig::new(n);
        ccfg.round_interval = cfg.round_interval;
        ccfg.suspect_after = cfg.suspect_after;
        ccfg.seed = mix64(seed, id as u64);
        let cluster = Arc::new(Cluster::new_traced(ccfg, tracer, mk));
        let queue = Arc::new(Queue::new());
        let stats = Arc::new(StatsInner::default());
        let down = Arc::new(AtomicBool::new(false));
        let batcher = Batcher {
            shard: id,
            cfg: cfg.clone(),
            seed,
            clients: (0..n).map(|k| cluster.client(NodeId(k))).collect(),
            queue: Arc::clone(&queue),
            stats: Arc::clone(&stats),
            down: Arc::clone(&down),
        };
        let handle = std::thread::Builder::new()
            .name(format!("shard-{id}-batcher"))
            .spawn(move || batcher.run())
            .expect("spawn batcher");
        Shard {
            id,
            cluster,
            queue,
            stats,
            down,
            cfg,
            batcher: Some(handle),
        }
    }

    /// Admission: fail fast while down, reject when full, else queue.
    pub(crate) fn submit(&self, req: Request) -> Result<(), ServiceError> {
        if self.down.load(Ordering::Relaxed) {
            self.stats.unavailable.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Unavailable { shard: self.id });
        }
        match self.queue.try_push(req, self.cfg.queue_cap) {
            Ok(()) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(PushError::Full) => {
                self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded { shard: self.id })
            }
            Err(PushError::Closed) => Err(ServiceError::Shutdown),
        }
    }

    /// Whether the batcher currently considers the group quorum-less.
    pub(crate) fn is_down(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// The failure detector's evidence at one node of this shard's
    /// group.
    pub(crate) fn availability(&self, node: NodeId) -> Option<sss_runtime::Unavailable> {
        self.cluster.availability(node)
    }

    /// Snapshot of the shard's counters and latency distribution.
    pub(crate) fn stats(&self) -> ShardStats {
        // Copy the samples out and summarise (a sort) outside the lock:
        // the batcher takes the same mutex for every acknowledged group.
        let samples = self.stats.samples.lock().expect("samples poisoned").clone();
        ShardStats {
            shard: self.id,
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            overloaded: self.stats.overloaded.load(Ordering::Relaxed),
            unavailable: self.stats.unavailable.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            absorbed: self.stats.absorbed.load(Ordering::Relaxed),
            protocol_ops: self.stats.protocol_ops.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            down: self.down.load(Ordering::Relaxed),
            latency: LatencySummary::from_vec(samples),
        }
    }

    /// Replays a fault plan against this shard's group on a background
    /// thread (plan replay sleeps through the schedule); other shards
    /// never see it — that isolation is the blast-radius test's
    /// subject.
    pub(crate) fn apply_plan(&self, plan: FaultPlan) -> JoinHandle<()> {
        let cluster = Arc::clone(&self.cluster);
        std::thread::Builder::new()
            .name(format!("shard-{}-faults", self.id))
            .spawn(move || cluster.apply_plan(&plan))
            .expect("spawn fault replay")
    }

    /// Closes admission and joins the batcher after it resolves every
    /// queued request.
    pub(crate) fn shutdown(&mut self) {
        self.queue.close();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

impl<P: Protocol> Drop for Shard<P> {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

/// The group-commit worker; one thread per shard.
struct Batcher<P: Protocol> {
    shard: usize,
    cfg: ShardConfig,
    seed: u64,
    clients: Vec<Client<P>>,
    queue: Arc<Queue>,
    stats: Arc<StatsInner>,
    down: Arc<AtomicBool>,
}

impl<P: Protocol> Batcher<P> {
    fn run(self) {
        let mut contact = 0usize;
        loop {
            let probe_at = Instant::now() + self.cfg.round_interval;
            let (batch, finished) = self.queue.drain_at(probe_at, self.cfg.max_per_flush);
            // Quorum probe before every flush and on the idle deadline,
            // so a downed shard clears its flag without any traffic as
            // soon as the detector sees a majority again.
            match self.pick_contact(contact) {
                None => {
                    self.down.store(true, Ordering::Relaxed);
                    self.fail(batch, ServiceError::Unavailable { shard: self.shard });
                }
                Some(c) => {
                    self.down.store(false, Ordering::Relaxed);
                    contact = c;
                    if !batch.is_empty() {
                        self.flush(batch, c);
                        // Rotate the snapshot contact for the next flush.
                        contact = (c + 1) % self.cfg.nodes;
                    }
                }
            }
            if finished {
                return;
            }
        }
    }

    /// The first node (starting the scan at the previous contact) whose
    /// failure detector sees a majority; `None` means the group is
    /// down.
    fn pick_contact(&self, prefer: usize) -> Option<usize> {
        let n = self.cfg.nodes;
        (0..n)
            .map(|i| (prefer + i) % n)
            .find(|&k| self.clients[k].availability().is_none())
    }

    /// Collapses one drained batch into at most `nodes + 1` protocol
    /// operations, waits for them, and resolves every request.
    fn flush(&self, batch: Vec<Request>, contact: usize) {
        let n = self.cfg.nodes;
        // Every drained request was absorbed by this group commit; the
        // protocol-op counter below then measures the collapse.
        self.stats
            .absorbed
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        let mut write_groups: Vec<Vec<Request>> = (0..n).map(|_| Vec::new()).collect();
        let mut write_vals: Vec<Option<Value>> = vec![None; n];
        let mut snaps: Vec<Request> = Vec::new();
        for req in batch {
            match &req {
                Request::Write { key, value, .. } => {
                    let reg = register_for(self.seed, *key, n);
                    write_vals[reg] = Some(*value); // last write wins
                    write_groups[reg].push(req);
                }
                Request::Snapshot { .. } => snaps.push(req),
            }
        }

        let deadline = Instant::now() + self.cfg.flush_timeout;
        let mut waits: Vec<(Receiver<OpResponse>, Vec<Request>)> = Vec::new();
        for reg in 0..n {
            let Some(v) = write_vals[reg] else { continue };
            let group = std::mem::take(&mut write_groups[reg]);
            let (tx, rx) = bounded(1);
            match self.clients[reg].submit(SnapshotOp::Write(v), tx) {
                Ok(_) => {
                    self.stats.protocol_ops.fetch_add(1, Ordering::Relaxed);
                    waits.push((rx, group));
                }
                Err(SubmitError::Full) => {
                    self.fail(group, ServiceError::Overloaded { shard: self.shard })
                }
                Err(SubmitError::Shutdown) => self.fail(group, ServiceError::Shutdown),
            }
        }
        if !snaps.is_empty() {
            let (tx, rx) = bounded(1);
            match self.clients[contact].submit(SnapshotOp::Snapshot, tx) {
                Ok(_) => {
                    self.stats.protocol_ops.fetch_add(1, Ordering::Relaxed);
                    waits.push((rx, snaps));
                }
                Err(SubmitError::Full) => {
                    self.fail(snaps, ServiceError::Overloaded { shard: self.shard })
                }
                Err(SubmitError::Shutdown) => self.fail(snaps, ServiceError::Shutdown),
            }
        }

        for (rx, group) in waits {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(resp) => self.ack(group, &resp),
                // No completion within the flush timeout: the register's
                // home node is crashed or the group lost its quorum
                // mid-flight. Uncertain, reported as unavailability.
                Err(_) => self.fail(group, ServiceError::Unavailable { shard: self.shard }),
            }
        }
    }

    fn ack(&self, group: Vec<Request>, resp: &OpResponse) {
        let reply = match resp {
            OpResponse::Snapshot(view) => ServiceReply::Snapshot(view.clone()),
            OpResponse::WriteDone => ServiceReply::WriteDone,
        };
        let now = Instant::now();
        // Count BEFORE acking: a client whose ticket resolved must
        // already be visible in `completed`, or `pending()` can read
        // transiently high from the client's side of the channel.
        self.stats
            .completed
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        let mut samples = self.stats.samples.lock().expect("samples poisoned");
        samples.reserve(group.len());
        for req in group {
            let (t0, done) = req.into_parts();
            samples.push(now.saturating_duration_since(t0).as_micros() as u64);
            if let Some(tx) = done {
                let _ = tx.send(Ok(reply.clone()));
            }
        }
    }

    fn fail(&self, group: Vec<Request>, err: ServiceError) {
        // Same ordering contract as `ack`: count, then notify.
        self.stats
            .failed
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        for req in group {
            let (_, done) = req.into_parts();
            if let Some(tx) = done {
                let _ = tx.send(Err(err.clone()));
            }
        }
    }
}

/// Test hooks shared by this module's tests and the service's.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Spins (never sleeps) until `cond` holds. The deadline only turns
    /// a hang into a failure; no assertion depends on elapsed time.
    pub(crate) fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    impl<P: Protocol + 'static> Shard<P> {
        /// Crashes (or resumes) every node but `home`. While they are
        /// crashed a protocol write at `home` cannot gather its
        /// majority, so the flush carrying it stays in flight — parking
        /// whatever is admitted meanwhile, with no wall-clock window —
        /// until they resume and `home` retransmits on its next round.
        pub(crate) fn crash_all_but(&self, home: usize, crashed: bool) {
            for k in (0..self.cfg.nodes).filter(|&k| k != home) {
                if crashed {
                    self.cluster.crash(NodeId(k));
                } else {
                    self.cluster.resume(NodeId(k));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::wait_until;
    use super::*;
    use sss_core::Alg1;

    const SEED: u64 = 0x5EED;
    /// The key written by the flush a test holds open.
    const HELD_KEY: u64 = 0;

    /// Crashed nodes must not trip the failure detector or the flush
    /// timeout unless a test asks for it.
    fn patient() -> ShardConfig {
        ShardConfig {
            flush_timeout: Duration::from_secs(120),
            suspect_after: Duration::from_secs(600),
            ..ShardConfig::default()
        }
    }

    fn start(cfg: ShardConfig) -> Shard<Alg1> {
        let n = cfg.nodes;
        Shard::start_traced(0, cfg, SEED, Tracer::off(), move |id| Alg1::new(id, n))
    }

    fn write(shard: &Shard<Alg1>, key: u64, value: Value) -> Receiver<ServiceResult> {
        let (tx, rx) = bounded(1);
        let req = Request::Write {
            key,
            value,
            t0: Instant::now(),
            done: Some(tx),
        };
        shard.submit(req).expect("admitted");
        rx
    }

    fn parked(queue: &Queue) -> bool {
        queue.inner.lock().expect("queue poisoned").parked
    }

    #[test]
    fn register_routing_is_deterministic_and_in_range() {
        for key in 0..1000u64 {
            let a = register_for(7, key, 5);
            assert_eq!(a, register_for(7, key, 5));
            assert!(a < 5);
        }
        // Different seeds route independently.
        let moved = (0..1000u64)
            .filter(|&k| register_for(1, k, 5) != register_for(2, k, 5))
            .count();
        assert!(moved > 500, "only {moved}/1000 keys moved across seeds");
    }

    /// A push that races the consumer's decision to park must still
    /// wake it: with a 10 s idle deadline, a lost notify surfaces as a
    /// drain that comes back empty.
    #[test]
    fn no_wakeup_is_lost_between_racing_producers_and_a_parking_consumer() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 10_000;
        let queue = Queue::new();
        let drained = std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                s.spawn(|| {
                    for i in 0..PER_PRODUCER as u64 {
                        let req = Request::Write {
                            key: i,
                            value: i,
                            t0: Instant::now(),
                            done: None,
                        };
                        assert!(queue.try_push(req, usize::MAX).is_ok());
                    }
                });
            }
            let mut drained = 0;
            while drained < PRODUCERS * PER_PRODUCER {
                let idle_deadline = Instant::now() + Duration::from_secs(10);
                let (batch, finished) = queue.drain_at(idle_deadline, 64);
                assert!(
                    !batch.is_empty(),
                    "drain sat out its idle deadline with {drained} drained: a wake-up was lost"
                );
                assert!(batch.len() <= 64 && !finished);
                drained += batch.len();
            }
            drained
        });
        assert_eq!(drained, PRODUCERS * PER_PRODUCER);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn close_wakes_a_parked_consumer() {
        let queue = Queue::new();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let idle_deadline = Instant::now() + Duration::from_secs(30);
                let (batch, finished) = queue.drain_at(idle_deadline, 64);
                (batch.len(), finished, Instant::now() < idle_deadline)
            });
            wait_until("the consumer to park", || parked(&queue));
            queue.close();
            let (len, finished, woken) = consumer.join().expect("consumer panicked");
            assert_eq!((len, finished), (0, true));
            assert!(woken, "close left the consumer to its idle deadline");
        });
        assert!(matches!(
            queue.try_push(
                Request::Snapshot {
                    t0: Instant::now(),
                    done: None
                },
                8
            ),
            Err(PushError::Closed)
        ));
    }

    #[test]
    fn a_lone_write_on_an_idle_shard_gets_a_flush_of_its_own() {
        let mut shard = start(patient());
        wait_until("the batcher to park", || parked(&shard.queue));
        let reply = write(&shard, 7, 42).recv().expect("resolved");
        assert_eq!(reply, Ok(ServiceReply::WriteDone));
        let stats = shard.stats();
        assert_eq!(
            (stats.flushes, stats.absorbed, stats.protocol_ops),
            (1, 1, 1)
        );
        assert_eq!((stats.completed, stats.queue_depth), (1, 0));
        shard.shutdown();
    }

    #[test]
    fn writes_queued_behind_a_flush_in_flight_collapse_into_one_protocol_op() {
        const PARKED: u64 = 200;
        let cfg = patient();
        let n = cfg.nodes;
        let mut shard = start(cfg);
        let home = register_for(SEED, HELD_KEY, n);
        shard.crash_all_but(home, true);
        let held = write(&shard, HELD_KEY, 1);
        wait_until("the first flush to issue its write", || {
            shard.stats().protocol_ops == 1
        });

        // Everything admitted now waits for that flush: one in flight
        // per shard. Same key, so same register.
        let parked: Vec<_> = (0..PARKED)
            .map(|i| write(&shard, HELD_KEY, 2 + i))
            .collect();
        let before = shard.stats();
        assert_eq!(before.queue_depth, PARKED);
        assert_eq!((before.flushes, before.protocol_ops), (1, 1));

        shard.crash_all_but(home, false);
        for rx in std::iter::once(held).chain(parked) {
            assert_eq!(rx.recv().expect("resolved"), Ok(ServiceReply::WriteDone));
        }
        let stats = shard.stats();
        assert_eq!(stats.flushes, 2, "the backlog formed one batch");
        assert_eq!(stats.absorbed, 1 + PARKED);
        assert_eq!(stats.protocol_ops, 2, "one protocol write per flush");
        assert_eq!((stats.completed, stats.failed), (1 + PARKED, 0));
        shard.shutdown();
    }

    #[test]
    fn shutdown_wakes_a_parked_batcher_and_resolves_every_queued_ticket() {
        let mut shard = start(patient());
        wait_until("the batcher to park", || parked(&shard.queue));
        let tickets: Vec<_> = (0..100u64).map(|k| write(&shard, k, k)).collect();
        shard.shutdown();
        // The batcher has been joined: every ticket already holds its
        // outcome.
        for rx in tickets {
            assert_eq!(rx.try_recv(), Ok(Ok(ServiceReply::WriteDone)));
        }
        let stats = shard.stats();
        assert_eq!((stats.completed, stats.pending()), (100, 0));
    }

    #[test]
    fn a_downed_shard_clears_its_flag_on_the_idle_probe_without_arrivals() {
        let mut shard = start(ShardConfig::default());
        let nodes = || (0..shard.cfg.nodes).map(NodeId);
        nodes().for_each(|k| shard.cluster.crash(k));
        wait_until("the idle probe to mark the shard down", || shard.is_down());
        let refused = shard.submit(Request::Snapshot {
            t0: Instant::now(),
            done: None,
        });
        assert!(matches!(
            refused,
            Err(ServiceError::Unavailable { shard: 0 })
        ));

        nodes().for_each(|k| shard.cluster.resume(k));
        wait_until("the idle probe to clear the flag", || !shard.is_down());
        let stats = shard.stats();
        assert_eq!(
            (stats.accepted, stats.flushes, stats.unavailable),
            (0, 0, 1),
            "the flag moved both ways without a single admitted request"
        );
        shard.shutdown();
    }
}
