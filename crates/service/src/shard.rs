//! One shard: a full snapshot group ([`Cluster`]) plus its group-commit
//! batcher.
//!
//! The batcher is the mechanism that lets a group serve many more
//! client requests per second than it completes protocol operations. It
//! is **demand-driven** (natural batching, no timer): it sleeps only
//! while the admission queue is empty, flushes the moment a request
//! arrives, and whatever arrives while that flush waits on its protocol
//! operations *is* the next batch. Each flush drains up to
//! [`MAX_PER_FLUSH`] requests and collapses them by the
//! [group-commit rule](crate::commit) into at most `nodes + 1` protocol
//! operations. One flush is in flight per shard at a time, which keeps
//! per-key write order and bounds the shard's throughput by
//! `MAX_PER_FLUSH / op_latency` — what the group's protocol sustains,
//! not a pacing interval. Under light load a request costs one protocol
//! round trip and batches hold one or two requests; under backlog
//! flushes take longer, so batches (and the collapse factor) grow by
//! themselves.
//!
//! Failure semantics: the shard keeps no clock and no flag of its own;
//! it asks the runtime's failure detector, which counts rounds, whenever
//! it needs a verdict. A group in which *no* node can reach a majority
//! is down: admission fails fast with [`ServiceError::Unavailable`], and
//! a flush fails every drained request with the same error. Each
//! protocol operation a flush issues is awaited through
//! [`Client::await_reply`], with one deadline from the flush's start
//! (the cluster's `op_timeout`), so a request stranded by a crash or a
//! lost quorum fails on the detector's evidence, the way a blocking
//! client op does. A minority crash keeps the shard up: only keys homed
//! on the crashed node fail, while other registers and snapshots keep
//! completing.

use crate::commit::{self, Planned, MAX_PER_FLUSH};
use crate::{ServiceError, ServiceReply, ServiceResult};
use crossbeam::channel::{bounded, Sender};
use sss_net::{mix64, FaultPlan};
use sss_obs::{ShardGauge, Tracer};
use sss_runtime::{Client, Cluster, ClusterConfig, ClusterError, SubmitError};
use sss_sim::LatencySummary;
use sss_types::{NodeId, OpResponse, Protocol, SnapshotOp};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-shard tuning. The defaults suit a 3-process group on a busy CI
/// host; the service applies one config to every shard.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Processes (and registers) per group.
    pub nodes: usize,
    /// Admission-queue bound; a full queue rejects with
    /// [`ServiceError::Overloaded`].
    pub queue_cap: usize,
    /// The group's `do forever` round interval
    /// ([`ClusterConfig::round_interval`]).
    pub round_interval: Duration,
    /// Failure-detector suspicion window
    /// ([`ClusterConfig::suspect_after`]).
    pub suspect_after: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            nodes: 3,
            queue_cap: 4096,
            round_interval: Duration::from_millis(2),
            suspect_after: Duration::from_millis(100),
        }
    }
}

/// One client request, parked in the admission queue until a flush.
pub(crate) struct Request {
    /// Routing key (a write's home register).
    pub(crate) key: u64,
    /// A write of the key's value, or a snapshot of the shard.
    pub(crate) op: SnapshotOp,
    /// Admission time, for end-to-end latency accounting.
    pub(crate) t0: Instant,
    /// Completion channel (`None` for fire-and-forget submission).
    pub(crate) done: Option<Sender<ServiceResult>>,
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
    /// op timeout, shutdown).
    pub failed: u64,
    /// Admission rejections due to a full queue.
    pub overloaded: u64,
    /// Admission rejections while the group could not reach a majority
    /// (fail-fast on the failure detector's verdict).
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
    /// Whether the failure detector saw no node of the group reach a
    /// majority when this snapshot was taken.
    pub down: bool,
    /// End-to-end (admission → completion) latency of successful
    /// requests, in microseconds.
    pub latency: LatencySummary,
}

impl ShardStats {
    /// Admitted requests not yet resolved either way (never negative:
    /// a snapshot reads the resolved counters before `accepted`).
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

/// The counters behind [`ShardStats`]. A request is counted `accepted`
/// under the queue lock, before the batcher can drain it, and
/// `completed`/`failed` are released after; so a reader that acquires
/// the resolved counters first never sees more resolved than accepted.
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

    /// Queues `req` unless the queue is closed or holds `cap` requests,
    /// counting it in `accepted` before the batcher can drain it.
    fn try_push(&self, req: Request, cap: usize, accepted: &AtomicU64) -> Result<(), PushError> {
        let wake = {
            let mut q = self.inner.lock().expect("queue poisoned");
            if q.closed {
                return Err(PushError::Closed);
            }
            if q.buf.len() >= cap {
                return Err(PushError::Full);
            }
            q.buf.push_back(req);
            accepted.fetch_add(1, Ordering::Relaxed);
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

    /// Parks while the queue is empty — until a push or a close — then
    /// drains up to [`MAX_PER_FLUSH`] requests without waiting for more.
    /// Returns the batch and whether the queue is closed *and* empty (the
    /// batcher's exit condition).
    fn drain(&self) -> (Vec<Request>, bool) {
        let mut q = self.inner.lock().expect("queue poisoned");
        while q.buf.is_empty() && !q.closed {
            q.parked = true;
            q = self.cv.wait(q).expect("queue poisoned");
            q.parked = false;
        }
        let take = q.buf.len().min(MAX_PER_FLUSH);
        let batch: Vec<Request> = q.buf.drain(..take).collect();
        let finished = q.closed && q.buf.is_empty();
        (batch, finished)
    }
}

/// One shard: the group's [`Cluster`], its admission queue and its
/// batcher thread. See the [module docs](self).
pub(crate) struct Shard<P: Protocol> {
    id: usize,
    cluster: Arc<Cluster<P>>,
    /// One client per node, for the detector's verdicts.
    clients: Vec<Client<P>>,
    queue: Arc<Queue>,
    stats: Arc<StatsInner>,
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
        let clients: Vec<_> = (0..n).map(|k| cluster.client(NodeId(k))).collect();
        let batcher = Batcher {
            shard: id,
            seed,
            clients: clients.clone(),
            queue: Arc::clone(&queue),
            stats: Arc::clone(&stats),
        };
        let handle = std::thread::Builder::new()
            .name(format!("shard-{id}-batcher"))
            .spawn(move || batcher.run())
            .expect("spawn batcher");
        Shard {
            id,
            cluster,
            clients,
            queue,
            stats,
            cfg,
            batcher: Some(handle),
        }
    }

    /// Admission: fail fast while down, reject when full, else queue.
    pub(crate) fn submit(&self, req: Request) -> Result<(), ServiceError> {
        if self.is_down() {
            self.stats.unavailable.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Unavailable { shard: self.id });
        }
        match self
            .queue
            .try_push(req, self.cfg.queue_cap, &self.stats.accepted)
        {
            Ok(()) => Ok(()),
            Err(PushError::Full) => {
                self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded { shard: self.id })
            }
            Err(PushError::Closed) => Err(ServiceError::Shutdown),
        }
    }

    /// Whether the failure detector sees no node of the group reach a
    /// majority.
    pub(crate) fn is_down(&self) -> bool {
        pick_contact(&self.clients, 0).is_none()
    }

    /// Admitted requests not yet resolved, from the counters alone.
    pub(crate) fn pending(&self) -> u64 {
        let resolved = self.stats.completed.load(Ordering::Acquire)
            + self.stats.failed.load(Ordering::Acquire);
        self.stats.accepted.load(Ordering::Relaxed) - resolved
    }

    /// Snapshot of the shard's counters and latency distribution.
    pub(crate) fn stats(&self) -> ShardStats {
        // Copy the samples out and summarise (a sort) outside the lock:
        // the batcher takes the same mutex for every acknowledged group.
        let samples = self.stats.samples.lock().expect("samples poisoned").clone();
        ShardStats {
            shard: self.id,
            // Field order is load order: resolved before accepted.
            completed: self.stats.completed.load(Ordering::Acquire),
            failed: self.stats.failed.load(Ordering::Acquire),
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            overloaded: self.stats.overloaded.load(Ordering::Relaxed),
            unavailable: self.stats.unavailable.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            absorbed: self.stats.absorbed.load(Ordering::Relaxed),
            protocol_ops: self.stats.protocol_ops.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            down: self.is_down(),
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
}

impl<P: Protocol> Shard<P> {
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
        self.shutdown();
    }
}

/// The first node of the group (starting the scan at `prefer`) whose
/// failure detector sees a majority; `None` means the group is down.
/// Admission, the stats' `down` gauge and each flush's contact all ask
/// here.
fn pick_contact<P: Protocol>(clients: &[Client<P>], prefer: usize) -> Option<usize> {
    let n = clients.len();
    (0..n)
        .map(|i| (prefer + i) % n)
        .find(|&k| clients[k].availability().is_none())
}

/// The group-commit worker; one thread per shard.
struct Batcher<P: Protocol> {
    shard: usize,
    seed: u64,
    clients: Vec<Client<P>>,
    queue: Arc<Queue>,
    stats: Arc<StatsInner>,
}

impl<P: Protocol> Batcher<P> {
    fn run(self) {
        let n = self.clients.len();
        let mut contact = 0usize;
        loop {
            let (batch, finished) = self.queue.drain();
            if !batch.is_empty() {
                match pick_contact(&self.clients, contact) {
                    None => self.fail(batch, ServiceError::Unavailable { shard: self.shard }),
                    Some(c) => {
                        self.flush(batch, c);
                        // Rotate the snapshot contact for the next flush.
                        contact = (c + 1) % n;
                    }
                }
            }
            if finished {
                return;
            }
        }
    }

    /// Collapses one drained batch into at most `nodes + 1` protocol
    /// operations, waits for them, and resolves every request.
    fn flush(&self, batch: Vec<Request>, contact: usize) {
        let start = Instant::now();
        // Every drained request was absorbed by this group commit; the
        // protocol-op counter below then measures the collapse.
        self.stats
            .absorbed
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        let plan = commit::collapse(
            self.seed,
            self.clients.len(),
            contact,
            batch.into_iter().map(|r| (r.key, r.op, r)),
        );
        let mut waits = Vec::new();
        for Planned { node, op, tickets } in plan {
            let client = &self.clients[node.index()];
            let (tx, rx) = bounded(1);
            match client.submit(op, tx) {
                Ok(id) => {
                    self.stats.protocol_ops.fetch_add(1, Ordering::Relaxed);
                    waits.push((client, id, rx, tickets));
                }
                Err(SubmitError::Full) => {
                    self.fail(tickets, ServiceError::Overloaded { shard: self.shard })
                }
                Err(SubmitError::Shutdown) => self.fail(tickets, ServiceError::Shutdown),
            }
        }
        for (client, id, rx, group) in waits {
            match client.await_reply(id, &rx, start) {
                Ok(resp) => self.ack(group, &resp),
                Err(ClusterError::Shutdown) => self.fail(group, ServiceError::Shutdown),
                // The detector indicted the op's node or quorum, or the
                // op outlived the cluster's op timeout or was aborted by
                // a reset: uncertain, reported as unavailability.
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
            .fetch_add(group.len() as u64, Ordering::Release);
        let mut samples = self.stats.samples.lock().expect("samples poisoned");
        samples.reserve(group.len());
        for req in group {
            samples.push(now.saturating_duration_since(req.t0).as_micros() as u64);
            if let Some(tx) = req.done {
                let _ = tx.send(Ok(reply.clone()));
            }
        }
    }

    fn fail(&self, group: Vec<Request>, err: ServiceError) {
        // Same ordering contract as `ack`: count, then notify.
        self.stats
            .failed
            .fetch_add(group.len() as u64, Ordering::Release);
        for req in group {
            if let Some(tx) = req.done {
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
    use crate::commit::register_for;
    use crossbeam::channel::{Receiver, RecvTimeoutError};
    use sss_core::Alg1;
    use std::sync::atomic::AtomicBool;

    const SEED: u64 = 0x5EED;
    /// The key written by the flush a test holds open.
    const HELD_KEY: u64 = 0;

    /// Crashed nodes must not trip the failure detector unless a test
    /// asks for it. (A flush a test holds open still ends at the
    /// cluster's 5 s op timeout.)
    fn patient() -> ShardConfig {
        ShardConfig {
            suspect_after: Duration::from_secs(600),
            ..ShardConfig::default()
        }
    }

    fn start(cfg: ShardConfig) -> Shard<Alg1> {
        let n = cfg.nodes;
        Shard::start_traced(0, cfg, SEED, Tracer::off(), move |id| Alg1::new(id, n))
    }

    fn request(key: u64, op: SnapshotOp, done: Option<Sender<ServiceResult>>) -> Request {
        Request {
            key,
            op,
            t0: Instant::now(),
            done,
        }
    }

    fn write(shard: &Shard<Alg1>, key: u64, value: u64) -> Receiver<ServiceResult> {
        let (tx, rx) = bounded(1);
        let req = request(key, SnapshotOp::Write(value), Some(tx));
        shard.submit(req).expect("admitted");
        rx
    }

    fn parked(queue: &Queue) -> bool {
        queue.inner.lock().expect("queue poisoned").parked
    }

    /// A push that races the consumer's decision to park must still
    /// wake it. The drain parks untimed, so a watchdog closes the queue
    /// 10 s in: a lost notify then surfaces as a drain the watchdog had
    /// to end, not as a hang.
    #[test]
    fn no_wakeup_is_lost_between_racing_producers_and_a_parking_consumer() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 10_000;
        const TOTAL: usize = PRODUCERS * PER_PRODUCER;
        let queue = Queue::new();
        let accepted = AtomicU64::new(0);
        let (drained, watchdog_fired) = std::thread::scope(|s| {
            let (all_drained, watched) = bounded::<()>(0);
            let queue = &queue;
            let watchdog = s.spawn(move || {
                let deadline = watched.recv_timeout(Duration::from_secs(10));
                let fired = deadline == Err(RecvTimeoutError::Timeout);
                if fired {
                    queue.close();
                }
                fired
            });
            for _ in 0..PRODUCERS {
                s.spawn(|| {
                    for i in 0..PER_PRODUCER as u64 {
                        let req = request(i, SnapshotOp::Write(i), None);
                        let _ = queue.try_push(req, usize::MAX, &accepted);
                    }
                });
            }
            let mut drained = 0;
            while drained < TOTAL {
                let (batch, finished) = queue.drain();
                assert!(batch.len() <= MAX_PER_FLUSH);
                drained += batch.len();
                if finished {
                    break;
                }
            }
            drop(all_drained);
            (drained, watchdog.join().expect("watchdog panicked"))
        });
        assert!(
            !watchdog_fired,
            "the watchdog closed the queue with {drained} of {TOTAL} drained: a wake-up was lost"
        );
        assert_eq!(drained, TOTAL);
        assert_eq!(accepted.into_inner(), drained as u64);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn close_wakes_a_parked_consumer() {
        let queue = Queue::new();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let (batch, finished) = queue.drain();
                (batch.len(), finished)
            });
            wait_until("the consumer to park", || parked(&queue));
            queue.close();
            wait_until("close to wake the consumer", || consumer.is_finished());
            let (len, finished) = consumer.join().expect("consumer panicked");
            assert_eq!((len, finished), (0, true));
        });
        let snapshot = request(0, SnapshotOp::Snapshot, None);
        assert!(matches!(
            queue.try_push(snapshot, 8, &AtomicU64::new(0)),
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

    /// Admission asks the failure detector when it is called, so it
    /// follows the group down and back up at once, with no request
    /// admitted and no probe period in between.
    #[test]
    fn admission_follows_the_detector_both_ways_with_no_admitted_request() {
        let mut shard = start(ShardConfig::default());
        let nodes = || (0..shard.cfg.nodes).map(NodeId);
        let snapshot = || shard.submit(request(0, SnapshotOp::Snapshot, None));
        nodes().for_each(|k| shard.cluster.crash(k));
        assert!(shard.is_down() && shard.stats().down);
        assert!(matches!(
            snapshot(),
            Err(ServiceError::Unavailable { shard: 0 })
        ));

        nodes().for_each(|k| shard.cluster.resume(k));
        assert!(!shard.is_down() && !shard.stats().down);
        let stats = shard.stats();
        assert_eq!(
            (stats.accepted, stats.flushes, stats.unavailable),
            (0, 0, 1),
            "admission moved both ways without a single admitted request"
        );
        assert_eq!(snapshot(), Ok(()), "the resumed group admits at once");
        shard.shutdown();
    }

    /// `pending()` subtracts the resolved counters from `accepted`; a
    /// poller reading them while submitters race the batcher must never
    /// see more requests resolved than accepted (in a debug build the
    /// subtraction would panic). The burst starts only once the poller
    /// has read, so the two do race however the threads are scheduled.
    #[test]
    fn a_poller_never_reads_more_resolved_than_accepted_during_a_burst() {
        const SUBMITTERS: u64 = 3;
        const PER_SUBMITTER: u64 = 3_000;
        let mut shard = start(patient());
        let burst_over = AtomicBool::new(false);
        let polling = AtomicBool::new(false);
        std::thread::scope(|s| {
            let poller = s.spawn(|| {
                while !burst_over.load(Ordering::Relaxed) {
                    let stats = shard.stats();
                    assert!(
                        stats.completed + stats.failed <= stats.accepted,
                        "resolved {} + {} > accepted {}",
                        stats.completed,
                        stats.failed,
                        stats.accepted
                    );
                    let _ = (stats.pending(), shard.pending());
                    polling.store(true, Ordering::Relaxed);
                }
            });
            wait_until("the poller to read", || polling.load(Ordering::Relaxed));
            for i in 0..SUBMITTERS {
                let shard = &shard;
                s.spawn(move || {
                    for k in 0..PER_SUBMITTER {
                        let req = request(i * PER_SUBMITTER + k, SnapshotOp::Write(k), None);
                        // A full queue refuses without counting; either
                        // outcome is fine here.
                        let _ = shard.submit(req);
                    }
                });
            }
            wait_until("the burst to be admitted", || {
                let stats = shard.stats();
                stats.accepted + stats.overloaded == SUBMITTERS * PER_SUBMITTER
            });
            wait_until("the burst to resolve", || shard.pending() == 0);
            burst_over.store(true, Ordering::Relaxed);
            poller.join().expect("poller panicked");
        });
        let stats = shard.stats();
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.completed, stats.accepted);
        shard.shutdown();
    }
}
