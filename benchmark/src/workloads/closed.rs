//! Closed-loop workloads on the two cluster runtimes: a few blocking
//! clients, each sending its next operation when the previous one
//! returned — the paper's own client model (one sequential client per
//! process). `threads-closed`, `sockets-closed`, `threads-snap` and the
//! threads leg of `fault-recovery` are all this loop with different
//! parameters.

use super::{clone_counts, put_clone_rates, sleep_until, window_counters, Ctx};
use crate::measure::{Clock, Measured, OpSample};
use crate::procfs::CpuTime;
use crate::verify;
use sss_obs::{MemorySink, TraceBuffer, Tracer};
use sss_runtime::{Client, Cluster, NetStats, SocketCluster};
use sss_types::{History, NodeId, OpClass, Protocol, WireMsg};
use sss_workload::unique_value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The part of the two cluster runtimes' (identical) public surface the
/// harness drives.
pub trait Sut<P: Protocol>: Sync {
    fn client(&self, node: NodeId) -> Client<P>;
    fn history(&self) -> History;
    fn net_stats(&self) -> NetStats;
    fn dropped(&self) -> u64;
    fn crash(&self, node: NodeId);
    fn resume(&self, node: NodeId);
    fn corrupt(&self, node: NodeId, seed: u64);
    fn stop(self);
}

macro_rules! impl_sut {
    ($ty:ident $(, $bound:path)?) => {
        impl<P: Protocol + 'static> Sut<P> for $ty<P>
        where
            $(P::Msg: $bound,)?
        {
            fn client(&self, node: NodeId) -> Client<P> {
                $ty::client(self, node)
            }
            fn history(&self) -> History {
                $ty::history(self)
            }
            fn net_stats(&self) -> NetStats {
                $ty::net_stats(self)
            }
            fn dropped(&self) -> u64 {
                $ty::messages_dropped(self)
            }
            fn crash(&self, node: NodeId) {
                $ty::crash(self, node)
            }
            fn resume(&self, node: NodeId) {
                $ty::resume(self, node)
            }
            fn corrupt(&self, node: NodeId, seed: u64) {
                $ty::corrupt(self, node, seed)
            }
            fn stop(self) {
                $ty::shutdown(self);
            }
        }
    };
}
impl_sut!(Cluster);
impl_sut!(SocketCluster, WireMsg);

/// What [`super::timed_setup`] waits for on a cluster: one write at
/// node 0.
pub fn first_write<P: Protocol, S: Sut<P>>(s: &mut S) {
    s.client(NodeId(0))
        .write(unique_value(NodeId(0), 1))
        .expect("first write on a fresh cluster");
}

/// Builds the `n`-node cluster the pass runs on — traced, when the pass
/// is — timing its construction up to the first write, and returns it
/// with the buffer its trace events land in.
pub fn timed_cluster<P: Protocol, S: Sut<P>>(
    ctx: &Ctx,
    n: usize,
    m: &mut Measured,
    clock: &Clock,
    make: impl Fn(Tracer) -> S,
) -> (S, TraceBuffer) {
    let (sink, trace) = MemorySink::new();
    let tracer = if ctx.traced {
        Tracer::new(n).with_sink(sink)
    } else {
        Tracer::off()
    };
    let sut = super::timed_setup(m, clock, || make(tracer), first_write);
    (sut, trace)
}

/// The repeated set-ups of a cluster workload (see
/// [`super::repeat_setups`]), untraced.
pub fn repeat_cluster_setups<P: Protocol, S: Sut<P>>(
    ctx: &Ctx,
    m: &mut Measured,
    clock: &Clock,
    make: impl Fn(Tracer) -> S,
) {
    super::repeat_setups(ctx, m, clock, || make(Tracer::off()), S::stop, first_write);
}

/// Parameters of one closed-loop workload.
pub struct ClosedSpec {
    /// Cluster size.
    pub n: usize,
    /// Blocking clients, one thread each, on nodes `0..clients`.
    pub clients: usize,
    /// Every `snap_every`-th operation of a client is a snapshot.
    pub snap_every: u64,
    /// Client operation timeout (`None` = the runtime's default).
    pub op_timeout: Option<Duration>,
    /// Whether to run the fault script during the window.
    pub faults: bool,
}

/// The fault script of `fault-recovery`: each second of the window
/// starts with a transient fault at **every** node; half a second in,
/// the last node crashes for 300 ms. Seeds derive from the run seed.
const FAULT_PERIOD: Duration = Duration::from_secs(1);
const CRASH_AT: Duration = Duration::from_millis(500);
const CRASH_FOR: Duration = Duration::from_millis(300);
/// How long clients keep running after the flush barrier so the
/// checker has a post-recovery suffix to judge.
const SUFFIX_TAIL: Duration = Duration::from_millis(300);

/// Builds the system, runs the closed loop — and, where the spec says
/// so, the fault script — against it, then times repeated set-ups.
pub fn run<P, S>(ctx: &Ctx, spec: &ClosedSpec, make: impl Fn(Tracer) -> S) -> Measured
where
    P: Protocol,
    S: Sut<P>,
{
    let mut m = Measured::default();
    let clock = Clock::start();
    let (sut, trace) = timed_cluster(ctx, spec.n, &mut m, &clock, &make);
    // History timestamps are µs on the cluster's own clock, which
    // started inside `make` — no earlier than the last `setup` phase
    // began, so harness time minus that start is an upper bound of the
    // cluster time of the same instant (the conservative side for a
    // suffix: it can only start later, never earlier).
    let cluster_epoch = m.phases.last().expect("setup phase recorded").1;

    let stop = AtomicBool::new(false);
    let (t0, t1) = ctx.window_on(&clock);
    let mut corruptions: Vec<u64> = Vec::new();
    let mut suffix_from = None;
    let mut clones = super::CloneCounts::default();
    let per_client: Vec<Vec<OpSample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let mut client = sut.client(NodeId(c));
                if let Some(t) = spec.op_timeout {
                    client = client.with_timeout(t);
                }
                let stop = &stop;
                scope.spawn(move || client_loop(&client, c, spec.snap_every, &clock, stop))
            })
            .collect();

        // The main thread brackets the window (and plays the faults).
        sleep_until(clock.instant(t0));
        let net = || (sut.net_stats(), sut.dropped());
        let before = (net(), CpuTime::now(), clone_counts());
        trace.clear();
        if spec.faults {
            corruptions = play_faults(&sut, spec.n, ctx.seed, &clock, t1);
        }
        sleep_until(clock.instant(t1));
        m.cpu = CpuTime::now().since(before.1);
        window_counters(&mut m, before.0, net(), spec.n);
        clones = clone_counts().since(before.2);
        m.window = (t0, clock.ns());
        m.trace.absorb(&trace.records());

        if spec.faults {
            // Flush barrier (the repository's own post-corruption
            // idiom): one fresh write at every client-less node, so each
            // register holds a known value again; then a short tail of
            // ordinary traffic for the checker to judge.
            for k in spec.clients..spec.n {
                if let Err(e) = sut.client(NodeId(k)).write(unique_value(NodeId(k), 1)) {
                    m.violations.push(format!("barrier write at p{k}: {e}"));
                }
            }
            suffix_from = Some(clock.ns());
            std::thread::sleep(SUFFIX_TAIL);
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    m.ops = per_client.into_iter().flatten().collect();
    put_clone_rates(&mut m, clones);

    let mut history = sut.history();
    let teardown_start = Instant::now();
    sut.stop();
    let teardown = teardown_start.elapsed();
    repeat_cluster_setups(ctx, &mut m, &clock, &make);

    let verify_start = clock.ns();
    if ctx.tamper {
        history = verify::tamper(&history);
    }
    // Unfaulted runs are judged on a time-prefix of the whole history;
    // `fault-recovery` on what was invoked after its flush barrier.
    let from = suffix_from.map_or(0, |at| (at - cluster_epoch) / 1_000);
    m.violations
        .extend(verify::history_sanity(&history, spec.n, from));
    let judged = match suffix_from {
        None => verify::time_prefix(&history, verify::PREFIX_OPS),
        Some(_) => history.suffix_keeping_writes(from),
    };
    verify::check(&judged, spec.n).record(&mut m);
    super::close_phases(&mut m, &clock, verify_start, teardown);

    if spec.faults {
        recovery_gaps(&mut m, &corruptions, spec.clients);
        m.counts.insert(
            "net.faults_applied",
            (corruptions.len() * (spec.n + 2)) as f64,
        );
    }
    m
}

/// One blocking client: writes with every `snap_every`-th operation a
/// snapshot, back to back, until told to stop.
fn client_loop<P: Protocol>(
    client: &Client<P>,
    lane: usize,
    snap_every: u64,
    clock: &Clock,
    stop: &AtomicBool,
) -> Vec<OpSample> {
    let node = client.node();
    let mut samples = Vec::with_capacity(1 << 18);
    // Sequence 1 of node 0 was spent by the set-up write.
    let (mut seq, mut k) = (1u64, 0u64);
    while !stop.load(Ordering::Relaxed) {
        k += 1;
        let snapshot = k.is_multiple_of(snap_every);
        let call_ns = clock.ns();
        let ok = if snapshot {
            client.snapshot().is_ok()
        } else {
            seq += 1;
            client.write(unique_value(node, seq)).is_ok()
        };
        let done_ns = clock.ns();
        samples.push(OpSample {
            class: if snapshot {
                OpClass::Snapshot
            } else {
                OpClass::Write
            },
            lane: lane as u16,
            due_ns: call_ns,
            call_ns,
            ret_ns: done_ns,
            done_ns,
            ok,
        });
    }
    samples
}

/// Plays the fault script until `end_ns`; returns the injection times
/// (pass-clock ns) of the all-node corruptions.
fn play_faults<P: Protocol, S: Sut<P>>(
    sut: &S,
    n: usize,
    seed: u64,
    clock: &Clock,
    end_ns: u64,
) -> Vec<u64> {
    let victim = NodeId(n - 1);
    let mut corruptions = Vec::new();
    let mut period_start = Instant::now();
    while clock.ns_at(period_start + FAULT_PERIOD) <= end_ns {
        let at = clock.ns();
        for k in 0..n {
            let salt = (corruptions.len() * n + k) as u64;
            sut.corrupt(NodeId(k), sss_net::mix64(seed, salt));
        }
        corruptions.push(at);
        sleep_until(period_start + CRASH_AT);
        sut.crash(victim);
        sleep_until(period_start + CRASH_AT + CRASH_FOR);
        sut.resume(victim);
        period_start += FAULT_PERIOD;
        sleep_until(period_start);
    }
    corruptions
}

/// For each corruption, the gap from injection until **every** client
/// has completed an operation it invoked *after* the injection — what
/// operations started after the fault experience (the
/// snap-stabilization yardstick). Stores the median, in ms.
fn recovery_gaps(m: &mut Measured, corruptions: &[u64], clients: usize) {
    let mut gaps_ms: Vec<f64> = corruptions
        .iter()
        .filter_map(|&at| {
            (0..clients as u16)
                .map(|lane| {
                    m.ops
                        .iter()
                        .filter(|o| o.lane == lane && o.ok && o.call_ns >= at)
                        .map(|o| o.done_ns)
                        .min()
                })
                .try_fold(0u64, |worst, first| Some(worst.max(first?)))
                .map(|done| (done - at) as f64 / 1e6)
        })
        .collect();
    m.counts.insert("fault.recoveries", gaps_ms.len() as f64);
    m.counts
        .insert("fault.recover_p50_ms", crate::stats::median(&mut gaps_ms));
}
