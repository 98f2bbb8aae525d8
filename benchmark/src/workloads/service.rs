//! `service-open`: the sharded service under an open loop — requests
//! leave on a fixed schedule whether or not earlier ones have returned,
//! and each is timed from the instant it was *due*, so a stall anywhere
//! (generator, admission, batcher) shows up as latency of the requests
//! queued behind it.

use super::{clone_counts, put_clone_rates, sleep_until, Ctx};
use crate::measure::{Clock, Measured, OpSample};
use crate::procfs::CpuTime;
use crate::stats::percentile_sorted;
use crate::verify::{tamper_view, ViewSanity};
use sss_core::Alg1;
use sss_net::mix64;
use sss_obs::{MemorySink, TraceBuffer, Tracer};
use sss_service::{Service, ServiceConfig, ServiceReply, ShardConfig, ShardStats, Ticket};
use sss_types::{NodeId, OpClass, SnapshotOp};
use sss_workload::SessionSpec;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Offered load, requests per second.
const RATE: u64 = 16_000;
/// A request slower than this (from its due time), refused or failed
/// counts as late.
const LIMIT: Duration = Duration::from_millis(20);
/// The sampler reads the service's gauges this often. A reading
/// summarises every shard's latency histogram (≈ 0.5 ms of processor
/// time), so 10 ms sampling would be a sixth of the run's CPU time.
const GAUGE_EVERY: Duration = Duration::from_millis(50);
/// What the set-up write stores (under key 0); no session writes it
/// (session values are at least `1 << 24`).
const SETUP_VALUE: u64 = 1;
/// A ticket unresolved this long is a violation.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// A request the generator handed to its shard's collector.
struct InFlight {
    ticket: Ticket,
    sample: OpSample,
}

pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let clock = Clock::start();
    let nodes = ShardConfig::default().nodes;
    let cfg = || ServiceConfig {
        shards: SHARDS,
        seed: mix64(ctx.seed, 0x5E),
        shard: ShardConfig {
            suspect_after: super::SUSPECT_AFTER,
            ..ShardConfig::default()
        },
        ..ServiceConfig::default()
    };
    let spec = SessionSpec {
        sessions: RATE * (ctx.warmup + ctx.window).as_secs().max(1) * 2,
        ops_per_session: 1,
        write_ratio: 0.95,
        key_space: 65_536,
        seed: mix64(ctx.seed, 0x5E55),
    };
    let start = |tracers: Vec<Tracer>| {
        let mut tracers = tracers.into_iter();
        Service::start_traced(
            cfg(),
            move |_| tracers.next().unwrap_or_else(Tracer::off),
            move |_, id| Alg1::new(id, nodes),
        )
    };
    let (tracers, buffers): (Vec<Tracer>, Vec<TraceBuffer>) = (0..SHARDS)
        .filter(|_| ctx.traced)
        .map(|_| {
            let (sink, buf) = MemorySink::new();
            (Tracer::new(nodes).with_sink(sink), buf)
        })
        .unzip();
    let first_write = |s: &mut Service<Alg1>| {
        let t = s
            .write(0, SETUP_VALUE)
            .expect("admission on a fresh service");
        t.wait().expect("first write on a fresh service");
    };
    let svc = super::timed_setup(&mut m, &clock, || start(tracers), first_write);

    let stop = AtomicBool::new(false);
    let issued = AtomicU64::new(0);
    let (t0, t1) = ctx.window_on(&clock);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..SHARDS).map(|_| mpsc::channel::<InFlight>()).unzip();
    let mut gauge_max = 0u64;
    let mut clones = super::CloneCounts::default();
    let (generated, collected) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(&svc, &spec, &clock, &stop, &issued, txs));
        let collectors: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                let (spec, clock, issued) = (&spec, &clock, &issued);
                // The self-test edits one view, of shard 0.
                let tamper = ctx.tamper && shard == 0;
                scope.spawn(move || collect(shard, spec, nodes, clock, issued, rx, tamper))
            })
            .collect();

        sleep_until(clock.instant(t0));
        let before = (totals(&svc.stats()), CpuTime::now(), clone_counts());
        for b in &buffers {
            b.clear();
        }
        while clock.ns() < t1 {
            std::thread::sleep(GAUGE_EVERY);
            let depth = svc.gauges().iter().map(|g| g.queue_depth).max();
            gauge_max = gauge_max.max(depth.unwrap_or(0));
        }
        m.cpu = CpuTime::now().since(before.1);
        let after = totals(&svc.stats());
        clones = clone_counts().since(before.2);
        m.window = (t0, clock.ns());
        for b in &buffers {
            m.trace.absorb(&b.records());
        }
        let delta = |f: fn(&Totals) -> u64| (f(&after) - f(&before.0)) as f64;
        m.counts.insert("service.absorbed", delta(|t| t.absorbed));
        m.counts
            .insert("service.protocol_ops", delta(|t| t.protocol_ops));
        m.counts
            .insert("service.overloaded", delta(|t| t.overloaded));
        m.counts.insert("service.queue_depth_max", gauge_max as f64);

        stop.store(true, Ordering::Relaxed);
        let generated = generator.join().expect("generator panicked");
        let collected: Vec<Collected> = collectors
            .into_iter()
            .map(|c| c.join().expect("collector panicked"))
            .collect();
        (generated, collected)
    });
    let verify_start = clock.ns();
    m.ops = generated; // refused at admission: never reached a collector
    for shard in collected {
        m.ops.extend(shard.ops);
        m.violations.extend(shard.violations);
    }
    put_clone_rates(&mut m, clones);

    // Stamping error: the harness's call → observed-done mean against
    // the service's own admission → ack mean over the same requests.
    let stats = svc.stats();
    let (svc_sum, svc_n) = stats.iter().fold((0u64, 0u64), |(s, n), st| {
        (s + st.latency.sum, n + st.latency.count as u64)
    });
    let seen: Vec<u64> = m
        .ops
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.done_ns - o.call_ns)
        .collect();
    if svc_n > 0 && !seen.is_empty() {
        let harness_us = seen.iter().sum::<u64>() as f64 / seen.len() as f64 / 1e3;
        let service_us = svc_sum as f64 / svc_n as f64;
        m.counts
            .insert("gen.stamp_error_us", harness_us - service_us);
    }
    let (late, lags) = window_lateness(&m);
    m.counts.insert("service.late", late as f64);
    m.counts.insert("gen.rate", RATE as f64);
    m.counts.insert(
        "gen.lag_p99_us",
        percentile_sorted(&lags, 99.0) as f64 / 1e3,
    );
    m.counts.insert(
        "gen.lag_max_us",
        lags.last().copied().unwrap_or(0) as f64 / 1e3,
    );
    let teardown = Instant::now();
    svc.shutdown();
    super::close_phases(&mut m, &clock, verify_start, teardown.elapsed());
    let fresh = || start(Vec::new());
    super::repeat_setups(ctx, &mut m, &clock, fresh, Service::shutdown, first_write);
    m
}

/// The cumulative counters the window's deltas are taken from.
struct Totals {
    absorbed: u64,
    protocol_ops: u64,
    overloaded: u64,
}

fn totals(stats: &[ShardStats]) -> Totals {
    Totals {
        absorbed: stats.iter().map(|s| s.absorbed).sum(),
        protocol_ops: stats.iter().map(|s| s.protocol_ops).sum(),
        overloaded: stats.iter().map(|s| s.overloaded).sum(),
    }
}

/// In-window requests that missed the limit or failed, and the sorted
/// generator lags (call − due) of the window, ns.
fn window_lateness(m: &Measured) -> (u64, Vec<u64>) {
    let limit = LIMIT.as_nanos() as u64;
    let late = m
        .in_window()
        .filter(|o| !o.ok || o.done_ns - o.due_ns > limit)
        .count() as u64;
    let mut lags: Vec<u64> = m.in_window().map(|o| o.call_ns - o.due_ns).collect();
    lags.sort_unstable();
    (late, lags)
}

/// The generator: request `i` is due at `start + i / RATE`. A late
/// wake-up sends everything that fell due, so the schedule never
/// slides. Returns the samples of requests refused at admission.
fn generate(
    svc: &Service<Alg1>,
    spec: &SessionSpec,
    clock: &Clock,
    stop: &AtomicBool,
    issued: &AtomicU64,
    txs: Vec<mpsc::Sender<InFlight>>,
) -> Vec<OpSample> {
    let mut refused = Vec::new();
    let start_ns = clock.ns();
    let due_of = |i: u64| start_ns + i * 1_000_000_000 / RATE;
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) && i < spec.total_ops() {
        let due_ns = due_of(i);
        if clock.ns() < due_ns {
            sleep_until(clock.instant(due_ns));
        }
        let event = spec.event(i);
        i += 1;
        issued.store(i, Ordering::Release);
        let call_ns = clock.ns();
        let (class, admitted) = match event.op {
            SnapshotOp::Write(v) => (OpClass::Write, svc.write(event.key, v)),
            SnapshotOp::Snapshot => (OpClass::Snapshot, svc.snapshot(event.key)),
        };
        let ret_ns = clock.ns();
        let sample = OpSample {
            class,
            lane: 0,
            due_ns,
            call_ns,
            ret_ns,
            done_ns: ret_ns,
            ok: false,
        };
        match admitted {
            Ok(ticket) => {
                let _ = txs[svc.shard_for(event.key)].send(InFlight { ticket, sample });
            }
            Err(_) => refused.push(sample),
        }
    }
    refused
}

struct Collected {
    ops: Vec<OpSample>,
    violations: Vec<String>,
}

/// One shard's collector: waits for the shard's tickets in admission
/// order (a shard's flushes resolve them in that order) and stamps each
/// completion when its wait returns. It sleeps between flushes — a
/// flush wakes it once and the rest of that flush's tickets are already
/// resolved — so it costs the program's threads next to no processor
/// time. `gen.stamp_error_us` measures how late the stamps read.
fn collect(
    shard: usize,
    spec: &SessionSpec,
    nodes: usize,
    clock: &Clock,
    issued: &AtomicU64,
    rx: mpsc::Receiver<InFlight>,
    mut tamper: bool,
) -> Collected {
    let mut out = Collected {
        ops: Vec::with_capacity(1 << 17),
        violations: Vec::new(),
    };
    let mut views = ViewSanity::sequential(nodes);
    // Ends when the generator has stopped and every ticket is in.
    for req in rx {
        let Some(result) = req.ticket.wait_timeout(DRAIN_LIMIT) else {
            out.violations
                .push(format!("shard {shard}: a ticket never resolved"));
            break;
        };
        let mut sample = req.sample;
        sample.done_ns = clock.ns();
        sample.ok = result.is_ok();
        if let Ok(ServiceReply::Snapshot(view)) = result {
            let view = if std::mem::take(&mut tamper) {
                tamper_view(&view)
            } else {
                view
            };
            // Write values are `(session + 1) << 24 | round` with one
            // round per session.
            let check = views.observe(&view, |_: NodeId, v| {
                let session = (v >> 24).wrapping_sub(1);
                v == SETUP_VALUE
                    || (session < issued.load(Ordering::Acquire)
                        && spec.event(session).op == SnapshotOp::Write(v))
            });
            if let Err(e) = check {
                out.violations.push(format!("sanity: shard {shard}: {e}"));
            }
        }
        out.ops.push(sample);
    }
    out
}
