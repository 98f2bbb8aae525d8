//! The seven workloads. Each drives the program through its public API
//! only and returns a [`Measured`]; nothing in the program ever sees a
//! workload name — only the inputs generated here.

mod closed;
mod service;
pub mod sim;
mod window;

use crate::measure::{Clock, Measured};
use closed::ClosedSpec;
use sss_core::{Alg1, Alg3, Alg3Config};
use sss_net::mix64;
use sss_runtime::{Cluster, ClusterConfig, NetStats, SocketCluster, SocketConfig};
use sss_types::clone_stats;
use std::time::{Duration, Instant};

/// One workload: its name and why it is in the set.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// What it isolates (the `why` of `BENCHMARK.json`).
    pub why: &'static str,
}

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sim-storm",
        why: "Sim<Alg1> n=8 write storm, single-threaded: isolates sss-core + types + sim, bypasses runtime, sockets and service",
    },
    Workload {
        name: "threads-closed",
        why: "Cluster<Alg1> n=3, 2 blocking clients: the per-op critical path of the threaded runtime, no codec or syscalls",
    },
    Workload {
        name: "sockets-closed",
        why: "the threads-closed load on SocketCluster<Alg1> over UDP loopback: the difference is wire codec + mmsg + kernel; batching idle",
    },
    Workload {
        name: "sockets-window",
        why: "SocketCluster<Alg1> n=8 with 32 ops in flight from one generator: the capacity regime where batching, coalescing and packing work",
    },
    Workload {
        name: "service-open",
        why: "Service<Alg1> 2 shards x 3 nodes, open loop at 16000 req/s timed from due times: ring, admission, batcher and group commit",
    },
    Workload {
        name: "threads-snap",
        why: "Cluster<Alg3> n=3, 2 blocking clients, 50% snapshots: the same runtime under the round-paced protocol, reads beside writes",
    },
    Workload {
        name: "fault-recovery",
        why: "Cluster<Alg1> n=5 under a scripted minority crash and all-node transient fault each second, plus the sim's recovery cycle count",
    },
];

/// Parameters of one pass over one workload.
pub struct Ctx {
    /// Feeds every generated input: sim seeds, link seeds, session
    /// keys, corruption seeds.
    pub seed: u64,
    /// Discarded warm-up before the window.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Whether the program's trace plane is attached.
    pub traced: bool,
    /// Self-test: edit one snapshot view before the correctness gate.
    pub tamper: bool,
}

impl Ctx {
    /// How long to keep repeating set-ups: a twentieth of the window,
    /// at most [`SETUP_MAX_TIME`].
    fn setup_time(&self) -> Duration {
        (self.window / 20).min(SETUP_MAX_TIME)
    }

    /// The window `[start, end)` in pass-clock ns, starting one warm-up
    /// from now.
    pub fn window_on(&self, clock: &Clock) -> (u64, u64) {
        let t0 = clock.ns() + self.warmup.as_nanos() as u64;
        (t0, t0 + self.window.as_nanos() as u64)
    }
}

/// Runs one pass of workload `name`; `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Measured> {
    let closed = |n, snap_every| ClosedSpec {
        n,
        clients: 2,
        snap_every,
        op_timeout: None,
        faults: false,
    };
    let threads = |n: usize| ClusterConfig {
        seed: mix64(ctx.seed, 0xC1),
        suspect_after: SUSPECT_AFTER,
        ..ClusterConfig::new(n)
    };
    Some(match name {
        "sim-storm" => sim::storm(ctx),
        "threads-closed" => closed::run(ctx, &closed(3, 10), |tracer| {
            Cluster::new_traced(threads(3), tracer, |id| Alg1::new(id, 3))
        }),
        "sockets-closed" => closed::run(ctx, &closed(3, 10), |tracer| {
            SocketCluster::new_traced(sockets(ctx, 3), tracer, |id| Alg1::new(id, 3))
        }),
        "sockets-window" => window::run(ctx, 8, |tracer| {
            SocketCluster::new_traced(sockets(ctx, 8), tracer, |id| Alg1::new(id, 8))
        }),
        "service-open" => service::run(ctx),
        "threads-snap" => closed::run(ctx, &closed(3, 2), |tracer| {
            Cluster::new_traced(threads(3), tracer, |id| {
                Alg3::new(id, 3, Alg3Config::default())
            })
        }),
        "fault-recovery" => {
            let spec = ClosedSpec {
                op_timeout: Some(Duration::from_millis(250)),
                faults: true,
                ..closed(5, 10)
            };
            let mut m = closed::run(ctx, &spec, |tracer| {
                Cluster::new_traced(threads(5), tracer, |id| Alg1::new(id, 5))
            });
            sim::recovery_leg(ctx.seed, &mut m);
            m
        }
        _ => return None,
    })
}

/// The one departure from the runtimes' default configurations. This
/// host freezes whole processes for 60–125 ms at a time; with the
/// default 100 ms suspicion window every node then looks silent to the
/// failure detector and the next operation is failed fast as
/// `Unavailable` — a failure that says nothing about the program.
pub const SUSPECT_AFTER: Duration = Duration::from_secs(1);

fn sockets(ctx: &Ctx, n: usize) -> SocketConfig {
    let mut cfg = SocketConfig::new(n);
    cfg.cluster.seed = mix64(ctx.seed, 0xC1);
    cfg.cluster.suspect_after = SUSPECT_AFTER;
    cfg
}

/// Times construction → first operation done of the instance the pass
/// runs on: one `setup_s` sample and one `setup` phase.
pub fn timed_setup<S>(
    m: &mut Measured,
    clock: &Clock,
    build: impl FnOnce() -> S,
    first_op: impl Fn(&mut S),
) -> S {
    let (start_ns, start) = (clock.ns(), Instant::now());
    let mut s = build();
    first_op(&mut s);
    let took = start.elapsed();
    m.setup_s.push(took.as_secs_f64());
    m.phases
        .push(("setup", start_ns, start_ns + took.as_nanos() as u64));
    s
}

/// Set-ups are repeated until this many were timed *and* this much time
/// was spent on them. A construction takes from 25 µs (`Sim`) to 2 ms
/// (eight sockets): the median of a handful does not repeat, the median
/// over half a second does.
const SETUP_MIN_REPS: usize = 11;
const SETUP_MAX_REPS: usize = 20_001;
const SETUP_MAX_TIME: Duration = Duration::from_millis(500);

/// Repeats [`timed_setup`] on throwaway instances from `make` (torn down
/// with `drop`). Call it right after the window, once the pass's own
/// instance is stopped. A set-up is a handful of thread wake-ups, and on
/// a virtual machine those cost two to three times more for some
/// seconds after the processors were busy than after they idled — so
/// set-ups timed as a process starts inherit the state its predecessor
/// left (the same binary read 40 or 100 µs), while after the window the
/// predecessor is always the workload's own load.
pub fn repeat_setups<S>(
    ctx: &Ctx,
    m: &mut Measured,
    clock: &Clock,
    make: impl Fn() -> S,
    drop: impl Fn(S),
    first_op: impl Fn(&mut S),
) {
    let begun = Instant::now();
    while m.setup_s.len() < SETUP_MAX_REPS
        && (m.setup_s.len() < SETUP_MIN_REPS || begun.elapsed() < ctx.setup_time())
    {
        drop(timed_setup(m, clock, &make, &first_op));
    }
}

/// Records the `verify` phase (from `verify_start` to now) and the
/// `teardown` phase (`teardown` long, placed after it).
pub fn close_phases(m: &mut Measured, clock: &Clock, verify_start: u64, teardown: Duration) {
    let verify_end = clock.ns();
    m.phases.push(("verify", verify_start, verify_end));
    let teardown_end = verify_end + teardown.as_nanos() as u64;
    m.phases.push(("teardown", verify_end, teardown_end));
}

/// Stores the window's message-plane counter deltas under `net.*`.
pub fn window_counters(
    m: &mut Measured,
    before: (NetStats, u64),
    after: (NetStats, u64),
    n: usize,
) {
    let (b, a) = (before.0, after.0);
    let mut put = |k, v: u64| {
        m.counts.insert(k, v as f64);
    };
    put("net.nodes", n as u64);
    put("net.delivered", a.delivered - b.delivered);
    put("net.coalesced", a.coalesced - b.coalesced);
    put("net.batches", a.batches - b.batches);
    put("net.rounds", a.rounds - b.rounds);
    put("net.send_syscalls", a.send_syscalls - b.send_syscalls);
    put("net.recv_syscalls", a.recv_syscalls - b.recv_syscalls);
    put("net.frames_sent", a.frames_sent - b.frames_sent);
    put("net.frames_recv", a.frames_recv - b.frames_recv);
    put("net.frames_rejected", a.frames_rejected - b.frames_rejected);
    put("net.dropped", after.1 - before.1);
}

/// Sleeps until `deadline`, re-arming after early wake-ups.
pub fn sleep_until(deadline: Instant) {
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if left.is_zero() {
            break;
        }
        std::thread::sleep(left);
    }
}

/// The process-wide deep-copy counters of `sss_types::clone_stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CloneCounts {
    pub deep_clones: u64,
    pub cells_copied: u64,
}

/// The deep-copy counters now.
pub fn clone_counts() -> CloneCounts {
    CloneCounts {
        deep_clones: clone_stats::deep_clones(),
        cells_copied: clone_stats::cells_copied(),
    }
}

impl CloneCounts {
    /// `self − earlier`.
    pub fn since(self, earlier: CloneCounts) -> CloneCounts {
        CloneCounts {
            deep_clones: self.deep_clones - earlier.deep_clones,
            cells_copied: self.cells_copied - earlier.cells_copied,
        }
    }
}

/// Stores the window's deep copies per completed operation (call once
/// the pass's operations and window are in place).
pub fn put_clone_rates(m: &mut Measured, window: CloneCounts) {
    let per_op = m.per_op(window.deep_clones as f64);
    m.counts.insert("types.deep_clones_per_op", per_op);
    let per_op = m.per_op(window.cells_copied as f64);
    m.counts.insert("types.cells_copied_per_op", per_op);
}
