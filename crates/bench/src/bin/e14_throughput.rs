//! E14 — Message-plane throughput: events/sec and bytes-cloned under a
//! gossip-heavy write storm, for n ∈ {8, 16, 32, 64}, on both backends.
//!
//! This is the tracking benchmark behind the zero-copy message plane:
//! every node writes back-to-back while Algorithm 1's gossip floods
//! O(n²) messages per cycle, so per-event cost is dominated by payload
//! handling. Results are written to `BENCH_throughput.json` at the repo
//! root so subsequent PRs can track the trajectory:
//!
//! * `baseline` — the pre-optimization numbers (recorded once with
//!   `--record-baseline`, then preserved verbatim on every rerun);
//! * `current` — the numbers from the latest default run.
//!
//! Event counting: an event is one processed round or one message
//! delivery, identically on both backends — the threaded runtime's
//! batched inbox counts every data-plane message it applies
//! ([`Cluster::net_stats`]), so its events/sec is directly comparable
//! with the simulator's. Messages absorbed by per-link coalescing never
//! travel and are reported separately (`coalesced`), not as events.
//! (The seed-era `baseline` threads rows predate the per-message
//! counters and counted completed client ops instead; their events/sec
//! understates the work the old runtime did per second, which is why
//! the smoke gate pins the threads leg to `current`.)
//!
//! Each configuration is measured three times and the fastest run is
//! kept — a minimum-noise estimator, since on a shared/virtualized box
//! external interference only ever slows a run down, never speeds it up.
//!
//! Modes:
//! * default — full sweep, rewrites the `current` section;
//! * `--record-baseline` — full sweep, rewrites both sections;
//! * `--smoke` — CI gate: re-measures the smallest configuration on
//!   **both** backends, validates `BENCH_throughput.json`, and fails
//!   (exit 1) if the simulator regressed more than 30% below the
//!   committed baseline or the threaded runtime fell below a wide
//!   fraction of its committed `current` row;
//! * `--open-loop` — offered-rate sweep on the threaded runtime:
//!   fire-and-forget writes via [`Client::submit`] paced on absolute
//!   deadlines, reporting achieved completion rate, delivered
//!   events/sec, mean drain-batch size and the coalescing rate at each
//!   offered load (`--n` to change the cluster size);
//! * `--backend {sim,threads,sockets,both,all}` — restrict (or widen)
//!   the full sweep; `sockets` adds the real-UDP backend's rows (its
//!   dedicated benchmark is E18).
//!
//! [`Client::submit`]: sss_runtime::Client::submit

use sss_bench::{jsonio, BackendChoice};
use sss_core::Alg1;
use sss_obs::{JsonlSink, OpsPlane};
use sss_runtime::{Cluster, ClusterConfig, SocketCluster, SocketConfig};
use sss_sim::{Ctl, Driver, Sim, SimConfig, Tracer};
use sss_types::{clone_stats, NodeId, OpId, OpResponse, Protocol, SnapshotOp};
use std::time::{Duration, Instant};

const SIZES: &[usize] = &[8, 16, 32, 64];
const RESULT_PATH: &str = "BENCH_throughput.json";
/// Regression tolerance of the `--smoke` sim gate, relative to baseline.
const SMOKE_TOLERANCE: f64 = 0.70;
/// Regression tolerance of the `--smoke` threads gate, relative to the
/// committed `current` row. Much wider than the simulator's: wall-clock
/// throughput with 2·n live threads on a shared box is noisy in a way
/// the virtual clock is not.
const THREADS_SMOKE_TOLERANCE: f64 = 0.35;
/// The live ops aggregator ([`OpsPlane`], `OPS_PLANE` mask) attached to
/// the hot simulator path must keep at least this share of tracer-off
/// throughput — the mask rejects the dominant send/deliver traffic with
/// one relaxed atomic load before any lock is taken, so what is left is
/// the per-operation records: 0.89–0.93× on the 2-vCPU reference host
/// (the flight recorder alone reads 0.74×, a JSONL sink 0.18×).
const OPS_PLANE_TOLERANCE: f64 = 0.85;
/// Alternating tracer-off / aggregator-attached runs behind that gate.
/// One 0.15 s run of unchanged code varies by ±15% on a shared host:
/// the ratio of medians spreads 0.76–0.98 over five pairs and 0.89–0.93
/// over eleven.
const OPS_PLANE_PAIRS: usize = 11;

/// One measured configuration.
#[derive(Clone, Debug)]
struct Row {
    backend: String,
    n: usize,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    deep_clones: u64,
    cells_copied: u64,
    bytes_cloned: u64,
    /// Outgoing messages absorbed by per-link coalescing (threads
    /// backend only; `0` on the simulator and on pre-coalescing rows).
    coalesced: u64,
}

/// Virtual-time budget for one simulator run: events per interval grow
/// ~n², so shrink the horizon accordingly for comparable event totals.
fn sim_horizon(n: usize) -> u64 {
    (8_000_000 / (n * n) as u64).max(2_000)
}

/// Closed-loop write storm: every node writes back-to-back, forever.
struct WriteStorm {
    seqs: Vec<u64>,
}

impl WriteStorm {
    fn new(n: usize) -> Self {
        WriteStorm { seqs: vec![0; n] }
    }
    fn next_write(&mut self, node: NodeId) -> SnapshotOp {
        self.seqs[node.index()] += 1;
        SnapshotOp::Write(sss_workload::unique_value(node, self.seqs[node.index()]))
    }
}

impl<P: Protocol> Driver<P> for WriteStorm {
    fn init(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        for k in 0..ctl.n() {
            let op = self.next_write(NodeId(k));
            ctl.invoke(NodeId(k), op);
        }
    }
    fn on_completion(
        &mut self,
        node: NodeId,
        _id: OpId,
        _resp: &OpResponse,
        ctl: &mut Ctl<'_, P::Msg>,
    ) {
        let op = self.next_write(node);
        ctl.invoke(node, op);
    }
}

/// Repetitions per configuration; the fastest is kept.
const REPS: usize = 3;

fn best_of(measure: impl Fn() -> Row) -> Row {
    (0..REPS)
        .map(|_| measure())
        .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec))
        .expect("REPS > 0")
}

fn measure_sim(n: usize) -> Row {
    measure_sim_traced(n, Tracer::off())
}

fn measure_sim_traced(n: usize, tracer: Tracer) -> Row {
    let cfg = SimConfig::small(n).with_seed(0xE14 + n as u64);
    let mut sim = Sim::new(cfg, move |id| Alg1::new(id, n));
    sim.set_tracer(tracer);
    let mut driver = WriteStorm::new(n);
    clone_stats::reset();
    let start = Instant::now();
    sim.run_with_driver(&mut driver, sim_horizon(n));
    let wall = start.elapsed().as_secs_f64();
    let m = sim.metrics();
    let delivered: u64 = m.kinds().map(|(_, c)| c.delivered).sum();
    let events = m.rounds + delivered;
    finish_row("sim", n, events, wall, cfg.nu_bits, 0)
}

/// `--measure-trace-overhead`: per-event cost of the trace plane on the
/// hot simulator path, for the DESIGN.md overhead table. Four
/// configurations: tracer off (the zero-cost claim), flight recorder
/// only, full JSONL streaming to a temp file, and the live ops
/// aggregator (masked to the ops plane, folding on its own thread).
fn measure_trace_overhead() -> ! {
    let n = 32;
    let jsonl_path = std::env::temp_dir().join("e14_trace_overhead.jsonl");
    let mut t = sss_bench::Table::new(&["tracer", "events/sec", "vs off"]);
    let best = |mk: &dyn Fn() -> Tracer| {
        (0..REPS)
            .map(|_| measure_sim_traced(n, mk()).events_per_sec)
            .fold(0.0f64, f64::max)
    };
    let _ = best(&Tracer::off); // warm-up (first-touch allocation)
    let off = best(&Tracer::off);
    let ring = best(&|| Tracer::new(n));
    let jsonl = best(&|| {
        Tracer::new(n).with_sink(JsonlSink::create(&jsonl_path).expect("temp trace file"))
    });
    let ops_plane = OpsPlane::start(n);
    let ops = best(&|| ops_plane.tracer());
    let folded = ops_plane.stop();
    assert!(
        folded.records() > 0,
        "aggregator measured but folded nothing"
    );
    for (label, v) in [
        ("off", off),
        ("flight recorder", ring),
        ("jsonl sink", jsonl),
        ("live ops aggregator", ops),
    ] {
        t.row(vec![
            label.into(),
            format!("{v:.0}"),
            format!("{:.3}x", v / off.max(1e-9)),
        ]);
    }
    t.print();
    let _ = std::fs::remove_file(&jsonl_path);
    std::process::exit(0);
}

fn measure_threads(n: usize) -> Row {
    let cfg = ClusterConfig::new(n);
    let cluster = Cluster::new(cfg, move |id| Alg1::new(id, n));
    clone_stats::reset();
    let start = Instant::now();
    let deadline = start + Duration::from_millis(400);
    let mut joins = Vec::new();
    for k in 0..n {
        let client = cluster.client(NodeId(k));
        joins.push(std::thread::spawn(move || {
            let mut seq = 0u64;
            while Instant::now() < deadline {
                seq += 1;
                let _ = client.write(sss_workload::unique_value(NodeId(k), seq));
            }
        }));
    }
    for j in joins {
        j.join().expect("writer thread panicked");
    }
    // Same accounting as the simulator: rounds + data-plane deliveries.
    let stats = cluster.net_stats();
    let wall = start.elapsed().as_secs_f64();
    cluster.shutdown();
    finish_row(
        "threads",
        n,
        stats.rounds + stats.delivered,
        wall,
        64,
        stats.coalesced,
    )
}

/// The same storm over the real-socket UDP backend: identical
/// accounting (rounds + data-plane deliveries from the shared
/// [`NetStats`](sss_runtime::NetStats) schema), so the three backends'
/// rows are directly comparable. E18 is the socket backend's dedicated
/// benchmark; this leg exists so one table can hold all three.
fn measure_sockets(n: usize) -> Row {
    let cfg = SocketConfig::new(n);
    let cluster = SocketCluster::new(cfg, move |id| Alg1::new(id, n));
    clone_stats::reset();
    let start = Instant::now();
    let deadline = start + Duration::from_millis(400);
    let mut joins = Vec::new();
    for k in 0..n {
        let client = cluster.client(NodeId(k));
        joins.push(std::thread::spawn(move || {
            let mut seq = 0u64;
            while Instant::now() < deadline {
                seq += 1;
                let _ = client.write(sss_workload::unique_value(NodeId(k), seq));
            }
        }));
    }
    for j in joins {
        j.join().expect("writer thread panicked");
    }
    let stats = cluster.net_stats();
    let wall = start.elapsed().as_secs_f64();
    cluster.shutdown();
    finish_row(
        "sockets",
        n,
        stats.rounds + stats.delivered,
        wall,
        64,
        stats.coalesced,
    )
}

/// Parks until `deadline` (tolerant of spurious early wakeups).
fn sleep_until(deadline: Instant) {
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if left.is_zero() {
            break;
        }
        std::thread::sleep(left);
    }
}

/// `--open-loop`: offered-rate sweep on the threaded runtime. Unlike the
/// closed-loop storm (whose writers stall on each round trip, so offered
/// load shrinks as latency grows), the injector here fire-and-forgets
/// writes via [`sss_runtime::Client::submit`] at a fixed rate, paced on
/// absolute deadlines — a late wakeup submits the whole due backlog
/// instead of sliding the schedule — and a shared completion channel is
/// drained at the end. The gap between offered and achieved rate is the
/// saturation measurement the closed loop cannot make.
fn open_loop(n: usize) -> ! {
    const RATES: &[u64] = &[1_000, 4_000, 16_000, 64_000];
    const WINDOW: Duration = Duration::from_millis(400);
    println!(
        "E14 --open-loop: offered-rate sweep — fire-and-forget writes, n = {n}, \
         {} ms windows\n",
        WINDOW.as_millis()
    );
    let mut t = sss_bench::Table::new(&[
        "offered ops/s",
        "submitted",
        "completed",
        "achieved ops/s",
        "events/sec",
        "mean batch",
        "coalesced",
    ]);
    for &rate in RATES {
        let cluster = Cluster::new(ClusterConfig::new(n), move |id| Alg1::new(id, n));
        let clients: Vec<_> = (0..n).map(|k| cluster.client(NodeId(k))).collect();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<OpResponse>();
        let interval = Duration::from_secs_f64(1.0 / rate as f64);
        let start = Instant::now();
        let deadline = start + WINDOW;
        let mut next = start;
        let mut submitted = 0u64;
        while next < deadline {
            while next <= Instant::now() && next < deadline {
                let k = (submitted % n as u64) as usize;
                let v = sss_workload::unique_value(NodeId(k), submitted + 1);
                if clients[k]
                    .submit(SnapshotOp::Write(v), done_tx.clone())
                    .is_ok()
                {
                    submitted += 1;
                }
                next += interval;
            }
            sleep_until(next.min(deadline));
        }
        drop(done_tx);
        // Grace window: let in-flight operations finish before counting.
        std::thread::sleep(Duration::from_millis(60));
        let stats = cluster.net_stats();
        let wall = start.elapsed().as_secs_f64();
        cluster.shutdown();
        let mut completed = 0u64;
        while done_rx.try_recv().is_ok() {
            completed += 1;
        }
        let events = stats.rounds + stats.delivered;
        t.row(vec![
            rate.to_string(),
            submitted.to_string(),
            completed.to_string(),
            format!("{:.0}", completed as f64 / wall.max(1e-9)),
            format!("{:.0}", events as f64 / wall.max(1e-9)),
            format!(
                "{:.1}",
                stats.delivered as f64 / (stats.batches.max(1)) as f64
            ),
            format!(
                "{:.1}%",
                100.0 * stats.coalesced as f64 / (stats.coalesced + stats.delivered).max(1) as f64
            ),
        ]);
    }
    t.print();
    std::process::exit(0);
}

fn finish_row(
    backend: &str,
    n: usize,
    events: u64,
    wall: f64,
    nu_bits: u32,
    coalesced: u64,
) -> Row {
    let deep_clones = clone_stats::deep_clones();
    let cells_copied = clone_stats::cells_copied();
    Row {
        backend: backend.to_string(),
        n,
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall.max(1e-9),
        deep_clones,
        cells_copied,
        bytes_cloned: cells_copied * (nu_bits as u64 + 64) / 8,
        coalesced,
    }
}

// ----- BENCH_throughput.json (shared sss_bench::jsonio plumbing) -------

fn render(baseline: &[Row], current: &[Row]) -> String {
    let section = |rows: &[Row]| {
        jsonio::array(
            &rows
                .iter()
                .map(|r| {
                    jsonio::object(&[
                        ("backend", format!("\"{}\"", r.backend)),
                        ("n", r.n.to_string()),
                        ("events", r.events.to_string()),
                        ("wall_secs", format!("{:.4}", r.wall_secs)),
                        ("events_per_sec", format!("{:.1}", r.events_per_sec)),
                        ("deep_clones", r.deep_clones.to_string()),
                        ("cells_copied", r.cells_copied.to_string()),
                        ("bytes_cloned", r.bytes_cloned.to_string()),
                        ("coalesced", r.coalesced.to_string()),
                    ])
                })
                .collect::<Vec<_>>(),
        )
    };
    jsonio::document(
        "e14_throughput",
        "gossip-heavy write storm (Alg1, all nodes writing closed-loop)",
        &[
            ("baseline", section(baseline)),
            ("current", section(current)),
        ],
    )
}

fn parse_section(json: &str, name: &str) -> Option<Vec<Row>> {
    let mut rows = Vec::new();
    for obj in jsonio::objects(json, name)? {
        rows.push(Row {
            backend: jsonio::string(obj, "backend")?,
            n: jsonio::num(obj, "n")? as usize,
            events: jsonio::num(obj, "events")? as u64,
            wall_secs: jsonio::num(obj, "wall_secs")?,
            events_per_sec: jsonio::num(obj, "events_per_sec")?,
            deep_clones: jsonio::num(obj, "deep_clones")? as u64,
            cells_copied: jsonio::num(obj, "cells_copied")? as u64,
            bytes_cloned: jsonio::num(obj, "bytes_cloned")? as u64,
            // Absent on rows recorded before per-link coalescing existed.
            coalesced: jsonio::num(obj, "coalesced").unwrap_or(0.0) as u64,
        });
    }
    Some(rows)
}

fn load_existing() -> Option<(Vec<Row>, Vec<Row>)> {
    let json = std::fs::read_to_string(RESULT_PATH).ok()?;
    Some((
        parse_section(&json, "baseline")?,
        parse_section(&json, "current")?,
    ))
}

fn print_rows(rows: &[Row]) {
    let mut t = sss_bench::Table::new(&[
        "backend",
        "n",
        "events",
        "wall (s)",
        "events/sec",
        "deep clones",
        "bytes cloned",
        "coalesced",
    ]);
    for r in rows {
        t.row(vec![
            r.backend.clone(),
            r.n.to_string(),
            r.events.to_string(),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.events_per_sec),
            r.deep_clones.to_string(),
            r.bytes_cloned.to_string(),
            r.coalesced.to_string(),
        ]);
    }
    t.print();
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn smoke() -> ! {
    let Some((baseline, current)) = load_existing() else {
        eprintln!("SMOKE FAIL: {RESULT_PATH} missing or malformed");
        std::process::exit(1);
    };
    if baseline.is_empty() || current.is_empty() {
        eprintln!("SMOKE FAIL: {RESULT_PATH} has empty baseline/current sections");
        std::process::exit(1);
    }
    let n = SIZES[0];
    let Some(base) = baseline.iter().find(|r| r.backend == "sim" && r.n == n) else {
        eprintln!("SMOKE FAIL: no sim/n={n} baseline entry in {RESULT_PATH}");
        std::process::exit(1);
    };
    // Warm up once (first-touch allocation, lazy page faults), measure second.
    let _ = measure_sim(n);
    let row = measure_sim(n);
    println!(
        "smoke: sim n={n}: {:.0} events/sec (baseline {:.0}, gate {:.0})",
        row.events_per_sec,
        base.events_per_sec,
        base.events_per_sec * SMOKE_TOLERANCE
    );
    if row.events_per_sec < base.events_per_sec * SMOKE_TOLERANCE {
        eprintln!(
            "SMOKE FAIL: sim events/sec regressed >{:.0}% vs committed baseline",
            (1.0 - SMOKE_TOLERANCE) * 100.0
        );
        std::process::exit(1);
    }
    // Live ops aggregator attached: the dashboard's whole observation
    // path (masked tracer → bounded channel → folder thread) must stay
    // within the tolerance of tracer-off throughput. The two sides
    // alternate and the gate compares their medians.
    let ops_plane = OpsPlane::start(n);
    let (mut off, mut ops): (Vec<f64>, Vec<f64>) = (0..OPS_PLANE_PAIRS)
        .map(|_| {
            let off = measure_sim(n).events_per_sec;
            (
                off,
                measure_sim_traced(n, ops_plane.tracer()).events_per_sec,
            )
        })
        .unzip();
    let folded = ops_plane.stop();
    let (off_med, ops_med) = (median(&mut off), median(&mut ops));
    println!(
        "smoke: sim n={n} + ops aggregator: {:.0} events/sec ({:.3}x of off, gate {:.2}x; \
         medians of {OPS_PLANE_PAIRS} alternating runs; folded {} records)",
        ops_med,
        ops_med / off_med.max(1e-9),
        OPS_PLANE_TOLERANCE,
        folded.records(),
    );
    if folded.records() == 0 {
        eprintln!("SMOKE FAIL: ops aggregator attached but folded no events");
        std::process::exit(1);
    }
    if ops_med < off_med * OPS_PLANE_TOLERANCE {
        eprintln!(
            "SMOKE FAIL: live ops aggregator costs more than {:.0}% of tracer-off throughput",
            (1.0 - OPS_PLANE_TOLERANCE) * 100.0
        );
        std::process::exit(1);
    }
    // Threads leg: the batched message plane is gated against the
    // committed *current* row — the seed baseline predates the
    // per-message delivery counters, so its event totals are not
    // comparable with today's accounting.
    let Some(cur) = current.iter().find(|r| r.backend == "threads" && r.n == n) else {
        eprintln!("SMOKE FAIL: no threads/n={n} current entry in {RESULT_PATH}");
        std::process::exit(1);
    };
    let _ = measure_threads(n);
    let row = measure_threads(n);
    println!(
        "smoke: threads n={n}: {:.0} events/sec (current {:.0}, gate {:.0})",
        row.events_per_sec,
        cur.events_per_sec,
        cur.events_per_sec * THREADS_SMOKE_TOLERANCE
    );
    if row.events_per_sec < cur.events_per_sec * THREADS_SMOKE_TOLERANCE {
        eprintln!(
            "SMOKE FAIL: threads events/sec fell below {:.0}% of the committed current row",
            THREADS_SMOKE_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("smoke: OK");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
    }
    if args.iter().any(|a| a == "--measure-trace-overhead") {
        measure_trace_overhead();
    }
    if args.iter().any(|a| a == "--open-loop") {
        let n = args
            .iter()
            .position(|a| a == "--n")
            .and_then(|i| args.get(i + 1))
            .map_or(8, |v| v.parse().expect("--n takes an integer"));
        open_loop(n);
    }
    let record_baseline = args.iter().any(|a| a == "--record-baseline");
    let backends = match BackendChoice::from_args() {
        // The tracked sweep defaults to both backends.
        BackendChoice::Sim if !args.iter().any(|a| a == "--backend") => BackendChoice::Both,
        other => other,
    };
    println!("E14: message-plane throughput — gossip-heavy write storm, n ∈ {SIZES:?}\n");
    let mut rows = Vec::new();
    for &n in SIZES {
        if backends.sim() {
            rows.push(best_of(|| measure_sim(n)));
        }
        if backends.threads() {
            rows.push(best_of(|| measure_threads(n)));
        }
        if backends.sockets() {
            rows.push(best_of(|| measure_sockets(n)));
        }
    }
    print_rows(&rows);
    let baseline = if record_baseline {
        rows.clone()
    } else {
        match load_existing() {
            Some((base, _)) => base,
            None => {
                println!("\n(no committed baseline found: recording this run as baseline)");
                rows.clone()
            }
        }
    };
    if let (Some(b), Some(c)) = (
        baseline.iter().find(|r| r.backend == "sim" && r.n == 64),
        rows.iter().find(|r| r.backend == "sim" && r.n == 64),
    ) {
        println!(
            "\nsim n=64: {:.0} events/sec vs baseline {:.0} ({:.2}x)",
            c.events_per_sec,
            b.events_per_sec,
            c.events_per_sec / b.events_per_sec.max(1e-9)
        );
    }
    std::fs::write(RESULT_PATH, render(&baseline, &rows)).expect("write BENCH_throughput.json");
    println!("wrote {RESULT_PATH}");
}
