//! E17 — Sharded service scale: aggregate throughput and tail latency
//! of the consistent-hash service layer as shard groups multiply.
//!
//! The question this experiment answers: does composing many
//! *independent* snapshot groups behind the [`sss_service`] front end
//! buy horizontal capacity? A single group's throughput is bounded by
//! what its protocol sustains — one demand-driven flush in flight per
//! shard, `max_per_flush` requests per protocol-operation round trip —
//! so the aggregate grows with the shard count until the host's
//! processors saturate (on a 2-vCPU host that is already at 2–4
//! shards). The threads leg measures exactly that: an open-loop
//! session generator ([`SessionSpec`]) offers load as fast as the
//! admission queues accept it, for 1 → 8 shard groups with 125 000
//! single-op client sessions per shard — one million live sessions at
//! eight shards — and reports completed ops/sec plus merged
//! p50/p99/p999 ([`LatencySummary::merge`] across the per-shard
//! recorders).
//!
//! The sim leg runs the same composition over virtual time
//! ([`sss_service::SimService`]) at 64 and 256 multiplexed shard
//! groups, a scale real threads cannot reach on a small host; there the
//! interesting figures are wall-clock session throughput and the
//! group-commit collapse factor (client requests per protocol op).
//!
//! Results are tracked in `BENCH_service.json` (`baseline` is the
//! timer-paced batcher's sweep, kept as the floor; `current` is
//! rewritten each full run), in the same format family as
//! `BENCH_throughput.json`.
//!
//! Modes:
//! * default — full sweep (threads 1/2/4/8 shards, sim 64/256),
//!   rewrites `current`;
//! * `--record-baseline` — full sweep, rewrites both sections;
//! * `--smoke` — CI gate: validates the committed file (every threads
//!   `current` row ≥ its `baseline` row in ops/sec with zero failed,
//!   the million-session row complete), then re-measures miniature
//!   configurations — threads at 1 and 4 shards must each reach the
//!   committed `baseline` row's ops/sec at that shard count with zero
//!   failures (a ratio between the two would measure how many
//!   processors the host has, not the program), and a small
//!   [`SimService`] run must complete and reproduce identical per-shard
//!   trace hashes across two runs;
//! * `--backend {sim,threads,both}` — restrict the full sweep.
//!
//! [`LatencySummary::merge`]: sss_sim::LatencySummary::merge
//! [`SessionSpec`]: sss_workload::SessionSpec

use sss_bench::{jsonio, BackendChoice};
use sss_core::Alg1;
use sss_service::{
    Service, ServiceConfig, ServiceError, ShardConfig, SimService, SimServiceConfig,
};
use sss_types::SnapshotOp;
use sss_workload::SessionSpec;
use std::time::{Duration, Instant};

const RESULT_PATH: &str = "BENCH_service.json";
/// Threads sweep: shard counts, with `SESSIONS_PER_SHARD` sessions each.
const THREAD_SHARDS: &[usize] = &[1, 2, 4, 8];
const SESSIONS_PER_SHARD: u64 = 125_000;
/// Sim sweep: shard counts, each serving `SIM_SESSIONS` sessions.
const SIM_SHARDS: &[usize] = &[64, 256];
const SIM_SESSIONS: u64 = 1_000_000;
/// Shard counts the smoke gate re-measures in miniature.
const SMOKE_SHARDS: &[usize] = &[1, 4];
/// Sessions per shard and `max_per_flush` of the miniature runs.
const SMOKE_SESSIONS_PER_SHARD: u64 = 5_000;
const SMOKE_MAX_PER_FLUSH: usize = 16;

/// One measured configuration.
#[derive(Clone, Debug)]
struct Row {
    backend: String,
    shards: usize,
    sessions: u64,
    completed: u64,
    failed: u64,
    wall_secs: f64,
    ops_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    /// Protocol operations after group-commit collapsing (`0` on
    /// threads rows recorded before the batcher grew its
    /// `protocol_ops` counter).
    collapsed: u64,
}

/// Per-shard tuning of the threads leg: a shard absorbs at most
/// `max_per_flush` requests per flush, and the generator backs off when
/// `queue_cap` of them are waiting.
fn thread_shard_cfg(max_per_flush: usize) -> ShardConfig {
    ShardConfig {
        nodes: 3,
        max_per_flush,
        queue_cap: 8 * max_per_flush,
        flush_timeout: Duration::from_secs(5),
        round_interval: Duration::from_millis(2),
        suspect_after: Duration::from_millis(500),
    }
}

fn measure_threads(shards: usize, sessions: u64, max_per_flush: usize) -> Row {
    let cfg = ServiceConfig {
        shards,
        vnodes: 64,
        seed: 0xE17,
        shard: thread_shard_cfg(max_per_flush),
    };
    let svc: Service<Alg1> = Service::start(cfg, |_, id| Alg1::new(id, 3));
    let spec = SessionSpec {
        sessions,
        ops_per_session: 1,
        write_ratio: 0.95,
        key_space: sessions.max(1 << 16),
        seed: 0x5E55,
    };
    let start = Instant::now();
    let mut lost = 0u64;
    for ev in spec.events() {
        // Open loop with shedding: a saturated shard queue backs the
        // generator off briefly; a downed shard would drop the session.
        loop {
            let res = match ev.op {
                SnapshotOp::Write(v) => svc.write_nowait(ev.key, v),
                SnapshotOp::Snapshot => svc.snapshot_nowait(ev.key),
            };
            match res {
                Ok(()) => break,
                Err(ServiceError::Overloaded { .. }) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(_) => {
                    lost += 1;
                    break;
                }
            }
        }
    }
    // Drain: every admitted request resolves (completes or fails).
    let deadline = Instant::now() + Duration::from_secs(120);
    while svc.pending() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = svc.stats();
    let merged = svc.merged_latency();
    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    let failed: u64 = stats.iter().map(|s| s.failed).sum::<u64>() + lost;
    svc.shutdown();
    Row {
        backend: "threads".into(),
        shards,
        sessions,
        completed,
        failed,
        wall_secs: wall,
        ops_per_sec: completed as f64 / wall.max(1e-9),
        p50_us: merged.p50,
        p99_us: merged.p99,
        p999_us: merged.p999,
        collapsed: stats.iter().map(|s| s.protocol_ops).sum(),
    }
}

/// Virtual horizon the sim leg's sessions are spread over (1 virtual
/// second), and the drain budget after it.
const SIM_HORIZON: u64 = 1_000_000;
const SIM_DRAIN: u64 = 240_000_000;

fn measure_sim(shards: usize, sessions: u64) -> (Row, Vec<u64>) {
    let cfg = SimServiceConfig {
        shards,
        nodes: 3,
        vnodes: 64,
        flush_interval: 1_000,
        seed: 0xE17 + shards as u64,
    };
    let mut svc: SimService<Alg1> = SimService::new(cfg, |_, id| Alg1::new(id, 3));
    let spec = SessionSpec {
        sessions,
        ops_per_session: 1,
        write_ratio: 0.95,
        key_space: sessions.max(1 << 16),
        seed: 0x5E55,
    };
    let total = spec.total_ops();
    let start = Instant::now();
    for (i, ev) in spec.events().enumerate() {
        let t = SIM_HORIZON * i as u64 / total.max(1);
        match ev.op {
            SnapshotOp::Write(v) => svc.submit_write(t, ev.key, v),
            SnapshotOp::Snapshot => svc.submit_snapshot(t, ev.key),
        }
    }
    svc.run_until(SIM_HORIZON);
    let idle = svc.drain(SIM_HORIZON + SIM_DRAIN);
    let wall = start.elapsed().as_secs_f64();
    let collapsed = svc.collapsed_ops();
    let done_ops = svc.completed_ops() as u64;
    // Sessions resolve with their collapsed protocol op; if any op
    // failed to finish (it should not, absent faults), charge its
    // whole flush as failed.
    let (completed, failed) = if idle && done_ops == collapsed {
        (svc.admitted(), 0)
    } else {
        let lost = collapsed.saturating_sub(done_ops);
        (svc.admitted().saturating_sub(lost), lost)
    };
    let hashes = svc.shard_hashes();
    (
        Row {
            backend: "sim".into(),
            shards,
            sessions,
            completed,
            failed,
            wall_secs: wall,
            ops_per_sec: completed as f64 / wall.max(1e-9),
            p50_us: 0,
            p99_us: 0,
            p999_us: 0,
            collapsed,
        },
        hashes,
    )
}

// ----- BENCH_service.json (shared sss_bench::jsonio plumbing) ----------

fn render(baseline: &[Row], current: &[Row]) -> String {
    let section = |rows: &[Row]| {
        jsonio::array(
            &rows
                .iter()
                .map(|r| {
                    jsonio::object(&[
                        ("backend", format!("\"{}\"", r.backend)),
                        ("shards", r.shards.to_string()),
                        ("sessions", r.sessions.to_string()),
                        ("completed", r.completed.to_string()),
                        ("failed", r.failed.to_string()),
                        ("wall_secs", format!("{:.4}", r.wall_secs)),
                        ("ops_per_sec", format!("{:.1}", r.ops_per_sec)),
                        ("p50_us", r.p50_us.to_string()),
                        ("p99_us", r.p99_us.to_string()),
                        ("p999_us", r.p999_us.to_string()),
                        ("collapsed", r.collapsed.to_string()),
                    ])
                })
                .collect::<Vec<_>>(),
        )
    };
    jsonio::document(
        "e17_service_scale",
        "open-loop keyed sessions, 95% writes, group-commit batching (Alg1 groups of 3)",
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
            shards: jsonio::num(obj, "shards")? as usize,
            sessions: jsonio::num(obj, "sessions")? as u64,
            completed: jsonio::num(obj, "completed")? as u64,
            failed: jsonio::num(obj, "failed")? as u64,
            wall_secs: jsonio::num(obj, "wall_secs")?,
            ops_per_sec: jsonio::num(obj, "ops_per_sec")?,
            p50_us: jsonio::num(obj, "p50_us")? as u64,
            p99_us: jsonio::num(obj, "p99_us")? as u64,
            p999_us: jsonio::num(obj, "p999_us")? as u64,
            collapsed: jsonio::num(obj, "collapsed")? as u64,
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
        "shards",
        "sessions",
        "completed",
        "failed",
        "wall (s)",
        "ops/sec",
        "p50 µs",
        "p99 µs",
        "p999 µs",
        "collapsed",
    ]);
    for r in rows {
        t.row(vec![
            r.backend.clone(),
            r.shards.to_string(),
            r.sessions.to_string(),
            r.completed.to_string(),
            r.failed.to_string(),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.ops_per_sec),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            r.p999_us.to_string(),
            r.collapsed.to_string(),
        ]);
    }
    t.print();
}

fn threads_row(rows: &[Row], shards: usize) -> Option<&Row> {
    rows.iter()
        .find(|r| r.backend == "threads" && r.shards == shards)
}

/// Why `row` misses the gate, if it does: every session must complete,
/// none may fail, and ops/sec must reach the `floor` row's.
fn gate_failure(row: &Row, floor: &Row) -> Option<String> {
    if row.completed < row.sessions || row.failed > 0 {
        return Some(format!(
            "dropped sessions (completed {}/{}, failed {})",
            row.completed, row.sessions, row.failed
        ));
    }
    (row.ops_per_sec < floor.ops_per_sec).then(|| {
        format!(
            "{:.0} ops/sec is below the committed {:.0}",
            row.ops_per_sec, floor.ops_per_sec
        )
    })
}

fn smoke() -> ! {
    let fail = |msg: String| -> ! {
        eprintln!("SMOKE FAIL: {msg}");
        std::process::exit(1);
    };
    // 1. The committed artifact holds the headline claims: no shard
    //    count got slower than the recorded floor, nothing was lost.
    let Some((baseline, current)) = load_existing() else {
        fail(format!("{RESULT_PATH} missing or malformed"));
    };
    for &shards in THREAD_SHARDS {
        let (Some(floor), Some(row)) = (
            threads_row(&baseline, shards),
            threads_row(&current, shards),
        ) else {
            fail(format!(
                "{RESULT_PATH} lacks a threads row for {shards} shard(s)"
            ));
        };
        if let Some(why) = gate_failure(row, floor) {
            fail(format!("committed threads {shards}-shard row {why}"));
        }
        println!(
            "smoke: committed threads {shards} shard(s): {:.0} ops/sec ({:.2}x the baseline row)",
            row.ops_per_sec,
            row.ops_per_sec / floor.ops_per_sec.max(1e-9)
        );
    }
    let widest = *THREAD_SHARDS.last().expect("non-empty sweep");
    let million = threads_row(&current, widest).expect("checked above");
    if million.sessions < 1_000_000 {
        fail(format!(
            "committed {widest}-shard row must serve ≥1M sessions, has {}",
            million.sessions
        ));
    }
    // 2. Miniature threads re-measurement against the same floor.
    for &shards in SMOKE_SHARDS {
        let floor = threads_row(&baseline, shards).expect("checked above");
        let row = measure_threads(
            shards,
            SMOKE_SESSIONS_PER_SHARD * shards as u64,
            SMOKE_MAX_PER_FLUSH,
        );
        println!(
            "smoke: threads mini {shards} shard(s): {:.0} ops/sec (floor {:.0})",
            row.ops_per_sec, floor.ops_per_sec
        );
        if let Some(why) = gate_failure(&row, floor) {
            fail(format!("threads mini {shards}-shard run {why}"));
        }
    }
    // 3. Sim leg: completes, and its per-shard traces are reproducible.
    let (row_a, hash_a) = measure_sim(8, 20_000);
    let (_row_b, hash_b) = measure_sim(8, 20_000);
    if row_a.failed > 0 || row_a.completed < row_a.sessions {
        fail(format!(
            "sim mini run incomplete (completed {}/{}, failed {})",
            row_a.completed, row_a.sessions, row_a.failed
        ));
    }
    if hash_a != hash_b {
        fail("sim service trace hashes differ across identical runs".into());
    }
    println!(
        "smoke: sim mini 8 shards: {} sessions, collapse {:.1}x, hashes reproducible",
        row_a.completed,
        row_a.completed as f64 / row_a.collapsed.max(1) as f64
    );
    println!("smoke: OK");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
    }
    let record_baseline = args.iter().any(|a| a == "--record-baseline");
    let backends = match BackendChoice::from_args() {
        BackendChoice::Sim if !args.iter().any(|a| a == "--backend") => BackendChoice::Both,
        other => other,
    };
    println!(
        "E17: sharded service scale — open-loop sessions, threads {THREAD_SHARDS:?} shards \
         × {SESSIONS_PER_SHARD} sessions each, sim {SIM_SHARDS:?} shards × {SIM_SESSIONS}\n"
    );
    let mut rows = Vec::new();
    if backends.threads() {
        for &shards in THREAD_SHARDS {
            let row = measure_threads(shards, SESSIONS_PER_SHARD * shards as u64, 64);
            println!(
                "  threads {shards} shard(s): {:.0} ops/sec, p99 {} µs",
                row.ops_per_sec, row.p99_us
            );
            rows.push(row);
        }
    }
    if backends.sim() {
        for &shards in SIM_SHARDS {
            let (row, _) = measure_sim(shards, SIM_SESSIONS);
            println!(
                "  sim {shards} shards: {:.0} sessions/sec wall, collapse {:.1}x",
                row.ops_per_sec,
                row.completed as f64 / row.collapsed.max(1) as f64
            );
            rows.push(row);
        }
    }
    println!();
    print_rows(&rows);
    let baseline = if record_baseline {
        rows.clone()
    } else {
        match load_existing() {
            Some((base, _)) => base,
            None => {
                println!("(no committed baseline found: recording this run as baseline)");
                rows.clone()
            }
        }
    };
    std::fs::write(RESULT_PATH, render(&baseline, &rows)).expect("write BENCH_service.json");
    println!("wrote {RESULT_PATH}");
}
