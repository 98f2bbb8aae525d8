//! Blast-radius isolation for the sharded service: a quorum-crashing
//! fault plan aimed at ONE shard of sixteen must not degrade its
//! neighbors.
//!
//! Two runs with identical config and load:
//!
//! * **fault-free** — every shard healthy; records the baseline merged
//!   p99 latency;
//! * **faulted** — the chaos engine's `QuorumCrasher` plan (two waves
//!   that crash 2 of shard 0's 3 nodes) is applied to shard 0 while the
//!   same load runs.
//!
//! Shard 0 must visibly degrade (failed requests and/or fail-fast
//! `Unavailable` admissions) and then *recover* once the plan revives
//! its nodes — self-stabilization at the service layer. The other 15
//! shards must see zero failures and a merged p99 within 2× of the
//! fault-free baseline (plus a small absolute epsilon for scheduler
//! noise on a loaded CI host).

use sss_chaos::StrategyKind;
use sss_core::Alg1;
use sss_service::{Service, ServiceConfig, ServiceError, ServiceReply, ShardConfig};
use sss_sim::LatencySummary;
use std::time::{Duration, Instant};

const SHARDS: usize = 16;
/// Distinct keys routed to each shard by the load generator.
const KEYS_PER_SHARD: usize = 4;
/// How long each run drives load. Must exceed the plan's wall-clock
/// span: the QuorumCrasher plan holds ~4.6k model µs, and at a 5 ms
/// round interval the runtime scales model time by 50×, so the plan
/// runs ~250 ms of wall time.
const DRIVE: Duration = Duration::from_millis(700);
/// Pacing between load-generator sweeps (one write per shard each
/// sweep ≈ 16 shards / 500 µs ≈ 32k ops/sec aggregate — far below the
/// shards' group-commit ceiling, so queues stay shallow).
const PACE: Duration = Duration::from_micros(500);

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        vnodes: 32,
        seed: 0xB1A5,
        shard: ShardConfig {
            nodes: 3,
            queue_cap: 1024,
            // Short enough that shard 0's stranded requests resolve
            // during the test; long enough to survive healthy jitter.
            flush_timeout: Duration::from_millis(250),
            // 5 ms rounds stretch the fault plan's outage windows to
            // ~75 ms of wall time each...
            round_interval: Duration::from_millis(5),
            // ...so a 20 ms suspicion window fires well inside them.
            suspect_after: Duration::from_millis(20),
        },
    }
}

fn start() -> Service<Alg1> {
    let cfg = config();
    let nodes = cfg.shard.nodes;
    Service::start(cfg, |_, id| Alg1::new(id, nodes))
}

/// The first `KEYS_PER_SHARD` keys routed to each shard, in shard order.
fn keys_by_shard(svc: &Service<Alg1>) -> Vec<Vec<u64>> {
    let mut keys = vec![Vec::new(); SHARDS];
    let mut k = 0u64;
    while keys.iter().any(|v| v.len() < KEYS_PER_SHARD) {
        let s = svc.shard_for(k);
        if keys[s].len() < KEYS_PER_SHARD {
            keys[s].push(k);
        }
        k += 1;
    }
    keys
}

/// Outcome of one load run.
struct Drive {
    /// Admission rejections carrying `Unavailable { shard: 0 }` — the
    /// fail-fast path the faulted run must exercise.
    unavailable_rejections: u64,
}

/// Open-loop load: one fire-and-forget write per shard per sweep,
/// dropping (never retrying) rejected submissions so one stalled shard
/// cannot head-of-line-block the generator.
fn drive(svc: &Service<Alg1>, keys: &[Vec<u64>]) -> Drive {
    let mut out = Drive {
        unavailable_rejections: 0,
    };
    let start = Instant::now();
    let mut sweep = 0usize;
    while start.elapsed() < DRIVE {
        for (s, shard_keys) in keys.iter().enumerate() {
            let key = shard_keys[sweep % shard_keys.len()];
            match svc.write_nowait(key, (s as u64) << 32 | sweep as u64) {
                Ok(()) => {}
                Err(ServiceError::Unavailable { shard: 0 }) => out.unavailable_rejections += 1,
                Err(_) => {}
            }
        }
        sweep += 1;
        std::thread::sleep(PACE);
    }
    out
}

/// Waits for every admitted request to resolve (complete or fail),
/// yielding between polls. The deadline is a hang guard only.
fn settle(svc: &Service<Alg1>) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while svc.pending() > 0 {
        assert!(
            Instant::now() < deadline,
            "service did not settle: {} requests still pending",
            svc.pending()
        );
        std::thread::yield_now();
    }
}

/// Merged latency over every shard except `skip`.
fn merged_excluding(svc: &Service<Alg1>, skip: usize) -> LatencySummary {
    let stats = svc.stats();
    LatencySummary::merge(
        stats
            .iter()
            .filter(|st| st.shard != skip)
            .map(|st| &st.latency),
    )
}

#[test]
fn quorum_loss_in_one_shard_leaves_the_other_fifteen_unharmed() {
    // ---- Run A: fault-free baseline over the identical config + load.
    let svc = start();
    let keys = keys_by_shard(&svc);
    drive(&svc, &keys);
    settle(&svc);
    let baseline = merged_excluding(&svc, 0);
    assert!(
        baseline.count > 1_000,
        "baseline run completed too little load: {} samples",
        baseline.count
    );
    for st in svc.stats() {
        assert_eq!(
            st.failed, 0,
            "shard {} failed requests in the fault-free run",
            st.shard
        );
    }
    svc.shutdown();

    // ---- Run B: same service, same load, quorum-crasher aimed at
    // shard 0. (Seed 7 picked for plan shape, not outcome: any
    // QuorumCrasher scenario crashes a majority of a 3-node group.)
    let svc = start();
    let keys = keys_by_shard(&svc);
    let plan = StrategyKind::QuorumCrasher.scenario(3, 7).plan;
    let chaos = svc.apply_plan(0, plan);
    let load = drive(&svc, &keys);
    chaos.join().expect("fault-plan thread panicked");
    settle(&svc);

    // Shard 0 felt the blast: requests failed after admission (quorum
    // loss / flush timeout) and/or admission failed fast once the
    // batcher marked the shard down.
    let hit = svc.shard_stats(0);
    assert!(
        hit.failed + hit.unavailable + load.unavailable_rejections > 0,
        "the fault plan left no trace on shard 0: {hit:?}"
    );

    // The other 15 shards never felt it: no failures, no fail-fast
    // rejections, and p99 within 2× of the fault-free baseline (+10 ms
    // absolute epsilon for 1-core scheduler noise).
    let healthy = merged_excluding(&svc, 0);
    for st in svc.stats().iter().filter(|st| st.shard != 0) {
        assert_eq!(st.failed, 0, "healthy shard {} failed requests", st.shard);
        assert_eq!(
            st.unavailable, 0,
            "healthy shard {} rejected as unavailable",
            st.shard
        );
        assert!(
            st.completed > 0,
            "healthy shard {} completed nothing",
            st.shard
        );
    }
    assert!(
        healthy.p99 <= baseline.p99 * 2 + 10_000,
        "healthy-shard p99 {}µs blew past 2× the fault-free {}µs",
        healthy.p99,
        baseline.p99
    );

    // And shard 0 recovers once its nodes are back — the service layer
    // inherits the protocol's self-stabilization. Retry until a write
    // both admits and completes.
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        assert!(Instant::now() < deadline, "shard 0 never recovered");
        if let Ok(ticket) = svc.write(keys[0][0], 0xDEAD) {
            if let Some(Ok(ServiceReply::WriteDone)) = ticket.wait_timeout(Duration::from_secs(2)) {
                break true;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(recovered);
    svc.shutdown();
}
