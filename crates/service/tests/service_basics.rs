//! End-to-end basics of the threaded sharded service: tickets resolve,
//! writes land in snapshots, admission control sheds overload, and
//! stats account for every admitted request.

use sss_core::Alg1;
use sss_service::{Service, ServiceConfig, ServiceError, ServiceReply, ShardConfig};
use std::time::Duration;

fn small_service(shards: usize, queue_cap: usize) -> Service<Alg1> {
    let cfg = ServiceConfig {
        shards,
        vnodes: 16,
        seed: 0xBA5E,
        shard: ShardConfig {
            nodes: 3,
            queue_cap,
            flush_timeout: Duration::from_secs(5),
            round_interval: Duration::from_millis(2),
            suspect_after: Duration::from_millis(200),
        },
    };
    Service::start(cfg, |_, id| Alg1::new(id, 3))
}

#[test]
fn writes_and_snapshots_resolve_and_compose() {
    let svc = small_service(4, 1024);
    // A batch of keyed writes across all shards.
    let tickets: Vec<_> = (0..64u64)
        .map(|k| (k, svc.write(k, 1_000 + k).expect("admitted")))
        .collect();
    for (k, t) in tickets {
        assert_eq!(
            t.wait().unwrap_or_else(|e| panic!("write {k}: {e}")),
            ServiceReply::WriteDone
        );
    }
    // A snapshot on each key's shard must see *some* register state;
    // the key's own last value is visible if its register was the last
    // collapsed write there. Check one key per shard deterministically:
    // write then snapshot with no competing writers.
    let key = 7u64;
    svc.write(key, 4242)
        .expect("admitted")
        .wait()
        .expect("write");
    let reply = svc
        .snapshot(key)
        .expect("admitted")
        .wait()
        .expect("snapshot");
    let ServiceReply::Snapshot(view) = reply else {
        panic!("snapshot resolved to a write reply");
    };
    assert!(
        view.values().iter().flatten().any(|&v| v == 4242),
        "snapshot of key {key}'s shard misses the preceding write"
    );
    // Every admitted request resolved; nothing was lost or failed.
    let stats = svc.stats();
    assert_eq!(stats.iter().map(|s| s.pending()).sum::<u64>(), 0);
    assert_eq!(stats.iter().map(|s| s.failed).sum::<u64>(), 0);
    assert_eq!(stats.iter().map(|s| s.completed).sum::<u64>(), 66);
    let merged = svc.merged_latency();
    assert_eq!(merged.count, 66);
    assert!(merged.p99 >= merged.p50);
    svc.shutdown();
}

#[test]
fn full_queue_rejects_with_overloaded() {
    // One shard and a tiny queue: a push costs a fraction of a
    // microsecond and the flush draining the queue a protocol round
    // trip, so a submission burst outruns the batcher and its tail must
    // be refused with `Overloaded` rather than queued without bound.
    let svc = small_service(1, 8);
    let mut accepted = 0u64;
    let mut overloaded = 0u64;
    for k in 0..1_000u64 {
        match svc.write_nowait(k, k) {
            Ok(()) => accepted += 1,
            Err(ServiceError::Overloaded { shard: 0 }) => overloaded += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(overloaded > 0, "a 8-slot queue absorbed 1000 writes");
    let stats = svc.shard_stats(0);
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.overloaded, overloaded);
    svc.shutdown();
}

#[test]
fn shutdown_resolves_all_pending_requests() {
    let svc = small_service(2, 4096);
    let tickets: Vec<_> = (0..256u64)
        .map(|k| svc.write(k, k).expect("admitted"))
        .collect();
    svc.shutdown();
    // Every ticket resolved one way or the other — none dangles.
    for t in tickets {
        let _ = t.wait();
    }
}
