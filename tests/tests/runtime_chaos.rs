//! Threaded-runtime chaos tests: the same guarantees the simulator
//! validates, exercised on real threads with real concurrency — loss,
//! duplication, crash/resume, transient corruption, partitions — with
//! every recorded history checked for linearizability.

use sss_checker::check;
use sss_core::{Alg1, Alg3, Alg3Config};
use sss_runtime::{Cluster, ClusterConfig, ClusterError, RetryPolicy};
use sss_types::NodeId;
use std::time::{Duration, Instant};

fn unique(node: usize, seq: u64) -> u64 {
    ((node as u64 + 1) << 40) | seq
}

#[test]
fn concurrent_clients_with_loss_are_linearizable() {
    let n = 3;
    let cluster = Cluster::new(ClusterConfig::new(n).with_chaos(0.15, 0.1), move |id| {
        Alg1::new(id, n)
    });
    let mut joins = Vec::new();
    for i in 0..n {
        let client = cluster.client(NodeId(i));
        joins.push(std::thread::spawn(move || {
            for seq in 1..=6u64 {
                client.write(unique(i, seq)).unwrap();
                client.snapshot().unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let h = cluster.history();
    cluster.shutdown();
    let v = check(&h, n);
    assert!(v.is_linearizable(), "{:?}", v.violations);
}

#[test]
fn alg3_concurrent_clients_are_linearizable() {
    let n = 4;
    let cluster = Cluster::new(ClusterConfig::new(n), move |id| {
        Alg3::new(id, n, Alg3Config { delta: 2 })
    });
    let mut joins = Vec::new();
    for i in 0..n {
        let client = cluster.client(NodeId(i));
        joins.push(std::thread::spawn(move || {
            for seq in 1..=5u64 {
                if i % 2 == 0 {
                    client.write(unique(i, seq)).unwrap();
                } else {
                    client.snapshot().unwrap();
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let h = cluster.history();
    cluster.shutdown();
    let v = check(&h, n);
    assert!(v.is_linearizable(), "{:?}", v.violations);
}

#[test]
fn corruption_recovers_on_real_threads() {
    let n = 3;
    let cluster = Cluster::new(ClusterConfig::new(n), move |id| Alg1::new(id, n));
    for seq in 1..=3u64 {
        cluster.client(NodeId(0)).write(unique(0, seq)).unwrap();
    }
    // Transient fault at every node.
    for i in 0..n {
        cluster.corrupt(NodeId(i), 42 + i as u64);
    }
    // Gossip heals within a few rounds.
    cluster.await_rounds(5);
    // The object is usable again: fresh writes are visible.
    cluster.client(NodeId(1)).write(unique(1, 1)).unwrap();
    let view = cluster.client(NodeId(2)).snapshot().unwrap();
    assert_eq!(view.value_of(NodeId(1)), Some(unique(1, 1)));
    cluster.shutdown();
}

#[test]
fn crash_resume_cycles_on_real_threads() {
    let n = 3;
    let mut cfg = ClusterConfig::new(n);
    cfg.op_timeout = Duration::from_secs(10);
    let cluster = Cluster::new(cfg, move |id| Alg1::new(id, n));
    for round in 0..3 {
        let victim = NodeId(round % n);
        cluster.crash(victim);
        // Any non-crashed client still finishes (majority alive).
        let writer = NodeId((round + 1) % n);
        cluster
            .client(writer)
            .write(unique(writer.index(), round as u64 + 1))
            .unwrap();
        cluster.resume(victim);
    }
    let h = cluster.history();
    cluster.shutdown();
    let v = check(&h, n);
    assert!(v.is_linearizable(), "{:?}", v.violations);
}

#[test]
fn partition_then_heal_on_real_threads() {
    let n = 5;
    let mut cfg = ClusterConfig::new(n);
    cfg.op_timeout = Duration::from_millis(250);
    let cluster = Cluster::new(cfg, move |id| Alg1::new(id, n));
    cluster.partition(&[
        [NodeId(0), NodeId(1), NodeId(2)].as_slice(),
        [NodeId(3), NodeId(4)].as_slice(),
    ]);
    cluster.client(NodeId(0)).write(unique(0, 1)).unwrap();
    // Minority side must block: either the failure detector indicts the
    // unreachable majority (`Unavailable`) or — if the partition landed
    // before node 4 ever heard some peers — the op times out bare.
    let err = cluster.client(NodeId(4)).write(unique(4, 1)).unwrap_err();
    assert!(
        matches!(err, ClusterError::Timeout | ClusterError::Unavailable(_)),
        "minority side must block, got {err:?}"
    );
    cluster.heal_partition();
    cluster.client(NodeId(4)).write(unique(4, 2)).unwrap();
    let view = cluster.client(NodeId(3)).snapshot().unwrap();
    assert_eq!(view.value_of(NodeId(0)), Some(unique(0, 1)));
    let h = cluster.history();
    cluster.shutdown();
    let v = check(&h, n);
    assert!(v.is_linearizable(), "{:?}", v.violations);
}

/// The graceful-degradation acceptance criterion: under a majority
/// partition, ops fail with `Unavailable` in well under 20 % of the op
/// timeout, and a retrying client succeeds again within its backoff
/// budget once the partition heals.
#[test]
fn quorum_loss_fails_fast_and_retry_recovers_after_heal() {
    let n = 5;
    let mut cfg = ClusterConfig::new(n);
    cfg.op_timeout = Duration::from_secs(3);
    let cluster = Cluster::new(cfg, move |id| Alg1::new(id, n));
    // Populate the heard matrix: every node must have heard every peer
    // at least once, so silence is attributable to the partition.
    cluster.client(NodeId(0)).write(unique(0, 1)).unwrap();
    cluster.await_rounds(2);
    // Node 4 ends up in a 2-node minority: no majority reachable.
    cluster.partition(&[
        [NodeId(0), NodeId(1), NodeId(2)].as_slice(),
        [NodeId(3), NodeId(4)].as_slice(),
    ]);
    let started = Instant::now();
    let err = cluster.client(NodeId(4)).write(unique(4, 1)).unwrap_err();
    let elapsed = started.elapsed();
    match &err {
        ClusterError::Unavailable(ev) => {
            assert!(!ev.node_crashed);
            assert!(
                ev.reachable < ev.required,
                "evidence must show the lost quorum: {ev:?}"
            );
            assert!(!ev.suspected.is_empty());
        }
        other => panic!("expected fail-fast Unavailable, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(600),
        "fail-fast took {elapsed:?}, acceptance bound is 20% of the 3 s op timeout"
    );
    // Heal mid-retry: the retrying client's first attempt(s) fail fast
    // against the still-partitioned cluster, the backoff rides out the
    // heal, and a later attempt succeeds — all within the bounded
    // attempt budget.
    let retry = cluster.client(NodeId(4)).retrying(RetryPolicy::default());
    let retrier = std::thread::spawn(move || retry.write(unique(4, 2)));
    std::thread::sleep(Duration::from_millis(50));
    cluster.heal_partition();
    retrier
        .join()
        .unwrap()
        .expect("retrying client must succeed after Heal");
    let view = cluster.client(NodeId(0)).snapshot().unwrap();
    assert_eq!(view.value_of(NodeId(4)), Some(unique(4, 2)));
    // No linearizability check here: retries re-issue the same value as
    // fresh operations, which violates the checker's unique-write-value
    // convention by design.
    cluster.shutdown();
}

/// The satellite fix: a crash of the *contacted* node while an op is in
/// flight surfaces `Unavailable` carrying the detector's evidence
/// (`node_crashed`), not a bare `Timeout`.
#[test]
fn crash_of_contacted_node_mid_op_reports_unavailable() {
    let n = 3;
    let mut cfg = ClusterConfig::new(n);
    cfg.op_timeout = Duration::from_secs(3);
    let cluster = Cluster::new(cfg, move |id| Alg1::new(id, n));
    cluster.client(NodeId(0)).write(unique(0, 1)).unwrap();
    // Crash node 0 shortly after the op goes in flight; the op is
    // swallowed and can only end via the detector.
    let client = cluster.client(NodeId(0));
    let op = std::thread::spawn(move || {
        let started = Instant::now();
        let res = client.write(unique(0, 2));
        (res, started.elapsed())
    });
    std::thread::sleep(Duration::from_millis(1));
    cluster.crash(NodeId(0));
    let (res, elapsed) = op.join().unwrap();
    match res {
        Err(ClusterError::Unavailable(ev)) => {
            assert!(ev.node_crashed, "evidence must name the crashed node");
            assert_eq!(ev.node, NodeId(0));
        }
        // The op may have squeaked through before the crash landed —
        // re-issue against the now-crashed node; this one must indict it.
        Ok(()) => {
            let err = cluster.client(NodeId(0)).write(unique(0, 3)).unwrap_err();
            match err {
                ClusterError::Unavailable(ev) => assert!(ev.node_crashed),
                other => panic!("expected Unavailable(node_crashed), got {other:?}"),
            }
        }
        Err(other) => panic!("expected Unavailable, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(600),
        "crash detection took {elapsed:?}"
    );
    cluster.resume(NodeId(0));
    cluster.client(NodeId(0)).write(unique(0, 9)).unwrap();
    cluster.shutdown();
}
