//! The driver rules of the in-process runtime, exercised through the
//! public API: operations are carried by the threads that push, and the
//! control plane applies synchronously.

use sss_core::{Alg1, Alg3, Alg3Config};
use sss_net::unique_value;
use sss_runtime::{Cluster, ClusterConfig};
use sss_types::{NodeId, Protocol};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Four closed-loop clients, 10k operations each, on a cluster whose
/// first round is 10 s away: every operation must be carried to
/// completion by the threads that push — an inbox left stranded, or a
/// push lost between a failed `try_lock` and the holder's re-check,
/// would sit until that round and trip the guard.
fn closed_loops_finish_before_the_first_round<P: Protocol + 'static>(mk: impl FnMut(NodeId) -> P) {
    const CLIENTS: usize = 4;
    const OPS: u64 = 10_000;
    let n = 3;
    let cfg = ClusterConfig {
        round_interval: Duration::from_secs(10),
        ..ClusterConfig::new(n)
    };
    let cluster = Cluster::new(cfg, mk);
    let done = AtomicU64::new(0);
    let guard = Instant::now() + Duration::from_secs(120);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let client = cluster.client(NodeId(c % n));
            let done = &done;
            scope.spawn(move || {
                for k in 0..OPS {
                    if k % 2 == 0 {
                        let v = unique_value(client.node(), (c as u64) * OPS + k + 1);
                        client.write(v).expect("write");
                    } else {
                        client.snapshot().expect("snapshot");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        while done.load(Ordering::Relaxed) < CLIENTS as u64 * OPS {
            assert!(Instant::now() < guard, "clients stalled");
            std::thread::yield_now();
        }
    });
    assert_eq!(cluster.net_stats().rounds, 0, "no round was needed");
    cluster.shutdown();
}

#[test]
fn alg1_closed_loops_do_not_depend_on_the_heartbeat() {
    closed_loops_finish_before_the_first_round(|id| Alg1::new(id, 3));
}

#[test]
fn alg3_closed_loops_do_not_depend_on_the_heartbeat() {
    closed_loops_finish_before_the_first_round(|id| Alg3::new(id, 3, Alg3Config::default()));
}

#[test]
fn control_calls_apply_before_they_return() {
    let cluster = Cluster::new(ClusterConfig::new(3), |id| Alg1::new(id, 3));
    cluster.crash(NodeId(2));
    let ev = cluster.availability(NodeId(2)).expect("crashed");
    assert!(ev.node_crashed);
    cluster.resume(NodeId(2));
    assert!(cluster.availability(NodeId(2)).is_none());
    cluster.client(NodeId(0)).write(1).unwrap();
    cluster.restart(NodeId(0));
    let protos = cluster.shutdown();
    assert_eq!(
        protos[0].stats().write_index,
        0,
        "restart re-initialized p0"
    );
}
