//! The driver rules of the in-process runtime, exercised through the
//! public API: operations are carried by the threads that push or by the
//! holder of the cluster's driver domain, and the control plane applies
//! synchronously.

use crossbeam::channel::{bounded, Receiver, Sender};
use sss_core::{Alg1, Alg3, Alg3Config};
use sss_net::unique_value;
use sss_runtime::{Cluster, ClusterConfig};
use sss_types::{Effects, MsgKind, NodeId, OpId, OpResponse, ProtoMsg, Protocol, SnapshotOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Four closed-loop clients, 10k operations each, on a cluster whose
/// first round is 10 s away: every operation must be carried to
/// completion by the threads that push — an inbox left stranded, or a
/// push lost between a failed `try_lock` and the holder's re-scan,
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

/// Two closed-loop clients × 5k operations plus a generator keeping 32
/// `submit`s in flight, on a cluster whose first round is 10 s away — the
/// in-process twin of the socket backend's test. The cluster is one driver
/// domain, so most pushes find it held and walk away: every operation
/// must be carried by the holder's re-scan after it releases. A push
/// stranded between a lost `try_lock` and that re-scan would sit until
/// the first round (the clients' 5 s timeout fails first).
fn mixed_loads_finish_before_the_first_round<P: Protocol + 'static>(mk: impl FnMut(NodeId) -> P) {
    const OPS: u64 = 5_000;
    const IN_FLIGHT: u64 = 32;
    let n = 3;
    let cfg = ClusterConfig {
        round_interval: Duration::from_secs(10),
        ..ClusterConfig::new(n)
    };
    let cluster = Cluster::new(cfg, mk);
    let guard = Instant::now() + Duration::from_secs(60);
    std::thread::scope(|scope| {
        for c in 0..2 {
            let client = cluster.client(NodeId(c));
            scope.spawn(move || {
                for k in 0..OPS {
                    if k % 2 == 0 {
                        client
                            .write(unique_value(client.node(), k + 1))
                            .expect("write");
                    } else {
                        client.snapshot().expect("snapshot");
                    }
                }
            });
        }
        let clients: Vec<_> = (0..n).map(|k| cluster.client(NodeId(k))).collect();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<OpResponse>();
        let submit = |k: u64| {
            let node = NodeId(k as usize % n);
            let op = if k % 4 == 3 {
                SnapshotOp::Snapshot
            } else {
                SnapshotOp::Write(unique_value(node, OPS + k + 1))
            };
            clients[node.index()]
                .submit(op, done_tx.clone())
                .expect("submit");
        };
        (0..IN_FLIGHT).for_each(submit);
        for k in IN_FLIGHT..OPS + IN_FLIGHT {
            let left = guard.saturating_duration_since(Instant::now());
            done_rx.recv_timeout(left).expect("submitted ops stalled");
            if k < OPS {
                submit(k);
            }
        }
    });
    assert_eq!(cluster.net_stats().rounds, 0, "no round was needed");
    cluster.shutdown();
}

#[test]
fn alg1_mixed_loads_do_not_depend_on_the_heartbeat() {
    mixed_loads_finish_before_the_first_round(|id| Alg1::new(id, 3));
}

#[test]
fn alg3_mixed_loads_do_not_depend_on_the_heartbeat() {
    mixed_loads_finish_before_the_first_round(|id| Alg3::new(id, 3, Alg3Config::default()));
}

/// A protocol whose writes complete at invocation, without messages, and
/// whose first invocation at node 0 waits at a gate: a drive stepping it
/// holds the cluster's driver domain for as long as the test wants, and
/// has nothing left to step after it.
struct Gated {
    id: NodeId,
    /// Node 0's gate: "entered" to the test, then wait for "go".
    gate: Option<(Sender<()>, Receiver<()>)>,
}

#[derive(Clone, Debug)]
enum NoMsg {}

impl ProtoMsg for NoMsg {
    fn kind(&self) -> MsgKind {
        match *self {}
    }
    fn size_bits(&self, _: u32) -> u64 {
        match *self {}
    }
}

impl Protocol for Gated {
    type Msg = NoMsg;
    fn id(&self) -> NodeId {
        self.id
    }
    fn n(&self) -> usize {
        2
    }
    fn on_round(&mut self, _: &mut Effects<NoMsg>) {}
    fn on_message(&mut self, _: NodeId, msg: NoMsg, _: &mut Effects<NoMsg>) {
        match msg {}
    }
    fn invoke(&mut self, id: OpId, _: SnapshotOp, fx: &mut Effects<NoMsg>) {
        if let Some((entered, go)) = self.gate.take() {
            entered.send(()).expect("the test waits at the gate");
            go.recv().expect("the test opens the gate");
        }
        fx.complete(id, OpResponse::WriteDone);
    }
    fn is_busy(&self) -> bool {
        false
    }
    fn corrupt(&mut self, _: &mut dyn rand::RngCore) {}
    fn restart(&mut self) {}
}

/// The hand-off in one forced interleaving: a thread holds the domain
/// (inside node 0's step) while another invokes at node 1, finds the
/// domain held and walks away. Nothing else will step node 1 before the
/// first round, 10 s away, so the operation completes only if the holder
/// re-scans the domain after releasing it.
#[test]
fn a_push_that_finds_the_domain_held_is_carried_by_its_holder() {
    let (entered_tx, entered) = bounded(1);
    let (go, go_rx) = bounded(1);
    let mut gate = Some((entered_tx, go_rx));
    let cfg = ClusterConfig {
        round_interval: Duration::from_secs(10),
        ..ClusterConfig::new(2)
    };
    let cluster = Cluster::new(cfg, |id| Gated {
        id,
        gate: if id == NodeId(0) { gate.take() } else { None },
    });
    std::thread::scope(|scope| {
        let holder = cluster.client(NodeId(0));
        scope.spawn(move || holder.write(1).expect("the holder's write"));
        entered.recv().expect("the holder is inside node 0's step");
        let (done_tx, done) = bounded(1);
        let op = SnapshotOp::Write(2);
        cluster
            .client(NodeId(1))
            .submit(op, done_tx)
            .expect("submit");
        go.send(()).expect("the holder waits at the gate");
        done.recv_timeout(Duration::from_secs(5))
            .expect("the holder's re-scan carried the walked-away invocation");
    });
    assert_eq!(cluster.net_stats().rounds, 0, "no round was needed");
    cluster.shutdown();
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
