//! Golden cross-backend trace: the same scenario must yield the same
//! *logical* event structure on the simulator and on real threads.
//!
//! The scenario is Figure 1's: on a reliable 3-node network running
//! Algorithm 1, `p0` writes, then `p1` snapshots. Physical timing
//! differs radically between virtual time and the wall clock (round
//! cadence, retransmission counts), so the comparison normalizes each
//! trace down to what the protocol *means*:
//!
//! * the client-boundary operation sequence — `(node, class, invoke |
//!   complete)` in trace order;
//! * per directed link, the distinct non-gossip message kinds in order
//!   of first appearance (retransmissions collapse; background gossip,
//!   whose cadence is backend-specific, is excluded).
//!
//! Both backends must match the pinned constants below — and thereby
//! each other. If the protocol's message flow changes intentionally,
//! update the constants in the same commit.

use sss_core::Alg1;
use sss_runtime::{Cluster, ClusterConfig, SocketCluster, SocketConfig};
use sss_sim::{Sim, SimConfig};
use sss_types::{MsgKind, NodeId, OpClass, SnapshotOp};
use std::collections::BTreeMap;

const N: usize = 3;

/// `(node, class, is_invoke)` — one client-boundary op event.
type OpEvent = (usize, OpClass, bool);
/// Distinct non-gossip kinds per directed link, first-appearance order.
type LinkKinds = BTreeMap<(usize, usize), Vec<MsgKind>>;

fn normalize(records: &[sss_sim::TraceRecord]) -> (Vec<OpEvent>, LinkKinds) {
    use sss_sim::TraceEvent;
    let mut ops = Vec::new();
    let mut links: LinkKinds = BTreeMap::new();
    for r in records {
        match r.event {
            TraceEvent::OpInvoke { node, class, .. } => ops.push((node.index(), class, true)),
            TraceEvent::OpComplete { node, class, .. } => ops.push((node.index(), class, false)),
            TraceEvent::Send { from, to, kind, .. } if !kind.is_gossip() => {
                let seq = links.entry((from.index(), to.index())).or_default();
                if !seq.contains(&kind) {
                    seq.push(kind);
                }
            }
            _ => {}
        }
    }
    (ops, links)
}

/// The scenario on the simulator: write at `p0`, then snapshot at `p1`,
/// strictly sequential, tracing from before the first invoke.
fn sim_trace() -> (Vec<OpEvent>, LinkKinds) {
    let mut sim = Sim::new(SimConfig::small(N).with_seed(0xF1), |id| Alg1::new(id, N));
    let (sink, buf) = sss_sim::MemorySink::new();
    sim.set_tracer(sss_sim::Tracer::new(N).with_sink(sink));
    let tail = 3 * sim.config().net.delay_max;
    sim.invoke_at(5, NodeId(0), SnapshotOp::Write(41));
    assert!(sim.run_until_idle(5_000_000));
    sim.run_until(sim.now() + tail); // land in-flight acks
    sim.invoke_at(sim.now() + 1, NodeId(1), SnapshotOp::Snapshot);
    assert!(sim.run_until_idle(5_000_000));
    sim.run_until(sim.now() + tail);
    normalize(&buf.records())
}

/// The write phase's entries of [`expected`]: its links restricted to
/// WRITE and WRITEack.
fn expected_write_phase() -> LinkKinds {
    let (_, mut links) = expected();
    for kinds in links.values_mut() {
        kinds.retain(|k| matches!(k, MsgKind::Write | MsgKind::WriteAck));
    }
    links.retain(|_, kinds| !kinds.is_empty());
    links
}

/// Blocks until the trace's non-gossip link kinds include every entry of
/// `want`. Both ops complete at a *majority* of acks, so the minority's
/// trailing message can still be in flight when the client returns:
/// invoking the next op — or tearing down — before it lands would race
/// it out of the trace (the sim leg runs `tail` extra time for the same
/// reason). Anything beyond `want` is left to the caller's final
/// comparison; after 10 s the wait gives up and leaves the diff to it.
fn await_link_kinds(buf: &sss_runtime::TraceBuffer, want: &LinkKinds) {
    use std::time::{Duration, Instant};
    let guard = Instant::now() + Duration::from_secs(10);
    let seen = |got: &LinkKinds| {
        want.iter().all(|(link, kinds)| {
            got.get(link)
                .is_some_and(|g| kinds.iter().all(|k| g.contains(k)))
        })
    };
    while !seen(&normalize(&buf.records()).1) && Instant::now() < guard {
        std::thread::yield_now();
    }
}

/// The same scenario on real threads.
fn thread_trace() -> (Vec<OpEvent>, LinkKinds) {
    let (sink, buf) = sss_runtime::MemorySink::new();
    let tracer = sss_runtime::Tracer::new(N).with_sink(sink);
    let cluster = Cluster::new_traced(ClusterConfig::new(N), tracer, |id| Alg1::new(id, N));
    cluster.client(NodeId(0)).write(41).unwrap();
    await_link_kinds(&buf, &expected_write_phase());
    cluster.client(NodeId(1)).snapshot().unwrap();
    await_link_kinds(&buf, &expected().1);
    cluster.shutdown();
    normalize(&buf.records())
}

/// The same scenario over real UDP sockets on loopback: the wire codec
/// and the batched syscall plane must be invisible at this level of
/// abstraction — same ops, same per-link message kinds.
fn socket_trace() -> (Vec<OpEvent>, LinkKinds) {
    let (sink, buf) = sss_runtime::MemorySink::new();
    let tracer = sss_runtime::Tracer::new(N).with_sink(sink);
    let cluster = SocketCluster::new_traced(SocketConfig::new(N), tracer, |id| Alg1::new(id, N));
    cluster.client(NodeId(0)).write(41).unwrap();
    await_link_kinds(&buf, &expected_write_phase());
    cluster.client(NodeId(1)).snapshot().unwrap();
    await_link_kinds(&buf, &expected().1);
    cluster.shutdown();
    normalize(&buf.records())
}

/// The pinned logical trace of Figure 1's scenario under Algorithm 1.
fn expected() -> (Vec<OpEvent>, LinkKinds) {
    let ops = vec![
        (0, OpClass::Write, true),
        (0, OpClass::Write, false),
        (1, OpClass::Snapshot, true),
        (1, OpClass::Snapshot, false),
    ];
    use MsgKind::*;
    let links: LinkKinds = [
        // Write phase: p0 broadcasts WRITE (including to itself), every
        // receiver acks back to p0. Snapshot phase: p1 broadcasts
        // SNAPSHOT, receivers ack back to p1.
        ((0, 0), vec![Write, WriteAck]),
        ((0, 1), vec![Write, SnapshotAck]),
        ((0, 2), vec![Write]),
        ((1, 0), vec![WriteAck, Snapshot]),
        ((1, 1), vec![Snapshot, SnapshotAck]),
        ((1, 2), vec![Snapshot]),
        ((2, 0), vec![WriteAck]),
        ((2, 1), vec![SnapshotAck]),
    ]
    .into_iter()
    .collect();
    (ops, links)
}

#[test]
fn sim_trace_matches_pinned_logical_structure() {
    assert_eq!(sim_trace(), expected(), "simulator trace drifted");
}

#[test]
fn thread_trace_matches_pinned_logical_structure() {
    assert_eq!(thread_trace(), expected(), "threaded trace drifted");
}

#[test]
fn socket_trace_matches_pinned_logical_structure() {
    assert_eq!(socket_trace(), expected(), "socket trace drifted");
}

#[test]
fn both_backends_agree_on_the_logical_trace() {
    assert_eq!(
        sim_trace(),
        thread_trace(),
        "same scenario, same schema: the logical traces must be identical"
    );
}

#[test]
fn socket_backend_agrees_on_the_logical_trace() {
    assert_eq!(
        sim_trace(),
        socket_trace(),
        "real UDP must not change what the protocol means"
    );
}
