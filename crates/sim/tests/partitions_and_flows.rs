//! Tests of the simulator's partition control and trace-plane emission,
//! using a minimal echo protocol (independent of the real snapshot
//! algorithms).

use sss_sim::{MemorySink, Sim, SimConfig, TraceEvent, Tracer};
use sss_types::{
    Effects, MsgKind, NodeId, OpId, OpResponse, ProcessSet, ProtoMsg, Protocol, SnapshotOp,
};

struct Echo {
    id: NodeId,
    n: usize,
    pending: Option<OpId>,
    acks: ProcessSet,
}

#[derive(Clone, Debug)]
enum EchoMsg {
    Ping,
    Pong,
}

impl ProtoMsg for EchoMsg {
    fn kind(&self) -> MsgKind {
        match self {
            EchoMsg::Ping => MsgKind::Write,
            EchoMsg::Pong => MsgKind::WriteAck,
        }
    }
    fn size_bits(&self, _nu: u32) -> u64 {
        64
    }
}

impl Protocol for Echo {
    type Msg = EchoMsg;
    fn id(&self) -> NodeId {
        self.id
    }
    fn n(&self) -> usize {
        self.n
    }
    fn on_round(&mut self, fx: &mut Effects<EchoMsg>) {
        if self.pending.is_some() {
            fx.broadcast(self.n, &EchoMsg::Ping);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: EchoMsg, fx: &mut Effects<EchoMsg>) {
        match msg {
            EchoMsg::Ping => fx.send(from, EchoMsg::Pong),
            EchoMsg::Pong => {
                self.acks.insert(from);
                if let Some(id) = self.pending {
                    if self.acks.is_majority() {
                        self.pending = None;
                        fx.complete(id, OpResponse::WriteDone);
                    }
                }
            }
        }
    }
    fn invoke(&mut self, id: OpId, _op: SnapshotOp, fx: &mut Effects<EchoMsg>) {
        self.pending = Some(id);
        self.acks.clear();
        fx.broadcast(self.n, &EchoMsg::Ping);
    }
    fn is_busy(&self) -> bool {
        self.pending.is_some()
    }
    fn corrupt(&mut self, _rng: &mut dyn rand::RngCore) {}
    fn restart(&mut self) {
        self.pending = None;
        self.acks.clear();
    }
}

fn sim(n: usize) -> Sim<Echo> {
    Sim::new(SimConfig::small(n), move |id| Echo {
        id,
        n,
        pending: None,
        acks: ProcessSet::new(n),
    })
}

#[test]
fn full_partition_blocks_majority_less_side() {
    let mut s = sim(3);
    s.partition(&[&[NodeId(0)], &[NodeId(1), NodeId(2)]]);
    s.invoke_at(5, NodeId(0), SnapshotOp::Write(1));
    assert!(
        !s.run_until_idle(500_000),
        "isolated node cannot reach majority"
    );
    s.heal_partition();
    assert!(s.run_until_idle(5_000_000));
}

#[test]
fn directed_cut_only_affects_one_direction() {
    let mut s = sim(3);
    // p0 cannot reach p1, but p1 can reach p0; p2 fully connected.
    s.set_link(NodeId(0), NodeId(1), false);
    s.invoke_at(5, NodeId(0), SnapshotOp::Write(1));
    // Majority = {p0 self, p2}: completes despite the cut.
    assert!(s.run_until_idle(5_000_000));
}

#[test]
fn partition_drops_count_as_dropped_messages() {
    let mut s = sim(3);
    s.partition(&[&[NodeId(0)], &[NodeId(1), NodeId(2)]]);
    s.invoke_at(5, NodeId(0), SnapshotOp::Write(1));
    s.run_until(2_000);
    let m = s.metrics();
    assert!(m.kind(MsgKind::Write).dropped > 0, "cut links drop");
}

#[test]
fn tracer_captures_message_flows_in_order() {
    let mut s = sim(3);
    let (sink, buf) = MemorySink::new();
    s.set_tracer(Tracer::new(3).with_sink(sink));
    s.invoke_at(5, NodeId(0), SnapshotOp::Write(1));
    assert!(s.run_until_idle(5_000_000));
    let recs = buf.records();
    assert!(!recs.is_empty());
    assert!(
        recs.windows(2).all(|w| w[0].seq < w[1].seq),
        "sequence-ordered"
    );
    let delivered_kinds: Vec<MsgKind> = recs
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Deliver { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    assert!(delivered_kinds.contains(&MsgKind::Write));
    assert!(delivered_kinds.contains(&MsgKind::WriteAck));
    assert!(delivered_kinds.len() >= 4);
    // Every delivery has a matching earlier send on the same link.
    for r in &recs {
        if let TraceEvent::Deliver { from, to, kind } = r.event {
            assert!(recs.iter().any(|s| s.seq < r.seq
                && matches!(s.event, TraceEvent::Send { from: f, to: t, kind: k, .. }
                    if f == from && t == to && k == kind)));
        }
    }
    // The op lifecycle is traced at the client boundary.
    assert!(recs.iter().any(|r| matches!(
        r.event,
        TraceEvent::OpInvoke {
            node: NodeId(0),
            ..
        }
    )));
    assert!(recs.iter().any(|r| matches!(
        r.event,
        TraceEvent::OpComplete {
            node: NodeId(0),
            ..
        }
    )));
    // An idle run completes cycles, and they are traced in order.
    let cycles: Vec<u64> = recs
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::CycleEnd { index } => Some(index),
            _ => None,
        })
        .collect();
    assert_eq!(cycles, (0..cycles.len() as u64).collect::<Vec<_>>());
    assert_eq!(cycles.len() as u64, s.cycles());
}

#[test]
fn tracer_records_partition_drops_with_cause() {
    let mut s = sim(3);
    let (sink, buf) = MemorySink::new();
    s.set_tracer(Tracer::new(3).with_sink(sink));
    s.partition(&[&[NodeId(0)], &[NodeId(1), NodeId(2)]]);
    s.invoke_at(5, NodeId(0), SnapshotOp::Write(1));
    s.run_until(2_000);
    assert!(buf.records().iter().any(|r| matches!(
        r.event,
        TraceEvent::Drop {
            cause: sss_sim::DropCause::LinkDown,
            ..
        }
    )));
}

#[test]
fn no_tracer_means_no_records() {
    let mut s = sim(3);
    s.invoke_at(5, NodeId(0), SnapshotOp::Write(1));
    assert!(s.run_until_idle(5_000_000));
    assert!(!s.tracer().is_on());
    assert_eq!(s.tracer().emitted(), 0);
}
