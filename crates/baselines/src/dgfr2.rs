//! Delporte-Gallet et al.'s **always-terminating** snapshot algorithm
//! (the paper's Algorithm 2, non-self-stabilizing).
//!
//! Snapshot tasks are *reliably broadcast* (`SNAP(source, sn)`); every node
//! processes the oldest outstanding task with `baseSnapshot`, deferring its
//! writes while doing so — this joint participation is what lets snapshots
//! terminate under any write pattern. Results return via reliably
//! broadcast `END(source, sn, value)` messages into the unbounded
//! `repSnap` table.
//!
//! Costs, as the paper reports: `O(n²)` messages per snapshot (every node
//! broadcasts `SNAPSHOT` queries, plus two reliable broadcasts at `O(n²)`
//! each), one snapshot task handled at a time, and **unbounded memory**
//! (`repSnap` and the reliable-broadcast bookkeeping grow forever) — the
//! two things the paper's Algorithm 3 fixes while adding transient-fault
//! recovery.
//!
//! The write is Algorithm 1's without the boxed lines: a
//! `WriteHalf<Original>`, the same half `Dgfr1` runs.

use rand::RngCore;
use sss_core::{Original, WriteHalf};
use sss_quorum::{RbId, RbMsg, ReliableBroadcast};
use sss_types::{
    reg_array_bits, ArbitraryMsg, Effects, MsgKind, NodeId, OpId, OpResponse, Payload, ProcessSet,
    ProtoMsg, Protocol, ProtocolStats, RegArray, SnapshotOp, SnapshotView, Value,
};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// A snapshot task identity: `(source, sn)`.
pub type SnapTask = (usize, u64);

/// Payloads carried by the reliable-broadcast substrate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbPayload {
    /// `SNAP(source, sn)`: a new snapshot task (line 46).
    Snap {
        /// Initiating node.
        source: usize,
        /// The initiator's snapshot index.
        sn: u64,
    },
    /// `END(source, sn, value)`: a finished task's result (line 59).
    End {
        /// Initiating node.
        source: usize,
        /// The initiator's snapshot index.
        sn: u64,
        /// The snapshot result.
        view: SnapshotView,
    },
}

/// Wire messages of [`Dgfr2`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dgfr2Msg {
    /// `WRITE(lReg)`.
    Write {
        /// The writer's register array at invocation.
        reg: Payload,
    },
    /// `WRITEack(reg)`.
    WriteAck {
        /// The server's merged register array.
        reg: Payload,
    },
    /// `SNAPSHOT(s, t, reg, ssn)` (line 56).
    Snapshot {
        /// The task being helped.
        task: SnapTask,
        /// The querier's register array.
        reg: Payload,
        /// The query index.
        ssn: u64,
    },
    /// `SNAPSHOTack(s, t, reg, ssn)` (line 65).
    SnapshotAck {
        /// The task being helped.
        task: SnapTask,
        /// The server's merged register array.
        reg: Payload,
        /// Echo of the query index.
        ssn: u64,
    },
    /// Reliable-broadcast substrate traffic.
    Rb(RbMsg<RbPayload>),
}

impl ProtoMsg for Dgfr2Msg {
    fn kind(&self) -> MsgKind {
        match self {
            Dgfr2Msg::Write { .. } => MsgKind::Write,
            Dgfr2Msg::WriteAck { .. } => MsgKind::WriteAck,
            Dgfr2Msg::Snapshot { .. } => MsgKind::Snapshot,
            Dgfr2Msg::SnapshotAck { .. } => MsgKind::SnapshotAck,
            Dgfr2Msg::Rb(RbMsg::Flood { payload, .. }) => match payload {
                RbPayload::Snap { .. } => MsgKind::Snap,
                RbPayload::End { .. } => MsgKind::End,
            },
            Dgfr2Msg::Rb(RbMsg::Ack { .. }) => MsgKind::RbAck,
        }
    }

    fn size_bits(&self, nu: u32) -> u64 {
        const HDR: u64 = 64;
        match self {
            Dgfr2Msg::Write { reg } | Dgfr2Msg::WriteAck { reg } => {
                HDR + reg_array_bits(reg.n(), nu)
            }
            Dgfr2Msg::Snapshot { reg, .. } | Dgfr2Msg::SnapshotAck { reg, .. } => {
                HDR + 192 + reg_array_bits(reg.n(), nu)
            }
            Dgfr2Msg::Rb(RbMsg::Flood { payload, .. }) => match payload {
                RbPayload::Snap { .. } => HDR + 192,
                RbPayload::End { view, .. } => HDR + 192 + reg_array_bits(view.n(), nu),
            },
            Dgfr2Msg::Rb(RbMsg::Ack { .. }) => HDR + 128,
        }
    }
}

impl ArbitraryMsg for Dgfr2Msg {
    fn arbitrary(rng: &mut dyn RngCore, n: usize, max_index: u64) -> Self {
        let a = RegArray::arbitrary(rng, n, max_index + 1);
        match rng.next_u32() % 3 {
            0 => Dgfr2Msg::Write { reg: a.into() },
            1 => Dgfr2Msg::Snapshot {
                task: (
                    (rng.next_u32() as usize) % n,
                    rng.next_u64() % (max_index + 1),
                ),
                reg: a.into(),
                ssn: rng.next_u64() % (max_index + 1),
            },
            _ => Dgfr2Msg::Rb(RbMsg::Flood {
                id: RbId {
                    origin: NodeId((rng.next_u32() as usize) % n),
                    seq: rng.next_u64() % (max_index + 1),
                },
                payload: RbPayload::Snap {
                    source: (rng.next_u32() as usize) % n,
                    sn: rng.next_u64() % (max_index + 1),
                },
            }),
        }
    }
}

#[derive(Clone, Debug)]
struct BaseSnap {
    task: SnapTask,
    prev: Payload,
    ssn: u64,
    acks: ProcessSet,
}

/// Delporte-Gallet et al.'s always-terminating snapshot object. See the
/// module docs above.
pub struct Dgfr2 {
    id: NodeId,
    n: usize,
    /// `ts`, `reg` and the in-flight write.
    w: WriteHalf<Original>,
    ssn: u64,
    sns: u64,
    /// The unbounded `repSnap[k, s]` table (line 35).
    rep_snap: HashMap<SnapTask, SnapshotView>,
    /// Delivered but unfinished tasks, ordered oldest-first.
    tasks: BTreeSet<(u64, usize)>,
    rb: ReliableBroadcast<RbPayload>,
    write_queue: VecDeque<(OpId, Value)>,
    snap_wait: Option<(OpId, u64)>,
    snap_queue: VecDeque<OpId>,
    base: Option<BaseSnap>,
    rounds: u64,
}

impl Dgfr2 {
    /// A fresh instance for node `id` in a system of `n` processes.
    pub fn new(id: NodeId, n: usize) -> Self {
        assert!(id.index() < n, "node id out of range");
        Dgfr2 {
            id,
            n,
            w: WriteHalf::new(id, n),
            ssn: 0,
            sns: 0,
            rep_snap: HashMap::new(),
            tasks: BTreeSet::new(),
            rb: ReliableBroadcast::new(id, n),
            write_queue: VecDeque::new(),
            snap_wait: None,
            snap_queue: VecDeque::new(),
            base: None,
            rounds: 0,
        }
    }

    /// The `repSnap` table (probes/tests).
    pub fn rep_snap(&self) -> &HashMap<SnapTask, SnapshotView> {
        &self.rep_snap
    }

    /// The node's register array (probes/tests).
    pub fn reg(&self) -> &RegArray {
        &self.w.reg
    }

    fn flush_rb(&mut self, out: Vec<(NodeId, RbMsg<RbPayload>)>, fx: &mut Effects<Dgfr2Msg>) {
        for (to, m) in out {
            fx.send(to, Dgfr2Msg::Rb(m));
        }
    }

    fn start_write(&mut self, op: OpId, v: Value, fx: &mut Effects<Dgfr2Msg>) {
        let reg = self.w.start_write(op, v);
        fx.broadcast(self.n, &Dgfr2Msg::Write { reg });
    }

    /// Lines 53–57: one outer iteration of `baseSnapshot`.
    fn outer_iteration(&mut self, task: SnapTask, fx: &mut Effects<Dgfr2Msg>) {
        self.ssn += 1;
        let prev = self.w.reg.payload();
        fx.broadcast(
            self.n,
            &Dgfr2Msg::Snapshot {
                task,
                reg: prev.clone(),
                ssn: self.ssn,
            },
        );
        self.base = Some(BaseSnap {
            task,
            prev,
            ssn: self.ssn,
            acks: ProcessSet::new(self.n),
        });
    }

    /// Picks the oldest unfinished task (lines 39–42) if idle.
    fn maybe_start_task(&mut self, fx: &mut Effects<Dgfr2Msg>) {
        if self.base.is_some() || self.w.in_flight().is_some() {
            return;
        }
        // Drop tasks whose results already arrived.
        while let Some(&(sn, source)) = self.tasks.iter().next() {
            if self.rep_snap.contains_key(&(source, sn)) {
                self.tasks.remove(&(sn, source));
            } else {
                break;
            }
        }
        if let Some(&(sn, source)) = self.tasks.iter().next() {
            self.outer_iteration((source, sn), fx);
        }
    }

    /// Delivery of an `END` (line 66) — and everything waiting on it.
    fn deliver_end(&mut self, task: SnapTask, view: SnapshotView, fx: &mut Effects<Dgfr2Msg>) {
        self.rep_snap.entry(task).or_insert(view);
        self.tasks.remove(&(task.1, task.0));
        if matches!(&self.base, Some(b) if b.task == task) {
            self.base = None;
        }
        if let Some((op, sns)) = self.snap_wait {
            if task == (self.id.index(), sns) {
                let view = self.rep_snap[&task].clone();
                self.snap_wait = None;
                fx.complete(op, OpResponse::Snapshot(view));
                if let Some(next) = self.snap_queue.pop_front() {
                    self.start_snapshot(next, fx);
                }
            }
        }
    }

    /// Lines 45–47: allocate `sns`, reliably broadcast `SNAP`, wait.
    fn start_snapshot(&mut self, op: OpId, fx: &mut Effects<Dgfr2Msg>) {
        self.sns += 1;
        self.snap_wait = Some((op, self.sns));
        let mut out = Vec::new();
        let (_, payload) = self.rb.broadcast(
            RbPayload::Snap {
                source: self.id.index(),
                sn: self.sns,
            },
            &mut out,
        );
        self.flush_rb(out, fx);
        // Local RB delivery (validity).
        self.on_rb_deliver(payload, fx);
    }

    fn on_rb_deliver(&mut self, payload: RbPayload, fx: &mut Effects<Dgfr2Msg>) {
        match payload {
            RbPayload::Snap { source, sn } => {
                if !self.rep_snap.contains_key(&(source, sn)) {
                    self.tasks.insert((sn, source));
                }
            }
            RbPayload::End { source, sn, view } => {
                self.deliver_end((source, sn), view, fx);
            }
        }
    }
}

impl Protocol for Dgfr2 {
    type Msg = Dgfr2Msg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn n(&self) -> usize {
        self.n
    }

    /// Lines 37–42 plus retransmission.
    fn on_round(&mut self, fx: &mut Effects<Dgfr2Msg>) {
        self.rounds += 1;
        let mut out = Vec::new();
        self.rb.on_round(&mut out);
        self.flush_rb(out, fx);
        if let Some(reg) = self.w.in_flight() {
            fx.broadcast(self.n, &Dgfr2Msg::Write { reg: reg.clone() });
        } else if self.base.is_none() {
            if let Some((op, v)) = self.write_queue.pop_front() {
                self.start_write(op, v, fx);
            }
        }
        if self.w.in_flight().is_none() {
            if let Some(b) = &self.base {
                let (task, ssn) = (b.task, b.ssn);
                let msg = Dgfr2Msg::Snapshot {
                    task,
                    reg: self.w.reg.payload(),
                    ssn,
                };
                fx.broadcast(self.n, &msg);
            } else {
                self.maybe_start_task(fx);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Dgfr2Msg, fx: &mut Effects<Dgfr2Msg>) {
        match msg {
            Dgfr2Msg::Write { reg } => {
                let reg = self.w.serve_write(&reg);
                fx.send(from, Dgfr2Msg::WriteAck { reg });
            }
            Dgfr2Msg::WriteAck { reg } => {
                if let Some(op) = self.w.on_write_ack(from, &reg) {
                    fx.complete(op, OpResponse::WriteDone);
                    self.maybe_start_task(fx);
                }
            }
            Dgfr2Msg::Snapshot { task, reg, ssn } => {
                self.w.reg.merge_from(&reg);
                let reg = self.w.reg.payload();
                fx.send(from, Dgfr2Msg::SnapshotAck { task, reg, ssn });
            }
            Dgfr2Msg::SnapshotAck { task, reg, ssn } => {
                let accepted = match &mut self.base {
                    Some(b) if b.task == task && b.ssn == ssn => b.acks.insert(from),
                    _ => false,
                };
                if accepted {
                    self.w.merge(&reg);
                    let state = match &self.base {
                        Some(b) if b.acks.is_majority() => Some((b.task, b.prev.clone())),
                        _ => None,
                    };
                    if let Some((task, prev)) = state {
                        if *prev == *self.w.reg {
                            // Line 59: reliably broadcast END.
                            let view: SnapshotView = (&*self.w.reg).into();
                            let mut out = Vec::new();
                            let (_, payload) = self.rb.broadcast(
                                RbPayload::End {
                                    source: task.0,
                                    sn: task.1,
                                    view,
                                },
                                &mut out,
                            );
                            self.flush_rb(out, fx);
                            self.on_rb_deliver(payload, fx);
                        } else {
                            self.outer_iteration(task, fx);
                        }
                    }
                }
            }
            Dgfr2Msg::Rb(rb_msg) => match rb_msg {
                RbMsg::Flood { id, payload } => {
                    let mut out = Vec::new();
                    let delivered = self.rb.on_flood(from, id, payload, &mut out);
                    self.flush_rb(out, fx);
                    if let Some(p) = delivered {
                        self.on_rb_deliver(p, fx);
                    }
                }
                RbMsg::Ack { id } => self.rb.on_ack(from, id),
            },
        }
    }

    fn invoke(&mut self, id: OpId, op: SnapshotOp, fx: &mut Effects<Dgfr2Msg>) {
        match op {
            SnapshotOp::Write(v) => {
                // The queue-empty check is essential: a new write must
                // never overtake one deferred earlier (a node's writes
                // are sequential).
                if self.w.in_flight().is_none()
                    && self.base.is_none()
                    && self.write_queue.is_empty()
                    && self.tasks.is_empty()
                {
                    self.start_write(id, v, fx);
                } else {
                    self.write_queue.push_back((id, v));
                }
            }
            SnapshotOp::Snapshot => {
                if self.snap_wait.is_none() {
                    self.start_snapshot(id, fx);
                } else {
                    self.snap_queue.push_back(id);
                }
            }
        }
    }

    fn is_busy(&self) -> bool {
        self.w.in_flight().is_some()
            || !self.write_queue.is_empty()
            || self.snap_wait.is_some()
            || !self.snap_queue.is_empty()
    }

    fn corrupt(&mut self, rng: &mut dyn RngCore) {
        self.w.corrupt(rng, &mut [&mut self.ssn, &mut self.sns]);
        self.base = None;
    }

    fn restart(&mut self) {
        let (id, n) = (self.id, self.n);
        *self = Dgfr2::new(id, n);
    }

    fn local_invariants_hold(&self) -> bool {
        self.w.invariant_holds()
    }

    fn stats(&self) -> ProtocolStats {
        ProtocolStats {
            rounds: self.rounds,
            write_index: self.w.ts,
            stale_epoch_dropped: 0,
            snapshot_index: self.sns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_is_reliably_broadcast_and_queued() {
        let mut a = Dgfr2::new(NodeId(0), 3);
        let mut e = Effects::new();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        assert!(a.tasks.contains(&(1, 0)), "own task queued locally");
        let sends = e.take_sends();
        let floods = sends
            .iter()
            .filter(|(_, m)| matches!(m, Dgfr2Msg::Rb(RbMsg::Flood { .. })))
            .count();
        assert_eq!(floods, 2, "SNAP flooded to the other two nodes");
    }

    #[test]
    fn receiver_queues_foreign_task_and_helps() {
        let mut a = Dgfr2::new(NodeId(1), 3);
        let mut e = Effects::new();
        a.on_message(
            NodeId(0),
            Dgfr2Msg::Rb(RbMsg::Flood {
                id: RbId {
                    origin: NodeId(0),
                    seq: 1,
                },
                payload: RbPayload::Snap { source: 0, sn: 1 },
            }),
            &mut e,
        );
        assert!(a.tasks.contains(&(1, 0)));
        // On its round, the helper starts baseSnapshot for p0's task.
        a.on_round(&mut e);
        let sends = e.take_sends();
        assert!(sends
            .iter()
            .any(|(_, m)| matches!(m, Dgfr2Msg::Snapshot { task: (0, 1), .. })));
    }

    #[test]
    fn clean_double_read_broadcasts_end_and_completes() {
        let mut a = Dgfr2::new(NodeId(0), 3);
        let mut e = Effects::new();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        a.on_round(&mut e); // starts baseSnapshot(0, 1) with ssn=1
        e.take_sends();
        let reg: Payload = a.reg().clone().into();
        a.on_message(
            NodeId(1),
            Dgfr2Msg::SnapshotAck {
                task: (0, 1),
                reg: reg.clone(),
                ssn: 1,
            },
            &mut e,
        );
        a.on_message(
            NodeId(2),
            Dgfr2Msg::SnapshotAck {
                task: (0, 1),
                reg,
                ssn: 1,
            },
            &mut e,
        );
        // END delivered locally: the waiting client op completes.
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        assert!(matches!(done[0].1, OpResponse::Snapshot(_)));
        assert!(a.rep_snap().contains_key(&(0, 1)));
    }

    #[test]
    fn end_from_helper_completes_initiator() {
        let mut a = Dgfr2::new(NodeId(0), 3);
        let mut e = Effects::new();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        let view: SnapshotView = (&RegArray::bottom(3)).into();
        a.on_message(
            NodeId(2),
            Dgfr2Msg::Rb(RbMsg::Flood {
                id: RbId {
                    origin: NodeId(2),
                    seq: 1,
                },
                payload: RbPayload::End {
                    source: 0,
                    sn: 1,
                    view,
                },
            }),
            &mut e,
        );
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, OpId(1));
    }

    #[test]
    fn writes_defer_while_tasks_outstanding() {
        let mut a = Dgfr2::new(NodeId(1), 3);
        let mut e = Effects::new();
        a.on_message(
            NodeId(0),
            Dgfr2Msg::Rb(RbMsg::Flood {
                id: RbId {
                    origin: NodeId(0),
                    seq: 1,
                },
                payload: RbPayload::Snap { source: 0, sn: 1 },
            }),
            &mut e,
        );
        a.invoke(OpId(2), SnapshotOp::Write(5), &mut e);
        assert!(a.w.in_flight().is_none(), "write deferred behind the task");
        assert_eq!(a.write_queue.len(), 1);
    }
}
