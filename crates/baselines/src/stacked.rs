//! The "stacking" baseline: an ABD-style emulation of SWMR registers over
//! message passing with a double-collect snapshot layered on top.
//!
//! The paper's related-work section credits Delporte-Gallet et al. with
//! the observation that stacking the shared-memory snapshot of Afek et al.
//! on the register emulation of Attiya, Bar-Noy and Dolev costs about
//! **8n messages and 4 round trips per snapshot**, against 2n messages and
//! one round trip for the integrated (non-stacking) approach. This module
//! implements that stacked design so experiment E11 can measure the gap:
//!
//! * `write(v)` — one ABD write phase: broadcast the new cell, wait for a
//!   majority (2n messages, 1 round trip);
//! * `collect` — an atomic read of the whole register array: a query
//!   phase (2n messages) followed by a write-back phase (2n messages) that
//!   makes the read value visible to every later reader (2 round trips);
//! * `snapshot()` — repeated **double collect**: two successive collects
//!   returning the same array yield an atomic snapshot — 8n messages and
//!   4 round trips in the contention-free case, retrying under concurrent
//!   writes (the same non-blocking guarantee as `Dgfr1`).

use rand::RngCore;
use sss_types::{
    cell_bits, reg_array_bits, ArbitraryMsg, Effects, MsgKind, NodeId, OpId, OpResponse, Payload,
    ProcessSet, ProtoMsg, Protocol, ProtocolStats, RegArray, SharedReg, SnapshotOp, Tagged, Value,
};
use std::collections::VecDeque;

/// Wire messages of [`Stacked`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackedMsg {
    /// ABD write phase: install the writer's new cell.
    Store {
        /// The cell being written.
        cell: Tagged,
    },
    /// Acknowledgement of a `Store`, echoing the written timestamp.
    StoreAck {
        /// Echo of the written timestamp.
        ts: u64,
    },
    /// Collect phase 1: query the full register array.
    Query {
        /// The collect's query id.
        qid: u64,
    },
    /// Reply to `Query`.
    QueryAck {
        /// The server's register array.
        reg: Payload,
        /// Echo of the query id.
        qid: u64,
    },
    /// Collect phase 2: write back the merged array (read must write).
    WriteBack {
        /// The merged array being written back.
        reg: Payload,
        /// The collect's query id.
        qid: u64,
    },
    /// Acknowledgement of a `WriteBack`.
    WriteBackAck {
        /// Echo of the query id.
        qid: u64,
    },
}

impl ProtoMsg for StackedMsg {
    fn kind(&self) -> MsgKind {
        match self {
            StackedMsg::Store { .. } => MsgKind::Write,
            StackedMsg::StoreAck { .. } => MsgKind::WriteAck,
            StackedMsg::Query { .. } => MsgKind::Query,
            StackedMsg::QueryAck { .. } => MsgKind::QueryAck,
            StackedMsg::WriteBack { .. } => MsgKind::WriteBack,
            StackedMsg::WriteBackAck { .. } => MsgKind::WriteBackAck,
        }
    }

    fn size_bits(&self, nu: u32) -> u64 {
        const HDR: u64 = 64;
        match self {
            StackedMsg::Store { .. } => HDR + cell_bits(nu),
            StackedMsg::StoreAck { .. } | StackedMsg::WriteBackAck { .. } => HDR + 64,
            StackedMsg::Query { .. } => HDR + 64,
            StackedMsg::QueryAck { reg, .. } | StackedMsg::WriteBack { reg, .. } => {
                HDR + 64 + reg_array_bits(reg.n(), nu)
            }
        }
    }
}

impl ArbitraryMsg for StackedMsg {
    fn arbitrary(rng: &mut dyn RngCore, n: usize, max_index: u64) -> Self {
        let a = RegArray::arbitrary(rng, n, max_index + 1);
        match rng.next_u32() % 4 {
            0 => StackedMsg::Store {
                cell: Tagged {
                    ts: rng.next_u64() % (max_index + 1),
                    val: rng.next_u64(),
                },
            },
            1 => StackedMsg::Query {
                qid: rng.next_u64() % (max_index + 1),
            },
            2 => StackedMsg::QueryAck {
                reg: a.into(),
                qid: rng.next_u64() % (max_index + 1),
            },
            _ => StackedMsg::WriteBack {
                reg: a.into(),
                qid: rng.next_u64() % (max_index + 1),
            },
        }
    }
}

/// The phase of one collect (atomic read-all).
#[derive(Clone, Debug)]
enum CollectPhase {
    /// Querying a majority.
    Query { acc: RegArray, acks: ProcessSet },
    /// Writing the merged array back to a majority.
    WriteBack { acc: Payload, acks: ProcessSet },
}

#[derive(Clone, Debug)]
struct Collect {
    qid: u64,
    phase: CollectPhase,
}

#[derive(Clone, Debug)]
enum Active {
    Write {
        op: OpId,
        ts: u64,
        cell: Tagged,
        acks: ProcessSet,
    },
    Snap {
        op: OpId,
        /// The previous collect's result; `None` before the first collect.
        first: Option<Payload>,
        collect: Collect,
    },
}

/// The stacked ABD + double-collect snapshot object. See the
/// module docs above.
#[derive(Clone, Debug)]
pub struct Stacked {
    id: NodeId,
    n: usize,
    ts: u64,
    next_qid: u64,
    reg: SharedReg,
    active: Option<Active>,
    pending: VecDeque<(OpId, SnapshotOp)>,
    rounds: u64,
}

impl Stacked {
    /// A fresh instance for node `id` in a system of `n` processes.
    pub fn new(id: NodeId, n: usize) -> Self {
        assert!(id.index() < n, "node id out of range");
        Stacked {
            id,
            n,
            ts: 0,
            next_qid: 0,
            reg: SharedReg::bottom(n),
            active: None,
            pending: VecDeque::new(),
            rounds: 0,
        }
    }

    /// The node's register array (probes/tests).
    pub fn reg(&self) -> &RegArray {
        &self.reg
    }

    fn start_op(&mut self, op: OpId, req: SnapshotOp, fx: &mut Effects<StackedMsg>) {
        match req {
            SnapshotOp::Write(v) => self.start_write(op, v, fx),
            SnapshotOp::Snapshot => {
                let collect = self.start_collect(fx);
                self.active = Some(Active::Snap {
                    op,
                    first: None,
                    collect,
                });
            }
        }
    }

    fn start_write(&mut self, op: OpId, v: Value, fx: &mut Effects<StackedMsg>) {
        self.ts += 1;
        let cell = Tagged::new(v, self.ts);
        self.reg.set(self.id, cell);
        fx.broadcast(self.n, &StackedMsg::Store { cell });
        self.active = Some(Active::Write {
            op,
            ts: self.ts,
            cell,
            acks: ProcessSet::new(self.n),
        });
    }

    fn start_collect(&mut self, fx: &mut Effects<StackedMsg>) -> Collect {
        self.next_qid += 1;
        fx.broadcast(self.n, &StackedMsg::Query { qid: self.next_qid });
        Collect {
            qid: self.next_qid,
            phase: CollectPhase::Query {
                acc: self.reg.to_reg(),
                acks: ProcessSet::new(self.n),
            },
        }
    }

    fn finish(&mut self, resp: OpResponse, fx: &mut Effects<StackedMsg>) {
        let op = match self.active.take() {
            Some(Active::Write { op, .. }) | Some(Active::Snap { op, .. }) => op,
            None => unreachable!("finish without active op"),
        };
        fx.complete(op, resp);
        if let Some((id, next)) = self.pending.pop_front() {
            self.start_op(id, next, fx);
        }
    }

    /// Advances the snapshot after its current collect produced `result`.
    fn collect_done(&mut self, result: Payload, fx: &mut Effects<StackedMsg>) {
        let first = match &mut self.active {
            Some(Active::Snap { first, .. }) => first.take(),
            _ => unreachable!("collect without snapshot"),
        };
        match first {
            Some(prev) if prev == result => {
                self.finish(OpResponse::Snapshot((&*result).into()), fx);
            }
            _ => {
                // First collect, or a dirty double collect: go again with
                // the latest result as the comparison point.
                let collect = self.start_collect(fx);
                if let Some(Active::Snap {
                    first: f,
                    collect: c,
                    ..
                }) = &mut self.active
                {
                    *f = Some(result);
                    *c = collect;
                }
            }
        }
    }
}

impl Protocol for Stacked {
    type Msg = StackedMsg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn n(&self) -> usize {
        self.n
    }

    fn on_round(&mut self, fx: &mut Effects<StackedMsg>) {
        self.rounds += 1;
        match &self.active {
            Some(Active::Write { cell, .. }) => {
                let msg = StackedMsg::Store { cell: *cell };
                fx.broadcast(self.n, &msg);
            }
            Some(Active::Snap { collect, .. }) => {
                let msg = match &collect.phase {
                    CollectPhase::Query { .. } => StackedMsg::Query { qid: collect.qid },
                    CollectPhase::WriteBack { acc, .. } => StackedMsg::WriteBack {
                        reg: acc.clone(),
                        qid: collect.qid,
                    },
                };
                fx.broadcast(self.n, &msg);
            }
            None => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: StackedMsg, fx: &mut Effects<StackedMsg>) {
        match msg {
            StackedMsg::Store { cell } => {
                self.reg.join_cell(from, cell);
                fx.send(from, StackedMsg::StoreAck { ts: cell.ts });
            }
            StackedMsg::StoreAck { ts } => {
                let done = match &mut self.active {
                    Some(Active::Write { ts: want, acks, .. }) if *want == ts => {
                        acks.insert(from);
                        acks.is_majority()
                    }
                    _ => false,
                };
                if done {
                    self.finish(OpResponse::WriteDone, fx);
                }
            }
            StackedMsg::Query { qid } => {
                let reg = self.reg.payload();
                fx.send(from, StackedMsg::QueryAck { reg, qid });
            }
            StackedMsg::QueryAck { reg, qid } => {
                let ready = match &mut self.active {
                    Some(Active::Snap { collect, .. }) if collect.qid == qid => {
                        match &mut collect.phase {
                            CollectPhase::Query { acc, acks } => {
                                acc.merge_from(&reg);
                                acks.insert(from);
                                if acks.is_majority() {
                                    Some(acc.clone())
                                } else {
                                    None
                                }
                            }
                            CollectPhase::WriteBack { .. } => None,
                        }
                    }
                    _ => None,
                };
                if let Some(acc) = ready {
                    // Phase 2: write the read value back before returning it.
                    self.reg.merge_from(&acc);
                    let acc: Payload = acc.into();
                    if let Some(Active::Snap { collect, .. }) = &mut self.active {
                        collect.phase = CollectPhase::WriteBack {
                            acc: acc.clone(),
                            acks: ProcessSet::new(self.n),
                        };
                    }
                    fx.broadcast(self.n, &StackedMsg::WriteBack { reg: acc, qid });
                }
            }
            StackedMsg::WriteBack { reg, qid } => {
                self.reg.merge_from(&reg);
                fx.send(from, StackedMsg::WriteBackAck { qid });
            }
            StackedMsg::WriteBackAck { qid } => {
                let done = match &mut self.active {
                    Some(Active::Snap { collect, .. }) if collect.qid == qid => {
                        match &mut collect.phase {
                            CollectPhase::WriteBack { acc, acks } => {
                                acks.insert(from);
                                if acks.is_majority() {
                                    Some(acc.clone())
                                } else {
                                    None
                                }
                            }
                            CollectPhase::Query { .. } => None,
                        }
                    }
                    _ => None,
                };
                if let Some(result) = done {
                    self.collect_done(result, fx);
                }
            }
        }
    }

    fn invoke(&mut self, id: OpId, op: SnapshotOp, fx: &mut Effects<StackedMsg>) {
        if self.active.is_some() {
            self.pending.push_back((id, op));
        } else {
            self.start_op(id, op, fx);
        }
    }

    fn is_busy(&self) -> bool {
        self.active.is_some() || !self.pending.is_empty()
    }

    fn corrupt(&mut self, rng: &mut dyn RngCore) {
        const M: u64 = 1 << 20;
        self.ts = rng.next_u64() % M;
        self.next_qid = rng.next_u64() % M;
        self.reg = RegArray::arbitrary(rng, self.n, M).into();
    }

    fn restart(&mut self) {
        let (id, n) = (self.id, self.n);
        *self = Stacked::new(id, n);
    }

    fn local_invariants_hold(&self) -> bool {
        self.ts >= self.reg.get(self.id).ts
    }

    fn stats(&self) -> ProtocolStats {
        ProtocolStats {
            rounds: self.rounds,
            write_index: self.ts,
            stale_epoch_dropped: 0,
            snapshot_index: self.next_qid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_is_one_phase() {
        let mut a = Stacked::new(NodeId(0), 3);
        let mut e = Effects::new();
        a.invoke(OpId(1), SnapshotOp::Write(9), &mut e);
        assert_eq!(e.take_sends().len(), 3, "2n-ish: one broadcast");
        a.on_message(NodeId(1), StackedMsg::StoreAck { ts: 1 }, &mut e);
        a.on_message(NodeId(2), StackedMsg::StoreAck { ts: 1 }, &mut e);
        assert_eq!(e.take_completions().len(), 1);
    }

    #[test]
    fn stale_store_acks_ignored() {
        let mut a = Stacked::new(NodeId(0), 3);
        let mut e = Effects::new();
        a.invoke(OpId(1), SnapshotOp::Write(9), &mut e);
        a.on_message(NodeId(1), StackedMsg::StoreAck { ts: 99 }, &mut e);
        a.on_message(NodeId(2), StackedMsg::StoreAck { ts: 99 }, &mut e);
        assert!(e.take_completions().is_empty());
    }

    #[test]
    fn snapshot_is_double_collect_four_phases() {
        let mut a = Stacked::new(NodeId(0), 3);
        let mut e = Effects::new();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        let reg: Payload = a.reg().clone().into();
        // Collect 1, phase 1.
        a.on_message(
            NodeId(1),
            StackedMsg::QueryAck {
                reg: reg.clone(),
                qid: 1,
            },
            &mut e,
        );
        a.on_message(
            NodeId(2),
            StackedMsg::QueryAck {
                reg: reg.clone(),
                qid: 1,
            },
            &mut e,
        );
        // Collect 1, phase 2.
        a.on_message(NodeId(1), StackedMsg::WriteBackAck { qid: 1 }, &mut e);
        a.on_message(NodeId(2), StackedMsg::WriteBackAck { qid: 1 }, &mut e);
        assert!(e.take_completions().is_empty(), "one collect is not enough");
        // Collect 2, phases 1 and 2.
        a.on_message(
            NodeId(1),
            StackedMsg::QueryAck {
                reg: reg.clone(),
                qid: 2,
            },
            &mut e,
        );
        a.on_message(
            NodeId(2),
            StackedMsg::QueryAck {
                reg: reg.clone(),
                qid: 2,
            },
            &mut e,
        );
        a.on_message(NodeId(1), StackedMsg::WriteBackAck { qid: 2 }, &mut e);
        a.on_message(NodeId(2), StackedMsg::WriteBackAck { qid: 2 }, &mut e);
        let done = e.take_completions();
        assert_eq!(done.len(), 1, "clean double collect returns");
    }

    #[test]
    fn dirty_double_collect_retries() {
        let mut a = Stacked::new(NodeId(0), 3);
        let mut e = Effects::new();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        let clean: Payload = a.reg().clone().into();
        let mut moved = a.reg().clone();
        moved.set(NodeId(1), Tagged::new(4, 1));
        let moved: Payload = moved.into();
        // Collect 1 returns the clean array.
        a.on_message(
            NodeId(1),
            StackedMsg::QueryAck {
                reg: clean.clone(),
                qid: 1,
            },
            &mut e,
        );
        a.on_message(
            NodeId(2),
            StackedMsg::QueryAck { reg: clean, qid: 1 },
            &mut e,
        );
        a.on_message(NodeId(1), StackedMsg::WriteBackAck { qid: 1 }, &mut e);
        a.on_message(NodeId(2), StackedMsg::WriteBackAck { qid: 1 }, &mut e);
        // Collect 2 sees a concurrent write: must retry.
        a.on_message(
            NodeId(1),
            StackedMsg::QueryAck {
                reg: moved.clone(),
                qid: 2,
            },
            &mut e,
        );
        a.on_message(
            NodeId(2),
            StackedMsg::QueryAck {
                reg: moved.clone(),
                qid: 2,
            },
            &mut e,
        );
        a.on_message(NodeId(1), StackedMsg::WriteBackAck { qid: 2 }, &mut e);
        a.on_message(NodeId(2), StackedMsg::WriteBackAck { qid: 2 }, &mut e);
        assert!(e.take_completions().is_empty());
        // Collect 3 matches collect 2: done.
        a.on_message(
            NodeId(1),
            StackedMsg::QueryAck {
                reg: moved.clone(),
                qid: 3,
            },
            &mut e,
        );
        a.on_message(
            NodeId(2),
            StackedMsg::QueryAck { reg: moved, qid: 3 },
            &mut e,
        );
        a.on_message(NodeId(1), StackedMsg::WriteBackAck { qid: 3 }, &mut e);
        a.on_message(NodeId(2), StackedMsg::WriteBackAck { qid: 3 }, &mut e);
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        match &done[0].1 {
            OpResponse::Snapshot(v) => assert_eq!(v.value_of(NodeId(1)), Some(4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn server_side_handlers() {
        let mut a = Stacked::new(NodeId(1), 3);
        let mut e = Effects::new();
        a.on_message(
            NodeId(0),
            StackedMsg::Store {
                cell: Tagged::new(5, 2),
            },
            &mut e,
        );
        assert_eq!(a.reg().get(NodeId(0)), Tagged::new(5, 2));
        a.on_message(NodeId(0), StackedMsg::Query { qid: 7 }, &mut e);
        let sends = e.take_sends();
        assert!(matches!(sends[0].1, StackedMsg::StoreAck { ts: 2 }));
        assert!(matches!(&sends[1].1, StackedMsg::QueryAck { qid: 7, .. }));
    }
}
