//! Algorithm 1: the self-stabilizing **non-blocking** snapshot object.
//!
//! This is the paper's Algorithm 1 — Delporte-Gallet et al.'s non-blocking
//! algorithm plus the boxed self-stabilization additions:
//!
//! * every `do forever` iteration discards snapshot acknowledgements whose
//!   `ssn` does not match the current query (line 9, realised by the
//!   [`AckTracker`] tag check),
//! * enforces `ts ≥ reg[i].ts` (line 10),
//! * and gossips `reg[k]` to each `p_k` (line 11), whose handler merges
//!   into the receiver's *own* entry and timestamp (line 25) — this is what
//!   lets a node whose `ts` was corrupted *downwards* catch up with what
//!   the rest of the system believes it has written, restoring Theorem 1's
//!   invariants within `O(1)` asynchronous cycles;
//! * the `merge` macro additionally folds arriving `reg[i].ts` values into
//!   `ts` (line 6).
//!
//! Lines 6, 10, 11 and 24–25 are the type parameter [`Boxes`]: `Alg1`
//! (that is, `Alg1<SelfStabilizing>`) runs them, while `Alg1<Original>`
//! does not and *is* Delporte-Gallet et al.'s algorithm — the
//! `sss_baselines::Dgfr1` baseline. Line 9 needs no switch: the original
//! algorithm's snapshot acks are matched to their query the same way.
//!
//! Client-side loops become phase state machines: the `repeat broadcast …
//! until majority` of the pseudo-code is realised by broadcasting at
//! `invoke` time and re-broadcasting on every `do forever` iteration until
//! the majority condition holds, which is exactly how the paper's loops
//! survive fair packet loss.

use rand::RngCore;
use sss_quorum::AckTracker;
use sss_types::{
    cell_bits, reg_array_bits, ArbitraryMsg, Effects, MsgKind, NodeId, OpId, OpResponse, Payload,
    ProcessSet, ProtoMsg, Protocol, ProtocolStats, RegArray, SharedReg, SnapshotOp, Tagged, Value,
};
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// Which of the paper's boxed lines an [`Alg1`] runs: a zero-sized
/// marker, monomorphised away, so the choice costs no runtime flag and no
/// config field.
pub trait Boxes: Clone + fmt::Debug + Send + 'static {
    /// Whether the boxed self-stabilization lines run. They sit in three
    /// places:
    ///
    /// * `do forever` enforces `ts ≥ reg[i].ts` (line 10) and gossips
    ///   `reg[k]` to each `p_k` (line 11);
    /// * the `merge` macro folds arriving `reg[i].ts` values into `ts`
    ///   (line 6);
    /// * the `GOSSIP` handler (lines 24–25) runs. Without it a `Gossip`
    ///   that arrives — only channel garbage can deliver one — is ignored.
    const BOXED: bool;

    /// Line 14's covering check: the acker's register array must contain
    /// the in-flight write before the ack may count toward the majority.
    /// This is what rejects *stale* acks — a delayed `WRITEack` from the
    /// previous operation whose payload predates the current write.
    fn covered(lreg: &Payload, ack: &Payload) -> bool {
        lreg.le(ack)
    }
}

/// The paper's Algorithm 1: every boxed line runs.
#[derive(Clone, Copy, Debug)]
pub struct SelfStabilizing;

impl Boxes for SelfStabilizing {
    const BOXED: bool = true;
}

/// Delporte-Gallet et al.'s original non-blocking algorithm: no boxed
/// line runs, so a transient fault that rewinds `ts` makes the node reuse
/// write timestamps forever — new writes are silently swallowed by the
/// `max_⪯` merges.
#[derive(Clone, Copy, Debug)]
pub struct Original;

impl Boxes for Original {
    const BOXED: bool = false;
}

/// Wire messages of [`Alg1`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Alg1Msg {
    /// Client-side `WRITE(lReg)` broadcast (line 14).
    Write {
        /// The writer's register array at invocation (shared, not copied,
        /// across the broadcast fan-out).
        reg: Payload,
    },
    /// Server-side `WRITEack(reg)` reply (line 28).
    WriteAck {
        /// The server's merged register array.
        reg: Payload,
    },
    /// Client-side `SNAPSHOT(reg, ssn)` broadcast (line 20).
    Snapshot {
        /// The querier's current register array.
        reg: Payload,
        /// The snapshot query index.
        ssn: u64,
    },
    /// Server-side `SNAPSHOTack(reg, ssn)` reply (line 31).
    SnapshotAck {
        /// The server's merged register array.
        reg: Payload,
        /// Echo of the query index.
        ssn: u64,
    },
    /// Self-stabilizing `GOSSIP(reg[k])` (line 11): `p_i` tells `p_k` what
    /// `p_i` believes `p_k`'s register holds.
    Gossip {
        /// The sender's copy of the *receiver's* register cell.
        cell: Tagged,
    },
}

impl ProtoMsg for Alg1Msg {
    fn kind(&self) -> MsgKind {
        match self {
            Alg1Msg::Write { .. } => MsgKind::Write,
            Alg1Msg::WriteAck { .. } => MsgKind::WriteAck,
            Alg1Msg::Snapshot { .. } => MsgKind::Snapshot,
            Alg1Msg::SnapshotAck { .. } => MsgKind::SnapshotAck,
            Alg1Msg::Gossip { .. } => MsgKind::Gossip,
        }
    }

    fn size_bits(&self, nu: u32) -> u64 {
        const HDR: u64 = 64;
        match self {
            Alg1Msg::Write { reg } | Alg1Msg::WriteAck { reg } => HDR + reg_array_bits(reg.n(), nu),
            Alg1Msg::Snapshot { reg, .. } | Alg1Msg::SnapshotAck { reg, .. } => {
                HDR + 64 + reg_array_bits(reg.n(), nu)
            }
            Alg1Msg::Gossip { .. } => HDR + cell_bits(nu),
        }
    }

    /// A Byzantine sender equivocates through gossip: it keeps the index
    /// honest but tells each peer a different value, so honest receivers
    /// adopt conflicting register cells for the liar's entry.
    fn equivocate(&self, rng: &mut dyn RngCore) -> Option<Self> {
        match self {
            Alg1Msg::Gossip { cell } if !cell.is_bottom() => Some(Alg1Msg::Gossip {
                cell: Tagged::new(rng.next_u64() as Value, cell.ts),
            }),
            _ => None,
        }
    }

    /// A Byzantine sender inflates the gossip index to `floor`, driving
    /// honest receivers' timestamps toward `MAXINT` on demand.
    fn inflate_index(&self, floor: u64) -> Option<Self> {
        match self {
            Alg1Msg::Gossip { cell } => Some(Alg1Msg::Gossip {
                cell: Tagged::new(cell.val, cell.ts.max(floor)),
            }),
            _ => None,
        }
    }
}

impl ArbitraryMsg for Alg1Msg {
    fn arbitrary(rng: &mut dyn RngCore, n: usize, max_index: u64) -> Self {
        let cell = |rng: &mut dyn RngCore| Tagged {
            ts: rng.next_u64() % (max_index + 1),
            val: rng.next_u64(),
        };
        let arr = |rng: &mut dyn RngCore| -> RegArray {
            let mut a = RegArray::bottom(n);
            for k in 0..n {
                a.set(
                    NodeId(k),
                    Tagged {
                        ts: rng.next_u64() % (max_index + 1),
                        val: rng.next_u64(),
                    },
                );
            }
            a
        };
        match rng.next_u32() % 5 {
            0 => Alg1Msg::Write {
                reg: arr(rng).into(),
            },
            1 => Alg1Msg::WriteAck {
                reg: arr(rng).into(),
            },
            2 => Alg1Msg::Snapshot {
                reg: arr(rng).into(),
                ssn: rng.next_u64() % (max_index + 1),
            },
            3 => Alg1Msg::SnapshotAck {
                reg: arr(rng).into(),
                ssn: rng.next_u64() % (max_index + 1),
            },
            _ => Alg1Msg::Gossip { cell: cell(rng) },
        }
    }
}

/// In-progress `write(v)` client state (lines 12–16).
#[derive(Clone, Debug)]
struct WriteOp {
    op: OpId,
    /// Shared with every retransmitted `WRITE` — rebroadcasts are free.
    lreg: Payload,
    acks: ProcessSet,
}

/// In-progress `snapshot()` client state (lines 17–23).
#[derive(Clone, Debug)]
struct SnapOp {
    op: OpId,
    prev: Payload,
    acks: AckTracker,
}

/// One active client operation (a node is a sequential client, so at most
/// one at a time; further invocations queue).
#[derive(Clone, Debug)]
enum Active {
    Write(WriteOp),
    Snap(SnapOp),
}

/// The non-blocking snapshot object of the paper's Algorithm 1, with the
/// boxed lines `B` selects (self-stabilizing by default). See the module
/// docs above for the mapping to pseudo-code.
#[derive(Clone, Debug)]
pub struct Alg1<B: Boxes = SelfStabilizing> {
    id: NodeId,
    n: usize,
    /// Write-operation index (line 3).
    ts: u64,
    /// Snapshot-operation index (line 3).
    ssn: u64,
    /// Local copy of all shared registers (line 4), with a cached
    /// outgoing payload so acks between mutations share one allocation.
    reg: SharedReg,
    active: Option<Active>,
    pending: VecDeque<(OpId, SnapshotOp)>,
    /// Gossip every `gossip_every`-th `do forever` iteration (1 = every
    /// iteration, the paper's algorithm; 0 = never — ablation only, which
    /// forfeits transient-fault recovery). The other boxed lines still
    /// run; `Alg1<Original>` runs none of them.
    gossip_every: u64,
    rounds: u64,
    boxes: PhantomData<B>,
}

impl Alg1 {
    /// A fresh self-stabilizing instance for node `id` in a system of `n`
    /// processes.
    pub fn new(id: NodeId, n: usize) -> Self {
        Alg1::init(id, n)
    }

    /// Like [`Alg1::new`] but gossiping only every `k`-th iteration
    /// (`k = 0` disables gossip entirely). For the gossip-cadence
    /// ablation: slower gossip means proportionally slower recovery from
    /// transient faults at proportionally lower background traffic.
    pub fn with_gossip_every(id: NodeId, n: usize, k: u64) -> Self {
        let mut a = Alg1::new(id, n);
        a.gossip_every = k;
        a
    }
}

impl<B: Boxes> Alg1<B> {
    /// A fresh instance for node `id` in a system of `n` processes, every
    /// variable at its initial value. (The self-stabilizing variant's
    /// constructor is [`Alg1::new`]; it is kept off this generic impl so
    /// `Alg1::new(…)` needs no type annotation.)
    pub fn init(id: NodeId, n: usize) -> Self {
        assert!(id.index() < n, "node id out of range");
        Alg1 {
            id,
            n,
            ts: 0,
            ssn: 0,
            reg: SharedReg::bottom(n),
            active: None,
            pending: VecDeque::new(),
            gossip_every: 1,
            rounds: 0,
            boxes: PhantomData,
        }
    }

    /// The node's current register array (for tests and probes).
    pub fn reg(&self) -> &RegArray {
        &self.reg
    }

    /// Current write index `ts`.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Current snapshot query index `ssn`.
    pub fn ssn(&self) -> u64 {
        self.ssn
    }

    /// The `merge(Rec)` macro (lines 5–7) for one received array.
    fn merge(&mut self, from: NodeId, rec: &Payload) {
        if B::BOXED {
            // Line 6: ts may never lag what anyone reports of reg[i].
            self.ts = self
                .ts
                .max(self.reg.get(self.id).ts)
                .max(rec.get(self.id).ts);
        }
        self.reg.merge_from_payload(from, rec);
    }

    fn start_op(&mut self, op_id: OpId, op: SnapshotOp, fx: &mut Effects<Alg1Msg>) {
        match op {
            SnapshotOp::Write(v) => self.start_write(op_id, v, fx),
            SnapshotOp::Snapshot => self.start_snapshot_iteration(op_id, fx),
        }
    }

    /// Lines 12–14: allocate the next timestamp, install the value locally,
    /// broadcast `WRITE(lReg)`.
    fn start_write(&mut self, op_id: OpId, v: Value, fx: &mut Effects<Alg1Msg>) {
        self.ts += 1;
        self.reg.set(self.id, Tagged::new(v, self.ts));
        let lreg = self.reg.payload();
        fx.broadcast(self.n, &Alg1Msg::Write { reg: lreg.clone() });
        self.active = Some(Active::Write(WriteOp {
            op: op_id,
            lreg,
            acks: ProcessSet::new(self.n),
        }));
    }

    /// Lines 19–20: one iteration of the outer repeat-until — record
    /// `prev`, bump `ssn`, broadcast `SNAPSHOT(reg, ssn)`.
    fn start_snapshot_iteration(&mut self, op_id: OpId, fx: &mut Effects<Alg1Msg>) {
        let prev = self.reg.payload();
        self.ssn += 1;
        let mut acks = AckTracker::new(self.n);
        acks.arm(self.ssn);
        fx.broadcast(
            self.n,
            &Alg1Msg::Snapshot {
                reg: prev.clone(),
                ssn: self.ssn,
            },
        );
        self.active = Some(Active::Snap(SnapOp {
            op: op_id,
            prev,
            acks,
        }));
    }

    fn finish_active(&mut self, resp: OpResponse, fx: &mut Effects<Alg1Msg>) {
        let op = match self.active.take() {
            Some(Active::Write(w)) => w.op,
            Some(Active::Snap(s)) => s.op,
            None => unreachable!("finish without active op"),
        };
        fx.complete(op, resp);
        if let Some((id, next)) = self.pending.pop_front() {
            self.start_op(id, next, fx);
        }
    }
}

impl<B: Boxes> Protocol for Alg1<B> {
    type Msg = Alg1Msg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn n(&self) -> usize {
        self.n
    }

    /// Lines 8–11 plus client-side retransmission.
    fn on_round(&mut self, fx: &mut Effects<Alg1Msg>) {
        self.rounds += 1;
        if B::BOXED {
            // Line 10: ts may never lag the node's own register entry.
            self.ts = self.ts.max(self.reg.get(self.id).ts);
            // Line 11: gossip reg[k] to p_k (every gossip_every-th iteration).
            if self.gossip_every > 0 && self.rounds.is_multiple_of(self.gossip_every) {
                for k in 0..self.n {
                    if k != self.id.index() {
                        fx.send(
                            NodeId(k),
                            Alg1Msg::Gossip {
                                cell: self.reg.get(NodeId(k)),
                            },
                        );
                    }
                }
            }
        }
        // Re-issue the in-progress client broadcast (the pseudo-code's
        // `repeat broadcast …`).
        match &mut self.active {
            Some(Active::Write(w)) => {
                let msg = Alg1Msg::Write {
                    reg: w.lreg.clone(),
                };
                fx.broadcast(self.n, &msg);
            }
            Some(Active::Snap(s)) => {
                let msg = Alg1Msg::Snapshot {
                    reg: self.reg.payload(),
                    ssn: s.acks.tag(),
                };
                fx.broadcast(self.n, &msg);
            }
            None => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Alg1Msg, fx: &mut Effects<Alg1Msg>) {
        match msg {
            // Lines 26–28 (server side of write).
            Alg1Msg::Write { reg } => {
                self.reg.merge_from_payload(from, &reg);
                fx.send(
                    from,
                    Alg1Msg::WriteAck {
                        reg: self.reg.payload(),
                    },
                );
            }
            // Lines 29–31 (server side of snapshot).
            Alg1Msg::Snapshot { reg, ssn } => {
                self.reg.merge_from_payload(from, &reg);
                fx.send(
                    from,
                    Alg1Msg::SnapshotAck {
                        reg: self.reg.payload(),
                        ssn,
                    },
                );
            }
            // Line 14's until-condition plus line 15's merge. Duplicate
            // acks (one per retransmitted WRITE) are rejected before the
            // O(n) covering check.
            Alg1Msg::WriteAck { reg } => {
                let accepted = match &mut self.active {
                    Some(Active::Write(w))
                        if !w.acks.contains(from) && B::covered(&w.lreg, &reg) =>
                    {
                        w.acks.insert(from)
                    }
                    _ => false,
                };
                if accepted {
                    self.merge(from, &reg);
                    let majority = matches!(
                        &self.active,
                        Some(Active::Write(w)) if w.acks.is_majority()
                    );
                    if majority {
                        self.finish_active(OpResponse::WriteDone, fx);
                    }
                }
            }
            // Line 20's until-condition plus lines 21–22.
            Alg1Msg::SnapshotAck { reg, ssn } => {
                let accepted = match &mut self.active {
                    Some(Active::Snap(s)) => s.acks.accept(from, ssn),
                    _ => false,
                };
                if accepted {
                    self.merge(from, &reg);
                    let majority = match &self.active {
                        Some(Active::Snap(s)) if s.acks.has_majority() => {
                            Some((s.op, s.prev.clone()))
                        }
                        _ => None,
                    };
                    if let Some((op, prev)) = majority {
                        if *prev == *self.reg {
                            // Line 23: return(reg).
                            let view = (&*self.reg).into();
                            self.finish_active(OpResponse::Snapshot(view), fx);
                        } else {
                            // Concurrent writes moved reg: iterate again.
                            self.start_snapshot_iteration(op, fx);
                        }
                    }
                }
            }
            // Lines 24–25 (gossip handler): merge into own entry and ts.
            Alg1Msg::Gossip { cell } => {
                if B::BOXED {
                    self.reg.join_cell(self.id, cell);
                    self.ts = self.ts.max(self.reg.get(self.id).ts);
                }
            }
        }
    }

    fn invoke(&mut self, id: OpId, op: SnapshotOp, fx: &mut Effects<Alg1Msg>) {
        if self.active.is_some() {
            self.pending.push_back((id, op));
        } else {
            self.start_op(id, op, fx);
        }
    }

    fn is_busy(&self) -> bool {
        self.active.is_some() || !self.pending.is_empty()
    }

    /// Transient fault: every soft variable gets an arbitrary value. The
    /// identities of in-progress operations are preserved (they belong to
    /// the *client*, whose bookkeeping the fault model does not touch), but
    /// all protocol-internal state — indices, register copies, collected
    /// acknowledgements, the snapshot's `prev` — is scrambled.
    fn corrupt(&mut self, rng: &mut dyn RngCore) {
        const M: u64 = 1 << 20;
        self.ts = rng.next_u64() % M;
        self.ssn = rng.next_u64() % M;
        for k in 0..self.n {
            self.reg.set(
                NodeId(k),
                Tagged {
                    ts: rng.next_u64() % M,
                    val: rng.next_u64(),
                },
            );
        }
        match &mut self.active {
            Some(Active::Write(w)) => {
                w.acks.clear();
                w.lreg = self.reg.payload();
            }
            Some(Active::Snap(s)) => {
                let tag = rng.next_u64() % M;
                s.acks.arm(tag);
                s.prev = self.reg.payload();
            }
            None => {}
        }
    }

    fn restart(&mut self) {
        let k = self.gossip_every;
        *self = Alg1::init(self.id, self.n);
        self.gossip_every = k;
    }

    /// Theorem 1's node-local invariant: `ts` is not smaller than the
    /// node's own register timestamp. `Alg1<Original>` reports it too but
    /// has no mechanism to restore it, which is what the recovery claims
    /// demonstrate.
    fn local_invariants_hold(&self) -> bool {
        self.ts >= self.reg.get(self.id).ts
    }

    fn stats(&self) -> ProtocolStats {
        ProtocolStats {
            rounds: self.rounds,
            write_index: self.ts,
            snapshot_index: self.ssn,
            stale_epoch_dropped: 0,
        }
    }
}

impl<B: Boxes> crate::bounded::HasIndices for Alg1<B> {
    fn max_index(&self) -> u64 {
        let reg_max = self.reg.iter().map(|(_, c)| c.ts).max().unwrap_or(0);
        self.ts.max(self.ssn).max(reg_max)
    }

    fn export_reg(&self) -> RegArray {
        self.reg.to_reg()
    }

    fn install_reset(&mut self, reg: RegArray) {
        self.ts = reg.get(self.id).ts;
        self.ssn = 0;
        self.reg = reg.into();
        self.active = None;
        self.pending.clear();
    }

    fn drain_ops(&mut self) -> Vec<OpId> {
        let mut ids = Vec::new();
        match self.active.take() {
            Some(Active::Write(w)) => ids.push(w.op),
            Some(Active::Snap(s)) => ids.push(s.op),
            None => {}
        }
        ids.extend(self.pending.drain(..).map(|(id, _)| id));
        ids
    }

    fn seed_indices(&mut self, base: u64) {
        self.ts = self.ts.max(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx() -> Effects<Alg1Msg> {
        Effects::new()
    }

    #[test]
    fn write_installs_value_and_broadcasts() {
        let mut a = Alg1::new(NodeId(0), 3);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Write(42), &mut e);
        assert_eq!(a.ts(), 1);
        assert_eq!(a.reg().get(NodeId(0)), Tagged::new(42, 1));
        assert_eq!(e.take_sends().len(), 3, "WRITE broadcast to all incl self");
        assert!(a.is_busy());
    }

    #[test]
    fn write_completes_on_majority_of_covering_acks() {
        let mut a = Alg1::new(NodeId(0), 3);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Write(42), &mut e);
        let lreg: Payload = a.reg().clone().into();
        // Ack from p1 with a covering array.
        a.on_message(NodeId(1), Alg1Msg::WriteAck { reg: lreg.clone() }, &mut e);
        assert!(a.is_busy(), "one ack is not a majority of 3");
        a.on_message(NodeId(2), Alg1Msg::WriteAck { reg: lreg }, &mut e);
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0], (OpId(1), OpResponse::WriteDone));
        assert!(!a.is_busy());
    }

    #[test]
    fn write_ignores_non_covering_acks() {
        let mut a = Alg1::new(NodeId(0), 3);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Write(42), &mut e);
        // A stale ack that does not include the write.
        let stale: Payload = RegArray::bottom(3).into();
        a.on_message(NodeId(1), Alg1Msg::WriteAck { reg: stale.clone() }, &mut e);
        a.on_message(NodeId(2), Alg1Msg::WriteAck { reg: stale }, &mut e);
        assert!(e.take_completions().is_empty());
        assert!(a.is_busy());
    }

    #[test]
    fn server_side_write_merges_and_acks() {
        let mut a = Alg1::new(NodeId(1), 3);
        let mut e = fx();
        let mut incoming = RegArray::bottom(3);
        incoming.set(NodeId(0), Tagged::new(5, 1));
        a.on_message(
            NodeId(0),
            Alg1Msg::Write {
                reg: incoming.into(),
            },
            &mut e,
        );
        assert_eq!(a.reg().get(NodeId(0)), Tagged::new(5, 1));
        let sends = e.take_sends();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId(0));
        assert!(matches!(sends[0].1, Alg1Msg::WriteAck { .. }));
    }

    #[test]
    fn snapshot_completes_when_stable() {
        let mut a = Alg1::new(NodeId(0), 3);
        let mut e = fx();
        a.invoke(OpId(7), SnapshotOp::Snapshot, &mut e);
        assert_eq!(a.ssn(), 1);
        let reg: Payload = a.reg().clone().into();
        a.on_message(
            NodeId(1),
            Alg1Msg::SnapshotAck {
                reg: reg.clone(),
                ssn: 1,
            },
            &mut e,
        );
        a.on_message(NodeId(2), Alg1Msg::SnapshotAck { reg, ssn: 1 }, &mut e);
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        match &done[0].1 {
            OpResponse::Snapshot(v) => assert_eq!(v.values(), vec![None, None, None]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_retries_when_disturbed_by_a_write() {
        let mut a = Alg1::new(NodeId(0), 3);
        let mut e = fx();
        a.invoke(OpId(7), SnapshotOp::Snapshot, &mut e);
        // Acks that carry a newer write by p1: prev != reg after merge.
        let mut moved = a.reg().clone();
        moved.set(NodeId(1), Tagged::new(9, 1));
        let moved: Payload = moved.into();
        a.on_message(
            NodeId(1),
            Alg1Msg::SnapshotAck {
                reg: moved.clone(),
                ssn: 1,
            },
            &mut e,
        );
        a.on_message(
            NodeId(2),
            Alg1Msg::SnapshotAck {
                reg: moved.clone(),
                ssn: 1,
            },
            &mut e,
        );
        assert!(e.take_completions().is_empty(), "must iterate again");
        assert_eq!(a.ssn(), 2, "second query attempt armed");
        // Second attempt with stable values completes.
        let cur: Payload = a.reg().clone().into();
        a.on_message(
            NodeId(1),
            Alg1Msg::SnapshotAck {
                reg: cur.clone(),
                ssn: 2,
            },
            &mut e,
        );
        a.on_message(NodeId(2), Alg1Msg::SnapshotAck { reg: cur, ssn: 2 }, &mut e);
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        match &done[0].1 {
            OpResponse::Snapshot(v) => assert_eq!(v.value_of(NodeId(1)), Some(9)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_ssn_acks_are_ignored() {
        let mut a = Alg1::new(NodeId(0), 3);
        let mut e = fx();
        a.invoke(OpId(7), SnapshotOp::Snapshot, &mut e);
        let reg: Payload = a.reg().clone().into();
        a.on_message(
            NodeId(1),
            Alg1Msg::SnapshotAck {
                reg: reg.clone(),
                ssn: 99,
            },
            &mut e,
        );
        a.on_message(NodeId(2), Alg1Msg::SnapshotAck { reg, ssn: 0 }, &mut e);
        assert!(e.take_completions().is_empty());
    }

    #[test]
    fn gossip_restores_corrupted_ts() {
        let mut a = Alg1::new(NodeId(1), 3);
        // Transient fault zeroed ts but the system believes p1 wrote ts=5.
        let mut e = fx();
        a.on_message(
            NodeId(0),
            Alg1Msg::Gossip {
                cell: Tagged::new(7, 5),
            },
            &mut e,
        );
        assert_eq!(a.ts(), 5, "ts caught up via gossip");
        assert_eq!(a.reg().get(NodeId(1)), Tagged::new(7, 5));
        // Next write must not reuse a stale index.
        a.invoke(OpId(1), SnapshotOp::Write(1), &mut e);
        assert_eq!(a.reg().get(NodeId(1)).ts, 6);
    }

    #[test]
    fn round_enforces_ts_floor_and_gossips() {
        let mut a = Alg1::new(NodeId(0), 3);
        a.reg.set(NodeId(0), Tagged::new(3, 10)); // simulate corrupt reg > ts
        let mut e = fx();
        a.on_round(&mut e);
        assert_eq!(a.ts(), 10);
        let sends = e.take_sends();
        let gossips = sends
            .iter()
            .filter(|(_, m)| matches!(m, Alg1Msg::Gossip { .. }))
            .count();
        assert_eq!(gossips, 2, "gossip to everyone but self");
    }

    #[test]
    fn no_gossip_is_emitted() {
        let mut a = Alg1::<Original>::init(NodeId(0), 3);
        let mut e = fx();
        a.on_round(&mut e);
        assert!(e.take_sends().is_empty(), "idle baseline is silent");
    }

    #[test]
    fn corrupted_ts_is_never_repaired_locally() {
        let mut a = Alg1::<Original>::init(NodeId(0), 3);
        // The system believes p0 wrote ts=10.
        a.reg.set(NodeId(0), Tagged::new(1, 10));
        a.ts = 0; // transient fault rewound ts
        let mut e = fx();
        a.on_round(&mut e);
        assert_eq!(a.ts(), 0, "no repair mechanism");
        assert!(!a.local_invariants_hold());
        // The next write reuses ts=1 and is swallowed by merges.
        a.invoke(OpId(1), SnapshotOp::Write(99), &mut e);
        assert_eq!(a.reg().get(NodeId(0)).ts, 1);
        let mut newer = RegArray::bottom(3);
        newer.set(NodeId(0), Tagged::new(1, 10));
        a.reg.merge_from(&newer);
        assert_eq!(
            a.reg().get(NodeId(0)).val,
            1,
            "stale ts=10 value wins; the write of 99 is lost"
        );
    }

    #[test]
    fn original_ignores_an_arriving_gossip() {
        // The original algorithm sends no GOSSIP, but corrupted channels
        // can still deliver one; it must change nothing.
        let mut a = Alg1::<Original>::init(NodeId(1), 3);
        let mut e = fx();
        a.on_message(
            NodeId(0),
            Alg1Msg::Gossip {
                cell: Tagged::new(7, 5),
            },
            &mut e,
        );
        assert_eq!(a.ts(), 0);
        assert_eq!(a.reg(), &RegArray::bottom(3));
        assert!(e.take_sends().is_empty());
    }

    #[test]
    fn queued_ops_run_in_order() {
        let mut a = Alg1::new(NodeId(0), 3);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Write(1), &mut e);
        a.invoke(OpId(2), SnapshotOp::Write(2), &mut e);
        let lreg: Payload = a.reg().clone().into();
        a.on_message(NodeId(1), Alg1Msg::WriteAck { reg: lreg.clone() }, &mut e);
        a.on_message(NodeId(2), Alg1Msg::WriteAck { reg: lreg }, &mut e);
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, OpId(1));
        assert!(a.is_busy(), "second write started");
        assert_eq!(a.ts(), 2);
    }

    #[test]
    fn corrupt_then_local_invariant_repair() {
        let mut a = Alg1::new(NodeId(0), 3);
        let mut rng = rand::rngs::mock::StepRng::new(0xDEAD_BEEF, 0x9E37_79B9);
        a.corrupt(&mut rng);
        // The do-forever loop restores the local invariant in one step.
        let mut e = fx();
        a.on_round(&mut e);
        assert!(a.local_invariants_hold());
    }

    #[test]
    fn restart_reinitializes() {
        let mut a = Alg1::new(NodeId(2), 3);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Write(3), &mut e);
        a.restart();
        assert_eq!(a.ts(), 0);
        assert!(!a.is_busy());
        assert_eq!(a.reg(), &RegArray::bottom(3));
    }

    #[test]
    fn message_sizes_follow_the_paper() {
        let reg = RegArray::bottom(5);
        let w = Alg1Msg::Write {
            reg: reg.clone().into(),
        };
        let g = Alg1Msg::Gossip {
            cell: Tagged::new(0, 1),
        };
        // WRITE is O(ν·n); GOSSIP is O(ν), independent of n.
        assert_eq!(w.size_bits(64), 64 + 5 * 128);
        assert_eq!(g.size_bits(64), 64 + 128);
        assert!(w.kind() == MsgKind::Write && g.kind().is_gossip());
    }
}
