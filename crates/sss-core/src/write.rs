//! The write half every snapshot protocol here shares.
//!
//! The paper's Algorithm 3 calls Algorithm 1's write `baseWrite`, and
//! Delporte-Gallet et al.'s two algorithms run the same write: the same
//! `WRITE`/`WRITEack` exchange and the same `merge` macro. [`WriteHalf`]
//! is that half, written once:
//!
//! | pseudo-code | Algorithm 1 | Algorithm 3 |
//! |---|---|---|
//! | `merge` macro (the boxed `ts` line) | 5–7 (6) | 72 |
//! | `ts ≥ reg[i].ts` floor | 10 | 75 |
//! | gossip `reg[k]` to `p_k` | 11 | 78 |
//! | `write(v)` / `baseWrite` | 12–16 | 84 |
//! | `GOSSIP` handler | 24–25 | 98–99 |
//! | `WRITE` server | 26–28 | 100–102 |
//!
//! [`Alg1`](crate::Alg1) composes a `WriteHalf<B>`, [`Alg3`](crate::Alg3)
//! a `WriteHalf<SelfStabilizing>` and `sss_baselines::Dgfr2` a
//! `WriteHalf<Original>`; each keeps its snapshot half and its message
//! enum. The half hands out payloads and cells and the caller wraps them
//! in its own `WRITE`, `WRITEack` and `GOSSIP`, which is where the gossip
//! cadence and Algorithm 3's `pndTsk` piggyback live.

use rand::RngCore;
use sss_types::{NodeId, OpId, Payload, ProcessSet, RegArray, SharedReg, Tagged, Value};
use std::fmt;
use std::marker::PhantomData;

/// Which of the paper's boxed lines a [`WriteHalf`] runs: a zero-sized
/// marker, monomorphised away, so the choice costs no runtime flag and no
/// config field. Every boxed line of Algorithm 1 is a write-half line.
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

/// The paper's Algorithms 1 and 3: every boxed line runs.
#[derive(Clone, Copy, Debug)]
pub struct SelfStabilizing;

impl Boxes for SelfStabilizing {
    const BOXED: bool = true;
}

/// Delporte-Gallet et al.'s original algorithms: no boxed line runs, so a
/// transient fault that rewinds `ts` makes the node reuse write
/// timestamps forever — new writes are silently swallowed by the `max_⪯`
/// merges.
#[derive(Clone, Copy, Debug)]
pub struct Original;

impl Boxes for Original {
    const BOXED: bool = false;
}

/// In-progress `write(v)` client state (lines 12–16).
#[derive(Clone, Debug)]
struct WriteOp {
    op: OpId,
    /// Shared with every retransmitted `WRITE` — rebroadcasts are free.
    lreg: Payload,
    acks: ProcessSet,
}

/// The write half of a snapshot object at node `p_i`: `ts`, `reg`, the
/// in-flight write, and the lines of the module table. See the module
/// docs for the line mapping.
#[derive(Clone, Debug)]
pub struct WriteHalf<B: Boxes> {
    id: NodeId,
    /// Write-operation index (Algorithm 1 line 3, Algorithm 3 line 68).
    pub ts: u64,
    /// Local copy of all shared registers (line 4 / 68), with a cached
    /// outgoing payload so acks between mutations share one allocation.
    pub reg: SharedReg,
    write: Option<WriteOp>,
    boxes: PhantomData<B>,
}

impl<B: Boxes> WriteHalf<B> {
    /// Node `id`'s write half in a system of `n` processes, every variable
    /// at its initial value.
    pub fn new(id: NodeId, n: usize) -> Self {
        WriteHalf {
            id,
            ts: 0,
            reg: SharedReg::bottom(n),
            write: None,
            boxes: PhantomData,
        }
    }

    /// The `merge(Rec)` macro (lines 5–7 / 72) for one received array.
    pub fn merge(&mut self, rec: &RegArray) {
        if B::BOXED {
            // Line 6: ts may never lag what anyone reports of reg[i].
            self.ts = self
                .ts
                .max(self.reg.get(self.id).ts)
                .max(rec.get(self.id).ts);
        }
        self.reg.merge_from(rec);
    }

    /// Line 10 / 75: `ts` may never lag the node's own register entry.
    pub fn floor_ts(&mut self) {
        if B::BOXED {
            self.ts = self.ts.max(self.reg.get(self.id).ts);
        }
    }

    /// Lines 12–13 / 84: allocate the next timestamp and install `v`
    /// locally. Returns `lReg`, which the caller broadcasts as `WRITE`.
    pub fn start_write(&mut self, op: OpId, v: Value) -> Payload {
        self.ts += 1;
        self.reg.set(self.id, Tagged::new(v, self.ts));
        let lreg = self.reg.payload();
        self.write = Some(WriteOp {
            op,
            lreg: lreg.clone(),
            acks: ProcessSet::new(self.reg.n()),
        });
        lreg
    }

    /// The in-flight write's `lReg`, which the caller rebroadcasts every
    /// `do forever` iteration until the write completes (line 14's
    /// `repeat`).
    pub fn in_flight(&self) -> Option<&Payload> {
        self.write.as_ref().map(|w| &w.lreg)
    }

    /// Lines 26–28 / 100–102, the `WRITE` server: merge the writer's
    /// array and return the array to acknowledge with.
    pub fn serve_write(&mut self, rec: &RegArray) -> Payload {
        self.reg.merge_from(rec);
        self.reg.payload()
    }

    /// Line 14's until-condition plus line 15's merge (84 in Algorithm 3)
    /// for one `WRITEack`: a duplicate is rejected before the `O(n)`
    /// covering check, a non-covering ack does not count, and an accepted
    /// one is merged. Returns the write's operation once a majority has
    /// acknowledged it.
    pub fn on_write_ack(&mut self, from: NodeId, ack: &Payload) -> Option<OpId> {
        let accepted = match &mut self.write {
            Some(w) if !w.acks.contains(from) && B::covered(&w.lreg, ack) => w.acks.insert(from),
            _ => false,
        };
        if !accepted {
            return None;
        }
        self.merge(ack);
        match &self.write {
            Some(w) if w.acks.is_majority() => self.take_op(),
            _ => None,
        }
    }

    /// Line 11 / 78: the cell `reg[k]` to gossip to each peer `p_k` (none
    /// without the boxed lines).
    pub fn gossip_cells(&self) -> impl Iterator<Item = (NodeId, Tagged)> + '_ {
        (0..self.reg.n())
            .map(NodeId)
            .filter(move |&k| B::BOXED && k != self.id)
            .map(move |k| (k, self.reg.get(k)))
    }

    /// Lines 24–25 / 98–99: merge a gossiped cell into the own entry and
    /// `ts`.
    pub fn on_gossip(&mut self, cell: Tagged) {
        if B::BOXED {
            self.reg.join_cell(self.id, cell);
            self.ts = self.ts.max(self.reg.get(self.id).ts);
        }
    }

    /// The write half's share of a transient fault. `ts`, then the
    /// caller's `indices` in order, then every register cell get arbitrary
    /// values; the in-flight write keeps its operation but loses its acks
    /// and resends the corrupted array.
    pub fn corrupt(&mut self, rng: &mut dyn RngCore, indices: &mut [&mut u64]) {
        const M: u64 = 1 << 20;
        self.ts = rng.next_u64() % M;
        for i in indices.iter_mut() {
            **i = rng.next_u64() % M;
        }
        self.reg = RegArray::arbitrary(rng, self.reg.n(), M).into();
        if let Some(w) = &mut self.write {
            w.acks.clear();
            w.lreg = self.reg.payload();
        }
    }

    /// Drops the in-flight write, returning its operation.
    pub fn take_op(&mut self) -> Option<OpId> {
        self.write.take().map(|w| w.op)
    }

    /// The §5 global reset's share: install `reg`, resume `ts` from the
    /// own entry, and drop the in-flight write.
    pub fn install_reset(&mut self, reg: RegArray) {
        self.ts = reg.get(self.id).ts;
        self.reg = reg.into();
        self.write = None;
    }

    /// The largest index the half holds: `ts` and every register
    /// timestamp.
    pub fn max_index(&self) -> u64 {
        self.reg.iter().map(|(_, c)| c.ts).fold(self.ts, u64::max)
    }

    /// Clause (i) of Theorem 1's and Definition 1's node-local
    /// invariants: `ts ≥ reg[i].ts`.
    pub fn invariant_holds(&self) -> bool {
        self.ts >= self.reg.get(self.id).ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half(id: usize) -> WriteHalf<SelfStabilizing> {
        WriteHalf::new(NodeId(id), 3)
    }

    #[test]
    fn write_installs_value_and_broadcasts() {
        let mut w = half(0);
        let lreg = w.start_write(OpId(1), 42);
        assert_eq!(w.ts, 1);
        assert_eq!(w.reg.get(NodeId(0)), Tagged::new(42, 1));
        assert_eq!(*lreg, *w.reg, "WRITE carries the installed array");
        assert_eq!(w.in_flight(), Some(&lreg), "retransmitted until acked");
    }

    #[test]
    fn write_completes_on_majority_of_covering_acks() {
        let mut w = half(0);
        let lreg = w.start_write(OpId(1), 42);
        assert_eq!(w.on_write_ack(NodeId(1), &lreg), None, "one ack of 3");
        assert_eq!(w.on_write_ack(NodeId(2), &lreg), Some(OpId(1)));
        assert!(w.in_flight().is_none());
    }

    #[test]
    fn write_ignores_non_covering_acks() {
        let mut w = half(0);
        w.start_write(OpId(1), 42);
        // Stale acks that do not include the write.
        let stale: Payload = RegArray::bottom(3).into();
        assert_eq!(w.on_write_ack(NodeId(1), &stale), None);
        assert_eq!(w.on_write_ack(NodeId(2), &stale), None);
        assert!(w.in_flight().is_some());
    }

    #[test]
    fn server_side_write_merges_and_acks() {
        let mut w = half(1);
        let mut incoming = RegArray::bottom(3);
        incoming.set(NodeId(0), Tagged::new(5, 1));
        let ack = w.serve_write(&incoming);
        assert_eq!(w.reg.get(NodeId(0)), Tagged::new(5, 1));
        assert_eq!(*ack, *w.reg, "the ack carries the merged array");
    }
}
