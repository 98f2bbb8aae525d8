//! The per-node `reg` array: one SWMR register cell per process.

use crate::{NodeId, Tagged, VectorClock};
use rand::RngCore;
use std::fmt;

/// The cell order `(ts, val)` as one unsigned 128-bit key (both fields
/// are `u64`, so lexicographic order equals integer order on
/// `ts·2⁶⁴ + val`) — one branch-free compare per cell on the merge/`⪯`
/// hot paths instead of the derived two-field chain.
#[inline(always)]
fn lex_key(c: &Tagged) -> u128 {
    ((c.ts as u128) << 64) | c.val as u128
}

/// A node's local copy of all `n` shared registers (the paper's `reg`
/// variable, Algorithm 1 line 4).
///
/// Entry `k` holds the most recent information about node `p_k`'s object;
/// entry `i` at node `p_i` is `p_i`'s actual object. Arrays are ordered by
/// the paper's entrywise relation (line 1):
/// `tab ⪯ tab' ⟺ ∀k: tab[k] ⪯ tab'[k]`, which is a partial order whose
/// join is the entrywise `max` computed by the `merge(Rec)` macro.
///
/// ```
/// use sss_types::{RegArray, Tagged, NodeId};
/// let mut r = RegArray::bottom(2);
/// r.set(NodeId(0), Tagged::new(5, 1));
/// let mut s = r.clone();
/// s.set(NodeId(1), Tagged::new(6, 1));
/// assert!(r.le(&s) && !s.le(&r));
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct RegArray {
    cells: Vec<Tagged>,
}

/// Deep copies are counted (see [`crate::clone_stats`]) so experiments
/// can attribute bytes-cloned to the message plane; share a
/// [`crate::Payload`] instead of cloning where possible.
impl Clone for RegArray {
    fn clone(&self) -> Self {
        crate::payload::clone_stats::on_clone(self.cells.len());
        RegArray {
            cells: self.cells.clone(),
        }
    }
}

impl RegArray {
    /// The all-`⊥` array `[⊥, …, ⊥]` for `n` processes.
    pub fn bottom(n: usize) -> Self {
        RegArray {
            cells: vec![Tagged::default(); n],
        }
    }

    /// Number of processes (and register cells).
    pub fn n(&self) -> usize {
        self.cells.len()
    }

    /// The cell for process `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the process universe.
    pub fn get(&self, k: NodeId) -> Tagged {
        self.cells[k.index()]
    }

    /// Overwrites the cell for process `k` (used by the writer itself,
    /// Algorithm 1 line 13, and by fault injection).
    pub fn set(&mut self, k: NodeId, cell: Tagged) {
        self.cells[k.index()] = cell;
    }

    /// Joins a single incoming cell into entry `k`:
    /// `reg[k] ← max_⪯(reg[k], other)` (server side of WRITE/SNAPSHOT).
    pub fn join_cell(&mut self, k: NodeId, other: Tagged) {
        let slot = &mut self.cells[k.index()];
        *slot = slot.join(other);
    }

    /// The `merge` macro restricted to one source: entrywise join of
    /// `other` into `self`.
    pub fn merge_from(&mut self, other: &RegArray) {
        self.merge_from_changed(other);
    }

    /// Entrywise join of `other` into `self`, reporting whether any cell
    /// advanced — one pass over the cells, writing only where the join
    /// moves (lets [`crate::SharedReg`] keep its outgoing payload cached
    /// across no-op merges without a separate comparison pass).
    pub fn merge_from_changed(&mut self, other: &RegArray) -> bool {
        debug_assert_eq!(self.n(), other.n());
        let mut changed = false;
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            if lex_key(theirs) > lex_key(mine) {
                *mine = *theirs;
                changed = true;
            }
        }
        changed
    }

    /// The paper's `⪯` on arrays: entrywise `⪯` on every cell. The cell
    /// order is lexicographic `(ts, val)`, the order `join` maximizes.
    pub fn le(&self, other: &RegArray) -> bool {
        debug_assert_eq!(self.n(), other.n());
        self.cells
            .iter()
            .zip(&other.cells)
            .all(|(a, b)| lex_key(a) <= lex_key(b))
    }

    /// The paper's strict `≺`: `a ⪯ b ∧ a ≠ b`.
    pub fn lt(&self, other: &RegArray) -> bool {
        self.le(other) && self != other
    }

    /// The timestamp-only projection used by Algorithm 3's `VC` macro
    /// (line 69): `VC[k] = 0` when `reg[k] = ⊥`, otherwise `reg[k].ts`.
    pub fn vector_clock(&self) -> VectorClock {
        VectorClock::from_components(self.cells.iter().map(|c| c.ts).collect())
    }

    /// Iterates over `(process, cell)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Tagged)> + '_ {
        self.cells.iter().enumerate().map(|(i, &c)| (NodeId(i), c))
    }

    /// `n` arbitrary cells, drawn in ascending order, each `ts` (a draw
    /// `% m`) before `val` (a full draw): the fault model's arbitrary
    /// `reg`, shared by every protocol's `corrupt` and `ArbitraryMsg`.
    pub fn arbitrary(rng: &mut dyn RngCore, n: usize, m: u64) -> Self {
        (0..n)
            .map(|_| Tagged {
                ts: rng.next_u64() % m,
                val: rng.next_u64(),
            })
            .collect()
    }
}

impl fmt::Debug for RegArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.cells).finish()
    }
}

impl FromIterator<Tagged> for RegArray {
    fn from_iter<I: IntoIterator<Item = Tagged>>(iter: I) -> Self {
        RegArray {
            cells: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BOTTOM;

    fn arr(ts: &[u64]) -> RegArray {
        ts.iter()
            .map(|&t| {
                if t == 0 {
                    BOTTOM
                } else {
                    Tagged::new(t * 100, t)
                }
            })
            .collect()
    }

    #[test]
    fn bottom_is_least() {
        let b = RegArray::bottom(3);
        let x = arr(&[1, 0, 2]);
        assert!(b.le(&x));
        assert!(b.le(&b));
        assert!(!x.le(&b));
    }

    #[test]
    fn le_is_entrywise() {
        let a = arr(&[1, 2, 3]);
        let b = arr(&[2, 2, 3]);
        let c = arr(&[2, 1, 9]);
        assert!(a.le(&b));
        assert!(!a.le(&c), "entry 1 regressed");
        assert!(!c.le(&a));
        assert!(a.lt(&b));
        assert!(!a.lt(&a));
    }

    #[test]
    fn merge_is_join() {
        let mut a = arr(&[1, 5, 0]);
        let b = arr(&[3, 2, 4]);
        a.merge_from(&b);
        assert_eq!(a, arr(&[3, 5, 4]));
        // Join is an upper bound of both inputs.
        assert!(arr(&[1, 5, 0]).le(&a));
        assert!(b.le(&a));
    }

    #[test]
    fn join_cell_only_advances() {
        let mut a = arr(&[4, 4, 4]);
        a.join_cell(NodeId(1), Tagged::new(9, 2));
        assert_eq!(a, arr(&[4, 4, 4]), "stale cell must be ignored");
        a.join_cell(NodeId(1), Tagged::new(9, 7));
        assert_eq!(a.get(NodeId(1)), Tagged::new(9, 7));
    }

    #[test]
    fn vector_clock_projection() {
        let a = arr(&[3, 0, 7]);
        assert_eq!(a.vector_clock().components(), &[3, 0, 7]);
    }

    #[test]
    fn corruption_is_repaired_by_merge_monotonicity() {
        // After corrupting, merging a legal array still yields an upper bound.
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        let bad = RegArray::arbitrary(&mut rng, 4, 1_001);
        let legal = arr(&[5, 5, 5, 5]);
        let mut joined = bad.clone();
        joined.merge_from(&legal);
        assert!(legal.le(&joined));
        assert!(bad.le(&joined));
    }
}
