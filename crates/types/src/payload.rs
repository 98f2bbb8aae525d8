//! Shared (reference-counted) register-array payloads for the message
//! plane.
//!
//! The paper's protocols broadcast whole `reg` arrays every `do forever`
//! iteration, so a naive `Effects::broadcast` deep-clones O(ν·n) bits per
//! recipient — O(n²) data copied per broadcast, O(n³) per cycle under a
//! write storm. [`Payload`] wraps the array in an [`Arc`] so fan-out is a
//! refcount bump per recipient, and [`SharedReg`] lets a node hand out its
//! *current* `reg` repeatedly (acks!) with a single deep clone per
//! mutation instead of one per message.
//!
//! Sharing rules (see DESIGN.md, "Performance model"):
//!
//! * a [`Payload`] is immutable — receivers read through [`Deref`] and
//!   merge *from* it into their own state, never into it;
//! * a node that wants to mutate a received payload's contents clones it
//!   out first ([`Payload::to_reg`], clone-on-write);
//! * sender-side state that is retransmitted verbatim (an in-progress
//!   write's `lreg`, Algorithm 3's `SAVE` entries) is stored already
//!   wrapped, so per-round retransmission costs no copies at all.

use crate::RegArray;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Global counters for deep [`RegArray`] clones — the instrument behind
/// the benchmark's `types.deep_clones_per_op` and
/// `types.cells_copied_per_op`. Counting happens inside
/// `RegArray::clone`, so every deep copy is visible no matter which crate
/// performs it; [`Payload`]/[`SharedReg`] clones are refcount bumps and
/// are *not* counted.
pub mod clone_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static DEEP_CLONES: AtomicU64 = AtomicU64::new(0);
    static CELLS_COPIED: AtomicU64 = AtomicU64::new(0);

    pub(crate) fn on_clone(cells: usize) {
        DEEP_CLONES.fetch_add(1, Ordering::Relaxed);
        CELLS_COPIED.fetch_add(cells as u64, Ordering::Relaxed);
    }

    /// Number of deep `RegArray` clones since the last [`reset`].
    pub fn deep_clones() -> u64 {
        DEEP_CLONES.load(Ordering::Relaxed)
    }

    /// Total register cells copied by those clones since the last
    /// [`reset`] (one cell = one `(value, timestamp)` pair).
    pub fn cells_copied() -> u64 {
        CELLS_COPIED.load(Ordering::Relaxed)
    }

    /// Zeroes both counters (measurement-window start).
    pub fn reset() {
        DEEP_CLONES.store(0, Ordering::Relaxed);
        CELLS_COPIED.store(0, Ordering::Relaxed);
    }
}

/// An immutable, reference-counted `reg`-array message payload.
///
/// Cloning a `Payload` is O(1); all read access goes through `Deref`, so
/// receiver-side code (`reg.le(..)`, `merge_from(&reg)`, `reg.n()`)
/// reads it exactly like a plain [`RegArray`].
///
/// ```
/// use sss_types::{NodeId, Payload, RegArray, Tagged};
/// let mut r = RegArray::bottom(3);
/// r.set(NodeId(1), Tagged::new(7, 2));
/// let p: Payload = r.into();
/// let q = p.clone(); // refcount bump, no cells copied
/// assert_eq!(q.get(NodeId(1)).ts, 2);
/// assert_eq!(p, q);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Payload(Arc<RegArray>);

impl Payload {
    /// Wraps `reg` for sharing.
    pub fn new(reg: RegArray) -> Self {
        Payload(Arc::new(reg))
    }

    /// An owned copy of the array (clone-on-write escape hatch; avoids
    /// the deep copy when this is the payload's last reference).
    pub fn to_reg(self) -> RegArray {
        Arc::try_unwrap(self.0).unwrap_or_else(|a| (*a).clone())
    }
}

impl Deref for Payload {
    type Target = RegArray;
    fn deref(&self) -> &RegArray {
        &self.0
    }
}

impl From<RegArray> for Payload {
    fn from(reg: RegArray) -> Self {
        Payload::new(reg)
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A node's `reg` array plus a lazily refreshed shared snapshot of it.
///
/// Servers answer every `WRITE`/`SNAPSHOT` with their merged array; with
/// plain clones that is one deep copy per ack — O(ν·n²) bits per round
/// under load even though the array rarely changes between acks.
/// `SharedReg` caches the outgoing [`Payload`] and invalidates it on any
/// mutable access (via `DerefMut`), so repeated sends between mutations
/// are refcount bumps.
///
/// Reads (`&self` methods of [`RegArray`]) resolve through `Deref` and
/// keep the cache; any `&mut` access, such as `set`, resolves through
/// `DerefMut` and drops it. The inherent [`SharedReg::merge_from`]
/// and [`SharedReg::join_cell`] shadow their `RegArray` counterparts to
/// keep the cache across *no-op* joins; they invalidate before any actual
/// change, so the cache can never go stale.
///
/// ```
/// use sss_types::{NodeId, SharedReg, Tagged};
/// let mut r = SharedReg::bottom(3);
/// let a = r.payload();
/// let b = r.payload(); // cached: no deep clone
/// assert_eq!(a, b);
/// r.set(NodeId(0), Tagged::new(9, 1)); // DerefMut: cache invalidated
/// assert!(r.payload().get(NodeId(0)).ts == 1);
/// ```
#[derive(Clone)]
pub struct SharedReg {
    reg: RegArray,
    out: Option<Payload>,
}

impl SharedReg {
    /// The all-`⊥` array for `n` processes.
    pub fn bottom(n: usize) -> Self {
        SharedReg {
            reg: RegArray::bottom(n),
            out: None,
        }
    }

    /// A shareable snapshot of the current array: cached between
    /// mutations, one deep clone after each.
    pub fn payload(&mut self) -> Payload {
        match &self.out {
            Some(p) => p.clone(),
            None => {
                let p = Payload::new(self.reg.clone());
                self.out = Some(p.clone());
                p
            }
        }
    }

    /// An owned deep copy of the current array (for `prev`-style
    /// comparison state that outlives later mutations).
    pub fn to_reg(&self) -> RegArray {
        self.reg.clone()
    }

    /// Entrywise join of `other` into the array — same result as
    /// [`RegArray::merge_from`], which this shadows for `SharedReg`
    /// receivers, but the cached payload is invalidated only when a cell
    /// actually advances. A no-op merge (`other ⪯ reg`, the common case
    /// under retransmission-heavy gossip and ack storms) keeps back-to-back
    /// outgoing acks sharing one deep clone.
    pub fn merge_from(&mut self, other: &RegArray) {
        // The cached payload holds its own deep copy, so merging first and
        // invalidating after (only if something moved) is safe.
        if self.reg.merge_from_changed(other) {
            self.out = None;
        }
    }

    /// Joins one incoming cell into entry `k`, invalidating the cached
    /// payload only if the cell advances (see [`Self::merge_from`]).
    pub fn join_cell(&mut self, k: crate::NodeId, other: crate::Tagged) {
        let cur = self.reg.get(k);
        let joined = cur.join(other);
        if joined != cur {
            self.out = None;
            self.reg.set(k, joined);
        }
    }
}

impl From<RegArray> for SharedReg {
    fn from(reg: RegArray) -> Self {
        SharedReg { reg, out: None }
    }
}

impl Deref for SharedReg {
    type Target = RegArray;
    fn deref(&self) -> &RegArray {
        &self.reg
    }
}

impl DerefMut for SharedReg {
    fn deref_mut(&mut self) -> &mut RegArray {
        self.out = None;
        &mut self.reg
    }
}

impl fmt::Debug for SharedReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.reg.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Tagged};

    #[test]
    fn payload_shares_without_copying() {
        let mut r = RegArray::bottom(4);
        r.set(NodeId(2), Tagged::new(5, 3));
        let p = Payload::new(r.clone());
        let before = clone_stats::cells_copied();
        let clones: Vec<Payload> = (0..100).map(|_| p.clone()).collect();
        assert_eq!(
            clone_stats::cells_copied(),
            before,
            "payload clones must not copy cells"
        );
        assert!(clones.iter().all(|c| **c == r));
    }

    #[test]
    fn payload_to_reg_roundtrip() {
        let mut r = RegArray::bottom(2);
        r.set(NodeId(0), Tagged::new(1, 1));
        let p: Payload = r.clone().into();
        assert_eq!(p.to_reg(), r);
    }

    #[test]
    fn shared_reg_caches_until_mutation() {
        let mut s = SharedReg::bottom(3);
        s.set(NodeId(0), Tagged::new(4, 1));
        let _warm = s.payload();
        let before = clone_stats::deep_clones();
        let a = s.payload();
        let b = s.payload();
        assert_eq!(clone_stats::deep_clones(), before, "cache hit");
        assert_eq!(a, b);
        // Mutation through DerefMut invalidates.
        s.join_cell(NodeId(1), Tagged::new(7, 2));
        let c = s.payload();
        assert_eq!(clone_stats::deep_clones(), before + 1);
        assert_eq!(c.get(NodeId(1)), Tagged::new(7, 2));
        assert_eq!(a.get(NodeId(1)), Tagged::default(), "old payload frozen");
    }

    #[test]
    fn shared_reg_reads_do_not_invalidate() {
        let mut s = SharedReg::bottom(3);
        let _warm = s.payload();
        let before = clone_stats::deep_clones();
        // &self methods go through Deref and must keep the cache.
        assert_eq!(s.n(), 3);
        assert!(s.le(&RegArray::bottom(3)));
        let _ = s.get(NodeId(1));
        let _ = s.payload();
        assert_eq!(clone_stats::deep_clones(), before);
    }

    #[test]
    fn clone_counter_counts_deep_clones() {
        // Delta-based: other tests clone concurrently, so only lower
        // bounds are meaningful here.
        let (d0, c0) = (clone_stats::deep_clones(), clone_stats::cells_copied());
        let r = RegArray::bottom(8);
        let _c = r.clone();
        assert!(clone_stats::deep_clones() > d0);
        assert!(clone_stats::cells_copied() >= c0 + 8);
    }
}
