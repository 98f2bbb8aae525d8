//! The consensus-based global reset of Section 5.
//!
//! When an operation index reaches `MAXINT`, the paper prescribes:
//! *Step 1* — disable new operations and gossip maximal indices, merging,
//! until all nodes share the same maxima; *Step 2* — run a consensus-based
//! global reset that wraps each operation index to its initial value while
//! keeping the register *values*; then re-enable operations.
//!
//! Both steps need every node to participate, which is why the paper (and
//! this implementation) assumes *seldom fairness*: reaching `MAXINT` can
//! only happen after a transient fault (with 64-bit counters a legitimate
//! execution would take centuries), so requiring that all nodes are
//! eventually alive *during a reset* is an assumption used almost never.
//!
//! The coordinator (the lowest node id, who is alive by the fairness
//! assumption) drives two phases:
//!
//! 1. **Sync** — retransmitted every round: collect every node's full
//!    register array and merge them; this subsumes the paper's "gossip
//!    the maximal indices until they agree": after the merge the
//!    coordinator holds the maximum of every register and index.
//! 2. **Install** — broadcast once: the canonical wrapped array (every
//!    non-`⊥` cell re-stamped with timestamp 1) together with the target
//!    epoch; each node installs it, zeroes its indices, and moves to the
//!    new epoch. A node that missed it keeps sending `Request`, and any
//!    node already in a newer epoch answers with its own `Install`.
//!    Messages from older epochs are discarded by the
//!    [`Bounded`](crate::Bounded) wrapper, so no pre-reset timestamp can
//!    leak into the new epoch.

use sss_types::{NodeId, ProcessSet, RegArray, Tagged};

/// Wire messages of the global-reset protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResetMsg {
    /// Any node that noticed an index at `MAXINT` asks for a reset into
    /// `epoch` (current + 1).
    Request {
        /// The epoch the requester wants to move to.
        epoch: u64,
    },
    /// Coordinator → all: send me your register array (phase 1).
    SyncReq {
        /// The epoch being established.
        epoch: u64,
    },
    /// Node → coordinator: my register array (phase 1 reply).
    SyncResp {
        /// Echo of the epoch.
        epoch: u64,
        /// The replier's register array.
        reg: RegArray,
    },
    /// Coordinator → all, or any node → a straggler: install this
    /// canonical array (phase 2).
    Install {
        /// The epoch being established.
        epoch: u64,
        /// The canonical wrapped register array.
        reg: RegArray,
    },
}

/// Coordinator-side state of one reset. Normally only the lowest node id
/// runs it; under the hardened wrapper a deadline rotates coordination to
/// the next id when the current coordinator is crashed or cut off (see
/// the [`Bounded`](crate::Bounded) module docs).
#[derive(Clone, Debug)]
pub struct ResetState {
    /// The epoch being established.
    pub epoch: u64,
    /// Merged registers collected so far.
    pub merged: RegArray,
    /// Nodes whose `SyncResp` arrived.
    pub synced: ProcessSet,
}

impl ResetState {
    /// Starts coordinating a reset into `epoch` from the local `reg`.
    pub fn new(epoch: u64, local_reg: RegArray, me: NodeId) -> Self {
        let n = local_reg.n();
        let mut synced = ProcessSet::new(n);
        synced.insert(me);
        ResetState {
            epoch,
            merged: local_reg,
            synced,
        }
    }

    /// Records a `SyncResp`; returns `true` once every node has synced.
    pub fn on_sync(&mut self, from: NodeId, reg: &RegArray) -> bool {
        self.merged.merge_from(reg);
        self.synced.insert(from);
        self.synced.len() == self.merged.n()
    }

    /// Computes the canonical wrapped array: values kept, non-`⊥`
    /// timestamps re-stamped to 1.
    pub fn make_canonical(&self) -> RegArray {
        self.merged
            .iter()
            .map(|(_, cell)| {
                if cell.is_bottom() {
                    cell
                } else {
                    Tagged::new(cell.val, 1)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(ts: &[u64]) -> RegArray {
        ts.iter()
            .map(|&t| {
                if t == 0 {
                    Tagged::default()
                } else {
                    Tagged::new(t * 10, t)
                }
            })
            .collect()
    }

    #[test]
    fn sync_collects_all_nodes() {
        let mut st = ResetState::new(2, reg(&[5, 0, 0]), NodeId(0));
        assert!(!st.on_sync(NodeId(1), &reg(&[0, 7, 0])));
        assert!(st.on_sync(NodeId(2), &reg(&[0, 0, 9])));
        assert_eq!(st.merged, reg(&[5, 7, 9]));
    }

    #[test]
    fn canonical_keeps_values_wraps_timestamps() {
        let st = ResetState::new(2, reg(&[5, 0, 9]), NodeId(0));
        let canon = st.make_canonical();
        assert_eq!(canon.get(NodeId(0)), Tagged::new(50, 1), "value kept");
        assert!(canon.get(NodeId(1)).is_bottom(), "⊥ stays ⊥");
        assert_eq!(canon.get(NodeId(2)), Tagged::new(90, 1));
    }
}
