//! The group-commit rule, with no clock, thread or channel. A group is
//! the paper's array of `n` single-writer registers (register `i` is
//! written by node `i`), so one flush needs at most `n + 1` protocol
//! operations however many requests it absorbed: all writes to one
//! register become *one* protocol write carrying the last value admitted
//! (the earlier writes linearize at the same point and are immediately
//! overwritten), and all snapshot requests share *one* protocol snapshot
//! at the flush's contact node, issued after the writes.
//!
//! Both batchers — the threaded [`Shard`](crate::shard) and the
//! virtual-time [`SimService`](crate::SimService) — drain at most
//! [`MAX_PER_FLUSH`] requests, hand them to [`collapse`], and keep one
//! flush in flight per shard; they differ only in how they wait.

use sss_net::mix64;
use sss_types::{NodeId, SnapshotOp};

/// Most requests one flush absorbs; the rest wait for the next one.
pub(crate) const MAX_PER_FLUSH: usize = 512;

/// Salt separating key → register hashing from the ring's key → shard
/// hashing (same key, independent streams).
const REGISTER_SALT: u64 = 0x5245_4721;

/// The register (and therefore writer node) serving `key` inside an
/// `n`-process group.
pub(crate) fn register_for(seed: u64, key: u64, n: usize) -> usize {
    (mix64(seed ^ REGISTER_SALT, key) % n as u64) as usize
}

/// One protocol operation of a flush, with the tickets it resolves.
pub(crate) struct Planned<T> {
    /// Where the operation runs.
    pub(crate) node: NodeId,
    /// The collapsed write, or the shared snapshot.
    pub(crate) op: SnapshotOp,
    /// Every request this operation answers, in admission order.
    pub(crate) tickets: Vec<T>,
}

/// Collapses one drained batch of `(key, op, ticket)` requests into the
/// flush's protocol operations: the writes in register order, then the
/// snapshot at `contact`. Each ticket lands in exactly one operation.
pub(crate) fn collapse<T>(
    seed: u64,
    n: usize,
    contact: usize,
    batch: impl IntoIterator<Item = (u64, SnapshotOp, T)>,
) -> Vec<Planned<T>> {
    // Slots 0..n are the registers' writes, slot n the snapshot.
    let mut plan: Vec<Planned<T>> = (0..n)
        .chain([contact])
        .map(|k| Planned {
            node: NodeId(k),
            op: SnapshotOp::Snapshot,
            tickets: Vec::new(),
        })
        .collect();
    for (key, op, ticket) in batch {
        let slot = match op {
            SnapshotOp::Write(_) => register_for(seed, key, n),
            SnapshotOp::Snapshot => n,
        };
        plan[slot].op = op; // last write wins
        plan[slot].tickets.push(ticket);
    }
    plan.retain(|p| !p.tickets.is_empty());
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn register_routing_is_deterministic_and_in_range() {
        for key in 0..1000u64 {
            let a = register_for(7, key, 5);
            assert_eq!(a, register_for(7, key, 5));
            assert!(a < 5);
        }
        // Different seeds route independently.
        let moved = (0..1000u64)
            .filter(|&k| register_for(1, k, 5) != register_for(2, k, 5))
            .count();
        assert!(moved > 500, "only {moved}/1000 keys moved across seeds");
    }

    /// A write of a random value under a small key, or a snapshot.
    fn request() -> impl Strategy<Value = (u64, SnapshotOp)> {
        (0u64..64, any::<bool>(), any::<u64>()).prop_map(|(key, write, v)| {
            (
                key,
                if write {
                    SnapshotOp::Write(v)
                } else {
                    SnapshotOp::Snapshot
                },
            )
        })
    }

    proptest! {
        #[test]
        fn a_flush_answers_every_request_once_in_at_most_n_plus_one_ops(
            seed in any::<u64>(),
            n in 1usize..8,
            contact in 0usize..8,
            batch in collection::vec(request(), 0..200),
        ) {
            let contact = contact % n;
            let plan = collapse(
                seed,
                n,
                contact,
                batch.iter().enumerate().map(|(i, &(key, op))| (key, op, i)),
            );
            prop_assert!(plan.len() <= n + 1);

            // Each request lands in exactly one op's ticket list, and
            // tickets keep admission order.
            let mut seen = vec![0u32; batch.len()];
            for p in &plan {
                prop_assert!(!p.tickets.is_empty());
                prop_assert!(p.tickets.windows(2).all(|w| w[0] < w[1]));
                for &i in &p.tickets {
                    seen[i] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));

            // Each write op runs at its register's node, once per
            // register, in register order, and carries the last value
            // admitted for it.
            let (writes, snaps): (Vec<_>, Vec<_>) =
                plan.iter().partition(|p| matches!(p.op, SnapshotOp::Write(_)));
            prop_assert!(writes.windows(2).all(|w| w[0].node < w[1].node));
            for p in &writes {
                let reg = p.node.index();
                let is_reg_write = |&(key, op): &(u64, SnapshotOp)| {
                    matches!(op, SnapshotOp::Write(_)) && register_for(seed, key, n) == reg
                };
                let last = batch.iter().rev().find(|r| is_reg_write(r)).map(|r| r.1);
                prop_assert_eq!(Some(p.op), last);
                for &i in &p.tickets {
                    prop_assert!(is_reg_write(&batch[i]));
                }
            }

            // The snapshot op, if any, answers every snapshot request,
            // comes last and runs at `contact`.
            let wanted = batch.iter().filter(|r| r.1 == SnapshotOp::Snapshot).count();
            prop_assert_eq!(snaps.len(), usize::from(wanted > 0));
            if let Some(snap) = snaps.first() {
                prop_assert_eq!(snap.node, NodeId(contact));
                prop_assert_eq!(snap.tickets.len(), wanted);
                prop_assert!(std::ptr::eq(*snap, plan.last().expect("non-empty plan")));
            }
        }
    }
}
