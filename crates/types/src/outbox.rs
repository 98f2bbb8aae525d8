//! A per-destination coalescing send buffer for the batched message
//! plane.
//!
//! When a node applies a whole inbox backlog as one protocol step it
//! typically queues many messages to the same peer — retransmitted
//! broadcasts, one ack per absorbed `WRITE`, a gossip cell per round.
//! [`Outbox`] collects a step's sends and, for each destination, asks
//! the *last still-pending* message to absorb the new one via
//! [`ProtoMsg::try_coalesce`]. Pointer-identical retransmissions and
//! `⪯`-ordered payloads collapse to a single wire message; everything
//! else passes through in order.
//!
//! The buffer is designed for reuse on a hot loop: draining keeps the
//! allocations, and the per-destination index is epoch-tagged so no
//! per-drain clearing pass is needed.

use crate::{NodeId, ProtoMsg};

/// A reusable send buffer that coalesces consecutive messages to the
/// same destination (see the module docs).
///
/// ```
/// use sss_types::{MsgKind, NodeId, Outbox, ProtoMsg};
///
/// #[derive(Clone, Debug)]
/// struct Counter(u64);
/// impl ProtoMsg for Counter {
///     fn kind(&self) -> MsgKind { MsgKind::Gossip }
///     fn size_bits(&self, _nu: u32) -> u64 { 64 }
///     fn try_coalesce(&mut self, later: &Self) -> bool {
///         self.0 = self.0.max(later.0); // a join: max is order-insensitive
///         true
///     }
/// }
///
/// let mut out = Outbox::new(2);
/// out.push(NodeId(0), Counter(1));
/// out.push(NodeId(1), Counter(5));
/// out.push(NodeId(0), Counter(3)); // absorbed into the first message
/// assert_eq!(out.len(), 2);
/// assert_eq!(out.coalesced(), 1);
/// let sent: Vec<u64> = out.drain().map(|(_, m)| m.0).collect();
/// assert_eq!(sent, vec![3, 5]);
/// ```
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(NodeId, M)>,
    /// `(epoch, index)` of the last pending message per destination;
    /// entries from older epochs are stale, so draining never needs to
    /// clear this vector.
    last: Vec<(u64, usize)>,
    epoch: u64,
    coalesced: u64,
}

impl<M: ProtoMsg> Outbox<M> {
    /// An empty outbox for a system of `n` destinations.
    pub fn new(n: usize) -> Self {
        Outbox {
            msgs: Vec::new(),
            last: vec![(0, 0); n],
            epoch: 1,
            coalesced: 0,
        }
    }

    /// Queues `msg` for `to`, first offering it to the last message still
    /// pending for `to` (if any) via [`ProtoMsg::try_coalesce`].
    pub fn push(&mut self, to: NodeId, msg: M) {
        let (epoch, idx) = self.last[to.index()];
        if epoch == self.epoch {
            if let Some((_, prev)) = self.msgs.get_mut(idx) {
                if prev.try_coalesce(&msg) {
                    self.coalesced += 1;
                    return;
                }
            }
        }
        self.last[to.index()] = (self.epoch, self.msgs.len());
        self.msgs.push((to, msg));
    }

    /// Drains the pending messages in queueing order, keeping the
    /// allocations for the next batch.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (NodeId, M)> {
        self.epoch += 1;
        self.msgs.drain(..)
    }

    /// Number of distinct wire messages currently pending.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Messages absorbed into an earlier one since construction (the
    /// channel-hop savings counter).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgKind;

    /// Coalesces only with equal tag (models "same kind, same ssn").
    #[derive(Clone, Debug, PartialEq)]
    struct Tag(u64, u64);
    impl ProtoMsg for Tag {
        fn kind(&self) -> MsgKind {
            MsgKind::Gossip
        }
        fn size_bits(&self, _nu: u32) -> u64 {
            64
        }
        fn try_coalesce(&mut self, later: &Self) -> bool {
            if self.0 == later.0 {
                self.1 = self.1.max(later.1);
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn coalesces_only_consecutive_same_destination() {
        let mut out = Outbox::new(3);
        out.push(NodeId(0), Tag(1, 1));
        out.push(NodeId(0), Tag(1, 2)); // merges
        out.push(NodeId(0), Tag(2, 3)); // different tag: new message
        out.push(NodeId(1), Tag(1, 9));
        out.push(NodeId(0), Tag(2, 4)); // merges with the Tag(2, ·)
        assert_eq!(out.len(), 3);
        assert_eq!(out.coalesced(), 2);
        let sent: Vec<(NodeId, Tag)> = out.drain().collect();
        assert_eq!(
            sent,
            vec![
                (NodeId(0), Tag(1, 2)),
                (NodeId(0), Tag(2, 4)),
                (NodeId(1), Tag(1, 9)),
            ]
        );
    }

    #[test]
    fn drain_resets_tracking_without_clearing() {
        let mut out = Outbox::new(2);
        out.push(NodeId(1), Tag(1, 1));
        assert_eq!(out.drain().count(), 1);
        // Same destination in the next batch must NOT merge into the
        // already-drained message.
        out.push(NodeId(1), Tag(1, 5));
        assert_eq!(out.len(), 1);
        assert_eq!(out.coalesced(), 0);
        assert_eq!(out.drain().next(), Some((NodeId(1), Tag(1, 5))));
    }
}
