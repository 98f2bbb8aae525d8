//! The engine's per-step buffer of peer sends.
//!
//! When a node applies a whole inbox backlog as one protocol step it
//! queues that step's peer sends in an [`Outbox`] and flushes them
//! together — through the link model under one lock, then onto the wire
//! in one pass. Every message travels, in push order: like the paper's
//! channels and the simulator, the runtime never merges two messages.
//!
//! The buffer is designed for reuse on a hot loop: draining keeps the
//! allocation.

use crate::NodeId;

/// A reusable, ordered send buffer (see the module docs).
///
/// ```
/// use sss_types::{NodeId, Outbox};
///
/// let mut out = Outbox::new(2);
/// out.push(NodeId(0), 1u64);
/// out.push(NodeId(1), 5);
/// out.push(NodeId(0), 3);
/// let sent: Vec<(NodeId, u64)> = out.drain().collect();
/// assert_eq!(sent, vec![(NodeId(0), 1), (NodeId(1), 5), (NodeId(0), 3)]);
/// assert!(out.is_empty());
/// ```
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(NodeId, M)>,
}

impl<M> Outbox<M> {
    /// An empty outbox. `_n`, the number of destinations, is unused; the
    /// signature stays because the benchmark's
    /// `types.outbox.push_drain_ns` micro-benchmark calls `Outbox::new(n)`.
    pub fn new(_n: usize) -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Queues `msg` for `to`, after everything already pending.
    pub fn push(&mut self, to: NodeId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Drains the pending messages in push order, keeping the allocation
    /// for the next step.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (NodeId, M)> {
        self.msgs.drain(..)
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}
