//! The structured event schema of the trace plane.

use sss_types::{MsgKind, NodeId, OpClass, OpId};

/// Trace timestamps, in **model microseconds** — virtual time on the
/// simulator, wall time scaled by the round interval on the threaded
/// runtime (see `sss_net::MODEL_ROUND_US`), so traces from the two
/// backends line up on one axis.
pub type TraceTime = u64;

/// Why a message never reached its receiver's protocol state machine.
///
/// The first three mirror the link model's drop verdicts; `Crashed` is
/// the receiver-side case (the message left the channel but the node was
/// crashed), which both backends account as a drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// The directed link is cut (partition or explicit link-down).
    LinkDown,
    /// The link model's loss coin came up.
    Loss,
    /// The link's in-flight capacity was exhausted.
    Capacity,
    /// The receiver was crashed when the message arrived.
    Crashed,
}

impl DropCause {
    /// A short lowercase label for serialization.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::LinkDown => "link_down",
            DropCause::Loss => "loss",
            DropCause::Capacity => "capacity",
            DropCause::Crashed => "crashed",
        }
    }
}

/// Which fault-plane injection a [`TraceEvent::Fault`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Node stops taking steps (undetectably).
    Crash,
    /// Node resumes with state intact.
    Resume,
    /// Detectable restart: variables re-initialized.
    Restart,
    /// Transient fault: soft state replaced with arbitrary values.
    Corrupt,
    /// Group-based partition applied.
    Partition,
    /// Every link restored.
    Heal,
    /// One directed link restored.
    LinkUp,
    /// One directed link cut.
    LinkDown,
    /// Node turned Byzantine: its outgoing messages are now rewritten
    /// (equivocation, stale replay, or index inflation).
    Byzantine,
    /// Node behaves honestly again (clears a `Byzantine` injection).
    Honest,
}

impl FaultKind {
    /// A short lowercase label for serialization.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Resume => "resume",
            FaultKind::Restart => "restart",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Partition => "partition",
            FaultKind::Heal => "heal",
            FaultKind::LinkUp => "link_up",
            FaultKind::LinkDown => "link_down",
            FaultKind::Byzantine => "byzantine",
            FaultKind::Honest => "honest",
        }
    }
}

/// One structured protocol-lifecycle event.
///
/// The schema covers everything the paper's figures and theorems talk
/// about: client-boundary operations, the message plane, injected
/// faults, asynchronous-cycle boundaries, and the stabilization probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An operation was invoked at `node`.
    OpInvoke {
        /// The invoking node.
        node: NodeId,
        /// The driver-assigned operation id.
        id: OpId,
        /// Write or snapshot.
        class: OpClass,
    },
    /// An operation completed at `node`.
    OpComplete {
        /// The node the operation ran at.
        node: NodeId,
        /// The operation id.
        id: OpId,
        /// Write or snapshot.
        class: OpClass,
    },
    /// An operation was aborted by a global reset at `node`.
    OpAbort {
        /// The node the operation ran at.
        node: NodeId,
        /// The operation id.
        id: OpId,
    },
    /// A message was handed to the network.
    Send {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Message classification.
        kind: MsgKind,
        /// Encoded size in bits (the paper's accounting).
        bits: u64,
    },
    /// A message reached its receiver's protocol state machine.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Message classification.
        kind: MsgKind,
    },
    /// A message was dropped.
    Drop {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Message classification.
        kind: MsgKind,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// A fault-plane injection fired.
    Fault {
        /// What was injected.
        kind: FaultKind,
        /// The affected node (`None` for global events: partitions and
        /// heals).
        node: Option<NodeId>,
        /// The receiver side for link events.
        peer: Option<NodeId>,
    },
    /// An asynchronous-cycle boundary was reached (§2's time unit).
    CycleEnd {
        /// Zero-based index of the completed cycle.
        index: u64,
    },
    /// `node`'s post-corruption state re-converged: its local portion of
    /// the algorithm's consistency invariants holds again. Emitted once
    /// per corruption, the first time the probe passes after the fault.
    Stabilized {
        /// The recovered node.
        node: NodeId,
    },
    /// A bounded-counter probe changed at `node`: its global-reset epoch
    /// advanced (a Section 5 reset installed) and/or its stale-epoch
    /// discard counter grew (the epoch envelope rejected replays).
    /// Emitted by drivers that poll `Protocol::epoch_probe` after each
    /// step; never emitted for protocols without an epoch envelope.
    EpochChange {
        /// The node whose probe changed.
        node: NodeId,
        /// Its current global-reset epoch.
        epoch: u64,
        /// Its cumulative count of stale-epoch discards.
        stale_dropped: u64,
    },
    /// A node drained an inbox backlog and applied it as one protocol
    /// step (threaded runtime's batched message path). Makes batch sizes
    /// and coalescing rates observable per wakeup.
    BatchDrain {
        /// The draining node.
        node: NodeId,
        /// Data-plane messages applied in this batch.
        drained: u32,
        /// Outgoing messages absorbed into earlier ones by per-link
        /// coalescing when this batch's sends were flushed.
        coalesced: u32,
    },
}

/// One emitted event with its global sequence number and timestamp.
///
/// Sequence numbers are assigned in emission order under one lock, so a
/// trace's records are totally ordered even when the threaded runtime
/// emits from many threads at once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global emission sequence number (dense from 0).
    pub seq: u64,
    /// Model-microsecond timestamp (see [`TraceTime`]).
    pub at: TraceTime,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(DropCause::LinkDown.label(), "link_down");
        assert_eq!(FaultKind::Corrupt.label(), "corrupt");
    }
}
