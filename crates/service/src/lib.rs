//! Sharded snapshot service: a front end that scales the paper's
//! fixed-size snapshot groups to a large keyspace and client population.
//!
//! A single self-stabilizing snapshot object (Algorithm 1 or 3) is an
//! *n*-process group: every process holds one register, every snapshot
//! covers all *n*, and gossip is O(n²) — so one group cannot absorb an
//! arbitrarily large keyspace. This crate composes many **independent**
//! groups behind a consistent-hash router:
//!
//! * [`Ring`] — maps each key to exactly one shard (group); adding or
//!   removing a shard remaps only the keys that must move.
//! * [`Service`] — the threaded front end: one
//!   [`sss_runtime::Cluster`] per shard, each with a group-commit
//!   batcher thread that collapses the writes queued for a register
//!   into a single protocol operation per flush and answers all queued
//!   snapshot requests from one snapshot operation. Admission is
//!   bounded per shard ([`ServiceError::Overloaded`]) and the
//!   runtime's failure detector fails a downed shard fast
//!   ([`ServiceError::Unavailable`]) without touching its neighbors.
//! * [`SimService`] — the same sharded composition over deterministic
//!   virtual-time [`sss_sim::Sim`] instances, each driven by the same
//!   demand-driven batcher and collapse rule in virtual time; a shard's
//!   execution is a pure function of its own seed and submissions, so
//!   per-shard trace hashes are reproducible (the golden test pins them).
//!
//! Cross-shard semantics: keys on different shards live in *different*
//! snapshot objects. Writes and snapshots are linearizable **per
//! shard** (per group, exactly as in the paper); the service makes no
//! ordering claim across shards. That is the price of horizontal
//! scale, and the reason the router must be deterministic: a key's
//! history stays within one group for the group's lifetime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commit;
mod ring;
mod service;
mod shard;
mod sim;

pub use ring::Ring;
pub use service::{Service, ServiceConfig, Ticket};
pub use shard::{ShardConfig, ShardStats};
pub use sim::{SimService, SimServiceConfig};

use sss_types::SnapshotView;

/// A completed service operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceReply {
    /// The write was folded into a flushed batch whose protocol
    /// operation completed.
    WriteDone,
    /// The snapshot view answering every snapshot request in the flush.
    Snapshot(SnapshotView),
}

/// Why the service refused or failed an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The key's shard has `queue_cap` requests already admitted and
    /// unflushed; shed load or retry later. Fail-fast by design: the
    /// bounded queue is what keeps one hot shard from absorbing
    /// unbounded memory while its neighbors idle.
    Overloaded {
        /// The saturated shard.
        shard: usize,
    },
    /// The key's shard cannot reach a majority of its group (crashed
    /// nodes, or peers silent for the suspicion window's worth of
    /// rounds). Raised at admission while the runtime's failure
    /// detector sees no node of the group reach a majority, and by the
    /// batcher for admitted requests whose protocol operation the
    /// detector indicts or that outlive the cluster's `op_timeout`. A
    /// failed reply means *uncertain*, not *not executed*: a write that
    /// reached the group before the outage may still take effect.
    Unavailable {
        /// The downed shard.
        shard: usize,
    },
    /// The service (or this shard) has shut down.
    Shutdown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { shard } => {
                write!(f, "shard {shard} admission queue is full")
            }
            ServiceError::Unavailable { shard } => {
                write!(f, "shard {shard} cannot reach a majority of its group")
            }
            ServiceError::Shutdown => write!(f, "service has shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a [`Ticket`] resolves to.
pub type ServiceResult = Result<ServiceReply, ServiceError>;
