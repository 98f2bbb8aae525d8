//! Core value types, lattices and the protocol abstraction shared by every
//! crate in the `sss-snapshot` workspace.
//!
//! This workspace reproduces *"Self-Stabilizing Snapshot Objects for
//! Asynchronous Failure-Prone Networked Systems"* (Georgiou, Lundström,
//! Schiller; PODC 2019). The paper emulates an array of
//! single-writer/multi-reader (SWMR) shared registers — a *snapshot object*
//! — on top of an asynchronous, crash-prone message-passing system, and does
//! so in a way that also recovers from *transient faults* (arbitrary
//! corruption of all soft state).
//!
//! This crate defines:
//!
//! * [`NodeId`] — process identifiers, totally ordered as the paper requires;
//! * [`Tagged`] — a `(value, timestamp)` register pair with the paper's `⪯`
//!   relation (line 1 of Algorithm 1);
//! * [`RegArray`] — the `reg` vector every node maintains, with entrywise
//!   join (`merge`) forming a lattice;
//! * [`VectorClock`] — the timestamp-only projection used by Algorithm 3's
//!   `VC` macro;
//! * [`SnapshotOp`] / [`OpResponse`] / [`OpId`] — the client-facing operation
//!   alphabet of a snapshot object;
//! * [`Protocol`] — the event-driven state-machine interface implemented by
//!   every algorithm in the workspace (the paper's Algorithms 1–3, their
//!   non-self-stabilizing baselines, and the stacked ABD baseline), which the
//!   deterministic simulator, the linearizability checker and the threaded
//!   runtime all drive uniformly.
//!
//! # Example
//!
//! ```
//! use sss_types::{RegArray, Tagged, NodeId};
//!
//! let mut a = RegArray::bottom(3);
//! let mut b = RegArray::bottom(3);
//! a.set(NodeId(0), Tagged::new(10, 1));
//! b.set(NodeId(1), Tagged::new(20, 4));
//! a.merge_from(&b);
//! assert_eq!(a.get(NodeId(1)).ts, 4);
//! assert!(b.le(&a)); // the merge is an upper bound of both inputs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod history;
mod node;
mod op;
mod outbox;
mod payload;
mod protocol;
mod reg;
mod value;
mod vclock;
mod wire;

pub use history::{History, LatencyStats, OpRecord};
pub use node::{majority, NodeId, ProcessSet};
pub use op::{OpClass, OpId, OpResponse, SnapshotOp, SnapshotView};
pub use outbox::Outbox;
pub use payload::{clone_stats, Payload, SharedReg};
pub use protocol::{
    cell_bits, reg_array_bits, ArbitraryMsg, ByzBehavior, Effects, MsgKind, ProtoMsg, Protocol,
    ProtocolStats, INFLATED_INDEX, NU_BITS,
};
pub use reg::RegArray;
pub use value::{Tagged, Value, BOTTOM};
pub use vclock::VectorClock;
pub use wire::{
    decode_frames, encode_frame, encode_wake, DecodedFrame, FrameIter, WireError, WireMsg,
    WireReader, WireWriter, FRAME_HEADER_BYTES, MAX_DATAGRAM_BYTES, WIRE_MAGIC, WIRE_VERSION,
};
