//! Quorum-communication building blocks.
//!
//! The paper's system settings assume "each node has access to a quorum
//! service … that deals with packet loss, reordering, and duplication".
//! This crate provides that service as a set of composable pieces the
//! protocol crates embed:
//!
//! * [`AckTracker`] — collects acknowledgements for the current *attempt*
//!   of a `repeat broadcast … until majority` loop, rejecting replies whose
//!   tag (e.g. `ssn`) does not match, exactly like Algorithm 1's client
//!   side ignores `SNAPSHOTack` messages with stale `ssn` values;
//! * [`ReliableBroadcast`] — the `reliableBroadcast` primitive used by
//!   Delporte-Gallet et al.'s Algorithm 2 (flood + per-receiver
//!   acknowledgement + forwarding by every deliverer), which guarantees
//!   all-or-nothing delivery among correct nodes at `O(n²)` messages per
//!   broadcast — the cost the paper's Algorithm 3 deliberately avoids by
//!   using safe registers instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ack;
mod rb;

pub use ack::AckTracker;
pub use rb::{RbId, RbMsg, ReliableBroadcast};
