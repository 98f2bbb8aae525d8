//! Self-stabilizing snapshot objects for asynchronous failure-prone
//! networked systems.
//!
//! This crate implements the two algorithms contributed by Georgiou,
//! Lundström and Schiller (PODC 2019), plus the Section 5 bounded-counter
//! construction:
//!
//! * [`Alg1`] — the **self-stabilizing non-blocking** snapshot object
//!   (the paper's Algorithm 1). `write(v)` always terminates; `snapshot()`
//!   terminates once concurrent writes cease. Each operation costs `O(n)`
//!   messages of `O(ν·n)` bits; self-stabilization adds `O(n²)` gossip
//!   messages of `O(ν)` bits per asynchronous cycle and recovers from
//!   transient faults within `O(1)` cycles (Theorem 1). The paper's boxed
//!   self-stabilization lines are its [`Boxes`] type parameter:
//!   `Alg1<Original>` runs none of them and is Delporte-Gallet et al.'s
//!   original algorithm.
//!
//! * [`Alg3`] — the **self-stabilizing always-terminating** snapshot
//!   object (the paper's Algorithm 3). Both operations always terminate.
//!   The input parameter `δ` trades snapshot latency against communication:
//!   with `δ = 0` every snapshot is helped by all nodes immediately
//!   (`O(n²)` messages, like Delporte-Gallet et al.'s Algorithm 2); with
//!   `δ > 0` a snapshot first runs alone (`O(n)` messages) and only after
//!   observing `δ` concurrent writes does it recruit all nodes and
//!   temporarily block writes — an `O(δ)`-cycle latency bound (Theorem 3).
//!
//! * [`Bounded`] — wraps either algorithm with the Section 5 construction:
//!   once any operation index reaches `MAXINT`, new operations are
//!   disabled, maximal indices are gossiped until they agree everywhere,
//!   and a consensus-based **global reset** wraps the counters while
//!   preserving register contents.
//!
//! All three implement [`sss_types::Protocol`] and run unchanged under the
//! deterministic simulator (`sss-sim`) and the threaded runtime
//! (`sss-runtime`).
//!
//! Algorithms 1 and 3 compose one [`WriteHalf`]: Algorithm 3's
//! `baseWrite` is Algorithm 1's write, with the same `merge` macro, `ts`
//! floor, gossip and `WRITE` server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alg1;
mod alg3;
mod bounded;
mod reset;
mod wire_impls;
mod write;

pub use alg1::{Alg1, Alg1Msg};
pub use alg3::{Alg3, Alg3Config, Alg3Msg, PndEntry, SaveEntry, TaskRef};
pub use bounded::{Bounded, BoundedConfig, BoundedMsg, HasIndices};
pub use reset::{ResetMsg, ResetState};
pub use write::{Boxes, Original, SelfStabilizing, WriteHalf};
