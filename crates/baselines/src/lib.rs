//! Comparison baselines for the self-stabilizing snapshot algorithms.
//!
//! Three protocols, all implementing [`sss_types::Protocol`] so the same
//! simulator, workloads and benches drive them:
//!
//! * [`Dgfr1`] — Delporte-Gallet, Fauconnier, Rajsbaum & Raynal's
//!   **non-blocking** algorithm: `sss_core::Alg1<Original>`, the paper's
//!   Algorithm 1 with none of the boxed self-stabilization lines (no
//!   gossip, no `ts` floor, no `ts` repair in `merge`). Same code, same
//!   messages, on every backend. Crash-tolerant but not
//!   transient-fault-tolerant.
//!
//! * [`Dgfr2`] — their **always-terminating** algorithm (the paper's
//!   Algorithm 2): snapshot tasks are reliably broadcast, every node helps
//!   the oldest task, results return via reliably-broadcast `END`
//!   messages. `O(n²)` messages per snapshot, one task at a time.
//!
//! Both of Delporte-Gallet et al.'s algorithms write through the write
//! half the paper's algorithms share, `sss_core::WriteHalf<Original>`:
//! `Dgfr1` inside `Alg1<Original>`, `Dgfr2` directly.
//!
//! * [`Stacked`] — the "stacking" approach the related-work section costs
//!   at ~`8n` messages and 4 round trips per snapshot: an ABD-style
//!   emulation of SWMR registers over message passing, with a
//!   double-collect snapshot layered on top. Serves experiment E11.
//!
//! None of these recover from transient faults — that is the paper's
//! point — and the recovery experiments demonstrate exactly that failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dgfr2;
mod stacked;

use sss_core::{Alg1, Original};

/// Delporte-Gallet et al.'s non-blocking snapshot object: Algorithm 1
/// without the boxed lines. Build instances with `Dgfr1::init(id, n)`.
pub type Dgfr1 = Alg1<Original>;

pub use dgfr2::{Dgfr2, Dgfr2Msg, SnapTask};
pub use stacked::{Stacked, StackedMsg};
