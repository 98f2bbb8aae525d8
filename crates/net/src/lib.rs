//! The shared fault plane: one link/scenario model consumed by **both**
//! execution backends (the deterministic simulator `sss-sim` and the
//! threaded runtime `sss-runtime`).
//!
//! The paper's claims — O(1) asynchronous-cycle recovery, gossip
//! cleanup, bounded-counter reset — are statements about behavior *under
//! faults*. They only mean something experimentally when the same
//! adversary can be replayed across execution models. This crate makes
//! that possible:
//!
//! * [`LinkModel`] — per-directed-link delay/loss/duplication/capacity
//!   decisions drawn from per-link seeded RNG streams, plus the
//!   link-down matrix used for partitions. Both backends route every
//!   send through [`LinkModel::on_send`] and account drops identically.
//! * [`FaultPlan`] — a declarative, time-ordered schedule of crashes,
//!   resumes, detectable restarts, transient corruptions, group-based
//!   partitions, heals and single-link cuts. Times are in **model
//!   microseconds**; the simulator interprets them as virtual time, the
//!   threaded runtime scales them onto the wall clock.
//! * [`Process`] — one protocol instance under the fault model: the one
//!   place a node-scoped [`FaultEvent`] is applied, traced and probed, and
//!   the sender-side Byzantine rewrite ([`ByzState`]).
//!   [`LinkModel::apply_fault`] is its link-scoped twin. The simulator
//!   and the node engine step the same `Process`; each keeps only its
//!   timing model.
//! * [`Backend`] — `run_traced(plan, workload, tracer) -> RunReport`:
//!   the interface experiment bins use to replay one scenario on either
//!   backend, with structured `sss_obs` trace events emitted along the
//!   way (or [`Backend::run`] for an untraced run).
//!
//! Corruption is seeded *by the plan* ([`FaultPlan::corruption_seed`]),
//! so the "arbitrary" post-fault state is identical across backends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod byz;
mod link;
mod plan;
mod process;

pub use backend::{unique_value, Backend, NodeProbe, RunReport, RunStats, WorkloadSpec};
pub use byz::ByzState;
pub use link::{cut_matrix, DropReason, LinkConfig, LinkModel, LinkVerdict};
pub use plan::{FaultEvent, FaultPlan, PlanError};
pub use process::Process;
pub use sss_types::ByzBehavior;

/// SplitMix64-style seed mixing: derives an independent, well-distributed
/// sub-seed from `(seed, salt)`. This is the one hash every seeded
/// component in the workspace derives its sub-streams from — per-link
/// RNG streams, per-node workload sequences, per-shard cluster seeds and
/// the service layer's consistent-hash ring all agree on it, so a
/// scenario seed means the same thing everywhere.
pub fn mix64(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Model time, in microseconds. Identical to `sss_sim::SimTime`; the
/// threaded runtime maps it onto the wall clock via its round interval.
pub type ModelTime = u64;

/// The round interval, in model microseconds, that [`FaultPlan`] times
/// are calibrated against (the simulator's `SimConfig::small` interval).
/// A backend whose real round interval differs scales plan times by
/// `real_interval / MODEL_ROUND_US`.
pub const MODEL_ROUND_US: u64 = 100;

/// How many asynchronous cycles a run must observe after the later of a
/// node's last corruption and its last revival before a missing
/// `Stabilized` probe counts as a violation rather than an inconclusive
/// run. The paper's recovery bounds are `O(1)` cycles; this leaves a
/// generous margin above them. The simulator backend runs this many
/// cycles past a plan's last event, so every planned fault is judgeable.
pub const CYCLES_TO_JUDGE: u64 = 12;
