//! The adversarial chaos engine: strategy-driven fault-plan fuzzing
//! with a self-stabilization oracle and a delta-debugging shrinker.
//!
//! The repo's fault plane ([`sss_net::FaultPlan`]) makes fault schedules
//! declarative and backend-portable; this crate makes them *adversarial*:
//!
//! * [`StrategyKind`] — pluggable seeded adversaries that generate
//!   `(FaultPlan, WorkloadSpec)` pairs, from uniform-random over the full
//!   fault vocabulary to targeted attacks (quorum-loss crash waves,
//!   oscillating partitions, corruption storms, eclipsing the writer).
//!   Every generated plan passes [`sss_net::FaultPlan::validate`] and
//!   ends with a quiesce suffix (heal + resume) so the oracle can judge
//!   convergence;
//! * [`judge`] — each run is judged twice: the linearizability checker
//!   over the client-boundary history (on corruption-free plans — a
//!   corrupted register legitimately holds never-written values, so only
//!   stabilization is judged there, Dijkstra's criterion), and a
//!   self-stabilization oracle over the structured trace: every
//!   `Corrupt` injection must eventually be followed by that node's
//!   [`Stabilized`](sss_obs::TraceEvent::Stabilized) probe once faults
//!   quiesce, with a cycle-counting conclusiveness rule so slow runs are
//!   reported `inconclusive` rather than falsely failed;
//! * [`shrink`] — a failing plan is delta-debugged to a minimal
//!   reproducer: greedy event-chunk removal with schedule repair, then
//!   time compaction, re-validated and re-verified at every step;
//! * [`Fixture`] — shrunk reproducers serialize as committable,
//!   human-readable JSON that replays deterministically
//!   (`tests/fixtures/chaos/`);
//! * the **adversary plane** — [`StrategyKind::ADVERSARIAL`] races §5's
//!   global reset against wraparound seeding (`counter-exhaustion`) and
//!   fields `1..=f` lying nodes (`byzantine-storm`); the oracle then
//!   judges linearizability on the honest sub-history only and audits
//!   which reset-plane invariants held in an [`InvariantSurvival`]
//!   report (broken entries are listed, never panicked on, and only
//!   escalate to violations on fault-only plans).
//!
//! The engine ([`run_campaign`]) sweeps strategies × seeds across both
//! execution backends — the deterministic simulator and the threaded
//! runtime — through the same scenario definitions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod fixture;
mod oracle;
mod shrink;
mod strategy;

pub use engine::{
    bounded_alg1, cluster_config, run_campaign, run_case_sim, run_case_threads, shrink_case_sim,
    sim_config, BackendChoice, CampaignConfig, CampaignReport, CaseOutcome, Finding,
};
pub use fixture::Fixture;
pub use oracle::{
    byzantine_nodes, judge, ChaosViolation, InvariantSurvival, OracleReport,
    INV_EPOCH_MONOTONICITY, INV_NO_STALE_EPOCH_LEAK, INV_POST_RESET_LINEARIZABILITY,
    INV_RESET_TERMINATION,
};
pub use shrink::{shrink, ShrinkOutcome};
pub use strategy::{Scenario, StrategyKind};
