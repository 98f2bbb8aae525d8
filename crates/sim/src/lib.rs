//! A deterministic discrete-event simulator of the paper's system model:
//! an asynchronous message-passing network of `n` crash-prone nodes with
//! fair-lossy, duplicating, reordering, bounded-capacity channels — plus the
//! transient-fault injection that self-stabilization is about.
//!
//! The simulator plays the role of the system model in Section 2 of
//! *"Self-Stabilizing Snapshot Objects for Asynchronous Failure-Prone
//! Networked Systems"*:
//!
//! * **Asynchrony** — per-link message delays are drawn from a seeded RNG;
//!   there is no bound the protocols may rely on.
//! * **Fair communication** — a message sent infinitely often is received
//!   infinitely often: losses are independent coin flips, and the protocols
//!   themselves retransmit every round, exactly like the pseudo-code's
//!   `repeat broadcast … until` loops.
//! * **Crash / resume / detectable restart** — the three node-failure
//!   flavours of the paper's fault model.
//! * **Transient faults** — [`Sim::corrupt_node_now`] hands the node's whole
//!   state to the protocol's `corrupt` hook, and
//!   [`Sim::corrupt_channels_now`] replaces in-flight messages with
//!   arbitrary ones.
//! * **Asynchronous cycles** — [`CycleTracker`] measures time the way the
//!   paper's complexity claims are stated: a cycle ends once every
//!   non-failed node has completed a `do forever` iteration *and* the
//!   round-trips of the messages it sent have completed.
//!
//! Every node is an [`sss_net::Process`]: faults, their trace records,
//! the stabilization and epoch probes and the Byzantine send hook are the
//! fault plane's, shared with the threaded runtime. The simulator keeps
//! only its timing model — the event calendar, link delays and the cycle
//! tracker.
//!
//! Everything is deterministic given a seed: the event queue breaks time
//! ties by sequence number and all randomness flows from one `StdRng`.
//!
//! # Example
//!
//! ```no_run
//! use sss_sim::{Sim, SimConfig};
//! use sss_types::{SnapshotOp, NodeId};
//! # fn demo<P: sss_types::Protocol>(mk: impl FnMut(NodeId) -> P) {
//! let mut sim = Sim::new(SimConfig::small(3), mk);
//! sim.invoke_at(0, NodeId(0), SnapshotOp::Write(7));
//! sim.run_until(1_000_000);
//! assert!(sim.history().completed().count() >= 1);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod cycles;
mod event;
mod metrics;
mod runner;

pub use backend::SimBackend;
pub use config::{NetConfig, SimConfig};
pub use cycles::CycleTracker;
pub use metrics::{KindCounter, LatencyHistogram, LatencySummary, Metrics, MetricsDelta, OpClass};
pub use runner::{Ctl, Driver, NoDriver, Sim};
// Re-export the shared fault plane and the trace plane so simulator
// users need only one import.
pub use sss_net::{Backend, FaultEvent, FaultPlan, RunReport, RunStats, WorkloadSpec};
pub use sss_obs::{DropCause, FaultKind, MemorySink, TraceBuffer, TraceEvent, TraceRecord, Tracer};

/// Virtual time, in microseconds since the start of the run.
pub type SimTime = u64;
