//! The unified trace plane: structured protocol events, a tracer, and
//! pluggable sinks, shared by **every** execution backend.
//!
//! The paper's claims are *trajectory* claims — who sent what in which
//! asynchronous cycle, and how many cycles recovery from a transient
//! fault takes (§2's cycle accounting, Figures 1–3). Aggregate counters
//! cannot answer those questions; this crate makes the trajectory itself
//! observable:
//!
//! * [`TraceEvent`] — the protocol lifecycle as structured events:
//!   operation invoke/complete/abort (with [`OpClass`]), message
//!   send/deliver/drop (with [`MsgKind`] and encoded bits), fault-plan
//!   injections, asynchronous-cycle boundaries, and the [`Stabilized`]
//!   probe a backend emits when a node's post-corruption state
//!   re-converges;
//! * [`FaultState`] — the one per-node fault-state machine (crashed,
//!   Byzantine, tainted since, revived at, epoch) that every reader of
//!   the fault stream shares, from the plan validator to the ops plane;
//! * [`Tracer`] — the cheap, cloneable handle both backends emit
//!   through: a sequence number plus its sinks. A disabled tracer is a
//!   null pointer: [`Tracer::is_on`] is one branch and no event is ever
//!   constructed, so tracing is zero-cost when off;
//! * [`TraceSink`]s, called under the tracer's emission lock: the
//!   in-memory [`MemorySink`] for tests and experiments;
//! * the **live ops plane**: [`OpsPlane`]'s sink folds each record, as
//!   it is emitted, into rolling per-node health / stabilization /
//!   quorum / latency state ([`ClusterMetrics`], the [`metrics`]
//!   module); the [`dash`] module renders it as a dependency-free ANSI
//!   terminal dashboard, and [`http`] serves it as `/node_info`,
//!   `/metrics` (Prometheus text), and `/shards` endpoints.
//!
//! Because the simulator and the threaded runtime emit the same schema
//! through the same handle (threaded via `sss_net::Backend::run_traced`),
//! one fault plan yields *comparable logical traces* on both execution
//! models: same kinds, same sources and destinations, timestamps in
//! model microseconds on both (virtual time for the simulator, scaled
//! wall time for threads).
//!
//! [`Stabilized`]: TraceEvent::Stabilized
//! [`OpClass`]: sss_types::OpClass
//! [`MsgKind`]: sss_types::MsgKind

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
mod faults;
mod jsonv;
mod sink;
mod stats;
mod tracer;

pub mod dash;
pub mod http;
pub mod metrics;

pub use event::{DropCause, FaultKind, TraceEvent, TraceRecord, TraceTime};
pub use faults::{EpochRegression, FaultState, IllegalFault, NodeFaults, RecoveryEpisode, Taint};
pub use http::OpsHttpServer;
pub use jsonv::{escape_json, JsonValue};
pub use metrics::{ClusterMetrics, FeedEntry, NodeMetrics, OpsPlane, ShardGauge};
pub use sink::{MemorySink, TraceBuffer, TraceSink};
pub use stats::{LatencyHistogram, LatencySummary};
pub use tracer::Tracer;
