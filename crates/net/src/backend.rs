//! The backend abstraction: run one `(FaultPlan, WorkloadSpec)` scenario
//! on some execution model and get back a checkable [`History`].

use crate::{FaultPlan, ModelTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_obs::Tracer;
use sss_types::{History, NodeId, Protocol, SnapshotOp, Value};

/// Encodes a globally unique write value for `node`'s `seq`-th write.
///
/// Uniqueness across nodes and sequences is what lets the
/// linearizability checker treat histories as black boxes.
pub fn unique_value(node: NodeId, seq: u64) -> Value {
    ((node.index() as u64 + 1) << 40) | seq
}

/// A deterministic per-node workload: each node executes a seeded
/// sequence of writes and snapshots, closed-loop, with think times
/// between operations and a per-operation timeout after which the
/// client moves on (the operation stays pending in the history).
///
/// Both backends derive **the same** per-node operation sequence from a
/// spec, so a scenario is comparable across execution models.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of operations each node performs.
    pub ops_per_node: usize,
    /// Probability that an operation is a write (vs a snapshot).
    pub write_ratio: f64,
    /// Uniform think-time range before each operation, in model
    /// microseconds.
    pub think: (ModelTime, ModelTime),
    /// RNG seed for operation choice and think times.
    pub seed: u64,
    /// Per-operation client timeout, in model microseconds; on expiry
    /// the client abandons the operation (it stays pending) and issues
    /// its next one.
    pub op_timeout: ModelTime,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            ops_per_node: 10,
            write_ratio: 0.5,
            think: (0, 200),
            seed: 7,
            op_timeout: 50_000,
        }
    }
}

impl WorkloadSpec {
    /// The operation sequence for `node`: `(think_before, op)` pairs.
    /// Pure function of `(spec, node)` — identical on every backend.
    pub fn ops_for(&self, node: NodeId) -> Vec<(ModelTime, SnapshotOp)> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, node.index() as u64));
        let (lo, hi) = self.think;
        let mut seq = 0u64;
        (0..self.ops_per_node)
            .map(|_| {
                let think = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                let op = if rng.gen_bool(self.write_ratio) {
                    seq += 1;
                    SnapshotOp::Write(unique_value(node, seq))
                } else {
                    SnapshotOp::Snapshot
                };
                (think, op)
            })
            .collect()
    }

    /// Total operations the spec issues across `n` nodes.
    pub fn total_ops(&self, n: usize) -> usize {
        self.ops_per_node * n
    }
}

/// Aggregate outcome counters a backend reports alongside the history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Operations that completed at the client boundary.
    pub ops_completed: u64,
    /// Operations the client abandoned on timeout (still pending in the
    /// history).
    pub ops_timed_out: u64,
    /// Operations failed fast by the failure detector because the
    /// contacted node could not reach a majority (threaded runtime's
    /// `ClusterError::Unavailable`; always 0 on the simulator, whose
    /// clients wait out their full virtual-time timeout).
    pub ops_unavailable: u64,
    /// Messages dropped by the link model (loss, capacity, partition)
    /// or by crashed receivers.
    pub messages_dropped: u64,
    /// Model time the run covered, in model microseconds (virtual time
    /// for the simulator; scaled wall time for threads).
    pub model_time: ModelTime,
}

/// End-of-run bounded-counter probes for one node. All-default for
/// protocols without an epoch envelope (`epoch_probe() == None`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeProbe {
    /// The node's global-reset epoch when the run ended.
    pub epoch: u64,
    /// Whether a global reset was still in progress at the end.
    pub wrapping: bool,
    /// Whether the node's local invariants held at the end.
    pub invariants_ok: bool,
    /// Inner messages the node's epoch envelope discarded over the run.
    pub stale_epoch_dropped: u64,
}

impl NodeProbe {
    /// Samples `p`'s end-of-run state.
    pub fn of<P: Protocol>(p: &P) -> Self {
        NodeProbe {
            epoch: p.epoch_probe().unwrap_or(0),
            wrapping: p.wrapping_probe(),
            invariants_ok: p.local_invariants_hold(),
            stale_epoch_dropped: p.stats().stale_epoch_dropped,
        }
    }
}

/// What a backend returns for one scenario run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Which backend produced this (e.g. `"sim"`, `"threads"`).
    pub backend: &'static str,
    /// The client-boundary history, checkable by `sss-checker`.
    pub history: History,
    /// Outcome counters.
    pub stats: RunStats,
    /// Per-node end-of-run probes, indexed by node id (empty when the
    /// backend cannot sample final protocol state).
    pub probes: Vec<NodeProbe>,
}

/// An execution model that can replay a fault plan under a workload.
///
/// Implementations: `sss_sim::SimBackend` (deterministic virtual time)
/// and `sss_runtime::ThreadBackend` (real threads, wall clock). Both
/// interpret the plan through the same [`crate::LinkModel`] /
/// [`crate::cut_matrix`] semantics, so a scenario means the same thing
/// everywhere — modulo virtual vs. wall-clock time.
pub trait Backend {
    /// A short stable name for reports and `--backend` flags.
    fn label(&self) -> &'static str;

    /// Replays `plan` while `workload` runs, emitting structured trace
    /// events through `tracer` (which may be [`Tracer::off`]), and
    /// returns the recorded history and outcome counters.
    ///
    /// Both backends emit the same `sss_obs::TraceEvent` schema with
    /// model-microsecond timestamps, so one scenario yields comparable
    /// logical traces across execution models.
    fn run_traced(
        &mut self,
        plan: &FaultPlan,
        workload: &WorkloadSpec,
        tracer: &Tracer,
    ) -> RunReport;

    /// [`Backend::run_traced`] with tracing disabled.
    fn run(&mut self, plan: &FaultPlan, workload: &WorkloadSpec) -> RunReport {
        self.run_traced(plan, workload, &Tracer::off())
    }
}

use crate::mix64 as mix;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_values_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for node in 0..8 {
            for seq in 1..100 {
                assert!(seen.insert(unique_value(NodeId(node), seq)));
            }
        }
    }

    #[test]
    fn ops_for_is_deterministic_and_per_node() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.ops_for(NodeId(0)), spec.ops_for(NodeId(0)));
        assert_ne!(
            spec.ops_for(NodeId(0)),
            spec.ops_for(NodeId(1)),
            "different nodes draw different sequences"
        );
        assert_eq!(spec.ops_for(NodeId(2)).len(), spec.ops_per_node);
    }

    #[test]
    fn ops_respect_think_range_and_ratio_extremes() {
        let all_writes = WorkloadSpec {
            write_ratio: 1.0,
            think: (10, 20),
            ..WorkloadSpec::default()
        };
        for (think, op) in all_writes.ops_for(NodeId(1)) {
            assert!((10..=20).contains(&think));
            assert!(matches!(op, SnapshotOp::Write(_)));
        }
        let all_snaps = WorkloadSpec {
            write_ratio: 0.0,
            ..WorkloadSpec::default()
        };
        assert!(all_snaps
            .ops_for(NodeId(1))
            .iter()
            .all(|(_, op)| matches!(op, SnapshotOp::Snapshot)));
    }

    #[test]
    fn write_sequences_restart_per_node_but_values_stay_unique() {
        let spec = WorkloadSpec {
            write_ratio: 1.0,
            ..WorkloadSpec::default()
        };
        let mut seen = std::collections::HashSet::new();
        for node in 0..4 {
            for (_, op) in spec.ops_for(NodeId(node)) {
                let SnapshotOp::Write(v) = op else {
                    unreachable!()
                };
                assert!(seen.insert(v));
            }
        }
    }
}
