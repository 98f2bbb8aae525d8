//! Workload generators and fault schedules for snapshot-object
//! experiments.
//!
//! Three kinds of load:
//!
//! * [`MixedDriver`] — a closed-loop driver: each participating node keeps
//!   one operation outstanding, choosing writes vs snapshots by a
//!   configurable ratio, with uniform think times. Values are globally
//!   unique (`(node, sequence)` encodings), which is what makes recorded
//!   histories black-box checkable by `sss-checker`.
//! * [`schedule_open_loop`] — pre-scheduled operations at given times
//!   (independent of completions), for overload and burst scenarios.
//! * [`FaultPlan`] — the *shared fault plane*'s declarative schedule of
//!   crashes / resumes / restarts / corruptions / partitions, re-exported
//!   from `sss-net` and applied via `Sim::apply_plan` or
//!   `Cluster::apply_plan`.
//!
//! All generators are seeded and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_sim::{Ctl, Driver, Sim, SimTime};
use sss_types::{NodeId, OpId, OpResponse, Protocol, SnapshotOp};

// The fault schedule and value encoding now live in the shared fault
// plane; re-exported here so existing experiment code keeps compiling.
pub use sss_net::{unique_value, FaultEvent, FaultPlan, WorkloadSpec};

/// Configuration of a [`MixedDriver`].
#[derive(Clone, Debug)]
pub struct MixedConfig {
    /// Number of operations each participating node performs.
    pub ops_per_node: usize,
    /// Probability that an operation is a write (vs a snapshot).
    pub write_ratio: f64,
    /// Uniform think-time range between an operation's completion and the
    /// next invocation, in virtual microseconds.
    pub think: (SimTime, SimTime),
    /// RNG seed.
    pub seed: u64,
    /// Participating nodes; `None` = all nodes.
    pub nodes: Option<Vec<NodeId>>,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig {
            ops_per_node: 10,
            write_ratio: 0.5,
            think: (0, 200),
            seed: 7,
            nodes: None,
        }
    }
}

/// A closed-loop mixed read/write driver. See the [crate docs](self).
#[derive(Debug)]
pub struct MixedDriver {
    cfg: MixedConfig,
    rng: StdRng,
    remaining: Vec<usize>,
    next_seq: Vec<u64>,
    outstanding: usize,
    /// Stop the simulation once every issued operation completed
    /// (default `true`; disable to keep simulating background gossip).
    pub stop_when_done: bool,
}

impl MixedDriver {
    /// A driver for a system of `n` nodes.
    pub fn new(n: usize, cfg: MixedConfig) -> Self {
        let mut remaining = vec![0usize; n];
        match &cfg.nodes {
            None => remaining.iter_mut().for_each(|r| *r = cfg.ops_per_node),
            Some(list) => {
                for id in list {
                    remaining[id.index()] = cfg.ops_per_node;
                }
            }
        }
        MixedDriver {
            rng: StdRng::seed_from_u64(cfg.seed),
            remaining,
            next_seq: vec![0; n],
            outstanding: 0,
            stop_when_done: true,
            cfg,
        }
    }

    fn next_op(&mut self, node: NodeId) -> Option<SnapshotOp> {
        let k = node.index();
        if self.remaining[k] == 0 {
            return None;
        }
        self.remaining[k] -= 1;
        if self.rng.gen_bool(self.cfg.write_ratio) {
            self.next_seq[k] += 1;
            Some(SnapshotOp::Write(unique_value(node, self.next_seq[k])))
        } else {
            Some(SnapshotOp::Snapshot)
        }
    }

    fn think(&mut self) -> SimTime {
        let (lo, hi) = self.cfg.think;
        if hi > lo {
            self.rng.gen_range(lo..=hi)
        } else {
            lo
        }
    }
}

impl<P: Protocol> Driver<P> for MixedDriver {
    fn init(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        for k in 0..self.remaining.len() {
            let node = NodeId(k);
            let delay = self.think();
            if let Some(op) = self.next_op(node) {
                ctl.invoke_at(delay, node, op);
                self.outstanding += 1;
            }
        }
    }

    fn on_completion(
        &mut self,
        node: NodeId,
        _id: OpId,
        _resp: &OpResponse,
        ctl: &mut Ctl<'_, P::Msg>,
    ) {
        self.outstanding -= 1;
        let delay = self.think();
        if let Some(op) = self.next_op(node) {
            ctl.invoke_at(ctl.now() + delay, node, op);
            self.outstanding += 1;
        } else if self.outstanding == 0 && self.stop_when_done {
            ctl.stop();
        }
    }
}

/// Pre-schedules `count` operations across `nodes`, uniformly over
/// `[0, horizon)`, independent of completions (open loop). Returns the
/// scheduled operation ids.
pub fn schedule_open_loop<P: Protocol>(
    sim: &mut Sim<P>,
    nodes: &[NodeId],
    count: usize,
    horizon: SimTime,
    write_ratio: f64,
    seed: u64,
) -> Vec<OpId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seqs = vec![0u64; nodes.iter().map(|n| n.index() + 1).max().unwrap_or(1)];
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let node = nodes[rng.gen_range(0..nodes.len())];
        let at = rng.gen_range(0..horizon.max(1));
        let op = if rng.gen_bool(write_ratio) {
            seqs[node.index()] += 1;
            SnapshotOp::Write(unique_value(node, seqs[node.index()]))
        } else {
            SnapshotOp::Snapshot
        };
        ids.push(sim.invoke_at(at, node, op));
    }
    ids
}

/// Pre-schedules bursts of operations: `bursts` groups of `burst_size`
/// operations each, the group starting at a random time and its members
/// packed within `spread` microseconds — an overload pattern that
/// stresses the protocols' queueing. Returns the scheduled ids.
pub fn schedule_bursts<P: Protocol>(
    sim: &mut Sim<P>,
    nodes: &[NodeId],
    bursts: usize,
    burst_size: usize,
    horizon: SimTime,
    spread: SimTime,
    seed: u64,
) -> Vec<OpId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seqs = vec![0u64; nodes.iter().map(|n| n.index() + 1).max().unwrap_or(1)];
    let mut ids = Vec::with_capacity(bursts * burst_size);
    for _ in 0..bursts {
        let start = rng.gen_range(0..horizon.max(1));
        for _ in 0..burst_size {
            let node = nodes[rng.gen_range(0..nodes.len())];
            let at = start + rng.gen_range(0..spread.max(1));
            let op = if rng.gen_bool(0.5) {
                seqs[node.index()] += 1;
                SnapshotOp::Write(unique_value(node, seqs[node.index()]))
            } else {
                SnapshotOp::Snapshot
            };
            ids.push(sim.invoke_at(at, node, op));
        }
    }
    ids
}

/// An open-loop population of keyed client sessions for the sharded
/// service layer (the benchmark's `service-open` workload and the
/// simulated service's determinism test).
///
/// Each session holds one sticky key (drawn uniformly from
/// `key_space` by hashing the session id) and issues
/// `ops_per_session` operations against it. [`SessionSpec::events`]
/// interleaves the sessions round-robin — op `r` of every session
/// precedes op `r + 1` of any session — so a million sessions are all
/// *concurrently* in flight rather than replayed one after another.
///
/// Everything is a pure function of `(spec, event index)`: no RNG
/// state threads through the iterator, so generators on different
/// backends (or different machines) agree event-for-event, which is
/// what makes the simulated service's per-shard golden hashes
/// reproducible.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Number of client sessions.
    pub sessions: u64,
    /// Operations each session issues against its key.
    pub ops_per_session: u32,
    /// Probability that an operation is a write (vs a snapshot).
    pub write_ratio: f64,
    /// Size of the keyspace the sessions draw their keys from.
    pub key_space: u64,
    /// Seed for key assignment and the write/snapshot choice.
    pub seed: u64,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            sessions: 10_000,
            ops_per_session: 1,
            write_ratio: 0.9,
            key_space: 1 << 20,
            seed: 0x5E55,
        }
    }
}

/// One generated operation of a [`SessionSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionEvent {
    /// Issuing session.
    pub session: u64,
    /// The session's sticky key.
    pub key: u64,
    /// The operation. Write values encode `(session, round)` uniquely.
    pub op: SnapshotOp,
}

impl SessionSpec {
    /// Total operations across all sessions.
    pub fn total_ops(&self) -> u64 {
        self.sessions * self.ops_per_session as u64
    }

    /// The sticky key of `session`.
    pub fn key_of(&self, session: u64) -> u64 {
        sss_net::mix64(self.seed ^ 0x4B5E_5510, session) % self.key_space.max(1)
    }

    /// The `i`-th event of the round-robin interleaving. Pure, so any
    /// subrange can be regenerated independently.
    pub fn event(&self, i: u64) -> SessionEvent {
        debug_assert!(i < self.total_ops());
        let session = i % self.sessions;
        let round = (i / self.sessions) as u32;
        let key = self.key_of(session);
        // A 53-bit uniform draw decides write vs snapshot.
        let coin = sss_net::mix64(self.seed ^ 0x0DD5_C011, i) >> 11;
        let op = if (coin as f64) < self.write_ratio * (1u64 << 53) as f64 {
            // Unique across the run: (session, round) packed into the
            // value (`ops_per_session` fits 24 bits by construction).
            SnapshotOp::Write(((session + 1) << 24) | round as u64)
        } else {
            SnapshotOp::Snapshot
        };
        SessionEvent { session, key, op }
    }

    /// All events, interleaved round-robin across sessions.
    pub fn events(&self) -> impl Iterator<Item = SessionEvent> + '_ {
        (0..self.total_ops()).map(|i| self.event(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::Alg1;
    use sss_sim::SimConfig;

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
    fn mixed_driver_issues_exactly_the_configured_ops() {
        let cfg = MixedConfig {
            ops_per_node: 5,
            write_ratio: 0.6,
            think: (0, 50),
            seed: 3,
            nodes: None,
        };
        let mut sim = Sim::new(SimConfig::small(3), |id| Alg1::new(id, 3));
        let mut driver = MixedDriver::new(3, cfg);
        sim.run_with_driver(&mut driver, 60_000_000);
        assert_eq!(sim.history().len(), 15);
        assert_eq!(sim.history().completed().count(), 15);
    }

    #[test]
    fn mixed_driver_respects_node_subset() {
        let cfg = MixedConfig {
            ops_per_node: 3,
            nodes: Some(vec![NodeId(1)]),
            ..MixedConfig::default()
        };
        let mut sim = Sim::new(SimConfig::small(3), |id| Alg1::new(id, 3));
        let mut driver = MixedDriver::new(3, cfg);
        sim.run_with_driver(&mut driver, 60_000_000);
        assert_eq!(sim.history().len(), 3);
        assert!(sim.history().records().iter().all(|r| r.node == NodeId(1)));
    }

    #[test]
    fn open_loop_schedules_count_ops() {
        let mut sim = Sim::new(SimConfig::small(3), |id| Alg1::new(id, 3));
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let ids = schedule_open_loop(&mut sim, &nodes, 12, 10_000, 0.5, 9);
        assert_eq!(ids.len(), 12);
        assert!(sim.run_until_idle(60_000_000));
        assert_eq!(sim.history().completed().count(), 12);
    }

    #[test]
    fn fault_plan_applies_events() {
        let (plan, crashed) = FaultPlan::new()
            .at(100, FaultEvent::Corrupt(NodeId(0)))
            .crash_random_minority(5, 200, 42);
        assert!(!crashed.is_empty() && crashed.len() <= 2);
        let mut sim = Sim::new(SimConfig::small(5), |id| Alg1::new(id, 5));
        sim.apply_plan(&plan);
        sim.run_until(1_000);
        for node in crashed {
            assert!(sim.is_crashed(node));
        }
    }

    #[test]
    fn bursts_schedule_the_right_count() {
        let mut sim = Sim::new(SimConfig::small(3), |id| Alg1::new(id, 3));
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let ids = schedule_bursts(&mut sim, &nodes, 3, 4, 5_000, 200, 11);
        assert_eq!(ids.len(), 12);
        assert!(sim.run_until_idle(120_000_000));
        assert_eq!(sim.history().completed().count(), 12);
    }

    #[test]
    fn session_spec_is_deterministic_sticky_and_complete() {
        let spec = SessionSpec {
            sessions: 100,
            ops_per_session: 3,
            write_ratio: 0.7,
            key_space: 1_000,
            seed: 11,
        };
        let a: Vec<SessionEvent> = spec.events().collect();
        let b: Vec<SessionEvent> = spec.events().collect();
        assert_eq!(a, b, "generation must be deterministic");
        assert_eq!(a.len() as u64, spec.total_ops());
        for ev in &a {
            assert!(ev.key < 1_000);
            assert_eq!(ev.key, spec.key_of(ev.session), "keys are sticky");
        }
        // Round-robin interleaving: the first `sessions` events cover
        // every session exactly once.
        let mut seen = std::collections::HashSet::new();
        for ev in &a[..100] {
            assert!(seen.insert(ev.session));
        }
        // Write values are unique across the whole run.
        let mut values = std::collections::HashSet::new();
        let mut writes = 0;
        for ev in &a {
            if let SnapshotOp::Write(v) = ev.op {
                assert!(values.insert(v), "duplicate write value {v}");
                writes += 1;
            }
        }
        // ~70% writes, with wide slack for the small sample.
        assert!((150..=270).contains(&writes), "writes: {writes}/300");
    }

    #[test]
    fn deterministic_generation() {
        let run = || {
            let mut sim = Sim::new(SimConfig::small(3), |id| Alg1::new(id, 3));
            let mut driver = MixedDriver::new(3, MixedConfig::default());
            sim.run_with_driver(&mut driver, 60_000_000);
            sim.trace_hash()
        };
        assert_eq!(run(), run());
    }
}
