//! Pluggable seeded adversaries generating `(FaultPlan, WorkloadSpec)`
//! pairs — every plan validates against [`FaultPlan::validate`] and ends
//! with a quiesce suffix so convergence is judgeable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_net::{mix64, ByzBehavior, FaultEvent, FaultPlan, LinkConfig, ModelTime, WorkloadSpec};
use sss_obs::FaultState;
use sss_types::NodeId;

/// The adversary strategies the chaos engine can draw scenarios from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Uniform-random over the full [`FaultEvent`] vocabulary, filtered
    /// to schedule validity (crash limits, resume-of-crashed, …).
    UniformRandom,
    /// Waves of staggered crashes that cross the majority threshold —
    /// the graceful-degradation stressor.
    QuorumCrasher,
    /// Alternating random partitions and heals: the network never
    /// settles, the protocol must.
    PartitionOscillator,
    /// Bursts of transient state corruption at random (live) nodes —
    /// the self-stabilization oracle's main diet.
    CorruptionStorm,
    /// Eclipse one writer behind directed link cuts while the rest of
    /// the cluster keeps operating, then let its stale traffic flood
    /// back in.
    WriterEclipse,
    /// Start the bounded construction's counters next to `MAXINT` (the
    /// runner seeds them via `Bounded::seed_indices_for_test`) so the
    /// first writes trigger §5's global reset, then race that reset
    /// against partition-oscillator cuts and coordinator crashes.
    CounterExhaustion,
    /// Turn `1..=f` nodes Byzantine (equivocation, stale replay, index
    /// inflation) while crash/heal churn runs underneath — the
    /// lying-network soak behind the [`crate::InvariantSurvival`]
    /// report.
    ByzantineStorm,
}

impl StrategyKind {
    /// The fault-only strategies, in a stable order (E16's campaign
    /// sweeps this; the adversarial pair lives in
    /// [`StrategyKind::ADVERSARIAL`] so existing campaigns keep their
    /// case counts).
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::UniformRandom,
        StrategyKind::QuorumCrasher,
        StrategyKind::PartitionOscillator,
        StrategyKind::CorruptionStorm,
        StrategyKind::WriterEclipse,
    ];

    /// The adversarial strategies E19 sweeps: wraparound exhaustion and
    /// the Byzantine storm.
    pub const ADVERSARIAL: [StrategyKind; 2] = [
        StrategyKind::CounterExhaustion,
        StrategyKind::ByzantineStorm,
    ];

    /// A stable kebab-case name for CLI flags and fixtures.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::UniformRandom => "uniform-random",
            StrategyKind::QuorumCrasher => "quorum-crasher",
            StrategyKind::PartitionOscillator => "partition-oscillator",
            StrategyKind::CorruptionStorm => "corruption-storm",
            StrategyKind::WriterEclipse => "writer-eclipse",
            StrategyKind::CounterExhaustion => "counter-exhaustion",
            StrategyKind::ByzantineStorm => "byzantine-storm",
        }
    }

    /// The inverse of [`StrategyKind::name`].
    pub fn from_name(name: &str) -> Option<StrategyKind> {
        StrategyKind::ALL
            .into_iter()
            .chain(StrategyKind::ADVERSARIAL)
            .find(|s| s.name() == name)
    }

    /// Whether the runner should seed the protocol's operation indices
    /// next to `MAXINT` before this scenario (the counter-exhaustion
    /// contract: generation stays protocol-agnostic, the harness seeds).
    pub fn seeds_counters(self) -> bool {
        self == StrategyKind::CounterExhaustion
    }

    /// Generates the strategy's scenario for an `n`-node cluster from
    /// `seed` — pure, so the same `(strategy, n, seed)` is the same
    /// scenario on every machine and backend.
    ///
    /// # Panics
    ///
    /// If the generator emits an invalid schedule (a strategy bug, not
    /// an input error) or `n < 2`.
    pub fn scenario(self, n: usize, seed: u64) -> Scenario {
        assert!(n >= 2, "chaos scenarios need at least 2 nodes");
        let mut g = Gen::new(n, mix64(seed, self as u64));
        match self {
            StrategyKind::UniformRandom => uniform_random(&mut g),
            StrategyKind::QuorumCrasher => quorum_crasher(&mut g),
            StrategyKind::PartitionOscillator => partition_oscillator(&mut g),
            StrategyKind::CorruptionStorm => corruption_storm(&mut g),
            StrategyKind::WriterEclipse => writer_eclipse(&mut g),
            StrategyKind::CounterExhaustion => counter_exhaustion(&mut g),
            StrategyKind::ByzantineStorm => byzantine_storm(&mut g),
        }
        g.quiesce();
        if StrategyKind::ADVERSARIAL.contains(&self) {
            // Keep the run alive past the quiesce point: the global
            // reset races the healed network to termination (and a
            // liar's inflated indices trigger resets of their own), and
            // the oracle's reset-termination invariant needs the rounds
            // to actually happen before the end-of-run probes sample.
            g.hold(6_000);
            g.push(FaultEvent::Heal);
        }
        let plan = FaultPlan::with_events(mix64(seed, 0xFA17), g.events);
        if let Err(e) = plan.validate(n) {
            panic!("strategy {} generated an invalid plan: {e}", self.name());
        }
        Scenario {
            strategy: self,
            n,
            seed,
            plan,
            workload: WorkloadSpec {
                ops_per_node: 6,
                write_ratio: 0.6,
                think: (0, 300),
                seed: mix64(seed, 0x10AD),
                op_timeout: 25_000,
            },
            net: self.net(),
        }
    }

    /// The strategy's link model. Mild loss/duplication everywhere (the
    /// paper's channels may lose, duplicate and reorder), heavier for
    /// the corruption storm; `delay_max` stays below the simulator's
    /// round interval.
    fn net(self) -> LinkConfig {
        let mut net = LinkConfig {
            delay_min: 1,
            delay_max: 40,
            loss: 0.05,
            dup: 0.05,
            capacity: 128,
        };
        if self == StrategyKind::CorruptionStorm {
            net.loss = 0.10;
        }
        net
    }
}

/// One generated chaos scenario: everything a backend needs to run it
/// and the oracle needs to judge it.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The generating strategy.
    pub strategy: StrategyKind,
    /// Cluster size.
    pub n: usize,
    /// The scenario seed (strategy-local; feeds plan, workload and
    /// corruption randomness).
    pub seed: u64,
    /// The generated fault schedule (validates for `n`).
    pub plan: FaultPlan,
    /// The closed-loop workload both backends derive identically.
    pub workload: WorkloadSpec,
    /// The link model.
    pub net: LinkConfig,
}

impl Scenario {
    /// A short stable label (`strategy/seed`) for logs and fixtures.
    pub fn label(&self) -> String {
        format!("{}/s{}", self.strategy.name(), self.seed)
    }

    /// The same scenario with its plan replaced (the shrinker's
    /// re-execution hook).
    pub fn with_plan(&self, plan: FaultPlan) -> Scenario {
        Scenario {
            plan,
            ..self.clone()
        }
    }
}

/// Schedule-validity-aware event emitter: strictly increasing
/// timestamps (so no same-instant conflicts are ever possible), and
/// every emitted event is fed to the [`FaultState`] machine the plan
/// validator runs, so strategies see which nodes are crashed or lying
/// where the next event lands.
struct Gen {
    rng: StdRng,
    n: usize,
    t: ModelTime,
    faults: FaultState,
    events: Vec<(ModelTime, FaultEvent)>,
}

impl Gen {
    fn new(n: usize, seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            n,
            t: 300,
            faults: FaultState::new(n),
            events: Vec::new(),
        }
    }

    /// Emits `ev` at the current time, then advances the clock by a
    /// random stride so the next event lands strictly later.
    fn push(&mut self, ev: FaultEvent) {
        let legal = self.faults.fault(ev.kind(), ev.process(), self.t);
        debug_assert_eq!(legal, Ok(()), "{ev:?} at t={}", self.t);
        self.events.push((self.t, ev));
        self.step();
    }

    fn step(&mut self) {
        self.t += self.rng.gen_range(200..=900);
    }

    /// A longer pause between attack phases.
    fn hold(&mut self, span: ModelTime) {
        self.t += span;
    }

    /// The nodes whose crash state is `crashed`, in id order.
    fn nodes_where(&self, crashed: bool) -> Vec<NodeId> {
        (0..self.n)
            .filter(|&i| self.faults.node(i).crashed == crashed)
            .map(NodeId)
            .collect()
    }

    fn crash(&mut self, node: NodeId) {
        self.push(FaultEvent::Crash(node));
    }

    fn revive(&mut self, node: NodeId, restart: bool) {
        self.push(if restart {
            FaultEvent::Restart(node)
        } else {
            FaultEvent::Resume(node)
        });
    }

    fn make_byzantine(&mut self, node: NodeId, behavior: ByzBehavior) {
        self.push(FaultEvent::Byzantine { node, behavior });
    }

    /// A random partition into `groups` non-empty groups covering every
    /// node (no node is left isolated-by-omission).
    fn random_partition(&mut self, groups: usize) -> FaultEvent {
        let mut order: Vec<NodeId> = (0..self.n).map(NodeId).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.gen_range(0..=i));
        }
        let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); groups.min(self.n)];
        for (i, node) in order.into_iter().enumerate() {
            // First pass seeds every group; the rest land randomly.
            if i < parts.len() {
                parts[i].push(node);
            } else {
                let g = self.rng.gen_range(0..parts.len());
                parts[g].push(node);
            }
        }
        FaultEvent::Partition(parts)
    }

    /// The quiesce suffix: restore every link, revive every crashed
    /// node, return every liar to honesty. After this the system must
    /// converge — which is exactly what the stabilization oracle judges.
    fn quiesce(&mut self) {
        self.hold(400);
        self.push(FaultEvent::Heal);
        for i in 0..self.n {
            if self.faults.node(i).byzantine {
                self.make_byzantine(NodeId(i), ByzBehavior::Honest);
            }
        }
        for node in self.nodes_where(true) {
            self.revive(node, false);
        }
    }
}

/// Uniform-random over the full fault vocabulary, validity-filtered:
/// crashes stay within a minority (targeted majority loss is
/// [`StrategyKind::QuorumCrasher`]'s job), only crashed nodes resume or
/// restart, only live nodes corrupt.
fn uniform_random(g: &mut Gen) {
    let minority = (g.n - 1) / 2;
    let steps = g.rng.gen_range(10..=14);
    for _ in 0..steps {
        match g.rng.gen_range(0..7u32) {
            0 if g.faults.crashed_count() < minority => {
                let live = g.nodes_where(false);
                let victim = live[g.rng.gen_range(0..live.len())];
                g.crash(victim);
            }
            1 | 2 if g.faults.crashed_count() > 0 => {
                let down = g.nodes_where(true);
                let node = down[g.rng.gen_range(0..down.len())];
                let restart = g.rng.gen_bool(0.5);
                g.revive(node, restart);
            }
            3 => {
                let ev = g.random_partition(2);
                g.push(ev);
            }
            4 => g.push(FaultEvent::Heal),
            5 => {
                let from = NodeId(g.rng.gen_range(0..g.n));
                let mut to = NodeId(g.rng.gen_range(0..g.n));
                while to == from {
                    to = NodeId(g.rng.gen_range(0..g.n));
                }
                let up = g.rng.gen_bool(0.5);
                g.push(FaultEvent::SetLink { from, to, up });
            }
            _ => {
                let live = g.nodes_where(false);
                let node = live[g.rng.gen_range(0..live.len())];
                g.push(FaultEvent::Corrupt(node));
            }
        }
    }
}

/// Staggered crash waves crossing the majority threshold: crash
/// `⌈n/2⌉` nodes one by one (leaving fewer than a majority alive), hold
/// the outage, revive everyone, repeat.
fn quorum_crasher(g: &mut Gen) {
    let wave = g.n.div_ceil(2);
    for round in 0..2 {
        let mut order: Vec<NodeId> = (0..g.n).map(NodeId).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, g.rng.gen_range(0..=i));
        }
        let victims: Vec<NodeId> = order.into_iter().take(wave).collect();
        for &v in &victims {
            g.crash(v);
        }
        g.hold(1_500);
        for &v in &victims {
            // Second-wave revivals restart (detectably) half the time.
            let restart = round == 1 && g.rng.gen_bool(0.5);
            g.revive(v, restart);
        }
        g.hold(800);
    }
}

/// The network oscillates between random partitions and heals; no
/// configuration lasts long enough to feel like a steady state.
fn partition_oscillator(g: &mut Gen) {
    let swings = g.rng.gen_range(4..=6);
    for _ in 0..swings {
        let groups = if g.n >= 5 && g.rng.gen_bool(0.3) {
            3
        } else {
            2
        };
        let ev = g.random_partition(groups);
        g.push(ev);
        let span = g.rng.gen_range(400..=1_100);
        g.hold(span);
        g.push(FaultEvent::Heal);
        let span = g.rng.gen_range(200..=600);
        g.hold(span);
    }
}

/// Bursts of transient corruption at random live nodes — sometimes the
/// same node twice in a burst, which a correct stabilizer must also
/// absorb.
fn corruption_storm(g: &mut Gen) {
    let bursts = g.rng.gen_range(2..=3);
    for _ in 0..bursts {
        let hits = g.rng.gen_range(2..=3);
        for _ in 0..hits {
            let live = g.nodes_where(false);
            let node = live[g.rng.gen_range(0..live.len())];
            g.push(FaultEvent::Corrupt(node));
        }
        let span = g.rng.gen_range(1_200..=2_000);
        g.hold(span);
    }
}

/// Cut every directed link to and from one victim (the eclipse), let
/// the rest of the cluster make progress, then reconnect — the victim's
/// queued retransmissions and stale acknowledgements flood back in.
fn writer_eclipse(g: &mut Gen) {
    let victim = NodeId((g.rng.gen_range(0..g.n as u64)) as usize);
    for _ in 0..2 {
        for i in 0..g.n {
            let peer = NodeId(i);
            if peer == victim {
                continue;
            }
            g.push(FaultEvent::SetLink {
                from: victim,
                to: peer,
                up: false,
            });
            g.push(FaultEvent::SetLink {
                from: peer,
                to: victim,
                up: false,
            });
        }
        g.hold(1_500);
        g.push(FaultEvent::Heal);
        g.hold(600);
    }
}

/// Race §5's global reset against a hostile network. The runner seeds
/// every node's indices next to `MAXINT`, so the workload's first writes
/// start the reset; this schedule then cuts the cluster into oscillating
/// partitions and crashes the current reset coordinator (the lowest live
/// id) mid-protocol, forcing the handoff rotation to finish the job.
fn counter_exhaustion(g: &mut Gen) {
    let swings = g.rng.gen_range(3..=4);
    for swing in 0..swings {
        let ev = g.random_partition(2);
        g.push(ev);
        if g.faults.crashed_count() == 0 && g.rng.gen_bool(0.7) {
            // The §5 reset coordinator is the lowest live id: crash it
            // while the Sync/Install exchange is (likely) in flight.
            let coordinator = g.nodes_where(false)[0];
            g.crash(coordinator);
        }
        let span = g.rng.gen_range(600..=1_200);
        g.hold(span);
        g.push(FaultEvent::Heal);
        // Revive late — on the last swing the quiesce suffix does it —
        // so the handoff deadline actually elapses under the outage.
        if swing % 2 == 1 && g.faults.crashed_count() > 0 {
            let down = g.nodes_where(true);
            for node in down {
                g.revive(node, false);
            }
        }
        let span = g.rng.gen_range(300..=700);
        g.hold(span);
    }
}

/// `1..=f` nodes lie on the wire — equivocating, replaying stale
/// captures, inflating operation indices to force spurious wraps —
/// while crash/heal churn runs underneath. The oracle judges only the
/// honest sub-history and reports which §5 invariants survived.
fn byzantine_storm(g: &mut Gen) {
    let f = ((g.n - 1) / 2).max(1);
    let liars = g.rng.gen_range(1..=f);
    let mut order: Vec<NodeId> = (0..g.n).map(NodeId).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, g.rng.gen_range(0..=i));
    }
    let behaviors = [
        ByzBehavior::Equivocate,
        ByzBehavior::ReplayStale,
        ByzBehavior::InflateIndex,
    ];
    for &liar in order.iter().take(liars) {
        let behavior = behaviors[g.rng.gen_range(0..behaviors.len())];
        g.make_byzantine(liar, behavior);
    }
    let honest: Vec<NodeId> = order.iter().skip(liars).copied().collect();
    let churns = g.rng.gen_range(2..=3);
    for _ in 0..churns {
        // Crash/heal churn concurrent with the lying: only honest nodes
        // crash (a crashed liar is just a quieter liar).
        if !honest.is_empty() && g.faults.crashed_count() == 0 {
            let victim = honest[g.rng.gen_range(0..honest.len())];
            g.crash(victim);
        }
        if g.rng.gen_bool(0.5) {
            let ev = g.random_partition(2);
            g.push(ev);
        }
        let span = g.rng.gen_range(700..=1_400);
        g.hold(span);
        g.push(FaultEvent::Heal);
        if g.faults.crashed_count() > 0 {
            let down = g.nodes_where(true);
            for node in down {
                let restart = g.rng.gen_bool(0.3);
                g.revive(node, restart);
            }
        }
        let span = g.rng.gen_range(300..=800);
        g.hold(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_strategies() -> impl Iterator<Item = StrategyKind> {
        StrategyKind::ALL
            .into_iter()
            .chain(StrategyKind::ADVERSARIAL)
    }

    #[test]
    fn names_round_trip() {
        for s in all_strategies() {
            assert_eq!(StrategyKind::from_name(s.name()), Some(s));
        }
        assert_eq!(StrategyKind::from_name("no-such-strategy"), None);
    }

    #[test]
    fn every_strategy_generates_valid_plans() {
        for s in all_strategies() {
            for n in [2, 3, 4, 5, 7] {
                for seed in 0..20 {
                    let sc = s.scenario(n, seed);
                    assert_eq!(
                        sc.plan.validate(n),
                        Ok(()),
                        "{} n={n} seed={seed}",
                        s.name()
                    );
                    assert!(!sc.plan.events().is_empty());
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = StrategyKind::QuorumCrasher.scenario(5, 3);
        let b = StrategyKind::QuorumCrasher.scenario(5, 3);
        assert_eq!(a.plan.events(), b.plan.events());
        let c = StrategyKind::QuorumCrasher.scenario(5, 4);
        assert_ne!(a.plan.events(), c.plan.events());
    }

    #[test]
    fn timestamps_strictly_increase() {
        for s in all_strategies() {
            let sc = s.scenario(5, 11);
            let times: Vec<_> = sc.plan.events().iter().map(|(t, _)| *t).collect();
            for w in times.windows(2) {
                assert!(w[0] < w[1], "{}: {:?}", s.name(), times);
            }
        }
    }

    #[test]
    fn plans_quiesce_with_no_crashed_nodes_and_healed_links() {
        for s in all_strategies() {
            for seed in 0..10 {
                let sc = s.scenario(5, seed);
                let mut crashed = [false; 5];
                let mut byzantine = [false; 5];
                let mut last_matrix_op_was_heal = true;
                for (_, ev) in sc.plan.events() {
                    match ev {
                        FaultEvent::Crash(v) => crashed[v.index()] = true,
                        FaultEvent::Resume(v) | FaultEvent::Restart(v) => {
                            crashed[v.index()] = false
                        }
                        FaultEvent::Partition(_) | FaultEvent::SetLink { .. } => {
                            last_matrix_op_was_heal = false
                        }
                        FaultEvent::Heal => last_matrix_op_was_heal = true,
                        FaultEvent::Corrupt(_) => {}
                        FaultEvent::Byzantine { node, behavior } => {
                            byzantine[node.index()] = !matches!(behavior, ByzBehavior::Honest)
                        }
                    }
                }
                assert!(
                    crashed.iter().all(|&c| !c),
                    "{} seed {seed} leaves crashed nodes",
                    s.name()
                );
                assert!(
                    byzantine.iter().all(|&b| !b),
                    "{} seed {seed} leaves Byzantine nodes",
                    s.name()
                );
                assert!(
                    last_matrix_op_was_heal,
                    "{} seed {seed} leaves links cut",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn byzantine_storm_fields_at_least_one_liar() {
        for seed in 0..10 {
            let sc = StrategyKind::ByzantineStorm.scenario(5, seed);
            let liars = sc
                .plan
                .events()
                .iter()
                .filter(|(_, ev)| {
                    matches!(
                        ev,
                        FaultEvent::Byzantine { behavior, .. }
                            if !matches!(behavior, ByzBehavior::Honest)
                    )
                })
                .count();
            assert!(liars >= 1, "seed {seed} fields no liar");
            let f = (5 - 1) / 2;
            assert!(liars <= f, "seed {seed} fields {liars} liars (f={f})");
        }
        assert!(StrategyKind::CounterExhaustion.seeds_counters());
        assert!(!StrategyKind::ByzantineStorm.seeds_counters());
    }

    #[test]
    fn quorum_crasher_crosses_the_majority_threshold() {
        let sc = StrategyKind::QuorumCrasher.scenario(5, 0);
        let mut down = 0usize;
        let mut worst = 0usize;
        for (_, ev) in sc.plan.events() {
            match ev {
                FaultEvent::Crash(_) => down += 1,
                FaultEvent::Resume(_) | FaultEvent::Restart(_) => down -= 1,
                _ => {}
            }
            worst = worst.max(down);
        }
        assert!(worst >= 3, "must lose the majority at some point");
    }
}
