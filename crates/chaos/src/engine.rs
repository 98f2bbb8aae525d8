//! Running scenarios on the two execution backends and sweeping
//! campaigns of strategies × seeds across them.

use crate::{judge, shrink, Fixture, OracleReport, Scenario, ShrinkOutcome, StrategyKind};
use sss_core::{Alg1, Bounded, BoundedConfig};
use sss_net::{Backend, LinkConfig, RunReport, WorkloadSpec};
use sss_obs::{MemorySink, TraceRecord, Tracer};
use sss_runtime::{ClusterConfig, ThreadBackend};
use sss_sim::{SimBackend, SimConfig};
use sss_types::{NodeId, Protocol};

/// Which backend(s) a campaign sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// Deterministic virtual-time simulator only.
    Sim,
    /// Threaded wall-clock runtime only.
    Threads,
    /// Both, every scenario on each.
    Both,
}

impl BackendChoice {
    /// Whether the simulator is swept.
    pub fn runs_sim(self) -> bool {
        self != BackendChoice::Threads
    }

    /// Whether the threaded runtime is swept.
    pub fn runs_threads(self) -> bool {
        self != BackendChoice::Sim
    }
}

/// One scenario executed on one backend, with its trace and verdict.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// `"sim"` or `"threads"`.
    pub backend: &'static str,
    /// The backend's history and counters.
    pub report: RunReport,
    /// The structured trace the oracle judged.
    pub records: Vec<TraceRecord>,
    /// The oracle's verdict.
    pub oracle: OracleReport,
}

/// The simulator configuration a scenario runs under (shared by the
/// campaign runner and the shrinker so re-execution is bit-faithful).
pub fn sim_config(sc: &Scenario) -> SimConfig {
    let mut cfg = SimConfig::small(sc.n).with_seed(sc.seed);
    cfg.net = sc.net;
    cfg
}

/// The threaded-runtime configuration for the same scenario. Link-model
/// delay bounds are ignored there (thread scheduling supplies the
/// asynchrony); loss, duplication and capacity carry over.
pub fn cluster_config(sc: &Scenario) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(sc.n);
    cfg.net = sc.net;
    cfg.seed = sc.seed;
    cfg
}

/// How far below `MAXINT` a `counter-exhaustion` run seeds every
/// index: a handful of writes reaches the threshold, so the reset fires
/// while the schedule's first partitions are still up.
const SEED_MARGIN: u64 = 4;

/// The protocol an adversarial `strategy` runs on an `n`-node cluster:
/// the bounded construction over Alg 1, its indices seeded four below
/// `MAXINT` when [`StrategyKind::seeds_counters`].
pub fn bounded_alg1(strategy: StrategyKind, n: usize) -> impl Fn(NodeId) -> Bounded<Alg1> {
    move |id| {
        let cfg = BoundedConfig::default();
        let mut p = Bounded::new(Alg1::new(id, n), cfg);
        if strategy.seeds_counters() {
            p.seed_indices_for_test(cfg.max_int - SEED_MARGIN);
        }
        p
    }
}

/// The per-case tracer: a memory sink the oracle reads.
fn case_tracer(n: usize) -> (Tracer, sss_obs::TraceBuffer) {
    let (sink, buf) = MemorySink::new();
    (Tracer::new(n).with_sink(sink), buf)
}

/// Runs `sc` on the deterministic simulator and judges it.
pub fn run_case_sim<P, F>(sc: &Scenario, mk: F) -> CaseOutcome
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let (tracer, buf) = case_tracer(sc.n);
    let mut backend = SimBackend::new(sim_config(sc), mk);
    let report = backend.run_traced(&sc.plan, &sc.workload, &tracer);
    finish_case("sim", sc, report, &buf)
}

/// Runs `sc` on the threaded runtime and judges it.
pub fn run_case_threads<P, F>(sc: &Scenario, mk: F) -> CaseOutcome
where
    P: Protocol + 'static,
    F: FnMut(NodeId) -> P,
{
    let (tracer, buf) = case_tracer(sc.n);
    let mut backend = ThreadBackend::new(cluster_config(sc), mk);
    let report = backend.run_traced(&sc.plan, &sc.workload, &tracer);
    finish_case("threads", sc, report, &buf)
}

fn finish_case(
    backend: &'static str,
    sc: &Scenario,
    report: RunReport,
    buf: &sss_obs::TraceBuffer,
) -> CaseOutcome {
    let records = buf.records();
    let oracle = judge(sc.n, &sc.plan, &report, &records);
    CaseOutcome {
        backend,
        report,
        records,
        oracle,
    }
}

/// Delta-debugs a failing scenario on the simulator: a candidate plan
/// "still fails" when re-running it (same config, workload and seed)
/// still yields at least one oracle violation.
pub fn shrink_case_sim<P, F>(sc: &Scenario, mk: F, max_runs: usize) -> ShrinkOutcome
where
    P: Protocol,
    F: Fn(NodeId) -> P,
{
    shrink(sc.n, &sc.plan, max_runs, |candidate| {
        let trial = sc.with_plan(candidate.clone());
        !run_case_sim(&trial, &mk).oracle.ok()
    })
}

/// A campaign: which strategies, seeds and backends to sweep, and how
/// hard to shrink what fails.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Cluster size for every scenario.
    pub n: usize,
    /// Strategies to draw from.
    pub strategies: Vec<StrategyKind>,
    /// Seeds per strategy.
    pub seeds: Vec<u64>,
    /// Backends to run each scenario on.
    pub backend: BackendChoice,
    /// Shrink budget (re-executions) per finding; 0 disables shrinking.
    pub shrink_runs: usize,
    /// Replaces every generated scenario's workload when set ("hunt
    /// harder": shorter think times and more writes widen race windows).
    pub workload: Option<WorkloadSpec>,
    /// Replaces every generated scenario's link model when set (more
    /// loss/duplication stresses retransmission and staleness paths).
    pub net: Option<LinkConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            n: 5,
            strategies: StrategyKind::ALL.to_vec(),
            seeds: (0..4).collect(),
            backend: BackendChoice::Both,
            shrink_runs: 400,
            workload: None,
            net: None,
        }
    }
}

impl CampaignConfig {
    /// Turns on the "hunt harder" overrides, tuned to flush out subtle
    /// safety bugs: short think times race snapshots into the
    /// one-gossip-round repair window, a write-heavy mix multiplies the
    /// racing writes, and heavy duplication manufactures the stale acks
    /// that exploit weakened quorum checks. Measured against the
    /// planted Alg1 defect (the `Planted` marker in this module's tests)
    /// this catches ~5% of runs at `n = 5`, versus ~0% for the generated
    /// defaults — at the price of noisier, less paper-shaped schedules.
    pub fn hunting(mut self) -> CampaignConfig {
        self.workload = Some(WorkloadSpec {
            ops_per_node: 12,
            write_ratio: 0.75,
            think: (0, 60),
            seed: 0, // replaced by each scenario's generated seed
            op_timeout: 25_000,
        });
        self.net = Some(LinkConfig {
            delay_min: 1,
            delay_max: 60,
            loss: 0.10,
            dup: 0.25,
            capacity: 128,
        });
        self
    }
}

/// One violating case a campaign found.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The scenario that failed.
    pub scenario: Scenario,
    /// The backend it failed on.
    pub backend: &'static str,
    /// Stringified oracle violations.
    pub violations: Vec<String>,
    /// The shrunk reproducer (simulator findings only — wall-clock runs
    /// are not deterministic enough to delta-debug).
    pub shrunk: Option<ShrinkOutcome>,
}

impl Finding {
    /// The finding as a committable reproducer, named
    /// `{strategy}-s{seed}-{backend}`: the shrunk plan when there is one.
    pub fn fixture(&self) -> Fixture {
        let sc = match &self.shrunk {
            Some(s) => self.scenario.with_plan(s.plan.clone()),
            None => self.scenario.clone(),
        };
        let name = format!("{}-s{}-{}", sc.strategy.name(), sc.seed, self.backend);
        Fixture::capture(name, self.backend, &sc, self.violations.clone())
    }
}

/// Aggregate campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Cases executed (scenario × backend pairs).
    pub cases: usize,
    /// Operations completed across every case.
    pub ops_completed: u64,
    /// Operations abandoned on timeout across every case.
    pub ops_timed_out: u64,
    /// Operations failed fast by the failure detector (threads only).
    pub ops_unavailable: u64,
    /// Corruptions injected / stabilization probes observed / verdicts
    /// left inconclusive, across every case.
    pub corruptions: usize,
    /// See [`CampaignReport::corruptions`].
    pub stabilizations: usize,
    /// See [`CampaignReport::corruptions`].
    pub inconclusive: usize,
    /// Every violating case, in discovery order.
    pub findings: Vec<Finding>,
}

impl CampaignReport {
    /// Did every case come back clean?
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn absorb(&mut self, outcome: &CaseOutcome) {
        self.cases += 1;
        self.ops_completed += outcome.report.stats.ops_completed;
        self.ops_timed_out += outcome.report.stats.ops_timed_out;
        self.ops_unavailable += outcome.report.stats.ops_unavailable;
        self.corruptions += outcome.oracle.corruptions;
        self.stabilizations += outcome.oracle.stabilizations;
        self.inconclusive += outcome.oracle.inconclusive;
    }
}

/// Sweeps the campaign: every strategy × seed on every selected
/// backend, shrinking each simulator finding to a minimal reproducer.
/// `mk` builds a fresh protocol instance per node per run.
pub fn run_campaign<P, F>(cfg: &CampaignConfig, mk: F) -> CampaignReport
where
    P: Protocol + 'static,
    F: Fn(NodeId) -> P,
{
    let mut report = CampaignReport::default();
    for &strategy in &cfg.strategies {
        for &seed in &cfg.seeds {
            let mut sc = strategy.scenario(cfg.n, seed);
            if let Some(w) = &cfg.workload {
                // Keep the generated per-scenario seed so the override
                // changes the shape of the workload, not its diversity.
                let generated_seed = sc.workload.seed;
                sc.workload = w.clone();
                sc.workload.seed = generated_seed;
            }
            if let Some(net) = cfg.net {
                sc.net = net;
            }
            let mut outcomes = Vec::new();
            if cfg.backend.runs_sim() {
                outcomes.push(run_case_sim(&sc, &mk));
            }
            if cfg.backend.runs_threads() {
                outcomes.push(run_case_threads(&sc, &mk));
            }
            for outcome in outcomes {
                report.absorb(&outcome);
                if outcome.oracle.ok() {
                    continue;
                }
                let violations: Vec<String> = outcome
                    .oracle
                    .violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect();
                let shrunk = (outcome.backend == "sim" && cfg.shrink_runs > 0)
                    .then(|| shrink_case_sim(&sc, &mk, cfg.shrink_runs));
                report.findings.push(Finding {
                    scenario: sc.clone(),
                    backend: outcome.backend,
                    violations,
                    shrunk,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::{Alg1, Boxes};
    use sss_types::Payload;

    /// A deliberately planted protocol defect the engine must catch: every
    /// boxed line runs, but line 14's covering check accepts every ack, so
    /// a write can reach "majority" on stale acknowledgements from servers
    /// that never stored it — a later snapshot may then miss a completed
    /// write.
    #[derive(Clone, Debug)]
    struct Planted;

    impl Boxes for Planted {
        const BOXED: bool = true;

        fn covered(_lreg: &Payload, _ack: &Payload) -> bool {
            true
        }
    }

    /// Clean-protocol sanity: a small sim-only campaign across every
    /// strategy finds nothing.
    #[test]
    fn clean_protocol_survives_a_small_campaign() {
        let cfg = CampaignConfig {
            n: 4,
            seeds: vec![0, 1],
            backend: BackendChoice::Sim,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, |id| Alg1::new(id, 4));
        assert_eq!(report.cases, StrategyKind::ALL.len() * 2);
        assert!(
            report.clean(),
            "clean protocol must produce no findings: {:?}",
            report
                .findings
                .iter()
                .map(|f| (f.scenario.label(), &f.violations))
                .collect::<Vec<_>>()
        );
        assert!(report.ops_completed > 0);
        assert!(
            report.stabilizations > 0,
            "corruption strategies must exercise the stabilization probe"
        );
    }

    /// Validates the validator: the hunting campaign (n = 5 admits
    /// disjoint write/snapshot quorum complements; the strategies below
    /// concentrate the measured catches) finds the [`Planted`] defect,
    /// and the shrinker reduces the reproducer to a handful of events.
    #[test]
    fn planted_mutation_is_caught_and_shrunk() {
        let cfg = CampaignConfig {
            n: 5,
            strategies: vec![
                StrategyKind::QuorumCrasher,
                StrategyKind::PartitionOscillator,
                StrategyKind::WriterEclipse,
            ],
            seeds: (0..24).collect(),
            backend: BackendChoice::Sim,
            shrink_runs: 300,
            ..CampaignConfig::default()
        }
        .hunting();
        let n = cfg.n;
        let report = run_campaign(&cfg, move |id| Alg1::<Planted>::init(id, n));
        assert!(
            !report.clean(),
            "the planted mutation must be caught within the seed budget"
        );
        let shrunk = report
            .findings
            .iter()
            .filter_map(|f| f.shrunk.as_ref())
            .min_by_key(|s| s.to_events)
            .expect("at least one sim finding with a shrink result");
        assert!(
            shrunk.to_events <= 6,
            "minimal reproducer must be small, got {} events (from {})",
            shrunk.to_events,
            shrunk.from_events
        );
        assert_eq!(shrunk.plan.validate(cfg.n), Ok(()));
        // The shrunk reproducer is committable: JSON round-trips.
        let text = shrunk.plan.to_json();
        let back = sss_net::FaultPlan::from_json(&text).unwrap();
        assert_eq!(back.events(), shrunk.plan.events());
    }
}
