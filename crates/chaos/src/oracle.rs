//! The run oracle: linearizability over the client-boundary history
//! plus a self-stabilization check over the structured trace — and,
//! when the plan fields liars or the bounded construction wraps, a
//! [`InvariantSurvival`] audit of §5's reset-plane invariants.

use sss_net::{FaultEvent, FaultPlan, RunReport};
use sss_obs::{FaultState, TraceRecord, TraceTime};
use sss_types::NodeId;

/// How many asynchronous cycles must elapse after the later of a node's
/// last corruption and its last revival before a missing `Stabilized`
/// probe counts as a violation rather than an inconclusive run. The
/// paper's recovery bounds are `O(1)` cycles; this leaves a generous
/// margin above them.
const CYCLES_TO_JUDGE: u64 = 12;

/// One confirmed oracle violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosViolation {
    /// The client-boundary history is not a linearizable snapshot
    /// history (checker verdict, stringified for fixtures).
    Linearizability(String),
    /// A corrupted node never emitted its `Stabilized` probe although
    /// faults quiesced and enough asynchronous cycles elapsed.
    MissedStabilization {
        /// The unrecovered node.
        node: NodeId,
        /// When its last corruption was injected (model µs).
        corrupted_at: TraceTime,
        /// Whole cycles observed after the judging threshold.
        cycles_observed: u64,
    },
    /// A §5 reset-plane invariant broke on a fault-only plan. (On
    /// Byzantine plans broken invariants are *observations* — the paper
    /// promises nothing without signatures — and stay confined to
    /// [`OracleReport::survival`].)
    InvariantBroken {
        /// Which invariant (see the `INV_*` constants).
        invariant: &'static str,
        /// What the audit saw.
        detail: String,
    },
}

impl std::fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosViolation::Linearizability(msg) => write!(f, "linearizability: {msg}"),
            ChaosViolation::MissedStabilization {
                node,
                corrupted_at,
                cycles_observed,
            } => write!(
                f,
                "stabilization: {node:?} corrupted at t={corrupted_at} never re-converged \
                 ({cycles_observed} cycles observed)"
            ),
            ChaosViolation::InvariantBroken { invariant, detail } => {
                write!(f, "invariant {invariant}: {detail}")
            }
        }
    }
}

/// Epochs observed per honest node never decrease.
pub const INV_EPOCH_MONOTONICITY: &str = "epoch-monotonicity";
/// Honest end-of-run state holds its local invariants — nothing from a
/// stale epoch was installed past the envelope.
pub const INV_NO_STALE_EPOCH_LEAK: &str = "no-stale-epoch-leak";
/// Once a reset started, every honest node finished it: none still
/// wrapping, all agreeing on the final epoch.
pub const INV_RESET_TERMINATION: &str = "reset-termination";
/// The honest sub-history after the last epoch change linearizes.
pub const INV_POST_RESET_LINEARIZABILITY: &str = "post-reset-linearizability";

/// Which §5 reset-plane invariants held versus broke in one run — the
/// adversary campaign's product. Broken entries never panic the oracle;
/// they are reported (and only escalate to [`ChaosViolation`]s on
/// fault-only plans, where the paper actually makes promises).
#[derive(Clone, Debug, Default)]
pub struct InvariantSurvival {
    /// Invariants that held, in audit order.
    pub held: Vec<&'static str>,
    /// Invariants that broke, each with what the audit saw.
    pub broken: Vec<(&'static str, String)>,
}

impl InvariantSurvival {
    fn note(&mut self, invariant: &'static str, problems: Vec<String>) {
        if problems.is_empty() {
            self.held.push(invariant);
        } else {
            self.broken.push((invariant, problems.join("; ")));
        }
    }
}

/// Which nodes `plan` ever turns Byzantine (a node that lied once is
/// untrusted for the whole run, even after returning to honesty).
pub fn byzantine_nodes(n: usize, plan: &FaultPlan) -> Vec<bool> {
    let mut faults = FaultState::new(n);
    for (t, ev) in plan.sorted_events() {
        let _ = faults.fault(ev.kind(), ev.process(), t);
    }
    faults.nodes().iter().map(|s| s.ever_byzantine).collect()
}

/// What [`judge`] concluded about one run.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Confirmed violations (empty for a clean run).
    pub violations: Vec<ChaosViolation>,
    /// Corruption injections seen in the trace.
    pub corruptions: usize,
    /// `Stabilized` probes seen in the trace.
    pub stabilizations: usize,
    /// Pending corruptions the oracle could not judge (node still
    /// crashed at trace end, or too few cycles elapsed). Inconclusive
    /// is not a failure — rerun with a longer horizon to resolve it.
    pub inconclusive: usize,
    /// Whether the full-history linearizability checker ran. It is
    /// skipped for corruption-bearing plans (a corrupted register
    /// legitimately holds never-written values until overwritten, so
    /// only stabilization is judgeable there — Dijkstra's criterion)
    /// and for Byzantine plans (a liar's client boundary proves
    /// nothing; the honest sub-history is judged inside
    /// [`OracleReport::survival`] instead).
    pub lin_checked: bool,
    /// The §5 reset-plane invariant audit, present when the plan fields
    /// liars or the run shows reset activity (epoch changes, wrapping
    /// probes, stale-epoch discards).
    pub survival: Option<InvariantSurvival>,
}

impl OracleReport {
    /// A clean verdict?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Judges one run: `plan` is the schedule that was replayed, `report`
/// the backend's history + stats, `records` the structured trace.
pub fn judge(
    n: usize,
    plan: &FaultPlan,
    report: &RunReport,
    records: &[TraceRecord],
) -> OracleReport {
    let mut out = OracleReport::default();
    let corrupting = plan
        .events()
        .iter()
        .any(|(_, ev)| matches!(ev, FaultEvent::Corrupt(_)));
    let byz = byzantine_nodes(n, plan);
    let any_byz = byz.iter().any(|&b| b);
    if !corrupting && !any_byz {
        out.lin_checked = true;
        let verdict = sss_checker::check(&report.history, n);
        for v in verdict.violations {
            out.violations
                .push(ChaosViolation::Linearizability(v.to_string()));
        }
    }
    let mut faults = FaultState::new(n);
    for rec in records {
        faults.fold(rec);
    }
    judge_stabilization(&faults, &mut out);
    out.survival = judge_invariants(n, &faults, &byz, report, corrupting);
    if let Some(survival) = &out.survival {
        if !any_byz {
            // Fault-only plans (crashes, partitions, wraparound) are
            // squarely inside the paper's model: a broken reset-plane
            // invariant there is a real finding, not an observation.
            for (invariant, detail) in &survival.broken {
                out.violations.push(ChaosViolation::InvariantBroken {
                    invariant,
                    detail: detail.clone(),
                });
            }
        }
    }
    out
}

/// Audits §5's reset-plane invariants for one run. Returns `None` when
/// there is nothing to audit: no liar in the plan and no reset activity
/// in the trace or the end-of-run probes.
fn judge_invariants(
    n: usize,
    faults: &FaultState,
    byz: &[bool],
    report: &RunReport,
    corrupting: bool,
) -> Option<InvariantSurvival> {
    let any_byz = byz.iter().any(|&b| b);
    let last_epoch_change = faults.last_epoch_change();
    let probes = &report.probes;
    let reset_active = last_epoch_change.is_some()
        || probes
            .iter()
            .any(|p| p.epoch > 0 || p.wrapping || p.stale_epoch_dropped > 0);
    if !any_byz && !reset_active {
        return None;
    }
    let honest = |i: usize| !byz.get(i).copied().unwrap_or(false);
    let mut survival = InvariantSurvival::default();

    // 1. Epoch monotonicity: an honest node's observed epoch never
    // decreases (a replayed pre-reset Install must not roll it back).
    let problems: Vec<String> = faults
        .epoch_regressions()
        .iter()
        .filter(|r| honest(r.node.index()))
        .map(|r| {
            let (i, at) = (r.node.index(), r.at);
            format!("node {i} fell from epoch {} to {} at t={at}", r.from, r.to)
        })
        .collect();
    survival.note(INV_EPOCH_MONOTONICITY, problems);

    // 2. No stale-epoch leak: every honest node's final state holds its
    // local invariants — an install or merge that slipped past the
    // epoch envelope would leave indices out of bounds.
    let problems: Vec<String> = probes
        .iter()
        .enumerate()
        .filter(|&(i, p)| honest(i) && !p.invariants_ok)
        .map(|(i, p)| {
            format!(
                "node {i} ended with broken local invariants (epoch {}, {} stale drops)",
                p.epoch, p.stale_epoch_dropped
            )
        })
        .collect();
    survival.note(INV_NO_STALE_EPOCH_LEAK, problems);

    // 3. Reset termination: once any reset started, every honest node
    // must have finished it — nobody still wrapping, everybody in the
    // same (highest) epoch.
    if reset_active && !probes.is_empty() {
        let mut problems = Vec::new();
        let max_epoch = probes
            .iter()
            .enumerate()
            .filter(|&(i, _)| honest(i))
            .map(|(_, p)| p.epoch)
            .max()
            .unwrap_or(0);
        for (i, p) in probes.iter().enumerate().filter(|&(i, _)| honest(i)) {
            if p.wrapping {
                problems.push(format!("node {i} still wrapping at end of run"));
            }
            if p.epoch != max_epoch {
                problems.push(format!(
                    "node {i} ended in epoch {} while the cluster reached {max_epoch}",
                    p.epoch
                ));
            }
        }
        survival.note(INV_RESET_TERMINATION, problems);
    }

    // 4. Post-reset linearizability over the honest sub-history: the
    // snapshots honest clients invoked after the last epoch change must
    // linearize — against *all* honest writes, pre-reset included,
    // because the reset preserves register values and a post-reset
    // snapshot legitimately observes them. (Skipped on corrupting
    // plans, same as the full-history check.)
    if !corrupting && reset_active {
        let cut = last_epoch_change.unwrap_or(0);
        let honest_suffix = report
            .history
            .filter_nodes(|node| honest(node.index()))
            .suffix_keeping_writes(cut);
        let verdict = sss_checker::check(&honest_suffix, n);
        let problems: Vec<String> = verdict.violations.iter().map(|v| v.to_string()).collect();
        survival.note(INV_POST_RESET_LINEARIZABILITY, problems);
    }

    Some(survival)
}

/// The self-stabilization half: every `Corrupt` injection must
/// eventually be followed by that node's `Stabilized` probe. A missing
/// probe is only a violation once the node is up and at least
/// [`CYCLES_TO_JUDGE`] whole asynchronous cycles passed after the later
/// of its last corruption and its last revival; otherwise the
/// corruption is counted inconclusive.
fn judge_stabilization(faults: &FaultState, out: &mut OracleReport) {
    for (i, s) in faults.nodes().iter().enumerate() {
        out.corruptions += s.corruptions as usize;
        out.stabilizations += s.stabilizations as usize;
        let Some(taint) = s.taint else {
            continue;
        };
        if s.crashed {
            out.inconclusive += 1;
            continue;
        }
        // Cycles spent crashed do not count.
        let cycles_observed = faults.cycles() - taint.cycle.max(s.revived_cycle);
        if cycles_observed >= CYCLES_TO_JUDGE {
            out.violations.push(ChaosViolation::MissedStabilization {
                node: NodeId(i),
                corrupted_at: taint.at,
                cycles_observed,
            });
        } else {
            out.inconclusive += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::ByzBehavior;
    use sss_obs::{FaultKind, TraceEvent};
    use sss_types::History;

    fn fault(kind: FaultKind, node: usize) -> TraceEvent {
        TraceEvent::Fault {
            kind,
            node: Some(NodeId(node)),
            peer: None,
        }
    }

    fn trace(events: Vec<(TraceTime, TraceEvent)>) -> Vec<TraceRecord> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, (at, event))| TraceRecord {
                seq: i as u64,
                at,
                event,
            })
            .collect()
    }

    fn cycles(from: u64, count: u64, t0: TraceTime) -> Vec<(TraceTime, TraceEvent)> {
        (0..count)
            .map(|k| (t0 + k * 100, TraceEvent::CycleEnd { index: from + k }))
            .collect()
    }

    fn judge_records(records: &[TraceRecord]) -> OracleReport {
        let mut faults = FaultState::new(3);
        for rec in records {
            faults.fold(rec);
        }
        let mut out = OracleReport::default();
        judge_stabilization(&faults, &mut out);
        out
    }

    #[test]
    fn resolved_corruption_is_clean() {
        let mut evs = vec![(100, fault(FaultKind::Corrupt, 1))];
        evs.extend(cycles(0, 3, 200));
        evs.push((600, TraceEvent::Stabilized { node: NodeId(1) }));
        evs.extend(cycles(3, 20, 700));
        let r = judge_records(&trace(evs));
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!((r.corruptions, r.stabilizations, r.inconclusive), (1, 1, 0));
    }

    #[test]
    fn missing_probe_after_enough_cycles_is_a_violation() {
        let mut evs = vec![(100, fault(FaultKind::Corrupt, 2))];
        evs.extend(cycles(0, 15, 200));
        let r = judge_records(&trace(evs));
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            r.violations[0],
            ChaosViolation::MissedStabilization {
                node: NodeId(2),
                corrupted_at: 100,
                ..
            }
        ));
    }

    #[test]
    fn too_few_cycles_is_inconclusive_not_failed() {
        let mut evs = vec![(100, fault(FaultKind::Corrupt, 2))];
        evs.extend(cycles(0, 5, 200));
        let r = judge_records(&trace(evs));
        assert!(r.ok());
        assert_eq!(r.inconclusive, 1);
    }

    #[test]
    fn crashed_node_at_trace_end_is_inconclusive() {
        let mut evs = vec![
            (100, fault(FaultKind::Corrupt, 0)),
            (150, fault(FaultKind::Crash, 0)),
        ];
        evs.extend(cycles(0, 30, 200));
        let r = judge_records(&trace(evs));
        assert!(r.ok());
        assert_eq!(r.inconclusive, 1);
    }

    #[test]
    fn cycle_counting_restarts_after_revival() {
        // Corrupt, crash through 20 cycles, resume, then only 5 more
        // cycles: not judgeable yet.
        let mut evs = vec![
            (100, fault(FaultKind::Corrupt, 0)),
            (150, fault(FaultKind::Crash, 0)),
        ];
        evs.extend(cycles(0, 20, 200));
        evs.push((2_300, fault(FaultKind::Resume, 0)));
        evs.extend(cycles(20, 5, 2_400));
        let r = judge_records(&trace(evs));
        assert!(r.ok());
        assert_eq!(r.inconclusive, 1);
    }

    #[test]
    fn lin_check_is_skipped_for_corrupting_plans() {
        let plan = FaultPlan::new().at(10, FaultEvent::Corrupt(NodeId(0)));
        let report = RunReport {
            backend: "sim",
            history: History::new(),
            stats: Default::default(),
            probes: vec![],
        };
        let r = judge(2, &plan, &report, &[]);
        assert!(!r.lin_checked);
        let clean_plan = FaultPlan::new().at(10, FaultEvent::Crash(NodeId(0)));
        let r = judge(2, &clean_plan, &report, &[]);
        assert!(r.lin_checked);
    }

    fn byz_plan() -> FaultPlan {
        FaultPlan::new().at(
            10,
            FaultEvent::Byzantine {
                node: NodeId(1),
                behavior: ByzBehavior::Equivocate,
            },
        )
    }

    fn probe(epoch: u64, wrapping: bool, invariants_ok: bool) -> sss_net::NodeProbe {
        sss_net::NodeProbe {
            epoch,
            wrapping,
            invariants_ok,
            stale_epoch_dropped: 0,
        }
    }

    #[test]
    fn byzantine_plans_skip_the_full_lin_check_but_get_a_survival_report() {
        let report = RunReport {
            backend: "sim",
            history: History::new(),
            stats: Default::default(),
            probes: vec![probe(0, false, true); 3],
        };
        let r = judge(3, &byz_plan(), &report, &[]);
        assert!(!r.lin_checked);
        let survival = r
            .survival
            .as_ref()
            .expect("byz plans always get a survival audit");
        assert!(survival.held.contains(&INV_EPOCH_MONOTONICITY));
        assert!(survival.held.contains(&INV_NO_STALE_EPOCH_LEAK));
        assert!(r.ok(), "byz observations are not violations");
    }

    #[test]
    fn quiet_fault_only_plans_get_no_survival_audit() {
        let plan = FaultPlan::new().at(10, FaultEvent::Crash(NodeId(0)));
        let report = RunReport {
            backend: "sim",
            history: History::new(),
            stats: Default::default(),
            probes: vec![probe(0, false, true); 2],
        };
        let r = judge(2, &plan, &report, &[]);
        assert!(r.survival.is_none());
    }

    #[test]
    fn unfinished_reset_on_fault_only_plan_is_a_violation() {
        let plan = FaultPlan::new().at(10, FaultEvent::Crash(NodeId(0)));
        let report = RunReport {
            backend: "sim",
            history: History::new(),
            stats: Default::default(),
            // Node 1 wrapped and finished (epoch 1); node 0 is stuck
            // wrapping in epoch 0.
            probes: vec![probe(0, true, true), probe(1, false, true)],
        };
        let r = judge(2, &plan, &report, &[]);
        let survival = r.survival.expect("reset activity triggers the audit");
        assert!(survival
            .broken
            .iter()
            .any(|(inv, _)| *inv == INV_RESET_TERMINATION));
        assert!(
            r.violations.iter().any(
                |v| matches!(v, ChaosViolation::InvariantBroken { invariant, .. }
                    if *invariant == INV_RESET_TERMINATION)
            ),
            "fault-only plans escalate broken invariants: {:?}",
            r.violations
        );
    }

    #[test]
    fn byzantine_probe_state_never_escalates_to_violations() {
        let report = RunReport {
            backend: "sim",
            history: History::new(),
            stats: Default::default(),
            // The liar (node 1) ends wrapping with broken invariants —
            // ignored; honest nodes agree on epoch 1 and are clean.
            probes: vec![
                probe(1, false, true),
                probe(0, true, false),
                probe(1, false, true),
            ],
        };
        let r = judge(3, &byz_plan(), &report, &[]);
        let survival = r.survival.as_ref().unwrap();
        assert!(survival.held.contains(&INV_NO_STALE_EPOCH_LEAK));
        assert!(survival.held.contains(&INV_RESET_TERMINATION));
        assert!(r.ok());
    }

    #[test]
    fn epoch_regression_breaks_monotonicity() {
        let evs = vec![
            (
                100,
                TraceEvent::EpochChange {
                    node: NodeId(0),
                    epoch: 2,
                    stale_dropped: 0,
                },
            ),
            (
                200,
                TraceEvent::EpochChange {
                    node: NodeId(0),
                    epoch: 1,
                    stale_dropped: 0,
                },
            ),
        ];
        let plan = FaultPlan::new().at(10, FaultEvent::Crash(NodeId(1)));
        let report = RunReport {
            backend: "sim",
            history: History::new(),
            stats: Default::default(),
            probes: vec![probe(2, false, true), probe(2, false, true)],
        };
        let r = judge(2, &plan, &report, &trace(evs));
        let survival = r.survival.unwrap();
        assert!(survival
            .broken
            .iter()
            .any(|(inv, _)| *inv == INV_EPOCH_MONOTONICITY));
    }

    #[test]
    fn byzantine_nodes_reads_the_plan() {
        assert_eq!(byzantine_nodes(3, &byz_plan()), vec![false, true, false]);
        let clean = FaultPlan::new().at(10, FaultEvent::Heal);
        assert_eq!(byzantine_nodes(2, &clean), vec![false, false]);
    }
}
