//! Delta-debugging a failing fault plan down to a minimal reproducer.

use sss_net::{FaultEvent, FaultPlan, ModelTime};
use sss_obs::FaultState;

/// The shrinker's result.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimal plan found (still failing, still valid).
    pub plan: FaultPlan,
    /// Events in the original plan.
    pub from_events: usize,
    /// Events after shrinking.
    pub to_events: usize,
    /// Re-executions spent.
    pub runs: usize,
}

/// Shrinks `plan` while `still_fails` keeps returning `true` for the
/// candidate, spending at most `max_runs` re-executions.
///
/// Two phases, both re-validated and re-verified at every step:
///
/// 1. **Greedy chunk removal** (ddmin-style): drop contiguous chunks of
///    the schedule, halving the chunk size down to single events. Each
///    candidate is *repaired* first — removal can orphan node-state
///    events (a `Resume` whose `Crash` was dropped), which repair
///    deletes rather than letting validation reject the whole
///    candidate.
/// 2. **Time compaction**: remap the surviving event times onto a tight
///    uniform grid (rank order preserved, distinct times stay
///    distinct, so no same-instant conflicts can appear).
///
/// `still_fails` is only ever called with plans that pass
/// [`FaultPlan::validate`], and the returned plan is the last candidate
/// it confirmed (or the original if nothing could be removed).
pub fn shrink(
    n: usize,
    plan: &FaultPlan,
    max_runs: usize,
    mut still_fails: impl FnMut(&FaultPlan) -> bool,
) -> ShrinkOutcome {
    let seed = plan.seed();
    let original: Vec<(ModelTime, FaultEvent)> = plan
        .sorted_events()
        .map(|(t, ev)| (t, ev.clone()))
        .collect();
    let from_events = original.len();
    let mut current = original;
    let mut runs = 0usize;

    let mut try_candidate = |events: Vec<(ModelTime, FaultEvent)>,
                             runs: &mut usize|
     -> Option<Vec<(ModelTime, FaultEvent)>> {
        let repaired = repair(events, n);
        let candidate = FaultPlan::with_events(seed, repaired.clone());
        if candidate.validate(n).is_err() {
            return None;
        }
        if *runs >= max_runs {
            return None;
        }
        *runs += 1;
        still_fails(&candidate).then_some(repaired)
    };

    // Phase 1: greedy chunk removal, halving chunk sizes.
    let mut chunk = current.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut start = 0;
        while start < current.len() && runs < max_runs {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            if candidate.len() < current.len() {
                if let Some(kept) = try_candidate(candidate, &mut runs) {
                    current = kept;
                    removed_any = true;
                    // Re-scan from the same offset: the events that
                    // slid into this window are untried.
                    continue;
                }
            }
            start += chunk;
        }
        if runs >= max_runs {
            break;
        }
        if !removed_any {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }

    // Phase 2: time compaction onto a uniform grid (rank-preserving, so
    // relative order — and therefore validity — is unchanged).
    let compacted: Vec<(ModelTime, FaultEvent)> = current
        .iter()
        .enumerate()
        .map(|(i, (_, ev))| ((i as ModelTime + 1) * 100, ev.clone()))
        .collect();
    if compacted != current {
        if let Some(kept) = try_candidate(compacted, &mut runs) {
            current = kept;
        }
    }

    let to_events = current.len();
    ShrinkOutcome {
        plan: FaultPlan::with_events(seed, current),
        from_events,
        to_events,
        runs,
    }
}

/// Deletes events orphaned by chunk removal so the candidate has a
/// chance to validate: every event [`FaultState::fault`] calls illegal
/// (`Crash` of a crashed node, `Resume` of a live node, `Restart` of a
/// never-crashed node) — the machine [`FaultPlan::validate`] runs.
/// Everything else survives verbatim.
fn repair(events: Vec<(ModelTime, FaultEvent)>, n: usize) -> Vec<(ModelTime, FaultEvent)> {
    let mut faults = FaultState::new(n);
    events
        .into_iter()
        .filter(|(t, ev)| faults.fault(ev.kind(), ev.process(), *t).is_ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_types::NodeId;

    fn plan_of(events: Vec<(ModelTime, FaultEvent)>) -> FaultPlan {
        FaultPlan::with_events(1, events)
    }

    #[test]
    fn shrinks_to_the_single_culprit_event() {
        let events = vec![
            (100, FaultEvent::Crash(NodeId(0))),
            (200, FaultEvent::Corrupt(NodeId(1))),
            (300, FaultEvent::Resume(NodeId(0))),
            (400, FaultEvent::Heal),
            (500, FaultEvent::Corrupt(NodeId(2))),
            (600, FaultEvent::Crash(NodeId(1))),
            (700, FaultEvent::Resume(NodeId(1))),
            (800, FaultEvent::Heal),
        ];
        let plan = plan_of(events);
        // "Fails" iff the plan still corrupts node 2.
        let fails = |p: &FaultPlan| {
            p.events()
                .iter()
                .any(|(_, ev)| matches!(ev, FaultEvent::Corrupt(n) if *n == NodeId(2)))
        };
        let out = shrink(3, &plan, 400, fails);
        assert_eq!(out.to_events, 1, "minimal reproducer: {:?}", out.plan);
        assert!(fails(&out.plan));
        assert_eq!(out.plan.validate(3), Ok(()));
        assert_eq!(out.from_events, 8);
        // Time compaction normalized the surviving timestamp.
        assert_eq!(out.plan.events()[0].0, 100);
    }

    #[test]
    fn repair_drops_orphaned_node_state_events() {
        let repaired = repair(
            vec![
                (100, FaultEvent::Resume(NodeId(0))),  // orphaned
                (200, FaultEvent::Restart(NodeId(1))), // orphaned
                (300, FaultEvent::Crash(NodeId(2))),
                (400, FaultEvent::Crash(NodeId(2))), // double crash
                (500, FaultEvent::Resume(NodeId(2))),
            ],
            3,
        );
        assert_eq!(
            repaired,
            vec![
                (300, FaultEvent::Crash(NodeId(2))),
                (500, FaultEvent::Resume(NodeId(2))),
            ]
        );
    }

    #[test]
    fn repair_returns_every_valid_plan_unchanged() {
        use crate::StrategyKind;
        for s in StrategyKind::ALL
            .into_iter()
            .chain(StrategyKind::ADVERSARIAL)
        {
            for n in [3, 5, 7] {
                for seed in 0..32 {
                    let plan = s.scenario(n, seed).plan;
                    assert_eq!(plan.validate(n), Ok(()));
                    let events = plan.events().to_vec();
                    assert_eq!(
                        repair(events.clone(), n),
                        events,
                        "{} n={n} seed={seed}",
                        s.name()
                    );
                }
            }
        }
    }

    #[test]
    fn shrink_preserves_paired_dependencies() {
        // Failure requires the *Restart* of node 0 — which repair only
        // keeps if some Crash of node 0 survives too.
        let events = vec![
            (100, FaultEvent::Crash(NodeId(0))),
            (200, FaultEvent::Corrupt(NodeId(1))),
            (300, FaultEvent::Restart(NodeId(0))),
            (400, FaultEvent::Heal),
        ];
        let plan = plan_of(events);
        let fails = |p: &FaultPlan| {
            p.events()
                .iter()
                .any(|(_, ev)| matches!(ev, FaultEvent::Restart(_)))
        };
        let out = shrink(2, &plan, 400, fails);
        assert_eq!(out.plan.validate(2), Ok(()));
        assert!(fails(&out.plan));
        assert_eq!(out.to_events, 2, "crash + restart: {:?}", out.plan);
    }

    #[test]
    fn run_budget_is_respected() {
        let events: Vec<_> = (0..40)
            .map(|i| (100 * (i as ModelTime + 1), FaultEvent::Corrupt(NodeId(0))))
            .collect();
        let plan = plan_of(events);
        let mut calls = 0usize;
        let out = shrink(1, &plan, 7, |_| {
            calls += 1;
            true
        });
        assert!(out.runs <= 7);
        assert_eq!(calls, out.runs);
        assert!(out.to_events < 40, "some progress even on a tiny budget");
    }

    #[test]
    fn non_removable_plans_come_back_unchanged() {
        let events = vec![(100, FaultEvent::Corrupt(NodeId(0)))];
        let plan = plan_of(events.clone());
        // Nothing smaller fails: the single event is the reproducer.
        let out = shrink(1, &plan, 100, |p| !p.events().is_empty());
        assert_eq!(out.plan.events(), &events[..]);
        assert_eq!((out.from_events, out.to_events), (1, 1));
    }
}
