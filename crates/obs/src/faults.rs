//! The one per-node fault-state machine.
//!
//! Theorems 1 and 2 bound recovery from a node's *last* transient fault
//! until it is legitimate again, so every consumer of the fault stream
//! needs the same answers to "is this node crashed", "was it ever",
//! "is it lying", "which corruption is still open" and "how many
//! asynchronous cycles have passed since". [`FaultState`] is the one
//! place those answers are kept: the plan validator, the shrinker and
//! the chaos generator drive it through [`FaultState::fault`], and the
//! ops plane, the oracle and E15 fold whole traces through
//! [`FaultState::fold`].

use crate::event::{FaultKind, TraceEvent, TraceRecord, TraceTime};
use sss_types::NodeId;

/// A corruption not yet closed by the node's `Stabilized` probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Taint {
    /// When the corruption was injected (model µs).
    pub at: TraceTime,
    /// The cluster's cycle count when it was injected.
    pub cycle: u64,
}

/// One node's fault state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeFaults {
    /// Crashed and not yet resumed or restarted.
    pub crashed: bool,
    /// Crashed at some point.
    pub ever_crashed: bool,
    /// The fault plane rewrites its outgoing messages right now.
    pub byzantine: bool,
    /// Was Byzantine at some point (untrusted for the whole run).
    pub ever_byzantine: bool,
    /// Its latest corruption, while no `Stabilized` has closed it. A
    /// second corruption replaces the first: recovery is measured from
    /// the last transient fault.
    pub taint: Option<Taint>,
    /// The cluster's cycle count at its last `Resume` or `Restart` (0
    /// if it never revived). Cycles spent crashed do not count towards
    /// recovery.
    pub revived_cycle: u64,
    /// The highest bounded-counter epoch it reported since its last
    /// detectable restart (a restart re-initializes the epoch to 0).
    pub epoch: u64,
    /// Corruptions injected.
    pub corruptions: u64,
    /// `Stabilized` probes seen.
    pub stabilizations: u64,
    /// Detectable restarts.
    pub restarts: u64,
}

/// A fault a well-formed plan cannot contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IllegalFault {
    /// `Crash` of a node that is already crashed.
    CrashWhileCrashed(NodeId),
    /// `Resume` of a node that is not crashed.
    ResumeWithoutCrash(NodeId),
    /// `Restart` of a node that never crashed.
    RestartWithoutCrash(NodeId),
}

/// An `EpochChange` that reported a lower epoch than the node had
/// already reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochRegression {
    /// The node.
    pub node: NodeId,
    /// The highest epoch it had reported before.
    pub from: u64,
    /// The lower epoch it reported.
    pub to: u64,
    /// When (model µs).
    pub at: TraceTime,
}

/// One recovery: a node's open taint closed by its `Stabilized` probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryEpisode {
    /// The recovered node.
    pub node: NodeId,
    /// Asynchronous cycles completed between its latest corruption and
    /// the probe.
    pub cycles: u64,
    /// Model µs between its latest corruption and the probe.
    pub model_us: u64,
}

/// Fault state for an `n`-node cluster: one [`NodeFaults`] per node,
/// plus the cycle count and whether a partition is active.
///
/// Pure: the state is a function of the faults and records fed in, in
/// order. Nodes outside `0..n` are ignored.
#[derive(Clone, Debug, Default)]
pub struct FaultState {
    nodes: Vec<NodeFaults>,
    cycles: u64,
    partitioned: bool,
    epoch_regressions: Vec<EpochRegression>,
    last_epoch_change: Option<TraceTime>,
}

impl FaultState {
    /// All `n` nodes up, honest and untainted.
    pub fn new(n: usize) -> FaultState {
        FaultState {
            nodes: vec![NodeFaults::default(); n],
            ..FaultState::default()
        }
    }

    /// One node's state.
    ///
    /// # Panics
    ///
    /// If `i >= n`.
    pub fn node(&self, i: usize) -> &NodeFaults {
        &self.nodes[i]
    }

    /// Every node's state, in id order.
    pub fn nodes(&self) -> &[NodeFaults] {
        &self.nodes
    }

    /// Asynchronous cycles completed: one past the highest `CycleEnd`
    /// index folded, which on a complete trace is the number of
    /// `CycleEnd` records.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether a group partition is active (a `Partition` not yet
    /// followed by a `Heal`).
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Nodes crashed right now.
    pub fn crashed_count(&self) -> usize {
        self.nodes.iter().filter(|s| s.crashed).count()
    }

    /// Nodes with an open taint right now.
    pub fn tainted_count(&self) -> usize {
        self.nodes.iter().filter(|s| s.taint.is_some()).count()
    }

    /// Every epoch regression folded, in trace order.
    pub fn epoch_regressions(&self) -> &[EpochRegression] {
        &self.epoch_regressions
    }

    /// The latest time any node reported an `EpochChange`.
    pub fn last_epoch_change(&self) -> Option<TraceTime> {
        self.last_epoch_change
    }

    /// Applies one fault injected at `at`; `node` is the affected node
    /// (`None`, or ignored, for the link kinds).
    ///
    /// # Errors
    ///
    /// The [`IllegalFault`] when the transition is one a well-formed
    /// plan cannot contain. It is applied all the same — a trace folds
    /// what happened — and leaves `crashed` and `ever_crashed` as they
    /// were, so a caller that skips the event sees the state it would
    /// have seen without it.
    pub fn fault(
        &mut self,
        kind: FaultKind,
        node: Option<NodeId>,
        at: TraceTime,
    ) -> Result<(), IllegalFault> {
        match kind {
            FaultKind::Partition => self.partitioned = true,
            FaultKind::Heal => self.partitioned = false,
            _ => {}
        }
        let cycle = self.cycles;
        let Some((p, s)) = node.and_then(|p| Some((p, self.nodes.get_mut(p.index())?))) else {
            return Ok(());
        };
        let illegal = match kind {
            FaultKind::Crash if s.crashed => Some(IllegalFault::CrashWhileCrashed(p)),
            FaultKind::Resume if !s.crashed => Some(IllegalFault::ResumeWithoutCrash(p)),
            FaultKind::Restart if !s.ever_crashed => Some(IllegalFault::RestartWithoutCrash(p)),
            _ => None,
        };
        match kind {
            FaultKind::Crash => (s.crashed, s.ever_crashed) = (true, true),
            FaultKind::Resume | FaultKind::Restart => {
                s.crashed = false;
                s.revived_cycle = cycle;
                if kind == FaultKind::Restart {
                    s.restarts += 1;
                    s.epoch = 0;
                }
            }
            FaultKind::Corrupt => {
                s.taint = Some(Taint { at, cycle });
                s.corruptions += 1;
            }
            FaultKind::Byzantine | FaultKind::Honest => {
                s.byzantine = kind == FaultKind::Byzantine;
                s.ever_byzantine |= s.byzantine;
            }
            FaultKind::Partition | FaultKind::Heal | FaultKind::LinkUp | FaultKind::LinkDown => {}
        }
        illegal.map_or(Ok(()), Err)
    }

    /// Folds one trace record: faults (legal or not), cycle boundaries,
    /// `Stabilized` probes and epoch changes. Returns the recovery a
    /// `Stabilized` closes; a probe with no open taint closes nothing.
    pub fn fold(&mut self, rec: &TraceRecord) -> Option<RecoveryEpisode> {
        match rec.event {
            TraceEvent::Fault { kind, node, .. } => {
                let _ = self.fault(kind, node, rec.at);
            }
            TraceEvent::CycleEnd { index } => self.cycles = self.cycles.max(index + 1),
            TraceEvent::Stabilized { node } => {
                let s = self.nodes.get_mut(node.index())?;
                s.stabilizations += 1;
                let taint = s.taint.take()?;
                return Some(RecoveryEpisode {
                    node,
                    cycles: self.cycles - taint.cycle,
                    model_us: rec.at.saturating_sub(taint.at),
                });
            }
            TraceEvent::EpochChange { node, epoch, .. } => {
                self.last_epoch_change = self.last_epoch_change.max(Some(rec.at));
                if let Some(s) = self.nodes.get_mut(node.index()) {
                    if epoch < s.epoch {
                        self.epoch_regressions.push(EpochRegression {
                            node,
                            from: s.epoch,
                            to: epoch,
                            at: rec.at,
                        });
                    }
                    s.epoch = s.epoch.max(epoch);
                }
            }
            _ => {}
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: TraceTime, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq: 0, at, event }
    }

    fn fault(kind: FaultKind, node: usize) -> TraceEvent {
        TraceEvent::Fault {
            kind,
            node: Some(NodeId(node)),
            peer: None,
        }
    }

    #[test]
    fn illegal_transitions_are_returned_and_leave_crash_state_alone() {
        let p = NodeId(1);
        let mut s = FaultState::new(3);
        assert_eq!(
            s.fault(FaultKind::Resume, Some(p), 0),
            Err(IllegalFault::ResumeWithoutCrash(p))
        );
        assert_eq!(
            s.fault(FaultKind::Restart, Some(p), 0),
            Err(IllegalFault::RestartWithoutCrash(p))
        );
        assert!(!s.node(1).crashed && !s.node(1).ever_crashed);
        assert_eq!(s.fault(FaultKind::Crash, Some(p), 0), Ok(()));
        assert_eq!(
            s.fault(FaultKind::Crash, Some(p), 0),
            Err(IllegalFault::CrashWhileCrashed(p))
        );
        assert_eq!(s.crashed_count(), 1);
        assert_eq!(s.fault(FaultKind::Restart, Some(p), 0), Ok(()));
        assert_eq!(s.fault(FaultKind::Crash, Some(NodeId(7)), 0), Ok(()));
        assert_eq!(s.crashed_count(), 0);
    }

    #[test]
    fn recovery_is_measured_from_the_latest_corruption() {
        let mut s = FaultState::new(2);
        let mut episodes = Vec::new();
        let trace = [
            rec(10, fault(FaultKind::Corrupt, 1)),
            rec(20, TraceEvent::CycleEnd { index: 0 }),
            rec(30, fault(FaultKind::Corrupt, 1)),
            rec(40, TraceEvent::CycleEnd { index: 1 }),
            rec(50, TraceEvent::Stabilized { node: NodeId(1) }),
            rec(60, TraceEvent::Stabilized { node: NodeId(1) }),
        ];
        for r in &trace {
            episodes.extend(s.fold(r));
        }
        assert_eq!(
            episodes,
            vec![RecoveryEpisode {
                node: NodeId(1),
                cycles: 1,
                model_us: 20
            }]
        );
        assert_eq!((s.node(1).corruptions, s.node(1).stabilizations), (2, 2));
        assert_eq!(s.tainted_count(), 0);
        assert_eq!(s.cycles(), 2);
    }

    #[test]
    fn epochs_keep_their_maximum_and_record_regressions() {
        let mut s = FaultState::new(2);
        let change = |node, epoch| TraceEvent::EpochChange {
            node: NodeId(node),
            epoch,
            stale_dropped: 0,
        };
        s.fold(&rec(5, change(0, 2)));
        s.fold(&rec(9, change(0, 1)));
        assert_eq!(s.node(0).epoch, 2);
        assert_eq!(
            s.epoch_regressions(),
            &[EpochRegression {
                node: NodeId(0),
                from: 2,
                to: 1,
                at: 9
            }]
        );
        assert_eq!(s.last_epoch_change(), Some(9));
    }

    #[test]
    fn a_restart_reinitializes_the_epoch_without_a_regression() {
        let mut s = FaultState::new(2);
        let change = |epoch| TraceEvent::EpochChange {
            node: NodeId(1),
            epoch,
            stale_dropped: 0,
        };
        s.fold(&rec(5, change(2)));
        s.fold(&rec(6, fault(FaultKind::Crash, 1)));
        s.fold(&rec(7, fault(FaultKind::Restart, 1)));
        s.fold(&rec(8, change(0)));
        assert!(s.epoch_regressions().is_empty());
        assert_eq!(s.node(1).epoch, 0);
        s.fold(&rec(9, change(1)));
        assert_eq!(s.node(1).epoch, 1);
    }

    #[test]
    fn byzantine_and_partition_flags_follow_the_stream() {
        let mut s = FaultState::new(2);
        s.fold(&rec(1, fault(FaultKind::Byzantine, 0)));
        s.fold(&rec(2, fault(FaultKind::Honest, 0)));
        s.fold(&rec(
            3,
            TraceEvent::Fault {
                kind: FaultKind::Partition,
                node: None,
                peer: None,
            },
        ));
        assert!(!s.node(0).byzantine && s.node(0).ever_byzantine);
        assert!(s.partitioned());
    }
}
