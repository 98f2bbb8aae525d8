//! Declarative fault schedules replayable on any backend.

use crate::ModelTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_obs::{FaultKind, FaultState, IllegalFault, JsonValue};
use sss_types::{ByzBehavior, NodeId};

/// One fault event in a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash (stop taking steps, undetectably).
    Crash(NodeId),
    /// Resume with state intact.
    Resume(NodeId),
    /// Detectable restart (variables re-initialized; also clears a crash).
    Restart(NodeId),
    /// Transient fault (state arbitrarily corrupted). The corruption
    /// randomness is seeded by the plan — see
    /// [`FaultPlan::corruption_seed`] — so both backends produce the
    /// same "arbitrary" state.
    Corrupt(NodeId),
    /// Group-based partition: links across groups cut, links within a
    /// group restored, ungrouped nodes isolated (see
    /// [`crate::cut_matrix`]).
    Partition(Vec<Vec<NodeId>>),
    /// Restore every link.
    Heal,
    /// Cut (`up = false`) or restore one directed link.
    SetLink {
        /// Sender side of the link.
        from: NodeId,
        /// Receiver side of the link.
        to: NodeId,
        /// `true` restores the link, `false` cuts it.
        up: bool,
    },
    /// Turn a node Byzantine (or honest again with
    /// [`ByzBehavior::Honest`]): its outgoing messages pass through a
    /// seeded per-link rewrite hook — equivocation, stale replay, or
    /// index inflation — so all backends inherit the same adversary
    /// unchanged.
    Byzantine {
        /// The lying node.
        node: NodeId,
        /// What kind of lies it tells.
        behavior: ByzBehavior,
    },
}

impl FaultEvent {
    /// The process a node-scoped event acts on ([`crate::Process::apply`]),
    /// or `None` for the link-scoped `Partition`, `Heal` and `SetLink`
    /// ([`crate::LinkModel::apply_fault`]).
    pub fn process(&self) -> Option<NodeId> {
        match *self {
            FaultEvent::Crash(node)
            | FaultEvent::Resume(node)
            | FaultEvent::Restart(node)
            | FaultEvent::Corrupt(node)
            | FaultEvent::Byzantine { node, .. } => Some(node),
            FaultEvent::Partition(_) | FaultEvent::Heal | FaultEvent::SetLink { .. } => None,
        }
    }

    /// The trace plane's name for this event — the one mapping from plan
    /// events to [`FaultKind`]s, which [`FaultPlan::trace_event`] records
    /// and plan-level callers feed to [`FaultState::fault`] with
    /// [`FaultEvent::process`] as the node.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultEvent::Crash(_) => FaultKind::Crash,
            FaultEvent::Resume(_) => FaultKind::Resume,
            FaultEvent::Restart(_) => FaultKind::Restart,
            FaultEvent::Corrupt(_) => FaultKind::Corrupt,
            FaultEvent::Partition(_) => FaultKind::Partition,
            FaultEvent::Heal => FaultKind::Heal,
            FaultEvent::SetLink { up: true, .. } => FaultKind::LinkUp,
            FaultEvent::SetLink { up: false, .. } => FaultKind::LinkDown,
            FaultEvent::Byzantine {
                behavior: ByzBehavior::Honest,
                ..
            } => FaultKind::Honest,
            FaultEvent::Byzantine { .. } => FaultKind::Byzantine,
        }
    }
}

/// Why [`FaultPlan::validate`] rejected a schedule.
///
/// Both backends validate a plan before replaying it, so a malformed
/// schedule fails loudly and identically everywhere instead of silently
/// meaning different things on different execution models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// An event names a node index `>= n`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The event's scheduled time.
        at: ModelTime,
        /// The cluster size the plan was validated against.
        n: usize,
    },
    /// A `SetLink` names the same node on both ends (self-delivery never
    /// passes through the link model).
    SelfLink {
        /// The event's scheduled time.
        at: ModelTime,
    },
    /// A partition lists some node in more than one group (group
    /// membership must be a partial function).
    DuplicateGroupMember {
        /// The duplicated node.
        node: NodeId,
        /// The event's scheduled time.
        at: ModelTime,
    },
    /// `Crash` of a node that is already crashed.
    CrashWhileCrashed {
        /// The node.
        node: NodeId,
        /// The event's scheduled time.
        at: ModelTime,
    },
    /// `Resume` of a node that is not currently crashed.
    ResumeWithoutCrash {
        /// The node.
        node: NodeId,
        /// The event's scheduled time.
        at: ModelTime,
    },
    /// `Restart` of a node that never crashed earlier in the plan. A
    /// detectable restart models a node going down and coming back; a
    /// plan that wants to bounce a live node says so explicitly with a
    /// `Crash` immediately before the `Restart`.
    RestartWithoutCrash {
        /// The node.
        node: NodeId,
        /// The event's scheduled time.
        at: ModelTime,
    },
    /// Two link-matrix operations at the same timestamp whose combined
    /// effect depends on ordering: more than one `Partition`/`Heal`, a
    /// `Partition`/`Heal` mixed with a `SetLink`, or two `SetLink`s on
    /// the same directed link with opposite `up`.
    ConflictingLinkOps {
        /// The shared timestamp.
        at: ModelTime,
    },
    /// Two node-state operations (`Crash`/`Resume`/`Restart`/`Corrupt`)
    /// on the same node at the same timestamp — their outcome would
    /// depend on insertion order.
    ConflictingNodeOps {
        /// The node.
        node: NodeId,
        /// The shared timestamp.
        at: ModelTime,
    },
    /// The plan was constructed out of time order. Backends replay the
    /// stable time-sort, so an unsorted construction makes equal-time
    /// tie-breaking depend on insertion accidents; schedules must be
    /// built in non-decreasing time order.
    Unsorted {
        /// The first out-of-order time.
        at: ModelTime,
        /// The larger time constructed before it.
        after: ModelTime,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NodeOutOfRange { node, at, n } => {
                write!(f, "event at t={at} names {node:?} but n={n}")
            }
            PlanError::SelfLink { at } => write!(f, "SetLink at t={at} has from == to"),
            PlanError::DuplicateGroupMember { node, at } => {
                write!(f, "partition at t={at} lists {node:?} in two groups")
            }
            PlanError::CrashWhileCrashed { node, at } => {
                write!(f, "Crash at t={at} of already-crashed {node:?}")
            }
            PlanError::ResumeWithoutCrash { node, at } => {
                write!(f, "Resume at t={at} of non-crashed {node:?}")
            }
            PlanError::RestartWithoutCrash { node, at } => {
                write!(f, "Restart at t={at} of never-crashed {node:?}")
            }
            PlanError::ConflictingLinkOps { at } => {
                write!(f, "order-dependent link operations at t={at}")
            }
            PlanError::ConflictingNodeOps { node, at } => {
                write!(f, "order-dependent operations on {node:?} at t={at}")
            }
            PlanError::Unsorted { at, after } => {
                write!(f, "event at t={at} constructed after an event at t={after}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A deterministic, time-ordered schedule of fault events, in model
/// microseconds. Built once, replayed on any [`crate::Backend`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    events: Vec<(ModelTime, FaultEvent)>,
    seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            seed: 0x5EED_FA17,
        }
    }
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the plan seed (feeds corruption randomness; builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds an event at time `t` (builder-style).
    pub fn at(mut self, t: ModelTime, ev: FaultEvent) -> Self {
        self.events.push((t, ev));
        self
    }

    /// Crashes a random minority of nodes at `t`, returning the plan and
    /// the crashed set.
    pub fn crash_random_minority(
        mut self,
        n: usize,
        t: ModelTime,
        seed: u64,
    ) -> (Self, Vec<NodeId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = (n - 1) / 2;
        let count = if f == 0 { 0 } else { rng.gen_range(1..=f) };
        let mut pool: Vec<usize> = (0..n).collect();
        let mut crashed = Vec::new();
        for _ in 0..count {
            let i = rng.gen_range(0..pool.len());
            let node = NodeId(pool.swap_remove(i));
            crashed.push(node);
            self.events.push((t, FaultEvent::Crash(node)));
        }
        (self, crashed)
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[(ModelTime, FaultEvent)] {
        &self.events
    }

    /// The events sorted by time (stable, so equal-time events keep
    /// insertion order) — the order backends replay them in. Only the
    /// (time, position) keys are sorted; the events themselves are
    /// borrowed, not cloned.
    pub fn sorted_events(&self) -> impl Iterator<Item = (ModelTime, &FaultEvent)> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].0);
        order.into_iter().map(|i| {
            let (t, ev) = &self.events[i];
            (*t, ev)
        })
    }

    /// The time of the last scheduled event (0 for an empty plan);
    /// backends use this to size run horizons.
    pub fn last_event_time(&self) -> ModelTime {
        self.events.iter().map(|(t, _)| *t).max().unwrap_or(0)
    }

    /// Builds the trace event recording one plan event's injection — the
    /// one mapping, emitted by [`crate::Process::apply`] and
    /// [`crate::LinkModel::apply_fault`], so fault records are identical
    /// across execution models.
    pub fn trace_event(ev: &FaultEvent) -> sss_obs::TraceEvent {
        let (node, peer) = match *ev {
            FaultEvent::SetLink { from, to, .. } => (Some(from), Some(to)),
            _ => (ev.process(), None),
        };
        sss_obs::TraceEvent::Fault {
            kind: ev.kind(),
            node,
            peer,
        }
    }

    /// A plan from pre-built `(time, event)` pairs (the shrinker's and
    /// the JSON reader's constructor). Events must already be in
    /// non-decreasing time order — [`FaultPlan::validate`] rejects the
    /// plan otherwise.
    pub fn with_events(seed: u64, events: Vec<(ModelTime, FaultEvent)>) -> Self {
        FaultPlan { events, seed }
    }

    /// Checks the schedule is well-formed for an `n`-node cluster.
    ///
    /// Rejected shapes (see [`PlanError`]): node indices `>= n`,
    /// self-link cuts, duplicate partition-group membership, `Crash` of
    /// an already-crashed node, `Resume` of a non-crashed node,
    /// `Restart` of a never-crashed node, order-dependent same-timestamp
    /// combinations (two link-matrix writes; two node-state events on
    /// one node), and out-of-time-order construction.
    ///
    /// Both backends call this before replaying a plan, and the chaos
    /// generators only emit plans that pass it.
    ///
    /// # Errors
    ///
    /// The first [`PlanError`] encountered, in schedule order.
    pub fn validate(&self, n: usize) -> Result<(), PlanError> {
        let mut faults = FaultState::new(n);
        let mut prev_t: ModelTime = 0;
        let node_ok = |node: &NodeId, at: ModelTime| {
            if node.index() >= n {
                Err(PlanError::NodeOutOfRange { node: *node, at, n })
            } else {
                Ok(())
            }
        };
        // Per-timestamp conflict scratch, reset at each time boundary.
        let mut grp_t: ModelTime = 0;
        let mut matrix_ops = 0usize; // Partition / Heal
        let mut set_links: Vec<(NodeId, NodeId, bool)> = Vec::new();
        let mut node_ops: Vec<NodeId> = Vec::new(); // node-scoped targets
        for (i, (t, ev)) in self.events.iter().enumerate() {
            if *t < prev_t {
                return Err(PlanError::Unsorted {
                    at: *t,
                    after: prev_t,
                });
            }
            prev_t = *t;
            if i == 0 || *t != grp_t {
                grp_t = *t;
                matrix_ops = 0;
                set_links.clear();
                node_ops.clear();
            }
            if let Some(node) = ev.process() {
                node_ok(&node, *t)?;
            }
            faults
                .fault(ev.kind(), ev.process(), *t)
                .map_err(|illegal| match illegal {
                    IllegalFault::CrashWhileCrashed(node) => {
                        PlanError::CrashWhileCrashed { node, at: *t }
                    }
                    IllegalFault::ResumeWithoutCrash(node) => {
                        PlanError::ResumeWithoutCrash { node, at: *t }
                    }
                    IllegalFault::RestartWithoutCrash(node) => {
                        PlanError::RestartWithoutCrash { node, at: *t }
                    }
                })?;
            match ev {
                FaultEvent::Partition(groups) => {
                    let mut seen = vec![false; n];
                    for g in groups {
                        for m in g {
                            node_ok(m, *t)?;
                            if seen[m.index()] {
                                return Err(PlanError::DuplicateGroupMember { node: *m, at: *t });
                            }
                            seen[m.index()] = true;
                        }
                    }
                    matrix_ops += 1;
                }
                FaultEvent::Heal => matrix_ops += 1,
                FaultEvent::SetLink { from, to, up } => {
                    node_ok(from, *t)?;
                    node_ok(to, *t)?;
                    if from == to {
                        return Err(PlanError::SelfLink { at: *t });
                    }
                    if matrix_ops > 0
                        || set_links
                            .iter()
                            .any(|(f, g, u)| f == from && g == to && u != up)
                    {
                        return Err(PlanError::ConflictingLinkOps { at: *t });
                    }
                    set_links.push((*from, *to, *up));
                }
                _ => {}
            }
            // Two writes of the whole link matrix, or one beside a link
            // write, at one time.
            if matches!(ev, FaultEvent::Partition(_) | FaultEvent::Heal)
                && (matrix_ops > 1 || !set_links.is_empty())
            {
                return Err(PlanError::ConflictingLinkOps { at: *t });
            }
            // Two node-state events on one node at one time.
            if let Some(node) = ev.process() {
                if node_ops.contains(&node) {
                    return Err(PlanError::ConflictingNodeOps { node, at: *t });
                }
                node_ops.push(node);
            }
        }
        Ok(())
    }

    /// Serializes the plan as a committable JSON document (events in
    /// replay order) — the fixture format the chaos engine's shrunk
    /// reproducers are stored in. [`FaultPlan::from_json`] inverts it.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"seed\": {}, \"events\": [", self.seed));
        let mut first = true;
        for (t, ev) in self.sorted_events() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&event_json(t, ev));
        }
        out.push_str("]}");
        out
    }

    /// Reads a plan back from [`FaultPlan::to_json`]'s format.
    ///
    /// # Errors
    ///
    /// A descriptive message for malformed JSON or unknown event shapes
    /// (structural validity only — call [`FaultPlan::validate`] for
    /// schedule semantics).
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let doc = JsonValue::parse(text)?;
        let seed = doc
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or("plan: missing u64 'seed'")?;
        let mut events = Vec::new();
        for item in doc
            .get("events")
            .and_then(JsonValue::as_arr)
            .ok_or("plan: missing 'events' array")?
        {
            let t = item
                .get("t")
                .and_then(JsonValue::as_u64)
                .ok_or("event: missing u64 't'")?;
            let kind = item
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or("event: missing 'kind'")?;
            let node = |key: &str| -> Result<NodeId, String> {
                item.get(key)
                    .and_then(JsonValue::as_u64)
                    .map(|u| NodeId(u as usize))
                    .ok_or_else(|| format!("event '{kind}': missing u64 '{key}'"))
            };
            let ev = match kind {
                "crash" => FaultEvent::Crash(node("node")?),
                "resume" => FaultEvent::Resume(node("node")?),
                "restart" => FaultEvent::Restart(node("node")?),
                "corrupt" => FaultEvent::Corrupt(node("node")?),
                "heal" => FaultEvent::Heal,
                "set_link" => FaultEvent::SetLink {
                    from: node("from")?,
                    to: node("to")?,
                    up: item
                        .get("up")
                        .and_then(JsonValue::as_bool)
                        .ok_or("set_link: missing bool 'up'")?,
                },
                "partition" => {
                    let groups = item
                        .get("groups")
                        .and_then(JsonValue::as_arr)
                        .ok_or("partition: missing 'groups'")?
                        .iter()
                        .map(|g| {
                            g.as_arr()
                                .ok_or("partition: group is not an array")?
                                .iter()
                                .map(|m| {
                                    m.as_u64()
                                        .map(|u| NodeId(u as usize))
                                        .ok_or("partition: non-integer member".to_string())
                                })
                                .collect::<Result<Vec<_>, _>>()
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    FaultEvent::Partition(groups)
                }
                "byzantine" => {
                    let name = item
                        .get("behavior")
                        .and_then(JsonValue::as_str)
                        .ok_or("byzantine: missing 'behavior'")?;
                    FaultEvent::Byzantine {
                        node: node("node")?,
                        behavior: ByzBehavior::from_name(name)
                            .ok_or_else(|| format!("byzantine: unknown behavior '{name}'"))?,
                    }
                }
                other => return Err(format!("unknown event kind '{other}'")),
            };
            events.push((t, ev));
        }
        Ok(FaultPlan { events, seed })
    }

    /// The RNG seed for the corruption injected at `(t, node)`: a pure
    /// function of the plan seed, so every backend corrupts the node
    /// into the same "arbitrary" state.
    pub fn corruption_seed(&self, t: ModelTime, node: NodeId) -> u64 {
        let mut h = self.seed ^ 0xcbf2_9ce4_8422_2325;
        for x in [t, node.index() as u64] {
            h = (h ^ x).wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// One event as a JSON object, `kind` labels matching
/// `sss_obs::FaultKind::label` where both exist.
fn event_json(t: ModelTime, ev: &FaultEvent) -> String {
    let fields = match ev {
        FaultEvent::Crash(n) => format!("\"crash\", \"node\": {}", n.index()),
        FaultEvent::Resume(n) => format!("\"resume\", \"node\": {}", n.index()),
        FaultEvent::Restart(n) => format!("\"restart\", \"node\": {}", n.index()),
        FaultEvent::Corrupt(n) => format!("\"corrupt\", \"node\": {}", n.index()),
        FaultEvent::Heal => "\"heal\"".to_string(),
        FaultEvent::SetLink { from, to, up } => format!(
            "\"set_link\", \"from\": {}, \"to\": {}, \"up\": {up}",
            from.index(),
            to.index()
        ),
        FaultEvent::Byzantine { node, behavior } => format!(
            "\"byzantine\", \"node\": {}, \"behavior\": \"{}\"",
            node.index(),
            behavior.name()
        ),
        FaultEvent::Partition(groups) => {
            let group = |g: &Vec<NodeId>| {
                let ms: Vec<String> = g.iter().map(|m| m.index().to_string()).collect();
                format!("[{}]", ms.join(", "))
            };
            let gs: Vec<String> = groups.iter().map(group).collect();
            format!("\"partition\", \"groups\": [{}]", gs.join(", "))
        }
    };
    format!("{{\"t\": {t}, \"kind\": {fields}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_and_sorts() {
        let plan = FaultPlan::new()
            .at(500, FaultEvent::Heal)
            .at(100, FaultEvent::Crash(NodeId(1)))
            .at(500, FaultEvent::Resume(NodeId(1)));
        let sorted: Vec<_> = plan.sorted_events().collect();
        assert_eq!(sorted[0], (100, &FaultEvent::Crash(NodeId(1))));
        // Stable sort: equal-time events keep insertion order.
        assert_eq!(sorted[1], (500, &FaultEvent::Heal));
        assert_eq!(sorted[2], (500, &FaultEvent::Resume(NodeId(1))));
        assert_eq!(plan.last_event_time(), 500);
    }

    #[test]
    fn minority_crash_is_bounded_and_seeded() {
        let (_, a) = FaultPlan::new().crash_random_minority(5, 100, 42);
        let (_, b) = FaultPlan::new().crash_random_minority(5, 100, 42);
        assert_eq!(a, b, "same seed, same victims");
        assert!(!a.is_empty() && a.len() <= 2);
        let (_, none) = FaultPlan::new().crash_random_minority(1, 100, 42);
        assert!(none.is_empty(), "n = 1 has no crashable minority");
    }

    #[test]
    fn corruption_seed_is_stable_and_distinct() {
        let plan = FaultPlan::new().with_seed(7);
        assert_eq!(
            plan.corruption_seed(100, NodeId(2)),
            plan.corruption_seed(100, NodeId(2))
        );
        assert_ne!(
            plan.corruption_seed(100, NodeId(2)),
            plan.corruption_seed(100, NodeId(3))
        );
        assert_ne!(
            plan.corruption_seed(100, NodeId(2)),
            plan.corruption_seed(200, NodeId(2))
        );
        assert_ne!(
            plan.corruption_seed(100, NodeId(2)),
            FaultPlan::new()
                .with_seed(8)
                .corruption_seed(100, NodeId(2))
        );
    }

    #[test]
    fn validate_accepts_well_formed_schedules() {
        let plan = FaultPlan::new()
            .at(1_000, FaultEvent::Crash(NodeId(1)))
            .at(2_000, FaultEvent::Corrupt(NodeId(0)))
            .at(
                3_000,
                FaultEvent::Partition(vec![vec![NodeId(0), NodeId(2)], vec![NodeId(1)]]),
            )
            .at(
                4_000,
                FaultEvent::SetLink {
                    from: NodeId(0),
                    to: NodeId(2),
                    up: false,
                },
            )
            .at(5_000, FaultEvent::Heal)
            .at(6_000, FaultEvent::Restart(NodeId(1)))
            .at(6_500, FaultEvent::Crash(NodeId(1)))
            .at(7_000, FaultEvent::Resume(NodeId(1)));
        assert_eq!(plan.validate(3), Ok(()));
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        let n = 3;
        let bad = |plan: FaultPlan| plan.validate(n).unwrap_err();
        assert!(matches!(
            bad(FaultPlan::new().at(1, FaultEvent::Crash(NodeId(3)))),
            PlanError::NodeOutOfRange { .. }
        ));
        assert!(matches!(
            bad(FaultPlan::new().at(1, FaultEvent::Resume(NodeId(0)))),
            PlanError::ResumeWithoutCrash { .. }
        ));
        assert!(matches!(
            bad(FaultPlan::new().at(1, FaultEvent::Restart(NodeId(0)))),
            PlanError::RestartWithoutCrash { .. }
        ));
        assert!(matches!(
            bad(FaultPlan::new()
                .at(1, FaultEvent::Crash(NodeId(0)))
                .at(2, FaultEvent::Crash(NodeId(0)))),
            PlanError::CrashWhileCrashed { .. }
        ));
        // A resumed node may crash again, and a restart clears a crash.
        assert_eq!(
            FaultPlan::new()
                .at(1, FaultEvent::Crash(NodeId(0)))
                .at(2, FaultEvent::Restart(NodeId(0)))
                .at(3, FaultEvent::Crash(NodeId(0)))
                .validate(n),
            Ok(())
        );
        assert!(matches!(
            bad(FaultPlan::new().at(
                1,
                FaultEvent::SetLink {
                    from: NodeId(1),
                    to: NodeId(1),
                    up: false
                }
            )),
            PlanError::SelfLink { .. }
        ));
        assert!(matches!(
            bad(FaultPlan::new().at(
                1,
                FaultEvent::Partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1)]])
            )),
            PlanError::DuplicateGroupMember { .. }
        ));
        assert!(matches!(
            bad(FaultPlan::new()
                .at(5, FaultEvent::Heal)
                .at(1, FaultEvent::Crash(NodeId(0)))),
            PlanError::Unsorted { .. }
        ));
    }

    #[test]
    fn validate_rejects_same_timestamp_conflicts() {
        let n = 3;
        let bad = |plan: FaultPlan| plan.validate(n).unwrap_err();
        // Two matrix writes at one instant.
        assert!(matches!(
            bad(FaultPlan::new()
                .at(1, FaultEvent::Partition(vec![vec![NodeId(0)]]))
                .at(1, FaultEvent::Heal)),
            PlanError::ConflictingLinkOps { at: 1 }
        ));
        // Matrix write mixed with a single-link write.
        assert!(matches!(
            bad(FaultPlan::new().at(1, FaultEvent::Heal).at(
                1,
                FaultEvent::SetLink {
                    from: NodeId(0),
                    to: NodeId(1),
                    up: false
                }
            )),
            PlanError::ConflictingLinkOps { at: 1 }
        ));
        // Opposite verdicts for one directed link.
        let cut = |up| FaultEvent::SetLink {
            from: NodeId(0),
            to: NodeId(1),
            up,
        };
        assert!(matches!(
            bad(FaultPlan::new().at(1, cut(false)).at(1, cut(true))),
            PlanError::ConflictingLinkOps { at: 1 }
        ));
        // Identical SetLinks are merely redundant, not conflicting.
        assert_eq!(
            FaultPlan::new()
                .at(1, cut(false))
                .at(1, cut(false))
                .validate(n),
            Ok(())
        );
        // Crash + Resume of one node at one instant.
        assert!(matches!(
            bad(FaultPlan::new()
                .at(1, FaultEvent::Crash(NodeId(2)))
                .at(1, FaultEvent::Resume(NodeId(2)))),
            PlanError::ConflictingNodeOps { .. }
        ));
        // Same timestamp on *different* nodes is fine (crash_random_minority).
        let (plan, crashed) = FaultPlan::new().crash_random_minority(5, 100, 42);
        assert!(!crashed.is_empty());
        assert_eq!(plan.validate(5), Ok(()));
    }

    #[test]
    fn json_round_trips_every_event_kind() {
        let plan = FaultPlan::new()
            .with_seed(u64::MAX - 7)
            .at(100, FaultEvent::Crash(NodeId(1)))
            .at(200, FaultEvent::Corrupt(NodeId(2)))
            .at(
                300,
                FaultEvent::Partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]),
            )
            .at(
                400,
                FaultEvent::SetLink {
                    from: NodeId(2),
                    to: NodeId(0),
                    up: true,
                },
            )
            .at(500, FaultEvent::Heal)
            .at(600, FaultEvent::Restart(NodeId(1)))
            .at(700, FaultEvent::Resume(NodeId(2)))
            .at(
                800,
                FaultEvent::Byzantine {
                    node: NodeId(0),
                    behavior: ByzBehavior::Equivocate,
                },
            )
            .at(
                900,
                FaultEvent::Byzantine {
                    node: NodeId(0),
                    behavior: ByzBehavior::Honest,
                },
            );
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).expect("parse back");
        assert_eq!(back.seed(), plan.seed());
        assert_eq!(back.events(), plan.events());
        // Serialization is in replay order, so a second trip is identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json("{\"seed\": 1}").is_err());
        assert!(FaultPlan::from_json(
            "{\"seed\": 1, \"events\": [{\"t\": 5, \"kind\": \"explode\"}]}"
        )
        .is_err());
        assert!(FaultPlan::from_json("{\"seed\": 1, \"events\": [{\"kind\": \"heal\"}]}").is_err());
    }

    #[test]
    fn partition_event_carries_groups() {
        let plan = FaultPlan::new().at(
            50,
            FaultEvent::Partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]),
        );
        match &plan.events()[0].1 {
            FaultEvent::Partition(groups) => {
                assert_eq!(groups.len(), 2);
                assert_eq!(groups[0], vec![NodeId(0), NodeId(1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
