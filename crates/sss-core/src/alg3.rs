//! Algorithm 3: the self-stabilizing **always-terminating** snapshot
//! object with the `δ` latency/communication trade-off.
//!
//! # Mapping from the paper's pseudo-code
//!
//! * `pndTsk[k] = (sns, vc, fnl)` (line 68) → [`PndEntry`];
//! * the `VC` macro (line 69) → [`RegArray::vector_clock`];
//! * the `Δ` macro (line 70) → [`Alg3::delta_set`];
//! * `safeReg(A)` (line 71) → the [`BasePhase::SaveReg`] phase: broadcast
//!   `SAVE(A)` until a majority acknowledges the exact id set;
//! * the `do forever` (lines 73–80) splits in two. Lines 74–78 are the
//!   self-stabilization heartbeat, [`Protocol::on_round`]: stale-ack
//!   cleanup (74, via the [`AckTracker`] tag), index floors (75),
//!   vector-clock sanitation (76), own-entry resynchronisation (77),
//!   gossip (78), plus the retransmission of whatever is in progress.
//!   Lines 79–80, the write-before-snapshot scheduling, are
//!   [`Alg3::pump`] and run **on demand** — when an operation is
//!   invoked, when a write completes, when a base call ends — so no
//!   client operation waits for a round (the paper's latency bounds are
//!   in asynchronous cycles; nothing in them waits for a clock). The
//!   heartbeat pumps too, which is what starts *helping*: a task learnt
//!   from a peer's `SNAPSHOT` is not a trigger, or every uncontended
//!   snapshot would recruit all `n` nodes at once;
//! * `baseWrite` (line 84) → the write phase, identical to Algorithm 1's;
//! * `baseSnapshot(S)` (lines 85–94) → the [`BaseSnap`] state machine:
//!   an outer iteration arms a fresh `ssn`, records `prev`, and broadcasts
//!   `SNAPSHOT(S∩Δ, reg, ssn)` until the intersection empties or a
//!   majority acknowledges; on a clean double read (`prev = reg`) results
//!   are written to the safe register, otherwise the own task samples its
//!   vector clock (line 93) so helpers can count concurrent writes
//!   against `δ`;
//! * the server handlers (lines 95–107) → [`Protocol::on_message`],
//!   including the result forwarding of lines 106–107 (a server knowing
//!   the result of a requested task pushes a `SAVE` at the requester).
//!
//! # The role of `δ`
//!
//! `δ = 0`: every known unfinished task is in `Δ` immediately, all nodes
//! help all tasks, writes are deferred while snapshots run — the behaviour
//! (and `O(n²)` message cost) of Delporte-Gallet et al.'s Algorithm 2.
//!
//! `δ > 0`: a remote task enters `Δ` only after its sampled vector clock
//! trails the local one by at least `δ` write operations. Until then the
//! initiator queries alone at `O(n)` messages per attempt; a snapshot
//! disturbed by at least `δ` concurrent writes recruits every node, which
//! blocks writes long enough to terminate — the `O(δ)`-cycle latency bound
//! of Theorem 3, and at least `δ` writes proceed between any two such
//! blocking periods.

use rand::RngCore;
use sss_quorum::AckTracker;
use sss_types::{
    cell_bits, reg_array_bits, ArbitraryMsg, Effects, MsgKind, NodeId, OpId, OpResponse, Payload,
    ProcessSet, ProtoMsg, Protocol, ProtocolStats, RegArray, SharedReg, SnapshotOp, SnapshotView,
    Tagged, Value, VectorClock,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Configuration of [`Alg3`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Alg3Config {
    /// The paper's input parameter `δ`: the number of observed concurrent
    /// writes after which writes block temporarily so snapshots terminate.
    pub delta: u64,
}

/// One entry of the `pndTsk` array (line 68): the control state of node
/// `k`'s most recent snapshot task as known locally.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PndEntry {
    /// Index of the most recent snapshot operation `p_k` initiated that
    /// this node is aware of.
    pub sns: u64,
    /// The vector clock stamped when the task was first observed to run
    /// concurrently with writes (`⊥` until then).
    pub vc: Option<VectorClock>,
    /// The task's result (`⊥` while still running).
    pub fnl: Option<SnapshotView>,
}

/// A task reference carried inside `SNAPSHOT` messages: the elements of
/// `S ∩ Δ` (line 88).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskRef {
    /// The initiating node.
    pub node: usize,
    /// The task's snapshot index.
    pub sns: u64,
    /// The task's sampled vector clock, if any.
    pub vc: Option<VectorClock>,
}

/// One `(k, sns, result)` triple carried inside `SAVE` messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaveEntry {
    /// The initiating node.
    pub node: usize,
    /// The task's snapshot index.
    pub sns: u64,
    /// The snapshot result being stored.
    pub view: SnapshotView,
}

/// Wire messages of [`Alg3`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Alg3Msg {
    /// `WRITE(lReg)` (line 84 client / 100 server).
    Write {
        /// The writer's register array at invocation.
        reg: Payload,
    },
    /// `WRITEack(reg)` (line 102).
    WriteAck {
        /// The server's merged register array.
        reg: Payload,
    },
    /// `SNAPSHOT(S∩Δ, reg, ssn)` (line 88 client / 103 server).
    Snapshot {
        /// The pending tasks this query is helping (shared across the
        /// broadcast fan-out).
        tasks: Arc<Vec<TaskRef>>,
        /// The querier's register array.
        reg: Payload,
        /// The query index.
        ssn: u64,
    },
    /// `SNAPSHOTack(reg, ssn)` (line 107).
    SnapshotAck {
        /// The server's merged register array.
        reg: Payload,
        /// Echo of the query index.
        ssn: u64,
    },
    /// `SAVE(A)` (line 71 client / 95 server), also used for the result
    /// forwarding of line 107.
    Save {
        /// The results being stored (shared across the broadcast fan-out
        /// and every retransmission).
        entries: Arc<Vec<SaveEntry>>,
    },
    /// `SAVEack({(k,s)})` (line 97).
    SaveAck {
        /// The `(node, sns)` ids whose results were stored.
        ids: Vec<(usize, u64)>,
    },
    /// `GOSSIP(reg[k], pndTsk[k].sns)` (line 78 / 98): `O(ν)` bits.
    Gossip {
        /// The sender's copy of the receiver's register cell.
        cell: Tagged,
        /// The sender's view of the receiver's snapshot-task index.
        pnd_sns: u64,
    },
}

impl ProtoMsg for Alg3Msg {
    fn kind(&self) -> MsgKind {
        match self {
            Alg3Msg::Write { .. } => MsgKind::Write,
            Alg3Msg::WriteAck { .. } => MsgKind::WriteAck,
            Alg3Msg::Snapshot { .. } => MsgKind::Snapshot,
            Alg3Msg::SnapshotAck { .. } => MsgKind::SnapshotAck,
            Alg3Msg::Save { .. } => MsgKind::Save,
            Alg3Msg::SaveAck { .. } => MsgKind::SaveAck,
            Alg3Msg::Gossip { .. } => MsgKind::Gossip,
        }
    }

    fn size_bits(&self, nu: u32) -> u64 {
        const HDR: u64 = 64;
        match self {
            Alg3Msg::Write { reg } | Alg3Msg::WriteAck { reg } => HDR + reg_array_bits(reg.n(), nu),
            Alg3Msg::Snapshot { tasks, reg, .. } => {
                let task_bits: u64 = tasks
                    .iter()
                    .map(|t| 128 + t.vc.as_ref().map_or(0, |v| 64 * v.n() as u64))
                    .sum();
                HDR + 64 + reg_array_bits(reg.n(), nu) + task_bits
            }
            Alg3Msg::SnapshotAck { reg, .. } => HDR + 64 + reg_array_bits(reg.n(), nu),
            Alg3Msg::Save { entries } => {
                HDR + entries
                    .iter()
                    .map(|e| 128 + reg_array_bits(e.view.n(), nu))
                    .sum::<u64>()
            }
            Alg3Msg::SaveAck { ids } => HDR + 128 * ids.len() as u64,
            Alg3Msg::Gossip { .. } => HDR + cell_bits(nu) + 64,
        }
    }

    /// A Byzantine sender equivocates through gossip: honest index,
    /// per-peer conflicting value (see [`Alg1Msg::equivocate`]).
    fn equivocate(&self, rng: &mut dyn RngCore) -> Option<Self> {
        match self {
            Alg3Msg::Gossip { cell, pnd_sns } if !cell.is_bottom() => Some(Alg3Msg::Gossip {
                cell: Tagged::new(rng.next_u64() as Value, cell.ts),
                pnd_sns: *pnd_sns,
            }),
            _ => None,
        }
    }

    /// A Byzantine sender inflates the gossip indices to `floor`,
    /// driving honest receivers' timestamps toward `MAXINT` on demand.
    fn inflate_index(&self, floor: u64) -> Option<Self> {
        match self {
            Alg3Msg::Gossip { cell, pnd_sns } => Some(Alg3Msg::Gossip {
                cell: Tagged::new(cell.val, cell.ts.max(floor)),
                pnd_sns: (*pnd_sns).max(floor),
            }),
            _ => None,
        }
    }

    /// Conservative per-link coalescing (see [`ProtoMsg::try_coalesce`]).
    ///
    /// Mirrors [`Alg1Msg::try_coalesce`](crate::Alg1Msg): gossip joins
    /// (cell join + `pnd_sns` max, exactly what the handler on lines
    /// 78/98 folds in), `⪯`-comparable `WRITE`/`WRITEack` payload
    /// replacement, and equal-`ssn` snapshot traffic. `SAVE`/`SAVEack`
    /// coalesce only as identical retransmissions (shared `Arc` / equal id
    /// sets) — the stored-results plane is not a lattice, so nothing
    /// cleverer is sound.
    fn try_coalesce(&mut self, later: &Self) -> bool {
        fn payload_join(mine: &mut Payload, later: &Payload) -> bool {
            if Payload::ptr_eq(mine, later) {
                true
            } else if mine.le(later) {
                *mine = later.clone();
                true
            } else {
                later.le(mine)
            }
        }
        match (self, later) {
            (
                Alg3Msg::Gossip { cell, pnd_sns },
                Alg3Msg::Gossip {
                    cell: c2,
                    pnd_sns: p2,
                },
            ) => {
                *cell = cell.join(*c2);
                *pnd_sns = (*pnd_sns).max(*p2);
                true
            }
            (Alg3Msg::Write { reg }, Alg3Msg::Write { reg: r2 })
            | (Alg3Msg::WriteAck { reg }, Alg3Msg::WriteAck { reg: r2 }) => payload_join(reg, r2),
            (
                Alg3Msg::Snapshot { tasks, reg, ssn },
                Alg3Msg::Snapshot {
                    tasks: t2,
                    reg: r2,
                    ssn: s2,
                },
            ) if *ssn == *s2 && Arc::ptr_eq(tasks, t2) => payload_join(reg, r2),
            (Alg3Msg::SnapshotAck { reg, ssn }, Alg3Msg::SnapshotAck { reg: r2, ssn: s2 })
                if *ssn == *s2 =>
            {
                payload_join(reg, r2)
            }
            (Alg3Msg::Save { entries }, Alg3Msg::Save { entries: e2 }) => Arc::ptr_eq(entries, e2),
            (Alg3Msg::SaveAck { ids }, Alg3Msg::SaveAck { ids: i2 }) => ids == i2,
            _ => false,
        }
    }
}

impl ArbitraryMsg for Alg3Msg {
    fn arbitrary(rng: &mut dyn RngCore, n: usize, max_index: u64) -> Self {
        let idx = |rng: &mut dyn RngCore| rng.next_u64() % (max_index + 1);
        let arr = |rng: &mut dyn RngCore| -> RegArray {
            let mut a = RegArray::bottom(n);
            for k in 0..n {
                a.set(
                    NodeId(k),
                    Tagged {
                        ts: rng.next_u64() % (max_index + 1),
                        val: rng.next_u64(),
                    },
                );
            }
            a
        };
        match rng.next_u32() % 7 {
            0 => Alg3Msg::Write {
                reg: arr(rng).into(),
            },
            1 => Alg3Msg::WriteAck {
                reg: arr(rng).into(),
            },
            2 => Alg3Msg::Snapshot {
                tasks: Arc::new(vec![TaskRef {
                    node: (rng.next_u32() as usize) % n,
                    sns: idx(rng),
                    vc: None,
                }]),
                reg: arr(rng).into(),
                ssn: idx(rng),
            },
            3 => Alg3Msg::SnapshotAck {
                reg: arr(rng).into(),
                ssn: idx(rng),
            },
            4 => Alg3Msg::Save {
                entries: Arc::new(vec![SaveEntry {
                    node: (rng.next_u32() as usize) % n,
                    sns: idx(rng),
                    view: (&arr(rng)).into(),
                }]),
            },
            5 => Alg3Msg::SaveAck {
                ids: vec![((rng.next_u32() as usize) % n, idx(rng))],
            },
            _ => Alg3Msg::Gossip {
                cell: Tagged {
                    ts: idx(rng),
                    val: rng.next_u64(),
                },
                pnd_sns: idx(rng),
            },
        }
    }
}

/// In-progress `baseWrite` client state.
#[derive(Clone, Debug)]
struct WriteOp {
    op: OpId,
    /// Shared with every retransmitted `WRITE` — rebroadcasts are free.
    lreg: Payload,
    acks: ProcessSet,
}

/// The phase of an in-progress `baseSnapshot` call.
#[derive(Clone, Debug)]
enum BasePhase {
    /// Lines 87–90: broadcasting `SNAPSHOT` and collecting acks.
    Inner,
    /// Line 91 / 71: broadcasting `SAVE(A)` and collecting `SAVEack`s.
    SaveReg {
        entries: Arc<Vec<SaveEntry>>,
        acks: ProcessSet,
    },
}

/// The state of one `baseSnapshot(S)` call (lines 85–94).
#[derive(Clone, Debug)]
struct BaseSnap {
    /// The sampled task set `S`: `(node, sns)` pairs.
    s: Vec<(usize, u64)>,
    /// `prev` of the current outer iteration.
    prev: Payload,
    /// Ack collection for the current `ssn`.
    acks: AckTracker,
    phase: BasePhase,
}

/// The self-stabilizing always-terminating snapshot object of the paper's
/// Algorithm 3. See the module docs above for the pseudo-code mapping.
#[derive(Clone, Debug)]
pub struct Alg3 {
    id: NodeId,
    n: usize,
    cfg: Alg3Config,
    /// Write index (line 68).
    ts: u64,
    /// Snapshot *query* index (line 68).
    ssn: u64,
    /// Snapshot *operation* index (line 68).
    sns: u64,
    /// Local copy of all shared registers, with a cached outgoing
    /// payload so acks between mutations share one allocation.
    reg: SharedReg,
    /// Per-node snapshot-task control state.
    pnd_tsk: Vec<PndEntry>,
    write: Option<WriteOp>,
    write_queue: VecDeque<(OpId, Value)>,
    /// The client operation waiting on `pndTsk[i].fnl` (line 83).
    snap_wait: Option<(OpId, u64)>,
    snap_queue: VecDeque<OpId>,
    base: Option<BaseSnap>,
    rounds: u64,
}

impl Alg3 {
    /// A fresh instance for node `id` of `n` with configuration `cfg`.
    pub fn new(id: NodeId, n: usize, cfg: Alg3Config) -> Self {
        assert!(id.index() < n, "node id out of range");
        Alg3 {
            id,
            n,
            cfg,
            ts: 0,
            ssn: 0,
            sns: 0,
            reg: SharedReg::bottom(n),
            pnd_tsk: vec![PndEntry::default(); n],
            write: None,
            write_queue: VecDeque::new(),
            snap_wait: None,
            snap_queue: VecDeque::new(),
            base: None,
            rounds: 0,
        }
    }

    /// The configured `δ`.
    pub fn delta(&self) -> u64 {
        self.cfg.delta
    }

    /// The node's register array (probes/tests).
    pub fn reg(&self) -> &RegArray {
        &self.reg
    }

    /// The node's pending-task table (probes/tests).
    pub fn pnd_tsk(&self) -> &[PndEntry] {
        &self.pnd_tsk
    }

    /// Current `(ts, ssn, sns)` indices.
    pub fn indices(&self) -> (u64, u64, u64) {
        (self.ts, self.ssn, self.sns)
    }

    /// The `merge(Rec)` macro (line 72) for one received array.
    fn merge(&mut self, rec: &RegArray) {
        self.ts = self
            .ts
            .max(self.reg.get(self.id).ts)
            .max(rec.get(self.id).ts);
        self.reg.merge_from(rec);
    }

    /// The `Δ` macro (line 70): nodes whose pending task currently
    /// qualifies for helping.
    fn delta_set(&self) -> Vec<usize> {
        let vc_now = self.reg.vector_clock();
        let mut out = Vec::new();
        for k in 0..self.n {
            let e = &self.pnd_tsk[k];
            if e.fnl.is_some() || e.sns == 0 {
                continue;
            }
            let qualifies = if k == self.id.index() {
                // Own pending task is always in Δ (the union term).
                true
            } else if self.cfg.delta == 0 {
                true
            } else {
                match &e.vc {
                    Some(vc) => vc_now.progress_since(vc) >= self.cfg.delta,
                    None => false,
                }
            };
            if qualifies {
                out.push(k);
            }
        }
        out
    }

    /// `S ∩ Δ` for the current base call: sampled tasks that still exist
    /// (same `sns`) and still qualify for Δ.
    fn s_cap_delta(&self) -> Vec<(usize, u64)> {
        let Some(base) = &self.base else {
            return Vec::new();
        };
        let delta = self.delta_set();
        base.s
            .iter()
            .copied()
            .filter(|&(k, sns)| self.pnd_tsk[k].sns == sns && delta.contains(&k))
            .collect()
    }

    fn task_refs(&self, tasks: &[(usize, u64)]) -> Vec<TaskRef> {
        tasks
            .iter()
            .map(|&(k, sns)| TaskRef {
                node: k,
                sns,
                vc: self.pnd_tsk[k].vc.clone(),
            })
            .collect()
    }

    // ----- client-side write ------------------------------------------

    fn start_write(&mut self, op: OpId, v: Value, fx: &mut Effects<Alg3Msg>) {
        self.ts += 1;
        self.reg.set(self.id, Tagged::new(v, self.ts));
        let lreg = self.reg.payload();
        fx.broadcast(self.n, &Alg3Msg::Write { reg: lreg.clone() });
        self.write = Some(WriteOp {
            op,
            lreg,
            acks: ProcessSet::new(self.n),
        });
    }

    /// Lines 79–80, run on demand: with neither a `baseWrite` nor a
    /// `baseSnapshot` in progress, start the next queued write, else
    /// `baseSnapshot(Δ)`. Called when this node's *own* work changes (an
    /// invocation, a write completing with `Δ = ∅`, a base call ending)
    /// and by the heartbeat; a task merely learnt from a peer waits for
    /// the heartbeat, which keeps an uncontended snapshot at `O(n)`
    /// messages.
    fn pump(&mut self, fx: &mut Effects<Alg3Msg>) {
        if self.write.is_some() || self.base.is_some() {
            return;
        }
        match self.write_queue.pop_front() {
            Some((op, v)) => self.start_write(op, v, fx),
            None => self.start_base(fx),
        }
    }

    // ----- client-side snapshot ---------------------------------------

    /// Line 83: allocate the task and wait for `pndTsk[i].fnl`.
    fn start_snapshot(&mut self, op: OpId) {
        self.sns += 1;
        self.pnd_tsk[self.id.index()] = PndEntry {
            sns: self.sns,
            vc: None,
            fnl: None,
        };
        self.snap_wait = Some((op, self.sns));
    }

    /// Completes the waiting `snapshot()` once its result landed in
    /// `pndTsk[i].fnl` (the `wait until` of line 83).
    fn deliver_own_if_ready(&mut self, fx: &mut Effects<Alg3Msg>) {
        let me = self.id.index();
        if let Some((op, sns)) = self.snap_wait {
            let e = &self.pnd_tsk[me];
            if e.sns == sns {
                if let Some(view) = e.fnl.clone() {
                    self.snap_wait = None;
                    fx.complete(op, OpResponse::Snapshot(view));
                    if let Some(next) = self.snap_queue.pop_front() {
                        self.start_snapshot(next);
                    }
                }
            } else if e.sns > sns {
                // A corrupted (larger) sns superseded the waiting task; the
                // client op rides on the new task id instead of hanging.
                self.snap_wait = Some((op, e.sns));
            }
        }
    }

    // ----- baseSnapshot state machine ---------------------------------

    /// Starts `baseSnapshot(Δ)` (line 80).
    fn start_base(&mut self, fx: &mut Effects<Alg3Msg>) {
        let delta = self.delta_set();
        if delta.is_empty() {
            return;
        }
        let s: Vec<(usize, u64)> = delta
            .into_iter()
            .map(|k| (k, self.pnd_tsk[k].sns))
            .collect();
        self.base = Some(BaseSnap {
            s,
            prev: self.reg.payload(),
            acks: AckTracker::new(self.n),
            phase: BasePhase::Inner,
        });
        self.outer_iteration(fx);
    }

    /// Lines 87–88: arm a fresh `ssn`, record `prev`, broadcast.
    fn outer_iteration(&mut self, fx: &mut Effects<Alg3Msg>) {
        self.ssn += 1;
        let cur = self.s_cap_delta();
        let refs = self.task_refs(&cur);
        let snap = self.reg.payload();
        let Some(base) = &mut self.base else { return };
        base.prev = snap.clone();
        base.acks.arm(self.ssn);
        base.phase = BasePhase::Inner;
        let msg = Alg3Msg::Snapshot {
            tasks: Arc::new(refs),
            reg: snap,
            ssn: self.ssn,
        };
        fx.broadcast(self.n, &msg);
    }

    /// The `until` of line 89 plus lines 90–94, evaluated whenever the
    /// inner loop may have finished (majority ack or `S∩Δ` emptied).
    fn check_inner_done(&mut self, fx: &mut Effects<Alg3Msg>) {
        let Some(base) = &self.base else { return };
        if !matches!(base.phase, BasePhase::Inner) {
            return;
        }
        let cur = self.s_cap_delta();
        let majority = base.acks.has_majority();
        if !cur.is_empty() && !majority {
            return;
        }
        // Inner loop done (line 89); merging already happened on arrival.
        let prev_stable = *base.prev == *self.reg;
        if prev_stable && !cur.is_empty() {
            // Line 91: store the double-clean read in the safe register.
            let view: SnapshotView = (&*base.prev).into();
            let entries: Arc<Vec<SaveEntry>> = Arc::new(
                cur.iter()
                    .map(|&(k, _)| SaveEntry {
                        node: k,
                        sns: self.pnd_tsk[k].sns,
                        view: view.clone(),
                    })
                    .collect(),
            );
            let msg = Alg3Msg::Save {
                entries: entries.clone(),
            };
            fx.broadcast(self.n, &msg);
            if let Some(base) = &mut self.base {
                base.phase = BasePhase::SaveReg {
                    entries,
                    acks: ProcessSet::new(self.n),
                };
            }
            return;
        }
        // Line 93: the disturbed own task samples its vector clock.
        let me = self.id.index();
        if cur.iter().any(|&(k, _)| k == me) && self.pnd_tsk[me].vc.is_none() {
            self.pnd_tsk[me].vc = Some(self.reg.vector_clock());
        }
        self.check_outer_done(fx);
    }

    /// The `until` of line 94: either finish the base call or run another
    /// outer iteration.
    fn check_outer_done(&mut self, fx: &mut Effects<Alg3Msg>) {
        let cur = self.s_cap_delta();
        if cur.is_empty() {
            self.base = None;
            self.pump(fx);
            return;
        }
        let me = self.id.index();
        let only_own = cur.len() == 1 && cur[0].0 == me;
        if only_own && self.pnd_tsk[me].sns > 0 && self.pnd_tsk[me].fnl.is_none() {
            if let Some(vc) = &self.pnd_tsk[me].vc {
                let progress = self.reg.vector_clock().progress_since(vc);
                if progress >= self.cfg.delta {
                    // Defer: exit baseSnapshot so deferred writes run; Δ
                    // still contains the task, so the base call that
                    // follows them (or starts right here, with none
                    // queued) resumes it.
                    self.base = None;
                    self.pump(fx);
                    return;
                }
            }
        }
        self.outer_iteration(fx);
    }

    /// Called after any `pndTsk` mutation: tasks may have left `S∩Δ`.
    fn on_tasks_changed(&mut self, fx: &mut Effects<Alg3Msg>) {
        self.deliver_own_if_ready(fx);
        if let Some(base) = &self.base {
            match base.phase {
                BasePhase::Inner => self.check_inner_done(fx),
                BasePhase::SaveReg { .. } => {}
            }
        }
    }

    /// Server side of `SAVE` (lines 95–97): adopt newer results.
    fn apply_save_entries(&mut self, entries: &[SaveEntry]) {
        for e in entries {
            if e.node >= self.n {
                continue; // corrupt index from a transient fault
            }
            let t = &mut self.pnd_tsk[e.node];
            if t.sns < e.sns || (t.sns == e.sns && t.fnl.is_none()) {
                t.sns = e.sns;
                t.fnl = Some(e.view.clone());
            }
        }
    }
}

impl Protocol for Alg3 {
    type Msg = Alg3Msg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn n(&self) -> usize {
        self.n
    }

    /// Lines 73–80.
    fn on_round(&mut self, fx: &mut Effects<Alg3Msg>) {
        self.rounds += 1;
        let me = self.id.index();
        // Line 75: index floors.
        self.ts = self.ts.max(self.reg.get(self.id).ts);
        self.sns = self.sns.max(self.pnd_tsk[me].sns);
        // Line 76: discard illogical vector clocks.
        let vc_now = self.reg.vector_clock();
        for e in &mut self.pnd_tsk {
            if let Some(vc) = &e.vc {
                if vc.n() != self.n || !vc.le(&vc_now) {
                    e.vc = None;
                }
            }
        }
        // Line 77: resynchronise the own entry.
        if self.sns != self.pnd_tsk[me].sns {
            self.pnd_tsk[me] = PndEntry {
                sns: self.sns,
                vc: None,
                fnl: None,
            };
        }
        // Line 78: gossip.
        for k in 0..self.n {
            if k != me {
                fx.send(
                    NodeId(k),
                    Alg3Msg::Gossip {
                        cell: self.reg.get(NodeId(k)),
                        pnd_sns: self.pnd_tsk[k].sns,
                    },
                );
            }
        }
        // Lines 79–80, the heartbeat's share: whatever is in progress is
        // retransmitted (a `baseWrite`, else the current phase of the
        // `baseSnapshot`); an idle node pumps. One `baseWrite`, then
        // `baseSnapshot(Δ)` when that write *completes* (see the
        // `WriteAck` handler), mirroring the pseudo-code's sequential
        // `baseWrite(); baseSnapshot(Δ)`. While a base call runs, further
        // writes stay queued: this is exactly the temporary
        // write-blocking that makes snapshots terminate.
        if let Some(w) = &self.write {
            fx.broadcast(
                self.n,
                &Alg3Msg::Write {
                    reg: w.lreg.clone(),
                },
            );
        } else if let Some(base) = &self.base {
            match &base.phase {
                BasePhase::Inner => {
                    let cur = self.s_cap_delta();
                    let refs = self.task_refs(&cur);
                    let ssn = base.acks.tag();
                    let msg = Alg3Msg::Snapshot {
                        tasks: Arc::new(refs),
                        reg: self.reg.payload(),
                        ssn,
                    };
                    fx.broadcast(self.n, &msg);
                }
                BasePhase::SaveReg { entries, .. } => {
                    let msg = Alg3Msg::Save {
                        entries: entries.clone(),
                    };
                    fx.broadcast(self.n, &msg);
                }
            }
        } else {
            self.pump(fx);
        }
        self.deliver_own_if_ready(fx);
    }

    fn on_message(&mut self, from: NodeId, msg: Alg3Msg, fx: &mut Effects<Alg3Msg>) {
        match msg {
            // Lines 100–102.
            Alg3Msg::Write { reg } => {
                self.reg.merge_from(&reg);
                fx.send(
                    from,
                    Alg3Msg::WriteAck {
                        reg: self.reg.payload(),
                    },
                );
            }
            // baseWrite's until-condition (line 84).
            Alg3Msg::WriteAck { reg } => {
                let accepted = match &mut self.write {
                    Some(w) if w.lreg.le(&reg) => w.acks.insert(from),
                    _ => false,
                };
                if accepted {
                    self.merge(&reg);
                    let done = matches!(&self.write, Some(w) if w.acks.is_majority());
                    if done {
                        let op = self.write.take().expect("write active").op;
                        fx.complete(op, OpResponse::WriteDone);
                        // End of the pseudo-code's line 79: the iteration
                        // proceeds to line 80 — pending snapshot work now
                        // blocks further writes until it completes; with
                        // none, the next queued write starts at once.
                        if self.delta_set().is_empty() {
                            self.pump(fx);
                        } else if self.base.is_none() {
                            self.start_base(fx);
                        }
                    }
                }
            }
            // Lines 103–107.
            Alg3Msg::Snapshot { tasks, reg, ssn } => {
                self.reg.merge_from(&reg);
                // Line 105: adopt newer task announcements.
                for t in tasks.iter() {
                    if t.node >= self.n {
                        continue;
                    }
                    let e = &mut self.pnd_tsk[t.node];
                    if e.sns < t.sns {
                        *e = PndEntry {
                            sns: t.sns,
                            vc: t.vc.clone(),
                            fnl: None,
                        };
                    } else if e.sns == t.sns && e.vc.is_none() && e.fnl.is_none() {
                        e.vc = t.vc.clone();
                    }
                }
                // Line 106: forward known results of the requested tasks.
                let known: Vec<SaveEntry> = tasks
                    .iter()
                    .filter(|t| t.node < self.n)
                    .filter_map(|t| {
                        let e = &self.pnd_tsk[t.node];
                        e.fnl.as_ref().map(|view| SaveEntry {
                            node: t.node,
                            sns: e.sns,
                            view: view.clone(),
                        })
                    })
                    .collect();
                fx.send(
                    from,
                    Alg3Msg::SnapshotAck {
                        reg: self.reg.payload(),
                        ssn,
                    },
                );
                if !known.is_empty() {
                    fx.send(
                        from,
                        Alg3Msg::Save {
                            entries: Arc::new(known),
                        },
                    );
                }
                self.on_tasks_changed(fx);
            }
            // The inner loop's until-condition (line 89) plus line 90.
            Alg3Msg::SnapshotAck { reg, ssn } => {
                let accepted = match &mut self.base {
                    Some(b) if matches!(b.phase, BasePhase::Inner) => b.acks.accept(from, ssn),
                    _ => false,
                };
                if accepted {
                    self.merge(&reg);
                    self.check_inner_done(fx);
                }
            }
            // Lines 95–97.
            Alg3Msg::Save { entries } => {
                self.apply_save_entries(&entries);
                let ids: Vec<(usize, u64)> = entries.iter().map(|e| (e.node, e.sns)).collect();
                fx.send(from, Alg3Msg::SaveAck { ids });
                self.on_tasks_changed(fx);
            }
            // safeReg's until-condition (line 71).
            Alg3Msg::SaveAck { ids } => {
                let mut finished: Option<Arc<Vec<SaveEntry>>> = None;
                if let Some(base) = &mut self.base {
                    if let BasePhase::SaveReg { entries, acks } = &mut base.phase {
                        let expected: Vec<(usize, u64)> =
                            entries.iter().map(|e| (e.node, e.sns)).collect();
                        if ids == expected {
                            acks.insert(from);
                            if acks.is_majority() {
                                finished = Some(entries.clone());
                            }
                        }
                    }
                }
                if let Some(entries) = finished {
                    // The safe-register write is durable at a majority;
                    // adopt the results locally (the broadcast's
                    // self-delivery normally already has).
                    self.apply_save_entries(&entries);
                    self.deliver_own_if_ready(fx);
                    self.check_outer_done(fx);
                }
            }
            // Lines 98–99 (with the pndTsk[k].sns field of line 78).
            Alg3Msg::Gossip { cell, pnd_sns } => {
                self.reg.join_cell(self.id, cell);
                self.ts = self.ts.max(self.reg.get(self.id).ts);
                self.sns = self.sns.max(pnd_sns);
            }
        }
    }

    fn invoke(&mut self, id: OpId, op: SnapshotOp, fx: &mut Effects<Alg3Msg>) {
        match op {
            // Line 81: writes wait in writePending for the do-forever to
            // schedule them (line 79), deferred while a base snapshot
            // call is blocking writes. Always through the queue: a new
            // write must never overtake one deferred earlier (a node's
            // writes are sequential).
            SnapshotOp::Write(v) => self.write_queue.push_back((id, v)),
            SnapshotOp::Snapshot => {
                if self.snap_wait.is_none() {
                    self.start_snapshot(id);
                } else {
                    // One pending task per node (the paper's simplifying
                    // assumption); extra client calls queue locally.
                    self.snap_queue.push_back(id);
                }
            }
        }
        // Nothing here waits for a clock: an idle node starts the write,
        // or the base call for the task just allocated, in this step.
        self.pump(fx);
    }

    fn is_busy(&self) -> bool {
        self.write.is_some()
            || !self.write_queue.is_empty()
            || self.snap_wait.is_some()
            || !self.snap_queue.is_empty()
    }

    fn corrupt(&mut self, rng: &mut dyn RngCore) {
        const M: u64 = 1 << 20;
        self.ts = rng.next_u64() % M;
        self.ssn = rng.next_u64() % M;
        self.sns = rng.next_u64() % M;
        for k in 0..self.n {
            self.reg.set(
                NodeId(k),
                Tagged {
                    ts: rng.next_u64() % M,
                    val: rng.next_u64(),
                },
            );
        }
        for k in 0..self.n {
            let mut vc = Vec::with_capacity(self.n);
            for _ in 0..self.n {
                vc.push(rng.next_u64() % M);
            }
            self.pnd_tsk[k] = PndEntry {
                sns: rng.next_u64() % M,
                vc: if rng.next_u32().is_multiple_of(2) {
                    Some(VectorClock::from_components(vc))
                } else {
                    None
                },
                fnl: if rng.next_u32().is_multiple_of(2) {
                    Some((&*self.reg).into())
                } else {
                    None
                },
            };
        }
        // Scramble the in-flight phase machines too.
        if let Some(w) = &mut self.write {
            w.acks.clear();
            w.lreg = self.reg.payload();
        }
        self.base = None;
        // A waiting client op rides on whatever task id the corrupted
        // table now shows (deliver_own_if_ready re-binds it).
        if let Some((op, _)) = self.snap_wait {
            self.snap_wait = Some((op, self.pnd_tsk[self.id.index()].sns));
        }
    }

    fn restart(&mut self) {
        let (id, n, cfg) = (self.id, self.n, self.cfg);
        *self = Alg3::new(id, n, cfg);
    }

    /// Definition 1's node-local invariants: (i) `ts ≥ reg[i].ts`,
    /// (iii) `sns = pndTsk[i].sns`, (iv) every stored vector clock is
    /// `⪯ VC`.
    fn local_invariants_hold(&self) -> bool {
        let me = self.id.index();
        if self.ts < self.reg.get(self.id).ts {
            return false;
        }
        if self.sns != self.pnd_tsk[me].sns {
            return false;
        }
        let vc_now = self.reg.vector_clock();
        self.pnd_tsk.iter().all(|e| {
            e.vc.as_ref()
                .is_none_or(|vc| vc.n() == self.n && vc.le(&vc_now))
        })
    }

    fn stats(&self) -> ProtocolStats {
        ProtocolStats {
            rounds: self.rounds,
            write_index: self.ts,
            snapshot_index: self.sns,
            stale_epoch_dropped: 0,
        }
    }
}

impl crate::bounded::HasIndices for Alg3 {
    fn max_index(&self) -> u64 {
        let reg_max = self.reg.iter().map(|(_, c)| c.ts).max().unwrap_or(0);
        let pnd_max = self
            .pnd_tsk
            .iter()
            .map(|e| {
                e.sns.max(
                    e.vc.as_ref()
                        .map_or(0, |vc| vc.components().iter().copied().max().unwrap_or(0)),
                )
            })
            .max()
            .unwrap_or(0);
        self.ts
            .max(self.ssn)
            .max(self.sns)
            .max(reg_max)
            .max(pnd_max)
    }

    fn export_reg(&self) -> RegArray {
        self.reg.to_reg()
    }

    fn install_reset(&mut self, reg: RegArray) {
        self.ts = reg.get(self.id).ts;
        self.ssn = 0;
        self.sns = 0;
        self.reg = reg.into();
        self.pnd_tsk = vec![PndEntry::default(); self.n];
        self.write = None;
        self.base = None;
        self.write_queue.clear();
        self.snap_wait = None;
        self.snap_queue.clear();
    }

    fn drain_ops(&mut self) -> Vec<OpId> {
        let mut ids = Vec::new();
        if let Some(w) = self.write.take() {
            ids.push(w.op);
        }
        ids.extend(self.write_queue.drain(..).map(|(id, _)| id));
        if let Some((op, _)) = self.snap_wait.take() {
            ids.push(op);
        }
        ids.extend(self.snap_queue.drain(..));
        self.base = None;
        ids
    }

    fn seed_indices(&mut self, base: u64) {
        self.ts = self.ts.max(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx() -> Effects<Alg3Msg> {
        Effects::new()
    }

    fn node(i: usize, n: usize, delta: u64) -> Alg3 {
        Alg3::new(NodeId(i), n, Alg3Config { delta })
    }

    /// All `Snapshot` broadcasts among `sends`, as `(ssn, task count)`.
    fn snapshot_queries(sends: &[(NodeId, Alg3Msg)]) -> Vec<(u64, usize)> {
        sends
            .iter()
            .filter_map(|(_, m)| match m {
                Alg3Msg::Snapshot { tasks, ssn, .. } => Some((*ssn, tasks.len())),
                _ => None,
            })
            .collect()
    }

    /// The value node `i` is writing in the `Write` broadcasts among
    /// `sends` (one entry per recipient).
    fn written_values(sends: &[(NodeId, Alg3Msg)], i: usize) -> Vec<Value> {
        sends
            .iter()
            .filter_map(|(_, m)| match m {
                Alg3Msg::Write { reg } => Some(reg.get(NodeId(i)).val),
                _ => None,
            })
            .collect()
    }

    /// Feeds `a` (node 0 of 3) the two remote acks of a clean double read
    /// and then of the safe-register write for its own task `sns`.
    fn finish_own_snapshot(a: &mut Alg3, ssn: u64, sns: u64, e: &mut Effects<Alg3Msg>) {
        let reg: Payload = a.reg().clone().into();
        for k in [1, 2] {
            let reg = reg.clone();
            a.on_message(NodeId(k), Alg3Msg::SnapshotAck { reg, ssn }, e);
        }
        for k in [1, 2] {
            let ids = vec![(0, sns)];
            a.on_message(NodeId(k), Alg3Msg::SaveAck { ids }, e);
        }
    }

    #[test]
    fn snapshot_invocation_creates_pending_task() {
        let mut a = node(0, 3, 0);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        assert_eq!(a.pnd_tsk()[0].sns, 1);
        assert!(a.pnd_tsk()[0].fnl.is_none());
        assert!(a.is_busy());
        // The base call starts in the invoking step — no `on_round`: one
        // SNAPSHOT per node, carrying the own task.
        assert_eq!(snapshot_queries(&e.take_sends()), vec![(1, 1); 3]);
        // The heartbeat then retransmits that query, it does not start
        // another.
        a.on_round(&mut e);
        assert_eq!(snapshot_queries(&e.take_sends()), vec![(1, 1); 3]);
    }

    #[test]
    fn queued_writes_start_when_the_base_call_ends_in_order() {
        let mut a = node(0, 3, 0);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        a.invoke(OpId(2), SnapshotOp::Write(7), &mut e);
        a.invoke(OpId(3), SnapshotOp::Write(8), &mut e);
        assert!(a.write.is_none(), "writes wait behind the base call");
        e.take_sends();
        // The step that ends the base call starts the first queued write.
        finish_own_snapshot(&mut a, 1, 1, &mut e);
        assert_eq!(e.take_completions()[0].0, OpId(1));
        assert!(a.base.is_none());
        assert_eq!(written_values(&e.take_sends(), 0), vec![7; 3]);
        assert_eq!(a.write_queue.len(), 1, "8 does not overtake 7");
        // With Δ = ∅ the step that completes 7 starts 8.
        for k in [1, 2] {
            let reg = a.reg().clone().into();
            a.on_message(NodeId(k), Alg3Msg::WriteAck { reg }, &mut e);
        }
        assert_eq!(e.take_completions()[0].0, OpId(2));
        assert_eq!(written_values(&e.take_sends(), 0), vec![8; 3]);
        // A write invoked now queues behind 8 rather than starting.
        a.invoke(OpId(4), SnapshotOp::Write(9), &mut e);
        assert!(written_values(&e.take_sends(), 0).is_empty());
        assert_eq!(a.write_queue.len(), 1);
    }

    #[test]
    fn a_task_learnt_from_a_peer_waits_for_the_heartbeat() {
        let mut a = node(1, 3, 0);
        let mut e = fx();
        a.on_message(
            NodeId(0),
            Alg3Msg::Snapshot {
                tasks: Arc::new(vec![TaskRef {
                    node: 0,
                    sns: 1,
                    vc: None,
                }]),
                reg: RegArray::bottom(3).into(),
                ssn: 1,
            },
            &mut e,
        );
        assert_eq!(a.delta_set(), vec![0], "the task is adopted (δ = 0)");
        // Only the ack goes out: helping from here would make an
        // uncontended snapshot cost O(n²) messages.
        let sends = e.take_sends();
        assert!(matches!(
            &sends[..],
            [(NodeId(0), Alg3Msg::SnapshotAck { .. })]
        ));
        assert!(a.base.is_none());
        a.on_round(&mut e);
        assert_eq!(snapshot_queries(&e.take_sends()), vec![(1, 1); 3]);
    }

    #[test]
    fn delta_zero_includes_all_known_tasks() {
        let mut a = node(1, 3, 0);
        a.pnd_tsk[0] = PndEntry {
            sns: 4,
            vc: None,
            fnl: None,
        };
        assert_eq!(a.delta_set(), vec![0]);
    }

    #[test]
    fn delta_positive_requires_write_progress() {
        let mut a = node(1, 3, 2);
        a.pnd_tsk[0] = PndEntry {
            sns: 4,
            vc: Some(VectorClock::zero(3)),
            fnl: None,
        };
        assert!(a.delta_set().is_empty(), "no writes observed yet");
        // Two writes land in reg: progress reaches δ = 2.
        a.reg.set(NodeId(2), Tagged::new(9, 2));
        assert_eq!(a.delta_set(), vec![0]);
    }

    #[test]
    fn own_task_always_in_delta() {
        let mut a = node(0, 3, 100);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        assert_eq!(a.delta_set(), vec![0]);
    }

    #[test]
    fn clean_double_read_goes_to_safe_register() {
        let mut a = node(0, 3, 0);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        a.on_round(&mut e); // starts base, broadcasts SNAPSHOT ssn=1
        e.take_sends();
        let reg: Payload = a.reg().clone().into();
        a.on_message(
            NodeId(1),
            Alg3Msg::SnapshotAck {
                reg: reg.clone(),
                ssn: 1,
            },
            &mut e,
        );
        a.on_message(NodeId(2), Alg3Msg::SnapshotAck { reg, ssn: 1 }, &mut e);
        // prev == reg: SAVE broadcast goes out.
        let sends = e.take_sends();
        assert!(sends
            .iter()
            .any(|(_, m)| matches!(m, Alg3Msg::Save { entries } if entries[0].node == 0)));
    }

    #[test]
    fn save_majority_delivers_own_snapshot() {
        let mut a = node(0, 3, 0);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        // SAVEacks from a majority (a self-ack would come via
        // self-delivery; here two remote acks suffice).
        finish_own_snapshot(&mut a, 1, 1, &mut e);
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, OpId(1));
        assert!(matches!(done[0].1, OpResponse::Snapshot(_)));
        assert!(!a.is_busy());
    }

    #[test]
    fn disturbed_attempt_samples_vector_clock() {
        let mut a = node(0, 3, 5);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        a.on_round(&mut e);
        e.take_sends();
        // Acks carry a concurrent write by p1: prev != reg.
        let mut moved = a.reg().clone();
        moved.set(NodeId(1), Tagged::new(5, 1));
        let moved: Payload = moved.into();
        a.on_message(
            NodeId(1),
            Alg3Msg::SnapshotAck {
                reg: moved.clone(),
                ssn: 1,
            },
            &mut e,
        );
        a.on_message(
            NodeId(2),
            Alg3Msg::SnapshotAck { reg: moved, ssn: 1 },
            &mut e,
        );
        assert!(a.pnd_tsk()[0].vc.is_some(), "line 93 sampled VC");
    }

    #[test]
    fn save_handler_adopts_results_and_acks() {
        let mut a = node(2, 3, 0);
        let mut e = fx();
        let view: SnapshotView = (&RegArray::bottom(3)).into();
        a.on_message(
            NodeId(0),
            Alg3Msg::Save {
                entries: Arc::new(vec![SaveEntry {
                    node: 0,
                    sns: 3,
                    view,
                }]),
            },
            &mut e,
        );
        assert_eq!(a.pnd_tsk()[0].sns, 3);
        assert!(a.pnd_tsk()[0].fnl.is_some());
        let sends = e.take_sends();
        assert!(matches!(
            &sends[0],
            (NodeId(0), Alg3Msg::SaveAck { ids }) if ids == &vec![(0usize, 3u64)]
        ));
    }

    #[test]
    fn stale_save_does_not_regress() {
        let mut a = node(2, 3, 0);
        let mut e = fx();
        a.pnd_tsk[0] = PndEntry {
            sns: 5,
            vc: None,
            fnl: None,
        };
        let view: SnapshotView = (&RegArray::bottom(3)).into();
        a.on_message(
            NodeId(1),
            Alg3Msg::Save {
                entries: Arc::new(vec![SaveEntry {
                    node: 0,
                    sns: 3,
                    view,
                }]),
            },
            &mut e,
        );
        assert_eq!(a.pnd_tsk()[0].sns, 5, "older result ignored");
        assert!(a.pnd_tsk()[0].fnl.is_none());
    }

    #[test]
    fn snapshot_server_forwards_known_results() {
        let mut a = node(2, 3, 0);
        let mut e = fx();
        let view: SnapshotView = (&RegArray::bottom(3)).into();
        a.pnd_tsk[0] = PndEntry {
            sns: 3,
            vc: None,
            fnl: Some(view),
        };
        a.on_message(
            NodeId(1),
            Alg3Msg::Snapshot {
                tasks: Arc::new(vec![TaskRef {
                    node: 0,
                    sns: 3,
                    vc: None,
                }]),
                reg: RegArray::bottom(3).into(),
                ssn: 9,
            },
            &mut e,
        );
        let sends = e.take_sends();
        assert!(sends.iter().any(|(to, m)| *to == NodeId(1)
            && matches!(m, Alg3Msg::Save { entries } if entries[0].node == 0)));
    }

    #[test]
    fn writes_defer_while_base_snapshot_runs() {
        let mut a = node(0, 3, 0);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Snapshot, &mut e);
        a.on_round(&mut e); // base starts
        a.invoke(OpId(2), SnapshotOp::Write(7), &mut e);
        assert!(a.write.is_none(), "write deferred during base call");
        assert_eq!(a.write_queue.len(), 1);
    }

    #[test]
    fn gossip_recovers_sns() {
        let mut a = node(1, 3, 0);
        let mut e = fx();
        a.on_message(
            NodeId(0),
            Alg3Msg::Gossip {
                cell: Tagged::new(4, 2),
                pnd_sns: 7,
            },
            &mut e,
        );
        assert_eq!(a.indices().2, 7, "sns caught up");
        // Next round resynchronises pndTsk[i] (line 77).
        a.on_round(&mut e);
        assert_eq!(a.pnd_tsk()[1].sns, 7);
    }

    #[test]
    fn round_discards_illogical_vector_clocks() {
        let mut a = node(0, 3, 1);
        a.pnd_tsk[1] = PndEntry {
            sns: 2,
            vc: Some(VectorClock::from_components(vec![99, 99, 99])),
            fnl: None,
        };
        let mut e = fx();
        a.on_round(&mut e);
        assert!(a.pnd_tsk()[1].vc.is_none(), "line 76 cleanup");
    }

    #[test]
    fn corrupt_then_rounds_restore_local_invariants() {
        let mut a = node(0, 4, 2);
        let mut rng = rand::rngs::mock::StepRng::new(0x1234_5678, 0x9E37_79B9);
        a.corrupt(&mut rng);
        let mut e = fx();
        a.on_round(&mut e);
        assert!(a.local_invariants_hold());
    }

    #[test]
    fn message_size_accounting() {
        let g = Alg3Msg::Gossip {
            cell: Tagged::new(1, 1),
            pnd_sns: 0,
        };
        // Gossip stays O(ν), independent of n.
        assert_eq!(g.size_bits(64), 64 + 128 + 64);
        let s = Alg3Msg::Snapshot {
            tasks: Arc::new(vec![]),
            reg: RegArray::bottom(4).into(),
            ssn: 1,
        };
        assert_eq!(s.size_bits(64), 64 + 64 + 4 * 128);
    }
}
