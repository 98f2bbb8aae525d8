//! The Section 5 bounded-counter construction: a wrapper that turns the
//! unbounded-index algorithms into bounded-space ones.
//!
//! Self-stabilization *requires* bounded state, so Section 5 prescribes:
//! once any operation index reaches `MAXINT`, (1) disable new operations,
//! (2) bring all nodes to agreement on the maximal indices and register
//! values, (3) run a consensus-based global reset that wraps every index
//! while keeping the register values, then re-enable operations. Because
//! a 64-bit counter can only reach `MAXINT` after a transient fault, the
//! reset runs *seldom*, and only it needs execution fairness
//! (the paper's "self-stabilization in the presence of seldom fairness").
//!
//! [`Bounded<P>`] implements this around any protocol implementing
//! [`HasIndices`] ([`Alg1`](crate::Alg1) and [`Alg3`](crate::Alg3) both
//! do):
//!
//! * every inner message travels inside an **epoch envelope**; messages
//!   from older epochs are discarded, so pre-reset timestamps cannot leak
//!   into the new epoch;
//! * operations invoked while a reset is in progress are **aborted** (the
//!   paper's criterion explicitly permits aborting a bounded number of
//!   operations during the seldom `R_globalReset` periods);
//! * the reset itself is coordinated by the lowest node id
//!   (see [`crate::reset`]).
//!
//! # Abort semantics: "outcome unknown"
//!
//! An aborted write may still have *taken effect* — in particular the
//! write that pushed the index to `MAXINT` installs its value locally
//! before the node disables operations, and the reset's sync phase then
//! preserves that value. Clients must treat an abort as "outcome
//! unknown" (like a timeout), **not** as "did not happen". The only safe
//! retry for an aborted write is re-read-then-decide: take a snapshot
//! first and re-issue only if the observed state shows the write did not
//! land. The runtime reports aborts distinctly from timeouts
//! (`ClusterError::Aborted { epoch }` names the reset epoch that killed
//! the operation) precisely so retry policies can apply that rule
//! instead of blindly re-issuing.
//!
//! # Reset hardening against crashes and liars
//!
//! The paper's reset assumes the coordinator (lowest id) stays up and
//! every node answers the sync phase. Under the chaos plane's adversary
//! (crashes mid-reset, partitions, Byzantine peers) that would wedge the
//! protocol, so the implementation bounds every wait:
//!
//! * **coordinator handoff** — coordination rotates by deadline: a node
//!   stuck in wrapping mode for `HANDOFF_ROUNDS` rounds without reset
//!   progress treats the next id (round-robin) as coordinator, and
//!   promotes itself when its own turn comes. A live coordinator's
//!   `SyncReq` retransmissions reset every follower's patience, so
//!   handoff only fires when the current coordinator is crashed,
//!   partitioned away, or lying silently;
//! * **majority sync** — a coordinator whose sync phase stalls for
//!   `SYNC_QUORUM_ROUNDS` rounds proceeds once a majority has answered,
//!   instead of waiting for all `n` (crashed minorities cannot block the
//!   reset forever);
//! * **one install path** — the coordinator broadcasts `Install` once.
//!   A straggler that missed it asks again: a wrapping one re-broadcasts
//!   `Request` every round, a normal one sends `Request` to the first
//!   sender it hears from a newer epoch, and any node already in a newer
//!   epoch answers with `Install` (not just the coordinator, which may
//!   be crashed).
//!
//! A wrapping node resets into one epoch, its mode's `target`. The
//! target only rises (a `Request` or `SyncReq` for a newer epoch raises
//! it), and raising it drops any coordinator state kept for the old one.

use crate::reset::{ResetMsg, ResetState};
use rand::RngCore;
use sss_types::{
    reg_array_bits, ArbitraryMsg, Effects, MsgKind, NodeId, OpId, ProtoMsg, Protocol,
    ProtocolStats, RegArray, SnapshotOp, Tagged,
};

/// Rounds a node tolerates in wrapping mode without reset progress
/// before it rotates coordination to the next id.
const HANDOFF_ROUNDS: u64 = 12;

/// Rounds a coordinator's sync phase may stall before it proceeds with
/// a majority instead of all `n`.
const SYNC_QUORUM_ROUNDS: u64 = 6;

/// Extra capabilities [`Bounded`] needs from the wrapped protocol.
pub trait HasIndices: Protocol {
    /// The largest operation index anywhere in the local state (write
    /// indices, snapshot indices, register timestamps).
    fn max_index(&self) -> u64;

    /// The local register array (for the reset's sync phase).
    fn export_reg(&self) -> RegArray;

    /// Installs the canonical post-reset state: adopt `reg`, derive the
    /// own write index from it, zero all other indices, clear all
    /// in-progress phases.
    fn install_reset(&mut self, reg: RegArray);

    /// Removes all in-progress and queued client operations, returning
    /// their ids so the wrapper can abort them.
    fn drain_ops(&mut self) -> Vec<OpId>;

    /// Raises the local write index to at least `base` (test/chaos hook:
    /// lets wraparound campaigns start operations next to `MAXINT`
    /// instead of counting up from zero).
    fn seed_indices(&mut self, base: u64);
}

/// Configuration of [`Bounded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundedConfig {
    /// The `MAXINT` threshold: reaching it triggers a global reset.
    /// Production would use ~`2^62`; tests use small values to exercise
    /// the wrap.
    pub max_int: u64,
}

impl Default for BoundedConfig {
    fn default() -> Self {
        BoundedConfig { max_int: 1 << 62 }
    }
}

/// Wire messages of [`Bounded`]: epoch-enveloped inner messages plus the
/// reset protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundedMsg<M> {
    /// An inner-protocol message valid in `epoch`.
    Inner {
        /// The sender's epoch.
        epoch: u64,
        /// The wrapped message.
        msg: M,
    },
    /// Global-reset traffic.
    Reset(ResetMsg),
}

impl<M: ProtoMsg> ProtoMsg for BoundedMsg<M> {
    fn kind(&self) -> MsgKind {
        match self {
            BoundedMsg::Inner { msg, .. } => msg.kind(),
            BoundedMsg::Reset(_) => MsgKind::Reset,
        }
    }

    fn size_bits(&self, nu: u32) -> u64 {
        match self {
            BoundedMsg::Inner { msg, .. } => 64 + msg.size_bits(nu),
            BoundedMsg::Reset(m) => match m {
                ResetMsg::Request { .. } | ResetMsg::SyncReq { .. } => 128,
                ResetMsg::SyncResp { reg, .. } | ResetMsg::Install { reg, .. } => {
                    128 + reg_array_bits(reg.n(), nu)
                }
            },
        }
    }

    /// Equivocation keeps the epoch envelope intact (a liar that breaks
    /// the envelope is just dropped) and forges either the inner payload
    /// or — the nastiest case — the register array it contributes to a
    /// reset's sync phase, feeding lies into the canonical state.
    fn equivocate(&self, rng: &mut dyn RngCore) -> Option<Self> {
        match self {
            BoundedMsg::Inner { epoch, msg } => msg.equivocate(rng).map(|m| BoundedMsg::Inner {
                epoch: *epoch,
                msg: m,
            }),
            BoundedMsg::Reset(ResetMsg::SyncResp { epoch, reg }) => {
                let mut forged = reg.clone();
                for k in 0..forged.n() {
                    let cell = forged.get(NodeId(k));
                    if !cell.is_bottom() {
                        forged.set(NodeId(k), Tagged::new(rng.next_u64(), cell.ts));
                    }
                }
                Some(BoundedMsg::Reset(ResetMsg::SyncResp {
                    epoch: *epoch,
                    reg: forged,
                }))
            }
            BoundedMsg::Reset(_) => None,
        }
    }

    /// Index inflation also keeps the envelope: the inflated inner index
    /// is what honest receivers merge, driving them over `MAXINT`.
    fn inflate_index(&self, floor: u64) -> Option<Self> {
        match self {
            BoundedMsg::Inner { epoch, msg } => {
                msg.inflate_index(floor).map(|m| BoundedMsg::Inner {
                    epoch: *epoch,
                    msg: m,
                })
            }
            BoundedMsg::Reset(_) => None,
        }
    }
}

impl<M: ArbitraryMsg> ArbitraryMsg for BoundedMsg<M> {
    fn arbitrary(rng: &mut dyn RngCore, n: usize, max_index: u64) -> Self {
        if rng.next_u32().is_multiple_of(4) {
            BoundedMsg::Reset(ResetMsg::Request {
                epoch: rng.next_u64() % (max_index + 1),
            })
        } else {
            BoundedMsg::Inner {
                epoch: rng.next_u64() % (max_index + 1),
                msg: M::arbitrary(rng, n, max_index),
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Normal,
    /// Operations disabled until the reset into epoch `target` completes.
    Wrapping {
        target: u64,
    },
}

/// The bounded-counter wrapper. See the module docs above.
#[derive(Debug)]
pub struct Bounded<P: HasIndices> {
    inner: P,
    cfg: BoundedConfig,
    epoch: u64,
    mode: Mode,
    /// Coordinator-only: the in-progress reset into the mode's `target`.
    reset: Option<ResetState>,
    /// Rounds spent in wrapping mode without reset progress — drives the
    /// coordinator-handoff rotation and the majority-sync deadline.
    wrap_rounds: u64,
    /// Number of resets completed locally (experiment probe).
    resets_done: u64,
    /// Operations aborted by resets (experiment probe).
    aborted: u64,
    /// Inner messages discarded by the epoch envelope (stale or foreign
    /// epochs — replays across a reset land here).
    stale_dropped: u64,
}

impl<P: HasIndices> Bounded<P> {
    /// Wraps `inner` with the bounded-counter construction.
    pub fn new(inner: P, cfg: BoundedConfig) -> Self {
        assert!(cfg.max_int > 1, "MAXINT must exceed 1");
        Bounded {
            inner,
            cfg,
            epoch: 0,
            mode: Mode::Normal,
            reset: None,
            wrap_rounds: 0,
            resets_done: 0,
            aborted: 0,
            stale_dropped: 0,
        }
    }

    /// The wrapped protocol (probes/tests).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a reset is currently disabling operations.
    pub fn is_wrapping(&self) -> bool {
        matches!(self.mode, Mode::Wrapping { .. })
    }

    /// Resets completed at this node.
    pub fn resets_done(&self) -> u64 {
        self.resets_done
    }

    /// Operations aborted by resets at this node.
    pub fn aborted_ops(&self) -> u64 {
        self.aborted
    }

    /// Inner messages discarded by the epoch envelope at this node.
    pub fn stale_epoch_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Seeds the inner protocol's indices to at least `base` (test/chaos
    /// hook — see [`HasIndices::seed_indices`]).
    pub fn seed_indices_for_test(&mut self, base: u64) {
        self.inner.seed_indices(base);
    }

    /// The node this one currently treats as reset coordinator: the
    /// lowest id at first, rotating round-robin every `HANDOFF_ROUNDS`
    /// of stalled wrapping (so a crashed or lying coordinator cannot
    /// wedge the reset forever).
    fn coordinator(&self) -> NodeId {
        let rank = (self.wrap_rounds / HANDOFF_ROUNDS) as usize % self.inner.n();
        NodeId(rank)
    }

    fn is_coordinator(&self) -> bool {
        self.inner.id() == self.coordinator()
    }

    /// A strict majority of the process universe.
    fn majority(&self) -> usize {
        self.inner.n() / 2 + 1
    }

    fn wrap_inner_effects(
        &mut self,
        mut inner_fx: Effects<P::Msg>,
        fx: &mut Effects<BoundedMsg<P::Msg>>,
    ) {
        for (to, msg) in inner_fx.take_sends() {
            fx.send(
                to,
                BoundedMsg::Inner {
                    epoch: self.epoch,
                    msg,
                },
            );
        }
        for (id, resp) in inner_fx.take_completions() {
            fx.complete(id, resp);
        }
        for id in inner_fx.take_aborts() {
            fx.abort(id);
        }
    }

    fn abort_drained(&mut self, fx: &mut Effects<BoundedMsg<P::Msg>>) {
        for id in self.inner.drain_ops() {
            self.aborted += 1;
            fx.abort(id);
        }
    }

    /// Starts wrapping towards epoch `target`, or raises the target of a
    /// reset already under way. Returns `false`, changing nothing, if the
    /// node already wraps towards `target` or beyond.
    fn raise_target(&mut self, target: u64, fx: &mut Effects<BoundedMsg<P::Msg>>) -> bool {
        if matches!(self.mode, Mode::Wrapping { target: t } if t >= target) {
            return false;
        }
        self.mode = Mode::Wrapping { target };
        self.reset = None;
        self.wrap_rounds = 0;
        self.abort_drained(fx);
        true
    }

    /// Wraps towards `target` and announces it: a coordinator opens the
    /// sync phase, anyone else asks for a reset.
    fn enter_wrapping(&mut self, target: u64, fx: &mut Effects<BoundedMsg<P::Msg>>) {
        if !self.raise_target(target, fx) {
            return;
        }
        let msg = if self.is_coordinator() {
            let st = ResetState::new(target, self.inner.export_reg(), self.inner.id());
            self.reset = Some(st);
            ResetMsg::SyncReq { epoch: target }
        } else {
            ResetMsg::Request { epoch: target }
        };
        fx.broadcast(self.inner.n(), &BoundedMsg::Reset(msg));
    }

    fn install(&mut self, epoch: u64, reg: RegArray, fx: &mut Effects<BoundedMsg<P::Msg>>) {
        self.abort_drained(fx);
        self.inner.install_reset(reg);
        self.epoch = epoch;
        self.mode = Mode::Normal;
        self.reset = None;
        self.wrap_rounds = 0;
        self.resets_done += 1;
    }

    /// Seals the sync phase: broadcasts the canonical array in `Install`
    /// and installs it locally. Reached either when all `n` answered the
    /// sync, or when a majority did and the `SYNC_QUORUM_ROUNDS` deadline
    /// expired.
    fn finish_sync(&mut self, fx: &mut Effects<BoundedMsg<P::Msg>>) {
        let st = self.reset.take().expect("reset state");
        let reg = st.make_canonical();
        let install = ResetMsg::Install {
            epoch: st.epoch,
            reg: reg.clone(),
        };
        fx.broadcast(self.inner.n(), &BoundedMsg::Reset(install));
        self.install(st.epoch, reg, fx);
    }

    /// Answers a node that lags behind this node's finished reset.
    fn catch_up(&self, to: NodeId, fx: &mut Effects<BoundedMsg<P::Msg>>) {
        let reg = self.inner.export_reg();
        let install = ResetMsg::Install {
            epoch: self.epoch,
            reg,
        };
        fx.send(to, BoundedMsg::Reset(install));
    }
}

impl<P: HasIndices> Protocol for Bounded<P> {
    type Msg = BoundedMsg<P::Msg>;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn on_round(&mut self, fx: &mut Effects<BoundedMsg<P::Msg>>) {
        let Mode::Wrapping { target } = self.mode else {
            let mut inner_fx = Effects::new();
            self.inner.on_round(&mut inner_fx);
            self.wrap_inner_effects(inner_fx, fx);
            if self.inner.max_index() >= self.cfg.max_int {
                self.enter_wrapping(self.epoch + 1, fx);
            }
            return;
        };
        self.wrap_rounds += 1;
        if !self.is_coordinator() {
            // Keep requesting until served.
            let request = ResetMsg::Request { epoch: target };
            fx.broadcast(self.inner.n(), &BoundedMsg::Reset(request));
            return;
        }
        let (majority, tenure) = (self.majority(), self.wrap_rounds % HANDOFF_ROUNDS);
        // Promote: a handed-off coordinator starts its own sync phase
        // for the same target epoch.
        let st = self.reset.get_or_insert_with(|| {
            ResetState::new(target, self.inner.export_reg(), self.inner.id())
        });
        if tenure >= SYNC_QUORUM_ROUNDS && st.synced.len() >= majority {
            // The stragglers are crashed or cut off; a majority view is
            // the best available.
            self.finish_sync(fx);
        } else {
            let sync = ResetMsg::SyncReq { epoch: target };
            fx.broadcast(self.inner.n(), &BoundedMsg::Reset(sync));
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: BoundedMsg<P::Msg>,
        fx: &mut Effects<BoundedMsg<P::Msg>>,
    ) {
        match msg {
            BoundedMsg::Inner { epoch, msg } => {
                if epoch != self.epoch {
                    // Stale or foreign epoch: the envelope rejects it so
                    // pre-reset indices cannot leak across a reset.
                    self.stale_dropped += 1;
                    if epoch > self.epoch {
                        // The sender is ahead — we missed an Install.
                        // Ask it to catch us up.
                        fx.send(
                            from,
                            BoundedMsg::Reset(ResetMsg::Request { epoch: self.epoch }),
                        );
                    }
                    return;
                }
                if self.is_wrapping() {
                    // Operations disabled while the reset runs.
                    return;
                }
                let mut inner_fx = Effects::new();
                self.inner.on_message(from, msg, &mut inner_fx);
                self.wrap_inner_effects(inner_fx, fx);
                if self.inner.max_index() >= self.cfg.max_int {
                    self.enter_wrapping(self.epoch + 1, fx);
                }
            }
            BoundedMsg::Reset(reset) => match reset {
                ResetMsg::Request { epoch } => {
                    if epoch > self.epoch {
                        self.enter_wrapping(epoch, fx);
                    } else if !self.is_wrapping() {
                        // The requester lags behind a finished reset: any
                        // node ahead of it catches it up (not just the
                        // coordinator — it may be crashed).
                        self.catch_up(from, fx);
                    }
                }
                ResetMsg::SyncReq { epoch } => {
                    if from == self.inner.id() {
                        // Our own broadcast echo: the coordinator already
                        // merged its own state in `ResetState::new`, and
                        // zeroing our own handoff clock here would demote
                        // us every round.
                        return;
                    }
                    if epoch > self.epoch {
                        self.raise_target(epoch, fx);
                        // A live coordinator's retransmissions reset the
                        // handoff clock: rotation only fires when the
                        // coordinator goes silent.
                        self.wrap_rounds = 0;
                        let reg = self.inner.export_reg();
                        fx.send(from, BoundedMsg::Reset(ResetMsg::SyncResp { epoch, reg }));
                    } else if !self.is_wrapping() {
                        // A stale coordinator (resumed after its reset
                        // completed without it): catch it up.
                        self.catch_up(from, fx);
                    }
                }
                ResetMsg::SyncResp { epoch, reg } => {
                    let all = match &mut self.reset {
                        Some(st) if st.epoch == epoch => st.on_sync(from, &reg),
                        _ => false,
                    };
                    if all {
                        self.finish_sync(fx);
                    }
                }
                ResetMsg::Install { epoch, reg } => {
                    if epoch > self.epoch {
                        self.install(epoch, reg, fx);
                    }
                }
            },
        }
    }

    fn invoke(&mut self, id: OpId, op: SnapshotOp, fx: &mut Effects<BoundedMsg<P::Msg>>) {
        match self.mode {
            Mode::Normal => {
                let mut inner_fx = Effects::new();
                self.inner.invoke(id, op, &mut inner_fx);
                self.wrap_inner_effects(inner_fx, fx);
            }
            Mode::Wrapping { .. } => {
                // The paper's criterion allows aborting a bounded number
                // of operations during the seldom reset periods.
                self.aborted += 1;
                fx.abort(id);
            }
        }
    }

    fn is_busy(&self) -> bool {
        self.inner.is_busy()
    }

    fn corrupt(&mut self, rng: &mut dyn RngCore) {
        self.inner.corrupt(rng);
        self.epoch = rng.next_u64() % 16;
        self.mode = Mode::Normal;
        self.reset = None;
        self.wrap_rounds = 0;
    }

    fn restart(&mut self) {
        self.inner.restart();
        self.epoch = 0;
        self.mode = Mode::Normal;
        self.reset = None;
        self.wrap_rounds = 0;
    }

    fn local_invariants_hold(&self) -> bool {
        self.inner.local_invariants_hold() && self.inner.max_index() < self.cfg.max_int
    }

    fn stats(&self) -> ProtocolStats {
        let mut stats = self.inner.stats();
        stats.stale_epoch_dropped = self.stale_dropped;
        stats
    }

    fn epoch_probe(&self) -> Option<u64> {
        Some(self.epoch)
    }

    fn wrapping_probe(&self) -> bool {
        self.is_wrapping()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Alg1;
    use sss_types::Tagged;

    type B = Bounded<Alg1>;

    fn node(i: usize, n: usize, max_int: u64) -> B {
        Bounded::new(Alg1::new(NodeId(i), n), BoundedConfig { max_int })
    }

    fn fx() -> Effects<BoundedMsg<crate::Alg1Msg>> {
        Effects::new()
    }

    #[test]
    fn normal_mode_passes_traffic_through() {
        let mut a = node(0, 3, 1000);
        let mut e = fx();
        a.invoke(OpId(1), SnapshotOp::Write(5), &mut e);
        let sends = e.take_sends();
        assert_eq!(sends.len(), 3);
        assert!(matches!(sends[0].1, BoundedMsg::Inner { epoch: 0, .. }));
    }

    #[test]
    fn overflow_triggers_wrapping_and_aborts() {
        let mut a = node(1, 3, 5);
        let mut e = fx();
        // Push the inner index to the threshold via gossip.
        a.on_message(
            NodeId(0),
            BoundedMsg::Inner {
                epoch: 0,
                msg: crate::Alg1Msg::Gossip {
                    cell: Tagged::new(9, 5),
                },
            },
            &mut e,
        );
        assert!(a.is_wrapping());
        // New operations abort during the reset.
        a.invoke(OpId(7), SnapshotOp::Write(1), &mut e);
        assert_eq!(e.take_aborts(), vec![OpId(7)]);
        assert_eq!(a.aborted_ops(), 1);
    }

    #[test]
    fn a_promoted_coordinator_echoes_a_newer_request_at_most_once() {
        // p1 of five goes over MAXINT, hears no coordinator for one
        // handoff window and promotes itself (rank 1).
        let mut a = node(1, 5, 10);
        a.seed_indices_for_test(10);
        let mut e = fx();
        a.on_round(&mut e);
        assert!(a.is_wrapping());
        for _ in 0..HANDOFF_ROUNDS {
            a.on_round(&mut e);
        }
        assert!(a.is_coordinator());
        let target = a.reset.as_ref().expect("promoted").epoch;
        // A newer Request demotes it; it re-broadcasts the Request, to
        // itself too. Its own echo must end the chain.
        let mut inbox = vec![(NodeId(3), ResetMsg::Request { epoch: target + 1 })];
        let mut steps = 0;
        while let Some((from, msg)) = inbox.pop() {
            steps += 1;
            assert!(steps <= 2, "p1 keeps delivering its own Request");
            let mut e = fx();
            a.on_message(from, BoundedMsg::Reset(msg), &mut e);
            for (to, m) in e.take_sends() {
                if let (NodeId(1), BoundedMsg::Reset(m)) = (to, m) {
                    inbox.push((NodeId(1), m));
                }
            }
        }
        assert!(matches!(a.mode, Mode::Wrapping { target: t } if t == target + 1));
    }

    #[test]
    fn stale_epoch_messages_are_dropped() {
        let mut a = node(1, 3, 1000);
        a.epoch = 2;
        let mut e = fx();
        a.on_message(
            NodeId(0),
            BoundedMsg::Inner {
                epoch: 1,
                msg: crate::Alg1Msg::Gossip {
                    cell: Tagged::new(9, 500),
                },
            },
            &mut e,
        );
        assert_eq!(a.inner().ts(), 0, "stale-epoch gossip ignored");
        assert_eq!(a.stale_epoch_dropped(), 1, "the envelope counts drops");
        assert_eq!(a.stats().stale_epoch_dropped, 1);
        assert!(e.take_sends().is_empty(), "stale drop is silent");
    }

    #[test]
    fn future_epoch_messages_trigger_catch_up() {
        let mut a = node(1, 3, 1000);
        let mut e = fx();
        a.on_message(
            NodeId(0),
            BoundedMsg::Inner {
                epoch: 3,
                msg: crate::Alg1Msg::Gossip {
                    cell: Tagged::new(9, 500),
                },
            },
            &mut e,
        );
        assert_eq!(a.inner().ts(), 0, "foreign-epoch gossip ignored");
        assert_eq!(a.stale_epoch_dropped(), 1);
        let sends = e.take_sends();
        assert_eq!(sends.len(), 1, "asks the ahead sender for an Install");
        assert!(matches!(
            &sends[0],
            (NodeId(0), BoundedMsg::Reset(ResetMsg::Request { epoch: 0 }))
        ));
    }

    #[test]
    fn any_node_serves_lagging_requesters() {
        // A non-coordinator that finished the reset catches up a
        // straggler — the coordinator may be crashed.
        let mut a = node(2, 3, 1000);
        a.epoch = 4;
        let mut e = fx();
        a.on_message(
            NodeId(1),
            BoundedMsg::Reset(ResetMsg::Request { epoch: 2 }),
            &mut e,
        );
        let sends = e.take_sends();
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            &sends[0],
            (
                NodeId(1),
                BoundedMsg::Reset(ResetMsg::Install { epoch: 4, .. })
            )
        ));
    }

    #[test]
    fn coordinator_crash_hands_off_and_majority_completes_the_reset() {
        // Node 0 (the initial coordinator) is crashed for the whole run:
        // its messages are never delivered and it takes no steps. The
        // reset must still terminate via handoff to node 1 plus the
        // majority-sync deadline.
        let n = 3;
        let mut nodes: Vec<B> = (0..n).map(|i| node(i, n, 10)).collect();
        let mut queues: Vec<Vec<(NodeId, BoundedMsg<crate::Alg1Msg>)>> = vec![vec![]; n];
        let mut e = fx();
        nodes[2].on_message(
            NodeId(1),
            BoundedMsg::Inner {
                epoch: 0,
                msg: crate::Alg1Msg::Gossip {
                    cell: Tagged::new(42, 10),
                },
            },
            &mut e,
        );
        for (to, m) in e.take_sends() {
            queues[to.index()].push((NodeId(2), m));
        }
        assert!(nodes[2].is_wrapping());
        // Alternate delivery and rounds; node 0 never participates.
        for _ in 0..(4 * HANDOFF_ROUNDS) {
            for i in 1..n {
                let inbox = std::mem::take(&mut queues[i]);
                for (from, m) in inbox {
                    let mut e = fx();
                    nodes[i].on_message(from, m, &mut e);
                    for (to, m2) in e.take_sends() {
                        queues[to.index()].push((NodeId(i), m2));
                    }
                }
            }
            for (i, node) in nodes.iter_mut().enumerate().skip(1) {
                let mut e = fx();
                node.on_round(&mut e);
                for (to, m2) in e.take_sends() {
                    queues[to.index()].push((NodeId(i), m2));
                }
            }
            if (1..n).all(|i| !nodes[i].is_wrapping() && nodes[i].epoch() == 1) {
                break;
            }
        }
        for (i, node) in nodes.iter().enumerate().skip(1) {
            assert_eq!(node.epoch(), 1, "node {i} reset without node 0");
            assert!(!node.is_wrapping(), "node {i} back to normal");
        }
        // The register value survived the coordinator crash.
        assert_eq!(nodes[1].inner().reg().get(NodeId(2)).val, 42);
    }

    #[test]
    fn equivocated_gossip_keeps_the_envelope_but_forges_the_value() {
        use rand::{rngs::StdRng, SeedableRng};
        let msg = BoundedMsg::Inner {
            epoch: 7,
            msg: crate::Alg1Msg::Gossip {
                cell: Tagged::new(5, 3),
            },
        };
        let mut rng = StdRng::seed_from_u64(1);
        let forged = msg.equivocate(&mut rng).expect("gossip equivocates");
        match forged {
            BoundedMsg::Inner {
                epoch,
                msg: crate::Alg1Msg::Gossip { cell },
            } => {
                assert_eq!(epoch, 7, "envelope intact");
                assert_eq!(cell.ts, 3, "index intact");
                assert_ne!(cell.val, 5, "value forged");
            }
            other => panic!("unexpected rewrite {other:?}"),
        }
    }

    #[test]
    fn inflated_gossip_drives_receivers_over_maxint() {
        let msg = BoundedMsg::Inner {
            epoch: 0,
            msg: crate::Alg1Msg::Gossip {
                cell: Tagged::new(5, 3),
            },
        };
        let forged = msg.inflate_index(1 << 20).expect("gossip inflates");
        match &forged {
            BoundedMsg::Inner {
                msg: crate::Alg1Msg::Gossip { cell },
                ..
            } => assert_eq!(cell.ts, 1 << 20),
            other => panic!("unexpected rewrite {other:?}"),
        }
        // Delivering it to an honest node trips the overflow guard.
        let mut a = node(1, 3, 1 << 20);
        let mut e = fx();
        a.on_message(NodeId(0), forged, &mut e);
        assert!(a.is_wrapping(), "inflation forced a reset");
    }

    #[test]
    fn seeding_indices_points_the_node_at_maxint() {
        let mut a = node(0, 3, 1000);
        a.seed_indices_for_test(999);
        assert_eq!(a.inner().ts(), 999);
        let mut e = fx();
        a.on_round(&mut e);
        // One more write index and the overflow guard fires; seeding
        // alone (999 < 1000) must not.
        assert!(!a.is_wrapping());
        a.invoke(OpId(1), SnapshotOp::Write(5), &mut e);
        a.on_round(&mut e);
        assert!(a.is_wrapping(), "first write after seeding wraps");
    }

    #[test]
    fn full_reset_round_trip_three_nodes() {
        // Drive the three wrapped nodes by hand, routing all messages.
        let n = 3;
        let mut nodes: Vec<B> = (0..n).map(|i| node(i, n, 10)).collect();
        let mut queues: Vec<Vec<(NodeId, BoundedMsg<crate::Alg1Msg>)>> = vec![vec![]; n];
        // Overflow at node 2.
        let mut e = fx();
        nodes[2].on_message(
            NodeId(1),
            BoundedMsg::Inner {
                epoch: 0,
                msg: crate::Alg1Msg::Gossip {
                    cell: Tagged::new(77, 10),
                },
            },
            &mut e,
        );
        for (to, m) in e.take_sends() {
            queues[to.index()].push((NodeId(2), m));
        }
        assert!(nodes[2].is_wrapping());
        // Route messages until quiescent (bounded rounds).
        for _ in 0..20 {
            let mut progress = false;
            for i in 0..n {
                let inbox = std::mem::take(&mut queues[i]);
                for (from, m) in inbox {
                    progress = true;
                    let mut e = fx();
                    nodes[i].on_message(from, m, &mut e);
                    for (to, m2) in e.take_sends() {
                        queues[to.index()].push((NodeId(i), m2));
                    }
                }
            }
            if !progress {
                // Let rounds retransmit.
                for (i, node) in nodes.iter_mut().enumerate() {
                    let mut e = fx();
                    node.on_round(&mut e);
                    for (to, m2) in e.take_sends() {
                        queues[to.index()].push((NodeId(i), m2));
                    }
                }
            }
            if nodes.iter().all(|x| !x.is_wrapping() && x.epoch() == 1) {
                break;
            }
        }
        for (i, x) in nodes.iter().enumerate() {
            assert_eq!(x.epoch(), 1, "node {i} moved to the new epoch");
            assert!(!x.is_wrapping(), "node {i} back to normal");
            assert!(x.inner().ts() <= 1, "node {i} wrapped its index");
        }
        // The register VALUE survived the reset at every node.
        for x in &nodes {
            assert_eq!(x.inner().reg().get(NodeId(2)).val, 77);
            assert_eq!(x.inner().reg().get(NodeId(2)).ts, 1, "re-stamped");
        }
    }
}
