//! The event-driven state-machine interface implemented by every snapshot
//! protocol in this workspace.
//!
//! The paper's pseudo-code mixes a `do forever` loop with blocking
//! client-side `repeat … until majority` loops. To run the same code under
//! a deterministic discrete-event simulator *and* a threaded runtime, each
//! algorithm is expressed as a non-blocking state machine:
//!
//! * [`Protocol::on_round`] is one iteration of the `do forever` loop; it
//!   also re-issues any broadcast the pseudo-code would be `repeat`ing
//!   (which is exactly how the paper's loops tolerate packet loss);
//! * [`Protocol::on_message`] handles one message arrival (the `upon
//!   message … arrival` handlers *and* the client-side `until` conditions);
//! * [`Protocol::invoke`] starts a `write(v)` or `snapshot()` operation;
//!   its completion is reported through [`Effects::complete`].
//!
//! All communication is collected into an [`Effects`] buffer that the driver
//! applies, so protocols never talk to the network directly and stay fully
//! deterministic.

use crate::{NodeId, OpId, OpResponse, SnapshotOp};
use rand::RngCore;
use std::fmt;

/// Classification of protocol messages, used by the measurement
/// infrastructure to reproduce the paper's per-kind message accounting
/// (e.g. "O(n²) gossip messages of O(ν) bits" vs "O(n) messages of
/// O(ν·n) bits").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[non_exhaustive]
pub enum MsgKind {
    /// Client-side `WRITE(reg)` broadcast.
    Write,
    /// Server-side `WRITEack(reg)` reply.
    WriteAck,
    /// Client-side `SNAPSHOT(…, reg, ssn)` broadcast.
    Snapshot,
    /// Server-side `SNAPSHOTack(reg, ssn)` reply.
    SnapshotAck,
    /// Self-stabilizing `GOSSIP(…)` (Algorithm 1 line 11, Algorithm 3
    /// line 78).
    Gossip,
    /// Algorithm 3's `SAVE(A)` safe-register store.
    Save,
    /// Algorithm 3's `SAVEack(…)` reply.
    SaveAck,
    /// Algorithm 2's reliably-broadcast `SNAP(source, sn)` task
    /// announcement.
    Snap,
    /// Algorithm 2's reliably-broadcast `END(s, t, val)` result.
    End,
    /// Echo/forward traffic of the reliable-broadcast substrate.
    RbEcho,
    /// Acknowledgement traffic of the reliable-broadcast substrate.
    RbAck,
    /// Global-reset traffic of the bounded-counter variant (Section 5).
    Reset,
    /// Read-query of the stacked ABD baseline.
    Query,
    /// Read-reply of the stacked ABD baseline.
    QueryAck,
    /// Write-back phase of the stacked ABD baseline.
    WriteBack,
    /// Write-back acknowledgement of the stacked ABD baseline.
    WriteBackAck,
}

impl MsgKind {
    /// Every kind, in declaration (= `Ord`) order. Lets accounting code
    /// use dense per-kind arrays instead of map lookups on the delivery
    /// hot path.
    pub const ALL: [MsgKind; 16] = [
        MsgKind::Write,
        MsgKind::WriteAck,
        MsgKind::Snapshot,
        MsgKind::SnapshotAck,
        MsgKind::Gossip,
        MsgKind::Save,
        MsgKind::SaveAck,
        MsgKind::Snap,
        MsgKind::End,
        MsgKind::RbEcho,
        MsgKind::RbAck,
        MsgKind::Reset,
        MsgKind::Query,
        MsgKind::QueryAck,
        MsgKind::WriteBack,
        MsgKind::WriteBackAck,
    ];

    /// Number of kinds (the length of [`MsgKind::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// This kind's position in [`MsgKind::ALL`] — a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this is background gossip (sent every round regardless of
    /// operations) as opposed to operation-driven traffic.
    pub fn is_gossip(self) -> bool {
        matches!(self, MsgKind::Gossip)
    }
}

/// A Byzantine node's scripted misbehaviour, as injected by the fault
/// plane's `FaultEvent::Byzantine { node, behavior }`.
///
/// The behaviours are the three attacks the Byzantine-tolerant-recycling
/// literature (Georgiou–Raynal–Schiller 2023) identifies against
/// counter-recycling constructions like the paper's Section 5 global
/// reset:
///
/// * [`Equivocate`](ByzBehavior::Equivocate) — gossip *different* register
///   values to different peers (each outgoing copy is independently
///   perturbed, so no two receivers can agree on what the liar said);
/// * [`ReplayStale`](ByzBehavior::ReplayStale) — capture own outgoing
///   messages and re-inject old ones later, i.e. replay pre-reset
///   (`epoch e`) traffic across an epoch boundary into epoch `e+1`;
/// * [`InflateIndex`](ByzBehavior::InflateIndex) — stamp outgoing indices
///   near MAXINT, forcing honest nodes over the overflow threshold and
///   triggering global resets on demand.
///
/// `Honest` restores normal behaviour (used by the chaos strategies'
/// quiesce suffix so stabilization stays judgeable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ByzBehavior {
    /// Send per-destination perturbed variants of each message.
    Equivocate,
    /// Capture outgoing messages and probabilistically substitute stale
    /// captures for fresh traffic.
    ReplayStale,
    /// Rewrite outgoing indices to values near MAXINT.
    InflateIndex,
    /// Behave correctly again (clears any Byzantine mode).
    Honest,
}

impl ByzBehavior {
    /// Stable lowercase name (used in fault-plan JSON and trace labels).
    pub fn name(self) -> &'static str {
        match self {
            ByzBehavior::Equivocate => "equivocate",
            ByzBehavior::ReplayStale => "replay-stale",
            ByzBehavior::InflateIndex => "inflate-index",
            ByzBehavior::Honest => "honest",
        }
    }

    /// Parses [`ByzBehavior::name`] output.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "equivocate" => ByzBehavior::Equivocate,
            "replay-stale" => ByzBehavior::ReplayStale,
            "inflate-index" => ByzBehavior::InflateIndex,
            "honest" => ByzBehavior::Honest,
            _ => return None,
        })
    }

    /// Every behaviour, in declaration order.
    pub const ALL: [ByzBehavior; 4] = [
        ByzBehavior::Equivocate,
        ByzBehavior::ReplayStale,
        ByzBehavior::InflateIndex,
        ByzBehavior::Honest,
    ];
}

/// The index value an [`InflateIndex`](ByzBehavior::InflateIndex) attacker
/// stamps into outgoing messages: the bounded-counter wrapper's default
/// `MAXINT` (`BoundedConfig::default().max_int`), so one inflated message
/// merged by an honest node immediately trips the overflow check and
/// forces a global reset.
pub const INFLATED_INDEX: u64 = 1 << 62;

/// The object size `ν`, in bits, that every backend passes to
/// [`ProtoMsg::size_bits`] for its message counters and `Send` trace
/// events, so the simulator and the live runtimes report identical bit
/// counts.
pub const NU_BITS: u32 = 64;

/// Behaviour every protocol message type must provide so the harness can
/// count and size traffic the way the paper does.
pub trait ProtoMsg: Clone + fmt::Debug + Send + 'static {
    /// The message's classification.
    fn kind(&self) -> MsgKind;

    /// The encoded size of this message in bits, for an object encoded in
    /// `nu` bits.
    ///
    /// Sizing follows the paper's accounting: a register cell is `ν + 64`
    /// bits (value + timestamp), a full `reg` array is `n` cells, indices
    /// are 64-bit, and every message carries a 64-bit header. This lets the
    /// harness verify, e.g., that gossip messages are `O(ν)` bits while
    /// `WRITE` messages are `O(ν·n)` bits.
    fn size_bits(&self, nu: u32) -> u64;

    /// Attempts to absorb `later` — a message queued to the **same
    /// destination** after `self` — into `self`, so only the merged
    /// message needs to travel. Returns `true` iff the merge happened, in
    /// which case delivering the updated `self` must leave the receiver in
    /// exactly the state that delivering `self` then `later` would have
    /// (the merged contents form the lattice join), with any suppressed
    /// reply being a duplicate the protocols already tolerate losing.
    ///
    /// The default never coalesces, which is always sound. Implementations
    /// must only merge payloads that are joins of each other (gossip
    /// cells, `⪯`-ordered register arrays, pointer-identical
    /// retransmissions) — batching is not a license to reorder or drop
    /// causally meaningful traffic.
    fn try_coalesce(&mut self, _later: &Self) -> bool {
        false
    }

    /// Produces a *perturbed* variant of this message for one destination,
    /// so a Byzantine sender can equivocate — tell different peers
    /// different things about the same logical update. Returning `None`
    /// (the default) means this message kind carries nothing worth lying
    /// about and is forwarded unchanged.
    ///
    /// Implementations must keep the message structurally valid (same
    /// kind, same shape) and only perturb the *content* — e.g. a gossip
    /// cell's value — so honest receivers process it through the normal
    /// handlers rather than discarding it as garbage.
    fn equivocate(&self, _rng: &mut dyn RngCore) -> Option<Self> {
        None
    }

    /// Produces a variant of this message with its indices inflated to at
    /// least `floor` (an [`InflateIndex`](ByzBehavior::InflateIndex)
    /// attacker uses [`INFLATED_INDEX`]). Returning `None` (the default)
    /// means this message kind carries no index to inflate.
    fn inflate_index(&self, _floor: u64) -> Option<Self> {
        None
    }
}

/// Encoded size of one register cell (`(v, ts)` pair) in bits.
pub fn cell_bits(nu: u32) -> u64 {
    nu as u64 + 64
}

/// Encoded size of a full `reg` array in bits.
pub fn reg_array_bits(n: usize, nu: u32) -> u64 {
    n as u64 * cell_bits(nu)
}

/// The buffered side effects of one protocol step: outgoing messages plus
/// operation completions/aborts. The driver (simulator or runtime) drains
/// the buffer after each step.
#[derive(Debug)]
pub struct Effects<M> {
    sends: Vec<(NodeId, M)>,
    completions: Vec<(OpId, OpResponse)>,
    aborts: Vec<OpId>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            completions: Vec::new(),
            aborts: Vec::new(),
        }
    }
}

impl<M: Clone> Effects<M> {
    /// An empty effect buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message to `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Queues `msg` to every process except `skip` (the paper's
    /// `for p_k ∈ P : k ≠ i do send …`).
    pub fn send_to_others(&mut self, n: usize, skip: NodeId, msg: &M) {
        for k in 0..n {
            if k != skip.index() {
                self.sends.push((NodeId(k), msg.clone()));
            }
        }
    }

    /// Queues `msg` to every process *including* the sender — the paper's
    /// `broadcast`, whose self-delivery runs the sender's own server side.
    pub fn broadcast(&mut self, n: usize, msg: &M) {
        for k in 0..n {
            self.sends.push((NodeId(k), msg.clone()));
        }
    }

    /// Reports that operation `id` completed with `resp`.
    pub fn complete(&mut self, id: OpId, resp: OpResponse) {
        self.completions.push((id, resp));
    }

    /// Reports that operation `id` was aborted (only the bounded-counter
    /// global reset does this, and only during the seldom reset periods the
    /// paper allows).
    pub fn abort(&mut self, id: OpId) {
        self.aborts.push(id);
    }

    /// Drains and returns all buffered sends.
    pub fn take_sends(&mut self) -> Vec<(NodeId, M)> {
        std::mem::take(&mut self.sends)
    }

    /// Drains and returns all buffered completions.
    pub fn take_completions(&mut self) -> Vec<(OpId, OpResponse)> {
        std::mem::take(&mut self.completions)
    }

    /// Drains and returns all buffered aborts.
    pub fn take_aborts(&mut self) -> Vec<OpId> {
        std::mem::take(&mut self.aborts)
    }

    /// Drains the buffered sends in order, keeping the buffer's allocation
    /// so the same `Effects` can be reused across protocol steps without
    /// re-allocating (the hot path of both drivers).
    pub fn drain_sends(&mut self) -> std::vec::Drain<'_, (NodeId, M)> {
        self.sends.drain(..)
    }

    /// Drains the buffered completions in order, keeping the allocation.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, (OpId, OpResponse)> {
        self.completions.drain(..)
    }

    /// Drains the buffered aborts in order, keeping the allocation.
    pub fn drain_aborts(&mut self) -> std::vec::Drain<'_, OpId> {
        self.aborts.drain(..)
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.completions.is_empty() && self.aborts.is_empty()
    }
}

/// Messages that can be synthesized with arbitrary content, so the fault
/// injector can model transient corruption of *communication channels*
/// (the paper's fault model corrupts the whole system state, which includes
/// the set of incoming channels).
pub trait ArbitraryMsg: ProtoMsg {
    /// Produces a structurally valid message with arbitrary field values
    /// for a system of `n` processes. Indices are drawn up to `max_index`
    /// so experiments can control how far ahead of legitimate counters the
    /// corruption jumps.
    fn arbitrary(rng: &mut dyn RngCore, n: usize, max_index: u64) -> Self;
}

/// Coarse per-node protocol counters exposed for experiments (counter-growth
/// and bounded-counter experiments read these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// `do forever` iterations executed.
    pub rounds: u64,
    /// Current write-operation index (`ts`).
    pub write_index: u64,
    /// Current snapshot-operation index (`ssn`, or `sns` for Algorithm 3).
    pub snapshot_index: u64,
    /// Messages discarded because they carried a stale (or foreign) epoch
    /// tag — the bounded-counter wrapper's envelope rejecting pre-reset
    /// replays. Zero for protocols without an epoch envelope.
    pub stale_epoch_dropped: u64,
}

/// A snapshot-object protocol instance running at one node.
///
/// Implementations in this workspace:
///
/// * `sss_core::Alg1` — the paper's self-stabilizing non-blocking algorithm;
/// * `sss_core::Alg3` — the paper's self-stabilizing always-terminating
///   algorithm with the `δ` latency/communication knob;
/// * `sss_core::Bounded<P>` — the Section 5 bounded-counter wrapper;
/// * `sss_baselines::Dgfr1` / `Dgfr2` — Delporte-Gallet et al.'s original
///   algorithms (no transient-fault recovery); `Dgfr1` is
///   `sss_core::Alg1<Original>`, Algorithm 1 without its boxed lines;
/// * `sss_baselines::Stacked` — ABD register emulation with a snapshot
///   layered on top (the "stacking" approach the related work costs at
///   8n messages / 4 round trips).
pub trait Protocol: Send {
    /// The protocol's wire message type.
    type Msg: ProtoMsg;

    /// This node's identifier.
    fn id(&self) -> NodeId;

    /// The number of processes in the system.
    fn n(&self) -> usize;

    /// Executes one iteration of the `do forever` loop: stale-state
    /// cleanup, gossip, and retransmission of any in-progress client-side
    /// broadcast.
    fn on_round(&mut self, fx: &mut Effects<Self::Msg>);

    /// Handles the arrival of `msg` from `from`.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, fx: &mut Effects<Self::Msg>);

    /// Starts operation `op` with driver-assigned identifier `id`.
    ///
    /// Nodes are sequential clients (as in the paper); if an operation is
    /// already outstanding the new one is queued and started when the
    /// current one completes.
    fn invoke(&mut self, id: OpId, op: SnapshotOp, fx: &mut Effects<Self::Msg>);

    /// Whether an operation is currently outstanding or queued at this node.
    fn is_busy(&self) -> bool;

    /// Injects a transient fault: overwrites all soft state with arbitrary
    /// values drawn from `rng` (the program code — and therefore the state
    /// machine structure — stays intact, exactly as in the fault model).
    fn corrupt(&mut self, rng: &mut dyn RngCore);

    /// A detectable restart: re-initializes every variable.
    fn restart(&mut self);

    /// Whether this node's *local* portion of the algorithm's consistency
    /// invariants currently holds (Definition 1 for Algorithm 3; Theorem 1's
    /// invariants for Algorithm 1). Drivers combine this with channel
    /// inspection to measure recovery time. Baselines report `true`.
    fn local_invariants_hold(&self) -> bool {
        true
    }

    /// Coarse counters for experiments.
    fn stats(&self) -> ProtocolStats {
        ProtocolStats::default()
    }

    /// The node's current global-reset epoch, if this protocol maintains
    /// one (only the Section 5 bounded-counter wrapper does). Drivers
    /// probe this after every step to emit `EpochChange` trace events,
    /// which the chaos oracle folds into its invariant-survival verdict.
    fn epoch_probe(&self) -> Option<u64> {
        None
    }

    /// Whether the node is currently inside a global-reset (wrapping)
    /// period. Always `false` for protocols without bounded counters.
    fn wrapping_probe(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Ping;
    impl ProtoMsg for Ping {
        fn kind(&self) -> MsgKind {
            MsgKind::Gossip
        }
        fn size_bits(&self, nu: u32) -> u64 {
            64 + cell_bits(nu)
        }
    }

    #[test]
    fn broadcast_includes_self_send_to_others_does_not() {
        let mut fx = Effects::new();
        fx.broadcast(3, &Ping);
        assert_eq!(fx.take_sends().len(), 3);
        fx.send_to_others(3, NodeId(1), &Ping);
        let sends = fx.take_sends();
        assert_eq!(sends.len(), 2);
        assert!(sends.iter().all(|(to, _)| *to != NodeId(1)));
    }

    #[test]
    fn effects_drain() {
        let mut fx: Effects<Ping> = Effects::new();
        assert!(fx.is_empty());
        fx.complete(OpId(7), OpResponse::WriteDone);
        fx.abort(OpId(8));
        assert!(!fx.is_empty());
        assert_eq!(fx.take_completions().len(), 1);
        assert_eq!(fx.take_aborts(), vec![OpId(8)]);
        assert!(fx.is_empty());
    }

    #[test]
    fn drains_keep_order_empty_the_buffer_and_reuse_it() {
        let mut fx: Effects<Ping> = Effects::new();
        fx.send(NodeId(2), Ping);
        fx.send(NodeId(0), Ping);
        fx.complete(OpId(1), OpResponse::WriteDone);
        fx.abort(OpId(9));
        let order: Vec<NodeId> = fx.drain_sends().map(|(to, _)| to).collect();
        assert_eq!(order, vec![NodeId(2), NodeId(0)], "send order preserved");
        assert_eq!(fx.drain_completions().count(), 1);
        assert_eq!(fx.drain_aborts().next(), Some(OpId(9)));
        assert!(fx.is_empty(), "drains must leave nothing behind");
        // The same buffer keeps working after a full drain cycle — the
        // runner reuses one Effects for every protocol step.
        fx.broadcast(3, &Ping);
        assert_eq!(fx.drain_sends().count(), 3);
        assert!(fx.is_empty());
    }

    #[test]
    fn partial_drain_drops_the_rest_on_drop() {
        let mut fx: Effects<Ping> = Effects::new();
        fx.broadcast(4, &Ping);
        // Consuming only part of the iterator still clears the buffer
        // (std::vec::Drain removes the full range when dropped).
        let first = fx.drain_sends().next().map(|(to, _)| to);
        assert_eq!(first, Some(NodeId(0)));
        assert!(fx.is_empty());
    }

    #[test]
    fn size_accounting_helpers() {
        assert_eq!(cell_bits(64), 128);
        assert_eq!(reg_array_bits(5, 64), 640);
        // Gossip carries O(ν) bits, independent of n.
        assert_eq!(Ping.size_bits(64), 192);
    }

    #[test]
    fn msg_kind_classification() {
        assert!(MsgKind::Gossip.is_gossip());
        assert!(!MsgKind::Write.is_gossip());
    }
}
