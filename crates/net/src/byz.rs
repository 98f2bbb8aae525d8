//! The Byzantine message-rewrite hook shared by every backend.
//!
//! A Byzantine node in this fault model is *compromised but scripted*: it
//! still runs the protocol state machine, but everything it sends passes
//! through a seeded per-destination rewrite driven by
//! [`ByzBehavior`] — equivocation, stale replay, or index inflation. The
//! hook sits on the **sender side**, after the protocol produced its
//! effects and before the link model rules on delivery, which is the one
//! place all three backends (simulator, threads, sockets) share: each
//! drains `Effects::drain_sends` through [`crate::Process::rewrite`] and
//! forwards whatever comes back.
//!
//! Determinism: each `(node, behavior)` activation gets its own `StdRng`
//! seeded from the plan seed via [`crate::mix64`], so the same plan
//! replayed on any backend produces the same lies in the same order.

use crate::mix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_types::{ByzBehavior, NodeId, ProtoMsg, INFLATED_INDEX};
use std::collections::VecDeque;

/// How many of its own outgoing messages a replaying node remembers.
/// Old enough captures cross reset (epoch) boundaries in practice while
/// keeping the ring bounded.
const CAPTURE_RING: usize = 64;

/// One node's active Byzantine mode: the scripted behaviour plus the
/// seeded randomness and capture ring that drive it.
#[derive(Debug)]
pub struct ByzState<M> {
    behavior: ByzBehavior,
    rng: StdRng,
    /// Ring of this node's own past outgoing messages (destination kept
    /// so replays go where the original went — a lie that still parses).
    captured: VecDeque<(NodeId, M)>,
}

impl<M: ProtoMsg> ByzState<M> {
    /// A fresh state for `node` adopting `behavior`, seeded from the
    /// plan seed (deterministic across backends).
    pub fn new(node: NodeId, behavior: ByzBehavior, plan_seed: u64) -> Self {
        ByzState {
            behavior,
            rng: StdRng::seed_from_u64(mix64(
                plan_seed,
                0xB12A_17E5_0000_0000u64.wrapping_add(node.index() as u64),
            )),
            captured: VecDeque::with_capacity(CAPTURE_RING),
        }
    }

    /// Rewrites one outgoing message according to the scripted
    /// behaviour. Returns the message to actually put on the wire (the
    /// original if the behaviour has nothing to say about this kind).
    pub fn rewrite(&mut self, to: NodeId, msg: M) -> M {
        match self.behavior {
            ByzBehavior::Honest => msg,
            ByzBehavior::Equivocate => {
                // Fresh perturbation per destination: receivers p_j and
                // p_k get *different* values for the same logical update.
                let _ = to;
                msg.equivocate(&mut self.rng).unwrap_or(msg)
            }
            ByzBehavior::InflateIndex => msg.inflate_index(INFLATED_INDEX).unwrap_or(msg),
            ByzBehavior::ReplayStale => {
                // Capture everything; half the time, substitute the
                // oldest capture for the fresh message — re-injecting
                // pre-reset traffic across whatever epoch boundary has
                // passed since.
                if self.captured.len() == CAPTURE_RING {
                    self.captured.pop_front();
                }
                self.captured.push_back((to, msg.clone()));
                if self.rng.gen_bool(0.5) {
                    if let Some((_, old)) = self.captured.front() {
                        return old.clone();
                    }
                }
                msg
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Process;
    use sss_types::{cell_bits, Effects, MsgKind, OpId, Protocol, SnapshotOp};

    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct Cell {
        pub(crate) ts: u64,
        pub(crate) val: u64,
    }
    impl ProtoMsg for Cell {
        fn kind(&self) -> MsgKind {
            MsgKind::Gossip
        }
        fn size_bits(&self, nu: u32) -> u64 {
            64 + cell_bits(nu)
        }
        fn equivocate(&self, rng: &mut dyn rand::RngCore) -> Option<Self> {
            Some(Cell {
                ts: self.ts,
                val: rng.next_u64(),
            })
        }
        fn inflate_index(&self, floor: u64) -> Option<Self> {
            Some(Cell {
                ts: self.ts.max(floor),
                val: self.val,
            })
        }
    }

    /// A protocol that sends [`Cell`]s: its invariants fail exactly while
    /// it is corrupted, and a corruption redraws its epoch.
    pub(crate) struct Node {
        pub(crate) id: NodeId,
        pub(crate) epoch: u64,
        pub(crate) broken: bool,
    }
    impl Protocol for Node {
        type Msg = Cell;
        fn id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            3
        }
        fn on_round(&mut self, _: &mut Effects<Cell>) {
            self.broken = false;
        }
        fn on_message(&mut self, _: NodeId, _: Cell, _: &mut Effects<Cell>) {}
        fn invoke(&mut self, _: OpId, _: SnapshotOp, _: &mut Effects<Cell>) {}
        fn is_busy(&self) -> bool {
            false
        }
        fn corrupt(&mut self, rng: &mut dyn rand::RngCore) {
            self.epoch = 1 + rng.next_u64() % 15;
            self.broken = true;
        }
        fn restart(&mut self) {
            self.broken = false;
        }
        fn local_invariants_hold(&self) -> bool {
            !self.broken
        }
        fn epoch_probe(&self) -> Option<u64> {
            Some(self.epoch)
        }
    }

    /// Process `id` of a 3-node cluster seeded with `seed`, put into
    /// `behavior`.
    pub(crate) fn process(id: usize, seed: u64, behavior: ByzBehavior) -> Process<Node> {
        let node = Node {
            id: NodeId(id),
            epoch: 0,
            broken: false,
        };
        let mut p = Process::new(node, seed);
        let ev = crate::FaultEvent::Byzantine {
            node: NodeId(id),
            behavior,
        };
        p.apply(
            &ev,
            &mut StdRng::seed_from_u64(0),
            &sss_obs::Tracer::off(),
            0,
        );
        p
    }

    #[test]
    fn honest_nodes_pass_through_untouched() {
        let mut p = process(0, 7, ByzBehavior::Honest);
        assert!(!p.is_byzantine());
        let m = Cell { ts: 5, val: 10 };
        assert_eq!(p.rewrite(NodeId(1), m.clone()), m);
    }

    #[test]
    fn equivocation_gives_different_peers_different_values() {
        let mut p = process(0, 7, ByzBehavior::Equivocate);
        assert!(p.is_byzantine());
        let m = Cell { ts: 5, val: 10 };
        let to1 = p.rewrite(NodeId(1), m.clone());
        let to2 = p.rewrite(NodeId(2), m.clone());
        assert_eq!(to1.ts, m.ts, "equivocation perturbs values, not shape");
        assert_ne!(to1.val, to2.val, "different peers hear different lies");
        // Non-byzantine senders are unaffected.
        let mut honest = process(1, 7, ByzBehavior::Honest);
        assert_eq!(honest.rewrite(NodeId(0), m.clone()), m);
        // Self-delivery is never rewritten.
        assert_eq!(p.rewrite(NodeId(0), m.clone()), m);
    }

    #[test]
    fn inflation_jumps_indices_to_the_floor() {
        let mut state = ByzState::new(NodeId(0), ByzBehavior::InflateIndex, 7);
        let out = state.rewrite(NodeId(1), Cell { ts: 5, val: 10 });
        assert_eq!(out.ts, INFLATED_INDEX);
        assert_eq!(out.val, 10);
        // A lying process still tells itself the truth.
        let mut p = process(0, 7, ByzBehavior::InflateIndex);
        assert_eq!(p.rewrite(NodeId(0), Cell { ts: 5, val: 10 }).ts, 5);
    }

    #[test]
    fn replay_substitutes_stale_captures_deterministically() {
        let run = |seed: u64| {
            let mut p = process(0, seed, ByzBehavior::ReplayStale);
            (0..200)
                .map(|i| p.rewrite(NodeId(1), Cell { ts: i, val: i }).ts)
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same plan seed, same lies");
        assert!(
            a.iter().enumerate().any(|(i, ts)| *ts != i as u64),
            "some messages must be stale replays"
        );
        assert!(
            a.iter().enumerate().any(|(i, ts)| *ts == i as u64),
            "some messages still go out fresh"
        );
    }

    #[test]
    fn honest_event_clears_the_mode() {
        let mut p = process(1, 7, ByzBehavior::InflateIndex);
        let honest = crate::FaultEvent::Byzantine {
            node: NodeId(1),
            behavior: ByzBehavior::Honest,
        };
        p.apply(
            &honest,
            &mut StdRng::seed_from_u64(0),
            &sss_obs::Tracer::off(),
            0,
        );
        assert!(!p.is_byzantine());
        let m = Cell { ts: 5, val: 10 };
        assert_eq!(p.rewrite(NodeId(0), m.clone()), m);
    }
}
