//! The process the fault model acts on, shared by every backend.
//!
//! A [`Process`] is one protocol instance plus the state the fault model
//! keeps beside it: whether it is crashed, whether a corruption has yet
//! to heal (the stabilization probe's taint), the last epoch the probe
//! saw, and its Byzantine mode. [`Process::apply`] is the one place a
//! node-scoped [`FaultEvent`] takes effect, is traced (through
//! [`FaultPlan::trace_event`]) and is probed; [`LinkModel::apply_fault`]
//! is its link-scoped twin. The simulator and the node engine differ only
//! in *when* they step a process — the calendar with link delays there,
//! the batched inbox drain here — not in what a fault does to it.

use crate::{ByzState, FaultEvent, FaultPlan, LinkModel, ModelTime};
use rand::RngCore;
use sss_obs::{TraceEvent, Tracer};
use sss_types::{ByzBehavior, NodeId, Protocol};

/// One protocol instance under the fault model (see the module docs).
pub struct Process<P: Protocol> {
    proto: P,
    crashed: bool,
    /// Set when a corruption lands with the tracer on, cleared (with a
    /// [`TraceEvent::Stabilized`]) once the local invariants hold again.
    tainted: bool,
    /// The epoch the last [`TraceEvent::EpochChange`] probe saw.
    epoch_seen: u64,
    /// The active lie, if any.
    byz: Option<ByzState<P::Msg>>,
    /// Seeds each Byzantine activation (the cluster seed, so a plan tells
    /// the same lies on every backend).
    seed: u64,
}

impl<P: Protocol> Process<P> {
    /// An honest, running process around `proto`; `seed` seeds the
    /// randomness of any Byzantine mode it is later put into.
    pub fn new(proto: P, seed: u64) -> Self {
        Process {
            proto,
            crashed: false,
            tainted: false,
            epoch_seen: 0,
            byz: None,
            seed,
        }
    }

    /// The protocol state.
    pub fn proto(&self) -> &P {
        &self.proto
    }

    /// The protocol state, for taking steps (faults go through
    /// [`Process::apply`]).
    pub fn proto_mut(&mut self) -> &mut P {
        &mut self.proto
    }

    /// The protocol state, consuming the process.
    pub fn into_proto(self) -> P {
        self.proto
    }

    /// Whether the process is crashed (takes no steps).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Whether the process is lying. Backends ask once per step, before
    /// running its sends through [`Process::rewrite`].
    pub fn is_byzantine(&self) -> bool {
        self.byz.is_some()
    }

    /// Applies the node-scoped fault `ev` to this process, emits its
    /// [`FaultPlan::trace_event`] record at `now`, and — after a restart
    /// or a corruption, the faults that change protocol state — runs the
    /// [probe](Process::probe). A corruption draws its "arbitrary" state
    /// from `rng` (seeded from the plan for cross-backend replays).
    ///
    /// # Panics
    ///
    /// If `ev` is link-scoped (see [`FaultEvent::process`]).
    pub fn apply(
        &mut self,
        ev: &FaultEvent,
        rng: &mut dyn RngCore,
        tracer: &Tracer,
        now: ModelTime,
    ) {
        debug_assert_eq!(ev.process(), Some(self.proto.id()));
        match *ev {
            FaultEvent::Crash(_) => self.crashed = true,
            FaultEvent::Resume(_) => self.crashed = false,
            FaultEvent::Restart(_) => {
                self.proto.restart();
                self.crashed = false;
            }
            FaultEvent::Corrupt(_) => {
                self.proto.corrupt(rng);
                // Probed at once below: a corruption that happens to land
                // in a legal state stabilizes in zero steps.
                self.tainted |= tracer.is_on();
            }
            FaultEvent::Byzantine { node, behavior } => {
                self.byz = (behavior != ByzBehavior::Honest)
                    .then(|| ByzState::new(node, behavior, self.seed));
            }
            FaultEvent::Partition(_) | FaultEvent::Heal | FaultEvent::SetLink { .. } => {
                panic!("link-scoped fault applied to a process: {ev:?}")
            }
        }
        if tracer.is_on() {
            tracer.emit(now, FaultPlan::trace_event(ev));
            if matches!(ev, FaultEvent::Restart(_) | FaultEvent::Corrupt(_)) {
                self.probe(tracer, now);
            }
        }
    }

    /// The trace probes a backend runs after every step (with the tracer
    /// on): once a corrupted process's local invariants hold again, emit
    /// [`TraceEvent::Stabilized`]; when its bounded-counter epoch moved,
    /// emit [`TraceEvent::EpochChange`] (protocols without an epoch
    /// envelope never do).
    pub fn probe(&mut self, tracer: &Tracer, now: ModelTime) {
        let p = &self.proto;
        if self.tainted && p.local_invariants_hold() {
            self.tainted = false;
            tracer.emit(now, TraceEvent::Stabilized { node: p.id() });
        }
        if let Some(epoch) = p.epoch_probe().filter(|&e| e != self.epoch_seen) {
            self.epoch_seen = epoch;
            let event = TraceEvent::EpochChange {
                node: p.id(),
                epoch,
                stale_dropped: p.stats().stale_epoch_dropped,
            };
            tracer.emit(now, event);
        }
    }

    /// The sender-side Byzantine hook: what actually goes on the wire
    /// when this process sends `msg` to `to` — after the protocol produced
    /// the send, before the link model rules on it. An honest process's
    /// message, and any self-delivery (a process cannot lie to itself),
    /// pass through untouched.
    pub fn rewrite(&mut self, to: NodeId, msg: P::Msg) -> P::Msg {
        match &mut self.byz {
            Some(state) if to != self.proto.id() => state.rewrite(to, msg),
            _ => msg,
        }
    }
}

impl LinkModel {
    /// Applies the link-scoped fault `ev` — a partition, a heal or one
    /// link's cut or restore — and emits its [`FaultPlan::trace_event`]
    /// record at `now`: [`Process::apply`]'s twin for the links.
    ///
    /// # Panics
    ///
    /// If `ev` is node-scoped (see [`FaultEvent::process`]).
    pub fn apply_fault(&mut self, ev: &FaultEvent, tracer: &Tracer, now: ModelTime) {
        match ev {
            FaultEvent::Partition(groups) => self.partition(groups),
            FaultEvent::Heal => self.heal(),
            FaultEvent::SetLink { from, to, up } => self.set_link(*from, *to, *up),
            _ => panic!("node-scoped fault applied to the links: {ev:?}"),
        }
        if tracer.is_on() {
            tracer.emit(now, FaultPlan::trace_event(ev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byz::tests::process;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sss_obs::{FaultKind, MemorySink};

    #[test]
    fn faults_are_traced_then_probed_at_their_own_time() {
        let (sink, buf) = MemorySink::new();
        let tracer = Tracer::new(3).with_sink(sink);
        let mut p = process(0, 7, ByzBehavior::Honest);
        let mut rng = StdRng::seed_from_u64(3);
        p.apply(&FaultEvent::Corrupt(NodeId(0)), &mut rng, &tracer, 5);
        let epoch = p.proto().epoch;
        p.apply(&FaultEvent::Crash(NodeId(0)), &mut rng, &tracer, 6);
        assert!(p.is_crashed());
        p.apply(&FaultEvent::Restart(NodeId(0)), &mut rng, &tracer, 9);
        assert!(!p.is_crashed());
        let fault = |kind| TraceEvent::Fault {
            kind,
            node: Some(NodeId(0)),
            peer: None,
        };
        let epoch_change = TraceEvent::EpochChange {
            node: NodeId(0),
            epoch,
            stale_dropped: 0,
        };
        let events: Vec<_> = buf.records().into_iter().map(|r| (r.at, r.event)).collect();
        assert_eq!(
            events,
            [
                (5, fault(FaultKind::Corrupt)),
                (5, epoch_change),
                (6, fault(FaultKind::Crash)),
                (9, fault(FaultKind::Restart)),
                (9, TraceEvent::Stabilized { node: NodeId(0) }),
            ]
        );
    }

    #[test]
    fn an_untraced_corruption_leaves_no_taint() {
        let mut p = process(0, 7, ByzBehavior::Honest);
        let mut rng = StdRng::seed_from_u64(3);
        p.apply(&FaultEvent::Corrupt(NodeId(0)), &mut rng, &Tracer::off(), 0);
        assert!(!p.tainted, "the probe only runs with the tracer on");
    }

    #[test]
    fn link_faults_cut_and_heal_the_model() {
        let (sink, buf) = MemorySink::new();
        let tracer = Tracer::new(3).with_sink(sink);
        let mut links = LinkModel::new(3, crate::LinkConfig::reliable(), 1);
        let (a, b) = (NodeId(0), NodeId(1));
        let cut = FaultEvent::SetLink {
            from: a,
            to: b,
            up: false,
        };
        let events = [
            cut,
            FaultEvent::Partition(vec![vec![a], vec![b]]),
            FaultEvent::Heal,
        ];
        links.apply_fault(&events[0], &tracer, 1);
        assert!(links.is_down(a, b) && !links.is_down(b, a));
        links.apply_fault(&events[1], &tracer, 2);
        assert!(links.is_down(b, a));
        links.apply_fault(&events[2], &tracer, 3);
        assert!(!links.any_down());
        let records: Vec<_> = buf.records().into_iter().map(|r| r.event).collect();
        assert_eq!(records, events.each_ref().map(FaultPlan::trace_event));
    }
}
