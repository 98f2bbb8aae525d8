//! The [`Tracer`] handle both backends emit through.

use crate::event::{TraceEvent, TraceRecord, TraceTime};
use crate::sink::TraceSink;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Default flight-recorder depth per node (and for the global ring).
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// A bit-set of [`TraceEvent`] categories a tracer records.
///
/// The mask is checked **before** the emission lock: a masked-out event
/// costs one atomic load and a branch, no lock and no sequence number.
/// That is what lets a live monitoring consumer ride a hot run — the
/// ops-plane preset ([`EventMask::OPS_PLANE`]) excludes the per-message
/// `Send`/`Deliver` flood (the overwhelming majority of a run's events)
/// while keeping everything a dashboard needs: operations, drops,
/// faults, cycle boundaries, and stabilization probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventMask(u32);

impl EventMask {
    /// `OpInvoke` events.
    pub const OP_INVOKE: EventMask = EventMask(1 << 0);
    /// `OpComplete` events.
    pub const OP_COMPLETE: EventMask = EventMask(1 << 1);
    /// `OpAbort` events.
    pub const OP_ABORT: EventMask = EventMask(1 << 2);
    /// `Send` events (per-message; the bulk of a trace).
    pub const SEND: EventMask = EventMask(1 << 3);
    /// `Deliver` events (per-message; the bulk of a trace).
    pub const DELIVER: EventMask = EventMask(1 << 4);
    /// `Drop` events.
    pub const DROP: EventMask = EventMask(1 << 5);
    /// `Fault` events.
    pub const FAULT: EventMask = EventMask(1 << 6);
    /// `CycleEnd` events.
    pub const CYCLE_END: EventMask = EventMask(1 << 7);
    /// `Stabilized` probes.
    pub const STABILIZED: EventMask = EventMask(1 << 8);
    /// `BatchDrain` events.
    pub const BATCH_DRAIN: EventMask = EventMask(1 << 9);
    /// `EpochChange` probes (bounded-counter epoch/stale-drop changes).
    pub const EPOCH_CHANGE: EventMask = EventMask(1 << 10);

    /// Every event category (the default).
    pub const ALL: EventMask = EventMask((1 << 11) - 1);

    /// The live ops-plane preset: everything **except** the per-message
    /// `Send`/`Deliver` flood. Operations, drops, faults, cycles,
    /// stabilization probes, and batch drains are retained — the full
    /// signal a dashboard folds, at a per-event rate orders of magnitude
    /// below the message plane's.
    pub const OPS_PLANE: EventMask = EventMask(Self::ALL.0 & !Self::SEND.0 & !Self::DELIVER.0);

    /// The union of two masks.
    pub const fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// Whether this mask records `event`'s category.
    #[inline]
    pub fn accepts(self, event: &TraceEvent) -> bool {
        let bit = match event {
            TraceEvent::OpInvoke { .. } => Self::OP_INVOKE,
            TraceEvent::OpComplete { .. } => Self::OP_COMPLETE,
            TraceEvent::OpAbort { .. } => Self::OP_ABORT,
            TraceEvent::Send { .. } => Self::SEND,
            TraceEvent::Deliver { .. } => Self::DELIVER,
            TraceEvent::Drop { .. } => Self::DROP,
            TraceEvent::Fault { .. } => Self::FAULT,
            TraceEvent::CycleEnd { .. } => Self::CYCLE_END,
            TraceEvent::Stabilized { .. } => Self::STABILIZED,
            TraceEvent::BatchDrain { .. } => Self::BATCH_DRAIN,
            TraceEvent::EpochChange { .. } => Self::EPOCH_CHANGE,
        };
        self.0 & bit.0 != 0
    }

    /// The raw bit representation (for the atomic slot in the tracer).
    const fn bits(self) -> u32 {
        self.0
    }
}

impl Default for EventMask {
    fn default() -> Self {
        EventMask::ALL
    }
}

struct State {
    /// Next global sequence number.
    seq: u64,
    /// Per-node flight-recorder rings.
    rings: Vec<VecDeque<TraceRecord>>,
    /// Ring for global events (partitions, heals, cycle boundaries).
    global: VecDeque<TraceRecord>,
    /// Ring capacity.
    cap: usize,
    /// Attached sinks; every record goes to every sink.
    sinks: Vec<Box<dyn TraceSink>>,
}

struct Inner {
    state: Mutex<State>,
    /// The event-category filter, readable without the emission lock.
    mask: AtomicU32,
}

/// The cloneable emission handle of the trace plane.
///
/// A tracer is either **off** — a null pointer, so [`Tracer::is_on`] is
/// one branch, [`Tracer::emit`] returns immediately, and callers that
/// gate event *construction* behind `is_on()` pay nothing at all — or
/// **on**, in which case every emitted event is stamped with a global
/// sequence number, appended to the scoped node's bounded flight-recorder
/// ring, and forwarded to every attached sink.
///
/// Clones share the same state: both backends hand clones to their
/// node/client threads and all emissions interleave into one totally
/// ordered record stream.
///
/// ```
/// use sss_obs::{MemorySink, TraceEvent, Tracer};
/// use sss_types::NodeId;
///
/// let off = Tracer::off();
/// assert!(!off.is_on()); // emit() on this handle is a no-op
///
/// let (sink, buf) = MemorySink::new();
/// let tracer = Tracer::new(3).with_sink(sink);
/// tracer.emit(42, TraceEvent::Stabilized { node: NodeId(1) });
/// assert_eq!(buf.len(), 1);
/// assert_eq!(tracer.flight(NodeId(1)).len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    /// The disabled tracer: every operation is a no-op.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// An enabled tracer for `n` nodes with the default ring capacity
    /// and no sinks (the flight recorder alone).
    pub fn new(n: usize) -> Tracer {
        Tracer(Some(Arc::new(Inner {
            state: Mutex::new(State {
                seq: 0,
                rings: (0..n).map(|_| VecDeque::new()).collect(),
                global: VecDeque::new(),
                cap: DEFAULT_RING_CAPACITY,
                sinks: Vec::new(),
            }),
            mask: AtomicU32::new(EventMask::ALL.bits()),
        })))
    }

    /// Restricts which event categories this tracer records (builder
    /// style). Masked-out events are rejected *before* the emission
    /// lock — one atomic load and a branch — and receive no sequence
    /// number, so attached sinks see a dense filtered stream. No-op when
    /// off.
    pub fn with_mask(self, mask: EventMask) -> Tracer {
        if let Some(inner) = &self.0 {
            inner.mask.store(mask.bits(), Ordering::Relaxed);
        }
        self
    }

    /// Sets the per-ring capacity (builder style). No-op when off.
    pub fn with_ring_capacity(self, cap: usize) -> Tracer {
        if let Some(inner) = &self.0 {
            let mut st = inner.state.lock();
            st.cap = cap.max(1);
            let cap = st.cap;
            let State { rings, global, .. } = &mut *st;
            for ring in rings.iter_mut().chain(std::iter::once(global)) {
                while ring.len() > cap {
                    ring.pop_front();
                }
            }
        }
        self
    }

    /// Attaches a sink (builder style). No-op when off.
    pub fn with_sink(self, sink: impl TraceSink + 'static) -> Tracer {
        if let Some(inner) = &self.0 {
            inner.state.lock().sinks.push(Box::new(sink));
        }
        self
    }

    /// Whether this tracer records anything. Hot paths gate event
    /// construction behind this so a disabled tracer costs one branch.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event at model time `at` (microseconds): stamps it
    /// with the next global sequence number, appends it to the scoped
    /// flight-recorder ring, and forwards it to every sink. No-op when
    /// off.
    pub fn emit(&self, at: TraceTime, event: TraceEvent) {
        let Some(inner) = &self.0 else { return };
        if !EventMask(inner.mask.load(Ordering::Relaxed)).accepts(&event) {
            return;
        }
        let mut st = inner.state.lock();
        let rec = TraceRecord {
            seq: st.seq,
            at,
            event,
        };
        st.seq += 1;
        for sink in &mut st.sinks {
            sink.record(&rec);
        }
        let cap = st.cap;
        let ring = match rec.event.scope() {
            Some(node) => match st.rings.get_mut(node.index()) {
                Some(r) => r,
                None => &mut st.global,
            },
            None => &mut st.global,
        };
        if ring.len() == cap {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Total events emitted so far (0 when off).
    pub fn emitted(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.state.lock().seq)
    }

    /// The flight recorder of `node`: its most recent scoped records in
    /// sequence order. Empty when off or for an unknown node.
    pub fn flight(&self, node: sss_types::NodeId) -> Vec<TraceRecord> {
        self.0.as_ref().map_or_else(Vec::new, |i| {
            i.state
                .lock()
                .rings
                .get(node.index())
                .map_or_else(Vec::new, |r| r.iter().cloned().collect())
        })
    }

    /// The global flight recorder: recent unscoped records (partitions,
    /// heals, cycle boundaries). Empty when off.
    pub fn flight_global(&self) -> Vec<TraceRecord> {
        self.0.as_ref().map_or_else(Vec::new, |i| {
            i.state.lock().global.iter().cloned().collect()
        })
    }

    /// Flushes every attached sink. No-op when off.
    pub fn flush(&self) {
        if let Some(inner) = &self.0 {
            for sink in &mut inner.state.lock().sinks {
                sink.flush();
            }
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        // Flush through the last handle so buffered sinks are complete
        // even if the caller forgot an explicit flush().
        if let Some(inner) = self.0.take() {
            if Arc::strong_count(&inner) == 1 {
                for sink in &mut inner.state.lock().sinks {
                    sink.flush();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use sss_types::{MsgKind, NodeId};

    fn send(from: usize, to: usize) -> TraceEvent {
        TraceEvent::Send {
            from: NodeId(from),
            to: NodeId(to),
            kind: MsgKind::Gossip,
            bits: 64,
        }
    }

    #[test]
    fn off_tracer_is_inert() {
        let t = Tracer::off();
        assert!(!t.is_on());
        t.emit(0, send(0, 1));
        assert_eq!(t.emitted(), 0);
        assert!(t.flight(NodeId(0)).is_empty());
        assert!(t.flight_global().is_empty());
        t.flush();
    }

    #[test]
    fn sequence_numbers_are_dense_and_ordered() {
        let (sink, buf) = MemorySink::new();
        let t = Tracer::new(2).with_sink(sink);
        for i in 0..5 {
            t.emit(i, send(0, 1));
        }
        let recs = buf.records();
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        assert_eq!(t.emitted(), 5);
    }

    #[test]
    fn flight_recorder_is_bounded_and_scoped() {
        let t = Tracer::new(2).with_ring_capacity(3);
        for i in 0..10 {
            t.emit(i, send(0, 1));
        }
        t.emit(10, TraceEvent::CycleEnd { index: 0 });
        let ring = t.flight(NodeId(0));
        assert_eq!(ring.len(), 3, "ring bounded at capacity");
        assert_eq!(ring.last().unwrap().seq, 9, "keeps the newest");
        assert!(t.flight(NodeId(1)).is_empty(), "sends scope to sender");
        assert_eq!(t.flight_global().len(), 1, "cycle ends are global");
    }

    #[test]
    fn mask_filters_before_sequencing() {
        let (sink, buf) = MemorySink::new();
        let t = Tracer::new(2)
            .with_mask(EventMask::OPS_PLANE)
            .with_sink(sink);
        t.emit(0, send(0, 1)); // masked out
        t.emit(
            1,
            TraceEvent::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                kind: MsgKind::Gossip,
            },
        ); // masked out
        t.emit(2, TraceEvent::Stabilized { node: NodeId(1) });
        t.emit(3, TraceEvent::CycleEnd { index: 0 });
        let recs = buf.records();
        assert_eq!(recs.len(), 2, "send/deliver rejected by the mask");
        // The surviving stream is densely renumbered.
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
        assert_eq!(t.emitted(), 2);
    }

    #[test]
    fn mask_accepts_matches_schema() {
        assert!(EventMask::ALL.accepts(&send(0, 1)));
        assert!(!EventMask::OPS_PLANE.accepts(&send(0, 1)));
        assert!(EventMask::OPS_PLANE.accepts(&TraceEvent::Stabilized { node: NodeId(0) }));
        assert!(EventMask::FAULT
            .union(EventMask::DROP)
            .accepts(&TraceEvent::Fault {
                kind: crate::event::FaultKind::Crash,
                node: Some(NodeId(0)),
                peer: None,
            }));
        assert!(!EventMask::FAULT.accepts(&TraceEvent::CycleEnd { index: 0 }));
    }

    #[test]
    fn clones_share_one_stream() {
        let (sink, buf) = MemorySink::new();
        let t = Tracer::new(2).with_sink(sink);
        let t2 = t.clone();
        t.emit(0, send(0, 1));
        t2.emit(1, send(1, 0));
        assert_eq!(
            buf.records().iter().map(|r| r.seq).collect::<Vec<_>>(),
            [0, 1]
        );
    }
}
