//! The [`Tracer`] handle both backends emit through.

use crate::event::{TraceEvent, TraceRecord, TraceTime};
use crate::sink::TraceSink;
use parking_lot::Mutex;
use std::sync::Arc;

struct State {
    /// Next global sequence number.
    seq: u64,
    /// Attached sinks; every record goes to every sink.
    sinks: Vec<Box<dyn TraceSink>>,
}

struct Inner {
    state: Mutex<State>,
    /// Whether per-message `Send`/`Deliver` events are recorded. Read
    /// before the emission lock, so a dropped message event costs one
    /// branch, no lock and no sequence number.
    messages: bool,
}

/// The cloneable emission handle of the trace plane.
///
/// A tracer is either **off** — a null pointer, so [`Tracer::is_on`] is
/// one branch, [`Tracer::emit`] returns immediately, and callers that
/// gate event *construction* behind `is_on()` pay nothing at all — or
/// **on**, in which case every emitted event is stamped with a global
/// sequence number and forwarded to every attached sink.
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
/// assert_eq!(tracer.emitted(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    /// The disabled tracer: every operation is a no-op.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// An enabled tracer with no sinks that records every event. The
    /// cluster size `_n` is not used; the parameter stays so existing
    /// callers compile.
    pub fn new(_n: usize) -> Tracer {
        Tracer::enabled(true)
    }

    /// An enabled tracer with no sinks; `messages = false` drops the
    /// per-message `Send`/`Deliver` flood before the emission lock, so
    /// sinks see a dense stream of everything else.
    pub(crate) fn enabled(messages: bool) -> Tracer {
        Tracer(Some(Arc::new(Inner {
            state: Mutex::new(State {
                seq: 0,
                sinks: Vec::new(),
            }),
            messages,
        })))
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
    /// with the next global sequence number and forwards it to every
    /// sink. No-op when off.
    pub fn emit(&self, at: TraceTime, event: TraceEvent) {
        let Some(inner) = &self.0 else { return };
        let message = matches!(event, TraceEvent::Send { .. } | TraceEvent::Deliver { .. });
        if message && !inner.messages {
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
    }

    /// Total events recorded so far (0 when off).
    pub fn emitted(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.state.lock().seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultKind;
    use crate::sink::MemorySink;
    use sss_types::{MsgKind, NodeId, OpClass, OpId};

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
    fn mask_filters_before_sequencing() {
        let (sink, buf) = MemorySink::new();
        let t = Tracer::enabled(false).with_sink(sink);
        t.emit(0, send(0, 1)); // dropped
        t.emit(
            1,
            TraceEvent::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                kind: MsgKind::Gossip,
            },
        ); // dropped
        t.emit(2, TraceEvent::Stabilized { node: NodeId(1) });
        t.emit(3, TraceEvent::CycleEnd { index: 0 });
        let recs = buf.records();
        assert_eq!(recs.len(), 2, "send/deliver dropped before the lock");
        // The surviving stream is densely numbered.
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(t.emitted(), 2);
    }

    #[test]
    fn mask_accepts_matches_schema() {
        let kept = [
            TraceEvent::OpInvoke {
                node: NodeId(0),
                id: OpId(1),
                class: OpClass::Write,
            },
            TraceEvent::Fault {
                kind: FaultKind::Crash,
                node: Some(NodeId(0)),
                peer: None,
            },
            TraceEvent::Stabilized { node: NodeId(1) },
            TraceEvent::CycleEnd { index: 0 },
        ];
        // Without messages, exactly Send and Deliver are dropped.
        let (sink, buf) = MemorySink::new();
        let t = Tracer::enabled(false).with_sink(sink);
        for (at, event) in kept.iter().enumerate() {
            t.emit(2 * at as u64, send(0, 1));
            t.emit(2 * at as u64 + 1, event.clone());
        }
        let recs = buf.records();
        assert_eq!(
            recs.iter().map(|r| r.event.clone()).collect::<Vec<_>>(),
            kept
        );
        // With messages, every event is kept.
        let (sink, buf) = MemorySink::new();
        let t = Tracer::enabled(true).with_sink(sink);
        t.emit(0, send(0, 1));
        t.emit(1, kept[2].clone());
        assert_eq!(buf.len(), 2);
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
