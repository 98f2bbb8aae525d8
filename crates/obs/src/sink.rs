//! Trace sinks: the [`TraceSink`] trait and the in-memory sink.

use crate::event::TraceRecord;
use parking_lot::Mutex;
use std::sync::Arc;

/// A destination for trace records.
///
/// Sinks receive every record in global sequence order, under the
/// tracer's emission lock, so implementations need no synchronization of
/// their own but must stay cheap — an expensive sink stalls emitters.
/// A sink that takes a lock of its own (as [`crate::OpsPlane`]'s does)
/// orders it after the emission lock, so no holder of that lock may
/// emit.
pub trait TraceSink: Send {
    /// Consumes one record.
    fn record(&mut self, rec: &TraceRecord);
}

/// An unbounded in-memory sink for tests and experiments.
///
/// [`MemorySink::new`] returns the sink (to hand to the tracer) and a
/// [`TraceBuffer`] handle that reads the accumulated records back out.
pub struct MemorySink {
    buf: Arc<Mutex<Vec<TraceRecord>>>,
}

/// The read side of a [`MemorySink`].
#[derive(Clone)]
pub struct TraceBuffer {
    buf: Arc<Mutex<Vec<TraceRecord>>>,
}

impl MemorySink {
    /// Creates an empty sink plus the handle that reads it back.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (MemorySink, TraceBuffer) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (MemorySink { buf: buf.clone() }, TraceBuffer { buf })
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: &TraceRecord) {
        self.buf.lock().push(rec.clone());
    }
}

impl TraceBuffer {
    /// A snapshot of every record captured so far, in sequence order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buf.lock().clone()
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every captured record (e.g. between warm-up and the
    /// measured window of an experiment).
    pub fn clear(&self) {
        self.buf.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use sss_types::{NodeId, OpClass, OpId};

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            at: seq * 10,
            event: TraceEvent::OpInvoke {
                node: NodeId(0),
                id: OpId(seq),
                class: OpClass::Write,
            },
        }
    }

    #[test]
    fn memory_sink_round_trips() {
        let (mut sink, buf) = MemorySink::new();
        assert!(buf.is_empty());
        sink.record(&rec(0));
        sink.record(&rec(1));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.records()[1].seq, 1);
        buf.clear();
        assert!(buf.is_empty());
    }
}
