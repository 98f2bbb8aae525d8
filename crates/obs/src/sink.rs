//! Pluggable trace sinks: in-memory and live subscription.

use crate::event::TraceRecord;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// A destination for trace records.
///
/// Sinks receive every record in global sequence order, under the
/// tracer's emission lock, so implementations need no synchronization of
/// their own but must stay cheap — an expensive sink stalls emitters.
pub trait TraceSink: Send {
    /// Consumes one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flushes any buffered output. Called by [`crate::Tracer::flush`]
    /// and when the tracer is dropped.
    fn flush(&mut self) {}
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

/// A live subscription sink: forwards every record over a channel to a
/// consumer thread (monitoring dashboards, the `cluster_monitor`
/// example).
///
/// Two flavours: [`SubscriberSink::unbounded`] never drops, and
/// [`SubscriberSink::bounded`] sheds records when the consumer lags
/// rather than stalling the protocol — [`SubscriberSink`] counts what it
/// shed so consumers can report the gap.
pub enum SubscriberSink {
    /// Never drops; the channel grows if the consumer lags.
    Unbounded(Sender<TraceRecord>),
    /// Sheds records when the channel is full, counting the casualties.
    Bounded {
        /// The bounded channel's send side.
        tx: SyncSender<TraceRecord>,
        /// Records shed because the consumer lagged.
        shed: Arc<AtomicU64>,
    },
}

/// The consumer side of a [`SubscriberSink`]: the record stream plus the
/// shed counter, in one handle.
///
/// The shed counter is written by the *producer* (the tracer's emission
/// path) whenever the channel is full, so [`Subscription::shed`] tells a
/// consumer exactly how many records it missed — live, not only at the
/// end of the run. A consumer that sees the counter move knows its view
/// has gaps; one that sees it stay zero knows the stream is complete.
pub struct Subscription {
    rx: Receiver<TraceRecord>,
    shed: Arc<AtomicU64>,
}

impl Subscription {
    /// Blocks until the next record, or `Err` once every producer handle
    /// is gone and the channel is drained.
    pub fn recv(&self) -> Result<TraceRecord, RecvError> {
        self.rx.recv()
    }

    /// Like [`Subscription::recv`] with a deadline — the idiom for a
    /// dashboard loop that must keep repainting while the cluster idles.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<TraceRecord, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// The next record if one is already queued (never blocks).
    pub fn try_recv(&self) -> Option<TraceRecord> {
        self.rx.try_recv().ok()
    }

    /// Records the producer shed because this consumer lagged. `0` for
    /// unbounded subscriptions.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// An iterator over incoming records; ends when producers hang up.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.rx.iter()
    }
}

impl SubscriberSink {
    /// An unbounded subscription: `(sink, subscription)`. The
    /// subscription's shed counter stays 0.
    pub fn unbounded() -> (SubscriberSink, Subscription) {
        let (tx, rx) = std::sync::mpsc::channel();
        (
            SubscriberSink::Unbounded(tx),
            Subscription {
                rx,
                shed: Arc::new(AtomicU64::new(0)),
            },
        )
    }

    /// A bounded subscription that sheds when the consumer is more than
    /// `depth` records behind: `(sink, subscription)`. The producer
    /// never blocks; the subscription's shed counter reports the gap.
    pub fn bounded(depth: usize) -> (SubscriberSink, Subscription) {
        let (tx, rx) = std::sync::mpsc::sync_channel(depth);
        let shed = Arc::new(AtomicU64::new(0));
        (
            SubscriberSink::Bounded {
                tx,
                shed: shed.clone(),
            },
            Subscription { rx, shed },
        )
    }
}

impl TraceSink for SubscriberSink {
    fn record(&mut self, rec: &TraceRecord) {
        match self {
            // A hung-up consumer is not an error: the run outlives it.
            SubscriberSink::Unbounded(tx) => {
                let _ = tx.send(rec.clone());
            }
            SubscriberSink::Bounded { tx, shed } => match tx.try_send(rec.clone()) {
                Ok(()) | Err(TrySendError::Disconnected(_)) => {}
                Err(TrySendError::Full(_)) => {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
            },
        }
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

    #[test]
    fn bounded_subscriber_sheds_instead_of_blocking() {
        let (mut sink, sub) = SubscriberSink::bounded(1);
        sink.record(&rec(0));
        sink.record(&rec(1)); // full → shed
        assert_eq!(sub.shed(), 1);
        assert_eq!(sub.recv().unwrap().seq, 0);
        drop(sub);
        sink.record(&rec(2)); // hung-up consumer → quietly ignored
    }

    #[test]
    fn slow_consumer_sheds_accurately_and_never_stalls_the_producer() {
        // Regression: a consumer that never drains must cost the
        // producer nothing but a failed try_send, and the subscription
        // must report exactly how many records it missed.
        let depth = 16;
        let emitted = 1000u64;
        let (mut sink, sub) = SubscriberSink::bounded(depth);
        let start = std::time::Instant::now();
        for i in 0..emitted {
            sink.record(&rec(i));
        }
        // 1000 try_sends, 984 of them failing, must be near-instant; a
        // blocking producer would hang forever (channel never drained).
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "producer stalled behind a slow consumer"
        );
        assert_eq!(
            sub.shed(),
            emitted - depth as u64,
            "shed counter accounts for every record beyond the channel depth"
        );
        // The consumer's view is exactly the first `depth` records.
        let mut got = 0u64;
        while let Some(r) = sub.try_recv() {
            assert_eq!(r.seq, got);
            got += 1;
        }
        assert_eq!(got, depth as u64);
        assert_eq!(got + sub.shed(), emitted, "no record unaccounted for");
    }

    #[test]
    fn unbounded_subscription_reports_zero_shed() {
        let (mut sink, sub) = SubscriberSink::unbounded();
        for i in 0..100 {
            sink.record(&rec(i));
        }
        drop(sink); // hang up so the iterator terminates
        assert_eq!(sub.shed(), 0);
        assert_eq!(sub.iter().count(), 100);
    }
}
