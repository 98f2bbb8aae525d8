//! The sharded per-node inbox of the batched message plane.
//!
//! The original runtime multiplexed everything a node could receive —
//! protocol traffic, client invocations, fault-plane control — over one
//! unbounded channel, delivering **one message per wakeup**. That shape
//! has two costs: a gossip storm queues ahead of client ops and crash /
//! partition injections (so control latency scales with backlog), and
//! the per-message wakeup pins the hot path to channel/scheduler
//! overhead instead of protocol work.
//!
//! [`NodeInbox`] replaces it with two queues under one mutex:
//!
//! * the **control plane** ([`CtlMsg`]: client invocations, and on the
//!   socket backend crash / resume / corrupt / restart / stop) is
//!   drained in full on every step, ahead of any data, so control ops
//!   never wait behind a message backlog;
//! * the **data plane** (protocol messages) is drained up to a batch
//!   bound into a caller-owned scratch vector the node applies as one
//!   protocol step.
//!
//! **Nobody blocks on an inbox.** A [`Cluster`](crate::Cluster) node is
//! drained by whichever thread is driving its engine — usually the one
//! that just pushed — and a socket node parks in the kernel's receive
//! call and drains afterwards; so there is no condition variable, a push
//! is one lock round-trip, and [`NodeInbox::drain`] returns at once. Its
//! `deadline` parameter is the leftover of the blocking drain the
//! per-node threads used, kept (and ignored) because the frozen
//! `benchmark/` package compiles against this signature.

use crossbeam::channel::Sender;
use sss_types::{ByzBehavior, NodeId, OpId, OpResponse, SnapshotOp};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Control-plane traffic: everything a node can receive that is not a
/// protocol message. Drained in full, ahead of data, on every wakeup.
pub enum CtlMsg {
    /// A client operation invocation.
    Invoke {
        /// The driver-assigned operation id.
        id: OpId,
        /// The operation.
        op: SnapshotOp,
        /// Where the completion is sent.
        done: Sender<OpResponse>,
    },
    /// Pause taking steps (crash) until `Resume`.
    Crash,
    /// Continue taking steps, state intact.
    Resume,
    /// Inject a transient fault from this seed.
    Corrupt(u64),
    /// Adopt a Byzantine behaviour: every outgoing message is rewritten
    /// through the shared [`sss_net::ByzState`] hook
    /// ([`ByzBehavior::Honest`] clears the mode).
    Byzantine(ByzBehavior),
    /// Detectable restart: re-initialize all variables.
    Restart,
    /// Terminate the node thread.
    Stop,
}

/// The push half failed because the inbox was [closed](NodeInbox::close).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InboxClosed;

/// Why a bounded invoke push ([`NodeInbox::push_invoke`]) was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvokeRejected {
    /// The invoke backlog is at capacity — the caller must shed or
    /// retry; silently queueing would grow memory without bound under
    /// open-loop overload.
    Full,
    /// The inbox was [closed](NodeInbox::close).
    Closed,
}

struct Queues<M> {
    ctl: VecDeque<CtlMsg>,
    data: VecDeque<(NodeId, M)>,
    /// Queued-but-undrained `CtlMsg::Invoke` entries — the backlog
    /// [`NodeInbox::push_invoke`]'s admission bound applies to. Fault
    /// injections and `Stop` are never counted (control must always get
    /// through).
    invokes: usize,
    closed: bool,
}

/// A two-lane (control/data) inbox for one node. See the module docs for
/// the design.
pub struct NodeInbox<M> {
    q: Mutex<Queues<M>>,
}

impl<M> Default for NodeInbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> NodeInbox<M> {
    /// An empty, open inbox.
    pub fn new() -> Self {
        NodeInbox {
            q: Mutex::new(Queues {
                ctl: VecDeque::new(),
                data: VecDeque::new(),
                invokes: 0,
                closed: false,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Queues<M>> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues a control message.
    ///
    /// # Errors
    ///
    /// [`InboxClosed`] once the inbox was [closed](NodeInbox::close)
    /// (the cluster is shutting down).
    pub fn push_ctl(&self, msg: CtlMsg) -> Result<(), InboxClosed> {
        let mut q = self.lock();
        if q.closed {
            return Err(InboxClosed);
        }
        if matches!(msg, CtlMsg::Invoke { .. }) {
            q.invokes += 1;
        }
        q.ctl.push_back(msg);
        Ok(())
    }

    /// Queues a client invocation subject to an admission bound: fails
    /// with [`InvokeRejected::Full`] once `cap` invocations are already
    /// queued and undrained (`cap == 0` means unbounded). This is the
    /// backpressure half of the open-loop injection path — the old
    /// fire-and-forget submit queued without bound, so a saturated node
    /// grew its backlog (and its memory) silently instead of telling the
    /// caller to shed.
    pub fn push_invoke(&self, msg: CtlMsg, cap: usize) -> Result<(), InvokeRejected> {
        debug_assert!(matches!(msg, CtlMsg::Invoke { .. }));
        let mut q = self.lock();
        if q.closed {
            return Err(InvokeRejected::Closed);
        }
        if cap > 0 && q.invokes >= cap {
            return Err(InvokeRejected::Full);
        }
        q.invokes += 1;
        q.ctl.push_back(msg);
        Ok(())
    }

    /// Queued-but-undrained client invocations (the backlog
    /// [`NodeInbox::push_invoke`]'s bound applies to).
    pub fn invoke_backlog(&self) -> usize {
        self.lock().invokes
    }

    /// Queues a protocol message from `from`. Silently discarded after
    /// [close](NodeInbox::close) — in-flight traffic racing a shutdown
    /// has nowhere to go.
    pub fn push_data(&self, from: NodeId, msg: M) {
        let mut q = self.lock();
        if q.closed {
            return;
        }
        q.data.push_back((from, msg));
    }

    /// Marks the inbox closed: subsequent pushes fail (control) or are
    /// discarded (data).
    pub fn close(&self) {
        self.lock().closed = true;
    }

    /// Moves **all** control messages into `ctl` and up to `max_data`
    /// data messages (`0` = unbounded) into `data`, appending to both,
    /// without blocking; either may come back empty. `_deadline` is
    /// ignored (see the module docs).
    ///
    /// Returns `true` if the inbox was closed (the node should still
    /// drain `ctl`, where a [`CtlMsg::Stop`] may await).
    pub fn drain(
        &self,
        ctl: &mut Vec<CtlMsg>,
        data: &mut Vec<(NodeId, M)>,
        max_data: usize,
        _deadline: Instant,
    ) -> bool {
        let mut q = self.lock();
        ctl.extend(q.ctl.drain(..));
        q.invokes = 0;
        let take = if max_data == 0 {
            q.data.len()
        } else {
            q.data.len().min(max_data)
        };
        data.extend(q.data.drain(..take));
        q.closed
    }

    /// Whether anything is queued on either lane — what a driver checks
    /// after releasing a node's engine, to pick up pushes that arrived
    /// while it held it.
    pub fn has_work(&self) -> bool {
        let q = self.lock();
        !q.ctl.is_empty() || !q.data.is_empty()
    }

    /// Messages currently queued on the data lane (diagnostics/tests).
    pub fn data_len(&self) -> usize {
        self.lock().data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn drain_now<M>(inbox: &NodeInbox<M>, max: usize) -> (Vec<CtlMsg>, Vec<(NodeId, M)>) {
        let (mut ctl, mut data) = (Vec::new(), Vec::new());
        inbox.drain(&mut ctl, &mut data, max, Instant::now());
        (ctl, data)
    }

    #[test]
    fn ctl_is_drained_in_full_ahead_of_bounded_data() {
        let inbox = NodeInbox::new();
        for i in 0..5u32 {
            inbox.push_data(NodeId(1), i);
        }
        inbox.push_ctl(CtlMsg::Crash).unwrap();
        inbox.push_ctl(CtlMsg::Resume).unwrap();
        let (ctl, data) = drain_now(&inbox, 3);
        assert_eq!(ctl.len(), 2, "all control, regardless of data backlog");
        assert_eq!(
            data.iter().map(|(_, m)| *m).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "data capped at max_data, FIFO"
        );
        let (_, rest) = drain_now(&inbox, 0);
        assert_eq!(rest.len(), 2, "remainder survives for the next wakeup");
    }

    #[test]
    fn drain_never_blocks_on_an_idle_inbox() {
        let inbox: NodeInbox<u32> = NodeInbox::new();
        assert!(!inbox.has_work());
        let t0 = Instant::now();
        let (mut ctl, mut data) = (Vec::new(), Vec::new());
        // A deadline far in the future is ignored: nobody parks here.
        let closed = inbox.drain(&mut ctl, &mut data, 0, t0 + Duration::from_secs(3600));
        assert!(!closed && ctl.is_empty() && data.is_empty());
        assert!(t0.elapsed() < Duration::from_secs(60));
        inbox.push_data(NodeId(0), 9);
        assert!(inbox.has_work());
    }

    #[test]
    fn bounded_invoke_lane_rejects_when_full_and_recovers_after_drain() {
        let inbox: NodeInbox<u32> = NodeInbox::new();
        let invoke = || {
            let (tx, _rx) = crossbeam::channel::bounded(1);
            CtlMsg::Invoke {
                id: OpId(0),
                op: SnapshotOp::Snapshot,
                done: tx,
            }
        };
        inbox.push_invoke(invoke(), 2).unwrap();
        inbox.push_invoke(invoke(), 2).unwrap();
        assert_eq!(inbox.push_invoke(invoke(), 2), Err(InvokeRejected::Full));
        assert_eq!(inbox.invoke_backlog(), 2);
        // Fault-plane control is never rejected, even over the cap —
        // and it does not consume invoke budget.
        inbox.push_ctl(CtlMsg::Crash).unwrap();
        assert_eq!(inbox.invoke_backlog(), 2);
        // Draining frees the whole budget.
        let _ = drain_now(&inbox, 0);
        assert_eq!(inbox.invoke_backlog(), 0);
        inbox.push_invoke(invoke(), 2).unwrap();
        // cap == 0 is unbounded.
        for _ in 0..100 {
            inbox.push_invoke(invoke(), 0).unwrap();
        }
        inbox.close();
        assert_eq!(inbox.push_invoke(invoke(), 2), Err(InvokeRejected::Closed));
    }

    #[test]
    fn close_rejects_ctl_discards_data_and_wakes() {
        let inbox: NodeInbox<u32> = NodeInbox::new();
        inbox.close();
        assert_eq!(inbox.push_ctl(CtlMsg::Stop), Err(InboxClosed));
        inbox.push_data(NodeId(0), 1);
        assert_eq!(inbox.data_len(), 0);
        let (mut ctl, mut data) = (Vec::new(), Vec::new());
        let closed = inbox.drain(
            &mut ctl,
            &mut data,
            0,
            Instant::now() + Duration::from_secs(5),
        );
        assert!(closed, "drain reports the close");
    }
}
