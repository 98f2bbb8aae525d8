//! The real-socket backend: nodes exchanging protocol messages over UDP
//! on localhost.
//!
//! Where [`Cluster`](crate::Cluster) connects node threads with
//! in-process inboxes, [`SocketCluster`] gives every node a real
//! `UdpSocket` bound to `127.0.0.1` and puts the wire codec
//! ([`sss_types::WireMsg`]) between the protocol and the kernel. The
//! shape of a wakeup is engineered to stay one-of-each:
//!
//! * **one receive batch** — a node parks in a blocking receive
//!   (`recvmmsg(MSG_WAITFORONE)` on Linux; see [`crate::mmsg`]) with the
//!   next round deadline as its timeout, so traffic wakes it instantly
//!   and an idle node still paces its `do forever` loop;
//! * **one protocol step** — decoded frames join loopback self-traffic
//!   (which reuses the [`NodeInbox`] data lane) and the whole backlog is
//!   applied as one step, exactly like the threaded runtime;
//! * **one send flush** — effects are coalesced per destination
//!   ([`sss_types::Outbox`]), frames for the same peer are packed into
//!   shared datagrams, and the flush leaves in one `sendmmsg`.
//!
//! The fault plane is unchanged: every outgoing message still asks the
//! shared [`sss_net::LinkModel`] for a loss/duplication/partition
//! verdict *before* encoding (the socket-level fault shim sits at the
//! send hook), so a [`FaultPlan`] means the same thing here as on the
//! simulator and the threaded runtime — and every chaos strategy,
//! checker run and `run_traced` experiment works on real networking
//! unchanged. Checksum-rejected inbound frames are accounted as drops
//! (`frames_rejected` + `messages_dropped`), the same observable a
//! corrupted channel produces on the in-process backends.
//!
//! Multi-process deployments bind fixed ports ([`SocketConfig::base_port`])
//! and host a subset of nodes per process ([`SocketCluster::new_hosted`]).
//! Loss/duplication verdicts stay consistent across processes because
//! they are drawn sender-side from per-link seeded streams; dynamic
//! fault events and link *capacity* accounting assume one process and
//! are not replicated to remote hosts.

use crate::mmsg::{self, OutDatagram, RecvBatch, SyscallMode};
use crate::{
    check_epoch, check_stabilized, emit_fault, sleep_until, Client, ClusterConfig, ClusterError,
    CtlMsg, NodeInbox, Shared, Verdicted, TRACE_NU_BITS,
};
use sss_net::{
    Backend, BatchPolicy, ByzState, FaultEvent, FaultPlan, LinkVerdict, NodeProbe, RunReport,
    RunStats, WorkloadSpec, MODEL_ROUND_US,
};
use sss_obs::{DropCause, FaultKind, TraceEvent, Tracer};
use sss_types::{
    decode_frames, encode_frame, encode_wake, ByzBehavior, DecodedFrame, Effects, NodeId, Outbox,
    ProtoMsg, Protocol, SnapshotOp, WireMsg, MAX_DATAGRAM_BYTES,
};
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`SocketCluster`]: the shared [`ClusterConfig`]
/// plus the socket-specific knobs.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// The node/fault-plane/batching configuration, identical in meaning
    /// to the threaded runtime's.
    pub cluster: ClusterConfig,
    /// How UDP syscalls are issued ([`SyscallMode::Auto`] = batched
    /// where the platform supports it). [`SyscallMode::Plain`] is the
    /// syscall-per-message ablation: no `sendmmsg`/`recvmmsg` *and* no
    /// frame packing, so syscalls scale with messages.
    pub mode: SyscallMode,
    /// Receive slots per node wakeup (each slot holds one datagram).
    pub recv_slots: usize,
    /// Soft cap on packed-datagram size: frames for the same peer share
    /// a datagram until it reaches this many bytes. Ignored (no packing)
    /// under [`SyscallMode::Plain`].
    pub pack_budget: usize,
    /// `0` binds every node to an ephemeral port (single-process);
    /// non-zero binds node `i` to `127.0.0.1:base_port + i`, which is
    /// what lets multiple processes host disjoint node subsets.
    pub base_port: u16,
    /// Kernel receive-buffer request per node socket (best-effort;
    /// clamped by `rmem_max`).
    pub rcvbuf: usize,
}

impl SocketConfig {
    /// Defaults for `n` nodes: ephemeral loopback ports, auto syscall
    /// batching, 16 receive slots, 8 KiB packed datagrams, 4 MiB
    /// receive-buffer request.
    pub fn new(n: usize) -> Self {
        SocketConfig {
            cluster: ClusterConfig::new(n),
            mode: SyscallMode::Auto,
            recv_slots: 16,
            pack_budget: 8 << 10,
            base_port: 0,
            rcvbuf: 4 << 20,
        }
    }

    /// Overrides the syscall mode (builder-style).
    pub fn with_mode(mut self, mode: SyscallMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables message loss/duplication (builder-style), same semantics
    /// as [`ClusterConfig::with_chaos`].
    pub fn with_chaos(mut self, loss: f64, dup: f64) -> Self {
        self.cluster = self.cluster.with_chaos(loss, dup);
        self
    }

    fn addr_of(&self, node: usize) -> SocketAddr {
        assert_ne!(
            self.base_port, 0,
            "fixed-port addressing requires base_port != 0"
        );
        SocketAddr::from(([127, 0, 0, 1], self.base_port + node as u16))
    }
}

/// A cluster of protocol nodes exchanging messages over real UDP sockets
/// on localhost. The public surface mirrors [`Cluster`](crate::Cluster)
/// — clients, fault injection, plan replay, history, counters — so
/// tests and experiments swap backends without code changes.
pub struct SocketCluster<P: Protocol> {
    inboxes: Vec<Arc<NodeInbox<P::Msg>>>,
    threads: Vec<JoinHandle<P>>,
    shared: Arc<Shared>,
    cfg: SocketConfig,
    /// Every node's UDP address (hosted here or in another process).
    addrs: Vec<SocketAddr>,
    /// The clients' wake socket: fires a wake frame at a node parked in
    /// a blocking receive after queueing it control traffic.
    wake_sock: Arc<UdpSocket>,
    wake_frame: Arc<Vec<u8>>,
    /// The node indices this process hosts (all of them in the
    /// single-process constructors).
    hosted: Range<usize>,
}

impl<P: Protocol + 'static> SocketCluster<P>
where
    P::Msg: WireMsg,
{
    /// Starts `cfg.cluster.n` node threads, each bound to its own UDP
    /// socket on loopback.
    pub fn new(cfg: SocketConfig, mk: impl FnMut(NodeId) -> P) -> Self {
        Self::new_traced(cfg, Tracer::off(), mk)
    }

    /// [`SocketCluster::new`] with the trace plane attached.
    pub fn new_traced(cfg: SocketConfig, tracer: Tracer, mk: impl FnMut(NodeId) -> P) -> Self {
        let n = cfg.cluster.n;
        Self::start(cfg, tracer, 0..n, mk)
    }

    /// Hosts only `hosted` (a contiguous node-index range) in this
    /// process; the rest are expected at `base_port + i` on other
    /// processes (so `cfg.base_port` must be non-zero). Clients exist
    /// for hosted nodes only, and stats/history cover this process's
    /// share. Loss/duplication draws stay globally consistent (verdicts
    /// are sender-side); dynamic fault events apply process-locally.
    pub fn new_hosted(
        cfg: SocketConfig,
        hosted: Range<usize>,
        mk: impl FnMut(NodeId) -> P,
    ) -> Self {
        assert_ne!(cfg.base_port, 0, "multi-process hosting needs fixed ports");
        Self::start(cfg, Tracer::off(), hosted, mk)
    }

    fn start(
        cfg: SocketConfig,
        tracer: Tracer,
        hosted: Range<usize>,
        mut mk: impl FnMut(NodeId) -> P,
    ) -> Self {
        let n = cfg.cluster.n;
        assert!(
            n < u16::MAX as usize,
            "node indices must fit the wire header"
        );
        assert!(
            hosted.start < hosted.end && hosted.end <= n,
            "hosted range out of bounds"
        );
        // Fail fast on a mode the platform cannot provide.
        let _ = cfg.mode.batched();
        let inboxes: Vec<Arc<NodeInbox<P::Msg>>> =
            (0..n).map(|_| Arc::new(NodeInbox::new())).collect();
        let shared = Arc::new(Shared::new(&cfg.cluster, tracer));
        // Bind hosted sockets first so every address is known (ephemeral
        // ports) before any thread starts.
        let socks: Vec<UdpSocket> = hosted
            .clone()
            .map(|i| {
                let addr = if cfg.base_port == 0 {
                    SocketAddr::from(([127, 0, 0, 1], 0))
                } else {
                    cfg.addr_of(i)
                };
                let sock = UdpSocket::bind(addr)
                    .unwrap_or_else(|e| panic!("bind node {i} at {addr}: {e}"));
                mmsg::request_rcvbuf(&sock, cfg.rcvbuf);
                sock
            })
            .collect();
        let addrs: Vec<SocketAddr> = if cfg.base_port == 0 {
            socks.iter().map(|s| s.local_addr().unwrap()).collect()
        } else {
            (0..n).map(|i| cfg.addr_of(i)).collect()
        };
        let mut threads = Vec::with_capacity(hosted.len());
        for (i, sock) in hosted.clone().zip(socks) {
            let id = NodeId(i);
            let proto = mk(id);
            assert_eq!(proto.n(), n, "protocol instance disagrees about n");
            let inbox = Arc::clone(&inboxes[i]);
            let shared2 = Arc::clone(&shared);
            let cfg2 = cfg.clone();
            let peers = addrs.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sss-sock-{i}"))
                    .spawn(move || socket_node_loop(proto, sock, peers, inbox, shared2, cfg2))
                    .expect("spawn socket node thread"),
            );
        }
        let wake_sock =
            Arc::new(UdpSocket::bind("127.0.0.1:0").expect("bind the cluster wake socket"));
        let mut wake_frame = Vec::new();
        encode_wake(&mut wake_frame);
        SocketCluster {
            inboxes,
            threads,
            shared,
            cfg,
            addrs,
            wake_sock,
            wake_frame: Arc::new(wake_frame),
            hosted,
        }
    }

    fn assert_hosted(&self, node: NodeId) {
        assert!(
            self.hosted.contains(&node.index()),
            "{node:?} is hosted by another process"
        );
    }

    /// Interrupts `node`'s blocking receive (control traffic was queued).
    fn wake(&self, node: NodeId) {
        let _ = self
            .wake_sock
            .send_to(&self.wake_frame, self.addrs[node.index()]);
    }

    /// A blocking client bound to `node` (which must be hosted by this
    /// process). The handle is the same [`Client`] type the threaded
    /// runtime hands out, with a wake hook installed: after queueing an
    /// invocation it fires a wake frame so the node leaves its blocking
    /// receive immediately instead of at the next round deadline.
    pub fn client(&self, node: NodeId) -> Client<P> {
        self.assert_hosted(node);
        let wake_sock = Arc::clone(&self.wake_sock);
        let wake_frame = Arc::clone(&self.wake_frame);
        let addr = self.addrs[node.index()];
        Client {
            inbox: Arc::clone(&self.inboxes[node.index()]),
            node,
            shared: Arc::clone(&self.shared),
            timeout: self.cfg.cluster.op_timeout,
            invoke_cap: self.cfg.cluster.invoke_queue,
            nudge: Arc::new(move || {
                let _ = wake_sock.send_to(&wake_frame, addr);
            }),
            patience: Duration::ZERO,
        }
    }

    /// The failure detector's verdict for `node` (see
    /// [`Cluster::availability`](crate::Cluster::availability)).
    pub fn availability(&self, node: NodeId) -> Option<crate::Unavailable> {
        self.shared.unavailable(node)
    }

    /// Pauses `node` (crash). Datagrams keep arriving; none are applied.
    pub fn crash(&self, node: NodeId) {
        self.assert_hosted(node);
        let _ = self.inboxes[node.index()].push_ctl(CtlMsg::Crash);
        self.wake(node);
    }

    /// Resumes a crashed `node` with its state intact.
    pub fn resume(&self, node: NodeId) {
        self.assert_hosted(node);
        let _ = self.inboxes[node.index()].push_ctl(CtlMsg::Resume);
        self.wake(node);
    }

    /// Injects a transient fault at `node`.
    pub fn corrupt(&self, node: NodeId, seed: u64) {
        self.assert_hosted(node);
        let _ = self.inboxes[node.index()].push_ctl(CtlMsg::Corrupt(seed));
        self.wake(node);
    }

    /// Detectably restarts `node` (also clears a crash).
    pub fn restart(&self, node: NodeId) {
        self.assert_hosted(node);
        let _ = self.inboxes[node.index()].push_ctl(CtlMsg::Restart);
        self.wake(node);
    }

    /// Turns `node` Byzantine with the given behavior
    /// ([`ByzBehavior::Honest`] restores it). The rewrite hook sits on
    /// the send path *before* wire encoding, so equivocated copies go
    /// out checksummed and well-formed — honest receivers cannot tell
    /// them from genuine traffic, exactly the adversary §5 assumes away
    /// only with signatures.
    pub fn set_byzantine(&self, node: NodeId, behavior: ByzBehavior) {
        self.assert_hosted(node);
        let _ = self.inboxes[node.index()].push_ctl(CtlMsg::Byzantine(behavior));
        self.wake(node);
    }

    /// Cuts or restores the directed link `from → to` in the shared
    /// fault plane (the send hook consults it before encoding).
    pub fn set_link(&self, from: NodeId, to: NodeId, up: bool) {
        self.shared.links.lock().set_link(from, to, up);
        if !up {
            self.shared.links_dirty.store(true, Ordering::Relaxed);
        }
        if self.shared.tracer.is_on() {
            let kind = if up {
                FaultKind::LinkUp
            } else {
                FaultKind::LinkDown
            };
            self.shared.tracer.emit(
                self.shared.model_now(),
                TraceEvent::Fault {
                    kind,
                    node: Some(from),
                    peer: Some(to),
                },
            );
        }
    }

    /// Partitions the cluster into `groups`
    /// ([`sss_net::cut_matrix`] semantics, as everywhere).
    pub fn partition<G: AsRef<[NodeId]>>(&self, groups: &[G]) {
        let groups: Vec<Vec<NodeId>> = groups.iter().map(|g| g.as_ref().to_vec()).collect();
        self.shared.links.lock().partition(&groups);
        self.shared.links_dirty.store(true, Ordering::Relaxed);
        if self.shared.tracer.is_on() {
            self.shared.tracer.emit(
                self.shared.model_now(),
                TraceEvent::Fault {
                    kind: FaultKind::Partition,
                    node: None,
                    peer: None,
                },
            );
        }
    }

    /// Restores every link.
    pub fn heal_partition(&self) {
        self.shared.links.lock().heal();
        self.shared.links_dirty.store(false, Ordering::Relaxed);
        if self.shared.tracer.is_on() {
            self.shared.tracer.emit(
                self.shared.model_now(),
                TraceEvent::Fault {
                    kind: FaultKind::Heal,
                    node: None,
                    peer: None,
                },
            );
        }
    }

    /// Replays a shared fault plan against this cluster, blocking until
    /// the last event fired — identical semantics to
    /// [`Cluster::apply_plan`](crate::Cluster::apply_plan).
    ///
    /// # Panics
    ///
    /// If the plan is malformed for this cluster size, or if it targets
    /// a node another process hosts.
    pub fn apply_plan(&self, plan: &FaultPlan) {
        if let Err(e) = plan.validate(self.cfg.cluster.n) {
            panic!("malformed fault plan: {e}");
        }
        let start = Instant::now();
        for (t, ev) in plan.sorted_events() {
            sleep_until(start + self.cfg.cluster.wall_offset(t));
            match ev {
                FaultEvent::Crash(node) => self.crash(*node),
                FaultEvent::Resume(node) => self.resume(*node),
                FaultEvent::Restart(node) => self.restart(*node),
                FaultEvent::Corrupt(node) => self.corrupt(*node, plan.corruption_seed(t, *node)),
                FaultEvent::Partition(groups) => self.partition(groups),
                FaultEvent::Heal => self.heal_partition(),
                FaultEvent::SetLink { from, to, up } => self.set_link(*from, *to, *up),
                FaultEvent::Byzantine { node, behavior } => self.set_byzantine(*node, *behavior),
            }
        }
    }

    /// A copy of the recorded client-boundary history.
    pub fn history(&self) -> crate::History {
        self.shared.history.lock().clone()
    }

    /// Messages dropped so far: link-model verdicts, crashed receivers,
    /// and checksum-rejected frames.
    pub fn messages_dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Message-plane counters — the same schema as
    /// [`Cluster::net_stats`](crate::Cluster::net_stats), with the
    /// syscall/frame counters live on this backend.
    pub fn net_stats(&self) -> crate::NetStats {
        self.shared.net_stats()
    }

    /// The configuration this cluster runs with.
    pub fn config(&self) -> &SocketConfig {
        &self.cfg
    }

    /// Every node's UDP address (hosted here or remotely).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The trace plane this cluster emits through.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Stops this process's node threads and returns their final
    /// protocol states.
    pub fn shutdown(mut self) -> Vec<P> {
        for i in self.hosted.clone() {
            let _ = self.inboxes[i].push_ctl(CtlMsg::Stop);
            self.inboxes[i].close();
            self.wake(NodeId(i));
        }
        std::mem::take(&mut self.threads)
            .into_iter()
            .map(|t| t.join().expect("socket node thread panicked"))
            .collect()
    }
}

impl<P: Protocol> Drop for SocketCluster<P> {
    /// A cluster dropped without [`SocketCluster::shutdown`] still
    /// terminates its threads: the inboxes close and a wake frame kicks
    /// each node out of its blocking receive.
    fn drop(&mut self) {
        for i in self.hosted.clone() {
            self.inboxes[i].close();
            let _ = self.wake_sock.send_to(&self.wake_frame, self.addrs[i]);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The socket node's `do forever` loop. Mirrors the threaded runtime's
/// `node_loop` step for step; the differences are exactly the wire: the
/// wakeup blocks in the kernel instead of on the inbox condvar, inbound
/// data is decoded from datagrams (loopback self-traffic still rides the
/// inbox data lane), and the flush encodes through the send plane.
fn socket_node_loop<P: Protocol>(
    mut proto: P,
    sock: UdpSocket,
    peers: Vec<SocketAddr>,
    inbox: Arc<NodeInbox<P::Msg>>,
    shared: Arc<Shared>,
    cfg: SocketConfig,
) -> P
where
    P::Msg: WireMsg,
{
    let me = proto.id();
    let n = cfg.cluster.n;
    let batched = cfg.mode.batched();
    // Plain mode is the syscall-per-message ablation: no frame packing
    // either, so each message is one datagram is one syscall.
    let pack_budget = if batched {
        cfg.pack_budget.min(MAX_DATAGRAM_BYTES)
    } else {
        0
    };
    let mut pending: Vec<(
        sss_types::OpId,
        crossbeam::channel::Sender<sss_types::OpResponse>,
    )> = Vec::new();
    let mut crashed = false;
    let mut tainted = false;
    let mut next_round = Instant::now() + cfg.cluster.round_interval;
    let mut fx = Effects::new();
    let mut outbox: Outbox<P::Msg> = Outbox::new(n).with_coalescing(cfg.cluster.batch.coalesce);
    let mut wire: Vec<Verdicted<P::Msg>> = Vec::new();
    let mut ctl: Vec<CtlMsg> = Vec::new();
    let mut batch: Vec<(NodeId, P::Msg)> = Vec::new();
    let mut rb = RecvBatch::new(cfg.recv_slots.max(1));
    let mut grams: Vec<OutDatagram> = Vec::new();
    let mut open: Vec<Option<usize>> = vec![None; n];
    // Set when the previous flush pushed loopback traffic the bounded
    // drain may not have taken yet: the next receive must poll, not park.
    let mut self_pending = false;
    // Byzantine rewrite state (None = honest) and the last epoch this
    // node was observed in, for EpochChange trace events.
    let mut byz: Option<ByzState<P::Msg>> = None;
    let mut last_epoch = 0u64;
    loop {
        // 1. Park in the kernel until traffic arrives or the round is
        // due (a poll when loopback data is already waiting).
        let timeout = if self_pending {
            Duration::from_micros(1)
        } else {
            next_round.saturating_duration_since(Instant::now())
        };
        match mmsg::recv_batch(&sock, &mut rb, batched, timeout) {
            Ok(syscalls) => {
                shared.recv_syscalls.fetch_add(syscalls, Ordering::Relaxed);
            }
            Err(_) => {
                // A non-transient socket error: treat as an empty wakeup
                // but don't spin on a persistently broken socket.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // 2. Take control traffic and any loopback data (non-blocking —
        // the kernel wait above was the park).
        let closed = inbox.drain(
            &mut ctl,
            &mut batch,
            cfg.cluster.batch.max_batch,
            Instant::now(),
        );
        self_pending = inbox.data_len() > 0;
        for c in ctl.drain(..) {
            match c {
                CtlMsg::Stop => {
                    shared.stale_epoch_dropped[me.index()]
                        .store(proto.stats().stale_epoch_dropped, Ordering::Relaxed);
                    return proto;
                }
                CtlMsg::Crash => {
                    crashed = true;
                    shared.crashed[me.index()].store(true, Ordering::Relaxed);
                    if shared.tracer.is_on() {
                        emit_fault(&shared, FaultKind::Crash, me);
                    }
                }
                CtlMsg::Resume => {
                    crashed = false;
                    shared.crashed[me.index()].store(false, Ordering::Relaxed);
                    if shared.tracer.is_on() {
                        emit_fault(&shared, FaultKind::Resume, me);
                    }
                }
                CtlMsg::Corrupt(seed) => {
                    let mut corrupt_rng = rand::rngs::StdRng::seed_from_u64(seed);
                    proto.corrupt(&mut corrupt_rng);
                    if shared.tracer.is_on() {
                        emit_fault(&shared, FaultKind::Corrupt, me);
                        tainted = true;
                        check_stabilized(&proto, &mut tainted, &shared);
                        check_epoch(&proto, &mut last_epoch, &shared);
                    }
                }
                CtlMsg::Byzantine(behavior) => {
                    byz = if matches!(behavior, ByzBehavior::Honest) {
                        None
                    } else {
                        Some(ByzState::new(me, behavior, cfg.cluster.seed))
                    };
                    if shared.tracer.is_on() {
                        let kind = if matches!(behavior, ByzBehavior::Honest) {
                            FaultKind::Honest
                        } else {
                            FaultKind::Byzantine
                        };
                        emit_fault(&shared, kind, me);
                    }
                }
                CtlMsg::Restart => {
                    proto.restart();
                    crashed = false;
                    shared.crashed[me.index()].store(false, Ordering::Relaxed);
                    if shared.tracer.is_on() {
                        emit_fault(&shared, FaultKind::Restart, me);
                        check_stabilized(&proto, &mut tainted, &shared);
                        check_epoch(&proto, &mut last_epoch, &shared);
                    }
                }
                CtlMsg::Invoke { id, op, done } => {
                    pending.push((id, done));
                    if !crashed {
                        proto.invoke(id, op, &mut fx);
                    }
                }
            }
        }
        if closed {
            return proto;
        }
        // 3. Run the round on schedule (deadline-anchored, missed
        // intervals skipped — same pacing as the threaded runtime).
        let now = Instant::now();
        if now >= next_round {
            if !crashed {
                proto.on_round(&mut fx);
                shared.round_counts[me.index()].fetch_add(1, Ordering::Relaxed);
                shared.stale_epoch_dropped[me.index()]
                    .store(proto.stats().stale_epoch_dropped, Ordering::Relaxed);
                if shared.tracer.is_on() {
                    shared.on_traced_round(me);
                    check_stabilized(&proto, &mut tainted, &shared);
                    check_epoch(&proto, &mut last_epoch, &shared);
                }
            }
            while next_round <= now {
                next_round += cfg.cluster.round_interval;
            }
        }
        // 4. Decode the receive batch into the step's backlog. A frame
        // that fails the checksum (or any structural check) is a drop —
        // the same observable as fault-plane channel corruption — and
        // poisons nothing.
        let mut decoded = 0u64;
        let mut rejected = 0u64;
        for dg in rb.datagrams() {
            for frame in decode_frames::<P::Msg>(dg, n) {
                match frame {
                    Ok(DecodedFrame::Wake) => {}
                    Ok(DecodedFrame::Msg { from, msg }) => {
                        decoded += 1;
                        batch.push((from, msg));
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        if decoded > 0 {
            shared.frames_recv.fetch_add(decoded, Ordering::Relaxed);
        }
        if rejected > 0 {
            shared
                .frames_rejected
                .fetch_add(rejected, Ordering::Relaxed);
            shared.dropped.fetch_add(rejected, Ordering::Relaxed);
        }
        // 5. Apply the whole backlog as one protocol step (identical to
        // the threaded runtime's accounting).
        let drained = batch.len();
        if drained > 0 {
            let tracing = shared.tracer.is_on();
            if shared.cap_release {
                let mut links = shared.links.lock();
                for (from, _) in batch.iter().filter(|(f, _)| *f != me) {
                    links.on_delivered(*from, me);
                }
            }
            for (from, _) in batch.iter().filter(|(f, _)| *f != me) {
                shared.heard(me, *from);
            }
            if !crashed {
                if tracing {
                    let t = shared.model_now();
                    for (from, msg) in &batch {
                        shared.tracer.emit(
                            t,
                            TraceEvent::Deliver {
                                from: *from,
                                to: me,
                                kind: msg.kind(),
                            },
                        );
                    }
                }
                for (from, msg) in batch.drain(..) {
                    proto.on_message(from, msg, &mut fx);
                }
                shared
                    .delivered
                    .fetch_add(drained as u64, Ordering::Relaxed);
                shared.batches.fetch_add(1, Ordering::Relaxed);
                if tracing {
                    check_stabilized(&proto, &mut tainted, &shared);
                    check_epoch(&proto, &mut last_epoch, &shared);
                }
            } else {
                shared.dropped.fetch_add(drained as u64, Ordering::Relaxed);
                if tracing {
                    let t = shared.model_now();
                    for (from, msg) in &batch {
                        shared.tracer.emit(
                            t,
                            TraceEvent::Drop {
                                from: *from,
                                to: me,
                                kind: msg.kind(),
                                cause: DropCause::Crashed,
                            },
                        );
                    }
                }
                batch.clear();
            }
        }
        // 6. One send flush for everything this wakeup produced.
        let (coalesced, pushed_self) = flush_socket(
            me,
            &mut fx,
            &mut outbox,
            &mut wire,
            &inbox,
            &peers,
            &sock,
            &mut grams,
            &mut open,
            &mut pending,
            &shared,
            batched,
            pack_budget,
            &mut byz,
            proto.epoch_probe().unwrap_or(0),
        );
        self_pending |= pushed_self;
        if shared.tracer.is_on() && (drained > 0 || coalesced > 0) {
            shared.tracer.emit(
                shared.model_now(),
                TraceEvent::BatchDrain {
                    node: me,
                    drained: drained as u32,
                    coalesced: coalesced as u32,
                },
            );
        }
    }
}

use rand::SeedableRng;

/// Flushes one wakeup's effects through the send plane: coalesce per
/// destination, draw link-model verdicts under one lock (the fault
/// shim), encode surviving messages into per-peer packed datagrams, and
/// hand the lot to the kernel in one batched send. Self-sends bypass the
/// wire onto the node's own inbox data lane (reliable, immediate —
/// exactly like the threaded runtime). Returns the number of coalesced
/// sends and whether loopback traffic was pushed.
#[allow(clippy::too_many_arguments)]
fn flush_socket<M: WireMsg>(
    me: NodeId,
    fx: &mut Effects<M>,
    outbox: &mut Outbox<M>,
    wire: &mut Vec<Verdicted<M>>,
    inbox: &NodeInbox<M>,
    peers: &[SocketAddr],
    sock: &UdpSocket,
    grams: &mut Vec<OutDatagram>,
    open: &mut [Option<usize>],
    pending: &mut Vec<(
        sss_types::OpId,
        crossbeam::channel::Sender<sss_types::OpResponse>,
    )>,
    shared: &Shared,
    batched: bool,
    pack_budget: usize,
    byz: &mut Option<ByzState<M>>,
    epoch: u64,
) -> (u64, bool) {
    let tracing = shared.tracer.is_on();
    let mut pushed_self = false;
    let coalesced_before = outbox.coalesced();
    for (to, msg) in fx.drain_sends() {
        // The Byzantine rewrite hook: sender-side, per destination,
        // before the fault shim and the wire codec — forged copies leave
        // correctly checksummed. Self-sends are never rewritten (a liar
        // has no reason to lie to itself).
        let msg = match byz.as_mut() {
            Some(state) if to != me => state.rewrite(to, msg),
            _ => msg,
        };
        if to == me {
            if tracing {
                shared.tracer.emit(
                    shared.model_now(),
                    TraceEvent::Send {
                        from: me,
                        to,
                        kind: msg.kind(),
                        bits: msg.size_bits(TRACE_NU_BITS),
                    },
                );
            }
            inbox.push_data(me, msg);
            pushed_self = true;
        } else {
            outbox.push(to, msg);
        }
    }
    let coalesced = outbox.coalesced() - coalesced_before;
    if coalesced > 0 {
        shared.coalesced.fetch_add(coalesced, Ordering::Relaxed);
    }
    if !outbox.is_empty() {
        // The fault shim: same verdict discipline as the threaded
        // runtime — fast path when the base link model is transparent
        // and nothing is cut, one lock acquisition otherwise.
        if shared.net_transparent_base && !shared.links_dirty.load(Ordering::Relaxed) {
            for (to, msg) in outbox.drain() {
                wire.push(Verdicted {
                    to,
                    msg,
                    verdict: Ok(false),
                });
            }
        } else {
            let mut links = shared.links.lock();
            for (to, msg) in outbox.drain() {
                let verdict = match links.on_send(me, to) {
                    LinkVerdict::Deliver { duplicate, .. } => Ok(duplicate.is_some()),
                    LinkVerdict::Drop(reason) => Err(reason),
                };
                wire.push(Verdicted { to, msg, verdict });
            }
        }
        let mut frames = 0u64;
        for Verdicted { to, msg, verdict } in wire.drain(..) {
            if tracing {
                shared.tracer.emit(
                    shared.model_now(),
                    TraceEvent::Send {
                        from: me,
                        to,
                        kind: msg.kind(),
                        bits: msg.size_bits(TRACE_NU_BITS),
                    },
                );
            }
            match verdict {
                Err(reason) => {
                    shared.dropped.fetch_add(1, Ordering::Relaxed);
                    if tracing {
                        shared.tracer.emit(
                            shared.model_now(),
                            TraceEvent::Drop {
                                from: me,
                                to,
                                kind: msg.kind(),
                                cause: reason.into(),
                            },
                        );
                    }
                }
                Ok(duplicate) => {
                    let copies = if duplicate { 2 } else { 1 };
                    for _ in 0..copies {
                        if pack_frame(me, to, &msg, peers, grams, open, pack_budget) {
                            frames += 1;
                        } else {
                            // The message cannot fit one datagram (only
                            // reachable for Alg3 SAVE bundles at n ≳ 60):
                            // account it like in-flight loss — the
                            // protocols retransmit around drops.
                            shared.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        if !grams.is_empty() {
            let syscalls = mmsg::send_batch(sock, grams, batched);
            shared.send_syscalls.fetch_add(syscalls, Ordering::Relaxed);
            shared.frames_sent.fetch_add(frames, Ordering::Relaxed);
            grams.clear();
        }
        open.fill(None);
    }
    for (id, resp) in fx.drain_completions() {
        if let Some(pos) = pending.iter().position(|(pid, _)| *pid == id) {
            let (_, done) = pending.swap_remove(pos);
            let _ = done.send(resp);
        }
    }
    for id in fx.drain_aborts() {
        if tracing {
            shared
                .tracer
                .emit(shared.model_now(), TraceEvent::OpAbort { node: me, id });
        }
        // Publish the abort *before* dropping the reply sender: the
        // client wakes on Disconnected and must find the epoch already
        // in the table to report `Aborted` instead of `Timeout`.
        shared.aborted_ops.lock().insert(id.0, epoch);
        shared
            .history
            .lock()
            .try_record_abort(id, shared.model_now());
        pending.retain(|(pid, _)| *pid != id);
    }
    (coalesced, pushed_self)
}

/// Encodes one frame into the destination's open packed datagram (or a
/// fresh one past the pack budget). Returns `false` if the message is
/// too large for any datagram.
fn pack_frame<M: WireMsg>(
    me: NodeId,
    to: NodeId,
    msg: &M,
    peers: &[SocketAddr],
    grams: &mut Vec<OutDatagram>,
    open: &mut [Option<usize>],
    pack_budget: usize,
) -> bool {
    let gi = match open[to.index()] {
        Some(gi) if grams[gi].buf.len() < pack_budget => gi,
        _ => {
            grams.push(OutDatagram {
                dest: peers[to.index()],
                buf: Vec::new(),
            });
            let gi = grams.len() - 1;
            open[to.index()] = Some(gi);
            gi
        }
    };
    let start = grams[gi].buf.len();
    if encode_frame(me, msg, &mut grams[gi].buf).is_err() {
        return false;
    }
    if grams[gi].buf.len() > MAX_DATAGRAM_BYTES {
        // The frame itself fits a datagram (encode_frame guarantees it)
        // but not *this* one: split it into its own.
        let tail = grams[gi].buf.split_off(start);
        grams.push(OutDatagram {
            dest: peers[to.index()],
            buf: tail,
        });
        open[to.index()] = Some(grams.len() - 1);
    }
    true
}

/// The real-socket backend: replay a shared fault plan under the
/// spec-derived workload over loopback UDP. The client/workload driving
/// is identical to [`ThreadBackend`](crate::ThreadBackend) — only the
/// message plane changed.
pub struct SocketBackend<P, F> {
    cfg: SocketConfig,
    mk: F,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> SocketBackend<P, F>
where
    P: Protocol + 'static,
    P::Msg: WireMsg,
    F: FnMut(NodeId) -> P,
{
    /// A backend running `cfg` with protocol instances built by `mk`.
    pub fn new(cfg: SocketConfig, mk: F) -> Self {
        SocketBackend {
            cfg,
            mk,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P, F> Backend for SocketBackend<P, F>
where
    P: Protocol + 'static,
    P::Msg: WireMsg,
    F: FnMut(NodeId) -> P,
{
    fn label(&self) -> &'static str {
        "sockets"
    }

    fn set_batch_policy(&mut self, policy: BatchPolicy) {
        self.cfg.cluster.batch = policy;
    }

    fn run_traced(
        &mut self,
        plan: &FaultPlan,
        workload: &WorkloadSpec,
        tracer: &Tracer,
    ) -> RunReport {
        let cluster = SocketCluster::new_traced(self.cfg.clone(), tracer.clone(), &mut self.mk);
        let ccfg = self.cfg.cluster.clone();
        let op_timeout = ccfg.wall_offset(workload.op_timeout);
        let mut joins = Vec::with_capacity(ccfg.n);
        for i in 0..ccfg.n {
            let node = NodeId(i);
            let ops = workload.ops_for(node);
            let client = cluster.client(node).with_timeout(op_timeout);
            let cfg = ccfg.clone();
            joins.push(std::thread::spawn(move || {
                let mut timed_out = 0u64;
                let mut unavailable = 0u64;
                for (think, op) in ops {
                    std::thread::sleep(cfg.wall_offset(think));
                    let result = match op {
                        SnapshotOp::Write(v) => client.write(v),
                        SnapshotOp::Snapshot => client.snapshot().map(|_| ()),
                    };
                    match result {
                        Ok(()) => {}
                        Err(ClusterError::Timeout) => timed_out += 1,
                        Err(ClusterError::Unavailable(_)) => unavailable += 1,
                        // Reset-aborted: recorded in the history as
                        // aborted; the workload client moves on.
                        Err(ClusterError::Aborted { .. }) => {}
                        Err(ClusterError::Shutdown) => break,
                    }
                }
                (timed_out, unavailable)
            }));
        }
        cluster.apply_plan(plan);
        let (mut ops_timed_out, mut ops_unavailable) = (0u64, 0u64);
        for j in joins {
            let (t, u) = j.join().expect("client thread panicked");
            ops_timed_out += t;
            ops_unavailable += u;
        }
        let history = cluster.history();
        let elapsed_us = cluster.shared.now_us();
        let messages_dropped = cluster.messages_dropped();
        // End-of-run probes sample the final protocol states shutdown
        // hands back in node order — same sourcing as ThreadBackend.
        let probes = cluster
            .shutdown()
            .iter()
            .map(|p| NodeProbe {
                epoch: p.epoch_probe().unwrap_or(0),
                wrapping: p.wrapping_probe(),
                invariants_ok: p.local_invariants_hold(),
                stale_epoch_dropped: p.stats().stale_epoch_dropped,
            })
            .collect();
        RunReport {
            backend: "sockets",
            stats: RunStats {
                ops_completed: history.completed().count() as u64,
                ops_timed_out,
                ops_unavailable,
                messages_dropped,
                model_time: elapsed_us * MODEL_ROUND_US
                    / (ccfg.round_interval.as_micros() as u64).max(1),
            },
            history,
            probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::{Alg1, Alg3, Alg3Config};

    #[test]
    fn write_then_snapshot_over_udp() {
        let cluster = SocketCluster::new(SocketConfig::new(3), |id| Alg1::new(id, 3));
        cluster.client(NodeId(0)).write(42).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(42));
        let stats = cluster.net_stats();
        assert!(stats.frames_sent > 0, "traffic must have hit the wire");
        assert!(stats.frames_recv > 0);
        assert!(stats.send_syscalls > 0 && stats.recv_syscalls > 0);
        assert_eq!(stats.frames_rejected, 0);
        cluster.shutdown();
    }

    #[test]
    fn alg3_over_udp() {
        let cluster = SocketCluster::new(SocketConfig::new(3), |id| {
            Alg3::new(id, 3, Alg3Config { delta: 1 })
        });
        cluster.client(NodeId(2)).write(7).unwrap();
        let view = cluster.client(NodeId(0)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(2)), Some(7));
        cluster.shutdown();
    }

    #[test]
    fn plain_mode_works_and_spends_more_syscalls_per_frame() {
        let cluster =
            SocketCluster::new(SocketConfig::new(3).with_mode(SyscallMode::Plain), |id| {
                Alg1::new(id, 3)
            });
        cluster.client(NodeId(0)).write(5).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(5));
        let stats = cluster.net_stats();
        // Plain mode: every frame is its own datagram and send syscall.
        assert_eq!(stats.send_syscalls, stats.frames_sent);
        cluster.shutdown();
    }

    #[test]
    fn survives_loss_and_duplication_on_the_wire() {
        let cluster = SocketCluster::new(SocketConfig::new(3).with_chaos(0.2, 0.1), |id| {
            Alg1::new(id, 3)
        });
        for i in 0..5 {
            cluster.client(NodeId(i % 3)).write(100 + i as u64).unwrap();
        }
        let view = cluster.client(NodeId(0)).snapshot().unwrap();
        assert!(view.value_of(NodeId(0)).is_some());
        assert!(cluster.messages_dropped() > 0, "loss must actually fire");
        cluster.shutdown();
    }

    #[test]
    fn crash_partition_heal_cycle() {
        let mut cfg = SocketConfig::new(3);
        cfg.cluster.op_timeout = Duration::from_millis(500);
        let cluster = SocketCluster::new(cfg, |id| Alg1::new(id, 3));
        cluster.client(NodeId(0)).write(1).unwrap();
        cluster.crash(NodeId(2));
        cluster.client(NodeId(0)).write(4).unwrap();
        cluster.resume(NodeId(2));
        cluster.partition(&[[NodeId(0), NodeId(1)].as_slice(), [NodeId(2)].as_slice()]);
        cluster.client(NodeId(0)).write(9).unwrap();
        cluster.heal_partition();
        cluster.client(NodeId(2)).write(3).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(9));
        assert_eq!(view.value_of(NodeId(2)), Some(3));
        cluster.shutdown();
    }

    #[test]
    fn corrupted_datagrams_surface_as_drops_never_panics() {
        let cluster = SocketCluster::new(SocketConfig::new(3), |id| Alg1::new(id, 3));
        cluster.client(NodeId(0)).write(42).unwrap();
        // Blast garbage and bit-flipped-looking junk straight at every
        // node's port — the codec must reject it all and keep serving.
        let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
        for (i, addr) in cluster.addrs().iter().enumerate() {
            let mut junk = vec![0xA5u8; 40 + i];
            junk[0] = b'S'; // almost-right magic
            attacker.send_to(&junk, addr).unwrap();
            attacker.send_to(&[0u8; 3], addr).unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        let before = cluster.net_stats().frames_rejected;
        assert!(before > 0, "garbage frames must be counted as rejects");
        cluster.client(NodeId(1)).write(7).unwrap();
        let view = cluster.client(NodeId(2)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(42));
        assert_eq!(view.value_of(NodeId(1)), Some(7));
        assert!(cluster.messages_dropped() >= before);
        cluster.shutdown();
    }

    #[test]
    fn restart_recovers_via_gossip_over_udp() {
        let cluster = SocketCluster::new(SocketConfig::new(3), |id| Alg1::new(id, 3));
        for seq in 1..=3u64 {
            cluster.client(NodeId(0)).write(100 + seq).unwrap();
        }
        cluster.restart(NodeId(0));
        std::thread::sleep(Duration::from_millis(40));
        cluster.client(NodeId(0)).write(999).unwrap();
        let view = cluster.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(999));
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_are_linearizable_over_udp() {
        let cluster = SocketCluster::new(SocketConfig::new(3), |id| Alg1::new(id, 3));
        let mut joins = Vec::new();
        for i in 0..3usize {
            let client = cluster.client(NodeId(i));
            joins.push(std::thread::spawn(move || {
                for seq in 1..=5u64 {
                    let v = ((i as u64 + 1) << 40) | seq;
                    client.write(v).unwrap();
                    let _ = client.snapshot().unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let h = cluster.history();
        cluster.shutdown();
        let verdict = sss_checker::check(&h, 3);
        assert!(
            verdict.is_linearizable(),
            "violations: {:?}",
            verdict.violations
        );
    }

    #[test]
    fn two_hosted_halves_form_one_cluster() {
        // Two SocketClusters in one process standing in for two
        // processes: they share nothing but the UDP ports.
        let mut cfg = SocketConfig::new(4);
        cfg.base_port = pick_base_port(4);
        let lo = SocketCluster::new_hosted(cfg.clone(), 0..2, |id| Alg1::new(id, 4));
        let hi = SocketCluster::new_hosted(cfg, 2..4, |id| Alg1::new(id, 4));
        lo.client(NodeId(0)).write(11).unwrap();
        hi.client(NodeId(3)).write(44).unwrap();
        let view = lo.client(NodeId(1)).snapshot().unwrap();
        assert_eq!(view.value_of(NodeId(0)), Some(11));
        assert_eq!(view.value_of(NodeId(3)), Some(44));
        hi.shutdown();
        lo.shutdown();
    }

    /// Finds a base port with `n` consecutive free UDP ports (best
    /// effort — bound briefly, then released for the cluster to take).
    fn pick_base_port(n: u16) -> u16 {
        for base in (20_000..60_000).step_by(101) {
            let held: Vec<_> = (0..n)
                .map(|i| UdpSocket::bind(("127.0.0.1", base + i)))
                .collect();
            if held.iter().all(Result::is_ok) {
                return base;
            }
        }
        panic!("no free port range found");
    }
}
