//! The real-socket backend: nodes exchanging protocol messages over UDP
//! on localhost.
//!
//! A [`SocketCluster`] node is the engine a [`Cluster`](crate::Cluster)
//! node is — the protocol instance, stepped by whichever thread has work
//! for it, with the same control plane, driver rules and fault plane —
//! behind a real `UdpSocket` bound to `127.0.0.1`, with the
//! wire codec ([`sss_types::WireMsg`]) between the protocol and the
//! kernel. Only the flush differs: peer traffic is coalesced per
//! destination ([`sss_types::Outbox`]), packed per peer into shared
//! datagrams and handed to one `sendmmsg` by the flushing thread, while
//! loopback self-traffic rides the node's inbox data lane as in process.
//! Two kinds of thread step a node:
//!
//! * **the invoking thread** — `Client::write` / `snapshot` / `submit`
//!   queue the invocation and step the home node inline, so the
//!   operation's first datagrams leave from the caller's own `sendmmsg`
//!   without a thread wake-up;
//! * **a reactor** — one thread per core (at most one per hosted node),
//!   each owning a fixed subset of the node sockets in one epoll set. It
//!   blocks in one `epoll_pwait2` until a socket has datagrams or the
//!   earliest round deadline of its nodes passes, receives from the ready
//!   sockets without blocking (one `recvmmsg` each, into buffers the
//!   thread owns), moves the decoded frames onto the node's inbox data
//!   lane, and drives the node.
//!
//! The lock rule is the in-process one, over a driver domain of one node
//! (so the reactors step different nodes in parallel): a thread that
//! loses the domain's `try_lock` walks away, and the holder re-scans the
//! node after releasing it — its inbox and its round deadline. A reactor
//! receives whether or not it wins the domain, so what it leaves for the
//! holder is always in the inbox: no datagram waits in a socket nobody
//! reads, and no thread polls a domain someone else holds. A reactor
//! that finds a due round's domain held does not wait on that deadline
//! again until the holder has fired it or a round interval has passed.
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

use crate::backend::run_workload;
use crate::engine::{Engines, Node, RoundTimer, Transport, Wire, WorkList};
use crate::mmsg::{self, OutDatagram, Poller, RecvBatch, SendScratch};
use crate::{ClusterConfig, Shared};
use sss_net::{Backend, FaultPlan, RunReport, WorkloadSpec};
use sss_obs::Tracer;
use sss_types::{
    decode_frames, encode_frame, encode_wake, DecodedFrame, NodeId, Protocol, WireMsg,
    MAX_DATAGRAM_BYTES,
};
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Datagrams taken per receive call (each receive slot holds one).
/// Every reactor thread allocates one set of slots for all its nodes.
const RECV_SLOTS: usize = 16;

/// Soft cap on packed-datagram size: frames for the same peer share a
/// datagram until it reaches this many bytes.
const PACK_BUDGET: usize = 8 << 10;
const _: () = assert!(PACK_BUDGET <= MAX_DATAGRAM_BYTES);

/// Kernel receive-buffer request per node socket (best-effort; clamped
/// by `rmem_max`).
const RCVBUF: usize = 4 << 20;

/// Configuration of a [`SocketCluster`]: the shared [`ClusterConfig`]
/// plus the port to bind.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// The node/fault-plane/batching configuration, identical in meaning
    /// to the threaded runtime's.
    pub cluster: ClusterConfig,
    /// `0` binds every node to an ephemeral port (single-process);
    /// non-zero binds node `i` to `127.0.0.1:base_port + i`, which is
    /// what lets multiple processes host disjoint node subsets.
    pub base_port: u16,
}

impl SocketConfig {
    /// Defaults for `n` nodes: ephemeral loopback ports. Every socket
    /// cluster takes 16 datagrams per receive call, packs datagrams up
    /// to 8 KiB and requests a 4 MiB kernel receive buffer per socket.
    pub fn new(n: usize) -> Self {
        SocketConfig {
            cluster: ClusterConfig::new(n),
            base_port: 0,
        }
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

/// What every driver of a socket node needs outside its domain lock.
pub(crate) struct UdpNet {
    /// The hosted nodes' sockets, by node index minus `hosted.start`.
    socks: Vec<UdpSocket>,
    /// Every node's address (hosted here or in another process).
    addrs: Vec<SocketAddr>,
    /// An encoded wake frame: a datagram that makes a reactor look at a
    /// node without carrying any traffic.
    wake: Vec<u8>,
}

/// A socket node's send state, kept under its domain lock: the packed
/// datagrams of the flush in progress, whose buffers are reused by the
/// next flush.
pub(crate) struct UdpPort {
    grams: Vec<OutDatagram>,
    /// How many of `grams` the current flush has filled.
    used: usize,
    /// Per destination, the datagram of this flush still being packed.
    open: Vec<Option<usize>>,
    /// Frames packed by this flush.
    frames: u64,
    scratch: SendScratch,
}

impl UdpPort {
    fn new(n: usize) -> Self {
        UdpPort {
            grams: Vec::new(),
            used: 0,
            open: vec![None; n],
            frames: 0,
            scratch: SendScratch::default(),
        }
    }

    /// Starts a fresh datagram to `to` (reusing a buffer of an earlier
    /// flush where there is one) and returns its index.
    fn open_gram(&mut self, to: NodeId, dest: SocketAddr) -> usize {
        let gi = self.used;
        match self.grams.get_mut(gi) {
            Some(g) => {
                g.dest = dest;
                g.buf.clear();
            }
            None => self.grams.push(OutDatagram {
                dest,
                buf: Vec::new(),
            }),
        }
        self.used += 1;
        self.open[to.index()] = Some(gi);
        gi
    }

    /// Encodes one frame into the destination's open datagram (or a
    /// fresh one past the pack budget). Returns `false` if the message is
    /// too large for any datagram.
    fn pack<M: WireMsg>(&mut self, me: NodeId, to: NodeId, msg: &M, net: &UdpNet) -> bool {
        let dest = net.addrs[to.index()];
        let gi = match self.open[to.index()] {
            Some(gi) if self.grams[gi].buf.len() < PACK_BUDGET => gi,
            _ => self.open_gram(to, dest),
        };
        let start = self.grams[gi].buf.len();
        if encode_frame(me, msg, &mut self.grams[gi].buf).is_err() {
            return false;
        }
        if self.grams[gi].buf.len() > MAX_DATAGRAM_BYTES {
            // The frame itself fits a datagram (encode_frame guarantees it)
            // but not *this* one: move it into its own.
            let tail = self.grams[gi].buf.split_off(start);
            let gj = self.open_gram(to, dest);
            self.grams[gj].buf = tail;
        }
        true
    }
}

impl Transport for UdpPort {
    type Net = UdpNet;
    /// One domain per node, so the reactors step nodes in parallel.
    const CLUSTER_DOMAIN: bool = false;
}

impl<P: Protocol> Wire<P> for UdpPort
where
    P::Msg: WireMsg,
{
    /// A reply is a kernel round trip and a reactor wake-up away; a
    /// client that yield-spins for it only takes the processor the
    /// reactors need.
    const PATIENCE: Duration = Duration::ZERO;

    fn send(
        &mut self,
        eng: &Engines<P, Self>,
        _: &mut WorkList,
        me: NodeId,
        to: NodeId,
        msg: P::Msg,
        duplicate: bool,
    ) {
        for _ in 0..=usize::from(duplicate) {
            if self.pack(me, to, &msg, &eng.net) {
                self.frames += 1;
            } else {
                // The message cannot fit one datagram (only reachable for
                // Alg3 SAVE bundles at n ≳ 60): account it like in-flight
                // loss — the protocols retransmit around drops.
                eng.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn finish(&mut self, eng: &Engines<P, Self>, me: NodeId) {
        if self.used > 0 {
            let grams = &self.grams[..self.used];
            let syscalls = mmsg::send_batch(eng.sock(me.index()), grams, &mut self.scratch);
            let shared = &eng.shared;
            shared.send_syscalls.fetch_add(syscalls, Ordering::Relaxed);
            shared.frames_sent.fetch_add(self.frames, Ordering::Relaxed);
        }
        self.used = 0;
        self.frames = 0;
        self.open.fill(None);
    }

    fn hand_off(eng: &Engines<P, Self>, node: usize) {
        eng.wake(node);
    }
}

/// A cluster of protocol nodes exchanging messages over real UDP sockets
/// on localhost. The public surface mirrors [`Cluster`](crate::Cluster)
/// — clients, fault injection, plan replay, history, counters — so
/// tests and experiments swap backends without code changes.
pub struct SocketCluster<P: Protocol> {
    core: Arc<Engines<P, UdpPort>>,
    /// The reactor threads (empty once halted).
    reactors: Vec<JoinHandle<()>>,
    cfg: SocketConfig,
}

impl<P: Protocol + 'static> SocketCluster<P>
where
    P::Msg: WireMsg,
{
    /// Binds `cfg.cluster.n` UDP sockets on loopback, builds a node
    /// engine behind each, and starts the reactor threads.
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
                mmsg::request_rcvbuf(&sock, RCVBUF);
                sock
            })
            .collect();
        let addrs: Vec<SocketAddr> = if cfg.base_port == 0 {
            socks
                .iter()
                .map(|s| s.local_addr().expect("a bound socket has an address"))
                .collect()
        } else {
            (0..n).map(|i| cfg.addr_of(i)).collect()
        };
        let shared = Arc::new(Shared::new(&cfg.cluster, tracer));
        let nodes = (0..n)
            .map(|i| {
                let hosted = hosted.contains(&i);
                hosted.then(|| Node::new(mk(NodeId(i)), &cfg.cluster, UdpPort::new(n)))
            })
            .collect();
        let mut wake = Vec::new();
        encode_wake(&mut wake);
        let net = UdpNet { socks, addrs, wake };
        let core = Arc::new(Engines::new(
            nodes,
            shared,
            cfg.cluster.clone(),
            hosted.clone(),
            net,
        ));
        // Reactor `r` owns hosted nodes `start + r`, `start + r + threads`,
        // …; its first node's socket is where a wake datagram reaches it.
        let threads = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(hosted.len());
        let reactors = (0..threads)
            .map(|r| {
                let mine: Vec<usize> = hosted.clone().skip(r).step_by(threads).collect();
                let mut poller = Poller::new().expect("create a reactor's epoll set");
                for &i in &mine {
                    poller
                        .add(core.sock(i), i as u64)
                        .expect("register a node socket");
                }
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("sss-reactor-{r}"))
                    .spawn(move || core.reactor(&mine, poller))
                    .expect("spawn a socket reactor")
            })
            .collect();
        SocketCluster {
            core,
            reactors,
            cfg,
        }
    }

    engine_shell!();

    /// The configuration this cluster runs with.
    pub fn config(&self) -> &SocketConfig {
        &self.cfg
    }

    /// Every node's UDP address (hosted here or remotely).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.core.net.addrs
    }

    /// Stops this process's reactor threads and returns the hosted
    /// nodes' final protocol states.
    pub fn shutdown(mut self) -> Vec<P> {
        self.halt().expect("socket reactor panicked")
    }
}

impl<P: Protocol> SocketCluster<P> {
    /// Stops and joins the reactors, then takes the node engines out.
    /// Idempotent: a second call finds nothing left to take.
    fn halt(&mut self) -> std::thread::Result<Vec<P>> {
        self.core.stop.store(true, Ordering::SeqCst);
        for r in 0..self.reactors.len() {
            // Any datagram ends the reactor's wait; it then sees `stop`.
            self.core.wake(self.core.hosted.start + r);
        }
        let mut joined = Ok(());
        for reactor in self.reactors.drain(..) {
            joined = joined.and(reactor.join());
        }
        joined.map(|()| self.core.take_nodes())
    }
}

impl<P: Protocol> Drop for SocketCluster<P> {
    /// A cluster dropped without [`SocketCluster::shutdown`] still stops
    /// its reactors (a panic of which `Drop` must not re-raise).
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

impl<P: Protocol> Engines<P, UdpPort> {
    /// Node `i`'s socket (`i` must be hosted).
    fn sock(&self, i: usize) -> &UdpSocket {
        &self.net.socks[i - self.hosted.start]
    }

    /// Makes node `i`'s reactor look at the node: a wake datagram from
    /// the node's own socket to itself.
    fn wake(&self, i: usize) {
        let _ = self.sock(i).send_to(&self.net.wake, self.net.addrs[i]);
    }
}

impl<P: Protocol> Engines<P, UdpPort>
where
    P::Msg: WireMsg,
{
    /// A reactor thread: blocks until a socket of `mine` has datagrams or
    /// the earliest of their round deadlines passes, receives from every
    /// ready socket and drives its node, then drives the nodes whose
    /// round is due — except one whose domain it found held on that
    /// deadline, which the holder owes the round ([`RoundTimer`]).
    fn reactor(&self, mine: &[usize], mut poller: Poller) {
        let shared = &*self.shared;
        // The receive buffers belong to the thread, not to a node.
        let mut rx = RecvBatch::new(RECV_SLOTS);
        let mut frames = Vec::new();
        let mut timer = RoundTimer::new(self.cfg.n);
        let mut next = timer.fire(self, mine.iter().copied());
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = Duration::from_micros(next.saturating_sub(shared.now_us()));
            let ready = poller
                .wait(Some(timeout))
                .expect("wait on the reactor's epoll set");
            shared.recv_syscalls.fetch_add(1, Ordering::Relaxed);
            for i in ready {
                self.receive(i as usize, &mut rx, &mut frames);
                self.drive(i as usize);
            }
            next = timer.fire(self, mine.iter().copied());
        }
    }

    /// Takes one batch of datagrams off node `i`'s socket and moves the
    /// decoded frames onto the node's inbox data lane, whoever holds its
    /// engine. A frame that fails the checksum (or any structural check)
    /// is a drop — the same observable as fault-plane channel corruption
    /// — and poisons nothing.
    fn receive(&self, i: usize, rx: &mut RecvBatch, frames: &mut Vec<(NodeId, P::Msg)>) {
        let shared = &*self.shared;
        rx.recv(self.sock(i));
        shared.recv_syscalls.fetch_add(1, Ordering::Relaxed);
        let mut rejected = 0u64;
        for dg in rx.datagrams() {
            for frame in decode_frames::<P::Msg>(dg, self.cfg.n) {
                match frame {
                    Ok(DecodedFrame::Msg { from, msg }) => frames.push((from, msg)),
                    Ok(DecodedFrame::Wake) => {}
                    Err(_) => rejected += 1,
                }
            }
        }
        if !frames.is_empty() {
            shared
                .frames_recv
                .fetch_add(frames.len() as u64, Ordering::Relaxed);
            self.slots[i].inbox.push_data_all(frames);
        }
        if rejected > 0 {
            shared
                .frames_rejected
                .fetch_add(rejected, Ordering::Relaxed);
            shared.dropped.fetch_add(rejected, Ordering::Relaxed);
        }
    }
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

    fn run_traced(
        &mut self,
        plan: &FaultPlan,
        workload: &WorkloadSpec,
        tracer: &Tracer,
    ) -> RunReport {
        let cluster = SocketCluster::new_traced(self.cfg.clone(), tracer.clone(), &mut self.mk);
        let core = Arc::clone(&cluster.core);
        run_workload("sockets", &core, plan, workload, || cluster.shutdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::{Alg1, Alg3, Alg3Config};
    use sss_net::unique_value;
    use sss_types::{OpResponse, SnapshotOp};
    use std::time::Instant;

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

    /// A closed-loop session at n = 8 with four clients per node —
    /// writes back to back, every 64th operation a snapshot — on the
    /// default configuration loses nothing: no link-model drop, no
    /// checksum reject, and every frame that left a socket arrived but
    /// for the gossip still in flight when the counters are read.
    #[test]
    fn closed_loop_session_is_loss_free() {
        const N: usize = 8;
        const CLIENTS_PER_NODE: u64 = 4;
        const OPS_PER_CLIENT: u64 = 128;
        let cluster = SocketCluster::new(SocketConfig::new(N), |id| Alg1::new(id, N));
        std::thread::scope(|scope| {
            for k in 0..N {
                for c in 0..CLIENTS_PER_NODE {
                    let client = cluster.client(NodeId(k));
                    scope.spawn(move || {
                        for i in 0..OPS_PER_CLIENT {
                            if i % 64 == 63 {
                                client.snapshot().expect("snapshot");
                            } else {
                                // Values are unique per node: the node's
                                // clients take disjoint sequence ranges.
                                let seq = c * OPS_PER_CLIENT + i + 1;
                                client
                                    .write(unique_value(client.node(), seq))
                                    .expect("write");
                            }
                        }
                    });
                }
            }
        });
        let stats = cluster.net_stats();
        assert_eq!(cluster.messages_dropped(), 0);
        assert_eq!(stats.frames_rejected, 0);
        let in_flight = stats.frames_sent.saturating_sub(stats.frames_recv);
        assert!(
            in_flight <= (stats.frames_sent / 1_000).max(64),
            "{} frames sent, {} received",
            stats.frames_sent,
            stats.frames_recv
        );
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
        // One reject per junk datagram, each counted by the node's reactor.
        let guard = Instant::now() + Duration::from_secs(10);
        while cluster.net_stats().frames_rejected < 2 * cluster.addrs().len() as u64 {
            assert!(
                Instant::now() < guard,
                "garbage frames must be counted as rejects"
            );
            std::thread::yield_now();
        }
        let before = cluster.net_stats().frames_rejected;
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
        // Gossip re-teaches p0 its own timestamp within a few rounds.
        cluster.await_rounds(3);
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

    /// Two closed-loop clients × 5k operations plus a generator keeping
    /// 32 `submit`s in flight, on a cluster whose first round is 10 s
    /// away: every operation must be carried by the invoking threads and
    /// the reactors. A datagram left in a socket nobody reads, or a push
    /// lost between a failed `try_lock` and the holder's re-scan, would
    /// sit until that round (the clients' 5 s timeout fails first).
    fn socket_loads_finish_before_the_first_round<P: Protocol + 'static>(
        mk: impl FnMut(NodeId) -> P,
    ) where
        P::Msg: WireMsg,
    {
        const OPS: u64 = 5_000;
        const IN_FLIGHT: u64 = 32;
        let n = 3;
        let mut cfg = SocketConfig::new(n);
        cfg.cluster.round_interval = Duration::from_secs(10);
        let cluster = SocketCluster::new(cfg, mk);
        let guard = Instant::now() + Duration::from_secs(60);
        std::thread::scope(|scope| {
            for c in 0..2 {
                let client = cluster.client(NodeId(c));
                scope.spawn(move || {
                    for k in 0..OPS {
                        if k % 2 == 0 {
                            let v = unique_value(client.node(), k + 1);
                            client.write(v).expect("write");
                        } else {
                            client.snapshot().expect("snapshot");
                        }
                    }
                });
            }
            let clients: Vec<_> = (0..n).map(|k| cluster.client(NodeId(k))).collect();
            let (done_tx, done_rx) = crossbeam::channel::unbounded::<OpResponse>();
            let submit = |k: u64| {
                let node = NodeId(k as usize % n);
                let op = if k % 4 == 3 {
                    SnapshotOp::Snapshot
                } else {
                    SnapshotOp::Write(unique_value(node, OPS + k + 1))
                };
                clients[node.index()]
                    .submit(op, done_tx.clone())
                    .expect("submit");
            };
            (0..IN_FLIGHT).for_each(submit);
            for k in IN_FLIGHT..OPS + IN_FLIGHT {
                let left = guard.saturating_duration_since(Instant::now());
                done_rx.recv_timeout(left).expect("submitted ops stalled");
                if k < OPS {
                    submit(k);
                }
            }
        });
        assert_eq!(cluster.net_stats().rounds, 0, "no round was needed");
        cluster.shutdown();
    }

    #[test]
    fn alg1_socket_loads_do_not_depend_on_rounds() {
        socket_loads_finish_before_the_first_round(|id| Alg1::new(id, 3));
    }

    #[test]
    fn alg3_socket_loads_do_not_depend_on_rounds() {
        socket_loads_finish_before_the_first_round(|id| Alg3::new(id, 3, Alg3Config::default()));
    }

    /// Between rounds an idle cluster's reactors block: a node round costs
    /// the receive side a few syscalls (a wait and a receive per gossip
    /// datagram, a wait for the round timer), so a reactor that spun on
    /// an engine or a socket fails this by counts, not by time.
    #[test]
    fn idle_socket_reactors_do_not_spin() {
        let cluster = SocketCluster::new(SocketConfig::new(3), |id| Alg1::new(id, 3));
        let before = cluster.net_stats();
        cluster.await_rounds(50);
        let after = cluster.net_stats();
        let rounds = after.rounds - before.rounds;
        let recv = after.recv_syscalls - before.recv_syscalls;
        assert!(rounds >= 150, "{rounds} node rounds");
        assert!(
            recv <= 10 * rounds,
            "{recv} receive-side syscalls over {rounds} node rounds"
        );
        cluster.shutdown();
    }

    #[test]
    fn socket_control_calls_apply_before_they_return() {
        // No round fires during the test, so no gossip can re-teach p0
        // its write index between the restart and the shutdown.
        let mut cfg = SocketConfig::new(3);
        cfg.cluster.round_interval = Duration::from_secs(10);
        let cluster = SocketCluster::new(cfg, |id| Alg1::new(id, 3));
        cluster.crash(NodeId(2));
        assert!(
            cluster
                .availability(NodeId(2))
                .expect("crashed")
                .node_crashed
        );
        cluster.resume(NodeId(2));
        assert!(cluster.availability(NodeId(2)).is_none());
        cluster.client(NodeId(0)).write(1).unwrap();
        cluster.restart(NodeId(0));
        let protos = cluster.shutdown();
        assert_eq!(
            protos[0].stats().write_index,
            0,
            "restart re-initialized p0"
        );
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
