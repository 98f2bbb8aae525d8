//! The socket backend's syscalls: one readiness wait over many sockets,
//! batched receives and batched sends.
//!
//! A socket node's traffic crosses the kernel in three kinds of call, all
//! counted. A reactor thread blocks in one [`Poller::wait`]
//! (`epoll_pwait2`, with the earliest round deadline of its nodes as a
//! nanosecond timeout) over every socket it owns; it takes what is queued
//! on a ready socket without blocking ([`RecvBatch::recv`]: one
//! `recvmmsg`);
//! and a flush leaves in one `sendmmsg` ([`send_batch`]). The header,
//! iovec and address arrays the batched calls hand the kernel are kept
//! between calls ([`RecvBatch`], [`SendScratch`]), so a call allocates
//! nothing.
//!
//! The workspace vendors no `libc`, so this module declares the syscall
//! wrappers and their `#[repr(C)]` argument layouts directly (x86-64 /
//! aarch64 Linux ABI — the socket backend is Linux-only); the crate-level
//! `deny(unsafe_code)` is lifted for its `raw` corner alone, and the
//! unsafety is confined to the FFI calls.

pub(crate) use raw::{send_batch, Poller, RecvBatch, SendScratch};
use std::net::{SocketAddr, UdpSocket};

/// Receive-buffer slot size: a slot must hold the largest single frame
/// ([`sss_types::MAX_DATAGRAM_BYTES`]), since a truncated datagram would
/// surface as a spurious checksum reject.
pub(crate) const RECV_SLOT_BYTES: usize = 65_536;

/// One outgoing datagram of a send flush.
pub(crate) struct OutDatagram {
    pub dest: SocketAddr,
    pub buf: Vec<u8>,
}

/// Requests a larger kernel receive buffer (best-effort; the kernel
/// clamps to `rmem_max`), so a burst waits in the kernel while the
/// socket's reactor is busy with another node.
pub(crate) fn request_rcvbuf(sock: &UdpSocket, bytes: usize) {
    raw::set_rcvbuf(sock, bytes);
}

/// The Linux FFI corner: hand-declared `sendmmsg` / `recvmmsg` /
/// `setsockopt` / `epoll_*` and their argument layouts (the workspace
/// vendors no `libc`).
#[allow(unsafe_code)]
mod raw {
    use super::{OutDatagram, RECV_SLOT_BYTES};
    use std::io;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::ptr::{null, null_mut};
    use std::time::Duration;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// `struct sockaddr_in`: `sin_port` and `sin_addr` in network byte
    /// order.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    #[repr(C)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    /// `struct epoll_event`, which the x86-64 ABI packs.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const u8, len: u32) -> i32;
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_pwait2(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout: *const TimeSpec,
            sigmask: *const u8,
        ) -> i32;
    }

    const AF_INET: u16 = 2;
    const MSG_DONTWAIT: i32 = 0x40;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLLIN: u32 = 0x1;

    fn sockaddr_of(addr: SocketAddr) -> SockAddrIn {
        match addr {
            SocketAddr::V4(v4) => SockAddrIn {
                family: AF_INET,
                port: v4.port().to_be(),
                // The octets are already in network (memory) order.
                addr: u32::from_ne_bytes(v4.ip().octets()),
                zero: [0; 8],
            },
            SocketAddr::V6(_) => unreachable!("socket backend binds IPv4 loopback only"),
        }
    }

    /// The arrays one node's [`send_batch`] calls hand the kernel,
    /// kept between calls; the headers are re-pointed at the addresses and
    /// iovecs on every call.
    #[derive(Default)]
    pub(crate) struct SendScratch {
        addrs: Vec<SockAddrIn>,
        iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    // SAFETY: `addrs` is plain data. The raw pointers in `iovs` and `hdrs`
    // are rewritten at the start of every `send_batch` and dereferenced
    // only by the kernel inside it, on the calling thread; between calls
    // nothing reads them.
    unsafe impl Send for SendScratch {}

    /// Sends every datagram in `grams` in as few `sendmmsg` calls as the
    /// kernel takes them, returning the number of calls spent (0 for no
    /// datagrams). A refused or failed remainder (a peer port in a
    /// multi-process cluster that is still starting) is skipped — UDP
    /// gives no delivery guarantee anyway, and the protocols retransmit.
    pub(crate) fn send_batch(sock: &UdpSocket, grams: &[OutDatagram], s: &mut SendScratch) -> u64 {
        s.addrs.clear();
        s.addrs.extend(grams.iter().map(|g| sockaddr_of(g.dest)));
        s.iovs.clear();
        s.iovs.extend(grams.iter().map(|g| IoVec {
            base: g.buf.as_ptr() as *mut u8,
            len: g.buf.len(),
        }));
        let (addrs, iovs) = (s.addrs.as_mut_ptr(), s.iovs.as_mut_ptr());
        s.hdrs.clear();
        s.hdrs.extend((0..grams.len()).map(|i| MMsgHdr {
            hdr: MsgHdr {
                name: addrs.wrapping_add(i).cast(),
                namelen: std::mem::size_of::<SockAddrIn>() as u32,
                iov: iovs.wrapping_add(i),
                iovlen: 1,
                control: null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        }));
        let fd = sock.as_raw_fd();
        let mut sent = 0usize;
        let mut syscalls = 0u64;
        while sent < s.hdrs.len() {
            syscalls += 1;
            // SAFETY: the header array and everything it points into
            // (addrs, iovs, the datagram buffers) are alive across the
            // call; vlen matches the remaining suffix.
            let r = unsafe {
                sendmmsg(
                    fd,
                    s.hdrs.as_mut_ptr().add(sent),
                    (s.hdrs.len() - sent) as u32,
                    0,
                )
            };
            if r <= 0 {
                // UDP offers no delivery guarantee; a refused or failed
                // remainder is equivalent to in-flight loss, which the
                // protocols already retransmit around.
                break;
            }
            sent += r as usize;
        }
        syscalls
    }

    /// A reusable set of receive slots, owned by one reactor thread, and
    /// the `recvmmsg` header and iovec arrays wired to them once (the
    /// slots are boxed, so they stay put when the batch moves).
    pub(crate) struct RecvBatch {
        bufs: Vec<Box<[u8]>>,
        lens: Vec<usize>,
        count: usize,
        _iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    impl RecvBatch {
        pub(crate) fn new(slots: usize) -> Self {
            let mut bufs: Vec<Box<[u8]>> = (0..slots)
                .map(|_| vec![0u8; RECV_SLOT_BYTES].into())
                .collect();
            let mut iovs: Vec<IoVec> = bufs
                .iter_mut()
                .map(|b| IoVec {
                    base: b.as_mut_ptr(),
                    len: b.len(),
                })
                .collect();
            let hdrs = iovs
                .iter_mut()
                .map(|iov| MMsgHdr {
                    hdr: MsgHdr {
                        name: null_mut(),
                        namelen: 0,
                        iov,
                        iovlen: 1,
                        control: null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                })
                .collect();
            RecvBatch {
                bufs,
                lens: vec![0; slots],
                count: 0,
                _iovs: iovs,
                hdrs,
            }
        }

        /// The datagrams the last [`RecvBatch::recv`] filled in.
        pub(crate) fn datagrams(&self) -> impl Iterator<Item = &[u8]> {
            self.bufs[..self.count]
                .iter()
                .zip(&self.lens)
                .map(|(b, &l)| &b[..l])
        }

        /// Takes what is queued on `sock` — at most one batch — without
        /// blocking, in one `recvmmsg`. Any error (the socket was empty,
        /// an interrupt, an ICMP error for an earlier send) ends the
        /// batch: a reactor has no better answer to it than waiting for
        /// the next readiness.
        pub(crate) fn recv(&mut self, sock: &UdpSocket) {
            // SAFETY: every header points at an iovec of `_iovs`, every
            // iovec at a slot of `bufs`, all owned by `self` and alive
            // across the call; vlen is the header count.
            let got = unsafe {
                recvmmsg(
                    sock.as_raw_fd(),
                    self.hdrs.as_mut_ptr(),
                    self.hdrs.len() as u32,
                    MSG_DONTWAIT,
                    null_mut(),
                )
            };
            self.count = usize::try_from(got).unwrap_or(0);
            for (len, h) in self.lens.iter_mut().zip(&self.hdrs[..self.count]) {
                *len = h.len as usize;
            }
        }
    }

    pub(super) fn set_rcvbuf(sock: &UdpSocket, bytes: usize) {
        let val = (bytes as i32).to_ne_bytes();
        // SAFETY: val is a valid 4-byte int for the call's duration.
        // Best-effort: the kernel clamps to rmem_max; failure just means
        // the default buffer, which the loss gate would surface.
        let _ = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                val.as_ptr(),
                val.len() as u32,
            )
        };
    }

    /// An epoll set of UDP sockets, each registered level-triggered for
    /// input under a caller-chosen token.
    pub(crate) struct Poller {
        fd: OwnedFd,
        /// One slot per registered socket: a wait can report them all.
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: no pointer arguments.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                // SAFETY: `fd` is a fresh descriptor nothing else owns.
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
                events: Vec::new(),
            })
        }

        /// Registers `sock`; waits report it as `token` while it has
        /// datagrams queued.
        pub(crate) fn add(&mut self, sock: &UdpSocket, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: token,
            };
            // SAFETY: `ev` is valid for the call.
            let r = unsafe {
                epoll_ctl(
                    self.fd.as_raw_fd(),
                    EPOLL_CTL_ADD,
                    sock.as_raw_fd(),
                    &mut ev,
                )
            };
            if r < 0 {
                return Err(io::Error::last_os_error());
            }
            self.events.push(EpollEvent { events: 0, data: 0 });
            Ok(())
        }

        /// Blocks until a registered socket has datagrams queued or
        /// `timeout` (`None`: no limit) has passed, and returns the tokens
        /// of the ready sockets — none on a timeout or an interrupt.
        pub(crate) fn wait(
            &mut self,
            timeout: Option<Duration>,
        ) -> io::Result<impl Iterator<Item = u64> + '_> {
            let ts = timeout.map(|d| TimeSpec {
                sec: d.as_secs() as i64,
                nsec: i64::from(d.subsec_nanos()),
            });
            let ts_ptr = ts.as_ref().map_or(null(), |t| t as *const TimeSpec);
            // SAFETY: `events` has `len` writable slots and `ts` outlives
            // the call; a null sigmask leaves the signal mask alone.
            let r = unsafe {
                epoll_pwait2(
                    self.fd.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    self.events.len() as i32,
                    ts_ptr,
                    null(),
                )
            };
            let ready = match usize::try_from(r) {
                Ok(ready) => ready,
                Err(_) => match io::Error::last_os_error() {
                    e if e.kind() == io::ErrorKind::Interrupted => 0,
                    e => return Err(e),
                },
            };
            Ok(self.events[..ready].iter().map(|e| e.data))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn bind() -> UdpSocket {
        UdpSocket::bind("127.0.0.1:0").unwrap()
    }

    #[test]
    fn batched_roundtrip() {
        let (tx, rx) = (bind(), bind());
        let dest = rx.local_addr().unwrap();
        let grams: Vec<OutDatagram> = (0..5u8)
            .map(|i| OutDatagram {
                dest,
                buf: vec![i; 3 + i as usize],
            })
            .collect();
        let send_calls = send_batch(&tx, &grams, &mut SendScratch::default());
        assert_eq!(send_calls, 1, "five loopback datagrams in one sendmmsg");
        let mut poller = Poller::new().unwrap();
        poller.add(&rx, 7).unwrap();
        let mut batch = RecvBatch::new(8);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 5 && Instant::now() < deadline {
            let _ = poller
                .wait(Some(Duration::from_millis(100)))
                .unwrap()
                .count();
            batch.recv(&rx);
            got.extend(batch.datagrams().map(<[u8]>::to_vec));
        }
        got.sort();
        let mut want: Vec<Vec<u8>> = grams.iter().map(|g| g.buf.clone()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    /// On an empty socket the readiness wait times out with nothing ready
    /// and a receive finds nothing, at once.
    #[test]
    fn empty_recv_times_out_cleanly() {
        let rx = bind();
        let mut poller = Poller::new().unwrap();
        poller.add(&rx, 3).unwrap();
        let t0 = Instant::now();
        let ready = poller
            .wait(Some(Duration::from_millis(20)))
            .unwrap()
            .count();
        assert_eq!(ready, 0);
        assert!(t0.elapsed() >= Duration::from_millis(15));
        let mut batch = RecvBatch::new(4);
        let t0 = Instant::now();
        batch.recv(&rx);
        assert_eq!(batch.datagrams().count(), 0);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn poller_reports_exactly_the_written_socket() {
        let (quiet, loud, tx) = (bind(), bind(), bind());
        let mut poller = Poller::new().unwrap();
        poller.add(&quiet, 10).unwrap();
        poller.add(&loud, 11).unwrap();
        tx.send_to(b"ping", loud.local_addr().unwrap()).unwrap();
        let ready: Vec<u64> = poller.wait(Some(Duration::from_secs(5))).unwrap().collect();
        assert_eq!(ready, vec![11]);
        let mut batch = RecvBatch::new(4);
        batch.recv(&loud);
        assert_eq!(batch.datagrams().collect::<Vec<_>>(), vec![&b"ping"[..]]);
        let ready = poller.wait(Some(Duration::ZERO)).unwrap().count();
        assert_eq!(ready, 0, "a drained socket is not ready");
    }
}
