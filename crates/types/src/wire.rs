//! The zero-copy wire codec of the socket backend.
//!
//! Messages travelling over real UDP sockets are packed into
//! length-prefixed **frames**; one datagram carries one or more frames
//! back-to-back (the socket backend packs a whole flush's frames to the
//! same destination into one datagram, so syscall batching and frame
//! packing compose). The format is deliberately boring:
//!
//! ```text
//! frame   := header body
//! header  := magic:u16  version:u8  flags:u8  from:u16  len:u16  check:u32
//! body    := len bytes, message-defined (tag byte + fields, all LE)
//! ```
//!
//! * `magic`/`version` reject foreign or stale traffic outright;
//! * `from` is the sender's node index (`u16::MAX` marks a *wake* frame —
//!   an empty frame whose only job is to make the receiving socket ready,
//!   so the thread waiting on it looks at the node);
//! * `check` is an FNV-1a-64 checksum folded to 32 bits, covering the
//!   first 8 header bytes and the body, so any bit flip in flight — the
//!   fault model's channel corruption — surfaces as a decode error the
//!   receiver accounts as a drop, never as a panic or a poisoned state
//!   machine.
//!
//! Decoding is allocation-frugal rather than literally zero-copy (the
//! workspace forbids `unsafe`, so cells cannot be pointer-cast out of the
//! receive buffer): a register array is read straight from the buffer
//! into **one** `Vec<Tagged>` collected exactly once and wrapped in the
//! same `Arc`-shared [`Payload`] the in-process backends pass around —
//! no per-cell allocation and no intermediate copies, so a receiver
//! merges a decoded payload exactly as it merges one passed in process.
//!
//! Messages opt in by implementing [`WireMsg`]; the protocol crates
//! provide implementations for the paper's Algorithm 1 and Algorithm 3
//! message sets.

use crate::{NodeId, Payload, ProtoMsg, RegArray, Tagged};

/// Codec format version (bumped on any incompatible layout change).
pub const WIRE_VERSION: u8 = 1;
/// Frame-header magic: `"SW"` little-endian (Snapshot Wire).
pub const WIRE_MAGIC: u16 = u16::from_le_bytes(*b"SW");
/// Encoded size of a frame header, in bytes.
pub const FRAME_HEADER_BYTES: usize = 12;
/// The `from` sentinel of wake frames.
const WAKE_SENDER: u16 = u16::MAX;
/// Header flag bit marking a wake frame.
const FLAG_WAKE: u8 = 0b0000_0001;
/// Largest usable UDP payload (IPv4, no jumbograms): frames must fit.
pub const MAX_DATAGRAM_BYTES: usize = 65_507;

/// Why a frame failed to decode. All variants map to *drops* at the
/// socket layer — a self-stabilizing protocol treats a mangled channel
/// exactly like a lossy one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the advertised length.
    Truncated,
    /// The magic bytes did not match — not our traffic.
    BadMagic,
    /// An unknown format version.
    BadVersion(u8),
    /// The checksum did not match the bytes (bit flip in flight).
    BadChecksum,
    /// An unknown message tag byte.
    BadTag(u8),
    /// A structurally invalid field (array count mismatch, trailing
    /// bytes, out-of-range node index).
    BadLength,
    /// The sender index is not a valid node of this system.
    BadNode,
    /// The message does not fit a single UDP datagram (encode-side).
    TooLong,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadLength => write!(f, "structurally invalid frame body"),
            WireError::BadNode => write!(f, "sender index out of range"),
            WireError::TooLong => write!(f, "message exceeds one datagram"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a-64 over the first 8 header bytes and the body, folded to 32
/// bits. Not cryptographic — it guards against corruption, not forgery,
/// matching the fault model (arbitrary channel state, no adversary).
fn checksum(hdr: &[u8], body: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in hdr.iter().chain(body.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// Messages that know how to lay themselves out on the wire. Encode and
/// decode must round-trip exactly: `decode(encode(m)) == m` (the codec
/// proptest pins this for every variant).
pub trait WireMsg: ProtoMsg + Sized {
    /// Appends the body (tag byte first, then fields) to the writer.
    fn encode_body(&self, w: &mut WireWriter<'_>);

    /// Parses one body for a system of `n` processes. Must be total:
    /// any byte sequence yields `Ok` or a [`WireError`], never a panic.
    ///
    /// # Errors
    ///
    /// A [`WireError`] describing the first structural problem found.
    fn decode_body(r: &mut WireReader<'_>, n: usize) -> Result<Self, WireError>;
}

/// Little-endian append-only writer over a caller-owned byte buffer
/// (reused across frames, so steady-state encoding allocates nothing).
pub struct WireWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> WireWriter<'a> {
    /// Wraps `buf`, appending after its current contents.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one register cell as `(ts, val)`.
    pub fn cell(&mut self, c: Tagged) {
        self.u64(c.ts);
        self.u64(c.val);
    }

    /// Appends a length-prefixed run of register cells (a `reg` array, a
    /// snapshot view, …).
    pub fn cells<I: IntoIterator<Item = Tagged>>(&mut self, count: usize, cells: I) {
        debug_assert!(count <= u16::MAX as usize);
        self.u16(count as u16);
        for c in cells {
            self.cell(c);
        }
    }

    /// Appends a length-prefixed vector-clock component run.
    pub fn clock(&mut self, components: &[u64]) {
        debug_assert!(components.len() <= u16::MAX as usize);
        self.u16(components.len() as u16);
        for &c in components {
            self.u64(c);
        }
    }
}

/// Bounds-checked little-endian reader over a received frame body. Every
/// accessor fails with [`WireError::Truncated`] instead of panicking —
/// arbitrary bytes are a legal input (that *is* the fault model).
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] past the end of the buffer (likewise for
    /// every other accessor).
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads one register cell.
    pub fn cell(&mut self) -> Result<Tagged, WireError> {
        Ok(Tagged {
            ts: self.u64()?,
            val: self.u64()?,
        })
    }

    /// Reads a length-prefixed cell run that must contain exactly
    /// `expect` cells, collecting it in **one** allocation.
    pub fn cells<T: FromIterator<Tagged>>(&mut self, expect: usize) -> Result<T, WireError> {
        let count = self.u16()? as usize;
        if count != expect {
            return Err(WireError::BadLength);
        }
        let bytes = self.take(count * 16)?;
        Ok(bytes
            .chunks_exact(16)
            .map(|c| Tagged {
                ts: u64::from_le_bytes(c[..8].try_into().unwrap()),
                val: u64::from_le_bytes(c[8..].try_into().unwrap()),
            })
            .collect())
    }

    /// Reads a full `reg` array for `n` processes into an `Arc`-shared
    /// [`Payload`] — the borrow-decode path: cells are read straight from
    /// the receive buffer into one exactly-sized `Vec`, so deserializing
    /// a register array costs one allocation, not `n`.
    pub fn payload(&mut self, n: usize) -> Result<Payload, WireError> {
        Ok(Payload::new(self.cells::<RegArray>(n)?))
    }

    /// Reads a length-prefixed vector-clock component run of exactly
    /// `expect` components.
    pub fn clock_components(&mut self, expect: usize) -> Result<Vec<u64>, WireError> {
        let count = self.u16()? as usize;
        if count != expect {
            return Err(WireError::BadLength);
        }
        let bytes = self.take(count * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Declares the body fully parsed: trailing bytes are a structural
    /// error (they would silently desynchronize a packed datagram).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::BadLength)
        }
    }
}

/// Appends one encoded frame carrying `msg` from node `from` to `out`.
///
/// # Errors
///
/// [`WireError::TooLong`] if the encoded message cannot fit a single
/// UDP datagram (`out` is rolled back); callers account this as a drop.
pub fn encode_frame<M: WireMsg>(from: NodeId, msg: &M, out: &mut Vec<u8>) -> Result<(), WireError> {
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(0); // flags
    out.extend_from_slice(&(from.index() as u16).to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // len, patched below
    out.extend_from_slice(&0u32.to_le_bytes()); // checksum, patched below
    let body_start = out.len();
    msg.encode_body(&mut WireWriter::new(out));
    let body_len = out.len() - body_start;
    if body_len > u16::MAX as usize || out.len() - start > MAX_DATAGRAM_BYTES {
        out.truncate(start);
        return Err(WireError::TooLong);
    }
    out[start + 6..start + 8].copy_from_slice(&(body_len as u16).to_le_bytes());
    let check = {
        let (hdr, body) = out[start..].split_at(FRAME_HEADER_BYTES);
        checksum(&hdr[..8], body)
    };
    out[start + 8..start + 12].copy_from_slice(&check.to_le_bytes());
    Ok(())
}

/// Appends a wake frame — header-only, `from = u16::MAX`, the wake flag
/// set. Decoders surface it as [`DecodedFrame::Wake`]; its only effect
/// is that its arrival ends a readiness wait.
pub fn encode_wake(out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(FLAG_WAKE);
    out.extend_from_slice(&WAKE_SENDER.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    let check = checksum(&out[start..start + 8], &[]);
    out.extend_from_slice(&check.to_le_bytes());
}

/// One successfully decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub enum DecodedFrame<M> {
    /// A protocol message from `from`.
    Msg {
        /// The sending node (validated against `n`).
        from: NodeId,
        /// The decoded message.
        msg: M,
    },
    /// A wake frame (no payload; the arrival itself was the point).
    Wake,
}

/// Iterates the frames packed into one datagram. Yields decoded frames
/// until the buffer is exhausted or the first error; after an error the
/// iterator stops (a corrupted length prefix leaves no trustworthy
/// resynchronization point), so one mangled datagram costs at most the
/// frames behind the flip — which retransmission already covers.
pub struct FrameIter<'a, M> {
    buf: &'a [u8],
    pos: usize,
    n: usize,
    dead: bool,
    _marker: std::marker::PhantomData<fn() -> M>,
}

/// Frames packed into `datagram`, for a system of `n` processes.
pub fn decode_frames<M: WireMsg>(datagram: &[u8], n: usize) -> FrameIter<'_, M> {
    FrameIter {
        buf: datagram,
        pos: 0,
        n,
        dead: false,
        _marker: std::marker::PhantomData,
    }
}

impl<M: WireMsg> FrameIter<'_, M> {
    fn next_frame(&mut self) -> Result<DecodedFrame<M>, WireError> {
        let buf = &self.buf[self.pos..];
        if buf.len() < FRAME_HEADER_BYTES {
            return Err(WireError::Truncated);
        }
        if u16::from_le_bytes(buf[0..2].try_into().unwrap()) != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        if buf[2] != WIRE_VERSION {
            return Err(WireError::BadVersion(buf[2]));
        }
        let flags = buf[3];
        let from = u16::from_le_bytes(buf[4..6].try_into().unwrap());
        let len = u16::from_le_bytes(buf[6..8].try_into().unwrap()) as usize;
        let check = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if buf.len() < FRAME_HEADER_BYTES + len {
            return Err(WireError::Truncated);
        }
        let body = &buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
        if checksum(&buf[..8], body) != check {
            return Err(WireError::BadChecksum);
        }
        self.pos += FRAME_HEADER_BYTES + len;
        if flags & FLAG_WAKE != 0 {
            return Ok(DecodedFrame::Wake);
        }
        if (from as usize) >= self.n {
            return Err(WireError::BadNode);
        }
        let mut r = WireReader::new(body);
        let msg = M::decode_body(&mut r, self.n)?;
        r.finish()?;
        Ok(DecodedFrame::Msg {
            from: NodeId(from as usize),
            msg,
        })
    }
}

impl<M: WireMsg> Iterator for FrameIter<'_, M> {
    type Item = Result<DecodedFrame<M>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.dead || self.pos >= self.buf.len() {
            return None;
        }
        match self.next_frame() {
            Ok(f) => Some(Ok(f)),
            Err(e) => {
                self.dead = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cell_bits, MsgKind};

    /// A toy message: one cell, mirroring gossip.
    #[derive(Clone, Debug, PartialEq)]
    struct Cellgram(Tagged);

    impl ProtoMsg for Cellgram {
        fn kind(&self) -> MsgKind {
            MsgKind::Gossip
        }
        fn size_bits(&self, nu: u32) -> u64 {
            64 + cell_bits(nu)
        }
    }

    impl WireMsg for Cellgram {
        fn encode_body(&self, w: &mut WireWriter<'_>) {
            w.u8(0);
            w.cell(self.0);
        }
        fn decode_body(r: &mut WireReader<'_>, _n: usize) -> Result<Self, WireError> {
            match r.u8()? {
                0 => Ok(Cellgram(r.cell()?)),
                t => Err(WireError::BadTag(t)),
            }
        }
    }

    fn frame(msg: &Cellgram) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(NodeId(1), msg, &mut out).unwrap();
        out
    }

    #[test]
    fn roundtrip_single_frame() {
        let m = Cellgram(Tagged { ts: 7, val: 99 });
        let buf = frame(&m);
        let frames: Vec<_> = decode_frames::<Cellgram>(&buf, 3).collect();
        assert_eq!(
            frames,
            vec![Ok(DecodedFrame::Msg {
                from: NodeId(1),
                msg: m
            })]
        );
    }

    #[test]
    fn packed_datagram_decodes_in_order() {
        let mut buf = Vec::new();
        for ts in 1..=4u64 {
            encode_frame(NodeId(0), &Cellgram(Tagged { ts, val: ts }), &mut buf).unwrap();
        }
        encode_wake(&mut buf);
        let frames: Vec<_> = decode_frames::<Cellgram>(&buf, 2)
            .map(Result::unwrap)
            .collect();
        assert_eq!(frames.len(), 5);
        assert!(matches!(frames[4], DecodedFrame::Wake));
        for (i, f) in frames[..4].iter().enumerate() {
            match f {
                DecodedFrame::Msg { from, msg } => {
                    assert_eq!(*from, NodeId(0));
                    assert_eq!(msg.0.ts, i as u64 + 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_not_panicked() {
        let buf = frame(&Cellgram(Tagged { ts: 3, val: 12 }));
        for bit in 0..buf.len() * 8 {
            let mut mangled = buf.clone();
            mangled[bit / 8] ^= 1 << (bit % 8);
            let frames: Vec<_> = decode_frames::<Cellgram>(&mangled, 3).collect();
            // Either the frame is rejected, or the flip landed somewhere
            // the checksum covers — but the checksum covers everything,
            // so a clean decode of *different* content is impossible.
            match &frames[..] {
                [Err(_)] => {}
                other => panic!("bit {bit}: corrupted frame decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let buf = frame(&Cellgram(Tagged { ts: 3, val: 12 }));
        for cut in 1..buf.len() {
            let frames: Vec<_> = decode_frames::<Cellgram>(&buf[..cut], 3).collect();
            assert!(matches!(frames[..], [Err(_)]), "cut at {cut}");
        }
        let garbage = [0xA5u8; 40];
        assert!(matches!(
            decode_frames::<Cellgram>(&garbage, 3).next(),
            Some(Err(WireError::BadMagic))
        ));
    }

    #[test]
    fn sender_out_of_range_is_rejected() {
        let buf = frame(&Cellgram(Tagged { ts: 1, val: 1 }));
        assert!(matches!(
            decode_frames::<Cellgram>(&buf, 1).next(),
            Some(Err(WireError::BadNode))
        ));
    }

    #[test]
    fn error_stops_the_iterator() {
        let mut buf = frame(&Cellgram(Tagged { ts: 1, val: 1 }));
        let good_len = buf.len();
        buf.extend_from_slice(&[0u8; 7]); // trailing garbage, not even a header
        let mut it = decode_frames::<Cellgram>(&buf, 3);
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "iterator must fuse after an error");
        assert!(good_len < buf.len());
    }

    #[test]
    fn payload_reader_checks_counts() {
        let mut body = Vec::new();
        let mut w = WireWriter::new(&mut body);
        w.cells(2, [Tagged { ts: 1, val: 5 }, Tagged { ts: 2, val: 6 }]);
        // Right count decodes into one shared payload.
        let p = WireReader::new(&body).payload(2).unwrap();
        assert_eq!(p.get(NodeId(1)).val, 6);
        // Wrong expected count is structural, not a panic.
        assert_eq!(
            WireReader::new(&body).payload(3).unwrap_err(),
            WireError::BadLength
        );
    }
}
