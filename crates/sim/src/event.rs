//! The event queue: a deterministic min-heap over (time, sequence number).

use crate::SimTime;
use sss_types::{NodeId, OpId, SnapshotOp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A simulation event.
#[derive(Clone, Debug)]
pub(crate) enum Ev<M> {
    /// A message arrives at `to`.
    Deliver { from: NodeId, to: NodeId, msg: M },
    /// Node executes one `do forever` iteration. The token invalidates
    /// stale round chains across crash/resume boundaries.
    Round { node: NodeId, token: u64 },
    /// A client operation is invoked at `node`.
    Invoke {
        node: NodeId,
        id: OpId,
        op: SnapshotOp,
    },
    /// A fault-plane event takes effect. A corruption with
    /// `seed: Some(_)` is plan-seeded (shared fault plane); with `None`
    /// it draws from the simulator's RNG. Boxed so a fault, which is
    /// rare, does not widen every calendar entry.
    Fault {
        ev: Box<sss_net::FaultEvent>,
        seed: Option<u64>,
    },
    /// Driver wake-up callback carrying an opaque token.
    Wake { token: u64 },
}

#[derive(Clone, Debug)]
pub(crate) struct Entry<M> {
    pub time: SimTime,
    pub seq: u64,
    pub ev: Ev<M>,
}

impl<M> Entry<M> {
    /// The placeholder left in a calendar bucket's consumed prefix.
    fn tombstone() -> Self {
        Entry {
            time: 0,
            seq: 0,
            ev: Ev::Wake { token: 0 },
        }
    }
}

/// Ring width of the calendar queue, in model microseconds. A power of
/// two that comfortably exceeds the densest scheduling horizon (round
/// interval + jitter + message delay is ~200 µs in the stock configs);
/// events scheduled farther ahead take a slow path through an overflow
/// heap and migrate into the ring as the cursor approaches them.
const RING: usize = 1024;
const WORDS: usize = RING / 64;

/// A deterministic event queue: events pop in `(time, seq)` order, so equal
/// times resolve in insertion order and runs are reproducible.
///
/// Implemented as a calendar queue: a ring of per-microsecond FIFO buckets
/// covering the window `[cursor, cursor + RING)`, plus an overflow heap
/// for the far future. Bucket `t % RING` only ever holds entries scheduled
/// for exactly time `t`, and sequence numbers increase monotonically
/// across pushes, so FIFO order within a bucket *is* `(time, seq)` order —
/// push and pop are O(1) on the simulation hot path instead of the
/// O(log len) sift of a binary heap over in-flight messages.
pub(crate) struct EventQueue<M> {
    ring: Vec<Vec<Entry<M>>>,
    /// Consumed prefix of each ring bucket (entries `< pos` were popped;
    /// the bucket resets to empty once the prefix covers it).
    pos: Vec<usize>,
    /// Occupancy bitmap over ring slots: bit set ⇔ bucket has unpopped
    /// entries.
    occupied: [u64; WORDS],
    /// Lower bound on every queued entry's time; pops never go below it.
    cursor: SimTime,
    /// Entries at or beyond `cursor + RING`, ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<Keyed<M>>>,
    len: usize,
    next_seq: u64,
}

struct Keyed<M>(Entry<M>);

impl<M> PartialEq for Keyed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<M> Eq for Keyed<M> {}
impl<M> PartialOrd for Keyed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Keyed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.time, self.0.seq).cmp(&(other.0.time, other.0.seq))
    }
}

impl<M> EventQueue<M> {
    #[allow(dead_code)] // runner pre-sizes via `with_capacity`; tests use this
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A queue pre-sized for roughly `cap` steady-state events, so the
    /// hot window (O(n²) in-flight messages plus rounds) rarely
    /// reallocates mid-run. Bucket capacity is retained across laps of
    /// the ring, so even an unsized queue stops allocating once warm.
    pub fn with_capacity(cap: usize) -> Self {
        let per_bucket = cap / RING + usize::from(cap > 0);
        EventQueue {
            ring: (0..RING).map(|_| Vec::with_capacity(per_bucket)).collect(),
            pos: vec![0; RING],
            occupied: [0; WORDS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    fn slot(time: SimTime) -> usize {
        time as usize & (RING - 1)
    }

    fn set_bit(&mut self, b: usize) {
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    fn clear_bit(&mut self, b: usize) {
        self.occupied[b / 64] &= !(1 << (b % 64));
    }

    /// The first occupied slot in window order (starting at the cursor's
    /// slot, wrapping once around the ring).
    fn first_occupied(&self) -> Option<usize> {
        let start = Self::slot(self.cursor);
        let (sw, sb) = (start / 64, start % 64);
        let head = self.occupied[sw] & (!0u64 << sb);
        if head != 0 {
            return Some(sw * 64 + head.trailing_zeros() as usize);
        }
        for k in 1..WORDS {
            let w = self.occupied[(sw + k) % WORDS];
            if w != 0 {
                return Some((sw + k) % WORDS * 64 + w.trailing_zeros() as usize);
            }
        }
        let tail = self.occupied[sw] & !(!0u64 << sb);
        if tail != 0 {
            return Some(sw * 64 + tail.trailing_zeros() as usize);
        }
        None
    }

    /// Moves overflow entries that now fall inside the ring window into
    /// their buckets. The heap yields them in `(time, seq)` order, so
    /// each bucket receives its entries in seq order; and because a time
    /// becomes ring-eligible before any later push to it can land there
    /// directly, migrated entries always precede directly-pushed ones of
    /// the same time.
    fn migrate(&mut self) {
        let end = self.cursor + RING as SimTime;
        while let Some(Reverse(Keyed(e))) = self.overflow.peek() {
            if e.time >= end {
                break;
            }
            let Reverse(Keyed(e)) = self.overflow.pop().expect("peeked");
            let b = Self::slot(e.time);
            self.ring[b].push(e);
            self.set_bit(b);
        }
    }

    fn insert(&mut self, e: Entry<M>) {
        debug_assert!(e.time >= self.cursor, "scheduling into the past");
        self.len += 1;
        if e.time >= self.cursor + RING as SimTime {
            self.overflow.push(Reverse(Keyed(e)));
            return;
        }
        self.migrate();
        let b = Self::slot(e.time);
        self.ring[b].push(e);
        self.set_bit(b);
    }

    /// Schedules `ev` at absolute time `time`, returning its sequence id.
    pub fn push(&mut self, time: SimTime, ev: Ev<M>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry { time, seq, ev });
        seq
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Entry<M>> {
        if self.len == 0 {
            return None;
        }
        self.migrate();
        let b = match self.first_occupied() {
            Some(b) => b,
            None => {
                // Ring empty: jump the window to the earliest far-future
                // entry and pull its cohort in.
                let Reverse(Keyed(e)) = self.overflow.peek().expect("len > 0");
                self.cursor = e.time;
                self.migrate();
                self.first_occupied().expect("migrated entries")
            }
        };
        let p = self.pos[b];
        self.pos[b] += 1;
        // A raw index walk (not Vec::remove / VecDeque) so consumed
        // entries stay in place until the bucket empties and its
        // allocation can be reused for the next lap.
        let e = std::mem::replace(&mut self.ring[b][p], Entry::tombstone());
        if self.pos[b] == self.ring[b].len() {
            self.ring[b].clear();
            self.pos[b] = 0;
            self.clear_bit(b);
        }
        self.cursor = e.time;
        self.len -= 1;
        Some(e)
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(b) = self.first_occupied() {
            return Some(self.ring[b][self.pos[b]].time);
        }
        // Overflow entries are always later than every ring entry.
        self.overflow.peek().map(|Reverse(Keyed(e))| e.time)
    }

    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Iterates over all queued entries in arbitrary order (used for
    /// in-flight message inspection and channel corruption).
    pub fn iter(&self) -> impl Iterator<Item = &Entry<M>> {
        self.ring
            .iter()
            .zip(&self.pos)
            .flat_map(|(bucket, &p)| bucket[p..].iter())
            .chain(self.overflow.iter().map(|Reverse(Keyed(e))| e))
    }

    /// Rebuilds the queue after in-place mutation of its entries.
    pub fn mutate_all(&mut self, mut f: impl FnMut(&mut Entry<M>)) {
        let mut all: Vec<Entry<M>> = Vec::with_capacity(self.len);
        for (bucket, p) in self.ring.iter_mut().zip(&mut self.pos) {
            all.extend(bucket.drain(..).skip(std::mem::take(p)));
        }
        all.extend(
            std::mem::take(&mut self.overflow)
                .into_iter()
                .map(|Reverse(Keyed(e))| e),
        );
        self.occupied = [0; WORDS];
        self.len = 0;
        for e in &mut all {
            f(e);
        }
        // Reinsert in (time, seq) order, keeping original seq ids, so
        // per-bucket FIFO order is restored exactly.
        all.sort_by_key(|e| (e.time, e.seq));
        for e in all {
            self.insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(10, Ev::Wake { token: 1 });
        q.push(5, Ev::Wake { token: 2 });
        q.push(10, Ev::Wake { token: 3 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.ev {
                Ev::Wake { token } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(42, Ev::Wake { token: 0 });
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_overflow_pops_in_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(5, Ev::Wake { token: 1 });
        q.push(5000, Ev::Wake { token: 2 });
        q.push(10, Ev::Wake { token: 3 });
        q.push(2000, Ev::Wake { token: 4 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.ev {
                Ev::Wake { token } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 4, 2]);
    }

    #[test]
    fn migrated_and_direct_entries_share_a_bucket_in_seq_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(1500, Ev::Wake { token: 1 }); // seq 0 — beyond the ring, overflows
        q.push(600, Ev::Wake { token: 2 }); // seq 1 — lands in the ring
        assert_eq!(q.pop().unwrap().time, 600); // window now reaches 1500
        q.push(1500, Ev::Wake { token: 3 }); // seq 2 — must land behind the migrant
        let (a, b) = (q.pop().unwrap(), q.pop().unwrap());
        assert_eq!((a.time, a.seq), (1500, 0));
        assert_eq!((b.time, b.seq), (1500, 2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_sees_far_future_entries() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(90_000, Ev::Wake { token: 7 });
        assert_eq!(q.peek_time(), Some(90_000));
        assert_eq!(q.pop().unwrap().time, 90_000);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn mutate_all_preserves_order_keys() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(
            3,
            Ev::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                msg: 7,
            },
        );
        q.push(1, Ev::Wake { token: 9 });
        q.mutate_all(|e| {
            if let Ev::Deliver { msg, .. } = &mut e.ev {
                *msg = 99;
            }
        });
        assert!(matches!(q.pop().unwrap().ev, Ev::Wake { .. }));
        match q.pop().unwrap().ev {
            Ev::Deliver { msg, .. } => assert_eq!(msg, 99),
            other => panic!("unexpected {other:?}"),
        }
    }
}
