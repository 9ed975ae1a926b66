//! The event queue: a priority queue over simulated time with deterministic
//! FIFO tie-breaking.
//!
//! # Scheduler structure
//!
//! The default backend is a **hierarchical timing wheel**. The *fine*
//! level is a circular array of buckets, each covering a fixed slice of
//! simulated time; above it sit *coarse* levels of 64 buckets each, every
//! coarse bucket covering one whole bucket array of the level below.
//! Pushing an event appends it to the finest bucket whose window holds it
//! (O(1)); popping scans a bitmap for the next occupied fine bucket and
//! drains it in `(time, seq)` order. Before the fine cursor reaches a
//! coarse bucket's slice, that bucket *cascades*: its chain is walked
//! once and every event re-placed one or more levels down. The top level
//! spans all of `u64` time, so there is no overflow structure and no
//! heap on the hot path: every push and every cascade step is array
//! traffic.
//!
//! ## Arena bucket store
//!
//! Buckets do not own `Vec`s of events. Every pending event lives in one
//! reusable slab of slots (`Wheel::slots`), and a bucket on any level is
//! just a `(head, tail)` pair of `u32` slot indices forming an intrusive
//! singly-linked chain through the slab. Pushing links a slot onto its
//! bucket's tail; a cascade relinks the same slot into a lower bucket;
//! popping returns the slot to a freelist threaded through the same
//! `next` fields. Steady-state push/pop therefore performs **zero
//! allocation** — the slab and the drain buffer grow to the queue's
//! high-water depth and are reused forever after.
//!
//! ## Bucket drains and same-instant fusion
//!
//! When the cursor first reaches an occupied fine bucket, its chain is
//! *gathered* into a reusable drain buffer of `(time, seq, slot)` keys
//! and sorted ascending once (a sortedness scan skips the sort for the
//! common already-ordered chain — in particular any same-instant tie
//! burst, which is chained in push order). Pops then walk the buffer
//! with a cursor; a tie burst of N events pops as one contiguous scan.
//!
//! Events pushed *into the bucket being drained* (the executor's
//! completion storms schedule millions of these) are not inserted into
//! the sorted buffer. They are **fused into pending runs**: one `(time,
//! head, tail)` chain per distinct timestamp, appended O(1), and merged
//! against the drain buffer at pop. On a time tie the buffer wins — its
//! events predate every pending push, so `(time, seq)` order is
//! preserved exactly.
//!
//! ## Bucket width and level layout
//!
//! Each fine bucket spans `2^BUCKET_SHIFT` nanoseconds (currently 2^19 ns
//! ≈ 524 µs). That width sits between the executor's two natural time
//! scales: per-batch CPU costs (tens of microseconds — so simultaneous
//! and near-simultaneous completions share a bucket instead of
//! scattering across thousands) and per-batch disk service times
//! (milliseconds — so a pipeline window of in-flight reads spreads over
//! many buckets instead of piling into one). Measured on the executor's
//! cluster join, 2^19 beats both 2^18 and 2^20: a few events per bucket
//! amortizes the bucket-transition scan without inflating the in-bucket
//! sort. The fine bucket count is a power of two sized from
//! [`EventQueue::with_capacity`]'s hint (clamped to `[64, 65536]`,
//! default 1024), putting the fine horizon at `buckets × 524 µs`: 268 ms
//! for the 512 buckets of a 16-disk run, 537 ms for the 1024 of a
//! 64-disk one.
//!
//! The fine horizon does **not** cover the executor's scheduling
//! distances. A saturated disk queue, CPU or interconnect books
//! completions 0.3–1 s ahead, and on the `--quick` figure grid about one
//! push in six lands past the fine horizon — two in three on the 16-disk
//! Active Disk sort, over a third on every 64-disk SMP task. Those
//! pushes take the first coarse level, whose 64 buckets of one fine
//! horizon each reach 17–34 s ahead; each such event is touched once
//! more, when its coarse bucket cascades. Only events beyond that (a
//! far arrival or deadline) climb higher and cascade more than once;
//! [`EventQueue::overflow_pushes`] counts them, and none of the
//! repository's figure configurations produces one.
//!
//! Determinism is unchanged from the classic heap: ties fire in push
//! order via the per-event sequence number, whatever mixture of levels
//! and cascades the events took. The reference
//! [`QueueBackend::BinaryHeap`] backend is kept for differential
//! testing and benchmarking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Log2 of the fine bucket width in nanoseconds (2^19 ns ≈ 524 µs).
const BUCKET_SHIFT: u32 = 19;
/// Fine bucket count when no capacity hint is given.
const DEFAULT_BUCKETS: usize = 1024;
/// Smallest allowed fine bucket count (one bitmap word).
const MIN_BUCKETS: usize = 64;
/// Largest allowed fine bucket count (64k buckets ≈ 17 s horizon).
const MAX_BUCKETS: usize = 1 << 16;
/// Log2 of the bucket count of every coarse level (one bitmap word).
const LEVEL_BITS: u32 = 6;
/// Buckets per coarse level.
const LEVEL_BUCKETS: usize = 1 << LEVEL_BITS;

/// Null slot index terminating arena chains and the freelist.
const NIL: u32 = u32::MAX;

/// A pending event: fires at `time`, carrying `payload`.
///
/// Events scheduled for the same instant fire in the order they were pushed
/// (FIFO), which makes simulations deterministic regardless of scheduler
/// internals.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Which scheduler implementation an [`EventQueue`] runs on.
///
/// Both backends produce byte-identical pop sequences; the wheel is the
/// production scheduler and the heap is retained as the
/// differential-testing and benchmarking reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Arena-backed hierarchical timing-wheel scheduler (the default).
    #[default]
    CalendarWheel,
    /// The classic binary-heap scheduler.
    BinaryHeap,
}

/// One slot of the arena slab: an event's key and payload plus the
/// intrusive `next` link (bucket chain, pending run, or freelist).
#[derive(Debug, Clone)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    payload: Option<E>,
}

/// A fused run of same-instant pushes into the bucket being drained:
/// a chain of slots all scheduled for `time`, in push (= seq) order.
#[derive(Debug, Clone)]
struct Run {
    time: SimTime,
    head: u32,
    tail: u32,
}

/// One coarse level: 64 bucket chains, each `2^shift` ns wide.
///
/// Invariant: an event on this level has `abs = time >> shift` in
/// `[cur, cur + 64)`, where `cur` is the fine cursor's position at this
/// level's resolution, so its physical bucket `abs & 63` is unambiguous
/// and the first set bit after `cur & 63` (circularly) is the earliest.
#[derive(Debug, Clone)]
struct Level {
    /// Log2 of the bucket width in nanoseconds.
    shift: u32,
    heads: [u32; LEVEL_BUCKETS],
    tails: [u32; LEVEL_BUCKETS],
    /// One bit per bucket: set iff the bucket holds events.
    occupied: u64,
}

impl Level {
    /// The fine cursor's position at this level's resolution.
    fn cur(&self, cursor: u64) -> u64 {
        cursor >> (self.shift - BUCKET_SHIFT)
    }

    /// Absolute index of this level's earliest occupied bucket (the
    /// level must hold events).
    fn earliest(&self, cursor: u64) -> u64 {
        let cur = self.cur(cursor);
        cur + u64::from(
            self.occupied
                .rotate_right((cur % LEVEL_BUCKETS as u64) as u32)
                .trailing_zeros(),
        )
    }
}

/// Appends slot `idx` to the chain `(heads[b], tails[b])`.
fn link<E>(slots: &mut [Slot<E>], heads: &mut [u32], tails: &mut [u32], b: usize, idx: u32) {
    let tail = tails[b];
    if tail == NIL {
        heads[b] = idx;
    } else {
        slots[tail as usize].next = idx;
    }
    tails[b] = idx;
}

/// The arena-backed hierarchical timing-wheel scheduler.
#[derive(Debug, Clone)]
struct Wheel<E> {
    /// The arena slab holding every pending event.
    slots: Vec<Slot<E>>,
    /// Freelist head threaded through `Slot::next` (`NIL` = empty).
    free: u32,
    /// Per-fine-bucket chain heads; slot = `abs & (len - 1)` where
    /// `abs = time_ns >> BUCKET_SHIFT`. `NIL` = empty.
    heads: Vec<u32>,
    /// Per-fine-bucket chain tails (`NIL` = empty).
    tails: Vec<u32>,
    /// One bit per fine bucket: set iff the bucket holds events.
    occupied: Vec<u64>,
    /// Events currently held in fine buckets.
    count: usize,
    /// Absolute fine bucket index of the wheel's current position.
    /// Invariant: every fine event has `abs` in `[cursor, cursor +
    /// nbuckets)`, and every coarse event lies at or after `cursor`.
    cursor: u64,
    /// Whether `drain_buf`/`pending` describe the cursor's bucket.
    draining: bool,
    /// The gathered `(time, seq, slot)` keys of the bucket being
    /// drained, ascending; `pos` is the next entry to pop.
    drain_buf: Vec<(SimTime, u64, u32)>,
    pos: usize,
    /// Same-instant runs pushed into the bucket being drained, sorted
    /// ascending by time (a handful of distinct timestamps at most).
    pending: Vec<Run>,
    /// Coarse levels, finest first; the last one spans all of time.
    levels: Vec<Level>,
    /// Events currently held on coarse levels.
    upper: usize,
    /// Pushes that landed above the first coarse level.
    overflow_pushes: u64,
}

impl<E> Wheel<E> {
    /// A wheel pre-sized for `capacity` pending events. The fine bucket
    /// count is the hint's next power of two, clamped, with the no-hint
    /// default of [`DEFAULT_BUCKETS`]; coarse levels are added until the
    /// top one spans all of `u64` time.
    fn with_capacity(capacity: usize) -> Self {
        let nbuckets = match capacity {
            0 => DEFAULT_BUCKETS,
            c => c.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS),
        };
        let mut levels = Vec::new();
        let mut shift = BUCKET_SHIFT + nbuckets.trailing_zeros();
        while shift < u64::BITS {
            levels.push(Level {
                shift,
                heads: [NIL; LEVEL_BUCKETS],
                tails: [NIL; LEVEL_BUCKETS],
                occupied: 0,
            });
            shift += LEVEL_BITS;
        }
        Wheel {
            slots: Vec::with_capacity(capacity),
            free: NIL,
            heads: vec![NIL; nbuckets],
            tails: vec![NIL; nbuckets],
            occupied: vec![0u64; nbuckets / 64],
            count: 0,
            cursor: 0,
            draining: false,
            drain_buf: Vec::with_capacity(capacity),
            pos: 0,
            pending: Vec::new(),
            levels,
            upper: 0,
            overflow_pushes: 0,
        }
    }

    fn abs_of(time: SimTime) -> u64 {
        time.as_nanos() >> BUCKET_SHIFT
    }

    fn nbuckets(&self) -> u64 {
        self.heads.len() as u64
    }

    fn mask(&self) -> u64 {
        self.nbuckets() - 1
    }

    fn len(&self) -> usize {
        self.count + self.upper
    }

    /// Takes a slot from the freelist, or grows the slab.
    fn alloc(&mut self, time: SimTime, seq: u64, payload: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let s = &mut self.slots[idx as usize];
            self.free = s.next;
            s.time = time;
            s.seq = seq;
            s.next = NIL;
            s.payload = Some(payload);
            idx
        } else {
            let idx = self.slots.len();
            assert!(idx < NIL as usize, "event arena exhausted u32 indices");
            self.slots.push(Slot {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            idx as u32
        }
    }

    /// Returns a slot's contents and links it onto the freelist.
    fn release(&mut self, idx: u32) -> Scheduled<E> {
        let s = &mut self.slots[idx as usize];
        let time = s.time;
        let seq = s.seq;
        let payload = s.payload.take().expect("live arena slot");
        s.next = self.free;
        self.free = idx;
        Scheduled { time, seq, payload }
    }

    fn push(&mut self, ev: Scheduled<E>) {
        let idx = self.alloc(ev.time, ev.seq, ev.payload);
        if self.place(idx, ev.time) > 1 {
            self.overflow_pushes += 1;
        }
    }

    /// Links slot `idx` (due at `time`, `next == NIL`) into the finest
    /// level whose window holds it and returns that level (0 = fine).
    fn place(&mut self, idx: u32, time: SimTime) -> usize {
        let abs = Self::abs_of(time);
        debug_assert!(abs >= self.cursor, "event behind the cursor");
        if abs - self.cursor < self.nbuckets() {
            self.place_fine(idx, time, abs);
            return 0;
        }
        let t = time.as_nanos();
        for (i, lv) in self.levels.iter_mut().enumerate() {
            let b = t >> lv.shift;
            if b - lv.cur(self.cursor) < LEVEL_BUCKETS as u64 {
                let b = (b % LEVEL_BUCKETS as u64) as usize;
                link(&mut self.slots, &mut lv.heads, &mut lv.tails, b, idx);
                lv.occupied |= 1 << b;
                self.upper += 1;
                return i + 1;
            }
        }
        unreachable!("the top level spans all of time")
    }

    /// Puts a fine-horizon event into its bucket chain, or — for pushes
    /// into the bucket currently being drained — fuses it into the
    /// pending runs.
    fn place_fine(&mut self, idx: u32, time: SimTime, abs: u64) {
        let slot = (abs & self.mask()) as usize;
        if abs == self.cursor && self.draining {
            // Same-instant fusion: O(1) append to the run for this
            // timestamp. Chains are in push order, which is seq order —
            // the global sequence counter is monotonic, and cascades
            // never land here (they run with `draining` cleared).
            match self.pending.binary_search_by_key(&time, |r| r.time) {
                Ok(i) => {
                    let tail = self.pending[i].tail;
                    self.slots[tail as usize].next = idx;
                    self.pending[i].tail = idx;
                }
                Err(i) => self.pending.insert(
                    i,
                    Run {
                        time,
                        head: idx,
                        tail: idx,
                    },
                ),
            }
        } else {
            link(&mut self.slots, &mut self.heads, &mut self.tails, slot, idx);
        }
        self.occupied[slot >> 6] |= 1 << (slot & 63);
        self.count += 1;
    }

    /// The earliest coarse bucket as `(level, abs, start)`, `start` in
    /// fine-bucket units; ties go to the finer level.
    fn earliest_upper(&self) -> Option<(usize, u64, u64)> {
        let mut best: Option<(usize, u64, u64)> = None;
        for (i, lv) in self.levels.iter().enumerate() {
            if lv.occupied == 0 {
                continue;
            }
            let b = lv.earliest(self.cursor);
            let start = b << (lv.shift - BUCKET_SHIFT);
            if best.is_none_or(|(_, _, s)| start < s) {
                best = Some((i, b, start));
            }
        }
        best
    }

    /// Moves the cursor to coarse bucket `b` of level `i` (which starts
    /// at fine bucket `start`, no later than any pending event) and
    /// re-places its chain one or more levels down. Chains keep push
    /// order, so a cascaded fine chain is usually still sorted.
    fn cascade(&mut self, i: usize, b: u64, start: u64) {
        debug_assert!(!self.draining);
        self.cursor = self.cursor.max(start);
        let lv = &mut self.levels[i];
        let b = (b % LEVEL_BUCKETS as u64) as usize;
        let mut h = lv.heads[b];
        lv.heads[b] = NIL;
        lv.tails[b] = NIL;
        lv.occupied &= !(1 << b);
        while h != NIL {
            let s = &mut self.slots[h as usize];
            let (next, time) = (s.next, s.time);
            s.next = NIL;
            self.upper -= 1;
            self.place(h, time);
            h = next;
        }
    }

    /// Physical index of the first occupied fine bucket at or circularly
    /// after the cursor slot. Fine buckets only hold events within the
    /// horizon, so the first set bit in cursor order is also the earliest.
    fn next_occupied(&self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let start = (self.cursor & self.mask()) as usize;
        let words = self.occupied.len();
        let mut w = start >> 6;
        let mut word = self.occupied[w] & (!0u64 << (start & 63));
        // `words + 1` iterations: the wrap re-checks the starting word's
        // low bits (its high bits were already seen empty).
        for _ in 0..=words {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == words {
                w = 0;
            }
            word = self.occupied[w];
        }
        None
    }

    /// Absolute bucket index of physical `slot`, relative to the cursor.
    fn abs_at(&self, slot: usize) -> u64 {
        self.cursor + ((slot as u64).wrapping_sub(self.cursor) & self.mask())
    }

    /// Gathers a bucket's chain into the drain buffer, sorting ascending
    /// by `(time, seq)` unless the chain is already ordered (direct
    /// pushes are — seq is monotonic; only a cascade can weave an older
    /// seq behind a newer one).
    fn gather(&mut self, slot: usize) {
        debug_assert!(self.pos == self.drain_buf.len() && self.pending.is_empty());
        self.drain_buf.clear();
        self.pos = 0;
        let mut h = self.heads[slot];
        let mut sorted = true;
        let mut prev = (SimTime::ZERO, 0u64);
        while h != NIL {
            let s = &self.slots[h as usize];
            let key = (s.time, s.seq);
            sorted &= key >= prev;
            prev = key;
            self.drain_buf.push((s.time, s.seq, h));
            h = s.next;
        }
        if !sorted {
            self.drain_buf.sort_unstable_by_key(|&(t, q, _)| (t, q));
        }
        self.heads[slot] = NIL;
        self.tails[slot] = NIL;
        self.draining = true;
    }

    /// Pops the earliest event of the bucket being drained: a two-way
    /// merge of the sorted drain buffer against the fused pending runs.
    /// On a time tie the buffer wins — its events predate every pending
    /// push, so they carry older seqs.
    fn pop_current(&mut self) -> Scheduled<E> {
        let buf = self.drain_buf.get(self.pos).copied();
        let idx = match (buf, self.pending.first().map(|r| r.time)) {
            (Some((bt, _, _)), Some(pt)) if pt < bt => self.pop_pending(),
            (Some((_, _, idx)), _) => {
                self.pos += 1;
                idx
            }
            (None, Some(_)) => self.pop_pending(),
            (None, None) => unreachable!("occupied bucket with no drain state"),
        };
        self.count -= 1;
        if self.pos == self.drain_buf.len() && self.pending.is_empty() {
            let slot = (self.cursor & self.mask()) as usize;
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
        }
        self.release(idx)
    }

    /// Unlinks the head of the earliest pending run.
    fn pop_pending(&mut self) -> u32 {
        let run = &mut self.pending[0];
        let idx = run.head;
        let next = self.slots[idx as usize].next;
        if next == NIL {
            self.pending.remove(0);
        } else {
            run.head = next;
        }
        idx
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        // Fast path: the bucket being drained still holds events. They
        // all precede every other fine bucket (later `abs`) and every
        // coarse bucket (each starts past the cursor), so no bitmap scan
        // or cascade check is needed.
        if self.draining && (self.pos < self.drain_buf.len() || !self.pending.is_empty()) {
            return Some(self.pop_current());
        }
        if self.len() == 0 {
            return None;
        }
        self.draining = false;
        // Cascade every coarse bucket that starts at or before the next
        // occupied fine bucket: its events may precede that bucket's.
        let mut next = self.next_occupied();
        if self.upper > 0 {
            while let Some((i, b, start)) = self.earliest_upper() {
                if next.is_some_and(|slot| self.abs_at(slot) < start) {
                    break;
                }
                self.cascade(i, b, start);
                next = self.next_occupied();
            }
        }
        let slot = next.expect("wheel holds events");
        self.cursor = self.abs_at(slot);
        self.gather(slot);
        Some(self.pop_current())
    }

    /// The time of the earliest event in the chain starting at `h`.
    fn chain_min(&self, mut h: u32) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        while h != NIL {
            let s = &self.slots[h as usize];
            best = Some(best.map_or(s.time, |b| b.min(s.time)));
            h = s.next;
        }
        best
    }

    /// The time of the earliest pending event, without mutating the
    /// wheel (the cursor must only advance on actual pops: it pins the
    /// legal range of future pushes).
    fn peek_time(&self) -> Option<SimTime> {
        // Fast path, mirroring `pop`: live drain state precedes every
        // other bucket on every level.
        if self.draining {
            let buf = self.drain_buf.get(self.pos).map(|&(t, _, _)| t);
            let pend = self.pending.first().map(|r| r.time);
            if let Some(t) = buf.into_iter().chain(pend).min() {
                return Some(t);
            }
        }
        // Otherwise the earliest event is in the first occupied bucket of
        // some level: min-scan each of those chains.
        let fine = self
            .next_occupied()
            .and_then(|slot| self.chain_min(self.heads[slot]));
        let coarse = self.levels.iter().filter(|lv| lv.occupied != 0).map(|lv| {
            let b = (lv.earliest(self.cursor) % LEVEL_BUCKETS as u64) as usize;
            self.chain_min(lv.heads[b])
        });
        fine.into_iter().chain(coarse.flatten()).min()
    }

    /// Events the wheel can hold without any allocation growing.
    fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// The scheduler backing an [`EventQueue`].
#[derive(Debug, Clone)]
enum Backend<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Scheduled<E>>),
}

/// A discrete-event queue ordered by simulated time.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(30), 'c');
/// q.push(SimTime::from_nanos(10), 'a');
/// q.push(SimTime::from_nanos(10), 'b'); // same time: FIFO order
/// let order: Vec<char> = q.drain().map(|(_, e)| e).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_seq: u64,
    popped: u64,
    last_popped: SimTime,
}

/// A backend-independent snapshot of an [`EventQueue`]'s logical state:
/// the pending events in exact pop order plus the pop-side counters.
///
/// Sequence numbers are deliberately *not* captured. Restoring assigns
/// fresh seqs `0..n` in pop order, which preserves every observable
/// property: relative order among the pending events is unchanged, and
/// events pushed after the restore receive larger seqs than all pending
/// ones — exactly as they would have in the uninterrupted run. Dropping
/// the seqs is what makes the snapshot byte-identical across backends
/// (a wheel's freelist layout, pending runs, and level placement are
/// all re-normalized away).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSnapshot<E> {
    /// Pending events in exact pop order.
    pub events: Vec<(SimTime, E)>,
    /// Lifetime pop count at the snapshot point.
    pub popped: u64,
    /// Time of the most recently popped event (the simulation clock).
    pub last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        Self::with_backend_capacity(backend, 0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    ///
    /// Event-loop hot paths (one simulation pushes millions of events)
    /// pre-size the queue to its steady-state depth so the backing
    /// buffers never reallocate mid-run. On the wheel backends the hint
    /// sizes the fine bucket array (next power of two, clamped to
    /// `[64, 65536]` — see the module comment for the level layout) and
    /// pre-reserves the arena slab and drain buffer.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_backend_capacity(QueueBackend::default(), capacity)
    }

    /// [`EventQueue::with_capacity`] on an explicit backend.
    pub fn with_backend_capacity(backend: QueueBackend, capacity: usize) -> Self {
        let backend = match backend {
            QueueBackend::CalendarWheel => Backend::Wheel(Wheel::with_capacity(capacity)),
            QueueBackend::BinaryHeap => Backend::Heap(BinaryHeap::with_capacity(capacity)),
        };
        EventQueue {
            backend,
            next_seq: 0,
            popped: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// The scheduler backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match &self.backend {
            Backend::Wheel(_) => QueueBackend::CalendarWheel,
            Backend::Heap(_) => QueueBackend::BinaryHeap,
        }
    }

    /// Number of events the queue can hold without reallocating (the
    /// arena slab on the wheel backend).
    pub fn capacity(&self) -> usize {
        match &self.backend {
            Backend::Wheel(w) => w.capacity(),
            Backend::Heap(h) => h.capacity(),
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Scheduling in the past (before the last popped event) is a
    /// simulation logic error.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the time of the last popped event.
    pub fn push(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time} < {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Scheduled { time, seq, payload };
        match &mut self.backend {
            Backend::Wheel(w) => w.push(ev),
            Backend::Heap(h) => h.push(ev),
        }
    }

    /// Schedules a batch of events in order (the executor's phase
    /// fan-out primes every node's pipeline window in one burst). Each
    /// element behaves exactly like an individual [`EventQueue::push`].
    ///
    /// # Panics
    ///
    /// Panics if any event's time is earlier than the last popped event.
    pub fn push_many<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let iter = batch.into_iter();
        if let (_, Some(hint)) = (iter.size_hint().0, iter.size_hint().1) {
            if let Backend::Heap(h) = &mut self.backend {
                h.reserve(hint);
            }
        }
        for (time, payload) in iter {
            self.push(time, payload);
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = match &mut self.backend {
            Backend::Wheel(w) => w.pop()?,
            Backend::Heap(h) => h.pop()?,
        };
        self.popped += 1;
        self.last_popped = ev.time;
        Some((ev.time, ev.payload))
    }

    /// Pops every pending event in firing order.
    ///
    /// The iterator borrows the queue mutably; events pushed after it is
    /// dropped are unaffected.
    ///
    /// # Example
    ///
    /// ```
    /// use simcore::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.push(SimTime::from_nanos(2), 'b');
    /// q.push(SimTime::from_nanos(1), 'a');
    /// assert_eq!(q.drain().map(|(_, e)| e).collect::<Vec<_>>(), vec!['a', 'b']);
    /// assert!(q.is_empty());
    /// ```
    pub fn drain(&mut self) -> Drain<'_, E> {
        Drain { queue: self }
    }

    /// Total events popped over the queue's lifetime (the simulator's
    /// self-profiling events-processed counter).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Pushes the wheel placed above its first coarse level: events
    /// scheduled more than 64 fine horizons (17 s at 512 fine buckets)
    /// past the cursor, which cascade through two or more levels before
    /// they reach a fine bucket. Always 0 on the heap backend. A push
    /// within the fine horizon costs one bucket append; one within the
    /// first coarse level costs one more relink when its bucket
    /// cascades; this counter is the share that costs more than that.
    pub fn overflow_pushes(&self) -> u64 {
        match &self.backend {
            Backend::Wheel(w) => w.overflow_pushes,
            Backend::Heap(_) => 0,
        }
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Wheel(w) => w.peek_time(),
            Backend::Heap(h) => h.peek().map(|s| s.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Wheel(w) => w.len(),
            Backend::Heap(h) => h.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

impl<E: Clone> EventQueue<E> {
    /// Captures the queue's logical state without disturbing it.
    ///
    /// The snapshot lists pending events in exact pop order (obtained by
    /// draining a clone), so it is identical whatever backend the queue
    /// runs on. Restore it with [`EventQueue::load_snapshot`] — into the
    /// same backend or a different one.
    pub fn snapshot(&self) -> QueueSnapshot<E> {
        let mut copy = self.clone();
        QueueSnapshot {
            events: copy.drain().collect(),
            popped: self.popped,
            last_popped: self.last_popped,
        }
    }

    /// Restores a snapshot into this (empty, freshly configured) queue.
    ///
    /// Call after `with_backend_capacity`:
    /// the wheel, freelist, and pending-run structures are rebuilt from
    /// scratch by ordinary pushes, with the wheel's cursor started at the
    /// snapshot's clock, so pop order is exactly that of the queue that
    /// was captured. Pending events are assigned
    /// fresh sequence numbers `0..n` in pop order (see [`QueueSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if the queue already holds events or has popped any.
    pub fn load_snapshot(&mut self, snap: QueueSnapshot<E>) {
        assert!(
            self.is_empty() && self.popped == 0,
            "snapshot must load into a fresh queue"
        );
        if let Backend::Wheel(w) = &mut self.backend {
            // Events land on the levels a live queue at this clock would
            // use (never behind the cursor, even if one precedes it).
            let first = snap.events.iter().map(|&(t, _)| t).min();
            w.cursor =
                Wheel::<E>::abs_of(first.map_or(snap.last_popped, |t| t.min(snap.last_popped)));
        }
        for (time, payload) in snap.events {
            debug_assert!(time >= snap.last_popped, "pending event behind the clock");
            self.push(time, payload);
        }
        self.popped = snap.popped;
        self.last_popped = snap.last_popped;
    }
}

/// Draining iterator over an [`EventQueue`]; see [`EventQueue::drain`].
#[derive(Debug)]
pub struct Drain<'a, E> {
    queue: &'a mut EventQueue<E>,
}

impl<E> Iterator for Drain<'_, E> {
    type Item = (SimTime, E);

    fn next(&mut self) -> Option<(SimTime, E)> {
        self.queue.pop()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.queue.len();
        (len, Some(len))
    }
}

impl<E> ExactSizeIterator for Drain<'_, E> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap];

    #[test]
    fn pops_in_time_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::<u64>::with_backend(backend);
            for &t in &[50u64, 10, 30, 20, 40] {
                q.push(SimTime::from_nanos(t), t);
            }
            let out: Vec<u64> = q.drain().map(|(_, e)| e).collect();
            assert_eq!(out, vec![10, 20, 30, 40, 50], "{backend:?}");
        }
    }

    #[test]
    fn ties_break_fifo() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..100 {
                q.push(SimTime::from_nanos(7), i);
            }
            let popped: Vec<u32> = q.drain().map(|(_, e)| e).collect();
            let expected: Vec<u32> = (0..100).collect();
            assert_eq!(popped, expected, "{backend:?}");
        }
    }

    #[test]
    fn ties_break_fifo_across_wheel_and_overflow() {
        // Same-time events split between the fine bucket array and the
        // first coarse level (the queue's position moves between the
        // pushes) must still fire in push order after the cascade.
        let mut q = EventQueue::new();
        let far = SimTime::from_nanos((DEFAULT_BUCKETS as u64 + 1) << super::BUCKET_SHIFT);
        // Interleave: a near event, then far-future ties pushed both
        // before and after the cursor advances past the near event.
        q.push(far, 0u32);
        q.push(SimTime::from_nanos(1), 100);
        q.push(far, 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(100));
        q.push(far, 2);
        let rest: Vec<u32> = q.drain().map(|(_, e)| e).collect();
        assert_eq!(rest, vec![0, 1, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_nanos(42), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
            let (t, ()) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_nanos(42));
            assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_events_in_the_past() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn wheel_rejects_past_events_after_cursor_advance() {
        // The wheel path specifically: advance the cursor far past the
        // first bucket (through a coarse level), then schedule behind
        // it. The push must panic, not corrupt the wheel.
        let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let far = SimTime::from_nanos((DEFAULT_BUCKETS as u64 + 7) << super::BUCKET_SHIFT);
        q.push(far, ());
        q.pop();
        q.push(SimTime::from_nanos(far.as_nanos() - 1), ());
    }

    #[test]
    fn len_and_empty_track_contents() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert!(q.is_empty());
            q.push(SimTime::from_nanos(1), ());
            q.push(SimTime::from_nanos(2), ());
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn with_capacity_presizes_and_behaves_like_new() {
        // The hint sizes the wheel's bucket array and pre-reserves the
        // arena slab: a steady-state load spread across the horizon must
        // not grow any allocation.
        let mut q = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        let before = q.capacity();
        for i in 0..64u64 {
            // One event per bucket, pushed in reverse bucket order.
            q.push(SimTime::from_nanos((63 - i) << super::BUCKET_SHIFT), i);
        }
        assert_eq!(q.capacity(), before, "pre-sized queue must not reallocate");
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_nanos() >= last);
            last = t.as_nanos();
        }
        assert_eq!(q.capacity(), before, "popping must not reallocate either");
    }

    #[test]
    fn popped_counts_lifetime_pops() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(q.popped(), 0);
            for t in 0..5u64 {
                q.push(SimTime::from_nanos(t), t);
            }
            q.pop();
            q.pop();
            assert_eq!(q.popped(), 2);
            while q.pop().is_some() {}
            assert_eq!(q.popped(), 5);
            // Popping an empty queue does not inflate the counter.
            assert!(q.pop().is_none());
            assert_eq!(q.popped(), 5);
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_nanos(9), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    fn drain_reports_length_and_interleaves_with_pushes() {
        let mut q = EventQueue::new();
        for t in 0..10u64 {
            q.push(SimTime::from_nanos(t), t);
        }
        {
            let mut d = q.drain();
            assert_eq!(d.len(), 10);
            assert_eq!(d.next().map(|(_, e)| e), Some(0));
            assert_eq!(d.len(), 9);
        }
        // The queue stays usable after a partial drain.
        q.push(SimTime::from_nanos(100), 100);
        assert_eq!(q.len(), 10);
        assert_eq!(q.drain().count(), 10);
    }

    #[test]
    fn push_many_matches_individual_pushes() {
        for backend in BACKENDS {
            let mut a = EventQueue::<u64>::with_backend(backend);
            let mut b = EventQueue::<u64>::with_backend(backend);
            let batch: Vec<(SimTime, u64)> = (0..50)
                .map(|i| (SimTime::from_nanos((i * 37) % 13), i))
                .collect();
            for &(t, e) in &batch {
                a.push(t, e);
            }
            b.push_many(batch);
            let va: Vec<_> = a.drain().collect();
            let vb: Vec<_> = b.drain().collect();
            assert_eq!(va, vb, "{backend:?}");
        }
    }

    // ----- Wheel edge cases -------------------------------------------

    /// An event exactly on the fine-horizon boundary
    /// (`abs == cursor + nbuckets`) must take the coarse level, and one
    /// just inside must take a bucket; both pop in global order.
    #[test]
    fn horizon_boundary_event_splits_correctly() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let edge_in = SimTime::from_nanos(((DEFAULT_BUCKETS as u64) << super::BUCKET_SHIFT) - 1);
        let edge_out = SimTime::from_nanos((DEFAULT_BUCKETS as u64) << super::BUCKET_SHIFT);
        q.push(edge_out, 2);
        q.push(edge_in, 1);
        q.push(SimTime::ZERO, 0);
        assert_eq!(q.len(), 3);
        let out: Vec<(SimTime, u32)> = q.drain().collect();
        assert_eq!(out, vec![(SimTime::ZERO, 0), (edge_in, 1), (edge_out, 2)]);
    }

    /// Cursor wrap-around with a fully set bitmap word: the smallest
    /// wheel (64 buckets = one word), every bucket occupied, then pushes
    /// that wrap physically behind the cursor's slot while staying ahead
    /// of it in absolute time.
    #[test]
    fn cursor_wraps_through_full_bitmap_word() {
        let mut q: EventQueue<u64> =
            EventQueue::with_backend_capacity(QueueBackend::CalendarWheel, 64);
        for i in 0..64u64 {
            q.push(SimTime::from_nanos(i << super::BUCKET_SHIFT), i);
        }
        // Pop the first 10 buckets, then refill the wrapped slots: abs
        // 64..74 map to physical slots 0..10, behind the cursor slot.
        let mut out = Vec::new();
        for _ in 0..10 {
            out.push(q.pop().unwrap().1);
        }
        for i in 64..74u64 {
            q.push(SimTime::from_nanos(i << super::BUCKET_SHIFT), i);
        }
        out.extend(q.drain().map(|(_, e)| e));
        let expected: Vec<u64> = (0..74).collect();
        assert_eq!(out, expected);
    }

    /// A cascade racing a same-time in-bucket insertion: a far-future
    /// event cascades into a fine bucket that already holds a
    /// *newer-seq* event at the same instant. The gather sort must
    /// restore seq order (the chain alone is not sorted).
    #[test]
    fn migration_races_same_time_insertion() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let t = SimTime::from_nanos((DEFAULT_BUCKETS as u64 + 5) << super::BUCKET_SHIFT);
        q.push(t, 0); // beyond the fine horizon: coarse level (seq 0)
        q.push(SimTime::from_nanos(1), 99);
        // Advancing past the near event pulls the horizon forward.
        assert_eq!(q.pop().map(|(_, e)| e), Some(99));
        // Now `t` is within the horizon: this lands in the bucket chain
        // directly (seq 2), while seq 0 is still on the coarse level
        // until the next pop cascades it — behind seq 2 in the chain.
        q.push(t, 1);
        let rest: Vec<u32> = q.drain().map(|(_, e)| e).collect();
        assert_eq!(rest, vec![0, 1], "older seq must still pop first");
    }

    /// Pushes into the current bucket mid-drain of a tie burst: the
    /// burst's remainder (older seqs) fires first, then the fused
    /// same-instant pushes in their own push order, then later times.
    #[test]
    fn push_into_current_bucket_during_tie_burst_drain() {
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let t = SimTime::from_nanos(1_000);
        for i in 0..100 {
            q.push(t, i);
        }
        let mut out = Vec::new();
        for _ in 0..50 {
            out.push(q.pop().unwrap().1);
        }
        // Mid-drain pushes: same instant (fused runs), plus a later time
        // in the same bucket.
        let t2 = SimTime::from_nanos(2_000);
        q.push(t2, 300);
        for i in 100..120 {
            q.push(t, i);
        }
        q.push(t2, 301);
        out.extend(q.drain().map(|(_, e)| e));
        let mut expected: Vec<u32> = (0..120).collect();
        expected.extend([300, 301]);
        assert_eq!(out, expected);
    }

    /// The queues every differential test compares: the heap oracle
    /// first, then the default wheel and the smallest wheel (64 fine
    /// buckets, 33 ms horizon, seven coarse levels).
    fn oracle_and_wheels() -> Vec<EventQueue<u64>> {
        vec![
            EventQueue::with_backend(QueueBackend::BinaryHeap),
            EventQueue::with_backend(QueueBackend::CalendarWheel),
            EventQueue::with_backend_capacity(QueueBackend::CalendarWheel, MIN_BUCKETS),
        ]
    }

    /// Drives the heap oracle and the wheels with the same operation
    /// sequence and asserts identical observable behavior at every step.
    fn differential(ops: &[(u8, u64)]) {
        let mut queues = oracle_and_wheels();
        let mut payload = 0u64;
        for &(op, t) in ops {
            if op % 3 != 0 {
                // Push twice as often as popping so the queues fill up.
                let time = queues[0].now() + crate::time::Duration::from_nanos(t);
                for q in &mut queues {
                    q.push(time, payload);
                }
                payload += 1;
            } else {
                let expect = queues[0].pop();
                for q in &mut queues[1..] {
                    assert_eq!(q.pop(), expect);
                }
            }
            let (peek, len, now) = (queues[0].peek_time(), queues[0].len(), queues[0].now());
            for q in &queues[1..] {
                assert_eq!(q.peek_time(), peek);
                assert_eq!(q.len(), len);
                assert_eq!(q.now(), now);
            }
        }
        // Conservation: every backend drains the same residue, and every
        // pushed payload was popped exactly once across the run.
        let rest: Vec<Vec<(SimTime, u64)>> =
            queues.iter_mut().map(|q| q.drain().collect()).collect();
        for r in &rest[1..] {
            assert_eq!(r, &rest[0]);
        }
        for q in &queues {
            assert_eq!(q.popped(), payload);
        }
    }

    /// Applies `ops` to `q`, recording pops into `pops`. Pushes draw
    /// payloads from `payload` (shared so interrupted and uninterrupted
    /// runs see the same values).
    fn apply_ops(
        q: &mut EventQueue<u64>,
        ops: &[(u8, u64)],
        payload: &mut u64,
        pops: &mut Vec<(SimTime, u64)>,
    ) {
        for &(op, t) in ops {
            if op % 3 != 0 {
                let time = q.now() + crate::time::Duration::from_nanos(t);
                q.push(time, *payload);
                *payload += 1;
            } else if let Some(p) = q.pop() {
                pops.push(p);
            }
        }
    }

    /// Snapshot/restore differential harness: run `ops[..cut]`, snapshot,
    /// restore into every backend, finish `ops[cut..]` on each — the full
    /// pop sequence must be identical to the uninterrupted run's.
    fn snapshot_differential(ops: &[(u8, u64)], cut: usize) {
        let fresh = |i: usize| oracle_and_wheels().swap_remove(i);
        let n = oracle_and_wheels().len();
        for src in 0..n {
            // Uninterrupted reference on the source queue.
            let mut reference = fresh(src);
            let mut ref_payload = 0u64;
            let mut ref_pops = Vec::new();
            apply_ops(&mut reference, ops, &mut ref_payload, &mut ref_pops);
            let ref_rest: Vec<(SimTime, u64)> = reference.drain().collect();

            // Interrupted run: pause at `cut`, snapshot, restore into
            // each destination (including cross-backend moves).
            let mut base = fresh(src);
            let mut base_payload = 0u64;
            let mut base_pops = Vec::new();
            apply_ops(&mut base, &ops[..cut], &mut base_payload, &mut base_pops);
            let snap = base.snapshot();
            assert_eq!(snap.events.len(), base.len(), "snapshot is non-destructive");

            for dst in 0..n {
                let mut restored = fresh(dst);
                restored.load_snapshot(snap.clone());
                assert_eq!(restored.len(), base.len());
                assert_eq!(restored.popped(), base.popped());
                assert_eq!(restored.now(), base.now());

                let mut payload = base_payload;
                let mut pops = base_pops.clone();
                apply_ops(&mut restored, &ops[cut..], &mut payload, &mut pops);
                pops.extend(restored.drain());
                let mut expected = ref_pops.clone();
                expected.extend(ref_rest.iter().copied());
                assert_eq!(pops, expected, "src {src} -> dst {dst} cut {cut}");
                assert_eq!(restored.popped(), reference.popped(), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn snapshot_of_empty_queue_round_trips() {
        let q: EventQueue<u64> = EventQueue::new();
        let snap = q.snapshot();
        assert!(snap.events.is_empty());
        let mut restored: EventQueue<u64> = EventQueue::new();
        restored.load_snapshot(snap);
        assert!(restored.is_empty());
        assert_eq!(restored.popped(), 0);
    }

    #[test]
    #[should_panic(expected = "fresh queue")]
    fn load_snapshot_rejects_used_queue() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::from_nanos(1), 1);
        let snap = q.snapshot();
        q.load_snapshot(snap);
    }

    #[test]
    fn snapshot_mid_tie_burst_preserves_fifo() {
        // The hardest internal state: a wheel mid-drain with fused
        // pending runs. Snapshot must linearize it exactly.
        let mut q: EventQueue<u32> = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let t = SimTime::from_nanos(1_000);
        for i in 0..40 {
            q.push(t, i);
        }
        for _ in 0..20 {
            q.pop();
        }
        for i in 40..50 {
            q.push(t, i); // fused same-instant pushes mid-drain
        }
        let snap = q.snapshot();
        let mut restored: EventQueue<u32> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        restored.load_snapshot(snap);
        let a: Vec<u32> = q.drain().map(|(_, e)| e).collect();
        let b: Vec<u32> = restored.drain().map(|(_, e)| e).collect();
        assert_eq!(a, b);
        assert_eq!(a, (20..50).collect::<Vec<u32>>());
    }

    #[test]
    fn differential_same_time_bursts() {
        // Lockstep bursts (64 nodes completing simultaneously) with
        // occasional jumps past the wheel horizon.
        let mut ops = Vec::new();
        for round in 0..40u64 {
            for _ in 0..64 {
                ops.push((1u8, (round % 3) * (1 << BUCKET_SHIFT)));
            }
            // A couple of far-future stragglers each round.
            ops.push((1, (DEFAULT_BUCKETS as u64 + 3) << BUCKET_SHIFT));
            for _ in 0..60 {
                ops.push((0, 0));
            }
        }
        differential(&ops);
    }

    /// A scheduling distance drawn log-uniformly from 1 ns to 2^56 ns:
    /// same-bucket, fine-horizon, and six coarse levels of the smallest
    /// wheel (fine horizon 2^25 ns, a level every 6 bits). The clock
    /// stays far from `u64` overflow over a few hundred operations.
    fn across_levels(rng: &mut SplitMix64) -> u64 {
        match rng.next_below(8) {
            0 => 0,
            _ => {
                let bits = 1 + rng.next_below(56);
                rng.next_below(1 << bits)
            }
        }
    }

    #[test]
    fn overflow_pushes_count_events_above_the_first_coarse_level() {
        // Smallest wheel: fine horizon 64 buckets (2^25 ns), first coarse
        // level 64 fine horizons (2^31 ns).
        let mut q: EventQueue<u32> =
            EventQueue::with_backend_capacity(QueueBackend::CalendarWheel, MIN_BUCKETS);
        q.push(SimTime::from_nanos((1 << 25) - 1), 0); // fine
        q.push(SimTime::from_nanos(1 << 25), 1); // first coarse level
        q.push(SimTime::from_nanos((1 << 31) - 1), 2); // first coarse level
        assert_eq!(q.overflow_pushes(), 0);
        q.push(SimTime::from_nanos(1 << 31), 3); // second coarse level
        q.push(SimTime::from_nanos(u64::MAX), 4); // top level
        assert_eq!(q.overflow_pushes(), 2);
        let out: Vec<u32> = q.drain().map(|(_, e)| e).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        // Cascades are not pushes: the counter only moves on `push`.
        assert_eq!(q.overflow_pushes(), 2);
        let mut heap: EventQueue<u32> = EventQueue::with_backend(QueueBackend::BinaryHeap);
        heap.push(SimTime::from_nanos(u64::MAX), 0);
        assert_eq!(heap.overflow_pushes(), 0);
    }

    /// A coarse bucket whose first fine bucket is also occupied on the
    /// fine level must cascade before that fine bucket is drained: its
    /// events may be earlier, or tie with older seqs.
    #[test]
    fn coarse_bucket_cascades_before_the_fine_bucket_at_its_start() {
        for (a_off, b_off) in [(50u64, 100u64), (70, 70)] {
            // Smallest wheel: 64 fine buckets, so fine bucket 64 is the
            // first of coarse bucket 1.
            let mut q: EventQueue<char> =
                EventQueue::with_backend_capacity(QueueBackend::CalendarWheel, MIN_BUCKETS);
            let base = 64u64 << BUCKET_SHIFT;
            q.push(SimTime::from_nanos(base + a_off), 'a'); // coarse level
            q.push(SimTime::from_nanos(1 << BUCKET_SHIFT), 'c');
            assert_eq!(q.pop().map(|(_, e)| e), Some('c'));
            q.push(SimTime::from_nanos(base + b_off), 'b'); // fine level
            let out: Vec<char> = q.drain().map(|(_, e)| e).collect();
            assert_eq!(out, ['a', 'b'], "a at +{a_off}, b at +{b_off}");
        }
    }

    #[test]
    fn restore_places_events_relative_to_the_snapshot_clock() {
        // A queue paused far into a run: its events sit just past the
        // clock, so a restored wheel must put them on the fine level,
        // not count them as far-future pushes from time zero.
        let clock = SimTime::from_nanos(1 << 40);
        let snap = QueueSnapshot {
            events: (0..8u64)
                .map(|i| (clock + crate::time::Duration::from_millis(i), i))
                .collect(),
            popped: 100,
            last_popped: clock,
        };
        let mut q: EventQueue<u64> =
            EventQueue::with_backend_capacity(QueueBackend::CalendarWheel, MIN_BUCKETS);
        q.load_snapshot(snap);
        assert_eq!(q.overflow_pushes(), 0);
        assert_eq!(
            q.drain().map(|(_, e)| e).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_mid_cascade_restores_exactly() {
        // Events on four levels of the smallest wheel; popping the first
        // coarse-level event cascades its bucket and moves the cursor
        // while the higher levels still hold events. A snapshot taken
        // there must resume identically on every backend.
        let mut src: EventQueue<u64> =
            EventQueue::with_backend_capacity(QueueBackend::CalendarWheel, MIN_BUCKETS);
        let times = [
            1u64 << 26,
            (1 << 26) + 5,
            (1 << 26) + (1 << 20),
            3 << 31,
            3 << 31,
            (1 << 37) + 1,
            1 << 50,
            7,
        ];
        for (i, &t) in times.iter().enumerate() {
            src.push(SimTime::from_nanos(t), i as u64);
        }
        assert_eq!(src.pop(), Some((SimTime::from_nanos(7), 7)));
        assert_eq!(src.pop(), Some((SimTime::from_nanos(1 << 26), 0)));
        // Mid-cascade state: a drained-into fine bucket plus three
        // populated coarse levels. Push a tie with a coarse event too.
        src.push(SimTime::from_nanos(3 << 31), 8);
        let snap = src.snapshot();
        let mut expected = src.clone();
        for mut dst in oracle_and_wheels() {
            dst.load_snapshot(snap.clone());
            dst.push(SimTime::from_nanos((1 << 26) + 5), 9);
            let mut reference = expected.clone();
            reference.push(SimTime::from_nanos((1 << 26) + 5), 9);
            let a: Vec<_> = dst.drain().collect();
            let b: Vec<_> = reference.drain().collect();
            assert_eq!(a, b);
            assert_eq!(
                a.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
                [1, 9, 2, 3, 4, 8, 5, 6]
            );
        }
        assert_eq!(expected.drain().count(), 7);
    }

    proptest! {
        /// Popped event times are non-decreasing for any insertion order.
        #[test]
        fn prop_pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            for backend in BACKENDS {
                let mut q = EventQueue::<u64>::with_backend(backend);
                for &t in &times {
                    q.push(SimTime::from_nanos(t), t);
                }
                let mut last = 0u64;
                while let Some((t, _)) = q.pop() {
                    prop_assert!(t.as_nanos() >= last);
                    last = t.as_nanos();
                }
            }
        }

        /// Every pushed event is popped exactly once.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..1_000, 0..100)) {
            for backend in BACKENDS {
                let mut q = EventQueue::with_backend(backend);
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(t), i);
                }
                let mut seen: Vec<usize> = q.drain().map(|(_, e)| e).collect();
                seen.sort_unstable();
                let expected: Vec<usize> = (0..times.len()).collect();
                prop_assert_eq!(seen, expected);
            }
        }

        /// Snapshot differential: a random workload paused at a random
        /// boundary, snapshotted, and restored into every backend (all
        /// source × destination pairs) finishes byte-identical to the
        /// uninterrupted run.
        #[test]
        fn prop_snapshot_restore_is_transparent(seed in 0u64..120, cut_frac in 0u64..100) {
            let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
            let mut ops: Vec<(u8, u64)> = Vec::with_capacity(200);
            for _ in 0..200 {
                let op = rng.next_below(3) as u8;
                let dt = match rng.next_below(4) {
                    0 => 0,
                    1 => rng.next_below(1 << BUCKET_SHIFT),
                    2 => rng.next_below((DEFAULT_BUCKETS as u64) << BUCKET_SHIFT),
                    _ => rng.next_below((4 * DEFAULT_BUCKETS as u64) << BUCKET_SHIFT),
                };
                ops.push((op, dt));
            }
            let cut = (ops.len() as u64 * cut_frac / 100) as usize;
            snapshot_differential(&ops, cut);
        }

        /// Differential across the whole level hierarchy: scheduling
        /// distances from 0 to 2^56 ns push events onto every coarse
        /// level, so pops interleave fine drains with multi-level
        /// cascades; the wheels must match the heap at every step.
        #[test]
        fn prop_wheel_matches_heap_across_levels(seed in 0u64..300) {
            let mut rng = SplitMix64::new(seed ^ 0x5EED_1E7E);
            let ops: Vec<(u8, u64)> = (0..300)
                .map(|_| (rng.next_below(3) as u8, across_levels(&mut rng)))
                .collect();
            differential(&ops);
        }

        /// Snapshot/restore taken anywhere in a multi-level workload —
        /// including between a cascade and the drain of the buckets it
        /// filled — resumes identically on every backend.
        #[test]
        fn prop_snapshot_across_levels_is_transparent(seed in 0u64..80, cut_frac in 0u64..100) {
            let mut rng = SplitMix64::new(seed ^ 0xCA5C_ADE0);
            let ops: Vec<(u8, u64)> = (0..160)
                .map(|_| (rng.next_below(3) as u8, across_levels(&mut rng)))
                .collect();
            let cut = (ops.len() as u64 * cut_frac / 100) as usize;
            snapshot_differential(&ops, cut);
        }

        /// Differential: random interleaved push/pop workloads produce
        /// identical pop sequences (order, FIFO ties, and conservation)
        /// on the arena wheel and the reference heap.
        #[test]
        fn prop_wheel_matches_heap(seed in 0u64..400) {
            let mut rng = SplitMix64::new(seed);
            let mut ops: Vec<(u8, u64)> = Vec::with_capacity(400);
            for _ in 0..400 {
                let op = rng.next_below(3) as u8;
                // Mix of scheduling distances: same-instant ties, intra-
                // bucket, cross-bucket, and beyond the fine horizon.
                let dt = match rng.next_below(4) {
                    0 => 0,
                    1 => rng.next_below(1 << BUCKET_SHIFT),
                    2 => rng.next_below((DEFAULT_BUCKETS as u64) << BUCKET_SHIFT),
                    _ => rng.next_below((4 * DEFAULT_BUCKETS as u64) << BUCKET_SHIFT),
                };
                ops.push((op, dt));
            }
            differential(&ops);
        }
    }
}
