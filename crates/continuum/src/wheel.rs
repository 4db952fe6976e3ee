//! Hierarchical timing wheel: the engine's event queue.
//!
//! A calendar queue specialised for the simulator's access pattern —
//! `push` at or after the current instant, pop in `(time, seq)` order —
//! replacing the global `BinaryHeap` whose every operation paid a
//! `log n` pointer-chasing comparison cascade.
//!
//! Layout: [`LEVELS`] levels of [`SLOTS`] slots each. Level `l` covers
//! the `l`-th 12-bit group of the microsecond timestamp, so the wheel
//! spans `4096^LEVELS` µs (≈ 8.9 years at the default 4 levels) before
//! an event falls into the sorted overflow map. An event at time `t`
//! lives at the *highest* level whose 12-bit group differs from the
//! current instant `now`; when the wheel advances into that slot the
//! event is redistributed to a lower level (or to the ready queue when
//! `t` has arrived). The wide 4096-slot levels keep the cascade depth
//! at one or two hops for any realistic delay (anything under ~16.7
//! simulated seconds). Occupancy is tracked with a two-level bitmap per
//! level (a `u64` summary over 64 `u64` words), so finding the next
//! non-empty slot is a couple of masks and `trailing_zeros`, never a
//! scan.
//!
//! Each slot is a *dense vector* of `(at, seq, item)` entries rather
//! than an intrusive linked list through a shared arena. This is the
//! load-bearing choice at millions of in-flight events: a linked-list
//! cascade is a chain of serial, dependent cache misses over a
//! multi-hundred-megabyte arena (~100 ns each, with no memory-level
//! parallelism to hide them), while redistributing a dense vector is a
//! sequential, hardware-prefetched pass at close to memcpy bandwidth.
//!
//! A slot's capacity follows how often it is drained. Level 0 is
//! drained at every instant that has events, so its slots hand their
//! vectors back and a warmed-up level 0 allocates nothing in steady
//! state. A slot at level `l >= 1` is drained once per `4096^l` µs;
//! holding its peak capacity for the rest of the run would make the
//! wheel's memory follow its history (a storm's burst) instead of its
//! live events, so a drained higher-level slot drops its vector and
//! the next round of pushes grows a fresh one.
//!
//! # Determinism
//!
//! Events drain in strictly ascending `(at, seq)` order, where `seq` is
//! the caller-supplied monotone sequence number. Within a slot the
//! entry order is arbitrary (a mix of fresh pushes and cascades), but a
//! slot is only ever consumed after a full sort of its due contents by
//! `(at, seq)`.
//!
//! Debug builds check that order with an *order oracle*: a keys-only
//! `BinaryHeap` of every queued `(at, seq)`, kept beside the wheel.
//! Every [`TimingWheel::pop_due`] asserts that the wheel returned the
//! heap's minimum (or, when nothing is due, that the heap has nothing
//! due either), and [`TimingWheel::peek_key`], [`TimingWheel::len`] and
//! [`TimingWheel::is_empty`] assert that they agree with it. `seq` is
//! unique per push, so equal key sequences mean an identical dispatch
//! order: every scenario a debug test build runs is a wheel ≡ heap
//! check. Release builds carry no oracle.

#[cfg(debug_assertions)]
use std::cmp::Reverse;
#[cfg(debug_assertions)]
use std::collections::BinaryHeap;
use std::collections::{BTreeMap, VecDeque};

/// Slots per wheel level (one 12-bit digit of the timestamp).
pub const SLOTS: usize = 4096;
const SLOT_BITS: u32 = 12;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// Number of wheel levels; times at or beyond `4096^LEVELS` µs from the
/// current instant go to the sorted overflow map.
pub const LEVELS: usize = 4;
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// `u64` words per occupancy bitmap (4096 slots / 64 bits).
const BITMAP_WORDS: usize = SLOTS / 64;

/// A hierarchical timing wheel draining items in `(at, seq)` order.
///
/// `at` is an absolute microsecond timestamp; `seq` must be strictly
/// monotone across pushes (the engine's event sequence number) and
/// breaks ties among simultaneous events.
#[derive(Debug)]
pub struct TimingWheel<T> {
    now: u64,
    len: usize,
    /// `slots[level * SLOTS + slot]` holds that slot's entries densely.
    slots: Vec<Vec<(u64, u64, T)>>,
    /// Per-level occupancy: bit `s%64` of word `s/64` ⇔ slot `s` used.
    occupied: [[u64; BITMAP_WORDS]; LEVELS],
    /// Bit `w` set ⇔ `occupied[l][w] != 0`.
    summary: [u64; LEVELS],
    /// Items due exactly at `now`, in ascending `seq` order.
    ready: VecDeque<(u64, u64, T)>,
    /// Items beyond the wheel horizon, in `(at, seq)` order.
    overflow: BTreeMap<(u64, u64), T>,
    /// Scratch for sorting a slot's due entries during redistribution.
    scratch: Vec<(u64, u64, T)>,
    /// The order oracle (debug builds): the `(at, seq)` of every queued
    /// item, in a min-heap.
    #[cfg(debug_assertions)]
    oracle: BinaryHeap<Reverse<(u64, u64)>>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> TimingWheel<T> {
    /// An empty wheel positioned at instant 0.
    pub fn new() -> Self {
        TimingWheel::with_capacity(0)
    }

    /// An empty wheel with staging-buffer capacity hints for roughly
    /// `cap` in-flight events (slot vectors size themselves adaptively).
    pub fn with_capacity(cap: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        TimingWheel {
            now: 0,
            len: 0,
            slots,
            occupied: [[0; BITMAP_WORDS]; LEVELS],
            summary: [0; LEVELS],
            ready: VecDeque::with_capacity((cap / 64).min(1 << 16)),
            overflow: BTreeMap::new(),
            scratch: Vec::new(),
            #[cfg(debug_assertions)]
            oracle: BinaryHeap::new(),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        #[cfg(debug_assertions)]
        assert_eq!(self.len, self.oracle.len(), "order oracle: queue length");
        self.len
    }

    /// Whether the wheel holds no items.
    pub fn is_empty(&self) -> bool {
        #[cfg(debug_assertions)]
        assert_eq!(self.len == 0, self.oracle.is_empty(), "order oracle: emptiness");
        self.len == 0
    }

    /// The instant the wheel has advanced to (time of the last pop).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Capacity hint for `additional` more in-flight events. Slot
    /// vectors size themselves adaptively, so this only pre-warms the
    /// shared staging buffers.
    pub fn reserve(&mut self, additional: usize) {
        let hint = (additional / 64).min(1 << 16);
        self.ready.reserve(hint);
        self.scratch.reserve(hint.min(1 << 12));
    }

    fn set_bit(&mut self, level: usize, slot: usize) {
        self.occupied[level][slot / 64] |= 1 << (slot % 64);
        self.summary[level] |= 1 << (slot / 64);
    }

    fn clear_bit(&mut self, level: usize, slot: usize) {
        let word = &mut self.occupied[level][slot / 64];
        *word &= !(1 << (slot % 64));
        if *word == 0 {
            self.summary[level] &= !(1 << (slot / 64));
        }
    }

    fn slot_occupied(&self, level: usize, slot: usize) -> bool {
        self.occupied[level][slot / 64] & (1 << (slot % 64)) != 0
    }

    /// First occupied slot at `level` with index strictly above
    /// `cursor` (the invariant guarantees occupied digits are strictly
    /// greater than the cursor digit at every level).
    fn min_slot_above(&self, level: usize, cursor: usize) -> Option<usize> {
        let words = &self.occupied[level];
        let (w0, b0) = (cursor / 64, (cursor % 64) as u32);
        let first = if b0 >= 63 { 0 } else { words[w0] & !((2u64 << b0) - 1) };
        if first != 0 {
            return Some(w0 * 64 + first.trailing_zeros() as usize);
        }
        let later = if w0 >= 63 { 0 } else { self.summary[level] & !((2u64 << w0 as u32) - 1) };
        if later == 0 {
            return None;
        }
        let w = later.trailing_zeros() as usize;
        Some(w * 64 + words[w].trailing_zeros() as usize)
    }

    /// Queues `item` at absolute time `at` with tie-break `seq`.
    ///
    /// `at` must be `>= self.now()` and `seq` strictly greater than any
    /// previously pushed `seq` (the engine's monotone event counter).
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at >= self.now, "push into the past: at={at} now={}", self.now);
        self.len += 1;
        let at = at.max(self.now);
        #[cfg(debug_assertions)]
        self.oracle.push(Reverse((at, seq)));
        if at == self.now {
            // Due immediately: seq is monotone, so push_back keeps the
            // ready queue sorted by (at, seq).
            self.ready.push_back((at, seq, item));
            return;
        }
        self.wheel_insert(at, seq, item);
    }

    /// Places a strictly-future item into its slot (or overflow).
    fn wheel_insert(&mut self, at: u64, seq: u64, item: T) {
        let diff = at ^ self.now;
        if diff >> HORIZON_BITS != 0 {
            self.overflow.insert((at, seq), item);
            return;
        }
        let (level, slot) = Self::level_slot(diff, at);
        self.slots[level * SLOTS + slot].push((at, seq, item));
        self.set_bit(level, slot);
    }

    /// Highest differing 12-bit group picks the level; the group's
    /// value in `at` picks the slot.
    #[inline]
    fn level_slot(diff: u64, at: u64) -> (usize, usize) {
        debug_assert!(diff != 0 && diff >> HORIZON_BITS == 0);
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        (level, slot)
    }

    /// The earliest `(at, seq)` across the whole queue, without popping.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        let key = match self.ready.front() {
            Some(&(at, seq, _)) => Some((at, seq)),
            None => match (self.wheel_min(), self.overflow.keys().next().copied()) {
                (Some(w), Some(o)) => Some(w.min(o)),
                (w, o) => w.or(o),
            },
        };
        #[cfg(debug_assertions)]
        assert_eq!(key, self.oracle.peek().map(|r| r.0), "order oracle: earliest key");
        key
    }

    /// Time of the earliest queued item, if any.
    pub fn next_at(&self) -> Option<u64> {
        self.peek_key().map(|(at, _)| at)
    }

    /// Pops the earliest item if it is due at or before `end`.
    pub fn pop_due(&mut self, end: u64) -> Option<(u64, u64, T)> {
        let popped = self.take_due(end);
        #[cfg(debug_assertions)]
        {
            let due = self.oracle.peek().map(|r| r.0).filter(|&(at, _)| at <= end);
            assert_eq!(
                popped.as_ref().map(|&(at, seq, _)| (at, seq)),
                due,
                "order oracle: the wheel popped out of (at, seq) order"
            );
            if due.is_some() {
                self.oracle.pop();
            }
        }
        popped
    }

    fn take_due(&mut self, end: u64) -> Option<(u64, u64, T)> {
        if self.ready.is_empty() {
            self.advance(end)?;
        } else if self.ready.front().is_some_and(|&(at, _, _)| at > end) {
            // A caller may shrink `end` between calls; items already
            // staged at `now` are then not yet due.
            return None;
        }
        let popped = self.ready.pop_front()?;
        self.len -= 1;
        Some(popped)
    }

    /// Pops the earliest item unconditionally.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_due(u64::MAX)
    }

    /// The earliest `(at, seq)` currently stored in the wheel proper.
    fn wheel_min(&self) -> Option<(u64, u64)> {
        for level in 0..LEVELS {
            let cursor = ((self.now >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            let Some(slot) = self.min_slot_above(level, cursor) else { continue };
            // A lower level is always earlier than any higher level, so
            // the first occupied level decides.
            return self.slots[level * SLOTS + slot].iter().map(|&(at, seq, _)| (at, seq)).min();
        }
        None
    }

    /// Total vector capacity, in entries, held by the slots of `level`.
    #[cfg(test)]
    fn level_capacity(&self, level: usize) -> usize {
        self.slots[level * SLOTS..(level + 1) * SLOTS].iter().map(Vec::capacity).sum()
    }

    /// Advances `now` to the next due instant (if `<= end`) and fills
    /// `ready` with every item due exactly then, in `seq` order.
    fn advance(&mut self, end: u64) -> Option<()> {
        debug_assert!(self.ready.is_empty());
        let wheel = self.wheel_min();
        let ovf = self.overflow.keys().next().copied();
        let target = match (wheel, ovf) {
            (Some(w), Some(o)) => w.min(o),
            (w, o) => w.or(o)?,
        };
        let at = target.0;
        if at > end {
            return None;
        }
        self.now = at;

        debug_assert!(self.scratch.is_empty());
        // Drain the slot that produced the minimum, re-levelling items
        // that are not yet due (they now differ from `now` in a lower
        // 12-bit group). The batch vector is moved out whole; the
        // redistribution targets are always *strictly lower* levels, so
        // the moved-out slot is never pushed to mid-drain. A level-0
        // batch is handed back empty so the slot keeps its capacity; a
        // higher-level batch is dropped (see the module docs).
        if wheel == Some(target) {
            // Locate the slot the minimum lives in: the first occupied
            // level whose cursor digit matches `at` (now == at already).
            for level in 0..LEVELS {
                let cursor = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
                let idx = level * SLOTS + cursor;
                if !self.slot_occupied(level, cursor) || self.slots[idx].is_empty() {
                    continue;
                }
                let mut batch = std::mem::take(&mut self.slots[idx]);
                self.clear_bit(level, cursor);
                for (e_at, e_seq, item) in batch.drain(..) {
                    if e_at == at {
                        self.scratch.push((e_at, e_seq, item));
                    } else {
                        // Still future: re-level one or more hops down.
                        // Never overflows — the entry was already in
                        // horizon and `now` only moved closer to it.
                        let (lvl, slot) = Self::level_slot(e_at ^ at, e_at);
                        self.slots[lvl * SLOTS + slot].push((e_at, e_seq, item));
                        self.set_bit(lvl, slot);
                    }
                }
                if level == 0 {
                    self.slots[idx] = batch;
                }
                break;
            }
        }
        // Overflow items due exactly now join the ready batch.
        while let Some(&(o_at, o_seq)) = self.overflow.keys().next() {
            if o_at != at {
                break;
            }
            let item = self.overflow.remove(&(o_at, o_seq)).expect("first overflow key");
            self.scratch.push((o_at, o_seq, item));
        }
        // Migrate overflow items that entered the horizon when `now`
        // crossed a 4096^LEVELS frame boundary, restoring the invariant
        // that overflow is strictly beyond every wheel entry.
        while let Some(&(o_at, o_seq)) = self.overflow.keys().next() {
            if (o_at ^ self.now) >> HORIZON_BITS != 0 {
                break;
            }
            let item = self.overflow.remove(&(o_at, o_seq)).expect("first overflow key");
            self.wheel_insert(o_at, o_seq, item);
        }

        self.scratch.sort_unstable_by_key(|&(a, s, _)| (a, s));
        self.ready.extend(self.scratch.drain(..));
        debug_assert!(!self.ready.is_empty(), "advance found a minimum but drained nothing");
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(w: &mut TimingWheel<T>) -> Vec<(u64, u64, T)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn drains_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        let pushes = [(500u64, 0u64), (10, 1), (500, 2), (3, 3), (10, 4), (0, 5)];
        for &(at, seq) in &pushes {
            w.push(at, seq, (at, seq));
        }
        assert_eq!(w.len(), 6);
        let order: Vec<(u64, u64)> = drain(&mut w).into_iter().map(|(a, s, _)| (a, s)).collect();
        assert_eq!(order, vec![(0, 5), (3, 3), (10, 1), (10, 4), (500, 0), (500, 2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn equal_times_drain_in_push_order() {
        let mut w = TimingWheel::new();
        for seq in 0..100u64 {
            w.push(777, seq, seq);
        }
        let items: Vec<u64> = drain(&mut w).into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn push_at_now_goes_ready_and_keeps_order() {
        let mut w = TimingWheel::new();
        w.push(100, 0, "early");
        assert_eq!(w.pop(), Some((100, 0, "early")));
        assert_eq!(w.now(), 100);
        // Now push at the current instant interleaved with the future.
        w.push(200, 1, "later");
        w.push(100, 2, "due-now");
        w.push(100, 3, "due-now-2");
        assert_eq!(w.next_at(), Some(100));
        assert_eq!(w.pop(), Some((100, 2, "due-now")));
        assert_eq!(w.pop(), Some((100, 3, "due-now-2")));
        assert_eq!(w.pop(), Some((200, 1, "later")));
    }

    #[test]
    fn pop_due_respects_end_boundary() {
        let mut w = TimingWheel::new();
        w.push(50, 0, ());
        w.push(150, 1, ());
        assert!(w.pop_due(49).is_none());
        assert_eq!(w.pop_due(50).map(|e| e.0), Some(50));
        assert!(w.pop_due(149).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(u64::MAX).map(|e| e.0), Some(150));
    }

    #[test]
    fn spans_levels_and_overflow() {
        let mut w = TimingWheel::new();
        // Events across all four 12-bit levels, plus two beyond the
        // 4096^4 µs horizon.
        let times = [
            1u64,          // level 0
            3_000,         // level 0 (still below 2^12)
            300_000,       // level 1
            20_000_000,    // level 2
            1_500_000_000, // level 2
            1u64 << 40,    // level 3
            1u64 << 50,    // beyond the horizon → overflow
            (1u64 << 50) + 1,
        ];
        for (seq, &at) in times.iter().enumerate() {
            w.push(at, seq as u64, at);
        }
        assert_eq!(w.len(), times.len());
        let drained: Vec<u64> = drain(&mut w).into_iter().map(|(a, _, _)| a).collect();
        assert_eq!(drained, times.to_vec(), "ascending times drain in order");
    }

    #[test]
    fn overflow_reenters_horizon_after_frame_jump() {
        let mut w = TimingWheel::new();
        let far = 1u64 << 50;
        w.push(far, 0, "far");
        w.push(far + 100, 1, "far+100");
        // Jump straight to the far frame by draining.
        assert_eq!(w.pop(), Some((far, 0, "far")));
        // The second item migrated into the wheel; a nearer push must
        // still come out first.
        w.push(far + 10, 2, "near");
        assert_eq!(w.pop(), Some((far + 10, 2, "near")));
        assert_eq!(w.pop(), Some((far + 100, 1, "far+100")));
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_push_pop_is_totally_ordered() {
        // Deterministic pseudo-random workload: push batches, pop some,
        // verify global (at, seq) order of everything popped.
        let mut w = TimingWheel::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut seq = 0u64;
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut remaining = 0usize;
        for _ in 0..200 {
            for _ in 0..(step() % 8) {
                // Spread pushes over several magnitudes, always >= now.
                let span = 1u64 << (step() % 52);
                let at = w.now() + step() % span.max(1);
                w.push(at, seq, ());
                seq += 1;
                remaining += 1;
            }
            for _ in 0..(step() % 6) {
                if let Some((at, s, ())) = w.pop() {
                    popped.push((at, s));
                    remaining -= 1;
                }
            }
        }
        while let Some((at, s, ())) = w.pop() {
            popped.push((at, s));
            remaining -= 1;
        }
        assert_eq!(remaining, 0);
        assert!(popped.windows(2).all(|p| p[0] < p[1]), "strictly ascending (at, seq)");
    }

    #[test]
    fn drained_higher_level_slots_release_their_capacity() {
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        // Level 1 (4,096 µs up to ~16.7 s ahead) and level 2 (beyond).
        for k in 0..3_000u64 {
            w.push(4_096 + k * 37, seq, ());
            seq += 1;
        }
        for k in 0..1_000u64 {
            w.push(20_000_000 + k * 9_001, seq, ());
            seq += 1;
        }
        assert!(w.level_capacity(1) > 0 && w.level_capacity(2) > 0);
        let popped: Vec<(u64, u64)> = drain(&mut w).into_iter().map(|(a, s, _)| (a, s)).collect();
        assert_eq!(popped.len(), 4_000);
        assert!(popped.windows(2).all(|p| p[0] < p[1]), "strictly ascending (at, seq)");
        for level in 1..LEVELS {
            assert_eq!(w.level_capacity(level), 0, "level {level} keeps no drained capacity");
        }
        assert!(w.level_capacity(0) > 0, "level-0 slots keep theirs");
    }

    /// An item that reaches the wheel without passing through `push` is
    /// one the order oracle never saw: popping it must trip the oracle.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "order oracle")]
    fn oracle_fires_when_the_wheel_pops_a_key_the_heap_never_saw() {
        let mut w = TimingWheel::new();
        w.push(10, 0, ());
        // Into the wheel half only.
        w.len += 1;
        w.wheel_insert(5, 1, ());
        w.pop();
    }

    #[test]
    fn len_tracks_through_overflow_and_ready() {
        let mut w = TimingWheel::<u32>::with_capacity(16);
        assert!(w.is_empty());
        w.push(0, 0, 1); // at == now → ready
        w.push(1u64 << 55, 1, 2); // overflow
        w.push(42, 2, 3); // wheel
        assert_eq!(w.len(), 3);
        w.pop();
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
        assert!(w.pop().is_none());
    }
}
