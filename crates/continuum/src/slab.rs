//! Arena allocators and the engine's per-task table.
//!
//! Three structures, all deterministic and allocation-free in steady
//! state:
//!
//! * [`Slab`] — a plain free-list arena with `u32` keys.
//! * [`GenSlab`] — a generational arena: keys carry a generation that
//!   is bumped on every reuse, so a stale key held across a
//!   remove/insert cycle is detected instead of silently aliasing the
//!   new occupant. This is the idiom behind the engine's stale-event
//!   guards (task attempt epochs, node run epochs).
//! * [`TaskBook`] — the per-task hot state of the simulator (queue-wait
//!   arrival stamp, attempt count, terminal/cancel/timeout flags) laid
//!   out as a paged dense table indexed by the raw [`TaskId`] value.
//!   Task ids are handed out densely and monotonically by
//!   `SimCore::fresh_task_id`, so direct indexing replaces hashed side
//!   tables. `TaskBook` is a point-wise map — it is never iterated — so
//!   a model test over random operation sequences against std maps
//!   (`task_book_matches_the_std_map_model`) checks all of its
//!   behaviour.
//!
//! [`TaskId`]: crate::ids::TaskId

use crate::time::SimTime;

const NIL: u32 = u32::MAX;

/// A free-list arena with `u32` keys.
///
/// `insert` returns the key of the stored value; `remove` returns the
/// value and recycles the key. Keys are reused aggressively — use
/// [`GenSlab`] when stale keys must be detected.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<SlabEntry<T>>,
    free_head: u32,
    len: usize,
}

#[derive(Debug, Clone)]
enum SlabEntry<T> {
    Occupied(T),
    /// Next free index, or [`NIL`] at the end of the free list.
    Vacant(u32),
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Slab { entries: Vec::new(), free_head: NIL, len: 0 }
    }

    /// An empty arena with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Slab { entries: Vec::with_capacity(cap), free_head: NIL, len: 0 }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the backing storage for at least `additional` more values.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Stores `value`, returning its key.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            match self.entries[idx as usize] {
                SlabEntry::Vacant(next) => self.free_head = next,
                SlabEntry::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            self.entries[idx as usize] = SlabEntry::Occupied(value);
            idx
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push(SlabEntry::Occupied(value));
            idx
        }
    }

    /// Removes and returns the value under `key` (`None` when vacant).
    pub fn remove(&mut self, key: u32) -> Option<T> {
        let slot = self.entries.get_mut(key as usize)?;
        if matches!(slot, SlabEntry::Vacant(_)) {
            return None;
        }
        let taken = std::mem::replace(slot, SlabEntry::Vacant(self.free_head));
        self.free_head = key;
        self.len -= 1;
        match taken {
            SlabEntry::Occupied(v) => Some(v),
            SlabEntry::Vacant(_) => unreachable!("checked occupied above"),
        }
    }

    /// The value under `key`, if occupied.
    pub fn get(&self, key: u32) -> Option<&T> {
        match self.entries.get(key as usize) {
            Some(SlabEntry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutable access to the value under `key`, if occupied.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.entries.get_mut(key as usize) {
            Some(SlabEntry::Occupied(v)) => Some(v),
            _ => None,
        }
    }
}

/// A key into a [`GenSlab`]: index plus the generation it was issued at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenKey {
    idx: u32,
    generation: u32,
}

impl GenKey {
    /// The raw slot index (stable while the key is live).
    pub fn index(self) -> u32 {
        self.idx
    }

    /// The generation the key was issued at.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// A generational arena: every slot carries a generation bumped on
/// removal, and lookups validate the key's generation, so a key held
/// across a remove/reinsert cycle reads as dead instead of aliasing the
/// slot's new occupant.
#[derive(Debug, Clone, Default)]
pub struct GenSlab<T> {
    slots: Vec<GenEntry<T>>,
    free_head: u32,
    len: usize,
}

#[derive(Debug, Clone)]
struct GenEntry<T> {
    generation: u32,
    state: SlabEntry<T>,
}

impl<T> GenSlab<T> {
    /// An empty arena.
    pub fn new() -> Self {
        GenSlab { slots: Vec::new(), free_head: NIL, len: 0 }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, returning a generation-stamped key.
    pub fn insert(&mut self, value: T) -> GenKey {
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            match slot.state {
                SlabEntry::Vacant(next) => self.free_head = next,
                SlabEntry::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            slot.state = SlabEntry::Occupied(value);
            GenKey { idx, generation: slot.generation }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(GenEntry { generation: 0, state: SlabEntry::Occupied(value) });
            GenKey { idx, generation: 0 }
        }
    }

    /// Removes and returns the value under `key`; `None` when the key
    /// is stale (slot reused) or already vacant.
    pub fn remove(&mut self, key: GenKey) -> Option<T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.generation != key.generation || matches!(slot.state, SlabEntry::Vacant(_)) {
            return None;
        }
        let taken = std::mem::replace(&mut slot.state, SlabEntry::Vacant(self.free_head));
        slot.generation = slot.generation.wrapping_add(1);
        self.free_head = key.idx;
        self.len -= 1;
        match taken {
            SlabEntry::Occupied(v) => Some(v),
            SlabEntry::Vacant(_) => unreachable!("checked occupied above"),
        }
    }

    /// The value under `key`, if the key is still live.
    pub fn get(&self, key: GenKey) -> Option<&T> {
        match self.slots.get(key.idx as usize) {
            Some(GenEntry { generation, state: SlabEntry::Occupied(v) })
                if *generation == key.generation =>
            {
                Some(v)
            }
            _ => None,
        }
    }

    /// Mutable access to the value under `key`, if still live.
    pub fn get_mut(&mut self, key: GenKey) -> Option<&mut T> {
        match self.slots.get_mut(key.idx as usize) {
            Some(GenEntry { generation, state: SlabEntry::Occupied(v) })
                if *generation == key.generation =>
            {
                Some(v)
            }
            _ => None,
        }
    }
}

/// Per-task hot state: one 16-byte record per task ever created, stored
/// in demand-allocated pages of [`TaskBook::PAGE`] records.
///
/// It behaves as five point-wise maps keyed by raw task id — a
/// queue-entry stamp map, an attempts map and the finished,
/// cancel-pending and timeout-pending sets — but a lookup is two shifts
/// and two indexed loads instead of a hash probe.
#[derive(Debug, Default)]
pub struct TaskBook {
    pages: Vec<Option<Box<[TaskSlot; TaskBook::PAGE]>>>,
}

/// Absent queue-wait stamp sentinel (valid stamps are event times, which
/// never reach `u64::MAX`).
const NO_STAMP: u64 = u64::MAX;

const FINISHED: u8 = 1 << 0;
const CANCEL_PENDING: u8 = 1 << 1;
const TIMEOUT_PENDING: u8 = 1 << 2;

#[derive(Debug, Clone, Copy)]
struct TaskSlot {
    /// Queue arrival stamp in µs, or [`NO_STAMP`].
    queued_at: u64,
    /// Attempts consumed (0 = no retry bookkeeping yet; first dispatch
    /// books attempt 1).
    attempts: u32,
    flags: u8,
}

const EMPTY_SLOT: TaskSlot = TaskSlot { queued_at: NO_STAMP, attempts: 0, flags: 0 };

impl TaskBook {
    /// Records per page (16 KiB pages at 16 bytes per record).
    pub const PAGE: usize = 1 << 10;

    /// An empty book.
    pub fn new() -> Self {
        TaskBook::default()
    }

    /// Whether any state has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    fn slot(&self, raw: u64) -> Option<&TaskSlot> {
        let page = (raw as usize) / Self::PAGE;
        self.pages.get(page)?.as_ref().map(|p| &p[(raw as usize) % Self::PAGE])
    }

    fn slot_mut(&mut self, raw: u64) -> &mut TaskSlot {
        let page = (raw as usize) / Self::PAGE;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let boxed = self.pages[page].get_or_insert_with(|| Box::new([EMPTY_SLOT; Self::PAGE]));
        &mut boxed[(raw as usize) % Self::PAGE]
    }

    /// Stamps the instant `raw` entered a node queue.
    pub fn stamp_queued(&mut self, raw: u64, at: SimTime) {
        self.slot_mut(raw).queued_at = at.as_micros();
    }

    /// Takes (and clears) the queue-entry stamp of `raw`.
    pub fn take_queued(&mut self, raw: u64) -> Option<SimTime> {
        match self.slot(raw) {
            Some(s) if s.queued_at != NO_STAMP => {
                let at = SimTime::from_micros(s.queued_at);
                self.slot_mut(raw).queued_at = NO_STAMP;
                Some(at)
            }
            _ => None,
        }
    }

    /// Attempts consumed by `raw`, if any were booked.
    pub fn attempts(&self, raw: u64) -> Option<u32> {
        match self.slot(raw) {
            Some(s) if s.attempts > 0 => Some(s.attempts),
            _ => None,
        }
    }

    /// Books the attempt count for `raw`, returning the booked value;
    /// a fresh task books attempt 1.
    pub fn book_first_attempt(&mut self, raw: u64) -> u32 {
        let s = self.slot_mut(raw);
        if s.attempts == 0 {
            s.attempts = 1;
        }
        s.attempts
    }

    /// Overwrites the attempt count for `raw`. `n` is at least 1 (0
    /// reads back as no bookkeeping, like [`TaskBook::clear_attempts`]).
    pub fn set_attempts(&mut self, raw: u64, n: u32) {
        self.slot_mut(raw).attempts = n;
    }

    /// Clears the attempt bookkeeping for `raw`.
    pub fn clear_attempts(&mut self, raw: u64) {
        self.slot_mut(raw).attempts = 0;
    }

    /// Marks `raw` terminal (completed, abandoned, shed or cancelled).
    pub fn mark_finished(&mut self, raw: u64) {
        self.slot_mut(raw).flags |= FINISHED;
    }

    /// Whether `raw` reached a terminal state.
    pub fn is_finished(&self, raw: u64) -> bool {
        self.slot(raw).is_some_and(|s| s.flags & FINISHED != 0)
    }

    /// Marks `raw` cancelled-while-in-transfer.
    pub fn mark_cancel_pending(&mut self, raw: u64) {
        self.slot_mut(raw).flags |= CANCEL_PENDING;
    }

    /// Takes (and clears) the cancelled-while-in-transfer mark.
    pub fn take_cancel_pending(&mut self, raw: u64) -> bool {
        match self.slot(raw) {
            Some(s) if s.flags & CANCEL_PENDING != 0 => {
                self.slot_mut(raw).flags &= !CANCEL_PENDING;
                true
            }
            _ => false,
        }
    }

    /// Marks `raw` timed-out-while-in-transfer.
    pub fn mark_timeout_pending(&mut self, raw: u64) {
        self.slot_mut(raw).flags |= TIMEOUT_PENDING;
    }

    /// Takes (and clears) the timed-out-while-in-transfer mark.
    pub fn take_timeout_pending(&mut self, raw: u64) -> bool {
        match self.slot(raw) {
            Some(s) if s.flags & TIMEOUT_PENDING != 0 => {
                self.slot_mut(raw).flags &= !TIMEOUT_PENDING;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_remove_reuses_keys() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None, "double remove is None");
        let c = s.insert("c");
        assert_eq!(c, a, "freed key is recycled");
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.get(c), Some(&"c"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn slab_get_mut_updates_in_place() {
        let mut s = Slab::with_capacity(4);
        let k = s.insert(1u32);
        *s.get_mut(k).expect("live") += 41;
        assert_eq!(s.get(k), Some(&42));
        assert!(s.get_mut(999).is_none());
    }

    #[test]
    fn gen_slab_detects_stale_keys() {
        let mut s = GenSlab::new();
        let k1 = s.insert("first");
        assert_eq!(s.remove(k1), Some("first"));
        let k2 = s.insert("second");
        assert_eq!(k1.index(), k2.index(), "slot is reused");
        assert_ne!(k1.generation(), k2.generation());
        assert_eq!(s.get(k1), None, "stale key reads as dead");
        assert_eq!(s.remove(k1), None, "stale key cannot remove the new occupant");
        assert_eq!(s.get(k2), Some(&"second"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn gen_slab_mixed_churn_keeps_len_consistent() {
        let mut s = GenSlab::new();
        let mut live = Vec::new();
        for round in 0u32..8 {
            for i in 0..16 {
                live.push((s.insert(round * 100 + i), round * 100 + i));
            }
            // Remove every other key issued this round.
            let drain: Vec<_> =
                live.iter().enumerate().filter(|(i, _)| i % 2 == 0).map(|(_, kv)| *kv).collect();
            for (k, v) in &drain {
                assert_eq!(s.remove(*k), Some(*v));
            }
            live.retain(|(k, _)| s.get(*k).is_some());
        }
        assert_eq!(s.len(), live.len());
        for (k, v) in live {
            assert_eq!(s.get(k), Some(&v));
        }
    }

    #[test]
    fn task_book_stamp_round_trip() {
        let mut b = TaskBook::new();
        assert!(b.is_empty());
        assert_eq!(b.take_queued(7), None);
        b.stamp_queued(7, SimTime::from_micros(123));
        assert_eq!(b.take_queued(7), Some(SimTime::from_micros(123)));
        assert_eq!(b.take_queued(7), None, "take clears the stamp");
        assert!(!b.is_empty());
    }

    #[test]
    fn task_book_attempts_match_hashmap_entry_semantics() {
        let mut b = TaskBook::new();
        assert_eq!(b.attempts(3), None);
        assert_eq!(b.book_first_attempt(3), 1, "fresh task books attempt 1");
        assert_eq!(b.book_first_attempt(3), 1, "booking is idempotent");
        b.set_attempts(3, 4);
        assert_eq!(b.attempts(3), Some(4));
        b.clear_attempts(3);
        assert_eq!(b.attempts(3), None);
    }

    #[test]
    fn task_book_flags_are_independent() {
        let mut b = TaskBook::new();
        let raw = (TaskBook::PAGE as u64) * 3 + 17; // force a non-zero page
        assert!(!b.is_finished(raw));
        b.mark_finished(raw);
        b.mark_cancel_pending(raw);
        assert!(b.is_finished(raw));
        assert!(!b.take_timeout_pending(raw));
        assert!(b.take_cancel_pending(raw));
        assert!(!b.take_cancel_pending(raw), "take clears the flag");
        assert!(b.is_finished(raw), "finished survives other flag churn");
        b.mark_timeout_pending(raw);
        assert!(b.take_timeout_pending(raw));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random operation sequences over raw ids on several pages
        /// (each page's first, second and last record) read back exactly
        /// what five std maps read back.
        #[test]
        fn task_book_matches_the_std_map_model(
            ops in proptest::collection::vec((0u8..12, 0u64..5, 0usize..3, 1u64..1_000), 1..400),
        ) {
            use std::collections::{BTreeMap, BTreeSet};
            let offsets = [0, 1, TaskBook::PAGE as u64 - 1];
            let mut book = TaskBook::new();
            let mut queued_at: BTreeMap<u64, SimTime> = BTreeMap::new();
            let mut attempts: BTreeMap<u64, u32> = BTreeMap::new();
            let mut finished = BTreeSet::new();
            let mut cancel_pending = BTreeSet::new();
            let mut timeout_pending = BTreeSet::new();
            for &(op, page, offset, v) in &ops {
                let raw = page * TaskBook::PAGE as u64 + offsets[offset];
                match op {
                    0 => {
                        book.stamp_queued(raw, SimTime::from_micros(v));
                        queued_at.insert(raw, SimTime::from_micros(v));
                    }
                    1 => proptest::prop_assert_eq!(book.take_queued(raw), queued_at.remove(&raw)),
                    2 => proptest::prop_assert_eq!(book.attempts(raw), attempts.get(&raw).copied()),
                    3 => proptest::prop_assert_eq!(
                        book.book_first_attempt(raw),
                        *attempts.entry(raw).or_insert(1)
                    ),
                    4 => {
                        book.set_attempts(raw, v as u32);
                        attempts.insert(raw, v as u32);
                    }
                    5 => {
                        book.clear_attempts(raw);
                        attempts.remove(&raw);
                    }
                    6 => {
                        book.mark_finished(raw);
                        finished.insert(raw);
                    }
                    7 => proptest::prop_assert_eq!(book.is_finished(raw), finished.contains(&raw)),
                    8 => {
                        book.mark_cancel_pending(raw);
                        cancel_pending.insert(raw);
                    }
                    9 => proptest::prop_assert_eq!(
                        book.take_cancel_pending(raw),
                        cancel_pending.remove(&raw)
                    ),
                    10 => {
                        book.mark_timeout_pending(raw);
                        timeout_pending.insert(raw);
                    }
                    _ => proptest::prop_assert_eq!(
                        book.take_timeout_pending(raw),
                        timeout_pending.remove(&raw)
                    ),
                }
            }
            // Whole-state comparison: every id's every field.
            for page in 0..5 {
                for offset in offsets {
                    let raw = page * TaskBook::PAGE as u64 + offset;
                    proptest::prop_assert_eq!(book.attempts(raw), attempts.get(&raw).copied());
                    proptest::prop_assert_eq!(book.is_finished(raw), finished.contains(&raw));
                    proptest::prop_assert_eq!(book.take_queued(raw), queued_at.remove(&raw));
                    proptest::prop_assert_eq!(
                        book.take_cancel_pending(raw),
                        cancel_pending.remove(&raw)
                    );
                    proptest::prop_assert_eq!(
                        book.take_timeout_pending(raw),
                        timeout_pending.remove(&raw)
                    );
                }
            }
        }
    }

    #[test]
    fn task_book_pages_allocate_on_demand() {
        let mut b = TaskBook::new();
        b.mark_finished(0);
        b.mark_finished((TaskBook::PAGE as u64) * 5);
        assert_eq!(b.pages.len(), 6);
        assert!(b.pages[0].is_some());
        assert!(b.pages[1].is_none(), "untouched pages stay unallocated");
        assert!(b.pages[5].is_some());
        assert!(!b.is_finished(TaskBook::PAGE as u64 + 1), "reads never allocate");
        assert!(b.pages[1].is_none());
    }
}
