//! The engine's per-task table.
//!
//! [`TaskBook`] holds the per-task hot state of the simulator
//! (queue-wait arrival stamp, attempt count, terminal/cancel/timeout
//! flags) laid out as a paged dense table indexed by the raw
//! [`TaskId`] value. Task ids are handed out densely and monotonically
//! by `SimCore::fresh_task_id`, so direct indexing replaces hashed side
//! tables. A page whose every task reached the terminal tombstone
//! (finished, with nothing else recorded) is freed, so the table's
//! memory follows the live tasks rather than every id ever issued.
//! `TaskBook` is a point-wise map — it is never iterated — so a model
//! test over random operation sequences against std maps
//! (`task_book_matches_the_std_map_model`) checks all of its
//! behaviour, page release included.
//!
//! `ParkedTasks` holds the task instances that queued events carry
//! (an arrival in transfer, a backed-off recovery, a deferred shed
//! notice): the event names a `u32` slot, and a freed slot is reused
//! by the next park, so the per-event payload costs no allocation.
//!
//! [`TaskId`]: crate::ids::TaskId

use crate::task::TaskInstance;
use crate::time::SimTime;

/// Per-task hot state: one 16-byte record per task, stored in
/// demand-allocated pages of [`TaskBook::PAGE`] records.
///
/// It behaves as five point-wise maps keyed by raw task id — a
/// queue-entry stamp map, an attempts map and the finished,
/// cancel-pending and timeout-pending sets — but a lookup is two shifts
/// and two indexed loads instead of a hash probe.
///
/// A record equal to the terminal tombstone (finished, no attempts, no
/// stamp, no pending marks) is what every task ends as. Each live page
/// counts its tombstones; when all of a page's records are tombstones
/// the page is freed and marked retired. A read on a retired page
/// answers as the tombstone, and a write that leaves anything else
/// rebuilds the page filled with tombstones first.
#[derive(Debug, Default)]
pub struct TaskBook {
    pages: Vec<Page>,
}

#[derive(Debug, Default)]
enum Page {
    /// Never written: every record reads as [`EMPTY_SLOT`].
    #[default]
    Untouched,
    /// `tombs` of the page's records equal [`TOMBSTONE`].
    Live { slots: Box<[TaskSlot; TaskBook::PAGE]>, tombs: u16 },
    /// Freed: every record reads as [`TOMBSTONE`].
    Retired,
}

/// Absent queue-wait stamp sentinel (valid stamps are event times, which
/// never reach `u64::MAX`).
const NO_STAMP: u64 = u64::MAX;

const FINISHED: u8 = 1 << 0;
const CANCEL_PENDING: u8 = 1 << 1;
const TIMEOUT_PENDING: u8 = 1 << 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskSlot {
    /// Queue arrival stamp in µs, or [`NO_STAMP`].
    queued_at: u64,
    /// Attempts consumed (0 = no retry bookkeeping yet; first dispatch
    /// books attempt 1).
    attempts: u32,
    flags: u8,
}

const EMPTY_SLOT: TaskSlot = TaskSlot { queued_at: NO_STAMP, attempts: 0, flags: 0 };

/// The record every task ends as: finished, with nothing else recorded.
const TOMBSTONE: TaskSlot = TaskSlot { queued_at: NO_STAMP, attempts: 0, flags: FINISHED };

impl TaskBook {
    /// Records per page (16 KiB pages at 16 bytes per record).
    pub const PAGE: usize = 1 << 10;

    /// An empty book.
    pub fn new() -> Self {
        TaskBook::default()
    }

    fn slot(&self, raw: u64) -> TaskSlot {
        match self.pages.get((raw as usize) / Self::PAGE) {
            None | Some(Page::Untouched) => EMPTY_SLOT,
            Some(Page::Live { slots, .. }) => slots[(raw as usize) % Self::PAGE],
            Some(Page::Retired) => TOMBSTONE,
        }
    }

    /// Applies `write` to the record of `raw`, keeping its page's
    /// tombstone count, and frees the page once it is all tombstones.
    fn update<R>(&mut self, raw: u64, write: impl FnOnce(&mut TaskSlot) -> R) -> R {
        let mut rec = self.slot(raw);
        let was_tomb = rec == TOMBSTONE;
        let out = write(&mut rec);
        let is_tomb = rec == TOMBSTONE;
        let (page, i) = ((raw as usize) / Self::PAGE, (raw as usize) % Self::PAGE);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, Page::default);
        }
        let entry = &mut self.pages[page];
        match entry {
            // A write that leaves the tombstone changes nothing.
            Page::Retired if is_tomb => return out,
            Page::Untouched => {
                *entry = Page::Live { slots: Box::new([EMPTY_SLOT; Self::PAGE]), tombs: 0 };
            }
            Page::Retired => {
                let tombs = Self::PAGE as u16;
                *entry = Page::Live { slots: Box::new([TOMBSTONE; Self::PAGE]), tombs };
            }
            Page::Live { .. } => {}
        }
        let Page::Live { slots, tombs } = entry else { unreachable!("page made live above") };
        slots[i] = rec;
        match (was_tomb, is_tomb) {
            (false, true) => *tombs += 1,
            (true, false) => *tombs -= 1,
            _ => {}
        }
        if usize::from(*tombs) == Self::PAGE {
            *entry = Page::Retired;
        }
        out
    }

    /// Stamps the instant `raw` entered a node queue.
    pub fn stamp_queued(&mut self, raw: u64, at: SimTime) {
        self.update(raw, |s| s.queued_at = at.as_micros());
    }

    /// Takes (and clears) the queue-entry stamp of `raw`.
    pub fn take_queued(&mut self, raw: u64) -> Option<SimTime> {
        let at = self.slot(raw).queued_at;
        if at == NO_STAMP {
            return None;
        }
        self.update(raw, |s| s.queued_at = NO_STAMP);
        Some(SimTime::from_micros(at))
    }

    /// Attempts consumed by `raw`, if any were booked.
    pub fn attempts(&self, raw: u64) -> Option<u32> {
        Some(self.slot(raw).attempts).filter(|&n| n > 0)
    }

    /// Books the attempt count for `raw`, returning the booked value;
    /// a fresh task books attempt 1.
    pub fn book_first_attempt(&mut self, raw: u64) -> u32 {
        self.update(raw, |s| {
            if s.attempts == 0 {
                s.attempts = 1;
            }
            s.attempts
        })
    }

    /// Overwrites the attempt count for `raw`. `n` is at least 1 (0
    /// reads back as no bookkeeping, like [`TaskBook::clear_attempts`]).
    pub fn set_attempts(&mut self, raw: u64, n: u32) {
        self.update(raw, |s| s.attempts = n);
    }

    /// Clears the attempt bookkeeping for `raw`.
    pub fn clear_attempts(&mut self, raw: u64) {
        self.update(raw, |s| s.attempts = 0);
    }

    /// Marks `raw` terminal (completed, abandoned, shed or cancelled).
    pub fn mark_finished(&mut self, raw: u64) {
        self.update(raw, |s| s.flags |= FINISHED);
    }

    /// Whether `raw` reached a terminal state.
    pub fn is_finished(&self, raw: u64) -> bool {
        self.slot(raw).flags & FINISHED != 0
    }

    /// Marks `raw` cancelled-while-in-transfer.
    pub fn mark_cancel_pending(&mut self, raw: u64) {
        self.update(raw, |s| s.flags |= CANCEL_PENDING);
    }

    /// Takes (and clears) the cancelled-while-in-transfer mark.
    pub fn take_cancel_pending(&mut self, raw: u64) -> bool {
        self.take_flag(raw, CANCEL_PENDING)
    }

    /// Marks `raw` timed-out-while-in-transfer.
    pub fn mark_timeout_pending(&mut self, raw: u64) {
        self.update(raw, |s| s.flags |= TIMEOUT_PENDING);
    }

    /// Takes (and clears) the timed-out-while-in-transfer mark.
    pub fn take_timeout_pending(&mut self, raw: u64) -> bool {
        self.take_flag(raw, TIMEOUT_PENDING)
    }

    /// Takes (and clears) `flag` of `raw`.
    fn take_flag(&mut self, raw: u64, flag: u8) -> bool {
        if self.slot(raw).flags & flag == 0 {
            return false;
        }
        self.update(raw, |s| s.flags &= !flag);
        true
    }
}

/// Task instances parked while the queued event that carries them
/// waits, with a free list of vacated slots.
///
/// An event holds the slot index, a `u32`, instead of a boxed task, so
/// the wheel entry stays small and parking reuses the slot the last
/// taken task vacated: the slab grows to the most tasks parked at once,
/// not to the number of events. A slot is taken exactly once, by the
/// dispatch of the event that parked it.
#[derive(Debug, Default)]
pub(crate) struct ParkedTasks {
    /// Parked tasks with a note (a deferred shed notice's reason, `""`
    /// otherwise); `None` marks a free slot.
    slots: Vec<Option<(TaskInstance, &'static str)>>,
    /// Free slot indices, reused last-freed first.
    free: Vec<u32>,
}

impl ParkedTasks {
    /// Parks `task` with `note` and returns its slot.
    pub(crate) fn park(&mut self, task: TaskInstance, note: &'static str) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.slots[slot as usize];
                debug_assert!(entry.is_none(), "free slot {slot} is occupied");
                *entry = Some((task, note));
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 parked tasks");
                self.slots.push(Some((task, note)));
                slot
            }
        }
    }

    /// Takes the task (and note) parked at `slot`, freeing the slot.
    ///
    /// # Panics
    ///
    /// When `slot` holds no task: each slot is taken once per park.
    pub(crate) fn take(&mut self, slot: u32) -> (TaskInstance, &'static str) {
        let parked = self.slots[slot as usize].take().expect("parked slot taken twice");
        self.free.push(slot);
        parked
    }

    /// Slots holding a task.
    #[cfg(test)]
    pub(crate) fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever created: the most tasks parked at once.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_book_stamp_round_trip() {
        let mut b = TaskBook::new();
        assert_eq!(b.take_queued(7), None);
        b.stamp_queued(7, SimTime::from_micros(123));
        assert_eq!(b.take_queued(7), Some(SimTime::from_micros(123)));
        assert_eq!(b.take_queued(7), None, "take clears the stamp");
    }

    #[test]
    fn parked_tasks_reuse_freed_slots() {
        use crate::ids::TaskId;
        let task = |raw| TaskInstance::new(TaskId::from_raw(raw), 1.0);
        let mut p = ParkedTasks::default();
        let (a, b) = (p.park(task(1), ""), p.park(task(2), "queue_full"));
        assert_eq!((a, b), (0, 1));
        assert_eq!(p.take(b).1, "queue_full");
        assert_eq!(p.park(task(3), ""), b, "the freed slot is reused");
        assert_eq!(p.take(a).0.id, TaskId::from_raw(1));
        assert_eq!(p.take(b).0.id, TaskId::from_raw(3));
        assert_eq!((p.occupied(), p.slot_count()), (0, 2));
    }

    #[test]
    #[should_panic(expected = "parked slot taken twice")]
    fn a_parked_slot_is_taken_once() {
        let mut p = ParkedTasks::default();
        let slot = p.park(TaskInstance::new(crate::ids::TaskId::from_raw(1), 1.0), "");
        p.take(slot);
        p.take(slot);
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
        /// what five std maps read back. One op finishes a whole page,
        /// which frees it, so later reads and writes land on retired
        /// pages too.
        #[test]
        fn task_book_matches_the_std_map_model(
            ops in proptest::collection::vec((0u8..13, 0u64..5, 0usize..3, 1u64..1_000), 1..400),
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
                    11 => proptest::prop_assert_eq!(
                        book.take_timeout_pending(raw),
                        timeout_pending.remove(&raw)
                    ),
                    _ => {
                        // Every task of the page reaches the tombstone.
                        let first = page * TaskBook::PAGE as u64;
                        for raw in first..first + TaskBook::PAGE as u64 {
                            finish(&mut book, raw);
                            finished.insert(raw);
                            attempts.remove(&raw);
                            queued_at.remove(&raw);
                            cancel_pending.remove(&raw);
                            timeout_pending.remove(&raw);
                        }
                    }
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
        assert!(matches!(b.pages[0], Page::Live { .. }));
        assert!(matches!(b.pages[1], Page::Untouched), "untouched pages stay unallocated");
        assert!(matches!(b.pages[5], Page::Live { .. }));
        assert!(!b.is_finished(TaskBook::PAGE as u64 + 1), "reads never allocate");
        assert!(matches!(b.pages[1], Page::Untouched));
    }

    /// Drives `raw` to the terminal tombstone the way the engine's
    /// terminal transitions do, plus every take a finished task may see.
    fn finish(book: &mut TaskBook, raw: u64) {
        book.mark_finished(raw);
        book.clear_attempts(raw);
        book.take_queued(raw);
        book.take_cancel_pending(raw);
        book.take_timeout_pending(raw);
    }

    #[test]
    fn task_book_frees_a_page_of_tombstones_and_rebuilds_it_on_write() {
        let page = TaskBook::PAGE as u64;
        let mut b = TaskBook::new();
        // Page 1 carries state of every kind before its tasks finish.
        for raw in page..2 * page {
            b.stamp_queued(raw, SimTime::from_micros(raw));
            b.book_first_attempt(raw);
            if raw % 3 == 0 {
                b.mark_timeout_pending(raw);
            }
        }
        for raw in page..2 * page - 1 {
            finish(&mut b, raw);
        }
        assert!(matches!(b.pages[1], Page::Live { tombs: 1023, .. }));
        finish(&mut b, 2 * page - 1);
        assert!(matches!(b.pages[1], Page::Retired), "an all-tombstone page is freed");

        // Reads on the freed page match the std model of finished tasks.
        for raw in [page, page + 1, 2 * page - 1] {
            assert!(b.is_finished(raw));
            assert_eq!(b.attempts(raw), None);
            assert_eq!(b.take_queued(raw), None);
            assert!(!b.take_cancel_pending(raw));
            assert!(!b.take_timeout_pending(raw));
        }
        // Writes that leave the tombstone keep the page freed.
        b.mark_finished(page + 5);
        b.clear_attempts(page + 5);
        assert!(matches!(b.pages[1], Page::Retired));

        // Any other write rebuilds the page, filled with tombstones.
        b.mark_cancel_pending(page + 7);
        assert!(matches!(b.pages[1], Page::Live { tombs: 1023, .. }));
        assert!(b.is_finished(page + 6) && b.is_finished(page + 7));
        assert!(b.take_cancel_pending(page + 7));
        assert!(matches!(b.pages[1], Page::Retired), "freed again once all tombstones");

        // A page with one live id stays.
        for raw in 2 * page..3 * page {
            if raw != 2 * page + 9 {
                finish(&mut b, raw);
            }
        }
        b.book_first_attempt(2 * page + 9);
        b.mark_finished(2 * page + 9);
        assert!(matches!(b.pages[2], Page::Live { tombs: 1023, .. }));
        assert_eq!(b.attempts(2 * page + 9), Some(1));
        assert!(!b.is_finished(page * 3 + 1), "untouched pages read as empty");
    }
}
