//! Structured trace spans: sim-time-stamped events with typed payloads,
//! retained in a bounded ring so long runs cannot exhaust memory.
//!
//! Events use raw ids (`u32` nodes/links, `u64` tasks) rather than the
//! continuum's newtypes so this crate stays a dependency-free leaf.

/// Typed payload of a trace event. Each variant maps to one `"type"`
/// tag in the JSONL export — see [`TraceKind::type_name`] and the
/// catalogue in DESIGN.md § Observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A task was submitted towards a node (locally or via the network).
    TaskDispatch {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task arrived at its destination node (after any network
    /// transfer); `dispatch → arrive` measures transfer time and
    /// `arrive → start` queue wait.
    TaskArrive {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task started executing on a node.
    TaskStart {
        /// Executing node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task ran to completion.
    TaskComplete {
        /// Executing node (raw id).
        node: u32,
        /// Task id.
        task: u64,
        /// Whether the task met its deadline (always `true` for
        /// deadline-free tasks).
        deadline_met: bool,
    },
    /// A task was lost (crash of its host, or arrival at a down node).
    /// Emitted once per task so span reconstruction can attribute every
    /// loss.
    TaskLost {
        /// Node that lost it (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A previously lost or timed-out task was re-offered for another
    /// attempt after its backoff elapsed.
    TaskRetry {
        /// Node the failed attempt targeted (raw id).
        node: u32,
        /// Task id.
        task: u64,
        /// Retry number (1-based: the first retry is attempt 1).
        attempt: u32,
    },
    /// An attempt exceeded its per-attempt timeout and was cancelled.
    TaskTimeout {
        /// Node the attempt was running or queued on (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task was cancelled (straggler timeout or replica dedup); the
    /// span ends without completing, but the task is not lost work —
    /// another attempt or replica carries it.
    TaskCancelled {
        /// Node the cancelled attempt targeted (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A node went down (fault injection or scheduled outage).
    NodeCrash {
        /// The crashed node (raw id).
        node: u32,
    },
    /// A node came back up.
    NodeRecover {
        /// The recovered node (raw id).
        node: u32,
    },
    /// A link went down.
    LinkDown {
        /// The cut link (raw id).
        link: u32,
    },
    /// A link came back up.
    LinkUp {
        /// The restored link (raw id).
        link: u32,
    },
    /// A MAPE loop phase boundary (monitor → analyze → plan → execute).
    MapePhase {
        /// One of `"monitor"`, `"analyze"`, `"plan"`, `"execute"`.
        phase: &'static str,
    },
    /// A manager took an adaptation action.
    ManagerAction {
        /// Which manager: `"node"`, `"network"`, `"wl"`, `"app"`.
        manager: &'static str,
        /// What it did (e.g. `"op_switch"`, `"detour"`, `"reallocate"`).
        action: &'static str,
        /// The acted-on entity (raw node id, component index, …).
        subject: u64,
    },
    /// A component was bound to a node at deployment time.
    Deploy {
        /// Application id.
        app: u16,
        /// Component index within the app.
        component: u32,
        /// Host node (raw id).
        node: u32,
    },
    /// A deployed component was migrated between nodes.
    Migrate {
        /// Application id.
        app: u16,
        /// Component index within the app.
        component: u32,
        /// Previous host (raw id).
        from: u32,
        /// New host (raw id).
        to: u32,
    },
    /// A task passed admission control (schema v4; only emitted when an
    /// admission policy is installed).
    TaskAdmitted {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
    /// A task was shed by admission control instead of dispatched
    /// (schema v4). Shed tasks are terminal: no arrival, no retry.
    TaskShed {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
        /// Why: `"queue_full"`, `"rate_limit"`, or `"slo_hopeless"`.
        reason: &'static str,
    },
    /// A running task body was checkpointed at its source node for a
    /// live migration (schema v5). The execution state travels with
    /// the checkpoint, so span reconstruction archives the source
    /// attempt without counting it as lost work: checkpoint →
    /// re-dispatch → resume is one logical span.
    TaskCheckpoint {
        /// Source node being vacated (raw id).
        node: u32,
        /// Task id.
        task: u64,
        /// Canonical checkpoint size in bytes (the payload that
        /// crosses the network instead of the task's input).
        bytes: u64,
    },
    /// A checkpointed task body resumed execution at its destination
    /// node (schema v5); paired with the preceding `task_checkpoint`.
    TaskResume {
        /// Destination node (raw id).
        node: u32,
        /// Task id.
        task: u64,
    },
}

impl TraceKind {
    /// Every `"type"` tag that can appear in a JSONL export, in the
    /// order of the DESIGN.md catalogue. Tests iterate this to assert
    /// scenario coverage.
    pub const ALL_TYPES: &'static [&'static str] = &[
        "task_dispatch",
        "task_arrive",
        "task_start",
        "task_complete",
        "task_lost",
        "task_retry",
        "task_timeout",
        "task_cancelled",
        "node_crash",
        "node_recover",
        "link_down",
        "link_up",
        "mape_phase",
        "manager_action",
        "deploy",
        "migrate",
    ];

    /// Schema-v4 extension tags (elastic serving). Kept out of
    /// [`Self::ALL_TYPES`] so the v3 golden-coverage test — which runs
    /// an admission-free scenario — stays meaningful; the full
    /// catalogue is `ALL_TYPES ∪ ELASTIC_TYPES`.
    pub const ELASTIC_TYPES: &'static [&'static str] = &["task_admitted", "task_shed"];

    /// Schema-v5 extension tags (portable task bodies). A live
    /// migration emits `task_checkpoint` at the source and
    /// `task_resume` at the destination; both are absent from
    /// VM-free traces, so older golden-coverage tests stay valid. The
    /// full catalogue is `ALL_TYPES ∪ ELASTIC_TYPES ∪ VM_TYPES`.
    pub const VM_TYPES: &'static [&'static str] = &["task_checkpoint", "task_resume"];

    /// The `"type"` tag this payload serializes under.
    pub const fn type_name(&self) -> &'static str {
        match self {
            TraceKind::TaskDispatch { .. } => "task_dispatch",
            TraceKind::TaskArrive { .. } => "task_arrive",
            TraceKind::TaskStart { .. } => "task_start",
            TraceKind::TaskComplete { .. } => "task_complete",
            TraceKind::TaskLost { .. } => "task_lost",
            TraceKind::TaskRetry { .. } => "task_retry",
            TraceKind::TaskTimeout { .. } => "task_timeout",
            TraceKind::TaskCancelled { .. } => "task_cancelled",
            TraceKind::NodeCrash { .. } => "node_crash",
            TraceKind::NodeRecover { .. } => "node_recover",
            TraceKind::LinkDown { .. } => "link_down",
            TraceKind::LinkUp { .. } => "link_up",
            TraceKind::MapePhase { .. } => "mape_phase",
            TraceKind::ManagerAction { .. } => "manager_action",
            TraceKind::Deploy { .. } => "deploy",
            TraceKind::Migrate { .. } => "migrate",
            TraceKind::TaskAdmitted { .. } => "task_admitted",
            TraceKind::TaskShed { .. } => "task_shed",
            TraceKind::TaskCheckpoint { .. } => "task_checkpoint",
            TraceKind::TaskResume { .. } => "task_resume",
        }
    }
}

/// One recorded span: a payload stamped with simulated time and a
/// buffer-global sequence number (monotonic even across ring eviction,
/// so gaps reveal dropped events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// Simulated time of the event, in microseconds.
    pub at_us: u64,
    /// The typed payload.
    pub kind: TraceKind,
}

/// Bounded ring of [`TraceEvent`]s: pushing beyond capacity overwrites
/// the oldest event and counts it as dropped.
///
/// Events are stored packed, not as [`TraceEvent`]s: each retained
/// event is one private 32-byte slot holding `at_us`, two `u64`s, a
/// `u32` and a variant tag, into which every [`TraceKind`] spreads its
/// fields. The sequence number is implicit (the slot `i` places after
/// the oldest carries `next_seq − len + i`), and the `&'static str`
/// fields (MAPE phase, manager and action names, shed reasons) are
/// interned in a small per-buffer table and stored as indices. A push
/// writes one slot in place, so at the default capacity of 65,536
/// events the ring holds 2 MiB and, once full, never moves or
/// allocates. [`TraceBuffer::events`] rebuilds the events oldest first.
#[derive(Debug)]
pub struct TraceBuffer {
    /// Retained slots; once `capacity` are held, the oldest sits at
    /// `head` and the next push overwrites it.
    slots: Vec<Slot>,
    head: usize,
    capacity: usize,
    next_seq: u64,
    /// Interned `&'static str` payload fields, by first use.
    strings: Vec<&'static str>,
}

/// Variant tag of a packed [`Slot`], one per [`TraceKind`] variant.
#[derive(Debug, Clone, Copy)]
enum Tag {
    TaskDispatch,
    TaskArrive,
    TaskStart,
    TaskComplete,
    TaskLost,
    TaskRetry,
    TaskTimeout,
    TaskCancelled,
    NodeCrash,
    NodeRecover,
    LinkDown,
    LinkUp,
    MapePhase,
    ManagerAction,
    Deploy,
    Migrate,
    TaskAdmitted,
    TaskShed,
    TaskCheckpoint,
    TaskResume,
}

/// One packed event. Field use by variant: task events put the task id
/// in `a` and the node in `c`, with `b` holding `deadline_met`,
/// `attempt`, the interned shed reason or the checkpoint bytes;
/// node and link events use `c` alone; `MapePhase` puts the interned
/// phase in `b`; `ManagerAction` the subject in `a` and the interned
/// manager and action in the low and high halves of `b`; `Deploy` and
/// `Migrate` the app in `a`, the component in the low half of `b`,
/// `Migrate`'s `from` in its high half and the (destination) node in
/// `c`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at_us: u64,
    a: u64,
    b: u64,
    c: u32,
    tag: Tag,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

impl TraceBuffer {
    /// A ring retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            slots: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            capacity,
            next_seq: 0,
            strings: Vec::new(),
        }
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn push(&mut self, at_us: u64, kind: TraceKind) {
        let slot = self.pack(at_us, kind);
        if self.slots.len() < self.capacity {
            if self.slots.len() == self.slots.capacity() {
                // Double, but never past the ring's capacity.
                let room = self.capacity - self.slots.len();
                self.slots.reserve_exact(self.slots.len().clamp(1, room));
            }
            self.slots.push(slot);
        } else {
            self.slots[self.head] = slot;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.next_seq += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let (newer, older) = self.slots.split_at(self.head);
        let first_seq = self.next_seq - self.slots.len() as u64;
        older
            .iter()
            .chain(newer)
            .zip(first_seq..)
            .map(|(s, seq)| TraceEvent { seq, at_us: s.at_us, kind: self.unpack(s) })
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.slots.len() as u64
    }

    /// The index of `s` in the string table, added on first use. The
    /// table holds the few distinct names the workspace traces, so a
    /// scan that compares addresses before text is enough.
    fn intern(&mut self, s: &'static str) -> u32 {
        let i = match self.strings.iter().position(|&t| std::ptr::eq(t, s) || t == s) {
            Some(i) => i,
            None => {
                self.strings.push(s);
                self.strings.len() - 1
            }
        };
        i as u32
    }

    fn pack(&mut self, at_us: u64, kind: TraceKind) -> Slot {
        let (tag, a, b, c) = match kind {
            TraceKind::TaskDispatch { node, task } => (Tag::TaskDispatch, task, 0, node),
            TraceKind::TaskArrive { node, task } => (Tag::TaskArrive, task, 0, node),
            TraceKind::TaskStart { node, task } => (Tag::TaskStart, task, 0, node),
            TraceKind::TaskComplete { node, task, deadline_met } => {
                (Tag::TaskComplete, task, u64::from(deadline_met), node)
            }
            TraceKind::TaskLost { node, task } => (Tag::TaskLost, task, 0, node),
            TraceKind::TaskRetry { node, task, attempt } => {
                (Tag::TaskRetry, task, u64::from(attempt), node)
            }
            TraceKind::TaskTimeout { node, task } => (Tag::TaskTimeout, task, 0, node),
            TraceKind::TaskCancelled { node, task } => (Tag::TaskCancelled, task, 0, node),
            TraceKind::NodeCrash { node } => (Tag::NodeCrash, 0, 0, node),
            TraceKind::NodeRecover { node } => (Tag::NodeRecover, 0, 0, node),
            TraceKind::LinkDown { link } => (Tag::LinkDown, 0, 0, link),
            TraceKind::LinkUp { link } => (Tag::LinkUp, 0, 0, link),
            TraceKind::MapePhase { phase } => (Tag::MapePhase, 0, u64::from(self.intern(phase)), 0),
            TraceKind::ManagerAction { manager, action, subject } => {
                let names = join(self.intern(manager), self.intern(action));
                (Tag::ManagerAction, subject, names, 0)
            }
            TraceKind::Deploy { app, component, node } => {
                (Tag::Deploy, u64::from(app), u64::from(component), node)
            }
            TraceKind::Migrate { app, component, from, to } => {
                (Tag::Migrate, u64::from(app), join(component, from), to)
            }
            TraceKind::TaskAdmitted { node, task } => (Tag::TaskAdmitted, task, 0, node),
            TraceKind::TaskShed { node, task, reason } => {
                (Tag::TaskShed, task, u64::from(self.intern(reason)), node)
            }
            TraceKind::TaskCheckpoint { node, task, bytes } => {
                (Tag::TaskCheckpoint, task, bytes, node)
            }
            TraceKind::TaskResume { node, task } => (Tag::TaskResume, task, 0, node),
        };
        Slot { at_us, a, b, c, tag }
    }

    fn unpack(&self, s: &Slot) -> TraceKind {
        let (node, task) = (s.c, s.a);
        let text = |i: u32| self.strings[i as usize];
        let (lo, hi) = split(s.b);
        match s.tag {
            Tag::TaskDispatch => TraceKind::TaskDispatch { node, task },
            Tag::TaskArrive => TraceKind::TaskArrive { node, task },
            Tag::TaskStart => TraceKind::TaskStart { node, task },
            Tag::TaskComplete => TraceKind::TaskComplete { node, task, deadline_met: s.b != 0 },
            Tag::TaskLost => TraceKind::TaskLost { node, task },
            Tag::TaskRetry => TraceKind::TaskRetry { node, task, attempt: lo },
            Tag::TaskTimeout => TraceKind::TaskTimeout { node, task },
            Tag::TaskCancelled => TraceKind::TaskCancelled { node, task },
            Tag::NodeCrash => TraceKind::NodeCrash { node },
            Tag::NodeRecover => TraceKind::NodeRecover { node },
            Tag::LinkDown => TraceKind::LinkDown { link: s.c },
            Tag::LinkUp => TraceKind::LinkUp { link: s.c },
            Tag::MapePhase => TraceKind::MapePhase { phase: text(lo) },
            Tag::ManagerAction => {
                TraceKind::ManagerAction { manager: text(lo), action: text(hi), subject: s.a }
            }
            Tag::Deploy => TraceKind::Deploy { app: s.a as u16, component: lo, node },
            Tag::Migrate => {
                TraceKind::Migrate { app: s.a as u16, component: lo, from: hi, to: s.c }
            }
            Tag::TaskAdmitted => TraceKind::TaskAdmitted { node, task },
            Tag::TaskShed => TraceKind::TaskShed { node, task, reason: text(lo) },
            Tag::TaskCheckpoint => TraceKind::TaskCheckpoint { node, task, bytes: s.b },
            Tag::TaskResume => TraceKind::TaskResume { node, task },
        }
    }
}

/// Two `u32`s in one `u64`: `lo` in the low half.
fn join(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// The halves [`join`] packed, low first.
fn split(b: u64) -> (u32, u32) {
    (b as u32, (b >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq_monotonic() {
        let mut buf = TraceBuffer::new(2);
        buf.push(0, TraceKind::NodeCrash { node: 0 });
        buf.push(1, TraceKind::NodeCrash { node: 1 });
        buf.push(2, TraceKind::NodeCrash { node: 2 });
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 1);
        let seqs: Vec<u64> = buf.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut buf = TraceBuffer::new(0);
        buf.push(0, TraceKind::LinkDown { link: 3 });
        assert_eq!(buf.len(), 1);
        buf.push(1, TraceKind::LinkUp { link: 3 });
        assert_eq!(buf.events()[0].kind, TraceKind::LinkUp { link: 3 });
    }

    #[test]
    fn type_names_cover_every_variant() {
        let samples = [
            TraceKind::TaskDispatch { node: 0, task: 0 },
            TraceKind::TaskArrive { node: 0, task: 0 },
            TraceKind::TaskStart { node: 0, task: 0 },
            TraceKind::TaskComplete { node: 0, task: 0, deadline_met: true },
            TraceKind::TaskLost { node: 0, task: 0 },
            TraceKind::TaskRetry { node: 0, task: 0, attempt: 1 },
            TraceKind::TaskTimeout { node: 0, task: 0 },
            TraceKind::TaskCancelled { node: 0, task: 0 },
            TraceKind::NodeCrash { node: 0 },
            TraceKind::NodeRecover { node: 0 },
            TraceKind::LinkDown { link: 0 },
            TraceKind::LinkUp { link: 0 },
            TraceKind::MapePhase { phase: "monitor" },
            TraceKind::ManagerAction { manager: "node", action: "op_switch", subject: 0 },
            TraceKind::Deploy { app: 0, component: 0, node: 0 },
            TraceKind::Migrate { app: 0, component: 0, from: 0, to: 1 },
            TraceKind::TaskAdmitted { node: 0, task: 0 },
            TraceKind::TaskShed { node: 0, task: 0, reason: "queue_full" },
            TraceKind::TaskCheckpoint { node: 0, task: 0, bytes: 64 },
            TraceKind::TaskResume { node: 1, task: 0 },
        ];
        let names: Vec<&str> = samples.iter().map(|k| k.type_name()).collect();
        let catalogue: Vec<&str> = TraceKind::ALL_TYPES
            .iter()
            .chain(TraceKind::ELASTIC_TYPES)
            .chain(TraceKind::VM_TYPES)
            .copied()
            .collect();
        assert_eq!(names, catalogue);
    }

    /// Every variant at the extreme values of its fields, plus two
    /// names that share text but not an address.
    fn extremes() -> Vec<TraceKind> {
        let (t, n) = (u64::MAX, u32::MAX);
        let phase: &'static str = Box::leak(String::from("monitor").into_boxed_str());
        vec![
            TraceKind::TaskDispatch { node: n, task: t },
            TraceKind::TaskArrive { node: n, task: t },
            TraceKind::TaskStart { node: n, task: t },
            TraceKind::TaskComplete { node: n, task: t, deadline_met: true },
            TraceKind::TaskComplete { node: n, task: t, deadline_met: false },
            TraceKind::TaskLost { node: n, task: t },
            TraceKind::TaskRetry { node: n, task: t, attempt: u32::MAX },
            TraceKind::TaskTimeout { node: n, task: t },
            TraceKind::TaskCancelled { node: n, task: t },
            TraceKind::NodeCrash { node: n },
            TraceKind::NodeRecover { node: n },
            TraceKind::LinkDown { link: n },
            TraceKind::LinkUp { link: n },
            TraceKind::MapePhase { phase: "monitor" },
            TraceKind::MapePhase { phase },
            TraceKind::ManagerAction { manager: "node", action: "op_switch", subject: t },
            TraceKind::ManagerAction { manager: "op_switch", action: "node", subject: 0 },
            TraceKind::Deploy { app: u16::MAX, component: n, node: n },
            TraceKind::Migrate { app: u16::MAX, component: n, from: n, to: n },
            TraceKind::Migrate { app: 0, component: 1, from: n, to: 0 },
            TraceKind::TaskAdmitted { node: n, task: t },
            TraceKind::TaskShed { node: n, task: t, reason: "queue_full" },
            TraceKind::TaskShed { node: 0, task: 0, reason: "" },
            TraceKind::TaskCheckpoint { node: n, task: t, bytes: u64::MAX },
            TraceKind::TaskResume { node: n, task: t },
        ]
    }

    #[test]
    fn packed_slots_round_trip_every_variant_at_extreme_values() {
        let kinds = extremes();
        let mut buf = TraceBuffer::new(kinds.len());
        for (i, &k) in kinds.iter().enumerate() {
            buf.push(if i % 2 == 0 { u64::MAX } else { i as u64 }, k);
        }
        let events = buf.events();
        assert_eq!(events.len(), kinds.len());
        for (i, (e, &k)) in events.iter().zip(&kinds).enumerate() {
            assert_eq!(e.kind, k, "event {i}");
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.at_us, if i % 2 == 0 { u64::MAX } else { i as u64 });
        }
        // Equal text at two addresses is one table entry: the table
        // holds "monitor", "node", "op_switch", "queue_full" and "".
        assert_eq!(buf.strings.len(), 5);
    }

    #[test]
    fn a_full_ring_overwrites_in_place() {
        let mut buf = TraceBuffer::new(3);
        for i in 0..3 {
            buf.push(i, TraceKind::NodeCrash { node: i as u32 });
        }
        let cap = buf.slots.capacity();
        for i in 3..10 {
            buf.push(i, TraceKind::NodeCrash { node: i as u32 });
        }
        assert_eq!(buf.slots.capacity(), cap, "no allocation once full");
        assert_eq!(buf.dropped(), 7);
        let seqs: Vec<(u64, u64)> = buf.events().iter().map(|e| (e.seq, e.at_us)).collect();
        assert_eq!(seqs, vec![(7, 7), (8, 8), (9, 9)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The packed ring reads back what a `VecDeque` of whole events
        /// reads back, over random capacities (below, at and past the
        /// initial reservation) and push counts that wrap it any number
        /// of times.
        #[test]
        fn ring_matches_the_vecdeque_model(
            capacity in proptest::prop_oneof![0usize..8, 4090usize..4100],
            picks in proptest::collection::vec((0usize..25, 0u64..1_000_000), 0..9_000),
        ) {
            use std::collections::VecDeque;
            let kinds = extremes();
            let mut buf = TraceBuffer::new(capacity);
            let cap = capacity.max(1);
            let mut model: VecDeque<TraceEvent> = VecDeque::new();
            let mut dropped = 0u64;
            for (seq, &(k, at_us)) in picks.iter().enumerate() {
                buf.push(at_us, kinds[k]);
                if model.len() == cap {
                    model.pop_front();
                    dropped += 1;
                }
                model.push_back(TraceEvent { seq: seq as u64, at_us, kind: kinds[k] });
                if seq % 997 == 0 {
                    proptest::prop_assert_eq!(buf.events(), Vec::from(model.clone()));
                }
            }
            proptest::prop_assert_eq!(buf.events(), Vec::from(model.clone()));
            proptest::prop_assert_eq!(buf.len(), model.len());
            proptest::prop_assert_eq!(buf.is_empty(), model.is_empty());
            proptest::prop_assert_eq!(buf.dropped(), dropped);
            proptest::prop_assert!(buf.slots.capacity() <= cap);
        }
    }
}
