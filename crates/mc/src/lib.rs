//! # mc
//!
//! A deterministic explicit-state model checker for the protocols the
//! workspace actually ships: Raft leader election and log replication
//! (`myrtus-kb`), the retry/cancel-epoch and k=2 replication machinery
//! of the simulation core, admission control (`myrtus-continuum`),
//! elastic scale-down (`myrtus-mirto`), the federation tier's
//! gossip registry and sealed-bid burst auction
//! (`myrtus-continuum::federation`), and the task VM's live-migration
//! protocol (checkpoint → transfer → resume).
//!
//! The checker is deliberately small: a [`Model`] is anything with
//! initial states, enabled actions, a successor function, a canonical
//! (symmetry-reduced) fingerprint, and an invariant. [`explore`] walks
//! the induced state graph breadth- or depth-first behind a hashed
//! seen-set and, on violation, reconstructs the action sequence that
//! reached the bad state as a readable counterexample trace.
//!
//! The six bundled models ([`raft`], [`retry`], [`admission`],
//! [`scaledown`], [`federation`], [`migration`]) are *adapters over
//! the production implementations*,
//! not re-specifications: every transition calls the same public
//! methods the orchestration stack calls, and every invariant reads
//! state back through the same accessors.
//!
//! ## Quick start
//!
//! ```
//! use mc::{explore, Limits, Outcome, Strategy};
//!
//! let model = mc::admission::AdmissionModel::small();
//! match explore(&model, Strategy::Bfs, &Limits::default()) {
//!     Outcome::Pass(stats) => assert!(stats.distinct_states > 0),
//!     Outcome::Violation { message, trace, .. } => {
//!         panic!("{message}\n{}", mc::render_trace(&trace))
//!     }
//!     Outcome::LimitReached(_) => panic!("bounds too small"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::fmt::Display;
use std::hash::{Hash, Hasher};

use myrtus_obs::hash::WordSet;

pub mod admission;
pub mod federation;
pub mod migration;
pub mod raft;
pub mod retry;
pub mod scaledown;

/// A checkable transition system.
///
/// States must be cheap to clone (the frontier holds them) and actions
/// must render readably (`Display`) — they *are* the counterexample.
pub trait Model {
    /// One explicit state.
    type State: Clone;
    /// One enabled transition out of a state.
    type Action: Clone + Display;

    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;

    /// The initial state(s).
    fn initial_states(&self) -> Vec<Self::State>;

    /// Appends every action enabled in `state` to `out` (cleared by
    /// the caller). Enabledness must be deterministic.
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// The successor of `state` under `action`, or `None` when the
    /// action turns out to be a no-op/disabled at application time.
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State>;

    /// A canonical 64-bit fingerprint of `state`. Two states with the
    /// same fingerprint are treated as identical by the seen-set, so
    /// this is where symmetry reduction happens: fingerprint the
    /// *orbit representative* (e.g. minimum over node-id permutations,
    /// see [`canonical_fingerprint`]) rather than the raw state.
    fn fingerprint(&self, state: &Self::State) -> u64;

    /// The invariant: `Err(reason)` marks `state` as a violation.
    fn check(&self, state: &Self::State) -> Result<(), String>;
}

/// Search order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Breadth-first: shortest counterexamples, larger frontier.
    Bfs,
    /// Depth-first: smaller frontier, longer counterexamples.
    Dfs,
}

/// Exploration bounds. Defaults are effectively unbounded — the
/// bundled models bound themselves through action budgets instead, so
/// hitting a limit usually means a model lost its finiteness argument.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Stop after this many distinct states.
    pub max_states: u64,
    /// Do not expand states deeper than this.
    pub max_depth: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_states: 50_000_000, max_depth: 10_000 }
    }
}

/// Exploration counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Distinct states (post symmetry reduction) entered into the
    /// seen-set.
    pub distinct_states: u64,
    /// Transitions taken (successor computations that produced a
    /// state, novel or not).
    pub transitions: u64,
    /// Depth of the deepest state discovered.
    pub max_depth_seen: u32,
    /// Peak frontier occupancy.
    pub frontier_peak: u64,
}

/// Result of one exploration.
#[derive(Debug, Clone)]
pub enum Outcome<A> {
    /// Every reachable state (within limits that were never hit)
    /// satisfies the invariant: a fixpoint.
    Pass(Stats),
    /// A reachable state violates the invariant.
    Violation {
        /// The invariant's reason.
        message: String,
        /// Actions from an initial state to the violating state.
        trace: Vec<A>,
        /// Counters at the moment of discovery.
        stats: Stats,
    },
    /// A bound in [`Limits`] was hit before the frontier drained; the
    /// invariant held on everything visited but the run is inconclusive.
    LimitReached(Stats),
}

/// Per-discovered-state bookkeeping for trace reconstruction.
struct NodeMeta<A> {
    parent: usize,
    action: Option<A>,
    depth: u32,
}

const NO_PARENT: usize = usize::MAX;

fn reconstruct<A: Clone>(meta: &[NodeMeta<A>], mut idx: usize) -> Vec<A> {
    let mut trace = Vec::new();
    while idx != NO_PARENT {
        let m = &meta[idx];
        if let Some(a) = &m.action {
            trace.push(a.clone());
        }
        idx = m.parent;
    }
    trace.reverse();
    trace
}

/// Exhaustively explores `model`'s state graph.
///
/// Deterministic: same model, same strategy, same limits — same
/// outcome, same counterexample.
pub fn explore<M: Model>(model: &M, strategy: Strategy, limits: &Limits) -> Outcome<M::Action> {
    let mut seen: WordSet<u64> = WordSet::default();
    let mut meta: Vec<NodeMeta<M::Action>> = Vec::new();
    let mut frontier: VecDeque<(usize, M::State)> = VecDeque::new();
    let mut stats = Stats::default();

    for s in model.initial_states() {
        let fp = model.fingerprint(&s);
        if !seen.insert(fp) {
            continue;
        }
        stats.distinct_states += 1;
        let idx = meta.len();
        meta.push(NodeMeta { parent: NO_PARENT, action: None, depth: 0 });
        if let Err(message) = model.check(&s) {
            return Outcome::Violation { message, trace: reconstruct(&meta, idx), stats };
        }
        frontier.push_back((idx, s));
    }
    stats.frontier_peak = frontier.len() as u64;

    let mut acts: Vec<M::Action> = Vec::new();
    loop {
        let (idx, state) = match strategy {
            Strategy::Bfs => match frontier.pop_front() {
                Some(x) => x,
                None => break,
            },
            Strategy::Dfs => match frontier.pop_back() {
                Some(x) => x,
                None => break,
            },
        };
        let depth = meta[idx].depth;
        if depth >= limits.max_depth {
            return Outcome::LimitReached(stats);
        }
        acts.clear();
        model.actions(&state, &mut acts);
        for a in &acts {
            let Some(next) = model.apply(&state, a) else { continue };
            stats.transitions += 1;
            let fp = model.fingerprint(&next);
            if !seen.insert(fp) {
                continue;
            }
            stats.distinct_states += 1;
            stats.max_depth_seen = stats.max_depth_seen.max(depth + 1);
            let nidx = meta.len();
            meta.push(NodeMeta { parent: idx, action: Some(a.clone()), depth: depth + 1 });
            if let Err(message) = model.check(&next) {
                return Outcome::Violation { message, trace: reconstruct(&meta, nidx), stats };
            }
            if stats.distinct_states >= limits.max_states {
                return Outcome::LimitReached(stats);
            }
            frontier.push_back((nidx, next));
            stats.frontier_peak = stats.frontier_peak.max(frontier.len() as u64);
        }
    }
    Outcome::Pass(stats)
}

/// Renders a counterexample as a numbered, one-action-per-line script.
pub fn render_trace<A: Display>(trace: &[A]) -> String {
    let mut out = String::new();
    if trace.is_empty() {
        out.push_str("  (an initial state violates the invariant)\n");
        return out;
    }
    for (i, a) in trace.iter().enumerate() {
        out.push_str(&format!("  {:>3}. {a}\n", i + 1));
    }
    out
}

// ---------------------------------------------------------------------------
// Fingerprint hashing
// ---------------------------------------------------------------------------

/// FNV-1a with a splitmix64 finalizer: a fixed-key, platform-stable
/// 64-bit hasher. Explicit-state checkers conventionally accept the
/// (astronomically small at these state counts) risk of fingerprint
/// collisions silently merging two distinct states.
#[derive(Debug, Clone)]
pub struct FpHasher(u64);

impl Default for FpHasher {
    fn default() -> Self {
        FpHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        // splitmix64 finalization scatters FNV's weak low bits.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Fingerprints any `Hash` value with the checker's stable hasher.
pub fn fingerprint_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FpHasher::default();
    value.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// Symmetry reduction
// ---------------------------------------------------------------------------

/// All permutations of `0..n` in lexicographic order (Heap's algorithm
/// would be cheaper but order-stability matters for determinism).
///
/// # Panics
///
/// Panics for `n > 6` — factorial growth makes larger orbits a model
/// design error, not something to silently pay for.
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    assert!(n <= 6, "symmetry orbits above 6! are a model design error");
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    fn rec(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == items.len() {
            out.push(items.clone());
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            rec(items, k + 1, out);
            items.swap(k, i);
        }
        // Restore lexicographic-ish determinism by sorting the tail is
        // unnecessary: the swap/unswap discipline already restores
        // order, and the emitted sequence is deterministic.
    }
    rec(&mut items, 0, &mut out);
    out
}

/// The canonical fingerprint of a state under a symmetry group acting
/// by permutations of `0..n` (typically node identities): the minimum
/// of the state's hash over every permutation. `hash_under(perm)` must
/// hash the state with every symmetric index `i` renamed to `perm[i]`.
pub fn canonical_fingerprint<F: FnMut(&[usize]) -> u64>(n: usize, mut hash_under: F) -> u64 {
    permutations(n).iter().map(|p| hash_under(p)).min().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that may step +1 or +2 up to 20, with a planted
    /// violation at exactly 13 reached only via a +2 step.
    struct Toy;

    #[derive(Clone)]
    struct ToyState(u32, bool);

    #[derive(Debug, Clone)]
    enum ToyAction {
        One,
        Two,
    }

    impl Display for ToyAction {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ToyAction::One => write!(f, "+1"),
                ToyAction::Two => write!(f, "+2"),
            }
        }
    }

    impl Model for Toy {
        type State = ToyState;
        type Action = ToyAction;

        fn name(&self) -> &'static str {
            "toy"
        }

        fn initial_states(&self) -> Vec<ToyState> {
            vec![ToyState(0, false)]
        }

        fn actions(&self, s: &ToyState, out: &mut Vec<ToyAction>) {
            if s.0 < 20 {
                out.push(ToyAction::One);
                out.push(ToyAction::Two);
            }
        }

        fn apply(&self, s: &ToyState, a: &ToyAction) -> Option<ToyState> {
            let step = match a {
                ToyAction::One => 1,
                ToyAction::Two => 2,
            };
            Some(ToyState(s.0 + step, matches!(a, ToyAction::Two)))
        }

        fn fingerprint(&self, s: &ToyState) -> u64 {
            fingerprint_of(&(s.0, s.1))
        }

        fn check(&self, s: &ToyState) -> Result<(), String> {
            if s.0 == 13 && s.1 {
                Err("reached 13 via +2".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn bfs_finds_shortest_counterexample() {
        match explore(&Toy, Strategy::Bfs, &Limits::default()) {
            Outcome::Violation { trace, .. } => {
                // Shortest: six +2 steps then... 13 is odd, so 5×+2 + 1×+1
                // then +2 = 7 steps minimum ending in +2.
                assert_eq!(trace.len(), 7, "BFS must find a shortest trace");
                assert!(matches!(trace.last(), Some(ToyAction::Two)));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn dfs_finds_the_same_violation() {
        assert!(matches!(
            explore(&Toy, Strategy::Dfs, &Limits::default()),
            Outcome::Violation { .. }
        ));
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = format!("{:?}", explore(&Toy, Strategy::Bfs, &Limits::default()));
        let b = format!("{:?}", explore(&Toy, Strategy::Bfs, &Limits::default()));
        assert_eq!(a, b);
    }

    #[test]
    fn state_limit_reports_inconclusive() {
        let limits = Limits { max_states: 5, ..Limits::default() };
        assert!(matches!(explore(&Toy, Strategy::Bfs, &limits), Outcome::LimitReached(_)));
    }

    #[test]
    fn permutations_are_exhaustive_and_deterministic() {
        let p3 = permutations(3);
        assert_eq!(p3.len(), 6);
        let again = permutations(3);
        assert_eq!(p3, again);
        let mut sorted = p3.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "no duplicates");
    }

    #[test]
    fn canonical_fingerprint_collapses_orbits() {
        // Two "states" that are node-relabelings of each other: an
        // up-vector [true,false] vs [false,true].
        let ups_a = [true, false];
        let ups_b = [false, true];
        let canon = |ups: [bool; 2]| {
            canonical_fingerprint(2, |perm| {
                let mut v = [false; 2];
                for (i, &u) in ups.iter().enumerate() {
                    v[perm[i]] = u;
                }
                fingerprint_of(&v)
            })
        };
        assert_eq!(canon(ups_a), canon(ups_b));
    }
}
