//! Dataflow intermediate representation (the `dfg-mlir` analog).
//!
//! The DPE's node-level step compiles applications through a dataflow
//! abstraction (paper Sect. V: dfg-mlir, CGRA abstractions, MDC). This
//! IR models synchronous dataflow (SDF): actors fire consuming/producing
//! fixed token rates on typed channels. [`DataflowGraph::repetition_vector`]
//! solves the SDF balance equations — the consistency check every
//! downstream transformation relies on.

use std::collections::BTreeMap;

/// Index of an actor within a graph.
pub type ActorId = usize;

/// The computational class of an actor (drives HLS estimation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorKind {
    /// Produces tokens from the environment.
    Source,
    /// Consumes tokens into the environment.
    Sink,
    /// Element-wise arithmetic (map).
    Map,
    /// Sliding-window / stencil computation (convolutions).
    Stencil,
    /// Reduction to a smaller rate.
    Reduce,
    /// Table lookup / control-heavy logic.
    Control,
}

/// One dataflow actor.
#[derive(Debug, Clone, PartialEq)]
pub struct Actor {
    /// Unique actor name within the graph.
    pub name: String,
    /// Computational class.
    pub kind: ActorKind,
    /// Arithmetic operations per firing (drives latency/area estimates).
    pub ops_per_firing: u64,
    /// Internal state bytes (drives BRAM estimates).
    pub state_bytes: u64,
}

impl Actor {
    /// Creates an actor.
    pub fn new(name: impl Into<String>, kind: ActorKind, ops_per_firing: u64) -> Self {
        Actor { name: name.into(), kind, ops_per_firing, state_bytes: 0 }
    }

    /// Sets the internal state size.
    pub fn with_state_bytes(mut self, bytes: u64) -> Self {
        self.state_bytes = bytes;
        self
    }
}

/// A channel between two actors with SDF rates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// Producing actor.
    pub from: ActorId,
    /// Tokens produced per firing of `from`.
    pub produce: u64,
    /// Consuming actor.
    pub to: ActorId,
    /// Tokens consumed per firing of `to`.
    pub consume: u64,
    /// Bytes per token.
    pub token_bytes: u64,
}

/// Errors validating a dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An actor id in a channel is out of range.
    BadActor(ActorId),
    /// Two actors share a name.
    DuplicateActor(String),
    /// A channel has a zero rate.
    ZeroRate {
        /// The offending channel index.
        channel: usize,
    },
    /// The SDF balance equations have no consistent solution.
    InconsistentRates,
    /// The graph has a cycle (only acyclic graphs are supported).
    Cyclic,
    /// The graph has no actors.
    Empty,
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::BadActor(a) => write!(f, "channel references unknown actor {a}"),
            IrError::DuplicateActor(n) => write!(f, "duplicate actor name {n:?}"),
            IrError::ZeroRate { channel } => write!(f, "channel {channel} has a zero rate"),
            IrError::InconsistentRates => f.write_str("SDF balance equations are inconsistent"),
            IrError::Cyclic => f.write_str("dataflow graph has a cycle"),
            IrError::Empty => f.write_str("dataflow graph has no actors"),
        }
    }
}

impl std::error::Error for IrError {}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// A synchronous dataflow graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataflowGraph {
    /// Graph name.
    pub name: String,
    actors: Vec<Actor>,
    channels: Vec<Channel>,
}

impl DataflowGraph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        DataflowGraph { name: name.into(), actors: Vec::new(), channels: Vec::new() }
    }

    /// Adds an actor; returns its id.
    pub fn add_actor(&mut self, actor: Actor) -> ActorId {
        self.actors.push(actor);
        self.actors.len() - 1
    }

    /// Adds a channel.
    pub fn connect(
        &mut self,
        from: ActorId,
        produce: u64,
        to: ActorId,
        consume: u64,
        token_bytes: u64,
    ) {
        self.channels.push(Channel { from, produce, to, consume, token_bytes });
    }

    /// The actors.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// The channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Looks an actor up by name.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actors.iter().position(|a| a.name == name)
    }

    /// Validates structure and SDF consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] found.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.actors.is_empty() {
            return Err(IrError::Empty);
        }
        let mut names = std::collections::BTreeSet::new();
        for a in &self.actors {
            if !names.insert(a.name.as_str()) {
                return Err(IrError::DuplicateActor(a.name.clone()));
            }
        }
        for (i, c) in self.channels.iter().enumerate() {
            if c.from >= self.actors.len() {
                return Err(IrError::BadActor(c.from));
            }
            if c.to >= self.actors.len() {
                return Err(IrError::BadActor(c.to));
            }
            if c.produce == 0 || c.consume == 0 {
                return Err(IrError::ZeroRate { channel: i });
            }
        }
        self.topo_order()?;
        self.repetition_vector()?;
        Ok(())
    }

    /// Topological order of the actors.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Cyclic`] for cyclic graphs.
    pub fn topo_order(&self) -> Result<Vec<ActorId>, IrError> {
        let n = self.actors.len();
        let mut indeg = vec![0usize; n];
        for c in &self.channels {
            if c.to < n {
                indeg[c.to] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(i);
            for c in self.channels.iter().filter(|c| c.from == i) {
                indeg[c.to] -= 1;
                if indeg[c.to] == 0 {
                    ready.push(c.to);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(IrError::Cyclic)
        }
    }

    /// Solves the SDF balance equations, returning the smallest positive
    /// integer firing counts per actor for one graph iteration.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InconsistentRates`] when rates conflict.
    pub fn repetition_vector(&self) -> Result<Vec<u64>, IrError> {
        let n = self.actors.len();
        if n == 0 {
            return Err(IrError::Empty);
        }
        // Rational firing rates: rate[i] = num[i] / den[i], propagated
        // over the (assumed weakly-connected) components.
        let mut num = vec![0u64; n];
        let mut den = vec![1u64; n];
        for start in 0..n {
            if num[start] != 0 {
                continue;
            }
            num[start] = 1;
            let mut stack = vec![start];
            while let Some(i) = stack.pop() {
                for c in &self.channels {
                    let (a, b, pa, pb) = if c.from == i {
                        (c.from, c.to, c.produce, c.consume)
                    } else if c.to == i {
                        (c.to, c.from, c.consume, c.produce)
                    } else {
                        continue;
                    };
                    // rate[b] = rate[a] * pa / pb
                    let nb = num[a] * pa;
                    let db = den[a] * pb;
                    let g = gcd(nb, db);
                    let (nb, db) = (nb / g, db / g);
                    if num[b] == 0 {
                        num[b] = nb;
                        den[b] = db;
                        stack.push(b);
                    } else if num[b] * db != nb * den[b] {
                        return Err(IrError::InconsistentRates);
                    }
                }
            }
        }
        let l = den.iter().fold(1u64, |acc, &d| lcm(acc, d));
        let mut reps: Vec<u64> = num.iter().zip(&den).map(|(n, d)| n * (l / d)).collect();
        let g = reps.iter().fold(0u64, |acc, &r| gcd(acc, r));
        if g > 1 {
            for r in &mut reps {
                *r /= g;
            }
        }
        Ok(reps)
    }

    /// Total operations of one graph iteration.
    pub fn ops_per_iteration(&self) -> Result<u64, IrError> {
        let reps = self.repetition_vector()?;
        Ok(self.actors.iter().zip(&reps).map(|(a, &r)| a.ops_per_firing * r).sum())
    }

    /// Bytes moved over channels in one iteration.
    pub fn bytes_per_iteration(&self) -> Result<u64, IrError> {
        let reps = self.repetition_vector()?;
        Ok(self.channels.iter().map(|c| reps[c.from] * c.produce * c.token_bytes).sum())
    }

    /// Per-kind actor counts (for area-sharing reports).
    pub fn kind_histogram(&self) -> BTreeMap<ActorKind, usize> {
        let mut h = BTreeMap::new();
        for a in &self.actors {
            *h.entry(a.kind).or_insert(0) += 1;
        }
        h
    }
}

impl PartialOrd for ActorKind {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ActorKind {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as usize).cmp(&(*other as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// camera →(1:1) resize →(4:1) conv →(1:1) sink, multirate.
    fn pipeline() -> DataflowGraph {
        let mut g = DataflowGraph::new("pose");
        let cam = g.add_actor(Actor::new("camera", ActorKind::Source, 1));
        let resize = g.add_actor(Actor::new("resize", ActorKind::Map, 100));
        let conv = g.add_actor(Actor::new("conv", ActorKind::Stencil, 5_000));
        let sink = g.add_actor(Actor::new("sink", ActorKind::Sink, 1));
        g.connect(cam, 1, resize, 1, 1024);
        g.connect(resize, 4, conv, 1, 256);
        g.connect(conv, 1, sink, 1, 64);
        g
    }

    #[test]
    fn valid_pipeline_passes() {
        pipeline().validate().expect("valid");
    }

    #[test]
    fn repetition_vector_balances_rates() {
        let g = pipeline();
        let reps = g.repetition_vector().expect("consistent");
        // camera fires 1, resize 1 (produces 4), conv 4, sink 4.
        assert_eq!(reps, vec![1, 1, 4, 4]);
    }

    #[test]
    fn uniform_rates_fire_once() {
        let mut g = DataflowGraph::new("chain");
        let a = g.add_actor(Actor::new("a", ActorKind::Source, 1));
        let b = g.add_actor(Actor::new("b", ActorKind::Map, 1));
        g.connect(a, 1, b, 1, 8);
        assert_eq!(g.repetition_vector().expect("consistent"), vec![1, 1]);
    }

    #[test]
    fn inconsistent_rates_are_detected() {
        // Diamond with conflicting rates: a→b→d and a→c→d where the two
        // paths demand different firing ratios for d.
        let mut g = DataflowGraph::new("bad");
        let a = g.add_actor(Actor::new("a", ActorKind::Source, 1));
        let b = g.add_actor(Actor::new("b", ActorKind::Map, 1));
        let c = g.add_actor(Actor::new("c", ActorKind::Map, 1));
        let d = g.add_actor(Actor::new("d", ActorKind::Sink, 1));
        g.connect(a, 1, b, 1, 8);
        g.connect(a, 1, c, 1, 8);
        g.connect(b, 1, d, 1, 8);
        g.connect(c, 2, d, 1, 8); // conflict
        assert_eq!(g.repetition_vector(), Err(IrError::InconsistentRates));
        assert_eq!(g.validate(), Err(IrError::InconsistentRates));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut g = DataflowGraph::new("loop");
        let a = g.add_actor(Actor::new("a", ActorKind::Map, 1));
        let b = g.add_actor(Actor::new("b", ActorKind::Map, 1));
        g.connect(a, 1, b, 1, 8);
        g.connect(b, 1, a, 1, 8);
        assert_eq!(g.validate(), Err(IrError::Cyclic));
    }

    #[test]
    fn structural_errors_are_reported() {
        let mut g = DataflowGraph::new("bad");
        let a = g.add_actor(Actor::new("a", ActorKind::Source, 1));
        g.connect(a, 1, 9, 1, 8);
        assert_eq!(g.validate(), Err(IrError::BadActor(9)));

        let mut g2 = DataflowGraph::new("dup");
        g2.add_actor(Actor::new("x", ActorKind::Map, 1));
        g2.add_actor(Actor::new("x", ActorKind::Map, 1));
        assert_eq!(g2.validate(), Err(IrError::DuplicateActor("x".into())));

        let mut g3 = DataflowGraph::new("zero");
        let p = g3.add_actor(Actor::new("p", ActorKind::Source, 1));
        let q = g3.add_actor(Actor::new("q", ActorKind::Sink, 1));
        g3.connect(p, 0, q, 1, 8);
        assert_eq!(g3.validate(), Err(IrError::ZeroRate { channel: 0 }));

        assert_eq!(DataflowGraph::new("empty").validate(), Err(IrError::Empty));
    }

    #[test]
    fn iteration_totals() {
        let g = pipeline();
        // ops: 1*1 + 1*100 + 4*5000 + 4*1 = 20105
        assert_eq!(g.ops_per_iteration().expect("consistent"), 20_105);
        // bytes: 1*1*1024 + 1*4*256 + 4*1*64 = 2304
        assert_eq!(g.bytes_per_iteration().expect("consistent"), 2_304);
    }

    #[test]
    fn topo_order_is_valid() {
        let g = pipeline();
        let order = g.topo_order().expect("acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (rank, &i) in order.iter().enumerate() {
                p[i] = rank;
            }
            p
        };
        for c in g.channels() {
            assert!(pos[c.from] < pos[c.to]);
        }
    }

    #[test]
    fn lookup_and_histogram() {
        let g = pipeline();
        assert_eq!(g.actor_by_name("conv"), Some(2));
        assert_eq!(g.actor_by_name("nope"), None);
        let h = g.kind_histogram();
        assert_eq!(h.get(&ActorKind::Stencil), Some(&1));
        assert_eq!(h.len(), 4);
    }
}
