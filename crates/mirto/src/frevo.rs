//! Evolutionary design of the swarm agents' local rules (the FREVO +
//! DynAA analog).
//!
//! Paper Sect. V: "FREVO generates the local rules for the swarm agents
//! to be used within the MIRTO Cognitive Engine. To explore the effect
//! of changes to the local rules on system's KPIs, a simulator such as
//! DynAA can be used." Here the *local rules* are the runtime manager
//! thresholds ([`ManagerTuning`]) plus the sensing period; the *DynAA
//! role* is played by the orchestration simulator itself: each candidate
//! rule set is evaluated by running a full what-if simulation, and a
//! (μ+λ) evolution strategy searches the rule space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use myrtus_continuum::time::{SimDuration, SimTime};
use myrtus_workload::tosca::Application;

use crate::engine::{run_orchestration, EngineConfig, ManagerTuning, OrchestrationReport};
use crate::policies::GreedyBestFit;

/// One candidate rule set (genome).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Genome {
    /// Manager thresholds.
    pub tuning: ManagerTuning,
    /// MAPE-K sensing period in milliseconds.
    pub monitoring_period_ms: u64,
}

impl Default for Genome {
    fn default() -> Self {
        Genome { tuning: ManagerTuning::default(), monitoring_period_ms: 100 }
    }
}

impl Genome {
    fn clamp(mut self) -> Genome {
        let t = &mut self.tuning;
        t.eco_threshold = t.eco_threshold.clamp(0.01, 0.6);
        t.boost_threshold = t.boost_threshold.clamp(t.eco_threshold + 0.05, 0.99);
        t.overload_threshold = t.overload_threshold.clamp(0.5, 0.99);
        t.queue_threshold = t.queue_threshold.clamp(1, 64);
        self.monitoring_period_ms = self.monitoring_period_ms.clamp(10, 2_000);
        self
    }

    fn mutate(mut self, rng: &mut StdRng, scale: f64) -> Genome {
        let jitter = |rng: &mut StdRng, v: f64| v + rng.gen_range(-0.15..0.15) * scale;
        let t = &mut self.tuning;
        match rng.gen_range(0..5) {
            0 => t.eco_threshold = jitter(rng, t.eco_threshold),
            1 => t.boost_threshold = jitter(rng, t.boost_threshold),
            2 => t.overload_threshold = jitter(rng, t.overload_threshold),
            3 => {
                let delta = rng.gen_range(-3i64..=3);
                t.queue_threshold = (t.queue_threshold as i64 + delta).max(1) as usize;
            }
            _ => {
                let factor = rng.gen_range(0.5..2.0);
                self.monitoring_period_ms = ((self.monitoring_period_ms as f64) * factor) as u64;
            }
        }
        self.clamp()
    }
}

/// Fitness: a weighted KPI mix — mean latency (ms) + a QoS violation
/// penalty + an energy term. Lower is better.
pub fn fitness(report: &OrchestrationReport) -> f64 {
    let lat = report.mean_latency_ms();
    let qos_penalty = (1.0 - report.global_qos()) * 500.0;
    let energy = report.total_energy_j * 0.01;
    let starvation = if report.total_completed() == 0 { 1e6 } else { 0.0 };
    lat + qos_penalty + energy + starvation
}

/// Evolution-strategy configuration.
#[derive(Debug, Clone, Copy)]
pub struct EvolutionConfig {
    /// Parents kept per generation (μ).
    pub parents: usize,
    /// Offspring per generation (λ).
    pub offspring: usize,
    /// Generations to run.
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Simulated horizon per what-if evaluation.
    pub horizon: SimTime,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            parents: 3,
            offspring: 6,
            generations: 5,
            seed: 42,
            horizon: SimTime::from_secs(3),
        }
    }
}

/// Result of one evolutionary search.
#[derive(Debug, Clone)]
pub struct EvolutionResult {
    /// The best rule set found.
    pub best: Genome,
    /// Its fitness.
    pub best_fitness: f64,
    /// Best-so-far fitness after each generation.
    pub history: Vec<f64>,
    /// What-if simulations executed.
    pub evaluations: usize,
}

/// Evaluates one genome with a what-if simulation over `apps`.
pub fn evaluate_genome(genome: Genome, apps: &[Application], horizon: SimTime) -> f64 {
    let cfg = EngineConfig {
        tuning: genome.tuning,
        monitoring_period: SimDuration::from_millis(genome.monitoring_period_ms),
        ..EngineConfig::default()
    };
    match run_orchestration(Box::new(GreedyBestFit::new()), cfg, apps.to_vec(), horizon) {
        Ok(report) => fitness(&report),
        Err(_) => f64::INFINITY,
    }
}

/// Scores a batch of genomes; fitness values come back in genome order.
fn evaluate_generation(genomes: &[Genome], apps: &[Application], horizon: SimTime) -> Vec<f64> {
    genomes.iter().map(|&g| evaluate_genome(g, apps, horizon)).collect()
}

/// Runs a (μ+λ) evolution strategy over the rule space against the
/// given workload. Deterministic per seed.
pub fn evolve(apps: &[Application], cfg: EvolutionConfig) -> EvolutionResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0usize;
    // Initial population: the default rules plus mutated variants.
    let default = Genome::default();
    let mut genomes = vec![default];
    while genomes.len() < cfg.parents.max(1) {
        genomes.push(default.mutate(&mut rng, 2.0));
    }
    let fits = evaluate_generation(&genomes, apps, cfg.horizon);
    evaluations += genomes.len();
    let mut population: Vec<(Genome, f64)> = genomes.into_iter().zip(fits).collect();
    let mut history = Vec::with_capacity(cfg.generations);
    for _ in 0..cfg.generations {
        let children: Vec<Genome> = (0..cfg.offspring)
            .map(|i| population[i % population.len()].0.mutate(&mut rng, 1.0))
            .collect();
        let fits = evaluate_generation(&children, apps, cfg.horizon);
        evaluations += children.len();
        population.extend(children.into_iter().zip(fits));
        population.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        population.truncate(cfg.parents.max(1));
        history.push(population[0].1);
    }
    let (best, best_fitness) = population[0];
    EvolutionResult { best, best_fitness, history, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_workload::scenarios;

    fn tiny_cfg() -> EvolutionConfig {
        EvolutionConfig {
            parents: 2,
            offspring: 3,
            generations: 2,
            seed: 1,
            horizon: SimTime::from_secs(2),
        }
    }

    #[test]
    fn clamping_keeps_rules_sane() {
        let wild = Genome {
            tuning: ManagerTuning {
                eco_threshold: 5.0,
                boost_threshold: -1.0,
                overload_threshold: 2.0,
                queue_threshold: 0,
            },
            monitoring_period_ms: 0,
        }
        .clamp();
        assert!(wild.tuning.eco_threshold <= 0.6);
        assert!(wild.tuning.boost_threshold > wild.tuning.eco_threshold);
        assert!(wild.tuning.overload_threshold <= 0.99);
        assert!(wild.tuning.queue_threshold >= 1);
        assert!(wild.monitoring_period_ms >= 10);
    }

    #[test]
    fn evolution_never_worsens_best_so_far() {
        let apps = vec![scenarios::telerehab_with(1)];
        let result = evolve(&apps, tiny_cfg());
        assert!(!result.history.is_empty());
        assert!(result.history.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        assert!(result.best_fitness.is_finite());
        assert_eq!(result.evaluations, 2 + 2 * 3);
    }

    #[test]
    fn evolution_is_seed_deterministic() {
        let apps = vec![scenarios::telerehab_with(1)];
        let a = evolve(&apps, tiny_cfg());
        let b = evolve(&apps, tiny_cfg());
        assert_eq!(a.best, b.best);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn best_rules_never_lose_to_defaults() {
        let apps = vec![scenarios::telerehab_with(1)];
        let result = evolve(&apps, tiny_cfg());
        let default_fit = evaluate_genome(Genome::default(), &apps, tiny_cfg().horizon);
        assert!(
            result.best_fitness <= default_fit + 1e-9,
            "μ+λ retains the default if nothing beats it: {} vs {}",
            result.best_fitness,
            default_fit
        );
    }

    #[test]
    fn fitness_punishes_starvation() {
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig::default(),
            vec![scenarios::telerehab_with(1)],
            SimTime::from_millis(1), // nothing completes
        )
        .expect("placeable");
        assert!(fitness(&report) >= 1e6);
    }
}
