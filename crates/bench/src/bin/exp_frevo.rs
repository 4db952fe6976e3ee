//! E10 — Evolutionary design of the swarm agents' local rules (FREVO +
//! DynAA analog, paper Sect. V): a (μ+λ) evolution strategy searches the
//! runtime-manager rule space, each candidate evaluated by a what-if
//! simulation; the evolved rules are validated on a held-out workload.

use myrtus::continuum::time::SimTime;
use myrtus::mirto::engine::{run_orchestration, EngineConfig};
use myrtus::mirto::frevo::{evaluate_genome, evolve, EvolutionConfig, Genome};
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::workload::scenarios;
use myrtus_bench::{num, render_table};

fn main() {
    // Training workload: the mobility bursts, which stress reallocation
    // and operating-point choices.
    let train = vec![scenarios::smart_mobility_with(SimTime::from_secs(2))];
    let cfg = EvolutionConfig {
        parents: 3,
        offspring: 6,
        generations: 6,
        seed: 11,
        horizon: SimTime::from_secs(4),
    };
    let result = evolve(&train, cfg);

    let rows: Vec<Vec<String>> = result
        .history
        .iter()
        .enumerate()
        .map(|(g, f)| vec![format!("gen {}", g + 1), num(*f, 2)])
        .collect();
    println!(
        "{}",
        render_table(
            &format!("E10 — evolution of local rules ({} what-if simulations)", result.evaluations),
            &["generation", "best fitness (lower = better)"],
            &rows
        )
    );

    let default_fit = evaluate_genome(Genome::default(), &train, cfg.horizon);
    let best = result.best;
    println!(
        "{}",
        render_table(
            "E10 — default vs evolved rules (training workload)",
            &["rule", "default", "evolved"],
            &[
                vec!["fitness".into(), num(default_fit, 2), num(result.best_fitness, 2)],
                vec![
                    "eco threshold".into(),
                    num(Genome::default().tuning.eco_threshold, 2),
                    num(best.tuning.eco_threshold, 2),
                ],
                vec![
                    "boost threshold".into(),
                    num(Genome::default().tuning.boost_threshold, 2),
                    num(best.tuning.boost_threshold, 2),
                ],
                vec![
                    "overload threshold".into(),
                    num(Genome::default().tuning.overload_threshold, 2),
                    num(best.tuning.overload_threshold, 2),
                ],
                vec![
                    "queue threshold".into(),
                    Genome::default().tuning.queue_threshold.to_string(),
                    best.tuning.queue_threshold.to_string(),
                ],
                vec![
                    "monitoring period ms".into(),
                    Genome::default().monitoring_period_ms.to_string(),
                    best.monitoring_period_ms.to_string(),
                ],
            ],
        )
    );

    // Held-out validation: the evolved rules on the telerehab workload.
    let holdout = vec![scenarios::telerehab_with(2)];
    let mut rows = Vec::new();
    for (label, genome) in [("default rules", Genome::default()), ("evolved rules", best)] {
        let report = run_orchestration(
            Box::new(GreedyBestFit::new()),
            EngineConfig {
                tuning: genome.tuning,
                monitoring_period: myrtus::continuum::time::SimDuration::from_millis(
                    genome.monitoring_period_ms,
                ),
                ..EngineConfig::default()
            },
            holdout.clone(),
            SimTime::from_secs(5),
        )
        .expect("placeable");
        rows.push(vec![
            label.to_string(),
            report.apps[0].completed.to_string(),
            num(report.mean_latency_ms(), 2),
            num(report.global_qos() * 100.0, 1),
            num(report.total_energy_j, 1),
        ]);
    }
    println!(
        "{}",
        render_table(
            "E10 — held-out validation (telerehab)",
            &["rules", "completed", "mean ms", "QoS %", "energy J"],
            &rows
        )
    );
    println!(
        "shape check: best-so-far fitness is monotone over generations and the evolved\n\
         rules never lose to the defaults on the training workload."
    );
}
