//! E4 — Swarm-intelligence placement: PSO/ACO quality and convergence vs
//! greedy, random restarts and (on small spaces) the exhaustive optimum.

use myrtus::continuum::ids::NodeId;
use myrtus::continuum::net::RouteCache;
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::kb::KnowledgeBase;
use myrtus::mirto::placement::{evaluate, PlanContext};
use myrtus::mirto::policies::{GreedyBestFit, PlacementPolicy, RandomPlacement};
use myrtus::mirto::swarm::{exhaustive_best, AcoPlacement, PsoPlacement};
use myrtus::workload::graph::RequestDag;
use myrtus::workload::scenarios;
use myrtus_bench::{num, render_table};

fn main() {
    let continuum = ContinuumBuilder::new()
        .edge_multicores(6)
        .edge_hmpsocs(6)
        .edge_riscvs(4)
        .gateways(2)
        .fmdcs(2)
        .cloud_servers(2)
        .build();
    let kb = KnowledgeBase::new();

    for (label, app) in [
        ("telerehab (5 components)", scenarios::telerehab()),
        ("smart-mobility (5 components)", scenarios::smart_mobility()),
    ] {
        let dag = RequestDag::from_application(&app).expect("valid");
        let all: Vec<NodeId> = continuum.all_nodes();
        let cache = RouteCache::new();
        let cands = vec![all; dag.nodes().len()];
        let ctx = PlanContext::new(continuum.sim(), &kb, &app, &dag, cands, &cache);
        let score = |p: &myrtus::mirto::placement::Placement| evaluate(&ctx, p).objective(0.0);

        let mut rows = Vec::new();
        // Random restarts (best of 10).
        let mut best_random = f64::INFINITY;
        for seed in 0..10 {
            let p = RandomPlacement::new(seed).place(&ctx).expect("places");
            best_random = best_random.min(score(&p));
        }
        rows.push(vec!["random ×10 (best)".into(), num(best_random / 1e3, 3), "-".into()]);

        let mut greedy = GreedyBestFit::new();
        let p = greedy.place(&ctx).expect("places");
        rows.push(vec!["greedy".into(), num(score(&p) / 1e3, 3), "-".into()]);

        let mut pso = PsoPlacement::new(3).with_iterations(40).with_particles(24);
        let p = pso.place(&ctx).expect("places");
        let pso_trace: Vec<f64> = pso.last_trace().to_vec();
        rows.push(vec![
            "swarm PSO".into(),
            num(score(&p) / 1e3, 3),
            format!(
                "iter1 {} → iter40 {}",
                num(pso_trace[0] / 1e3, 2),
                num(pso_trace[pso_trace.len() - 1] / 1e3, 2)
            ),
        ]);

        let mut aco = AcoPlacement::new(3).with_iterations(40);
        let p = aco.place(&ctx).expect("places");
        let aco_trace: Vec<f64> = aco.last_trace().to_vec();
        rows.push(vec![
            "swarm ACO".into(),
            num(score(&p) / 1e3, 3),
            format!(
                "iter1 {} → iter40 {}",
                num(aco_trace[0] / 1e3, 2),
                num(aco_trace[aco_trace.len() - 1] / 1e3, 2)
            ),
        ]);

        println!(
            "{}",
            render_table(
                &format!("E4 — placement objective (ms, lower is better): {label} on 22 nodes"),
                &["strategy", "objective ms", "convergence"],
                &rows
            )
        );
    }

    // Optimality gap on a reduced space where the optimum is enumerable.
    let small = ContinuumBuilder::new().build();
    let app = scenarios::telerehab();
    let dag = RequestDag::from_application(&app).expect("valid");
    let pool = vec![small.edge()[0], small.edge()[4], small.fmdcs()[0], small.cloud()[0]];
    let cache = RouteCache::new();
    let ctx = PlanContext::new(small.sim(), &kb, &app, &dag, vec![pool; dag.nodes().len()], &cache);
    let (_, optimal) = exhaustive_best(&ctx, 0.0).expect("small space");
    let mut rows = Vec::new();
    for seed in [1u64, 2, 3, 4, 5] {
        let mut pso = PsoPlacement::new(seed).with_iterations(40);
        let p = pso.place(&ctx).expect("places");
        let s = evaluate(&ctx, &p).objective(0.0);
        rows.push(vec![
            format!("seed {seed}"),
            num(s / 1e3, 3),
            num(optimal / 1e3, 3),
            num((s / optimal - 1.0) * 100.0, 2),
        ]);
    }
    println!(
        "{}",
        render_table(
            "E4 — PSO optimality gap on a 4^5 = 1024-point space",
            &["run", "PSO ms", "optimal ms", "gap %"],
            &rows
        )
    );
    println!("shape check: swarms match the exhaustive optimum on small spaces and beat\nrandom restarts on the full platform; best-so-far traces never worsen.");
}
