//! E7 — DPE node-level exploration: per-kernel DSE Pareto fronts on the
//! heterogeneous edge platform, and MDC reconfigurable-datapath area
//! savings as more kernels are merged.

use myrtus::dpe::dse::{explore, standard_edge_platform};
use myrtus::dpe::kernels::{detect_cnn, fusion, pose_cnn, preproc};
use myrtus::dpe::mdc::compose;
use myrtus_bench::{num, render_table};

fn main() {
    let platform = standard_edge_platform();
    let kernels = [pose_cnn(), detect_cnn(), preproc(), fusion()];

    // Pareto fronts per kernel.
    for g in &kernels {
        let res = explore(g, &platform, 5, 12).expect("valid kernel");
        let rows: Vec<Vec<String>> = res
            .pareto_points()
            .iter()
            .map(|p| {
                let places: Vec<&str> = p
                    .mapping
                    .iter()
                    .map(|&pe| match pe {
                        0 => "cpu",
                        1 => "fpga",
                        _ => "cgra",
                    })
                    .collect();
                vec![
                    num(p.eval.latency_us, 2),
                    num(p.eval.energy_mj * 1_000.0, 2),
                    places.join(","),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!(
                    "E7 — {} Pareto front ({} feasible mappings explored)",
                    g.name,
                    res.points.len()
                ),
                &["latency µs/iter", "energy µJ/iter", "actor mapping"],
                &rows
            )
        );
    }

    // MDC merge ladder: area savings as kernels accumulate.
    let mut rows = Vec::new();
    for n in 1..=kernels.len() {
        let comp = compose(&kernels[..n]).expect("valid kernels");
        let area = comp.area_report();
        rows.push(vec![
            comp.config_names.join(" + "),
            area.dedicated.area_units().to_string(),
            area.composed.area_units().to_string(),
            num(area.savings() * 100.0, 1),
            area.shared_actors.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "E7 — MDC reconfigurable datapath: dedicated vs composed area",
            &["configurations", "dedicated area", "composed area", "savings %", "shared actors"],
            &rows
        )
    );
    println!(
        "shape check: fronts trade FPGA speed against CGRA energy; MDC savings grow with\n\
         every kernel sharing the CNN frontend, with diminishing returns for unrelated ones."
    );
}
