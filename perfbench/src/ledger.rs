//! The per-layer ledger of one traced repetition.
//!
//! Layers are the repository's modules: `continuum` (the `SimCore`
//! event loop, wheel, slab and network), `mirto` (the MAPE engine and
//! its managers), `placement`, `kb`, `obs`, `vm` and `workload`.
//! `security` does no host work in these runs (the Table-II costs are
//! modelled in sim time), so it has no row.
//!
//! Each layer's host seconds are either *timed* (a timer wrapped from
//! this crate around a call into the layer) or *estimated* (a replay of
//! the layer on the run's own state, multiplied by how often the run
//! did that work). `ledger.unattributed_s` is what neither covers; it is
//! reported however large it is.

use crate::{metric, Metric};

/// Raw layer figures; everything defaults to zero, which is what a
/// workload that never enters a layer reports.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Host seconds of the traced repetition's run.
    pub run_s: f64,
    pub events: u64,
    /// Timed: run time outside the benchmark's own `Driver::on_event`
    /// (storm only; MIRTO's driver is internal to the library).
    pub loop_s: f64,
    /// Timed: host seconds inside `SimCore::submit_local` (storm only).
    pub submit_s: f64,
    pub build_s: f64,
    pub gen_s: f64,

    pub mape_rounds: u64,
    pub manager_actions: u64,
    pub scale_actions: u64,
    pub bursts: u64,
    pub tasks_migrated: u64,
    pub reallocations: u64,
    /// Replay: mean host µs of one `MonitoringReport::collect`.
    pub collect_us: f64,

    pub place_calls: u64,
    pub place_s: f64,
    pub place_rejected: u64,
    pub route_cache_invalidations: u64,

    pub kb_ingests: u64,
    /// Replay: mean host µs of one `KnowledgeBase::ingest_report`.
    pub kb_ingest_us: f64,

    pub ts_samples: u64,
    pub trace_events: u64,
    pub trace_dropped: u64,
    /// Replay: mean host µs of one `Obs::ts_last_n(_, _, 3)` at final
    /// series length.
    pub ts_read_us: f64,
    /// Mean length of the series read for `ts_read_us`.
    pub ts_read_len: f64,
    /// Reads the run made (MAPE rounds × reads per round).
    pub ts_reads: u64,
    pub scrape_samples: u64,
    pub scrape_ns_per_sample: f64,
    pub export_s: f64,

    pub vm_steps: u64,
    /// Steps replayed to measure `vm_steps_per_s`.
    pub vm_bench_steps: u64,
    pub vm_steps_per_s: f64,
    pub vm_migrations_live: u64,
    pub vm_migration_bytes: u64,
    pub vm_checkpoint_rt_us: f64,
}

impl Layers {
    fn kb_est_s(&self) -> f64 {
        self.kb_ingests as f64 * self.kb_ingest_us * 1e-6
    }

    /// The monitor phase collects one report per ingest.
    fn collect_est_s(&self) -> f64 {
        self.kb_ingests as f64 * self.collect_us * 1e-6
    }

    /// Reads clone the whole series, which grows linearly over the run,
    /// so the mean read costs about half the final-length read.
    fn ts_read_est_s(&self) -> f64 {
        self.ts_reads as f64 * self.ts_read_us * 0.5e-6
    }

    fn scrape_est_s(&self) -> f64 {
        self.ts_samples as f64 * self.scrape_ns_per_sample * 1e-9
    }

    fn vm_est_s(&self) -> f64 {
        if self.vm_steps_per_s > 0.0 {
            self.vm_steps as f64 / self.vm_steps_per_s
        } else {
            0.0
        }
    }

    fn attributed_s(&self) -> f64 {
        self.loop_s
            + self.submit_s
            + self.place_s
            + self.collect_est_s()
            + self.kb_est_s()
            + self.ts_read_est_s()
            + self.scrape_est_s()
            + self.vm_est_s()
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_s = |count: u64| if self.run_s > 0.0 { count as f64 / self.run_s } else { 0.0 };
        let attributed = self.attributed_s();
        vec![
            metric("continuum.events", self.events as f64, "count"),
            metric("continuum.events_per_s", per_s(self.events), "1/s"),
            metric("continuum.loop_s", self.loop_s, "s"),
            metric("continuum.submit_s", self.submit_s, "s"),
            metric("continuum.build_s", self.build_s, "s"),
            metric("workload.gen_s", self.gen_s, "s"),
            metric("mirto.mape_rounds", self.mape_rounds as f64, "count"),
            metric("mirto.manager_actions", self.manager_actions as f64, "count"),
            metric("mirto.scale_actions", self.scale_actions as f64, "count"),
            metric("mirto.bursts", self.bursts as f64, "count"),
            metric("mirto.tasks_migrated", self.tasks_migrated as f64, "count"),
            metric("mirto.reallocations", self.reallocations as f64, "count"),
            metric("mirto.collect_us", self.collect_us, "us"),
            metric("mirto.collect_est_s", self.collect_est_s(), "s"),
            metric("placement.calls", self.place_calls as f64, "count"),
            metric("placement.place_s", self.place_s, "s"),
            metric("placement.rejected", self.place_rejected as f64, "count"),
            metric(
                "placement.route_cache_invalidations",
                self.route_cache_invalidations as f64,
                "count",
            ),
            metric("kb.ingests", self.kb_ingests as f64, "count"),
            metric("kb.ingest_us", self.kb_ingest_us, "us"),
            metric("kb.est_s", self.kb_est_s(), "s"),
            metric("obs.ts_samples", self.ts_samples as f64, "count"),
            metric("obs.trace_events", self.trace_events as f64, "count"),
            metric("obs.trace_dropped", self.trace_dropped as f64, "count"),
            metric("obs.ts_read_us", self.ts_read_us, "us"),
            metric("obs.ts_read_len", self.ts_read_len, "samples"),
            metric("obs.ts_reads", self.ts_reads as f64, "count"),
            metric("obs.ts_read_est_s", self.ts_read_est_s(), "s"),
            metric("obs.scrape_samples", self.scrape_samples as f64, "samples"),
            metric("obs.scrape_ns_per_sample", self.scrape_ns_per_sample, "ns"),
            metric("obs.scrape_est_s", self.scrape_est_s(), "s"),
            metric("obs.export_s", self.export_s, "s"),
            metric("vm.steps", self.vm_steps as f64, "count"),
            metric("vm.bench_steps", self.vm_bench_steps as f64, "count"),
            metric("vm.steps_per_s", self.vm_steps_per_s, "1/s"),
            metric("vm.est_s", self.vm_est_s(), "s"),
            metric("vm.migrations_live", self.vm_migrations_live as f64, "count"),
            metric("vm.migration_bytes", self.vm_migration_bytes as f64, "bytes"),
            metric("vm.checkpoint_rt_us", self.vm_checkpoint_rt_us, "us"),
            metric("ledger.run_s", self.run_s, "s"),
            metric("ledger.attributed_frac", attributed / self.run_s, "frac"),
            metric("ledger.unattributed_s", self.run_s - attributed, "s"),
        ]
    }
}
