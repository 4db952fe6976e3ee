//! Federated Learning across MIRTO edge agents (the KCL contribution
//! slot).
//!
//! Paper Sect. IV: edge agents learn ML models estimating "the best
//! operating point of a workload", and "combining learned models from
//! different agents using FL techniques" lets agents "evolve based on
//! each other's experiences". Here each agent fits a ridge-regression
//! latency model `latency ≈ w·[1, work, bytes, 1/speed]` on its *local*
//! observations (non-IID: each edge node only sees its own hardware and
//! its own applications), and [`fed_avg`] aggregates the models
//! FedAvg-style, weighted by sample count.

/// Feature vector length: bias, work (mc), input (KiB), inverse speed,
/// and the work × inverse-speed interaction (compute time).
pub const FEATURES: usize = 5;

/// A linear latency model over [`FEATURES`] features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Model weights.
    pub w: [f64; FEATURES],
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel { w: [0.0; FEATURES] }
    }
}

impl LatencyModel {
    /// Builds the feature vector for a task on a node.
    pub fn features(work_mc: f64, input_kib: f64, speed_mc_per_us: f64) -> [f64; FEATURES] {
        let inv = 1.0 / speed_mc_per_us.max(1e-9);
        [1.0, work_mc, input_kib, inv / 1_000.0, work_mc * inv / 1_000.0]
    }

    /// Predicted latency in µs.
    pub fn predict(&self, x: &[f64; FEATURES]) -> f64 {
        self.w.iter().zip(x.iter()).map(|(w, x)| w * x).sum()
    }

    /// Mean squared error on a dataset.
    pub fn mse(&self, data: &[([f64; FEATURES], f64)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        data.iter()
            .map(|(x, y)| {
                let e = self.predict(x) - y;
                e * e
            })
            .sum::<f64>()
            / data.len() as f64
    }
}

/// One agent's local learner.
#[derive(Debug, Clone, Default)]
pub struct LocalLearner {
    samples: Vec<([f64; FEATURES], f64)>,
}

impl LocalLearner {
    /// Creates an empty learner.
    pub fn new() -> Self {
        LocalLearner::default()
    }

    /// Records an observation `(features, latency_us)`.
    pub fn observe(&mut self, x: [f64; FEATURES], latency_us: f64) {
        self.samples.push((x, latency_us));
    }

    /// Number of local observations.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// The local dataset.
    pub fn samples(&self) -> &[([f64; FEATURES], f64)] {
        &self.samples
    }

    /// Accumulates the sufficient statistics `(XᵀX, Xᵀy)` of the local
    /// dataset — what a privacy-aware agent would share for federated
    /// least squares instead of raw observations.
    pub fn sufficient_stats(&self) -> SufficientStats {
        let mut st = SufficientStats::default();
        for (x, y) in &self.samples {
            st.absorb(x, *y);
        }
        st
    }

    /// Fits a ridge regression with regularization `lambda` by solving
    /// the normal equations `(XᵀX + λI) w = Xᵀy`. Returns the default
    /// (zero) model when there is no data.
    pub fn fit(&self, lambda: f64) -> LatencyModel {
        if self.samples.is_empty() {
            return LatencyModel::default();
        }
        self.sufficient_stats().solve(lambda, 0.0, &LatencyModel::default())
    }

    /// FedProx local step: ridge solution anchored to the global model
    /// with proximal strength `mu` — `(XᵀX + (λ+μ)I) w = Xᵀy + μ·w_g`.
    pub fn fit_prox(&self, lambda: f64, mu: f64, global: &LatencyModel) -> LatencyModel {
        if self.samples.is_empty() {
            return *global;
        }
        self.sufficient_stats().solve(lambda, mu, global)
    }
}

/// Accumulated `(XᵀX, Xᵀy, n)` of a dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SufficientStats {
    xtx: [[f64; FEATURES]; FEATURES],
    xty: [f64; FEATURES],
    n: usize,
}

impl SufficientStats {
    /// Adds one observation.
    pub fn absorb(&mut self, x: &[f64; FEATURES], y: f64) {
        for i in 0..FEATURES {
            self.xty[i] += x[i] * y;
            for j in 0..FEATURES {
                self.xtx[i][j] += x[i] * x[j];
            }
        }
        self.n += 1;
    }

    /// Merges another agent's statistics.
    pub fn merge(&mut self, other: &SufficientStats) {
        for i in 0..FEATURES {
            self.xty[i] += other.xty[i];
            for j in 0..FEATURES {
                self.xtx[i][j] += other.xtx[i][j];
            }
        }
        self.n += other.n;
    }

    /// Number of absorbed observations.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Solves `(XᵀX + (λ+μ)I) w = Xᵀy + μ·anchor` by Gaussian
    /// elimination with partial pivoting.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, lambda: f64, mu: f64, anchor: &LatencyModel) -> LatencyModel {
        let n = FEATURES;
        let mut m = [[0.0f64; FEATURES + 1]; FEATURES];
        for i in 0..n {
            m[i][..n].copy_from_slice(&self.xtx[i]);
            m[i][i] += lambda + mu;
            m[i][n] = self.xty[i] + mu * anchor.w[i];
        }
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&r1, &r2| {
                    m[r1][col]
                        .abs()
                        .partial_cmp(&m[r2][col].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty range");
            m.swap(col, pivot);
            let p = m[col][col];
            if p.abs() < 1e-12 {
                continue;
            }
            for row in 0..n {
                if row != col {
                    let factor = m[row][col] / p;
                    for k in col..=n {
                        m[row][k] -= factor * m[col][k];
                    }
                }
            }
        }
        let mut w = [0.0f64; FEATURES];
        for i in 0..n {
            w[i] = if m[i][i].abs() < 1e-12 { 0.0 } else { m[i][n] / m[i][i] };
        }
        LatencyModel { w }
    }
}

/// Exact federated least squares: agents share sufficient statistics
/// instead of raw data; the aggregate solution equals the centralized
/// fit (one round, no approximation).
pub fn fed_least_squares(learners: &[LocalLearner], lambda: f64) -> LatencyModel {
    let mut total = SufficientStats::default();
    for l in learners {
        total.merge(&l.sufficient_stats());
    }
    if total.count() == 0 {
        return LatencyModel::default();
    }
    total.solve(lambda, 0.0, &LatencyModel::default())
}

/// FedAvg: sample-count-weighted average of local models.
///
/// Returns the default model for an empty input.
pub fn fed_avg(models: &[(LatencyModel, usize)]) -> LatencyModel {
    let total: usize = models.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return LatencyModel::default();
    }
    let mut w = [0.0f64; FEATURES];
    for (m, n) in models {
        for (wi, mi) in w.iter_mut().zip(m.w.iter()) {
            *wi += mi * *n as f64;
        }
    }
    for wi in &mut w {
        *wi /= total as f64;
    }
    LatencyModel { w }
}

/// Runs `rounds` of FedProx-style federated training: each round every
/// agent solves its local ridge problem anchored to the current global
/// model (proximal strength `mu`), the server sample-weight-averages the
/// locals, and the loop repeats. Returns the final global model and the
/// global-dataset MSE after each round.
pub fn federated_rounds(
    learners: &[LocalLearner],
    lambda: f64,
    mu: f64,
    rounds: usize,
) -> (LatencyModel, Vec<f64>) {
    let mut history = Vec::with_capacity(rounds);
    let mut global = LatencyModel::default();
    let all: Vec<([f64; FEATURES], f64)> =
        learners.iter().flat_map(|l| l.samples().iter().copied()).collect();
    for _ in 0..rounds.max(1) {
        let locals: Vec<(LatencyModel, usize)> =
            learners.iter().map(|l| (l.fit_prox(lambda, mu, &global), l.sample_count())).collect();
        global = fed_avg(&locals);
        history.push(global.mse(&all));
    }
    (global, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synth_sample(rng: &mut StdRng, speed: f64) -> ([f64; FEATURES], f64) {
        let work = rng.gen_range(1.0..50.0);
        let kib = rng.gen_range(1.0..500.0);
        let x = LatencyModel::features(work, kib, speed);
        // Ground truth: latency = work/speed + 2µs/KiB + 50µs fixed.
        let y = work / speed + 2.0 * kib + 50.0;
        (x, y)
    }

    #[test]
    fn local_fit_recovers_linear_ground_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = LocalLearner::new();
        for _ in 0..200 {
            let (x, y) = synth_sample(&mut rng, 1.5e-3);
            l.observe(x, y);
        }
        let m = l.fit(1e-6);
        let test: Vec<_> = (0..50).map(|_| synth_sample(&mut rng, 1.5e-3)).collect();
        let mse = m.mse(&test);
        let var: f64 = test.iter().map(|(_, y)| y * y).sum::<f64>() / test.len() as f64;
        assert!(mse < var * 0.01, "mse {mse} vs var {var}");
    }

    #[test]
    fn empty_learner_fits_zero_model() {
        let m = LocalLearner::new().fit(0.1);
        assert_eq!(m, LatencyModel::default());
        assert_eq!(fed_avg(&[]), LatencyModel::default());
    }

    #[test]
    fn fed_avg_weights_by_sample_count() {
        let big = LatencyModel { w: [10.0, 0.0, 0.0, 0.0, 0.0] };
        let small = LatencyModel { w: [0.0; FEATURES] };
        let avg = fed_avg(&[(big, 90), (small, 10)]);
        assert!((avg.w[0] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn federation_beats_isolated_agents_on_global_data() {
        // Non-IID: agent A only sees slow hardware, agent B only fast.
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = LocalLearner::new();
        let mut b = LocalLearner::new();
        for _ in 0..150 {
            let (x, y) = synth_sample(&mut rng, 0.6e-3); // slow RISC-V
            a.observe(x, y);
        }
        for _ in 0..150 {
            let (x, y) = synth_sample(&mut rng, 3.0e-3); // fast server
            b.observe(x, y);
        }
        let global_test: Vec<_> = (0..100)
            .map(|i| synth_sample(&mut rng, if i % 2 == 0 { 0.6e-3 } else { 3.0e-3 }))
            .collect();
        let (fed, _) = federated_rounds(&[a.clone(), b.clone()], 1e-6, 50.0, 6);
        let fed_mse = fed.mse(&global_test);
        let a_mse = a.fit(1e-6).mse(&global_test);
        let b_mse = b.fit(1e-6).mse(&global_test);
        let worst_isolated = a_mse.max(b_mse);
        assert!(
            fed_mse < worst_isolated,
            "federated {fed_mse} must beat the worst isolated agent {worst_isolated}"
        );
    }

    #[test]
    fn federated_rounds_report_history() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = LocalLearner::new();
        for _ in 0..50 {
            let (x, y) = synth_sample(&mut rng, 1.0e-3);
            l.observe(x, y);
        }
        let (_, hist) = federated_rounds(&[l], 1e-6, 10.0, 5);
        assert_eq!(hist.len(), 5);
        assert!(hist.iter().all(|m| m.is_finite()));
        assert!(
            hist.last().expect("non-empty") <= &(hist[0] + 1e-9),
            "FedProx rounds do not diverge: {hist:?}"
        );
    }

    #[test]
    fn fed_least_squares_matches_centralized_fit() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = LocalLearner::new();
        let mut b = LocalLearner::new();
        let mut central = LocalLearner::new();
        for _ in 0..100 {
            let (x, y) = synth_sample(&mut rng, 0.6e-3);
            a.observe(x, y);
            central.observe(x, y);
        }
        for _ in 0..100 {
            let (x, y) = synth_sample(&mut rng, 3.0e-3);
            b.observe(x, y);
            central.observe(x, y);
        }
        let fed = fed_least_squares(&[a, b], 1e-6);
        let direct = central.fit(1e-6);
        for i in 0..FEATURES {
            assert!((fed.w[i] - direct.w[i]).abs() < 1e-6, "w[{i}]");
        }
    }

    #[test]
    fn empty_fed_least_squares_is_zero() {
        assert_eq!(fed_least_squares(&[], 0.1), LatencyModel::default());
    }

    #[test]
    fn features_guard_against_zero_speed() {
        let x = LatencyModel::features(1.0, 1.0, 0.0);
        assert!(x[3].is_finite());
    }
}
