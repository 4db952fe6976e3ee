//! Trust and reputation (EU-CEI building block).
//!
//! The paper envisions "trust-related KPIs to implement trust and
//! reputation schemes at runtime" and trust indicators "computed and made
//! available locally at runtime". This module implements a beta-
//! reputation model: every observed interaction with a component updates
//! (α, β) evidence counters with exponential forgetting; the trust score
//! is the expected value α / (α + β). Federated reputation combines a
//! component's direct evidence with reports from peers, discounted by the
//! reporter's own trust.

use std::collections::HashMap;

use myrtus_continuum::ids::NodeId;

/// One observed interaction outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The component served a task correctly and on time.
    TaskOk,
    /// The component failed, timed out or returned bad data.
    TaskFailed,
    /// A security-relevant violation (failed auth, bad signature, policy
    /// breach) — weighted much more heavily than a plain failure.
    SecurityIncident,
}

/// Beta-reputation evidence for one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reputation {
    alpha: f64,
    beta: f64,
}

impl Default for Reputation {
    fn default() -> Self {
        // Uninformative prior: trust 0.5.
        Reputation { alpha: 1.0, beta: 1.0 }
    }
}

impl Reputation {
    /// Expected trust in `[0, 1]`.
    pub fn score(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Total evidence mass (confidence proxy).
    pub fn evidence(&self) -> f64 {
        self.alpha + self.beta - 2.0
    }

    fn observe(&mut self, obs: Observation, forgetting: f64) {
        self.alpha = 1.0 + (self.alpha - 1.0) * forgetting;
        self.beta = 1.0 + (self.beta - 1.0) * forgetting;
        match obs {
            Observation::TaskOk => self.alpha += 1.0,
            Observation::TaskFailed => self.beta += 1.0,
            Observation::SecurityIncident => self.beta += 10.0,
        }
    }

    fn merge_discounted(&mut self, other: &Reputation, weight: f64) {
        self.alpha += (other.alpha - 1.0) * weight;
        self.beta += (other.beta - 1.0) * weight;
    }
}

/// Runtime trust model maintained by the Privacy & Security Manager.
///
/// # Examples
///
/// ```
/// use myrtus_security::trust::{Observation, TrustModel};
/// use myrtus_continuum::ids::NodeId;
///
/// let mut trust = TrustModel::new(0.98);
/// let n = NodeId::from_raw(0);
/// for _ in 0..20 {
///     trust.observe(n, Observation::TaskOk);
/// }
/// assert!(trust.score(n) > 0.9);
/// trust.observe(n, Observation::SecurityIncident);
/// assert!(trust.score(n) < 0.75);
/// ```
#[derive(Debug, Clone)]
pub struct TrustModel {
    reputations: HashMap<NodeId, Reputation>,
    forgetting: f64,
}

impl TrustModel {
    /// Creates a model with the given forgetting factor in `(0, 1]`
    /// (1 = never forget).
    ///
    /// # Panics
    ///
    /// Panics if `forgetting` is outside `(0, 1]`.
    pub fn new(forgetting: f64) -> Self {
        assert!(forgetting > 0.0 && forgetting <= 1.0, "forgetting in (0,1]");
        TrustModel { reputations: HashMap::new(), forgetting }
    }

    /// Records an observation about a component.
    pub fn observe(&mut self, node: NodeId, obs: Observation) {
        self.reputations.entry(node).or_default().observe(obs, self.forgetting);
    }

    /// Current trust score of a component (0.5 prior when unobserved).
    pub fn score(&self, node: NodeId) -> f64 {
        self.reputations.get(&node).copied().unwrap_or_default().score()
    }

    /// Raw reputation evidence for a component.
    pub fn reputation(&self, node: NodeId) -> Reputation {
        self.reputations.get(&node).copied().unwrap_or_default()
    }

    /// Components whose trust is at least `threshold`, sorted most
    /// trusted first (unobserved components are excluded).
    pub fn trusted(&self, threshold: f64) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self
            .reputations
            .iter()
            .map(|(n, r)| (*n, r.score()))
            .filter(|(_, s)| *s >= threshold)
            .collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        v
    }

    /// Merges a peer agent's reported reputation about `node`, discounted
    /// by how much we trust the `reporter` (federated trust, as in
    /// Gaia-X-style federations).
    pub fn incorporate_report(&mut self, reporter: NodeId, node: NodeId, report: Reputation) {
        let weight = self.score(reporter);
        self.reputations.entry(node).or_default().merge_discounted(&report, weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    #[test]
    fn prior_is_half() {
        let t = TrustModel::new(1.0);
        assert!((t.score(n(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn successes_build_trust_failures_erode_it() {
        let mut t = TrustModel::new(1.0);
        for _ in 0..10 {
            t.observe(n(1), Observation::TaskOk);
        }
        let high = t.score(n(1));
        assert!(high > 0.85);
        for _ in 0..10 {
            t.observe(n(1), Observation::TaskFailed);
        }
        assert!(t.score(n(1)) < high);
    }

    #[test]
    fn security_incident_is_weighted_heavily() {
        let mut a = TrustModel::new(1.0);
        let mut b = TrustModel::new(1.0);
        for _ in 0..20 {
            a.observe(n(0), Observation::TaskOk);
            b.observe(n(0), Observation::TaskOk);
        }
        a.observe(n(0), Observation::TaskFailed);
        b.observe(n(0), Observation::SecurityIncident);
        assert!(b.score(n(0)) < a.score(n(0)) - 0.2);
    }

    #[test]
    fn forgetting_lets_components_redeem() {
        let mut strict = TrustModel::new(1.0);
        let mut forgiving = TrustModel::new(0.9);
        for m in [&mut strict, &mut forgiving] {
            m.observe(n(0), Observation::SecurityIncident);
            for _ in 0..50 {
                m.observe(n(0), Observation::TaskOk);
            }
        }
        assert!(forgiving.score(n(0)) > strict.score(n(0)));
    }

    #[test]
    fn trusted_filter_sorts_descending() {
        let mut t = TrustModel::new(1.0);
        for _ in 0..10 {
            t.observe(n(1), Observation::TaskOk);
        }
        for _ in 0..10 {
            t.observe(n(2), Observation::TaskFailed);
        }
        t.observe(n(3), Observation::TaskOk);
        let trusted = t.trusted(0.5);
        assert_eq!(trusted.first().map(|(id, _)| *id), Some(n(1)));
        assert!(trusted.iter().all(|(id, _)| *id != n(2)));
    }

    #[test]
    fn reports_are_discounted_by_reporter_trust() {
        let mut t = TrustModel::new(1.0);
        // A trusted reporter.
        for _ in 0..20 {
            t.observe(n(10), Observation::TaskOk);
        }
        // An untrusted reporter.
        for _ in 0..20 {
            t.observe(n(11), Observation::SecurityIncident);
        }
        let glowing = Reputation { alpha: 50.0, beta: 1.0 };
        let mut via_trusted = t.clone();
        via_trusted.incorporate_report(n(10), n(0), glowing);
        let mut via_untrusted = t.clone();
        via_untrusted.incorporate_report(n(11), n(0), glowing);
        assert!(via_trusted.score(n(0)) > via_untrusted.score(n(0)));
    }

    #[test]
    #[should_panic(expected = "forgetting")]
    fn invalid_forgetting_rejected() {
        let _ = TrustModel::new(0.0);
    }
}
