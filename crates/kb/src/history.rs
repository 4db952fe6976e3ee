//! The KB's metric history: how much of each stream
//! [`KnowledgeBase`](crate::facade::KnowledgeBase) keeps.
//!
//! The history itself is a [`myrtus_obs::TimeSeriesStore`]; this module
//! fixes its retention and checks that the store a fresh KB holds
//! evicts at exactly that cap. The retention applies to the streams the
//! control plane reads back; the ingest keeps only the newest sample of
//! the others (`energy_j`, `queue`, `link_util`) with
//! [`TimeSeriesStore::set_id`](myrtus_obs::TimeSeriesStore::set_id).

/// Samples each KB history stream keeps; recording one more evicts the
/// oldest.
pub const RETENTION: usize = 10_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::KnowledgeBase;
    use myrtus_continuum::time::SimTime;
    use myrtus_obs::TsSample;

    fn values(samples: &[TsSample]) -> Vec<f64> {
        samples.iter().map(|s| s.value).collect()
    }

    /// A fresh KB with `n` samples `1.0, 2.0, ..` in one history stream.
    fn filled(n: u64) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for ms in 1..=n {
            kb.record_kpi("app", "s", SimTime::from_millis(ms), ms as f64);
        }
        kb
    }

    #[test]
    fn ring_retains_exactly_the_cap() {
        let cap = RETENTION as u64;
        let at_cap = filled(cap);
        let all = at_cap.history().series("s", "app");
        assert_eq!(all.len(), RETENTION, "nothing evicted at exactly the cap");
        assert_eq!((all[0].value, all[RETENTION - 1].value), (1.0, cap as f64));
        let over = filled(cap + 1);
        let all = over.history().series("s", "app");
        assert_eq!(all.len(), RETENTION, "one over the cap evicts one");
        assert_eq!((all[0].value, all[RETENTION - 1].value), (2.0, (cap + 1) as f64));
    }

    #[test]
    fn retention_evicts_oldest() {
        let kb = filled(RETENTION as u64 + 2);
        let h = kb.history();
        assert_eq!(h.series("s", "app").len(), RETENTION);
        assert_eq!(h.series("s", "app")[0].value, 3.0);
        assert_eq!(h.latest("s", "app").map(|s| s.value), Some(RETENTION as f64 + 2.0));
        assert_eq!(h.sample_count(), RETENTION, "eviction frees the sample");
    }

    #[test]
    fn last_n_below_at_and_above_the_length() {
        let kb = filled(4);
        let h = kb.history();
        assert_eq!(values(&h.last_n("s", "app", 0)), Vec::<f64>::new());
        assert_eq!(values(&h.last_n("s", "app", 3)), vec![2.0, 3.0, 4.0]);
        assert_eq!(values(&h.last_n("s", "app", 4)), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(values(&h.last_n("s", "app", 5)), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(h.last_n("nope", "app", 3).is_empty());
        assert!(h.last_n("s", "other", 3).is_empty());
    }
}
