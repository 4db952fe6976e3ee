//! Application operating points (after refs \[29\], \[30\]).
//!
//! The deployment specification exported by the DPE carries
//! meta-information describing several *operating points* per application
//! component — e.g. full-resolution vs. reduced-resolution inference —
//! that the MIRTO Node Manager switches between at runtime to trade
//! quality for latency and energy. [`AppPointSet::pareto_front`] extracts
//! the non-dominated points the manager actually considers.

/// One application-level operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOperatingPoint {
    /// Human-readable name (e.g. `"720p"`).
    pub name: String,
    /// Work multiplier relative to the component's nominal `work_mc`.
    pub work_scale: f64,
    /// Data-volume multiplier relative to nominal connection bytes.
    pub bytes_scale: f64,
    /// Application-level quality in `[0, 1]` (1 = full quality).
    pub quality: f64,
}

impl AppOperatingPoint {
    /// Creates a point.
    ///
    /// # Panics
    ///
    /// Panics if any scale is non-positive or quality is outside `[0, 1]`.
    pub fn new(name: impl Into<String>, work_scale: f64, bytes_scale: f64, quality: f64) -> Self {
        assert!(work_scale > 0.0 && bytes_scale > 0.0, "scales must be positive");
        assert!((0.0..=1.0).contains(&quality), "quality must be in [0, 1]");
        AppOperatingPoint { name: name.into(), work_scale, bytes_scale, quality }
    }

    /// Whether `self` dominates `other`: no worse in work, bytes and
    /// quality, strictly better in at least one.
    pub fn dominates(&self, other: &AppOperatingPoint) -> bool {
        let no_worse = self.work_scale <= other.work_scale
            && self.bytes_scale <= other.bytes_scale
            && self.quality >= other.quality;
        let better = self.work_scale < other.work_scale
            || self.bytes_scale < other.bytes_scale
            || self.quality > other.quality;
        no_worse && better
    }
}

/// An indexed set of application operating points; index 0 is nominal.
#[derive(Debug, Clone, PartialEq)]
pub struct AppPointSet {
    points: Vec<AppOperatingPoint>,
}

impl AppPointSet {
    /// Creates a set; index 0 is the nominal (deployment-default) point.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(points: Vec<AppOperatingPoint>) -> Self {
        assert!(!points.is_empty(), "need at least one operating point");
        AppPointSet { points }
    }

    /// The conventional three-point ladder used by the use cases:
    /// full / balanced / degraded.
    pub fn standard_ladder() -> Self {
        AppPointSet::new(vec![
            AppOperatingPoint::new("full", 1.0, 1.0, 1.0),
            AppOperatingPoint::new("balanced", 0.55, 0.5, 0.85),
            AppOperatingPoint::new("degraded", 0.25, 0.2, 0.6),
        ])
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn point(&self, idx: usize) -> &AppOperatingPoint {
        &self.points[idx]
    }

    /// The point at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&AppOperatingPoint> {
        self.points.get(idx)
    }

    /// Iterates the points in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, AppOperatingPoint> {
        self.points.iter()
    }

    /// Indices of the Pareto-optimal points (not dominated by any other).
    pub fn pareto_front(&self) -> Vec<usize> {
        (0..self.points.len())
            .filter(|&i| {
                !self.points.iter().enumerate().any(|(j, p)| j != i && p.dominates(&self.points[i]))
            })
            .collect()
    }

    /// The cheapest (lowest work) point with quality ≥ `min_quality`,
    /// if any.
    pub fn cheapest_with_quality(&self, min_quality: f64) -> Option<usize> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.quality >= min_quality)
            .min_by(|a, b| {
                a.1.work_scale.partial_cmp(&b.1.work_scale).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domination_is_strict() {
        let a = AppOperatingPoint::new("a", 0.5, 0.5, 0.9);
        let b = AppOperatingPoint::new("b", 1.0, 1.0, 0.9);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "a point never dominates itself");
    }

    #[test]
    fn ladder_is_fully_pareto() {
        let set = AppPointSet::standard_ladder();
        assert_eq!(set.pareto_front(), vec![0, 1, 2]);
    }

    #[test]
    fn dominated_point_is_excluded() {
        let set = AppPointSet::new(vec![
            AppOperatingPoint::new("full", 1.0, 1.0, 1.0),
            AppOperatingPoint::new("bad", 1.0, 1.0, 0.5), // dominated by full
            AppOperatingPoint::new("eco", 0.3, 0.3, 0.7),
        ]);
        assert_eq!(set.pareto_front(), vec![0, 2]);
    }

    #[test]
    fn cheapest_with_quality_picks_lowest_work() {
        let set = AppPointSet::standard_ladder();
        assert_eq!(set.cheapest_with_quality(0.8), Some(1));
        assert_eq!(set.cheapest_with_quality(0.0), Some(2));
        assert_eq!(set.cheapest_with_quality(0.99), Some(0));
        assert_eq!(set.cheapest_with_quality(1.1), None);
    }

    #[test]
    #[should_panic(expected = "quality")]
    fn invalid_quality_rejected() {
        let _ = AppOperatingPoint::new("x", 1.0, 1.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_set_rejected() {
        let _ = AppPointSet::new(vec![]);
    }
}
