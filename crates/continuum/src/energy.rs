//! Energy and DVFS operating-point models.
//!
//! Every node advertises a set of [`OperatingPoint`]s — (frequency scale,
//! active power, idle power) triples, after the adaptive operating-point
//! work the paper builds on (refs \[29\], \[30\]). The [`EnergyMeter`]
//! integrates power over busy/idle intervals to yield joules.

use crate::time::{SimDuration, SimTime};

/// One DVFS / configuration operating point of a computing component.
///
/// `freq_scale` multiplies the node's nominal per-core speed; `active_w`
/// and `idle_w` are the power draws (in watts) while at least one core is
/// busy or the node is fully idle, respectively.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::energy::OperatingPoint;
///
/// let op = OperatingPoint::new("half-speed", 0.5, 2.0, 0.4);
/// assert!(op.active_w() > op.idle_w());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    name: String,
    freq_scale: f64,
    active_w: f64,
    idle_w: f64,
}

impl OperatingPoint {
    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if `freq_scale` is not strictly positive or any power is
    /// negative (C-VALIDATE).
    pub fn new(name: impl Into<String>, freq_scale: f64, active_w: f64, idle_w: f64) -> Self {
        assert!(freq_scale > 0.0, "freq_scale must be positive");
        assert!(active_w >= 0.0 && idle_w >= 0.0, "power must be non-negative");
        OperatingPoint { name: name.into(), freq_scale, active_w, idle_w }
    }

    /// The human-readable name of the point (e.g. `"nominal"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frequency multiplier relative to the node's nominal speed.
    pub fn freq_scale(&self) -> f64 {
        self.freq_scale
    }

    /// Power draw while busy, in watts.
    pub fn active_w(&self) -> f64 {
        self.active_w
    }

    /// Power draw while idle, in watts.
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }
}

/// An indexed set of operating points; index 0 is the default.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::energy::{OperatingPoint, OperatingPointSet};
///
/// let set = OperatingPointSet::new(vec![
///     OperatingPoint::new("nominal", 1.0, 4.0, 0.8),
///     OperatingPoint::new("eco", 0.6, 1.8, 0.5),
/// ]);
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.point(1).name(), "eco");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPointSet {
    points: Vec<OperatingPoint>,
}

impl OperatingPointSet {
    /// Creates a set from a non-empty list of points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(points: Vec<OperatingPoint>) -> Self {
        assert!(!points.is_empty(), "an operating-point set needs at least one point");
        OperatingPointSet { points }
    }

    /// A single nominal point with the given powers.
    pub fn single(active_w: f64, idle_w: f64) -> Self {
        OperatingPointSet::new(vec![OperatingPoint::new("nominal", 1.0, active_w, idle_w)])
    }

    /// Number of points in the set.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn point(&self, idx: usize) -> &OperatingPoint {
        &self.points[idx]
    }

    /// The point at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&OperatingPoint> {
        self.points.get(idx)
    }

    /// Iterates over the points in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, OperatingPoint> {
        self.points.iter()
    }
}

/// Integrates a node's energy over time as it alternates between busy and
/// idle under a (possibly changing) operating point.
///
/// The meter is advanced lazily: callers report the busy-core count and
/// active point whenever either changes, and the meter charges the elapsed
/// interval at the previous state.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    last_update: SimTime,
    busy_cores: u32,
    total_cores: u32,
    active_w: f64,
    idle_w: f64,
    joules: f64,
    busy_time: SimDuration,
}

impl EnergyMeter {
    /// Creates a meter for a node with `total_cores` cores starting idle at
    /// time zero under the given point.
    pub fn new(total_cores: u32, point: &OperatingPoint) -> Self {
        EnergyMeter {
            last_update: SimTime::ZERO,
            busy_cores: 0,
            total_cores: total_cores.max(1),
            active_w: point.active_w(),
            idle_w: point.idle_w(),
            joules: 0.0,
            busy_time: SimDuration::ZERO,
        }
    }

    /// Charges the interval since the last update, then records the new
    /// busy-core count.
    pub fn set_busy_cores(&mut self, now: SimTime, busy: u32) {
        self.advance(now);
        self.busy_cores = busy.min(self.total_cores);
    }

    /// Charges the interval since the last update, then switches the
    /// operating point (power draws).
    pub fn set_point(&mut self, now: SimTime, point: &OperatingPoint) {
        self.advance(now);
        self.active_w = point.active_w();
        self.idle_w = point.idle_w();
    }

    /// Charges energy up to `now` at the current state.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update);
        if dt.is_zero() {
            self.last_update = now;
            return;
        }
        self.joules = self.joules_at(now);
        if self.busy_cores > 0 {
            self.busy_time += dt;
        }
        self.last_update = now;
    }

    /// Energy consumed up to `now` at the current state, without
    /// charging the meter: bit-equal to [`EnergyMeter::joules`] after
    /// [`EnergyMeter::advance`]`(now)`, so a read-only observer can
    /// sample it without splitting the integration intervals.
    pub(crate) fn joules_at(&self, now: SimTime) -> f64 {
        let secs = now.saturating_since(self.last_update).as_secs_f64();
        if self.busy_cores == 0 {
            self.joules + self.idle_w * secs
        } else {
            // Power scales linearly between idle and full-active with the
            // fraction of busy cores — a standard first-order CPU model.
            let frac = self.busy_cores as f64 / self.total_cores as f64;
            self.joules + (self.idle_w + (self.active_w - self.idle_w) * frac) * secs
        }
    }

    /// Total energy consumed so far, in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total wall time with at least one busy core.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> OperatingPoint {
        OperatingPoint::new("nominal", 1.0, 10.0, 2.0)
    }

    #[test]
    fn joules_at_reads_what_advance_would_charge() {
        let mut m = EnergyMeter::new(4, &point());
        m.set_busy_cores(SimTime::from_millis(3), 3);
        for (ms, busy) in [(17u64, 1u32), (29, 0), (31, 4)] {
            let now = SimTime::from_millis(ms);
            let read = m.joules_at(now);
            let busy_before = m.busy_time();
            m.set_busy_cores(now, busy);
            assert_eq!(read.to_bits(), m.joules().to_bits(), "at {ms} ms");
            assert!(m.busy_time() >= busy_before);
        }
        assert_eq!(m.joules_at(SimTime::from_millis(31)).to_bits(), m.joules().to_bits());
    }

    #[test]
    fn idle_energy_accumulates_at_idle_power() {
        let mut m = EnergyMeter::new(4, &point());
        m.advance(SimTime::from_secs(2));
        assert!((m.joules() - 4.0).abs() < 1e-9, "2s * 2W = 4J, got {}", m.joules());
        assert_eq!(m.busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn full_busy_energy_uses_active_power() {
        let mut m = EnergyMeter::new(4, &point());
        m.set_busy_cores(SimTime::ZERO, 4);
        m.advance(SimTime::from_secs(1));
        assert!((m.joules() - 10.0).abs() < 1e-9);
        assert_eq!(m.busy_time(), SimDuration::from_secs(1));
    }

    #[test]
    fn partial_busy_interpolates() {
        let mut m = EnergyMeter::new(4, &point());
        m.set_busy_cores(SimTime::ZERO, 2);
        m.advance(SimTime::from_secs(1));
        // idle 2W + (10-2)*0.5 = 6W
        assert!((m.joules() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn point_switch_changes_power() {
        let mut m = EnergyMeter::new(1, &point());
        m.set_busy_cores(SimTime::ZERO, 1);
        m.set_point(SimTime::from_secs(1), &OperatingPoint::new("eco", 0.5, 4.0, 1.0));
        m.advance(SimTime::from_secs(2));
        // 1s at 10W + 1s at 4W
        assert!((m.joules() - 14.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "freq_scale")]
    fn zero_freq_scale_rejected() {
        let _ = OperatingPoint::new("bad", 0.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_point_set_rejected() {
        let _ = OperatingPointSet::new(vec![]);
    }
}
