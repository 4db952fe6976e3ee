//! Request arrival processes.
//!
//! An [`ArrivalSpec`] describes *when* application requests are released:
//! strictly periodic (sensor sampling), Poisson (open user traffic),
//! on/off bursts (event-driven scenarios like the paper's smart-mobility
//! incidents), or an explicit trace. [`ArrivalSpec::generate`] expands a
//! spec into concrete release instants, deterministically per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use myrtus_continuum::time::{SimDuration, SimTime};

/// A request arrival process.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// One request every `period`, `count` times, starting at `period`.
    Periodic {
        /// Inter-arrival period.
        period: SimDuration,
        /// Number of requests.
        count: usize,
    },
    /// Poisson process with `rate_hz` expected requests per second until
    /// `horizon`.
    Poisson {
        /// Mean rate in requests per second.
        rate_hz: f64,
        /// Generation horizon.
        horizon: SimTime,
    },
    /// On/off bursts: `burst_len` back-to-back requests spaced `spacing`,
    /// one burst every `burst_period`, until `horizon`.
    Burst {
        /// Requests per burst.
        burst_len: usize,
        /// Intra-burst spacing.
        spacing: SimDuration,
        /// Burst start-to-start period.
        burst_period: SimDuration,
        /// Generation horizon.
        horizon: SimTime,
    },
    /// Explicit release instants.
    Trace(Vec<SimTime>),
}

impl ArrivalSpec {
    /// Convenience constructor for [`ArrivalSpec::Periodic`].
    pub fn periodic(period: SimDuration, count: usize) -> Self {
        ArrivalSpec::Periodic { period, count }
    }

    /// Convenience constructor for [`ArrivalSpec::Poisson`].
    pub fn poisson(rate_hz: f64, horizon: SimTime) -> Self {
        ArrivalSpec::Poisson { rate_hz, horizon }
    }

    /// Expands the spec into sorted release instants. Stochastic variants
    /// draw from a [`StdRng`] seeded with `seed`, so equal seeds yield
    /// equal traces.
    pub fn generate(&self, seed: u64) -> Vec<SimTime> {
        match self {
            ArrivalSpec::Periodic { period, count } => {
                (1..=*count).map(|i| SimTime::from_micros(period.as_micros() * i as u64)).collect()
            }
            ArrivalSpec::Poisson { rate_hz, horizon } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::new();
                if *rate_hz <= 0.0 {
                    return out;
                }
                let mut t = 0.0f64; // seconds
                let end = horizon.as_secs_f64();
                loop {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() / rate_hz;
                    if t >= end {
                        break;
                    }
                    out.push(SimTime::from_micros((t * 1e6) as u64));
                }
                out
            }
            ArrivalSpec::Burst { burst_len, spacing, burst_period, horizon } => {
                let mut out = Vec::new();
                let mut start = SimTime::ZERO;
                while start < *horizon {
                    for i in 0..*burst_len {
                        let t = start + SimDuration::from_micros(spacing.as_micros() * i as u64);
                        if t < *horizon {
                            out.push(t);
                        }
                    }
                    start += *burst_period;
                    if burst_period.is_zero() {
                        break;
                    }
                }
                out
            }
            ArrivalSpec::Trace(ts) => {
                let mut out = ts.clone();
                out.sort_unstable();
                out
            }
        }
    }

    /// Expected number of requests (exact for deterministic variants).
    pub fn expected_count(&self) -> usize {
        match self {
            ArrivalSpec::Periodic { count, .. } => *count,
            ArrivalSpec::Poisson { rate_hz, horizon } => {
                (rate_hz * horizon.as_secs_f64()).round() as usize
            }
            ArrivalSpec::Burst { burst_len, burst_period, horizon, .. } => {
                if burst_period.is_zero() {
                    *burst_len
                } else {
                    let bursts =
                        (horizon.as_micros() as f64 / burst_period.as_micros() as f64).ceil();
                    bursts as usize * burst_len
                }
            }
            ArrivalSpec::Trace(ts) => ts.len(),
        }
    }

    /// Serializes the spec for a TOSCA-lite profile line (after the
    /// `arrival` keyword).
    pub fn to_profile_line(&self) -> String {
        match self {
            ArrivalSpec::Periodic { period, count } => {
                format!("periodic period_us={} count={}", period.as_micros(), count)
            }
            ArrivalSpec::Poisson { rate_hz, horizon } => {
                format!("poisson rate_hz={} horizon_us={}", rate_hz, horizon.as_micros())
            }
            ArrivalSpec::Burst { burst_len, spacing, burst_period, horizon } => format!(
                "burst len={} spacing_us={} period_us={} horizon_us={}",
                burst_len,
                spacing.as_micros(),
                burst_period.as_micros(),
                horizon.as_micros()
            ),
            ArrivalSpec::Trace(ts) => {
                let list: Vec<String> = ts.iter().map(|t| t.as_micros().to_string()).collect();
                format!("trace at_us={}", list.join(","))
            }
        }
    }

    /// Parses the tokens following the `arrival` keyword of a profile.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input.
    pub fn parse_profile_tokens(tokens: &[&str]) -> Result<ArrivalSpec, String> {
        let kind = tokens.first().ok_or("arrival needs a kind")?;
        let kv = |key: &str| -> Option<&str> {
            tokens[1..]
                .iter()
                .find_map(|t| t.split_once('=').filter(|(k, _)| *k == key).map(|(_, v)| v))
        };
        let num = |key: &str| -> Result<u64, String> {
            kv(key)
                .ok_or_else(|| format!("missing {key}"))?
                .parse()
                .map_err(|_| format!("bad {key}"))
        };
        match *kind {
            "periodic" => Ok(ArrivalSpec::Periodic {
                period: SimDuration::from_micros(num("period_us")?),
                count: num("count")? as usize,
            }),
            "poisson" => Ok(ArrivalSpec::Poisson {
                rate_hz: kv("rate_hz")
                    .ok_or("missing rate_hz")?
                    .parse()
                    .map_err(|_| "bad rate_hz".to_string())?,
                horizon: SimTime::from_micros(num("horizon_us")?),
            }),
            "burst" => Ok(ArrivalSpec::Burst {
                burst_len: num("len")? as usize,
                spacing: SimDuration::from_micros(num("spacing_us")?),
                burst_period: SimDuration::from_micros(num("period_us")?),
                horizon: SimTime::from_micros(num("horizon_us")?),
            }),
            "trace" => {
                let list = kv("at_us").ok_or("missing at_us")?;
                let ts: Result<Vec<SimTime>, String> = list
                    .split(',')
                    .map(|s| {
                        s.parse::<u64>()
                            .map(SimTime::from_micros)
                            .map_err(|_| format!("bad instant {s:?}"))
                    })
                    .collect();
                Ok(ArrivalSpec::Trace(ts?))
            }
            other => Err(format!("unknown arrival kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_is_evenly_spaced() {
        let ts = ArrivalSpec::periodic(SimDuration::from_millis(10), 5).generate(0);
        assert_eq!(ts.len(), 5);
        assert_eq!(ts[0], SimTime::from_millis(10));
        assert_eq!(ts[4], SimTime::from_millis(50));
    }

    #[test]
    fn poisson_is_seed_deterministic_and_rate_accurate() {
        let spec = ArrivalSpec::poisson(100.0, SimTime::from_secs(10));
        let a = spec.generate(42);
        let b = spec.generate(42);
        let c = spec.generate(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // ~1000 expected; allow ±15 %.
        assert!((850..=1150).contains(&a.len()), "got {}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn burst_shape() {
        let spec = ArrivalSpec::Burst {
            burst_len: 3,
            spacing: SimDuration::from_micros(100),
            burst_period: SimDuration::from_millis(10),
            horizon: SimTime::from_millis(25),
        };
        let ts = spec.generate(0);
        // Bursts at 0, 10ms, 20ms → 9 requests.
        assert_eq!(ts.len(), 9);
        assert_eq!(ts[1] - ts[0], SimDuration::from_micros(100));
        assert_eq!(ts[3], SimTime::from_millis(10));
    }

    #[test]
    fn trace_is_sorted() {
        let spec = ArrivalSpec::Trace(vec![
            SimTime::from_millis(5),
            SimTime::from_millis(1),
            SimTime::from_millis(3),
        ]);
        let ts = spec.generate(0);
        assert_eq!(ts[0], SimTime::from_millis(1));
        assert_eq!(ts[2], SimTime::from_millis(5));
    }

    #[test]
    fn zero_rate_poisson_is_empty() {
        assert!(ArrivalSpec::poisson(0.0, SimTime::from_secs(1)).generate(1).is_empty());
    }

    #[test]
    fn profile_line_round_trips() {
        let specs = [
            ArrivalSpec::periodic(SimDuration::from_millis(33), 100),
            ArrivalSpec::poisson(12.5, SimTime::from_secs(60)),
            ArrivalSpec::Burst {
                burst_len: 4,
                spacing: SimDuration::from_micros(500),
                burst_period: SimDuration::from_secs(1),
                horizon: SimTime::from_secs(30),
            },
            ArrivalSpec::Trace(vec![SimTime::from_micros(10), SimTime::from_micros(20)]),
        ];
        for spec in specs {
            let line = spec.to_profile_line();
            let toks: Vec<&str> = line.split_whitespace().collect();
            let parsed = ArrivalSpec::parse_profile_tokens(&toks).expect("round trip");
            assert_eq!(parsed, spec, "line {line:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(ArrivalSpec::parse_profile_tokens(&[]).is_err());
        assert!(ArrivalSpec::parse_profile_tokens(&["warp"]).is_err());
        assert!(ArrivalSpec::parse_profile_tokens(&["periodic", "count=3"]).is_err());
        assert!(ArrivalSpec::parse_profile_tokens(&["periodic", "period_us=x", "count=3"]).is_err());
    }

    #[test]
    fn expected_count_matches_deterministic_variants() {
        assert_eq!(ArrivalSpec::periodic(SimDuration::from_millis(1), 7).expected_count(), 7);
        assert_eq!(
            ArrivalSpec::Trace(vec![SimTime::ZERO, SimTime::from_micros(1)]).expected_count(),
            2
        );
    }
}
