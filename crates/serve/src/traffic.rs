//! Synthetic open-loop traffic generation: Poisson arrivals over virtual
//! time with mixed geometry classes, band counts, tenants, and deadline
//! classes, under steady / burst / diurnal load profiles.
//!
//! Everything is a pure function of the seed (counter-mode splitmix64, the
//! workspace's standard mixer), so a pinned seed reproduces the identical
//! request trace — the property the CI serving experiment and the batching
//! proptests rely on. Time-varying profiles use Lewis–Shedler thinning: the
//! stream is drawn at the profile's peak rate and arrivals are accepted
//! with probability `rate(t) / rate_peak`, which keeps one arrival stream
//! comparable across profiles.

use crate::request::{DeadlineClass, GeometryClass, Request};
use fftx_fault::{mix64, unit_f64};

/// Shape of the offered load over the trace duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadProfile {
    /// Constant arrival rate.
    Steady,
    /// Constant base rate with a 4× spike over the window
    /// `[0.25, 0.35) × duration` — the flash-crowd case backpressure and
    /// shedding exist for.
    Burst,
    /// Sinusoidal day/night modulation: `rate × (1 + 0.9 sin(2πt/T))`.
    Diurnal,
}

impl LoadProfile {
    /// Every profile.
    pub const ALL: [LoadProfile; 3] =
        [LoadProfile::Steady, LoadProfile::Burst, LoadProfile::Diurnal];

    /// Short name used in reports and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            LoadProfile::Steady => "steady",
            LoadProfile::Burst => "burst",
            LoadProfile::Diurnal => "diurnal",
        }
    }

    /// Parses a profile name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Instantaneous rate multiplier at `t` of `duration`.
    fn modulation(self, t: f64, duration: f64) -> f64 {
        match self {
            LoadProfile::Steady => 1.0,
            LoadProfile::Burst => {
                if (0.25..0.35).contains(&(t / duration)) {
                    4.0
                } else {
                    1.0
                }
            }
            LoadProfile::Diurnal => {
                1.0 + 0.9 * (2.0 * std::f64::consts::PI * t / duration).sin()
            }
        }
    }

    /// Peak of [`LoadProfile::modulation`] over the duration.
    fn peak(self) -> f64 {
        match self {
            LoadProfile::Steady => 1.0,
            LoadProfile::Burst => 4.0,
            LoadProfile::Diurnal => 1.9,
        }
    }
}

/// Parameters of one synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Seed of the whole trace.
    pub seed: u64,
    /// Mean arrival rate (requests per virtual second) at modulation 1.
    pub rate_hz: f64,
    /// Trace duration (virtual seconds).
    pub duration_s: f64,
    /// Number of tenants (ids `0..tenants`).
    pub tenants: u32,
    /// Load shape over the duration.
    pub profile: LoadProfile,
}

impl TrafficConfig {
    /// Checks the trace parameters: a finite, positive rate (also at the
    /// profile's peak) and duration, and at least one tenant.
    pub fn check(&self) -> Result<(), String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.rate_hz)
            || !positive(self.rate_hz * self.profile.peak())
            || !positive(self.duration_s)
        {
            return Err("traffic: rate/duration must be finite and positive".into());
        }
        if self.tenants == 0 {
            return Err("traffic: need at least one tenant".into());
        }
        Ok(())
    }
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0,
            rate_hz: 40.0,
            duration_s: 1.0,
            tenants: 3,
            profile: LoadProfile::Steady,
        }
    }
}

/// Deterministic counter-mode splitmix64 stream.
struct Stream {
    seed: u64,
    ctr: u64,
}

impl Stream {
    fn new(seed: u64, domain: u64) -> Self {
        Stream {
            seed: mix64(seed ^ mix64(domain)),
            ctr: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.ctr += 1;
        mix64(self.seed ^ mix64(self.ctr))
    }

    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Exponential inter-arrival at `rate` (rejects u = 0 exactly).
    fn next_exp(&mut self, rate: f64) -> f64 {
        let u = self.next_f64().max(1e-18);
        -u.ln() / rate
    }

    /// Weighted choice over `weights`, returning the index.
    fn choose(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

/// Generates the request trace of `cfg`: arrivals ascending in time, ids
/// dense from 0. Pure in the seed.
///
/// # Panics
/// When `cfg` fails [`TrafficConfig::check`].
pub fn generate(cfg: &TrafficConfig) -> Vec<Request> {
    if let Err(e) = cfg.check() {
        panic!("{e}");
    }
    let mut arrivals = Stream::new(cfg.seed, 1);
    let mut marks = Stream::new(cfg.seed, 2);
    let peak_rate = cfg.rate_hz * cfg.profile.peak();

    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += arrivals.next_exp(peak_rate);
        if t >= cfg.duration_s {
            break;
        }
        // Thinning: accept at the instantaneous fraction of the peak rate.
        let accept = cfg.profile.modulation(t, cfg.duration_s) / cfg.profile.peak();
        if arrivals.next_f64() >= accept {
            continue;
        }
        let tenant = (marks.next_u64() % u64::from(cfg.tenants)) as u32;
        let class = GeometryClass::ALL[marks.choose(&[0.5, 0.35, 0.15])];
        let bands = 1 + (marks.next_u64() % 4) as usize;
        let deadline = DeadlineClass::ALL[marks.choose(&[0.3, 0.5, 0.2])];
        out.push(Request {
            id: out.len() as u64,
            tenant,
            class,
            bands,
            deadline,
            arrival_s: t,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(profile: LoadProfile) -> TrafficConfig {
        TrafficConfig {
            seed: 2017,
            rate_hz: 200.0,
            duration_s: 2.0,
            tenants: 4,
            profile,
        }
    }

    #[test]
    fn traces_are_deterministic_and_ordered() {
        for profile in LoadProfile::ALL {
            let a = generate(&cfg(profile));
            let b = generate(&cfg(profile));
            assert_eq!(a, b, "{}", profile.name());
            assert!(!a.is_empty());
            assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
            assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64));
            assert!(a.iter().all(|r| r.bands >= 1 && r.bands <= 4 && r.tenant < 4));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&cfg(LoadProfile::Steady));
        let b = generate(&TrafficConfig { seed: 2018, ..cfg(LoadProfile::Steady) });
        assert_ne!(a, b);
    }

    #[test]
    fn steady_volume_tracks_the_rate() {
        let c = cfg(LoadProfile::Steady);
        let n = generate(&c).len() as f64;
        let expect = c.rate_hz * c.duration_s;
        assert!((n - expect).abs() < 0.25 * expect, "{n} vs {expect}");
    }

    #[test]
    fn burst_concentrates_arrivals_in_the_window() {
        let c = TrafficConfig { rate_hz: 400.0, ..cfg(LoadProfile::Burst) };
        let trace = generate(&c);
        let window = trace
            .iter()
            .filter(|r| (0.25..0.35).contains(&(r.arrival_s / c.duration_s)))
            .count() as f64;
        let frac = window / trace.len() as f64;
        // 10% of the time at 4x rate carries ~31% of the arrivals.
        assert!(frac > 0.2, "burst window fraction {frac}");
    }

    #[test]
    fn diurnal_front_loads_the_half_period() {
        let trace = generate(&cfg(LoadProfile::Diurnal));
        let first_half = trace.iter().filter(|r| r.arrival_s < 1.0).count() as f64;
        let frac = first_half / trace.len() as f64;
        // sin > 0 over the first half period -> well above half the volume.
        assert!(frac > 0.6, "first-half fraction {frac}");
    }

    #[test]
    fn class_mix_follows_the_weights() {
        let c = TrafficConfig { rate_hz: 1000.0, duration_s: 4.0, ..cfg(LoadProfile::Steady) };
        let trace = generate(&c);
        let small = trace.iter().filter(|r| r.class == GeometryClass::Small).count() as f64;
        let frac = small / trace.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "small fraction {frac}");
    }
}
