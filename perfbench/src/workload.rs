//! The three workloads and the inputs each derives from the seed.
//!
//! * `paper120` — the paper's geometry on the serial policy: FFT- and
//!   bandwidth-bound, fixed cost per call negligible.
//! * `small-batch` — the serve `small` class on the async task policy:
//!   14-point transforms that fit in L1, so fixed cost per call, task
//!   dispatch and small-message latency dominate.
//! * `serve-steady` — the served path (admission, batching, tuner, backend
//!   cache) over a steady Poisson trace that includes Bluestein `prime`
//!   batches.

use fftx_core::{Decomposition, FftxConfig, Mode, SchedulerPolicy};
use fftx_fault::mix64;
use fftx_serve::{
    generate, DeadlineClass, GeometryClass, LoadProfile, Placement, Request, ServeConfig,
    TrafficConfig,
};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper120,
    SmallBatch,
    ServeSteady,
}

/// Bands per `run_policy` call on the engine workloads: the serve batch
/// pad quantum.
pub const BANDS_PER_CALL: usize = 4;

/// One request in this many of the serve trace is rewritten to the
/// `prime` class, so Bluestein z-transforms run on the served path.
const PRIME_ONE_IN: u64 = 10;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Paper120,
        Workload::SmallBatch,
        Workload::ServeSteady,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper120 => "paper120",
            Workload::SmallBatch => "small-batch",
            Workload::ServeSteady => "serve-steady",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The engine configuration and policy of an engine workload (`None`
    /// for `serve-steady`, whose configurations come from the tuner).
    pub fn engine(self, seed: u64) -> Option<(FftxConfig, SchedulerPolicy)> {
        match self {
            // 80 Ry, alat 20 bohr: the 120^3 grid. Original code at 2x1, so
            // 2 vmpi ranks with one task group.
            Workload::Paper120 => Some((
                FftxConfig {
                    ecutwfc: 80.0,
                    alat: 20.0,
                    nbnd: BANDS_PER_CALL,
                    nr: 2,
                    ntg: 1,
                    mode: Mode::Original,
                    decomp: Decomposition::Slab,
                    seed,
                },
                SchedulerPolicy::Serial,
            )),
            // The serve tuner's policy for every class, at 2 ranks x 1 worker.
            Workload::SmallBatch => {
                let p = Placement {
                    nr: 2,
                    ntg: 1,
                    policy: SchedulerPolicy::TaskAsync,
                    decomp: Decomposition::Slab,
                };
                Some((
                    p.config(GeometryClass::Small, BANDS_PER_CALL, seed),
                    p.policy,
                ))
            }
            Workload::ServeSteady => None,
        }
    }
}

/// Serving configuration: real execution, auto placement and decomposition.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        execute_real: true,
        seed,
        ..ServeConfig::default()
    }
}

/// The `serve-steady` trace: ~30 req/s over 20 virtual seconds from 4
/// tenants with the generator's small/medium/large mix, and about one
/// request in ten rewritten to the `prime` class.
pub fn serve_trace(seed: u64) -> Vec<Request> {
    steady_trace(seed, 20.0)
}

/// A shorter trace of the same shape, for the serve-layer probes of the
/// engine workloads' traced runs.
pub fn probe_trace(seed: u64) -> Vec<Request> {
    steady_trace(seed, 2.0)
}

fn steady_trace(seed: u64, duration_s: f64) -> Vec<Request> {
    let mut trace = generate(&TrafficConfig {
        seed,
        rate_hz: 30.0,
        duration_s,
        tenants: 4,
        profile: LoadProfile::Steady,
    });
    for r in &mut trace {
        if mix64(seed ^ mix64(r.id.wrapping_add(0x5eed))).is_multiple_of(PRIME_ONE_IN) {
            r.class = GeometryClass::Prime;
        }
    }
    trace
}

/// One 4-band request per geometry class, a virtual second apart, so each
/// lands on an idle server as the first batch of its class: the cold path
/// (tuner pricing, problem build) of every class, independent of the seed.
pub fn cold_trace() -> Vec<Request> {
    GeometryClass::ALL
        .iter()
        .enumerate()
        .map(|(i, &class)| Request {
            id: i as u64,
            tenant: i as u32,
            class,
            bands: BANDS_PER_CALL,
            deadline: DeadlineClass::Batch,
            arrival_s: i as f64,
        })
        .collect()
}

/// A seeded choice of `k` distinct indices below `n`, in ascending order.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::new();
    let mut ctr = 0u64;
    while picked.len() < k.min(n) {
        ctr += 1;
        let i = (mix64(seed ^ mix64(ctr)) % n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_trace_is_deterministic_in_the_seed() {
        assert_eq!(serve_trace(7), serve_trace(7));
        assert_ne!(serve_trace(7), serve_trace(8));
        let t = serve_trace(7);
        assert!(t.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        let prime = t.iter().filter(|r| r.class == GeometryClass::Prime).count();
        assert!(
            prime > 0 && prime < t.len() / 4,
            "{prime} prime of {}",
            t.len()
        );
    }

    #[test]
    fn engine_configs_are_deterministic_in_the_seed() {
        for w in [Workload::Paper120, Workload::SmallBatch] {
            let (a, pa) = w.engine(3).expect("engine workload");
            let (b, pb) = w.engine(3).expect("engine workload");
            assert_eq!((a, pa), (b, pb));
            let (c, _) = w.engine(4).expect("engine workload");
            assert_ne!(a.seed, c.seed);
            assert_eq!(a.nbnd, BANDS_PER_CALL);
        }
        assert!(Workload::ServeSteady.engine(3).is_none());
    }

    #[test]
    fn samples_are_seeded_and_distinct() {
        let a = sample_indices(5, 40, 4);
        assert_eq!(a, sample_indices(5, 40, 4));
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a.iter().all(|&i| i < 40));
        assert_eq!(sample_indices(5, 3, 10), vec![0, 1, 2]);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
