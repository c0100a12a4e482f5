//! Untraced runs: the end-to-end metrics a user of the system sees.

use crate::report::{peak_rss_mib, Outcome};
use crate::stats::{median, tail_percentile, windowed_rate};
use crate::workload::{cold_trace, sample_indices, serve_config, serve_trace, Workload};
use fftx_core::{run_policy, Problem};
use fftx_fft::{max_dist, Complex64};
use fftx_pw::apply_vloc;
use fftx_serve::{band_hash, class_problem, run_serve, ServeReport, Server};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Maximum deviation from the serial reference, as `fftx --verify` applies it.
pub const REFERENCE_TOL: f64 = 1e-9;

/// Busy seconds per throughput window of the engine workloads.
const RATE_WINDOW_S: f64 = 1.0;

/// Fewest measured calls per run, however short `--seconds` is.
const MIN_CALLS: usize = 3;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Bitwise equality of two band sets (`==` on floats would equate 0 and -0).
pub fn bitwise_eq(a: &[Vec<Complex64>], b: &[Vec<Complex64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| {
                    p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits()
                })
        })
}

/// Largest deviation of `bands` from the serial `pw` reference pipeline.
pub fn reference_deviation(problem: &Problem, bands: &[Vec<Complex64>]) -> f64 {
    let input: Vec<Vec<Complex64>> = (0..problem.config.nbnd).map(|b| problem.band(b)).collect();
    let expect = apply_vloc(&problem.layout.set, &problem.grid(), &problem.v, &input);
    if expect.len() != bands.len() {
        return f64::INFINITY;
    }
    bands
        .iter()
        .zip(&expect)
        .map(|(a, b)| max_dist(a, b))
        .fold(0.0, f64::max)
}

/// True when the next of `total` samples spread evenly over a run of
/// `seconds` is due at `elapsed`. Spreading the cold samples over the run
/// keeps a burst of host noise at start-up out of their median.
fn due(done: usize, total: usize, elapsed: f64, seconds: f64) -> bool {
    done < total && elapsed >= seconds * done as f64 / total as f64
}

/// `paper120` and `small-batch`: a closed loop of `run_policy` calls on one
/// problem, with fresh problems and their first (cold) calls interleaved
/// evenly over the run.
pub fn engine(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let (cfg, policy) = w.engine(seed).expect("engine workload");
    // Enough cold samples for a steady median without dominating the run.
    let cold_total = match w {
        Workload::Paper120 => 12,
        _ => 200,
    };
    let mut o = Outcome::default();
    let mut setup_s = Vec::with_capacity(cold_total);
    let mut first_ms = Vec::with_capacity(cold_total);
    let cold = |setup_s: &mut Vec<f64>, first_ms: &mut Vec<f64>| {
        let t = Instant::now();
        let p = Problem::new(cfg);
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let out = run_policy(&p, policy);
        first_ms.push(ms_since(t));
        (p, out.bands)
    };
    let (problem, reference) = cold(&mut setup_s, &mut first_ms);
    let (g, set) = (problem.grid(), &problem.layout.set);
    o.info(
        "geometry.plane_waves",
        "count",
        set.ngw as f64,
        &format!(
            "{} sticks, {}x{}x{} grid",
            set.sticks.len(),
            g.nr1,
            g.nr2,
            g.nr3
        ),
    );
    let dev = reference_deviation(&problem, &reference);
    o.check(dev <= REFERENCE_TOL, || {
        format!("max deviation {dev:.3e} from the serial reference")
    });

    let _warm = run_policy(&problem, policy);
    let mut lat_ms = Vec::new();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && lat_ms.len() >= MIN_CALLS {
            break;
        }
        if due(first_ms.len(), cold_total, elapsed, seconds) {
            let (_, bands) = cold(&mut setup_s, &mut first_ms);
            o.check(bitwise_eq(&bands, &reference), || {
                "cold call differs bitwise from the first".into()
            });
            continue;
        }
        let t = Instant::now();
        let out = run_policy(&problem, policy);
        lat_ms.push(ms_since(t));
        o.check(bitwise_eq(&out.bands, &reference), || {
            "call differs bitwise from the first".into()
        });
    }
    let calls = lat_ms.len() as f64;
    let lat_s: Vec<f64> = lat_ms.iter().map(|ms| ms / 1e3).collect();

    let bands = cfg.nbnd as f64;
    let cold_n = first_ms.len();
    o.put_note(
        "bands_per_s",
        "bands/s",
        windowed_rate(&lat_s, bands, RATE_WINDOW_S),
        &format!(
            "{calls} back-to-back calls of {bands} bands, median over {RATE_WINDOW_S} s windows"
        ),
    );
    o.put_note(
        "batch_ms_p50",
        "ms",
        median(&lat_ms),
        &format!("{calls} samples"),
    );
    match tail_percentile(&lat_ms, 0.9) {
        Some(p90) => o.info("batch_ms_p90", "ms", p90, &format!("{calls} samples")),
        None => o.info(
            "batch_ms_p90",
            "ms",
            f64::NAN,
            "withheld: fewer than 10 samples beyond p90",
        ),
    }
    o.put_note(
        "jobs_per_s",
        "jobs/s",
        windowed_rate(&lat_s, 1.0, RATE_WINDOW_S),
        "one job = one run_policy call",
    );
    o.put_note(
        "setup_s",
        "s",
        median(&setup_s),
        &format!("Problem::new, median of {cold_n}"),
    );
    o.put_note(
        "first_batch_ms",
        "ms",
        median(&first_ms),
        &format!("first call per fresh problem, median of {cold_n}"),
    );
    finish(&mut o);
    o
}

/// `serve-steady`: `run_serve` over the seeded trace on a fresh server per
/// repetition, every served hash compared across repetitions and a seeded
/// sample re-derived by direct `run_policy` runs. Set-up and cold-batch
/// samples are interleaved evenly over the run.
pub fn serve(seed: u64, seconds: f64) -> Outcome {
    const SETUP_TOTAL: usize = 50;
    const COLD_TOTAL: usize = 16;
    let cfg = serve_config(seed);
    let trace = serve_trace(seed);
    let cold = cold_trace();
    let mut o = Outcome::default();
    let (mut setup_s, mut first_ms) = (Vec::new(), Vec::new());
    let (mut per_batch_ms, mut jobs_rate, mut bands_rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_hashes: Option<BTreeMap<u64, Option<u64>>> = None;
    let mut rep = 0u64;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && per_batch_ms.len() >= MIN_CALLS {
            break;
        }
        if due(setup_s.len(), SETUP_TOTAL, elapsed, seconds) {
            // Set-up is tens of microseconds: take a handful at each stop.
            for _ in 0..SETUP_TOTAL / 10 {
                let t = Instant::now();
                let tr = serve_trace(seed);
                let server = Server::new(cfg);
                setup_s.push(t.elapsed().as_secs_f64());
                black_box((&tr, &server));
            }
            continue;
        }
        if due(first_ms.len(), COLD_TOTAL, elapsed, seconds) {
            let t = Instant::now();
            match run_serve(&cold, &cfg) {
                Ok(r) => {
                    first_ms.push(ms_since(t) / r.batches.len().max(1) as f64);
                    o.check(r.jobs.len() == cold.len(), || {
                        "cold trace lost a request".into()
                    });
                }
                Err(e) => {
                    first_ms.push(f64::NAN);
                    o.check(false, || format!("cold trace: {e}"));
                }
            }
            continue;
        }
        rep += 1;
        let t = Instant::now();
        let report = run_serve(&trace, &cfg);
        let dt = t.elapsed().as_secs_f64();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                o.check(false, || format!("run_serve: {e}"));
                if rep > 3 {
                    break;
                }
                continue;
            }
        };
        let payload: usize = report.jobs.iter().map(|j| j.request.bands).sum();
        per_batch_ms.push(dt * 1e3 / report.batches.len().max(1) as f64);
        jobs_rate.push(report.jobs.len() as f64 / dt);
        bands_rate.push(payload as f64 / dt);
        check_served(&mut o, &report, seed, rep, &mut first_hashes);
    }
    let reps = per_batch_ms.len();
    first_ms.retain(|v| v.is_finite());
    if reps == 0 || first_ms.is_empty() {
        finish(&mut o);
        return o;
    }
    o.put_note(
        "bands_per_s",
        "bands/s",
        median(&bands_rate),
        &format!("payload bands, median of {reps} runs"),
    );
    o.put_note(
        "batch_ms_p50",
        "ms",
        median(&per_batch_ms),
        &format!("run_serve wall per dispatched batch, median of {reps} runs"),
    );
    o.info(
        "batch_ms_p90",
        "ms",
        f64::NAN,
        "withheld: per-batch wall time is not visible through run_serve",
    );
    o.put_note(
        "jobs_per_s",
        "jobs/s",
        median(&jobs_rate),
        &format!(
            "{} requests offered per run, median of {reps} runs",
            trace.len()
        ),
    );
    o.put_note(
        "setup_s",
        "s",
        median(&setup_s),
        &format!(
            "trace generation + Server::new, median of {}",
            setup_s.len()
        ),
    );
    o.put_note(
        "first_batch_ms",
        "ms",
        median(&first_ms),
        &format!(
            "one cold batch per class on a fresh server, median of {}",
            first_ms.len()
        ),
    );
    finish(&mut o);
    o
}

/// Output checks of one serving run: nothing shed, every job hashed and
/// identical to the first repetition, and two seeded batches re-derived by
/// direct engine runs of the same batch configuration.
fn check_served(
    o: &mut Outcome,
    report: &ServeReport,
    seed: u64,
    rep: u64,
    first: &mut Option<BTreeMap<u64, Option<u64>>>,
) {
    for s in &report.shed {
        o.check(false, || {
            format!("request {} shed: {:?}", s.request.id, s.reason)
        });
    }
    let hashes: BTreeMap<u64, Option<u64>> =
        report.jobs.iter().map(|j| (j.request.id, j.hash)).collect();
    let expect = first.get_or_insert_with(|| hashes.clone());
    for (id, h) in &hashes {
        o.check(h.is_some() && expect.get(id) == Some(h), || {
            format!("job {id}: hash {h:?} differs from the first run")
        });
    }
    let serve_seed = serve_config(seed).seed;
    for bi in sample_indices(
        seed ^ rep.wrapping_mul(0x9e37_79b9),
        report.batches.len(),
        2,
    ) {
        let batch = &report.batches[bi];
        let p = batch.placement;
        let problem = class_problem(batch.class, p.config(batch.class, batch.nbnd, serve_seed));
        let direct = run_policy(&problem, p.policy);
        let mut start = 0;
        for j in report.jobs.iter().filter(|j| j.batch == batch.index) {
            let end = start + j.request.bands;
            let ok =
                end <= direct.bands.len() && j.hash == Some(band_hash(&direct.bands[start..end]));
            o.check(ok, || {
                format!(
                    "job {} of batch {}: served hash differs from a direct run",
                    j.request.id, batch.index
                )
            });
            start = end;
        }
    }
}

/// Appends the lines every untraced run reports last.
fn finish(o: &mut Outcome) {
    match peak_rss_mib() {
        Some(mb) => o.put("peak_rss_mb", "MiB", mb),
        None => o.put_note(
            "peak_rss_mb",
            "MiB",
            f64::NAN,
            "/proc/self/status unreadable",
        ),
    }
    let frac = if o.attempted == 0 {
        1.0
    } else {
        o.failed as f64 / o.attempted as f64
    };
    o.info(
        "failed_frac",
        "ratio",
        frac,
        &format!("{} of {} checked operations", o.failed, o.attempted),
    );
}
