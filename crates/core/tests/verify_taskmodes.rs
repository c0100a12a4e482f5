//! End-to-end verification of the two OmpSs strategies: both must produce
//! exactly the same bands as the serial reference and the original kernel,
//! for several R × T shapes — scheduling may reorder execution, never
//! change results.

use fftx_core::{run_policy, FftxConfig, Mode, Problem, SchedulerPolicy};
use fftx_fft::max_dist;
use fftx_pw::apply_vloc;

fn check(mode: Mode, nr: usize, ntg: usize) {
    let cfg = FftxConfig::small(nr, ntg, mode);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::for_mode(mode));

    let bands_in: Vec<Vec<_>> = (0..cfg.nbnd).map(|b| problem.band(b)).collect();
    let expect = apply_vloc(&problem.layout.set, &problem.grid(), &problem.v, &bands_in);
    for (b, (got, want)) in out.bands.iter().zip(&expect).enumerate() {
        let err = max_dist(got, want);
        assert!(err < 1e-9, "{:?} {nr}x{ntg} band {b}: err {err}", mode);
    }
}

#[test]
fn task_per_fft_single_rank() {
    check(Mode::TaskPerFft, 1, 4);
}

#[test]
fn task_per_fft_multi_rank() {
    check(Mode::TaskPerFft, 4, 2);
}

#[test]
fn task_per_fft_many_workers() {
    check(Mode::TaskPerFft, 2, 4);
}

#[test]
fn task_per_step_single_rank() {
    check(Mode::TaskPerStep, 1, 4);
}

#[test]
fn task_per_step_multi_rank() {
    check(Mode::TaskPerStep, 4, 2);
}

#[test]
fn task_per_step_many_workers() {
    check(Mode::TaskPerStep, 2, 4);
}

#[test]
fn all_three_modes_agree_exactly() {
    // Same problem, three engines: results must agree to strict float
    // tolerance (identical arithmetic, different schedules).
    let base = FftxConfig::small(2, 2, Mode::Original);
    let p_orig = Problem::new(base);
    let orig = run_policy(&p_orig, SchedulerPolicy::Serial);

    for mode in [Mode::TaskPerFft, Mode::TaskPerStep] {
        let mut cfg = base;
        cfg.mode = mode;
        let p = Problem::new(cfg);
        let out = run_policy(&p, SchedulerPolicy::for_mode(mode));
        for (b, (x, y)) in orig.bands.iter().zip(&out.bands).enumerate() {
            let err = max_dist(x, y);
            assert!(err < 1e-12, "{mode:?} band {b} differs from original: {err}");
        }
    }
}

#[test]
fn concurrent_bands_in_flight() {
    // With several workers, the task-per-fft engine must actually overlap
    // bands: some alltoall with tag b > 0 must start before the last one
    // with tag 0 ends. We can't observe tags directly, but the trace must
    // show compute bursts from different worker threads.
    let cfg = FftxConfig::small(2, 3, Mode::TaskPerFft);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::TaskPerFft);
    let threads: std::collections::BTreeSet<usize> = out
        .trace
        .compute
        .iter()
        .filter(|r| r.lane.rank == 0)
        .map(|r| r.lane.thread)
        .collect();
    assert!(
        threads.len() > 1,
        "expected multiple worker threads in the trace, got {threads:?}"
    );
}

#[test]
fn task_async_single_rank() {
    check(Mode::TaskAsync, 1, 4);
}

#[test]
fn task_async_multi_rank() {
    check(Mode::TaskAsync, 4, 2);
}

#[test]
fn task_async_many_workers() {
    check(Mode::TaskAsync, 2, 4);
}

#[test]
fn task_async_agrees_with_original() {
    let base = FftxConfig::small(2, 2, Mode::Original);
    let orig = run_policy(&Problem::new(base), SchedulerPolicy::Serial);
    let mut cfg = base;
    cfg.mode = Mode::TaskAsync;
    let out = run_policy(&Problem::new(cfg), SchedulerPolicy::TaskAsync);
    for (b, (x, y)) in orig.bands.iter().zip(&out.bands).enumerate() {
        let err = max_dist(x, y);
        assert!(err < 1e-12, "async band {b} differs from original: {err}");
    }
}

#[test]
fn task_async_splits_the_scatter_tasks() {
    let cfg = FftxConfig::small(2, 2, Mode::TaskAsync);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::TaskAsync);
    for b in 0..cfg.nbnd {
        for step in ["scatter-fw-post", "scatter-fw-wait", "scatter-bw-post", "scatter-bw-wait"] {
            assert!(
                out.trace
                    .tasks
                    .iter()
                    .any(|t| t.label == format!("{step}[{b}]")),
                "missing {step}[{b}]"
            );
        }
    }
}
