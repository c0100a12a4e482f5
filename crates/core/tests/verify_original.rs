//! End-to-end verification of the original (static task-group) kernel:
//! the distributed pipeline must reproduce the serial dense-grid reference
//! for every R×T shape.

use fftx_core::{run_policy, FftxConfig, Mode, Problem, SchedulerPolicy};
use fftx_fft::max_dist;
use fftx_pw::apply_vloc;
use fftx_trace::CommOp;

fn check_shape(nr: usize, ntg: usize) {
    let cfg = FftxConfig::small(nr, ntg, Mode::Original);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::Serial);

    let bands_in: Vec<Vec<_>> = (0..cfg.nbnd).map(|b| problem.band(b)).collect();
    let expect = apply_vloc(&problem.layout.set, &problem.grid(), &problem.v, &bands_in);
    assert_eq!(out.bands.len(), expect.len());
    for (b, (got, want)) in out.bands.iter().zip(&expect).enumerate() {
        let err = max_dist(got, want);
        assert!(err < 1e-9, "shape {nr}x{ntg} band {b}: err {err}");
    }
    assert!(out.fft_phase_s >= 0.0);
}

#[test]
fn single_rank_no_groups() {
    check_shape(1, 1);
}

#[test]
fn pure_scatter_parallelism() {
    check_shape(4, 1);
}

#[test]
fn pure_task_group_parallelism() {
    check_shape(1, 4);
}

#[test]
fn mixed_two_by_two() {
    check_shape(2, 2);
}

#[test]
fn mixed_three_by_two() {
    check_shape(3, 2);
}

#[test]
fn mixed_two_by_three() {
    check_shape(2, 3);
}

#[test]
fn communicator_families_in_trace() {
    // 2 x 2: pack should run on 2 sub-communicators of 2 neighbouring
    // ranks, scatter on 2 sub-communicators of 2 strided ranks, exactly as
    // the paper's Fig. 3 communicator timeline shows.
    let cfg = FftxConfig::small(2, 2, Mode::Original);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::Serial);

    let alltoallv: Vec<_> = out
        .trace
        .comm
        .iter()
        .filter(|r| r.op == CommOp::Alltoallv)
        .collect();
    let alltoall: Vec<_> = out
        .trace
        .comm
        .iter()
        .filter(|r| r.op == CommOp::Alltoall)
        .collect();
    // pack + unpack per iteration per rank.
    assert_eq!(alltoallv.len(), 4 * 2 * cfg.iterations());
    // two scatters per iteration per rank.
    assert_eq!(alltoall.len(), 4 * 2 * cfg.iterations());
    for r in &alltoallv {
        assert_eq!(r.comm_size, 2);
    }
    for r in &alltoall {
        assert_eq!(r.comm_size, 2);
    }
    // The pack family and the scatter family use disjoint communicator ids.
    use std::collections::HashSet;
    let pack_ids: HashSet<u64> = alltoallv.iter().map(|r| r.comm_id).collect();
    let scat_ids: HashSet<u64> = alltoall.iter().map(|r| r.comm_id).collect();
    assert!(pack_ids.is_disjoint(&scat_ids));
    assert_eq!(pack_ids.len(), 2);
    assert_eq!(scat_ids.len(), 2);
}

#[test]
fn trace_has_all_phase_classes() {
    use fftx_trace::StateClass;
    let cfg = FftxConfig::small(2, 2, Mode::Original);
    let problem = Problem::new(cfg);
    let out = run_policy(&problem, SchedulerPolicy::Serial);
    for class in [
        StateClass::PsiPrep,
        StateClass::Pack,
        StateClass::FftZ,
        StateClass::FftXy,
        StateClass::Vofr,
        StateClass::Unpack,
    ] {
        assert!(
            out.trace.compute.iter().any(|r| r.class == class),
            "missing {class:?} bursts"
        );
    }
}

#[test]
fn idempotent_across_runs() {
    let cfg = FftxConfig::small(2, 2, Mode::Original);
    let problem = Problem::new(cfg);
    let a = run_policy(&problem, SchedulerPolicy::Serial);
    let b = run_policy(&problem, SchedulerPolicy::Serial);
    for (x, y) in a.bands.iter().zip(&b.bands) {
        assert_eq!(x, y, "runs must be bit-identical");
    }
}
