//! Recovery experiment: the self-healing runtime's three mechanisms, each
//! demonstrated against its fault-free baseline.
//!
//! For every mechanism the harness machine-checks the central claim —
//! **recovery costs time, never answers**: the recovered run's bands are
//! bitwise identical to the fault-free run's, while the recovery layer
//! reports the work it absorbed (re-executions, rollbacks, an eviction
//! with a re-planned R×T layout).
//!
//! Measured wall times of the small in-process runs are reported for
//! orientation; the *deterministic* overhead numbers come from the KNL
//! cost model at the paper's 8×8 scale — steady-state buddy-checkpoint
//! traffic, one mid-run batch replay, and the per-band redistribution of
//! an eviction — all as fractions of the fault-free Fig. 3 runtime.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_core::{
    run_eviction, run_policy, run_retry, run_rollback, simulate_config, FftxConfig, Mode, Problem,
    SchedulerPolicy,
};
use fftx_fault::{BatchAborts, RankDeath, RecoveryConfig, TaskCrashes};
use fftx_knlsim::{CommModel, ContentionModel, KnlConfig};
use fftx_trace::CommOp;
use std::time::Instant;

/// Pinned fault seed (the paper's publication date) so CI commits a
/// reproducible artifact.
const SEED: u64 = fftx_bench::harness::SEED;

fn wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn pct(recovered: f64, clean: f64) -> f64 {
    (recovered / clean - 1.0) * 100.0
}

fn main() {
    println!("=== Recovery: self-healing mechanisms vs fault-free baselines ===\n");
    // The injected task crashes are expected panics (caught and retried by
    // the runtime); keep their backtraces out of the experiment log while
    // letting any real panic report normally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected transient task fault"));
        if !injected {
            default_hook(info);
        }
    }));
    // Budgets come from the environment (FFTX_RECOVERY_*, defaults
    // otherwise) so the knobs documented in the README drive this harness.
    let rc = RecoveryConfig::from_env();
    let mut csv = String::from(
        "mechanism,clean_s,recovered_s,overhead_pct,events,checkpoint_bytes,bitwise_identical\n",
    );

    // --- Mechanism 1: task re-execution (task-per-FFT engine). Every band
    // task crashes once or twice; the retry budget absorbs all of it.
    let cfg = FftxConfig::small(2, 2, Mode::TaskPerFft);
    // Every rank runs one task per band and each crashes at least once.
    let expected_retries = (cfg.nbnd * cfg.vmpi_ranks()) as u64;
    let problem = Problem::new(cfg);
    let (baseline, clean_s) = wall(|| run_policy(&problem, SchedulerPolicy::TaskPerFft));
    let ((retry_out, retry_stats), retry_s) = wall(|| {
        run_retry(&problem, Some(TaskCrashes::new(SEED, 1.0, 2)), &rc)
            .expect("retry budget must absorb the injected crashes")
    });
    let retry_identical = retry_out.bands == baseline.bands;
    println!(
        "task re-execution : clean {clean_s:.4}s  recovered {retry_s:.4}s ({:+.1}%)  \
         {} retries  identical: {retry_identical}",
        pct(retry_s, clean_s),
        retry_stats.task_retries
    );
    csv.push_str(&format!(
        "task_reexecution,{clean_s:.6},{retry_s:.6},{:.2},{},0,{retry_identical}\n",
        pct(retry_s, clean_s),
        retry_stats.task_retries
    ));

    // --- Mechanism 2: band-batch checkpoint/rollback (original engine).
    // Every batch's collective times out once or twice mid-flight.
    let cfg = FftxConfig::small(2, 2, Mode::Original);
    let problem = Problem::new(cfg);
    let (orig_baseline, orig_clean_s) = wall(|| run_policy(&problem, SchedulerPolicy::Serial));
    let ((rb_out, rb_stats), rb_s) = wall(|| {
        run_rollback(&problem, Some(BatchAborts::new(SEED, 1.0, 2)), &rc)
            .expect("rollback budget must absorb the injected aborts")
    });
    let rb_identical = rb_out.bands == orig_baseline.bands;
    println!(
        "batch rollback    : clean {orig_clean_s:.4}s  recovered {rb_s:.4}s ({:+.1}%)  \
         {} rollbacks, {} ckpt bytes  identical: {rb_identical}",
        pct(rb_s, orig_clean_s),
        rb_stats.batch_rollbacks,
        rb_stats.checkpoint_bytes
    );
    csv.push_str(&format!(
        "batch_rollback,{orig_clean_s:.6},{rb_s:.6},{:.2},{},{},{rb_identical}\n",
        pct(rb_s, orig_clean_s),
        rb_stats.batch_rollbacks,
        rb_stats.checkpoint_bytes
    ));

    // --- Mechanism 3: rank eviction + layout re-planning. 7 ranks as 7×1
    // over 6 bands; rank 3 dies at the batch-2 boundary, the 6 survivors
    // re-plan to 3×2 and finish.
    let mut cfg = FftxConfig::small(7, 1, Mode::Original);
    cfg.nbnd = 6;
    let problem = Problem::new(cfg);
    let (ev_baseline, ev_clean_s) = wall(|| run_policy(&problem, SchedulerPolicy::Serial));
    let ((ev_out, ev_stats), ev_s) = wall(|| {
        run_eviction(&problem, RankDeath::at(3, 2), &rc)
            .expect("survivors must finish the run")
    });
    let ev_identical = ev_out.bands == ev_baseline.bands;
    println!(
        "rank eviction     : clean {ev_clean_s:.4}s  recovered {ev_s:.4}s ({:+.1}%)  \
         layout {:?} -> {:?}, {} ckpt bytes  identical: {ev_identical}",
        pct(ev_s, ev_clean_s),
        ev_stats.layout_before,
        ev_stats.layout_after,
        ev_stats.checkpoint_bytes
    );
    csv.push_str(&format!(
        "rank_eviction,{ev_clean_s:.6},{ev_s:.6},{:.2},{},{},{ev_identical}\n",
        pct(ev_s, ev_clean_s),
        ev_stats.evictions,
        ev_stats.checkpoint_bytes
    ));

    // --- Modeled overhead at paper scale: the KNL cost model prices the
    // recovery layer's traffic against the fault-free 8×8 runtime.
    let paper_cfg = FftxConfig::paper(8, Mode::Original);
    let baseline_s = simulate_config(
        paper_cfg,
        &KnlConfig::paper(),
        &ContentionModel::paper(),
        &CommModel::paper(),
    )
    .runtime;
    let paper_problem = Problem::new(paper_cfg);
    let l = &paper_problem.layout;
    let comm = CommModel::paper();
    let iterations = paper_cfg.iterations();
    let batch_s = baseline_s / iterations as f64;
    // Buddy checkpoint: one p2p message of the rank's batch shares
    // (t bands × ngw coefficients × 16 bytes) after every batch.
    let ckpt_bytes = l.t * l.ngw_rank(0) * std::mem::size_of::<fftx_fft::Complex64>();
    let ckpt_overhead_s = iterations as f64 * comm.checkpoint_seconds(ckpt_bytes);
    // One mid-run fault: restore the checkpoint and replay the batch.
    let replay_overhead_s = comm.replay_seconds(ckpt_bytes, batch_s, 1);
    // One eviction: every band's sticks reshuffled with one alltoallv over
    // the survivors (victim state replayed from the buddy's checkpoints).
    let redist_bytes = l.ngw_rank(0) * std::mem::size_of::<fftx_fft::Complex64>();
    let evict_overhead_s = paper_cfg.nbnd as f64
        * comm.duration(CommOp::Alltoallv, paper_cfg.vmpi_ranks() - 1, redist_bytes);
    let (ckpt_pct, replay_pct, evict_pct) = (
        ckpt_overhead_s / baseline_s * 100.0,
        replay_overhead_s / baseline_s * 100.0,
        evict_overhead_s / baseline_s * 100.0,
    );
    println!(
        "\nmodeled 8x8 scale : baseline {baseline_s:.4}s  \
         checkpointing {ckpt_pct:+.2}%  one replay {replay_pct:+.2}%  one eviction {evict_pct:+.2}%"
    );
    csv.push_str("\nmodel,baseline_s,checkpoint_overhead_pct,replay_overhead_pct,eviction_overhead_pct\n");
    csv.push_str(&format!(
        "paper_8x8,{baseline_s:.6},{ckpt_pct:.3},{replay_pct:.3},{evict_pct:.3}\n"
    ));
    // BENCH_recovery_overhead.json — wall times vary run to run, so the
    // artifact is volatile; the gates sit only on deterministic values
    // (modeled overheads, recovery stats, bitwise identity).
    let mut h = Harness::new_volatile("recovery_overhead");
    h.artifact("recovery.csv", &csv, CheckKind::Structure);
    println!();

    println!(
        "gates: {} retries (>= {expected_retries}); {} rollbacks, {} ckpt bytes; layout \
         {:?} -> {:?}, evicted {:?}; replay {replay_overhead_s:.5}s vs batch {batch_s:.5}s",
        retry_stats.task_retries,
        rb_stats.batch_rollbacks,
        rb_stats.checkpoint_bytes,
        ev_stats.layout_before,
        ev_stats.layout_after,
        ev_stats.evicted_ranks,
    );
    h.metric_f64("retry_wall_overhead_pct", pct(retry_s, clean_s), 2)
        .metric_u64("retry_count", retry_stats.task_retries)
        .metric_bool(
            "retry_absorbs_all_crashes",
            retry_identical && retry_stats.task_retries >= expected_retries,
        )
        .metric_f64("rollback_wall_overhead_pct", pct(rb_s, orig_clean_s), 2)
        .metric_u64("rollback_count", rb_stats.batch_rollbacks)
        .metric_u64("rollback_checkpoint_bytes", rb_stats.checkpoint_bytes)
        .metric_bool(
            "rollback_replays_all_aborts",
            rb_identical && rb_stats.batch_rollbacks >= 2 && rb_stats.checkpoint_bytes > 0,
        )
        .metric_f64("eviction_wall_overhead_pct", pct(ev_s, ev_clean_s), 2)
        .metric_bool(
            "eviction_replans_and_matches",
            ev_identical
                && ev_stats.layout_before == (7, 1)
                && ev_stats.layout_after == (3, 2)
                && ev_stats.evicted_ranks == vec![3],
        )
        .metric_f64("modeled_baseline_8x8_s", baseline_s, 6)
        .metric_f64("modeled_checkpoint_overhead_pct", ckpt_pct, 4)
        .metric_f64("modeled_replay_overhead_pct", replay_pct, 4)
        .metric_f64("modeled_eviction_overhead_pct", evict_pct, 4)
        .metric_f64("modeled_replay_vs_batch_ratio", replay_overhead_s / batch_s, 4);
    h.gate(
        "task re-execution absorbs every injected crash and is bitwise identical",
        "retry_absorbs_all_crashes",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "batch rollback replays every aborted batch and is bitwise identical",
        "rollback_replays_all_aborts",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "eviction re-plans 7x1 -> 3x2 over the survivors and is bitwise identical",
        "eviction_replans_and_matches",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "modeled steady-state checkpointing costs under 5% of the 8x8 runtime",
        "modeled_checkpoint_overhead_pct",
        GateOp::Le,
        5.0,
    )
    .gate(
        "modeled checkpointing cost is nonzero (the model is priced in)",
        "modeled_checkpoint_overhead_pct",
        GateOp::Ge,
        1e-4,
    )
    .gate(
        "modeled single-fault replay costs at least one batch",
        "modeled_replay_vs_batch_ratio",
        GateOp::Ge,
        1.0,
    )
    .gate(
        "modeled single-fault replay stays under 2 batch times",
        "modeled_replay_vs_batch_ratio",
        GateOp::Le,
        2.0,
    );
    std::process::exit(h.finish());
}
