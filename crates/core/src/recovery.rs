//! The self-healing execution engine: recovery mechanisms layered on the
//! typed error surface of `fftx-vmpi` and `fftx-taskrt`, so that injected
//! fatal faults no longer abort a run — they cost time, never answers.
//!
//! Three mechanisms, in escalation order:
//!
//! 1. **Task re-execution** ([`run_retry`]): band tasks are submitted with
//!    [`fftx_taskrt::Runtime::spawn_retryable`] — a panicking body is
//!    re-executed in place after a bounded exponential backoff. Sound
//!    because the band bodies are idempotent over their input snapshot:
//!    they read the band share, compute into the worker's arena (whose
//!    work buffers the prep step re-zeroes on every attempt), and
//!    write the share last. Injected crashes fire *before* the band's
//!    first collective, so a replay performs each collective exactly once
//!    in total and peers only observe added latency (a fault after a
//!    collective would desynchronise the matching sequence numbers — that
//!    class escalates through the watchdog instead).
//! 2. **Band-batch checkpoint/rollback** ([`run_rollback`]): the original
//!    pipeline snapshots each batch's input shares at the iteration
//!    boundary; a collective that times out mid-batch surfaces as a typed
//!    [`VmpiError`], the batch is rolled back to the checkpoint and
//!    replayed, up to [`RecoveryConfig::max_rollbacks`] times.
//! 3. **Rank eviction with layout re-planning** ([`run_eviction`]): a rank
//!    that dies at a batch boundary is evicted; survivors shrink the world
//!    communicator ([`fftx_vmpi::Communicator::shrink`]), re-factorise
//!    R×T over the surviving rank count ([`fftx_pw::factorise_rt`]),
//!    rebuild the stick/plane distribution, and redistribute every band —
//!    including the victim's sticks, recovered from its ring buddy's
//!    checkpoints — onto the re-planned layout, then finish the run.
//!
//! **Consistency without agreement.** Every injected fatal fault is a pure
//! function of `(seed, logical key, attempt)` — never of rank identity or
//! wall time — so all ranks reach identical retry/rollback/eviction
//! decisions and the per-communicator collective sequence counters stay
//! aligned across replays with no agreement protocol. A production runtime
//! would run a watchdog-agreement round at each decision point; the
//! deterministic plan is the stand-in that keeps the experiments
//! reproducible (DESIGN.md §11).
//!
//! **Bitwise identity.** Recovery must not change the answer. The z-FFTs
//! are per-stick, the xy-FFTs per-plane, and VOFR point-wise — none of the
//! arithmetic depends on which rank owns a stick or plane, so replays and
//! re-planned layouts move data differently but compute identical bits.
//! The tests (and the `recovery` bench harness) pin this down against
//! fault-free baselines.

use crate::config::Mode;
use crate::plan::BufferArena;
use crate::problem::Problem;
use crate::recorder::Recorder;
use crate::stages::{
    finish_run, in_world, run_guarded, BatchGuard, PlainLeg, RankShares, RunOutput, ScatterComms,
    StagePlan,
};
use fftx_fault::{BatchAborts, RankDeath, RecoveryConfig, TaskCrashes};
use fftx_fft::Complex64;
use fftx_pw::{
    assemble_shares, extract_share, factorise_rt, StickDist, StickSet, TaskGroupLayout,
};
use fftx_taskrt::{RetryPolicy, Runtime, Shared, TaskError};
use fftx_vmpi::{Communicator, VmpiError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Base tag of the buddy-checkpoint point-to-point messages (one tag per
/// batch; distinct communicators keep phases apart).
const CKPT_TAG_BASE: u32 = 100;
/// Tag of the per-band redistribution `alltoallv` after an eviction.
const REDIST_TAG: u32 = 7;

/// What the recovery layer did during one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Task re-executions absorbed by the runtimes (mechanism 1).
    pub task_retries: u64,
    /// Band batches rolled back to their checkpoint and replayed
    /// (mechanism 2; counted once per rank-symmetric rollback).
    pub batch_rollbacks: u64,
    /// Ranks evicted from the world (mechanism 3).
    pub evictions: u64,
    /// World ranks that were evicted.
    pub evicted_ranks: Vec<usize>,
    /// R×T layout before recovery.
    pub layout_before: (usize, usize),
    /// R×T layout after re-planning (equal to `layout_before` when no rank
    /// was evicted).
    pub layout_after: (usize, usize),
    /// Bytes of checkpoint state written (batch snapshots and buddy
    /// copies), summed over ranks — the raw material of the recovery
    /// overhead model in `fftx-knlsim`.
    pub checkpoint_bytes: u64,
}

// The shared batch runner lives in the stage graph: `band_batch` is the
// fallible replay unit (prep, collective pack, transform, collective
// unpack) of the one serial batch loop, which mechanism 2 guards with
// checkpoints, and [`crate::stages::StageRunner::band_fused`] is the
// idempotent per-band task body — one implementation for the engines and
// the recovery layer alike.

// ---------------------------------------------------------------------
// Mechanism 1: task re-execution
// ---------------------------------------------------------------------

/// Runs the task-per-FFT engine with retryable band tasks: transient task
/// crashes (injected by `crashes`, keyed by `(rank, band)`) are absorbed by
/// in-place re-execution under the retry budget of `recovery`; exhaustion
/// escalates to the usual typed [`TaskError`]. Returns the run output and
/// the recovery accounting.
pub fn run_retry(
    problem: &Arc<Problem>,
    crashes: Option<TaskCrashes>,
    recovery: &RecoveryConfig,
) -> Result<(RunOutput, RecoveryStats), TaskError> {
    let cfg = problem.config;
    assert!(
        matches!(cfg.mode, Mode::TaskPerFft),
        "run_retry: config mode must be TaskPerFft"
    );
    let policy = RetryPolicy {
        max_retries: recovery.max_retries,
        base_backoff: recovery.base_backoff,
        max_backoff: recovery.max_backoff,
    };
    let (results, sink, _) =
        in_world(problem, None, |comm| rank_retry(problem, comm, crashes, policy));
    let mut plain = Vec::with_capacity(results.len());
    let mut retries = 0u64;
    for r in results {
        let (shares, span, n) = r?;
        retries += n;
        plain.push((shares, span));
    }
    sink.counter("recovery.retries", retries);
    let out = finish_run(problem, sink, plain);
    let stats = RecoveryStats {
        task_retries: retries,
        layout_before: (problem.layout.r, problem.layout.t),
        layout_after: (problem.layout.r, problem.layout.t),
        ..Default::default()
    };
    Ok((out, stats))
}

fn rank_retry(
    problem: &Arc<Problem>,
    comm: &Communicator,
    crashes: Option<TaskCrashes>,
    policy: RetryPolicy,
) -> Result<(RankShares, f64, u64), TaskError> {
    let cfg = problem.config;
    let w = comm.rank();
    let g = w; // layout has t = 1: every rank is its own task group
    let sp = Arc::new(StagePlan::for_problem(problem, g));
    // Collective: every rank constructs the scatter communicator set (and,
    // under the pencil decomposition, its row/column sub-communicators)
    // before any task runs.
    let sc = Arc::new(ScatterComms::new(comm.clone(), cfg.decomp));
    let arenas: Arc<Vec<Shared<BufferArena>>> = Arc::new(
        (0..cfg.ntg).map(|_| Shared::new(BufferArena::new())).collect(),
    );
    let shares: Vec<Shared<Vec<Complex64>>> = problem
        .initial_shares(w)
        .into_iter()
        .map(Shared::new)
        .collect();

    let mut builder = Runtime::builder(cfg.ntg).clock(comm.clock()).rank(w);
    if let Some(sink) = comm.trace_sink() {
        builder = builder.trace(sink);
    }
    let rt = builder.build();

    comm.barrier();
    let t_start = comm.now();
    for (b, share) in shares.iter().enumerate() {
        let problem = Arc::clone(problem);
        let comm = comm.clone();
        let sp = Arc::clone(&sp);
        let sc = Arc::clone(&sc);
        let arenas = Arc::clone(&arenas);
        let share = share.clone();
        let attempts = Arc::new(AtomicU32::new(0));
        // The fault key of this rank's task for band b. Crashes are local
        // decisions (no collective state is consumed before the injection
        // point), so unlike batch aborts they need no cross-rank symmetry.
        let key = ((w as u64) << 32) | b as u64;
        rt.spawn_retryable(
            &format!("fft-band-{b}"),
            Some(b as u64),
            &[share.dep_inout()],
            policy,
            move || {
                let attempt = attempts.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = crashes {
                    if c.should_crash(key, attempt) {
                        panic!("injected transient task fault (band {b}, attempt {attempt})");
                    }
                }
                // Idempotent over the input snapshot: band_fused reads the
                // share, computes into the worker's arena (prep re-zeroes
                // its work buffers on every attempt), writes the share last.
                let rec = Recorder::new(comm.trace_sink(), comm.clock(), comm.rank());
                let runner = sp.runner(&problem.v, &rec);
                let mut guard = arenas[fftx_trace::current_thread()].write();
                runner
                    .band_fused(b, &sc, &share, &mut guard)
                    .unwrap_or_else(|e| panic!("{e}"));
            },
        );
    }
    let waited = rt.try_taskwait();
    if waited.is_ok() {
        comm.barrier();
    }
    let t_end = comm.now();
    let retries = rt.retries();
    let shutdown = rt.try_shutdown();
    waited?;
    shutdown?;
    let shares = shares
        .into_iter()
        .map(|s| s.try_unwrap().ok().expect("share uniquely owned after taskwait"))
        .collect();
    Ok((shares, t_end - t_start, retries))
}

// ---------------------------------------------------------------------
// Mechanism 2: band-batch checkpoint / rollback
// ---------------------------------------------------------------------

/// Runs the original pipeline with per-batch checkpointing: each iteration
/// snapshots the batch's input shares at the step boundary; a collective
/// timeout (injected by `aborts`, keyed by batch index — symmetric on every
/// rank) rolls the batch back to the checkpoint and replays it, up to
/// [`RecoveryConfig::max_rollbacks`] times before the error escalates.
/// This is the serial batch loop with its checkpoints armed.
pub fn run_rollback(
    problem: &Arc<Problem>,
    aborts: Option<BatchAborts>,
    recovery: &RecoveryConfig,
) -> Result<(RunOutput, RecoveryStats), VmpiError> {
    assert!(
        matches!(problem.config.mode, Mode::Original),
        "run_rollback: config mode must be Original"
    );
    let guard = BatchGuard {
        rollbacks: Some(recovery.max_rollbacks),
        aborts,
        verify: None,
    };
    let (out, t) = run_guarded(problem, guard, |sink, t| {
        sink.counter("recovery.rollbacks", t.rollbacks);
        sink.counter("recovery.checkpoint_bytes", t.ckpt_bytes);
    })?;
    let stats = RecoveryStats {
        batch_rollbacks: t.rollbacks,
        checkpoint_bytes: t.ckpt_bytes,
        layout_before: (problem.layout.r, problem.layout.t),
        layout_after: (problem.layout.r, problem.layout.t),
        ..Default::default()
    };
    Ok((out, stats))
}

// ---------------------------------------------------------------------
// Mechanism 3: rank eviction + layout re-planning
// ---------------------------------------------------------------------

/// Survivor-side result of an eviction run.
struct EvictionOutcome {
    /// Rank in the shrunk world (also the rank in the re-planned stick
    /// distribution).
    shrunk_rank: usize,
    /// All band shares under the re-planned distribution.
    shares: RankShares,
    /// Buddy-checkpoint bytes this rank sent.
    ckpt_bytes: u64,
}

/// Runs the original pipeline through a rank death: `death.rank` stops at
/// the boundary of batch `death.batch`; the survivors evict it, shrink the
/// world, re-factorise R×T over the remaining ranks (preferring
/// [`RecoveryConfig::prefer_t`]), redistribute every band's sticks onto
/// the re-planned layout — the victim's state recovered from its ring
/// buddy's checkpoints (processed bands) and deterministic recomputation
/// (unprocessed bands) — and finish the run.
pub fn run_eviction(
    problem: &Arc<Problem>,
    death: RankDeath,
    recovery: &RecoveryConfig,
) -> Result<(RunOutput, RecoveryStats), VmpiError> {
    let cfg = problem.config;
    assert!(
        matches!(cfg.mode, Mode::Original),
        "run_eviction: config mode must be Original"
    );
    let l = &problem.layout;
    let p = cfg.vmpi_ranks();
    assert!(death.rank < p, "run_eviction: dead rank {} out of range", death.rank);
    assert!(
        death.batch < cfg.iterations(),
        "run_eviction: rank dies after the run already ended"
    );
    let (r2, t2) = factorise_rt(p - 1, recovery.prefer_t);
    let done_bands = death.batch * l.t;
    assert!(
        (cfg.nbnd - done_bands).is_multiple_of(t2),
        "run_eviction: {} remaining bands not divisible by re-planned T = {t2}",
        cfg.nbnd - done_bands
    );
    let new_l = TaskGroupLayout::new(l.grid, l.set.clone(), r2, t2);
    new_l.validate();

    let (results, sink, _) =
        in_world(problem, None, |comm| rank_eviction(problem, comm, death, &new_l));

    let mut outcomes: Vec<EvictionOutcome> = Vec::with_capacity(p - 1);
    let mut fft_phase_s = 0.0_f64;
    for r in results {
        let (outcome, span) = r?;
        fft_phase_s = fft_phase_s.max(span);
        if let Some(o) = outcome {
            outcomes.push(o);
        }
    }
    assert_eq!(outcomes.len(), p - 1, "every survivor reports an outcome");
    outcomes.sort_by_key(|o| o.shrunk_rank);
    let ckpt_bytes = outcomes.iter().map(|o| o.ckpt_bytes).sum();
    sink.counter("recovery.evictions", 1);
    sink.counter("recovery.checkpoint_bytes", ckpt_bytes);
    let bands = (0..cfg.nbnd)
        .map(|b| {
            let shares: Vec<Vec<Complex64>> =
                outcomes.iter().map(|o| o.shares[b].clone()).collect();
            assemble_shares(&new_l.set, &new_l.dist, &shares)
        })
        .collect();
    let out = RunOutput {
        bands,
        trace: sink.finish(),
        fft_phase_s,
    };
    let stats = RecoveryStats {
        evictions: 1,
        evicted_ranks: vec![death.rank],
        layout_before: (l.r, l.t),
        layout_after: (r2, t2),
        checkpoint_bytes: ckpt_bytes,
        ..Default::default()
    };
    Ok((out, stats))
}

fn rank_eviction(
    problem: &Arc<Problem>,
    comm: &Communicator,
    death: RankDeath,
    new_l: &TaskGroupLayout,
) -> Result<(Option<EvictionOutcome>, f64), VmpiError> {
    let cfg = problem.config;
    let l = &problem.layout;
    let w = comm.rank();
    let p = comm.size();
    let g = l.task_group_of(w);
    let i = l.member_of(w);
    let t = l.t;
    let pack_comm = comm.split(g as u64, i);
    let scatter_comm = ScatterComms::new(comm.split(i as u64, g), cfg.decomp);
    let rec = Recorder::new(comm.trace_sink(), comm.clock(), w);
    let sp = StagePlan::for_problem(problem, g);
    let runner = sp.runner(&problem.v, &rec);
    let mut shares = problem.initial_shares(w);
    let mut arena = BufferArena::new();
    let mut ckpt_bytes = 0u64;
    let succ = (w + 1) % p;
    let pred = (w + p - 1) % p;
    // Buddy checkpoints received from the ring predecessor, keyed by batch.
    let mut stored: HashMap<usize, Vec<Complex64>> = HashMap::new();

    comm.barrier();
    let t_start = comm.now();

    // Phase 1: the original layout up to the death boundary, with buddy
    // checkpointing — after each batch, every rank sends its updated batch
    // shares to its ring successor, so each rank's processed state has an
    // off-rank copy that one failure cannot erase.
    for k in 0..death.batch {
        let (pc, sc) = (&pack_comm, &scatter_comm);
        runner.band_batch(k * t, pc, sc, &mut shares, &mut arena, false, &mut PlainLeg)?;
        let flat: Vec<Complex64> = (0..t)
            .flat_map(|j| shares[k * t + j].iter().copied())
            .collect();
        ckpt_bytes += (flat.len() * std::mem::size_of::<Complex64>()) as u64;
        comm.send(succ, CKPT_TAG_BASE + k as u32, flat);
        stored.insert(k, comm.try_recv(pred, CKPT_TAG_BASE + k as u32)?);
    }

    if w == death.rank {
        // The victim stops at the batch boundary, mid-run.
        return Ok((None, comm.now() - t_start));
    }

    // Survivors: evict, shrink, re-plan. Knowledge of the death is
    // symmetric (the deterministic fault plan stands in for the
    // watchdog-agreement round — DESIGN.md §11), so every survivor builds
    // the same shrunk communicator and re-planned layout locally, without
    // communication.
    let shrunk = comm.shrink(&[death.rank], 0);
    let me2 = shrunk.rank();
    let t2 = new_l.t;
    let done_bands = death.batch * t;

    // The victim's ring buddy reconstructs the victim's held state:
    // processed bands from the received checkpoints, unprocessed bands
    // recomputed from the deterministic problem.
    let buddy = (death.rank + 1) % p;
    let victim_shares: Option<RankShares> = if w == buddy {
        let vlen = l.ngw_rank(death.rank);
        Some(
            (0..cfg.nbnd)
                .map(|b| {
                    if b < done_bands {
                        let (kb, j) = (b / t, b % t);
                        let flat = &stored[&kb];
                        flat[j * vlen..(j + 1) * vlen].to_vec()
                    } else {
                        extract_share(&l.set, &l.dist, death.rank, &problem.band(b))
                    }
                })
                .collect(),
        )
    } else {
        None
    };

    // Redistribute every band from the old stick distribution to the
    // re-planned one: one alltoallv per band on the shrunk world, the
    // buddy acting as the victim's proxy.
    let new_owner = stick_owner(&new_l.dist, l.set.nst());
    let mut new_shares: RankShares = Vec::with_capacity(cfg.nbnd);
    for b in 0..cfg.nbnd {
        let mut held: Vec<(usize, &[Complex64])> = vec![(w, shares[b].as_slice())];
        if let Some(vs) = &victim_shares {
            held.push((death.rank, vs[b].as_slice()));
        }
        let sends = redistribution_sends(&l.set, &l.dist, &new_owner, &held, shrunk.size());
        let counts: Vec<usize> = sends.iter().map(Vec::len).collect();
        let flat = sends.concat();
        let (mut recv, mut recv_counts) = (Vec::new(), Vec::new());
        shrunk.try_alltoallv_into(&flat, &counts, &mut recv, &mut recv_counts, REDIST_TAG)?;
        new_shares.push(deposit_redistributed(
            &l.set,
            &l.dist,
            &new_l.dist,
            &new_owner,
            me2,
            shrunk.members(),
            death.rank,
            buddy,
            &recv,
            &recv_counts,
        ));
    }

    // Phase 2: the remaining batches under the re-planned R×T layout. The
    // single stage-graph re-plan ([`StagePlan::for_layout_decomp`]) covers
    // every scheduler policy (eviction is the one path where plans cannot be
    // precomputed — the layout is only known after the death); the arena is
    // reused, its buffers re-fitted to the new geometry.
    let g2 = new_l.task_group_of(me2);
    let i2 = new_l.member_of(me2);
    let pack2 = shrunk.split(g2 as u64, i2);
    let scat2 = ScatterComms::new(shrunk.split(i2 as u64, g2), cfg.decomp);
    let sp2 = StagePlan::for_layout_decomp(new_l, g2, cfg.decomp);
    let runner2 = sp2.runner(&problem.v, &rec);
    let p2 = shrunk.size();
    let rem_batches = (cfg.nbnd - done_bands) / t2;
    for kk in 0..rem_batches {
        let base = done_bands + kk * t2;
        let (pc, sc) = (&pack2, &scat2);
        runner2.band_batch(base, pc, sc, &mut new_shares, &mut arena, false, &mut PlainLeg)?;
        // Checkpointing continues on the survivor ring — a second eviction
        // is out of scope, but the steady-state traffic is part of the
        // overhead the experiment measures.
        let flat: Vec<Complex64> = (base..base + t2)
            .flat_map(|b| new_shares[b].iter().copied())
            .collect();
        ckpt_bytes += (flat.len() * std::mem::size_of::<Complex64>()) as u64;
        let tag = CKPT_TAG_BASE + (death.batch + kk) as u32;
        shrunk.send((me2 + 1) % p2, tag, flat);
        let _ = shrunk.try_recv::<Complex64>((me2 + p2 - 1) % p2, tag)?;
    }
    shrunk.try_barrier()?;
    let t_end = comm.now();
    Ok((
        Some(EvictionOutcome {
            shrunk_rank: me2,
            shares: new_shares,
            ckpt_bytes,
        }),
        t_end - t_start,
    ))
}

// ---------------------------------------------------------------------
// Redistribution helpers (pure)
// ---------------------------------------------------------------------

/// Old world ranks whose shares survivor `world` contributes to the
/// redistribution: its own, plus the victim's when it is the buddy.
fn held_old_ranks(world: usize, victim: usize, buddy: usize) -> Vec<usize> {
    if world == buddy {
        vec![world, victim]
    } else {
        vec![world]
    }
}

/// Maps stick id → owning rank index of `dist`.
fn stick_owner(dist: &StickDist, nst: usize) -> Vec<usize> {
    let mut owner = vec![usize::MAX; nst];
    for (r, sticks) in dist.per_rank.iter().enumerate() {
        for &s in sticks {
            owner[s] = r;
        }
    }
    debug_assert!(owner.iter().all(|&o| o != usize::MAX));
    owner
}

/// Builds the per-destination send list of the redistribution `alltoallv`:
/// each held old-rank share is walked in its old stick order and every
/// stick's coefficients go to the stick's new owner.
fn redistribution_sends(
    set: &StickSet,
    old_dist: &StickDist,
    new_owner: &[usize],
    held: &[(usize, &[Complex64])],
    nranks_new: usize,
) -> Vec<Vec<Complex64>> {
    let mut sends: Vec<Vec<Complex64>> = vec![Vec::new(); nranks_new];
    for &(old_rank, share) in held {
        let mut off = 0;
        for &s in &old_dist.per_rank[old_rank] {
            let len = set.sticks[s].len();
            sends[new_owner[s]].extend_from_slice(&share[off..off + len]);
            off += len;
        }
        debug_assert_eq!(off, share.len(), "old share of rank {old_rank} fully consumed");
    }
    sends
}

/// Inverse of [`redistribution_sends`] on the receiving side: `recv` holds
/// source `j`'s chunk at offset `recv_counts[..j].sum()`; every chunk is
/// walked in the same deterministic (held old rank, old stick order)
/// sequence and deposited at the stick's offset in the new share.
#[allow(clippy::too_many_arguments)]
fn deposit_redistributed(
    set: &StickSet,
    old_dist: &StickDist,
    new_dist: &StickDist,
    new_owner: &[usize],
    me: usize,
    members: &[usize],
    victim: usize,
    buddy: usize,
    recv: &[Complex64],
    recv_counts: &[usize],
) -> Vec<Complex64> {
    // Offsets of my sticks inside the new share.
    let mut my_off = vec![usize::MAX; set.nst()];
    let mut off = 0;
    for &s in &new_dist.per_rank[me] {
        my_off[s] = off;
        off += set.sticks[s].len();
    }
    let mut out = vec![Complex64::ZERO; new_dist.ngw_per_rank[me]];
    let mut start = 0;
    for (j, &count) in recv_counts.iter().enumerate() {
        let chunk = &recv[start..start + count];
        start += count;
        let mut cursor = 0;
        for old_rank in held_old_ranks(members[j], victim, buddy) {
            for &s in &old_dist.per_rank[old_rank] {
                if new_owner[s] == me {
                    let len = set.sticks[s].len();
                    out[my_off[s]..my_off[s] + len]
                        .copy_from_slice(&chunk[cursor..cursor + len]);
                    cursor += len;
                }
            }
        }
        debug_assert_eq!(cursor, chunk.len(), "chunk from source {j} fully consumed");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FftxConfig;
    use crate::stages::{rank_stage_spans, run_policy, SchedulerPolicy};

    fn eviction_config() -> FftxConfig {
        // 7 ranks as 7×1; after evicting one, 6 survivors re-plan to 3×2.
        let mut c = FftxConfig::small(7, 1, Mode::Original);
        c.nbnd = 6;
        c
    }

    #[test]
    fn retried_tasks_produce_bitwise_identical_bands() {
        let cfg = FftxConfig::small(2, 2, Mode::TaskPerFft);
        let problem = Problem::new(cfg);
        let baseline = run_policy(&problem, SchedulerPolicy::TaskPerFft);
        // Every task crashes at least once; budget (3) covers max 2 crashes.
        let crashes = TaskCrashes::new(11, 1.0, 2);
        let (out, stats) =
            run_retry(&problem, Some(crashes), &RecoveryConfig::default()).expect("recovers");
        assert!(
            stats.task_retries >= cfg.nbnd as u64 * cfg.vmpi_ranks() as u64,
            "every band task on every rank must retry: {}",
            stats.task_retries
        );
        assert_eq!(out.bands, baseline.bands, "recovery changed the answer");
    }

    #[test]
    fn clean_retry_run_is_free_of_retries() {
        let cfg = FftxConfig::small(2, 2, Mode::TaskPerFft);
        let problem = Problem::new(cfg);
        let baseline = run_policy(&problem, SchedulerPolicy::TaskPerFft);
        let (out, stats) = run_retry(&problem, None, &RecoveryConfig::default()).expect("clean");
        assert_eq!(stats.task_retries, 0);
        assert_eq!(out.bands, baseline.bands);
    }

    #[test]
    fn rolled_back_batches_produce_bitwise_identical_bands() {
        let cfg = FftxConfig::small(2, 2, Mode::Original);
        let problem = Problem::new(cfg);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        // A clean run checkpoints every batch but adds no stage.
        let (clean, stats) =
            run_rollback(&problem, None, &RecoveryConfig::default()).expect("clean");
        assert_eq!(stats.batch_rollbacks, 0);
        assert!(stats.checkpoint_bytes > 0);
        assert_eq!(clean.bands, baseline.bands);
        let spans = rank_stage_spans(&baseline.trace);
        assert_eq!(spans.len(), cfg.vmpi_ranks());
        assert_eq!(rank_stage_spans(&clean.trace), spans, "the guard changed the stages");
        // Every batch aborts 1-2 times; the rollback budget (4) covers it.
        let aborts = BatchAborts::new(5, 1.0, 2);
        let (out, stats) =
            run_rollback(&problem, Some(aborts), &RecoveryConfig::default()).expect("recovers");
        assert!(
            stats.batch_rollbacks >= cfg.iterations() as u64,
            "every batch must roll back at least once: {}",
            stats.batch_rollbacks
        );
        assert!(stats.checkpoint_bytes > 0);
        assert_eq!(out.bands, baseline.bands, "rollback changed the answer");
    }

    #[test]
    fn exhausted_rollback_budget_escalates_to_typed_timeout() {
        let cfg = FftxConfig::small(2, 2, Mode::Original);
        let problem = Problem::new(cfg);
        let aborts = BatchAborts::new(5, 1.0, 2);
        let no_budget = RecoveryConfig {
            max_rollbacks: 0,
            ..RecoveryConfig::default()
        };
        let Err(err) = run_rollback(&problem, Some(aborts), &no_budget) else {
            panic!("exhausted budget must escalate");
        };
        match err {
            VmpiError::Timeout { message, .. } => {
                assert!(message.contains("injected collective timeout"), "{message}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn eviction_replans_layout_and_keeps_bands_identical() {
        let problem = Problem::new(eviction_config());
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        // Cover an interior victim and the ring-wraparound buddy (victim
        // p-1 whose buddy is rank 0).
        for victim in [3, 6] {
            let (out, stats) = run_eviction(
                &problem,
                RankDeath::at(victim, 2),
                &RecoveryConfig::default(),
            )
            .expect("survivors finish");
            assert_eq!(stats.evicted_ranks, vec![victim]);
            assert_eq!(stats.layout_before, (7, 1));
            assert_eq!(stats.layout_after, (3, 2), "6 survivors re-plan to 3×2");
            assert!(stats.checkpoint_bytes > 0);
            assert_eq!(
                out.bands, baseline.bands,
                "eviction of rank {victim} changed the answer"
            );
        }
    }

    #[test]
    fn eviction_before_first_batch_recomputes_everything() {
        // Death at batch 0: the buddy has no checkpoints, every victim band
        // is recomputed deterministically.
        let problem = Problem::new(eviction_config());
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let (out, stats) = run_eviction(
            &problem,
            RankDeath::at(0, 0),
            &RecoveryConfig::default(),
        )
        .expect("survivors finish");
        assert_eq!(stats.layout_after, (3, 2));
        assert_eq!(out.bands, baseline.bands);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `me` indexes sends, dists and members alike
    fn redistribution_roundtrip_matches_extract_share() {
        // Pure-data check of the redistribution helpers: route the sends by
        // hand and verify each survivor ends up with exactly its share
        // under the new distribution.
        let problem = Problem::new(eviction_config());
        let l = &problem.layout;
        let set = &l.set;
        let (victim, buddy) = (3usize, 4usize);
        let members: Vec<usize> = (0..7).filter(|&r| r != victim).collect();
        let new_dist = StickDist::balance(set, 6);
        let new_owner = stick_owner(&new_dist, set.nst());
        let band = problem.band(1);
        let old_shares: Vec<Vec<Complex64>> = (0..7)
            .map(|r| extract_share(set, &l.dist, r, &band))
            .collect();
        // Every survivor's sends, buddy doubling as the victim's proxy.
        let all_sends: Vec<Vec<Vec<Complex64>>> = members
            .iter()
            .map(|&w| {
                let mut held: Vec<(usize, &[Complex64])> = vec![(w, old_shares[w].as_slice())];
                if w == buddy {
                    held.push((victim, old_shares[victim].as_slice()));
                }
                redistribution_sends(set, &l.dist, &new_owner, &held, members.len())
            })
            .collect();
        for me in 0..members.len() {
            // Segment j of recv = what source j sent to `me`.
            let recv: Vec<Complex64> =
                (0..members.len()).flat_map(|j| all_sends[j][me].clone()).collect();
            let counts: Vec<usize> = (0..members.len()).map(|j| all_sends[j][me].len()).collect();
            let got = deposit_redistributed(
                set, &l.dist, &new_dist, &new_owner, me, &members, victim, buddy, &recv, &counts,
            );
            let expect = extract_share(set, &new_dist, me, &band);
            assert_eq!(got, expect, "survivor {me} reassembled the wrong share");
        }
    }
}
