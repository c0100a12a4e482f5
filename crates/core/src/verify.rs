//! ABFT verification of the FFT pipeline: algorithm-based fault tolerance
//! that detects silent *compute* corruption — the faults the checksummed
//! transport cannot see because they happen inside a rank's FFT unit, not
//! on the wire — and heals each through the existing recovery machinery.
//!
//! The division of labour in the integrity layer:
//!
//! - **Wire integrity** is the transport's job: every `alltoall` /
//!   `alltoallv` chunk is checksummed at pack time and verified at unpack
//!   (`fftx-vmpi`), so [`PayloadCorrupt`](fftx_fault::PayloadCorrupt)
//!   strikes surface as typed [`VmpiError::Integrity`] errors.
//! - **Compute integrity** is this module's job: a bit flip in an FFT
//!   output buffer ([`fftx_fault::BitFlip`]) or a degraded vector lane of
//!   one rank's FFT unit ([`StuckLane`]) produces *plausible* numbers the
//!   transport happily checksums and delivers. ABFT invariants of the
//!   transform itself catch them.
//!
//! Two invariants are checked per FFT leg, selected by [`VerifyMode`]:
//!
//! - **`cheap`** — Parseval's theorem. The repository's FFTs follow the
//!   Quantum ESPRESSO scaling convention (forward carries `1/N`, backward
//!   is unnormalised), so each leg multiplies total energy by exactly `N`
//!   (inverse) or `1/N` (forward) up to rounding: `E_out ≈ factor · E_in`
//!   within [`PARSEVAL_TOL`]. One pass over the buffer per leg. The
//!   forward xy leg y-transforms only the x-columns that carry sticks
//!   ([`fftx_fft::XyLines`]); a skipped column is x-transformed only and
//!   holds `1/nr2` of its dense energy, so that leg checks the skip-aware
//!   identity `E_live + nr2·E_dead ≈ E_in/(nr1·nr2)` over the whole buffer
//!   at the same tolerance. (The inverse xy leg skips only rows that are
//!   zero, so plain Parseval holds there.)
//! - **`full`** — recompute and compare. The leg input is snapshotted, the
//!   leg recomputed on an independent (clean) path, and the outputs
//!   compared bit-exactly. Catches *every* corrupting flip, at ~2× FFT
//!   cost; a mismatch is repaired in place from the clean recomputation
//!   (the "verify-and-recompute" in ABFT), so full mode needs no rollback
//!   for transient faults.
//!
//! **Detectability contract.** Injected transient strikes are constrained
//! to the high exponent bit of one `f64` component
//! ([`apply_significant_strike`]): such a flip rescales the component by
//! `2^±512`, which no finite wavefunction value hides from the energy
//! check. Raw mantissa flips below the Parseval tolerance are numerically
//! indistinguishable from kernel rounding — `cheap` mode cannot and does
//! not claim to see them (that is `full` mode's job); the high-exponent
//! strike is the representative *detectable* silent error, and it is what
//! the integrity bench gates 100% detection on.
//!
//! **Symmetry.** Detection must not desynchronise the per-communicator
//! collective sequence counters, so a rank never aborts a batch on its own
//! verdict: local flags accumulate through the batch, a world-wide
//! OR-allreduce agrees on the outcome, and then *every* rank rolls the
//! batch back to its checkpoint in lockstep. The checks run as the leg
//! hook of the one `transform`, inside the serial batch loop that also
//! runs the plain serial policy and `recovery`'s rollback. Transient
//! profiles bound their strikes per key, so the rollback budget provably
//! clears them; budget exhaustion escalates a typed
//! [`VmpiError::Integrity`].
//!
//! **Persistent faults.** A stuck lane strikes on every replay — rollback
//! cannot clear it. Instead, every rank's FFT unit is *probed* before the
//! run ([`probe_fft_unit`]: a known-energy vector plus a linearity check,
//! pure in `(seed, rank)` so every process computes the same verdict), and
//! a flaky rank is escalated straight to
//! [`run_eviction`](crate::recovery::run_eviction) — it is evicted at
//! batch 0, computes nothing, and the survivors re-plan the layout. One
//! eviction per run: a second flaky rank escalates as a typed error.

use crate::config::Mode;
use crate::plan::ExecPlan;
use crate::problem::Problem;
use crate::recovery::run_eviction;
use crate::stages::{run_guarded, BatchGuard, BatchTally, LegHook, RunOutput, StageKind};
use fftx_fault::{mix64, CorruptionConfig, RankDeath, RecoveryConfig, Strike, StuckLane};
use fftx_fft::{c64, cached_plan, cft_1z, Complex64, Direction, XyLines};
use fftx_vmpi::{Communicator, VmpiError};
use std::sync::Arc;

/// Relative tolerance of the `cheap`-mode Parseval check. FFT rounding
/// error is O(ε·log N) ≈ 1e-14 for the grids here; a high-exponent strike
/// moves the energy by many orders of magnitude. 1e-9 sits comfortably
/// between the two.
pub const PARSEVAL_TOL: f64 = 1e-9;

/// Salt of the strike-target-rank draw (disjoint from every profile salt).
const TARGET_SALT: u64 = 0x7C15_8A2D_93E4_F506;

// ---------------------------------------------------------------------
// Verify mode
// ---------------------------------------------------------------------

/// How much ABFT verification the pipeline runs per FFT leg — the mode
/// argument of [`run_verified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// No compute verification (transport checksums still apply).
    #[default]
    Off,
    /// Parseval energy check per FFT leg (one buffer pass).
    Cheap,
    /// Bit-exact recompute-and-compare per FFT leg (~2× FFT cost), with
    /// in-place repair from the clean recomputation.
    Full,
}

impl VerifyMode {
    /// Every mode, in escalation order.
    pub const ALL: [VerifyMode; 3] = [VerifyMode::Off, VerifyMode::Cheap, VerifyMode::Full];

    /// The mode's name (the `integrity` bench's `verify_mode` column).
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Cheap => "cheap",
            VerifyMode::Full => "full",
        }
    }

    /// Parses a mode name (the inverse of [`VerifyMode::name`]).
    pub fn parse(s: &str) -> Option<VerifyMode> {
        VerifyMode::ALL.iter().copied().find(|m| m.name() == s)
    }
}

/// What the verification layer did during one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyStats {
    /// FFT-unit startup probes executed (one per world rank).
    pub probes: u64,
    /// World ranks whose FFT unit failed the startup probe.
    pub probe_failures: Vec<usize>,
    /// Parseval energy checks executed (summed over ranks).
    pub parseval_checks: u64,
    /// Full-mode leg recomputations executed (summed over ranks).
    pub recomputed_legs: u64,
    /// Full-mode legs whose output mismatched the clean recomputation and
    /// was repaired in place (summed over ranks).
    pub repaired_legs: u64,
    /// Band batches flagged corrupt by the world-wide agreement (counted
    /// once per rank-symmetric detection).
    pub detected_batches: u64,
    /// Band batches rolled back to their checkpoint and replayed.
    pub batch_rollbacks: u64,
    /// Ranks evicted after a failed probe.
    pub evictions: u64,
    /// World ranks that were evicted.
    pub evicted_ranks: Vec<usize>,
    /// Bytes of checkpoint state written, summed over ranks.
    pub checkpoint_bytes: u64,
}

// ---------------------------------------------------------------------
// The fault model: strikes applied to a rank's FFT-unit output
// ---------------------------------------------------------------------

/// Applies `rank`'s stuck lane to a complex buffer, viewing it as the f64
/// component stream the vector unit actually processes (lane `l` strikes
/// components `l, l+width, …`). Returns the number of components zeroed.
fn apply_stuck(st: &StuckLane, rank: u64, buf: &mut [Complex64]) -> usize {
    let Some(lane) = st.lane_of(rank) else {
        return 0;
    };
    let width = st.width as usize;
    let mut struck = 0;
    let mut f = lane as usize;
    while f < 2 * buf.len() {
        let c = &mut buf[f / 2];
        let v = if f.is_multiple_of(2) { &mut c.re } else { &mut c.im };
        if *v != 0.0 {
            *v = 0.0;
            struck += 1;
        }
        f += width;
    }
    struck
}

/// Applies a transient strike as a *high-exponent* flip of one f64
/// component: the component rescales by `2^±512` (or a flat zero becomes
/// 2.0), so the corruption is energy-visible on any finite value — the
/// detectability contract of the module docs. Returns `false` on an empty
/// buffer.
fn apply_significant_strike(s: &Strike, buf: &mut [Complex64]) -> bool {
    if buf.is_empty() {
        return false;
    }
    let f = (s.index_bits % (2 * buf.len() as u64)) as usize;
    let c = &mut buf[f / 2];
    let v = if f.is_multiple_of(2) { &mut c.re } else { &mut c.im };
    *v = f64::from_bits(v.to_bits() ^ (1u64 << 62));
    true
}

/// The world rank a transient strike against `key` lands on — hash-spread
/// so corruption exercises every rank's detection path over a run.
fn strike_target(key: u64, ranks: usize) -> usize {
    (mix64(key ^ TARGET_SALT) % ranks.max(1) as u64) as usize
}

/// The fault key of one FFT leg of one band batch.
fn leg_key(base: usize, leg: u64) -> u64 {
    ((base as u64) << 3) | leg
}

// ---------------------------------------------------------------------
// ABFT invariants
// ---------------------------------------------------------------------

/// Total energy `Σ |c|²` of a buffer.
fn energy(buf: &[Complex64]) -> f64 {
    buf.iter().map(|c| c.re * c.re + c.im * c.im).sum()
}

/// Whether `got ≈ want` within relative tolerance `tol`. NaN never
/// compares close (a NaN-poisoned buffer is a detection, not an escape).
fn energy_close(got: f64, want: f64, tol: f64) -> bool {
    let scale = want.abs().max(got.abs()).max(f64::MIN_POSITIVE);
    (got - want).abs() / scale <= tol
}

/// Whether two buffers are bit-identical (distinguishes `-0.0` from `0.0`
/// and never equates NaNs — stricter than `==`, which is the point).
fn bits_equal(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
        })
}

// ---------------------------------------------------------------------
// The startup probe
// ---------------------------------------------------------------------

/// Probes `rank`'s FFT unit before the run: a z-FFT of two deterministic
/// known-energy vectors through the unit (kernel plus the rank's modeled
/// persistent faults), checked against Parseval and linearity. Pure in
/// `(corruption, rank, n)`, so every process computes the same verdict for
/// every rank without communicating — the agreement-free analogue of a
/// startup health collective. Returns `false` for a flaky unit.
///
/// A stuck-at-zero lane is linear, so the *energy* check is the one that
/// catches it; the linearity check covers the complementary class
/// (stuck-at-value, additive offsets) for free.
pub fn probe_fft_unit(corruption: &CorruptionConfig, rank: usize, n: usize) -> bool {
    let n = n.max(8);
    let unit = |x: &[Complex64]| -> Vec<Complex64> {
        let mut y = x.to_vec();
        let mut scratch = Vec::new();
        cft_1z(&cached_plan(n), &mut y, 1, n, Direction::Inverse, &mut scratch);
        if let Some(st) = corruption.stuck {
            apply_stuck(&st, rank as u64, &mut y);
        }
        y
    };
    // Two probe vectors with energy in every component (so every lane of
    // the unit carries signal), plus their sum for the linearity check.
    let a: Vec<Complex64> = (0..n)
        .map(|i| c64(1.5 + (i as f64 * 0.618).cos(), (i as f64 * 0.377).sin() - 0.25))
        .collect();
    let b: Vec<Complex64> = (0..n)
        .map(|i| c64((i as f64 * 0.271).sin() - 1.25, 0.75 + (i as f64 * 0.533).cos()))
        .collect();
    let (fa, fb) = (unit(&a), unit(&b));
    // Parseval: the inverse (unnormalised) z-FFT multiplies energy by n.
    if !energy_close(energy(&fa), n as f64 * energy(&a), PARSEVAL_TOL)
        || !energy_close(energy(&fb), n as f64 * energy(&b), PARSEVAL_TOL)
    {
        return false;
    }
    // Linearity: F(a+b) = F(a) + F(b) through the unit. Output magnitudes
    // are O(n); 1e-9 absolute dwarfs rounding for any grid here.
    let ab: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
    let fab = unit(&ab);
    fab.iter()
        .zip(fa.iter().zip(&fb))
        .all(|(s, (x, y))| {
            let d = *s - (*x + *y);
            d.re.abs() <= 1e-9 && d.im.abs() <= 1e-9
        })
}

// ---------------------------------------------------------------------
// Verified leg execution
// ---------------------------------------------------------------------

/// One rank's ABFT verifier: the mode, the fault model and the rank's
/// identity in it, built once per rank by the serial batch loop.
pub(crate) struct Verifier {
    mode: VerifyMode,
    corruption: CorruptionConfig,
    /// World rank (fault-model identity: strike targeting, stuck lanes).
    rank: usize,
    /// World size.
    ranks: usize,
    /// Energy factors of a z leg (`nr3`) and an xy leg (`nr1 * nr2`).
    nz: f64,
    nxy: f64,
    /// Plane shape and the xy lines the forward xy leg transforms.
    nr1: usize,
    nr2: usize,
    xy_lines: XyLines,
}

impl Verifier {
    /// The verifier of `comm`'s rank on `plan`.
    pub(crate) fn new(
        mode: VerifyMode,
        corruption: CorruptionConfig,
        comm: &Communicator,
        plan: &ExecPlan,
    ) -> Self {
        let grid = &plan.grid;
        Verifier {
            mode,
            corruption,
            rank: comm.rank(),
            ranks: comm.size(),
            nz: grid.nr3 as f64,
            nxy: (grid.nr1 * grid.nr2) as f64,
            nr1: grid.nr1,
            nr2: grid.nr2,
            xy_lines: plan.xy_lines.clone(),
        }
    }

    /// The energy a leg's output would have under the dense transform:
    /// the buffer's energy, except on the forward xy leg, where each
    /// skipped (x-transformed only) column counts `nr2`-fold — the y-DFT
    /// it skipped multiplies a column's energy by `nr2`.
    fn dense_energy(&self, kind: StageKind, buf: &[Complex64]) -> f64 {
        if kind != StageKind::FftXyFwd {
            return energy(buf);
        }
        let (mut live, mut dead) = (0.0, 0.0);
        for row in buf.chunks_exact(self.nr1) {
            for (x, c) in row.iter().enumerate() {
                let e = c.re * c.re + c.im * c.im;
                if self.xy_lines.col(x) {
                    live += e;
                } else {
                    dead += e;
                }
            }
        }
        live + self.nr2 as f64 * dead
    }

    /// The leg hook of one batch attempt, counting into `tally`.
    pub(crate) fn legs<'a>(&'a self, attempt: u32, tally: &'a mut BatchTally) -> VerifiedLegs<'a> {
        VerifiedLegs {
            vx: self,
            attempt,
            tally,
            evidence: None,
        }
    }
}

/// The ABFT [`LegHook`] of one batch attempt: every FFT leg runs through
/// the fault model and the selected invariant.
pub(crate) struct VerifiedLegs<'a> {
    vx: &'a Verifier,
    attempt: u32,
    tally: &'a mut BatchTally,
    /// `(expected, got)` energy bits of the first local detection — the
    /// evidence carried into the escalation error.
    evidence: Option<(u64, u64)>,
}

impl LegHook for VerifiedLegs<'_> {
    /// The verified leg: compute, inject, then check (`cheap`:
    /// `E_out ≈ factor·E_in`; `full`: bit-exact recompute from the
    /// snapshot, repairing in place on mismatch).
    fn leg(
        &mut self,
        kind: StageKind,
        band: usize,
        buf: &mut [Complex64],
        mut fft: impl FnMut(&mut [Complex64]),
    ) {
        let vx = self.vx;
        let (leg, factor) = match kind {
            StageKind::FftZInv => (0, vx.nz),
            StageKind::FftXyInv => (1, vx.nxy),
            StageKind::FftXyFwd => (2, 1.0 / vx.nxy),
            StageKind::FftZFwd => (3, 1.0 / vx.nz),
            other => unreachable!("{other:?} is not an FFT leg"),
        };
        let (key, attempt) = (leg_key(band, leg), self.attempt);
        match vx.mode {
            VerifyMode::Off => {
                fft(buf);
                inject(vx, key, attempt, buf);
            }
            VerifyMode::Cheap => {
                let e_in = energy(buf);
                fft(buf);
                inject(vx, key, attempt, buf);
                self.tally.checks += 1;
                let (want, got) = (factor * e_in, vx.dense_energy(kind, buf));
                if !energy_close(got, want, PARSEVAL_TOL) {
                    self.evidence.get_or_insert((want.to_bits(), got.to_bits()));
                }
            }
            VerifyMode::Full => {
                let snapshot = buf.to_vec();
                fft(buf);
                inject(vx, key, attempt, buf);
                self.tally.recomputes += 1;
                // Recompute on the clean path (the check unit: in the KNL
                // story, the scalar fallback kernel) and compare bit-exactly.
                let mut clean = snapshot;
                fft(&mut clean);
                if !bits_equal(buf, &clean) {
                    buf.copy_from_slice(&clean);
                    self.tally.repaired += 1;
                }
            }
        }
    }
}

impl VerifiedLegs<'_> {
    /// Closes the attempt on batch `batch` with a world-wide verdict — a
    /// rank must never abort on its local detection alone, or the
    /// collective sequence counters desynchronise. A corrupt verdict
    /// counts a detection and comes back as the typed error the batch
    /// escalates with once the rollback budget is spent. `Off` never
    /// checks, so it never agrees.
    pub(crate) fn settle(self, comm: &Communicator, batch: usize) -> Option<VmpiError> {
        let local = u64::from(self.evidence.is_some());
        if self.vx.mode == VerifyMode::Off || comm.allreduce(vec![local], |a, b| a | b)[0] == 0 {
            return None;
        }
        self.tally.detected += 1;
        let (expected, got) = self.evidence.unwrap_or((0, 0));
        Some(VmpiError::Integrity {
            peer: comm.rank(),
            tag: batch as u32,
            expected,
            got,
        })
    }
}

/// Injects the modeled FFT-unit faults into a leg's output buffer:
/// a bounded transient strike when this rank is the key's target, plus the
/// rank's persistent stuck lane.
fn inject(vx: &Verifier, key: u64, attempt: u32, buf: &mut [Complex64]) {
    if let Some(bf) = vx.corruption.bitflip {
        if strike_target(key, vx.ranks) == vx.rank {
            if let Some(s) = bf.strike(key, attempt) {
                apply_significant_strike(&s, buf);
            }
        }
    }
    if let Some(st) = vx.corruption.stuck {
        apply_stuck(&st, vx.rank as u64, buf);
    }
}

// ---------------------------------------------------------------------
// The verified run
// ---------------------------------------------------------------------

/// Runs the original pipeline under the corruption model with ABFT
/// verification: every rank's FFT unit is probed up front (a flaky rank is
/// escalated straight to eviction with layout re-planning), then every FFT
/// leg of every batch runs through the selected invariant; a detected
/// corruption rolls the batch back to its checkpoint rank-symmetrically
/// (`cheap`) or is repaired in place from the clean recomputation
/// (`full`), and budget exhaustion — or a second flaky rank — escalates a
/// typed [`VmpiError::Integrity`].
///
/// Corruption delivered under [`VerifyMode::Off`] is the *point* of that
/// mode: it is the silent-data-corruption baseline the bench measures
/// detection against.
pub fn run_verified(
    problem: &Arc<Problem>,
    corruption: CorruptionConfig,
    mode: VerifyMode,
    recovery: &RecoveryConfig,
) -> Result<(RunOutput, VerifyStats), VmpiError> {
    let cfg = problem.config;
    assert!(
        matches!(cfg.mode, Mode::Original),
        "run_verified: config mode must be Original"
    );
    let p = cfg.vmpi_ranks();
    let mut stats = VerifyStats::default();

    if mode != VerifyMode::Off {
        stats.probes = p as u64;
        let flaky: Vec<usize> = (0..p)
            .filter(|&r| !probe_fft_unit(&corruption, r, problem.layout.grid.nr3))
            .collect();
        stats.probe_failures.clone_from(&flaky);
        if flaky.len() > 1 {
            // The eviction path heals one rank per run; report the excess
            // as a typed error instead of delivering corrupt data.
            return Err(VmpiError::Integrity {
                peer: flaky[1],
                tag: 0,
                expected: 1,
                got: flaky.len() as u64,
            });
        }
        if let Some(&victim) = flaky.first() {
            // Evict at batch 0: the victim's flaky unit computes nothing;
            // survivors recompute its bands deterministically.
            let (out, es) = run_eviction(problem, RankDeath::at(victim, 0), recovery)?;
            stats.evictions = es.evictions;
            stats.evicted_ranks = es.evicted_ranks;
            stats.checkpoint_bytes = es.checkpoint_bytes;
            return Ok((out, stats));
        }
    }

    // Off runs the legs through the fault model unchecked: no checkpoint,
    // no verdict, no rollback.
    let guard = BatchGuard {
        rollbacks: (mode != VerifyMode::Off).then_some(recovery.max_rollbacks),
        verify: Some((mode, corruption)),
        ..BatchGuard::default()
    };
    let (out, t) = run_guarded(problem, guard, |sink, t| {
        sink.counter("integrity.parseval_checks", t.checks);
        sink.counter("integrity.detected_batches", t.detected);
        sink.counter("integrity.recomputed_legs", t.recomputes);
        sink.counter("integrity.repaired_legs", t.repaired);
        sink.counter("recovery.rollbacks", t.rollbacks);
    })?;
    stats.parseval_checks = t.checks;
    stats.recomputed_legs = t.recomputes;
    stats.repaired_legs = t.repaired;
    stats.detected_batches = t.detected;
    stats.batch_rollbacks = t.rollbacks;
    stats.checkpoint_bytes = t.ckpt_bytes;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FftxConfig;
    use crate::stages::{rank_stage_spans, run_policy, SchedulerPolicy};
    use fftx_fault::BitFlip;
    use fftx_fft::cft_2xy_masked;

    fn problem(r: usize, t: usize) -> Arc<Problem> {
        Problem::new(FftxConfig::small(r, t, Mode::Original))
    }

    #[test]
    fn verify_mode_parses_its_own_names() {
        for m in VerifyMode::ALL {
            assert_eq!(VerifyMode::parse(m.name()), Some(m));
        }
        assert_eq!(VerifyMode::parse("paranoid"), None);
        assert_eq!(VerifyMode::default(), VerifyMode::Off);
    }

    #[test]
    fn significant_strike_is_energy_visible_on_any_value() {
        for v in [0.0, 1.0, -3.25, 1e-300, 1e12] {
            let mut buf = vec![c64(v, v); 9];
            let s = Strike { index_bits: 5, bit: 17 };
            let before = energy(&buf);
            assert!(apply_significant_strike(&s, &mut buf));
            let after = energy(&buf);
            assert!(
                !energy_close(after, before, PARSEVAL_TOL),
                "strike on {v} must move the energy: {before} -> {after}"
            );
        }
        assert!(!apply_significant_strike(&Strike { index_bits: 0, bit: 0 }, &mut []));
    }

    #[test]
    fn stuck_lane_zeroes_the_component_stream() {
        let st = StuckLane::new(3, 1.0, 8);
        let lane = st.lane_of(0).expect("p=1 sticks") as usize;
        let mut buf = vec![c64(1.0, 2.0); 16];
        let n = apply_stuck(&st, 0, &mut buf);
        assert_eq!(n, 32 / 8, "every 8th of 32 components zeroed");
        for (i, c) in buf.iter().enumerate() {
            for (f, v) in [(2 * i, c.re), (2 * i + 1, c.im)] {
                if f % 8 == lane {
                    assert_eq!(v, 0.0, "component {f} stuck");
                } else {
                    assert_ne!(v, 0.0, "component {f} untouched");
                }
            }
        }
    }

    #[test]
    fn probe_passes_healthy_units_and_fails_stuck_ones() {
        let sticky = CorruptionConfig::sticky(11, 0.5);
        let st = sticky.stuck.expect("sticky preset");
        for rank in 0..32 {
            assert_eq!(
                probe_fft_unit(&sticky, rank, 18),
                st.lane_of(rank as u64).is_none(),
                "probe verdict must mirror the stuck-lane plan for rank {rank}"
            );
        }
        assert!((0..8).all(|r| probe_fft_unit(&CorruptionConfig::off(), r, 18)));
    }

    /// The forward xy leg's x-columns that carry no stick, on group 0.
    fn dead_columns(problem: &Problem) -> Vec<usize> {
        let plan = problem.exec_plan(0);
        (0..plan.grid.nr1).filter(|&x| !plan.xy_lines.col(x)).collect()
    }

    #[test]
    fn clean_verified_run_detects_nothing_and_matches_baseline() {
        let problem = problem(2, 2);
        assert!(!dead_columns(&problem).is_empty(), "the xy legs must skip lines here");
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        for mode in VerifyMode::ALL {
            let (out, stats) =
                run_verified(&problem, CorruptionConfig::off(), mode, &RecoveryConfig::default())
                    .expect("clean run");
            assert_eq!(out.bands, baseline.bands, "{} changed the answer", mode.name());
            // The guard may add checkpoints and checks, but never stages.
            assert_eq!(
                rank_stage_spans(&out.trace),
                rank_stage_spans(&baseline.trace),
                "{} changed the per-rank stage sequence",
                mode.name()
            );
            assert_eq!(stats.detected_batches, 0);
            assert_eq!(stats.batch_rollbacks, 0);
            assert_eq!(stats.repaired_legs, 0);
            assert!(stats.probe_failures.is_empty());
            match mode {
                VerifyMode::Off => assert_eq!(stats.parseval_checks, 0),
                VerifyMode::Cheap => assert!(stats.parseval_checks > 0),
                VerifyMode::Full => assert!(stats.recomputed_legs > 0),
            }
        }
    }

    #[test]
    fn strike_on_a_skipped_forward_column_is_detected() {
        let problem = problem(2, 2);
        let plan = problem.exec_plan(0);
        let (nr1, nr2) = (plan.grid.nr1, plan.grid.nr2);
        let vx = Verifier {
            mode: VerifyMode::Cheap,
            corruption: CorruptionConfig::off(),
            rank: 0,
            ranks: 1,
            nz: plan.grid.nr3 as f64,
            nxy: (nr1 * nr2) as f64,
            nr1,
            nr2,
            xy_lines: plan.xy_lines.clone(),
        };
        let input: Vec<Complex64> = (0..plan.planes_len())
            .map(|i| c64((i as f64 * 0.37).sin() + 0.5, (i as f64 * 0.11).cos()))
            .collect();
        // Leg output positions (component index) in skipped columns: the
        // first, a middle and the last plane, real and imaginary parts.
        let dead = dead_columns(&problem);
        let mut targets = vec![None];
        for z in [0, plan.npp / 2, plan.npp - 1] {
            for (x, y) in [(dead[0], 0), (dead[dead.len() - 1], nr2 - 1)] {
                let at = z * plan.plane + y * nr1 + x;
                targets.extend([Some(2 * at), Some(2 * at + 1)]);
            }
        }
        for target in targets {
            let mut tally = BatchTally::default();
            let mut legs = vx.legs(0, &mut tally);
            let mut buf = input.clone();
            let (mut scratch, mut col) = (Vec::new(), Vec::new());
            legs.leg(StageKind::FftXyFwd, 0, &mut buf, |b| {
                let (s, c, lines) = (&mut scratch, &mut col, &plan.xy_lines);
                let dir = Direction::Forward;
                cft_2xy_masked(&plan.x, &plan.y, b, plan.npp, nr1, nr2, dir, s, c, lines);
                if let Some(f) = target {
                    apply_significant_strike(&Strike { index_bits: f as u64, bit: 62 }, b);
                }
            });
            assert_eq!(legs.evidence.is_some(), target.is_some(), "strike at {target:?}");
        }
    }

    #[test]
    fn off_mode_delivers_corrupted_results() {
        // The silent-data-corruption baseline: with verification off, an
        // injected compute fault flows straight into the answer.
        let problem = problem(2, 2);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(9, 1.0, 2)),
            ..CorruptionConfig::off()
        };
        let (out, stats) =
            run_verified(&problem, corruption, VerifyMode::Off, &RecoveryConfig::default())
                .expect("off mode never detects, so never escalates");
        assert_ne!(out.bands, baseline.bands, "corruption must reach the output");
        assert_eq!(stats.detected_batches, 0);
        assert_eq!(stats.checkpoint_bytes, 0, "Off stays zero-overhead");
    }

    #[test]
    fn cheap_mode_detects_rolls_back_and_restores_bitwise_identity() {
        let problem = problem(2, 2);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(9, 1.0, 2)),
            ..CorruptionConfig::off()
        };
        let (out, stats) =
            run_verified(&problem, corruption, VerifyMode::Cheap, &RecoveryConfig::default())
                .expect("bounded transients clear within the budget");
        assert!(stats.detected_batches > 0, "p=1.0 must strike and be seen");
        assert!(stats.batch_rollbacks > 0);
        assert!(stats.checkpoint_bytes > 0);
        assert_eq!(out.bands, baseline.bands, "recovery changed the answer");
    }

    #[test]
    fn full_mode_repairs_in_place_without_rollbacks() {
        let problem = problem(2, 2);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(9, 1.0, 2)),
            ..CorruptionConfig::off()
        };
        let (out, stats) =
            run_verified(&problem, corruption, VerifyMode::Full, &RecoveryConfig::default())
                .expect("repair needs no rollback");
        assert!(stats.repaired_legs > 0, "p=1.0 must strike and be repaired");
        assert_eq!(stats.batch_rollbacks, 0, "in-place repair, not replay");
        assert_eq!(out.bands, baseline.bands, "repair changed the answer");
    }

    #[test]
    fn exhausted_rollback_budget_escalates_to_integrity_error() {
        let problem = problem(2, 2);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(9, 1.0, 2)),
            ..CorruptionConfig::off()
        };
        let no_budget = RecoveryConfig {
            max_rollbacks: 0,
            ..RecoveryConfig::default()
        };
        let Err(err) = run_verified(&problem, corruption, VerifyMode::Cheap, &no_budget) else {
            panic!("exhausted budget must escalate");
        };
        assert!(
            matches!(err, VmpiError::Integrity { .. }),
            "expected Integrity, got {err:?}"
        );
    }

    #[test]
    fn sticky_rank_is_probed_and_evicted() {
        // 7 ranks as 7×1 (the eviction-compatible shape); find a seed whose
        // stuck-lane plan marks exactly one of them flaky.
        let mut cfg = FftxConfig::small(7, 1, Mode::Original);
        cfg.nbnd = 6;
        let problem = Problem::new(cfg);
        let baseline = run_policy(&problem, SchedulerPolicy::Serial);
        let (seed, victim) = (0u64..)
            .find_map(|s| {
                let flaky: Vec<usize> = (0..7)
                    .filter(|&r| StuckLane::new(s, 0.2, 8).lane_of(r as u64).is_some())
                    .collect();
                (flaky.len() == 1).then(|| (s, flaky[0]))
            })
            .expect("some seed sticks exactly one rank");
        let corruption = CorruptionConfig {
            stuck: Some(StuckLane::new(seed, 0.2, 8)),
            ..CorruptionConfig::off()
        };
        let (out, stats) =
            run_verified(&problem, corruption, VerifyMode::Cheap, &RecoveryConfig::default())
                .expect("survivors finish");
        assert_eq!(stats.probe_failures, vec![victim]);
        assert_eq!(stats.evicted_ranks, vec![victim]);
        assert_eq!(stats.evictions, 1);
        assert_eq!(out.bands, baseline.bands, "eviction changed the answer");
    }

    #[test]
    fn two_flaky_ranks_exceed_the_eviction_path() {
        let problem = problem(2, 2);
        let seed = (0u64..)
            .find(|&s| {
                (0..4)
                    .filter(|&r| StuckLane::new(s, 0.5, 8).lane_of(r as u64).is_some())
                    .count()
                    > 1
            })
            .expect("some seed sticks two ranks");
        let corruption = CorruptionConfig {
            stuck: Some(StuckLane::new(seed, 0.5, 8)),
            ..CorruptionConfig::off()
        };
        let Err(err) = run_verified(&problem, corruption, VerifyMode::Cheap, &RecoveryConfig::default())
        else {
            panic!("one eviction per run: two flaky ranks must escalate");
        };
        assert!(matches!(err, VmpiError::Integrity { .. }));
    }

    #[test]
    fn verified_runs_are_deterministic() {
        let problem = problem(2, 2);
        let corruption = CorruptionConfig {
            bitflip: Some(BitFlip::new(31, 0.5, 2)),
            ..CorruptionConfig::off()
        };
        let run = || {
            run_verified(&problem, corruption, VerifyMode::Cheap, &RecoveryConfig::default())
                .expect("bounded transients recover")
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a.bands, b.bands);
        assert_eq!(sa, sb, "stats must replay identically");
    }
}
