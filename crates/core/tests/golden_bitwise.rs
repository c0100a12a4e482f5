//! Golden bitwise-equality suite: pins the exact `RunOutput.bands` bits of
//! every execution engine — all modes, several (R,T) factorisations, seeded
//! transport chaos, and the recovery paths (batch rollback and rank
//! eviction with layout re-planning) — against hashes captured from the
//! pre-refactor engines.
//!
//! The planned execution engine (ExecPlan + BufferArena + zero-copy
//! collectives) must be a pure data-movement refactor: same FFTs on the
//! same values in the same order. Any reordering of floating-point work
//! changes bits and fails here.
//!
//! Re-blessing (only legitimate when the *mathematical pipeline* changes,
//! never for a data-movement refactor):
//! `FFTX_GOLDEN_BLESS=1 cargo test -p fftx-core --test golden_bitwise`

use fftx_core::{
    run_eviction, run_policy, run_policy_chaotic, run_rollback, Cell, Decomposition, FftGrid,
    FftxConfig, Mode, Problem, SchedulerPolicy, DUAL,
};
use fftx_fault::{BatchAborts, RankDeath, RecoveryConfig};
use fftx_fft::Complex64;
use fftx_vmpi::{ChaosConfig, StallConfig};
use std::fmt::Write as _;
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bitwise.txt");

/// FNV-1a over the exact bit patterns of every coefficient (lengths mixed
/// in, so shape changes cannot alias with value changes).
fn hash_bands(bands: &[Vec<Complex64>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(bands.len() as u64);
    for band in bands {
        eat(band.len() as u64);
        for c in band {
            eat(c.re.to_bits());
            eat(c.im.to_bits());
        }
    }
    h
}

/// The chaos profile of the chaos-determinism proptest: aggressive seeded
/// transport faults plus a straggler stall on rank 0.
fn chaos(seed: u64) -> ChaosConfig {
    ChaosConfig::aggressive(seed).with_stall(StallConfig::rank(0, Duration::from_millis(1), 3))
}

fn eviction_config() -> FftxConfig {
    // 7 ranks as 7×1 over 6 bands; evicting one re-plans to 3×2.
    let mut c = FftxConfig::small(7, 1, Mode::Original);
    c.nbnd = 6;
    c
}

/// The pencil eviction geometry: 9 ranks as 9×1 (a real 3×3 process grid)
/// over 6 bands; evicting one re-plans to 4×2 (a real 2×2 grid), so both
/// phases of the eviction path run genuine two-step pencil exchanges.
fn pencil_eviction_config(decomp: Decomposition) -> FftxConfig {
    let mut c = FftxConfig::small(9, 1, Mode::Original);
    c.nbnd = 6;
    c.with_decomp(decomp)
}

/// A problem on a non-power-friendly grid: the z dimension is forced to 41
/// (prime, above the direct-radix limit), so every z-FFT takes the
/// Bluestein path while x/y keep the cutoff-derived sizes.
fn prime41_problem(nr: usize, ntg: usize, mode: Mode, decomp: Decomposition) -> std::sync::Arc<Problem> {
    let cfg = FftxConfig::small(nr, ntg, mode).with_decomp(decomp);
    let cell = Cell::cubic(cfg.alat);
    let base = FftGrid::from_cutoff(&cell, DUAL * cfg.ecutwfc);
    Problem::with_grid(cfg, FftGrid::raw(base.nr1, base.nr2, 41))
}

/// Runs every golden scenario and returns `(name, bands-hash)` pairs.
fn scenarios() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let modes = [
        Mode::Original,
        Mode::TaskPerFft,
        Mode::TaskPerStep,
        Mode::TaskAsync,
        Mode::Hybrid,
    ];

    // Clean runs across (R,T) factorisations.
    for mode in modes {
        for (nr, ntg) in [(2, 2), (3, 2), (2, 3)] {
            let problem = Problem::new(FftxConfig::small(nr, ntg, mode));
            let run = run_policy(&problem, SchedulerPolicy::for_mode(mode));
            out.push((
                format!("clean/{}/{}x{}", mode.name(), nr, ntg),
                hash_bands(&run.bands),
            ));
        }
    }
    // The pure-scatter extreme (T = 1) for the original engine.
    let problem = Problem::new(FftxConfig::small(4, 1, Mode::Original));
    let run = run_policy(&problem, SchedulerPolicy::Serial);
    out.push(("clean/original/4x1".into(), hash_bands(&run.bands)));

    // Chaotic runs: seeded transport faults must be invisible in the bits.
    for mode in modes {
        for seed in [7_u64, 20170814] {
            let problem = Problem::new(FftxConfig::small(2, 2, mode));
            let (run, report) =
                run_policy_chaotic(&problem, SchedulerPolicy::for_mode(mode), Some(chaos(seed)));
            assert!(report.is_some(), "chaos must be active");
            out.push((
                format!("chaos/{}/seed{}", mode.name(), seed),
                hash_bands(&run.bands),
            ));
        }
    }

    // Recovery: a batch rollback (every batch aborts once or twice) ...
    let problem = Problem::new(FftxConfig::small(2, 2, Mode::Original));
    let (run, stats) = run_rollback(
        &problem,
        Some(BatchAborts::new(9, 1.0, 2)),
        &RecoveryConfig::default(),
    )
    .expect("rollback budget absorbs the injected aborts");
    assert!(stats.batch_rollbacks > 0, "profile must trigger rollbacks");
    out.push(("recovery/rollback/seed9".into(), hash_bands(&run.bands)));

    // ... and a rank eviction with layout re-planning (7×1 → 3×2).
    let problem = Problem::new(eviction_config());
    let (run, stats) = run_eviction(
        &problem,
        RankDeath::at(3, 2),
        &RecoveryConfig::default(),
    )
    .expect("survivors finish the run");
    assert_eq!(stats.layout_after, (3, 2));
    out.push(("recovery/eviction/victim3@2".into(), hash_bands(&run.bands)));

    // Pencil lowering, clean: every mode over factorisable rank counts
    // ((4,1) = 2×2 grid, (6,1) = 2×3 grid). Pinned AND asserted equal to
    // the slab run of the identical configuration — the tentpole identity.
    for mode in modes {
        for (nr, ntg) in [(4, 1), (6, 1)] {
            let slab_cfg = FftxConfig::small(nr, ntg, mode);
            let pencil_cfg = slab_cfg.with_decomp(Decomposition::Pencil);
            let policy = SchedulerPolicy::for_mode(mode);
            let slab = run_policy(&Problem::new(slab_cfg), policy);
            let pencil = run_policy(&Problem::new(pencil_cfg), policy);
            let (hs, hp) = (hash_bands(&slab.bands), hash_bands(&pencil.bands));
            assert_eq!(
                hs, hp,
                "pencil clean bits must match slab: {} {}x{}",
                mode.name(), nr, ntg
            );
            out.push((format!("pencil/clean/{}/{}x{}", mode.name(), nr, ntg), hp));
        }
    }

    // Pencil under seeded transport chaos: the two extra exchange hops of
    // the pencil path must absorb the same faults to the same bits.
    for mode in modes {
        let slab_cfg = FftxConfig::small(4, 1, mode);
        let pencil_cfg = slab_cfg.with_decomp(Decomposition::Pencil);
        let policy = SchedulerPolicy::for_mode(mode);
        let (slab, _) = run_policy_chaotic(&Problem::new(slab_cfg), policy, Some(chaos(20170814)));
        let (pencil, report) =
            run_policy_chaotic(&Problem::new(pencil_cfg), policy, Some(chaos(20170814)));
        assert!(report.is_some(), "chaos must be active");
        let (hs, hp) = (hash_bands(&slab.bands), hash_bands(&pencil.bands));
        assert_eq!(hs, hp, "pencil chaos bits must match slab: {}", mode.name());
        out.push((format!("pencil/chaos/{}/seed20170814", mode.name()), hp));
    }

    // Pencil through batch rollback ...
    let slab_p = Problem::new(FftxConfig::small(4, 1, Mode::Original));
    let pencil_p =
        Problem::new(FftxConfig::small(4, 1, Mode::Original).with_decomp(Decomposition::Pencil));
    let aborts = || Some(BatchAborts::new(9, 1.0, 2));
    let (slab, _) = run_rollback(&slab_p, aborts(), &RecoveryConfig::default())
        .expect("rollback budget absorbs the injected aborts");
    let (pencil, stats) = run_rollback(&pencil_p, aborts(), &RecoveryConfig::default())
        .expect("rollback budget absorbs the injected aborts");
    assert!(stats.batch_rollbacks > 0, "profile must trigger rollbacks");
    let (hs, hp) = (hash_bands(&slab.bands), hash_bands(&pencil.bands));
    assert_eq!(hs, hp, "pencil rollback bits must match slab");
    out.push(("pencil/recovery/rollback/seed9".into(), hp));

    // ... and rank eviction with re-planning (9×1 → 4×2): both the 3×3
    // pre-death grid and the re-planned 2×2 grid are genuine pencil grids.
    let slab_p = Problem::new(pencil_eviction_config(Decomposition::Slab));
    let pencil_p = Problem::new(pencil_eviction_config(Decomposition::Pencil));
    let (slab, _) = run_eviction(&slab_p, RankDeath::at(3, 2), &RecoveryConfig::default())
        .expect("survivors finish the run");
    let (pencil, stats) = run_eviction(&pencil_p, RankDeath::at(3, 2), &RecoveryConfig::default())
        .expect("survivors finish the run");
    assert_eq!(stats.layout_after, (4, 2), "8 survivors re-plan to 4×2");
    let (hs, hp) = (hash_bands(&slab.bands), hash_bands(&pencil.bands));
    assert_eq!(hs, hp, "pencil eviction bits must match slab");
    out.push(("pencil/recovery/eviction/victim3@2".into(), hp));

    // Non-power-friendly geometry: z = 41 (prime, Bluestein path) under
    // both decompositions, every mode.
    for mode in modes {
        let policy = SchedulerPolicy::for_mode(mode);
        let slab = run_policy(&prime41_problem(4, 1, mode, Decomposition::Slab), policy);
        let pencil = run_policy(&prime41_problem(4, 1, mode, Decomposition::Pencil), policy);
        let (hs, hp) = (hash_bands(&slab.bands), hash_bands(&pencil.bands));
        assert_eq!(hs, hp, "prime-grid pencil bits must match slab: {}", mode.name());
        out.push((format!("prime41/clean/{}/4x1", mode.name()), hp));
    }

    out
}

fn render(entries: &[(String, u64)]) -> String {
    let mut s = String::from(
        "# Golden bands hashes (FNV-1a over f64 bit patterns), one scenario per line.\n\
         # Captured from the pre-refactor engines; see tests/golden_bitwise.rs.\n",
    );
    for (name, h) in entries {
        let _ = writeln!(s, "{name} {h:016x}");
    }
    s
}

#[test]
fn engines_match_golden_bitwise_hashes() {
    let entries = scenarios();
    if std::env::var_os("FFTX_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
            .expect("create golden dir");
        std::fs::write(GOLDEN_PATH, render(&entries)).expect("write golden file");
        eprintln!("blessed {} scenarios into {GOLDEN_PATH}", entries.len());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run once with FFTX_GOLDEN_BLESS=1");
    let mut expected = std::collections::HashMap::new();
    for line in golden.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (name, hash) = line.split_once(' ').expect("golden line format");
        expected.insert(
            name.to_string(),
            u64::from_str_radix(hash.trim(), 16).expect("golden hash format"),
        );
    }
    assert_eq!(
        expected.len(),
        entries.len(),
        "scenario list drifted from the golden file — re-bless deliberately"
    );
    for (name, h) in &entries {
        let want = expected
            .get(name)
            .unwrap_or_else(|| panic!("scenario {name} missing from the golden file"));
        assert_eq!(
            h, want,
            "{name}: bands differ bitwise from the pre-refactor engines"
        );
    }
}
