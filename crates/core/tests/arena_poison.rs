//! Proof that scatter-chunk padding is dead: with `FFTX_ARENA_POISON=1`
//! every reused scatter staging buffer is NaN-filled before each pack, so
//! if any unpack step ever read a padding slot (including padding slots
//! *transmitted* inside a peer's padded chunk) the NaNs would propagate
//! into the bands. The run must still match the golden bitwise hashes
//! captured from the pre-refactor engines.
//!
//! This lives in its own integration-test binary because the knob is read
//! once per process ([`fftx_core::plan::arena_poison`] caches it): the env
//! var must be set before the first arena touch, which a dedicated process
//! guarantees.

use fftx_core::{
    run_eviction, run_policy, run_policy_chaotic, run_rollback, run_verified, FftxConfig, Mode,
    Problem, SchedulerPolicy, VerifyMode,
};
use fftx_fault::{BatchAborts, CorruptionConfig, RankDeath, RecoveryConfig};
use fftx_fft::Complex64;
use fftx_vmpi::{ChaosConfig, StallConfig};
use std::collections::HashMap;
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bitwise.txt");

/// Same FNV-1a as the golden suite (tests cannot share code without a
/// support crate; the constant + loop are the whole contract).
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

fn golden() -> HashMap<String, u64> {
    let text = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (name, hash) = line.split_once(' ').expect("golden line format");
        out.insert(
            name.to_string(),
            u64::from_str_radix(hash.trim(), 16).expect("golden hash format"),
        );
    }
    out
}

#[test]
fn poisoned_padding_never_reaches_the_bands() {
    // Before any engine runs in this process; cached on first read.
    std::env::set_var("FFTX_ARENA_POISON", "1");
    assert!(fftx_core::plan::arena_poison(), "knob must be active");
    let want = golden();
    let check = |name: &str, bands: &[Vec<Complex64>]| {
        let h = hash_bands(bands);
        let w = want
            .get(name)
            .unwrap_or_else(|| panic!("scenario {name} missing from the golden file"));
        assert_eq!(&h, w, "{name}: poisoned padding leaked into the bands");
    };

    let modes = [
        Mode::Original,
        Mode::TaskPerFft,
        Mode::TaskPerStep,
        Mode::TaskAsync,
    ];
    // Clean runs: every mode on a square and a rectangular factorisation,
    // plus the pure-scatter extreme.
    for mode in modes {
        for (nr, ntg) in [(2, 2), (2, 3)] {
            let problem = Problem::new(FftxConfig::small(nr, ntg, mode));
            let run = run_policy(&problem, SchedulerPolicy::for_mode(mode));
            check(&format!("clean/{}/{}x{}", mode.name(), nr, ntg), &run.bands);
        }
    }
    let problem = Problem::new(FftxConfig::small(4, 1, Mode::Original));
    let run = run_policy(&problem, SchedulerPolicy::Serial);
    check("clean/original/4x1", &run.bands);

    // Chaos: retried/stalled transport must not resurrect padding reads.
    for mode in modes {
        let problem = Problem::new(FftxConfig::small(2, 2, mode));
        let chaos =
            ChaosConfig::aggressive(7).with_stall(StallConfig::rank(0, Duration::from_millis(1), 3));
        let (run, report) =
            run_policy_chaotic(&problem, SchedulerPolicy::for_mode(mode), Some(chaos));
        assert!(report.is_some(), "chaos must be active");
        check(&format!("chaos/{}/seed7", mode.name()), &run.bands);
    }

    // Recovery: replays reuse the poisoned buffers; eviction re-fits the
    // arena to the re-planned geometry (a fresh poison fill).
    let problem = Problem::new(FftxConfig::small(2, 2, Mode::Original));
    let (run, _) = run_rollback(
        &problem,
        Some(BatchAborts::new(9, 1.0, 2)),
        &RecoveryConfig::default(),
    )
    .expect("rollback budget absorbs the injected aborts");
    check("recovery/rollback/seed9", &run.bands);

    // Verified rollback: a detected batch is restored from its checkpoint
    // and replayed through the poisoned buffers, landing on the clean
    // serial answer.
    let (run, stats) = run_verified(
        &problem,
        CorruptionConfig::transient(9, 1.0),
        VerifyMode::Cheap,
        &RecoveryConfig::default(),
    )
    .expect("bounded transients clear within the rollback budget");
    assert!(stats.detected_batches > 0, "rate 1.0 must strike and be seen");
    assert!(stats.batch_rollbacks > 0);
    check("clean/original/2x2", &run.bands);

    let mut cfg = FftxConfig::small(7, 1, Mode::Original);
    cfg.nbnd = 6;
    let problem = Problem::new(cfg);
    let (run, stats) = run_eviction(&problem, RankDeath::at(3, 2), &RecoveryConfig::default())
        .expect("survivors finish the run");
    assert_eq!(stats.layout_after, (3, 2));
    check("recovery/eviction/victim3@2", &run.bands);
}
