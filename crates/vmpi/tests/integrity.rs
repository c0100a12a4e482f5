//! Integration tests of the checksummed exchange: seeded payload
//! corruption on the staged "wire" copy must surface as a typed
//! [`VmpiError::Integrity`] on the receiving rank — never as silently
//! wrong numbers — and a clean transport must never trip a checksum.

use fftx_fault::PayloadCorrupt;
use fftx_vmpi::{ChaosConfig, VmpiError, World};
use std::time::Duration;

fn world(n: usize) -> World {
    World::new(n).with_timeout(Duration::from_secs(10))
}

fn corrupting_world(n: usize, seed: u64, p: f64) -> World {
    let cfg = ChaosConfig {
        seed,
        ..ChaosConfig::default()
    }
    .with_corruption(PayloadCorrupt::new(seed, p));
    world(n).with_chaos(cfg)
}

/// The uniform alltoall payload rank `r` sends in these tests: chunk `j`
/// carries values encoding `(r, j, position)`.
fn payload(rank: usize, size: usize, count: usize) -> Vec<f64> {
    (0..size * count)
        .map(|i| (rank * 1000 + i) as f64 + 0.5)
        .collect()
}

/// What the clean exchange must deliver to `rank`.
fn expected(rank: usize, size: usize, count: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(size * count);
    for src in 0..size {
        let theirs = payload(src, size, count);
        out.extend_from_slice(&theirs[rank * count..(rank + 1) * count]);
    }
    out
}

#[test]
fn clean_exchange_never_trips_a_checksum() {
    let size = 4;
    let out = world(size).run(move |comm| {
        let send = payload(comm.rank(), size, 3);
        let mut recv = Vec::new();
        comm.try_alltoall_into(&send, &mut recv, 7)?;
        let mut nb = Vec::new();
        comm.ialltoall(&send, 8).try_wait_into(&mut nb)?;
        assert_eq!(nb, recv, "blocking and split-phase must agree");
        Ok::<Vec<f64>, VmpiError>(recv)
    });
    for (rank, r) in out.into_iter().enumerate() {
        assert_eq!(r.expect("clean exchange"), expected(rank, size, 3));
    }
}

#[test]
fn full_rate_corruption_is_always_detected_in_alltoall() {
    let size = 4;
    let out = corrupting_world(size, 42, 1.0).run(move |comm| {
        let send = payload(comm.rank(), size, 5);
        let mut recv = vec![-1.0f64];
        let err = comm
            .try_alltoall_into(&send, &mut recv, 7)
            .expect_err("every chunk is struck at p=1.0");
        // Nothing corrupted may reach the caller's buffer.
        assert_eq!(recv, vec![-1.0], "recv untouched on detection");
        err
    });
    for e in out {
        match e {
            VmpiError::Integrity { peer, tag, expected, got } => {
                assert!(peer < size);
                assert_eq!(tag, 7);
                assert_ne!(expected, got);
            }
            other => panic!("expected Integrity, got {other}"),
        }
    }
}

#[test]
fn full_rate_corruption_is_always_detected_in_alltoallv() {
    let size = 3;
    let out = corrupting_world(size, 7, 1.0).run(move |comm| {
        let me = comm.rank();
        // Variable segment lengths: rank r sends j+1 elements to rank j.
        let send_counts: Vec<usize> = (0..size).map(|j| j + 1).collect();
        let send: Vec<f64> = (0..send_counts.iter().sum::<usize>())
            .map(|i| (me * 100 + i) as f64)
            .collect();
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        let err = comm
            .try_alltoallv_into(&send, &send_counts, &mut recv, &mut recv_counts, 9)
            .expect_err("every segment is struck at p=1.0");
        assert!(recv.is_empty(), "no partial delivery on detection");
        assert!(recv_counts.is_empty());
        err
    });
    for e in out {
        assert!(
            matches!(e, VmpiError::Integrity { tag: 9, .. }),
            "expected Integrity, got {e}"
        );
    }
}

#[test]
fn split_phase_wait_detects_corruption() {
    let size = 2;
    let out = corrupting_world(size, 99, 1.0).run(move |comm| {
        let send = payload(comm.rank(), size, 4);
        let mut recv = vec![-1.0f64];
        let err = comm.ialltoall(&send, 3).try_wait_into(&mut recv).expect_err("struck");
        assert_eq!(recv, vec![-1.0], "recv untouched on detection");
        err
    });
    for e in out {
        assert!(matches!(e, VmpiError::Integrity { tag: 3, .. }));
    }
}

#[test]
fn empty_chunks_never_false_positive_even_when_struck() {
    let size = 3;
    let out = corrupting_world(size, 5, 1.0).run(move |comm| {
        // A strike against a zero-length segment has nothing to flip; the
        // checksum of "nothing" must still verify.
        let send: Vec<f64> = Vec::new();
        let counts = vec![0usize; size];
        let mut recv = Vec::new();
        let mut recv_counts = Vec::new();
        comm.try_alltoallv_into(&send, &counts, &mut recv, &mut recv_counts, 1)?;
        Ok::<usize, VmpiError>(recv.len())
    });
    for r in out {
        assert_eq!(r.expect("empty exchange is clean"), 0);
    }
}

#[test]
fn every_delivered_result_is_bit_identical_to_the_clean_run() {
    // The zero-corrupted-results-delivered property at a moderate strike
    // rate: over many exchanges, each rank either gets a typed Integrity
    // error or *exactly* the clean payload — never a third outcome.
    let size = 4;
    let count = 6;
    let rounds = 40;
    let out = corrupting_world(size, 2024, 0.25).run(move |comm| {
        let me = comm.rank();
        let send = payload(me, size, count);
        let want = expected(me, size, count);
        let mut detected = 0usize;
        let mut clean = 0usize;
        for round in 0..rounds {
            let mut recv = Vec::new();
            match comm.try_alltoall_into(&send, &mut recv, 11 + round) {
                Ok(()) => {
                    assert_eq!(recv, want, "delivered data must be bit-identical");
                    clean += 1;
                }
                Err(VmpiError::Integrity { .. }) => detected += 1,
                Err(other) => panic!("unexpected transport error: {other}"),
            }
        }
        (detected, clean)
    });
    let total_detected: usize = out.iter().map(|(d, _)| d).sum();
    let total_clean: usize = out.iter().map(|(_, c)| c).sum();
    assert!(total_detected > 0, "p=0.25 over {rounds} rounds must strike");
    assert!(total_clean > 0, "p=0.25 must leave some exchanges clean");
}

#[test]
fn detection_is_deterministic_in_the_seed() {
    let size = 3;
    let run = |seed: u64| {
        corrupting_world(size, seed, 0.5).run(move |comm| {
            let send = payload(comm.rank(), size, 2);
            (0..20u32)
                .map(|round| {
                    comm.try_alltoall_into(&send, &mut Vec::new(), 50 + round)
                        .is_err()
                })
                .collect::<Vec<bool>>()
        })
    };
    assert_eq!(run(77), run(77), "same seed, same detection schedule");
    assert_ne!(run(77), run(78), "different seeds differ somewhere");
}
