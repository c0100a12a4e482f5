//! Hardening tests: scenarios that used to hang (until the 60 s world
//! timeout tore the process down with a bare panic) now come back as typed
//! [`VmpiError`] values with a watchdog diagnostic, and the chaos engine
//! perturbs the transport without ever changing what is delivered.

use fftx_fault::{ChaosConfig, FaultKind, StallConfig};
use fftx_vmpi::{VmpiError, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

// ---------------------------------------------------------------------
// Watchdog: previously-hanging scenarios become Err with a diagnostic
// ---------------------------------------------------------------------

/// Scenario 1: a rank never contributes to a collective. The survivors'
/// waits used to hang (then panic); `try_alltoall_into` now returns a timeout
/// error whose diagnostic shows who arrived and who is missing.
#[test]
fn lost_contribution_times_out_with_diagnostic() {
    let out = World::new(3)
        .with_timeout(Duration::from_millis(300))
        .run(|comm| {
            if comm.rank() == 2 {
                // This rank "fails" before the collective.
                return None;
            }
            let send = vec![comm.rank() as u64; 3];
            Some(comm.try_alltoall_into(&send, &mut Vec::new(), 0))
        });
    assert!(out[2].is_none());
    for r in [&out[0], &out[1]] {
        let err = r.as_ref().unwrap().as_ref().unwrap_err();
        match err {
            VmpiError::Timeout {
                message,
                diagnostic,
            } => {
                assert!(
                    message.contains("vmpi deadlock") && message.contains("2/3 arrived"),
                    "message: {message}"
                );
                assert!(
                    diagnostic.contains("pending collective") && diagnostic.contains("2 arrived"),
                    "diagnostic: {diagnostic}"
                );
                // The snapshot names every rank's last event.
                assert!(diagnostic.contains("rank 0:") && diagnostic.contains("rank 2:"));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }
}

/// A recv with no matching sender times out with the classic one-liner
/// plus the world snapshot.
#[test]
fn recv_timeout_reports_diagnostic() {
    let out = World::new(2)
        .with_timeout(Duration::from_millis(200))
        .run(|comm| {
            if comm.rank() == 0 {
                comm.try_recv::<u32>(1, 5).map(|_| ())
            } else {
                Ok(())
            }
        });
    let err = out[0].as_ref().unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("stuck in recv(src=1, tag=5)"),
        "error text: {text}"
    );
    assert!(text.contains("world snapshot"), "error text: {text}");
}

/// Scenario 2 (the dropped `AlltoallRequest`): the dropping rank still
/// panics loudly, but now it also cleans up its collective slot and aborts
/// the world, so peers that try to join the same collective fail fast with
/// a typed error naming the communicator and tag — and no slot leaks.
#[test]
fn dropped_request_aborts_world_without_leaking_slots() {
    let out = World::new(3)
        .with_timeout(Duration::from_secs(10))
        .run(|comm| {
            if comm.rank() == 0 {
                let req = comm.ialltoall(&[1u8, 2, 3], 7);
                let panicked = catch_unwind(AssertUnwindSafe(move || drop(req))).is_err();
                assert!(panicked, "dropping a live request must panic");
                // The dropped request's slot must be gone immediately.
                assert_eq!(comm.pending_collectives(), 0, "slot leaked by drop");
                // Release the peers (p2p still works after the abort).
                comm.send(1, 99, vec![0u8]);
                comm.send(2, 99, vec![0u8]);
                Ok(())
            } else {
                comm.recv::<u8>(0, 99);
                let r = comm.try_alltoall_into(&[9u8, 9, 9], &mut Vec::new(), 7);
                assert_eq!(comm.pending_collectives(), 0, "slot leaked at peer");
                r
            }
        });
    for r in [&out[1], &out[2]] {
        match r.as_ref().unwrap_err() {
            VmpiError::DroppedRequest { comm, tag, .. } => {
                assert_eq!((*comm, *tag), (0, 7));
            }
            other => panic!("expected DroppedRequest, got {other:?}"),
        }
    }
    let text = out[1].as_ref().unwrap_err().to_string();
    assert!(text.contains("comm 0") && text.contains("tag 7"), "{text}");
}

/// A payload type mismatch is a typed error from `try_recv` (and still a
/// panic with the legacy wording from `recv`).
#[test]
fn type_mismatch_is_a_typed_error() {
    let out = World::new(2)
        .with_timeout(Duration::from_secs(5))
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1u32, 2, 3]);
                Ok(())
            } else {
                comm.try_recv::<f64>(0, 0).map(|_| ())
            }
        });
    match out[1].as_ref().unwrap_err() {
        VmpiError::TypeMismatch { .. } => {}
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    assert!(out[1]
        .as_ref()
        .unwrap_err()
        .to_string()
        .contains("element type mismatch with sender"));
}

// ---------------------------------------------------------------------
// Chaos engine: faults perturb timing, never payloads or order
// ---------------------------------------------------------------------

fn p2p_exchange(comm: &fftx_vmpi::Communicator, rounds: usize) -> Vec<Vec<u64>> {
    let n = comm.size();
    let me = comm.rank();
    for round in 0..rounds {
        for dst in 0..n {
            if dst != me {
                comm.send(dst, 3, vec![(me * 1000 + round) as u64]);
            }
        }
    }
    // Receive everything in (src, round) order; chaos must not change it.
    let mut got = Vec::new();
    for src in 0..n {
        if src == me {
            continue;
        }
        let mut from_src = Vec::new();
        for _ in 0..rounds {
            from_src.extend(comm.recv::<u64>(src, 3));
        }
        got.push(from_src);
    }
    got
}

#[test]
fn chaos_transport_is_lossless_and_in_order() {
    let clean = World::new(3)
        .with_timeout(Duration::from_secs(20))
        .run(|comm| p2p_exchange(comm, 12));
    let chaotic_world = World::new(3)
        .with_timeout(Duration::from_secs(20))
        .with_chaos(ChaosConfig::aggressive(0xC0FFEE));
    let chaotic = chaotic_world.run(|comm| p2p_exchange(comm, 12));
    assert_eq!(clean, chaotic, "chaos changed delivered data or order");
    let report = chaotic_world.fault_report().expect("chaos active");
    assert!(
        !report.events.is_empty(),
        "aggressive chaos injected nothing over 72 messages"
    );
    assert!(!report.deliveries.is_empty());
}

#[test]
fn chaos_preserves_collective_results() {
    let n = 4;
    let run = |world: World| {
        world.with_timeout(Duration::from_secs(20)).run(|comm| {
            let send: Vec<u64> = (0..n * 2).map(|i| (comm.rank() * 100 + i) as u64).collect();
            let mut a2a = Vec::new();
            comm.alltoall_into(&send, &mut a2a, 1);
            let sum = comm.allreduce_sum(vec![comm.rank() as f64]);
            (a2a, sum)
        })
    };
    let clean = run(World::new(n));
    let chaotic = run(World::new(n).with_chaos(ChaosConfig::aggressive(7)));
    assert_eq!(clean, chaotic);
}

#[test]
fn same_seed_reproduces_the_fault_schedule() {
    let run = |seed: u64| {
        let world = World::new(3)
            .with_timeout(Duration::from_secs(20))
            .with_chaos(ChaosConfig::aggressive(seed));
        world.run(|comm| p2p_exchange(comm, 8));
        world.fault_report().unwrap()
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

#[test]
fn stall_injection_records_straggler_events() {
    let cfg = ChaosConfig {
        seed: 5,
        ..ChaosConfig::default()
    }
    .with_stall(StallConfig::rank(1, Duration::from_millis(5), 2));
    let world = World::new(2)
        .with_timeout(Duration::from_secs(10))
        .with_chaos(cfg);
    world.run(|comm| {
        for _ in 0..4 {
            comm.barrier();
        }
    });
    let report = world.fault_report().unwrap();
    // Rank 1 enters 4 collectives, stalling on entries 0 and 2.
    assert_eq!(report.count(FaultKind::Stall), 2);
    for e in report.events {
        assert_eq!(e.src, 1, "only rank 1 is configured to stall");
    }
}

// ---------------------------------------------------------------------
// Fatal faults and recovery primitives
// ---------------------------------------------------------------------

/// Permanent message loss (the opt-in fatal chaos knob) surfaces at the
/// receiver as a typed timeout — not a hang, not a panic — and the report
/// names the lost message.
#[test]
fn permanent_loss_becomes_a_typed_timeout() {
    let cfg = ChaosConfig {
        seed: 9,
        ..ChaosConfig::default()
    }
    .with_loss(1.0);
    let world = World::new(2)
        .with_timeout(Duration::from_millis(300))
        .with_chaos(cfg);
    let out = world.run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 4, vec![42u64]);
            Ok(vec![])
        } else {
            comm.try_recv::<u64>(0, 4)
        }
    });
    match out[1].as_ref().unwrap_err() {
        VmpiError::Timeout { message, .. } => {
            assert!(message.contains("stuck in recv"), "{message}");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    let report = world.fault_report().unwrap();
    assert_eq!(report.count(FaultKind::Loss), 1);
    assert!(report.deliveries.is_empty(), "a lost message was delivered");
}

/// A duplicate contribution — one rank posting twice into the same
/// `(kind, tag, seq)` instance — is now a propagated [`VmpiError::Protocol`]
/// from the `try_*` family instead of an assert deep inside
/// `collective_post`, and the world aborts so peers fail fast with the
/// same typed cause. The deterministic trigger: two `shrink` calls with
/// identical arguments return handles to the *same* matching space with
/// *independent* sequence counters, so split-phase posts on both collide.
#[test]
fn duplicate_contribution_is_a_typed_protocol_error() {
    let out = World::new(2)
        .with_timeout(Duration::from_secs(10))
        .run(|comm| {
            let a = comm.shrink(&[], 0);
            let b = comm.shrink(&[], 0);
            assert_eq!(a.id(), b.id(), "identical shrinks share a matching space");
            if comm.rank() == 0 {
                let req1 = a.ialltoall(&[1u8, 2], 0);
                // Fresh seq counter on `b`: this second post lands on the
                // same (kind, tag, seq) instance — a duplicate.
                let req2 = b.ialltoall(&[3u8, 4], 0);
                let r2 = req2.try_wait_into(&mut Vec::new());
                let r1 = req1.try_wait_into(&mut Vec::new());
                // The world is aborted; p2p still works to release rank 1.
                comm.send(1, 9, vec![0u8]);
                vec![r1, r2]
            } else {
                comm.recv::<u8>(0, 9);
                vec![b.try_alltoall_into(&[5u8, 6], &mut Vec::new(), 0)]
            }
        });
    for r in out.iter().flatten() {
        match r.as_ref().unwrap_err() {
            VmpiError::Protocol { context } => {
                assert!(context.contains("duplicate contribution"), "{context}");
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
    }
}

/// `shrink` builds the survivors' communicator without any communication:
/// same members minus the dead rank, same relative order, a fresh matching
/// space shared by all survivors, and the shrunk group is fully usable for
/// p2p and collectives.
#[test]
fn shrink_evicts_a_rank_and_keeps_collectives_working() {
    let out = World::new(4)
        .with_timeout(Duration::from_secs(10))
        .run(|comm| {
            if comm.rank() == 2 {
                // The "dead" rank simply stops participating.
                return (u64::MAX, vec![]);
            }
            let small = comm.shrink(&[2], 0);
            assert_eq!(small.size(), 3);
            assert_eq!(small.members(), &[0, 1, 3]);
            // Survivor indices are compacted in order.
            let expect_index = match comm.rank() {
                0 => 0,
                1 => 1,
                3 => 2,
                _ => unreachable!(),
            };
            assert_eq!(small.rank(), expect_index);
            // The shrunk communicator must work for collectives...
            let sums = small.allreduce_sum(vec![comm.rank() as f64]);
            assert_eq!(sums, vec![4.0]);
            // ...and p2p (ring exchange).
            let nxt = (small.rank() + 1) % small.size();
            let prv = (small.rank() + small.size() - 1) % small.size();
            small.send(nxt, 1, vec![small.rank() as u64]);
            let got = small.recv::<u64>(prv, 1);
            assert_eq!(got, vec![prv as u64]);
            (small.id(), small.members().to_vec())
        });
    // Every survivor derived the identical communicator id (symmetric,
    // communication-free agreement) in the high-bit namespace.
    assert_eq!(out[0].0, out[1].0);
    assert_eq!(out[0].0, out[3].0);
    assert!(
        (out[0].0 & (1u64 << 63)) != 0,
        "shrunk ids live in the high-bit namespace"
    );
    // Different epochs give different matching spaces.
    let other = World::new(4)
        .with_timeout(Duration::from_secs(10))
        .run(|comm| {
            if comm.rank() == 2 {
                return (0, 0);
            }
            (comm.shrink(&[2], 0).id(), comm.shrink(&[2], 1).id())
        });
    assert_ne!(other[0].0, other[0].1);
}

/// Duplicates are discarded by sequence number; the report shows both the
/// injection and the discard once the duplicated channel sees more traffic.
#[test]
fn duplicates_are_discarded_not_delivered() {
    let cfg = ChaosConfig {
        seed: 21,
        p_duplicate: 1.0,
        ..ChaosConfig::default()
    };
    let world = World::new(2)
        .with_timeout(Duration::from_secs(10))
        .with_chaos(cfg);
    let out = world.run(|comm| {
        if comm.rank() == 0 {
            for i in 0..10u64 {
                comm.send(1, 0, vec![i]);
            }
            vec![]
        } else {
            (0..10).flat_map(|_| comm.recv::<u64>(0, 0)).collect()
        }
    });
    assert_eq!(out[1], (0..10).collect::<Vec<u64>>());
    let report = world.fault_report().unwrap();
    assert_eq!(report.count(FaultKind::Duplicate), 10);
    assert!(report.count(FaultKind::DuplicateDiscarded) >= 9);
    // Exactly ten real deliveries.
    assert_eq!(report.deliveries.len(), 10);
}
