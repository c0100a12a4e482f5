//! Tests of the split-phase (nonblocking) collectives: semantics identical
//! to the blocking alltoall, overlap actually possible, mixing of blocking
//! and nonblocking calls, and the lost-request diagnostic.

use fftx_vmpi::World;
use std::time::Duration;

fn world(n: usize) -> World {
    World::new(n).with_timeout(Duration::from_secs(10))
}

#[test]
fn ialltoall_matches_blocking_semantics() {
    let n = 4;
    let count = 3;
    let out = world(n).run(|comm| {
        let me = comm.rank();
        let send: Vec<u64> = (0..n * count)
            .map(|i| (me * 100 + (i / count) * 10 + i % count) as u64)
            .collect();
        let mut recv = Vec::new();
        comm.ialltoall(&send, 0).wait_into(&mut recv);
        recv
    });
    for (me, recv) in out.into_iter().enumerate() {
        for j in 0..n {
            for k in 0..count {
                assert_eq!(recv[j * count + k], (j * 100 + me * 10 + k) as u64);
            }
        }
    }
}

#[test]
fn work_happens_between_post_and_wait() {
    // Every rank posts, computes something, then waits — the exchange must
    // complete regardless of what happens in between.
    let out = world(3).run(|comm| {
        let send = vec![comm.rank() as f64; 3];
        let req = comm.ialltoall(&send, 0);
        assert!(req.posted_at() >= 0.0);
        // Simulated overlapped compute.
        let mut acc = 0.0;
        for i in 0..10_000 {
            acc += (i as f64).sqrt();
        }
        let mut recv = Vec::new();
        req.wait_into(&mut recv);
        (recv, acc)
    });
    for (recv, _) in out {
        assert_eq!(recv, vec![0.0, 1.0, 2.0]);
    }
}

#[test]
fn test_eventually_reports_completion() {
    let out = world(2).run(|comm| {
        let send = vec![comm.rank() as u32; 2];
        let req = comm.ialltoall(&send, 0);
        // Both ranks have posted by the time either can spin for long;
        // poll until complete, then collect.
        let mut polls = 0usize;
        while !req.test() {
            polls += 1;
            std::thread::yield_now();
            assert!(polls < 10_000_000, "test() never became true");
        }
        let mut recv = Vec::new();
        req.wait_into(&mut recv);
        recv
    });
    assert_eq!(out[0], vec![0, 1]);
    assert_eq!(out[1], vec![0, 1]);
}

#[test]
fn several_requests_in_flight() {
    let n = 3;
    let out = world(n).run(|comm| {
        let reqs: Vec<_> = (0..4u32)
            .map(|tag| {
                let send: Vec<u64> = (0..n).map(|d| (tag as usize * 100 + d) as u64).collect();
                comm.ialltoall(&send, tag)
            })
            .collect();
        reqs.into_iter()
            .map(|r| {
                let mut recv = Vec::new();
                r.wait_into(&mut recv);
                recv
            })
            .collect::<Vec<_>>()
    });
    for recv_sets in out {
        for (tag, recv) in recv_sets.iter().enumerate() {
            for (j, &v) in recv.iter().enumerate() {
                let me_chunk = v as usize % 100;
                assert_eq!(v as usize / 100, tag, "from rank {j}");
                let _ = me_chunk;
            }
        }
    }
}

#[test]
fn mixes_with_blocking_alltoall_in_order() {
    let out = world(2).run(|comm| {
        let a = comm.ialltoall(&[comm.rank() as u32, comm.rank() as u32], 0);
        let mut b = Vec::new();
        comm.alltoall_into(
            &[10 + comm.rank() as u32, 10 + comm.rank() as u32],
            &mut b,
            0,
        );
        let mut a_recv = Vec::new();
        a.wait_into(&mut a_recv);
        (a_recv, b)
    });
    for (a, b) in out {
        assert_eq!(a, vec![0, 1]);
        assert_eq!(b, vec![10, 11]);
    }
}

#[test]
fn wait_records_only_the_wait_interval() {
    use fftx_trace::{CommOp, TraceSink};
    let sink = TraceSink::new();
    World::new(2)
        .with_trace(sink.clone())
        .with_timeout(Duration::from_secs(10))
        .run(|comm| {
            let req = comm.ialltoall(&[1u8, 2], 0);
            // Both ranks sleep after posting; the transfer completes during
            // the sleep, so the recorded wait must be much shorter.
            std::thread::sleep(Duration::from_millis(30));
            let posted = req.posted_at();
            let mut out = Vec::new();
            req.wait_into(&mut out);
            (posted, out)
        });
    let trace = sink.finish();
    let rec = trace
        .comm
        .iter()
        .find(|r| r.op == CommOp::Alltoall)
        .expect("alltoall recorded");
    assert!(
        rec.duration() < 0.025,
        "wait interval {}s should exclude the overlapped transfer",
        rec.duration()
    );
}

#[test]
#[should_panic(expected = "dropped without wait")]
fn dropping_a_request_is_a_loud_error() {
    world(1).run(|comm| {
        let req = comm.ialltoall(&[1u8], 0);
        drop(req);
    });
}
