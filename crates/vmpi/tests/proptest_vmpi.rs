//! Property tests: alltoall/alltoallv against a sequential permutation
//! oracle for random rank counts and payload shapes.

use fftx_vmpi::World;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alltoall_is_a_block_transpose(n in 1usize..6, count in 1usize..8) {
        let out = World::new(n)
            .with_timeout(Duration::from_secs(20))
            .run(|comm| {
                let me = comm.rank();
                let send: Vec<u64> = (0..n * count)
                    .map(|i| (me * 10_000 + i) as u64)
                    .collect();
                let mut recv = Vec::new();
                comm.alltoall_into(&send, &mut recv, 0);
                recv
            });
        for (me, recv) in out.into_iter().enumerate() {
            for j in 0..n {
                for k in 0..count {
                    let expect = (j * 10_000 + me * count + k) as u64;
                    prop_assert_eq!(recv[j * count + k], expect);
                }
            }
        }
    }

    #[test]
    fn alltoallv_conserves_every_element(
        n in 1usize..5,
        counts in proptest::collection::vec(0usize..7, 25),
    ) {
        // counts[src * n + dst] elements from src to dst (matrix truncated
        // to the n*n prefix).
        let matrix: Vec<Vec<usize>> = (0..n)
            .map(|s| (0..n).map(|d| counts[(s * n + d) % counts.len()]).collect())
            .collect();
        let matrix_ref = &matrix;
        let out = World::new(n)
            .with_timeout(Duration::from_secs(20))
            .run(move |comm| {
                let me = comm.rank();
                let send: Vec<u64> = (0..n)
                    .flat_map(|dst| {
                        (0..matrix_ref[me][dst]).map(move |k| (me * 1_000_000 + dst * 1000 + k) as u64)
                    })
                    .collect();
                let (mut recv, mut recv_counts) = (Vec::new(), Vec::new());
                comm.alltoallv_into(&send, &matrix_ref[me], &mut recv, &mut recv_counts, 0);
                (recv, recv_counts)
            });
        for (me, (recv, recv_counts)) in out.into_iter().enumerate() {
            prop_assert_eq!(recv_counts.len(), n);
            let mut off = 0;
            for (src, &len) in recv_counts.iter().enumerate() {
                let expect: Vec<u64> = (0..matrix[src][me])
                    .map(|k| (src * 1_000_000 + me * 1000 + k) as u64)
                    .collect();
                prop_assert_eq!(&recv[off..off + len], &expect[..], "dst {} from {}", me, src);
                off += len;
            }
            prop_assert_eq!(off, recv.len());
        }
    }

    #[test]
    fn split_partitions_the_world(n in 1usize..8, modulo in 1usize..4) {
        let out = World::new(n)
            .with_timeout(Duration::from_secs(20))
            .run(|comm| {
                let sub = comm.split((comm.rank() % modulo) as u64, comm.rank());
                (sub.members().to_vec(), sub.rank(), sub.id())
            });
        // Groups with the same members share an id; members are sorted and
        // partition 0..n.
        let mut seen = vec![false; n];
        for (me, (members, my_rank, _id)) in out.iter().enumerate() {
            prop_assert_eq!(members[*my_rank], me);
            prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
            for &m in members {
                prop_assert_eq!(m % modulo, me % modulo);
            }
            seen[me] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
        // Same color -> identical communicator id.
        for (a, (ma, _, ida)) in out.iter().enumerate() {
            for (b, (mb, _, idb)) in out.iter().enumerate() {
                if a % modulo == b % modulo {
                    prop_assert_eq!(ma, mb);
                    prop_assert_eq!(ida, idb);
                }
            }
        }
    }
}
