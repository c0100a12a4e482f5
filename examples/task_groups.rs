//! The FFT task-group trade-off (Section II of the paper): at a fixed rank
//! count, sweep the number of task groups and show how the communication
//! shifts between the pack/unpack `Alltoallv` (neighbouring-rank groups)
//! and the scatter `Alltoall` (strided families) — including the two
//! extreme cases the paper discusses.
//!
//! Run with: `cargo run --release --example task_groups`

use fftxlib_repro::core::{run_policy, Decomposition, FftxConfig, Mode, Problem, SchedulerPolicy};
use fftxlib_repro::trace::{communicator_summary, CommOp};

fn main() {
    let total_ranks = 4usize;
    println!("Task-group sweep at {total_ranks} virtual MPI ranks (real execution)\n");
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>12} {:>12}",
        "ntg", "wall s", "pack calls", "scatter calls", "pack MiB", "scatter MiB"
    );

    for ntg in [1usize, 2, 4] {
        let config = FftxConfig {
            ecutwfc: 6.0,
            alat: 8.0,
            nbnd: 4,
            nr: total_ranks / ntg,
            ntg,
            mode: Mode::Original,
            decomp: Decomposition::Slab,
            seed: 42,
        };
        let problem = Problem::new(config);
        let out = run_policy(&problem, SchedulerPolicy::Serial);

        let pack: Vec<_> = out
            .trace
            .comm
            .iter()
            .filter(|r| r.op == CommOp::Alltoallv)
            .collect();
        let scatter: Vec<_> = out
            .trace
            .comm
            .iter()
            .filter(|r| r.op == CommOp::Alltoall)
            .collect();
        let mib = |v: &[&fftxlib_repro::trace::CommRecord]| {
            v.iter().map(|r| r.bytes).sum::<usize>() as f64 / (1024.0 * 1024.0)
        };
        println!(
            "{:<8} {:>10.4} {:>14} {:>14} {:>12.3} {:>12.3}",
            format!("{} x {}", config.nr, config.ntg),
            out.fft_phase_s,
            pack.len(),
            scatter.len(),
            mib(&pack),
            mib(&scatter),
        );
    }

    println!("\nThe two extremes (paper, Section II):");
    println!("  ntg = 1: pack is local, ALL collective cost sits in the scatter");
    println!("           (which then involves every rank);");
    println!("  ntg = P: the scatter family has a single member (free), ALL cost");
    println!("           sits in the pack/unpack over every rank.\n");

    // Show the communicator structure for the mixed case, like Fig. 3's
    // communicator timeline: 2 pack groups of 2 neighbours, 2 scatter
    // families of 2 strided ranks.
    let config = FftxConfig {
        ecutwfc: 6.0,
        alat: 8.0,
        nbnd: 4,
        nr: 2,
        ntg: 2,
        mode: Mode::Original,
        decomp: Decomposition::Slab,
        seed: 42,
    };
    let problem = Problem::new(config);
    let out = run_policy(&problem, SchedulerPolicy::Serial);
    println!("Communicator usage for 2 x 2 (cf. the paper's Fig. 3):");
    print!("{}", communicator_summary(&out.trace));
    println!("(each rank talks on one pack communicator and one scatter communicator)");
}
