//! The traced drive of an engine call: the benchmark spawns its own
//! `World` with the workload's layout and pushes every band through the
//! public [`StageRunner`](fftx_core::StageRunner) methods in the serial
//! pipeline order, timing each call from outside. A timed barrier before
//! each scatter splits waiting for the slowest rank (sync) from the
//! exchange itself (transfer). Spans stay in memory until the run ends.

use fftx_core::recorder::Recorder;
use fftx_core::{BufferArena, Problem, ScatterComms, SchedulerPolicy, StageKind, StagePlan};
use fftx_fft::Complex64;
use fftx_pw::assemble_shares;
use fftx_vmpi::{Communicator, World};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One stage of the band pipeline.
    Stage(StageKind),
    /// The timed barrier just before the scatter stage it names.
    Sync(StageKind),
    /// Call start to the rank's first stage: world spawn, plans, shares.
    Head,
    /// The rank's last stage to call end: join and band reassembly.
    Tail,
}

impl SpanKind {
    pub fn label(self) -> String {
        match self {
            SpanKind::Stage(k) => k.name().to_string(),
            SpanKind::Sync(k) => format!("sync-{}", k.name()),
            SpanKind::Head => "head".into(),
            SpanKind::Tail => "tail".into(),
        }
    }

    /// Fixed cost per call rather than per-band pipeline work.
    pub fn is_fixed(self) -> bool {
        matches!(self, SpanKind::Head | SpanKind::Tail)
    }
}

/// One timed interval, in seconds since the start of its call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: u32,
    pub rank: u32,
    pub kind: SpanKind,
    pub band: u32,
    pub t0: f64,
    pub t1: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// The outcome of one driven call.
pub struct DriveCall {
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub bands: Vec<Vec<Complex64>>,
}

struct Timer {
    origin: Instant,
    rank: u32,
    spans: Vec<Span>,
}

impl Timer {
    fn time<R>(&mut self, kind: SpanKind, band: usize, f: impl FnOnce() -> R) -> R {
        let t0 = self.origin.elapsed().as_secs_f64();
        let out = f();
        let t1 = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            call: 0,
            rank: self.rank,
            kind,
            band: band as u32,
            t0,
            t1,
        });
        out
    }
}

/// Runs `problem` once under `policy`'s data layout through the traced
/// drive. The serial policy keeps its collective pack over the task group;
/// task policies (layout T = 1) deposit each rank's own share.
pub fn drive(problem: &Problem, policy: SchedulerPolicy, call: u32) -> DriveCall {
    let origin = Instant::now();
    let ranks = problem.config.vmpi_ranks();
    let results = World::new(ranks).run(|comm| rank_drive(problem, policy, comm, origin));
    let l = &problem.layout;
    let bands = (0..problem.config.nbnd)
        .map(|b| {
            let shares: Vec<Vec<Complex64>> = results.iter().map(|(s, _)| s[b].clone()).collect();
            assemble_shares(&l.set, &l.dist, &shares)
        })
        .collect();
    let wall_s = origin.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    for (rank, (_, rank_spans)) in results.into_iter().enumerate() {
        let first = rank_spans.first().map_or(wall_s, |s| s.t0);
        let last = rank_spans.last().map_or(wall_s, |s| s.t1);
        let edge = |kind, t0, t1| Span {
            call,
            rank: rank as u32,
            kind,
            band: 0,
            t0,
            t1,
        };
        spans.push(edge(SpanKind::Head, 0.0, first));
        spans.extend(rank_spans.into_iter().map(|s| Span { call, ..s }));
        spans.push(edge(SpanKind::Tail, last, wall_s));
    }
    DriveCall {
        wall_s,
        spans,
        bands,
    }
}

fn rank_drive(
    problem: &Problem,
    policy: SchedulerPolicy,
    comm: &Communicator,
    origin: Instant,
) -> (Vec<Vec<Complex64>>, Vec<Span>) {
    let cfg = problem.config;
    let l = &problem.layout;
    let w = comm.rank();
    let serial = policy == SchedulerPolicy::Serial;
    // The same communicators the engine builds: the serial policy packs
    // within the task group and scatters across groups; task layouts
    // scatter over the whole world.
    let (g, pack_comm, sc) = if serial {
        let (g, i) = (l.task_group_of(w), l.member_of(w));
        let pack = comm.split(g as u64, i);
        (
            g,
            Some(pack),
            ScatterComms::new(comm.split(i as u64, g), cfg.decomp),
        )
    } else {
        (w, None, ScatterComms::new(comm.clone(), cfg.decomp))
    };
    let rec = Recorder::new(None, comm.clock(), w);
    let sp = StagePlan::for_problem(problem, g);
    let runner = sp.runner(&problem.v, &rec);
    let mut shares = problem.initial_shares(w);
    let mut a = BufferArena::new();
    let mut tm = Timer {
        origin,
        rank: w as u32,
        spans: Vec::new(),
    };
    let t = if serial { l.t } else { 1 };
    let fail = |e: fftx_vmpi::VmpiError| panic!("traced drive: {e}");

    comm.barrier();
    for base in (0..cfg.nbnd).step_by(t) {
        let (tag_fwd, tag_bwd) = if serial {
            (0, 0)
        } else {
            (2 * base as u32, 2 * base as u32 + 1)
        };
        tm.time(SpanKind::Stage(StageKind::Prep), base, || {
            runner.prep(base, &mut a.zbuf, &mut a.planes)
        });
        match &pack_comm {
            Some(pc) => tm
                .time(SpanKind::Stage(StageKind::Pack), base, || {
                    runner.pack_exchange(base, &shares, pc, &mut a)
                })
                .unwrap_or_else(fail),
            None => tm.time(SpanKind::Stage(StageKind::Pack), base, || {
                runner.pack_local(base, &shares[base], &mut a.zbuf)
            }),
        }
        {
            let BufferArena {
                zbuf,
                planes,
                scratch,
                col,
                scatter_send,
                scatter_recv,
                pencil_mid,
                ..
            } = &mut a;
            tm.time(SpanKind::Stage(StageKind::FftZInv), base, || {
                runner.fft_z(StageKind::FftZInv, base, zbuf, scratch)
            });
            tm.time(SpanKind::Sync(StageKind::ScatterFwd), base, || {
                sc.full.barrier()
            });
            tm.time(SpanKind::Stage(StageKind::ScatterFwd), base, || {
                runner.scatter_fwd(
                    base,
                    &sc,
                    tag_fwd,
                    zbuf,
                    planes,
                    scatter_send,
                    scatter_recv,
                    pencil_mid,
                )
            })
            .unwrap_or_else(fail);
            tm.time(SpanKind::Stage(StageKind::FftXyInv), base, || {
                runner.fft_xy(StageKind::FftXyInv, base, planes, scratch, col)
            });
            tm.time(SpanKind::Stage(StageKind::Vofr), base, || {
                runner.vofr(base, planes)
            });
            tm.time(SpanKind::Stage(StageKind::FftXyFwd), base, || {
                runner.fft_xy(StageKind::FftXyFwd, base, planes, scratch, col)
            });
            tm.time(SpanKind::Sync(StageKind::ScatterBwd), base, || {
                sc.full.barrier()
            });
            tm.time(SpanKind::Stage(StageKind::ScatterBwd), base, || {
                runner.scatter_bwd(
                    base,
                    &sc,
                    tag_bwd,
                    planes,
                    zbuf,
                    scatter_send,
                    scatter_recv,
                    pencil_mid,
                )
            })
            .unwrap_or_else(fail);
            tm.time(SpanKind::Stage(StageKind::FftZFwd), base, || {
                runner.fft_z(StageKind::FftZFwd, base, zbuf, scratch)
            });
        }
        match &pack_comm {
            Some(pc) => tm
                .time(SpanKind::Stage(StageKind::Unpack), base, || {
                    runner.unpack_exchange(base, &mut shares, pc, &mut a)
                })
                .unwrap_or_else(fail),
            None => tm.time(SpanKind::Stage(StageKind::Unpack), base, || {
                runner.unpack_local(base, &a.zbuf, &mut shares[base])
            }),
        }
    }
    (shares, tm.spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::bitwise_eq;
    use crate::workload::{Workload, BANDS_PER_CALL};
    use fftx_core::{run_policy, FftxConfig, Mode};

    fn check(cfg: FftxConfig, policy: SchedulerPolicy) {
        let problem = Problem::new(cfg);
        let engine = run_policy(&problem, policy);
        let traced = drive(&problem, policy, 0);
        assert!(
            bitwise_eq(&traced.bands, &engine.bands),
            "{policy:?}: drive differs from run_policy"
        );
        // Every band batch passes all ten stages on every rank.
        let stages = traced
            .spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Stage(_)))
            .count();
        assert_eq!(stages, 10 * cfg.iterations() * cfg.vmpi_ranks());
        let covered: f64 = traced.spans.iter().map(Span::secs).sum();
        let frac = covered / (cfg.vmpi_ranks() as f64 * traced.wall_s);
        assert!(frac > 0.9 && frac <= 1.0 + 1e-9, "attributed {frac}");
    }

    #[test]
    fn paper120_layout_matches_run_policy_bitwise() {
        // The paper120 layout (serial policy, 2x1 slab) on a small geometry.
        let (paper, policy) = Workload::Paper120.engine(11).expect("engine workload");
        let small = FftxConfig {
            ecutwfc: 6.0,
            alat: 8.0,
            ..paper
        };
        check(small, policy);
        // Task groups (T = 2) take the collective pack path.
        check(
            FftxConfig {
                nbnd: BANDS_PER_CALL,
                ..FftxConfig::small(1, 2, Mode::Original)
            },
            policy,
        );
    }

    #[test]
    fn small_batch_layout_matches_run_policy_bitwise() {
        let (cfg, policy) = Workload::SmallBatch.engine(11).expect("engine workload");
        check(cfg, policy);
    }
}
