//! Traced runs: the per-layer ledger. Each layer's public entry is timed
//! from outside at the workload's shapes; the engine call itself goes
//! through the traced drive ([`crate::drive`]) beside untraced
//! `run_policy` calls, whose difference is the tracing overhead.

use crate::drive::{drive, Span, SpanKind};
use crate::e2e::{bitwise_eq, ms_since, reference_deviation, REFERENCE_TOL};
use crate::report::Outcome;
use crate::stats::median;
use crate::workload::{probe_trace, serve_config, serve_trace, Workload, BANDS_PER_CALL};
use crate::{alloc, host};
use fftx_core::{
    build_programs, run_policy, ExecPlan, Problem, SchedulerPolicy, StageKind, BAND_PIPELINE,
};
use fftx_fft::opcount::{fft_flops, fft_xy_batch_flops, fft_z_batch_flops};
use fftx_fft::{cached_plan, cft_1z, cft_2xy_buf, scale_in_place, Complex64, Direction};
use fftx_knlsim::{quick_estimate, simulate, CommModel, ContentionModel};
use fftx_pw::{assemble_shares, generate_potential, Cell, GSphere, StickSet, TaskGroupLayout};
use fftx_serve::{
    assemble, band_hash, class_problem, run_serve, serve_node, Backend, GeometryClass, Request,
    Tuner,
};
use fftx_taskrt::{Handle, Runtime, TaskGraph};
use fftx_trace::{stage_profile, EventLog};
use fftx_vmpi::World;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The Bluestein probe length: the `prime` class's z dimension.
const BLUESTEIN_N: usize = fftx_serve::PRIME_NR3;

/// Runs `f` until at least `min` repetitions and `budget_s` seconds have
/// passed, returning each repetition's seconds.
fn reps<R>(min: usize, budget_s: f64, mut f: impl FnMut() -> R) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (start.elapsed().as_secs_f64() < budget_s && out.len() < 100_000) {
        let t = Instant::now();
        black_box(f());
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Deterministic non-trivial transform input.
fn filled(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|i| Complex64::new((i % 7) as f64 - 3.0, (i % 5) as f64 * 0.5))
        .collect()
}

/// The problem and policy whose shapes every layer is probed at:
/// the engine workloads' own; for `serve-steady`, the `small` class at the
/// tuner's placement for a 4-band batch.
fn shape(w: Workload, seed: u64) -> (Arc<Problem>, SchedulerPolicy) {
    match w.engine(seed) {
        Some((cfg, policy)) => (Problem::new(cfg), policy),
        None => {
            let cfg = serve_config(seed);
            let class = GeometryClass::Small;
            let p = Tuner::new(cfg.tuner)
                .decide(class, BANDS_PER_CALL)
                .placement;
            (
                class_problem(class, p.config(class, BANDS_PER_CALL, cfg.seed)),
                p.policy,
            )
        }
    }
}

/// The whole traced run of workload `w`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::default();
    let (problem, policy) = shape(w, seed);
    let spans = engine_ledger(&mut o, &problem, policy, seconds);
    fft_layer(&mut o, &problem, seconds);
    core_layer(&mut o, &problem);
    pw_layer(&mut o, &problem);
    vmpi_layer(&mut o, &problem);
    taskrt_layer(&mut o, &problem, policy);
    knlsim_layer(&mut o, &problem);
    serve_layer(&mut o, w, seed);
    host_layer(&mut o);
    match write_spans(w, seed, &spans) {
        Ok(path) => o.info("trace.spans_written", "count", spans.len() as f64, &path),
        Err(e) => o.info(
            "trace.spans_written",
            "count",
            0.0,
            &format!("not written: {e}"),
        ),
    }
    o
}

/// Untraced `run_policy` calls beside traced drives of the same problem:
/// the core stage ledger, the scatter sync/transfer split, allocation and
/// trace-record counts, and the tracing overhead.
fn engine_ledger(
    o: &mut Outcome,
    problem: &Arc<Problem>,
    policy: SchedulerPolicy,
    seconds: f64,
) -> Vec<Span> {
    let reference = run_policy(problem, policy);
    let dev = reference_deviation(problem, &reference.bands);
    o.check(dev <= REFERENCE_TOL, || {
        format!("max deviation {dev:.3e} from the serial reference")
    });

    let (mut call_ms, mut allocs, mut events, mut profile_us, mut encode_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while call_ms.len() < 3 || start.elapsed().as_secs_f64() < 0.25 * seconds {
        let a0 = alloc::count();
        let t = Instant::now();
        let out = run_policy(problem, policy);
        call_ms.push(ms_since(t));
        allocs.push((alloc::count() - a0) as f64);
        o.check(bitwise_eq(&out.bands, &reference.bands), || {
            "run_policy differs bitwise between calls".into()
        });
        let tr = &out.trace;
        events.push((tr.compute.len() + tr.comm.len() + tr.tasks.len() + tr.stages.len()) as f64);
        let t = Instant::now();
        black_box(stage_profile(tr));
        profile_us.push(ms_since(t) * 1e3);
        let t = Instant::now();
        black_box(EventLog::from_trace(tr).encode());
        encode_us.push(ms_since(t) * 1e3);
    }

    let mut spans = Vec::new();
    let mut drive_ms = Vec::new();
    let start = Instant::now();
    // Enough drives for stable per-stage sums; the cap bounds the spans
    // held in memory on the small geometries.
    while drive_ms.len() < 3
        || (start.elapsed().as_secs_f64() < 0.3 * seconds && drive_ms.len() < 500)
    {
        let d = drive(problem, policy, drive_ms.len() as u32);
        o.check(bitwise_eq(&d.bands, &reference.bands), || {
            "traced drive differs bitwise from run_policy".into()
        });
        drive_ms.push(d.wall_s * 1e3);
        spans.extend(d.spans);
    }
    let calls = drive_ms.len() as f64;
    let ranks = problem.config.vmpi_ranks() as f64;
    let per_band = 1e3 / (calls * ranks * problem.config.nbnd as f64);
    let total = |pred: &dyn Fn(SpanKind) -> bool| {
        spans
            .iter()
            .filter(|s| pred(s.kind))
            .map(Span::secs)
            .sum::<f64>()
    };
    for kind in StageKind::ALL {
        let name = format!("core.stage.{}.ms_per_band", stage_metric(kind));
        o.put(
            &name,
            "ms",
            total(&|k| k == SpanKind::Stage(kind)) * per_band,
        );
    }
    let fixed = total(&|k| k.is_fixed()) * 1e3 / (calls * ranks);
    o.put_note(
        "core.fixed_ms_per_batch",
        "ms",
        fixed,
        "head + tail spans of the traced drive, mean over ranks",
    );
    // Spans cover stages, pre-scatter barriers, head and tail on every rank.
    let frac = total(&|_| true) / (ranks * drive_ms.iter().sum::<f64>() / 1e3);
    let gate = if frac >= 0.95 {
        "gate >= 0.95 met"
    } else {
        "gate >= 0.95 NOT met"
    };
    o.put_note("core.attributed_frac", "ratio", frac, gate);
    o.put_note(
        "core.allocs_per_batch",
        "count",
        median(&allocs),
        &format!("run_policy call, median of {}", allocs.len()),
    );
    o.put_note(
        "vmpi.scatter.sync_ms_per_band",
        "ms",
        total(&|k| matches!(k, SpanKind::Sync(_))) * per_band,
        "timed barrier before each scatter",
    );
    let transfer = total(&|k| {
        matches!(
            k,
            SpanKind::Stage(StageKind::ScatterFwd | StageKind::ScatterBwd)
        )
    }) * per_band;
    o.put("vmpi.scatter.transfer_ms_per_band", "ms", transfer);
    o.put("trace.events_per_batch", "count", median(&events));
    o.put("trace.stage_profile_us", "us", median(&profile_us));
    o.put("trace.encode_us", "us", median(&encode_us));
    let (traced, untraced) = (median(&drive_ms), median(&call_ms));
    o.put_note(
        "trace.overhead_frac",
        "ratio",
        (traced - untraced) / untraced,
        &format!("traced drive {traced:.3} ms vs run_policy {untraced:.3} ms per call"),
    );
    spans
}

fn stage_metric(k: StageKind) -> &'static str {
    match k {
        StageKind::Prep => "prep",
        StageKind::Pack => "pack",
        StageKind::FftZInv => "fftz_inv",
        StageKind::ScatterFwd => "scatter_fwd",
        StageKind::FftXyInv => "fftxy_inv",
        StageKind::Vofr => "vofr",
        StageKind::FftXyFwd => "fftxy_fwd",
        StageKind::ScatterBwd => "scatter_bwd",
        StageKind::FftZFwd => "fftz_fwd",
        StageKind::Unpack => "unpack",
    }
}

/// `cft_2xy`, `cft_1z`, contiguous rows and Bluestein at the workload's
/// sizes, each an inverse + forward pair per repetition; plus the exact
/// flop count and occupied-column share.
fn fft_layer(o: &mut Outcome, problem: &Problem, seconds: f64) {
    let plan = problem.exec_plan(0);
    let (nr1, nr2, nr3) = (plan.grid.nr1, plan.grid.nr2, plan.grid.nr3);
    let budget = 0.04 * seconds;
    let (mut scratch, mut col) = (Vec::new(), Vec::new());

    let npp = plan.npp.max(1);
    let mut planes = filled(npp * nr1 * nr2);
    let xy = median(&reps(5, budget, || {
        for dir in [Direction::Inverse, Direction::Forward] {
            cft_2xy_buf(
                &plan.x,
                &plan.y,
                &mut planes,
                npp,
                nr1,
                nr2,
                dir,
                &mut scratch,
                &mut col,
            );
        }
    })) / 2.0;
    o.put(
        "fft.xy.gflops",
        "GFLOP/s",
        fft_xy_batch_flops(nr1, nr2, npp) / xy / 1e9,
    );
    o.put_note(
        "fft.xy.ns_per_plane",
        "ns",
        xy / npp as f64 * 1e9,
        &format!("{nr1}x{nr2} planes, {npp} per call"),
    );

    let nst = plan.nst.max(1);
    let mut zbuf = filled(nst * nr3);
    let z = median(&reps(5, budget, || {
        for dir in [Direction::Inverse, Direction::Forward] {
            cft_1z(&plan.z, &mut zbuf, nst, nr3, dir, &mut scratch);
        }
    })) / 2.0;
    o.put(
        "fft.z.gflops",
        "GFLOP/s",
        fft_z_batch_flops(nr3, nst) / z / 1e9,
    );
    o.put_note(
        "fft.z.ns_per_stick",
        "ns",
        z / nst as f64 * 1e9,
        &format!("n = {nr3}, {nst} sticks per call"),
    );

    // One plane's worth of contiguous rows, transformed and rescaled.
    let mut rows = filled(nr1 * nr2);
    let row = median(&reps(5, budget, || {
        for r in rows.chunks_exact_mut(nr1) {
            plan.x.process_with(r, &mut scratch, Direction::Inverse);
            plan.x.process_with(r, &mut scratch, Direction::Forward);
        }
        scale_in_place(&mut rows, 1.0 / nr1 as f64);
    })) / 2.0;
    o.put_note(
        "fft.row.gflops",
        "GFLOP/s",
        nr2 as f64 * fft_flops(nr1) / row / 1e9,
        &format!("contiguous 1-D, n = {nr1}"),
    );
    let xy_per_1d = xy / (npp * (nr1 + nr2)) as f64;
    let row_per_1d = row / nr2 as f64;
    o.put_note(
        "fft.xy.vs_row",
        "ratio",
        xy_per_1d / row_per_1d,
        "time per 1-D transform inside cft_2xy over a contiguous row",
    );

    const STICKS: usize = 64;
    let blue = cached_plan(BLUESTEIN_N);
    let mut sticks = filled(STICKS * BLUESTEIN_N);
    let b = median(&reps(5, budget, || {
        for dir in [Direction::Inverse, Direction::Forward] {
            cft_1z(&blue, &mut sticks, STICKS, BLUESTEIN_N, dir, &mut scratch);
        }
    })) / 2.0;
    o.put_note(
        "fft.bluestein.gflops",
        "GFLOP/s",
        fft_z_batch_flops(BLUESTEIN_N, STICKS) / b / 1e9,
        &format!("n = {BLUESTEIN_N}"),
    );

    let l = &problem.layout;
    let per_iteration: f64 = (0..l.r)
        .map(|g| {
            let p = problem.exec_plan(g);
            2.0 * (fft_z_batch_flops(nr3, p.nst) + fft_xy_batch_flops(nr1, nr2, p.npp))
        })
        .sum();
    o.put_note(
        "fft.flops_per_band",
        "flop",
        per_iteration / l.t as f64,
        "computed from sizes (fft::opcount)",
    );
    let cols: BTreeSet<usize> = l.set.sticks.iter().map(|s| s.ix).collect();
    o.put_note(
        "fft.xy.useful_col_frac",
        "ratio",
        cols.len() as f64 / nr1 as f64,
        &format!("computed: {} of {nr1} x-columns carry sticks", cols.len()),
    );
}

fn core_layer(o: &mut Outcome, problem: &Problem) {
    let cfg = problem.config;
    let l = &problem.layout;
    let shares = median(&reps(3, 0.2, || {
        (0..cfg.vmpi_ranks())
            .map(|r| problem.initial_shares(r))
            .collect::<Vec<_>>()
    }));
    o.put_note(
        "core.initial_shares_ms",
        "ms",
        shares * 1e3,
        "every rank's shares",
    );
    let plans = median(&reps(3, 0.2, || {
        (0..l.r)
            .map(|g| ExecPlan::for_layout_decomp(l, g, cfg.decomp))
            .collect::<Vec<_>>()
    }));
    o.put_note(
        "core.exec_plan_ms",
        "ms",
        plans * 1e3,
        "every task group's plan",
    );
    let lower = median(&reps(3, 0.2, || build_programs(problem)));
    o.put_note(
        "core.build_programs_ms",
        "ms",
        lower * 1e3,
        "modelplan lowering",
    );
}

fn pw_layer(o: &mut Outcome, problem: &Problem) {
    const REPS: usize = 5;
    let cfg = problem.config;
    let cell = Cell::cubic(cfg.alat);
    let grid = problem.grid();
    let sphere = median(&reps(REPS, 0.0, || {
        GSphere::generate(&cell, cfg.ecutwfc, &grid)
    }));
    o.put_note(
        "pw.sphere_ms",
        "ms",
        sphere * 1e3,
        &format!("{}x{}x{} grid", grid.nr1, grid.nr2, grid.nr3),
    );
    let gs = GSphere::generate(&cell, cfg.ecutwfc, &grid);
    o.put(
        "pw.sticks_ms",
        "ms",
        median(&reps(REPS, 0.0, || StickSet::build(&gs, &grid))) * 1e3,
    );
    let set = StickSet::build(&gs, &grid);
    let mut sets: Vec<StickSet> = (0..REPS).map(|_| set.clone()).collect();
    let layout = median(&reps(REPS, 0.0, || {
        let s = sets.pop().expect("one stick set per repetition");
        TaskGroupLayout::new(grid, s, cfg.nr, cfg.layout_ntg())
    }));
    o.put("pw.layout_ms", "ms", layout * 1e3);
    o.put(
        "pw.potential_ms",
        "ms",
        median(&reps(REPS, 0.0, || generate_potential(&grid, cfg.seed))) * 1e3,
    );
    let l = &problem.layout;
    let per_rank: Vec<Vec<Vec<Complex64>>> = (0..cfg.vmpi_ranks())
        .map(|r| problem.initial_shares(r))
        .collect();
    let assemble_all = median(&reps(REPS, 0.0, || {
        (0..cfg.nbnd)
            .map(|b| {
                let shares: Vec<Vec<Complex64>> = per_rank.iter().map(|s| s[b].clone()).collect();
                assemble_shares(&l.set, &l.dist, &shares)
            })
            .collect::<Vec<_>>()
    }));
    o.put_note(
        "pw.assemble_ms",
        "ms",
        assemble_all * 1e3,
        "every band of one call",
    );
}

fn vmpi_layer(o: &mut Outcome, problem: &Problem) {
    let ranks = problem.config.vmpi_ranks();
    let spawn = median(&reps(20, 0.2, || World::new(ranks).run(|c| c.rank())));
    o.put_note(
        "vmpi.world_spawn_us",
        "us",
        spawn * 1e6,
        &format!("{ranks} ranks"),
    );
    const BARRIERS: u32 = 500;
    let barrier = World::new(ranks).run(|c| {
        c.barrier();
        let t = Instant::now();
        for _ in 0..BARRIERS {
            c.barrier();
        }
        t.elapsed().as_secs_f64() / f64::from(BARRIERS)
    });
    o.put("vmpi.barrier_us", "us", barrier[0] * 1e6);

    // The scatter family at its real chunk size (slab: one alltoall over
    // the plan's r groups).
    let plan = problem.exec_plan(0);
    let (fam, chunk) = (plan.r, plan.chunk);
    let bytes_per_op = (fam * (fam - 1) * chunk * std::mem::size_of::<Complex64>()) as f64;
    let n_ops = (2e8 / (plan.scatter_len() as f64 * 16.0 + 1.0)).clamp(10.0, 2000.0) as u32;
    let per_op = World::new(fam).run(|c| {
        let send = filled(plan.scatter_len());
        let mut recv = Vec::new();
        c.alltoall_into(&send, &mut recv, 0);
        c.barrier();
        let t = Instant::now();
        for _ in 0..n_ops {
            c.alltoall_into(&send, &mut recv, 0);
        }
        t.elapsed().as_secs_f64() / f64::from(n_ops)
    });
    o.put_note(
        "vmpi.alltoall_us",
        "us",
        per_op[0] * 1e6,
        &format!("{fam} ranks, chunk {chunk} values"),
    );
    o.put_note(
        "vmpi.alltoall_gbps",
        "GB/s",
        bytes_per_op / per_op[0] / 1e9,
        "off-rank bytes per alltoall",
    );
    // Two scatters per band over t families of r ranks, t bands per batch.
    let t = problem.layout.t as f64;
    o.put_note(
        "vmpi.bytes_per_band",
        "bytes",
        2.0 * t * bytes_per_op / t,
        "computed: scatter traffic, slab",
    );
    o.put_note(
        "vmpi.msgs_per_band",
        "count",
        2.0 * (fam * (fam - 1)) as f64,
        "computed: scatter messages, slab",
    );
}

fn taskrt_layer(o: &mut Outcome, problem: &Problem, policy: SchedulerPolicy) {
    let workers = if policy == SchedulerPolicy::Serial {
        1
    } else {
        problem.config.ntg
    };
    let mut build = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let rt = Runtime::builder(workers).build();
        build.push(t.elapsed().as_secs_f64());
        rt.shutdown();
    }
    o.put_note(
        "taskrt.build_us",
        "us",
        median(&build) * 1e6,
        &format!("{workers} workers"),
    );

    const TASKS: usize = 1100;
    let rt = Runtime::new(workers);
    let dispatch = median(&reps(5, 0.2, || {
        for _ in 0..TASKS {
            rt.spawn("probe", &[], || {});
        }
        rt.taskwait();
    }));
    o.put(
        "taskrt.dispatch_ns_per_task",
        "ns",
        dispatch / TASKS as f64 * 1e9,
    );
    // Chains of eleven inout-dependent nodes, one per band: the async
    // policy's per-band graph shape.
    let mut graph_s = Vec::new();
    for _ in 0..5 {
        let mut g = TaskGraph::new();
        for _ in 0..TASKS / 11 {
            let h = Handle::fresh();
            for _ in 0..11 {
                g.node("probe", None, vec![h.dep_inout()], || {});
            }
        }
        let t = Instant::now();
        rt.spawn_graph(g);
        rt.taskwait();
        graph_s.push(t.elapsed().as_secs_f64());
    }
    rt.shutdown();
    o.put(
        "taskrt.graph_ns_per_task",
        "ns",
        median(&graph_s) / TASKS as f64 * 1e9,
    );
    let stages = BAND_PIPELINE.len() as f64;
    let tasks = match policy {
        SchedulerPolicy::Serial => 0.0,
        SchedulerPolicy::TaskPerFft => 1.0,
        SchedulerPolicy::TaskPerStep => stages,
        SchedulerPolicy::TaskAsync => stages + 2.0,
        SchedulerPolicy::Hybrid => 3.0,
    };
    o.put_note(
        "taskrt.tasks_per_band",
        "count",
        tasks,
        &format!("computed for the {} policy", policy.name()),
    );
}

fn knlsim_layer(o: &mut Outcome, problem: &Problem) {
    let programs = build_programs(problem);
    let (node, contention, comm) = (serve_node(), ContentionModel::paper(), CommModel::paper());
    let des = median(&reps(3, 0.3, || {
        simulate(&programs, &node, &contention, &comm)
    }));
    o.put_note(
        "knlsim.simulate_ms",
        "ms",
        des * 1e3,
        "one DES pricing on the serve node slice",
    );
    let quick = median(&reps(20, 0.1, || {
        quick_estimate(&programs, &node, &contention, &comm)
    }));
    o.put("knlsim.quick_estimate_us", "us", quick * 1e6);
}

/// One `run_serve` over the workload's trace, then a replay of its batches
/// through the backend: every served hash is re-derived, and the tuner,
/// problem cache, execution and hashing are each timed.
fn serve_layer(o: &mut Outcome, w: Workload, seed: u64) {
    let cfg = serve_config(seed);
    let trace = if w == Workload::ServeSteady {
        serve_trace(seed)
    } else {
        probe_trace(seed)
    };
    let report = match run_serve(&trace, &cfg) {
        Ok(r) => r,
        Err(e) => {
            o.check(false, || format!("run_serve: {e}"));
            return;
        }
    };
    for s in &report.shed {
        o.check(false, || {
            format!("request {} shed: {:?}", s.request.id, s.reason)
        });
    }
    let served: BTreeMap<u64, Option<u64>> =
        report.jobs.iter().map(|j| (j.request.id, j.hash)).collect();
    let mut backend = Backend::new(cfg.seed, None);
    let (mut exec_ms, mut hash_us) = (Vec::new(), Vec::new());
    for b in &report.batches {
        let members: Vec<Request> = report
            .jobs
            .iter()
            .filter(|j| j.batch == b.index)
            .map(|j| j.request)
            .collect();
        let batch = match assemble(members, &cfg.batch) {
            Ok(batch) if batch.nbnd == b.nbnd => batch,
            _ => {
                o.check(false, || format!("batch {} does not re-assemble", b.index));
                continue;
            }
        };
        let t = Instant::now();
        let run = backend.execute(&batch, &b.placement, b.index, false);
        exec_ms.push(ms_since(t));
        let t = Instant::now();
        let hashes: Vec<u64> = batch
            .members
            .iter()
            .map(|m| band_hash(&run.output.bands[m.band_start..m.band_start + m.request.bands]))
            .collect();
        hash_us.push(ms_since(t) * 1e3);
        for (m, h) in batch.members.iter().zip(hashes) {
            let id = m.request.id;
            o.check(served.get(&id) == Some(&Some(h)), || {
                format!("job {id}: replayed hash differs from the served one")
            });
        }
    }
    if exec_ms.is_empty() {
        o.check(false, || "no batch replayed".into());
        return;
    }
    let problem_for = median(&reps(report.batches.len().min(200), 0.0, {
        let mut i = 0;
        let batches = &report.batches;
        move || {
            let b = &batches[i % batches.len()];
            i += 1;
            backend.problem_for(b.class, b.nbnd, &b.placement)
        }
    }));
    let keys: BTreeSet<(GeometryClass, usize)> =
        report.batches.iter().map(|b| (b.class, b.nbnd)).collect();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for &(class, nbnd) in &keys {
        let mut tuner = Tuner::new(cfg.tuner);
        let t = Instant::now();
        black_box(tuner.decide(class, nbnd));
        cold.push(ms_since(t));
        warm.extend(reps(10, 0.0, || tuner.decide(class, nbnd)));
    }
    let payload: usize = report.batches.iter().map(|b| b.payload_bands).sum();
    let padded: usize = report.batches.iter().map(|b| b.nbnd).sum();
    let lanes: usize = report.batches.iter().map(|b| b.placement.lanes()).sum();
    let nb = report.batches.len();
    o.put_note(
        "serve.decide_cold_ms",
        "ms",
        median(&cold),
        &format!("fresh tuner, {} workload keys", keys.len()),
    );
    o.put("serve.decide_warm_us", "us", median(&warm) * 1e6);
    o.put_note(
        "serve.problem_for_us",
        "us",
        problem_for * 1e6,
        "warm backend cache",
    );
    o.put_note(
        "serve.execute_ms_p50",
        "ms",
        median(&exec_ms),
        &format!("Backend::execute, {nb} batches of {} requests", trace.len()),
    );
    o.put_note(
        "serve.band_hash_us",
        "us",
        median(&hash_us),
        "every member of one batch",
    );
    o.put_note(
        "serve.batch_fill_frac",
        "ratio",
        payload as f64 / padded as f64,
        &format!("{payload} payload of {padded} padded bands"),
    );
    o.put_note(
        "serve.lanes_per_batch",
        "count",
        lanes as f64 / nb as f64,
        &format!(
            "host has {} cores",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
    );
}

fn host_layer(o: &mut Outcome) {
    // Arrays of four times the last-level cache, so the copy streams from
    // memory; 32 MiB is assumed when sysfs reports no cache.
    let llc = host::llc_bytes().unwrap_or(32 << 20);
    let array = 4 * llc;
    let mib = |b: usize| b as f64 / f64::from(1 << 20);
    o.put_note(
        "host.memcpy_gbps",
        "GB/s",
        host::memcpy_gbps(array),
        &format!("two {:.0} MiB arrays", mib(array)),
    );
    o.info(
        "host.llc_mib",
        "MiB",
        mib(llc),
        "last-level cache reported by sysfs",
    );
    o.put("host.fma_gflops", "GFLOP/s", host::fma_gflops());
}

/// Writes the drive's spans as CSV under `perfbench/out/`, returning the path.
fn write_spans(w: Workload, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.csv", w.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "call,rank,span,band,t0_us,t1_us")?;
    for s in spans {
        writeln!(
            f,
            "{},{},{},{},{:.3},{:.3}",
            s.call,
            s.rank,
            s.kind.label(),
            s.band,
            s.t0 * 1e6,
            s.t1 * 1e6
        )?;
    }
    f.flush()?;
    Ok(path.display().to_string())
}
