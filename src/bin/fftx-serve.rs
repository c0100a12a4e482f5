//! `fftx-serve` — the multi-tenant FFT job-serving demo driver.
//!
//! Generates a deterministic synthetic request trace (Poisson arrivals
//! under a steady / burst / diurnal profile), serves it through the
//! `fftx-serve` subsystem (admission control → batch coalescing →
//! auto-tuned placement → stage-graph execution), and prints the
//! per-tenant / per-deadline outcome plus, on request, the tuner's
//! explainable placement dump.

use fftxlib_repro::core::{load_env, valid_decomps, DecompChoice};
use fftxlib_repro::serve::{
    plan_capacity, resume_fleet, run_fleet, run_serve, AutoscaleConfig, FleetConfig, FleetFaults,
    FleetReport, Journal, LoadProfile, PlacementMode, PlanConfig, PlanReport, ServeChaos,
    ServeConfig, ServeReport, TrafficConfig,
};
use std::process::ExitCode;

struct Args {
    traffic: TrafficConfig,
    serve: ServeConfig,
    fleet: Option<usize>,
    faults: FleetFaults,
    autoscale: Option<AutoscaleConfig>,
    steal: bool,
    plan: Option<usize>,
    plan_iters: usize,
    plan_seed: u64,
    replay_check: bool,
    why: bool,
}

const USAGE: &str = "usage: fftx-serve [options]
  --rate HZ        mean arrival rate (requests per virtual second, default 30)
  --duration S     trace duration in virtual seconds        (default 2.0)
  --tenants N      number of tenants                        (default 4)
  --profile P      steady | burst | diurnal                 (default steady)
  --mode M         auto | serial | step | fft | async | hybrid (default auto)
  --decomp D       slab | pencil | auto             (default auto, or the
                   FFTX_DECOMP env choice; auto lets the tuner pick per batch)
  --seed S         trace + workload seed                    (default 20170814)
  --queue-cap N    admission queue capacity                 (default 64)
  --real           execute batches for real (hashes + stage profile)
  --chaos SEED     inject chaos on the serving path (implies --real)
  --evict N        with --chaos: force batch N onto the 7x1 layout and
                   kill rank 1 mid-run (eviction demo)
  --corrupt N      with --chaos: inject N-per-mille seeded bit flips per
                   batch; results are ABFT-verified, never delivered corrupt
  --fleet N        serve through N supervised shard nodes: durable job
                   journal, heartbeat circuit breakers, node-death failover,
                   and the graceful-degradation ladder
  --fault-seed S   with --fleet: fault-injection seed        (default 7)
  --p-death P      with --fleet: per-shard death probability (default 0)
  --p-slow P       with --fleet: per-shard slow-node probability (default 0)
  --slow-max F     with --fleet: worst-case slow-node factor (default 1.0)
  --p-partition P  with --fleet: per-shard partition probability (default 0)
  --replay-check   with --fleet: crash the journal at its midpoint, resume,
                   and verify the replayed run is byte-identical
  --autoscale M:N  with --fleet: run the reactive autoscaler between M and N
                   active shards (N <= the provisioned --fleet pool);
                   thresholds from FFTX_SCALE_UP_AT / FFTX_SCALE_DOWN_AT
  --steal V        with --fleet: cross-shard work stealing, on | off
                   (default off, or the FFTX_STEAL env choice)
  --plan N         run the offline Monte-Carlo capacity planner over
                   candidate fleet sizes 1..=N instead of serving
                   (iterations / seed from FFTX_PLAN_ITERS / FFTX_PLAN_SEED)
  --why            print the tuner's placement explanations
  --help           this text";

/// Parses the `--autoscale` bound pair `MIN:MAX`.
fn parse_autoscale(v: &str) -> Result<(usize, usize), String> {
    let bad = || format!("bad autoscale bounds '{v}' (expected MIN:MAX with 1 <= MIN <= MAX, e.g. 1:4)");
    let (lo, hi) = v.split_once(':').ok_or_else(bad)?;
    let min: usize = lo.trim().parse().map_err(|_| bad())?;
    let max: usize = hi.trim().parse().map_err(|_| bad())?;
    if min == 0 || min > max {
        return Err(bad());
    }
    Ok((min, max))
}

fn parse_args() -> Result<Args, String> {
    let mut traffic = TrafficConfig {
        seed: 20170814,
        rate_hz: 30.0,
        duration_s: 2.0,
        tenants: 4,
        profile: LoadProfile::Steady,
    };
    let mut serve = ServeConfig::default();
    // The FFTX_* knobs seed the defaults; explicit flags still win.
    let knobs = load_env().map_err(|e| e.to_string())?;
    if let Some(d) = knobs.decomp {
        serve.decomp = d;
    }
    let mut evict: Option<usize> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut corrupt: u32 = 0;
    let mut fleet: Option<usize> = None;
    let mut faults = FleetFaults { seed: 7, ..FleetFaults::default() };
    let mut faults_given = false;
    // FFTX_FLEET_MIN + FFTX_FLEET_MAX together enable the autoscaler from
    // the environment; --autoscale MIN:MAX overrides the bounds.
    let mut bounds = match (knobs.fleet.min, knobs.fleet.max) {
        (Some(min), Some(max)) => Some((min, max)),
        _ => None,
    };
    let mut steal = knobs.fleet.steal.unwrap_or(false);
    // Explicit flags in non-fleet mode are an error; env-only settings are
    // silently inert there (the environment is shared across run modes).
    let mut fleet_flags_given = false;
    let mut plan: Option<usize> = None;
    let mut replay_check = false;
    let mut why = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--rate" => traffic.rate_hz = val("--rate")?.parse().map_err(|e| format!("{e}"))?,
            "--duration" => {
                traffic.duration_s = val("--duration")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tenants" => traffic.tenants = val("--tenants")?.parse().map_err(|e| format!("{e}"))?,
            "--profile" => {
                let p = val("--profile")?;
                traffic.profile = LoadProfile::parse(&p)
                    .ok_or_else(|| format!("unknown profile '{p}' (valid: steady, burst, diurnal)"))?;
            }
            "--mode" => {
                let m = val("--mode")?;
                serve.mode = PlacementMode::parse(&m).ok_or_else(|| {
                    format!("unknown mode '{m}' (valid: auto, serial, step, fft, async, hybrid)")
                })?;
            }
            "--decomp" => {
                let d = val("--decomp")?;
                serve.decomp = DecompChoice::parse(&d).ok_or_else(|| {
                    format!("unknown decomposition '{d}' (valid: {})", valid_decomps())
                })?;
            }
            "--seed" => {
                let s: u64 = val("--seed")?.parse().map_err(|e| format!("{e}"))?;
                traffic.seed = s;
                serve.seed = s;
            }
            "--queue-cap" => {
                serve.admission.queue_cap =
                    val("--queue-cap")?.parse().map_err(|e| format!("{e}"))?
            }
            "--fleet" => fleet = Some(val("--fleet")?.parse().map_err(|e| format!("{e}"))?),
            "--fault-seed" => {
                faults.seed = val("--fault-seed")?.parse().map_err(|e| format!("{e}"))?;
                faults_given = true;
            }
            "--p-death" => {
                faults.p_death = val("--p-death")?.parse().map_err(|e| format!("{e}"))?;
                faults_given = true;
            }
            "--p-slow" => {
                faults.p_slow = val("--p-slow")?.parse().map_err(|e| format!("{e}"))?;
                faults_given = true;
            }
            "--slow-max" => {
                faults.slow_max = val("--slow-max")?.parse().map_err(|e| format!("{e}"))?;
                faults_given = true;
            }
            "--p-partition" => {
                faults.p_partition = val("--p-partition")?.parse().map_err(|e| format!("{e}"))?;
                faults_given = true;
            }
            "--autoscale" => {
                bounds = Some(parse_autoscale(&val("--autoscale")?)?);
                fleet_flags_given = true;
            }
            "--steal" => {
                let v = val("--steal")?;
                steal = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!("unknown steal setting '{other}' (valid: on, off)"))
                    }
                };
                fleet_flags_given = true;
            }
            "--plan" => {
                let n: usize = val("--plan")?
                    .parse()
                    .map_err(|_| "bad --plan value (expected a candidate fleet size >= 1)".to_string())?;
                if n == 0 {
                    return Err("bad --plan value (expected a candidate fleet size >= 1)".into());
                }
                plan = Some(n);
            }
            "--replay-check" => replay_check = true,
            "--real" => serve.execute_real = true,
            "--chaos" => chaos_seed = Some(val("--chaos")?.parse().map_err(|e| format!("{e}"))?),
            "--evict" => evict = Some(val("--evict")?.parse().map_err(|e| format!("{e}"))?),
            "--corrupt" => corrupt = val("--corrupt")?.parse().map_err(|e| format!("{e}"))?,
            "--why" => why = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    traffic.check()?;
    if serve.admission.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    for (flag, p) in [
        ("--p-death", faults.p_death),
        ("--p-slow", faults.p_slow),
        ("--p-partition", faults.p_partition),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{flag} must be a probability in [0, 1], got {p}"));
        }
    }
    if !(faults.slow_max.is_finite() && faults.slow_max >= 1.0) {
        return Err(format!("--slow-max must be a finite factor >= 1, got {}", faults.slow_max));
    }
    if let Some(seed) = chaos_seed {
        serve.chaos = Some(ServeChaos {
            seed,
            evict_batch: evict,
            corrupt_per_mille: corrupt,
        });
    } else if evict.is_some() || corrupt > 0 {
        return Err("--evict/--corrupt require --chaos".into());
    }
    if plan.is_none() && fleet.is_none() && (faults_given || replay_check) {
        return Err("--fault-seed/--p-death/--p-slow/--slow-max/--p-partition/--replay-check require --fleet".into());
    }
    if fleet.is_none() && fleet_flags_given {
        return Err("--autoscale/--steal require --fleet".into());
    }
    let autoscale = bounds.map(|(min, max)| {
        let d = AutoscaleConfig::default();
        AutoscaleConfig {
            min,
            max,
            up_at: knobs.fleet.up_at.unwrap_or(d.up_at),
            down_at: knobs.fleet.down_at.unwrap_or(d.down_at),
            ..d
        }
    });
    Ok(Args {
        traffic,
        serve,
        fleet,
        faults,
        autoscale,
        steal,
        plan,
        plan_iters: knobs.fleet.plan_iters.unwrap_or(4),
        plan_seed: knobs.fleet.plan_seed.unwrap_or(traffic.seed),
        replay_check,
        why,
    })
}

fn print_report(report: &ServeReport, traffic: &TrafficConfig) {
    println!("fftx-serve — multi-tenant FFT job serving");
    println!(
        "  traffic : {} req/s x {:.1}s ({}), {} tenants, seed {}",
        traffic.rate_hz, traffic.duration_s, traffic.profile.name(), traffic.tenants, traffic.seed
    );
    println!("  mode    : {}", report.mode.name());
    println!("  decomp  : {}", report.decomp.name());
    println!(
        "  offered {} | served {} | shed {} ({:.1} %)",
        report.offered(),
        report.jobs.len(),
        report.shed.len(),
        report.shed_rate() * 100.0
    );
    let mut lat = report.latency();
    if !lat.is_empty() {
        println!(
            "  latency : p50 {:.4}s  p99 {:.4}s  mean {:.4}s  max {:.4}s",
            lat.p50(),
            lat.p99(),
            lat.mean(),
            lat.max()
        );
    }
    println!(
        "  goodput : {:.2} deadline-met jobs/s over a {:.3}s makespan",
        report.goodput_hz(),
        report.makespan_s
    );
    println!(
        "  queue   : max depth {}, time-weighted mean {:.2}",
        report.depth.max(),
        report.depth.time_weighted_mean()
    );
    println!(
        "  batches : {} dispatched, {:.2} requests coalesced per batch",
        report.batches.len(),
        report.jobs.len() as f64 / report.batches.len().max(1) as f64
    );
    let (r, b, e) = report.batches.iter().fold((0, 0, 0), |acc, x| {
        (acc.0 + x.recovery.0, acc.1 + x.recovery.1, acc.2 + x.recovery.2)
    });
    if r + b + e > 0 || report.counters.get("escalations") > 0 {
        println!(
            "  recovery: {r} task retries, {b} rollbacks, {e} evictions, {} escalations — zero lost jobs",
            report.counters.get("escalations")
        );
    }
    println!("\ncounters:");
    for (key, n) in report.counters.iter() {
        println!("  {key:<24} {n}");
    }
    if !report.stage_seconds.is_empty() {
        println!("\nper-stage busy seconds (real executions):");
        for (stage, seconds) in &report.stage_seconds {
            println!("  stage {stage:<3} {seconds:.6}s");
        }
    }
}

fn print_fleet_report(report: &FleetReport, traffic: &TrafficConfig, faults: &FleetFaults) {
    println!("fftx-serve — durable fleet serving ({} shards)", report.shards);
    println!(
        "  traffic : {} req/s x {:.1}s ({}), {} tenants, seed {}",
        traffic.rate_hz, traffic.duration_s, traffic.profile.name(), traffic.tenants, traffic.seed
    );
    println!(
        "  faults  : seed {} | p_death {} | p_slow {} (max {}x) | p_partition {}",
        faults.seed, faults.p_death, faults.p_slow, faults.slow_max, faults.p_partition
    );
    let c = &report.conservation;
    println!(
        "  offered {} | served {} | shed {} ({:.1} %)",
        report.offered(),
        report.jobs.len(),
        report.shed.len(),
        report.shed_rate() * 100.0
    );
    println!(
        "  journal : {} records — {} accepted = {} completed + {} open, {} duplicates suppressed",
        report.journal.len(),
        c.accepted,
        c.completed,
        c.open.len(),
        c.suppressed
    );
    let mut lat = report.latency();
    if !lat.is_empty() {
        println!(
            "  latency : p50 {:.4}s  p99 {:.4}s  mean {:.4}s  max {:.4}s",
            lat.p50(),
            lat.p99(),
            lat.mean(),
            lat.max()
        );
    }
    println!(
        "  goodput : {:.2} deadline-met jobs/s over a {:.3}s makespan",
        report.goodput_hz(),
        report.makespan_s
    );
    let deaths = report.counters.get("fleet.shard_down");
    let moved = report.counters.get("fleet.failover.jobs");
    if deaths > 0 {
        let mut fl = report.failover_latencies();
        print!("  failover: {deaths} shards declared dead, {moved} jobs re-routed");
        if fl.is_empty() {
            println!();
        } else {
            println!(" — recovery p50 {:.4}s  p99 {:.4}s", fl.p50(), fl.p99());
        }
    }
    println!("\ncounters:");
    for (key, n) in report.counters.iter() {
        println!("  {key:<24} {n}");
    }
}

/// The `--replay-check` demo: cut the finished run's journal at its
/// midpoint (a crash), resume from the prefix, and require the recovered
/// run's journal to be byte-identical to the uninterrupted one's.
fn replay_check(
    report: &FleetReport,
    requests: &[fftxlib_repro::serve::Request],
    cfg: &FleetConfig,
) -> Result<(), String> {
    let cut = report.journal.len() / 2;
    let mut prefix = Journal::new();
    for rec in &report.journal.records()[..cut] {
        prefix.append(rec.clone());
    }
    let resumed = resume_fleet(&prefix, requests, cfg).map_err(|e| format!("{e}"))?;
    if resumed.journal.encode() == report.journal.encode() {
        println!(
            "\nreplay-check: crash at record {cut}/{} → resumed journal byte-identical",
            report.journal.len()
        );
        Ok(())
    } else {
        Err(format!(
            "resumed journal diverged from the uninterrupted run (cut at record {cut}/{})",
            report.journal.len()
        ))
    }
}

fn print_plan_report(plan: &PlanReport, traffic: &TrafficConfig, k_max: usize) {
    println!(
        "fftx-serve — offline capacity plan (k = 1..={k_max}, {} iterations)",
        plan.iterations
    );
    println!(
        "  traffic : {} req/s x {:.1}s ({}), {} tenants",
        traffic.rate_hz, traffic.duration_s, traffic.profile.name(), traffic.tenants
    );
    println!(
        "  demand  : required {:.1} bands/s | peak {:.1} bands/s | {:.1} bands/s per shard",
        plan.required_rate, plan.peak_rate, plan.shard_rate
    );
    println!("  floor   : analytic fleet floor {}", plan.analytic_floor);
    println!("  candidates:");
    for p in &plan.profiles {
        println!(
            "    k={}  goodput {:>7.2}/s  shed {:>5.1} % ({} total)  p99 {:.4}s",
            p.k,
            p.goodput_hz,
            p.shed_rate * 100.0,
            p.shed_total,
            p.p99_latency_s
        );
    }
    println!("  recommend: {} shards", plan.recommended);
    let e = &plan.envelope;
    println!(
        "  envelope : autoscale {}..{} shards | scale up at {:.2}, down at {:.2}",
        e.min, e.max, e.up_at, e.down_at
    );
}

/// The `--plan N` mode: the offline Monte-Carlo capacity planner over
/// candidate static fleets 1..=N, instead of serving live traffic.
fn run_plan_mode(args: &Args, k_max: usize) -> ExitCode {
    let cfg = PlanConfig {
        iterations: args.plan_iters,
        seed: args.plan_seed,
        k_min: 1,
        k_max,
        fleet: FleetConfig {
            shards: k_max,
            serve: args.serve,
            horizon_s: args.traffic.duration_s,
            faults: args.faults,
            ..FleetConfig::default()
        },
        traffic: args.traffic,
        ..PlanConfig::default()
    };
    match plan_capacity(&cfg) {
        Ok(plan) => {
            print_plan_report(&plan, &args.traffic, k_max);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_fleet_mode(args: &Args, shards: usize) -> ExitCode {
    let cfg = FleetConfig {
        shards,
        serve: args.serve,
        horizon_s: args.traffic.duration_s,
        faults: args.faults,
        autoscale: args.autoscale,
        steal: args.steal,
        ..FleetConfig::default()
    };
    let requests = fftxlib_repro::serve::generate(&args.traffic);
    let report = match run_fleet(&requests, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    print_fleet_report(&report, &args.traffic, &args.faults);
    if args.replay_check {
        if let Err(e) = replay_check(&report, &requests, &cfg) {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return if e.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) };
        }
    };
    if let Some(k_max) = args.plan {
        return run_plan_mode(&args, k_max);
    }
    if let Some(shards) = args.fleet {
        return run_fleet_mode(&args, shards);
    }
    let requests = fftxlib_repro::serve::generate(&args.traffic);
    let report = match run_serve(&requests, &args.serve) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    print_report(&report, &args.traffic);
    if args.why {
        println!("\n{}", report.why);
    }
    ExitCode::SUCCESS
}
