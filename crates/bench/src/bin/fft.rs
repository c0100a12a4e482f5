//! Real-engine FFT benchmark: throughput and correctness of the native
//! kernels that every modeled run ultimately prices. Emits
//! `BENCH_fft.json` — the throughput numbers are wall-clock (volatile, the
//! artifact is structure-checked). The gates sit on accuracy, on bitwise
//! identity of the lane-batched `cft_2xy_buf` with an in-run scalar
//! reference (each row, then each gathered column, through the public
//! one-sequence `Fft::process_with`), and on the lane kernel's speedup
//! over that reference measured in the same run, a ratio that holds on
//! any host. The same holds for line skipping: `cft_2xy_masked` over the
//! paper's stick occupancy is gated on bitwise equality with the dense
//! transform on every live line and on its in-run speedup over it.

use fftx_bench::{CheckKind, GateOp, Harness};
use fftx_fft::opcount::{fft_3d_flops, fft_flops};
use fftx_fft::{
    c64, cft_1z, cft_2xy_buf, cft_2xy_masked, max_dist, naive_dft, scale_in_place, Complex64,
    Direction, Fft, Fft3, XyLines,
};
use fftx_pw::{Cell, FftGrid, GSphere, StickSet, DUAL};
use std::time::Instant;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

/// Best-of-3 wall seconds for `iters` repetitions of `f`.
fn time3<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// The scalar `cft_2xy` reference: every row, then every column gathered
/// into `col`, one sequence at a time, then the forward `1/(nx*ny)` scale.
#[allow(clippy::too_many_arguments)] // mirrors cft_2xy_buf
fn cft_2xy_scalar(
    px: &Fft,
    py: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
) {
    let (nx, ny) = (px.len(), py.len());
    let scale = 1.0 / (nx * ny) as f64;
    col.resize(ny, Complex64::ZERO);
    for plane in data.chunks_exact_mut(ldx * ldy).take(nzl) {
        for row in plane.chunks_exact_mut(ldx).take(ny) {
            px.process_with(&mut row[..nx], scratch, dir);
        }
        for x in 0..nx {
            for (y, slot) in col.iter_mut().enumerate() {
                *slot = plane[x + y * ldx];
            }
            py.process_with(col, scratch, dir);
            for (y, &v) in col.iter().enumerate() {
                plane[x + y * ldx] = v;
            }
        }
        if dir == Direction::Forward {
            for row in plane.chunks_exact_mut(ldx).take(ny) {
                scale_in_place(&mut row[..nx], scale);
            }
        }
    }
}

/// The scalar `cft_1z` reference: one stick at a time, forward-scaled.
fn cft_1z_scalar(
    plan: &Fft,
    data: &mut [Complex64],
    ldz: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
) {
    let nz = plan.len();
    for stick in data.chunks_exact_mut(ldz) {
        plan.process_with(&mut stick[..nz], scratch, dir);
        if dir == Direction::Forward {
            scale_in_place(&mut stick[..nz], 1.0 / nz as f64);
        }
    }
}

/// True when the two buffers agree bit for bit.
fn bitwise_eq(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn main() {
    println!("=== Real FFT engine: correctness and throughput ===\n");
    let mut h = Harness::new_volatile("fft");
    let mut rows = String::from("transform,n,seconds,mflops\n");

    // --- Correctness: every fast path vs the O(n^2) oracle. Sizes cover
    // the radix kernels, the mixed-radix path and Bluestein (prime 127).
    let mut max_err = 0.0f64;
    for &n in &[8usize, 60, 90, 125, 127, 128, 243] {
        let x = signal(n);
        let want = naive_dft(&x, Direction::Forward);
        let mut got = x.clone();
        Fft::new(n).forward(&mut got);
        max_err = max_err.max(max_dist(&got, &want) / n as f64);
    }
    println!("1-D forward vs naive DFT: max normalized error {max_err:.3e}");

    // Round trip: forward then inverse then 1/n scaling must reproduce the
    // input to machine precision.
    let mut rt_err = 0.0f64;
    for &n in &[90usize, 128, 127] {
        let x = signal(n);
        let mut buf = x.clone();
        let plan = Fft::new(n);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        scale_in_place(&mut buf, 1.0 / n as f64);
        rt_err = rt_err.max(max_dist(&buf, &x));
    }
    println!("1-D round trip: max error {rt_err:.3e}");

    // 3-D round trip on the paper-like grid shape. `Fft3::forward` is
    // already 1/N-scaled (QE convention) and `inverse` unnormalised, so
    // forward→inverse is the identity with no extra scaling.
    let (nx, ny, nz) = (30usize, 30, 32);
    let plan3 = Fft3::new(nx, ny, nz);
    let vol = plan3.volume();
    let x3 = signal(vol);
    let mut buf3 = x3.clone();
    plan3.forward(&mut buf3);
    plan3.inverse(&mut buf3);
    let rt3_err = max_dist(&buf3, &x3);
    println!("3-D ({nx}x{ny}x{nz}) round trip: max error {rt3_err:.3e}\n");

    // --- Throughput: wall-clock, volatile. MFLOP/s from the shared op
    // model so the number is comparable across runs and hosts.
    let mut peak_1d = 0.0f64;
    for &n in &[128usize, 512, 2048] {
        let plan = Fft::new(n);
        let mut buf = signal(n);
        let s = time3(((1usize << 18) / n).max(64), || plan.forward(&mut buf));
        let mflops = fft_flops(n) / s / 1e6;
        peak_1d = peak_1d.max(mflops);
        println!("1-D n={n:<5} {s:.3e}s/transform  {mflops:8.1} MFLOP/s");
        rows.push_str(&format!("fft1d,{n},{s:.6e},{mflops:.1}\n"));
    }
    let mut buf3 = signal(vol);
    let s3 = time3(8, || plan3.forward(&mut buf3));
    let mflops3 = fft_3d_flops(nx, ny, nz) / s3 / 1e6;
    println!("3-D {nx}x{ny}x{nz}  {s3:.3e}s/transform  {mflops3:8.1} MFLOP/s");
    rows.push_str(&format!("fft3d,{vol},{s3:.6e},{mflops3:.1}\n"));

    // --- Lane kernel vs the in-run scalar reference, on the paper's
    // 120x120 planes (8 per rank) and 120-long sticks: bitwise identity in
    // both directions, then best-of-3 wall time of each.
    let (n, nzl, nsl) = (120usize, 8usize, 64usize);
    let (px, py) = (Fft::new(n), Fft::new(n));
    let planes = signal(n * n * nzl);
    let sticks = signal(n * nsl);
    let (mut scratch, mut col) = (Vec::new(), Vec::new());
    let mut lanes_bitwise = true;
    for dir in [Direction::Inverse, Direction::Forward] {
        let mut want = planes.clone();
        cft_2xy_scalar(&px, &py, &mut want, nzl, n, n, dir, &mut scratch, &mut col);
        let mut got = planes.clone();
        cft_2xy_buf(&px, &py, &mut got, nzl, n, n, dir, &mut scratch, &mut col);
        lanes_bitwise &= bitwise_eq(&got, &want);
        let mut want = sticks.clone();
        cft_1z_scalar(&px, &mut want, n, dir, &mut scratch);
        let mut got = sticks.clone();
        cft_1z(&px, &mut got, nsl, n, dir, &mut scratch);
        lanes_bitwise &= bitwise_eq(&got, &want);
    }
    let mut buf = planes.clone();
    let inv = Direction::Inverse;
    let xy_ref = time3(8, || {
        cft_2xy_scalar(&px, &py, &mut buf, nzl, n, n, inv, &mut scratch, &mut col)
    });
    let xy_lanes = time3(8, || {
        cft_2xy_buf(&px, &py, &mut buf, nzl, n, n, inv, &mut scratch, &mut col)
    });
    let mut buf = sticks.clone();
    let z_ref = time3(64, || cft_1z_scalar(&px, &mut buf, n, inv, &mut scratch));
    let z_lanes = time3(64, || cft_1z(&px, &mut buf, nsl, n, inv, &mut scratch));
    let (xy_speedup, z_speedup) = (xy_ref / xy_lanes, z_ref / z_lanes);

    // --- Line skipping (QE's dofft): the paper's 80 Ry / 20 bohr sticks
    // on the same 120x120 planes. The inverse input has its stick-free
    // rows zero, as the scatter leaves them; each timed repetition
    // restores it, then runs the inverse and forward legs.
    let cell = Cell::cubic(20.0);
    let grid = FftGrid::from_cutoff(&cell, DUAL * 80.0);
    assert_eq!((grid.nr1, grid.nr2), (n, n), "the paper's grid is 120^2 in xy");
    let set = StickSet::build(&GSphere::generate(&cell, 80.0, &grid), &grid);
    let lines = XyLines::from_sticks(&px, &py, set.sticks.iter().map(|s| (s.ix, s.iy)));
    let live_cols = (0..n).filter(|&x| lines.col(x)).count();
    let mut g_planes = vec![Complex64::ZERO; planes.len()];
    for s in &set.sticks {
        for z in 0..nzl {
            g_planes[z * n * n + s.iy * n + s.ix] = planes[z * n * n + s.iy * n + s.ix];
        }
    }
    let (mut dense, mut masked) = (g_planes.clone(), g_planes.clone());
    let mut skip_bitwise = true;
    for dir in [Direction::Inverse, Direction::Forward] {
        let (s, c) = (&mut scratch, &mut col);
        cft_2xy_masked(&px, &py, &mut masked, nzl, n, n, dir, s, c, &lines);
        cft_2xy_buf(&px, &py, &mut dense, nzl, n, n, dir, &mut scratch, &mut col);
        // Inverse: the whole slab; forward: every live column.
        let live = |at: &usize| dir == Direction::Inverse || lines.col(at % n);
        skip_bitwise &= (0..dense.len())
            .filter(live)
            .all(|at| bitwise_eq(&dense[at..=at], &masked[at..=at]));
    }
    let mut buf = g_planes.clone();
    let mut legs = |lines: &XyLines| {
        buf.copy_from_slice(&g_planes);
        for dir in [Direction::Inverse, Direction::Forward] {
            let (s, c) = (&mut scratch, &mut col);
            cft_2xy_masked(&px, &py, &mut buf, nzl, n, n, dir, s, c, lines);
        }
    };
    let xy_dense = time3(8, || legs(&XyLines::DENSE));
    let xy_masked = time3(8, || legs(&lines));
    let skip_speedup = xy_dense / xy_masked;
    let xy_flops = nzl as f64 * 2.0 * n as f64 * fft_flops(n);
    let z_flops = nsl as f64 * fft_flops(n);
    println!("\nLane kernel vs scalar reference (bitwise identical: {lanes_bitwise}):");
    for (name, flops, s_ref, s_lanes, speedup) in [
        ("cft_2xy", xy_flops, xy_ref, xy_lanes, xy_speedup),
        ("cft_1z", z_flops, z_ref, z_lanes, z_speedup),
    ] {
        let (m_ref, m_lanes) = (flops / s_ref / 1e6, flops / s_lanes / 1e6);
        println!(
            "{name:<8} n={n}  scalar {m_ref:8.1} MFLOP/s  lanes {m_lanes:8.1} MFLOP/s  {speedup:.2}x"
        );
        rows.push_str(&format!("{name}_scalar,{n},{s_ref:.6e},{m_ref:.1}\n"));
        rows.push_str(&format!("{name},{n},{s_lanes:.6e},{m_lanes:.1}\n"));
    }
    let ideal = 2.0 * n as f64 / (n + live_cols) as f64;
    println!(
        "\nLine skipping at paper occupancy ({live_cols}/{n} lane-rounded live columns, \
         bitwise equal on live lines: {skip_bitwise}):\n\
         cft_2xy  n={n}  dense {xy_dense:.3e}s  masked {xy_masked:.3e}s  \
         {skip_speedup:.2}x (line-count ratio {ideal:.2}x)"
    );
    // MFLOP/s at the dense flop count: the nominal rate of both legs.
    for (name, s) in [("cft_2xy_dense_legs", xy_dense), ("cft_2xy_masked_legs", xy_masked)] {
        rows.push_str(&format!("{name},{n},{s:.6e},{:.1}\n", 2.0 * xy_flops / s / 1e6));
    }

    h.artifact("fft.csv", &rows, CheckKind::Structure);
    h.metric_f64("max_norm_err_vs_naive", max_err, 18)
        .metric_f64("roundtrip_err_1d", rt_err, 18)
        .metric_f64("roundtrip_err_3d", rt3_err, 18)
        .metric_f64("peak_1d_mflops", peak_1d, 1)
        .metric_f64("fft3d_mflops", mflops3, 1)
        .metric_bool("throughput_positive", peak_1d > 0.0 && mflops3 > 0.0)
        .metric_bool("lanes_bitwise_eq_scalar", lanes_bitwise)
        .metric_f64("xy_lane_speedup", xy_speedup, 2)
        .metric_f64("z_lane_speedup", z_speedup, 2)
        .metric_bool("xy_skip_bitwise_eq_dense", skip_bitwise)
        .metric_f64("xy_skip_speedup", skip_speedup, 2);
    h.gate(
        "fast 1-D transforms match the naive DFT oracle",
        "max_norm_err_vs_naive",
        GateOp::Le,
        1e-12,
    )
    .gate(
        "1-D forward/inverse round trip is machine-precision",
        "roundtrip_err_1d",
        GateOp::Le,
        1e-10,
    )
    .gate(
        "3-D forward/inverse round trip is machine-precision",
        "roundtrip_err_3d",
        GateOp::Le,
        1e-10,
    )
    .gate(
        "the engine produced finite positive throughput",
        "throughput_positive",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "lane-batched cft_2xy_buf and cft_1z equal the scalar reference bit for bit",
        "lanes_bitwise_eq_scalar",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "lane-batched cft_2xy_buf runs >= 1.3x the in-run scalar reference",
        "xy_lane_speedup",
        GateOp::Ge,
        1.3,
    )
    .gate(
        "cft_2xy_masked equals the dense transform bit for bit on every live line",
        "xy_skip_bitwise_eq_dense",
        GateOp::Eq,
        1.0,
    )
    .gate(
        "cft_2xy_masked at paper occupancy runs >= 1.15x the in-run dense transform",
        "xy_skip_speedup",
        GateOp::Ge,
        1.15,
    );
    std::process::exit(h.finish());
}
