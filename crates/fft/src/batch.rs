//! Batched strided transforms mirroring FFTXlib's `fft_scalar` entry points.
//!
//! * [`cft_1z`] — many independent 1-D transforms along z over contiguous
//!   "sticks" (the per-rank pencil batch between `pack` and `scatter`).
//! * [`cft_2xy`] — 2-D transforms over whole xy planes (the per-rank slab
//!   batch after `scatter`).
//!
//! Scaling follows Quantum ESPRESSO's convention: the *forward* direction
//! (r-space → G-space) carries the normalisation — `1/nz` in `cft_1z` and
//! `1/(nx*ny)` in `cft_2xy`, so a full forward 3-D pass scales by `1/N` and
//! the backward pass is unnormalised.

use crate::complex::Complex64;
use crate::dft::Direction;
use crate::fft1d::Fft;

/// Sequences per pass of the lane kernel: rows, columns and sticks are
/// transformed this many at a time, each lane bitwise equal to a scalar
/// transform.
const LANES: usize = 4;

/// Transforms `nsl` sticks of logical length `plan.len()` stored with leading
/// dimension `ldz` (`data[s*ldz .. s*ldz + plan.len()]` is stick `s`).
///
/// Forward transforms are scaled by `1/nz`.
///
/// # Panics
/// Panics when `ldz < plan.len()` or `data` is shorter than `nsl * ldz`.
pub fn cft_1z(
    plan: &Fft,
    data: &mut [Complex64],
    nsl: usize,
    ldz: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
) {
    let nz = plan.len();
    assert!(ldz >= nz, "cft_1z: ldz ({ldz}) < nz ({nz})");
    assert!(
        data.len() >= nsl * ldz,
        "cft_1z: buffer too small: {} < {}",
        data.len(),
        nsl * ldz
    );
    let scale = 1.0 / nz.max(1) as f64;
    let scale_sticks = |data: &mut [Complex64], sticks: std::ops::Range<usize>| {
        if dir == Direction::Forward {
            for s in sticks {
                for v in data[s * ldz..s * ldz + nz].iter_mut() {
                    *v = v.scale(scale);
                }
            }
        }
    };
    // Sticks go through the lane kernel LANES at a time; the tail runs
    // the scalar kernel, bitwise equal to a lane.
    let batched = nsl - nsl % LANES;
    for s in (0..batched).step_by(LANES) {
        plan.process_lanes::<LANES>(&mut data[s * ldz..], 1, ldz, scratch, dir);
        scale_sticks(data, s..s + LANES);
    }
    for s in batched..nsl {
        plan.process_with(&mut data[s * ldz..s * ldz + nz], scratch, dir);
        scale_sticks(data, s..s + 1);
    }
}

/// Transforms `nzl` xy planes in place. Each plane occupies `ldx * ldy`
/// elements with x fastest; rows are `plan_x.len()` long, columns
/// `plan_y.len()`.
///
/// Forward transforms are scaled by `1/(nx*ny)`.
#[allow(clippy::too_many_arguments)] // mirrors QE's cft_2xy signature
pub fn cft_2xy(
    plan_x: &Fft,
    plan_y: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
) {
    let mut col = Vec::new();
    cft_2xy_buf(plan_x, plan_y, data, nzl, ldx, ldy, dir, scratch, &mut col);
}

/// [`cft_2xy`] with a caller-owned y-column gather buffer. Rows and
/// columns run through the lane kernel several at a time (adjacent columns
/// need no gather), so `col` serves only the column tail (`nx` not a
/// multiple of the lane count) and Bluestein columns. It is grown to
/// `plan_y.len()` on first use and reused afterwards, so a warm caller
/// (plan + scratch + col retained across iterations) performs no heap
/// allocation per call — the plan-once/execute-many contract of the
/// execution engines' buffer arenas.
#[allow(clippy::too_many_arguments)] // mirrors QE's cft_2xy signature
pub fn cft_2xy_buf(
    plan_x: &Fft,
    plan_y: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
) {
    let nx = plan_x.len();
    let ny = plan_y.len();
    assert!(ldx >= nx, "cft_2xy: ldx ({ldx}) < nx ({nx})");
    assert!(ldy >= ny, "cft_2xy: ldy ({ldy}) < ny ({ny})");
    let plane_len = ldx * ldy;
    assert!(
        data.len() >= nzl * plane_len,
        "cft_2xy: buffer too small: {} < {}",
        data.len(),
        nzl * plane_len
    );
    let scale = 1.0 / (nx.max(1) * ny.max(1)) as f64;
    let rows = ny - ny % LANES;
    // Bluestein columns cannot run strided lanes: they all take the gather.
    let cols = if plan_y.has_strided_lanes() {
        nx - nx % LANES
    } else {
        0
    };
    if cols < nx {
        col.clear();
        col.resize(ny, Complex64::ZERO);
    }
    for z in 0..nzl {
        let plane = &mut data[z * plane_len..(z + 1) * plane_len];
        // Rows along x are contiguous: LANES rows per pass, lane stride ldx.
        for y in (0..rows).step_by(LANES) {
            plan_x.process_lanes::<LANES>(&mut plane[y * ldx..], 1, ldx, scratch, dir);
        }
        for y in rows..ny {
            plan_x.process_with(&mut plane[y * ldx..y * ldx + nx], scratch, dir);
        }
        // Columns along y are strided by ldx: LANES adjacent columns per
        // pass (lane stride 1) need no gather; the tail gathers each one.
        for x in (0..cols).step_by(LANES) {
            plan_y.process_lanes::<LANES>(&mut plane[x..], ldx, 1, scratch, dir);
        }
        for x in cols..nx {
            for (y, slot) in col.iter_mut().enumerate() {
                *slot = plane[x + y * ldx];
            }
            plan_y.process_with(col, scratch, dir);
            for (y, &v) in col.iter().enumerate() {
                plane[x + y * ldx] = v;
            }
        }
        if dir == Direction::Forward {
            for y in 0..ny {
                for v in plane[y * ldx..y * ldx + nx].iter_mut() {
                    *v = v.scale(scale);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_dist};
    use crate::dft::naive_dft;

    fn ramp(n: usize, seed: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * seed).sin(), (i as f64 * seed * 0.5).cos()))
            .collect()
    }

    #[test]
    fn cft_1z_matches_per_stick_dft() {
        let nz = 12;
        let ldz = 16;
        let nsl = 5;
        let mut data = ramp(nsl * ldz, 0.41);
        let orig = data.clone();
        let plan = Fft::new(nz);
        let mut scratch = Vec::new();
        cft_1z(&plan, &mut data, nsl, ldz, Direction::Forward, &mut scratch);
        for s in 0..nsl {
            let expect: Vec<_> = naive_dft(&orig[s * ldz..s * ldz + nz], Direction::Forward)
                .into_iter()
                .map(|v| v / nz as f64)
                .collect();
            assert!(
                max_dist(&data[s * ldz..s * ldz + nz], &expect) < 1e-10,
                "stick {s}"
            );
            // Padding beyond nz must be untouched.
            assert_eq!(&data[s * ldz + nz..(s + 1) * ldz], &orig[s * ldz + nz..(s + 1) * ldz]);
        }
    }

    #[test]
    fn cft_1z_roundtrip() {
        let nz = 20;
        let nsl = 3;
        let mut data = ramp(nsl * nz, 0.7);
        let orig = data.clone();
        let plan = Fft::new(nz);
        let mut scratch = Vec::new();
        cft_1z(&plan, &mut data, nsl, nz, Direction::Forward, &mut scratch);
        cft_1z(&plan, &mut data, nsl, nz, Direction::Inverse, &mut scratch);
        assert!(max_dist(&data, &orig) < 1e-10);
    }

    #[test]
    fn cft_2xy_matches_naive_2d() {
        let (nx, ny) = (6, 4);
        let (ldx, ldy) = (8, 4);
        let mut data = ramp(ldx * ldy, 0.3);
        let orig = data.clone();
        let px = Fft::new(nx);
        let py = Fft::new(ny);
        let mut scratch = Vec::new();
        cft_2xy(&px, &py, &mut data, 1, ldx, ldy, Direction::Forward, &mut scratch);

        // Reference: rows then columns, scaled 1/(nx*ny).
        let mut expect = orig.clone();
        for y in 0..ny {
            let row = naive_dft(&expect[y * ldx..y * ldx + nx], Direction::Forward);
            expect[y * ldx..y * ldx + nx].copy_from_slice(&row);
        }
        for x in 0..nx {
            let col: Vec<_> = (0..ny).map(|y| expect[x + y * ldx]).collect();
            let out = naive_dft(&col, Direction::Forward);
            for (y, v) in out.into_iter().enumerate() {
                expect[x + y * ldx] = v;
            }
        }
        for y in 0..ny {
            for x in 0..nx {
                expect[x + y * ldx] /= (nx * ny) as f64;
            }
        }
        for y in 0..ny {
            assert!(
                max_dist(&data[y * ldx..y * ldx + nx], &expect[y * ldx..y * ldx + nx]) < 1e-10,
                "row {y}"
            );
        }
    }

    #[test]
    fn cft_2xy_multi_plane_roundtrip() {
        let (nx, ny, nzl) = (5, 6, 3);
        let mut data = ramp(nx * ny * nzl, 0.9);
        let orig = data.clone();
        let px = Fft::new(nx);
        let py = Fft::new(ny);
        let mut scratch = Vec::new();
        cft_2xy(&px, &py, &mut data, nzl, nx, ny, Direction::Forward, &mut scratch);
        cft_2xy(&px, &py, &mut data, nzl, nx, ny, Direction::Inverse, &mut scratch);
        assert!(max_dist(&data, &orig) < 1e-10);
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// One-sequence-at-a-time reference through `process_with`: every row,
    /// then every gathered column, then the forward scale.
    #[allow(clippy::too_many_arguments)]
    fn cft_2xy_scalar(
        px: &Fft,
        py: &Fft,
        data: &mut [Complex64],
        nzl: usize,
        ldx: usize,
        ldy: usize,
        dir: Direction,
    ) {
        let (nx, ny) = (px.len(), py.len());
        let mut scratch = Vec::new();
        for plane in data.chunks_exact_mut(ldx * ldy).take(nzl) {
            for y in 0..ny {
                px.process_with(&mut plane[y * ldx..y * ldx + nx], &mut scratch, dir);
            }
            for x in 0..nx {
                let mut col: Vec<_> = (0..ny).map(|y| plane[x + y * ldx]).collect();
                py.process_with(&mut col, &mut scratch, dir);
                for (y, v) in col.into_iter().enumerate() {
                    plane[x + y * ldx] = v;
                }
            }
            if dir == Direction::Forward {
                for y in 0..ny {
                    for v in &mut plane[y * ldx..y * ldx + nx] {
                        *v = v.scale(1.0 / (nx * ny) as f64);
                    }
                }
            }
        }
    }

    #[test]
    fn cft_2xy_lanes_match_scalar_reference_bitwise() {
        // (nx, ny, ldx, ldy): neither dimension a multiple of the lane
        // count, padded in x and y; the last geometry has Bluestein columns.
        for (nx, ny, ldx, ldy) in [(18, 21, 20, 23), (14, 9, 17, 9), (13, 41, 15, 42)] {
            let (px, py) = (Fft::new(nx), Fft::new(ny));
            let nzl = 3;
            let orig = ramp(nzl * ldx * ldy, 0.23);
            let (mut scratch, mut col) = (Vec::new(), Vec::new());
            for dir in [Direction::Forward, Direction::Inverse] {
                let (mut got, c) = (orig.clone(), &mut col);
                cft_2xy_buf(&px, &py, &mut got, nzl, ldx, ldy, dir, &mut scratch, c);
                let mut want = orig.clone();
                cft_2xy_scalar(&px, &py, &mut want, nzl, ldx, ldy, dir);
                // Whole-buffer equality: padding untouched too.
                assert_eq!(bits(&got), bits(&want), "{nx}x{ny} ld {ldx}x{ldy} {dir:?}");
            }
        }
    }

    #[test]
    fn cft_1z_lanes_match_scalar_reference_bitwise() {
        for (nz, ldz, nsl) in [(18, 21, 7), (120, 124, 10), (41, 44, 6)] {
            let plan = Fft::new(nz);
            let orig = ramp(nsl * ldz, 0.57);
            let mut scratch = Vec::new();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut got = orig.clone();
                cft_1z(&plan, &mut got, nsl, ldz, dir, &mut scratch);
                let mut want = orig.clone();
                for stick in want.chunks_exact_mut(ldz) {
                    plan.process_with(&mut stick[..nz], &mut scratch, dir);
                    if dir == Direction::Forward {
                        for v in &mut stick[..nz] {
                            *v = v.scale(1.0 / nz as f64);
                        }
                    }
                }
                let at = format!("nz={nz} ldz={ldz} nsl={nsl} {dir:?}");
                assert_eq!(bits(&got), bits(&want), "{at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn cft_1z_checks_length() {
        let plan = Fft::new(8);
        let mut data = vec![Complex64::ZERO; 15];
        cft_1z(&plan, &mut data, 2, 8, Direction::Forward, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "ldx")]
    fn cft_2xy_checks_ld() {
        let px = Fft::new(8);
        let py = Fft::new(4);
        let mut data = vec![Complex64::ZERO; 4 * 4];
        cft_2xy(&px, &py, &mut data, 1, 4, 4, Direction::Forward, &mut Vec::new());
    }
}
