//! Batched strided transforms mirroring FFTXlib's `fft_scalar` entry points.
//!
//! * [`cft_1z`] — many independent 1-D transforms along z over contiguous
//!   "sticks" (the per-rank pencil batch between `pack` and `scatter`).
//! * [`cft_2xy`] — 2-D transforms over whole xy planes (the per-rank slab
//!   batch after `scatter`); [`cft_2xy_masked`] transforms only the lines
//!   that carry sticks ([`XyLines`], QE's `dofft`).
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

/// [`cft_2xy`] with a caller-owned y-column gather buffer: the dense
/// transform, [`cft_2xy_masked`] over [`XyLines::DENSE`].
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
    let dense = &XyLines::DENSE;
    cft_2xy_masked(plan_x, plan_y, data, nzl, ldx, ldy, dir, scratch, col, dense);
}

/// The xy lines [`cft_2xy_masked`] transforms — FFTXlib's `dofft` flags.
///
/// The order is x then y in both directions, so only one line set matters
/// per direction:
/// * **inverse** transforms the y-rows whose flag is set; the others must
///   be zero on entry (no stick lands in them) and stay zero;
/// * **forward** y-transforms the x-columns whose flag is set; the others
///   are left x-transformed (and scaled) only, values no stick reads.
///
/// Flags are rounded up to whole lane groups of the kernel, so a set flag
/// means exactly "this line was transformed": the lane-batched rows and
/// columns count per group of [`LANES`], the scalar tails and gathered
/// Bluestein columns per line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XyLines {
    /// `(rows, cols)`: one flag per y-row and per x-column; `None` is
    /// every line.
    live: Option<(Vec<bool>, Vec<bool>)>,
}

impl XyLines {
    /// Every line: the dense transform.
    pub const DENSE: XyLines = XyLines { live: None };

    /// The lines that carry sticks at the `(ix, iy)` positions of
    /// `sticks`, rounded up to the lane groups of the kernel that runs
    /// `plan_x` rows and `plan_y` columns.
    ///
    /// # Panics
    /// Panics when a stick lies outside the `plan_x.len() × plan_y.len()`
    /// plane.
    pub fn from_sticks(
        plan_x: &Fft,
        plan_y: &Fft,
        sticks: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let (nx, ny) = (plan_x.len(), plan_y.len());
        let (mut rows, mut cols) = (vec![false; ny], vec![false; nx]);
        for (ix, iy) in sticks {
            assert!(ix < nx && iy < ny, "XyLines: stick ({ix}, {iy}) outside {nx}x{ny}");
            cols[ix] = true;
            rows[iy] = true;
        }
        round_to_lanes(&mut rows, ny - ny % LANES);
        round_to_lanes(&mut cols, strided_cols(plan_x, plan_y));
        XyLines {
            live: Some((rows, cols)),
        }
    }

    /// Whether y-row `y` is transformed on the inverse leg.
    pub fn row(&self, y: usize) -> bool {
        self.live.as_ref().is_none_or(|(rows, _)| rows[y])
    }

    /// Whether x-column `x` is y-transformed on the forward leg.
    pub fn col(&self, x: usize) -> bool {
        self.live.as_ref().is_none_or(|(_, cols)| cols[x])
    }

    /// Whether these lines fit an `nx × ny` plane.
    fn fits(&self, nx: usize, ny: usize) -> bool {
        self.live
            .as_ref()
            .is_none_or(|(rows, cols)| rows.len() == ny && cols.len() == nx)
    }
}

/// Sets every flag of a lane group in `live[..batched]` that has one set.
fn round_to_lanes(live: &mut [bool], batched: usize) {
    for group in live[..batched].chunks_exact_mut(LANES) {
        if group.contains(&true) {
            group.fill(true);
        }
    }
}

/// The leading x-columns the lane kernel runs as adjacent strided lanes;
/// the rest are gathered one at a time (all of them for Bluestein `plan_y`).
fn strided_cols(plan_x: &Fft, plan_y: &Fft) -> usize {
    let nx = plan_x.len();
    if plan_y.has_strided_lanes() {
        nx - nx % LANES
    } else {
        0
    }
}

/// [`cft_2xy`] over the lines of `lines` only (see [`XyLines`]), with a
/// caller-owned y-column gather buffer. Rows and columns run through the
/// lane kernel several at a time (adjacent columns need no gather), so
/// `col` serves only the column tail (`nx` not a multiple of the lane
/// count) and Bluestein columns. It is grown to `plan_y.len()` on first
/// use and reused afterwards, so a warm caller (plan + scratch + col
/// retained across iterations) performs no heap allocation per call — the
/// plan-once/execute-many contract of the execution engines' buffer arenas.
///
/// Every transformed line is bitwise equal to the dense transform's: on
/// the inverse leg the whole plane (skipped rows are zero either way), on
/// the forward leg every flagged column.
///
/// # Panics
/// Panics when `lines` was built for another plane shape.
#[allow(clippy::too_many_arguments)] // mirrors QE's cft_2xy signature
pub fn cft_2xy_masked(
    plan_x: &Fft,
    plan_y: &Fft,
    data: &mut [Complex64],
    nzl: usize,
    ldx: usize,
    ldy: usize,
    dir: Direction,
    scratch: &mut Vec<Complex64>,
    col: &mut Vec<Complex64>,
    lines: &XyLines,
) {
    let nx = plan_x.len();
    let ny = plan_y.len();
    assert!(ldx >= nx, "cft_2xy: ldx ({ldx}) < nx ({nx})");
    assert!(ldy >= ny, "cft_2xy: ldy ({ldy}) < ny ({ny})");
    assert!(lines.fits(nx, ny), "cft_2xy: lines built for another plane");
    let plane_len = ldx * ldy;
    assert!(
        data.len() >= nzl * plane_len,
        "cft_2xy: buffer too small: {} < {}",
        data.len(),
        nzl * plane_len
    );
    let scale = 1.0 / (nx.max(1) * ny.max(1)) as f64;
    let rows = ny - ny % LANES;
    let cols = strided_cols(plan_x, plan_y);
    let row_live = |y| dir == Direction::Forward || lines.row(y);
    let col_live = |x| dir == Direction::Inverse || lines.col(x);
    if cols < nx {
        col.clear();
        col.resize(ny, Complex64::ZERO);
    }
    for z in 0..nzl {
        let plane = &mut data[z * plane_len..(z + 1) * plane_len];
        debug_assert!(
            (0..ny)
                .filter(|&y| !row_live(y))
                .all(|y| plane[y * ldx..y * ldx + nx].iter().all(|v| *v == Complex64::ZERO)),
            "cft_2xy: a skipped inverse row is not zero"
        );
        // Rows along x are contiguous: LANES rows per pass, lane stride ldx.
        for y in (0..rows).step_by(LANES).filter(|&y| row_live(y)) {
            plan_x.process_lanes::<LANES>(&mut plane[y * ldx..], 1, ldx, scratch, dir);
        }
        for y in (rows..ny).filter(|&y| row_live(y)) {
            plan_x.process_with(&mut plane[y * ldx..y * ldx + nx], scratch, dir);
        }
        // Columns along y are strided by ldx: LANES adjacent columns per
        // pass (lane stride 1) need no gather; the tail gathers each one.
        for x in (0..cols).step_by(LANES).filter(|&x| col_live(x)) {
            plan_y.process_lanes::<LANES>(&mut plane[x..], ldx, 1, scratch, dir);
        }
        for x in (cols..nx).filter(|&x| col_live(x)) {
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

    /// The sticks of a disc of radius `r` in FFT order on an `nx × ny`
    /// plane, the shape a wavefunction cutoff gives: radius 28 on 120²
    /// occupies 57 of the 120 x-columns, the paper's occupancy.
    fn disc(nx: usize, ny: usize, r: i64) -> Vec<(usize, usize)> {
        let k = |i: usize, n: usize| if 2 * i < n { i as i64 } else { i as i64 - n as i64 };
        (0..ny)
            .flat_map(|iy| (0..nx).map(move |ix| (ix, iy)))
            .filter(|&(ix, iy)| k(ix, nx).pow(2) + k(iy, ny).pow(2) <= r * r)
            .collect()
    }

    /// `(nx, ny, ldx, ldy, disc radius)`: the paper's planes, padding in x
    /// and y with odd tails, and Bluestein columns (41).
    const MASKED_GEOMETRIES: [(usize, usize, usize, usize, i64); 3] =
        [(120, 120, 120, 120, 28), (18, 21, 20, 23, 5), (13, 41, 15, 42, 4)];

    /// Every mask a geometry is checked under: the disc, no sticks, every
    /// position, and the dense transform.
    fn masks(px: &Fft, py: &Fft, r: i64) -> Vec<XyLines> {
        let (nx, ny) = (px.len(), py.len());
        let all = (0..ny).flat_map(|iy| (0..nx).map(move |ix| (ix, iy)));
        vec![
            XyLines::from_sticks(px, py, disc(nx, ny, r)),
            XyLines::from_sticks(px, py, []),
            XyLines::from_sticks(px, py, all),
            XyLines::DENSE,
        ]
    }

    #[test]
    fn paper_disc_occupies_57_of_120_columns() {
        let sticks = disc(120, 120, 28);
        let cols: std::collections::BTreeSet<_> = sticks.iter().map(|s| s.0).collect();
        assert_eq!(cols.len(), 57);
        let p = Fft::new(120);
        let lines = XyLines::from_sticks(&p, &p, sticks);
        // Lane rounding: kx in 0..=28 and -28..=-1 fill groups 0..32 and 92..120.
        assert_eq!((0..120).filter(|&x| lines.col(x)).count(), 60);
        assert_eq!((0..120).filter(|&y| lines.row(y)).count(), 60);
    }

    #[test]
    fn lines_round_to_lane_groups_and_count_tails_per_line() {
        let (p18, p21, p41) = (Fft::new(18), Fft::new(21), Fft::new(41));
        let set = |f: &dyn Fn(usize) -> bool, n: usize| {
            (0..n).filter(|&i| f(i)).collect::<Vec<_>>()
        };
        let l = XyLines::from_sticks(&p18, &p21, [(5, 2), (17, 20)]);
        assert_eq!(set(&|x| l.col(x), 18), [4, 5, 6, 7, 17]);
        assert_eq!(set(&|y| l.row(y), 21), [0, 1, 2, 3, 20]);
        // Bluestein columns are gathered one at a time: no rounding.
        let l = XyLines::from_sticks(&p18, &p41, [(5, 2)]);
        assert_eq!(set(&|x| l.col(x), 18), [5]);
        assert_eq!(set(&|y| l.row(y), 41), [0, 1, 2, 3]);
        assert!((0..18).all(|x| XyLines::DENSE.col(x)));
    }

    #[test]
    fn masked_inverse_equals_dense_bitwise_when_dead_rows_are_zero() {
        for (nx, ny, ldx, ldy, r) in MASKED_GEOMETRIES {
            let (px, py) = (Fft::new(nx), Fft::new(ny));
            let nzl = 2;
            for lines in masks(&px, &py, r) {
                // Dead rows zero, as prep + the scatter unpack leave them;
                // padding stays non-zero to show it is untouched.
                let mut orig = ramp(nzl * ldx * ldy, 0.31);
                for plane in orig.chunks_exact_mut(ldx * ldy) {
                    for y in (0..ny).filter(|&y| !lines.row(y)) {
                        plane[y * ldx..y * ldx + nx].fill(Complex64::ZERO);
                    }
                }
                let (mut scratch, mut col) = (Vec::new(), Vec::new());
                let dir = Direction::Inverse;
                let mut got = orig.clone();
                let (s, c) = (&mut scratch, &mut col);
                cft_2xy_masked(&px, &py, &mut got, nzl, ldx, ldy, dir, s, c, &lines);
                let mut want = orig;
                cft_2xy_buf(&px, &py, &mut want, nzl, ldx, ldy, dir, &mut scratch, &mut col);
                assert_eq!(bits(&got), bits(&want), "{nx}x{ny} ld {ldx}x{ldy} {lines:?}");
            }
        }
    }

    #[test]
    fn masked_forward_equals_dense_bitwise_on_live_columns() {
        for (nx, ny, ldx, ldy, r) in MASKED_GEOMETRIES {
            let (px, py) = (Fft::new(nx), Fft::new(ny));
            let nzl = 2;
            let orig = ramp(nzl * ldx * ldy, 0.17);
            for lines in masks(&px, &py, r) {
                let (mut scratch, mut col) = (Vec::new(), Vec::new());
                let dir = Direction::Forward;
                let mut got = orig.clone();
                let (s, c) = (&mut scratch, &mut col);
                cft_2xy_masked(&px, &py, &mut got, nzl, ldx, ldy, dir, s, c, &lines);
                let mut want = orig.clone();
                cft_2xy_buf(&px, &py, &mut want, nzl, ldx, ldy, dir, &mut scratch, &mut col);
                for at in 0..nzl * ldx * ldy {
                    let (x, y) = (at % ldx, at / ldx % ldy);
                    let expect = match (x < nx && y < ny, lines.col(x.min(nx - 1))) {
                        (true, true) => want[at],
                        (true, false) => continue,
                        (false, _) => orig[at],
                    };
                    let pos = format!("{nx}x{ny} ld {ldx}x{ldy} ({x}, {y}) {lines:?}");
                    assert_eq!(bits(&[got[at]]), bits(&[expect]), "{pos}");
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "skipped inverse row is not zero")]
    fn masked_inverse_rejects_a_non_zero_skipped_row() {
        let p = Fft::new(8);
        let lines = XyLines::from_sticks(&p, &p, [(0, 0)]);
        let mut data = vec![Complex64::ZERO; 64];
        data[5 * 8 + 3] = c64(1.0, 0.0);
        let dir = Direction::Inverse;
        cft_2xy_masked(&p, &p, &mut data, 1, 8, 8, dir, &mut Vec::new(), &mut Vec::new(), &lines);
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
    fn every_isa_runs_the_paper_disc_bitwise_equal_to_baseline() {
        use crate::isa::{report_instances, Isa};
        // 120² planes at the paper's occupancy, and 120-long sticks with
        // padding and a scalar tail.
        let (n, nzl, nsl, ldz) = (120, 2, 10, 124);
        let base = Fft::with_isa(n, Isa::Baseline);
        let lines = XyLines::from_sticks(&base, &base, disc(n, n, 28));
        // Inverse input: zero outside the sticks, as the scatter leaves it.
        let mut planes = ramp(nzl * n * n, 0.29);
        for (at, v) in planes.iter_mut().enumerate() {
            if !lines.row(at / n % n) {
                *v = Complex64::ZERO;
            }
        }
        let sticks = ramp(nsl * ldz, 0.43);
        let (mut scratch, mut col) = (Vec::new(), Vec::new());
        for isa in Isa::available() {
            let (plan, name) = (Fft::with_isa(n, isa), isa.name());
            for dir in [Direction::Inverse, Direction::Forward] {
                let (mut got, mut want) = (planes.clone(), planes.clone());
                for (p, buf) in [(&plan, &mut got), (&base, &mut want)] {
                    let (s, c) = (&mut scratch, &mut col);
                    cft_2xy_masked(p, p, buf, nzl, n, n, dir, s, c, &lines);
                }
                assert_eq!(bits(&got), bits(&want), "cft_2xy_masked {name} {dir:?}");
                let (mut got, mut want) = (sticks.clone(), sticks.clone());
                cft_1z(&plan, &mut got, nsl, ldz, dir, &mut scratch);
                cft_1z(&base, &mut want, nsl, ldz, dir, &mut scratch);
                assert_eq!(bits(&got), bits(&want), "cft_1z {name} {dir:?}");
            }
        }
        report_instances("every_isa_runs_the_paper_disc_bitwise_equal_to_baseline");
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
