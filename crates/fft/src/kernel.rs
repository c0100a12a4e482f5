//! Mixed-radix Cooley–Tukey engine.
//!
//! The plan is a recursive decimation-in-time decomposition following the
//! radix schedule from [`crate::planner::radix_schedule`]: radix-4 stages
//! first (fused pairs of 2s), then 2/3 and generic odd radices. Twiddle
//! factors are precomputed per recursion level for both directions, so one
//! plan serves forward and inverse transforms — exactly how the FFTXlib
//! reuses one `fft_scalar` plan for `fwfft`/`invfft`.
//!
//! There is one recursion, generic over a lane count `W`: every element is
//! a `[Complex64; W]` holding the same index of `W` independent sequences,
//! and every lane runs the scalar operations in the scalar order, so the
//! compiler can vectorize across lanes without changing a bit of any
//! result. [`MixedRadixPlan::process`] is the `W = 1` instance; the batched
//! entry points in [`crate::batch`] run rows, columns and sticks several
//! at a time (the blocking recipe of EFFT: adjacent sequences share one
//! pass with unit-stride butterflies across the block).

use crate::complex::Complex64;
use crate::dft::Direction;
use crate::planner::radix_schedule;
use std::f64::consts::PI;

/// One recursion level of the decomposition.
struct Stage {
    /// Transform length at this level.
    len: usize,
    /// Radix split applied at this level.
    radix: usize,
    /// `len / radix`.
    sub: usize,
    /// Forward twiddles `w(len, j*k)` for `j in 1..radix`, `k in 0..sub`,
    /// stored as `tw[(j-1)*sub + k]`.
    tw_fwd: Vec<Complex64>,
    /// Inverse twiddles (conjugates of `tw_fwd`).
    tw_inv: Vec<Complex64>,
    /// Radix-point DFT roots `w(radix, t)` for the generic butterfly,
    /// forward direction; empty for specialised radices 2/3/4.
    roots_fwd: Vec<Complex64>,
    /// Inverse roots.
    roots_inv: Vec<Complex64>,
}

/// A reusable plan for transforms of one length with only "direct" prime
/// factors (see [`crate::planner::MAX_DIRECT_PRIME`]).
pub struct MixedRadixPlan {
    n: usize,
    stages: Vec<Stage>,
    max_radix: usize,
}

impl MixedRadixPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    /// Panics if `n` contains a prime factor larger than
    /// [`crate::planner::MAX_DIRECT_PRIME`]; such sizes must go through
    /// Bluestein instead.
    pub fn new(n: usize) -> Self {
        let schedule = radix_schedule(n);
        assert!(
            schedule
                .iter()
                .all(|&r| r <= crate::planner::MAX_DIRECT_PRIME || r == 4),
            "MixedRadixPlan: size {n} has a prime factor too large for direct FFT"
        );
        let mut stages = Vec::with_capacity(schedule.len());
        let mut len = n;
        for &radix in &schedule {
            let sub = len / radix;
            let mut tw_fwd = Vec::with_capacity((radix - 1) * sub);
            for j in 1..radix {
                for k in 0..sub {
                    let phase = -2.0 * PI * ((j * k) % len) as f64 / len as f64;
                    tw_fwd.push(Complex64::cis(phase));
                }
            }
            let tw_inv: Vec<_> = tw_fwd.iter().map(|w| w.conj()).collect();
            let (roots_fwd, roots_inv) = if radix > 4 {
                let rf: Vec<_> = (0..radix)
                    .map(|t| Complex64::cis(-2.0 * PI * t as f64 / radix as f64))
                    .collect();
                let ri: Vec<_> = rf.iter().map(|w| w.conj()).collect();
                (rf, ri)
            } else {
                (Vec::new(), Vec::new())
            };
            stages.push(Stage {
                len,
                radix,
                sub,
                tw_fwd,
                tw_inv,
                roots_fwd,
                roots_inv,
            });
            len = sub;
        }
        debug_assert!(len <= 1, "radix schedule did not consume all factors");
        let max_radix = schedule.iter().copied().max().unwrap_or(1);
        MixedRadixPlan {
            n,
            stages,
            max_radix,
        }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-0 plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Executes the transform in place: the one-lane instance of
    /// [`MixedRadixPlan::process_lanes`] over contiguous data. `scratch` is
    /// resized to `n + max_radix` as needed (input copy plus the butterfly
    /// gather buffer; the spectrum is written straight into `data`);
    /// passing the same buffer across calls keeps the hot path free of heap
    /// allocation.
    pub fn process(&self, data: &mut [Complex64], scratch: &mut Vec<Complex64>, dir: Direction) {
        assert_eq!(data.len(), self.n, "MixedRadixPlan: buffer length mismatch");
        self.process_lanes::<1>(data, 1, 1, scratch, dir);
    }

    /// Transforms `W` independent sequences in one pass: element `j` of
    /// lane `l` is `data[j * es + l * ls]`.
    ///
    /// Every lane runs exactly the scalar kernel's operations in its order
    /// (same twiddle index, same butterfly expressions, no fused or
    /// reassociated arithmetic), so each lane is bitwise equal to a `W = 1`
    /// transform of the same sequence; the compiler vectorizes across the
    /// lanes. The input is copied lane-interleaved into `scratch`, which
    /// grows to `W * (2n + max_radix)` (or `W * (n + max_radix)` when
    /// `data` already has that layout, `es == W` and `ls == 1`, and the
    /// spectrum is written into it directly).
    pub(crate) fn process_lanes<const W: usize>(
        &self,
        data: &mut [Complex64],
        es: usize,
        ls: usize,
        scratch: &mut Vec<Complex64>,
        dir: Direction,
    ) {
        let n = self.n;
        if n <= 1 {
            return;
        }
        let in_place = es == W && (ls == 1 || W == 1);
        let want = W * (n * if in_place { 1 } else { 2 } + self.max_radix);
        if scratch.len() < want {
            scratch.resize(want, Complex64::ZERO);
        }
        let (lanes, _) = scratch[..want].as_chunks_mut::<W>();
        let (src, rest) = lanes.split_at_mut(n);
        if in_place {
            src.as_flattened_mut().copy_from_slice(&data[..n * W]);
            let (dst, _) = data[..n * W].as_chunks_mut::<W>();
            self.recurse(0, src, 1, dst, dir, rest);
        } else {
            for (j, s) in src.iter_mut().enumerate() {
                for (l, v) in s.iter_mut().enumerate() {
                    *v = data[j * es + l * ls];
                }
            }
            let (dst, gather) = rest.split_at_mut(n);
            self.recurse(0, src, 1, dst, dir, gather);
            for (j, d) in dst.iter().enumerate() {
                for (l, &v) in d.iter().enumerate() {
                    data[j * es + l * ls] = v;
                }
            }
        }
    }

    /// Recursive DIT step over `W` lanes: reads `sub`-strided input from
    /// `src`, writes the length-`stages[idx].len` spectrum contiguously
    /// into `dst`.
    fn recurse<const W: usize>(
        &self,
        idx: usize,
        src: &[[Complex64; W]],
        stride: usize,
        dst: &mut [[Complex64; W]],
        dir: Direction,
        gather: &mut [[Complex64; W]],
    ) {
        if idx == self.stages.len() {
            dst[0] = src[0];
            return;
        }
        let stage = &self.stages[idx];
        let r = stage.radix;
        let m = stage.sub;
        debug_assert_eq!(dst.len(), stage.len);
        let leaf = m == 1 && idx + 1 == self.stages.len();
        if leaf {
            // Leaf: a bare radix-r DFT of r strided points.
            for (j, g) in gather[..r].iter_mut().enumerate() {
                *g = src[j * stride];
            }
        } else {
            for j in 0..r {
                self.recurse(
                    idx + 1,
                    &src[j * stride..],
                    stride * r,
                    &mut dst[j * m..(j + 1) * m],
                    dir,
                    gather,
                );
            }
        }
        let (tw, roots) = match dir {
            Direction::Forward => (&stage.tw_fwd, &stage.roots_fwd),
            Direction::Inverse => (&stage.tw_inv, &stage.roots_inv),
        };
        let sign = dir.sign();
        for k in 0..m {
            if !leaf {
                gather[0] = dst[k];
                for j in 1..r {
                    let w = tw[(j - 1) * m + k];
                    let x = dst[j * m + k];
                    gather[j] = std::array::from_fn(|l| x[l] * w);
                }
            }
            // `gather[..r]` now holds the r inputs of the radix-r butterfly.
            match r {
                2 => {
                    for l in 0..W {
                        let (a, b) = (gather[0][l], gather[1][l]);
                        dst[k][l] = a + b;
                        dst[m + k][l] = a - b;
                    }
                }
                3 => {
                    for l in 0..W {
                        let v = [gather[0][l], gather[1][l], gather[2][l]];
                        let [o0, o1, o2] = butterfly3(v, sign);
                        dst[k][l] = o0;
                        dst[m + k][l] = o1;
                        dst[2 * m + k][l] = o2;
                    }
                }
                4 => {
                    for l in 0..W {
                        let v = [gather[0][l], gather[1][l], gather[2][l], gather[3][l]];
                        let [o0, o1, o2, o3] = butterfly4(v, sign);
                        dst[k][l] = o0;
                        dst[m + k][l] = o1;
                        dst[2 * m + k][l] = o2;
                        dst[3 * m + k][l] = o3;
                    }
                }
                _ => {
                    // Generic O(r^2) DFT across the gathered points.
                    for q in 0..r {
                        let mut acc = [Complex64::ZERO; W];
                        for (j, g) in gather[..r].iter().enumerate() {
                            let w = roots[(j * q) % r];
                            for l in 0..W {
                                acc[l] += g[l] * w;
                            }
                        }
                        dst[q * m + k] = acc;
                    }
                }
            }
        }
    }
}

/// Radix-3 butterfly.
#[inline]
fn butterfly3(v: [Complex64; 3], sign: f64) -> [Complex64; 3] {
    const SQRT3_2: f64 = 0.866_025_403_784_438_6;
    let s = v[1] + v[2];
    let d = v[1] - v[2];
    let t = v[0] - s.scale(0.5);
    // i * sign * (sqrt(3)/2) * d
    let rot = d.mul_i().scale(sign * SQRT3_2);
    [v[0] + s, t + rot, t - rot]
}

/// Radix-4 butterfly.
#[inline]
fn butterfly4(v: [Complex64; 4], sign: f64) -> [Complex64; 4] {
    let t0 = v[0] + v[2];
    let t1 = v[0] - v[2];
    let t2 = v[1] + v[3];
    // w(4,1) = e^{sign*i*pi/2} = sign * i
    let t3 = (v[1] - v[3]).mul_i().scale(sign);
    [t0 + t2, t1 + t3, t0 - t2, t1 - t3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_dist};
    use crate::dft::naive_dft;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.21).cos()))
            .collect()
    }

    fn check_against_naive(n: usize) {
        let x = ramp(n);
        let expect_f = naive_dft(&x, Direction::Forward);
        let expect_i = naive_dft(&x, Direction::Inverse);
        let plan = MixedRadixPlan::new(n);
        let mut scratch = Vec::new();

        let mut data = x.clone();
        plan.process(&mut data, &mut scratch, Direction::Forward);
        let tol = 1e-9 * (n as f64);
        assert!(
            max_dist(&data, &expect_f) < tol,
            "forward mismatch for n={n}: {}",
            max_dist(&data, &expect_f)
        );

        let mut data = x;
        plan.process(&mut data, &mut scratch, Direction::Inverse);
        assert!(
            max_dist(&data, &expect_i) < tol,
            "inverse mismatch for n={n}"
        );
    }

    #[test]
    fn power_of_two_sizes() {
        for n in [1, 2, 4, 8, 16, 32, 64, 128] {
            check_against_naive(n);
        }
    }

    #[test]
    fn composite_good_sizes() {
        for n in [3, 5, 6, 7, 9, 10, 12, 15, 20, 24, 30, 45, 60, 90, 120] {
            check_against_naive(n);
        }
    }

    #[test]
    fn sizes_with_larger_direct_primes() {
        for n in [11, 13, 17, 22, 26, 33, 37, 74] {
            check_against_naive(n);
        }
    }

    #[test]
    fn roundtrip_recovers_input() {
        for n in [8, 12, 35, 120] {
            let x = ramp(n);
            let plan = MixedRadixPlan::new(n);
            let mut scratch = Vec::new();
            let mut data = x.clone();
            plan.process(&mut data, &mut scratch, Direction::Forward);
            plan.process(&mut data, &mut scratch, Direction::Inverse);
            for v in data.iter_mut() {
                *v /= n as f64;
            }
            assert!(max_dist(&data, &x) < 1e-10, "roundtrip failed for n={n}");
        }
    }

    #[test]
    fn linearity() {
        let n = 24;
        let a = ramp(n);
        let b: Vec<_> = ramp(n).iter().map(|v| v.mul_i()).collect();
        let plan = MixedRadixPlan::new(n);
        let mut scratch = Vec::new();
        let mut fa = a.clone();
        plan.process(&mut fa, &mut scratch, Direction::Forward);
        let mut fb = b.clone();
        plan.process(&mut fb, &mut scratch, Direction::Forward);
        let mut fab: Vec<_> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.process(&mut fab, &mut scratch, Direction::Forward);
        let sum: Vec<_> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_dist(&fab, &sum) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn wrong_length_panics() {
        let plan = MixedRadixPlan::new(8);
        let mut data = vec![Complex64::ZERO; 7];
        plan.process(&mut data, &mut Vec::new(), Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "prime factor too large")]
    fn rejects_big_primes() {
        MixedRadixPlan::new(41);
    }
}
