//! Naive O(n^2) discrete Fourier transform, used as the correctness oracle
//! for every fast transform in this crate.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Transform direction. The sign is the sign of the exponent:
/// `Forward` uses `e^{-2 pi i n k / N}` (the physics/QE convention for
/// r-space -> G-space), `Inverse` uses `e^{+2 pi i n k / N}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Negative exponent sign.
    Forward,
    /// Positive exponent sign.
    Inverse,
}

impl Direction {
    /// The sign of the exponent as `-1.0` or `+1.0`.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Self {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }
}

/// Computes the unnormalised DFT of `input` in the given direction.
///
/// `X[k] = sum_n x[n] e^{sign * 2 pi i n k / N}`
pub fn naive_dft(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let sign = dir.sign();
    let mut out = vec![Complex64::ZERO; n];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            // Reduce j*k modulo n before the trig call to keep the argument
            // small; j*k can overflow the f64 mantissa for large n otherwise.
            let phase = sign * 2.0 * PI * ((j * k) % n) as f64 / n as f64;
            acc += x * Complex64::cis(phase);
        }
        *slot = acc;
    }
    out
}

/// Computes the unnormalised DFT of `input` like [`naive_dft`], with the
/// same reduced-phase twiddles, but accumulates every output with
/// Neumaier-compensated summation over the individual real products, so
/// the summation adds no error of its own. What remains is the rounding of
/// each twiddle and each product, about `eps * |x[j]|` per term. This is
/// the reference of the FFT accuracy contract.
pub fn compensated_dft(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    /// Adds `v` to the compensated sum `(sum, comp)`.
    fn neumaier(sum: &mut f64, comp: &mut f64, v: f64) {
        let t = *sum + v;
        if sum.abs() >= v.abs() {
            *comp += (*sum - t) + v;
        } else {
            *comp += (v - t) + *sum;
        }
        *sum = t;
    }
    let n = input.len();
    let sign = dir.sign();
    (0..n)
        .map(|k| {
            let (mut re, mut re_c, mut im, mut im_c) = (0.0, 0.0, 0.0, 0.0);
            for (j, &x) in input.iter().enumerate() {
                let w = Complex64::cis(sign * 2.0 * PI * ((j * k) % n) as f64 / n as f64);
                neumaier(&mut re, &mut re_c, x.re * w.re);
                neumaier(&mut re, &mut re_c, -(x.im * w.im));
                neumaier(&mut im, &mut im_c, x.re * w.im);
                neumaier(&mut im, &mut im_c, x.im * w.re);
            }
            Complex64::new(re + re_c, im + im_c)
        })
        .collect()
}

/// Naive 3-D DFT over a dense grid with x fastest, layout
/// `index = x + nx*(y + ny*z)`. Used only in tests of the fast 3-D path.
pub fn naive_dft_3d(
    input: &[Complex64],
    nx: usize,
    ny: usize,
    nz: usize,
    dir: Direction,
) -> Vec<Complex64> {
    assert_eq!(input.len(), nx * ny * nz);
    let mut work = input.to_vec();
    // Transform along x.
    for z in 0..nz {
        for y in 0..ny {
            let base = nx * (y + ny * z);
            let row = naive_dft(&work[base..base + nx], dir);
            work[base..base + nx].copy_from_slice(&row);
        }
    }
    // Transform along y.
    let mut col = vec![Complex64::ZERO; ny];
    for z in 0..nz {
        for x in 0..nx {
            for y in 0..ny {
                col[y] = work[x + nx * (y + ny * z)];
            }
            let out = naive_dft(&col, dir);
            for y in 0..ny {
                work[x + nx * (y + ny * z)] = out[y];
            }
        }
    }
    // Transform along z.
    let mut colz = vec![Complex64::ZERO; nz];
    for y in 0..ny {
        for x in 0..nx {
            for z in 0..nz {
                colz[z] = work[x + nx * (y + ny * z)];
            }
            let out = naive_dft(&colz, dir);
            for z in 0..nz {
                work[x + nx * (y + ny * z)] = out[z];
            }
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn direction_signs() {
        assert_eq!(Direction::Forward.sign(), -1.0);
        assert_eq!(Direction::Inverse.sign(), 1.0);
        assert_eq!(Direction::Forward.reverse(), Direction::Inverse);
        assert_eq!(Direction::Inverse.reverse(), Direction::Forward);
    }

    #[test]
    fn dft_of_empty_and_singleton() {
        assert!(naive_dft(&[], Direction::Forward).is_empty());
        let one = naive_dft(&[c64(2.0, -1.0)], Direction::Forward);
        assert_eq!(one, vec![c64(2.0, -1.0)]);
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = naive_dft(&x, Direction::Forward);
        for v in y {
            assert!(v.dist(Complex64::ONE) < 1e-12);
        }
    }

    #[test]
    fn dft_of_constant_is_impulse() {
        let x = vec![Complex64::ONE; 6];
        let y = naive_dft(&x, Direction::Forward);
        assert!(y[0].dist(c64(6.0, 0.0)) < 1e-12);
        for v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn dft_of_single_mode() {
        // x[n] = e^{2 pi i m n / N} has forward DFT N * delta_{k,m}.
        let n = 12;
        let m = 5;
        let x: Vec<_> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (j * m) as f64 / n as f64))
            .collect();
        let y = naive_dft(&x, Direction::Forward);
        for (k, v) in y.iter().enumerate() {
            let expect = if k == m { n as f64 } else { 0.0 };
            assert!(v.dist(c64(expect, 0.0)) < 1e-10, "k={k} got {v}");
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        let x: Vec<_> = (0..10).map(|i| c64(i as f64, -(i as f64) / 3.0)).collect();
        let y = naive_dft(&x, Direction::Forward);
        let z = naive_dft(&y, Direction::Inverse);
        for (a, b) in x.iter().zip(&z) {
            assert!(a.scale(10.0).dist(*b) < 1e-9);
        }
    }

    #[test]
    fn parseval_holds() {
        let x: Vec<_> = (0..16)
            .map(|i| c64((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let y = naive_dft(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        assert!((ey - 16.0 * ex).abs() < 1e-9 * ey.max(1.0));
    }

    #[test]
    fn compensated_dft_agrees_with_naive_dft() {
        for n in [0, 1, 7, 16, 30] {
            let x: Vec<_> = (0..n)
                .map(|i| c64((i as f64 * 0.9).sin(), (i as f64 * 0.4).cos()))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let (a, b) = (compensated_dft(&x, dir), naive_dft(&x, dir));
                assert_eq!(a.len(), n);
                for (u, v) in a.iter().zip(&b) {
                    assert!(u.dist(*v) < 1e-12, "n={n} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn compensated_dft_sums_exactly_across_magnitudes() {
        // DC of [1e16, 1, -1e16, 1]: plain summation absorbs the first 1.
        let x = [1e16, 1.0, -1e16, 1.0].map(|re| c64(re, 0.0));
        assert_eq!(compensated_dft(&x, Direction::Forward)[0], c64(2.0, 0.0));
        assert_eq!(naive_dft(&x, Direction::Forward)[0], c64(1.0, 0.0));
    }

    #[test]
    fn dft3d_separable_impulse() {
        let (nx, ny, nz) = (3, 4, 2);
        let mut x = vec![Complex64::ZERO; nx * ny * nz];
        x[0] = Complex64::ONE;
        let y = naive_dft_3d(&x, nx, ny, nz, Direction::Forward);
        for v in y {
            assert!(v.dist(Complex64::ONE) < 1e-12);
        }
    }
}
