//! The public one-dimensional FFT type: picks the mixed-radix engine for
//! "direct" sizes and Bluestein otherwise, and owns no mutable state so a
//! single plan can be shared by every rank/worker thread.

use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::dft::Direction;
use crate::kernel::MixedRadixPlan;
use crate::planner::is_direct_size;

enum Kind {
    /// Length 0 or 1: nothing to do.
    Identity,
    Direct(MixedRadixPlan),
    Bluestein(Box<BluesteinPlan>),
}

/// A reusable, thread-shareable FFT plan for one length.
pub struct Fft {
    n: usize,
    kind: Kind,
}

impl Fft {
    /// Builds a plan for length `n` (any size, including 0 and 1).
    pub fn new(n: usize) -> Self {
        let kind = if n <= 1 {
            Kind::Identity
        } else if is_direct_size(n) {
            Kind::Direct(MixedRadixPlan::new(n))
        } else {
            Kind::Bluestein(Box::new(BluesteinPlan::new(n)))
        };
        Fft { n, kind }
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

    /// Unnormalised in-place transform reusing a caller-provided scratch
    /// buffer (grows as needed, never shrinks).
    pub fn process_with(
        &self,
        data: &mut [Complex64],
        scratch: &mut Vec<Complex64>,
        dir: Direction,
    ) {
        assert_eq!(data.len(), self.n, "Fft: buffer length mismatch");
        match &self.kind {
            Kind::Identity => {}
            Kind::Direct(p) => p.process(data, scratch, dir),
            Kind::Bluestein(p) => p.process(data, scratch, dir),
        }
    }

    /// Unnormalised in-place transform of `W` independent sequences at
    /// once: element `j` of lane `l` is `data[j * es + l * ls]`. Each lane
    /// is bitwise equal to [`Fft::process_with`] on that sequence. Direct
    /// plans run the lane kernel; Bluestein plans run one scalar transform
    /// per lane and need contiguous lanes (`es == 1`, see
    /// [`Fft::has_strided_lanes`]).
    pub(crate) fn process_lanes<const W: usize>(
        &self,
        data: &mut [Complex64],
        es: usize,
        ls: usize,
        scratch: &mut Vec<Complex64>,
        dir: Direction,
    ) {
        match &self.kind {
            Kind::Identity => {}
            Kind::Direct(p) => p.process_lanes::<W>(data, es, ls, scratch, dir),
            Kind::Bluestein(p) => {
                assert_eq!(es, 1, "Fft: Bluestein lanes must be contiguous");
                for l in 0..W {
                    p.process(&mut data[l * ls..l * ls + self.n], scratch, dir);
                }
            }
        }
    }

    /// True when [`Fft::process_lanes`] accepts strided elements (`es > 1`):
    /// every plan but Bluestein.
    pub(crate) fn has_strided_lanes(&self) -> bool {
        !matches!(self.kind, Kind::Bluestein(_))
    }

    /// Unnormalised in-place transform with internal scratch allocation.
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        let mut scratch = Vec::new();
        self.process_with(data, &mut scratch, dir);
    }

    /// Forward transform (negative exponent), unnormalised.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.process(data, Direction::Forward);
    }

    /// Inverse transform (positive exponent), unnormalised.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.process(data, Direction::Inverse);
    }
}

/// Multiplies every element by `s`; the explicit scaling pass QE applies on
/// r-space -> G-space transforms (`1/N`).
pub fn scale_in_place(data: &mut [Complex64], s: f64) {
    for v in data.iter_mut() {
        *v = v.scale(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_dist};
    use crate::dft::{compensated_dft, naive_dft};

    /// Accuracy-contract constant `C`: every transform's max error against
    /// [`compensated_dft`] is at most `C * eps * ceil(log2 n) * |x|_2`.
    /// Measured error over that unit, both directions, on the signal of
    /// `accuracy_contract_holds_for_every_size_class`: at most 0.95 for the
    /// direct sizes, 1.53 overall (Bluestein n = 41); over 40 seeds of the
    /// same signal the worst was 1.83 (Bluestein n = 127). `C = 8` keeps
    /// more than 4x headroom over both.
    const ACCURACY_C: f64 = 8.0;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.77).sin(), (i as f64 * 0.31).cos()))
            .collect()
    }

    #[test]
    fn dispatches_all_size_classes() {
        // identity, direct, bluestein
        for n in [0, 1, 2, 30, 41, 82, 120, 128] {
            let x = ramp(n);
            let plan = Fft::new(n);
            assert_eq!(plan.len(), n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let expect = naive_dft(&x, dir);
                let mut data = x.clone();
                plan.process(&mut data, dir);
                assert!(
                    max_dist(&data, &expect) < 1e-8 * (n.max(1) as f64),
                    "n={n} dir={dir:?}"
                );
            }
        }
    }

    /// Deterministic pseudo-random signal with components in [-1, 1).
    fn noise(n: usize, seed: u64) -> Vec<Complex64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        (0..n).map(|_| c64(next(), next())).collect()
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn lanes_are_bitwise_equal_to_scalar_transforms() {
        const W: usize = 4;
        let mut scratch = Vec::new();
        for n in [2, 4, 8, 11, 13, 14, 18, 21, 37, 41, 60, 90, 120, 125, 128] {
            let plan = Fft::new(n);
            // (element stride, lane stride): padded contiguous lanes (rows,
            // sticks); for direct plans also interleaved lanes with padding
            // (columns) and the exact lane-interleaved layout.
            let mut layouts = vec![(1, n + 3)];
            if plan.has_strided_lanes() {
                layouts.extend([(W + 2, 1), (W, 1)]);
            }
            for (es, ls) in layouts {
                let x = noise((n - 1) * es + (W - 1) * ls + 1, n as u64);
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut got = x.clone();
                    plan.process_lanes::<W>(&mut got, es, ls, &mut scratch, dir);
                    let mut want = x.clone();
                    for l in 0..W {
                        let mut seq: Vec<_> = (0..n).map(|j| x[j * es + l * ls]).collect();
                        plan.process_with(&mut seq, &mut scratch, dir);
                        for (j, v) in seq.into_iter().enumerate() {
                            want[j * es + l * ls] = v;
                        }
                    }
                    assert_eq!(bits(&got), bits(&want), "n={n} es={es} ls={ls} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn accuracy_contract_holds_for_every_size_class() {
        // Powers of two, 2·3·5·7 mixes, direct primes, Bluestein sizes.
        let classes: [&[usize]; 4] = [
            &[2, 4, 8, 16, 32, 64, 128, 256, 512],
            &[6, 10, 14, 15, 18, 21, 30, 35, 42, 60, 90, 105, 120, 210],
            &[11, 13, 17, 19, 23, 29, 31, 37],
            &[41, 127],
        ];
        for n in classes.concat() {
            let x = noise(n, 7 + n as u64);
            let norm = x.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
            let unit = f64::EPSILON * (n as f64).log2().ceil() * norm;
            let plan = Fft::new(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut got = x.clone();
                plan.process(&mut got, dir);
                let err = max_dist(&got, &compensated_dft(&x, dir));
                assert!(
                    err <= ACCURACY_C * unit,
                    "n={n} {dir:?}: error {err:.3e} > {ACCURACY_C} eps log2(n) |x| = {:.3e}",
                    ACCURACY_C * unit
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let n = 60;
        let x = ramp(n);
        let plan = Fft::new(n);
        let mut with_scratch = x.clone();
        let mut scratch = Vec::new();
        plan.process_with(&mut with_scratch, &mut scratch, Direction::Forward);
        // Run again with the now-dirty scratch to confirm statelessness.
        let mut second = x.clone();
        plan.process_with(&mut second, &mut scratch, Direction::Forward);
        assert!(max_dist(&with_scratch, &second) < 1e-13);
    }

    #[test]
    fn scale_in_place_works() {
        let mut v = vec![c64(2.0, -4.0); 3];
        scale_in_place(&mut v, 0.5);
        for x in v {
            assert_eq!(x, c64(1.0, -2.0));
        }
    }

    #[test]
    fn forward_inverse_convenience() {
        let n = 36;
        let x = ramp(n);
        let plan = Fft::new(n);
        let mut data = x.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        scale_in_place(&mut data, 1.0 / n as f64);
        assert!(max_dist(&data, &x) < 1e-10);
    }
}
