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
//!
//! The recursion is also generic over a zero-sized [`Target`] marker, one
//! per compiled instruction set ([`Isa`]); the plan stores the instance it
//! runs. `#[target_feature]` does not reach a callee that is not inlined,
//! and a recursion cannot be inlined, so the marker carries the hot loops
//! as `#[target_feature]` entry points of its own: the lane copy-in, the
//! recursion call and the copy-out ([`Target::lanes`]), and each level's
//! twiddle and butterfly loop ([`Target::level`]). Each wraps one
//! `#[inline(always)]` body, so every instance runs the same operations in
//! the same order and only the register width differs.

use crate::complex::Complex64;
use crate::dft::Direction;
use crate::isa::Isa;
use crate::planner::radix_schedule;
use std::f64::consts::PI;

/// Bytes per cache line.
const LINE_BYTES: usize = 64;

/// Complex values per cache line.
const LINE: usize = LINE_BYTES / std::mem::size_of::<Complex64>();

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
    /// The compiled instance every transform runs; supported by this CPU
    /// (checked in [`MixedRadixPlan::with_isa`]).
    isa: Isa,
}

impl MixedRadixPlan {
    /// Builds a plan for length `n` that runs the widest instance this CPU
    /// supports ([`Isa::detect`]).
    ///
    /// # Panics
    /// Panics if `n` contains a prime factor larger than
    /// [`crate::planner::MAX_DIRECT_PRIME`]; such sizes must go through
    /// Bluestein instead.
    pub fn new(n: usize) -> Self {
        Self::with_isa(n, Isa::detect())
    }

    /// Builds a plan for length `n` that runs the `isa` instance of the
    /// kernel; every instance gives bitwise the same results.
    ///
    /// # Panics
    /// Panics if this CPU does not support `isa` (running that instance
    /// would be undefined behaviour), or as [`MixedRadixPlan::new`].
    pub fn with_isa(n: usize, isa: Isa) -> Self {
        assert!(
            isa.is_supported(),
            "MixedRadixPlan: this CPU does not support {}",
            isa.name()
        );
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
            isa,
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
    /// gather buffer; the spectrum is written straight into `data`), plus
    /// up to three elements of cache-line alignment; passing the same
    /// buffer across calls keeps the hot path free of heap allocation.
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
    /// spectrum is written into it directly), plus up to `LINE - 1`
    /// elements to start the lanes on a cache line.
    pub(crate) fn process_lanes<const W: usize>(
        &self,
        data: &mut [Complex64],
        es: usize,
        ls: usize,
        scratch: &mut Vec<Complex64>,
        dir: Direction,
    ) {
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_isa` checked that this CPU supports AVX-512F.
            Isa::Avx512f => unsafe { on::Avx512f::lanes::<W>(self, data, es, ls, scratch, dir) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_isa` checked that this CPU supports AVX2.
            Isa::Avx2 => unsafe { on::Avx2::lanes::<W>(self, data, es, ls, scratch, dir) },
            // Baseline, and on other targets the only instance `with_isa`
            // accepts.
            // SAFETY: the baseline instance needs no CPU feature.
            _ => unsafe { on::Baseline::lanes::<W>(self, data, es, ls, scratch, dir) },
        }
    }

    /// The body of [`MixedRadixPlan::process_lanes`] for instance `T`:
    /// copy the lanes in, run the recursion, copy them out.
    ///
    /// # Safety
    /// This CPU supports `T`'s instruction set.
    #[inline(always)]
    unsafe fn lanes<T: Target, const W: usize>(
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
        if scratch.len() < want + LINE - 1 {
            scratch.resize(want + LINE - 1, Complex64::ZERO);
        }
        // Start the lane arrays on a cache line, so a wide instance never
        // splits a whole-array load or store across two lines.
        let skip = match scratch.as_ptr().align_offset(LINE_BYTES) {
            s if s < LINE => s,
            _ => 0,
        };
        let (lanes, _) = scratch[skip..skip + want].as_chunks_mut::<W>();
        let (src, rest) = lanes.split_at_mut(n);
        if in_place {
            src.as_flattened_mut().copy_from_slice(&data[..n * W]);
            let (dst, _) = data[..n * W].as_chunks_mut::<W>();
            // SAFETY: forwarded from the caller.
            unsafe { self.recurse::<T, W>(0, src, 1, dst, dir, rest) };
        } else {
            // Adjacent lanes (columns) move as whole lane arrays; other
            // layouts (rows, sticks) one lane at a time along its sequence.
            if ls == 1 {
                for (s, chunk) in src.iter_mut().zip(data.chunks(es)) {
                    s.copy_from_slice(&chunk[..W]);
                }
            } else {
                for l in 0..W {
                    for (s, &v) in src.iter_mut().zip(data[l * ls..].iter().step_by(es)) {
                        s[l] = v;
                    }
                }
            }
            let (dst, gather) = rest.split_at_mut(n);
            // SAFETY: forwarded from the caller.
            unsafe { self.recurse::<T, W>(0, src, 1, dst, dir, gather) };
            if ls == 1 {
                for (d, chunk) in dst.iter().zip(data.chunks_mut(es)) {
                    chunk[..W].copy_from_slice(d);
                }
            } else {
                for l in 0..W {
                    for (d, v) in dst.iter().zip(data[l * ls..].iter_mut().step_by(es)) {
                        *v = d[l];
                    }
                }
            }
        }
    }

    /// Recursive DIT step over `W` lanes: reads `sub`-strided input from
    /// `src`, writes the length-`stages[idx].len` spectrum contiguously
    /// into `dst`. The frame itself only splits the buffers; each level's
    /// arithmetic runs in `T`'s [`Target::level`].
    ///
    /// # Safety
    /// This CPU supports `T`'s instruction set.
    unsafe fn recurse<T: Target, const W: usize>(
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
        let (r, m) = (stage.radix, stage.sub);
        debug_assert_eq!(dst.len(), stage.len);
        let leaf = m == 1 && idx + 1 == self.stages.len();
        if !leaf {
            for j in 0..r {
                let (src, dst) = (&src[j * stride..], &mut dst[j * m..(j + 1) * m]);
                // SAFETY: forwarded from the caller.
                unsafe { self.recurse::<T, W>(idx + 1, src, stride * r, dst, dir, gather) };
            }
        }
        // SAFETY: forwarded from the caller.
        unsafe { T::level::<W>(stage, leaf, src, stride, dst, dir, gather) };
    }
}

/// One compiled instance of the kernel, as a zero-sized marker type: its
/// methods are the instance's entry points, each wrapping one
/// `#[inline(always)]` body.
trait Target {
    /// [`MixedRadixPlan::lanes`] compiled for this instance.
    ///
    /// # Safety
    /// This CPU supports the instance's instruction set.
    unsafe fn lanes<const W: usize>(
        plan: &MixedRadixPlan,
        data: &mut [Complex64],
        es: usize,
        ls: usize,
        scratch: &mut Vec<Complex64>,
        dir: Direction,
    );

    /// [`level`] compiled for this instance.
    ///
    /// # Safety
    /// This CPU supports the instance's instruction set.
    unsafe fn level<const W: usize>(
        stage: &Stage,
        leaf: bool,
        src: &[[Complex64; W]],
        stride: usize,
        dst: &mut [[Complex64; W]],
        dir: Direction,
        gather: &mut [[Complex64; W]],
    );
}

/// The [`Target`] markers, one per [`Isa`] this build compiles.
mod on {
    use super::{level, Complex64, Direction, MixedRadixPlan, Stage, Target};

    /// Defines marker `$name` whose entry points carry `$codegen`: the
    /// baseline inlines its bodies into the callers, as a plain build
    /// would; the wider instances enable their target feature.
    macro_rules! instance {
        ($(#[$doc:meta])* $name:ident, #[$codegen:meta]) => {
            $(#[$doc])*
            pub(super) struct $name;

            impl Target for $name {
                #[$codegen]
                unsafe fn lanes<const W: usize>(
                    plan: &MixedRadixPlan,
                    data: &mut [Complex64],
                    es: usize,
                    ls: usize,
                    scratch: &mut Vec<Complex64>,
                    dir: Direction,
                ) {
                    // SAFETY: forwarded from the caller.
                    unsafe { plan.lanes::<Self, W>(data, es, ls, scratch, dir) }
                }

                #[$codegen]
                unsafe fn level<const W: usize>(
                    stage: &Stage,
                    leaf: bool,
                    src: &[[Complex64; W]],
                    stride: usize,
                    dst: &mut [[Complex64; W]],
                    dir: Direction,
                    gather: &mut [[Complex64; W]],
                ) {
                    level::<W>(stage, leaf, src, stride, dst, dir, gather)
                }
            }
        };
    }

    instance!(
        /// The build's default target.
        Baseline,
        #[inline(always)]
    );
    #[cfg(target_arch = "x86_64")]
    instance!(
        /// AVX2.
        Avx2,
        #[target_feature(enable = "avx2")]
    );
    #[cfg(target_arch = "x86_64")]
    instance!(
        /// AVX-512F.
        Avx512f,
        #[target_feature(enable = "avx512f")]
    );
}

/// One recursion level over `W` lanes, once its sub-transforms are in
/// `dst`: the leaf gathers its `r` strided points from `src`, every other
/// level multiplies `dst` by its twiddles; then the radix-`r` butterflies
/// write the level's spectrum into `dst`.
#[inline(always)]
fn level<const W: usize>(
    stage: &Stage,
    leaf: bool,
    src: &[[Complex64; W]],
    stride: usize,
    dst: &mut [[Complex64; W]],
    dir: Direction,
    gather: &mut [[Complex64; W]],
) {
    let (r, m) = (stage.radix, stage.sub);
    if leaf {
        // Leaf: a bare radix-r DFT of r strided points.
        for (j, g) in gather[..r].iter_mut().enumerate() {
            *g = src[j * stride];
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
            2 => butterfly_lanes(gather, dst, m, k, butterfly2),
            3 => butterfly_lanes(gather, dst, m, k, |v| butterfly3(v, sign)),
            4 => butterfly_lanes(gather, dst, m, k, |v| butterfly4(v, sign)),
            _ => {
                // Generic O(r^2) DFT across the gathered points.
                for q in 0..r {
                    let mut acc = [Complex64::ZERO; W];
                    // `at` steps through `(j * q) % r` without dividing.
                    let mut at = 0;
                    for g in &gather[..r] {
                        let w = roots[at];
                        for l in 0..W {
                            acc[l] += g[l] * w;
                        }
                        at += q;
                        if at >= r {
                            at -= r;
                        }
                    }
                    dst[q * m + k] = acc;
                }
            }
        }
    }
}

/// Runs the radix-`R` butterfly `f` on each of the `W` lanes of
/// `gather[..R]` and writes output `q` to `dst[q * m + k]`. Whole lane
/// arrays are read and written, so the per-lane butterflies vectorize
/// across lanes.
#[inline(always)]
fn butterfly_lanes<const R: usize, const W: usize>(
    gather: &[[Complex64; W]],
    dst: &mut [[Complex64; W]],
    m: usize,
    k: usize,
    f: impl Fn([Complex64; R]) -> [Complex64; R],
) {
    let v: [[Complex64; W]; R] = std::array::from_fn(|j| gather[j]);
    let out: [[Complex64; R]; W] = std::array::from_fn(|l| f(std::array::from_fn(|j| v[j][l])));
    for (q, d) in dst.iter_mut().skip(k).step_by(m).take(R).enumerate() {
        *d = std::array::from_fn(|l| out[l][q]);
    }
}

/// Radix-2 butterfly.
#[inline(always)]
fn butterfly2(v: [Complex64; 2]) -> [Complex64; 2] {
    [v[0] + v[1], v[0] - v[1]]
}

/// Radix-3 butterfly.
#[inline(always)]
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
#[inline(always)]
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
