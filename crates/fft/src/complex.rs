//! Minimal double-precision complex arithmetic.
//!
//! The workspace deliberately avoids external numeric crates; everything the
//! FFT engine and the plane-wave machinery need from a complex type lives
//! here. The layout is `repr(C)` so a `&[Complex64]` can be reinterpreted as
//! an interleaved re/im buffer when exchanging data through the virtual MPI
//! layer.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor, mirroring `num_complex::Complex64::new`.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a new complex number.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Builds `r * e^{i theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// `e^{i theta}` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared magnitude `re^2 + im^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// Multiplication by `i` without a full complex multiply.
    #[inline]
    pub fn mul_i(self) -> Self {
        c64(-self.im, self.re)
    }

    /// Multiplication by `-i` without a full complex multiply.
    #[inline]
    pub fn mul_neg_i(self) -> Self {
        c64(self.im, -self.re)
    }

    /// Complex exponential `e^{self}`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Multiplicative inverse. Returns NaNs for zero, like `1.0 / 0.0`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Absolute distance to `other`; convenient for test tolerances.
    #[inline]
    pub fn dist(self, other: Self) -> f64 {
        (self - other).abs()
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w == z * w^-1
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        c64(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl DivAssign<f64> for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        self.re /= rhs;
        self.im /= rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

/// Maximum absolute component-wise deviation between two complex slices.
pub fn max_dist(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_dist: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| x.dist(*y))
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const EPS: f64 = 1e-12;

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Complex64::ZERO, c64(0.0, 0.0));
        assert_eq!(Complex64::ONE, c64(1.0, 0.0));
        assert_eq!(Complex64::I, c64(0.0, 1.0));
        assert_eq!(Complex64::new(1.5, -2.5), c64(1.5, -2.5));
        assert_eq!(Complex64::from(3.0), c64(3.0, 0.0));
    }

    #[test]
    fn arithmetic_identities() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        assert_eq!(a + b, c64(-2.0, 2.5));
        assert_eq!(a - b, c64(4.0, 1.5));
        // (1+2i)(-3+0.5i) = -3 + 0.5i - 6i + i^2 = -4 - 5.5i
        assert_eq!(a * b, c64(-4.0, -5.5));
        assert_eq!(-a, c64(-1.0, -2.0));
        assert!((a / a).dist(Complex64::ONE) < EPS);
        assert!((a * a.inv()).dist(Complex64::ONE) < EPS);
    }

    #[test]
    fn assign_ops() {
        let mut a = c64(1.0, 1.0);
        a += c64(1.0, 0.0);
        assert_eq!(a, c64(2.0, 1.0));
        a -= c64(0.0, 1.0);
        assert_eq!(a, c64(2.0, 0.0));
        a *= c64(0.0, 1.0);
        assert_eq!(a, c64(0.0, 2.0));
        a *= 2.0;
        assert_eq!(a, c64(0.0, 4.0));
        a /= 4.0;
        assert_eq!(a, c64(0.0, 1.0));
    }

    #[test]
    fn polar_and_exp() {
        let z = Complex64::from_polar(2.0, PI / 2.0);
        assert!(z.dist(c64(0.0, 2.0)) < EPS);
        assert!((Complex64::cis(PI)).dist(c64(-1.0, 0.0)) < EPS);
        // e^{i pi} = -1
        let e = c64(0.0, PI).exp();
        assert!(e.dist(c64(-1.0, 0.0)) < EPS);
        // |e^{x+iy}| = e^x
        let e2 = c64(1.0, 0.3).exp();
        assert!((e2.abs() - 1.0_f64.exp()).abs() < EPS);
    }

    #[test]
    fn conj_norm_arg() {
        let a = c64(3.0, -4.0);
        assert_eq!(a.conj(), c64(3.0, 4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!((c64(0.0, 1.0).arg() - PI / 2.0).abs() < EPS);
        assert!((a * a.conj()).dist(c64(25.0, 0.0)) < EPS);
    }

    #[test]
    fn mul_i_shortcuts() {
        let a = c64(1.25, -0.5);
        assert_eq!(a.mul_i(), a * Complex64::I);
        assert_eq!(a.mul_neg_i(), a * c64(0.0, -1.0));
    }

    #[test]
    fn sum_and_scale() {
        let v = [c64(1.0, 1.0), c64(2.0, -1.0), c64(-0.5, 0.25)];
        let s: Complex64 = v.iter().copied().sum();
        assert!(s.dist(c64(2.5, 0.25)) < EPS);
        assert_eq!(c64(1.0, -2.0).scale(2.0), c64(2.0, -4.0));
        assert_eq!(2.0 * c64(1.0, -2.0), c64(2.0, -4.0));
        assert_eq!(c64(2.0, -4.0) / 2.0, c64(1.0, -2.0));
    }

    #[test]
    fn max_dist_reports_worst_pair() {
        let a = [c64(0.0, 0.0), c64(1.0, 0.0)];
        let b = [c64(0.0, 0.1), c64(1.0, 0.0)];
        assert!((max_dist(&a, &b) - 0.1).abs() < EPS);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", c64(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1-2i");
    }
}
