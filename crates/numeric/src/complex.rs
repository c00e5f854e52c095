//! Minimal complex arithmetic for AC (frequency-domain) analysis.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// # Examples
///
/// ```
/// use ssn_numeric::complex::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// let w = z * Complex::I;
/// assert_eq!(w, Complex::new(-4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Creates `re + im*i`.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// The magnitude `|z|` (hypot, overflow-safe).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared magnitude `|z|^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The argument (phase) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The multiplicative inverse.
    ///
    /// Returns infinities when `self` is zero (IEEE semantics).
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for Complex {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.re * rhs, self.im * rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs * self
    }
}

impl Div for Complex {
    type Output = Self;
    #[inline]
    // Division as multiplication by the reciprocal is the standard complex
    // formulation, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6e} + {:.6e}i", self.re, self.im)
        } else {
            write!(f, "{:.6e} - {:.6e}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spot_checks() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 3.0);
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        assert_eq!(a * (b + Complex::ONE), a * b + a);
        assert_eq!(a - a, Complex::ZERO);
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-12);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::real(-1.0));
    }

    #[test]
    fn magnitude_and_phase() {
        let z = Complex::new(1.0, 3f64.sqrt());
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn norm_and_reciprocal() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!((z.recip() * z - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn scalar_ops_and_conversions() {
        let z = Complex::from(2.0);
        assert_eq!(z, Complex::real(2.0));
        assert_eq!(3.0 * z, Complex::real(6.0));
        assert_eq!(z * 0.5, Complex::ONE);
        assert_eq!(z / 2.0, Complex::ONE);
        assert_eq!(-z, Complex::real(-2.0));
        let mut w = z;
        w += Complex::I;
        w -= Complex::ONE;
        w *= Complex::I;
        assert_eq!(w, Complex::new(-1.0, 1.0));
        let total: Complex = [Complex::ONE, Complex::I].into_iter().sum();
        assert_eq!(total, Complex::new(1.0, 1.0));
    }

    #[test]
    fn display_signs() {
        assert!(Complex::new(1.0, 2.0).to_string().contains("+"));
        assert!(Complex::new(1.0, -2.0).to_string().contains("-"));
        assert!(Complex::new(1.0, 2.0).is_finite());
        assert!(!Complex::new(f64::NAN, 0.0).is_finite());
    }
}
