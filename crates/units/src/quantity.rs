//! Quantity newtypes and the macro that generates them.

use crate::parse::{parse_quantity, ParseQuantityError};
use crate::prefix::format_eng;
use std::str::FromStr;

/// Generates a physical-quantity newtype over `f64`.
///
/// Each generated type gets:
/// * `new` / [`value`](Volts::value) round-trips,
/// * same-type `Add`/`Sub`/`Neg`, scalar `Mul`/`Div` by `f64`,
/// * `Sum`, `Display` (engineering notation), `FromStr`,
/// * `abs`, `min`, `max`, `clamp`, `is_finite`, and a `ZERO` constant.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $symbol:expr
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from its base-SI value.
            ///
            /// ```
            /// # use ssn_units::*;
            #[doc = concat!("let q = ", stringify!($name), "::new(1.5);")]
            /// assert_eq!(q.value(), 1.5);
            /// ```
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the base-SI value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The SI unit symbol (e.g. `"V"` for volts).
            pub const fn symbol() -> &'static str {
                $symbol
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// The smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// The larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the quantity between `lo` and `hi`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the underlying value is neither NaN nor infinite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Creates a quantity from a value expressed in units of `1e-3`.
            #[inline]
            pub fn from_millis(value: f64) -> Self {
                Self(value * 1e-3)
            }

            /// Creates a quantity from a value expressed in units of `1e-6`.
            #[inline]
            pub fn from_micros(value: f64) -> Self {
                Self(value * 1e-6)
            }

            /// Creates a quantity from a value expressed in units of `1e-9`.
            #[inline]
            pub fn from_nanos(value: f64) -> Self {
                Self(value * 1e-9)
            }

            /// Creates a quantity from a value expressed in units of `1e-12`.
            #[inline]
            pub fn from_picos(value: f64) -> Self {
                Self(value * 1e-12)
            }

            /// Creates a quantity from a value expressed in units of `1e3`.
            #[inline]
            pub fn from_kilos(value: f64) -> Self {
                Self(value * 1e3)
            }

            /// Creates a quantity from a value expressed in units of `1e6`.
            #[inline]
            pub fn from_megas(value: f64) -> Self {
                Self(value * 1e6)
            }

            /// Creates a quantity from a value expressed in units of `1e9`.
            #[inline]
            pub fn from_gigas(value: f64) -> Self {
                Self(value * 1e9)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", format_eng(self.0, $symbol))
            }
        }

        impl FromStr for $name {
            type Err = ParseQuantityError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                parse_quantity(s, $symbol).map(Self)
            }
        }

        impl std::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl std::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl std::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl std::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl std::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl std::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl std::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl std::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl std::ops::Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Electric potential in volts (V).
    Volts,
    "V"
);
quantity!(
    /// Electric current in amperes (A).
    Amps,
    "A"
);
quantity!(
    /// Resistance in ohms (Ω).
    Ohms,
    "Ohm"
);
quantity!(
    /// Capacitance in farads (F).
    Farads,
    "F"
);
quantity!(
    /// Inductance in henrys (H).
    Henrys,
    "H"
);
quantity!(
    /// Time in seconds (s).
    Seconds,
    "s"
);
quantity!(
    /// Frequency in hertz (Hz).
    Hertz,
    "Hz"
);
quantity!(
    /// Conductance / transconductance in siemens (A/V).
    Siemens,
    "S"
);
quantity!(
    /// Voltage slew rate in volts per second (V/s).
    SlewRate,
    "V/s"
);
quantity!(
    /// Electric charge in coulombs (C).
    Coulombs,
    "C"
);
quantity!(
    /// Power in watts (W).
    Watts,
    "W"
);
quantity!(
    /// Absolute temperature in kelvin (K).
    Kelvin,
    "K"
);
quantity!(
    /// Energy in joules (J).
    Joules,
    "J"
);
quantity!(
    /// Length in meters (m); used for device geometry (W, L).
    Meters,
    "m"
);
quantity!(
    /// A dimensionless quantity that still benefits from the quantity API
    /// (e.g. the alpha-power exponent or the ASDM `sigma` factor).
    Unitless,
    ""
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_value_roundtrip() {
        assert_eq!(Volts::new(1.8).value(), 1.8);
        assert_eq!(Henrys::from_nanos(5.0).value(), 5.0e-9);
        assert_eq!(Farads::from_picos(1.0).value(), 1.0e-12);
    }

    #[test]
    fn same_type_arithmetic() {
        let a = Volts::new(1.0);
        let b = Volts::new(0.25);
        assert_eq!((a + b).value(), 1.25);
        assert_eq!((a - b).value(), 0.75);
        assert_eq!((-a).value(), -1.0);
        assert_eq!((a * 2.0).value(), 2.0);
        assert_eq!((3.0 * a).value(), 3.0);
        assert_eq!((a / 4.0).value(), 0.25);
        assert_eq!(a / b, 4.0);
    }

    #[test]
    fn assign_ops() {
        let mut v = Volts::new(1.0);
        v += Volts::new(0.5);
        v -= Volts::new(0.25);
        assert_eq!(v.value(), 1.25);
    }

    #[test]
    fn comparisons_and_clamp() {
        let lo = Volts::new(0.0);
        let hi = Volts::new(1.8);
        assert_eq!(Volts::new(2.5).clamp(lo, hi), hi);
        assert_eq!(Volts::new(-1.0).clamp(lo, hi), lo);
        assert_eq!(Volts::new(-1.0).abs(), Volts::new(1.0));
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
        assert!(hi.is_finite());
        assert!(!Volts::new(f64::NAN).is_finite());
    }

    #[test]
    fn sum_over_iterator() {
        let total: Amps = (1..=4).map(|i| Amps::from_millis(f64::from(i))).sum();
        assert!((total.value() - 10e-3).abs() < 1e-15);
    }

    #[test]
    fn prefixed_constructors() {
        assert!((Seconds::from_picos(200.0).value() - 2e-10).abs() < 1e-22);
        assert!((Hertz::from_gigas(1.0).value() - 1e9).abs() < 1e-3);
        assert!((Hertz::from_megas(1.0).value() - 1e6).abs() < 1e-6);
        assert!((Ohms::from_kilos(2.0).value() - 2e3).abs() < 1e-9);
        assert!((Amps::from_micros(7.0).value() - 7e-6).abs() < 1e-18);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(Henrys::from_nanos(5.0).to_string(), "5 nH");
        assert_eq!(Farads::from_picos(1.0).to_string(), "1 pF");
        assert_eq!(Volts::new(1.8).to_string(), "1.8 V");
        assert_eq!(Amps::from_millis(9.0).to_string(), "9 mA");
    }

    #[test]
    fn zero_constant_and_default_agree() {
        assert_eq!(Volts::ZERO, Volts::default());
        assert_eq!(Volts::ZERO.value(), 0.0);
    }
}
