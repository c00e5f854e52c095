//! Physically meaningful cross-type operations.
//!
//! Only combinations with a clear electrical meaning are defined (Ohm's law,
//! charge/flux relations, slew rates, ...). Everything else is intentionally
//! a type error.

use crate::quantity::{
    Amps, Coulombs, Farads, Henrys, Hertz, Joules, Ohms, Seconds, Siemens, SlewRate, Volts, Watts,
};
use std::ops::{Div, Mul};

/// Defines `$a * $b = $out` together with the commuted form.
macro_rules! mul_commutative {
    ($a:ty, $b:ty, $out:ty) => {
        impl Mul<$b> for $a {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $b) -> $out {
                <$out>::new(self.value() * rhs.value())
            }
        }
        impl Mul<$a> for $b {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $a) -> $out {
                <$out>::new(self.value() * rhs.value())
            }
        }
    };
}

/// Defines `$num / $den = $out`.
macro_rules! div_rule {
    ($num:ty, $den:ty, $out:ty) => {
        impl Div<$den> for $num {
            type Output = $out;
            #[inline]
            fn div(self, rhs: $den) -> $out {
                <$out>::new(self.value() / rhs.value())
            }
        }
    };
}

// Ohm's law family.
mul_commutative!(Amps, Ohms, Volts);
div_rule!(Volts, Ohms, Amps);
div_rule!(Volts, Amps, Ohms);
mul_commutative!(Siemens, Volts, Amps);
div_rule!(Amps, Volts, Siemens);
div_rule!(Amps, Siemens, Volts);

// Charge: Q = C·V = I·t.
mul_commutative!(Farads, Volts, Coulombs);
mul_commutative!(Amps, Seconds, Coulombs);
div_rule!(Coulombs, Volts, Farads);
div_rule!(Coulombs, Farads, Volts);
div_rule!(Coulombs, Seconds, Amps);
div_rule!(Coulombs, Amps, Seconds);

// Slew: s = V / t.
div_rule!(Volts, Seconds, SlewRate);
mul_commutative!(SlewRate, Seconds, Volts);
div_rule!(Volts, SlewRate, Seconds);

// Power: P = V·I.
mul_commutative!(Volts, Amps, Watts);
div_rule!(Watts, Volts, Amps);
div_rule!(Watts, Amps, Volts);

// Energy: E = P·t = Q·V.
mul_commutative!(Watts, Seconds, Joules);
mul_commutative!(Coulombs, Volts, Joules);
div_rule!(Joules, Seconds, Watts);
div_rule!(Joules, Watts, Seconds);
div_rule!(Joules, Volts, Coulombs);

// Time constants: tau = R·C = L/R; frequency = 1/t.
mul_commutative!(Ohms, Farads, Seconds);
div_rule!(Henrys, Ohms, Seconds);
div_rule!(Henrys, Seconds, Ohms);

impl Seconds {
    /// The reciprocal frequency `1/t`.
    ///
    /// ```
    /// use ssn_units::Seconds;
    /// let f = Seconds::from_nanos(1.0).recip();
    /// assert!((f.value() - 1e9).abs() < 1.0);
    /// ```
    #[inline]
    pub fn recip(self) -> Hertz {
        Hertz::new(1.0 / self.value())
    }
}

impl Hertz {
    /// The reciprocal period `1/f`.
    #[inline]
    pub fn recip(self) -> Seconds {
        Seconds::new(1.0 / self.value())
    }
}

impl Henrys {
    /// The induced EMF `v = L * di/dt` for a current ramp `di` over `dt`.
    ///
    /// ```
    /// use ssn_units::{Henrys, Amps, Seconds, Volts};
    /// let l = Henrys::from_nanos(5.0);
    /// let v = l.emf(Amps::from_millis(10.0), Seconds::from_nanos(0.1));
    /// assert!((v.value() - 0.5).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn emf(self, di: Amps, dt: Seconds) -> Volts {
        Volts::new(self.value() * di.value() / dt.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law() {
        let v = Amps::from_millis(2.0) * Ohms::from_kilos(1.0);
        assert!((v.value() - 2.0).abs() < 1e-12);
        let i = Volts::new(5.0) / Ohms::new(100.0);
        assert!((i.value() - 0.05).abs() < 1e-12);
        let r = Volts::new(5.0) / Amps::new(0.05);
        assert!((r.value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn transconductance() {
        let g = Amps::from_millis(9.0) / Volts::new(1.19);
        assert!((g.value() - 7.563e-3).abs() < 1e-5);
        let i = g * Volts::new(1.19);
        assert!((i.value() - 9e-3).abs() < 1e-12);
        let v = Amps::from_millis(9.0) / g;
        assert!((v.value() - 1.19).abs() < 1e-12);
    }

    #[test]
    fn charge_relations() {
        let q = Farads::from_picos(1.0) * Volts::new(1.8);
        assert!((q.value() - 1.8e-12).abs() < 1e-24);
        let q2 = Amps::from_millis(1.0) * Seconds::from_nanos(1.8);
        assert!((q.value() - q2.value()).abs() < 1e-24);
        assert!((q / Volts::new(1.8) / Farads::from_picos(1.0) - 1.0).abs() < 1e-12);
        assert!(((q / Farads::from_picos(1.0)).value() - 1.8).abs() < 1e-12);
        assert!(((q2 / Seconds::from_nanos(1.8)).value() - 1e-3).abs() < 1e-15);
        assert!(((q2 / Amps::from_millis(1.0)).value() - 1.8e-9).abs() < 1e-20);
    }

    #[test]
    fn slew_rate() {
        let s = Volts::new(1.8) / Seconds::from_nanos(0.5);
        assert!((s.value() - 3.6e9).abs() < 1.0);
        let v = s * Seconds::from_picos(100.0);
        assert!((v.value() - 0.36).abs() < 1e-12);
        let t = Volts::new(1.8) / s;
        assert!((t.value() - 0.5e-9).abs() < 1e-20);
    }

    #[test]
    fn power() {
        let p = Volts::new(1.8) * Amps::from_millis(10.0);
        assert!((p.value() - 0.018).abs() < 1e-15);
        assert!(((p / Volts::new(1.8)).value() - 0.01).abs() < 1e-15);
        assert!(((p / Amps::from_millis(10.0)).value() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn energy_relations() {
        let e = Watts::from_millis(18.0) * Seconds::from_nanos(1.0);
        assert!((e.value() - 18e-12).abs() < 1e-24);
        let e2 = Coulombs::new(1.8e-12) * Volts::new(1.8);
        assert!((e2.value() - 3.24e-12).abs() < 1e-24);
        assert!(((e / Seconds::from_nanos(1.0)).value() - 18e-3).abs() < 1e-12);
        assert!(((e / Watts::from_millis(18.0)).value() - 1e-9).abs() < 1e-20);
        assert!(((e2 / Volts::new(1.8)).value() - 1.8e-12).abs() < 1e-24);
    }

    #[test]
    fn time_constants_and_frequency() {
        let tau = Ohms::from_kilos(1.0) * Farads::from_picos(1.0);
        assert!((tau.value() - 1e-9).abs() < 1e-20);
        let tau2 = Henrys::from_nanos(5.0) / Ohms::new(5.0);
        assert!((tau2.value() - 1e-9).abs() < 1e-20);
        let r = Henrys::from_nanos(5.0) / Seconds::from_nanos(1.0);
        assert!((r.value() - 5.0).abs() < 1e-12);
        let f = Seconds::from_nanos(1.0).recip();
        assert!((f.value() - 1e9).abs() < 1.0);
        let t = Hertz::from_gigas(1.0).recip();
        assert!((t.value() - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn inductor_emf() {
        let v = Henrys::from_nanos(5.0).emf(Amps::from_millis(72.0), Seconds::from_nanos(0.5));
        assert!((v.value() - 0.72).abs() < 1e-12);
    }
}
