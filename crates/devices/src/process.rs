//! Synthetic process + package library.
//!
//! The paper uses proprietary TSMC 0.18/0.25/0.35 um BSIM3 decks and a pin
//! grid array (PGA) package. We substitute documented synthetic parameter
//! sets whose headline figures match the prose: the 0.18 um output driver
//! carries ~9 mA fully on (paper Fig. 1) and the PGA ground path is
//! `L = 5 nH`, `C = 1 pF`, `R = 10 mOhm` (paper Section 1, with `R`
//! explicitly negligible).

use crate::alpha_power::AlphaPower;
use ssn_units::{Farads, Henrys, Ohms, Volts};

/// Per-ground-path package parasitics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackageParasitics {
    /// Bond-wire + pin inductance.
    pub inductance: Henrys,
    /// Bond-pad + pin capacitance to the true ground.
    pub capacitance: Farads,
    /// Series resistance (negligible for PGA; kept for completeness).
    pub resistance: Ohms,
}

impl PackageParasitics {
    /// The paper's typical PGA package values: 5 nH, 1 pF, 10 mOhm.
    pub fn pga() -> Self {
        Self {
            inductance: Henrys::from_nanos(5.0),
            capacitance: Farads::from_picos(1.0),
            resistance: Ohms::from_millis(10.0),
        }
    }

    /// The effective parasitics when `n` ground pads are paralleled:
    /// inductance and resistance divide, capacitance multiplies (paper
    /// Section 4: "the number of ground pads are doubled, therefore the
    /// inductance is halved and the capacitance is doubled").
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_ground_pads(self, n: usize) -> Self {
        assert!(n > 0, "need at least one ground pad");
        let n = n as f64;
        Self {
            inductance: self.inductance / n,
            capacitance: self.capacitance * n,
            resistance: self.resistance / n,
        }
    }
}

impl Default for PackageParasitics {
    fn default() -> Self {
        Self::pga()
    }
}

/// A synthetic CMOS process node: supply, device parameters for the standard
/// output driver NFET, and the default package.
///
/// # Examples
///
/// ```
/// use ssn_devices::process::Process;
/// use ssn_devices::MosModel;
///
/// let p = Process::p018();
/// let driver = p.output_driver();
/// let full_on = driver.ids(p.vdd().value(), p.vdd().value(), 0.0);
/// assert!(full_on.id > 8e-3 && full_on.id < 11e-3); // ~9 mA, paper Fig. 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    name: String,
    vdd: Volts,
    nfet: AlphaPower,
    package: PackageParasitics,
}

impl Process {
    /// The 0.18 um node (the paper's main evaluation process):
    /// `V_dd = 1.8 V`, `V_th0 = 0.43 V`, `alpha = 1.24`.
    pub fn p018() -> Self {
        Self {
            name: "p018".to_owned(),
            vdd: Volts::new(1.8),
            nfet: AlphaPower::builder()
                .vth0(0.43)
                .gamma(0.3)
                .phi(0.8)
                .alpha(1.24)
                .drive(6.1e-3)
                .vdsat_coeff(0.66)
                .lambda(0.05)
                .name("p018-nfet")
                .build(),
            package: PackageParasitics::pga(),
        }
    }

    /// The 0.25 um node: `V_dd = 2.5 V`, `V_th0 = 0.51 V`, `alpha = 1.31`.
    pub fn p025() -> Self {
        Self {
            name: "p025".to_owned(),
            vdd: Volts::new(2.5),
            nfet: AlphaPower::builder()
                .vth0(0.51)
                .gamma(0.35)
                .phi(0.8)
                .alpha(1.31)
                .drive(4.9e-3)
                .vdsat_coeff(0.72)
                .lambda(0.04)
                .name("p025-nfet")
                .build(),
            package: PackageParasitics::pga(),
        }
    }

    /// The 0.35 um node: `V_dd = 3.3 V`, `V_th0 = 0.58 V`, `alpha = 1.48`.
    pub fn p035() -> Self {
        Self {
            name: "p035".to_owned(),
            vdd: Volts::new(3.3),
            nfet: AlphaPower::builder()
                .vth0(0.58)
                .gamma(0.4)
                .phi(0.75)
                .alpha(1.48)
                .drive(3.4e-3)
                .vdsat_coeff(0.8)
                .lambda(0.03)
                .name("p035-nfet")
                .build(),
            package: PackageParasitics::pga(),
        }
    }

    /// The library process `name` refers to: its canonical name (`p018`),
    /// its feature size in microns (`0.18`) or the bare digits (`018`).
    /// `None` for any other name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "p018" | "0.18" | "018" => Some(Self::p018()),
            "p025" | "0.25" | "025" => Some(Self::p025()),
            "p035" | "0.35" | "035" => Some(Self::p035()),
            _ => None,
        }
    }

    /// All library processes, finest node first.
    pub fn all() -> Vec<Self> {
        vec![Self::p018(), Self::p025(), Self::p035()]
    }

    /// The process name (`"p018"`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The nominal supply voltage.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// The zero-bias NFET threshold voltage.
    pub fn vth0(&self) -> Volts {
        Volts::new(self.nfet.vth0())
    }

    /// The golden output-driver pull-down NFET (unit width).
    pub fn output_driver(&self) -> AlphaPower {
        self.nfet.clone()
    }

    /// An output driver scaled to `factor` times the standard width.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn output_driver_scaled(&self, factor: f64) -> AlphaPower {
        self.nfet.scaled(factor)
    }

    /// The default package parasitics per ground path.
    pub fn package(&self) -> PackageParasitics {
        self.package
    }

    /// Returns a copy with different package parasitics.
    pub fn with_package(mut self, package: PackageParasitics) -> Self {
        self.package = package;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MosModel;

    #[test]
    fn pga_matches_paper_values() {
        let p = PackageParasitics::pga();
        assert_eq!(p.inductance, Henrys::from_nanos(5.0));
        assert_eq!(p.capacitance, Farads::from_picos(1.0));
        assert_eq!(p.resistance, Ohms::from_millis(10.0));
    }

    #[test]
    fn pad_doubling_halves_l_doubles_c() {
        let p = PackageParasitics::pga().with_ground_pads(2);
        assert!((p.inductance.value() - 2.5e-9).abs() < 1e-20);
        assert!((p.capacitance.value() - 2e-12).abs() < 1e-24);
        assert!((p.resistance.value() - 5e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one ground pad")]
    fn zero_pads_rejected() {
        let _ = PackageParasitics::pga().with_ground_pads(0);
    }

    #[test]
    fn library_nodes_are_distinct_and_ordered() {
        let all = Process::all();
        assert_eq!(all.len(), 3);
        assert!(all[0].vdd() < all[1].vdd());
        assert!(all[1].vdd() < all[2].vdd());
        assert!(all[0].vth0() < all[1].vth0());
        // Finer nodes are more velocity saturated (alpha closer to 1).
        assert!(all[0].output_driver().alpha() < all[2].output_driver().alpha());
    }

    #[test]
    fn drivers_conduct_at_full_gate_drive() {
        for p in Process::all() {
            let d = p.output_driver();
            let vdd = p.vdd().value();
            let id = d.ids(vdd, vdd, 0.0).id;
            assert!(id > 5e-3, "{} full-on current {id}", p.name());
        }
    }

    #[test]
    fn scaled_driver() {
        let p = Process::p018();
        let d1 = p.output_driver();
        let d4 = p.output_driver_scaled(4.0);
        let vdd = p.vdd().value();
        assert!((d4.ids(vdd, vdd, 0.0).id - 4.0 * d1.ids(vdd, vdd, 0.0).id).abs() < 1e-12);
    }

    #[test]
    fn with_package_overrides() {
        let custom = PackageParasitics {
            inductance: Henrys::from_nanos(2.0),
            capacitance: Farads::from_picos(3.0),
            resistance: Ohms::ZERO,
        };
        let p = Process::p018().with_package(custom);
        assert_eq!(p.package(), custom);
        assert_eq!(p.name(), "p018");
    }
}
