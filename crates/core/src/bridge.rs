//! Bridge to the validation simulator: builds the equivalent driver-bank
//! netlist in [`ssn_spice`] and measures the simulated SSN.
//!
//! This module plays the role HSPICE plays in the paper: the closed-form
//! models of [`crate::lmodel`] / [`crate::lcmodel`] are judged against a
//! full nonlinear transient of the same circuit with the *golden* device
//! model (not the fitted ASDM).
//!
//! Circuit topology (paper Fig. 2's setup):
//!
//! ```text
//!             vin (ramp) ----+----------+---- ... N gates
//!                            |          |
//!   out_i: [C_load, ic=Vdd]--+ drain    |
//!                     NFET x N          |
//!                            | source   |
//!                    ng -----+----------+----   (bouncing internal ground)
//!                     |      |
//!                     L      C (optional)
//!                     |      |
//!                    gnd ---gnd                 (true ground)
//! ```
//!
//! Drivers that share a gate ramp and a model are one group: the bank is
//! stamped as one `M = count` MOSFET per group driving the group's loads
//! in parallel on one output node, the exact reduced form of `count`
//! identical drivers (the paper's `N K` device). A bank built from
//! distinct model `Arc`s ([`DriverBankConfig::with_mixed_models`]) folds
//! nothing and yields one instance per driver, the reference netlist.
//!
//! The NFET bulks tie to the *true* ground. The paper's Fig. 1 instead holds
//! `V_B = V_S`; our choice routes the source sensitivity through the body
//! effect rather than channel-length modulation, which produces the same
//! `sigma > 1` signature with a cleaner separation — the substitution is
//! recorded in DESIGN.md.

use crate::error::SsnError;
use crate::scenario::{Rail, SsnScenario};
use ssn_devices::process::Process;
use ssn_devices::{MosModel, MosPolarity};
use ssn_spice::{ac_analysis, transient, AcOptions, Circuit, SourceWave, TranOptions};
use ssn_units::{Farads, Henrys, Hertz, Seconds, Volts};
use ssn_waveform::Waveform;
use std::sync::Arc;

/// Configuration of the simulated driver bank.
#[derive(Debug, Clone)]
pub struct DriverBankConfig {
    model: Arc<dyn MosModel>,
    n_drivers: usize,
    inductance: Henrys,
    capacitance: Farads,
    vdd: Volts,
    rise_time: Seconds,
    load_capacitance: Farads,
    input_delay: Seconds,
    sim_margin: f64,
    rail: Rail,
    victim: bool,
    stagger: Option<Stagger>,
    resistance: ssn_units::Ohms,
    mixed_models: Option<Vec<Arc<dyn MosModel>>>,
    esd_clamp: Option<ssn_devices::Diode>,
}

/// Staggered-switching configuration: the bank is split into `groups`
/// groups whose input ramps start `group_delay` apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stagger {
    /// Number of groups (>= 1).
    pub groups: usize,
    /// Delay between consecutive group firings.
    pub group_delay: Seconds,
}

impl DriverBankConfig {
    /// A bank of `n` standard output drivers of `process` behind its
    /// package parasitics.
    pub fn from_process(process: &Process, n: usize) -> Self {
        let pkg = process.package();
        Self {
            model: Arc::new(process.output_driver()),
            n_drivers: n,
            inductance: pkg.inductance,
            capacitance: pkg.capacitance,
            vdd: process.vdd(),
            rise_time: Seconds::from_nanos(0.5),
            load_capacitance: Farads::from_picos(5.0),
            input_delay: Seconds::from_picos(50.0),
            sim_margin: 1.5,
            rail: Rail::Ground,
            victim: false,
            stagger: None,
            resistance: ssn_units::Ohms::ZERO,
            mixed_models: None,
            esd_clamp: None,
        }
    }

    /// Mirrors a closed-form [`SsnScenario`] with an explicit golden device
    /// (`model` should be the device the scenario's ASDM was fitted to).
    pub fn from_scenario(scenario: &SsnScenario, model: Arc<dyn MosModel>) -> Self {
        Self {
            model,
            n_drivers: scenario.n_drivers(),
            inductance: scenario.inductance(),
            capacitance: scenario.capacitance(),
            vdd: scenario.vdd(),
            rise_time: scenario.rise_time(),
            load_capacitance: Farads::from_picos(5.0),
            input_delay: Seconds::from_picos(50.0),
            sim_margin: 1.5,
            rail: scenario.rail(),
            victim: false,
            stagger: None,
            resistance: ssn_units::Ohms::ZERO,
            mixed_models: None,
            esd_clamp: None,
        }
    }

    /// Adds a series resistance to the package path (the paper's 10 mOhm
    /// PGA value, neglected in the closed forms — this knob lets the
    /// neglect be *verified* rather than assumed).
    pub fn with_series_resistance(mut self, r: ssn_units::Ohms) -> Self {
        self.resistance = r;
        self
    }

    /// Adds an anti-parallel ESD clamp diode pair between the internal
    /// ground and the true ground — the pad-ring structure that clips large
    /// bounces at roughly one forward drop.
    pub fn with_esd_clamp(mut self, diode: ssn_devices::Diode) -> Self {
        self.esd_clamp = Some(diode);
        self
    }

    /// Replaces the uniform bank with an explicit per-driver model list
    /// (heterogeneous bank; the driver count follows the list length).
    /// Drivers given the same `Arc` fold into one instance; a list of
    /// distinct `Arc`s builds one instance per driver.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn with_mixed_models(mut self, models: Vec<Arc<dyn MosModel>>) -> Self {
        assert!(!models.is_empty(), "mixed bank must contain devices");
        self.n_drivers = models.len();
        self.mixed_models = Some(models);
        self
    }

    /// The model for driver `i`.
    fn driver_model(&self, i: usize) -> Arc<dyn MosModel> {
        match &self.mixed_models {
            Some(models) => models[i].clone(),
            None => self.model.clone(),
        }
    }

    /// Analyzes the power rail instead of the ground rail: the bank becomes
    /// PMOS pull-ups charging the loads through the VDD package path, and
    /// the measured quantity is the supply droop `V_dd - v(vp)` (paper
    /// Section 2: "the SSN at the power-supply node can be analyzed
    /// similarly").
    pub fn with_rail(mut self, rail: Rail) -> Self {
        self.rail = rail;
        self
    }

    /// Adds a quiet victim driver: its gate is held at `V_dd` so its output
    /// is solidly LOW — until the shared ground bounces and couples through
    /// the on transistor. Measured in
    /// [`SsnMeasurement::victim_glitch`]. Ground rail only.
    pub fn with_victim(mut self) -> Self {
        self.victim = true;
        self
    }

    /// Splits the bank into staggered groups (the design mitigation of
    /// paper Section 3, made simulatable).
    pub fn with_stagger(mut self, stagger: Stagger) -> Self {
        self.stagger = Some(stagger);
        self
    }

    /// Extends the simulated window to `margin` rise times past the ramp
    /// (default 1.5). Needed when observing slow post-ramp settling, e.g.
    /// heavily loaded output transitions.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is not positive and finite.
    pub fn with_sim_margin(mut self, margin: f64) -> Self {
        assert!(
            margin.is_finite() && margin > 0.0,
            "sim margin must be positive"
        );
        self.sim_margin = margin;
        self
    }

    /// Overrides the input rise time.
    pub fn with_rise_time(mut self, tr: Seconds) -> Self {
        self.rise_time = tr;
        self
    }

    /// Overrides the simulator-side settling delay before the input ramp
    /// starts (default 50 ps).
    ///
    /// The delay exists only on the *simulator* axis: [`measure`] shifts
    /// every waveform back by exactly this amount, so the model axis always
    /// has the ramp starting at `t = 0` and conduction starting at
    /// `t_0 = V_0 / s` — the closed forms' `t' = t - V_0/s` origin. The
    /// regression tests pin that measurements are invariant to this knob.
    pub fn with_input_delay(mut self, delay: Seconds) -> Self {
        self.input_delay = delay;
        self
    }

    /// The simulator-side settling delay before the input ramp starts.
    pub fn input_delay(&self) -> Seconds {
        self.input_delay
    }

    /// Overrides the package parasitics.
    pub fn with_package(mut self, l: Henrys, c: Farads) -> Self {
        self.inductance = l;
        self.capacitance = c;
        self
    }

    /// Overrides the per-driver output load.
    pub fn with_load(mut self, c_load: Farads) -> Self {
        self.load_capacitance = c_load;
        self
    }

    /// Number of drivers in the bank.
    pub fn n_drivers(&self) -> usize {
        self.n_drivers
    }

    /// Number of distinct input ramps (1 without staggering).
    fn n_groups(&self) -> usize {
        self.stagger
            .map_or(1, |s| s.groups.max(1).min(self.n_drivers))
    }

    /// Rejects configurations the simulator cannot handle before any
    /// netlist is built: zero drivers, non-positive or non-finite package
    /// inductance, rise time, or supply, and negative or non-finite
    /// capacitances.
    ///
    /// # Errors
    ///
    /// Returns [`SsnError::InvalidInput`] naming the offending field.
    pub fn validate(&self) -> Result<(), SsnError> {
        if self.n_drivers == 0 {
            return Err(SsnError::invalid(
                "drivers",
                0.0,
                "the bank needs at least one driver",
            ));
        }
        let l = self.inductance.value();
        if !(l > 0.0) || !l.is_finite() {
            return Err(SsnError::invalid(
                "inductance",
                l,
                "package inductance must be positive and finite",
            ));
        }
        let c = self.capacitance.value();
        if !(c >= 0.0) || !c.is_finite() {
            return Err(SsnError::invalid(
                "capacitance",
                c,
                "package capacitance must be non-negative and finite",
            ));
        }
        let tr = self.rise_time.value();
        if !(tr > 0.0) || !tr.is_finite() {
            return Err(SsnError::invalid(
                "rise time",
                tr,
                "input rise time must be positive and finite",
            ));
        }
        let vdd = self.vdd.value();
        if !(vdd > 0.0) || !vdd.is_finite() {
            return Err(SsnError::invalid(
                "Vdd",
                vdd,
                "supply voltage must be positive and finite",
            ));
        }
        let cl = self.load_capacitance.value();
        if !(cl >= 0.0) || !cl.is_finite() {
            return Err(SsnError::invalid(
                "load capacitance",
                cl,
                "per-driver load must be non-negative and finite",
            ));
        }
        let delay = self.input_delay.value();
        if !(delay >= 0.0) || !delay.is_finite() {
            return Err(SsnError::invalid(
                "input delay",
                delay,
                "input delay must be non-negative and finite",
            ));
        }
        Ok(())
    }

    /// Builds the driver-bank netlist for the configured rail.
    ///
    /// # Errors
    ///
    /// Returns [`SsnError::InvalidInput`] for a configuration that fails
    /// [`Self::validate`]; otherwise propagates netlist construction
    /// failures (cannot occur for a valid configuration; surfaced for API
    /// honesty).
    pub fn build_circuit(&self) -> Result<Circuit, SsnError> {
        self.validate()?;
        match self.rail {
            Rail::Ground => self.build_ground_circuit(),
            Rail::Power => self.build_power_circuit(),
        }
    }

    fn input_node(&self, i: usize) -> String {
        if self.n_groups() > 1 {
            format!("in{}", i * self.n_groups() / self.n_drivers)
        } else {
            "in".to_owned()
        }
    }

    fn add_inputs(&self, c: &mut Circuit, rising: bool) -> Result<(), SsnError> {
        let vdd = self.vdd.value();
        let tr = self.rise_time.value();
        let (v0, v1) = if rising { (0.0, vdd) } else { (vdd, 0.0) };
        if self.n_groups() > 1 {
            for g in 0..self.n_groups() {
                let delay = self.input_delay.value()
                    + g as f64 * self.stagger.expect("staggered").group_delay.value();
                let node = format!("in{g}");
                c.vsource(
                    &format!("vin{g}"),
                    &node,
                    "0",
                    SourceWave::ramp(v0, v1, delay, tr),
                )?;
                c.set_initial_voltage(&node, v0)?;
            }
        } else {
            c.vsource(
                "vin",
                "in",
                "0",
                SourceWave::ramp(v0, v1, self.input_delay.value(), tr),
            )?;
            c.set_initial_voltage("in", v0)?;
        }
        Ok(())
    }

    /// The bank's drivers as `(gate node, model, count)` groups in
    /// first-seen order. Drivers fold when they share a gate node and a
    /// model `Arc` (see the module docs).
    fn driver_groups(&self) -> Vec<(String, Arc<dyn MosModel>, usize)> {
        let mut groups: Vec<(String, Arc<dyn MosModel>, usize)> = Vec::new();
        for i in 0..self.n_drivers {
            let (gate, model) = (self.input_node(i), self.driver_model(i));
            match groups
                .iter_mut()
                .find(|(g, m, _)| *g == gate && Arc::ptr_eq(m, &model))
            {
                Some(group) => group.2 += 1,
                None => groups.push((gate, model, 1)),
            }
        }
        groups
    }

    /// Stamps one `m{k}` instance per driver group, its `cl{k}` load (the
    /// group's loads in parallel) and the output node `out{k}` starting at
    /// `v_out`. `source` and `bulk` are the rail nodes of the analyzed side.
    fn add_drivers(
        &self,
        c: &mut Circuit,
        polarity: MosPolarity,
        source: &str,
        bulk: &str,
        v_out: f64,
    ) -> Result<(), SsnError> {
        for (k, (gate, model, count)) in self.driver_groups().into_iter().enumerate() {
            let out = format!("out{k}");
            c.mosfet_parallel(
                &format!("m{k}"),
                polarity,
                &out,
                &gate,
                source,
                bulk,
                model,
                count,
            )?;
            c.capacitor_with_ic(
                &format!("cl{k}"),
                &out,
                "0",
                count as f64 * self.load_capacitance.value(),
                v_out,
            )?;
            c.set_initial_voltage(&out, v_out)?;
        }
        Ok(())
    }

    fn build_ground_circuit(&self) -> Result<Circuit, SsnError> {
        let mut c = Circuit::new();
        let vdd = self.vdd.value();
        self.add_inputs(&mut c, true)?;
        if self.resistance.value() > 0.0 {
            c.inductor_with_ic("lg", "ng", "ngr", self.inductance.value(), 0.0)?;
            c.resistor("rg", "ngr", "0", self.resistance.value())?;
            c.set_initial_voltage("ngr", 0.0)?;
        } else {
            c.inductor_with_ic("lg", "ng", "0", self.inductance.value(), 0.0)?;
        }
        if self.capacitance.value() > 0.0 {
            c.capacitor_with_ic("cg", "ng", "0", self.capacitance.value(), 0.0)?;
        }
        if let Some(diode) = self.esd_clamp {
            c.diode("desd_up", "ng", "0", diode)?;
            c.diode("desd_dn", "0", "ng", diode)?;
        }
        self.add_drivers(&mut c, MosPolarity::Nmos, "ng", "0", vdd)?;
        if self.victim {
            // Quiet victim: gate pinned high, output solidly LOW through
            // the (on) pull-down — until the ground node bounces.
            c.vsource("vgh", "gh", "0", SourceWave::Dc(vdd))?;
            c.mosfet(
                "mv",
                MosPolarity::Nmos,
                "outv",
                "gh",
                "ng",
                "0",
                self.model.clone(),
            )?;
            c.capacitor_with_ic("clv", "outv", "0", self.load_capacitance.value(), 0.0)?;
            c.set_initial_voltage("gh", vdd)?;
            c.set_initial_voltage("outv", 0.0)?;
        }
        c.set_initial_voltage("ng", 0.0)?;
        Ok(c)
    }

    /// The exact dual: PMOS pull-ups charging the loads through the VDD
    /// package path; the bulk ties to the true (quiet) supply, mirroring
    /// the ground case's bulk at the true ground.
    fn build_power_circuit(&self) -> Result<Circuit, SsnError> {
        let mut c = Circuit::new();
        let vdd = self.vdd.value();
        self.add_inputs(&mut c, false)?; // falling ramp turns the PMOS on
        c.vsource("vsup", "vddtrue", "0", SourceWave::Dc(vdd))?;
        c.inductor_with_ic("lp", "vddtrue", "vp", self.inductance.value(), 0.0)?;
        if self.capacitance.value() > 0.0 {
            c.capacitor_with_ic("cp", "vp", "0", self.capacitance.value(), vdd)?;
        }
        self.add_drivers(&mut c, MosPolarity::Pmos, "vp", "vddtrue", 0.0)?;
        c.set_initial_voltage("vp", vdd)?;
        c.set_initial_voltage("vddtrue", vdd)?;
        Ok(c)
    }

    fn t_stop(&self) -> f64 {
        let stagger_span =
            (self.n_groups() - 1) as f64 * self.stagger.map_or(0.0, |s| s.group_delay.value());
        self.input_delay.value() + stagger_span + self.rise_time.value() * (1.0 + self.sim_margin)
    }
}

/// The simulated SSN experiment outcome. All waveforms are on the *model*
/// time axis (the first input ramp starts at `t = 0`).
#[derive(Debug, Clone)]
pub struct SsnMeasurement {
    /// The rail disturbance: ground bounce `V_n(t)` for the ground rail,
    /// supply droop `V_dd - v(vp)` for the power rail.
    pub ground_bounce: Waveform,
    /// The current through the package inductor on the analyzed rail.
    pub inductor_current: Waveform,
    /// The (first group's) input ramp as simulated.
    pub input: Waveform,
    /// One representative driver output (`out0`, the first group's).
    pub output: Waveform,
    /// The quiet victim's output glitch, when
    /// [`DriverBankConfig::with_victim`] is enabled.
    pub victim_glitch: Option<Waveform>,
    /// Maximum rail disturbance within the switching window — the quantity
    /// the paper's Table 1 predicts. (The window is `[0, t_r]`, extended by
    /// the stagger span when groups fire at different times.)
    pub vn_max: Volts,
    /// Time of that maximum on the model axis.
    pub vn_peak_time: Seconds,
    /// Maximum disturbance over the whole simulated window (including
    /// post-ramp ringing), for diagnostics.
    pub vn_max_global: Volts,
}

/// Simulates the driver bank and extracts the SSN quantities.
///
/// # Errors
///
/// Returns [`SsnError::InvalidInput`] for a configuration that fails
/// [`DriverBankConfig::validate`]; otherwise propagates simulator failures
/// ([`SsnError::Simulation`]).
pub fn measure(cfg: &DriverBankConfig) -> Result<SsnMeasurement, SsnError> {
    let circuit = cfg.build_circuit()?;
    let opts = TranOptions {
        lte_rel: 0.002,
        lte_abs: 2e-5,
        ..TranOptions::to(cfg.t_stop())
            .with_ic()
            .with_dt_max(cfg.rise_time.value() / 50.0)
    };
    let result = transient(&circuit, opts)?;

    let delay = cfg.input_delay.value();
    let shift = |w: &Waveform| -> Result<Waveform, SsnError> { Ok(w.shifted(-delay)) };

    let vdd = cfg.vdd.value();
    let (ground_bounce, inductor_current) = match cfg.rail {
        Rail::Ground => (
            shift(&result.voltage("ng")?)?,
            shift(&result.branch_current("lg")?)?,
        ),
        Rail::Power => (
            shift(&result.voltage("vp")?)?.map(|v| vdd - v),
            shift(&result.branch_current("lp")?)?,
        ),
    };
    let input_node = if cfg.n_groups() > 1 { "in0" } else { "in" };
    let input = shift(&result.voltage(input_node)?)?;
    let output = shift(&result.voltage("out0")?)?;
    let victim_glitch = if cfg.victim {
        Some(shift(&result.voltage("outv")?)?)
    } else {
        None
    };

    // In-window maximum: clip to the switching window on the model axis.
    let window = cfg.rise_time.value()
        + (cfg.n_groups() - 1) as f64 * cfg.stagger.map_or(0.0, |s| s.group_delay.value());
    let windowed = ground_bounce.clipped(0.0, window)?;
    let peak = windowed.peak();
    let global = ground_bounce.peak();

    Ok(SsnMeasurement {
        ground_bounce,
        inductor_current,
        input,
        output,
        victim_glitch,
        vn_max: Volts::new(peak.value),
        vn_peak_time: Seconds::new(peak.time),
        vn_max_global: Volts::new(global.value),
    })
}

/// Measures the small-signal impedance seen looking into the internal
/// ground node, with all driver gates biased at `gate_bias` (DC). The
/// resonance of this impedance is the frequency-domain face of the
/// time-domain damping classification in [`crate::lcmodel`].
///
/// Returns `(frequencies, |Z| in ohms)`.
///
/// # Errors
///
/// Returns [`SsnError::InvalidInput`] for a configuration that fails
/// [`DriverBankConfig::validate`] or a non-positive / inverted frequency
/// range; otherwise propagates circuit and AC-analysis failures.
pub fn ground_impedance(
    cfg: &DriverBankConfig,
    gate_bias: Volts,
    f_lo: Hertz,
    f_hi: Hertz,
    points_per_decade: usize,
) -> Result<(Vec<f64>, Vec<f64>), SsnError> {
    cfg.validate()?;
    if !(f_lo.value() > 0.0) || !f_lo.value().is_finite() {
        return Err(SsnError::invalid(
            "sweep start frequency",
            f_lo.value(),
            "must be positive and finite",
        ));
    }
    if !(f_hi.value() > f_lo.value()) || !f_hi.value().is_finite() {
        return Err(SsnError::invalid(
            "sweep stop frequency",
            f_hi.value(),
            "must be finite and above the start frequency",
        ));
    }
    let mut c = Circuit::new();
    let vdd = cfg.vdd.value();
    c.vsource("vbias", "in", "0", SourceWave::Dc(gate_bias.value()))?;
    c.inductor("lg", "ng", "0", cfg.inductance.value())?;
    if cfg.capacitance.value() > 0.0 {
        c.capacitor("cg", "ng", "0", cfg.capacitance.value())?;
    }
    c.vsource("vddsrc", "vdd", "0", SourceWave::Dc(vdd))?;
    // The whole bank as one instance: every driver shares all four nodes,
    // drains held at the rail (the paper's "output stays high").
    c.mosfet_parallel(
        "m0",
        MosPolarity::Nmos,
        "vdd",
        "in",
        "ng",
        "0",
        cfg.model.clone(),
        cfg.n_drivers,
    )?;
    // Unit AC current injected into the bouncing node: V(ng) == Z(jw).
    c.isource("iprobe", "0", "ng", SourceWave::Dc(0.0))?;
    let opts = AcOptions::log_sweep("iprobe", f_lo.value(), f_hi.value(), points_per_decade);
    let res = ac_analysis(&c, &opts)?;
    let mag = res.magnitude("ng")?;
    Ok((res.frequencies().to_vec(), mag.values().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lcmodel, lmodel};

    fn p018_config(n: usize) -> DriverBankConfig {
        DriverBankConfig::from_process(&Process::p018(), n)
    }

    #[test]
    fn circuit_structure() {
        use ssn_spice::ElementKind;
        let cfg = p018_config(4);
        let c = cfg.build_circuit().unwrap();
        // vin + lg + cg + one folded fet + one folded load = 5 elements.
        assert_eq!(c.element_count(), 5);
        assert!(c.find_element("m1").is_none());
        assert!(matches!(
            c.find_element("m0").unwrap().kind(),
            ElementKind::Mosfet { m: 4, .. }
        ));
        match c.find_element("cl0").unwrap().kind() {
            ElementKind::Capacitor { farads, ic, .. } => {
                assert!((farads - 20e-12).abs() < 1e-24, "cl0 = {farads}");
                assert_eq!(*ic, Some(1.8));
            }
            other => panic!("cl0 is {other:?}"),
        }
        assert!(c.find_node("ng").is_some());
        assert_eq!(cfg.n_drivers(), 4);
    }

    #[test]
    fn drivers_fold_by_gate_and_model_identity() {
        use ssn_spice::ElementKind;
        let process = Process::p018();
        let mult = |c: &Circuit, name: &str| match c.find_element(name).map(|e| e.kind()) {
            Some(ElementKind::Mosfet { m, .. }) => *m,
            other => panic!("{name} is {other:?}"),
        };
        // Two stagger groups of three: one instance per input ramp.
        let staggered = p018_config(6)
            .with_stagger(Stagger {
                groups: 2,
                group_delay: Seconds::from_nanos(1.0),
            })
            .build_circuit()
            .unwrap();
        assert_eq!((mult(&staggered, "m0"), mult(&staggered, "m1")), (3, 3));
        assert!(staggered.find_element("m2").is_none());
        // Two shared Arcs and one distinct: groups in first-seen order.
        let (a, b): (Arc<dyn MosModel>, Arc<dyn MosModel>) = (
            Arc::new(process.output_driver()),
            Arc::new(process.output_driver_scaled(2.0)),
        );
        let lone: Arc<dyn MosModel> = Arc::new(process.output_driver());
        let mixed = p018_config(1)
            .with_mixed_models(vec![a.clone(), b.clone(), a, lone, b])
            .build_circuit()
            .unwrap();
        let counts: Vec<usize> = (0..3).map(|k| mult(&mixed, &format!("m{k}"))).collect();
        assert_eq!(counts, [2, 2, 1]);
        // Distinct Arcs fold nothing: one instance, load and output each.
        let models = (0..4)
            .map(|_| -> Arc<dyn MosModel> { Arc::new(process.output_driver()) })
            .collect();
        let spread = p018_config(4)
            .with_mixed_models(models)
            .with_rail(Rail::Power)
            .build_circuit()
            .unwrap();
        assert_eq!(mult(&spread, "m3"), 1);
        assert!(spread.find_node("out3").is_some());
    }

    #[test]
    fn invalid_configs_are_rejected_before_simulation() {
        use crate::error::SsnError;
        let cases: Vec<(DriverBankConfig, &str)> = vec![
            (
                p018_config(4).with_package(Henrys::ZERO, Farads::ZERO),
                "inductance",
            ),
            (
                p018_config(4).with_package(Henrys::new(f64::NAN), Farads::ZERO),
                "inductance",
            ),
            (
                p018_config(4).with_package(Henrys::from_nanos(5.0), Farads::new(-1e-12)),
                "capacitance",
            ),
            (p018_config(4).with_rise_time(Seconds::ZERO), "rise time"),
            (
                p018_config(4).with_rise_time(Seconds::new(f64::INFINITY)),
                "rise time",
            ),
            (
                p018_config(4).with_load(Farads::new(f64::NAN)),
                "load capacitance",
            ),
            (
                p018_config(4).with_input_delay(Seconds::new(-1e-12)),
                "input delay",
            ),
            (
                p018_config(4).with_input_delay(Seconds::new(f64::NAN)),
                "input delay",
            ),
        ];
        for (cfg, want_field) in cases {
            let err = measure(&cfg).unwrap_err();
            assert!(
                matches!(err, SsnError::InvalidInput { field, .. } if field == want_field),
                "expected InvalidInput on {want_field}, got: {err}"
            );
        }
        // Frequency-range validation on the impedance probe.
        let good = p018_config(2);
        assert!(ground_impedance(&good, Volts::ZERO, Hertz::ZERO, Hertz::new(1e9), 10).is_err());
        assert!(
            ground_impedance(&good, Volts::ZERO, Hertz::new(1e9), Hertz::new(1e6), 10).is_err()
        );
    }

    #[test]
    fn c_zero_omits_ground_capacitor() {
        let cfg = p018_config(2).with_package(Henrys::from_nanos(5.0), Farads::ZERO);
        let c = cfg.build_circuit().unwrap();
        assert!(c.find_element("cg").is_none());
    }

    #[test]
    fn measurement_produces_physical_bounce() {
        let meas = measure(&p018_config(8)).unwrap();
        // The ground must bounce up, but stay below the supply.
        assert!(meas.vn_max.value() > 0.1, "vn_max = {}", meas.vn_max);
        assert!(meas.vn_max.value() < 1.8);
        // Bounce starts at zero.
        assert!(meas.ground_bounce.sample(0.0).abs() < 1e-3);
        // Inductor current is zero initially, grows into the tens of mA.
        assert!(meas.inductor_current.sample(0.0).abs() < 1e-6);
        assert!(meas.inductor_current.peak().value > 10e-3);
        // Input reaches the rail.
        assert!((meas.input.sample(0.5e-9) - 1.8).abs() < 1e-6);
        // Output stays high during the ramp (the paper's assumption).
        assert!(
            meas.output.sample(0.5e-9) > 1.5,
            "out = {}",
            meas.output.sample(0.5e-9)
        );
        // Peak bookkeeping.
        assert!(meas.vn_max_global >= meas.vn_max);
        assert!(meas.vn_peak_time.value() <= 0.5e-9 + 1e-15);
    }

    #[test]
    fn model_axis_is_invariant_to_input_delay() {
        // Regression: the simulator settling delay must cancel exactly in
        // the scenario→netlist→measurement round trip. If the conversion
        // dropped (or double-counted) the delay, the model-axis peak time
        // would move by the delay change — far outside these tolerances.
        let tr = 0.5e-9;
        let base = measure(&p018_config(8)).unwrap();
        let moved = measure(&p018_config(8).with_input_delay(Seconds::from_picos(300.0))).unwrap();
        let dv = (moved.vn_max.value() - base.vn_max.value()).abs() / base.vn_max.value();
        assert!(dv < 5e-3, "vn_max moved by {dv} with the input delay");
        let dt = (moved.vn_peak_time.value() - base.vn_peak_time.value()).abs();
        assert!(
            dt < 0.02 * tr,
            "peak time moved by {dt} s with a 250 ps delay change"
        );
        // Default and accessor round trip.
        assert_eq!(
            p018_config(8).input_delay(),
            Seconds::from_picos(50.0),
            "documented default"
        );
        assert_eq!(
            p018_config(8)
                .with_input_delay(Seconds::from_picos(300.0))
                .input_delay(),
            Seconds::from_picos(300.0)
        );
    }

    #[test]
    fn conduction_start_matches_the_closed_form_time_origin() {
        // Pins the `t' = t - V0/s` offset: on the model axis the input
        // ramp crosses the ASDM displacement voltage V0 at exactly
        // t0 = V0 tr / Vdd, and the bounce is quiet until then.
        use std::sync::Arc;
        let process = Process::p018();
        let scenario = crate::scenario::SsnScenario::builder(&process)
            .drivers(8)
            .rise_time(Seconds::from_nanos(0.5))
            .build()
            .unwrap();
        let t0 = scenario.conduction_start().value();
        let tr = scenario.rise_time().value();
        assert!(t0 > 0.05 * tr && t0 < 0.95 * tr, "t0 = {t0}");
        let cfg = DriverBankConfig::from_scenario(&scenario, Arc::new(process.output_driver()));
        let meas = measure(&cfg).unwrap();
        let v0 = scenario.asdm().v0().value();
        let crossing = meas
            .input
            .first_rise_through(v0)
            .expect("input must cross V0");
        assert!(
            (crossing - t0).abs() < 0.01 * tr,
            "input crosses V0 at {crossing}, model t0 = {t0}"
        );
        // Before conduction the bank sinks no current: the bounce at
        // 0.5 * t0 is tiny compared to the peak (subthreshold only).
        let early = meas.ground_bounce.sample(0.5 * t0).abs();
        assert!(
            early < 0.05 * meas.vn_max.value(),
            "bounce {early} before conduction start (peak {})",
            meas.vn_max
        );
    }

    #[test]
    fn series_resistance_of_pga_is_negligible() {
        // Paper Section 1: "it is a very good approximation to neglect the
        // small resistance" — verified, not assumed.
        let without = measure(&p018_config(8)).unwrap().vn_max.value();
        let with_r =
            measure(&p018_config(8).with_series_resistance(ssn_units::Ohms::from_millis(10.0)))
                .unwrap()
                .vn_max
                .value();
        let rel = (with_r - without).abs() / without;
        assert!(rel < 0.005, "10 mOhm changed Vn_max by {rel}");
        // A deliberately large resistance does matter (sanity that the
        // knob is actually wired in).
        let with_big_r = measure(&p018_config(8).with_series_resistance(ssn_units::Ohms::new(5.0)))
            .unwrap()
            .vn_max
            .value();
        assert!(
            (with_big_r - without).abs() / without > 0.05,
            "5 Ohm should visibly change the bounce: {with_big_r} vs {without}"
        );
    }

    #[test]
    fn esd_clamp_clips_large_bounces() {
        use ssn_devices::Diode;
        // A big bank bounces near 0.95 V unclamped; a wide ESD diode pair
        // clips it near one forward drop.
        let n = 24;
        let unclamped = measure(&p018_config(n)).unwrap().vn_max.value();
        // Wide clamp: large saturation current (big junction area).
        let clamp = Diode::new(1e-11, 1.0);
        let clamped = measure(&p018_config(n).with_esd_clamp(clamp))
            .unwrap()
            .vn_max
            .value();
        assert!(unclamped > 0.85, "unclamped bounce {unclamped}");
        assert!(
            clamped < unclamped - 0.05,
            "clamp must reduce the bounce: {clamped} vs {unclamped}"
        );
        // The clamped level sits near the diode knee at the clamp current.
        assert!(clamped > 0.5 && clamped < 0.85, "clamped level {clamped}");
        // A small bounce is untouched (diode off below its knee).
        let small_off = measure(&p018_config(2)).unwrap().vn_max.value();
        let small_on = measure(&p018_config(2).with_esd_clamp(clamp))
            .unwrap()
            .vn_max
            .value();
        assert!(
            (small_off - small_on).abs() / small_off < 0.02,
            "clamp must not disturb small bounces: {small_on} vs {small_off}"
        );
    }

    #[test]
    fn mixed_width_bank_matches_aggregated_closed_form() {
        use crate::scenario::aggregate_asdm;
        use ssn_devices::fit::{fit_asdm, sample_ssn_region, SsnRegionSpec};

        let process = Process::p018();
        let spec = SsnRegionSpec::for_process(&process);
        // Four 1x drivers and two 2x drivers.
        let narrow = process.output_driver();
        let wide = process.output_driver_scaled(2.0);
        let asdm_narrow = fit_asdm(&sample_ssn_region(&narrow, &spec)).unwrap();
        let asdm_wide = fit_asdm(&sample_ssn_region(&wide, &spec)).unwrap();
        let bank = aggregate_asdm(&[(asdm_narrow, 4), (asdm_wide, 2)]).unwrap();
        // Width scaling scales K only.
        assert!(
            (asdm_wide.k().value() - 2.0 * asdm_narrow.k().value()).abs() / asdm_wide.k().value()
                < 1e-6
        );

        let scenario = crate::scenario::SsnScenario::from_asdm(bank, process.vdd())
            .drivers(1) // K already carries the whole bank
            .inductance(process.package().inductance)
            .capacitance(process.package().capacitance)
            .rise_time(Seconds::from_nanos(0.5))
            .build()
            .unwrap();
        let closed = crate::lcmodel::vn_max(&scenario).0.value();

        let models: Vec<Arc<dyn MosModel>> = (0..6)
            .map(|i| -> Arc<dyn MosModel> {
                if i < 4 {
                    Arc::new(narrow.clone())
                } else {
                    Arc::new(wide.clone())
                }
            })
            .collect();
        let cfg = p018_config(6).with_mixed_models(models);
        let sim = measure(&cfg).unwrap().vn_max.value();
        let rel = (closed - sim).abs() / sim;
        assert!(
            rel < 0.10,
            "mixed bank: closed {closed} vs sim {sim} ({rel:.3})"
        );
    }

    #[test]
    fn power_rail_droop_mirrors_ground_bounce() {
        // The paper: "the SSN at the power-supply node can be analyzed
        // similarly". With a symmetric PMOS stand-in the droop magnitude
        // lands in the same ballpark as the ground bounce.
        let ground = measure(&p018_config(8)).unwrap();
        let power = measure(&p018_config(8).with_rail(crate::scenario::Rail::Power)).unwrap();
        let g = ground.vn_max.value();
        let p = power.vn_max.value();
        assert!(p > 0.1, "droop {p}");
        assert!(
            (p - g).abs() / g < 0.35,
            "droop {p} vs bounce {g} diverge more than the device asymmetry allows"
        );
        // Droop starts at ~0 and the load output charges upward (it keeps
        // charging past the observed window; only the direction and a
        // substantial rise are asserted here).
        assert!(power.ground_bounce.sample(0.0).abs() < 5e-3);
        let early = power.output.sample(0.3e-9);
        let late = power.output.sample(1.2e-9);
        assert!(late > 0.8, "out = {late}");
        assert!(late > early);
    }

    #[test]
    fn victim_glitch_follows_ground_bounce() {
        let meas = measure(&p018_config(8).with_victim()).unwrap();
        let glitch = meas.victim_glitch.as_ref().expect("victim enabled");
        // The victim output is LOW; the bounce couples through the on
        // pull-down, so the glitch peak is positive, substantial, and
        // bounded by the bounce itself.
        let g = glitch.peak().value;
        let b = meas.ground_bounce.peak().value;
        assert!(g > 0.2 * b, "glitch {g} vs bounce {b}");
        assert!(g < 1.2 * b, "glitch {g} exceeds bounce {b}");
        // Starts clean.
        assert!(glitch.sample(0.0).abs() < 5e-3);
    }

    #[test]
    fn staggering_reduces_peak_noise() {
        let all_at_once = measure(&p018_config(8)).unwrap().vn_max.value();
        let staggered = measure(&p018_config(8).with_stagger(Stagger {
            groups: 4,
            group_delay: Seconds::from_nanos(1.0),
        }))
        .unwrap()
        .vn_max
        .value();
        // Four groups of two should bounce roughly like N = 2 (far less
        // than N = 8).
        let two = measure(&p018_config(2)).unwrap().vn_max.value();
        assert!(
            staggered < 0.6 * all_at_once,
            "stagger {staggered} vs simultaneous {all_at_once}"
        );
        assert!(
            (staggered - two).abs() / two < 0.25,
            "stagger {staggered} vs N=2 {two}"
        );
    }

    #[test]
    fn ground_impedance_resonates_at_omega0_when_drivers_off() {
        let cfg = p018_config(8);
        let l = 5e-9;
        let c = 1e-12f64;
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        // Gates at 0: drivers off, the network is a bare L || C tank.
        let (freqs, mags) = ground_impedance(
            &cfg,
            Volts::ZERO,
            Hertz::new(f0 / 30.0),
            Hertz::new(f0 * 30.0),
            40,
        )
        .unwrap();
        let peak_idx = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let peak_f = freqs[peak_idx];
        assert!(
            (peak_f - f0).abs() / f0 < 0.1,
            "resonance {peak_f:.3e} vs omega0/2pi {f0:.3e}"
        );
        // Gates fully on: the FET conductance damps the resonance.
        let (_, damped) = ground_impedance(
            &cfg,
            Volts::new(1.8),
            Hertz::new(f0 / 30.0),
            Hertz::new(f0 * 30.0),
            40,
        )
        .unwrap();
        let peak_on = damped.iter().copied().fold(0.0f64, f64::max);
        let peak_off = mags[peak_idx];
        assert!(
            peak_on < 0.3 * peak_off,
            "active drivers must damp the tank: {peak_on} vs {peak_off}"
        );
    }

    #[test]
    fn folded_ground_impedance_equals_the_per_driver_circuit() {
        let n = 8;
        let cfg = p018_config(n);
        let (f_lo, f_hi) = (Hertz::new(1e7), Hertz::new(1e11));
        for bias in [0.0, 1.8] {
            let (freqs, folded) = ground_impedance(&cfg, Volts::new(bias), f_lo, f_hi, 20).unwrap();
            // The same probe with one MOSFET per driver.
            let mut c = Circuit::new();
            c.vsource("vbias", "in", "0", SourceWave::Dc(bias)).unwrap();
            c.inductor("lg", "ng", "0", 5e-9).unwrap();
            c.capacitor("cg", "ng", "0", 1e-12).unwrap();
            c.vsource("vddsrc", "vdd", "0", SourceWave::Dc(1.8))
                .unwrap();
            let model: Arc<dyn MosModel> = Arc::new(Process::p018().output_driver());
            for i in 0..n {
                c.mosfet(
                    &format!("m{i}"),
                    MosPolarity::Nmos,
                    "vdd",
                    "in",
                    "ng",
                    "0",
                    model.clone(),
                )
                .unwrap();
            }
            c.isource("iprobe", "0", "ng", SourceWave::Dc(0.0)).unwrap();
            let opts = AcOptions::log_sweep("iprobe", 1e7, 1e11, 20);
            let spread = ac_analysis(&c, &opts).unwrap().magnitude("ng").unwrap();
            assert_eq!(freqs, spread.times());
            for (f, (a, b)) in freqs.iter().zip(folded.iter().zip(spread.values())) {
                let rel = (a - b).abs() / b;
                assert!(
                    rel <= 1e-9,
                    "bias {bias} V, {f:.3e} Hz: {a} vs {b} ({rel:.1e})"
                );
            }
        }
    }

    /// The headline validation: the closed-form models track the nonlinear
    /// golden-device simulation.
    #[test]
    fn closed_form_tracks_simulation() {
        let process = Process::p018();
        for n in [2usize, 8] {
            let scenario = crate::scenario::SsnScenario::builder(&process)
                .drivers(n)
                .build()
                .unwrap();
            let cfg = DriverBankConfig::from_scenario(&scenario, Arc::new(process.output_driver()));
            let meas = measure(&cfg).unwrap();
            let (lc, _) = lcmodel::vn_max(&scenario);
            let rel = (lc.value() - meas.vn_max.value()).abs() / meas.vn_max.value();
            assert!(
                rel < 0.10,
                "N = {n}: model {} vs sim {} ({:.1}%)",
                lc,
                meas.vn_max,
                rel * 100.0
            );
            // The L-only model is also in the right ballpark here
            // (over-damped region for N = 8).
            let l_only = lmodel::vn_max(&scenario);
            assert!((l_only.value() - meas.vn_max.value()).abs() / meas.vn_max.value() < 0.25);
        }
    }
}
