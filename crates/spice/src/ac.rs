//! AC small-signal (frequency-domain) analysis.
//!
//! Linearizes the circuit at its DC operating point, then solves the
//! complex MNA system `Y(jw) x = b` over a frequency grid. Used in the SSN
//! suite to expose the ground network's impedance resonance — the
//! frequency-domain face of the paper's damping classification.

use crate::dc::{dc_operating_point, DcOptions};
use crate::error::SpiceError;
use crate::netlist::{Circuit, ElementKind};
use crate::stamp::{mos_linearize, SystemLayout, GMIN_FLOOR};
use ssn_numeric::clu::{solve_complex, ComplexMatrix};
use ssn_numeric::complex::Complex;
use ssn_waveform::Waveform;

/// Options for [`ac_analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct AcOptions {
    /// Frequencies to solve at (Hz, must be positive and increasing).
    pub frequencies: Vec<f64>,
    /// Name of the independent source acting as the AC stimulus; all other
    /// sources are set to zero in the small-signal circuit (voltage sources
    /// short, current sources open).
    pub stimulus: String,
    /// Stimulus magnitude (V or A).
    pub magnitude: f64,
    /// Newton options for the underlying DC operating point.
    pub dc: DcOptions,
}

impl AcOptions {
    /// A log-spaced sweep of `points_per_decade` points per decade over
    /// `[f_lo, f_hi]`, driven by unit stimulus `source`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not positive and ordered or
    /// `points_per_decade == 0`.
    pub fn log_sweep(source: &str, f_lo: f64, f_hi: f64, points_per_decade: usize) -> Self {
        assert!(f_lo > 0.0 && f_hi > f_lo, "need 0 < f_lo < f_hi");
        assert!(points_per_decade > 0, "need at least one point per decade");
        let decades = (f_hi / f_lo).log10();
        let n = ((decades * points_per_decade as f64).ceil() as usize + 1).max(2);
        let frequencies = ssn_numeric::stats::logspace(f_lo, f_hi, n)
            .expect("bounds checked positive and n >= 2 above");
        Self {
            frequencies,
            stimulus: source.to_owned(),
            magnitude: 1.0,
            dc: DcOptions::default(),
        }
    }
}

/// The result of an AC sweep: one complex solution vector per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    circuit: Circuit,
    layout: SystemLayout,
    freqs: Vec<f64>,
    solutions: Vec<Vec<Complex>>,
}

impl AcResult {
    /// The swept frequencies (Hz).
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// The node-voltage phasor at frequency index `idx`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] for an unknown node or an
    /// out-of-range index.
    pub fn phasor(&self, node: &str, idx: usize) -> Result<Complex, SpiceError> {
        let id = self
            .circuit
            .find_node(node)
            .ok_or_else(|| SpiceError::UnknownProbe { name: node.into() })?;
        let sol = self
            .solutions
            .get(idx)
            .ok_or_else(|| SpiceError::UnknownProbe {
                name: format!("frequency index {idx}"),
            })?;
        Ok(match self.layout.node_index(id) {
            Some(i) => sol[i],
            None => Complex::ZERO,
        })
    }

    /// Magnitude response `|V(node)|` over the sweep, as a waveform with
    /// frequency on the horizontal axis.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] for an unknown node.
    pub fn magnitude(&self, node: &str) -> Result<Waveform, SpiceError> {
        let values: Result<Vec<f64>, SpiceError> = (0..self.freqs.len())
            .map(|i| self.phasor(node, i).map(Complex::abs))
            .collect();
        Ok(Waveform::new(self.freqs.clone(), values?)?)
    }

    /// Phase response (radians) over the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownProbe`] for an unknown node.
    pub fn phase(&self, node: &str) -> Result<Waveform, SpiceError> {
        let values: Result<Vec<f64>, SpiceError> = (0..self.freqs.len())
            .map(|i| self.phasor(node, i).map(Complex::arg))
            .collect();
        Ok(Waveform::new(self.freqs.clone(), values?)?)
    }
}

/// Runs an AC small-signal analysis.
///
/// # Errors
///
/// * [`SpiceError::UnknownProbe`] when the stimulus source does not exist,
/// * [`SpiceError::InvalidValue`] for an empty or non-increasing frequency
///   grid,
/// * DC operating-point and linear-solver failures.
pub fn ac_analysis(circuit: &Circuit, opts: &AcOptions) -> Result<AcResult, SpiceError> {
    if opts.frequencies.is_empty() || opts.frequencies.windows(2).any(|w| w[1] <= w[0]) {
        return Err(SpiceError::InvalidValue {
            context: "AC frequencies must be non-empty and strictly increasing".into(),
        });
    }
    if opts.frequencies[0] <= 0.0 {
        return Err(SpiceError::InvalidValue {
            context: "AC frequencies must be positive".into(),
        });
    }
    let stim_idx = circuit
        .elements()
        .iter()
        .position(|e| e.name() == opts.stimulus)
        .ok_or_else(|| SpiceError::UnknownProbe {
            name: opts.stimulus.clone(),
        })?;
    match circuit.elements()[stim_idx].kind() {
        ElementKind::VSource { .. } | ElementKind::ISource { .. } => {}
        _ => {
            return Err(SpiceError::InvalidValue {
                context: format!("AC stimulus {:?} must be a V or I source", opts.stimulus),
            })
        }
    }

    let layout = SystemLayout::new(circuit);
    let op = dc_operating_point(circuit, opts.dc)?;
    let x0 = op.x;
    let n = layout.dim();

    let mut solutions = Vec::with_capacity(opts.frequencies.len());
    let mut y = ComplexMatrix::zeros(n, n);
    let mut b = vec![Complex::ZERO; n];

    for &freq in &opts.frequencies {
        let w = 2.0 * std::f64::consts::PI * freq;
        y.fill_zero();
        b.iter_mut().for_each(|v| *v = Complex::ZERO);
        for i in 0..layout.n_nodes - 1 {
            y.add(i, i, Complex::real(GMIN_FLOOR));
        }

        for (idx, el) in circuit.elements().iter().enumerate() {
            match el.kind() {
                ElementKind::Resistor { a, b: nb, ohms } => {
                    stamp_admittance(&layout, &mut y, *a, *nb, Complex::real(1.0 / ohms));
                }
                ElementKind::Capacitor {
                    a, b: nb, farads, ..
                } => {
                    stamp_admittance(&layout, &mut y, *a, *nb, Complex::new(0.0, w * farads));
                }
                ElementKind::Inductor {
                    a, b: nb, henrys, ..
                } => {
                    let bi = layout.branch_index(idx).expect("inductor branch");
                    if let Some(i) = layout.node_index(*a) {
                        y.add(i, bi, Complex::ONE);
                        y.add(bi, i, Complex::ONE);
                    }
                    if let Some(j) = layout.node_index(*nb) {
                        y.add(j, bi, -Complex::ONE);
                        y.add(bi, j, -Complex::ONE);
                    }
                    y.add(bi, bi, Complex::new(0.0, -w * henrys));
                }
                ElementKind::VSource { pos, neg, .. } => {
                    let bi = layout.branch_index(idx).expect("vsource branch");
                    if let Some(i) = layout.node_index(*pos) {
                        y.add(i, bi, Complex::ONE);
                        y.add(bi, i, Complex::ONE);
                    }
                    if let Some(j) = layout.node_index(*neg) {
                        y.add(j, bi, -Complex::ONE);
                        y.add(bi, j, -Complex::ONE);
                    }
                    if idx == stim_idx {
                        b[bi] = Complex::real(opts.magnitude);
                    }
                }
                ElementKind::ISource { pos, neg, .. } => {
                    if idx == stim_idx {
                        if let Some(i) = layout.node_index(*pos) {
                            b[i] -= Complex::real(opts.magnitude);
                        }
                        if let Some(j) = layout.node_index(*neg) {
                            b[j] += Complex::real(opts.magnitude);
                        }
                    }
                }
                ElementKind::Vccs {
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    gm,
                } => {
                    stamp_transconductance(&layout, &mut y, *out_p, *out_n, *ctrl_p, *ctrl_n, *gm);
                }
                ElementKind::Diode { a, k, model } => {
                    // Small-signal junction conductance at the operating
                    // point.
                    let va = layout.voltage(&x0, *a);
                    let vk = layout.voltage(&x0, *k);
                    let (_, g) = model.iv(va - vk);
                    stamp_admittance(&layout, &mut y, *a, *k, Complex::real(g));
                }
                ElementKind::Mosfet {
                    polarity,
                    d,
                    g,
                    s,
                    b: nb,
                    model,
                    m,
                } => {
                    // Small-signal conductances at the DC operating point.
                    let vd = layout.voltage(&x0, *d);
                    let vg = layout.voltage(&x0, *g);
                    let vs = layout.voltage(&x0, *s);
                    let vb = layout.voltage(&x0, *nb);
                    let lin = mos_linearize(model.as_ref(), *polarity, vd, vg, vs, vb).parallel(*m);
                    let stamps = [(*d, lin.g_d), (*g, lin.g_g), (*s, lin.g_s), (*nb, lin.g_b)];
                    if let Some(i) = layout.node_index(*d) {
                        for (node, gval) in stamps {
                            if let Some(j) = layout.node_index(node) {
                                y.add(i, j, Complex::real(gval));
                            }
                        }
                    }
                    if let Some(i) = layout.node_index(*s) {
                        for (node, gval) in stamps {
                            if let Some(j) = layout.node_index(node) {
                                y.add(i, j, Complex::real(-gval));
                            }
                        }
                    }
                }
            }
        }
        solutions.push(solve_complex(&y, &b)?);
    }

    Ok(AcResult {
        circuit: circuit.clone(),
        layout,
        freqs: opts.frequencies.clone(),
        solutions,
    })
}

fn stamp_admittance(
    layout: &SystemLayout,
    y: &mut ComplexMatrix,
    a: crate::netlist::NodeId,
    b: crate::netlist::NodeId,
    adm: Complex,
) {
    if let Some(i) = layout.node_index(a) {
        y.add(i, i, adm);
        if let Some(j) = layout.node_index(b) {
            y.add(i, j, -adm);
        }
    }
    if let Some(j) = layout.node_index(b) {
        y.add(j, j, adm);
        if let Some(i) = layout.node_index(a) {
            y.add(j, i, -adm);
        }
    }
}

fn stamp_transconductance(
    layout: &SystemLayout,
    y: &mut ComplexMatrix,
    out_p: crate::netlist::NodeId,
    out_n: crate::netlist::NodeId,
    ctrl_p: crate::netlist::NodeId,
    ctrl_n: crate::netlist::NodeId,
    gm: f64,
) {
    for (node, sign) in [(out_p, 1.0), (out_n, -1.0)] {
        if let Some(i) = layout.node_index(node) {
            if let Some(cp) = layout.node_index(ctrl_p) {
                y.add(i, cp, Complex::real(sign * gm));
            }
            if let Some(cn) = layout.node_index(ctrl_n) {
                y.add(i, cn, Complex::real(-sign * gm));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;
    use ssn_devices::{AlphaPower, MosModel, MosPolarity};
    use std::sync::Arc;

    #[test]
    fn rc_lowpass_corner() {
        let (r, c) = (1e3, 1e-9);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let mut circuit = Circuit::new();
        circuit
            .vsource("vin", "in", "0", SourceWave::Dc(0.0))
            .unwrap();
        circuit.resistor("r1", "in", "out", r).unwrap();
        circuit.capacitor("c1", "out", "0", c).unwrap();

        let mut opts = AcOptions::log_sweep("vin", fc / 100.0, fc * 100.0, 20);
        // Include the exact corner frequency.
        opts.frequencies.push(fc);
        opts.frequencies
            .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let res = ac_analysis(&circuit, &opts).unwrap();
        let mag = res.magnitude("out").unwrap();
        let idx = res
            .frequencies()
            .iter()
            .position(|&f| (f - fc).abs() < 1e-6)
            .unwrap();
        let at_corner = res.phasor("out", idx).unwrap();
        assert!((at_corner.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
        assert!((at_corner.arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-9);
        // -20 dB/decade far above the corner.
        let hi = mag.sample(fc * 100.0);
        let hi10 = mag.sample(fc * 10.0);
        assert!((hi10 / hi - 10.0).abs() < 0.5, "rolloff {hi10}/{hi}");
        // DC passthrough.
        assert!((mag.sample(fc / 100.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rlc_parallel_resonance_peak() {
        // Current-driven L || C || R tank: impedance peaks at f0.
        let (l, c, r) = (5e-9f64, 1e-12f64, 5e3f64);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        let mut circuit = Circuit::new();
        circuit
            .isource("iin", "0", "tank", SourceWave::Dc(0.0))
            .unwrap();
        circuit.inductor("l1", "tank", "0", l).unwrap();
        circuit.capacitor("c1", "tank", "0", c).unwrap();
        circuit.resistor("r1", "tank", "0", r).unwrap();

        let opts = AcOptions::log_sweep("iin", f0 / 30.0, f0 * 30.0, 60);
        let res = ac_analysis(&circuit, &opts).unwrap();
        let mag = res.magnitude("tank").unwrap();
        let peak_f = mag.peak().time;
        assert!(
            (peak_f - f0).abs() / f0 < 0.05,
            "resonance at {peak_f:.3e}, expected {f0:.3e}"
        );
        // |Z| at resonance equals R (L and C cancel).
        assert!((mag.peak().value - r).abs() / r < 0.02);
    }

    #[test]
    fn common_source_gain_matches_gm_rl() {
        let model = Arc::new(AlphaPower::builder().build());
        let rl = 500.0;
        let mut circuit = Circuit::new();
        circuit
            .vsource("vdd", "vdd", "0", SourceWave::Dc(1.8))
            .unwrap();
        circuit
            .vsource("vin", "g", "0", SourceWave::Dc(0.9))
            .unwrap();
        circuit.resistor("rl", "vdd", "out", rl).unwrap();
        circuit
            .mosfet("m1", MosPolarity::Nmos, "out", "g", "0", "0", model.clone())
            .unwrap();

        // Expected small-signal gain ~ gm * (RL || ro).
        let op = dc_operating_point(&circuit, DcOptions::default()).unwrap();
        let vout = op.voltage("out").unwrap();
        let e = model.ids(0.9, vout, 0.0);
        let ro = 1.0 / e.gds.max(1e-12);
        let expected = e.gm * (rl * ro) / (rl + ro);

        let opts = AcOptions::log_sweep("vin", 1e3, 1e6, 5);
        let res = ac_analysis(&circuit, &opts).unwrap();
        let gain = res.phasor("out", 0).unwrap();
        assert!(
            (gain.abs() - expected).abs() / expected < 0.01,
            "gain {} vs gm*RL {expected}",
            gain.abs()
        );
        // Inverting stage: ~180 degrees.
        assert!((gain.arg().abs() - std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn validates_inputs() {
        let mut circuit = Circuit::new();
        circuit
            .vsource("v1", "a", "0", SourceWave::Dc(0.0))
            .unwrap();
        circuit.resistor("r1", "a", "0", 1e3).unwrap();
        let bad_name = AcOptions {
            frequencies: vec![1e3],
            stimulus: "nope".into(),
            magnitude: 1.0,
            dc: DcOptions::default(),
        };
        assert!(ac_analysis(&circuit, &bad_name).is_err());
        let empty = AcOptions {
            frequencies: vec![],
            stimulus: "v1".into(),
            magnitude: 1.0,
            dc: DcOptions::default(),
        };
        assert!(ac_analysis(&circuit, &empty).is_err());
        let not_source = AcOptions {
            frequencies: vec![1e3],
            stimulus: "r1".into(),
            magnitude: 1.0,
            dc: DcOptions::default(),
        };
        assert!(ac_analysis(&circuit, &not_source).is_err());
        let negative = AcOptions {
            frequencies: vec![-1.0, 1e3],
            stimulus: "v1".into(),
            magnitude: 1.0,
            dc: DcOptions::default(),
        };
        assert!(ac_analysis(&circuit, &negative).is_err());
    }

    #[test]
    #[should_panic(expected = "f_lo < f_hi")]
    fn log_sweep_validates_bounds() {
        let _ = AcOptions::log_sweep("v1", 1e6, 1e3, 10);
    }
}
