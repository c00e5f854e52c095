//! Property-based tests on the suite's core invariants, driven by the
//! in-repo deterministic harness (`ssn_numeric::check`): every case derives
//! from a fixed seed and a failure prints its replay seed.

use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::core::{lcmodel, lmodel, optimize};
use ssn_lab::devices::fit::{fit_asdm, IvSample};
use ssn_lab::devices::{Asdm, MosModel};
use ssn_lab::numeric::check::{forall, Gen};
use ssn_lab::numeric::lu::{solve, LuFactor};
use ssn_lab::numeric::matrix::DenseMatrix;
use ssn_lab::units::{Farads, Henrys, Seconds, Siemens, Volts};

/// A physically sensible ASDM.
fn gen_asdm(g: &mut Gen) -> Asdm {
    let k = g.f64_in(1e-3, 20e-3);
    let sigma = g.f64_in(1.0, 1.6);
    let v0 = g.f64_in(0.3, 0.9);
    Asdm::new(Siemens::new(k), sigma, Volts::new(v0))
}

/// A full scenario across all damping regimes (`C` may be 0 = L-only).
fn gen_scenario(g: &mut Gen) -> SsnScenario {
    let asdm = gen_asdm(g);
    let n = g.usize_in(1, 23);
    let l = g.f64_in(1e-9, 10e-9);
    let c = g.f64_in(0.0, 4e-12);
    let tr = g.f64_in(0.2e-9, 2e-9);
    SsnScenario::from_asdm(asdm, Volts::new(1.8))
        .drivers(n)
        .inductance(Henrys::new(l))
        .capacitance(Farads::new(c))
        .rise_time(Seconds::new(tr))
        .build()
        .expect("generator yields valid scenarios")
}

/// Paper Table 1: the closed-form maximum always equals the maximum of
/// its own densely sampled waveform.
#[test]
fn vn_max_equals_waveform_maximum() {
    forall("vn_max equals waveform maximum", 128, |g| {
        let s = gen_scenario(g);
        let (vmax, _) = lcmodel::vn_max(&s);
        let wave = lcmodel::vn_waveform(&s, 4096).expect("waveform");
        let peak = wave.peak().value;
        let scale = vmax.value().max(1e-6);
        if (vmax.value() - peak).abs() / scale < 2e-3 {
            Ok(())
        } else {
            Err(format!("formula {} vs waveform {peak}", vmax.value()))
        }
    });
}

/// The SSN voltage never exceeds twice the asymptote `V_inf` (the
/// zero-damping ring bound) and is never negative during the ramp.
#[test]
fn vn_bounded_by_ring_limit() {
    forall("vn bounded by ring limit", 256, |g| {
        let s = gen_scenario(g);
        let (vmax, _) = lcmodel::vn_max(&s);
        if vmax.value() < 0.0 {
            return Err(format!("negative vmax {}", vmax.value()));
        }
        if vmax.value() <= 2.0 * s.v_inf().value() + 1e-12 {
            Ok(())
        } else {
            Err(format!(
                "vmax {} vs 2 V_inf {}",
                vmax.value(),
                2.0 * s.v_inf().value()
            ))
        }
    });
}

/// Robustness contract: for every scenario the validated construction path
/// accepts, `vn_max` is finite and physically sensible — non-negative and
/// below the supply (a ground bounce cannot exceed the rail driving it).
/// Both models, all damping regimes.
#[test]
fn vn_max_finite_and_within_supply() {
    forall("vn_max finite and within [0, Vdd]", 256, |g| {
        let s = gen_scenario(g);
        let vdd = s.vdd().value();
        let (lc, case) = lcmodel::vn_max(&s);
        let l_only = lmodel::vn_max(&s);
        for (name, v) in [("LC", lc.value()), ("L-only", l_only.value())] {
            if !v.is_finite() {
                return Err(format!("{name} vn_max non-finite ({case:?})"));
            }
            if v < 0.0 {
                return Err(format!("{name} vn_max negative: {v} ({case:?})"));
            }
            if v > vdd {
                return Err(format!("{name} vn_max {v} exceeds Vdd {vdd} ({case:?})"));
            }
        }
        Ok(())
    });
}

/// The maximum SSN is continuous across the damping-case boundary: shrinking
/// or growing `C` through the critical capacitance must not jump the
/// prediction (Table 1's cases meet at the boundary).
#[test]
fn vn_max_continuous_across_damping_boundary() {
    use ssn_lab::core::lcmodel::critical_capacitance;

    forall("vn_max continuous across damping boundary", 128, |g| {
        let s = gen_scenario(g);
        let c_crit = critical_capacitance(&s).value();
        if !(c_crit > 1e-18) || !c_crit.is_finite() {
            return Ok(()); // degenerate boundary for this draw
        }
        let eps = 1e-6;
        let below = s
            .with_package(s.inductance(), Farads::new(c_crit * (1.0 - eps)))
            .expect("valid");
        let above = s
            .with_package(s.inductance(), Farads::new(c_crit * (1.0 + eps)))
            .expect("valid");
        let (v_under, _) = lcmodel::vn_max(&below);
        let (v_over, _) = lcmodel::vn_max(&above);
        let scale = v_under.value().abs().max(1e-9);
        let jump = (v_under.value() - v_over.value()).abs() / scale;
        if jump < 1e-3 {
            Ok(())
        } else {
            Err(format!(
                "vn jumps {:.3e} -> {:.3e} ({jump:.2e} rel) across C_crit = {c_crit:.3e}",
                v_under.value(),
                v_over.value()
            ))
        }
    });
}

/// Monotonicity in the driver count (LC model): more simultaneous drivers
/// never reduce the maximum noise.
#[test]
fn vn_max_monotone_in_n() {
    forall("LC vn_max monotone in N", 256, |g| {
        let s = gen_scenario(g);
        let extra = g.usize_in(1, 7);
        let (v1, _) = lcmodel::vn_max(&s);
        let bigger = s.with_drivers(s.n_drivers() + extra).expect("valid");
        let (v2, _) = lcmodel::vn_max(&bigger);
        if v2.value() >= v1.value() - 1e-12 {
            Ok(())
        } else {
            Err(format!(
                "N {} -> {}: vn {} -> {}",
                s.n_drivers(),
                s.n_drivers() + extra,
                v1.value(),
                v2.value()
            ))
        }
    });
}

/// Monotonicity in the driver count holds for the L-only model too.
#[test]
fn l_only_vn_max_monotone_in_n() {
    forall("L-only vn_max monotone in N", 256, |g| {
        let s = gen_scenario(g);
        let extra = g.usize_in(1, 7);
        let v1 = lmodel::vn_max(&s);
        let bigger = s.with_drivers(s.n_drivers() + extra).expect("valid");
        let v2 = lmodel::vn_max(&bigger);
        if v2.value() >= v1.value() - 1e-12 {
            Ok(())
        } else {
            Err(format!("vn {} -> {}", v1.value(), v2.value()))
        }
    });
}

/// Monotonicity in the ground-path inductance, for both models: a worse
/// package never reduces the maximum noise.
#[test]
fn vn_max_monotone_in_l() {
    forall("vn_max monotone in L (both models)", 256, |g| {
        let s = gen_scenario(g);
        let factor = g.f64_in(1.0, 4.0);
        let worse = s
            .with_package(s.inductance() * factor, s.capacitance())
            .expect("valid");
        let (lc1, lc2) = (lcmodel::vn_max(&s).0, lcmodel::vn_max(&worse).0);
        if lc2.value() < lc1.value() - 1e-12 {
            return Err(format!(
                "LC: L x{factor:.3} dropped vn {} -> {}",
                lc1.value(),
                lc2.value()
            ));
        }
        let (l1, l2) = (lmodel::vn_max(&s), lmodel::vn_max(&worse));
        if l2.value() < l1.value() - 1e-12 {
            return Err(format!(
                "L-only: L x{factor:.3} dropped vn {} -> {}",
                l1.value(),
                l2.value()
            ));
        }
        Ok(())
    });
}

/// The L-only model is the `C -> 0` limit of the LC model.
#[test]
fn lc_model_limits_to_l_only() {
    forall("LC limits to L-only as C -> 0", 256, |g| {
        let s = gen_scenario(g);
        let tiny = s
            .with_package(s.inductance(), Farads::new(1e-18))
            .expect("valid");
        let l_only = lmodel::vn_max(&s).value();
        let lc = lcmodel::vn_max(&tiny).0.value();
        if (l_only - lc).abs() / l_only.max(1e-9) < 1e-3 {
            Ok(())
        } else {
            Err(format!("L-only {l_only} vs LC(C=1e-18) {lc}"))
        }
    });
}

/// Metamorphic (oracle harness): both closed forms see `N` and `K` only
/// through the aggregate transconductance `N K`, so trading driver count
/// against per-driver strength at fixed `N K` leaves `Vn_max` invariant.
#[test]
fn n_k_tradeoff_leaves_vn_max_invariant() {
    forall("N·K tradeoff leaves vn_max invariant", 256, |g| {
        let asdm = gen_asdm(g);
        let n = g.usize_in(1, 16);
        let m = g.usize_in(2, 4);
        let split = Asdm::new(
            Siemens::new(asdm.k().value() / m as f64),
            asdm.sigma(),
            asdm.v0(),
        );
        let l = g.f64_in(1e-9, 10e-9);
        let c = g.f64_in(0.0, 4e-12);
        let tr = g.f64_in(0.2e-9, 2e-9);
        let build = |a: Asdm, drivers: usize| {
            SsnScenario::from_asdm(a, Volts::new(1.8))
                .drivers(drivers)
                .inductance(Henrys::new(l))
                .capacitance(Farads::new(c))
                .rise_time(Seconds::new(tr))
                .build()
                .expect("valid scenario")
        };
        let few_strong = build(asdm, n);
        let many_weak = build(split, n * m);
        let (lc1, lc2) = (
            lcmodel::vn_max(&few_strong).0.value(),
            lcmodel::vn_max(&many_weak).0.value(),
        );
        if (lc1 - lc2).abs() / lc1.max(1e-12) > 1e-9 {
            return Err(format!("LC: {n}x{} vs {}x split: {lc1} vs {lc2}", m, n * m));
        }
        let (l1, l2) = (
            lmodel::vn_max(&few_strong).value(),
            lmodel::vn_max(&many_weak).value(),
        );
        if (l1 - l2).abs() / l1.max(1e-12) > 1e-9 {
            return Err(format!("L-only: {l1} vs {l2}"));
        }
        Ok(())
    });
}

/// Metamorphic (oracle harness): the L-only `Vn_max` is monotone
/// nondecreasing in the slew rate `s = V_dd / t_r` — a faster ramp never
/// reduces `V_inf (1 - e^{-t'/tau})` at the window end.
#[test]
fn l_only_vn_max_monotone_in_slew() {
    forall("L-only vn_max monotone in slew", 256, |g| {
        let s = gen_scenario(g);
        let factor = g.f64_in(1.2, 5.0);
        let faster = SsnScenario::from_asdm(*s.asdm(), s.vdd())
            .drivers(s.n_drivers())
            .inductance(s.inductance())
            .capacitance(s.capacitance())
            .rise_time(Seconds::new(s.rise_time().value() / factor))
            .build()
            .expect("valid scenario");
        let (v1, v2) = (lmodel::vn_max(&s).value(), lmodel::vn_max(&faster).value());
        if v2 >= v1 - 1e-12 {
            Ok(())
        } else {
            Err(format!("slew x{factor:.3} dropped L-only vn {v1} -> {v2}"))
        }
    });
}

/// The LC `Vn_max` is deliberately *not* asserted monotone in slew: this
/// pins an explicit counterexample. When the conduction window shrinks far
/// below the tank period, the LC network integrates the injected current
/// (`Vn_max -> N K (V_dd - V_0)^2 t_r / (2 V_dd C)`, growing with `t_r`),
/// so an ultrafast ramp produces a *smaller* peak — the LC filter
/// attenuates what the inductor alone would amplify. The L-only model has
/// no such regime, which is why only it carries the monotone-in-slew
/// property above.
#[test]
fn lc_vn_max_non_monotone_in_slew_counterexample() {
    let asdm = Asdm::new(Siemens::new(1e-3), 1.0, Volts::new(0.9));
    let build = |tr: f64| {
        SsnScenario::from_asdm(asdm, Volts::new(1.8))
            .drivers(1)
            .inductance(Henrys::new(10e-9))
            .capacitance(Farads::new(4e-12))
            .rise_time(Seconds::new(tr))
            .build()
            .expect("valid scenario")
    };
    let slow = build(0.2e-9);
    let fast = build(0.05e-9);
    let (v_slow, v_fast) = (
        lcmodel::vn_max(&slow).0.value(),
        lcmodel::vn_max(&fast).0.value(),
    );
    assert!(
        v_fast < v_slow,
        "expected the 4x faster ramp to LOWER the LC peak: {v_fast} vs {v_slow}"
    );
    // The same pair is monotone under the L-only model.
    let (l_slow, l_fast) = (lmodel::vn_max(&slow).value(), lmodel::vn_max(&fast).value());
    assert!(l_fast >= l_slow, "L-only: {l_fast} vs {l_slow}");
}

/// Metamorphic (oracle harness): as `C -> 0` the LC model converges to
/// the L-only model as a *waveform*, not just at the peak — the RMS gap
/// over the whole conduction window vanishes.
#[test]
fn lc_waveform_converges_to_l_only_as_c_vanishes() {
    forall("LC waveform -> L-only waveform as C -> 0", 64, |g| {
        let s = gen_scenario(g);
        let c_tiny = lcmodel::critical_capacitance(&s).value() * 1e-8;
        let nearly_l = s
            .with_package(s.inductance(), Farads::new(c_tiny))
            .expect("valid");
        let scale = lmodel::vn_max(&nearly_l).value().max(1e-12);
        let tr = nearly_l.rise_time().value();
        let n = 512;
        let mut sum_sq = 0.0;
        for i in 0..=n {
            let t = Seconds::new(tr * i as f64 / n as f64);
            let d = lcmodel::vn_at(&nearly_l, t).value() - lmodel::vn_at(&nearly_l, t).value();
            sum_sq += d * d;
        }
        let rms = (sum_sq / (n + 1) as f64).sqrt() / scale;
        if rms < 1e-3 {
            Ok(())
        } else {
            Err(format!("waveform RMS gap {rms} at C = {c_tiny}"))
        }
    });
}

/// Z-figure invariance (paper Eqn. 10): trading N for L leaves the
/// L-only maximum unchanged.
#[test]
fn z_figure_invariance() {
    forall("Z-figure invariance", 256, |g| {
        let s = gen_scenario(g);
        let factor = g.usize_in(2, 4);
        let a = lmodel::vn_max(&s.with_drivers(s.n_drivers() * factor).expect("valid"));
        let b = lmodel::vn_max(
            &s.with_package(s.inductance() * factor as f64, s.capacitance())
                .expect("valid"),
        );
        if (a.value() - b.value()).abs() < 1e-9 {
            Ok(())
        } else {
            Err(format!("N-scaled {} vs L-scaled {}", a.value(), b.value()))
        }
    });
}

/// ASDM fitting round-trips exact synthetic data for arbitrary parameters.
#[test]
fn asdm_fit_roundtrip() {
    forall("ASDM fit round-trip", 256, |g| {
        let truth = gen_asdm(g);
        let mut samples = Vec::new();
        for vs_step in 0..4 {
            let vs = 0.15 * f64::from(vs_step);
            for vg_step in 0..12 {
                let vg = 0.9 + 0.9 * f64::from(vg_step) / 11.0;
                let id = truth.drain_current(Volts::new(vg), Volts::new(vs)).value();
                samples.push(IvSample { vg, vs, id });
            }
        }
        // (A fit may legitimately fail when v0/sigma push all samples into
        // cutoff; that is not a round-trip violation.)
        if let Ok(fit) = fit_asdm(&samples) {
            let k_err = (fit.k().value() - truth.k().value()).abs() / truth.k().value();
            if k_err >= 1e-6 {
                return Err(format!("K error {k_err}"));
            }
            if (fit.sigma() - truth.sigma()).abs() >= 1e-4 {
                return Err(format!("sigma {} vs {}", fit.sigma(), truth.sigma()));
            }
            if (fit.v0().value() - truth.v0().value()).abs() >= 1e-4 {
                return Err(format!("V0 {} vs {}", fit.v0().value(), truth.v0().value()));
            }
        }
        Ok(())
    });
}

/// The ASDM's two evaluation forms (node voltages vs source-referenced
/// MosModel) agree everywhere in the SSN region.
#[test]
fn asdm_forms_agree() {
    forall("ASDM evaluation forms agree", 256, |g| {
        let asdm = gen_asdm(g);
        let vg = g.f64_in(0.0, 1.8);
        let vs = g.f64_in(0.0, 0.8);
        let node = asdm.drain_current(Volts::new(vg), Volts::new(vs)).value();
        let referenced = asdm.ids(vg - vs, 1.8 - vs, -vs).id;
        if (node - referenced).abs() < 1e-12 {
            Ok(())
        } else {
            Err(format!("node form {node} vs referenced form {referenced}"))
        }
    });
}

/// LU with partial pivoting solves random diagonally dominant systems
/// to tight residual.
#[test]
fn lu_solves_diagonally_dominant() {
    forall("LU solves diagonally dominant", 256, |g| {
        let mut a = DenseMatrix::zeros(6, 6);
        for i in 0..6 {
            let mut sum = 0.0;
            for j in 0..6 {
                if i != j {
                    a[(i, j)] = g.f64_in(-1.0, 1.0);
                    sum += a[(i, j)].abs();
                }
            }
            a[(i, i)] = sum + 1.0;
        }
        let rhs = g.vec_f64(6, -10.0, 10.0);
        let x = solve(&a, &rhs).expect("diagonally dominant is nonsingular");
        let r = a.matvec(&x).expect("shape ok");
        for (ri, bi) in r.iter().zip(&rhs) {
            if (ri - bi).abs() >= 1e-9 {
                return Err(format!("residual {}", (ri - bi).abs()));
            }
        }
        // Determinant of a strictly diagonally dominant matrix is nonzero.
        let lu = LuFactor::new(&a).expect("nonsingular");
        if lu.determinant().abs() > 0.0 {
            Ok(())
        } else {
            Err("zero determinant".to_owned())
        }
    });
}

/// Random RLC ladder circuits survive the deck write/parse round trip
/// with identical DC solutions.
#[test]
fn deck_roundtrip_preserves_dc_solution() {
    use ssn_lab::spice::parser::parse_deck;
    use ssn_lab::spice::writer::write_deck;
    use ssn_lab::spice::{dc_operating_point, Circuit, DcOptions, SourceWave};

    forall("deck round-trip preserves DC", 64, |g| {
        let n_rungs = g.usize_in(1, 5);
        let vin = g.f64_in(0.1, 10.0);
        let mut c = Circuit::new();
        c.vsource("V1", "n0", "0", SourceWave::Dc(vin))
            .expect("valid");
        let mut rungs = Vec::new();
        for i in 0..n_rungs {
            let (r, cap, l) = (
                g.f64_in(1.0, 100e3),
                g.f64_in(1e-15, 1e-9),
                g.f64_in(1e-12, 1e-6),
            );
            rungs.push((r, cap, l));
            let a = format!("n{i}");
            let b = format!("n{}", i + 1);
            c.resistor(&format!("R{i}"), &a, &b, r).expect("valid");
            c.capacitor(&format!("C{i}"), &b, "0", cap).expect("valid");
            c.inductor(&format!("L{i}"), &b, &format!("t{i}"), l)
                .expect("valid");
            c.resistor(&format!("RT{i}"), &format!("t{i}"), "0", r * 2.0)
                .expect("valid");
        }
        let text = write_deck(&c, "ladder", None).expect("writes");
        let deck = parse_deck(&text).expect("parses its own output");
        if deck.circuit.element_count() != c.element_count() {
            return Err(format!(
                "element count {} vs {}",
                deck.circuit.element_count(),
                c.element_count()
            ));
        }
        let a = dc_operating_point(&c, DcOptions::default()).expect("solves");
        let b = dc_operating_point(&deck.circuit, DcOptions::default()).expect("solves");
        for i in 0..=n_rungs {
            let node = format!("n{i}");
            let va = a.voltage(&node).expect("probe");
            let vb = b.voltage(&node).expect("probe");
            if (va - vb).abs() >= 1e-9 * va.abs().max(1.0) {
                return Err(format!("{node}: {va} vs {vb}"));
            }
        }
        Ok(())
    });
}

/// Passivity: a step-driven random RC ladder never leaves the source
/// range `[0, V]` (no energy creation in the simulator).
#[test]
fn rc_ladder_transient_is_passive() {
    use ssn_lab::spice::{transient, Circuit, SourceWave, TranOptions};

    forall("RC ladder transient is passive", 64, |g| {
        let n_rungs = g.usize_in(1, 4);
        let vstep = g.f64_in(0.5, 5.0);
        let mut c = Circuit::new();
        c.vsource("V1", "n0", "0", SourceWave::Dc(vstep))
            .expect("valid");
        let mut rungs = Vec::new();
        for i in 0..n_rungs {
            let (r, cap) = (g.f64_in(100.0, 10e3), g.f64_in(1e-13, 1e-11));
            rungs.push((r, cap));
            c.resistor(
                &format!("R{i}"),
                &format!("n{i}"),
                &format!("n{}", i + 1),
                r,
            )
            .expect("valid");
            c.capacitor_with_ic(&format!("C{i}"), &format!("n{}", i + 1), "0", cap, 0.0)
                .expect("valid");
        }
        // Simulate well past the ladder's Elmore delay (each cap charges
        // through the cumulative upstream resistance).
        let mut r_cum = 0.0;
        let mut tau = 0.0;
        for &(r, cap) in &rungs {
            r_cum += r;
            tau += r_cum * cap;
        }
        let res = transient(&c, TranOptions::to(12.0 * tau).with_ic()).expect("simulates");
        for i in 1..=n_rungs {
            let w = res.voltage(&format!("n{i}")).expect("probe");
            // Tolerance relative to scale: the trapezoidal corrector may
            // wobble by a few LTE units around the rails.
            let tol = vstep * 1e-4 + 1e-9;
            for &v in w.values() {
                if v < -tol {
                    return Err(format!("undershoot {v} at node n{i}"));
                }
                if v > vstep + tol {
                    return Err(format!("overshoot {v} at node n{i}"));
                }
            }
            // The last sample approaches the source (all caps charged).
            let final_v = w.values().last().copied().expect("non-empty");
            if final_v <= 0.5 * vstep {
                return Err(format!("n{i} stuck at {final_v}"));
            }
        }
        Ok(())
    });
}

/// The determinism contract of the chunked engine — and of checkpoint
/// resume, which replays chunk indices against a stored seed — rests on
/// `Rng::from_seed_and_stream`: stream `k` of seed `s` must be a pure
/// function of `(s, k)`, and distinct streams must be distinct sequences.
#[test]
fn rng_stream_splitting_is_reproducible_and_non_overlapping() {
    use ssn_lab::numeric::rng::Rng;

    forall("RNG stream splitting", 256, |g| {
        let rand_u64 = |g: &mut Gen| {
            (g.usize_in(0, u32::MAX as usize) as u64) << 32
                | g.usize_in(0, u32::MAX as usize) as u64
        };
        let seed = rand_u64(g);
        let a = rand_u64(g);
        let mut b = rand_u64(g);
        if b == a {
            b = b.wrapping_add(1);
        }

        // Re-deriving the same (seed, stream) reproduces the sequence
        // exactly — a resumed chunk sees the bits an uninterrupted run saw.
        let mut first = Rng::from_seed_and_stream(seed, a);
        let mut again = Rng::from_seed_and_stream(seed, a);
        for i in 0..64 {
            let (x, y) = (first.next_u64(), again.next_u64());
            if x != y {
                return Err(format!("stream {a} diverged from itself at draw {i}"));
            }
        }

        // Distinct streams of one seed, and the same stream of distinct
        // seeds, give different sequences (64 identical draws from
        // independent 256-bit states is a ~2^-4096 event, i.e. a bug).
        let draws = |mut r: Rng| -> Vec<u64> { (0..64).map(|_| r.next_u64()).collect() };
        let base = draws(Rng::from_seed_and_stream(seed, a));
        if base == draws(Rng::from_seed_and_stream(seed, b)) {
            return Err(format!("streams {a} and {b} of seed {seed} coincide"));
        }
        if base == draws(Rng::from_seed_and_stream(seed ^ 1, a)) {
            return Err(format!("stream {a} ignores the seed"));
        }

        // No lag overlap either: stream b must not be a shifted window of
        // stream a (chunks would then sample correlated variations).
        let long: Vec<u64> = {
            let mut r = Rng::from_seed_and_stream(seed, a);
            (0..192).map(|_| r.next_u64()).collect()
        };
        let needle = &draws(Rng::from_seed_and_stream(seed, b))[..8];
        if long.windows(needle.len()).any(|w| w == needle) {
            return Err(format!("stream {b} is a lagged copy of stream {a}"));
        }
        Ok(())
    });
}

/// Unit quantities survive a display/parse round trip within the
/// printed precision.
#[test]
fn units_display_parse_roundtrip() {
    forall("units display/parse round-trip", 256, |g| {
        let v = g.f64_in(-1e12, 1e12);
        let q = Volts::new(v);
        let text = q.to_string();
        let back: Volts = text.parse().expect("printed form parses");
        let tol = v.abs().max(1e-12) * 1e-3;
        if (back.value() - v).abs() <= tol {
            Ok(())
        } else {
            Err(format!("{v} -> {text} -> {}", back.value()))
        }
    });
}

/// Batched perturbation kernel, part 1: every perturbed parameter respects
/// its `VariationSpec` clamp — `K >= 1e-6`, `sigma >= 1`,
/// `V_0 in [1e-3, 0.95 Vdd]`, `L >= 1e-12`, `C >= 0` — even under sigmas
/// large enough that raw draws land far outside the model domain.
#[test]
fn perturbed_batch_respects_variation_clamps() {
    use ssn_lab::core::montecarlo::{perturb_batch, VariationSpec};
    use ssn_lab::numeric::rng::Rng;

    forall("perturbed batch respects clamps", 128, |g| {
        let s = gen_scenario(g);
        // Deliberately huge sigmas so the clamps actually bind.
        let spec = VariationSpec {
            k_frac: g.f64_in(0.0, 3.0),
            sigma_abs: g.f64_in(0.0, 2.0),
            v0_abs: g.f64_in(0.0, 2.0),
            l_frac: g.f64_in(0.0, 3.0),
            c_frac: g.f64_in(0.0, 3.0),
        };
        let seed = g.usize_in(0, 1 << 30) as u64;
        let mut rng = Rng::from_seed_and_stream(seed, 0);
        let n = g.usize_in(1, 96);
        let batch = perturb_batch(&s, &spec, &mut rng, n);
        let vdd = s.vdd().value();
        for i in 0..batch.len() {
            if batch.k()[i] < 1e-6 {
                return Err(format!("k[{i}] = {} below clamp", batch.k()[i]));
            }
            if batch.sigma()[i] < 1.0 {
                return Err(format!("sigma[{i}] = {} below clamp", batch.sigma()[i]));
            }
            let v0 = batch.v0()[i];
            if !(1e-3..=vdd * 0.95).contains(&v0) {
                return Err(format!("v0[{i}] = {v0} outside [1e-3, {}]", vdd * 0.95));
            }
            if batch.l()[i] < 1e-12 {
                return Err(format!("l[{i}] = {} below clamp", batch.l()[i]));
            }
            if batch.c()[i] < 0.0 {
                return Err(format!("c[{i}] = {} negative", batch.c()[i]));
            }
        }
        Ok(())
    });
}

/// Batched perturbation kernel, part 2: `perturb_batch` is draw-for-draw
/// the scalar `perturb_one` sequence — same stream, same order, same bits.
/// This is the property that makes the SoA path's RNG consumption
/// compatible with existing seeds and checkpoints by construction.
#[test]
fn perturb_batch_is_bitwise_the_perturb_one_sequence() {
    use ssn_lab::core::montecarlo::{perturb_batch, perturb_one, VariationSpec};
    use ssn_lab::numeric::rng::Rng;

    forall("perturb_batch == perturb_one sequence", 128, |g| {
        let s = gen_scenario(g);
        let spec = VariationSpec {
            k_frac: g.f64_in(0.0, 0.5),
            sigma_abs: g.f64_in(0.0, 0.2),
            v0_abs: g.f64_in(0.0, 0.1),
            l_frac: g.f64_in(0.0, 0.5),
            c_frac: g.f64_in(0.0, 0.5),
        };
        let seed = g.usize_in(0, 1 << 30) as u64;
        let stream = g.usize_in(0, 1 << 10) as u64;
        let n = g.usize_in(1, 96);
        let mut batch_rng = Rng::from_seed_and_stream(seed, stream);
        let batch = perturb_batch(&s, &spec, &mut batch_rng, n);
        let mut one_rng = Rng::from_seed_and_stream(seed, stream);
        for i in 0..n {
            let p = perturb_one(&s, &spec, &mut one_rng);
            let cols = [
                ("k", batch.k()[i], p.k),
                ("sigma", batch.sigma()[i], p.sigma),
                ("v0", batch.v0()[i], p.v0),
                ("l", batch.l()[i], p.l),
                ("c", batch.c()[i], p.c),
            ];
            for (name, b, s) in cols {
                if b.to_bits() != s.to_bits() {
                    return Err(format!("{name}[{i}]: batch {b:?} vs scalar {s:?}"));
                }
            }
        }
        // Both consumers must leave the stream at the same position.
        if batch_rng.next_u64() != one_rng.next_u64() {
            return Err("stream positions diverged after the batch".into());
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Optimizer properties: front structure, determinism, metamorphic cap laws
// ---------------------------------------------------------------------------

/// A small random design space for the optimizer properties (sorted,
/// deduplicated axes — the type-level invariant).
fn gen_opt_space(g: &mut Gen) -> optimize::DesignSpace {
    let mut axis_f64 = |max_len: usize, lo: f64, hi: f64| -> Vec<f64> {
        let len = g.usize_in(1, max_len);
        let mut vals: Vec<f64> = (0..len).map(|_| g.f64_in(lo, hi)).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        vals
    };
    let inductances = axis_f64(3, 1e-9, 10e-9)
        .into_iter()
        .map(Henrys::new)
        .collect();
    let capacitances = axis_f64(2, 0.05e-12, 4e-12)
        .into_iter()
        .map(Farads::new)
        .collect();
    let rise_times = axis_f64(2, 0.2e-9, 2e-9)
        .into_iter()
        .map(Seconds::new)
        .collect();
    let n_len = g.usize_in(1, 4);
    let mut drivers: Vec<usize> = (0..n_len).map(|_| g.usize_in(1, 24)).collect();
    drivers.sort_unstable();
    drivers.dedup();
    let space = optimize::DesignSpace {
        drivers,
        inductances,
        capacitances,
        rise_times,
    };
    space.validate().expect("generator yields valid spaces");
    space
}

/// A template for the optimizer (its own package values are overridden by
/// every grid point; only the ASDM and Vdd matter).
fn gen_opt_template(g: &mut Gen) -> SsnScenario {
    SsnScenario::from_asdm(gen_asdm(g), Volts::new(1.8))
        .build()
        .expect("valid template")
}

fn gen_opt_options(g: &mut Gen) -> optimize::OptimizeOptions {
    let objectives = match g.usize_in(0, 2) {
        0 => optimize::ObjectiveSet::NoiseCostSpeed,
        1 => optimize::ObjectiveSet::NoiseCost,
        _ => optimize::ObjectiveSet::NoiseSpeed,
    };
    let max_noise_frac = if g.usize_in(0, 1) == 1 {
        Some(g.f64_in(0.02, 0.3))
    } else {
        None
    };
    optimize::OptimizeOptions {
        objectives,
        max_noise_frac,
    }
}

/// Full structural equality of two search outcomes: bit-identical fronts
/// plus identical bookkeeping (evaluated / pruned / level counts).
fn same_outcome(a: &optimize::OptimizeOutcome, b: &optimize::OptimizeOutcome) -> bool {
    a.front.same_front(&b.front)
        && a.total_points == b.total_points
        && a.evaluated == b.evaluated
        && a.pruned_infeasible == b.pruned_infeasible
        && a.pruned_dominated == b.pruned_dominated
        && a.over_cap == b.over_cap
        && a.levels == b.levels
}

/// Front structure law: no member dominates another, and `seal` leaves the
/// members in the pinned canonical order (strictly — the tuple includes
/// the provenance indices, so there are no ties).
#[test]
fn optimizer_front_is_mutually_non_dominated_and_canonically_ordered() {
    use std::cmp::Ordering;
    forall("optimizer front structure", 64, |g| {
        let template = gen_opt_template(g);
        let space = gen_opt_space(g);
        let opts = gen_opt_options(g);
        let (out, _) = optimize::search(&template, &space, &opts, &ExecPolicy::serial())
            .map_err(|e| format!("search failed: {e}"))?;
        let members = out.front.members();
        for (i, a) in members.iter().enumerate() {
            for (j, b) in members.iter().enumerate() {
                if i != j && optimize::dominates(a, b, opts.objectives) {
                    return Err(format!(
                        "front member {i} dominates member {j} under {}",
                        opts.objectives.name()
                    ));
                }
            }
        }
        for (i, w) in members.windows(2).enumerate() {
            if optimize::canonical_order(&w[0], &w[1]) != Ordering::Less {
                return Err(format!("members {i} and {} out of canonical order", i + 1));
            }
        }
        Ok(())
    });
}

/// Determinism law: the whole outcome — front bits *and* the evaluated /
/// pruned bookkeeping — is invariant under the thread count.
#[test]
fn optimizer_outcome_is_thread_count_invariant() {
    forall("optimizer outcome vs thread count", 16, |g| {
        let template = gen_opt_template(g);
        let space = gen_opt_space(g);
        let opts = gen_opt_options(g);
        let (base, _) = optimize::search(&template, &space, &opts, &ExecPolicy::with_threads(1))
            .map_err(|e| format!("search failed: {e}"))?;
        for threads in [2usize, 4, 8] {
            let (out, _) =
                optimize::search(&template, &space, &opts, &ExecPolicy::with_threads(threads))
                    .map_err(|e| format!("search failed at {threads} threads: {e}"))?;
            if !same_outcome(&base, &out) {
                return Err(format!(
                    "outcome differs between 1 and {threads} threads \
                     (front {} vs {}, evaluated {} vs {})",
                    base.front.len(),
                    out.front.len(),
                    base.evaluated,
                    out.evaluated
                ));
            }
        }
        Ok(())
    });
}

/// Durability law: a search killed at a deterministic commit boundary and
/// resumed from its per-level journals reproduces the uninterrupted
/// outcome bit-for-bit.
#[test]
fn optimizer_kill_resume_is_bit_identical() {
    use ssn_lab::core::durable::{DurableOptions, RunBudget};
    use ssn_lab::core::faults::{FaultPlan, Faults};

    let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
    let template = SsnScenario::from_asdm(asdm, Volts::new(1.8))
        .build()
        .expect("valid template");
    // Big enough that some refinement level spans several 64-point chunks,
    // so the injected crash lands mid-level.
    let space = optimize::DesignSpace {
        drivers: (1..=24).collect(),
        inductances: (0..16)
            .map(|i| Henrys::new(1e-9 * (1.0 + 0.5 * i as f64)))
            .collect(),
        capacitances: vec![Farads::new(0.5e-12), Farads::new(2e-12)],
        rise_times: vec![Seconds::new(0.4e-9), Seconds::new(1.2e-9)],
    };
    let opts = optimize::OptimizeOptions {
        objectives: optimize::ObjectiveSet::NoiseCostSpeed,
        max_noise_frac: Some(0.2),
    };
    let policy = ExecPolicy::with_threads(4);
    let (golden, _) = optimize::search(&template, &space, &opts, &policy).expect("golden");

    let journal = std::env::temp_dir().join(format!(
        "ssn-properties-opt-resume-{}.ckpt",
        std::process::id()
    ));
    let durable = |resume: bool| DurableOptions {
        checkpoint: Some(journal.clone()),
        resume,
        budget: RunBudget::unlimited(),
    };
    let crashing = policy.clone().with_faults(Faults::arm(FaultPlan {
        crash_after_commits: Some(2),
        ..FaultPlan::default()
    }));
    let err = optimize::search_durable(&template, &space, &opts, &crashing, &durable(false))
        .expect_err("injected crash must interrupt the search");
    assert!(
        matches!(err, ssn_lab::core::SsnError::Interrupted { .. }),
        "expected Interrupted, got {err:?}"
    );

    let (resumed, _, durability) =
        optimize::search_durable(&template, &space, &opts, &policy, &durable(true))
            .expect("resumed search");
    assert!(
        durability.resumed_chunks > 0,
        "the resumed run must restore committed chunks from the journals"
    );
    assert!(
        same_outcome(&golden, &resumed),
        "kill -> resume must be bit-identical: front {} vs {}, evaluated {} vs {}",
        golden.front.len(),
        resumed.front.len(),
        golden.evaluated,
        resumed.evaluated
    );
    for path in optimize::journal_family(&journal) {
        let _ = std::fs::remove_file(path);
    }
}

/// Metamorphic cap law: tightening `max_noise_frac` only ever *removes*
/// front members, and never changes the noise-optimal point while one
/// remains feasible.
#[test]
fn tightening_the_noise_cap_is_monotone() {
    forall("noise cap tightening is monotone", 48, |g| {
        let template = gen_opt_template(g);
        let space = gen_opt_space(g);
        let objectives = match g.usize_in(0, 2) {
            0 => optimize::ObjectiveSet::NoiseCostSpeed,
            1 => optimize::ObjectiveSet::NoiseCost,
            _ => optimize::ObjectiveSet::NoiseSpeed,
        };
        let loose_frac = g.f64_in(0.1, 0.4);
        let tight_frac = loose_frac * g.f64_in(0.3, 0.9);
        let run = |frac: f64| {
            let opts = optimize::OptimizeOptions {
                objectives,
                max_noise_frac: Some(frac),
            };
            optimize::search(&template, &space, &opts, &ExecPolicy::serial()).map(|(out, _)| out)
        };
        let loose = run(loose_frac).map_err(|e| format!("loose search failed: {e}"))?;
        let tight = run(tight_frac).map_err(|e| format!("tight search failed: {e}"))?;
        for p in tight.front.members() {
            if !loose.front.members().iter().any(|q| q.same_point(p)) {
                return Err(format!(
                    "tightening the cap admitted a new front member at N = {}",
                    p.n_drivers
                ));
            }
        }
        match (tight.front.min_noise(), loose.front.min_noise()) {
            (Some(t), Some(l)) if t.value().to_bits() != l.value().to_bits() => Err(format!(
                "noise-optimal point moved under a tighter cap: {t} vs {l}"
            )),
            (Some(_), None) => Err("tight run feasible but loose run empty".into()),
            _ => Ok(()),
        }
    });
}

/// Batched perturbation kernel, part 3: the full batched Monte Carlo run
/// reproduces the scalar path's sample moments *exactly* — same stream,
/// same order, same pinned reduction, hence the same bits.
#[test]
fn batched_monte_carlo_moments_match_scalar_bitwise() {
    use ssn_lab::core::durable::DurableOptions;
    use ssn_lab::core::montecarlo::{run_monte_carlo_durable_with_path, McPath, VariationSpec};
    use ssn_lab::core::parallel::ExecPolicy;

    forall("batched MC moments == scalar MC moments", 16, |g| {
        let s = gen_scenario(g);
        let spec = VariationSpec::typical();
        let seed = g.usize_in(0, 1 << 20) as u64;
        let n = g.usize_in(1, 700);
        let run = |path| {
            run_monte_carlo_durable_with_path(
                &s,
                &spec,
                n,
                seed,
                &ExecPolicy::serial(),
                &DurableOptions::none(),
                path,
            )
            .map(|(mc, _, _)| mc)
        };
        let (scalar, batched) = match (run(McPath::Scalar), run(McPath::Batched)) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => return Err(format!("run failed: {a:?} / {b:?}")),
        };
        if scalar.mean().value().to_bits() != batched.mean().value().to_bits() {
            return Err(format!("mean {} vs {}", scalar.mean(), batched.mean()));
        }
        if scalar.std_dev().value().to_bits() != batched.std_dev().value().to_bits() {
            return Err(format!("sd {} vs {}", scalar.std_dev(), batched.std_dev()));
        }
        Ok(())
    });
}
