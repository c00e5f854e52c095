//! Writing a [`Circuit`] back out as a SPICE deck.
//!
//! The inverse of [`crate::parser`], used for interchange and round-trip
//! testing. MOSFET models must be expressible as `.model` cards
//! ([`MosModel::model_card_params`]); the built-in alpha-power and Level-1
//! models are, table models are not.

use crate::error::SpiceError;
use crate::netlist::{Circuit, ElementKind, NodeId};
use crate::parser::TranDirective;
use crate::source::SourceWave;
use ssn_devices::MosModel;
use std::fmt::Write as _;

fn v(x: f64) -> String {
    format!("{x:e}")
}

fn wave_text(wave: &SourceWave) -> String {
    match wave {
        SourceWave::Dc(x) => format!("DC {}", v(*x)),
        SourceWave::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => format!(
            "PULSE({} {} {} {} {} {} {})",
            v(*v0),
            v(*v1),
            v(*delay),
            v(*rise),
            v(*fall),
            v(*width),
            v(*period)
        ),
        SourceWave::Pwl(points) => {
            let body: Vec<String> = points
                .iter()
                .map(|(t, val)| format!("{} {}", v(*t), v(*val)))
                .collect();
            format!("PWL({})", body.join(" "))
        }
        SourceWave::Sine {
            offset,
            ampl,
            freq,
            delay,
        } => format!(
            "SIN({} {} {} {})",
            v(*offset),
            v(*ampl),
            v(*freq),
            v(*delay)
        ),
    }
}

/// Serializes `circuit` as a SPICE deck.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidValue`] when the circuit contains a MOSFET
/// whose model cannot be expressed as a `.model` card.
pub fn write_deck(
    circuit: &Circuit,
    title: &str,
    tran: Option<TranDirective>,
) -> Result<String, SpiceError> {
    let mut out = String::new();
    let _ = writeln!(out, "{}", if title.is_empty() { "untitled" } else { title });

    let node = |id: NodeId| circuit.node_name(id).to_owned();
    // Collect unique model cards, keyed by their parameter text so
    // identical models share one card.
    let mut model_cards: Vec<(String, String, String)> = Vec::new(); // (params, polarity, name)
    let mut model_name_of = |params: &str, polarity: &str| -> String {
        if let Some((_, _, name)) = model_cards
            .iter()
            .find(|(p, pol, _)| p == params && pol == polarity)
        {
            return name.clone();
        }
        let name = format!("mod{}", model_cards.len());
        model_cards.push((params.to_owned(), polarity.to_owned(), name.clone()));
        name
    };

    let mut body = String::new();
    for el in circuit.elements() {
        match el.kind() {
            ElementKind::Resistor { a, b, ohms } => {
                let _ = writeln!(body, "{} {} {} {}", el.name(), node(*a), node(*b), v(*ohms));
            }
            ElementKind::Capacitor { a, b, farads, ic } => {
                let ic_text = ic.map(|x| format!(" IC={}", v(x))).unwrap_or_default();
                let _ = writeln!(
                    body,
                    "{} {} {} {}{}",
                    el.name(),
                    node(*a),
                    node(*b),
                    v(*farads),
                    ic_text
                );
            }
            ElementKind::Inductor { a, b, henrys, ic } => {
                let ic_text = ic.map(|x| format!(" IC={}", v(x))).unwrap_or_default();
                let _ = writeln!(
                    body,
                    "{} {} {} {}{}",
                    el.name(),
                    node(*a),
                    node(*b),
                    v(*henrys),
                    ic_text
                );
            }
            ElementKind::VSource { pos, neg, wave } | ElementKind::ISource { pos, neg, wave } => {
                let _ = writeln!(
                    body,
                    "{} {} {} {}",
                    el.name(),
                    node(*pos),
                    node(*neg),
                    wave_text(wave)
                );
            }
            ElementKind::Vccs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gm,
            } => {
                let _ = writeln!(
                    body,
                    "{} {} {} {} {} {}",
                    el.name(),
                    node(*out_p),
                    node(*out_n),
                    node(*ctrl_p),
                    node(*ctrl_n),
                    v(*gm)
                );
            }
            ElementKind::Diode { a, k, model } => {
                let params = format!(
                    "is={:e} n={:e}",
                    model.saturation_current(),
                    model.ideality()
                );
                let mname = model_name_of(&params, "D");
                let _ = writeln!(body, "{} {} {} {}", el.name(), node(*a), node(*k), mname);
            }
            ElementKind::Mosfet {
                polarity,
                d,
                g,
                s,
                b,
                model,
                m,
            } => {
                let params = model
                    .model_card_params()
                    .ok_or_else(|| SpiceError::InvalidValue {
                        context: format!(
                            "model {:?} of {:?} cannot be written as a .model card",
                            model.name(),
                            el.name()
                        ),
                    })?;
                let pol = polarity.to_string().to_ascii_uppercase();
                let mname = model_name_of(&params, &pol);
                let mult = if *m > 1 {
                    format!(" M={m}")
                } else {
                    String::new()
                };
                let _ = writeln!(
                    body,
                    "{} {} {} {} {} {}{mult}",
                    el.name(),
                    node(*d),
                    node(*g),
                    node(*s),
                    node(*b),
                    mname
                );
            }
        }
    }
    out.push_str(&body);
    for (params, polarity, name) in &model_cards {
        let _ = writeln!(out, ".model {name} {polarity} {params}");
    }
    // Node initial conditions, in a stable order.
    let mut ics: Vec<(String, f64)> = circuit
        .initial_voltages()
        .iter()
        .map(|(&id, &val)| (circuit.node_name(id).to_owned(), val))
        .collect();
    ics.sort_by(|a, b| a.0.cmp(&b.0));
    if !ics.is_empty() {
        let items: Vec<String> = ics
            .iter()
            .map(|(name, val)| format!("V({name})={}", v(*val)))
            .collect();
        let _ = writeln!(out, ".ic {}", items.join(" "));
    }
    if let Some(t) = tran {
        let uic = if t.uic { " UIC" } else { "" };
        let _ = writeln!(out, ".tran {} {}{}", v(t.tstep), v(t.tstop), uic);
    }
    out.push_str(".end\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_deck;
    use crate::tran::{transient, TranOptions};
    use ssn_devices::{AlphaPower, DrainCurrent, MosModel, MosPolarity};
    use std::sync::Arc;

    fn ssn_circuit() -> Circuit {
        let mut c = Circuit::new();
        c.vsource("Vin", "in", "0", SourceWave::ramp(0.0, 1.8, 50e-12, 0.5e-9))
            .expect("valid");
        c.inductor_with_ic("Lg", "ng", "0", 5e-9, 0.0)
            .expect("valid");
        c.capacitor_with_ic("Cg", "ng", "0", 1e-12, 0.0)
            .expect("valid");
        let m = Arc::new(AlphaPower::builder().build());
        for i in 0..3 {
            c.mosfet(
                &format!("M{i}"),
                MosPolarity::Nmos,
                &format!("out{i}"),
                "in",
                "ng",
                "0",
                m.clone(),
            )
            .expect("valid");
            c.capacitor_with_ic(&format!("Cl{i}"), &format!("out{i}"), "0", 5e-12, 1.8)
                .expect("valid");
            c.set_initial_voltage(&format!("out{i}"), 1.8)
                .expect("valid");
        }
        c.set_initial_voltage("ng", 0.0).expect("valid");
        c.set_initial_voltage("in", 0.0).expect("valid");
        c
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let c = ssn_circuit();
        let text = write_deck(&c, "ssn bank", None).unwrap();
        let deck = parse_deck(&text).unwrap();
        assert_eq!(deck.title, "ssn bank");
        assert_eq!(deck.circuit.element_count(), c.element_count());
        assert_eq!(deck.circuit.node_count(), c.node_count());
        // Shared models collapse into a single card.
        assert_eq!(text.matches(".model").count(), 1);
    }

    #[test]
    fn roundtrip_preserves_dynamics() {
        let c = ssn_circuit();
        let text = write_deck(
            &c,
            "ssn bank",
            Some(TranDirective {
                tstep: 1e-12,
                tstop: 1.2e-9,
                uic: true,
            }),
        )
        .unwrap();
        let deck = parse_deck(&text).unwrap();
        let opts = || TranOptions::to(1.2e-9).with_ic();
        let a = transient(&c, opts()).unwrap();
        let b = transient(&deck.circuit, opts()).unwrap();
        let va = a.voltage("ng").unwrap();
        let vb = b.voltage("ng").unwrap();
        let err = va.max_abs_error(&vb).unwrap();
        assert!(err < 2e-3, "roundtrip dynamics diverged by {err}");
        assert!(va.peak().value > 0.05);
    }

    #[test]
    fn instance_multiplier_roundtrips() {
        let mut c = Circuit::new();
        let model = Arc::new(AlphaPower::builder().build());
        c.mosfet_parallel(
            "M0",
            MosPolarity::Nmos,
            "out",
            "in",
            "ng",
            "0",
            model.clone(),
            4,
        )
        .expect("valid");
        c.mosfet("M1", MosPolarity::Nmos, "out", "in", "ng", "0", model)
            .expect("valid");
        let text = write_deck(&c, "folded bank", None).unwrap();
        assert_eq!(text.matches(" M=4").count(), 1, "{text}");
        assert_eq!(text.matches("M=").count(), 1, "M=1 is implicit: {text}");
        let deck = parse_deck(&text).unwrap();
        let mult = |name: &str| match deck.circuit.find_element(name).unwrap().kind() {
            ElementKind::Mosfet { m, .. } => *m,
            other => panic!("{name} parsed as {other:?}"),
        };
        assert_eq!((mult("M0"), mult("M1")), (4, 1));
    }

    #[test]
    fn all_source_shapes_roundtrip() {
        let mut c = Circuit::new();
        c.vsource("V1", "a", "0", SourceWave::Dc(1.5))
            .expect("valid");
        c.vsource(
            "V2",
            "b",
            "0",
            SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-9,
                rise: 1e-10,
                fall: 2e-10,
                width: 5e-10,
                period: 2e-9,
            },
        )
        .expect("valid");
        c.vsource(
            "V3",
            "c",
            "0",
            SourceWave::Sine {
                offset: 0.9,
                ampl: 0.5,
                freq: 1e9,
                delay: 0.0,
            },
        )
        .expect("valid");
        c.isource(
            "I1",
            "d",
            "0",
            SourceWave::Pwl(vec![(0.0, 0.0), (1e-9, 1e-3)]),
        )
        .expect("valid");
        c.resistor("R1", "a", "0", 1e3).expect("valid");
        c.resistor("R2", "b", "0", 1e3).expect("valid");
        c.resistor("R3", "c", "0", 1e3).expect("valid");
        c.resistor("R4", "d", "0", 1e3).expect("valid");
        c.vccs("G1", "a", "0", "b", "0", 1e-3).expect("valid");

        let text = write_deck(&c, "sources", None).unwrap();
        let deck = parse_deck(&text).unwrap();
        assert_eq!(deck.circuit.element_count(), c.element_count());
        // Compare a source value at an arbitrary time through the parsed
        // representation.
        let orig = match c.find_element("V2").unwrap().kind() {
            ElementKind::VSource { wave, .. } => wave.value_at(3.15e-9),
            _ => unreachable!(),
        };
        let round = match deck.circuit.find_element("V2").unwrap().kind() {
            ElementKind::VSource { wave, .. } => wave.value_at(3.15e-9),
            _ => unreachable!(),
        };
        assert!((orig - round).abs() < 1e-12);
    }

    #[test]
    fn models_without_a_card_are_rejected() {
        /// A device law with no `.model` card (the trait's default).
        #[derive(Debug)]
        struct NoCard;
        impl MosModel for NoCard {
            fn ids(&self, _vgs: f64, _vds: f64, _vbs: f64) -> DrainCurrent {
                DrainCurrent::OFF
            }
            fn name(&self) -> &str {
                "no-card"
            }
        }
        let mut c = Circuit::new();
        c.mosfet(
            "M1",
            MosPolarity::Nmos,
            "d",
            "g",
            "0",
            "0",
            Arc::new(NoCard),
        )
        .expect("valid");
        assert!(matches!(
            write_deck(&c, "t", None),
            Err(SpiceError::InvalidValue { .. })
        ));
    }

    #[test]
    fn empty_title_gets_placeholder() {
        let mut c = Circuit::new();
        c.resistor("R1", "a", "0", 1.0).expect("valid");
        let text = write_deck(&c, "", None).unwrap();
        assert!(text.starts_with("untitled\n"));
        assert!(text.ends_with(".end\n"));
    }
}
