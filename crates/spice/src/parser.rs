//! A SPICE-style netlist deck parser.
//!
//! Supports the classic card set needed for SSN experiments:
//!
//! ```text
//! * title / comment lines
//! R<name> n+ n- value
//! C<name> n+ n- value [IC=v]
//! L<name> n+ n- value [IC=i]
//! V<name> n+ n- <dc | PULSE(..) | PWL(..) | SIN(..)>
//! I<name> n+ n- <dc | PULSE(..) | PWL(..) | SIN(..)>
//! G<name> out+ out- ctrl+ ctrl- gm
//! M<name> d g s b modelname [W=mult] [M=count]
//! D<name> anode cathode modelname
//! X<name> node... subcktname
//! .subckt <name> port... / .ends
//! .model <name> NMOS|PMOS|D (key=value ...; `kp` selects Level-1,
//!                            otherwise alpha-power; D takes is=/n=)
//! .include "path"            (resolved by parse_deck_file)
//! .ic V(node)=value
//! .tran tstep tstop [UIC]
//! .end
//! ```
//!
//! Subcircuits are flattened at parse time: instance elements become
//! `<type>.<instance>.<name>` (ngspice style) and internal nodes
//! `<instance>.<node>`; the ground node is global.
//!
//! Values accept SI/SPICE suffixes (`5n`, `2.2p`, `1MEG`, `3k`, `10m`).
//! Lines starting with `+` continue the previous card; `*` starts a
//! comment; everything is case-insensitive except node names.

use crate::error::SpiceError;
use crate::netlist::Circuit;
use crate::source::SourceWave;
use crate::tran::TranOptions;
use ssn_devices::{AlphaPower, Level1, MosModel, MosPolarity};
use std::collections::HashMap;
use std::sync::Arc;

/// A parsed deck: the circuit plus any analysis directives.
#[derive(Debug, Clone)]
pub struct Deck {
    /// The first line of the deck (SPICE tradition).
    pub title: String,
    /// The constructed circuit.
    pub circuit: Circuit,
    /// The `.tran` directive, if present.
    pub tran: Option<TranDirective>,
}

/// A `.tran tstep tstop [UIC]` directive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranDirective {
    /// Suggested timestep.
    pub tstep: f64,
    /// Stop time.
    pub tstop: f64,
    /// Start from initial conditions instead of a DC operating point.
    pub uic: bool,
}

impl TranDirective {
    /// Converts the directive into engine options.
    pub fn to_options(self) -> TranOptions {
        let mut opts = TranOptions::to(self.tstop).with_dt_max(self.tstep.max(self.tstop * 1e-6));
        if self.uic {
            opts = opts.with_ic();
        }
        opts
    }
}

fn err(line: usize, message: impl Into<String>) -> SpiceError {
    SpiceError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_value(tok: &str, line: usize) -> Result<f64, SpiceError> {
    tok.parse::<ssn_units::Unitless>()
        .map(|q| q.value())
        .map_err(|_| err(line, format!("invalid numeric value {tok:?}")))
}

/// Splits a card into whitespace tokens, treating `(`, `)` and `,` as
/// separators so `PULSE(0 1.8 0 0.5n ...)` tokenizes cleanly.
fn tokenize(card: &str) -> Vec<String> {
    card.replace(['(', ')', ','], " ")
        .split_whitespace()
        .map(str::to_owned)
        .collect()
}

/// Joins continuation lines (`+` prefix) and strips comments, keeping the
/// original line number of each card's first line.
fn assemble_cards(text: &str) -> (String, Vec<(usize, String)>) {
    let mut title = String::new();
    let mut cards: Vec<(usize, String)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split(';').next().unwrap_or("").trim_end();
        if i == 0 && !line.trim_start().starts_with(['.', '*']) && !looks_like_card(line) {
            title = line.trim().to_owned();
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            if let Some(last) = cards.last_mut() {
                last.1.push(' ');
                last.1.push_str(cont);
                continue;
            }
        }
        cards.push((line_no, trimmed.to_owned()));
    }
    (title, cards)
}

/// Heuristic used only for the first line (SPICE tradition makes it a
/// title): it is treated as an element card when it both starts with an
/// element letter and has enough tokens to be one, so `rc lowpass` stays a
/// title while `R1 a 0 1k` parses.
fn looks_like_card(line: &str) -> bool {
    let starts_element = line
        .trim_start()
        .chars()
        .next()
        .is_some_and(|c| "rclvigmdRCLVIGMD".contains(c));
    starts_element && tokenize(line).len() >= 4
}

/// Parses a source specification starting at `toks[k]`.
fn parse_source(toks: &[String], k: usize, line: usize) -> Result<SourceWave, SpiceError> {
    if k >= toks.len() {
        return Err(err(line, "missing source value"));
    }
    let head = toks[k].to_ascii_uppercase();
    let nums = |from: usize| -> Result<Vec<f64>, SpiceError> {
        toks[from..].iter().map(|t| parse_value(t, line)).collect()
    };
    match head.as_str() {
        "DC" => {
            let v = toks
                .get(k + 1)
                .ok_or_else(|| err(line, "DC needs a value"))?;
            Ok(SourceWave::Dc(parse_value(v, line)?))
        }
        "PULSE" => {
            let p = nums(k + 1)?;
            if p.len() < 6 {
                return Err(err(line, "PULSE needs v0 v1 td tr tf pw [per]"));
            }
            Ok(SourceWave::Pulse {
                v0: p[0],
                v1: p[1],
                delay: p[2],
                rise: p[3],
                fall: p[4],
                width: p[5],
                period: p.get(6).copied().unwrap_or(0.0),
            })
        }
        "PWL" => {
            let p = nums(k + 1)?;
            if p.len() < 2 || p.len() % 2 != 0 {
                return Err(err(line, "PWL needs t/v pairs"));
            }
            let points: Vec<(f64, f64)> = p.chunks(2).map(|c| (c[0], c[1])).collect();
            if points.windows(2).any(|w| w[1].0 < w[0].0) {
                return Err(err(line, "PWL times must be non-decreasing"));
            }
            Ok(SourceWave::Pwl(points))
        }
        "SIN" => {
            let p = nums(k + 1)?;
            if p.len() < 3 {
                return Err(err(line, "SIN needs offset ampl freq [td]"));
            }
            Ok(SourceWave::Sine {
                offset: p[0],
                ampl: p[1],
                freq: p[2],
                delay: p.get(3).copied().unwrap_or(0.0),
            })
        }
        _ => Ok(SourceWave::Dc(parse_value(&toks[k], line)?)),
    }
}

/// Parses `KEY=value` pairs from the token tail.
fn parse_kv(toks: &[String], line: usize) -> Result<HashMap<String, f64>, SpiceError> {
    let mut out = HashMap::new();
    for t in toks {
        let Some((k, v)) = t.split_once('=') else {
            return Err(err(line, format!("expected key=value, got {t:?}")));
        };
        out.insert(k.to_ascii_lowercase(), parse_value(v, line)?);
    }
    Ok(out)
}

/// A parsed `.model` card, kept un-erased so instances can apply width
/// scaling before type erasure.
#[derive(Debug, Clone)]
enum ModelDef {
    Alpha(AlphaPower),
    Level1(Level1),
    Diode(ssn_devices::Diode),
}

impl ModelDef {
    fn instantiate(
        &self,
        width: Option<f64>,
        line: usize,
    ) -> Result<Arc<dyn MosModel>, SpiceError> {
        match (self, width) {
            (Self::Alpha(m), Some(w)) => {
                if !(w.is_finite() && w > 0.0) {
                    return Err(err(line, format!("W multiplier must be positive, got {w}")));
                }
                Ok(Arc::new(m.scaled(w)))
            }
            (Self::Alpha(m), None) => Ok(Arc::new(m.clone())),
            (Self::Level1(_), Some(_)) => {
                Err(err(line, "W= scaling is only supported for alpha models"))
            }
            (Self::Level1(m), None) => Ok(Arc::new(m.clone())),
            (Self::Diode(_), _) => Err(err(line, "diode model used on a MOSFET card")),
        }
    }
}

fn build_model(params: &HashMap<String, f64>, name: &str) -> ModelDef {
    let get = |key: &str, default: f64| params.get(key).copied().unwrap_or(default);
    if params.contains_key("kp") {
        ModelDef::Level1(
            Level1::new(get("kp", 2e-3), get("vth0", 0.5))
                .with_body_effect(get("gamma", 0.0), get("phi", 0.7))
                .with_lambda(get("lambda", 0.0)),
        )
    } else {
        ModelDef::Alpha(
            AlphaPower::builder()
                .vth0(get("vth0", 0.43))
                .gamma(get("gamma", 0.3))
                .phi(get("phi", 0.8))
                .alpha(get("alpha", 1.24))
                .drive(get("b", 6.1e-3))
                .vdsat_coeff(get("kd", 0.66))
                .lambda(get("lambda", 0.05))
                .name(name)
                .build(),
        )
    }
}

/// Parses a SPICE deck into a [`Deck`].
///
/// # Errors
///
/// Returns [`SpiceError::Parse`] (with a line number) for any malformed
/// card, plus the usual netlist-construction errors for duplicate element
/// names or invalid values.
///
/// # Examples
///
/// ```
/// use ssn_spice::parser::parse_deck;
///
/// # fn main() -> Result<(), ssn_spice::SpiceError> {
/// let deck = parse_deck(
///     "rc lowpass\n\
///      Vin in 0 DC 1.0\n\
///      R1 in out 1k\n\
///      C1 out 0 1n\n\
///      .tran 1n 5u\n\
///      .end\n",
/// )?;
/// assert_eq!(deck.title, "rc lowpass");
/// assert_eq!(deck.circuit.element_count(), 3);
/// assert!(deck.tran.is_some());
/// # Ok(())
/// # }
/// ```
pub fn parse_deck(text: &str) -> Result<Deck, SpiceError> {
    let (title, cards) = assemble_cards(text);
    let cards = expand_subcircuits(cards)?;
    let mut circuit = Circuit::new();
    let mut tran = None;
    // Two passes: models first, then elements (so `M` cards can reference
    // `.model` cards written below them, as real decks do).
    let mut models: HashMap<String, (MosPolarity, ModelDef)> = HashMap::new();
    for (line, card) in &cards {
        let toks = tokenize(card);
        if toks.is_empty() || !toks[0].eq_ignore_ascii_case(".model") {
            continue;
        }
        if toks.len() < 3 {
            return Err(err(*line, ".model needs a name and a polarity"));
        }
        let name = toks[1].to_ascii_lowercase();
        let params = parse_kv(&toks[3..], *line)?;
        let entry = match toks[2].to_ascii_uppercase().as_str() {
            "NMOS" => (MosPolarity::Nmos, build_model(&params, &name)),
            "PMOS" => (MosPolarity::Pmos, build_model(&params, &name)),
            "D" => {
                let is = params.get("is").copied().unwrap_or(1e-14);
                let n = params.get("n").copied().unwrap_or(1.0);
                if !(is > 0.0 && n > 0.0) {
                    return Err(err(*line, "diode model needs positive is and n"));
                }
                // Polarity is irrelevant for diodes; Nmos is a placeholder.
                (
                    MosPolarity::Nmos,
                    ModelDef::Diode(ssn_devices::Diode::new(is, n)),
                )
            }
            other => return Err(err(*line, format!("unknown polarity {other:?}"))),
        };
        // For MOS cards the kind is inferred from the parameter set: `kp`
        // selects the square-law Level-1 model, anything else alpha-power.
        models.insert(name.clone(), entry);
    }

    for (line, card) in &cards {
        let toks = tokenize(card);
        if toks.is_empty() {
            continue;
        }
        let head = toks[0].clone();
        let upper = head.to_ascii_uppercase();
        if upper.starts_with('.') {
            match upper.as_str() {
                ".MODEL" => {} // handled in pass one
                ".END" => break,
                ".IC" => {
                    // Work on the raw card: the shared tokenizer strips the
                    // parentheses that `V(node)=value` relies on.
                    for t in card.split_whitespace().skip(1) {
                        let inner = t
                            .strip_prefix("V(")
                            .or_else(|| t.strip_prefix("v("))
                            .unwrap_or(t);
                        let Some((node, val)) = inner.split_once('=') else {
                            return Err(err(
                                *line,
                                format!(".ic expects V(node)=value, got {t:?}"),
                            ));
                        };
                        let node = node.trim_end_matches(')');
                        circuit.set_initial_voltage(node, parse_value(val, *line)?)?;
                    }
                }
                ".TRAN" => {
                    if toks.len() < 3 {
                        return Err(err(*line, ".tran needs tstep and tstop"));
                    }
                    let tstep = parse_value(&toks[1], *line)?;
                    let tstop = parse_value(&toks[2], *line)?;
                    let uic = toks.get(3).is_some_and(|t| t.eq_ignore_ascii_case("uic"));
                    if !(tstop > 0.0 && tstep > 0.0) {
                        return Err(err(*line, ".tran times must be positive"));
                    }
                    tran = Some(TranDirective { tstep, tstop, uic });
                }
                other => return Err(err(*line, format!("unknown directive {other:?}"))),
            }
            continue;
        }

        let Some(kind) = upper.chars().next() else {
            return Err(err(*line, "empty element card"));
        };
        match kind {
            'R' => {
                require(&toks, 4, *line, "R<name> n+ n- value")?;
                circuit.resistor(&head, &toks[1], &toks[2], parse_value(&toks[3], *line)?)?;
            }
            'C' => {
                require(&toks, 4, *line, "C<name> n+ n- value [IC=v]")?;
                let value = parse_value(&toks[3], *line)?;
                match ic_of(&toks[4..], *line)? {
                    Some(ic) => circuit.capacitor_with_ic(&head, &toks[1], &toks[2], value, ic)?,
                    None => circuit.capacitor(&head, &toks[1], &toks[2], value)?,
                }
            }
            'L' => {
                require(&toks, 4, *line, "L<name> n+ n- value [IC=i]")?;
                let value = parse_value(&toks[3], *line)?;
                match ic_of(&toks[4..], *line)? {
                    Some(ic) => circuit.inductor_with_ic(&head, &toks[1], &toks[2], value, ic)?,
                    None => circuit.inductor(&head, &toks[1], &toks[2], value)?,
                }
            }
            'V' => {
                require(&toks, 4, *line, "V<name> n+ n- value")?;
                let wave = parse_source(&toks, 3, *line)?;
                circuit.vsource(&head, &toks[1], &toks[2], wave)?;
            }
            'I' => {
                require(&toks, 4, *line, "I<name> n+ n- value")?;
                let wave = parse_source(&toks, 3, *line)?;
                circuit.isource(&head, &toks[1], &toks[2], wave)?;
            }
            'G' => {
                require(&toks, 6, *line, "G<name> out+ out- ctrl+ ctrl- gm")?;
                circuit.vccs(
                    &head,
                    &toks[1],
                    &toks[2],
                    &toks[3],
                    &toks[4],
                    parse_value(&toks[5], *line)?,
                )?;
            }
            'D' => {
                require(&toks, 4, *line, "D<name> anode cathode model")?;
                let model_name = toks[3].to_ascii_lowercase();
                let Some((_, def)) = models.get(&model_name) else {
                    return Err(err(*line, format!("unknown model {model_name:?}")));
                };
                let ModelDef::Diode(d) = def else {
                    return Err(err(*line, format!("{model_name:?} is not a diode model")));
                };
                circuit.diode(&head, &toks[1], &toks[2], *d)?;
            }
            'M' => {
                require(&toks, 6, *line, "M<name> d g s b model [W=mult] [M=count]")?;
                let model_name = toks[5].to_ascii_lowercase();
                let Some((polarity, def)) = models.get(&model_name) else {
                    return Err(err(*line, format!("unknown model {model_name:?}")));
                };
                // Optional width multiplier and instance count.
                let params = parse_kv(&toks[6..], *line)?;
                let model = def.instantiate(params.get("w").copied(), *line)?;
                let m = match params.get("m") {
                    Some(&m) if m.is_finite() && m >= 1.0 && m.fract() == 0.0 => m as usize,
                    Some(m) => {
                        return Err(err(
                            *line,
                            format!("M multiplier must be a positive integer, got {m}"),
                        ))
                    }
                    None => 1,
                };
                circuit.mosfet_parallel(
                    &head, *polarity, &toks[1], &toks[2], &toks[3], &toks[4], model, m,
                )?;
            }
            other => return Err(err(*line, format!("unknown element type {other:?}"))),
        }
    }

    Ok(Deck {
        title,
        circuit,
        tran,
    })
}

/// Parses a deck from a file, resolving `.include "path"` directives
/// relative to the including file (nesting limited to 16 levels).
///
/// # Errors
///
/// * [`SpiceError::DeckIo`] when a file cannot be read,
/// * everything [`parse_deck`] can return.
///
/// # Examples
///
/// ```no_run
/// use ssn_spice::parser::parse_deck_file;
/// let deck = parse_deck_file("pad_ring.sp")?;
/// # Ok::<(), ssn_spice::SpiceError>(())
/// ```
pub fn parse_deck_file(path: impl AsRef<std::path::Path>) -> Result<Deck, SpiceError> {
    let text = resolve_includes(path.as_ref(), 0)?;
    parse_deck(&text)
}

/// Maximum `.include` nesting depth.
const MAX_INCLUDE_DEPTH: usize = 16;

fn resolve_includes(path: &std::path::Path, depth: usize) -> Result<String, SpiceError> {
    if depth > MAX_INCLUDE_DEPTH {
        return Err(SpiceError::DeckIo {
            path: path.display().to_string(),
            message: "include nesting too deep (cycle?)".to_owned(),
        });
    }
    let text = std::fs::read_to_string(path).map_err(|e| SpiceError::DeckIo {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let dir = path
        .parent()
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let trimmed = line.trim();
        let lower = trimmed.to_ascii_lowercase();
        if let Some(rest) = lower.strip_prefix(".include") {
            let raw = trimmed[trimmed.len() - rest.len()..].trim();
            let target = raw.trim_matches(['"', '\'']);
            if target.is_empty() {
                return Err(SpiceError::DeckIo {
                    path: path.display().to_string(),
                    message: ".include needs a path".to_owned(),
                });
            }
            let included = dir.join(target);
            out.push_str(&resolve_includes(&included, depth + 1)?);
            out.push('\n');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// A collected `.subckt` definition.
#[derive(Debug, Clone)]
struct Subckt {
    ports: Vec<String>,
    body: Vec<(usize, String)>,
}

/// Maximum subcircuit nesting depth (guards against recursive definitions).
const MAX_SUBCKT_DEPTH: usize = 16;

/// Expands `.subckt`/`.ends` definitions and `X` instantiation cards into
/// flat element cards. Instance elements and internal nodes are prefixed
/// with `<instance>.`; port nodes map to the caller's nodes; the ground
/// node `0`/`gnd` is global.
fn expand_subcircuits(cards: Vec<(usize, String)>) -> Result<Vec<(usize, String)>, SpiceError> {
    // Pass 1: harvest definitions.
    let mut subckts: HashMap<String, Subckt> = HashMap::new();
    let mut top: Vec<(usize, String)> = Vec::new();
    let mut current: Option<(String, Subckt)> = None;
    for (line, card) in cards {
        let toks = tokenize(&card);
        let head = toks
            .first()
            .map(|t| t.to_ascii_uppercase())
            .unwrap_or_default();
        match head.as_str() {
            ".SUBCKT" => {
                if current.is_some() {
                    return Err(err(line, "nested .subckt definitions are not supported"));
                }
                if toks.len() < 3 {
                    return Err(err(line, ".subckt needs a name and at least one port"));
                }
                let name = toks[1].to_ascii_lowercase();
                let ports = toks[2..].to_vec();
                current = Some((
                    name,
                    Subckt {
                        ports,
                        body: Vec::new(),
                    },
                ));
            }
            ".ENDS" => {
                let Some((name, def)) = current.take() else {
                    return Err(err(line, ".ends without a matching .subckt"));
                };
                subckts.insert(name, def);
            }
            _ => match &mut current {
                Some((_, def)) => def.body.push((line, card)),
                None => top.push((line, card)),
            },
        }
    }
    if let Some((name, _)) = current {
        return Err(err(0, format!(".subckt {name:?} is missing its .ends")));
    }
    if subckts.is_empty() {
        return Ok(top);
    }

    // Pass 2: expand X cards (depth-limited; bodies may instantiate other
    // subcircuits).
    fn expand_into(
        out: &mut Vec<(usize, String)>,
        cards: &[(usize, String)],
        prefix: &str,
        port_map: &HashMap<String, String>,
        subckts: &HashMap<String, Subckt>,
        depth: usize,
    ) -> Result<(), SpiceError> {
        for (line, card) in cards {
            let toks = tokenize(card);
            let Some(first) = toks.first() else { continue };
            if first.starts_with('.') {
                if prefix.is_empty() {
                    // Top level: directives pass through untouched.
                    out.push((*line, card.clone()));
                    continue;
                }
                return Err(err(
                    *line,
                    "directives are not allowed inside .subckt bodies",
                ));
            }
            let map_node = |n: &str| -> String {
                if n == "0" || n.eq_ignore_ascii_case("gnd") {
                    "0".to_owned()
                } else if let Some(outer) = port_map.get(n) {
                    outer.clone()
                } else if prefix.is_empty() {
                    n.to_owned()
                } else {
                    format!("{prefix}{n}")
                }
            };
            let Some(kind) = first.chars().next().map(|c| c.to_ascii_uppercase()) else {
                return Err(err(*line, "empty card in .subckt body"));
            };
            if kind == 'X' {
                if depth >= MAX_SUBCKT_DEPTH {
                    return Err(err(
                        *line,
                        "subcircuit nesting too deep (recursive definition?)",
                    ));
                }
                if toks.len() < 3 {
                    return Err(err(*line, "X<name> needs nodes and a subckt name"));
                }
                let Some(last_tok) = toks.last() else {
                    return Err(err(*line, "X<name> needs nodes and a subckt name"));
                };
                let sub_name = last_tok.to_ascii_lowercase();
                let Some(def) = subckts.get(&sub_name) else {
                    return Err(err(*line, format!("unknown subcircuit {sub_name:?}")));
                };
                let outer_nodes: Vec<String> = toks[1..toks.len() - 1]
                    .iter()
                    .map(|n| map_node(n))
                    .collect();
                if outer_nodes.len() != def.ports.len() {
                    return Err(err(
                        *line,
                        format!(
                            "subcircuit {sub_name:?} has {} ports, {} nodes given",
                            def.ports.len(),
                            outer_nodes.len()
                        ),
                    ));
                }
                let inner_prefix = format!("{prefix}{}.", first);
                let inner_map: HashMap<String, String> =
                    def.ports.iter().cloned().zip(outer_nodes).collect();
                expand_into(
                    out,
                    &def.body,
                    &inner_prefix,
                    &inner_map,
                    subckts,
                    depth + 1,
                )?;
                continue;
            }
            // Rewrite node fields by element type; keep values and model
            // references untouched.
            let node_count: usize = match kind {
                'R' | 'C' | 'L' | 'V' | 'I' | 'D' => 2,
                'G' => 4,
                'M' => 4,
                other => {
                    return Err(err(
                        *line,
                        format!("unknown element type {other:?} in subckt"),
                    ))
                }
            };
            if toks.len() < 1 + node_count {
                return Err(err(*line, "element card too short"));
            }
            let mut rebuilt: Vec<String> = Vec::with_capacity(toks.len());
            // ngspice-style flattened name: the type letter stays first so
            // the element dispatch still works ("R.X0.R1").
            if prefix.is_empty() {
                rebuilt.push(first.clone());
            } else {
                rebuilt.push(format!("{kind}.{prefix}{first}"));
            }
            for (k, tok) in toks[1..].iter().enumerate() {
                if k < node_count {
                    rebuilt.push(map_node(tok));
                } else {
                    rebuilt.push(tok.clone());
                }
            }
            // Re-wrap source shapes: the tokenizer stripped parentheses, so
            // a card like `V1 a 0 PWL 0 0 1n 1` must stay parseable — it
            // is, because the parser treats parentheses and spaces alike.
            out.push((*line, rebuilt.join(" ")));
        }
        Ok(())
    }

    let mut flat = Vec::new();
    expand_into(&mut flat, &top, "", &HashMap::new(), &subckts, 0)?;
    Ok(flat)
}

fn require(toks: &[String], n: usize, line: usize, usage: &str) -> Result<(), SpiceError> {
    if toks.len() < n {
        return Err(err(line, format!("expected {usage}")));
    }
    Ok(())
}

fn ic_of(tail: &[String], line: usize) -> Result<Option<f64>, SpiceError> {
    for t in tail {
        if let Some(v) = t
            .strip_prefix("IC=")
            .or_else(|| t.strip_prefix("ic="))
            .or_else(|| t.strip_prefix("Ic="))
        {
            return Ok(Some(parse_value(v, line)?));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::ElementKind;
    use crate::tran::transient;

    const SSN_DECK: &str = "\
ssn driver bank, 2 drivers
* input ramp 0 -> 1.8 V in 0.5 ns after 50 ps
Vin in 0 PWL(0 0 50p 0 550p 1.8)
Lg ng 0 5n IC=0
Cg ng 0 1p IC=0
M0 out0 in ng 0 drv
M1 out1 in ng 0 drv
Cl0 out0 0 5p IC=1.8
Cl1 out1 0 5p IC=1.8
.model drv NMOS vth0=0.43 gamma=0.3 phi=0.8 alpha=1.24 b=6.1m kd=0.66 lambda=0.05
.ic V(ng)=0 V(in)=0 V(out0)=1.8 V(out1)=1.8
.tran 1p 1.3n UIC
.end
";

    #[test]
    fn parses_full_ssn_deck() {
        let deck = parse_deck(SSN_DECK).unwrap();
        assert_eq!(deck.title, "ssn driver bank, 2 drivers");
        assert_eq!(deck.circuit.element_count(), 7);
        let tran = deck.tran.unwrap();
        assert!(tran.uic);
        assert!((tran.tstop - 1.3e-9).abs() < 1e-21);
        // And it actually simulates: the ground node bounces.
        let res = transient(&deck.circuit, tran.to_options()).unwrap();
        let vn = res.voltage("ng").unwrap();
        assert!(vn.peak().value > 0.05, "vn peak {}", vn.peak().value);
        assert!(vn.peak().value < 1.0);
    }

    #[test]
    fn continuation_lines_and_comments() {
        let deck = parse_deck(
            "t\n\
             * a comment\n\
             R1 a 0\n\
             + 1k ; trailing comment\n\
             V1 a 0 DC 1\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.element_count(), 2);
        match deck.circuit.find_element("R1").unwrap().kind() {
            ElementKind::Resistor { ohms, .. } => assert_eq!(*ohms, 1e3),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn suffixed_values() {
        let deck = parse_deck("t\nC1 a 0 2.2p\nL1 a 0 5n\nR1 a 0 1MEG\n").unwrap();
        match deck.circuit.find_element("C1").unwrap().kind() {
            ElementKind::Capacitor { farads, .. } => {
                assert!((farads - 2.2e-12).abs() < 1e-24)
            }
            _ => panic!("wrong kind"),
        }
        match deck.circuit.find_element("R1").unwrap().kind() {
            ElementKind::Resistor { ohms, .. } => assert!((ohms - 1e6).abs() < 1e-3),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn source_shapes() {
        let deck = parse_deck(
            "t\n\
             V1 a 0 DC 1.8\n\
             V2 b 0 PULSE(0 1 1n 0.1n 0.1n 2n 5n)\n\
             V3 c 0 SIN(0.9 0.9 1G)\n\
             V4 d 0 2.5\n\
             I1 e 0 PWL(0 0 1n 1m)\n",
        )
        .unwrap();
        let kinds: Vec<&ElementKind> = deck.circuit.elements().iter().map(|e| e.kind()).collect();
        assert!(
            matches!(kinds[0], ElementKind::VSource { wave: SourceWave::Dc(v), .. } if *v == 1.8)
        );
        assert!(matches!(
            kinds[1],
            ElementKind::VSource {
                wave: SourceWave::Pulse { .. },
                ..
            }
        ));
        assert!(matches!(
            kinds[2],
            ElementKind::VSource {
                wave: SourceWave::Sine { .. },
                ..
            }
        ));
        assert!(
            matches!(kinds[3], ElementKind::VSource { wave: SourceWave::Dc(v), .. } if *v == 2.5)
        );
        assert!(matches!(
            kinds[4],
            ElementKind::ISource {
                wave: SourceWave::Pwl(_),
                ..
            }
        ));
    }

    #[test]
    fn level1_models_and_width_scaling() {
        let deck = parse_deck(
            "t\n\
             M1 d g 0 0 sq\n\
             M2 d g 0 0 ap W=4\n\
             .model sq NMOS kp=2m vth0=0.5\n\
             .model ap NMOS b=6.1m vth0=0.43 alpha=1.24\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.element_count(), 2);
        // W-scaled alpha model carries 4x the drive.
        let (m1, m2) = (
            deck.circuit.find_element("M1").unwrap(),
            deck.circuit.find_element("M2").unwrap(),
        );
        let (ElementKind::Mosfet { model: sq, .. }, ElementKind::Mosfet { model: ap, .. }) =
            (m1.kind(), m2.kind())
        else {
            panic!("wrong kinds");
        };
        assert!(sq.ids(1.5, 1.8, 0.0).id > 0.0);
        let base = AlphaPower::builder().build().ids(1.8, 1.8, 0.0).id;
        assert!((ap.ids(1.8, 1.8, 0.0).id - 4.0 * base).abs() < 1e-9);
    }

    #[test]
    fn instance_multiplier_beside_width() {
        let deck = parse_deck(
            "t\n\
             M1 d g 0 0 ap M=3 W=2\n\
             M2 d g 0 0 ap\n\
             .model ap NMOS b=6.1m\n",
        )
        .unwrap();
        let kind = |name: &str| deck.circuit.find_element(name).unwrap().kind().clone();
        let (ElementKind::Mosfet { m: m1, model, .. }, ElementKind::Mosfet { m: m2, .. }) =
            (kind("M1"), kind("M2"))
        else {
            panic!("wrong kinds");
        };
        assert_eq!((m1, m2), (3, 1));
        // W scales the model; M is carried on the instance, not folded in.
        let base = AlphaPower::builder().build().ids(1.8, 1.8, 0.0).id;
        assert!((model.ids(1.8, 1.8, 0.0).id - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    fn error_reporting_carries_line_numbers() {
        let cases = [
            ("t\nR1 a 0\n", 2, "expected"),
            ("t\nX1 a 0 1\n", 2, "unknown element"),
            ("t\nR1 a 0 zz\n", 2, "invalid numeric"),
            ("t\nM1 d g 0 0 nomodel\n", 2, "unknown model"),
            ("t\n.bogus\n", 2, "unknown directive"),
            ("t\n.tran 1n\n", 2, ".tran needs"),
            ("t\nV1 a 0 PULSE(0 1)\n", 2, "PULSE needs"),
            ("t\nV1 a 0 PWL(1n 1 0 0)\n", 2, "non-decreasing"),
            ("t\n.model m NMOS\n.model m2 FOO\n", 3, "unknown polarity"),
            ("t\n.ic V(a) 0\n", 2, ".ic expects"),
            (
                "t\nM1 d g 0 0 ap M=0\n.model ap NMOS\n",
                2,
                "positive integer",
            ),
            (
                "t\nM1 d g 0 0 ap M=2.5\n.model ap NMOS\n",
                2,
                "positive integer",
            ),
            (
                "t\nM1 d g 0 0 ap W=2 M=-3\n.model ap NMOS\n",
                2,
                "positive integer",
            ),
        ];
        for (deck, want_line, want_msg) in cases {
            match parse_deck(deck) {
                Err(SpiceError::Parse { line, message }) => {
                    assert_eq!(line, want_line, "{deck:?} -> {message}");
                    assert!(
                        message.contains(want_msg),
                        "{deck:?}: message {message:?} missing {want_msg:?}"
                    );
                }
                other => panic!("{deck:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn ic_directive_and_cap_ic() {
        // Bare node=value is accepted as shorthand for V(node)=value.
        let deck = parse_deck("t\n.ic c=0.1\n").unwrap();
        let c = deck.circuit.find_node("c").unwrap();
        assert_eq!(deck.circuit.initial_voltages()[&c], 0.1);

        let deck = parse_deck("t\nC1 a 0 1p IC=1.8\n.ic V(b)=0.9\n").unwrap();
        match deck.circuit.find_element("C1").unwrap().kind() {
            ElementKind::Capacitor { ic, .. } => assert_eq!(*ic, Some(1.8)),
            _ => panic!("wrong kind"),
        }
        let b = deck.circuit.find_node("b").unwrap();
        assert_eq!(deck.circuit.initial_voltages()[&b], 0.9);
    }

    #[test]
    fn diode_cards_parse_and_simulate() {
        let deck = parse_deck(
            "clamp\n\
             V1 in 0 DC 1.0\n\
             R1 in d 1k\n\
             D1 d 0 esd\n\
             .model esd D is=1e-14 n=1.0\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.element_count(), 3);
        let op =
            crate::dc::dc_operating_point(&deck.circuit, crate::dc::DcOptions::default()).unwrap();
        let vd = op.voltage("d").unwrap();
        assert!(vd > 0.4 && vd < 0.8, "diode drop {vd}");
        // Misuse errors.
        assert!(parse_deck("t\nD1 a 0 nomodel\n").is_err());
        // A diode model on an M card is rejected.
        let err = parse_deck("t\nM1 d g 0 0 e\n.model e D is=1e-14 n=1\n").unwrap_err();
        assert!(err.to_string().contains("diode model"), "{err}");
        // An NMOS model on a D card is rejected.
        let err = parse_deck("t\nD1 a 0 m\n.model m NMOS b=6m\n").unwrap_err();
        assert!(err.to_string().contains("not a diode"), "{err}");
    }

    #[test]
    fn subckt_driver_bank_expands_and_simulates() {
        // The pad-ring idiom: define one driver cell, instantiate it N
        // times; must match the flat deck's dynamics.
        let deck = parse_deck(
            "subckt bank\n\
             .subckt driver in ng out\n\
             M1 out in ng 0 drv\n\
             Cl out 0 5p IC=1.8\n\
             .ends\n\
             Vin in 0 PWL(0 0 50p 0 550p 1.8)\n\
             Lg ng 0 5n IC=0\n\
             Cg ng 0 1p IC=0\n\
             X0 in ng out0 driver\n\
             X1 in ng out1 driver\n\
             X2 in ng out2 driver\n\
             X3 in ng out3 driver\n\
             .model drv NMOS vth0=0.43 gamma=0.3 phi=0.8 alpha=1.24 b=6.1m kd=0.66 lambda=0.05\n\
             .ic V(ng)=0 V(in)=0 V(X0.out0)=1.8\n\
             .tran 1p 1.3n UIC\n",
        )
        .unwrap();
        // 1 source + L + C + 4 * (mosfet + load cap) = 11 elements.
        assert_eq!(deck.circuit.element_count(), 11);
        assert!(deck.circuit.find_element("M.X2.M1").is_some());
        // Ports mapped to outer nodes; internals got the instance prefix.
        assert!(deck.circuit.find_node("ng").is_some());
        let res = transient(&deck.circuit, deck.tran.unwrap().to_options()).unwrap();
        let vn = res.voltage("ng").unwrap();
        assert!(vn.peak().value > 0.2, "bounce {}", vn.peak().value);

        // Same circuit written flat gives the same bounce.
        let flat = parse_deck(
            "flat bank\n\
             Vin in 0 PWL(0 0 50p 0 550p 1.8)\n\
             Lg ng 0 5n IC=0\n\
             Cg ng 0 1p IC=0\n\
             M0 out0 in ng 0 drv\n\
             M1 out1 in ng 0 drv\n\
             M2 out2 in ng 0 drv\n\
             M3 out3 in ng 0 drv\n\
             Cl0 out0 0 5p IC=1.8\n\
             Cl1 out1 0 5p IC=1.8\n\
             Cl2 out2 0 5p IC=1.8\n\
             Cl3 out3 0 5p IC=1.8\n\
             .model drv NMOS vth0=0.43 gamma=0.3 phi=0.8 alpha=1.24 b=6.1m kd=0.66 lambda=0.05\n\
             .ic V(ng)=0 V(in)=0\n\
             .tran 1p 1.3n UIC\n",
        )
        .unwrap();
        let res_flat = transient(&flat.circuit, flat.tran.unwrap().to_options()).unwrap();
        let vn_flat = res_flat.voltage("ng").unwrap();
        assert!(
            (vn.peak().value - vn_flat.peak().value).abs() / vn_flat.peak().value < 0.01,
            "subckt {} vs flat {}",
            vn.peak().value,
            vn_flat.peak().value
        );
    }

    #[test]
    fn nested_subckts_expand() {
        let deck = parse_deck(
            "nested\n\
             .subckt rc a b\n\
             R1 a b 1k\n\
             C1 b 0 1p\n\
             .ends\n\
             .subckt rc2 a c\n\
             X1 a m rc\n\
             X2 m c rc\n\
             .ends\n\
             V1 in 0 DC 1\n\
             Xtop in out rc2\n",
        )
        .unwrap();
        // V + 2 * (R + C) = 5 elements; internal node got a double prefix.
        assert_eq!(deck.circuit.element_count(), 5);
        assert!(deck.circuit.find_element("R.Xtop.X1.R1").is_some());
        assert!(deck.circuit.find_node("Xtop.m").is_some());
        // DC: out follows in through the resistor chain (caps open).
        let op =
            crate::dc::dc_operating_point(&deck.circuit, crate::dc::DcOptions::default()).unwrap();
        assert!((op.voltage("out").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn subckt_error_cases() {
        // Missing .ends
        assert!(parse_deck("t\n.subckt s a\nR1 a 0 1k\n").is_err());
        // .ends without .subckt
        assert!(parse_deck("t\n.ends\n").is_err());
        // Unknown subckt
        assert!(parse_deck("t\nX1 a s_nope\n").is_err());
        // Port arity mismatch
        assert!(parse_deck("t\n.subckt s a b\nR1 a b 1k\n.ends\nX1 n1 s\n").is_err());
        // Directive inside a body
        assert!(parse_deck("t\n.subckt s a\n.tran 1n 1u\n.ends\nX1 n1 s\n").is_err());
        // Recursive definition trips the depth limit.
        assert!(parse_deck("t\n.subckt s a\nX1 a s\n.ends\nXtop n1 s\n").is_err());
    }

    #[test]
    fn include_directive_inlines_files() {
        let dir = std::env::temp_dir().join("ssn_include_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("cells.inc"),
            ".subckt rc a b\nR1 a b 1k\nC1 b 0 1p\n.ends\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("top.sp"),
            "include test\n.include \"cells.inc\"\nV1 in 0 DC 1\nX1 in out rc\n",
        )
        .unwrap();
        let deck = parse_deck_file(dir.join("top.sp")).unwrap();
        assert_eq!(deck.circuit.element_count(), 3);
        assert!(deck.circuit.find_element("R.X1.R1").is_some());

        // Missing include file reports the offending path.
        std::fs::write(dir.join("bad.sp"), "t\n.include nope.inc\n").unwrap();
        let err = parse_deck_file(dir.join("bad.sp")).unwrap_err();
        assert!(err.to_string().contains("nope.inc"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn include_cycles_are_caught() {
        let dir = std::env::temp_dir().join("ssn_include_cycle");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.sp"), "t\n.include b.sp\n").unwrap();
        std::fs::write(dir.join("b.sp"), ".include a.sp\n").unwrap();
        let err = parse_deck_file(dir.join("a.sp")).unwrap_err();
        assert!(err.to_string().contains("too deep"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_stops_parsing() {
        let deck = parse_deck("t\nR1 a 0 1k\n.end\nR2 b 0 1k\n").unwrap();
        assert_eq!(deck.circuit.element_count(), 1);
    }

    #[test]
    fn first_line_element_is_not_swallowed_as_title() {
        let deck = parse_deck("R1 a 0 1k\n").unwrap();
        assert_eq!(deck.circuit.element_count(), 1);
        assert_eq!(deck.title, "");
    }
}
