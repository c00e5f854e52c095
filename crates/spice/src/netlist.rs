//! Circuit (netlist) construction.

use crate::error::SpiceError;
use crate::source::SourceWave;
use ssn_devices::{MosModel, MosPolarity};
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a circuit node. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// The ground node (named `"0"` or `"gnd"`).
pub const GROUND: NodeId = NodeId(0);

impl NodeId {
    /// `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// One circuit element.
#[derive(Debug, Clone)]
pub enum ElementKind {
    /// Linear resistor between two nodes.
    Resistor {
        /// Positive terminal.
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Resistance in ohms (> 0).
        ohms: f64,
    },
    /// Linear capacitor between two nodes.
    Capacitor {
        /// Positive terminal.
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Capacitance in farads (> 0).
        farads: f64,
        /// Optional initial voltage `v(a) - v(b)` used when the transient
        /// starts from initial conditions.
        ic: Option<f64>,
    },
    /// Linear inductor between two nodes (branch-current unknown).
    Inductor {
        /// Positive terminal (current flows `a -> b` when positive).
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Inductance in henrys (> 0).
        henrys: f64,
        /// Optional initial branch current.
        ic: Option<f64>,
    },
    /// Independent voltage source (branch-current unknown).
    VSource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// The source waveform.
        wave: SourceWave,
    },
    /// Independent current source (current flows from `pos` through the
    /// source to `neg`, i.e. it *injects* into `neg`'s node equation).
    ISource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// The source waveform.
        wave: SourceWave,
    },
    /// Voltage-controlled current source: `i(out_p -> out_n) = gm * (v(ctrl_p) - v(ctrl_n))`.
    Vccs {
        /// Output positive terminal.
        out_p: NodeId,
        /// Output negative terminal.
        out_n: NodeId,
        /// Control positive terminal.
        ctrl_p: NodeId,
        /// Control negative terminal.
        ctrl_n: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// A pn-junction diode (current flows anode -> cathode when forward
    /// biased).
    Diode {
        /// Anode.
        a: NodeId,
        /// Cathode.
        k: NodeId,
        /// The junction model.
        model: ssn_devices::Diode,
    },
    /// A MOSFET evaluated through a [`MosModel`].
    Mosfet {
        /// Channel polarity.
        polarity: MosPolarity,
        /// Drain node.
        d: NodeId,
        /// Gate node.
        g: NodeId,
        /// Source node.
        s: NodeId,
        /// Bulk node.
        b: NodeId,
        /// The compact model.
        model: Arc<dyn MosModel>,
        /// Instance multiplier (SPICE `M=`, >= 1): `m` identical devices
        /// in parallel on the same four nodes, carrying `m` times the
        /// current of one.
        m: usize,
    },
}

/// A named element instance.
#[derive(Debug, Clone)]
pub struct Element {
    pub(crate) name: String,
    pub(crate) kind: ElementKind,
}

impl Element {
    /// The element's instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element's kind and connectivity.
    pub fn kind(&self) -> &ElementKind {
        &self.kind
    }
}

/// A circuit under construction.
///
/// Nodes are created implicitly the first time a name is referenced; the
/// names `"0"` and `"gnd"` (any case) are the ground node.
///
/// # Examples
///
/// ```
/// use ssn_spice::{Circuit, SourceWave};
///
/// # fn main() -> Result<(), ssn_spice::SpiceError> {
/// let mut c = Circuit::new();
/// c.vsource("vdd", "vdd", "0", SourceWave::Dc(1.8))?;
/// c.resistor("rload", "vdd", "out", 10e3)?;
/// c.capacitor("cl", "out", "gnd", 50e-15)?;
/// assert_eq!(c.node_count(), 3); // gnd, vdd, out
/// assert_eq!(c.element_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_map: HashMap<String, NodeId>,
    elements: Vec<Element>,
    element_names: HashMap<String, usize>,
    /// Initial node voltages for `use_ic` transients.
    node_ic: HashMap<NodeId, f64>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Self {
            node_names: vec!["0".to_owned()],
            node_map: HashMap::new(),
            elements: Vec::new(),
            element_names: HashMap::new(),
            node_ic: HashMap::new(),
        };
        c.node_map.insert("0".to_owned(), GROUND);
        c
    }

    /// Resolves (or creates) the node named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidNode`] for an empty name.
    pub fn node(&mut self, name: &str) -> Result<NodeId, SpiceError> {
        if name.is_empty() {
            return Err(SpiceError::InvalidNode { name: name.into() });
        }
        let key = if name.eq_ignore_ascii_case("gnd") {
            "0"
        } else {
            name
        };
        if let Some(&id) = self.node_map.get(key) {
            return Ok(id);
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(key.to_owned());
        self.node_map.insert(key.to_owned(), id);
        Ok(id)
    }

    /// Looks up an existing node without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let key = if name.eq_ignore_ascii_case("gnd") {
            "0"
        } else {
            name
        };
        self.node_map.get(key).copied()
    }

    /// The name of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total node count, including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// True when the circuit contains no element that needs Newton
    /// linearization around the iterate (no diodes or MOSFETs), so one
    /// linear solve per analysis point is exact.
    pub fn is_linear(&self) -> bool {
        !self.elements.iter().any(|e| {
            matches!(
                e.kind(),
                ElementKind::Diode { .. } | ElementKind::Mosfet { .. }
            )
        })
    }

    /// Finds an element by instance name. Exact match first, then (SPICE
    /// tradition) case-insensitive.
    pub fn find_element(&self, name: &str) -> Option<&Element> {
        if let Some(&i) = self.element_names.get(name) {
            return Some(&self.elements[i]);
        }
        self.elements
            .iter()
            .find(|e| e.name.eq_ignore_ascii_case(name))
    }

    /// Sets the initial voltage of a node for `use_ic` transients.
    ///
    /// # Errors
    ///
    /// Propagates node-name validation errors.
    pub fn set_initial_voltage(&mut self, node: &str, volts: f64) -> Result<(), SpiceError> {
        let id = self.node(node)?;
        self.node_ic.insert(id, volts);
        Ok(())
    }

    /// The configured initial node voltages.
    pub fn initial_voltages(&self) -> &HashMap<NodeId, f64> {
        &self.node_ic
    }

    fn add(&mut self, name: &str, kind: ElementKind) -> Result<(), SpiceError> {
        if name.is_empty() {
            return Err(SpiceError::InvalidElement {
                context: "element name must not be empty".into(),
            });
        }
        if self.element_names.contains_key(name) {
            return Err(SpiceError::InvalidElement {
                context: format!("duplicate element name {name:?}"),
            });
        }
        self.element_names
            .insert(name.to_owned(), self.elements.len());
        self.elements.push(Element {
            name: name.to_owned(),
            kind,
        });
        Ok(())
    }

    fn positive(value: f64, what: &str, name: &str) -> Result<(), SpiceError> {
        if !(value.is_finite() && value > 0.0) {
            return Err(SpiceError::InvalidValue {
                context: format!("{what} of {name:?} must be positive and finite, got {value}"),
            });
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Invalid names, duplicate element names, or a non-positive value.
    pub fn resistor(&mut self, name: &str, a: &str, b: &str, ohms: f64) -> Result<(), SpiceError> {
        Self::positive(ohms, "resistance", name)?;
        let (a, b) = (self.node(a)?, self.node(b)?);
        self.add(name, ElementKind::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Invalid names, duplicate element names, or a non-positive value.
    pub fn capacitor(
        &mut self,
        name: &str,
        a: &str,
        b: &str,
        farads: f64,
    ) -> Result<(), SpiceError> {
        Self::positive(farads, "capacitance", name)?;
        let (a, b) = (self.node(a)?, self.node(b)?);
        self.add(
            name,
            ElementKind::Capacitor {
                a,
                b,
                farads,
                ic: None,
            },
        )
    }

    /// Adds a capacitor with an explicit initial voltage (used by `use_ic`
    /// transients).
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::capacitor`].
    pub fn capacitor_with_ic(
        &mut self,
        name: &str,
        a: &str,
        b: &str,
        farads: f64,
        ic: f64,
    ) -> Result<(), SpiceError> {
        Self::positive(farads, "capacitance", name)?;
        let (a, b) = (self.node(a)?, self.node(b)?);
        self.add(
            name,
            ElementKind::Capacitor {
                a,
                b,
                farads,
                ic: Some(ic),
            },
        )
    }

    /// Adds an inductor (initial current 0 unless set by
    /// [`Circuit::inductor_with_ic`]).
    ///
    /// # Errors
    ///
    /// Invalid names, duplicate element names, or a non-positive value.
    pub fn inductor(
        &mut self,
        name: &str,
        a: &str,
        b: &str,
        henrys: f64,
    ) -> Result<(), SpiceError> {
        Self::positive(henrys, "inductance", name)?;
        let (a, b) = (self.node(a)?, self.node(b)?);
        self.add(
            name,
            ElementKind::Inductor {
                a,
                b,
                henrys,
                ic: None,
            },
        )
    }

    /// Adds an inductor with an explicit initial current.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::inductor`].
    pub fn inductor_with_ic(
        &mut self,
        name: &str,
        a: &str,
        b: &str,
        henrys: f64,
        ic: f64,
    ) -> Result<(), SpiceError> {
        Self::positive(henrys, "inductance", name)?;
        let (a, b) = (self.node(a)?, self.node(b)?);
        self.add(
            name,
            ElementKind::Inductor {
                a,
                b,
                henrys,
                ic: Some(ic),
            },
        )
    }

    /// Adds an independent voltage source.
    ///
    /// # Errors
    ///
    /// Invalid names or duplicate element names.
    pub fn vsource(
        &mut self,
        name: &str,
        pos: &str,
        neg: &str,
        wave: SourceWave,
    ) -> Result<(), SpiceError> {
        let (pos, neg) = (self.node(pos)?, self.node(neg)?);
        self.add(name, ElementKind::VSource { pos, neg, wave })
    }

    /// Adds an independent current source (`pos -> neg` through the source).
    ///
    /// # Errors
    ///
    /// Invalid names or duplicate element names.
    pub fn isource(
        &mut self,
        name: &str,
        pos: &str,
        neg: &str,
        wave: SourceWave,
    ) -> Result<(), SpiceError> {
        let (pos, neg) = (self.node(pos)?, self.node(neg)?);
        self.add(name, ElementKind::ISource { pos, neg, wave })
    }

    /// Adds a voltage-controlled current source.
    ///
    /// # Errors
    ///
    /// Invalid names or duplicate element names.
    pub fn vccs(
        &mut self,
        name: &str,
        out_p: &str,
        out_n: &str,
        ctrl_p: &str,
        ctrl_n: &str,
        gm: f64,
    ) -> Result<(), SpiceError> {
        if !gm.is_finite() {
            return Err(SpiceError::InvalidValue {
                context: format!("gm of {name:?} must be finite"),
            });
        }
        let out_p = self.node(out_p)?;
        let out_n = self.node(out_n)?;
        let ctrl_p = self.node(ctrl_p)?;
        let ctrl_n = self.node(ctrl_n)?;
        self.add(
            name,
            ElementKind::Vccs {
                out_p,
                out_n,
                ctrl_p,
                ctrl_n,
                gm,
            },
        )
    }

    /// Adds a pn-junction diode (anode, cathode).
    ///
    /// # Errors
    ///
    /// Invalid names or duplicate element names.
    pub fn diode(
        &mut self,
        name: &str,
        anode: &str,
        cathode: &str,
        model: ssn_devices::Diode,
    ) -> Result<(), SpiceError> {
        let a = self.node(anode)?;
        let k = self.node(cathode)?;
        self.add(name, ElementKind::Diode { a, k, model })
    }

    /// Adds a MOSFET with terminal order drain, gate, source, bulk.
    ///
    /// # Errors
    ///
    /// Invalid names or duplicate element names.
    // Four terminals plus polarity and model are inherent to the device.
    #[allow(clippy::too_many_arguments)]
    pub fn mosfet(
        &mut self,
        name: &str,
        polarity: MosPolarity,
        d: &str,
        g: &str,
        s: &str,
        b: &str,
        model: Arc<dyn MosModel>,
    ) -> Result<(), SpiceError> {
        self.mosfet_parallel(name, polarity, d, g, s, b, model, 1)
    }

    /// Adds `m` identical MOSFETs in parallel as one instance (SPICE
    /// `M=m`): one set of nodes, `m` times the current and conductances.
    /// This is the exact reduced system of `m` devices that share all
    /// four nodes.
    ///
    /// # Errors
    ///
    /// Invalid names, duplicate element names, or `m == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn mosfet_parallel(
        &mut self,
        name: &str,
        polarity: MosPolarity,
        d: &str,
        g: &str,
        s: &str,
        b: &str,
        model: Arc<dyn MosModel>,
        m: usize,
    ) -> Result<(), SpiceError> {
        if m == 0 {
            return Err(SpiceError::InvalidValue {
                context: format!("multiplier M of {name:?} must be at least 1"),
            });
        }
        let d = self.node(d)?;
        let g = self.node(g)?;
        let s = self.node(s)?;
        let b = self.node(b)?;
        self.add(
            name,
            ElementKind::Mosfet {
                polarity,
                d,
                g,
                s,
                b,
                model,
                m,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssn_devices::AlphaPower;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0").unwrap(), GROUND);
        assert_eq!(c.node("gnd").unwrap(), GROUND);
        assert_eq!(c.node("GND").unwrap(), GROUND);
        assert!(GROUND.is_ground());
        assert_eq!(c.node_count(), 1);
    }

    #[test]
    fn nodes_are_interned() {
        let mut c = Circuit::new();
        let a = c.node("a").unwrap();
        let a2 = c.node("a").unwrap();
        assert_eq!(a, a2);
        assert!(!a.is_ground());
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("zzz"), None);
    }

    #[test]
    fn element_name_uniqueness() {
        let mut c = Circuit::new();
        c.resistor("r1", "a", "0", 1.0).unwrap();
        let err = c.resistor("r1", "b", "0", 1.0).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidElement { .. }));
        assert!(c.find_element("r1").is_some());
        assert!(c.find_element("r2").is_none());
    }

    #[test]
    fn value_validation() {
        let mut c = Circuit::new();
        assert!(c.resistor("r", "a", "0", 0.0).is_err());
        assert!(c.capacitor("c", "a", "0", -1e-12).is_err());
        assert!(c.inductor("l", "a", "0", f64::NAN).is_err());
        assert!(c.vccs("g", "a", "0", "b", "0", f64::INFINITY).is_err());
        assert!(c.node("").is_err());
    }

    #[test]
    fn initial_conditions_recorded() {
        let mut c = Circuit::new();
        c.set_initial_voltage("out", 1.8).unwrap();
        c.capacitor_with_ic("cl", "out", "0", 1e-12, 1.8).unwrap();
        c.inductor_with_ic("lg", "vg", "0", 5e-9, 1e-3).unwrap();
        let out = c.find_node("out").unwrap();
        assert_eq!(c.initial_voltages()[&out], 1.8);
        match c.find_element("cl").unwrap().kind() {
            ElementKind::Capacitor { ic, .. } => assert_eq!(*ic, Some(1.8)),
            _ => panic!("wrong kind"),
        }
        match c.find_element("lg").unwrap().kind() {
            ElementKind::Inductor { ic, .. } => assert_eq!(*ic, Some(1e-3)),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn mosfet_addition() {
        let mut c = Circuit::new();
        let m = std::sync::Arc::new(AlphaPower::builder().build());
        c.mosfet("m1", MosPolarity::Nmos, "d", "g", "s", "0", m)
            .unwrap();
        assert_eq!(c.element_count(), 1);
        assert_eq!(c.node_count(), 4); // gnd, d, g, s
        assert_eq!(c.elements()[0].name(), "m1");
        assert!(matches!(
            c.elements()[0].kind(),
            ElementKind::Mosfet { m: 1, .. }
        ));
    }

    #[test]
    fn mosfet_multiplier_is_recorded_and_validated() {
        let mut c = Circuit::new();
        let model = std::sync::Arc::new(AlphaPower::builder().build());
        c.mosfet_parallel(
            "m4",
            MosPolarity::Nmos,
            "d",
            "g",
            "s",
            "0",
            model.clone(),
            4,
        )
        .unwrap();
        assert!(matches!(
            c.find_element("m4").unwrap().kind(),
            ElementKind::Mosfet { m: 4, .. }
        ));
        let err = c
            .mosfet_parallel("m0", MosPolarity::Nmos, "d", "g", "s", "0", model, 0)
            .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidValue { .. }));
        assert!(c.find_element("m0").is_none());
    }
}
