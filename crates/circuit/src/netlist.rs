//! Circuit construction: nodes and elements.
//!
//! A [`Circuit`] is a flat netlist of resistors, capacitors, independent
//! sources, and three-terminal transistors. Nodes are interned by name;
//! [`Circuit::GND`] is the reference node. The builder methods mirror a
//! SPICE deck line-for-line, so the SRAM cell generators in `tfet-sram`
//! read like netlists.

use crate::latency::CellPartition;
use crate::waveform::Waveform;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tfet_devices::model::DeviceModel;

/// Identifier of a circuit node. `NodeId(0)` is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index into the node table (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground/reference node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Identifier of an independent voltage source, used to retrieve branch
/// currents and to swap stimulus waveforms between experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub(crate) usize);

/// A resistor between two nodes.
#[derive(Debug, Clone)]
pub struct Resistor {
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Resistance, Ω (must be positive).
    pub ohms: f64,
}

/// A capacitor between two nodes.
#[derive(Debug, Clone)]
pub struct Capacitor {
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Capacitance, F (must be positive).
    pub farads: f64,
}

/// An independent voltage source. The branch current unknown is defined as
/// flowing from `plus` through the source to `minus`.
#[derive(Debug, Clone)]
pub struct VSource {
    /// Source name (reporting only).
    pub name: String,
    /// Positive terminal.
    pub plus: NodeId,
    /// Negative terminal.
    pub minus: NodeId,
    /// Stimulus.
    pub wave: Waveform,
}

/// An independent current source driving current from `from` to `to`
/// through the source (i.e. it pushes current *into* node `to`).
#[derive(Debug, Clone)]
pub struct ISource {
    /// Node the current is pulled from.
    pub from: NodeId,
    /// Node the current is pushed into.
    pub to: NodeId,
    /// Stimulus, A.
    pub wave: Waveform,
}

/// A three-terminal transistor bound to a device model.
#[derive(Clone)]
pub struct Transistor {
    /// Instance name (reporting only).
    pub name: String,
    /// Device model (shared, per-µm normalized).
    pub model: Arc<dyn DeviceModel>,
    /// Drain node.
    pub d: NodeId,
    /// Gate node.
    pub g: NodeId,
    /// Source node.
    pub s: NodeId,
    /// Gate width, µm (must be positive).
    pub width_um: f64,
}

impl fmt::Debug for Transistor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transistor")
            .field("name", &self.name)
            .field("model", &self.model.name())
            .field("d", &self.d)
            .field("g", &self.g)
            .field("s", &self.s)
            .field("width_um", &self.width_um)
            .finish()
    }
}

impl Transistor {
    /// Drain current of this instance (A) at the given node voltages.
    pub fn ids(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        self.width_um * self.model.ids_per_um(vg, vd, vs)
    }
}

/// A complete netlist.
///
/// # Examples
///
/// See the crate-level example; the SRAM generators in `tfet-sram` are the
/// primary in-tree users.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    /// Shared so a probe-recorded [`TransientResult`](crate::TransientResult)
    /// can name nodes without copying the table.
    node_names: Arc<Vec<String>>,
    node_index: HashMap<String, NodeId>,
    /// Resistors.
    pub(crate) resistors: Vec<Resistor>,
    /// Capacitors.
    pub(crate) capacitors: Vec<Capacitor>,
    /// Voltage sources.
    pub(crate) vsources: Vec<VSource>,
    /// Current sources.
    pub(crate) isources: Vec<ISource>,
    /// Transistors.
    pub(crate) transistors: Vec<Transistor>,
    /// Quiescent-latency partitions (one per bitcell in an array netlist);
    /// empty for circuits that don't opt in.
    pub(crate) latency_partitions: Vec<CellPartition>,
}

impl Circuit {
    /// The ground / reference node.
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty circuit (ground pre-registered as node `"0"`).
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: Arc::new(Vec::new()),
            node_index: HashMap::new(),
            resistors: Vec::new(),
            capacitors: Vec::new(),
            vsources: Vec::new(),
            isources: Vec::new(),
            transistors: Vec::new(),
            latency_partitions: Vec::new(),
        };
        let gnd = c.intern("0");
        debug_assert_eq!(gnd, Circuit::GND);
        c
    }

    fn intern(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        Arc::make_mut(&mut self.node_names).push(name.to_string());
        self.node_index.insert(name.to_string(), id);
        id
    }

    /// Returns the node with the given name, creating it if new.
    /// `"0"` and `"gnd"` both refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "gnd" || name == "GND" {
            return Circuit::GND;
        }
        self.intern(name)
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "gnd" || name == "GND" {
            return Some(Circuit::GND);
        }
        self.node_index.get(name).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// The node-name table, indexed like [`NodeId`], shared rather than
    /// copied.
    pub(crate) fn node_names(&self) -> Arc<Vec<String>> {
        Arc::clone(&self.node_names)
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms <= 0` or the terminals coincide.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> &mut Self {
        assert!(ohms > 0.0, "resistance must be positive");
        assert_ne!(a, b, "resistor terminals must differ");
        self.resistors.push(Resistor { a, b, ohms });
        self
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads <= 0` or the terminals coincide.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> &mut Self {
        assert!(farads > 0.0, "capacitance must be positive");
        assert_ne!(a, b, "capacitor terminals must differ");
        self.capacitors.push(Capacitor { a, b, farads });
        self
    }

    /// Adds an independent voltage source and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the terminals coincide.
    pub fn vsource(&mut self, name: &str, plus: NodeId, minus: NodeId, wave: Waveform) -> SourceId {
        assert_ne!(plus, minus, "source terminals must differ");
        self.vsources.push(VSource {
            name: name.to_string(),
            plus,
            minus,
            wave,
        });
        SourceId(self.vsources.len() - 1)
    }

    /// Replaces the stimulus of an existing voltage source — how experiment
    /// drivers re-run one netlist under many waveforms.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn set_vsource_wave(&mut self, id: SourceId, wave: Waveform) {
        self.vsources[id.0].wave = wave;
    }

    /// The voltage source behind an id.
    pub fn vsource_info(&self, id: SourceId) -> &VSource {
        &self.vsources[id.0]
    }

    /// Number of voltage sources.
    pub fn vsource_count(&self) -> usize {
        self.vsources.len()
    }

    /// Adds an independent current source (pushes current into `to`).
    pub fn isource(&mut self, from: NodeId, to: NodeId, wave: Waveform) -> &mut Self {
        self.isources.push(ISource { from, to, wave });
        self
    }

    /// Adds a transistor.
    ///
    /// # Panics
    ///
    /// Panics if `width_um <= 0`.
    pub fn transistor(
        &mut self,
        name: &str,
        model: Arc<dyn DeviceModel>,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        width_um: f64,
    ) -> &mut Self {
        assert!(width_um > 0.0, "transistor width must be positive");
        self.transistors.push(Transistor {
            name: name.to_string(),
            model,
            d,
            g,
            s,
            width_um,
        });
        self
    }

    /// The transistors in insertion order.
    pub fn transistors(&self) -> &[Transistor] {
        &self.transistors
    }

    /// Replaces the device model and gate width of an existing transistor —
    /// the device-bind primitive behind [`CompiledCircuit`]: a
    /// process-variation sample or a β re-sizing swaps the evaluator and
    /// width of a stamped instance while its terminals (and therefore the
    /// MNA sparsity pattern) stay frozen.
    ///
    /// [`CompiledCircuit`]: crate::CompiledCircuit
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `width_um <= 0`.
    pub fn set_transistor_device(
        &mut self,
        index: usize,
        model: Arc<dyn DeviceModel>,
        width_um: f64,
    ) {
        assert!(width_um > 0.0, "transistor width must be positive");
        let t = &mut self.transistors[index];
        t.model = model;
        t.width_um = width_um;
    }

    /// Registers quiescent-latency partitions — groups of transistors (one
    /// per bitcell) that the sparse transient solver may skip as a unit
    /// while every node in `watch`/`guard` stays within tolerance of the
    /// group's last refresh point (see [`crate::latency`]).
    ///
    /// Partitions are advisory: an empty registration (the default) leaves
    /// the solver on the plain per-device bypass path. For the dormancy
    /// decision to be sound, every terminal of every listed device must
    /// appear in that partition's `watch ∪ guard` or be ground.
    ///
    /// # Panics
    ///
    /// Panics if a device index is out of range, a device is claimed by two
    /// partitions, or a node does not belong to this circuit.
    pub fn set_latency_partitions(&mut self, partitions: Vec<CellPartition>) {
        let n_dev = self.transistors.len();
        let n_nodes = self.node_names.len();
        let mut owner = vec![false; n_dev];
        for (k, p) in partitions.iter().enumerate() {
            for &d in &p.devices {
                assert!(
                    d < n_dev,
                    "partition {k} references transistor {d}, but only {n_dev} exist"
                );
                assert!(
                    !std::mem::replace(&mut owner[d], true),
                    "transistor {d} claimed by more than one latency partition"
                );
            }
            for &n in p.watch.iter().chain(&p.guard) {
                assert!(
                    n.index() < n_nodes,
                    "partition {k} references a foreign node"
                );
            }
        }
        self.latency_partitions = partitions;
    }

    /// The registered quiescent-latency partitions (empty when none).
    pub fn latency_partitions(&self) -> &[CellPartition] {
        &self.latency_partitions
    }

    /// Number of elements of all types.
    pub fn element_count(&self) -> usize {
        self.resistors.len()
            + self.capacitors.len()
            + self.vsources.len()
            + self.isources.len()
            + self.transistors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfet_devices::NTfet;

    #[test]
    fn ground_is_node_zero() {
        let mut c = Circuit::new();
        assert_eq!(c.node("gnd"), Circuit::GND);
        assert_eq!(c.node("0"), Circuit::GND);
        assert!(Circuit::GND.is_ground());
    }

    #[test]
    fn nodes_are_interned_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node_count(), 3); // gnd, a, b
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("zz"), None);
    }

    #[test]
    fn builder_methods_chain_and_count() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor(a, b, 100.0).capacitor(b, Circuit::GND, 1e-15);
        let v = c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.transistor("M1", Arc::new(NTfet::nominal()), a, b, Circuit::GND, 0.1);
        assert_eq!(c.element_count(), 4);
        assert_eq!(c.vsource_info(v).name, "V1");
        assert_eq!(c.transistors().len(), 1);
    }

    #[test]
    fn waveform_swap() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let v = c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.set_vsource_wave(v, Waveform::dc(0.5));
        assert_eq!(c.vsource_info(v).wave.value(0.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resistor_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GND, 0.0);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn self_loop_capacitor_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor(a, a, 1e-15);
    }

    #[test]
    fn transistor_instance_scales_by_width() {
        let mut c = Circuit::new();
        let d = c.node("d");
        c.transistor("M1", Arc::new(NTfet::nominal()), d, d, Circuit::GND, 2.0);
        let t = &c.transistors()[0];
        let per_um = t.model.ids_per_um(1.0, 1.0, 0.0);
        assert!((t.ids(1.0, 1.0, 0.0) - 2.0 * per_um).abs() < 1e-20);
        assert!(format!("{t:?}").contains("ntfet"));
    }
}
