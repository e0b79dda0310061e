//! Topology-as-data: the [`CellTopology`] abstraction.
//!
//! Every experiment in this crate — write, read, `WL_crit`, Monte-Carlo,
//! the array engine — needs the same facts about a cell: which ports it
//! exposes, which transistor plays which [`Role`] (so process variation and
//! β-sizing bind to the right device), how its access transistors are
//! oriented, and whether it has a decoupled read port.
//!
//! [`CellTopology`] holds them as data: a *placement recipe* — the device
//! slots in stamp order, each with its role, polarity and terminals on the
//! canonical ports `q qb bl blb wl vdd vss [rbl rwl]` — plus any extra
//! resistors and capacitors. It is constructed either
//!
//! * from a built-in [`CellKind`] ([`CellTopology::builtin`]) — the recipe
//!   is written down directly, with the access orientation read from the
//!   paper's §3 table; or
//! * from a parsed [`Subckt`] ([`CellTopology::from_subckt`]) — the port
//!   list is canonicalized, every device is classified into a [`Role`] by
//!   its connectivity, and the access configuration is inferred from the
//!   access transistors' polarity and orientation. A 7T/9T-style cell whose
//!   extra devices hang off dedicated `rbl`/`rwl` ports is recognized as a
//!   read-port topology and runs the decoupled-read experiment.
//!
//! Either way the cell places through one function,
//! [`place_on_lines`](CellTopology::place_on_lines), so a built-in cell and
//! its exported deck re-imported produce the same circuit byte for byte.
//!
//! # The port contract for imported cells
//!
//! A `.subckt` must expose (case-insensitively) the seven core ports
//! `q qb bl blb wl vdd vss`, plus the optional pair `rbl rwl` for a
//! decoupled read port. Exactly one device must match each core role:
//!
//! | Role        | gate | channel touches |
//! |-------------|------|-----------------|
//! | pull-up L   | `qb` | `q` and `vdd`   |
//! | pull-down L | `qb` | `q` and `vss`   |
//! | pull-up R   | `q`  | `qb` and `vdd`  |
//! | pull-down R | `q`  | `qb` and `vss`  |
//! | access L    | `wl` | `bl` and `q`    |
//! | access R    | `wl` | `blb` and `qb`  |
//!
//! Every other device is a [`Role::ReadBuffer`] auxiliary (read stacks,
//! keepers); auxiliaries keep their deck orientation and bind the access
//! width. Capacitors from `q`/`qb` to ground are *absorbed*: storage-node
//! parasitics always come from [`CellParams::c_node`], so an imported cell
//! sees exactly the same parasitic model as a built-in one. All other
//! resistors and capacitors are kept verbatim.
//!
//! # Width and variation binding
//!
//! Devices never keep their deck widths or models: placement and
//! [`bind_devices`](CellTopology::bind_devices) derive both from
//! [`CellParams`] by role (pull-ups bind `w_pullup_um`, pull-downs
//! `β·w_access_um`, access and auxiliaries `w_access_um`), which is what
//! lets one compiled experiment sweep β and Monte-Carlo variations on an
//! imported cell exactly as on a built-in one.

use crate::error::SramError;
use crate::tech::{AccessConfig, CellKind, CellModels, CellParams, Role};
use std::collections::HashMap;
use std::sync::Arc;
use tfet_circuit::spice::FlatDevice;
use tfet_circuit::{Circuit, CompiledCircuit, NodeId, Subckt, SubcktCard};
use tfet_devices::{DeviceModel, Polarity};

/// The named nodes of a placed SRAM cell.
#[derive(Debug, Clone, Copy)]
pub struct CellNodes {
    /// Storage node (left).
    pub q: NodeId,
    /// Complementary storage node (right).
    pub qb: NodeId,
    /// Bitline on the `q` side (write bitline for a read-port cell).
    pub bl: NodeId,
    /// Bitline on the `qb` side.
    pub blb: NodeId,
    /// Wordline (write wordline for a read-port cell).
    pub wl: NodeId,
    /// Cell supply rail (a distinct node so V_DD assists can reshape it).
    pub vdd: NodeId,
    /// Cell ground rail (a distinct node so GND assists can reshape it).
    pub vss: NodeId,
    /// Read-port cells only: read bitline.
    pub rbl: Option<NodeId>,
    /// Read-port cells only: read wordline (source line of the read buffer).
    pub rwl: Option<NodeId>,
}

/// The shared lines a cell connects to: its column's bitlines, its row's
/// wordline, and the rails.
/// [`place_on_lines`](CellTopology::place_on_lines) lets many cells share
/// these nodes, which is how arrays are assembled.
#[derive(Debug, Clone, Copy)]
pub struct CellLines {
    /// Bitline (write bitline for a read-port cell).
    pub bl: NodeId,
    /// Complement bitline.
    pub blb: NodeId,
    /// Wordline.
    pub wl: NodeId,
    /// Supply rail.
    pub vdd: NodeId,
    /// Ground rail.
    pub vss: NodeId,
    /// Read-port cells only: read bitline.
    pub rbl: Option<NodeId>,
    /// Read-port cells only: read wordline.
    pub rwl: Option<NodeId>,
}

/// One transistor slot of a topology: its instance name, its electrical
/// [`Role`] (which selects the variation stream and the width rule), its
/// polarity, and its index in the placed circuit's device vector (the
/// stamp order, which is also the bind order).
#[derive(Debug, Clone)]
pub struct DeviceSlot {
    /// Instance name (`MPU_L`… for built-in cells, the deck name for
    /// imported ones).
    pub name: String,
    /// Electrical role — keys the per-device process variation and the
    /// width rule.
    pub role: Role,
    /// Whether the device is n-type.
    pub n_type: bool,
    /// Device index in stamp order (the index
    /// [`CompiledCircuit::bind_device`] expects).
    pub index: usize,
}

/// The canonical cell ports, in export order: seven core ports, then the
/// optional read-port pair.
const PORTS: [&str; 9] = ["q", "qb", "bl", "blb", "wl", "vdd", "vss", "rbl", "rwl"];

/// A canonical node reference inside a cell recipe: one of the contract
/// ports, global ground, or a cell-internal node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeRef {
    Q,
    Qb,
    Bl,
    Blb,
    Wl,
    Vdd,
    Vss,
    Rbl,
    Rwl,
    Gnd,
    Internal(String),
}

impl NodeRef {
    /// The node's name in an exported `.subckt`.
    fn deck_name(&self) -> &str {
        match self {
            NodeRef::Q => PORTS[0],
            NodeRef::Qb => PORTS[1],
            NodeRef::Bl => PORTS[2],
            NodeRef::Blb => PORTS[3],
            NodeRef::Wl => PORTS[4],
            NodeRef::Vdd => PORTS[5],
            NodeRef::Vss => PORTS[6],
            NodeRef::Rbl => PORTS[7],
            NodeRef::Rwl => PORTS[8],
            NodeRef::Gnd => "0",
            NodeRef::Internal(n) => n,
        }
    }
}

/// The terminals of one recipe device, resolved to canonical references.
/// Stored in slot order; the instance name lives on the matching
/// [`DeviceSlot`].
#[derive(Debug, Clone)]
struct RecipeDevice {
    d: NodeRef,
    g: NodeRef,
    s: NodeRef,
}

/// A kept (non-absorbed) resistor or capacitor of an imported cell.
#[derive(Debug, Clone)]
struct DeckTwoTerminal {
    a: NodeRef,
    b: NodeRef,
    value: f64,
}

/// The paper's §3 design space as data: for each access configuration,
/// whether the device is n-type and whether its drain (rather than its
/// source) sits at the bitline. See [`CellTopology::builtin`].
const ORIENTATION: [(AccessConfig, bool, bool); 4] = [
    (AccessConfig::InwardN, true, true),
    (AccessConfig::InwardP, false, false),
    (AccessConfig::OutwardN, true, false),
    (AccessConfig::OutwardP, false, true),
];

/// A cell topology as data: ports, device slots with roles, the placement
/// recipe, access orientation, read-port flag. See the module docs.
#[derive(Debug, Clone)]
pub struct CellTopology {
    name: String,
    /// The built-in kind this recipe was written for.
    kind: Option<CellKind>,
    /// The imported definition, kept for re-export.
    subckt: Option<Subckt>,
    access: AccessConfig,
    has_read_port: bool,
    slots: Vec<DeviceSlot>,
    /// Device terminals, in slot order.
    devices: Vec<RecipeDevice>,
    /// Extra resistors, in deck order.
    resistors: Vec<DeckTwoTerminal>,
    /// Extra capacitors (storage-node caps absorbed), in deck order.
    capacitors: Vec<DeckTwoTerminal>,
}

/// A cell placed into a circuit: its contract nodes plus any cell-internal
/// nodes an imported topology created (read-stack midpoints and the like —
/// an array partition must watch these too).
#[derive(Debug, Clone)]
pub struct PlacedCell {
    /// The contract nodes.
    pub nodes: CellNodes,
    /// Cell-internal nodes beyond `q`/`qb` (always empty for built-in
    /// topologies).
    pub internal: Vec<NodeId>,
}

impl CellTopology {
    /// The topology of a built-in cell kind: two cross-coupled inverters
    /// (`MPU_L`/`MPD_L` drive `q` from `qb`, `MPU_R`/`MPD_R` drive `qb`
    /// from `q`; pull-ups source at `vdd`, pull-downs at `vss`), the access
    /// pair `MAL` (`bl`–`q`) and `MAR` (`blb`–`qb`) gated by `wl`, and for
    /// the 7T cell the single-transistor read buffer `MRD` (gate `qb`,
    /// drain `rbl`, source `rwl`, an active-low source line).
    ///
    /// A TFET conducts only from drain to source (n-type) or source to
    /// drain (p-type), so each access configuration of the paper's §3 is a
    /// terminal order for the access pair:
    ///
    /// | Config    | Conducts | n/p | Terminal at bitline |
    /// |-----------|----------|-----|---------------------|
    /// | inward n  | B → Q    | n   | drain               |
    /// | inward p  | B → Q    | p   | source              |
    /// | outward n | Q → B    | n   | source              |
    /// | outward p | Q → B    | p   | drain               |
    ///
    /// The CMOS cell uses (bidirectional) n-MOS access devices wired like
    /// inward-n TFETs; the distinction is immaterial for a symmetric
    /// device. The 7T write port and the asymmetric cell use outward n.
    pub fn builtin(kind: CellKind) -> Self {
        use NodeRef::{Bl, Blb, Qb, Rbl, Rwl, Vdd, Vss, Wl, Q};
        let access = kind.access();
        let &(_, n_access, drain_at_bitline) = ORIENTATION
            .iter()
            .find(|o| o.0 == access)
            .expect("every access configuration is in the orientation table");
        let access_device = |bitline: NodeRef, cell: NodeRef| {
            let (d, s) = if drain_at_bitline {
                (bitline, cell)
            } else {
                (cell, bitline)
            };
            RecipeDevice { d, g: Wl, s }
        };
        let dev = |d, g, s| RecipeDevice { d, g, s };
        let mut recipe = vec![
            ("MPU_L", Role::PullUpLeft, false, dev(Q, Qb, Vdd)),
            ("MPD_L", Role::PullDownLeft, true, dev(Q, Qb, Vss)),
            ("MPU_R", Role::PullUpRight, false, dev(Qb, Q, Vdd)),
            ("MPD_R", Role::PullDownRight, true, dev(Qb, Q, Vss)),
            ("MAL", Role::AccessLeft, n_access, access_device(Bl, Q)),
            ("MAR", Role::AccessRight, n_access, access_device(Blb, Qb)),
        ];
        let has_read_port = kind == CellKind::Tfet7T;
        if has_read_port {
            recipe.push(("MRD", Role::ReadBuffer, true, dev(Rbl, Qb, Rwl)));
        }
        let (slots, devices) = recipe
            .into_iter()
            .enumerate()
            .map(|(index, (name, role, n_type, device))| {
                let slot = DeviceSlot {
                    name: name.to_string(),
                    role,
                    n_type,
                    index,
                };
                (slot, device)
            })
            .unzip();
        CellTopology {
            name: format!("{kind:?}"),
            kind: Some(kind),
            subckt: None,
            access,
            has_read_port,
            slots,
            devices,
            resistors: Vec::new(),
            capacitors: Vec::new(),
        }
    }

    /// Builds a topology from a parsed `.subckt` definition. `all` resolves
    /// nested subcircuit calls; `models` resolves device model names to
    /// polarities (use [`tfet_devices::standard_models`]).
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidParameter`] when the port contract is violated,
    /// a core role is missing or duplicated, a model name is unknown, or
    /// the two access devices disagree on polarity/orientation;
    /// [`SramError::Sim`] when flattening fails (unknown or recursive
    /// subcircuit).
    pub fn from_subckt(
        sub: &Subckt,
        all: &[Subckt],
        models: &HashMap<String, Arc<dyn DeviceModel>>,
    ) -> Result<Self, SramError> {
        let flat = sub.flatten(all)?;
        let bad =
            |msg: String| SramError::InvalidParameter(format!("subckt `{}`: {msg}", sub.name));

        // Canonicalize the port list.
        let mut port_map: HashMap<String, NodeRef> = HashMap::new();
        for port in &sub.ports {
            let canon = match port.to_ascii_lowercase().as_str() {
                "q" => NodeRef::Q,
                "qb" => NodeRef::Qb,
                "bl" => NodeRef::Bl,
                "blb" => NodeRef::Blb,
                "wl" => NodeRef::Wl,
                "vdd" => NodeRef::Vdd,
                "vss" => NodeRef::Vss,
                "rbl" => NodeRef::Rbl,
                "rwl" => NodeRef::Rwl,
                other => {
                    return Err(bad(format!(
                        "port `{other}` is not in the cell port contract \
                         (q qb bl blb wl vdd vss [rbl rwl])"
                    )))
                }
            };
            if port_map.values().any(|v| *v == canon) {
                return Err(bad(format!("duplicate port `{port}`")));
            }
            port_map.insert(port.clone(), canon);
        }
        for required in &PORTS[..7] {
            if !sub.ports.iter().any(|p| p.eq_ignore_ascii_case(required)) {
                return Err(bad(format!("missing required port `{required}`")));
            }
        }
        let has_rbl = sub.ports.iter().any(|p| p.eq_ignore_ascii_case("rbl"));
        let has_rwl = sub.ports.iter().any(|p| p.eq_ignore_ascii_case("rwl"));
        if has_rbl != has_rwl {
            return Err(bad("ports rbl and rwl must be declared together".into()));
        }
        let has_read_port = has_rbl && has_rwl;

        let noderef = |n: &str| -> NodeRef {
            if n == "0" || n.eq_ignore_ascii_case("gnd") {
                NodeRef::Gnd
            } else if let Some(r) = port_map.get(n) {
                r.clone()
            } else {
                NodeRef::Internal(n.to_string())
            }
        };

        // Classify every device into a role by connectivity.
        let core_role = |d: &FlatDevice| -> Option<Role> {
            let dr = noderef(&d.d);
            let g = noderef(&d.g);
            let sr = noderef(&d.s);
            let touches = |r: NodeRef| dr == r || sr == r;
            if g == NodeRef::Qb && touches(NodeRef::Q) && touches(NodeRef::Vdd) {
                Some(Role::PullUpLeft)
            } else if g == NodeRef::Qb && touches(NodeRef::Q) && touches(NodeRef::Vss) {
                Some(Role::PullDownLeft)
            } else if g == NodeRef::Q && touches(NodeRef::Qb) && touches(NodeRef::Vdd) {
                Some(Role::PullUpRight)
            } else if g == NodeRef::Q && touches(NodeRef::Qb) && touches(NodeRef::Vss) {
                Some(Role::PullDownRight)
            } else if g == NodeRef::Wl && touches(NodeRef::Bl) && touches(NodeRef::Q) {
                Some(Role::AccessLeft)
            } else if g == NodeRef::Wl && touches(NodeRef::Blb) && touches(NodeRef::Qb) {
                Some(Role::AccessRight)
            } else {
                None
            }
        };

        const CORE: [Role; 6] = [
            Role::PullUpLeft,
            Role::PullDownLeft,
            Role::PullUpRight,
            Role::PullDownRight,
            Role::AccessLeft,
            Role::AccessRight,
        ];
        let mut by_role: HashMap<Role, Vec<usize>> = HashMap::new();
        let mut auxiliaries: Vec<usize> = Vec::new();
        for (k, dev) in flat.devices.iter().enumerate() {
            match core_role(dev) {
                Some(role) => by_role.entry(role).or_default().push(k),
                None => auxiliaries.push(k),
            }
        }
        let mut ordered: Vec<(usize, Role)> = Vec::with_capacity(flat.devices.len());
        for role in CORE {
            match by_role.get(&role).map(Vec::as_slice) {
                Some([k]) => ordered.push((*k, role)),
                Some(many) => {
                    let names: Vec<&str> = many
                        .iter()
                        .map(|&k| flat.devices[k].name.as_str())
                        .collect();
                    return Err(bad(format!(
                        "{} devices match role {role:?}: {names:?}",
                        many.len()
                    )));
                }
                None => return Err(bad(format!("no device matches role {role:?}"))),
            }
        }
        ordered.extend(auxiliaries.iter().map(|&k| (k, Role::ReadBuffer)));

        // Polarity from the model registry.
        let polarity = |k: usize| -> Result<bool, SramError> {
            let dev = &flat.devices[k];
            let model = models.get(&dev.model).ok_or_else(|| {
                bad(format!(
                    "unknown model `{}` on device `{}`",
                    dev.model, dev.name
                ))
            })?;
            Ok(model.polarity() == Polarity::N)
        };

        // Access configuration from the access transistors' polarity and
        // bitline terminal, read backwards through the orientation table.
        let access_of = |k: usize, bitline: NodeRef| -> Result<AccessConfig, SramError> {
            let n = polarity(k)?;
            let at_drain = noderef(&flat.devices[k].d) == bitline;
            Ok(ORIENTATION
                .iter()
                .find(|o| o.1 == n && o.2 == at_drain)
                .expect("the orientation table covers every polarity and terminal")
                .0)
        };
        let (al, _) = ordered[4];
        let (ar, _) = ordered[5];
        let access = access_of(al, NodeRef::Bl)?;
        let access_r = access_of(ar, NodeRef::Blb)?;
        if access != access_r {
            return Err(bad(format!(
                "access devices disagree: left is {access:?}, right is {access_r:?}"
            )));
        }

        let mut slots = Vec::with_capacity(ordered.len());
        let mut devices = Vec::with_capacity(ordered.len());
        for (index, &(k, role)) in ordered.iter().enumerate() {
            let dev = &flat.devices[k];
            slots.push(DeviceSlot {
                name: dev.name.clone(),
                role,
                n_type: polarity(k)?,
                index,
            });
            devices.push(RecipeDevice {
                d: noderef(&dev.d),
                g: noderef(&dev.g),
                s: noderef(&dev.s),
            });
        }

        // Absorb storage-node parasitics; keep everything else.
        let is_storage_cap = |a: &NodeRef, b: &NodeRef| {
            let pair = |x: &NodeRef, y: &NodeRef| {
                (*x == NodeRef::Q || *x == NodeRef::Qb) && *y == NodeRef::Gnd
            };
            pair(a, b) || pair(b, a)
        };
        let two_terminal = |t: &tfet_circuit::spice::FlatTwoTerminal| DeckTwoTerminal {
            a: noderef(&t.a),
            b: noderef(&t.b),
            value: t.value,
        };
        let resistors: Vec<DeckTwoTerminal> = flat.resistors.iter().map(two_terminal).collect();
        let capacitors: Vec<DeckTwoTerminal> = flat
            .capacitors
            .iter()
            .map(two_terminal)
            .filter(|c| !is_storage_cap(&c.a, &c.b))
            .collect();

        Ok(CellTopology {
            name: sub.name.clone(),
            kind: None,
            subckt: Some(sub.clone()),
            access,
            has_read_port,
            slots,
            devices,
            resistors,
            capacitors,
        })
    }

    /// The topology's name: the `CellKind` debug form for built-in cells,
    /// the `.subckt` name for imported ones.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The built-in kind, if this topology came from one.
    pub fn kind(&self) -> Option<CellKind> {
        self.kind
    }

    /// The access-transistor configuration (orientation × polarity).
    pub fn access(&self) -> AccessConfig {
        self.access
    }

    /// Whether the cell has a decoupled read port (`rbl`/`rwl`).
    pub fn has_read_port(&self) -> bool {
        self.has_read_port
    }

    /// Whether the write bitlines idle at 0 V instead of V_DD. True for
    /// read-port cells with outward access (the 7T trick: dedicated write
    /// bitlines held low avoid reverse-bias leakage through the outward
    /// access devices); all other cells clamp their bitlines high in
    /// standby.
    pub fn bl_idle_low(&self) -> bool {
        self.has_read_port && !self.access.is_inward()
    }

    /// The device slots, in stamp/bind order.
    pub fn slots(&self) -> &[DeviceSlot] {
        &self.slots
    }

    /// Number of transistors in the cell.
    pub fn device_count(&self) -> usize {
        self.slots.len()
    }

    /// The width rule for a role, µm.
    fn width_for(&self, role: Role, params: &CellParams) -> f64 {
        match role {
            Role::PullUpLeft | Role::PullUpRight => params.sizing.w_pullup_um,
            Role::PullDownLeft | Role::PullDownRight => params.sizing.w_pulldown_um(),
            Role::AccessLeft | Role::AccessRight | Role::ReadBuffer => params.sizing.w_access_um,
        }
    }

    /// Places the cell into `c` with fresh (unshared) lines and no prefix —
    /// the single-cell experiment form. It does *not* attach sources or
    /// bitline loads — each operation (hold, write, read) wires those
    /// differently, which is exactly the job of [`crate::ops`].
    ///
    /// # Examples
    ///
    /// ```
    /// use tfet_circuit::Circuit;
    /// use tfet_sram::prelude::*;
    ///
    /// let params = CellParams::tfet6t(AccessConfig::InwardP);
    /// let mut c = Circuit::new();
    /// let nodes = CellTopology::builtin(params.kind).place(&mut c, &params).nodes;
    /// assert_eq!(c.transistors().len(), 6);
    /// assert_ne!(nodes.q, nodes.qb);
    /// ```
    pub fn place(&self, c: &mut Circuit, params: &CellParams) -> PlacedCell {
        self.place_named(c, params, "")
    }

    /// Places the cell with every node and instance name prefixed, creating
    /// its own line nodes — the building block for multi-cell circuits
    /// (half-select studies, small arrays). To share lines between cells
    /// use [`place_on_lines`](Self::place_on_lines).
    pub fn place_named(&self, c: &mut Circuit, params: &CellParams, prefix: &str) -> PlacedCell {
        let name = |n: &str| format!("{prefix}{n}");
        let lines = CellLines {
            bl: c.node(&name("bl")),
            blb: c.node(&name("blb")),
            wl: c.node(&name("wl")),
            vdd: c.node(&name("vdd_cell")),
            vss: c.node(&name("vss_cell")),
            rbl: self.has_read_port.then(|| c.node(&name("rbl"))),
            rwl: self.has_read_port.then(|| c.node(&name("rwl"))),
        };
        self.place_on_lines(c, &mut CellModels::new(params), prefix, &lines)
    }

    /// Places the cell on the given (possibly shared) lines — the one
    /// placer every topology goes through. Stamps the storage nodes, then
    /// the recipe's devices in slot order with the storage-node parasitics
    /// between the inverter pair and the access devices, then any kept
    /// extras. Instance and internal node names are prefixed.
    ///
    /// The cell design is `models.params()`, and every device takes its
    /// model from `models`: placing many cells with one [`CellModels`]
    /// shares one model per role and polarity among all of them.
    ///
    /// # Panics
    ///
    /// Panics if a read-port cell is placed on lines without `rbl`/`rwl`.
    pub fn place_on_lines(
        &self,
        c: &mut Circuit,
        models: &mut CellModels<'_>,
        prefix: &str,
        lines: &CellLines,
    ) -> PlacedCell {
        let params = models.params();
        let name = |n: &str| format!("{prefix}{n}");
        let q = c.node(&name("q"));
        let qb = c.node(&name("qb"));
        let (rbl, rwl) = if self.has_read_port {
            (
                Some(lines.rbl.expect("read-port cell requires an rbl line")),
                Some(lines.rwl.expect("read-port cell requires an rwl line")),
            )
        } else {
            (None, None)
        };
        let mut internal: Vec<NodeId> = Vec::new();
        let mut interned: HashMap<String, NodeId> = HashMap::new();
        let mut resolve = |c: &mut Circuit, r: &NodeRef| -> NodeId {
            match r {
                NodeRef::Q => q,
                NodeRef::Qb => qb,
                NodeRef::Bl => lines.bl,
                NodeRef::Blb => lines.blb,
                NodeRef::Wl => lines.wl,
                NodeRef::Vdd => lines.vdd,
                NodeRef::Vss => lines.vss,
                NodeRef::Rbl => rbl.expect("read-port cell requires an rbl line"),
                NodeRef::Rwl => rwl.expect("read-port cell requires an rwl line"),
                NodeRef::Gnd => Circuit::GND,
                NodeRef::Internal(n) => *interned.entry(n.clone()).or_insert_with(|| {
                    let id = c.node(&name(n));
                    internal.push(id);
                    id
                }),
            }
        };

        for (k, (slot, dev)) in self.slots.iter().zip(&self.devices).enumerate() {
            if k == 4 {
                c.capacitor(q, Circuit::GND, params.c_node);
                c.capacitor(qb, Circuit::GND, params.c_node);
            }
            let d = resolve(c, &dev.d);
            let g = resolve(c, &dev.g);
            let s = resolve(c, &dev.s);
            c.transistor(
                &name(&slot.name),
                models.model(slot.role, slot.n_type),
                d,
                g,
                s,
                self.width_for(slot.role, params),
            );
        }
        for r in &self.resistors {
            let a = resolve(c, &r.a);
            let b = resolve(c, &r.b);
            c.resistor(a, b, r.value);
        }
        for cap in &self.capacitors {
            let a = resolve(c, &cap.a);
            let b = resolve(c, &cap.b);
            c.capacitor(a, b, cap.value);
        }

        PlacedCell {
            nodes: CellNodes {
                q,
                qb,
                bl: lines.bl,
                blb: lines.blb,
                wl: lines.wl,
                vdd: lines.vdd,
                vss: lines.vss,
                rbl,
                rwl,
            },
            internal,
        }
    }

    /// Rebinds every device slot of a compiled single-cell experiment to
    /// the models and widths `params` implies, keyed by role. `base` is the
    /// device index the cell's first slot was stamped at (0 for single-cell
    /// experiments; a partition offset inside an array).
    pub fn bind_devices_at(
        &self,
        compiled: &mut CompiledCircuit,
        params: &CellParams,
        base: usize,
    ) {
        for slot in &self.slots {
            compiled.bind_device(
                base + slot.index,
                params.model(slot.role, slot.n_type),
                self.width_for(slot.role, params),
            );
        }
    }

    /// [`bind_devices_at`](Self::bind_devices_at) with the cell at device
    /// index 0 — the single-cell experiment form.
    pub fn bind_devices(&self, compiled: &mut CompiledCircuit, params: &CellParams) {
        self.bind_devices_at(compiled, params, 0);
    }

    /// Exports the cell as a `.subckt` definition with the canonical port
    /// list, sized by `params`. An imported topology returns its original
    /// definition (renamed); a built-in topology serializes its recipe in
    /// stamp order, storage caps included. Round-trips through
    /// [`CellTopology::from_subckt`] to an equivalent topology.
    pub fn export_subckt(&self, params: &CellParams, name: &str) -> Subckt {
        if let Some(sub) = &self.subckt {
            let mut sub = sub.clone();
            sub.name = name.to_string();
            return sub;
        }
        let storage_cap = |name: &str, node: &str| SubcktCard::Capacitor {
            name: name.to_string(),
            a: node.to_string(),
            b: "0".to_string(),
            farads: params.c_node,
        };
        let mut cards = Vec::new();
        for (k, (slot, dev)) in self.slots.iter().zip(&self.devices).enumerate() {
            if k == 4 {
                cards.push(storage_cap("Q", "q"));
                cards.push(storage_cap("QB", "qb"));
            }
            cards.push(SubcktCard::Device {
                name: slot.name.clone(),
                d: dev.d.deck_name().to_string(),
                g: dev.g.deck_name().to_string(),
                s: dev.s.deck_name().to_string(),
                model: params.model(slot.role, slot.n_type).name().to_string(),
                width_um: self.width_for(slot.role, params),
            });
        }
        let n_ports = if self.has_read_port { 9 } else { 7 };
        Subckt {
            name: name.to_string(),
            ports: PORTS[..n_ports].iter().map(|p| p.to_string()).collect(),
            cards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::CellSizing;
    use tfet_devices::standard_models;

    fn models() -> HashMap<String, Arc<dyn DeviceModel>> {
        standard_models()
    }

    fn roundtrip(kind: CellKind, params: &CellParams) -> CellTopology {
        let topo = CellTopology::builtin(kind);
        let sub = topo.export_subckt(params, "cell");
        CellTopology::from_subckt(&sub, &[], &models()).expect("exported cell re-imports")
    }

    #[test]
    fn builtin_slots_match_stamp_order() {
        let topo = CellTopology::builtin(CellKind::Tfet6T(AccessConfig::InwardP));
        assert_eq!(topo.device_count(), 6);
        assert_eq!(topo.slots()[0].role, Role::PullUpLeft);
        assert_eq!(topo.slots()[5].role, Role::AccessRight);
        assert!(!topo.slots()[4].n_type, "inward-p access is p-type");
        assert_eq!(topo.access(), AccessConfig::InwardP);
        assert!(!topo.has_read_port());
        assert!(!topo.bl_idle_low());
        let t7 = CellTopology::builtin(CellKind::Tfet7T);
        assert_eq!(t7.device_count(), 7);
        assert_eq!(t7.slots()[6].role, Role::ReadBuffer);
        assert!(t7.has_read_port());
        assert!(t7.bl_idle_low(), "7T write bitlines idle low");
    }

    #[test]
    fn exported_6t_reimports_with_identical_roles() {
        let params = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
        let topo = roundtrip(params.kind, &params);
        assert_eq!(topo.device_count(), 6);
        assert_eq!(topo.access(), AccessConfig::InwardP);
        let builtin = CellTopology::builtin(params.kind);
        for (a, b) in topo.slots().iter().zip(builtin.slots()) {
            assert_eq!(a.role, b.role, "{} vs {}", a.name, b.name);
            assert_eq!(a.n_type, b.n_type);
            assert_eq!(a.name, b.name);
        }
    }

    /// Every built-in kind, in the paper's order.
    const KINDS: [CellKind; 7] = [
        CellKind::Cmos6T,
        CellKind::Tfet6T(AccessConfig::InwardN),
        CellKind::Tfet6T(AccessConfig::InwardP),
        CellKind::Tfet6T(AccessConfig::OutwardN),
        CellKind::Tfet6T(AccessConfig::OutwardP),
        CellKind::TfetAsym6T,
        CellKind::Tfet7T,
    ];

    #[test]
    fn exported_deck_places_byte_identically_to_builder() {
        // A built-in recipe exported, re-imported and placed must reproduce
        // the built-in placement exactly — node names, stamp order, models,
        // widths — for every kind, and under an instance prefix.
        for kind in KINDS {
            let params = CellParams::new(kind).with_beta(0.6);
            let builtin = CellTopology::builtin(kind);
            let topo = roundtrip(kind, &params);
            for prefix in ["", "r3c5_"] {
                let mut from_deck = Circuit::new();
                topo.place_named(&mut from_deck, &params, prefix);
                let mut from_builtin = Circuit::new();
                builtin.place_named(&mut from_builtin, &params, prefix);
                assert_eq!(
                    from_deck.to_spice("cell"),
                    from_builtin.to_spice("cell"),
                    "{kind:?} `{prefix}`: deck placement must be byte-identical"
                );
            }
        }
    }

    #[test]
    fn every_builtin_kind_roundtrips_access_and_ports() {
        for kind in KINDS {
            let params = CellParams::new(kind);
            let topo = roundtrip(kind, &params);
            assert_eq!(topo.access(), kind.access(), "{kind:?}");
            assert_eq!(topo.has_read_port(), kind == CellKind::Tfet7T, "{kind:?}");
        }
    }

    #[test]
    fn missing_port_is_rejected() {
        let params = CellParams::tfet6t(AccessConfig::InwardP);
        let topo = CellTopology::builtin(params.kind);
        let mut sub = topo.export_subckt(&params, "cell");
        sub.ports.retain(|p| p != "wl");
        let err = CellTopology::from_subckt(&sub, &[], &models()).unwrap_err();
        assert!(err.to_string().contains("wl"), "{err}");
    }

    #[test]
    fn duplicated_role_is_rejected() {
        let params = CellParams::tfet6t(AccessConfig::InwardP);
        let topo = CellTopology::builtin(params.kind);
        let mut sub = topo.export_subckt(&params, "cell");
        let dup = sub.cards[0].clone();
        sub.cards.push(dup);
        let err = CellTopology::from_subckt(&sub, &[], &models()).unwrap_err();
        assert!(err.to_string().contains("PullUpLeft"), "{err}");
    }

    #[test]
    fn unknown_model_is_rejected() {
        let params = CellParams::tfet6t(AccessConfig::InwardP);
        let topo = CellTopology::builtin(params.kind);
        let mut sub = topo.export_subckt(&params, "cell");
        if let SubcktCard::Device { model, .. } = &mut sub.cards[0] {
            *model = "mystery".to_string();
        }
        let err = CellTopology::from_subckt(&sub, &[], &models()).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }

    #[test]
    fn storage_caps_are_absorbed_not_duplicated() {
        let params = CellParams::tfet6t(AccessConfig::InwardP);
        let topo = roundtrip(params.kind, &params);
        let mut c = Circuit::new();
        topo.place(&mut c, &params);
        // Exactly the two canonical storage caps, no extras.
        let deck_text = c.to_spice("cell");
        let cap_lines = deck_text.lines().filter(|l| l.starts_with('C')).count();
        assert_eq!(cap_lines, 2, "{deck_text}");
    }

    #[test]
    fn read_port_ports_must_come_in_pairs() {
        let params = CellParams::new(CellKind::Tfet7T);
        let topo = CellTopology::builtin(params.kind);
        let mut sub = topo.export_subckt(&params, "cell");
        sub.ports.retain(|p| p != "rwl");
        let err = CellTopology::from_subckt(&sub, &[], &models()).unwrap_err();
        assert!(err.to_string().contains("rbl"), "{err}");
    }

    /// Places a built-in recipe at β = 1.5 for the placement tests below.
    fn place(kind: CellKind) -> (Circuit, CellNodes, CellParams) {
        let mut params = CellParams::new(kind);
        params.sizing = CellSizing::with_beta(1.5);
        let mut c = Circuit::new();
        let nodes = CellTopology::builtin(kind).place(&mut c, &params).nodes;
        (c, nodes, params)
    }

    #[test]
    fn six_transistor_cells_have_six_transistors() {
        for kind in [
            CellKind::Cmos6T,
            CellKind::Tfet6T(AccessConfig::InwardP),
            CellKind::TfetAsym6T,
        ] {
            let (c, _, _) = place(kind);
            assert_eq!(c.transistors().len(), 6, "{kind:?}");
        }
    }

    #[test]
    fn seven_t_has_read_port() {
        let (c, nodes, _) = place(CellKind::Tfet7T);
        assert_eq!(c.transistors().len(), 7);
        assert!(nodes.rbl.is_some() && nodes.rwl.is_some());
    }

    #[test]
    fn six_t_has_no_read_port() {
        let (_, nodes, _) = place(CellKind::Cmos6T);
        assert!(nodes.rbl.is_none() && nodes.rwl.is_none());
    }

    #[test]
    fn pulldown_width_follows_beta() {
        let (c, _, params) = place(CellKind::Tfet6T(AccessConfig::InwardP));
        let pd = c
            .transistors()
            .iter()
            .find(|t| t.name == "MPD_L")
            .expect("left pull-down");
        assert!((pd.width_um - params.sizing.w_pulldown_um()).abs() < 1e-12);
        assert!((pd.width_um - 0.15).abs() < 1e-12);
    }

    #[test]
    fn inward_p_access_has_source_at_bitline() {
        let (c, nodes, _) = place(CellKind::Tfet6T(AccessConfig::InwardP));
        let mal = c
            .transistors()
            .iter()
            .find(|t| t.name == "MAL")
            .expect("left access");
        assert_eq!(mal.s, nodes.bl, "inward-p source at bitline");
        assert_eq!(mal.d, nodes.q);
        assert_eq!(mal.g, nodes.wl);
        assert_eq!(mal.model.name(), "ptfet");
    }

    #[test]
    fn outward_n_access_has_source_at_bitline() {
        let (c, nodes, _) = place(CellKind::Tfet6T(AccessConfig::OutwardN));
        let mar = c
            .transistors()
            .iter()
            .find(|t| t.name == "MAR")
            .expect("right access");
        assert_eq!(mar.d, nodes.qb, "outward-n drain at cell node");
        assert_eq!(mar.s, nodes.blb);
        assert_eq!(mar.model.name(), "ntfet");
    }

    #[test]
    fn inward_n_access_has_drain_at_bitline() {
        let (c, nodes, _) = place(CellKind::Tfet6T(AccessConfig::InwardN));
        let mal = c.transistors().iter().find(|t| t.name == "MAL").unwrap();
        assert_eq!(mal.d, nodes.bl);
        assert_eq!(mal.s, nodes.q);
        assert_eq!(mal.model.name(), "ntfet");
    }

    #[test]
    fn outward_p_access_has_drain_at_bitline() {
        let (c, nodes, _) = place(CellKind::Tfet6T(AccessConfig::OutwardP));
        let mal = c.transistors().iter().find(|t| t.name == "MAL").unwrap();
        assert_eq!(mal.d, nodes.bl);
        assert_eq!(mal.s, nodes.q);
        assert_eq!(mal.model.name(), "ptfet");
    }

    #[test]
    fn inverters_are_cross_coupled() {
        let (c, nodes, _) = place(CellKind::Cmos6T);
        let pu_l = c.transistors().iter().find(|t| t.name == "MPU_L").unwrap();
        assert_eq!(pu_l.g, nodes.qb, "left inverter input is qb");
        assert_eq!(pu_l.d, nodes.q, "left inverter output is q");
        assert_eq!(pu_l.s, nodes.vdd, "pull-up source at the supply rail");
        let pd_r = c.transistors().iter().find(|t| t.name == "MPD_R").unwrap();
        assert_eq!(pd_r.g, nodes.q);
        assert_eq!(pd_r.d, nodes.qb);
        assert_eq!(pd_r.s, nodes.vss, "pull-down source at the ground rail");
    }

    #[test]
    fn seven_t_read_buffer_wiring() {
        let (c, nodes, _) = place(CellKind::Tfet7T);
        let rd = c.transistors().iter().find(|t| t.name == "MRD").unwrap();
        assert_eq!(rd.g, nodes.qb, "read buffer gated by qb");
        assert_eq!(rd.d, nodes.rbl.unwrap());
        assert_eq!(rd.s, nodes.rwl.unwrap());
    }

    #[test]
    fn cmos_access_uses_nmos() {
        let (c, _, _) = place(CellKind::Cmos6T);
        let mal = c.transistors().iter().find(|t| t.name == "MAL").unwrap();
        assert_eq!(mal.model.name(), "nmos");
    }
}
