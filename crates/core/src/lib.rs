//! 6T tunneling-FET SRAM design study — the core library of this workspace.
//!
//! This crate reproduces the system of *Robust 6T Si tunneling transistor
//! SRAM design* (Yang & Mohanram, DATE 2011) on top of the
//! `tfet-devices` compact models and the `tfet-circuit` simulator:
//!
//! * [`tech`] — cell parameterization: technology, access-transistor
//!   configuration (inward/outward × n/p — the paper's §3 design space),
//!   cell-ratio β sizing, supply voltage, per-transistor process variation;
//! * [`topology`] — cells as data: each topology is a placement recipe
//!   (device slots with roles and terminals) placed by one function. The
//!   built-in recipes are the 6T cell (CMOS or TFET, any access
//!   configuration) plus the comparison topologies of §5: the 7T TFET SRAM
//!   with a separate read port \[Kim, ISLPED'09\] and the asymmetric 6T
//!   TFET SRAM \[Singh, ASP-DAC'10\]; imported `.subckt` decks become
//!   recipes the same way;
//! * [`assist`] — the four write-assist and four read-assist techniques of
//!   §4, each expressed as a reshaped bias waveform at 30 % of V_DD;
//! * [`ops`] — hold / write / read operation drivers (timing schedules,
//!   stimulus construction), each also available as a *compiled
//!   experiment* ([`ops::WriteExperiment`], [`ops::ReadExperiment`]) that
//!   builds its circuit once and re-runs it under rebound pulse widths and
//!   device variations — the engine behind every sweep, search and
//!   Monte-Carlo batch in the crate;
//! * [`metrics`] — the paper's measurements: hold static power, dynamic
//!   read noise margin (DRNM), critical wordline pulse width (WL_crit),
//!   and write/read delays;
//! * [`montecarlo`] — §4.3's ±5 % gate-oxide-thickness Monte-Carlo;
//! * [`rare_event`] — scaled-sigma importance sampling over a correlated
//!   multi-factor process model: tail failure probabilities (write failure
//!   past the pulse budget, DRNM below threshold) at 5–6σ depths that
//!   brute force cannot reach;
//! * [`snm`] — classical static noise margins (Seevinck butterfly), the
//!   baseline metric family the paper's dynamic approach replaces;
//! * [`array_netlist`] — the array engine: R×C cells on shared wordlines
//!   and bitlines (half-select physics, disturb detection) with
//!   wordline-driver, precharge and write-mux peripherals compiled once
//!   into a single circuit, re-run under rebound control waveforms, and
//!   accelerated by the circuit crate's quiescent-partition latency tier;
//! * [`explore`] — β sweeps and assist-technique comparisons (Figs. 4–8);
//! * [`compare`] — the §5 four-design comparison across V_DD (Figs. 11–12
//!   and the static-power/area tables);
//! * [`area`] — the relative cell-area model.
//!
//! # Quickstart
//!
//! ```
//! use tfet_sram::prelude::*;
//!
//! // The paper's proposed design: 6T, inward p-TFET access, β = 0.6,
//! // GND-lowering read assist.
//! let params = CellParams::tfet6t(AccessConfig::InwardP)
//!     .with_beta(0.6)
//!     .with_vdd(0.8);
//! let power = metrics::static_power(&params)?;
//! assert!(power < 1e-15, "TFET hold power is femtowatt-scale: {power:e}");
//!
//! let read = metrics::read_metrics(&params, Some(ReadAssist::GndLowering))?;
//! assert!(read.drnm > 0.0, "read must not destroy the cell");
//! # Ok::<(), tfet_sram::SramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod array_netlist;
pub mod assist;
pub mod compare;
pub mod error;
pub mod explore;
pub mod metrics;
pub mod montecarlo;
pub mod ops;
pub mod rare_event;
pub mod snm;
pub mod tech;
pub mod topology;

pub use error::SramError;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::array_netlist::{ArrayNetlist, ArraySpec};
    pub use crate::assist::{ReadAssist, WriteAssist};
    pub use crate::error::SramError;
    pub use crate::metrics::{self, WlCrit, WlCritRun};
    pub use crate::montecarlo::{McConfig, McDrnm, McWlCrit};
    pub use crate::ops::{ReadExperiment, WriteExperiment};
    pub use crate::rare_event::{
        yield_read, yield_write, Factor, QuarantinedSample, VariationModel, YieldConfig,
        YieldMetric, YieldStudy,
    };
    pub use crate::tech::{
        AccessConfig, CellKind, CellModels, CellParams, CellSizing, DeviceEval, SimOptions,
        SteppingMode,
    };
    pub use crate::topology::{CellTopology, DeviceSlot, PlacedCell};
    pub use tfet_circuit::{DeviceLatency, SolverStrategy};
}
