//! A small SPICE-class circuit simulator.
//!
//! The reproduced paper runs its SRAM experiments in a commercial SPICE
//! against a Verilog-A lookup-table device model. No SPICE engine exists in
//! the Rust ecosystem, so this crate implements the required subset from
//! scratch:
//!
//! * [`netlist`] — circuit construction: named nodes, resistors, capacitors,
//!   independent voltage/current sources with time-dependent waveforms, and
//!   three-terminal transistors bound to any
//!   [`tfet_devices::model::DeviceModel`];
//! * [`waveform`] — DC, piecewise-linear, and pulse stimuli;
//! * [`mna`] — modified nodal analysis assembly (Jacobian + residual stamps);
//! * [`dc`] — Newton–Raphson operating point with g_min stepping and
//!   per-iteration voltage-step limiting (the damping that tames the
//!   exponential TFET reverse diode);
//! * [`transient`] — backward-Euler or trapezoidal integration with a full
//!   Newton solve per step and nonlinear device capacitances re-linearized
//!   each step; one step loop runs adaptive step-doubling LTE control with
//!   a source-edge breakpoint schedule by default, a fixed uniform grid on
//!   request, and event-driven early exit ([`transient::StopEvent`]);
//! * [`probe`] — waveform post-processing: crossings, extrema, and the
//!   minimum-node-difference measurement behind the paper's DRNM metric;
//! * [`compiled`] — the build-once/bind/run layer: a [`CompiledCircuit`]
//!   freezes topology and MNA pattern, typed binds swap stimuli and device
//!   models in place, and repeated runs reuse one owned set of Newton, LU
//!   and companion buffers, allocation-free after warm-up. A set of buffers
//!   serves one circuit for its whole life; a one-shot [`Circuit::transient`]
//!   or [`Circuit::dc_op`] call builds its own and drops it. Every run
//!   reports build/bind/run counters through [`SolveStats`].
//!
//! The linear-solve path assembles the Jacobian into a sparsity pattern
//! frozen at compile time and factorizes it with an
//! analyze-once/refactorize-many sparse LU, layering modified-Newton
//! factorization reuse and device-evaluation bypass on top. The legacy dense
//! path is retained byte-for-byte as a test oracle, reachable only through a
//! hidden process hook: figure outputs must be bit-identical under either
//! path at default tolerances.
//!
//! For array-scale netlists the [`latency`] module adds a third tier:
//! circuits may register [`CellPartition`]s (one per bitcell), and the
//! sparse transient solver then skips assembly for whole cells whose
//! terminal nodes sit within tolerance of their last refresh point, with a
//! tight guard on shared wordline/bitline nodes force-refreshing a dormant
//! cell the moment an adjacent line moves. A large partitioned transient
//! starts one helper pool per run and splits its per-device, per-branch and
//! per-slot passes across it deterministically (stamps merge serially in
//! netlist order). The full-evaluation baseline the identity gates diff
//! against is likewise an oracle behind a hidden hook, not an option of
//! any spec.
//!
//! # Examples
//!
//! A resistive divider:
//!
//! ```
//! use tfet_circuit::{Circuit, Waveform};
//!
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let out = c.node("out");
//! c.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
//! c.resistor(vin, out, 1e3);
//! c.resistor(out, Circuit::GND, 3e3);
//! let op = c.dc_op()?;
//! assert!((op.voltage(out) - 0.75).abs() < 1e-9);
//! # Ok::<(), tfet_circuit::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod dc;
pub mod error;
pub mod latency;
pub mod mna;
pub mod netlist;
mod pool;
pub mod probe;
pub mod spice;
mod trail;
pub mod transient;
pub mod waveform;
mod workspace;

pub use compiled::{CompiledCircuit, ParamHandle};
pub use dc::{DcResult, SolverStrategy};
pub use error::SimError;
pub use latency::{
    set_assembly_threads, CellPartition, DeviceLatency, GuardKind, PartitionTelemetry,
};
pub use netlist::{Circuit, NodeId, SourceId};
pub use probe::{SolveStats, TransientResult};
pub use spice::{DcSweep, Deck, DeckAnalysis, DeckRun, Subckt, SubcktCard};
#[doc(hidden)]
pub use trail::TrailRole;
pub use transient::{AdaptiveOpts, Integrator, StepControl, StopEvent, TransientSpec};
pub use waveform::Waveform;
