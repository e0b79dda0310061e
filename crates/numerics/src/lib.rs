//! Numerical substrate for the `tfet-sram` workspace.
//!
//! This crate collects the small, dependency-free numerical building blocks
//! that the device models, the circuit simulator and the SRAM analysis layers
//! share:
//!
//! * [`matrix`] — dense row-major matrices with LU factorization and linear
//!   solves (the reference path, and the cross-check for the sparse engine);
//! * [`sparse`] — CSC sparse matrices whose LU factorization is split into a
//!   one-time symbolic analysis (fill-reducing ordering + frozen fill-in
//!   pattern) and a cheap, allocation-free numeric refactorization — the
//!   topology of a circuit Jacobian is fixed, only its values change per
//!   Newton iteration;
//! * [`interp`] — one- and two-dimensional lookup tables with linear /
//!   bilinear interpolation, mirroring the Verilog-A lookup-table device
//!   modeling methodology of the reproduced paper;
//! * [`roots`] — the monotone boolean binary search used for
//!   critical-pulse-width extraction;
//! * [`sweep`] — the uniform parameter-sweep grid (`linspace`);
//! * [`stats`] — summary statistics and histograms for Monte-Carlo studies,
//!   including the weighted summaries importance sampling needs;
//! * [`normal`] — standard-normal special functions (`erf`, CDF, inverse
//!   CDF) backing truncated-Gaussian sampling and likelihood ratios;
//! * [`parallel`] — deterministic scoped-thread fan-out (`par_map` and its
//!   fallible and stateful variants) whose results are bit-identical to a
//!   serial loop at any thread count;
//! * [`partition`] — CSR-style index grouping used by the solver's
//!   quiescent-partition latency tier to map devices ↔ cells without
//!   per-query allocation.
//!
//! # Examples
//!
//! Solving a small linear system:
//!
//! ```
//! use tfet_numerics::matrix::Matrix;
//!
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let x = a.solve(&[3.0, 5.0]).unwrap();
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interp;
pub mod matrix;
pub mod normal;
pub mod parallel;
pub mod partition;
pub mod roots;
pub mod sparse;
pub mod stats;
pub mod sweep;

pub use interp::{Lut1d, Lut2d};
pub use matrix::{LuWorkspace, Matrix};
pub use normal::{erf, erfc, gaussian_mass_within, inv_norm_cdf, norm_cdf};
pub use parallel::{par_map, par_try_map};
pub use partition::GroupedIndices;
pub use roots::{
    critical_threshold, critical_threshold_checked, critical_threshold_seeded,
    critical_threshold_seeded_checked,
};
pub use sparse::{ColumnSlots, SparseLu, SparseMatrix, SparsityPattern};
pub use stats::{Histogram, Summary, WeightedSummary};
pub use sweep::linspace;
