//! # ccs-workloads
//!
//! Benchmark CSDFGs for the cyclo-compaction reproduction:
//!
//! * [`paper`] — the graphs printed in the paper: Figure 1(b)'s 6-node
//!   running example and the (reconstructed) 19-node Figure 7 example;
//! * [`filters`] — the Table 11 applications (fifth-order elliptic
//!   wave filter, lattice filter) plus FIR, IIR-biquad and the HAL
//!   differential-equation solver;
//! * [`random`] — seeded random legal-CSDFG generators for sweeps and
//!   for the one-SCC size tier;
//! * [`catalog`] — a name -> constructor registry for harness code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod dsp_extra;
pub mod filters;
pub mod paper;
pub mod random;

pub use catalog::{all as all_workloads, by_name as workload_by_name, Workload};
pub use filters::OpTimes;
pub use random::{random_csdfg, scc_chain, RandomGraphConfig};
