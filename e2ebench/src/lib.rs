//! End-to-end and per-layer benchmark harness for the LRGP workspace.
//!
//! One single-threaded closed-loop client drives the library's public API
//! (`lrgp_model::{io, terms, delta, allocation}`, `lrgp::engine` and
//! `lrgp::kernel::*`) through three workloads; see `README.md` in this
//! directory for the workloads, the metrics and how steady they are.

pub mod harness;
pub mod probe;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
