//! End-to-end NP transfer benchmark.
//!
//! One command runs one named workload for a fixed number of seconds,
//! checks that every receiver got the right bytes, and prints every
//! end-to-end metric (untraced) or every per-layer metric (traced) by
//! name with its unit. Everything is measured from outside the library:
//! the mux is driven through `Mux::turn_once` + `Mux::take_outcomes`, and
//! each layer is observed through its public trait (see [`probe`]).
//! See `README.md` beside this crate for the workloads and the metric map.

pub mod metrics;
pub mod probe;
pub mod run;
pub mod stats;
pub mod sysinfo;
pub mod trace;
pub mod workload;
