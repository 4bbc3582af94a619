//! End-to-end and per-layer benchmark of the msvs simulator and the
//! paper's DT-assisted scheme.
//!
//! One process runs one workload from one seed. The untraced run drives
//! the public `Simulation::new` → `warm_up` → `run_interval` API and
//! yields the end-to-end metrics; the traced run installs bench-owned
//! wrappers around the predictor, its twin view and its embedding backend
//! through `Simulation::with_predictor`, and yields the per-layer metrics.
//! See `PLAN.md` beside this crate for which layer metric should move
//! which end-to-end metric on which workload.

pub mod cli;
pub mod gate;
pub mod probe;
pub mod run;
pub mod tracer;
pub mod workload;
