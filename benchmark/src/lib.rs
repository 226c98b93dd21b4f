//! The repo benchmark's parts; `main.rs` is the command line over them.
//! See `README.md` beside this package.

pub mod alloc;
pub mod clock;
pub mod compare;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
