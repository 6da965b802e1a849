#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! `plf-prof` — host performance profiling support for the PLF
//! workspace.
//!
//! Two concerns live here, both std-only:
//!
//! * [`roofline`] — machine calibration: a STREAM-triad bandwidth
//!   probe and an FMA peak-FLOP probe (single core, matching the
//!   single-threaded microbench cells), cached to
//!   [`roofline::CACHE_FILE`] with host provenance so `trace-report`
//!   and `plf-microbench` can place each kernel on the roofline
//!   without re-measuring.
//! * [`perf`] — optional Linux `perf_event_open` hardware counters
//!   (cycles, instructions, LLC misses) behind the `perf-counters`
//!   cargo feature, degrading to `None` wherever the syscall is
//!   unavailable.
//!
//! [`json`] is the minimal recursive JSON reader of nested documents
//! (the workspace has no serde): [`roofline`] reads its cache file
//! with it, `plf_e2e` and `cargo xtask pair` the benchmark's contract
//! and result objects. [`host`] is the provenance every such artifact
//! carries.

pub mod host;
pub mod json;
pub mod perf;
pub mod roofline;

pub use roofline::HostRoofline;
