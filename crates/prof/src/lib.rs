#![warn(missing_docs)]
//! `plf-prof` — host performance profiling support for the PLF
//! workspace.
//!
//! [`roofline`] is machine calibration, std-only: a STREAM-triad
//! bandwidth probe and an FMA peak-FLOP probe (single core, matching
//! the single-threaded microbench cells), cached to
//! [`roofline::CACHE_FILE`] with host provenance so `trace-report`
//! and `plf-microbench` can place each kernel on the roofline without
//! re-measuring.
//!
//! [`json`] is the minimal recursive JSON reader of nested documents
//! (the workspace has no serde): [`roofline`] reads its cache file
//! with it, `plf_e2e` and `cargo xtask pair` the benchmark's contract
//! and result objects. Its string escaper is what `roofline`,
//! `plf-microbench` and the analyzer write JSON with. [`host`] is the
//! provenance every such artifact carries.

pub mod host;
pub mod json;
pub mod roofline;

pub use roofline::HostRoofline;
