#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's kernel notation; reference constants keep full printed precision
//! `plf-core` — the Phylogenetic Likelihood Function kernels.
//!
//! This crate implements the paper's primary contribution: the four
//! compute kernels that dominate maximum-likelihood tree inference
//! (§IV), each in two backends over one data layout (64-byte aligned
//! buffers, [`aligned`]; 16 doubles per site with P matrices
//! pre-transposed per input state, [`layout`]):
//!
//! * **scalar** — a straightforward reference implementation, the
//!   moral equivalent of the unvectorized C code a "recompile with
//!   `-mmic`" port would run (§V-B);
//! * **simd** — the paper's MIC optimizations in explicit AVX2+FMA
//!   intrinsics: the fused 16-wide `(rate, state)` loop (§V-B3) as
//!   four FMA chains and prefetching, chosen at runtime where the CPU
//!   supports it.
//!
//! `evaluate` and `derivativeCore` are site-blocked as in §V-B4: a
//! backend writes the vector reduction per site, and the scalar
//! log/division tail is written once for both ([`kernels`]).
//!
//! The kernels:
//!
//! | paper name       | here                                   |
//! |------------------|----------------------------------------|
//! | `newview`        | [`kernels::Kernels::newview_ii`] (+ tip fast paths) |
//! | `evaluate`       | [`kernels::Kernels::evaluate_ii`] (+ tip fast path) |
//! | `derivativeSum`  | [`kernels::Kernels::derivative_sum_ii`] (+ tip) |
//! | `derivativeCore` | [`kernels::Kernels::derivative_core`]  |
//!
//! [`engine::LikelihoodEngine`] ties the kernels to a tree: it owns the
//! conditional likelihood arrays (CLAs), one per inner node, tracks
//! which are valid for the current virtual-root orientation (RAxML's
//! traversal descriptor), and exposes `log_likelihood` / `branch_derivatives` to the search layer.
//!
//! [`naive`] contains an independent brute-force likelihood
//! implementation (sum over all internal state assignments) used as the
//! correctness anchor by the test suite.

pub mod aligned;
pub mod blocking;
pub mod cla;
pub mod clock;
pub mod cost;
pub mod engine;
pub mod instrument;
pub mod kernels;
pub mod layout;
pub mod metrics;
pub mod naive;
pub mod scaling;
pub mod span;
pub mod trace;

pub use aligned::AlignedVec;
pub use blocking::Blocking;
pub use cost::{KernelCost, KernelOp, ProfitCalibration};
pub use engine::{EngineConfig, LikelihoodEngine, RepeatStats, SiteRepeats};
pub use instrument::{KernelId, KernelStats, OpCost, RegionStats};
pub use kernels::{KernelKind, Kernels};
pub use span::{SpanGuard, TrackSnapshot};
pub use trace::{TraceEvent, TRACE_VERSION};

/// Number of DNA states.
pub const NUM_STATES: usize = phylo_models::NUM_STATES;
/// Number of Γ rate categories.
pub const NUM_RATES: usize = phylo_models::NUM_RATES;
/// Doubles per site in a CLA (`4 states × 4 rates`; 128 bytes).
pub const SITE_STRIDE: usize = phylo_models::SITE_STRIDE;
/// Site-block granule (§V-B4): traversal blocks and the root
/// kernels' site chunks are multiples of it.
pub const SITE_BLOCK: usize = 8;
