#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's kernel notation; reference constants keep full printed precision
//! `micsim` — an analytical machine-performance model of the paper's
//! test systems.
//!
//! We have no Xeon Phi 5110P or dual-socket Xeon E5 testbed, so the
//! paper's *hardware* is the one substrate we must substitute (see
//! DESIGN.md). The substitution preserves the mechanisms that produce
//! every number in the paper's evaluation:
//!
//! 1. **Roofline kernel costs** ([`model`]): each PLF kernel is
//!    characterized by flops and bytes per pattern-site
//!    ([`kernel_model`]); a platform executes it at
//!    `max(flops/peak_eff, bytes/bw_eff)`. Memory-bound kernels
//!    (`derivativeSum`) gain the platforms' bandwidth ratio, mixed
//!    kernels (`newview`) gain less — reproducing Figure 3.
//! 2. **Synchronization costs**: every kernel invocation on the MIC is
//!    an OpenMP parallel region with a barrier across 118+ threads,
//!    and every `evaluate`/`derivativeCore` reduction is an MPI
//!    AllReduce priced by interconnect (§VI-B3's measured 20 µs
//!    PCIe / 5 µs InfiniBand / 35 µs old-MPI latencies) — reproducing
//!    Table III's small-alignment behavior and Figure 4's dual-MIC
//!    scaling.
//! 3. **Work granularity**: per-thread fixed overheads inflate
//!    effective compute time when threads get few sites (§VI-B2).
//! 4. **Offload invocation latency** ([`model::ExecMode`]): the §V-C
//!    experiment that drove the paper to native execution.
//!
//! The workload counts come from *real instrumented runs* of the Rust
//! search ([`workload::WorkloadTrace`]), scaled across alignment sizes
//! exactly as the paper scales its INDELible datasets. The calibrated
//! constants are centralized and documented in [`calibration`].

pub mod calibration;
pub mod energy;
pub mod kernel_model;
pub mod model;
pub mod platform;
pub mod report;
pub mod systems;
pub mod workload;

pub use model::{predict_time, ExecMode, Interconnect, MachineConfig, TimeBreakdown};
pub use platform::{Platform, PlatformKind};
pub use report::TraceReport;
pub use systems::SystemId;
pub use workload::WorkloadTrace;
