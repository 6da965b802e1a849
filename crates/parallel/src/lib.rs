#![warn(missing_docs)]
//! Parallelization schemes for the PLF.
//!
//! The paper contrasts two schemes (§V-C/§V-D):
//!
//! * **fork-join** (RAxML-Light, PThreads): one master runs the tree
//!   search; the master and the persistent workers each own a slice
//!   of the alignment and execute every kernel job on it, with two
//!   synchronizations per parallel region. Implemented in
//!   [`forkjoin`].
//! * **replicated search** (ExaML, MPI): every rank runs its own
//!   consistent copy of the search algorithm over its alignment slice
//!   and communicates only where information must be exchanged — tiny
//!   `AllReduce`s after `evaluate` and the derivative kernels.
//!   Implemented in [`replicated`] over the MPI-like [`comm::Comm`]
//!   abstraction.
//!
//! Both schemes implement `phylo_search::Evaluator`, so the identical
//! search code runs under either — the property that lets the paper
//! reuse one code base across PThreads, MPI, and hybrid MPI/OpenMP
//! configurations.
//!
//! Communication statistics (AllReduce counts and payload bytes) are
//! recorded by the communicator; `micsim` prices them with the paper's
//! measured latencies (20 µs MIC–MIC over PCIe, 5 µs InfiniBand,
//! §VI-B3).

pub mod barrier;
pub mod comm;
pub mod fault;
pub mod forkjoin;
pub mod replicated;
pub mod slot;
pub(crate) mod sync;
pub mod transport;

pub use barrier::{Poisoned, SenseBarrier};
pub use comm::{Comm, CommError, CommStats, ThreadCommGroup};
pub use fault::FaultPlan;
pub use forkjoin::ForkJoinEvaluator;
pub use replicated::{
    run_replicated, run_replicated_ft, FtConfig, ReplicatedError, ReplicatedEvaluator,
    ReplicatedOutcome,
};
pub use slot::RegionProtocol;
#[cfg(unix)]
pub use transport::{run_rank, run_sharded_ft, ChildRankArgs, RankSpec, SocketComm};
pub use transport::{CommTransport, TransportConfig, TransportKind, WireStats};

/// The message of a caught panic payload, if it was a string — the one
/// reading of `catch_unwind`'s `Err` side for every supervisor (rank
/// bodies, fork-join jobs, the CLI).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
