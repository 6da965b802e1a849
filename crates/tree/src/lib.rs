#![warn(missing_docs)]
//! Unrooted binary phylogenetic trees.
//!
//! The tree representation mirrors what RAxML-family codes use: `n`
//! tips (ids `0..n`, carrying taxon names) and `n − 2` inner nodes of
//! degree three (ids `n..2n−2`), connected by `2n − 3` undirected edges
//! carrying branch lengths. There is no root; likelihood evaluation
//! places a *virtual root* on an arbitrary edge (§IV of the paper).
//!
//! Modules:
//! * [`tree`] — the arena type, node/edge accessors, invariants;
//! * [`newick`] — Newick parsing and printing;
//! * [`build`] — random and caterpillar tree constructors;
//! * [`traverse`] — directed post-order traversals used to schedule
//!   `newview` calls;
//! * [`moves`] — NNI and SPR topology moves for tree search;
//! * [`error`] — error type.

pub mod build;
pub mod consensus;
pub mod error;
pub mod moves;
pub mod newick;
pub mod traverse;
#[allow(clippy::module_inception)]
pub mod tree;

pub use error::TreeError;
pub use tree::{EdgeId, NodeId, Tree};
