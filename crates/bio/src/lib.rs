#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's kernel notation; reference constants keep full printed precision
//! Biological sequence substrate for the phylomic workspace.
//!
//! This crate provides everything the likelihood machinery needs to know
//! about molecular data:
//!
//! * a 4-bit encoded DNA alphabet with full IUPAC ambiguity support
//!   ([`alphabet`]),
//! * named sequences and rectangular multiple sequence alignments
//!   ([`sequence`], [`alignment`]),
//! * site-pattern compression — collapsing identical alignment columns
//!   into weighted *patterns*, the unit in which the paper's Table III
//!   reports dataset sizes ([`patterns`]),
//! * FASTA and (relaxed) PHYLIP readers and writers ([`fasta`],
//!   [`phylip`]).
//!
//! The encoding convention follows RAxML: a DNA character is a 4-bit
//! mask over the states `A=1, C=2, G=4, T=8`; ambiguity codes are unions
//! of bits and the fully-undetermined state (`-`, `?`, `N`) is `0b1111`.
//! This makes tip-state likelihood lookup a table index, which is what
//! the tip-handling fast paths in `plf-core` rely on.

pub mod alignment;
pub mod alphabet;
pub mod error;
pub mod fasta;
#[doc(hidden)]
pub mod naive;
pub mod patterns;
pub mod phylip;
mod reader;
pub mod sequence;

pub use alignment::Alignment;
pub use alphabet::{DnaCode, NUM_DNA_CODES, NUM_STATES};
pub use error::BioError;
pub use patterns::{CompressedAlignment, SitePattern};
pub use sequence::Sequence;
