#![warn(missing_docs)]
//! **phylomic** — a Rust reproduction of *"Efficient Computation of
//! the Phylogenetic Likelihood Function on the Intel MIC Architecture"*
//! (Kozlov, Goll, Stamatakis; HiCOMB/IPDPS 2014).
//!
//! This crate is the facade: it re-exports every subsystem crate of
//! the workspace. See `README.md` for the architecture map and
//! `DESIGN.md`/`EXPERIMENTS.md` for the reproduction methodology.
//!
//! # Example: likelihood of a tree
//!
//! ```
//! use phylomic::bio::{fasta, CompressedAlignment};
//! use phylomic::plf::{EngineConfig, LikelihoodEngine};
//! use phylomic::tree::newick;
//!
//! let aln = fasta::parse_str(">a\nACGTAC\n>b\nACGAAC\n>c\nTCGTAC\n").unwrap();
//! let compressed = CompressedAlignment::from_alignment(&aln);
//! let tree = newick::parse("(a:0.1,b:0.2,c:0.15);").unwrap();
//!
//! let mut engine = LikelihoodEngine::new(&tree, &compressed, EngineConfig::default());
//! let ll = engine.log_likelihood(&tree, 0);
//! assert!(ll.is_finite() && ll < 0.0);
//!
//! // Time-reversible model: any virtual-root edge gives the same value.
//! for e in tree.edge_ids() {
//!     assert!((engine.log_likelihood(&tree, e) - ll).abs() < 1e-9);
//! }
//! ```
//!
//! # Example: simulate, search, compare to the truth
//!
//! ```
//! use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
//! use phylomic::plf::{EngineConfig, LikelihoodEngine};
//! use phylomic::search::{MlSearch, SearchConfig};
//! use phylomic::tree::build::{default_names, random_tree};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let names = default_names(6);
//! let truth = random_tree(&names, 0.15, &mut rng).unwrap();
//! let gtr = Gtr::new(GtrParams::jc69());
//! let gamma = DiscreteGamma::new(1.0);
//! let aln = phylomic::seqgen::simulate_compressed(&truth, gtr.eigen(), &gamma, 800, &mut rng);
//!
//! let mut tree = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(1)).unwrap();
//! let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
//! let search = MlSearch::new(SearchConfig { max_rounds: 4, ..Default::default() });
//! let result = search.run(&mut engine, &mut tree);
//! assert!(result.log_likelihood.is_finite());
//! assert!(tree.rf_distance(&truth) <= 2);
//! ```

pub use micsim;
pub use phylo_bio as bio;
pub use phylo_models as models;
pub use phylo_parallel as parallel;
pub use phylo_search as search;
pub use phylo_seqgen as seqgen;
pub use phylo_tree as tree;
pub use plf_core as plf;
