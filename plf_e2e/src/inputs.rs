//! Input generation: the load generator of the benchmark.
//!
//! Inputs are a pure function of `(seed, workload)`; the program under
//! test sees only the two files. What the seed draws depends on where
//! the workload's search starts ([`Start`]), and the split is measured:
//!
//! * [`Start::Truth`] — the generating tree depends on the workload
//!   alone, the start tree is its topology with other branch lengths,
//!   and the seed draws every alignment column. The round scores every
//!   candidate and accepts none, and its work repeats to ±2 % across
//!   seeds.
//! * [`Start::Random`] — a random start topology. Which moves a round
//!   accepts decides which candidates it scores later, so with columns
//!   drawn from the seed the work differed by ±12 % between seeds even
//!   on one generating tree. Both trees and the columns therefore depend
//!   on the workload alone, and the seed draws the order of the columns
//!   in the file: other bytes to parse and compress, the same likelihood
//!   surface to climb.
//!
//! README.md gives the share of each kind of round in searches run to
//! convergence.

use crate::spec::{Start, Workload, SIM_ALPHA, SIM_FREQS, SIM_RATES};
use phylo_bio::{phylip, Alignment, Sequence};
use phylo_models::{DiscreteGamma, Gtr, GtrParams};
use phylo_tree::build::{default_names, random_tree};
use phylo_tree::{newick, Tree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Mean branch length of the start tree (the CLI's own default for
/// `--start random`).
const START_MEAN_BRANCH: f64 = 0.1;

/// The generated files, as text.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// The alignment, PHYLIP.
    pub phylip: String,
    /// The start tree, Newick.
    pub start_newick: String,
}

/// FNV-1a of the workload name: a stable, dependency-free way to give
/// each workload its own random streams.
fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Redraws every branch length of `tree` uniformly from
/// `[0.5, 1.5] x mean`: no branch is short enough for its split to be
/// unresolvable from the data, which is what keeps the search
/// trajectory the same from seed to seed.
fn set_lengths(tree: &mut Tree, mean: f64, rng: &mut SmallRng) {
    for e in 0..tree.num_edges() {
        let u: f64 = rng.random();
        tree.set_length(e, mean * (0.5 + u))
            .expect("edge ids below num_edges exist and the length is positive");
    }
}

/// `aln` with its columns in an order drawn from `rng` (Fisher–Yates).
fn shuffle_columns(aln: &Alignment, rng: &mut SmallRng) -> Alignment {
    let mut order: Vec<usize> = (0..aln.num_sites()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let rows = aln
        .sequences()
        .iter()
        .map(|s| Sequence::new(s.name(), order.iter().map(|&c| s.get(c)).collect()))
        .collect();
    Alignment::new(rows).expect("a permutation keeps every row as long as it was")
}

/// Generates the inputs of `workload` for `seed`.
pub fn generate(workload: &Workload, seed: u64) -> Inputs {
    let names = default_names(workload.taxa);
    let h = name_hash(workload.name);
    let mut shape_rng = SmallRng::seed_from_u64(h);
    let mut truth = random_tree(&names, workload.mean_branch, &mut shape_rng)
        .expect("workloads have at least 3 taxa");
    set_lengths(&mut truth, workload.mean_branch, &mut shape_rng);
    let mut start = match workload.start {
        Start::Truth => truth.clone(),
        Start::Random => random_tree(&names, START_MEAN_BRANCH, &mut shape_rng)
            .expect("workloads have at least 3 taxa"),
    };
    set_lengths(&mut start, START_MEAN_BRANCH, &mut shape_rng);

    let gtr = Gtr::new(GtrParams {
        rates: SIM_RATES,
        freqs: SIM_FREQS,
    });
    let gamma = DiscreteGamma::new(SIM_ALPHA);
    let mut seed_rng = SmallRng::seed_from_u64(seed ^ h.rotate_left(32));
    let aln = match workload.start {
        Start::Truth => phylo_seqgen::simulate_alignment(
            &truth,
            gtr.eigen(),
            &gamma,
            workload.sites,
            &mut seed_rng,
        ),
        Start::Random => {
            let fixed = phylo_seqgen::simulate_alignment(
                &truth,
                gtr.eigen(),
                &gamma,
                workload.sites,
                &mut shape_rng,
            );
            shuffle_columns(&fixed, &mut seed_rng)
        }
    };
    Inputs {
        phylip: phylip::to_string(&aln),
        start_newick: format!("{}\n", newick::to_newick(&start)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// The columns of a generated alignment, sorted.
    fn sorted_columns(inputs: &Inputs) -> Vec<Vec<u8>> {
        let aln = phylip::parse_str(&inputs.phylip).unwrap();
        let mut columns: Vec<Vec<u8>> = (0..aln.num_sites())
            .map(|c| aln.column(c).iter().map(|code| code.bits()).collect())
            .collect();
        columns.sort();
        columns
    }

    #[test]
    fn inputs_are_a_pure_function_of_seed_and_workload() {
        for w in &WORKLOADS {
            let w = w.shrunk(20);
            let a = generate(&w, 7);
            assert_eq!(a, generate(&w, 7), "{}: same seed, same workload", w.name);
            let b = generate(&w, 8);
            assert_ne!(a.phylip, b.phylip, "{}: the seed changes the file", w.name);
            assert_eq!(
                a.start_newick, b.start_newick,
                "{}: shapes follow the workload",
                w.name
            );
            // From a random start the seed draws the order of the
            // columns only; from the generating topology, the columns.
            assert_eq!(
                sorted_columns(&a) == sorted_columns(&b),
                w.start == Start::Random,
                "{}",
                w.name
            );
        }
        let (a, b) = (WORKLOADS[0].shrunk(20), WORKLOADS[1].shrunk(20));
        assert_ne!(generate(&a, 7).start_newick, generate(&b, 7).start_newick);
    }

    #[test]
    fn generated_files_parse_back_through_the_public_parsers() {
        for w in &WORKLOADS {
            let w = w.shrunk(20);
            let inputs = generate(&w, 1);
            let aln = phylip::parse_str(&inputs.phylip).unwrap();
            assert_eq!((aln.num_taxa(), aln.num_sites()), (w.taxa, w.sites));
            let tree = newick::parse(inputs.start_newick.trim()).unwrap();
            assert_eq!(tree.num_taxa(), w.taxa);
        }
    }
}
