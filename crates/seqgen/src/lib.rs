#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's kernel notation; reference constants keep full printed precision
//! Sequence simulation under GTR+Γ — the INDELible substitute.
//!
//! The paper generates its 8 test alignments (10K–4,000K sites, 15
//! taxa) with INDELible V1.03. This crate reimplements the part of
//! INDELible the experiments need: evolving DNA down a fixed tree under
//! GTR with Γ-distributed per-site rates (no indels — the paper's
//! datasets are fixed-width alignments).
//!
//! The generative process per site: draw a rate category uniformly
//! (the discrete-Γ categories are equiprobable), draw the state at an
//! arbitrary root node from the stationary distribution π, then walk
//! the tree, sampling each child state from the transition distribution
//! `P(t·r)` of its branch.

use phylo_bio::{Alignment, CompressedAlignment, DnaCode, Sequence};
use phylo_models::{DiscreteGamma, Eigensystem, NUM_RATES, NUM_STATES};
use phylo_tree::{NodeId, Tree};
use rand::Rng;

/// Cumulative transition rows for one edge: `cum[k][a]` is the CDF over
/// child states given parent state `a` at rate category `k`.
struct EdgeSampler {
    cum: [[[f64; NUM_STATES]; NUM_STATES]; NUM_RATES],
}

impl EdgeSampler {
    fn new(eigen: &Eigensystem, rates: &[f64; NUM_RATES], t: f64) -> Self {
        let mut cum = [[[0.0; NUM_STATES]; NUM_STATES]; NUM_RATES];
        for (k, &r) in rates.iter().enumerate() {
            let p = eigen.prob_matrix(t, r);
            for a in 0..NUM_STATES {
                let mut acc = 0.0;
                for b in 0..NUM_STATES {
                    acc += p[a][b];
                    cum[k][a][b] = acc;
                }
                // Guard the final entry against rounding (P rows sum to
                // 1 − ε): sampling must never fall off the end.
                cum[k][a][NUM_STATES - 1] = f64::INFINITY;
            }
        }
        EdgeSampler { cum }
    }

    #[inline]
    fn sample<R: Rng>(&self, k: usize, a: usize, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        let row = &self.cum[k][a];
        let mut b = 0;
        while row[b] < u {
            b += 1;
        }
        b
    }
}

/// Simulates `num_sites` DNA characters for every taxon of `tree`.
///
/// Returns per-taxon state rows indexed by tip id. This is the raw
/// sampler; see [`simulate_alignment`] / [`simulate_compressed`] for
/// the packaged forms.
pub fn simulate_states<R: Rng>(
    tree: &Tree,
    eigen: &Eigensystem,
    gamma: &DiscreteGamma,
    num_sites: usize,
    rng: &mut R,
) -> Vec<Vec<u8>> {
    assert!(num_sites > 0, "cannot simulate an empty alignment");
    let rates = gamma.rates();
    let pi = eigen.freqs();
    let pi_cum = {
        let mut c = [0.0; NUM_STATES];
        let mut acc = 0.0;
        for (i, slot) in c.iter_mut().enumerate() {
            acc += pi[i];
            *slot = acc;
        }
        c[NUM_STATES - 1] = f64::INFINITY;
        c
    };

    // Directed edges away from the root node, in parent-before-child
    // order, with per-edge samplers.
    let root: NodeId = tree.num_taxa();
    let mut order: Vec<(NodeId, NodeId, EdgeSampler)> = Vec::with_capacity(tree.num_edges());
    let mut seen = vec![false; tree.num_nodes()];
    seen[root] = true;
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        for (e, v) in tree.neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                order.push((u, v, EdgeSampler::new(eigen, rates, tree.length(e))));
                stack.push(v);
            }
        }
    }

    let mut rows = vec![vec![0u8; num_sites]; tree.num_taxa()];
    let mut states = vec![0usize; tree.num_nodes()];
    for site in 0..num_sites {
        let k = rng.random_range(0..NUM_RATES);
        let u: f64 = rng.random();
        let mut s = 0;
        while pi_cum[s] < u {
            s += 1;
        }
        states[root] = s;
        for (parent, child, sampler) in &order {
            states[*child] = sampler.sample(k, states[*parent], rng);
        }
        for tip in 0..tree.num_taxa() {
            rows[tip][site] = states[tip] as u8;
        }
    }
    rows
}

/// Simulates a full [`Alignment`] (taxon names from the tree).
pub fn simulate_alignment<R: Rng>(
    tree: &Tree,
    eigen: &Eigensystem,
    gamma: &DiscreteGamma,
    num_sites: usize,
    rng: &mut R,
) -> Alignment {
    let rows = simulate_states(tree, eigen, gamma, num_sites, rng);
    let sequences = rows
        .into_iter()
        .enumerate()
        .map(|(tip, states)| {
            let codes: Vec<DnaCode> = states
                .into_iter()
                .map(|s| DnaCode::from_state(s as usize))
                .collect();
            Sequence::new(tree.tip_name(tip), codes)
        })
        .collect();
    Alignment::new(sequences).expect("simulated alignment is rectangular")
}

/// Simulates directly into pattern form *without* the column-hashing
/// compression pass — every site becomes a weight-1 pattern. This is
/// what the multi-million-site benchmark datasets use: with 15 taxa and
/// long simulated alignments, virtually every column is unique anyway,
/// so compression would only add an O(n·m) hashing pass.
pub fn simulate_compressed<R: Rng>(
    tree: &Tree,
    eigen: &Eigensystem,
    gamma: &DiscreteGamma,
    num_sites: usize,
    rng: &mut R,
) -> CompressedAlignment {
    let rows = simulate_states(tree, eigen, gamma, num_sites, rng);
    let names: Vec<String> = (0..tree.num_taxa())
        .map(|t| tree.tip_name(t).to_string())
        .collect();
    let code_rows: Vec<Vec<DnaCode>> = rows
        .into_iter()
        .map(|r| {
            r.into_iter()
                .map(|s| DnaCode::from_state(s as usize))
                .collect()
        })
        .collect();
    CompressedAlignment::from_parts(names, code_rows, vec![1; num_sites])
        .expect("simulated patterns are rectangular")
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{Gtr, GtrParams};
    use phylo_tree::build::{default_names, random_tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model() -> Gtr {
        Gtr::new(GtrParams {
            rates: [1.4, 3.1, 0.6, 1.0, 3.9, 1.0],
            freqs: [0.35, 0.15, 0.2, 0.3],
        })
    }

    #[test]
    fn dimensions_and_determinism() {
        let mut rng = SmallRng::seed_from_u64(42);
        let tree = random_tree(&default_names(8), 0.1, &mut rng).unwrap();
        let g = model();
        let gamma = DiscreteGamma::new(0.8);
        let a1 = simulate_alignment(
            &tree,
            g.eigen(),
            &gamma,
            500,
            &mut SmallRng::seed_from_u64(1),
        );
        let a2 = simulate_alignment(
            &tree,
            g.eigen(),
            &gamma,
            500,
            &mut SmallRng::seed_from_u64(1),
        );
        assert_eq!(a1, a2, "same seed, same alignment");
        assert_eq!(a1.num_taxa(), 8);
        assert_eq!(a1.num_sites(), 500);
        let a3 = simulate_alignment(
            &tree,
            g.eigen(),
            &gamma,
            500,
            &mut SmallRng::seed_from_u64(2),
        );
        assert_ne!(a1, a3, "different seed, different alignment");
    }

    #[test]
    fn stationary_frequencies_recovered_on_star() {
        // Long branches from a 3-taxon star: each tip is an independent
        // draw from pi.
        let tree = phylo_tree::Tree::triplet(["a", "b", "c"], [50.0, 50.0, 50.0]).unwrap();
        let g = model();
        let gamma = DiscreteGamma::new(10.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let a = simulate_alignment(&tree, g.eigen(), &gamma, 30_000, &mut rng);
        let f = a.empirical_frequencies();
        for s in 0..4 {
            assert!(
                (f[s] - g.freqs()[s]).abs() < 0.01,
                "state {s}: {} vs {}",
                f[s],
                g.freqs()[s]
            );
        }
    }

    #[test]
    fn short_branches_give_identical_sequences() {
        let tree = phylo_tree::Tree::triplet(["a", "b", "c"], [1e-8, 1e-8, 1e-8]).unwrap();
        let g = model();
        let gamma = DiscreteGamma::new(1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let a = simulate_alignment(&tree, g.eigen(), &gamma, 2000, &mut rng);
        let s0 = a.sequence(0).to_iupac_string();
        assert_eq!(s0, a.sequence(1).to_iupac_string());
        assert_eq!(s0, a.sequence(2).to_iupac_string());
    }

    #[test]
    fn low_alpha_creates_more_invariant_sites() {
        // Small alpha concentrates rates near zero: most sites evolve
        // very slowly, so more columns are constant.
        let mut rng = SmallRng::seed_from_u64(11);
        let tree = random_tree(&default_names(10), 0.3, &mut rng).unwrap();
        let g = model();
        let count_constant = |alpha: f64, seed: u64| -> usize {
            let gamma = DiscreteGamma::new(alpha);
            let a = simulate_alignment(
                &tree,
                g.eigen(),
                &gamma,
                4000,
                &mut SmallRng::seed_from_u64(seed),
            );
            (0..a.num_sites())
                .filter(|&s| {
                    let col = a.column(s);
                    col.iter().all(|c| *c == col[0])
                })
                .count()
        };
        let low = count_constant(0.05, 5);
        let high = count_constant(50.0, 5);
        assert!(
            low > high + 100,
            "alpha=0.05 constant sites {low}, alpha=50 constant {high}"
        );
    }

    #[test]
    fn compressed_form_matches_dimensions() {
        let mut rng = SmallRng::seed_from_u64(9);
        let tree = random_tree(&default_names(15), 0.1, &mut rng).unwrap();
        let g = model();
        let gamma = DiscreteGamma::new(1.0);
        let c = simulate_compressed(&tree, g.eigen(), &gamma, 1000, &mut rng);
        assert_eq!(c.num_taxa(), 15);
        assert_eq!(c.num_patterns(), 1000);
        assert_eq!(c.original_sites(), 1000);
        assert!(c.weights().iter().all(|&w| w == 1));
    }

    #[test]
    #[should_panic]
    fn zero_sites_rejected() {
        let tree = phylo_tree::Tree::triplet(["a", "b", "c"], [0.1; 3]).unwrap();
        let g = model();
        let gamma = DiscreteGamma::new(1.0);
        simulate_states(&tree, g.eigen(), &gamma, 0, &mut SmallRng::seed_from_u64(0));
    }
}
