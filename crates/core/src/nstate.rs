//! Runtime-N-state likelihood evaluation (protein support, §VII).
//!
//! The paper's kernels are specialized for DNA (4 states × 4 Γ rates =
//! a fixed 16-double site stride). This module provides the §VII
//! "support protein data" extension: the same PLF over any alphabet
//! size, with heap-backed per-site strides of `n_states × 4` doubles.
//! Tips are 32-bit ambiguity masks; because a 2²⁰-entry lookup table is
//! impractical, tip contributions are computed on the fly (cheap for
//! unambiguous residues, a masked sum otherwise).
//!
//! The implementation deliberately favors clarity over the DNA path's
//! layout tricks — it is the correctness-first generalization, and the
//! DNA engine doubles as its oracle (`n_states = 4` must reproduce
//! [`crate::engine::LikelihoodEngine`] exactly; see the tests).

use crate::aligned::AlignedVec;
use crate::scaling::{LN_SCALE, SCALE_FACTOR, SCALE_THRESHOLD};
use crate::NUM_RATES;
use phylo_models::{DiscreteGamma, NEigensystem};
use phylo_tree::traverse::{children, full_schedule};
use phylo_tree::{EdgeId, NodeId, Tree};

/// A likelihood engine over an `n_states`-letter alphabet.
pub struct NStateEngine {
    eigen: NEigensystem,
    gamma: DiscreteGamma,
    n: usize,
    stride: usize,
    /// Per tree-tip-id rows of ambiguity masks over patterns.
    tips: Vec<Vec<u32>>,
    weights: Vec<u32>,
    num_patterns: usize,
    num_taxa: usize,
    clas: Vec<AlignedVec>,
    scales: Vec<Vec<u32>>,
    /// Scratch for branch derivatives.
    sumtable: AlignedVec,
    sum_ready: bool,
}

impl NStateEngine {
    /// Builds an engine. `tips[tip_id][pattern]` are ambiguity masks
    /// over the model's states (bit `s` set ⇔ state `s` compatible).
    pub fn new(
        tree: &Tree,
        eigen: NEigensystem,
        gamma: DiscreteGamma,
        tips: Vec<Vec<u32>>,
        weights: Vec<u32>,
    ) -> Self {
        let n = eigen.num_states();
        assert!(
            (2..=32).contains(&n),
            "mask encoding supports 2..=32 states"
        );
        assert_eq!(tips.len(), tree.num_taxa(), "one tip row per taxon");
        let num_patterns = weights.len();
        let all = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        for (t, row) in tips.iter().enumerate() {
            assert_eq!(row.len(), num_patterns, "tip {t} row length");
            assert!(
                row.iter().all(|&m| m != 0 && m <= all),
                "tip {t} contains an invalid mask"
            );
        }
        let stride = n * NUM_RATES;
        NStateEngine {
            eigen,
            gamma,
            n,
            stride,
            tips,
            weights,
            num_patterns,
            num_taxa: tree.num_taxa(),
            clas: (0..tree.num_inner())
                .map(|_| AlignedVec::zeroed(num_patterns * stride))
                .collect(),
            scales: vec![vec![0; num_patterns]; tree.num_inner()],
            sumtable: AlignedVec::zeroed(num_patterns * stride),
            sum_ready: false,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of patterns covered.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    fn inner_idx(&self, node: NodeId) -> usize {
        node - self.num_taxa
    }

    /// Per-rate transition matrices for branch length `t`.
    fn pmats(&self, t: f64) -> Vec<Vec<Vec<f64>>> {
        self.gamma
            .rates()
            .iter()
            .map(|&r| self.eigen.prob_matrix(t, r))
            .collect()
    }

    /// Conditional likelihood of a tip mask: `Σ_{b ∈ mask} P[a][b]`.
    #[inline]
    fn tip_partial(p_row: &[f64], mask: u32) -> f64 {
        let mut sum = 0.0;
        let mut m = mask;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            sum += p_row[b];
            m &= m - 1;
        }
        sum
    }

    /// Fills `out` with the directed conditional likelihoods of `node`
    /// looking away from `toward`, assuming children are valid.
    fn newview(&mut self, tree: &Tree, node: NodeId, toward: EdgeId) {
        let n = self.n;
        let stride = self.stride;
        let ch = children(tree, node, toward);
        let pm: [Vec<Vec<Vec<f64>>>; 2] = [
            self.pmats(tree.length(ch[0].0)),
            self.pmats(tree.length(ch[1].0)),
        ];
        let idx = self.inner_idx(node);
        let mut out = std::mem::replace(&mut self.clas[idx], AlignedVec::zeroed(0));
        let mut scale = std::mem::take(&mut self.scales[idx]);

        for i in 0..self.num_patterns {
            let site = &mut out[i * stride..(i + 1) * stride];
            let mut scale_in = 0u32;
            // First child fills, second multiplies in.
            for (c, &(_, child)) in ch.iter().enumerate() {
                let pmc = &pm[c];
                if tree.is_tip(child) {
                    let mask = self.tips[child][i];
                    for k in 0..NUM_RATES {
                        let p = &pmc[k];
                        for a in 0..n {
                            let v = Self::tip_partial(&p[a], mask);
                            let slot = &mut site[k * n + a];
                            if c == 0 {
                                *slot = v;
                            } else {
                                *slot *= v;
                            }
                        }
                    }
                } else {
                    let cidx = self.inner_idx(child);
                    let cla = &self.clas[cidx];
                    let cv = &cla[i * stride..(i + 1) * stride];
                    scale_in += self.scales[cidx][i];
                    for k in 0..NUM_RATES {
                        let p = &pmc[k];
                        for a in 0..n {
                            let mut v = 0.0;
                            for b in 0..n {
                                v += p[a][b] * cv[k * n + b];
                            }
                            let slot = &mut site[k * n + a];
                            if c == 0 {
                                *slot = v;
                            } else {
                                *slot *= v;
                            }
                        }
                    }
                }
            }
            // Underflow scaling, as in the DNA path.
            let mut max = 0.0f64;
            for &v in site.iter() {
                if v > max {
                    max = v;
                }
            }
            if max < SCALE_THRESHOLD {
                for v in site.iter_mut() {
                    *v *= SCALE_FACTOR;
                }
                scale_in += 1;
            }
            scale[i] = scale_in;
        }

        self.clas[idx] = out;
        self.scales[idx] = scale;
    }

    /// Recomputes every CLA oriented toward `root_edge` (no caching:
    /// this is the reference-clarity path).
    pub fn update_partials(&mut self, tree: &Tree, root_edge: EdgeId) {
        for d in full_schedule(tree, root_edge) {
            self.newview(tree, d.node, d.toward_edge);
        }
        self.sum_ready = false;
    }

    /// Log-likelihood with the virtual root on `root_edge`.
    pub fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        self.update_partials(tree, root_edge);
        let n = self.n;
        let stride = self.stride;
        let (a, b) = tree.endpoints(root_edge);
        let (q, r) = if tree.is_tip(a) { (a, b) } else { (b, a) };
        let pm = self.pmats(tree.length(root_edge));
        let pi = self.eigen.freqs();
        let w_cat = 1.0 / NUM_RATES as f64;
        let ridx = self.inner_idx(r);
        let r_cla = &self.clas[ridx];
        let r_scale = &self.scales[ridx];

        let mut log_l = 0.0;
        for i in 0..self.num_patterns {
            let rv = &r_cla[i * stride..(i + 1) * stride];
            let mut site = 0.0;
            let mut sc = r_scale[i] as f64;
            if tree.is_tip(q) {
                let mask = self.tips[q][i];
                for k in 0..NUM_RATES {
                    let p = &pm[k];
                    for a_state in 0..n {
                        if mask & (1 << a_state) == 0 {
                            continue;
                        }
                        let mut x = 0.0;
                        for b_state in 0..n {
                            x += p[a_state][b_state] * rv[k * n + b_state];
                        }
                        site += w_cat * pi[a_state] * x;
                    }
                }
            } else {
                let qidx = self.inner_idx(q);
                let qv = &self.clas[qidx][i * stride..(i + 1) * stride];
                sc += self.scales[qidx][i] as f64;
                for k in 0..NUM_RATES {
                    let p = &pm[k];
                    for a_state in 0..n {
                        let mut x = 0.0;
                        for b_state in 0..n {
                            x += p[a_state][b_state] * rv[k * n + b_state];
                        }
                        site += w_cat * pi[a_state] * qv[k * n + a_state] * x;
                    }
                }
            }
            let w = self.weights[i] as f64;
            log_l += w * (site.max(f64::MIN_POSITIVE).ln() - sc * LN_SCALE);
        }
        log_l
    }

    /// Prepares the branch-invariant eigen-space sum table for `edge`
    /// (the N-state `derivativeSum`).
    pub fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
        self.update_partials(tree, edge);
        let n = self.n;
        let stride = self.stride;
        let (a, b) = tree.endpoints(edge);
        let (q, r) = if tree.is_tip(a) { (a, b) } else { (b, a) };
        let pi = self.eigen.freqs().to_vec();
        let u = self.eigen.u().to_vec();
        let ui = self.eigen.u_inv().to_vec();
        let ridx = self.inner_idx(r);

        let mut sum = std::mem::replace(&mut self.sumtable, AlignedVec::zeroed(0));
        for i in 0..self.num_patterns {
            let rv = &self.clas[ridx][i * stride..(i + 1) * stride];
            let site = &mut sum[i * stride..(i + 1) * stride];
            for k in 0..NUM_RATES {
                for j in 0..n {
                    // left̂[j] = Σ_a q_a π_a U[a][j]
                    let mut le = 0.0;
                    if tree.is_tip(q) {
                        let mask = self.tips[q][i];
                        for a_state in 0..n {
                            if mask & (1 << a_state) != 0 {
                                le += pi[a_state] * u[a_state][j];
                            }
                        }
                    } else {
                        let qidx = self.inner_idx(q);
                        let qv = &self.clas[qidx][i * stride..(i + 1) * stride];
                        for a_state in 0..n {
                            le += qv[k * n + a_state] * pi[a_state] * u[a_state][j];
                        }
                    }
                    // right̂[j] = Σ_b U⁻¹[j][b] r_b
                    let mut re = 0.0;
                    for b_state in 0..n {
                        re += ui[j][b_state] * rv[k * n + b_state];
                    }
                    site[k * n + j] = le * re;
                }
            }
        }
        self.sumtable = sum;
        self.sum_ready = true;
    }

    /// First and second log-likelihood derivatives at branch length
    /// `t` for the prepared branch (the N-state `derivativeCore`).
    ///
    /// # Panics
    /// Panics when no branch is prepared.
    pub fn branch_derivatives(&self, t: f64) -> (f64, f64) {
        assert!(self.sum_ready, "prepare_branch must run first");
        let n = self.n;
        let stride = self.stride;
        let vals = self.eigen.values();
        let rates = self.gamma.rates();
        // Exponential tables shared by all sites.
        let mut e = vec![0.0; stride];
        let mut d1 = vec![0.0; stride];
        let mut d2 = vec![0.0; stride];
        for k in 0..NUM_RATES {
            for j in 0..n {
                let lr = vals[j] * rates[k];
                let ex = (lr * t).exp();
                e[k * n + j] = ex;
                d1[k * n + j] = lr * ex;
                d2[k * n + j] = lr * lr * ex;
            }
        }
        let mut dlnl = 0.0;
        let mut d2lnl = 0.0;
        for i in 0..self.num_patterns {
            let s = &self.sumtable[i * stride..(i + 1) * stride];
            let mut l = 0.0;
            let mut l1 = 0.0;
            let mut l2 = 0.0;
            for m in 0..stride {
                l += s[m] * e[m];
                l1 += s[m] * d1[m];
                l2 += s[m] * d2[m];
            }
            let l = l.max(f64::MIN_POSITIVE);
            let w = self.weights[i] as f64;
            let r1 = l1 / l;
            dlnl += w * r1;
            d2lnl += w * (l2 / l - r1 * r1);
        }
        (dlnl, d2lnl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, LikelihoodEngine};
    use phylo_bio::{Alignment, CompressedAlignment, Sequence};
    use phylo_models::nstate::dna_as_nstate;
    use phylo_models::{protein_poisson, GtrParams};
    use phylo_tree::newick;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn dna_fixture() -> (Tree, CompressedAlignment, GtrParams) {
        let tree = newick::parse("((a:0.11,b:0.23):0.31,c:0.08,(d:0.19,e:0.27):0.14);").unwrap();
        let aln = CompressedAlignment::from_alignment(
            &Alignment::new(vec![
                Sequence::from_str_named("a", "ACGTACGTNACGTRYAC").unwrap(),
                Sequence::from_str_named("b", "ACGTTCGAAACGTRYAC").unwrap(),
                Sequence::from_str_named("c", "ACGAACGTCACGTAAAC").unwrap(),
                Sequence::from_str_named("d", "TCGTACGTGACTTRYAC").unwrap(),
                Sequence::from_str_named("e", "ACGTACTTTACGTRYCC").unwrap(),
            ])
            .unwrap(),
        );
        let params = GtrParams {
            rates: [1.2, 2.9, 0.8, 1.1, 3.5, 1.0],
            freqs: aln.empirical_frequencies(),
        };
        (tree, aln, params)
    }

    fn nstate_from_dna(
        tree: &Tree,
        aln: &CompressedAlignment,
        params: GtrParams,
        alpha: f64,
    ) -> NStateEngine {
        let tips: Vec<Vec<u32>> = (0..tree.num_taxa())
            .map(|t| {
                let row = aln.taxon_index(tree.tip_name(t)).unwrap();
                aln.row(row).iter().map(|c| c.bits() as u32).collect()
            })
            .collect();
        NStateEngine::new(
            tree,
            dna_as_nstate(&params).unwrap(),
            DiscreteGamma::new(alpha),
            tips,
            aln.weights().to_vec(),
        )
    }

    #[test]
    fn four_state_matches_dna_engine_exactly() {
        let (tree, aln, params) = dna_fixture();
        let alpha = 0.7;
        let mut dna = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel: crate::KernelKind::Scalar,
                alpha,
                ..EngineConfig::default()
            },
        );
        dna.set_model(params);
        let mut gen = nstate_from_dna(&tree, &aln, params, alpha);
        for e in tree.edge_ids() {
            let a = dna.log_likelihood(&tree, e);
            let b = gen.log_likelihood(&tree, e);
            assert!((a - b).abs() < 1e-9, "edge {e}: {a} vs {b}");
        }
    }

    #[test]
    fn four_state_derivatives_match_dna_engine() {
        let (tree, aln, params) = dna_fixture();
        let alpha = 0.7;
        let mut dna = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel: crate::KernelKind::Scalar,
                alpha,
                ..EngineConfig::default()
            },
        );
        dna.set_model(params);
        let mut gen = nstate_from_dna(&tree, &aln, params, alpha);
        for e in [0usize, 3, 6] {
            dna.prepare_branch(&tree, e);
            gen.prepare_branch(&tree, e);
            let t = tree.length(e);
            let (a1, a2) = dna.branch_derivatives(t);
            let (b1, b2) = gen.branch_derivatives(t);
            assert!((a1 - b1).abs() < 1e-7 * (1.0 + a1.abs()), "{a1} vs {b1}");
            assert!((a2 - b2).abs() < 1e-7 * (1.0 + a2.abs()), "{a2} vs {b2}");
        }
    }

    fn protein_fixture(seed: u64) -> (Tree, Vec<Vec<u32>>, Vec<u32>, NEigensystem) {
        let tree = newick::parse("((a:0.2,b:0.3):0.15,c:0.25,(d:0.1,e:0.4):0.2);").unwrap();
        let mut freqs = [0.0f64; 20];
        let mut total = 0.0;
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = 1.0 + (i % 5) as f64 * 0.4;
            total += *f;
        }
        let freqs = freqs.map(|f| f / total);
        let eigen = protein_poisson(&freqs).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let patterns = 40;
        let tips: Vec<Vec<u32>> = (0..5)
            .map(|_| {
                (0..patterns)
                    .map(|_| 1u32 << rng.random_range(0..20))
                    .collect()
            })
            .collect();
        (tree, tips, vec![1; patterns], eigen)
    }

    #[test]
    fn protein_root_invariance() {
        let (tree, tips, weights, eigen) = protein_fixture(5);
        let mut engine = NStateEngine::new(&tree, eigen, DiscreteGamma::new(0.9), tips, weights);
        let reference = engine.log_likelihood(&tree, 0);
        assert!(reference.is_finite() && reference < 0.0);
        for e in tree.edge_ids().skip(1) {
            let ll = engine.log_likelihood(&tree, e);
            assert!(
                (ll - reference).abs() < 1e-8,
                "edge {e}: {ll} vs {reference}"
            );
        }
    }

    #[test]
    fn protein_all_gap_logl_zero() {
        let (tree, tips, weights, eigen) = protein_fixture(6);
        let all = (1u32 << 20) - 1;
        let gaps: Vec<Vec<u32>> = tips.iter().map(|r| vec![all; r.len()]).collect();
        let mut engine = NStateEngine::new(&tree, eigen, DiscreteGamma::new(1.0), gaps, weights);
        let ll = engine.log_likelihood(&tree, 0);
        assert!(ll.abs() < 1e-8, "logL = {ll}");
    }

    #[test]
    fn protein_derivatives_match_finite_differences() {
        let (tree, tips, weights, eigen) = protein_fixture(7);
        let mut engine = NStateEngine::new(&tree, eigen, DiscreteGamma::new(0.8), tips, weights);
        let edge = 2;
        engine.prepare_branch(&tree, edge);
        let t0 = tree.length(edge);
        let (d1, d2) = engine.branch_derivatives(t0);
        let h = 1e-5;
        let mut ll = |t: f64| {
            let mut tt = tree.clone();
            tt.set_length(edge, t).unwrap();
            engine.log_likelihood(&tt, edge)
        };
        let (lp, lm, l0) = (ll(t0 + h), ll(t0 - h), ll(t0));
        let fd1 = (lp - lm) / (2.0 * h);
        let fd2 = (lp - 2.0 * l0 + lm) / (h * h);
        assert!(
            (d1 - fd1).abs() < 1e-3 * (1.0 + fd1.abs()),
            "d1 {d1} fd {fd1}"
        );
        assert!(
            (d2 - fd2).abs() < 1e-2 * (1.0 + fd2.abs()),
            "d2 {d2} fd {fd2}"
        );
    }

    #[test]
    fn invalid_masks_rejected() {
        let (tree, mut tips, weights, eigen) = protein_fixture(8);
        tips[0][0] = 0;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            NStateEngine::new(&tree, eigen, DiscreteGamma::new(1.0), tips, weights)
        }));
        assert!(r.is_err());
    }
}
