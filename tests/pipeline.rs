//! End-to-end integration: simulate → compress → search → verify.
//! Kernels × blocking × schemes are `tests/config_matrix.rs`.

use phylomic::bio::CompressedAlignment;
use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::parallel::ForkJoinEvaluator;
use phylomic::plf::{EngineConfig, KernelKind, LikelihoodEngine};
use phylomic::search::{Evaluator, MlSearch, SearchConfig};
use phylomic::seqgen::simulate_alignment;
use phylomic::tree::build::{default_names, random_tree};
use phylomic::tree::Tree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn simulated(seed: u64, taxa: usize, sites: usize) -> (Tree, CompressedAlignment) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names = default_names(taxa);
    let tree = random_tree(&names, 0.13, &mut rng).unwrap();
    let gtr = Gtr::new(GtrParams {
        rates: [1.2, 3.0, 0.8, 1.1, 3.2, 1.0],
        freqs: [0.28, 0.22, 0.23, 0.27],
    });
    let gamma = DiscreteGamma::new(0.8);
    let aln = simulate_alignment(&tree, gtr.eigen(), &gamma, sites, &mut rng);
    (tree, CompressedAlignment::from_alignment(&aln))
}

#[test]
fn full_pipeline_recovers_true_tree() {
    let (true_tree, aln) = simulated(1001, 10, 5_000);
    let names = true_tree.tip_names().to_vec();
    let mut tree = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(5)).unwrap();
    let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
    let search = MlSearch::new(SearchConfig {
        max_rounds: 10,
        ..Default::default()
    });
    let result = search.run(&mut engine, &mut tree);
    // ML on finite data may legitimately prefer a topology a single
    // rearrangement away from the generating tree; what the search must
    // guarantee is (a) it gets essentially all the way there and (b) it
    // never settles for a tree scoring worse than the truth.
    assert!(
        tree.rf_distance(&true_tree) <= 2,
        "search ended RF {} from the generating topology",
        tree.rf_distance(&true_tree)
    );
    let mut true_smoothed = true_tree.clone();
    let r_true =
        phylomic::search::branch_opt::smooth_branches(&mut engine, &mut true_smoothed, 1e-4, 16);
    assert!(
        result.log_likelihood >= r_true.log_likelihood - 0.1,
        "inferred {} scores below the generating topology {}",
        result.log_likelihood,
        r_true.log_likelihood
    );
}

#[test]
fn likelihood_invariant_under_pattern_compression() {
    // Feeding the engine the uncompressed alignment (weight-1 columns)
    // must give exactly the same log-likelihood as the compressed one.
    let mut rng = SmallRng::seed_from_u64(3003);
    let names = default_names(7);
    let tree = random_tree(&names, 0.2, &mut rng).unwrap();
    let gtr = Gtr::new(GtrParams::jc69());
    let gamma = DiscreteGamma::new(1.0);
    // Few sites + low divergence → many repeated columns.
    let aln = simulate_alignment(&tree, gtr.eigen(), &gamma, 400, &mut rng);
    let compressed = CompressedAlignment::from_alignment(&aln);
    assert!(
        compressed.num_patterns() < aln.num_sites(),
        "dataset must actually compress for this test to be meaningful"
    );
    let uncompressed = CompressedAlignment::from_parts(
        aln.names().map(str::to_string).collect(),
        (0..aln.num_taxa())
            .map(|t| aln.sequence(t).codes().to_vec())
            .collect(),
        vec![1; aln.num_sites()],
    )
    .unwrap();

    let cfg = EngineConfig::default();
    let mut e1 = LikelihoodEngine::new(&tree, &compressed, cfg);
    let mut e2 = LikelihoodEngine::new(&tree, &uncompressed, cfg);
    for edge in [0usize, 3, 7] {
        let a = e1.log_likelihood(&tree, edge);
        let b = e2.log_likelihood(&tree, edge);
        assert!((a - b).abs() < 1e-8, "edge {edge}: {a} vs {b}");
    }
}

#[test]
fn virtual_root_invariance_full_pipeline() {
    let (tree, aln) = simulated(4004, 12, 800);
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        let mut engine = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel,
                alpha: 0.6,
                ..EngineConfig::default()
            },
        );
        let reference = engine.log_likelihood(&tree, 0);
        for e in tree.edge_ids().skip(1) {
            let ll = engine.log_likelihood(&tree, e);
            assert!(
                (ll - reference).abs() < 1e-7,
                "{kernel:?} edge {e}: {ll} vs {reference}"
            );
        }
    }
}

#[test]
fn model_optimization_recovers_simulation_regime() {
    // Data simulated with strong rate heterogeneity (alpha = 0.3) must
    // lead the alpha optimizer well below 2, and vice versa.
    for (true_alpha, low) in [(0.3, true), (20.0, false)] {
        let mut rng = SmallRng::seed_from_u64(5005);
        let names = default_names(8);
        let tree = random_tree(&names, 0.25, &mut rng).unwrap();
        let gtr = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(true_alpha);
        let aln = simulate_alignment(&tree, gtr.eigen(), &gamma, 6_000, &mut rng);
        let ca = CompressedAlignment::from_alignment(&aln);
        let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
        let mut t = tree.clone();
        phylomic::search::branch_opt::smooth_branches(&mut engine, &mut t, 1e-2, 6);
        let alpha = phylomic::search::model_opt::optimize_alpha(&mut engine, &t, 1e-4);
        if low {
            assert!(alpha < 1.0, "true alpha 0.3, estimated {alpha}");
        } else {
            assert!(alpha > 2.0, "true alpha 20, estimated {alpha}");
        }
    }
}

#[test]
fn evaluator_trait_is_object_safe_and_uniform() {
    // The same driver code must run against a &mut dyn Evaluator of
    // every implementation (this is what lets the search be written
    // once, §V-D).
    let (tree, aln) = simulated(6006, 6, 300);
    let cfg = EngineConfig::default();
    let mut engine = LikelihoodEngine::new(&tree, &aln, cfg);
    let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, 1);
    let evals: Vec<&mut dyn Evaluator> = vec![&mut engine, &mut fj];
    let mut lls = Vec::new();
    for e in evals {
        lls.push(e.log_likelihood(&tree, 0));
    }
    assert!((lls[0] - lls[1]).abs() < 1e-9);
}
