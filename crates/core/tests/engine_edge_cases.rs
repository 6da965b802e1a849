//! Edge-case integration tests for the likelihood engine and kernels
//! that go beyond the per-module unit tests.

use phylo_bio::{Alignment, CompressedAlignment, Sequence};
use phylo_models::{DiscreteGamma, Gtr, GtrParams, ProbMatrix};
use phylo_tree::newick;
use plf_core::cla::Cla;
use plf_core::layout::{FusedPmat, Lut16x16};
use plf_core::{EngineConfig, KernelId, KernelKind, LikelihoodEngine, SITE_STRIDE};

fn aln(rows: &[(&str, &str)]) -> CompressedAlignment {
    CompressedAlignment::from_alignment(
        &Alignment::new(
            rows.iter()
                .map(|(n, s)| Sequence::from_str_named(*n, s).unwrap())
                .collect(),
        )
        .unwrap(),
    )
}

#[test]
fn single_pattern_engine_works() {
    let a = aln(&[("a", "A"), ("b", "C"), ("c", "G")]);
    let tree = newick::parse("(a:0.2,b:0.3,c:0.4);").unwrap();
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        let mut e = LikelihoodEngine::new(
            &tree,
            &a,
            EngineConfig {
                kernel,
                alpha: 1.0,
                ..EngineConfig::default()
            },
        );
        let ll = e.log_likelihood(&tree, 0);
        assert!(ll.is_finite() && ll < 0.0, "{kernel:?}: {ll}");
    }
}

#[test]
fn pattern_count_not_multiple_of_block_is_exact() {
    // The explicit-SIMD kernels prefetch 8 sites ahead and the root
    // kernels walk sites in blocks; sizes 1..=17 exercise every small
    // remainder. Scalar is the oracle.
    for width in 1..=17usize {
        let seq = |base: &str| -> String { base.chars().cycle().take(width).collect() };
        let a = aln(&[
            ("a", &seq("ACGTR")),
            ("b", &seq("CAGTN")),
            ("c", &seq("GTACY")),
            ("d", &seq("TGCAA")),
        ]);
        let tree = newick::parse("((a:0.1,b:0.2):0.15,c:0.3,d:0.25);").unwrap();
        let mut s = LikelihoodEngine::new(
            &tree,
            &a,
            EngineConfig {
                kernel: KernelKind::Scalar,
                alpha: 0.8,
                ..EngineConfig::default()
            },
        );
        let mut v = LikelihoodEngine::new(
            &tree,
            &a,
            EngineConfig {
                kernel: KernelKind::Simd,
                alpha: 0.8,
                ..EngineConfig::default()
            },
        );
        let ls = s.log_likelihood(&tree, 0);
        let lv = v.log_likelihood(&tree, 0);
        assert!((ls - lv).abs() < 1e-10, "width {width}: {ls} vs {lv}");
    }
}

#[test]
fn scale_counters_propagate_through_newview_chain() {
    // Chain newview_ii manually with pre-scaled children and confirm
    // additive counters.
    let g = Gtr::new(GtrParams::jc69());
    let rates = *DiscreteGamma::new(1.0).rates();
    let p = FusedPmat::from_prob(&ProbMatrix::new(g.eigen(), &rates, 0.1));
    let n = 5;
    let mut left = Cla::new(n);
    let mut right = Cla::new(n);
    left.values_mut().fill(0.3);
    right.values_mut().fill(0.4);
    left.scale_mut().copy_from_slice(&[1, 2, 0, 3, 1]);
    right.scale_mut().copy_from_slice(&[2, 0, 0, 1, 4]);
    for kind in [KernelKind::Scalar, KernelKind::Simd] {
        let mut out = Cla::new(n);
        let (v, s) = out.buffers_mut();
        kind.kernels().newview_ii(
            &p,
            left.values(),
            left.scale(),
            &p,
            right.values(),
            right.scale(),
            v,
            s,
        );
        // Values ~0.1 magnitude: no new scaling events, counters add.
        assert_eq!(out.scale(), &[3, 2, 0, 4, 5], "{kind:?}");
    }
}

#[test]
fn underflow_event_increments_counter_and_rescales() {
    let g = Gtr::new(GtrParams::jc69());
    let rates = *DiscreteGamma::new(1.0).rates();
    let p = FusedPmat::from_prob(&ProbMatrix::new(g.eigen(), &rates, 0.05));
    let n = 1;
    let mut left = Cla::new(n);
    let mut right = Cla::new(n);
    // Product ≈ 1e-90 < 2^-256 ≈ 8.6e-78: exactly one rescaling event.
    left.values_mut().fill(1e-50);
    right.values_mut().fill(1e-40);
    for kind in [KernelKind::Scalar, KernelKind::Simd] {
        let mut out = Cla::new(n);
        let (v, s) = out.buffers_mut();
        kind.kernels().newview_ii(
            &p,
            left.values(),
            left.scale(),
            &p,
            right.values(),
            right.scale(),
            v,
            s,
        );
        assert_eq!(out.scale()[0], 1, "{kind:?}: one rescaling event");
        // Rescaled values are in a healthy range again.
        let max = out.values().iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 1e-80, "{kind:?}: max after rescale {max}");
    }
}

#[test]
fn gap_only_taxon_does_not_change_other_information() {
    // Adding an all-gap taxon to an alignment multiplies every site
    // likelihood by exactly 1 at the tip; the log-likelihood changes
    // only through the extra branch integration, which for an all-gap
    // tip is also exactly 1 — so logL is invariant.
    let base = aln(&[("a", "ACGTAC"), ("b", "ACGATC"), ("c", "TCGTAA")]);
    let tree3 = newick::parse("(a:0.2,b:0.3,c:0.4);").unwrap();
    let mut e3 = LikelihoodEngine::new(&tree3, &base, EngineConfig::default());
    let ll3 = e3.log_likelihood(&tree3, 0);

    let with_gap = aln(&[
        ("a", "ACGTAC"),
        ("b", "ACGATC"),
        ("c", "TCGTAA"),
        ("g", "------"),
    ]);
    let tree4 = newick::parse("((a:0.2,g:0.5):0.0000001,b:0.3,c:0.4);").unwrap();
    let mut e4 = LikelihoodEngine::new(&tree4, &with_gap, EngineConfig::default());
    // Frequencies differ (pseudocounts over different totals): align
    // them so only the topology differs.
    e4.set_model(*e3.model());
    let ll4 = e4.log_likelihood(&tree4, 0);
    assert!((ll3 - ll4).abs() < 1e-6, "{ll3} vs {ll4}");
}

#[test]
fn with_range_rejects_out_of_bounds() {
    let a = aln(&[("a", "ACGT"), ("b", "ACGA"), ("c", "TCGT")]);
    let tree = newick::parse("(a:0.1,b:0.1,c:0.1);").unwrap();
    let r = std::panic::catch_unwind(|| {
        LikelihoodEngine::with_range(&tree, &a, EngineConfig::default(), 0..99)
    });
    assert!(r.is_err());
}

#[test]
fn evaluate_records_stats_per_call() {
    let a = aln(&[("a", "ACGT"), ("b", "ACGA"), ("c", "TCGT")]);
    let tree = newick::parse("(a:0.1,b:0.1,c:0.1);").unwrap();
    let mut e = LikelihoodEngine::new(&tree, &a, EngineConfig::default());
    for _ in 0..5 {
        e.log_likelihood(&tree, 0);
    }
    let s = e.stats().get(KernelId::Evaluate);
    assert_eq!(s.calls, 5);
    assert_eq!(s.sites, 5 * a.num_patterns() as u64);
    e.reset_stats();
    assert_eq!(e.stats().get(KernelId::Evaluate).calls, 0);
}

#[test]
fn tip_luts_isolate_ambiguity_semantics() {
    // evaluate_ti with an ambiguous tip R = {A,G} must equal the sum
    // of the pattern likelihoods with A and with G (marginalization),
    // computed through full engines.
    let tree = newick::parse("(q:0.2,b:0.3,c:0.4);").unwrap();
    let ll_of = |qchar: &str| -> f64 {
        let a = aln(&[("q", qchar), ("b", "C"), ("c", "G")]);
        let mut e = LikelihoodEngine::new(&tree, &a, EngineConfig::default());
        let mut m = *e.model();
        m.freqs = [0.25; 4];
        e.set_model(m);
        e.log_likelihood(&tree, 0)
    };
    let l_r = ll_of("R").exp();
    let l_a = ll_of("A").exp();
    let l_g = ll_of("G").exp();
    assert!(
        (l_r - (l_a + l_g)).abs() < 1e-12,
        "P(R) = P(A) + P(G): {l_r} vs {}",
        l_a + l_g
    );
}

#[test]
fn luts_row_zero_never_read() {
    // DnaCode guarantees codes 1..=15; defensive check that kernels
    // tolerate the full valid code range.
    let g = Gtr::new(GtrParams::jc69());
    let rates = *DiscreteGamma::new(1.0).rates();
    let p = FusedPmat::from_prob(&ProbMatrix::new(g.eigen(), &rates, 0.2));
    let lut = Lut16x16::tip_prob(&p);
    let codes: Vec<u8> = (1..16).collect();
    let n = codes.len();
    for kind in [KernelKind::Scalar, KernelKind::Simd] {
        let mut out = Cla::new(n);
        let (v, s) = out.buffers_mut();
        kind.kernels().newview_tt(&lut, &lut, &codes, &codes, v, s);
        assert!(out.values()[..n * SITE_STRIDE]
            .iter()
            .all(|x| x.is_finite()));
    }
}
