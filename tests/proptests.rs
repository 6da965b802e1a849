//! Property-based tests over the core invariants.

use phylomic::bio::{alphabet::UNAMBIGUOUS, CompressedAlignment, DnaCode};
use phylomic::models::{DiscreteGamma, Gtr, GtrParams, ProbMatrix};
use phylomic::plf::cla::Cla;
use phylomic::plf::layout::{EigenBasis, FusedPmat, Lut16x16};
use phylomic::plf::{AlignedVec, EngineConfig, KernelKind, LikelihoodEngine, SITE_STRIDE};
use phylomic::tree::build::{default_names, random_tree};
use phylomic::tree::Tree;
use proptest::prelude::*;

/// Strategy: a valid GTR parameter set.
fn gtr_params() -> impl Strategy<Value = GtrParams> {
    (
        proptest::array::uniform6(0.05f64..8.0),
        (0.05f64..1.0, 0.05f64..1.0, 0.05f64..1.0, 0.05f64..1.0),
    )
        .prop_map(|(rates, (a, c, g, t))| {
            let sum = a + c + g + t;
            GtrParams {
                rates,
                freqs: [a / sum, c / sum, g / sum, t / sum],
            }
        })
}

/// Strategy: a random CLA-like value buffer for `n` sites.
fn cla_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-6f64..1.0, n * SITE_STRIDE)
}

/// Strategy: valid tip codes.
fn tip_codes(n: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(1u8..16, n)
}

/// Copies a generated buffer into 64-byte-aligned storage: the SIMD
/// backend's buffer contract (checked at kernel entry in debug builds)
/// requires CLA inputs to be aligned and whole-site padded, which a
/// plain `Vec<f64>` does not guarantee.
fn aligned(v: &[f64]) -> AlignedVec {
    let mut out = AlignedVec::zeroed(v.len());
    out.copy_from_slice(v);
    out
}

/// Every concrete kernel backend. `Simd` falls back to `Scalar` on
/// hosts without AVX2+FMA, where the comparison degenerates to Scalar
/// == Scalar — still sound, just not informative there.
const BACKENDS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Simd];

const N: usize = 23; // deliberately not a multiple of the site block

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prob_matrix_rows_sum_to_one(params in gtr_params(), t in 0.0f64..20.0, alpha in 0.05f64..20.0) {
        let gtr = Gtr::new(params);
        let gamma = DiscreteGamma::new(alpha);
        let pm = ProbMatrix::new(gtr.eigen(), gamma.rates(), t);
        for k in 0..4 {
            for a in 0..4 {
                let s: f64 = pm.per_rate[k][a].iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-8, "k={k} a={a} sum={s}");
            }
        }
    }

    #[test]
    fn all_backends_newview_ii_equivalent(
        params in gtr_params(),
        vl in cla_values(N),
        vr in cla_values(N),
        (tl, tr) in (0.001f64..3.0, 0.001f64..3.0),
    ) {
        let gtr = Gtr::new(params);
        let rates = *DiscreteGamma::new(0.9).rates();
        let pl = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, tl));
        let pr = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, tr));
        let (vl, vr) = (aligned(&vl), aligned(&vr));
        let scale = vec![0u32; N];
        let mut outs = Vec::new();
        for kind in BACKENDS {
            let mut cla = Cla::new(N);
            let (v, s) = cla.buffers_mut();
            kind.kernels().newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, v, s);
            outs.push(cla);
        }
        for (kind, other) in BACKENDS.iter().zip(&outs).skip(1) {
            for (a, b) in outs[0].values().iter().zip(other.values()) {
                prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()), "{kind}: {a} vs {b}");
            }
            prop_assert_eq!(outs[0].scale(), other.scale(), "{} scaling counters", kind);
        }
    }

    #[test]
    fn all_backends_evaluate_equivalent(
        params in gtr_params(),
        vq in cla_values(N),
        vr in cla_values(N),
        codes in tip_codes(N),
        t in 0.001f64..3.0,
    ) {
        let gtr = Gtr::new(params);
        let rates = *DiscreteGamma::new(1.2).rates();
        let p = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, t));
        let pi_tip = Lut16x16::tip_pi(&gtr.freqs());
        let mut pi_w = [0.0; SITE_STRIDE];
        for k in 0..4 {
            for a in 0..4 {
                pi_w[4 * k + a] = 0.25 * gtr.freqs()[a];
            }
        }
        let (vq, vr) = (aligned(&vq), aligned(&vr));
        let scale = vec![0u32; N];
        let weights = vec![1u32; N];
        let lls: Vec<(f64, f64)> = BACKENDS
            .iter()
            .map(|kind| {
                let k = kind.kernels();
                (
                    k.evaluate_ii(&pi_w, &vq, &scale, &p, &vr, &scale, &weights),
                    k.evaluate_ti(&pi_tip, &codes, &p, &vr, &scale, &weights),
                )
            })
            .collect();
        for (kind, (ii, ti)) in BACKENDS.iter().zip(&lls).skip(1) {
            let (ii0, ti0) = lls[0];
            prop_assert!((ii0 - ii).abs() < 1e-9 * (1.0 + ii0.abs()), "{kind}: {ii0} vs {ii}");
            prop_assert!((ti0 - ti).abs() < 1e-9 * (1.0 + ti0.abs()), "{kind}: {ti0} vs {ti}");
        }
    }

    #[test]
    fn all_backends_derivatives_equivalent(
        params in gtr_params(),
        vq in cla_values(N),
        vr in cla_values(N),
        t in 0.001f64..2.0,
    ) {
        let gtr = Gtr::new(params);
        let rates = *DiscreteGamma::new(0.6).rates();
        let basis = EigenBasis::new(gtr.eigen(), &rates);
        let weights = vec![1u32; N];
        let (vq, vr) = (aligned(&vq), aligned(&vr));
        let mut results = Vec::new();
        for kind in BACKENDS {
            let mut sum = AlignedVec::zeroed(N * SITE_STRIDE);
            kind.kernels().derivative_sum_ii(&basis, &vq, &vr, &mut sum);
            let (d1, d2) = kind.kernels()
                .derivative_core(&sum, &basis.lambda_rate, t, &weights);
            results.push((sum, d1, d2));
        }
        let (sum0, d10, d20) = &results[0];
        for (kind, (sum, d1, d2)) in BACKENDS.iter().zip(&results).skip(1) {
            for (a, b) in sum0.iter().zip(sum.iter()) {
                prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()), "{kind}: {a} vs {b}");
            }
            prop_assert!((d10 - d1).abs() < 1e-8 * (1.0 + d10.abs()), "{kind}: {d10} vs {d1}");
            prop_assert!((d20 - d2).abs() < 1e-8 * (1.0 + d20.abs()), "{kind}: {d20} vs {d2}");
        }
    }

    #[test]
    fn backend_matrix_agrees_across_remainder_tails(
        params in gtr_params(),
        vl in cla_values(31),
        vr in cla_values(31),
        codes in tip_codes(31),
        (tl, tr) in (0.001f64..3.0, 0.001f64..3.0),
    ) {
        // The full Simd == Scalar matrix over pattern counts
        // that exercise every remainder-tail shape of the 8-site block
        // loops (n = 1, 7, 8, 9, 31), with the underflow-scaling path
        // forced on a subset of sites and nonzero input counters so the
        // bit-identical-scaling claim is actually load-bearing.
        let gtr = Gtr::new(params);
        let rates = *DiscreteGamma::new(0.8).rates();
        let pl = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, tl));
        let pr = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, tr));
        let basis = EigenBasis::new(gtr.eigen(), &rates);
        let pi_tip = Lut16x16::tip_pi(&gtr.freqs());
        let mut pi_w = [0.0; SITE_STRIDE];
        for k in 0..4 {
            for a in 0..4 {
                pi_w[4 * k + a] = 0.25 * gtr.freqs()[a];
            }
        }
        let (mut vl, mut vr) = (aligned(&vl), aligned(&vr));
        // Every third site is pushed far below the 2⁻²⁵⁶ scaling
        // threshold (product ≈ 1e-120), so newview must rescale those
        // sites and leave the rest alone.
        for site in (0..31).step_by(3) {
            for m in 0..SITE_STRIDE {
                vl[site * SITE_STRIDE + m] *= 1e-60;
                vr[site * SITE_STRIDE + m] *= 1e-60;
            }
        }
        for n in [1usize, 7, 8, 9, 31] {
            let vl = &vl[..n * SITE_STRIDE];
            let vr = &vr[..n * SITE_STRIDE];
            let scale_in = vec![1u32; n];
            let weights = vec![2u32; n];
            let mut results = Vec::new();
            for kind in BACKENDS {
                let k = kind.kernels();
                let mut cla = Cla::new(n);
                let (v, s) = cla.buffers_mut();
                k.newview_ii(&pl, vl, &scale_in, &pr, vr, &scale_in, v, s);
                let ii = k.evaluate_ii(
                    &pi_w, cla.values(), cla.scale(), &pr, vr, &scale_in, &weights);
                let ti = k.evaluate_ti(&pi_tip, &codes[..n], &pl, vr, &scale_in, &weights);
                let mut sum = AlignedVec::zeroed(n * SITE_STRIDE);
                k.derivative_sum_ii(&basis, cla.values(), vr, &mut sum);
                let (d1, d2) = k.derivative_core(&sum, &basis.lambda_rate, tr, &weights);
                results.push((cla, ii, ti, d1, d2));
            }
            let (cla0, ii0, ti0, d10, d20) = &results[0];
            prop_assert!(
                cla0.scale().iter().any(|&s| s > 2),
                "n={} never scaled — the scaling path is untested", n
            );
            for (kind, (cla, ii, ti, d1, d2)) in BACKENDS.iter().zip(&results).skip(1) {
                prop_assert_eq!(
                    cla0.scale(), cla.scale(),
                    "n={} {}: scaling counters not bit-identical", n, kind
                );
                for (a, b) in cla0.values().iter().zip(cla.values()) {
                    prop_assert!(
                        (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                        "n={n} {kind}: CLA {a} vs {b}"
                    );
                }
                prop_assert!(
                    (ii0 - ii).abs() <= 1e-12 * (1.0 + ii0.abs()),
                    "n={n} {kind}: logL {ii0} vs {ii}"
                );
                prop_assert!(
                    (ti0 - ti).abs() <= 1e-12 * (1.0 + ti0.abs()),
                    "n={n} {kind}: tip logL {ti0} vs {ti}"
                );
                // Derivatives accumulate signed per-site ratios, so
                // cancellation can leave a small final value with
                // honest last-ulp noise from the different summation
                // orders; anchor the tolerance to the per-site ratio
                // magnitudes as well as the total.
                let dtol = 1e-12 * (1.0 + d10.abs() + d20.abs() + n as f64);
                prop_assert!((d10 - d1).abs() <= dtol, "n={n} {kind}: d1 {d10} vs {d1}");
                prop_assert!((d20 - d2).abs() <= dtol, "n={n} {kind}: d2 {d20} vs {d2}");
            }
        }
    }

    #[test]
    fn pattern_weights_equal_repeated_columns(
        cols in proptest::collection::vec((0usize..4, 0usize..4, 0usize..4, 1u32..4), 2..10)
    ) {
        // Expanding weighted patterns into repeated columns must give
        // an identical likelihood.
        let tree = phylomic::tree::newick::parse("(x:0.2,y:0.3,z:0.4);").unwrap();
        let names: Vec<String> = vec!["x".into(), "y".into(), "z".into()];
        let mut rows_w: Vec<Vec<DnaCode>> = vec![Vec::new(); 3];
        let mut rows_e: Vec<Vec<DnaCode>> = vec![Vec::new(); 3];
        let mut weights = Vec::new();
        for &(a, b, c, w) in &cols {
            let col = [UNAMBIGUOUS[a], UNAMBIGUOUS[b], UNAMBIGUOUS[c]];
            for t in 0..3 {
                rows_w[t].push(col[t]);
                for _ in 0..w {
                    rows_e[t].push(col[t]);
                }
            }
            weights.push(w);
        }
        let weighted = CompressedAlignment::from_parts(names.clone(), rows_w, weights).unwrap();
        let expanded_w = vec![1; rows_e[0].len()];
        let expanded = CompressedAlignment::from_parts(names, rows_e, expanded_w).unwrap();
        let cfg = EngineConfig::default();
        let mut e1 = LikelihoodEngine::new(&tree, &weighted, cfg);
        let mut e2 = LikelihoodEngine::new(&tree, &expanded, cfg);
        let a = e1.log_likelihood(&tree, 0);
        let b = e2.log_likelihood(&tree, 0);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn random_trees_satisfy_invariants(n in 4usize..20, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let t = random_tree(&default_names(n), 0.1, &mut rng).unwrap();
        t.validate().unwrap();
        prop_assert_eq!(t.num_edges(), 2 * n - 3);
        prop_assert_eq!(t.splits().len(), n - 3);
        // Newick round trip preserves the topology.
        let back = phylomic::tree::newick::parse(&phylomic::tree::newick::to_newick(&t)).unwrap();
        prop_assert_eq!(t.rf_distance(&back), 0);
    }

    #[test]
    fn spr_preserves_invariants_and_undoes(
        n in 5usize..12,
        seed in 0u64..500,
        prune_pick in 0usize..100,
        target_pick in 0usize..100,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let t0 = random_tree(&default_names(n), 0.1, &mut rng).unwrap();
        let mut t = t0.clone();
        let prune = prune_pick % t.num_edges();
        let (a, b) = t.endpoints(prune);
        let root = if t.is_tip(a) { a } else { b };
        let target = target_pick % t.num_edges();
        match phylomic::tree::moves::spr(&mut t, prune, root, target) {
            Ok(undo) => {
                t.validate().unwrap();
                phylomic::tree::moves::spr_undo(&mut t, undo).unwrap();
                prop_assert_eq!(t.rf_distance(&t0), 0);
                prop_assert!((t.total_length() - t0.total_length()).abs() < 1e-9);
            }
            Err(_) => {
                // Rejected moves must leave the tree untouched.
                prop_assert_eq!(t.rf_distance(&t0), 0);
            }
        }
    }
}

// Engine-level property: the virtual-root pulley principle on random
// data. Kept at a modest case count — each case builds a full engine.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pulley_principle_random_engine(seed in 0u64..200, alpha in 0.1f64..5.0) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let names = default_names(6);
        let tree: Tree = random_tree(&names, 0.2, &mut rng).unwrap();
        let gtr = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(alpha);
        let aln = phylomic::seqgen::simulate_compressed(&tree, gtr.eigen(), &gamma, 64, &mut rng);
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig { kernel: KernelKind::Scalar, alpha, ..EngineConfig::default() });
        let reference = engine.log_likelihood(&tree, 0);
        for e in tree.edge_ids() {
            let ll = engine.log_likelihood(&tree, e);
            prop_assert!((ll - reference).abs() < 1e-8, "edge {e}: {ll} vs {reference}");
        }
    }
}

// ---------------------------------------------------------------------------
// Traversal blocking re-orders kernel work only: the blocked engine
// must be bit-identical to the unblocked one — same log-likelihood
// bits, same derivative bits, same per-site scaling counters at every
// inner node — for any alignment and any backend.
// ---------------------------------------------------------------------------

use phylomic::plf::{Blocking, KernelId};
use phylomic::tree::moves::{spr, spr_undo, SprUndo};
use phylomic::tree::traverse::edges_within;
use phylomic::tree::EdgeId;

/// An alignment whose patterns cycle through `protos` prototype
/// columns: `protos == 1` is one column repeated, `protos >= width`
/// all-distinct columns.
fn proto_alignment(tree: &Tree, protos: usize, width: usize, seed: u64) -> CompressedAlignment {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let taxa = tree.num_taxa();
    let cols: Vec<Vec<usize>> = (0..protos)
        .map(|_| (0..taxa).map(|_| rng.random_range(0..4)).collect())
        .collect();
    let rows: Vec<Vec<DnaCode>> = (0..taxa)
        .map(|taxon| {
            (0..width)
                .map(|p| DnaCode::from_state(cols[p % protos][taxon]))
                .collect()
        })
        .collect();
    CompressedAlignment::from_parts(tree.tip_names().to_vec(), rows, vec![1; width]).unwrap()
}

/// The first applicable SPR move of `tree` in edge order, applied:
/// `(prune_edge, undo)`.
fn apply_first_spr(tree: &mut Tree) -> Option<(EdgeId, SprUndo)> {
    for prune_edge in tree.edge_ids() {
        let (subtree_root, _) = tree.endpoints(prune_edge);
        for target in edges_within(tree, prune_edge, 3) {
            if let Ok(undo) = spr(tree, prune_edge, subtree_root, target) {
                return Some((prune_edge, undo));
            }
        }
    }
    None
}

/// Builds an unblocked and a blocked engine and checks log-likelihood
/// bits, branch-derivative bits, and every inner node's per-site scale
/// array are identical at each of the given virtual roots; and that a
/// fresh engine of each mode runs one `newview` per inner node. Then
/// both engines follow the tree through an SPR apply/undo pair, which
/// re-wires nodes and hands the halves of the split edges other ids:
/// no cached CLA may be reused for other content than it holds, so
/// each engine must still agree with a fresh one.
fn assert_on_off_identical(
    tree: &Tree,
    aln: &CompressedAlignment,
    kernel: KernelKind,
    alpha: f64,
    roots: &[usize],
) {
    let mk = |blocking| {
        let config = EngineConfig {
            kernel,
            alpha,
            blocking,
            ..EngineConfig::default()
        };
        LikelihoodEngine::new(tree, aln, config)
    };
    let mut moved = tree.clone();
    let spr_move = apply_first_spr(&mut moved);
    assert!(spr_move.is_some() || tree.num_taxa() < 5, "no SPR move");
    let mut off = mk(Blocking::Off);
    let mut on = mk(Blocking::On);
    for &root in roots {
        let a = off.log_likelihood(tree, root);
        let b = on.log_likelihood(tree, root);
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{:?} root {}: logL {} vs blocked {}",
            kernel,
            root,
            a,
            b
        );
        for inner in 0..off.num_inner() {
            prop_assert_eq!(
                off.cla_scale(inner),
                on.cla_scale(inner),
                "{:?} root {} inner {}: scale arrays differ",
                kernel,
                root,
                inner
            );
        }
        off.prepare_branch(tree, root);
        on.prepare_branch(tree, root);
        let (ad1, ad2) = off.branch_derivatives(0.37);
        let (bd1, bd2) = on.branch_derivatives(0.37);
        prop_assert_eq!(
            (ad1.to_bits(), ad2.to_bits()),
            (bd1.to_bits(), bd2.to_bits()),
            "{:?} root {}: derivatives ({}, {}) vs blocked ({}, {})",
            kernel,
            root,
            ad1,
            ad2,
            bd1,
            bd2
        );
        for blocking in [Blocking::Off, Blocking::On] {
            let mut fresh = mk(blocking);
            fresh.log_likelihood(tree, root);
            prop_assert_eq!(
                fresh.stats().get(KernelId::Newview).calls,
                tree.num_inner() as u64,
                "{:?} blocking={:?} root {}: newviews of a first traversal",
                kernel,
                blocking,
                root
            );
        }
    }
    if let Some((prune_edge, undo)) = spr_move {
        // On the moved tree, then — the undo applied — on the tree
        // the engines first saw.
        let mut undo = Some(undo);
        for (what, root) in [
            ("on the moved tree", prune_edge),
            ("after the undo", roots[0]),
        ] {
            let expect = mk(Blocking::Off).log_likelihood(&moved, root);
            for (e, name) in [(&mut off, "unblocked"), (&mut on, "blocked")] {
                let got = e.log_likelihood(&moved, root);
                prop_assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "{:?} {} {}: {} vs fresh {}",
                    kernel,
                    name,
                    what,
                    got,
                    expect
                );
            }
            if let Some(undo) = undo.take() {
                spr_undo(&mut moved, undo).unwrap();
            }
        }
    }
    // Over the whole sequence of roots, both ran the same `newview`s.
    let calls = |e: &LikelihoodEngine| e.stats().get(KernelId::Newview).calls;
    prop_assert_eq!(calls(&on), calls(&off));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocking_cells_bit_identical_across_spr(
        seed in 0u64..500,
        protos in 1usize..24,
        width in 1usize..48,
        alpha in 0.2f64..3.0,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let names = default_names(8);
        let tree: Tree = random_tree(&names, 0.2, &mut rng).unwrap();
        let aln = proto_alignment(&tree, protos.min(width), width, seed ^ 0xabc);
        assert_on_off_identical(&tree, &aln, KernelKind::Scalar, alpha, &[0, 3]);
    }
}

// ---------------------------------------------------------------------------
// The pruned walk: an engine that leaves unchanged subtrees out of its
// schedule must do exactly what the full walk does — same likelihood
// bits as a fresh engine, same `newview`s, same stamps on every node —
// whatever happens to the tree between two traversals. (In this debug
// build every pruned walk additionally sweeps the full schedule and
// holds each node it left out to its stored keys.)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pruned_walk_is_the_full_walk(
        seed in 0u64..1 << 32,
        taxa in 5usize..=20,
        steps in 8usize..40,
        forced_blocking in 0u8..2,
    ) {
        use phylomic::tree::moves::{nni, NniVariant};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut tree: Tree = random_tree(&default_names(taxa), 0.2, &mut rng).unwrap();
        let aln = proto_alignment(&tree, 9, 24, seed ^ 0x5eed);
        let mut alpha = 0.7;
        let config = |alpha| EngineConfig {
            kernel: KernelKind::Scalar,
            alpha,
            blocking: if forced_blocking == 1 { Blocking::On } else { Blocking::Auto },
            ..EngineConfig::default()
        };
        let mut pruning = LikelihoodEngine::new(&tree, &aln, config(alpha));
        // The same engine minus the pruning.
        let mut full = LikelihoodEngine::without_pruning(&tree, &aln, config(alpha));
        let mut root = 0;
        let mut pending_undo: Option<SprUndo> = None;
        for step in 0..steps {
            let op = rng.random_range(0..8u8);
            let what = match op {
                0 => {
                    for _ in 0..rng.random_range(1..=5usize) {
                        let e = rng.random_range(0..tree.num_edges());
                        tree.set_length(e, 0.01 + rng.random::<f64>()).unwrap();
                    }
                    pending_undo = None;
                    "set_length"
                }
                1 => {
                    // Some applicable move near a random edge.
                    let applied = (0..32).find_map(|_| {
                        let prune = rng.random_range(0..tree.num_edges());
                        let (a, b) = tree.endpoints(prune);
                        let subtree_root = if rng.random::<bool>() { a } else { b };
                        let targets = edges_within(&tree, prune, 4);
                        let target = *targets.get(rng.random_range(0..targets.len().max(1)))?;
                        spr(&mut tree, prune, subtree_root, target).ok()
                    });
                    pending_undo = applied;
                    "spr"
                }
                2 => match pending_undo.take() {
                    Some(undo) => {
                        spr_undo(&mut tree, undo).unwrap();
                        "spr_undo"
                    }
                    None => "nothing to undo",
                },
                3 => {
                    let internal: Vec<EdgeId> = tree.internal_edges().collect();
                    let e = internal[rng.random_range(0..internal.len())];
                    let variant = if rng.random::<bool>() { NniVariant::First } else { NniVariant::Second };
                    nni(&mut tree, e, variant).unwrap();
                    pending_undo = None;
                    "nni"
                }
                4 => {
                    root = rng.random_range(0..tree.num_edges());
                    "re-root"
                }
                5 => {
                    alpha = 0.3 + rng.random::<f64>();
                    pruning.set_alpha(alpha);
                    full.set_alpha(alpha);
                    "set_alpha"
                }
                6 => {
                    tree = tree.clone();
                    "clone"
                }
                _ => {
                    // Same topology and lengths, other tip, node and
                    // edge ids, and the names in another allocation.
                    tree = phylomic::tree::newick::parse(&phylomic::tree::newick::to_newick(&tree)).unwrap();
                    pending_undo = None;
                    "re-parse"
                }
            };
            root = root.min(tree.num_edges() - 1);
            let (got, expect) = if step % 3 == 2 {
                pruning.prepare_branch(&tree, root);
                full.prepare_branch(&tree, root);
                (pruning.branch_derivatives(0.3).0, full.branch_derivatives(0.3).0)
            } else {
                (pruning.log_likelihood(&tree, root), full.log_likelihood(&tree, root))
            };
            prop_assert_eq!(got.to_bits(), expect.to_bits(), "step {} ({}): {} vs {}", step, what, got, expect);
            let fresh = LikelihoodEngine::new(&tree, &aln, config(alpha)).log_likelihood(&tree, root);
            prop_assert_eq!(
                pruning.log_likelihood(&tree, root).to_bits(),
                fresh.to_bits(),
                "step {} ({}): not the fresh engine's logL", step, what
            );
            full.log_likelihood(&tree, root);
            prop_assert_eq!(
                pruning.stats().get(KernelId::Newview).calls,
                full.stats().get(KernelId::Newview).calls,
                "step {} ({}): newview calls", step, what
            );
            for inner in 0..tree.num_inner() {
                prop_assert_eq!(
                    pruning.cla_stamp(inner),
                    full.cla_stamp(inner),
                    "step {} ({}): stamp of inner node {}", step, what, inner
                );
                prop_assert_eq!(pruning.cla_scale(inner), full.cla_scale(inner));
            }
        }
    }
}

#[test]
fn remainder_tails_every_backend() {
    // Widths around the 8-site kernel block and single-site edge, with
    // one column repeated, mixed columns, and all-distinct ones, on
    // every backend including the Auto dispatcher. Each cell runs
    // blocked against unblocked.
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
    let names = default_names(6);
    let tree: Tree = random_tree(&names, 0.15, &mut rng).unwrap();
    for width in [1usize, 7, 8, 9, 31] {
        for protos in [1usize, width.div_ceil(2), width] {
            let aln = proto_alignment(&tree, protos, width, 7 + width as u64);
            for kernel in KernelKind::ALL {
                assert_on_off_identical(&tree, &aln, kernel, 0.8, &[0, 2]);
            }
        }
    }
}
