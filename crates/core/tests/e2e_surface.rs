//! The `plf-core` API the end-to-end benchmark compiles against, used
//! here the way `plf_e2e/src/{checks,schemes,layers}.rs` use it.
//!
//! `plf_e2e/` is its own workspace and tier-1 does not build it, so a
//! change to one of these names would otherwise first fail in the
//! benchmark run. When the benchmark drops `core.repeats.*`, this file
//! shrinks with the surface in `engine.rs`.

use phylo_bio::{Alignment, CompressedAlignment, Sequence};
use phylo_tree::newick;
use plf_core::{
    Blocking, EngineConfig, KernelId, KernelKind, LikelihoodEngine, RepeatStats, SiteRepeats,
};

#[test]
fn benchmark_compile_surface_holds() {
    let tree = newick::parse("((a:0.1,b:0.12):0.1,c:0.15,(d:0.1,e:0.11):0.13);").unwrap();
    let rows = [
        ("a", "ACGTACGT"),
        ("b", "ACGTTCGA"),
        ("c", "ACGAACGT"),
        ("d", "TCGTACGT"),
        ("e", "ACGTACTT"),
    ];
    let seqs = rows.map(|(n, s)| Sequence::from_str_named(n, s).unwrap());
    let aln = CompressedAlignment::from_alignment(&Alignment::new(seqs.to_vec()).unwrap());

    // checks.rs: the oracle's four-field literal.
    let mut oracle = LikelihoodEngine::new(
        &tree,
        &aln,
        EngineConfig {
            kernel: KernelKind::Scalar,
            alpha: 0.7,
            site_repeats: SiteRepeats::Off,
            blocking: Blocking::Off,
        },
    );
    // schemes.rs: the workload's config, copied into every engine.
    let config = EngineConfig {
        alpha: 0.7,
        ..EngineConfig::default()
    };
    let mut engine = LikelihoodEngine::new(&tree, &aln, config);
    oracle.set_model(*engine.model());
    let ll = engine.log_likelihood(&tree, 0);
    assert!((ll - oracle.log_likelihood(&tree, 0)).abs() < 1e-9 * ll.abs());

    // schemes.rs: the four counts (kept in a `Debug` struct) and the
    // three verdicts.
    let r: RepeatStats = engine.repeat_stats();
    let newviews = engine.stats().get(KernelId::Newview);
    assert_eq!(newviews.calls, tree.num_inner() as u64);
    assert_eq!(
        [r.newview_calls, r.compressed_calls, r.sites, r.classes],
        [newviews.calls, 0, 0, 0],
        "{r:?}"
    );
    let verdicts = [
        engine.kernel_kind().to_string(),
        engine.site_repeats().to_string(),
        engine.blocking().to_string(),
    ];
    assert_eq!(verdicts[1], "off");

    // layers.rs: `class_ratio` and `saved_frac`, as computed there.
    assert_eq!(r.ratio().unwrap_or(1.0), 1.0);
    assert_eq!(
        (r.sites - r.classes) as f64 / (newviews.sites as f64).max(1.0),
        0.0
    );
}
