//! Integration tests over the seeded-violation fixture corpus in
//! `crates/analyzer/fixtures/`. Each fixture file is analyzed under a
//! synthetic workspace path chosen so the rule under test discovers
//! its entry points, and the tests assert the exact audit keys (and,
//! where line-stability matters, the lines) of the seeded violations.
//!
//! The corpus is excluded from `cargo xtask lint` runs —
//! [`plf_analyzer::collect_rs_files`] skips `fixtures/` directories —
//! so the deliberate violations never pollute the workspace audit.

use plf_analyzer::graph::CallGraph;
use plf_analyzer::item::{extract, FileItems, FnItem};
use plf_analyzer::report::Finding;
use plf_analyzer::rules::{fpdet, inventory, purity, safety, Allowlist, Allowlists};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Extracts a fixture under a synthetic path and runs every rule
/// family with empty allowlists.
fn analyze(name: &str, as_path: &str) -> (Vec<Finding>, FileItems, Vec<FnItem>) {
    let mut items = extract(as_path, &fixture(name), &[]);
    let fns = std::mem::take(&mut items.fns);
    let graph = CallGraph::build(&fns);
    let allow = Allowlists::default();
    let mut findings = Vec::new();
    findings.extend(purity::run(&fns, &graph, &allow.purity));
    findings.extend(fpdet::run(&fns, &graph, &allow.fpdet));
    findings.extend(safety::run(
        std::slice::from_ref(&items),
        &fns,
        &graph,
        &allow,
    ));
    (findings, items, fns)
}

fn keys(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.key.as_str()).collect()
}

#[test]
fn purity_kernel_fixture_flags_each_category_down_the_chain() {
    let (findings, _, _) = analyze("purity_kernel.rs", "crates/fake/src/kernels/bad.rs");
    let purity: Vec<&Finding> = findings.iter().filter(|f| f.rule == "purity").collect();
    let k = keys(&findings);
    // The seeded helper two hops from the entry point, per category.
    assert!(k.contains(&"lookup:alloc"), "{k:?}");
    assert!(k.contains(&"lookup:index"), "{k:?}");
    assert!(k.contains(&"lookup:panic"), "{k:?}");
    // Reachability chains name the entry point.
    let panic = purity.iter().find(|f| f.key == "lookup:panic").unwrap();
    assert!(
        panic.message.contains("newview_tt") && panic.message.contains("lookup"),
        "{}",
        panic.message
    );
    // The impure-but-unreachable fn stays unreported.
    assert!(
        !k.iter().any(|key| key.starts_with("cold_path")),
        "cold_path must not be reachability-flagged: {k:?}"
    );
}

#[test]
fn purity_worker_fixture_checks_panic_alloc_but_not_indexing() {
    let (findings, _, _) = analyze("purity_worker.rs", "crates/parallel/src/forkjoin.rs");
    let k = keys(&findings);
    assert!(k.contains(&"dispatch:alloc"), "{k:?}");
    assert!(k.contains(&"dispatch:panic"), "{k:?}");
    // Indexing inside worker_loop is exempt in the worker tier.
    assert!(!k.contains(&"worker_loop:index"), "{k:?}");
}

#[test]
fn purity_parser_fixture_checks_panics_but_not_allocation() {
    let (findings, _, _) = analyze("purity_parser.rs", "crates/bio/src/phylip.rs");
    let k = keys(&findings);
    let planted = findings
        .iter()
        .find(|f| f.key == "decode_first:panic")
        .unwrap_or_else(|| panic!("planted unwrap not reported: {k:?}"));
    assert!(
        planted.message.contains("parse_text → decode_first"),
        "{}",
        planted.message
    );
    // Parsers allocate by design.
    assert!(!k.iter().any(|key| key.ends_with(":alloc")), "{k:?}");
    // fasta.rs is not in this single-file run: the entry guard fires.
    assert!(k.contains(&"entry:parsers"), "{k:?}");
}

#[test]
fn fpdet_fixture_flags_raw_mul_add_but_not_gated_ones() {
    let (findings, _, _) = analyze("fpdet.rs", "crates/fake/src/numerics.rs");
    let fp: Vec<&Finding> = findings.iter().filter(|f| f.rule == "fpdet").collect();
    let k: Vec<&str> = fp.iter().map(|f| f.key.as_str()).collect();
    // The libm-collapse reintroduction shape is caught...
    assert!(k.contains(&"raw_fma_regression:mul_add"), "{k:?}");
    // ...while both gated shapes pass.
    assert!(
        !k.iter().any(|key| key.starts_with("gated_by_cfg")),
        "{k:?}"
    );
    assert!(
        !k.iter()
            .any(|key| key.starts_with("gated_by_target_feature")),
        "{k:?}"
    );
    assert!(k.contains(&"float_eq_bug:float_cmp"), "{k:?}");
    assert!(k.contains(&"hash_order_bug:hash_iter"), "{k:?}");
    assert!(k.contains(&"timed_off_the_one_clock:clock"), "{k:?}");
    assert!(k.contains(&"epoch_off_the_one_clock:clock"), "{k:?}");
    assert!(!k.contains(&"other_now:clock"), "{k:?}");
}

#[test]
fn root_tests_examples_and_benches_are_test_context() {
    // Paths are workspace-relative: the root package's `tests/` has no
    // leading slash, a member's has one. The fixture above flags as
    // library code; in any of these directories it is a test.
    for path in [
        "tests/numerics.rs",
        "examples/numerics.rs",
        "benches/numerics.rs",
        "crates/fake/tests/numerics.rs",
    ] {
        let (findings, _, fns) = analyze("fpdet.rs", path);
        assert!(fns.iter().all(|f| f.is_test_ctx), "{path}");
        let fp: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == "fpdet")
            .map(|f| f.key.as_str())
            .collect();
        assert!(fp.is_empty(), "{path}: {fp:?}");
    }
    // A name that only ends in one of them is no such directory.
    let (findings, _, _) = analyze("fpdet.rs", "crates/contests/src/numerics.rs");
    assert!(keys(&findings).contains(&"float_eq_bug:float_cmp"));
}

#[test]
fn safety_fixture_flags_the_three_source_rules() {
    let (findings, _, _) = analyze("safety.rs", "crates/fake/src/lib.rs");
    let sf: Vec<&Finding> = findings.iter().filter(|f| f.rule == "safety").collect();
    let k: Vec<&str> = sf.iter().map(|f| f.key.as_str()).collect();
    // Rule 1: exactly one bare unsafe block (peek); the audited one
    // (peek_audited) is covered by its SAFETY comment. The
    // uncommented unsafe impl trips rule 1 too, under its own kind.
    assert_eq!(
        k.iter()
            .filter(|key| **key == "block:safety_comment")
            .count(),
        1,
        "{k:?}"
    );
    assert!(k.contains(&"impl:safety_comment"), "{k:?}");
    // Rule 2: the multi-line Relaxed store — the shape the PR 3 line
    // scanner could not see.
    assert!(k.contains(&"flag.store"), "{k:?}");
    // Rule 3: the unregistered unsafe impl Sync.
    assert!(k.contains(&"Racy"), "{k:?}");
}

#[test]
fn safety_fixture_relaxed_finding_is_suppressed_by_allowlist_entry() {
    let mut items = extract("crates/fake/src/lib.rs", &fixture("safety.rs"), &[]);
    let fns = std::mem::take(&mut items.fns);
    let graph = CallGraph::build(&fns);
    let allow = Allowlists {
        relaxed: Allowlist::parse("crates/fake flag.store\n"),
        unsafe_impl: Allowlist::parse("# audited\ncrates/fake Racy\n"),
        ..Allowlists::default()
    };
    let findings = safety::run(std::slice::from_ref(&items), &fns, &graph, &allow);
    let k: Vec<&str> = findings.iter().map(|f| f.key.as_str()).collect();
    assert!(!k.contains(&"flag.store"), "{k:?}");
    assert!(!k.contains(&"Racy"), "{k:?}");
}

#[test]
fn clean_kernel_fixture_produces_zero_findings() {
    let (findings, _, _) = analyze("clean_kernel.rs", "crates/fake/src/kernels/clean.rs");
    // The worker- and parser-tier entry guards are expected (this
    // synthetic workspace has no forkjoin.rs and no bio readers);
    // nothing else may fire.
    let real: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.key != "entry:worker_loop" && f.key != "entry:parsers")
        .collect();
    assert!(real.is_empty(), "{real:?}");
}

#[test]
fn fixture_corpus_is_invisible_to_workspace_collection() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    for f in plf_analyzer::collect_rs_files(&root) {
        let p = f.to_string_lossy().replace('\\', "/");
        assert!(
            !p.contains("/fixtures/"),
            "fixture corpus leaked into the workspace scan: {p}"
        );
    }
}

#[test]
fn inventory_census_of_fixture_matches_seeded_unsafe() {
    let (_, items, _) = analyze("safety.rs", "crates/fake/src/lib.rs");
    let inv = inventory::render(std::slice::from_ref(&items));
    // Two unsafe blocks (peek, peek_audited) and one unsafe impl.
    assert!(inv.contains("\"kind\":\"impl\",\"count\":1"), "{inv}");
    let blocks = inv
        .lines()
        .filter(|l| l.contains("\"kind\":\"block\""))
        .count();
    assert_eq!(blocks, 2, "{inv}");
}
