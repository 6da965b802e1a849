//! End-to-end lint tests driven through `plf_analyzer`, replacing the
//! PR 3 regex-scanner fixture tests:
//!
//! * the real workspace must lint clean (allowlists and the unsafe
//!   inventory are current);
//! * the committed fixture crate (`crates/xtask/fixtures/`) must trip
//!   the safety rules at the pinned sites, and each of its fixture
//!   manifests that does not inherit the workspace lints must trip
//!   rule 4 once;
//! * enabling `seed-hotpath-bug` must surface the seeded kernel
//!   violations — the tripwire CI relies on.

use plf_analyzer::graph::CallGraph;
use plf_analyzer::item::extract;
use plf_analyzer::rules::{safety, Allowlists};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

/// Clean both without features and as the default build compiles
/// (`span-trace` on: the span recorder is behind it).
#[test]
fn workspace_lints_clean() {
    for features in [vec![], vec!["span-trace".to_string()]] {
        let cfg = plf_analyzer::Config {
            root: workspace_root(),
            features: features.clone(),
        };
        let analysis = plf_analyzer::analyze_workspace(&cfg).expect("analyze");
        assert!(
            analysis.findings.is_empty(),
            "workspace must lint clean with {features:?}; run `cargo xtask lint` \
             to see and audit:\n{}",
            analysis
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // Sanity: the walk really covered the workspace.
        assert!(
            analysis.files > 100,
            "only {} files analyzed",
            analysis.files
        );
        assert!(analysis.fns > 1000, "only {} fns extracted", analysis.fns);
    }
}

#[test]
fn seeded_feature_surfaces_kernel_violations() {
    let cfg = plf_analyzer::Config {
        root: workspace_root(),
        features: vec!["seed-hotpath-bug".into()],
    };
    let analysis = plf_analyzer::analyze_workspace(&cfg).expect("analyze");
    let keys: Vec<&str> = analysis.findings.iter().map(|f| f.key.as_str()).collect();
    assert!(
        keys.contains(&"derivative_core:panic"),
        "seeded purity violation not caught: {keys:?}"
    );
    assert!(
        keys.contains(&"derivative_core:mul_add"),
        "seeded raw-mul_add (libm-collapse shape) not caught: {keys:?}"
    );
    for f in &analysis.findings {
        assert!(
            f.file.contains("kernels/scalar.rs"),
            "seeding must not perturb other files: {f}"
        );
    }
}

/// Lints one committed fixture file under its real path with the
/// workspace allowlists (which must not cover fixtures).
fn lint_fixture(name: &str) -> Vec<plf_analyzer::report::Finding> {
    let root = workspace_root();
    let rel = format!("crates/xtask/fixtures/src/{name}");
    let src = std::fs::read_to_string(root.join(&rel)).expect("fixture");
    let as_path = format!("crates/fixture/src/{name}");
    let mut items = extract(&as_path, &src, &[]);
    let fns = std::mem::take(&mut items.fns);
    let graph = CallGraph::build(&fns);
    let allow = Allowlists::load(&root);
    safety::run(std::slice::from_ref(&items), &fns, &graph, &allow)
}

#[test]
fn committed_bad_fixture_trips_safety_rules_at_pinned_lines() {
    let findings = lint_fixture("bad.rs");
    let get = |key: &str| {
        findings
            .iter()
            .find(|f| f.key == key)
            .unwrap_or_else(|| panic!("missing {key}: {findings:?}"))
    };
    // unsafe impl Sync for Racy — line 8, both unregistered and
    // missing its justification comment.
    assert_eq!(get("Racy").line, 8);
    assert_eq!(get("impl:safety_comment").line, 8);
    // flag.store(..., Relaxed) — line 11.
    assert_eq!(get("flag.store").line, 11);
    // bare unsafe block in peek — line 15.
    assert_eq!(get("block:safety_comment").line, 15);
}

#[test]
fn committed_manifest_fixtures_trip_only_the_missing_lints_table() {
    let dir = workspace_root().join("crates/xtask/fixtures/manifests");
    for (name, want) in [
        ("no_lints.toml", 1),
        ("lints_not_inherited.toml", 1),
        ("workspace_table.toml", 1),
        ("compliant.toml", 0),
    ] {
        let text = std::fs::read_to_string(dir.join(name)).expect("fixture");
        let findings = safety::check_manifest(name, &text, false);
        let found: Vec<_> = findings.iter().map(|f| (f.line, f.key.as_str())).collect();
        assert_eq!(found, vec![(1, "lints.workspace"); want], "{name}");
    }
}
