#![forbid(unsafe_code)]
//! plf-analyzer: token-tree static analysis for the PLF workspace.
//!
//! Pipeline: [`lex`] (flat tokens + per-line comments) → [`tree`]
//! (delimiter-grouped token trees, the `proc_macro::TokenStream`
//! shape) → [`item`] (fns, impls, unsafe sites, attrs — cfg-aware) →
//! [`graph`] (per-body facts and a name-resolved-enough workspace
//! call graph) → [`rules`] (purity, fpdet, safety, inventory; and,
//! beside the Rust sources, the member manifests and the CI workflow's
//! YAML).
//!
//! No rustc, no syn — the environment is offline; its one dependency
//! is the workspace's std-only `plf-prof` (for the JSON escaper). The
//! analyzer parses Rust exactly far enough for its rules. `cargo xtask
//! lint` is the driver.

pub mod graph;
pub mod item;
pub mod lex;
pub mod report;
pub mod rules;
pub mod tree;

use graph::CallGraph;
use item::{FileItems, FnItem};
use report::Finding;
use rules::Allowlists;
use std::path::{Path, PathBuf};

/// Analyzer configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root (the directory holding `Cargo.toml`).
    pub root: PathBuf,
    /// Cargo features treated as enabled: items under
    /// `#[cfg(feature = "x")]` for listed `x` are analyzed instead of
    /// skipped. This is how CI seeds violations (`--cfg-feature
    /// seed-hotpath-bug`).
    pub features: Vec<String>,
}

/// The extracted workspace plus analysis results.
pub struct Analysis {
    /// Unsuppressed findings, in canonical order.
    pub findings: Vec<Finding>,
    /// The current unsafe census (canonical JSON).
    pub inventory: String,
    /// Files analyzed.
    pub files: usize,
    /// Functions extracted (incl. test code).
    pub fns: usize,
    /// Items skipped by cfg gating.
    pub skipped_cfg_items: usize,
}

/// Collects the workspace's `.rs` files: `crates/`, `shims/`, `src/`,
/// `tests/`, `benches/`, `examples/` under `root`, skipping `target/`
/// and `fixtures/` directories (fixture corpora contain deliberate
/// violations and are analyzed only by their own tests).
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "shims", "src", "tests", "benches", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out);
        }
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The parsed workspace: per-file items with fns drained into one
/// global vector for the call graph.
pub struct Workspace {
    pub files: Vec<FileItems>,
    pub fns: Vec<FnItem>,
}

/// Parses and extracts every workspace file.
pub fn load_workspace(cfg: &Config) -> std::io::Result<Workspace> {
    let mut files = Vec::new();
    let mut fns = Vec::new();
    for path in collect_rs_files(&cfg.root) {
        let src = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(&cfg.root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let mut items = item::extract(&rel, &src, &cfg.features);
        fns.append(&mut items.fns);
        files.push(items);
    }
    Ok(Workspace { files, fns })
}

/// Runs every rule family over the workspace and returns the
/// findings (allowlist-suppressed ones removed, allowlist entries that
/// suppressed nothing added) plus the unsafe census.
pub fn analyze_workspace(cfg: &Config) -> std::io::Result<Analysis> {
    let ws = load_workspace(cfg)?;
    let allow = Allowlists::load(&cfg.root);
    let graph = CallGraph::build(&ws.fns);
    let mut findings = Vec::new();
    findings.extend(rules::purity::run(&ws.fns, &graph, &allow.purity));
    findings.extend(rules::fpdet::run(&ws.fns, &graph, &allow.fpdet));
    findings.extend(rules::safety::run(&ws.files, &ws.fns, &graph, &allow));
    findings.extend(rules::safety::manifests(&cfg.root));
    findings.extend(allow.stale(&cfg.features));
    findings.extend(rules::workflow::run(&cfg.root));
    let inventory = rules::inventory::render(&ws.files);
    let stored = std::fs::read_to_string(cfg.root.join("crates/xtask/unsafe_inventory.json")).ok();
    findings.extend(rules::inventory::check(stored.as_deref(), &inventory));
    report::sort(&mut findings);
    Ok(Analysis {
        findings,
        inventory,
        files: ws.files.len(),
        fns: ws.fns.len(),
        skipped_cfg_items: ws.files.iter().map(|f| f.skipped_cfg_items).sum(),
    })
}
