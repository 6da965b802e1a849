//! The PR 3 unsafe-invariant lints, migrated from line scanning to
//! token trees:
//!
//! 1. **SAFETY comments** — every unsafe site (block, fn, impl) needs
//!    a comment containing `SAFETY` on its line or within
//!    [`SAFETY_WINDOW`] lines above.
//! 2. **No relaxed publishing** — mutating atomic ops with
//!    `Ordering::Relaxed` anywhere in the (possibly multi-line) call
//!    must be audited in `relaxed_allowlist.txt`. Token trees close
//!    the old scanner's gap: the ordering is found in the argument
//!    group, not on "the same line".
//! 3. **Audited `unsafe impl Send/Sync`** — every such impl must be
//!    registered in `unsafe_impl_registry.txt`.
//! 4. **`unsafe_op_in_unsafe_fn = "deny"`** — set once in the root
//!    manifest's `[workspace.lints.rust]` table and inherited by
//!    *every* member manifest through `[lints] workspace = true` (not
//!    just crates that currently contain unsafe code: the lint is a
//!    tripwire for unsafe code that arrives later). rustc enforces it
//!    on every target; the rule checks the manifests that switch it on.

use crate::graph::{CallGraph, CallKind};
use crate::item::{FileItems, FnItem};
use crate::report::Finding;
use crate::rules::Allowlists;
use std::path::Path;

/// How many lines above an unsafe site a `SAFETY` comment may sit
/// (same window as the PR 3 scanner).
pub const SAFETY_WINDOW: u32 = 10;

/// Mutating atomic operations (method names).
const MUTATING_OPS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Runs rules 1 and 3 per file plus rule 2 over fn bodies.
pub fn run(
    files: &[FileItems],
    fns: &[FnItem],
    graph: &CallGraph,
    allow: &Allowlists,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        // Rule 1: SAFETY comment near every unsafe site.
        for site in &file.unsafe_sites {
            if !file.lexed.comment_near(site.line, SAFETY_WINDOW, "SAFETY") {
                findings.push(Finding {
                    rule: "safety",
                    file: file.file.clone(),
                    line: site.line,
                    key: format!("{}:safety_comment", site.kind.name()),
                    message: format!(
                        "unsafe {} ({}) has no SAFETY comment within {} lines — state the \
                         invariant that makes it sound",
                        site.kind.name(),
                        site.container,
                        SAFETY_WINDOW
                    ),
                });
            }
        }
        // Rule 3: unsafe impl Send/Sync must be registered.
        for imp in &file.impls {
            if !imp.is_unsafe {
                continue;
            }
            let Some(trait_name) = &imp.trait_name else {
                continue;
            };
            if trait_name != "Send" && trait_name != "Sync" {
                continue;
            }
            let self_type = imp.self_type.clone().unwrap_or_else(|| "?".into());
            if allow.unsafe_impl.covers(&file.file, &self_type) {
                continue;
            }
            findings.push(Finding {
                rule: "safety",
                file: file.file.clone(),
                line: imp.line,
                key: self_type.clone(),
                message: format!(
                    "`unsafe impl {trait_name} for {self_type}` is not registered in \
                     crates/xtask/unsafe_impl_registry.txt — register it with the invariant \
                     that makes the marker sound"
                ),
            });
        }
    }
    // Rule 2: relaxed mutating atomic ops, from fn bodies.
    for (i, f) in fns.iter().enumerate() {
        if f.is_test_ctx || !f.file.contains("/src/") {
            continue;
        }
        for call in &graph.facts[i].calls {
            if call.kind != CallKind::Method
                || !call.args_have_relaxed
                || !MUTATING_OPS.contains(&call.name.as_str())
            {
                continue;
            }
            if allow.relaxed.covers(&f.file, &call.receiver) {
                continue;
            }
            findings.push(Finding {
                rule: "safety",
                file: f.file.clone(),
                line: call.line,
                key: call.receiver.clone(),
                message: format!(
                    "mutating atomic op `{}` with Ordering::Relaxed in `{}` — relaxed \
                     mutations must not publish data; audit in \
                     crates/xtask/relaxed_allowlist.txt with the reason",
                    call.receiver,
                    f.qualified()
                ),
            });
        }
    }
    findings
}

/// Rule 4 over the root manifest and every member manifest
/// (`crates/*`, `shims/*`).
pub fn manifests(root: &Path) -> Vec<Finding> {
    let mut files = vec!["Cargo.toml".to_string()];
    for top in ["crates", "shims"] {
        let dirs = std::fs::read_dir(root.join(top)).into_iter().flatten();
        let names = dirs
            .flatten()
            .map(|d| d.file_name().to_string_lossy().into_owned());
        files.extend(names.map(|name| format!("{top}/{name}/Cargo.toml")));
    }
    files
        .iter()
        .filter_map(|f| Some((f, std::fs::read_to_string(root.join(f)).ok()?)))
        .flat_map(|(f, text)| check_manifest(f, &text, f == "Cargo.toml"))
        .collect()
}

/// Rule 4 on one manifest's text: a member must inherit the workspace
/// lints, and the workspace root must also deny the lint in the table
/// they inherit. Keys compare in dotted form, so `[lints]` +
/// `workspace = true` and a top-level `lints.workspace = true` both count.
pub fn check_manifest(file: &str, text: &str, workspace_root: bool) -> Vec<Finding> {
    let mut table = String::new();
    let mut entries = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = format!("{}.", line.trim_matches(['[', ']']));
        } else if let Some((key, value)) = line.split_once('=') {
            entries.push((format!("{table}{}", key.trim()), value.trim()));
        }
    }
    let mut required = vec![("lints.workspace", "true")];
    if workspace_root {
        required.push(("workspace.lints.rust.unsafe_op_in_unsafe_fn", "\"deny\""));
    }
    required
        .into_iter()
        .filter(|&req| !entries.iter().any(|(k, v)| (k.as_str(), *v) == req))
        .map(|(key, value)| Finding {
            rule: "safety",
            file: file.to_string(),
            line: 1,
            key: key.into(),
            message: format!(
                "manifest lacks `{key} = {value}` — every member inherits \
                 `unsafe_op_in_unsafe_fn = \"deny\"` from `[workspace.lints.rust]`, so unsafe fns \
                 never get implicit unsafe bodies"
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use crate::item::extract;
    use crate::rules::Allowlist;

    fn run_on(path: &str, src: &str, relaxed: &str, registry: &str) -> Vec<Finding> {
        let mut items = extract(path, src, &[]);
        let fns = std::mem::take(&mut items.fns);
        let graph = CallGraph::build(&fns);
        let allow = Allowlists {
            relaxed: Allowlist::parse(relaxed),
            unsafe_impl: Allowlist::parse(registry),
            ..Allowlists::default()
        };
        run(&[items], &fns, &graph, &allow)
    }

    #[test]
    fn safety_comment_required_within_window() {
        let with = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(run_on("crates/x/src/a.rs", with, "", "").is_empty());
        let without = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let findings = run_on("crates/x/src/a.rs", without, "", "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].key, "block:safety_comment");
    }

    #[test]
    fn relaxed_mutation_spanning_lines_is_caught() {
        // The PR 3 line scanner missed exactly this shape: the op and
        // the ordering on different lines.
        let src = "// SAFETY-free file: no unsafe here.\nfn f(a: &AtomicU32) {\n    a.store(\n        1,\n        Ordering::Relaxed,\n    );\n}\n";
        let findings = run_on("crates/x/src/a.rs", src, "", "");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].key, "a.store");
        assert_eq!(findings[0].line, 3);
        assert!(run_on("crates/x/src/a.rs", src, "crates/x a.store\n", "").is_empty());
    }

    #[test]
    fn unsafe_impl_send_sync_needs_registry() {
        let src = "// SAFETY: single-writer protocol.\nunsafe impl Sync for Ring {}\n";
        let findings = run_on("crates/x/src/a.rs", src, "", "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].key, "Ring");
        assert!(run_on("crates/x/src/a.rs", src, "", "crates/x Ring\n").is_empty());
    }

    #[test]
    fn manifests_must_inherit_the_workspace_lints() {
        // The member shapes are pinned by crates/xtask/fixtures/manifests/;
        // here, the dotted form and the root's own table.
        let keys = |text: &str, root: bool| -> Vec<String> {
            check_manifest("Cargo.toml", text, root)
                .into_iter()
                .map(|f| f.key)
                .collect()
        };
        let member = "lints.workspace = true\n[package]\n";
        assert!(keys(member, false).is_empty());
        let deny = "workspace.lints.rust.unsafe_op_in_unsafe_fn";
        assert_eq!(keys(member, true), [deny]);
        let root = format!("{member}[workspace.lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n");
        assert!(keys(&root, true).is_empty());
        assert_eq!(keys(&root.replace("deny", "warn"), true), [deny]);
    }
}
