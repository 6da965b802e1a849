//! Hot-path purity: nothing reachable from the PLF kernel entry
//! points (or the fork-join worker loop) may panic, allocate, or —
//! for the kernel tier — bounds-check-index without an audit.
//!
//! Two entry tiers:
//!
//! * **Kernel tier** — the eleven `Kernels` trait methods as
//!   defined/implemented under `src/kernels`: the eight a backend
//!   writes (`newview_tt/ti/ii`, `derivative_sum_ti/ii` and the
//!   phase-1 reductions `evaluate_classes_ti/ii`,
//!   `derivative_core_classes`) and the three full-width root kernels
//!   the trait provides on top of them (`evaluate_ti/ii`,
//!   `derivative_core`, in `kernels.rs`).
//!   Checked categories: `panic`, `alloc`, `index`.
//! * **Worker tier** — `worker_loop` in `parallel/src/forkjoin.rs`,
//!   the fork-join workers' steady-state loop. Checked categories:
//!   `panic`, `alloc`. (Indexing is not checked here: the whole
//!   engine is worker-reachable and slice indexing is its idiom; the
//!   kernel tier is where bounds checks cost real throughput.)
//! * **Parser tier** — `parse` and `parse_str` in `bio/src/phylip.rs`
//!   and `bio/src/fasta.rs`, the readers every alignment from outside
//!   goes through: any bytes must end in a structured error, never a
//!   panic. Checked category: `panic` (parsers allocate by design).
//!
//! Findings aggregate per `(fn, category)` with the audit key
//! `<fn>:<category>`, so one allowlist line covers a function's
//! audited sites without pinning line numbers.

use crate::graph::{CallGraph, CallKind};
use crate::item::FnItem;
use crate::report::Finding;
use crate::rules::Allowlist;
use std::collections::BTreeMap;

/// The eleven PLF kernel entry points (`Kernels` trait methods,
/// required and provided).
pub const KERNEL_ENTRY_POINTS: &[&str] = &[
    "newview_tt",
    "newview_ti",
    "newview_ii",
    "evaluate_ti",
    "evaluate_ii",
    "evaluate_classes_ti",
    "evaluate_classes_ii",
    "derivative_sum_ti",
    "derivative_sum_ii",
    "derivative_core",
    "derivative_core_classes",
];

/// The parser tier: these readers, in each of [`PARSER_FILES`].
pub const PARSER_ENTRY_POINTS: &[&str] = &["parse", "parse_str"];

/// See [`PARSER_ENTRY_POINTS`].
pub const PARSER_FILES: &[&str] = &["bio/src/phylip.rs", "bio/src/fasta.rs"];

/// Panic-raising macros (`debug_assert*` is excluded: compiled out
/// in release builds, where kernel throughput is measured).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Methods/functions that panic on the error/empty case.
const PANIC_CALLS: &[&str] = &["unwrap", "expect"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Method calls that (re)allocate.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "extend",
    "reserve",
    "to_vec",
    "collect",
    "to_string",
    "to_owned",
];

/// `Type::ctor` pairs that allocate.
const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("HashMap", "new"),
    ("BTreeMap", "new"),
    ("VecDeque", "new"),
];

/// Offending sites of one category inside one fn.
fn sites_of(graph: &CallGraph, fn_idx: usize, category: &str) -> Vec<u32> {
    let facts = &graph.facts[fn_idx];
    let mut lines = Vec::new();
    match category {
        "panic" => {
            for c in &facts.calls {
                let hit = match c.kind {
                    CallKind::Macro => PANIC_MACROS.contains(&c.name.as_str()),
                    _ => PANIC_CALLS.contains(&c.name.as_str()),
                };
                if hit {
                    lines.push(c.line);
                }
            }
        }
        "alloc" => {
            for c in &facts.calls {
                let hit = match c.kind {
                    CallKind::Macro => ALLOC_MACROS.contains(&c.name.as_str()),
                    CallKind::Method => ALLOC_METHODS.contains(&c.name.as_str()),
                    CallKind::Qualified => ALLOC_CTORS
                        .iter()
                        .any(|(q, n)| c.qualifier == *q && c.name == *n),
                    CallKind::Plain => false,
                };
                if hit {
                    lines.push(c.line);
                }
            }
        }
        "index" => lines.extend_from_slice(&facts.index_sites),
        _ => {}
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Finds entry-point fn indices for a tier.
fn entries(fns: &[FnItem], names: &[&str], path_frag: &str) -> Vec<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.is_test_ctx && names.contains(&f.name.as_str()) && f.file.contains(path_frag)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Runs the purity rule over the workspace graph.
pub fn run(fns: &[FnItem], graph: &CallGraph, allow: &Allowlist) -> Vec<Finding> {
    let mut findings = Vec::new();
    let kernel_entries = entries(fns, KERNEL_ENTRY_POINTS, "/src/kernels");
    let worker_entries = entries(fns, &["worker_loop"], "parallel/src/forkjoin.rs");
    let parser_entries: Vec<usize> = PARSER_FILES
        .iter()
        .flat_map(|file| entries(fns, PARSER_ENTRY_POINTS, file))
        .collect();
    // Misconfiguration guard: if the code moves out from under the
    // rule, fail loudly instead of silently checking nothing.
    if kernel_entries.is_empty() {
        findings.push(Finding {
            rule: "purity",
            file: "crates/core/src/kernels.rs".into(),
            line: 1,
            key: "entry:kernels".into(),
            message: "no kernel entry points found under src/kernels — purity rule is checking \
                      nothing; update KERNEL_ENTRY_POINTS"
                .into(),
        });
    }
    if worker_entries.is_empty() {
        findings.push(Finding {
            rule: "purity",
            file: "crates/parallel/src/forkjoin.rs".into(),
            line: 1,
            key: "entry:worker_loop".into(),
            message: "worker_loop not found in parallel/src/forkjoin.rs — purity worker tier is \
                      checking nothing"
                .into(),
        });
    }
    let parsers_expected = PARSER_ENTRY_POINTS.len() * PARSER_FILES.len();
    if parser_entries.len() != parsers_expected {
        findings.push(Finding {
            rule: "purity",
            file: "crates/bio/src/phylip.rs".into(),
            line: 1,
            key: "entry:parsers".into(),
            message: format!(
                "{} of the {} parser entry points found in bio/src/{{phylip,fasta}}.rs — purity \
                 parser tier is checking less than it should; update PARSER_ENTRY_POINTS",
                parser_entries.len(),
                parsers_expected
            ),
        });
    }
    let tiers: [(&[usize], &[&str]); 3] = [
        (&kernel_entries, &["panic", "alloc", "index"]),
        (&worker_entries, &["panic", "alloc"]),
        (&parser_entries, &["panic"]),
    ];
    // (fn, category) → finding, so overlapping tiers don't duplicate.
    let mut seen: BTreeMap<(usize, &str), ()> = BTreeMap::new();
    for (tier_entries, categories) in tiers {
        let reached = graph.reach(tier_entries);
        for &fn_idx in reached.keys() {
            let f = &fns[fn_idx];
            if f.is_test_ctx {
                continue;
            }
            for &category in categories {
                if seen.contains_key(&(fn_idx, category)) {
                    continue;
                }
                let lines = sites_of(graph, fn_idx, category);
                if lines.is_empty() {
                    continue;
                }
                seen.insert((fn_idx, category), ());
                let key = format!("{}:{}", f.name, category);
                if allow.covers(&f.file, &key) {
                    continue;
                }
                let shown: Vec<String> = lines.iter().take(6).map(u32::to_string).collect();
                let more = lines.len().saturating_sub(6);
                findings.push(Finding {
                    rule: "purity",
                    file: f.file.clone(),
                    line: lines[0],
                    key,
                    message: format!(
                        "hot-path {category} site{} in `{}` (line{} {}{}) reachable via {}; \
                         remove it or audit in crates/xtask/purity_allowlist.txt",
                        if lines.len() == 1 { "" } else { "s" },
                        f.qualified(),
                        if lines.len() == 1 { "" } else { "s" },
                        shown.join(", "),
                        if more > 0 {
                            format!(" +{more} more")
                        } else {
                            String::new()
                        },
                        graph.chain(&reached, fn_idx),
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use crate::item::extract;

    fn run_on(src: &str, allow: &str) -> Vec<Finding> {
        let items = extract("crates/core/src/kernels/scalar.rs", src, &[]);
        let graph = CallGraph::build(&items.fns);
        run(&items.fns, &graph, &Allowlist::parse(allow))
    }

    #[test]
    fn reachable_panic_alloc_index_are_flagged() {
        let src = r#"
fn newview_tt(x: &[f64]) -> f64 { helper(x) }
fn helper(x: &[f64]) -> f64 {
    let mut v = Vec::new();
    v.push(x[0]);
    v.iter().sum::<f64>().sqrt()
}
fn cold_unrelated() { panic!("never reached"); }
"#;
        let findings = run_on(src, "");
        let keys: Vec<&str> = findings.iter().map(|f| f.key.as_str()).collect();
        assert!(keys.contains(&"helper:alloc"), "{keys:?}");
        assert!(keys.contains(&"helper:index"), "{keys:?}");
        assert!(!keys.iter().any(|k| k.starts_with("cold_unrelated")));
        // worker_loop entry guard fires in this single-file test.
        assert!(keys.contains(&"entry:worker_loop"));
        let alloc = findings
            .iter()
            .find(|f| f.key == "helper:alloc")
            .expect("alloc");
        assert!(
            alloc.message.contains("newview_tt → helper"),
            "{}",
            alloc.message
        );
    }

    #[test]
    fn allowlist_suppresses_by_fn_and_category() {
        let src = r#"
fn newview_tt(x: &[f64]) -> f64 { helper(x) }
fn helper(x: &[f64]) -> f64 { x[0] }
"#;
        let noisy = run_on(src, "");
        assert!(noisy.iter().any(|f| f.key == "helper:index"));
        let quiet = run_on(src, "crates/core helper:index\n");
        assert!(!quiet.iter().any(|f| f.key == "helper:index"));
    }

    #[test]
    fn allowlist_entry_that_suppresses_nothing_is_reported() {
        let src = r#"
fn newview_tt(x: &[f64]) -> f64 { helper(x) }
fn helper(x: &[f64]) -> f64 { x[0] }
"#;
        let items = extract("crates/core/src/kernels/scalar.rs", src, &[]);
        let graph = CallGraph::build(&items.fns);
        // Line 3 audits a site that exists; line 4 one that was deleted
        // with its function; line 5 the right function in a file that
        // has no such site; line 6 a site behind a cargo feature.
        let allow = Allowlist::parse(
            "# audit\n\ncrates/core helper:index\ncrates/core gone_helper:index\n\
             crates/parallel helper:index\ncrates/core seeded:index feature=seed-hotpath-bug\n",
        );
        assert!(allow.stale("audit.txt", &[]).len() == 3, "nothing ran yet");
        let findings = run(&items.fns, &graph, &allow);
        assert!(!findings.iter().any(|f| f.key == "helper:index"));
        // A run that analyzes the feature holds the entry to it; the
        // plain run does not.
        let seeded = allow.stale("audit.txt", &["seed-hotpath-bug".to_string()]);
        assert_eq!(seeded.len(), 3);
        assert_eq!(seeded[2].line, 6);
        let stale = allow.stale("crates/xtask/purity_allowlist.txt", &[]);
        let got: Vec<_> = stale.iter().map(|f| (f.line, f.key.as_str())).collect();
        assert_eq!(
            got,
            [
                (4, "crates/core gone_helper:index"),
                (5, "crates/parallel helper:index")
            ]
        );
        assert!(stale.iter().all(|f| f.rule == "allowlist"));
        assert!(stale
            .iter()
            .all(|f| f.file == "crates/xtask/purity_allowlist.txt"));
    }

    #[test]
    fn unwrap_and_assert_flag_but_debug_assert_does_not() {
        let src = r#"
fn newview_tt(v: Option<f64>) -> f64 {
    debug_assert!(v.is_some());
    v.unwrap()
}
"#;
        let findings = run_on(src, "");
        let panic = findings
            .iter()
            .find(|f| f.key == "newview_tt:panic")
            .expect("panic finding");
        // Only the unwrap line, not the debug_assert line.
        assert!(panic.message.contains("line 4"), "{}", panic.message);
        assert!(!panic.message.contains("line 3,"), "{}", panic.message);
    }
}
