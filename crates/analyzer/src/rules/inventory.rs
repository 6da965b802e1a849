//! The unsafe inventory: a cargo-geiger-style census of every unsafe
//! site in the workspace, grouped by `(file, container, kind)`, kept
//! as a committed JSON artifact with a CI drift gate.
//!
//! The committed file is `crates/xtask/unsafe_inventory.json`. When
//! the census drifts from it, the lint fails and prints the delta;
//! `cargo xtask lint --update-inventory` regenerates the file after
//! review. Keys are line-stable (no line numbers), so unrelated edits
//! never trip the gate — only genuinely new/removed/moved unsafe.

use crate::item::FileItems;
use crate::report::Finding;
use plf_prof::json::escape;
use std::collections::BTreeMap;

/// Renders the canonical inventory JSON: one entry per line, sorted
/// by `(file, container, kind)`.
pub fn render(files: &[FileItems]) -> String {
    let mut counts: BTreeMap<(String, String, &'static str), u32> = BTreeMap::new();
    for file in files {
        for site in &file.unsafe_sites {
            *counts
                .entry((file.file.clone(), site.container.clone(), site.kind.name()))
                .or_insert(0) += 1;
        }
    }
    let mut out = String::from("[\n");
    let total = counts.len();
    for (i, ((file, container, kind), count)) in counts.iter().enumerate() {
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"container\":\"{}\",\"kind\":\"{}\",\"count\":{}}}{}\n",
            escape(file),
            escape(container),
            kind,
            count,
            if i + 1 == total { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

/// Normalizes one inventory line for set comparison (trailing commas
/// and whitespace are formatting, not content).
fn canon(line: &str) -> Option<&str> {
    let l = line.trim().trim_end_matches(',');
    (l.starts_with('{')).then_some(l)
}

/// Compares the committed inventory against the current census.
/// `stored` is `None` when the committed file is missing.
pub fn check(stored: Option<&str>, current: &str) -> Vec<Finding> {
    let inv_path = "crates/xtask/unsafe_inventory.json";
    let Some(stored) = stored else {
        return vec![Finding {
            rule: "inventory",
            file: inv_path.into(),
            line: 1,
            key: "missing".into(),
            message: "committed unsafe inventory is missing — run `cargo xtask lint \
                      --update-inventory` and commit the file"
                .into(),
        }];
    };
    let stored_set: Vec<&str> = stored.lines().filter_map(canon).collect();
    let current_set: Vec<&str> = current.lines().filter_map(canon).collect();
    let mut findings = Vec::new();
    for line in &current_set {
        if !stored_set.contains(line) {
            findings.push(Finding {
                rule: "inventory",
                file: inv_path.into(),
                line: 1,
                key: entry_key(line),
                message: format!(
                    "unsafe census grew or changed: {line} is not in the committed inventory — \
                     review the new unsafe, then `cargo xtask lint --update-inventory`"
                ),
            });
        }
    }
    for line in &stored_set {
        if !current_set.contains(line) {
            findings.push(Finding {
                rule: "inventory",
                file: inv_path.into(),
                line: 1,
                key: entry_key(line),
                message: format!(
                    "committed inventory entry no longer matches the census: {line} — \
                     `cargo xtask lint --update-inventory` to record the removal"
                ),
            });
        }
    }
    findings
}

/// Extracts `file` + `kind` from a canonical entry line as the audit
/// key (`crates/core/src/aligned.rs:block`).
fn entry_key(line: &str) -> String {
    let field = |name: &str| -> &str {
        let pat = format!("\"{name}\":\"");
        line.find(&pat)
            .map(|at| {
                let rest = &line[at + pat.len()..];
                &rest[..rest.find('"').unwrap_or(rest.len())]
            })
            .unwrap_or("")
    };
    format!("{}:{}", field("file"), field("kind"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::extract;

    fn census(path: &str, src: &str) -> String {
        render(&[extract(path, src, &[])])
    }

    #[test]
    fn render_groups_and_counts() {
        let src = "// SAFETY: test.\nfn f(p: *const u8) -> u8 {\n  let a = unsafe { *p };\n  let b = unsafe { *p };\n  a + b\n}\nunsafe impl Sync for R {}\n";
        let inv = census("crates/x/src/a.rs", src);
        assert!(
            inv.contains("\"container\":\"fn f\",\"kind\":\"block\",\"count\":2"),
            "{inv}"
        );
        assert!(inv.contains("\"kind\":\"impl\",\"count\":1"), "{inv}");
        assert!(inv.starts_with("[\n"));
        assert!(inv.trim_end().ends_with(']'));
    }

    #[test]
    fn drift_gate_fires_both_ways_and_is_stable_otherwise() {
        let v1 = census(
            "crates/x/src/a.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        // Same census, unrelated formatting of the committed file.
        let reformatted = v1.replace('\n', "\n  ");
        assert!(check(Some(&reformatted), &v1).is_empty());
        // New unsafe site → drift.
        let v2 = census(
            "crates/x/src/a.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\nfn g(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        let grown = check(Some(&v1), &v2);
        assert_eq!(grown.len(), 1, "{grown:?}");
        assert_eq!(grown[0].key, "crates/x/src/a.rs:block");
        assert!(grown[0].message.contains("census grew"));
        // Removed unsafe site → also drift (the other direction).
        let shrunk = check(Some(&v2), &v1);
        assert_eq!(shrunk.len(), 1);
        assert!(shrunk[0].message.contains("no longer matches"));
        // Missing committed file.
        assert_eq!(check(None, &v1)[0].key, "missing");
    }
}
