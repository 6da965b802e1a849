//! The rule families and the shared allowlist machinery.
//!
//! Every allowlist follows the `relaxed_allowlist.txt` convention:
//! one `<path substring> <key substring>` pair per line, `#` starts a
//! comment, and each entry is an audit decision whose justification
//! lives in the comment above it. A finding is suppressed when some
//! entry's path is a substring of the finding's file AND its key is a
//! substring of the finding's key. An entry that suppresses nothing in
//! a run is itself a finding; one that audits code behind
//! `#[cfg(feature = "x")]` says so in a third column, `feature=x`, and
//! is held to that only in runs that analyze the feature.

pub mod fpdet;
pub mod inventory;
pub mod purity;
pub mod safety;
pub mod workflow;

use crate::report::Finding;

/// One allowlist entry and whether it has suppressed anything yet.
#[derive(Clone, Debug)]
struct Entry {
    path: String,
    key: String,
    /// The cargo feature the audited site is compiled under, if any.
    feature: Option<String>,
    /// 1-based line in the audit file.
    line: u32,
    used: std::cell::Cell<bool>,
}

/// One parsed allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<Entry>,
}

impl Allowlist {
    /// Parses the `<path substring> <key substring> [feature=<name>]`
    /// format.
    pub fn parse(text: &str) -> Allowlist {
        let entries = text
            .lines()
            .zip(1..)
            .map(|(l, line)| (l.trim(), line))
            .filter(|(l, _)| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|(l, line)| {
                let mut it = l.split_whitespace();
                Some(Entry {
                    path: it.next()?.to_string(),
                    key: it.next()?.to_string(),
                    feature: it
                        .next()
                        .and_then(|t| t.strip_prefix("feature="))
                        .map(str::to_string),
                    line,
                    used: false.into(),
                })
            })
            .collect();
        Allowlist { entries }
    }

    /// Whether a finding at `path` with audit `key` is covered. Every
    /// entry that covers it counts as used from here on.
    pub fn covers(&self, path: &str, key: &str) -> bool {
        let mut covered = false;
        for e in &self.entries {
            if path.contains(e.path.as_str()) && key.contains(e.key.as_str()) {
                e.used.set(true);
                covered = true;
            }
        }
        covered
    }

    /// One finding per entry that no [`Allowlist::covers`] call has
    /// matched: the code it audited is gone (or renamed), and an entry
    /// left behind would silently cover whatever takes the name next.
    /// `file` is the audit file's workspace-relative path, `features`
    /// the cargo features this run analyzed: an entry for a feature
    /// that was left out had nothing to match.
    pub fn stale(&self, file: &str, features: &[String]) -> Vec<Finding> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .filter(|e| e.feature.as_ref().is_none_or(|f| features.contains(f)))
            .map(|e| Finding {
                rule: "allowlist",
                file: file.to_string(),
                line: e.line,
                key: format!("{} {}", e.path, e.key),
                message: "entry suppressed nothing in this run — the site it audited is gone; \
                          delete the entry"
                    .into(),
            })
            .collect()
    }
}

/// All audit files the rules consume, loaded from `crates/xtask/`.
#[derive(Clone, Debug, Default)]
pub struct Allowlists {
    /// Hot-path purity audits (`<path> <fn:category>`).
    pub purity: Allowlist,
    /// FP-determinism audits (`<path> <fn:category>`).
    pub fpdet: Allowlist,
    /// Audited relaxed mutating atomic ops (`<path> <site text>`).
    pub relaxed: Allowlist,
    /// Audited `unsafe impl Send/Sync` types (`<path> <Type>`).
    pub unsafe_impl: Allowlist,
}

impl Allowlists {
    /// Loads every audit file under `<root>/crates/xtask/`. Missing
    /// files parse as empty (everything is then flagged).
    pub fn load(root: &std::path::Path) -> Allowlists {
        let read = |name: &str| {
            std::fs::read_to_string(root.join(AUDIT_DIR).join(name)).unwrap_or_default()
        };
        Allowlists {
            purity: Allowlist::parse(&read(PURITY_FILE)),
            fpdet: Allowlist::parse(&read(FPDET_FILE)),
            relaxed: Allowlist::parse(&read(RELAXED_FILE)),
            unsafe_impl: Allowlist::parse(&read("unsafe_impl_registry.txt")),
        }
    }

    /// The stale entries of the three suppression lists, to be asked
    /// for once every rule has run.
    pub fn stale(&self, features: &[String]) -> Vec<Finding> {
        [
            (&self.purity, PURITY_FILE),
            (&self.fpdet, FPDET_FILE),
            (&self.relaxed, RELAXED_FILE),
        ]
        .iter()
        .flat_map(|(list, name)| list.stale(&format!("{AUDIT_DIR}/{name}"), features))
        .collect()
    }
}

const AUDIT_DIR: &str = "crates/xtask";
const PURITY_FILE: &str = "purity_allowlist.txt";
const FPDET_FILE: &str = "fpdet_allowlist.txt";
const RELAXED_FILE: &str = "relaxed_allowlist.txt";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_comments_and_matches_by_substring() {
        let list = Allowlist::parse(
            "# comment\n\ncrates/core/src/metrics.rs self.0.fetch_add\ncrates/parallel fired.swap\n",
        );
        assert_eq!(list.entries.len(), 2);
        assert!(list.covers(
            "crates/core/src/metrics.rs",
            "self.0.fetch_add(1,Ordering::Relaxed)"
        ));
        assert!(!list.covers("crates/core/src/span.rs", "self.0.fetch_add"));
    }
}
