//! CI workflow syntax: the one YAML mistake a shell command invites.
//!
//! A single-line `run:` or `name:` value is a YAML *plain scalar*, in
//! which `: ` starts a mapping value and ` #` a comment —
//! `run: cargo test -p phylo-parallel transport:: -q` does not parse,
//! and GitHub then runs no job of the file at all, silently. Nothing in
//! the workspace parses YAML, so this rule checks exactly that shape:
//! quote such a value or make it a block scalar (`run: |`).

use crate::report::Finding;
use std::path::Path;

/// Checks every `.yml` / `.yaml` file under `<root>/.github/workflows`.
pub fn run(root: &Path) -> Vec<Finding> {
    let dir = root.join(".github/workflows");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".yml") || n.ends_with(".yaml"))
        .collect();
    names.sort();
    names
        .iter()
        .filter_map(|n| Some((n, std::fs::read_to_string(dir.join(n)).ok()?)))
        .flat_map(|(n, text)| check(&format!(".github/workflows/{n}"), &text))
        .collect()
}

/// The findings of one workflow file's text.
pub fn check(file: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (line, no) in text.lines().zip(1..) {
        let entry = line.trim_start();
        let entry = entry.strip_prefix("- ").unwrap_or(entry).trim_start();
        let Some((key, value)) = ["run", "name"]
            .iter()
            .find_map(|k| Some((*k, entry.strip_prefix(k)?.strip_prefix(": ")?.trim())))
        else {
            continue;
        };
        // Block and quoted scalars may hold anything.
        if value.starts_with(['|', '>', '"', '\'']) {
            continue;
        }
        let what = if value.contains(": ") || value.ends_with(':') {
            "`: `, which starts a mapping value"
        } else if value.contains(" #") {
            "` #`, which starts a comment"
        } else {
            continue;
        };
        findings.push(Finding {
            rule: "workflow",
            file: file.to_string(),
            line: no,
            key: format!("{key}:plain_scalar"),
            message: format!(
                "single-line `{key}:` value contains {what} in a YAML plain scalar; quote it or \
                 use a block scalar (`{key}: |`)"
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_scalars_with_mapping_or_comment_markers_are_flagged() {
        let text = "\
jobs:
  t:
    steps:
      - name: Transport unit tests (framing, poison)
        run: cargo test -p phylo-parallel transport:: -q
      - name: note: this one too
        run: |
          cargo test -p phylo-parallel replicated:: -q
      - run: echo hi # trailing
      - run: \"cargo test transport:: -q\"
      - run: cargo test -q
        env:
          RUN: a: b
";
        let got: Vec<_> = check("ci.yml", text)
            .iter()
            .map(|f| (f.line, f.key.clone()))
            .collect();
        assert_eq!(
            got,
            [
                (5, "run:plain_scalar".to_string()),
                (6, "name:plain_scalar".to_string()),
                (9, "run:plain_scalar".to_string()),
            ]
        );
    }
}
