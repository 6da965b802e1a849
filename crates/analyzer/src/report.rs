//! Findings and their text/JSON renderings.

use plf_prof::json::escape;
use std::fmt;

/// One analyzer finding. `key` is the stable audit handle — the
/// string an allowlist entry matches against — so renames and line
/// drift don't invalidate audits.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule family: `purity`, `fpdet`, `safety`, `inventory`.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line of the (first) offending site.
    pub line: u32,
    /// Audit key, e.g. `scale_site:index` or `RegionProtocol` — what an
    /// allowlist entry's second column must be a substring of.
    pub key: String,
    /// Human explanation, including the call chain for reachability
    /// findings.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (key: {})",
            self.file, self.line, self.rule, self.message, self.key
        )
    }
}

/// Sorts findings into the canonical report order.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.key.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.key.as_str(),
        ))
    });
}

/// Renders findings as a JSON array (one object per line, stable
/// order) — the CI artifact format.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"key\":\"{}\",\"message\":\"{}\"}}{}\n",
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.key),
            escape(&f.message),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_shape() {
        let f = Finding {
            rule: "fpdet",
            file: "crates/x/src/a.rs".into(),
            line: 3,
            key: "f:float_cmp".into(),
            message: "quote \" and\nnewline".into(),
        };
        let json = render_json(&[f]);
        assert!(json.contains("\\\""));
        assert!(json.contains("\\n"));
        assert!(json.starts_with("[\n{\"rule\":\"fpdet\""));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn sort_is_by_file_then_line() {
        let mk = |file: &str, line: u32| Finding {
            rule: "purity",
            file: file.into(),
            line,
            key: String::new(),
            message: String::new(),
        };
        let mut v = vec![mk("b.rs", 1), mk("a.rs", 9), mk("a.rs", 2)];
        sort(&mut v);
        assert_eq!(
            v.iter()
                .map(|f| (f.file.as_str(), f.line))
                .collect::<Vec<_>>(),
            [("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]
        );
    }
}
