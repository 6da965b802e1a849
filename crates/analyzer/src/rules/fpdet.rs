//! FP-determinism: keep the likelihood bit-reproducible across
//! builds and runs.
//!
//! Four checks over every non-test fn:
//!
//! * **`mul_add` outside an FMA gate** — a raw `mul_add` call
//!   contracts to one rounding on FMA hardware and falls back to a
//!   *different* libm software path otherwise, so the same binary
//!   produces different likelihoods on different machines (the PR 6
//!   libm-collapse regression). `mul_add` is legal only under
//!   `#[cfg(target_feature = "fma")]` or inside a
//!   `#[target_feature(enable = …)]` fn, where the hardware
//!   instruction is guaranteed.
//! * **float `==`/`!=`** — exact float equality against a literal is
//!   either a sentinel test (audit it) or a bug.
//! * **HashMap/HashSet iteration feeding an accumulation** — hash
//!   iteration order varies run to run, so any `+=`-style reduction
//!   or order-sensitive `collect` over it is nondeterministic.
//! * **a clock read off the one clock** — `Instant::now` or
//!   `SystemTime::now`: a measurement goes through
//!   `plf_core::clock::now_ns`, whose counting mode makes measured
//!   durations reproducible in tests. Deadlines and the tools' own
//!   timers are audited.
//!
//! Audit keys are `<fn>:mul_add`, `<fn>:float_cmp`, `<fn>:hash_iter`,
//! `<fn>:clock` in `crates/xtask/fpdet_allowlist.txt`.

use crate::graph::CallGraph;
use crate::item::FnItem;
use crate::report::Finding;
use crate::rules::Allowlist;

/// Runs the FP-determinism rule.
pub fn run(fns: &[FnItem], graph: &CallGraph, allow: &Allowlist) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_test_ctx {
            continue;
        }
        let facts = &graph.facts[i];
        for ma in &facts.mul_adds {
            if ma.gated {
                continue;
            }
            let key = format!("{}:mul_add", f.name);
            if allow.covers(&f.file, &key) {
                continue;
            }
            findings.push(Finding {
                rule: "fpdet",
                file: f.file.clone(),
                line: ma.line,
                key,
                message: format!(
                    "raw `mul_add` in `{}` outside an FMA gate: contracts on FMA hardware, \
                     falls back to libm otherwise — likelihoods diverge across machines. Gate \
                     it under #[cfg(target_feature = \"fma\")], keep it inside a \
                     #[target_feature(enable = \"fma\")] fn as kernels/simd.rs does, or write \
                     plain `a * b + c` as kernels/scalar.rs does",
                    f.qualified()
                ),
            });
        }
        for &line in &facts.float_cmps {
            let key = format!("{}:float_cmp", f.name);
            if allow.covers(&f.file, &key) {
                continue;
            }
            findings.push(Finding {
                rule: "fpdet",
                file: f.file.clone(),
                line,
                key,
                message: format!(
                    "float `==`/`!=` against a literal in `{}`: exact float equality is a \
                     sentinel test or a bug; audit in crates/xtask/fpdet_allowlist.txt if \
                     intentional",
                    f.qualified()
                ),
            });
            break; // One finding per fn; lines drift, the key doesn't.
        }
        for hi in &facts.hash_iters {
            let key = format!("{}:hash_iter", f.name);
            if allow.covers(&f.file, &key) {
                continue;
            }
            findings.push(Finding {
                rule: "fpdet",
                file: f.file.clone(),
                line: hi.line,
                key,
                message: format!(
                    "iteration over hash container `{}` feeds an accumulation in `{}`: hash \
                     order varies per run, making the result nondeterministic — iterate a \
                     sorted view (BTreeMap or sort keys first)",
                    hi.ident,
                    f.qualified()
                ),
            });
            break;
        }
        if let Some(&line) = facts.clock_reads.first() {
            let key = format!("{}:clock", f.name);
            if !allow.covers(&f.file, &key) {
                findings.push(Finding {
                    rule: "fpdet",
                    file: f.file.clone(),
                    line,
                    key,
                    message: format!(
                        "`{}` reads `Instant::now`/`SystemTime::now` directly: a measurement \
                         reads plf_core::clock::now_ns, the one clock tests can make count; \
                         audit a deadline or a tool's own timer in \
                         crates/xtask/fpdet_allowlist.txt",
                        f.qualified()
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
    fn raw_mul_add_flagged_gated_is_not() {
        let src = r#"
fn raw(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }
fn gated(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    { return a.mul_add(b, c); }
    #[cfg(not(target_feature = "fma"))]
    { a * b + c }
}
"#;
        let findings = run_on(src, "");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].key, "raw:mul_add");
    }

    #[test]
    fn float_compare_flagged_once_per_fn_and_auditable() {
        let src = "fn f(x: f64) -> bool { x == 0.0 || x != 1.0 }\n";
        let findings = run_on(src, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].key, "f:float_cmp");
        assert!(run_on(src, "crates/core f:float_cmp\n").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f(a: f64) -> f64 { a.mul_add(1.0, 2.0) }\n}\n";
        assert!(run_on(src, "").is_empty());
    }

    #[test]
    fn hash_iteration_accumulation_flagged() {
        let src = r#"
fn sum_weights() -> f64 {
    let mut m = HashMap::new();
    m.insert(1u32, 0.5f64);
    let mut acc = 0.0;
    for (_, w) in m.iter() { acc += w; }
    acc
}
"#;
        let findings = run_on(src, "");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].key, "sum_weights:hash_iter");
    }
}
