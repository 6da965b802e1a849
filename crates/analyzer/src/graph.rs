//! Fn-body analysis and the workspace call graph.
//!
//! For every extracted function body this module collects the facts
//! the rules consume: call sites (plain, method, qualified-path and
//! macro calls), slice/array indexing sites, float `==`/`!=`
//! comparisons against float literals, `mul_add` calls and whether
//! they sit under an FMA gate, `HashMap`/`HashSet` iterations that
//! feed order-sensitive accumulations, and direct clock reads.
//!
//! The graph is *name-resolved-enough*: a call `foo(…)` resolves to
//! every workspace function named `foo` (qualified calls `T::foo`
//! prefer impls of `T`). That over-approximation is exactly what a
//! reachability-based purity rule wants — a dynamic `dyn Kernels`
//! dispatch reaches all implementations — and the audited allowlist
//! absorbs the rare false positive.

use crate::item::{AttrKind, FnItem};
use crate::lex::{num_is_float, Delim, Tok};
use crate::tree::{render, Group, Tt};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How a call site was written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)`
    Plain,
    /// `.name(…)`
    Method,
    /// `Qual::name(…)` — qualifier is the last path segment before
    /// the called name.
    Qualified,
    /// `name!(…)`
    Macro,
}

/// One call site inside a fn body.
#[derive(Clone, Debug)]
pub struct Call {
    pub name: String,
    /// For qualified calls, the segment before the name (`Box` in
    /// `Box::new`). Empty otherwise.
    pub qualifier: String,
    pub kind: CallKind,
    pub line: u32,
    /// Reconstructed receiver text for method calls (allowlist keys),
    /// e.g. `self.buckets[bucket].fetch_add`.
    pub receiver: String,
    /// Whether the call's argument group contains the identifier
    /// `Relaxed` (atomic-ordering rule).
    pub args_have_relaxed: bool,
}

/// A `mul_add` call site with its gating status.
#[derive(Clone, Debug)]
pub struct MulAdd {
    pub line: u32,
    /// Under `#[cfg(target_feature = "fma")]` (statement/block gate)
    /// or inside a `#[target_feature(enable = …)]` fn.
    pub gated: bool,
}

/// A `HashMap`/`HashSet` iteration feeding an accumulation.
#[derive(Clone, Debug)]
pub struct HashIter {
    pub line: u32,
    /// The iterated binding.
    pub ident: String,
}

/// Everything extracted from one fn body.
#[derive(Clone, Debug, Default)]
pub struct BodyFacts {
    pub calls: Vec<Call>,
    /// Lines with slice/array indexing expressions.
    pub index_sites: Vec<u32>,
    /// Lines with `==`/`!=` against a float literal.
    pub float_cmps: Vec<u32>,
    pub mul_adds: Vec<MulAdd>,
    pub hash_iters: Vec<HashIter>,
    /// Lines naming `Instant::now` / `SystemTime::now`, called or
    /// passed as a fn.
    pub clock_reads: Vec<u32>,
}

/// Keywords that look like calls when followed by `(`.
fn is_expr_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "else"
            | "in"
            | "as"
            | "let"
            | "move"
            | "ref"
            | "mut"
            | "fn"
            | "impl"
            | "dyn"
            | "where"
            | "unsafe"
            | "break"
            | "continue"
            | "await"
            | "async"
            | "box"
            | "pub"
            | "use"
            | "struct"
            | "enum"
    )
}

/// Analyzes one fn's body.
pub fn analyze_body(f: &FnItem) -> BodyFacts {
    let mut facts = BodyFacts::default();
    let Some(body) = &f.body else {
        return facts;
    };
    let fn_gated = f.has_target_feature();
    // Bindings whose initializer mentions HashMap/HashSet/BTreeMap —
    // only Hash* iteration is nondeterministic, but collect all and
    // filter at flag time.
    let mut hash_idents: BTreeSet<String> = BTreeSet::new();
    collect_hash_bindings(&body.items, &mut hash_idents);
    walk(&body.items, fn_gated, &hash_idents, &mut facts);
    // A `for … in m.iter()` loop trips both the for-loop and the
    // method-call detectors: dedupe by (line, binding).
    facts
        .hash_iters
        .sort_by(|a, b| (a.line, &a.ident).cmp(&(b.line, &b.ident)));
    facts
        .hash_iters
        .dedup_by(|a, b| a.line == b.line && a.ident == b.ident);
    facts
}

/// Records `let name … = … HashMap … ;` / `HashSet` bindings (plus
/// fn params would need signature types; bindings cover this
/// workspace's usage).
fn collect_hash_bindings(tts: &[Tt], out: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < tts.len() {
        if tts[i].is_ident("let") {
            // Find the binding name: first ident after `let`
            // (skipping `mut`).
            let mut j = i + 1;
            while j < tts.len() && tts[j].is_ident("mut") {
                j += 1;
            }
            let name = match tts.get(j).and_then(Tt::tok) {
                Some(Tok::Ident(n)) => Some(n.clone()),
                _ => None,
            };
            // Scan the statement (to `;` at this level) for Hash
            // container names.
            let mut k = j;
            let mut is_hash = false;
            while k < tts.len() && !tts[k].is_punct(';') {
                match &tts[k] {
                    Tt::Tok(t) => {
                        if let Tok::Ident(s) = &t.tok {
                            if s == "HashMap" || s == "HashSet" {
                                is_hash = true;
                            }
                        }
                    }
                    Tt::Group(g) => {
                        if render(&g.items).contains("HashMap")
                            || render(&g.items).contains("HashSet")
                        {
                            is_hash = true;
                        }
                    }
                }
                k += 1;
            }
            if let (Some(n), true) = (name, is_hash) {
                out.insert(n);
            }
            i = k;
            continue;
        }
        if let Tt::Group(g) = &tts[i] {
            collect_hash_bindings(&g.items, out);
        }
        i += 1;
    }
}

/// Whether a token can end an expression (making a following `[`
/// group an indexing operation rather than an array literal/type).
fn ends_expr(tt: &Tt) -> bool {
    match tt {
        Tt::Tok(t) => {
            matches!(t.tok, Tok::Ident(_) | Tok::Num(_) | Tok::Literal(_))
                && !matches!(&t.tok, Tok::Ident(s) if is_expr_keyword(s) || s == "in" || s == "return")
        }
        Tt::Group(g) => g.delim != Delim::Brace,
    }
}

/// Reconstructs the receiver chain ending just before index `dot` (a
/// `.` token): walks back over `ident`/`.`/index-group/`self` runs.
fn receiver_text(tts: &[Tt], dot: usize) -> String {
    let mut start = dot;
    while start > 0 {
        let prev = &tts[start - 1];
        let keep = match prev {
            Tt::Tok(t) => {
                matches!(&t.tok, Tok::Ident(s) if !is_expr_keyword(s))
                    || matches!(t.tok, Tok::Num(_))
                    || matches!(t.tok, Tok::Punct('.'))
            }
            Tt::Group(g) => g.delim == Delim::Bracket,
        };
        if keep {
            start -= 1;
        } else {
            break;
        }
    }
    render(&tts[start..dot])
}

/// Whether a paren group's tokens mention the ident `Relaxed`
/// (recursively).
fn group_has_relaxed(g: &Group) -> bool {
    g.items.iter().any(|t| match t {
        Tt::Tok(tk) => matches!(&tk.tok, Tok::Ident(s) if s == "Relaxed"),
        Tt::Group(sub) => group_has_relaxed(sub),
    })
}

/// Whether a group contains order-sensitive accumulation: compound
/// assignment (`+=`, `*=`, `-=`, `/=`) or `.push(`/`.insert(`/
/// `.extend(` calls.
fn group_accumulates(tts: &[Tt]) -> bool {
    let mut i = 0;
    while i < tts.len() {
        if let Some(Tok::Punct(c)) = tts[i].tok() {
            if matches!(c, '+' | '-' | '*' | '/') && tts.get(i + 1).is_some_and(|t| t.is_punct('='))
            {
                return true;
            }
        }
        if tts[i].is_punct('.') {
            if let Some(Tok::Ident(name)) = tts.get(i + 1).and_then(Tt::tok) {
                if matches!(
                    name.as_str(),
                    "push" | "insert" | "extend" | "sum" | "product" | "fold" | "collect"
                ) && tts
                    .get(i + 2)
                    .is_some_and(|t| t.group(Delim::Paren).is_some())
                {
                    return true;
                }
            }
        }
        if let Tt::Group(g) = &tts[i] {
            if group_accumulates(&g.items) {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// The recursive body walk. `gated` is true inside an FMA-gated
/// region (fn-level `#[target_feature]` or a statement under
/// `#[cfg(target_feature = "fma")]`).
fn walk(tts: &[Tt], gated: bool, hash_idents: &BTreeSet<String>, facts: &mut BodyFacts) {
    let mut i = 0;
    while i < tts.len() {
        let tt = &tts[i];
        // Statement-level FMA gate: `#[cfg(target_feature = "fma")]`
        // followed by a `{…}` block (or any single statement run up
        // to the next `;`): mark the gated span.
        if tt.is_punct('#') {
            if let Some(g) = tts.get(i + 1).and_then(|t| t.group(Delim::Bracket)) {
                let kind = crate::item::attr_kind(&g.items);
                if matches!(kind, AttrKind::CfgTargetFeature(ref f) if f == "fma") {
                    // Gate the next group or statement.
                    let mut j = i + 2;
                    while j < tts.len() && !tts[j].is_punct(';') {
                        if let Tt::Group(sub) = &tts[j] {
                            walk(&sub.items, true, hash_idents, facts);
                            j += 1;
                            // Only the first brace group is the gated
                            // block.
                            if sub.delim == Delim::Brace {
                                break;
                            }
                            continue;
                        }
                        walk_leaf(tts, j, true, hash_idents, facts);
                        j += 1;
                    }
                    i = j;
                    continue;
                }
                // Any other attribute: skip it (its contents are not
                // expression code).
                i += 2;
                continue;
            }
        }
        if let Tt::Group(g) = tt {
            // Indexing: a bracket group directly after an expression.
            if g.delim == Delim::Bracket && i > 0 && ends_expr(&tts[i - 1]) {
                facts.index_sites.push(g.open_line);
            }
            walk(&g.items, gated, hash_idents, facts);
            i += 1;
            continue;
        }
        walk_leaf(tts, i, gated, hash_idents, facts);
        i += 1;
    }
}

/// Handles one leaf position `i` of the walk (call detection, float
/// compares, hash iteration).
fn walk_leaf(
    tts: &[Tt],
    i: usize,
    gated: bool,
    hash_idents: &BTreeSet<String>,
    facts: &mut BodyFacts,
) {
    let tt = &tts[i];
    let Some(tok) = tt.tok() else { return };
    match tok {
        Tok::Ident(name) => {
            if is_expr_keyword(name) {
                // `for pat in expr { body }`: hash-iteration check.
                if name == "for" {
                    check_for_loop(tts, i, hash_idents, facts);
                }
                return;
            }
            if name == "now"
                && i >= 3
                && tts[i - 1].is_punct(':')
                && tts[i - 2].is_punct(':')
                && matches!(tts[i - 3].tok(), Some(Tok::Ident(q)) if q == "Instant" || q == "SystemTime")
            {
                facts.clock_reads.push(tt.line());
            }
            let next = tts.get(i + 1);
            // Macro call `name!(…)` / `name!{…}` / `name![…]`.
            if next.is_some_and(|t| t.is_punct('!'))
                && tts.get(i + 2).is_some_and(|t| matches!(t, Tt::Group(_)))
            {
                facts.calls.push(Call {
                    name: name.clone(),
                    qualifier: String::new(),
                    kind: CallKind::Macro,
                    line: tt.line(),
                    receiver: String::new(),
                    args_have_relaxed: false,
                });
                return;
            }
            // Plain or qualified call `name(…)` — not a definition
            // (`fn name(…)`) and not a method call (`.name(…)`),
            // which the `.` handler records.
            let prev_dot = i > 0 && tts[i - 1].is_punct('.');
            let prev_fn = i > 0 && tts[i - 1].is_ident("fn");
            if prev_dot || prev_fn {
                return;
            }
            if let Some(args) = next.and_then(|t| t.group(Delim::Paren)) {
                let qualified = i >= 2 && tts[i - 1].is_punct(':') && tts[i - 2].is_punct(':');
                let qualifier = if qualified && i >= 3 {
                    match tts[i - 3].tok() {
                        Some(Tok::Ident(q)) => q.clone(),
                        _ => String::new(),
                    }
                } else {
                    String::new()
                };
                // `mul_add` via UFCS `f64::mul_add(a, b, c)`.
                if name == "mul_add" {
                    facts.mul_adds.push(MulAdd {
                        line: tt.line(),
                        gated,
                    });
                }
                facts.calls.push(Call {
                    name: name.clone(),
                    qualifier,
                    kind: if qualified {
                        CallKind::Qualified
                    } else {
                        CallKind::Plain
                    },
                    line: tt.line(),
                    receiver: String::new(),
                    args_have_relaxed: group_has_relaxed(args),
                });
            }
        }
        Tok::Punct('.') => {
            // Method call `.name(…)`.
            let Some(Tok::Ident(name)) = tts.get(i + 1).and_then(Tt::tok) else {
                return;
            };
            let Some(args) = tts.get(i + 2).and_then(|t| t.group(Delim::Paren)) else {
                return;
            };
            if name == "mul_add" {
                facts.mul_adds.push(MulAdd {
                    line: tts[i + 1].line(),
                    gated,
                });
            }
            // `map.iter()` / `.values()` / `.keys()` / `.drain()` on
            // a known Hash* binding.
            if matches!(
                name.as_str(),
                "iter" | "iter_mut" | "values" | "keys" | "drain" | "into_iter" | "values_mut"
            ) {
                let recv = receiver_text(tts, i);
                let base = recv.split(['.', '[']).next().unwrap_or("");
                if hash_idents.contains(base) {
                    // Does the surrounding statement accumulate?
                    if statement_accumulates(tts, i) {
                        facts.hash_iters.push(HashIter {
                            line: tts[i + 1].line(),
                            ident: base.to_string(),
                        });
                    }
                }
            }
            facts.calls.push(Call {
                name: name.clone(),
                qualifier: String::new(),
                kind: CallKind::Method,
                line: tts[i + 1].line(),
                receiver: format!("{}.{}", receiver_text(tts, i), name),
                args_have_relaxed: group_has_relaxed(args),
            });
        }
        Tok::Punct(c @ ('=' | '!')) => {
            // Float compare: `== 1.0` / `1.0 !=` — a float literal on
            // either side of `==`/`!=`.
            if !tts.get(i + 1).is_some_and(|t| t.is_punct('=')) {
                return;
            }
            // `!=` lexes as '!' '='; `==` as '=' '='; exclude `=`
            // followed by `==`? (`x = ==` is not Rust). Also exclude
            // `<=`/`>=`/`=>` by checking the previous char.
            if *c == '='
                && i > 0
                && matches!(tts[i - 1].tok(), Some(Tok::Punct('<' | '>' | '=' | '!')))
            {
                return;
            }
            let float_before =
                i > 0 && matches!(tts[i - 1].tok(), Some(Tok::Num(n)) if num_is_float(n));
            let float_after =
                matches!(tts.get(i + 2).and_then(Tt::tok), Some(Tok::Num(n)) if num_is_float(n));
            if float_before || float_after {
                facts.float_cmps.push(tt.line());
            }
        }
        _ => {}
    }
}

/// `for pat in <expr> { body }`: flags iteration over a Hash*
/// binding whose body accumulates.
fn check_for_loop(
    tts: &[Tt],
    for_at: usize,
    hash_idents: &BTreeSet<String>,
    facts: &mut BodyFacts,
) {
    // Find `in`, then the loop body brace group.
    let mut j = for_at + 1;
    while j < tts.len() && !tts[j].is_ident("in") {
        j += 1;
    }
    if j >= tts.len() {
        return;
    }
    let expr_start = j + 1;
    let mut k = expr_start;
    while k < tts.len() && tts[k].group(Delim::Brace).is_none() {
        k += 1;
    }
    let Some(body) = tts.get(k).and_then(|t| t.group(Delim::Brace)) else {
        return;
    };
    let expr = render(&tts[expr_start..k]);
    let base = expr
        .trim_start_matches(['&', '*'])
        .split(['.', '[', '('])
        .next()
        .unwrap_or("");
    if hash_idents.contains(base) && group_accumulates(&body.items) {
        facts.hash_iters.push(HashIter {
            line: tts[for_at].line(),
            ident: base.to_string(),
        });
    }
}

/// Whether the statement containing position `i` (bounded by `;` at
/// this level) contains an accumulation, or is itself a result-
/// bearing `.collect()`/`.sum()`/`.fold()` chain.
fn statement_accumulates(tts: &[Tt], i: usize) -> bool {
    let mut lo = i;
    while lo > 0 && !tts[lo - 1].is_punct(';') {
        lo -= 1;
    }
    let mut hi = i;
    while hi < tts.len() && !tts[hi].is_punct(';') {
        hi += 1;
    }
    group_accumulates(&tts[lo..hi])
}

/// Names that shadow ubiquitous std/core methods. Calls to these
/// names are NOT resolved to workspace fns: `.new(`, `.get(`,
/// `.push(` etc. overwhelmingly target std types, and resolving them
/// by name alone would connect nearly every fn in the workspace to
/// nearly every other (one `.get(` edge into a bio parser, one
/// `.new(` edge into the model checker), destroying the precision of
/// reachability rules. Nothing is lost on the *detection* side —
/// panic/alloc/index sites are found in the body where they occur,
/// not through resolution — and workspace-significant callees are
/// still reached through their distinctively-named callers.
const AMBIENT_NAMES: &[&str] = &[
    // Constructors / conversions.
    "new",
    "with_capacity",
    "default",
    "from",
    "into",
    "try_from",
    "try_into",
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_str",
    "parse",
    // Accessors / collections.
    "get",
    "get_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "extend",
    "reserve",
    "resize",
    "clear",
    "first",
    "last",
    "keys",
    "values",
    "entry",
    "split_at",
    "split_at_mut",
    "chunks",
    "chunks_exact",
    "windows",
    "fill",
    "copy_from_slice",
    "swap",
    "sort",
    "sort_by",
    "binary_search",
    "truncate",
    "drain",
    "append",
    "take",
    "replace",
    "set",
    "index",
    // Closure-scoped access: `LocalKey::with` on a thread-local, whose
    // closure body is the caller's own code (scanned there).
    "with",
    // Iterator adapters / folds.
    "map",
    "filter",
    "fold",
    "sum",
    "product",
    "collect",
    "count",
    "next",
    "zip",
    "rev",
    "enumerate",
    "chain",
    "flat_map",
    "any",
    "all",
    "find",
    "position",
    "min",
    "max",
    "min_by",
    "max_by",
    "skip",
    "step_by",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "and_then",
    "map_err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    // Option/Result panics: detected at the call site by the purity
    // rule; resolving them by name would alias every `.expect(` in
    // the workspace to any fn that happens to be named `expect`.
    "expect",
    "unwrap",
    // Math / float methods (kernels call these constantly; they are
    // std f64 methods, never workspace fns).
    "abs",
    "sqrt",
    "exp",
    "ln",
    "log2",
    "log10",
    "powi",
    "powf",
    "floor",
    "ceil",
    "round",
    "is_finite",
    "is_nan",
    "to_bits",
    "from_bits",
    // I/O and formatting traits.
    "write",
    "write_all",
    "write_str",
    "read",
    "read_to_string",
    "flush",
    "fmt",
    "finish",
    // Atomics / sync (the relaxed rule checks these at the site).
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "lock",
    "send",
    "recv",
    "join",
    "spawn",
    "wait",
    // Comparison / hashing traits.
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "deref",
    "deref_mut",
    "borrow",
    "borrow_mut",
];

/// The workspace-wide call graph over extracted functions.
pub struct CallGraph<'a> {
    pub fns: &'a [FnItem],
    pub facts: Vec<BodyFacts>,
    /// name → indices of non-test fns with that name.
    index: BTreeMap<&'a str, Vec<usize>>,
    /// Per-fn crate key (`crates/core`, `shims/rand`, `root`) for
    /// same-crate resolution preference.
    crates: Vec<String>,
}

/// Crate key of a workspace-relative path: its first two components
/// under `crates/`/`shims/`, or `root` for the root package.
fn crate_of(file: &str) -> String {
    let mut parts = file.split('/');
    match parts.next() {
        Some(top @ ("crates" | "shims")) => match parts.next() {
            Some(name) => format!("{top}/{name}"),
            None => top.to_string(),
        },
        _ => "root".to_string(),
    }
}

impl<'a> CallGraph<'a> {
    /// Builds bodies' facts and the name index. Test-context fns are
    /// indexed separately (they never resolve as call targets of
    /// production code).
    pub fn build(fns: &'a [FnItem]) -> Self {
        let facts = fns.iter().map(analyze_body).collect();
        let mut index: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !f.is_test_ctx {
                index.entry(f.name.as_str()).or_default().push(i);
            }
        }
        let crates = fns.iter().map(|f| crate_of(&f.file)).collect();
        CallGraph {
            fns,
            facts,
            index,
            crates,
        }
    }

    /// Resolves one call made from fn `caller` to candidate fn
    /// indices.
    ///
    /// * Qualified calls (`T::f`) prefer impls of the named type.
    /// * Method calls (`.f(`) resolve to same-crate candidates plus
    ///   cross-crate candidates defined inside a **trait impl** — the
    ///   dyn-dispatch approximation (`worker_loop` calling
    ///   `.log_likelihood(` must reach every `impl LikelihoodEngine`)
    ///   without aliasing inherent methods across crates (a std type
    ///   the sync facade re-exports must not drag in the model
    ///   checker's same-named inherent shim method).
    /// * Plain calls prefer same-crate candidates, falling back to
    ///   every candidate (cross-crate free-fn calls usually arrive
    ///   qualified).
    pub fn resolve(&self, caller: usize, call: &Call) -> Vec<usize> {
        if call.kind == CallKind::Macro || AMBIENT_NAMES.contains(&call.name.as_str()) {
            return Vec::new();
        }
        let Some(cands) = self.index.get(call.name.as_str()) else {
            return Vec::new();
        };
        if call.kind == CallKind::Qualified && !call.qualifier.is_empty() {
            // Prefer impls of the named type; fall back to all.
            let typed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].impl_type.as_deref() == Some(call.qualifier.as_str()))
                .collect();
            if !typed.is_empty() {
                return typed;
            }
        }
        let caller_crate = &self.crates[caller];
        if call.kind == CallKind::Method {
            let narrowed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| &self.crates[i] == caller_crate || self.fns[i].impl_trait.is_some())
                .collect();
            if !narrowed.is_empty() {
                return narrowed;
            }
            return cands.clone();
        }
        let local: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| &self.crates[i] == caller_crate)
            .collect();
        if !local.is_empty() {
            return local;
        }
        cands.clone()
    }

    /// BFS over the graph from `entries` (fn indices). Returns, for
    /// every reached fn, the call-chain parent it was first reached
    /// through (entries map to themselves).
    pub fn reach(&self, entries: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &e in entries {
            parent.entry(e).or_insert(e);
            queue.push_back(e);
        }
        while let Some(at) = queue.pop_front() {
            for call in &self.facts[at].calls {
                for target in self.resolve(at, call) {
                    if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(target) {
                        v.insert(at);
                        queue.push_back(target);
                    }
                }
            }
        }
        parent
    }

    /// Renders the call chain from an entry to `target` (for
    /// diagnostics): `entry → … → target`.
    pub fn chain(&self, parent: &BTreeMap<usize, usize>, target: usize) -> String {
        let mut names = vec![self.fns[target].qualified()];
        let mut at = target;
        let mut hops = 0;
        while let Some(&p) = parent.get(&at) {
            if p == at || hops > 12 {
                break;
            }
            names.push(self.fns[p].qualified());
            at = p;
            hops += 1;
        }
        names.reverse();
        names.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::extract;

    fn facts_of(src: &str) -> (Vec<FnItem>, Vec<BodyFacts>) {
        let items = extract("crates/demo/src/lib.rs", src, &[]);
        let facts = items.fns.iter().map(analyze_body).collect();
        (items.fns, facts)
    }

    #[test]
    fn calls_of_every_kind() {
        let (_, facts) = facts_of(
            "fn f(v: &mut Vec<u32>) {\n  helper(1);\n  v.push(2);\n  let b = Box::new(3);\n  panic!(\"x\");\n}\n",
        );
        let calls = &facts[0].calls;
        let get = |n: &str| calls.iter().find(|c| c.name == n).expect("call");
        assert_eq!(get("helper").kind, CallKind::Plain);
        assert_eq!(get("push").kind, CallKind::Method);
        assert_eq!(get("push").receiver, "v.push");
        assert_eq!(get("new").kind, CallKind::Qualified);
        assert_eq!(get("new").qualifier, "Box");
        assert_eq!(get("panic").kind, CallKind::Macro);
    }

    #[test]
    fn indexing_is_detected_but_not_array_literals_or_types() {
        let (_, facts) = facts_of(
            "fn f(x: &[f64], m: usize) -> f64 {\n  let a: [f64; 4] = [0.0; 4];\n  let v = vec![1];\n  x[m] + a[0]\n}\n",
        );
        // x[m] and a[0] are indexing; `[f64; 4]`, `[0.0; 4]`, vec![…]
        // are not.
        assert_eq!(facts[0].index_sites, vec![4, 4]);
    }

    #[test]
    fn float_compares_against_literals() {
        let (_, facts) = facts_of(
            "fn f(x: f64, n: u32) -> bool {\n  if x == 0.0 { return true; }\n  if 1.5 != x { return true; }\n  if n == 0 { return false; }\n  x <= 2.0\n}\n",
        );
        assert_eq!(facts[0].float_cmps, vec![2, 3]);
    }

    #[test]
    fn mul_add_gating() {
        let src = r#"
fn raw(a: f64) -> f64 { a.mul_add(2.0, 1.0) }
fn gated(a: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    { a.mul_add(2.0, 1.0) }
    #[cfg(not(target_feature = "fma"))]
    { a * 2.0 + 1.0 }
}
#[target_feature(enable = "avx2,fma")]
unsafe fn probe(a: f64) -> f64 { a.mul_add(2.0, 1.0) }
"#;
        let (fns, facts) = facts_of(src);
        let by = |n: &str| {
            let i = fns.iter().position(|f| f.name == n).expect("fn");
            &facts[i]
        };
        assert!(!by("raw").mul_adds[0].gated);
        assert!(by("gated").mul_adds[0].gated);
        assert_eq!(
            by("gated").mul_adds.len(),
            1,
            "ungated branch has no mul_add"
        );
        assert!(by("probe").mul_adds[0].gated);
    }

    #[test]
    fn hashmap_iteration_feeding_accumulation() {
        let src = r#"
fn bad() -> f64 {
    let mut m = std::collections::HashMap::new();
    m.insert(1u32, 2.0f64);
    let mut sum = 0.0;
    for (_, v) in m.iter() { sum += v; }
    sum
}
fn lookup_only(m2: u32) -> u32 {
    let mut m = std::collections::HashMap::new();
    m.insert(1u32, 2u32);
    *m.get(&m2).unwrap_or(&0)
}
fn sorted_ok() {
    let mut m = std::collections::HashMap::new();
    m.insert(1u32, 2u32);
    let mut keys: Vec<_> = m.keys().collect();
    keys.sort();
}
"#;
        let (fns, facts) = facts_of(src);
        let by = |n: &str| {
            let i = fns.iter().position(|f| f.name == n).expect("fn");
            &facts[i]
        };
        assert_eq!(by("bad").hash_iters.len(), 1);
        assert!(by("lookup_only").hash_iters.is_empty());
        // keys().collect() IS flagged: collecting an unsorted Hash
        // iteration is result-bearing; the audit comment justifies
        // the sort that follows.
        assert_eq!(by("sorted_ok").hash_iters.len(), 1);
    }

    #[test]
    fn reachability_and_chains() {
        let src = r#"
fn entry() { middle(); }
fn middle() { leaf(1); }
fn leaf(n: u32) -> u32 { n }
fn unrelated() { leaf(2); }
"#;
        let items = extract("crates/demo/src/lib.rs", src, &[]);
        let graph = CallGraph::build(&items.fns);
        let entry = items
            .fns
            .iter()
            .position(|f| f.name == "entry")
            .expect("entry");
        let reached = graph.reach(&[entry]);
        let names: Vec<_> = reached
            .keys()
            .map(|&i| items.fns[i].name.as_str())
            .collect();
        assert_eq!(names, ["entry", "middle", "leaf"]);
        let leaf = items
            .fns
            .iter()
            .position(|f| f.name == "leaf")
            .expect("leaf");
        assert_eq!(graph.chain(&reached, leaf), "entry → middle → leaf");
    }

    #[test]
    fn relaxed_in_multiline_call_args() {
        let src = "fn f(a: &AtomicU32) {\n  a.store(\n    1,\n    Ordering::Relaxed,\n  );\n}\n";
        let (_, facts) = facts_of(src);
        let store = facts[0]
            .calls
            .iter()
            .find(|c| c.name == "store")
            .expect("store");
        assert!(store.args_have_relaxed);
        assert_eq!(store.receiver, "a.store");
    }
}
