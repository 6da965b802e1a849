//! Item extraction: functions, impls, modules, attributes and unsafe
//! sites, walked out of a file's token trees.
//!
//! The extractor is *cfg-aware*: an item carrying
//! `#[cfg(feature = "x")]` is skipped entirely unless `x` is in the
//! analysis's enabled-feature set — this is how the seeded-violation
//! CI build works (`cargo xtask lint --cfg-feature seed-hotpath-bug`
//! makes the deliberately buggy fixture item visible to the rules).
//! `#[cfg(test)]` modules and `#[test]` functions are extracted but
//! marked, so rules can scope themselves to production code the way
//! the PR 3 line scanner scoped by "first `#[cfg(test)]` line".

use crate::lex::{lex, Delim, Lexed, Tok};
use crate::tree::{build, Group, Tt};

/// What the analyzer understands about an outer attribute (`#[…]`).
#[derive(Clone, Debug, PartialEq)]
pub enum AttrKind {
    /// `#[cfg(test)]`
    CfgTest,
    /// `#[cfg(feature = "name")]`
    CfgFeature(String),
    /// `#[cfg(target_feature = "name")]`
    CfgTargetFeature(String),
    /// `#[target_feature(enable = "…")]`
    TargetFeatureEnable,
    /// `#[test]`
    Test,
    /// Anything else (kept as text).
    Other,
}

/// A function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    pub name: String,
    pub line: u32,
    pub is_unsafe: bool,
    /// Inside a `#[cfg(test)]` module, marked `#[test]`, or in a
    /// `tests/` / `benches/` directory.
    pub is_test_ctx: bool,
    /// Base identifier of the `impl` self type, when inside one.
    pub impl_type: Option<String>,
    /// Base identifier of the implemented trait, when inside a trait
    /// impl.
    pub impl_trait: Option<String>,
    pub attrs: Vec<AttrKind>,
    /// The `{…}` body; `None` for trait-method declarations.
    pub body: Option<Group>,
}

impl FnItem {
    /// `impl Ty::name`-style qualified display name.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether any attribute is `#[target_feature(enable = …)]`.
    pub fn has_target_feature(&self) -> bool {
        self.attrs.contains(&AttrKind::TargetFeatureEnable)
    }
}

/// Kinds of unsafe site, for the inventory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnsafeKind {
    Block,
    Fn,
    Impl,
}

impl UnsafeKind {
    pub fn name(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
        }
    }
}

/// One `unsafe` occurrence.
#[derive(Clone, Debug)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    pub kind: UnsafeKind,
    /// Stable enclosing container: `fn name`, `impl Ty`, or `item`
    /// (file-level static/const initializer). Used as the inventory
    /// key so unrelated edits above the site don't shift it.
    pub container: String,
    pub in_test_ctx: bool,
}

/// An `impl` block header.
#[derive(Clone, Debug)]
pub struct ImplItem {
    pub file: String,
    pub line: u32,
    pub is_unsafe: bool,
    pub self_type: Option<String>,
    pub trait_name: Option<String>,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub file: String,
    pub lexed: Lexed,
    pub fns: Vec<FnItem>,
    pub impls: Vec<ImplItem>,
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Items skipped because their `cfg(feature)` was not enabled.
    pub skipped_cfg_items: usize,
}

/// Extraction context threaded through the walk.
#[derive(Clone, Default)]
struct Ctx {
    in_test: bool,
    impl_type: Option<String>,
    impl_trait: Option<String>,
}

/// Parses one file into items. `enabled_features` controls which
/// `#[cfg(feature = "…")]` items are visible.
pub fn extract(file: &str, src: &str, enabled_features: &[String]) -> FileItems {
    let lexed = lex(src);
    let tts = build(lexed.tokens.clone());
    let mut out = FileItems {
        file: file.to_string(),
        lexed,
        ..FileItems::default()
    };
    // Workspace-relative paths: the root package's `tests/` has no
    // leading slash, a member's `crates/x/tests/` has one.
    let under = |dir: &str| file.starts_with(dir) || file.contains(&format!("/{dir}"));
    let path_test_ctx =
        ["tests/", "benches/", "examples/"].into_iter().any(under) || file.ends_with("build.rs");
    let ctx = Ctx {
        in_test: path_test_ctx,
        ..Ctx::default()
    };
    walk_items(&tts, &ctx, enabled_features, &mut out);
    out
}

/// Parses an attribute group's contents into an [`AttrKind`].
pub(crate) fn attr_kind(items: &[Tt]) -> AttrKind {
    let first = match items.first().and_then(Tt::tok) {
        Some(Tok::Ident(s)) => s.as_str(),
        _ => return AttrKind::Other,
    };
    match first {
        "test" if items.len() == 1 => AttrKind::Test,
        "target_feature" => AttrKind::TargetFeatureEnable,
        "cfg" => {
            let Some(args) = items.get(1).and_then(|t| t.group(Delim::Paren)) else {
                return AttrKind::Other;
            };
            match args.items.first().and_then(Tt::tok) {
                Some(Tok::Ident(s)) if s == "test" && args.items.len() == 1 => AttrKind::CfgTest,
                Some(Tok::Ident(s)) if s == "feature" || s == "target_feature" => {
                    // `feature = "name"`
                    let name = args.items.iter().find_map(|t| match t.tok() {
                        Some(Tok::Literal(text)) => Some(text.clone()),
                        _ => None,
                    });
                    match (s.as_str(), name) {
                        ("feature", Some(n)) => AttrKind::CfgFeature(n),
                        ("target_feature", Some(n)) => AttrKind::CfgTargetFeature(n),
                        _ => AttrKind::Other,
                    }
                }
                _ => AttrKind::Other,
            }
        }
        _ => AttrKind::Other,
    }
}

/// Whether pending attributes make this item invisible under the
/// enabled feature set.
fn cfg_skips(attrs: &[AttrKind], enabled: &[String]) -> bool {
    attrs.iter().any(|a| match a {
        AttrKind::CfgFeature(f) => !enabled.iter().any(|e| e == f),
        _ => false,
    })
}

fn cfg_test(attrs: &[AttrKind]) -> bool {
    attrs
        .iter()
        .any(|a| matches!(a, AttrKind::CfgTest | AttrKind::Test))
}

/// Base identifier of a type token run: first identifier that isn't a
/// pointer/reference sigil or keyword (`dyn`, `mut`, `const`).
fn base_type_ident(tts: &[Tt]) -> Option<String> {
    tts.iter().find_map(|t| match t.tok() {
        Some(Tok::Ident(s)) if !matches!(s.as_str(), "dyn" | "mut" | "const" | "impl") => {
            Some(s.clone())
        }
        _ => None,
    })
}

/// Skips a balanced `< … >` generic run starting at `i` (which must
/// point at `<`); returns the index just past the matching `>`.
fn skip_generics(tts: &[Tt], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tts.len() {
        if tts[i].is_punct('<') {
            depth += 1;
        } else if tts[i].is_punct('>') {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Walks one item-level token run (file top level, `mod` body, `impl`
/// body, `trait` body).
fn walk_items(tts: &[Tt], ctx: &Ctx, enabled: &[String], out: &mut FileItems) {
    let mut pending_attrs: Vec<AttrKind> = Vec::new();
    let mut pending_unsafe: Option<u32> = None;
    let mut i = 0;
    while i < tts.len() {
        let tt = &tts[i];
        // Attributes: `#[…]` (outer) and `#![…]` (inner, skipped).
        if tt.is_punct('#') {
            let bang = tts.get(i + 1).is_some_and(|t| t.is_punct('!'));
            let group_at = i + 1 + usize::from(bang);
            if let Some(g) = tts.get(group_at).and_then(|t| t.group(Delim::Bracket)) {
                if !bang {
                    pending_attrs.push(attr_kind(&g.items));
                }
                i = group_at + 1;
                continue;
            }
        }
        match tt.tok() {
            Some(Tok::Ident(kw)) if kw == "unsafe" => {
                pending_unsafe = Some(tt.line());
                // `unsafe { … }` in item position (static/const
                // initializers): record as a block site.
                if let Some(g) = tts.get(i + 1).and_then(|t| t.group(Delim::Brace)) {
                    out.unsafe_sites.push(UnsafeSite {
                        file: out.file.clone(),
                        line: tt.line(),
                        kind: UnsafeKind::Block,
                        container: "item".to_string(),
                        in_test_ctx: ctx.in_test,
                    });
                    let _ = g;
                    pending_unsafe = None;
                    i += 2;
                    continue;
                }
                i += 1;
                continue;
            }
            Some(Tok::Ident(kw)) if kw == "fn" => {
                let attrs = std::mem::take(&mut pending_attrs);
                let is_unsafe = pending_unsafe.take().is_some();
                if cfg_skips(&attrs, enabled) {
                    out.skipped_cfg_items += 1;
                    i = skip_item(tts, i);
                    continue;
                }
                let name = match tts.get(i + 1).and_then(Tt::tok) {
                    Some(Tok::Ident(n)) => n.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let line = tt.line();
                // Find the body: first brace group before a `;`.
                let (body, next) = find_fn_body(tts, i + 2);
                let is_test_ctx = ctx.in_test || cfg_test(&attrs);
                if is_unsafe {
                    out.unsafe_sites.push(UnsafeSite {
                        file: out.file.clone(),
                        line,
                        kind: UnsafeKind::Fn,
                        container: format!("fn {}", qualify(ctx, &name)),
                        in_test_ctx: is_test_ctx,
                    });
                }
                if let Some(b) = &body {
                    collect_unsafe_blocks(
                        &b.items,
                        &format!("fn {}", qualify(ctx, &name)),
                        is_test_ctx,
                        out,
                    );
                }
                out.fns.push(FnItem {
                    file: out.file.clone(),
                    name,
                    line,
                    is_unsafe,
                    is_test_ctx,
                    impl_type: ctx.impl_type.clone(),
                    impl_trait: ctx.impl_trait.clone(),
                    attrs,
                    body,
                });
                i = next;
            }
            Some(Tok::Ident(kw)) if kw == "mod" => {
                let attrs = std::mem::take(&mut pending_attrs);
                pending_unsafe = None;
                if cfg_skips(&attrs, enabled) {
                    out.skipped_cfg_items += 1;
                    i = skip_item(tts, i);
                    continue;
                }
                // `mod name { … }` — recurse; `mod name;` — the file
                // collector visits the file itself.
                let mut j = i + 1;
                while j < tts.len() && !matches!(tts[j], Tt::Group(_)) && !tts[j].is_punct(';') {
                    j += 1;
                }
                if let Some(g) = tts.get(j).and_then(|t| t.group(Delim::Brace)) {
                    let sub = Ctx {
                        in_test: ctx.in_test || cfg_test(&attrs),
                        impl_type: None,
                        impl_trait: None,
                    };
                    walk_items(&g.items, &sub, enabled, out);
                }
                i = j + 1;
            }
            Some(Tok::Ident(kw)) if kw == "impl" => {
                let attrs = std::mem::take(&mut pending_attrs);
                let is_unsafe = pending_unsafe.take().is_some();
                if cfg_skips(&attrs, enabled) {
                    out.skipped_cfg_items += 1;
                    i = skip_item(tts, i);
                    continue;
                }
                let line = tt.line();
                // Header: `impl [<…>] Path [for Path] [where …] { … }`.
                let mut j = i + 1;
                if tts.get(j).is_some_and(|t| t.is_punct('<')) {
                    j = skip_generics(tts, j);
                }
                let header_start = j;
                while j < tts.len() && tts[j].group(Delim::Brace).is_none() && !tts[j].is_punct(';')
                {
                    j += 1;
                }
                let header = &tts[header_start..j.min(tts.len())];
                let for_pos = header.iter().position(|t| t.is_ident("for"));
                let (trait_name, self_type) = match for_pos {
                    Some(p) => (
                        base_type_ident(&header[..p]),
                        base_type_ident(&header[p + 1..]),
                    ),
                    None => (None, base_type_ident(header)),
                };
                if is_unsafe {
                    out.unsafe_sites.push(UnsafeSite {
                        file: out.file.clone(),
                        line,
                        kind: UnsafeKind::Impl,
                        container: format!(
                            "impl {} for {}",
                            trait_name.as_deref().unwrap_or("?"),
                            self_type.as_deref().unwrap_or("?")
                        ),
                        in_test_ctx: ctx.in_test || cfg_test(&attrs),
                    });
                }
                out.impls.push(ImplItem {
                    file: out.file.clone(),
                    line,
                    is_unsafe,
                    self_type: self_type.clone(),
                    trait_name: trait_name.clone(),
                });
                if let Some(g) = tts.get(j).and_then(|t| t.group(Delim::Brace)) {
                    let sub = Ctx {
                        in_test: ctx.in_test || cfg_test(&attrs),
                        impl_type: self_type,
                        impl_trait: trait_name,
                    };
                    walk_items(&g.items, &sub, enabled, out);
                }
                i = j + 1;
            }
            Some(Tok::Ident(kw)) if kw == "trait" => {
                let attrs = std::mem::take(&mut pending_attrs);
                pending_unsafe = None;
                if cfg_skips(&attrs, enabled) {
                    out.skipped_cfg_items += 1;
                    i = skip_item(tts, i);
                    continue;
                }
                let trait_name = match tts.get(i + 1).and_then(Tt::tok) {
                    Some(Tok::Ident(n)) => Some(n.clone()),
                    _ => None,
                };
                let mut j = i + 1;
                while j < tts.len() && tts[j].group(Delim::Brace).is_none() && !tts[j].is_punct(';')
                {
                    j += 1;
                }
                if let Some(g) = tts.get(j).and_then(|t| t.group(Delim::Brace)) {
                    let sub = Ctx {
                        in_test: ctx.in_test || cfg_test(&attrs),
                        impl_type: None,
                        impl_trait: trait_name,
                    };
                    walk_items(&g.items, &sub, enabled, out);
                }
                i = j + 1;
            }
            // Qualifiers sit between attributes and the item keyword
            // (`#[inline] pub const unsafe fn f`): keep the pending
            // state across them, and across the `(crate)` group of a
            // `pub(crate)` visibility.
            Some(Tok::Ident(kw))
                if matches!(
                    kw.as_str(),
                    "pub" | "const" | "async" | "extern" | "default"
                ) =>
            {
                i += 1;
            }
            None if tts[i].group(Delim::Paren).is_some() => {
                i += 1;
            }
            _ => {
                pending_attrs.clear();
                pending_unsafe = None;
                i += 1;
            }
        }
    }
}

fn qualify(ctx: &Ctx, name: &str) -> String {
    match &ctx.impl_type {
        Some(ty) => format!("{ty}::{name}"),
        None => name.to_string(),
    }
}

/// Finds a fn's body brace group starting the search at `i` (just
/// past the name): returns `(body, index just past the item)`.
fn find_fn_body(tts: &[Tt], mut i: usize) -> (Option<Group>, usize) {
    // Skip generics directly after the name.
    if tts.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_generics(tts, i);
    }
    while i < tts.len() {
        if tts[i].is_punct(';') {
            return (None, i + 1);
        }
        if let Some(g) = tts[i].group(Delim::Brace) {
            return (Some(g.clone()), i + 1);
        }
        i += 1;
    }
    (None, i)
}

/// Skips one item starting at its keyword (used for cfg-disabled
/// items): advances past the next top-level `{…}` group or `;`.
fn skip_item(tts: &[Tt], mut i: usize) -> usize {
    // Special-case fn: generics may contain `;` never, but default
    // const generics could contain groups; the first brace group at
    // this level is the body either way.
    while i < tts.len() {
        if tts[i].is_punct(';') {
            return i + 1;
        }
        if tts[i].group(Delim::Brace).is_some() {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Records every `unsafe { … }` block inside a fn body (recursively,
/// including inside nested closures/blocks).
fn collect_unsafe_blocks(tts: &[Tt], container: &str, in_test: bool, out: &mut FileItems) {
    let mut i = 0;
    while i < tts.len() {
        if tts[i].is_ident("unsafe") {
            // `unsafe {` possibly with tokens between on other lines
            // is always adjacent in token trees.
            if let Some(g) = tts.get(i + 1).and_then(|t| t.group(Delim::Brace)) {
                out.unsafe_sites.push(UnsafeSite {
                    file: out.file.clone(),
                    line: tts[i].line(),
                    kind: UnsafeKind::Block,
                    container: container.to_string(),
                    in_test_ctx: in_test,
                });
                // Recurse inside the unsafe block for nested sites.
                collect_unsafe_blocks(&g.items, container, in_test, out);
                i += 2;
                continue;
            }
        }
        if let Tt::Group(g) = &tts[i] {
            collect_unsafe_blocks(&g.items, container, in_test, out);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(src: &str) -> FileItems {
        extract("crates/demo/src/lib.rs", src, &[])
    }

    #[test]
    fn fns_with_context_and_bodies() {
        let items = ex("impl Foo { pub fn bar(&self) -> u32 { self.x } }\nfn free() {}\ntrait T { fn decl(&self); }\n");
        let names: Vec<_> = items.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, ["Foo::bar", "free", "decl"]);
        assert!(items.fns[0].body.is_some());
        assert!(items.fns[2].body.is_none());
        assert_eq!(items.fns[0].impl_type.as_deref(), Some("Foo"));
    }

    #[test]
    fn impl_headers_with_generics_and_traits() {
        let items = ex("unsafe impl<T: Send> Sync for Holder<T> {}\nimpl<'a> Walker<'a> { }\n");
        assert_eq!(items.impls[0].trait_name.as_deref(), Some("Sync"));
        assert_eq!(items.impls[0].self_type.as_deref(), Some("Holder"));
        assert!(items.impls[0].is_unsafe);
        assert_eq!(items.impls[1].self_type.as_deref(), Some("Walker"));
        assert!(!items.impls[1].is_unsafe);
        assert_eq!(items.unsafe_sites.len(), 1);
        assert_eq!(items.unsafe_sites[0].kind, UnsafeKind::Impl);
    }

    #[test]
    fn unsafe_fns_and_blocks_with_containers() {
        let src = "unsafe fn raw() {}\nfn wrapper() {\n    let x = unsafe { *p };\n    x\n}\n";
        let items = ex(src);
        let kinds: Vec<_> = items
            .unsafe_sites
            .iter()
            .map(|s| (s.kind, s.container.as_str(), s.line))
            .collect();
        assert_eq!(
            kinds,
            [
                (UnsafeKind::Fn, "fn raw", 1),
                (UnsafeKind::Block, "fn wrapper", 3)
            ]
        );
    }

    #[test]
    fn cfg_feature_items_are_skipped_unless_enabled() {
        let src = "#[cfg(feature = \"seed\")]\nfn bad() {}\nfn good() {}\n";
        let off = extract("f.rs", src, &[]);
        assert_eq!(off.fns.len(), 1);
        assert_eq!(off.fns[0].name, "good");
        assert_eq!(off.skipped_cfg_items, 1);
        let on = extract("f.rs", src, &["seed".to_string()]);
        assert_eq!(on.fns.len(), 2);
    }

    #[test]
    fn test_contexts_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn check() {}\n    fn helper() {}\n}\n";
        let items = ex(src);
        let by_name = |n: &str| items.fns.iter().find(|f| f.name == n).expect("fn");
        assert!(!by_name("prod").is_test_ctx);
        assert!(by_name("check").is_test_ctx);
        assert!(by_name("helper").is_test_ctx);
    }

    #[test]
    fn attr_kinds_parse() {
        let src = "#[cfg(test)]\n#[cfg(feature = \"fast\")]\n#[cfg(target_feature = \"fma\")]\n#[target_feature(enable = \"avx2,fma\")]\n#[inline]\nunsafe fn f() {}\n";
        let items = extract("f.rs", src, &["fast".to_string()]);
        assert_eq!(
            items.fns[0].attrs,
            [
                AttrKind::CfgTest,
                AttrKind::CfgFeature("fast".into()),
                AttrKind::CfgTargetFeature("fma".into()),
                AttrKind::TargetFeatureEnable,
                AttrKind::Other,
            ]
        );
    }
}
