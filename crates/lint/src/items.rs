//! Item-level view of a Rust source file.
//!
//! The v2 rule families ([`crate::rules_v2`]) reason about *functions*
//! — which ones exist, what they call, and which carry a `wm-lint`
//! annotation — not about raw token patterns. This module parses the
//! lexer's token stream into exactly that item-level view, without
//! building a full AST: `fn` definitions (with their enclosing module
//! path and `impl`/`trait` type), the call sites inside each body, and
//! `use` imports for cross-crate name resolution.
//!
//! The parser is total and forgiving, like the lexer: unrecognized
//! syntax is skipped, never an error, so a half-written file still
//! contributes whatever items it declares.

use crate::lexer::{Comment, Tok, Token};
use std::ops::Range;

/// `wm-lint` item annotations, written as comment directives on the
/// line(s) immediately above a `fn` (attributes may intervene):
///
/// * `// wm-lint: hotpath` — the next fn is a hot-path root for the
///   `hotpath/alloc` family (no reason needed: it tightens checking).
/// * `// wm-lint: alloc-ok(reason = "...")` — the next fn is an
///   approved recycled-buffer / amortized-allocation API; hot-path
///   traversal stops at it. The reason is mandatory.
/// * `// wm-lint: response-path` — the next fn is a root of a
///   victim-side response path for the `defense/length-taint` family.
/// * `// wm-lint: quantizer(reason = "...")` — the next fn is an
///   approved pad/bucket length quantizer; taint traversal stops at
///   it. The reason is mandatory (approval must be argued).
/// * `// wm-lint: parse-root` — the next fn takes attacker- or
///   disk-supplied bytes; it roots the `panic/*` family's scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Annotation {
    Hotpath,
    AllocOk,
    ResponsePath,
    Quantizer,
    ParseRoot,
}

impl Annotation {
    /// Directive keyword as written in source.
    pub fn keyword(self) -> &'static str {
        match self {
            Annotation::Hotpath => "hotpath",
            Annotation::AllocOk => "alloc-ok",
            Annotation::ResponsePath => "response-path",
            Annotation::Quantizer => "quantizer",
            Annotation::ParseRoot => "parse-root",
        }
    }

    /// Whether the directive must carry `reason = "..."`. Directives
    /// that *loosen* a rule (exempting a function) must say why;
    /// directives that tighten add no risk and need none.
    pub fn requires_reason(self) -> bool {
        matches!(self, Annotation::AllocOk | Annotation::Quantizer)
    }

    const ALL: [Annotation; 5] = [
        Annotation::Hotpath,
        Annotation::AllocOk,
        Annotation::ResponsePath,
        Annotation::Quantizer,
        Annotation::ParseRoot,
    ];

    /// The annotation a directive body starts with, and the text after
    /// its keyword. Prefixes of longer words (`hotpathX`) do not count.
    pub(crate) fn parse_directive(rest: &str) -> Option<(Annotation, &str)> {
        Annotation::ALL.iter().find_map(|a| {
            let after = rest.strip_prefix(a.keyword())?;
            after
                .chars()
                .next()
                .is_none_or(|ch| !ch.is_alphanumeric() && ch != '-' && ch != '_')
                .then_some((*a, after))
        })
    }
}

/// One parsed annotation directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotationSite {
    pub kind: Annotation,
    /// Line the directive comment ends on.
    pub line: u32,
    /// Whether a non-empty `reason = "..."` was supplied.
    pub has_reason: bool,
}

/// A call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `.name(...)` — receiver type unknown at token level.
    Method(String),
    /// `name(...)` / `a::b::name(...)` — full path as written.
    Path(Vec<String>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub call: Call,
    pub line: u32,
}

/// One `fn` item with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub self_type: Option<String>,
    /// Whether the enclosing block is an `impl Trait for Type`.
    pub trait_impl: bool,
    /// Type parameters in scope: the enclosing `impl`/`trait`'s and the
    /// fn's own (`T` in `fn num<T: Le>`), without lifetimes or consts.
    pub generics: Vec<String>,
    /// Enclosing inline-module path (file-level = empty).
    pub module: Vec<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body (between, excluding, the braces).
    pub body: Range<usize>,
    pub annotations: Vec<AnnotationSite>,
    pub calls: Vec<CallSite>,
    /// Paths named in the body but not called (`map(f)`, `Self::f`):
    /// the candidates for a function used as a value.
    pub values: Vec<Vec<String>>,
}

impl FnItem {
    pub fn has_annotation(&self, kind: Annotation) -> bool {
        self.annotations.iter().any(|a| a.kind == kind)
    }
}

/// One `use` import: `alias` is the name visible in this file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    pub alias: String,
    pub path: Vec<String>,
}

/// Everything the v2 rules need from one file.
#[derive(Debug, Default)]
pub struct SourceItems {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseImport>,
    /// Annotation directives that did not attach to any `fn` — each is
    /// a lint finding (a dangling directive silently enforces nothing).
    pub dangling: Vec<AnnotationSite>,
    /// Annotation directives that attached but lack a mandatory reason.
    pub missing_reason: Vec<AnnotationSite>,
}

/// How many lines of attributes/visibility may sit between a directive
/// comment and the `fn` it annotates.
const ANNOTATION_REACH: u32 = 8;

/// Parse the item view from an (already test-stripped) token stream
/// plus the file's comments.
pub fn parse_items(tokens: &[Token], comments: &[Comment]) -> SourceItems {
    let mut out = SourceItems::default();

    enum ScopeKind {
        Module(String),
        Type {
            name: String,
            trait_impl: bool,
            generics: Vec<String>,
        },
        Opaque,
    }
    // (brace depth the scope body lives at, kind)
    let mut scopes: Vec<(usize, ScopeKind)> = Vec::new();
    let mut pending: Option<ScopeKind> = None;
    let mut depth = 0usize;

    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                if let Some(kind) = pending.take() {
                    scopes.push((depth, kind));
                }
                i += 1;
            }
            Tok::Punct('}') => {
                scopes.retain(|(d, _)| *d < depth);
                depth = depth.saturating_sub(1);
                i += 1;
            }
            Tok::Ident(w) if w == "mod" => {
                if let (Some(Tok::Ident(name)), Some(Tok::Punct('{'))) = (
                    tokens.get(i + 1).map(|t| &t.tok),
                    tokens.get(i + 2).map(|t| &t.tok),
                ) {
                    pending = Some(ScopeKind::Module(name.clone()));
                    i += 2; // land on '{'
                } else {
                    i += 1; // `mod x;` declaration or something else
                }
            }
            Tok::Ident(w) if w == "impl" || w == "trait" => {
                let target = impl_target(tokens, i + 1);
                match target.brace {
                    Some(b) => {
                        pending = Some(match target.name {
                            Some(name) => ScopeKind::Type {
                                name,
                                trait_impl: target.trait_impl,
                                generics: target.generics,
                            },
                            None => ScopeKind::Opaque,
                        });
                        i = b; // land on '{'
                    }
                    None => i += 1,
                }
            }
            Tok::Ident(w) if w == "use" => {
                i = parse_use(tokens, i + 1, &mut out.uses);
            }
            Tok::Ident(w) if w == "fn" => {
                let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) else {
                    // `fn(` pointer type / `Fn` trait sugar: not an item.
                    i += 1;
                    continue;
                };
                let line = tokens[i].line;
                match fn_body(tokens, i + 2) {
                    Some((open, close)) => {
                        let scope = scopes.iter().rev().find_map(|(_, k)| match k {
                            ScopeKind::Type {
                                name,
                                trait_impl,
                                generics,
                            } => Some((name, *trait_impl, generics)),
                            _ => None,
                        });
                        let mut generics = scope.map(|(_, _, g)| g.clone()).unwrap_or_default();
                        generics.extend(generic_params(tokens, i + 2));
                        let module: Vec<String> = scopes
                            .iter()
                            .filter_map(|(_, k)| match k {
                                ScopeKind::Module(m) => Some(m.clone()),
                                _ => None,
                            })
                            .collect();
                        out.fns.push(FnItem {
                            name: name.clone(),
                            self_type: scope.map(|(t, _, _)| t.clone()),
                            trait_impl: scope.is_some_and(|(_, t, _)| t),
                            generics,
                            module,
                            line,
                            body: open + 1..close,
                            annotations: Vec::new(),
                            calls: Vec::new(),
                            values: Vec::new(),
                        });
                        // Continue *inside* the body so nested items and
                        // scope tracking stay consistent.
                        i += 2;
                    }
                    None => i += 2, // trait method declaration (`;`) etc.
                }
            }
            _ => i += 1,
        }
    }

    for f in &mut out.fns {
        (f.calls, f.values) = extract_calls(tokens, f.body.clone());
    }
    attach_annotations(&mut out, comments);
    out
}

/// What an `impl`/`trait` header introduces.
struct ImplTarget {
    /// The type the block's fns belong to.
    name: Option<String>,
    /// Index of the block's `{`.
    brace: Option<usize>,
    /// `impl Trait for Type`.
    trait_impl: bool,
    generics: Vec<String>,
}

/// From just past `impl`/`trait`, find the scope's `{`, the type name
/// it introduces, whether it implements a trait, and its type
/// parameters.
fn impl_target(tokens: &[Token], from: usize) -> ImplTarget {
    let mut target = ImplTarget {
        name: None,
        brace: None,
        trait_impl: false,
        generics: generic_params(tokens, from),
    };
    let mut angle = 0i32;
    let mut segment_start = from;
    let mut j = from;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => {
                // `->` in a where clause is an arrow, not a close.
                let arrow = j > 0 && matches!(tokens[j - 1].tok, Tok::Punct('-'));
                if !arrow {
                    angle -= 1;
                }
            }
            Tok::Punct('{') if angle <= 0 => {
                target.brace = Some(j);
                target.name = last_type_ident(tokens, segment_start, j);
                return target;
            }
            Tok::Punct(';') if angle <= 0 => return target,
            Tok::Ident(w) if w == "for" && angle <= 0 => {
                target.trait_impl = true;
                segment_start = j + 1;
            }
            // The type segment ends at `where`; keep scanning for `{`.
            Tok::Ident(w) if w == "where" && angle <= 0 => {
                target.name = last_type_ident(tokens, segment_start, j);
                target.brace = tokens[j..]
                    .iter()
                    .position(|t| matches!(t.tok, Tok::Punct('{')))
                    .map(|off| j + off);
                return target;
            }
            _ => {}
        }
        j += 1;
    }
    target
}

/// Type parameter names of the `<..>` list starting at `from`, if one
/// does: `T` and `U` in `<'a, T: Fn() -> u8, const N: usize, U>`.
fn generic_params(tokens: &[Token], from: usize) -> Vec<String> {
    let mut out = Vec::new();
    if !matches!(tokens.get(from).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        return out;
    }
    let mut angle = 0i32;
    let mut param_start = false;
    for (j, t) in tokens.iter().enumerate().skip(from) {
        match &t.tok {
            Tok::Punct('<') => {
                angle += 1;
                param_start = angle == 1;
                continue;
            }
            Tok::Punct('>') if !matches!(tokens[j - 1].tok, Tok::Punct('-')) => {
                angle -= 1;
                if angle == 0 {
                    break;
                }
            }
            Tok::Punct(',') if angle == 1 => {
                param_start = true;
                continue;
            }
            Tok::Ident(w) if angle == 1 && param_start && w != "const" => out.push(w.clone()),
            _ => {}
        }
        param_start = false;
    }
    out
}

/// Last identifier at angle-depth 0 in `tokens[from..to]` — the base
/// type name of a (possibly generic, possibly path-qualified) type.
fn last_type_ident(tokens: &[Token], from: usize, to: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut last = None;
    for t in tokens.iter().take(to).skip(from) {
        match &t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(w) if angle <= 0 && w != "dyn" => last = Some(w.clone()),
            _ => {}
        }
    }
    last
}

/// From just past a fn's name, find its body braces. Returns token
/// indices of `{` and the matching `}`, or `None` for a body-less
/// declaration.
fn fn_body(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    let mut j = from;
    while j < tokens.len() {
        match tokens[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
            Tok::Punct('{') if paren <= 0 => {
                let close = matching_brace(tokens, j)?;
                return Some((j, close));
            }
            Tok::Punct(';') if paren <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut d = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => d += 1,
            Tok::Punct('}') => {
                d = d.checked_sub(1)?;
                if d == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse one `use` item starting just past the `use` keyword; returns
/// the index past the terminating `;`.
fn parse_use(tokens: &[Token], from: usize, out: &mut Vec<UseImport>) -> usize {
    // Find the end first so malformed imports cannot hang the walk.
    let end = tokens[from..]
        .iter()
        .position(|t| matches!(t.tok, Tok::Punct(';')))
        .map(|off| from + off)
        .unwrap_or(tokens.len());
    use_tree(tokens, from, end, &[], out);
    end + 1
}

/// Recursively expand a use tree (`a::b::{c, d as e}`) within
/// `tokens[from..to]`.
fn use_tree(tokens: &[Token], from: usize, to: usize, prefix: &[String], out: &mut Vec<UseImport>) {
    let mut path: Vec<String> = prefix.to_vec();
    let mut j = from;
    while j < to {
        match &tokens[j].tok {
            Tok::Ident(w) if w == "as" => {
                if let Some(Tok::Ident(alias)) = tokens.get(j + 1).map(|t| &t.tok) {
                    out.push(UseImport {
                        alias: alias.clone(),
                        path,
                    });
                }
                return;
            }
            Tok::Ident(w) => {
                path.push(w.clone());
                j += 1;
            }
            Tok::Punct(':') => j += 1,
            Tok::Punct('{') => {
                // Split the group body on top-level commas.
                let Some(close) = matching_group(tokens, j, to) else {
                    return;
                };
                let mut item_start = j + 1;
                let mut d = 0i32;
                for k in j + 1..close {
                    match tokens[k].tok {
                        Tok::Punct('{') => d += 1,
                        Tok::Punct('}') => d -= 1,
                        Tok::Punct(',') if d == 0 => {
                            use_tree(tokens, item_start, k, &path, out);
                            item_start = k + 1;
                        }
                        _ => {}
                    }
                }
                use_tree(tokens, item_start, close, &path, out);
                return;
            }
            Tok::Punct('*') => return, // glob: no single alias
            _ => j += 1,
        }
    }
    if let Some(last) = path.last() {
        if path.len() > prefix.len() {
            out.push(UseImport {
                alias: last.clone(),
                path,
            });
        }
    }
}

/// Index of the `}` closing the `{` at `open`, bounded by `to`.
fn matching_group(tokens: &[Token], open: usize, to: usize) -> Option<usize> {
    let mut d = 0usize;
    for (j, t) in tokens.iter().enumerate().take(to).skip(open) {
        match t.tok {
            Tok::Punct('{') => d += 1,
            Tok::Punct('}') => {
                d = d.checked_sub(1)?;
                if d == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extract the call sites, and the paths named without a call, from a
/// body token range.
fn extract_calls(tokens: &[Token], body: Range<usize>) -> (Vec<CallSite>, Vec<Vec<String>>) {
    let mut calls = Vec::new();
    let mut values = Vec::new();
    let mut j = body.start;
    while j < body.end {
        let Tok::Ident(name) = &tokens[j].tok else {
            j += 1;
            continue;
        };
        let line = tokens[j].line;
        let prev = j.checked_sub(1).map(|p| &tokens[p].tok);
        // `.name(` / `.name::<..>(` — a method call.
        if matches!(prev, Some(Tok::Punct('.'))) {
            if call_follows(tokens, j + 1, body.end) {
                calls.push(CallSite {
                    call: Call::Method(name.clone()),
                    line,
                });
            }
            j += 1;
            continue;
        }
        // Skip path continuations (`b` in `<T as A>::b`; the ones after
        // an identifier are consumed below). A single `:` ends a field
        // or binding name, so `field: f(..)` still starts a path.
        let after_path_sep = j >= body.start + 2
            && matches!(tokens[j - 1].tok, Tok::Punct(':'))
            && matches!(tokens[j - 2].tok, Tok::Punct(':'));
        if after_path_sep {
            j += 1;
            continue;
        }
        // Skip nested fn names.
        if matches!(prev, Some(Tok::Ident(w)) if w == "fn") {
            j += 1;
            continue;
        }
        // Path start: greedily take `:: ident` repetitions.
        let mut segs = vec![name.clone()];
        let mut k = j + 1;
        while k + 2 < body.end
            && matches!(tokens[k].tok, Tok::Punct(':'))
            && matches!(tokens[k + 1].tok, Tok::Punct(':'))
        {
            match &tokens[k + 2].tok {
                Tok::Ident(seg) => {
                    segs.push(seg.clone());
                    k += 3;
                }
                _ => break,
            }
        }
        if call_follows(tokens, k, body.end) {
            calls.push(CallSite {
                call: Call::Path(segs),
                line,
            });
        } else if !matches!(tokens.get(k).map(|t| &t.tok), Some(Tok::Punct('!'))) {
            values.push(segs);
        }
        j = k.max(j + 1);
    }
    (calls, values)
}

/// Does a call argument list start at `j` (allowing one `::<..>`
/// turbofish)?
fn call_follows(tokens: &[Token], j: usize, end: usize) -> bool {
    if j >= end {
        return false;
    }
    match tokens[j].tok {
        Tok::Punct('(') => true,
        Tok::Punct(':')
            if j + 2 < end
                && matches!(tokens[j + 1].tok, Tok::Punct(':'))
                && matches!(tokens[j + 2].tok, Tok::Punct('<')) =>
        {
            // Skip the turbofish, then expect `(`.
            let mut angle = 0i32;
            for k in j + 2..end {
                match tokens[k].tok {
                    Tok::Punct('<') => angle += 1,
                    Tok::Punct('>') => {
                        angle -= 1;
                        if angle == 0 {
                            return matches!(
                                tokens.get(k + 1).map(|t| &t.tok),
                                Some(Tok::Punct('('))
                            );
                        }
                    }
                    _ => {}
                }
            }
            false
        }
        _ => false,
    }
}

/// The comment's directive body, if it *is* a directive: the text
/// after its `//`/`/*` fence must begin with `wm-lint:`. Anchoring at
/// the start keeps prose that merely mentions a directive (docs like
/// this very sentence about `wm-lint: hotpath`) from being parsed as
/// one.
pub(crate) fn directive_body(c: &Comment) -> Option<&str> {
    let t = c.text.trim_start_matches(['/', '*', '!']).trim_start();
    t.strip_prefix("wm-lint:").map(str::trim_start)
}

/// Parse `wm-lint:` annotation directives out of the comment stream and
/// attach each to the next `fn` declared within [`ANNOTATION_REACH`]
/// lines. Unattached directives land in `dangling`.
fn attach_annotations(out: &mut SourceItems, comments: &[Comment]) {
    for c in comments {
        let Some(rest) = directive_body(c) else {
            continue;
        };
        let Some((kind, body)) = Annotation::parse_directive(rest) else {
            continue; // `allow(...)` and malformed directives are rules.rs's business
        };
        let has_reason = extract_reason(body).is_some_and(|r| !r.trim().is_empty());
        let site = AnnotationSite {
            kind,
            line: c.line,
            has_reason,
        };
        // Attach to the first fn at or below the directive, within reach.
        let target = out
            .fns
            .iter_mut()
            .filter(|f| f.line >= site.line && f.line <= site.line + ANNOTATION_REACH)
            .min_by_key(|f| f.line);
        match target {
            Some(f) => {
                if kind.requires_reason() && !has_reason {
                    out.missing_reason.push(site.clone());
                }
                f.annotations.push(site);
            }
            None => out.dangling.push(site),
        }
    }
}

/// From `(reason = "why")` or `, reason = "why"`, pull out `why`.
pub(crate) fn extract_reason(s: &str) -> Option<&str> {
    let after = s.split_once("reason")?.1.trim_start();
    let after = after.strip_prefix('=')?.trim_start();
    let after = after.strip_prefix('"')?;
    after.split_once('"').map(|(reason, _)| reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> SourceItems {
        let lexed = lex(src);
        parse_items(&lexed.tokens, &lexed.comments)
    }

    fn fn_named<'a>(s: &'a SourceItems, name: &str) -> &'a FnItem {
        s.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn `{name}` in {:?}", s.fns))
    }

    #[test]
    fn free_fn_and_method_are_distinguished() {
        let s = items(
            "pub fn free() { helper(); }\n\
             impl Widget { fn method(&self) -> u8 { self.helper() } }",
        );
        assert_eq!(s.fns.len(), 2);
        assert_eq!(fn_named(&s, "free").self_type, None);
        assert_eq!(fn_named(&s, "method").self_type.as_deref(), Some("Widget"));
    }

    #[test]
    fn trait_impl_names_the_implementing_type() {
        let s = items("impl RecordClassifier for IntervalClassifier { fn classify(&self) {} }");
        assert_eq!(
            fn_named(&s, "classify").self_type.as_deref(),
            Some("IntervalClassifier")
        );
    }

    #[test]
    fn generic_impls_resolve_base_type() {
        let s = items("impl<'a, T: Clone> Holder<'a, T> { fn get(&self) {} }");
        assert_eq!(fn_named(&s, "get").self_type.as_deref(), Some("Holder"));
        let s = items("impl<T> From<T> for Wrapper<T> where T: Copy { fn from(t: T) -> Self {} }");
        assert_eq!(fn_named(&s, "from").self_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn module_paths_are_tracked() {
        let s = items("mod outer { mod inner { fn deep() {} } fn shallow() {} } fn top() {}");
        assert_eq!(fn_named(&s, "deep").module, ["outer", "inner"]);
        assert_eq!(fn_named(&s, "shallow").module, ["outer"]);
        assert!(fn_named(&s, "top").module.is_empty());
    }

    #[test]
    fn bodyless_declarations_are_skipped() {
        let s = items("trait T { fn decl(&self); fn with_default(&self) { self.decl() } }");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "with_default");
        assert_eq!(s.fns[0].self_type.as_deref(), Some("T"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let s = items("fn real(f: fn(u8) -> u8, g: impl Fn(u8)) -> u8 { f(1) }");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "real");
    }

    #[test]
    fn impl_in_return_position_does_not_open_a_scope() {
        let s = items(
            "fn iter() -> impl Iterator<Item = u8> { std::iter::empty() }\n\
             fn after() {}",
        );
        assert_eq!(fn_named(&s, "after").self_type, None);
    }

    #[test]
    fn calls_are_extracted() {
        let s = items(
            "fn f(x: Thing) { helper(1); x.method(2); wm_tls::seal(3); \
             Type::assoc(); x.chain::<Vec<u8>>().collect::<Vec<_>>(); \
             P { a: field_value(), b: Q::new() }; }",
        );
        let calls: Vec<&Call> = s.fns[0].calls.iter().map(|c| &c.call).collect();
        assert!(calls.contains(&&Call::Path(vec!["helper".into()])));
        assert!(calls.contains(&&Call::Method("method".into())));
        assert!(calls.contains(&&Call::Path(vec!["wm_tls".into(), "seal".into()])));
        assert!(calls.contains(&&Call::Path(vec!["Type".into(), "assoc".into()])));
        assert!(calls.contains(&&Call::Method("chain".into())));
        assert!(calls.contains(&&Call::Method("collect".into())));
        // Struct-literal field values are calls too.
        assert!(calls.contains(&&Call::Path(vec!["field_value".into()])));
        assert!(calls.contains(&&Call::Path(vec!["Q".into(), "new".into()])));
    }

    #[test]
    fn type_params_trait_impls_and_values_are_recorded() {
        let s = items(
            "impl<'a, T: Fn() -> u8, const N: usize> Show for W<'a, T> {\n\
             fn fmt<U>(&self) { xs.map(Self::one); run(helper); }\n\
             }\n\
             impl W { fn plain(&self) {} }",
        );
        let fmt = fn_named(&s, "fmt");
        assert!(fmt.trait_impl);
        assert_eq!(fmt.generics, ["T", "U"]);
        assert!(fmt
            .values
            .contains(&vec!["Self".to_string(), "one".to_string()]));
        assert!(fmt.values.contains(&vec!["helper".to_string()]));
        assert!(!fn_named(&s, "plain").trait_impl);
    }

    #[test]
    fn non_calls_are_not_call_sites() {
        let s = items("fn f() { let x = value; let y = Struct { field: 1 }; if cond { } }");
        assert!(
            s.fns[0].calls.is_empty(),
            "unexpected calls: {:?}",
            s.fns[0].calls
        );
    }

    #[test]
    fn use_imports_expand_groups_and_renames() {
        let s = items(
            "use wm_capture::{time::SimTime, find_resync, ContentType as CT};\n\
             use wm_tls::Connection;",
        );
        let find = |alias: &str| {
            s.uses
                .iter()
                .find(|u| u.alias == alias)
                .unwrap_or_else(|| panic!("no alias {alias}: {:?}", s.uses))
        };
        assert_eq!(find("SimTime").path, ["wm_capture", "time", "SimTime"]);
        assert_eq!(find("find_resync").path, ["wm_capture", "find_resync"]);
        assert_eq!(find("CT").path, ["wm_capture", "ContentType"]);
        assert_eq!(find("Connection").path, ["wm_tls", "Connection"]);
    }

    #[test]
    fn annotations_attach_to_next_fn() {
        let s = items(
            "// wm-lint: hotpath\n\
             #[inline]\n\
             pub fn fast() {}\n\
             // wm-lint: alloc-ok(reason = \"amortized setup\")\n\
             fn setup() {}\n\
             fn plain() {}",
        );
        assert!(fn_named(&s, "fast").has_annotation(Annotation::Hotpath));
        assert!(fn_named(&s, "setup").has_annotation(Annotation::AllocOk));
        assert!(!fn_named(&s, "plain").has_annotation(Annotation::Hotpath));
        assert!(s.dangling.is_empty());
        assert!(s.missing_reason.is_empty());
    }

    #[test]
    fn alloc_ok_without_reason_is_flagged() {
        let s = items("// wm-lint: alloc-ok\nfn f() {}");
        assert_eq!(s.missing_reason.len(), 1);
        assert_eq!(s.missing_reason[0].kind, Annotation::AllocOk);
        // Hotpath tightens; no reason needed.
        let s = items("// wm-lint: hotpath\nfn f() {}");
        assert!(s.missing_reason.is_empty());
    }

    #[test]
    fn dangling_annotation_is_reported() {
        let s = items("// wm-lint: hotpath\nconst X: u8 = 1;");
        assert_eq!(s.dangling.len(), 1);
        assert_eq!(s.dangling[0].kind, Annotation::Hotpath);
    }

    #[test]
    fn allow_directives_are_not_annotations() {
        let s = items("// wm-lint: allow(panic/index, reason = \"checked\")\nfn f() {}");
        assert!(s.fns[0].annotations.is_empty());
        assert!(s.dangling.is_empty());
    }

    #[test]
    fn annotation_does_not_reach_past_the_window() {
        let far = "// wm-lint: hotpath\n".to_string() + &"\n".repeat(12) + "fn far() {}";
        let s = items(&far);
        assert!(!fn_named(&s, "far").has_annotation(Annotation::Hotpath));
        assert_eq!(s.dangling.len(), 1);
    }

    #[test]
    fn nested_fns_are_items_too() {
        let s = items("fn outer() { fn inner() { deep_call(); } inner(); }");
        assert_eq!(s.fns.len(), 2);
        // The outer fn's body range covers inner's calls as well — the
        // call graph deduplicates via edges, which is fine for
        // reachability purposes.
        let inner = fn_named(&s, "inner");
        assert!(inner
            .calls
            .iter()
            .any(|c| c.call == Call::Path(vec!["deep_call".into()])));
    }
}
