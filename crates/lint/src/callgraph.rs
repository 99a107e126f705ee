//! Cross-crate call graph over the item view.
//!
//! Nodes are `fn` items from every workspace source file
//! ([`crate::items`]); edges are resolved call sites. Resolution is
//! deliberately an *over-approximation*: a method call `.name(..)`
//! edges to every method of that name visible from the calling crate
//! (its own items plus direct dependencies), because the lexer-level
//! view has no types. For the transitive rule families
//! ([`crate::rules_v2`]) this is the safe direction — reachability may
//! include a function the runtime never visits, but can only miss one
//! through a construct the parser does not model (macros generating
//! calls, function pointers stored in fields), which the token-level
//! v1 rules still cover.

use crate::items::{Annotation, Call, CallSite, FnItem, SourceItems};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One analyzed source file, as handed to the graph builder.
pub struct FileItems {
    /// Package name, e.g. `wm-tls`.
    pub crate_name: String,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    pub items: SourceItems,
}

/// One function node.
pub struct FnNode {
    /// Package name (`wm-tls`).
    pub crate_name: String,
    /// Crate identifier as written in paths (`wm_tls`).
    pub crate_ident: String,
    /// `crate_ident::[Type::]name` — the display/lookup name.
    pub qualified: String,
    pub file: String,
    pub item: FnItem,
    /// Index of the owning [`FileItems`] in the builder's input.
    pub file_index: usize,
}

impl FnNode {
    pub fn has_annotation(&self, kind: Annotation) -> bool {
        self.item.has_annotation(kind)
    }
}

/// The workspace call graph.
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[caller]` is a sorted, deduplicated callee list.
    pub edges: Vec<Vec<usize>>,
}

/// Result of a reachability sweep.
pub struct Reachability {
    /// Reached node ids, in BFS order (roots first).
    pub order: Vec<usize>,
    /// `parent[id]` is the node `id` was reached from (`None` for roots
    /// and unreached nodes).
    parent: Vec<Option<usize>>,
    reached: Vec<bool>,
}

impl Reachability {
    pub fn contains(&self, id: usize) -> bool {
        self.reached[id]
    }

    /// Human-readable call chain `root -> … -> node`, for diagnostics.
    pub fn chain(&self, graph: &CallGraph, id: usize) -> String {
        let mut names = vec![graph.nodes[id].qualified.clone()];
        let mut cur = id;
        while let Some(p) = self.parent[cur] {
            names.push(graph.nodes[p].qualified.clone());
            cur = p;
        }
        names.reverse();
        names.join(" -> ")
    }
}

impl CallGraph {
    /// Build the graph. `deps` maps each crate name to its declared
    /// dependency names (all sections), scoping call resolution.
    pub fn build(files: &[FileItems], deps: &BTreeMap<String, Vec<String>>) -> CallGraph {
        let mut nodes = Vec::new();
        for (file_index, f) in files.iter().enumerate() {
            let crate_ident = f.crate_name.replace('-', "_");
            for item in &f.items.fns {
                let qualified = match &item.self_type {
                    Some(t) => format!("{crate_ident}::{t}::{}", item.name),
                    None => format!("{crate_ident}::{}", item.name),
                };
                nodes.push(FnNode {
                    crate_name: f.crate_name.clone(),
                    crate_ident: crate_ident.clone(),
                    qualified,
                    file: f.rel_path.clone(),
                    item: item.clone(),
                    file_index,
                });
            }
        }

        let index = NameIndex::build(&nodes);
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        for (id, node) in nodes.iter().enumerate() {
            let file = &files[node.file_index];
            let visible = visible_crates(&node.crate_name, deps);
            let mut out = BTreeSet::new();
            for call in &node.item.calls {
                index.resolve(call, node, &file.items, &visible, &mut out);
            }
            out.remove(&id); // self-recursion adds nothing to reachability
            edges.push(out.into_iter().collect());
        }
        CallGraph { nodes, edges }
    }

    /// Node ids whose qualified name is exactly `qualified`.
    pub fn find(&self, qualified: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.qualified == qualified)
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS from `roots`; `barrier` nodes terminate traversal — they are
    /// not entered and not reported as reached (approved boundaries).
    pub fn reach(&self, roots: &[usize], barrier: impl Fn(&FnNode) -> bool) -> Reachability {
        let mut reached = vec![false; self.nodes.len()];
        let mut parent = vec![None; self.nodes.len()];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        for &r in roots {
            if !reached[r] && !barrier(&self.nodes[r]) {
                reached[r] = true;
                queue.push_back(r);
                order.push(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for &next in &self.edges[cur] {
                if reached[next] || barrier(&self.nodes[next]) {
                    continue;
                }
                reached[next] = true;
                parent[next] = Some(cur);
                order.push(next);
                queue.push_back(next);
            }
        }
        Reachability {
            order,
            parent,
            reached,
        }
    }

    /// Total edge count (for summaries).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// `segs` without its leading `crate`/`self`/`super` keywords.
fn strip_keywords(segs: &[String]) -> &[String] {
    let n = segs
        .iter()
        .take_while(|s| matches!(s.as_str(), "crate" | "self" | "super"))
        .count();
    &segs[n..]
}

/// The calling crate plus its direct workspace dependencies.
fn visible_crates(crate_name: &str, deps: &BTreeMap<String, Vec<String>>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    out.insert(crate_name.to_string());
    if let Some(d) = deps.get(crate_name) {
        out.extend(d.iter().cloned());
    }
    out
}

/// Name indexes over the node list. Each entry carries the node's crate
/// name so resolution can scope candidates to the caller's view.
struct NameIndex {
    /// method name -> (crate name, id) of every `impl`/`trait` method
    methods: BTreeMap<String, Vec<(String, usize)>>,
    /// (crate_ident, fn name) -> ids of free fns
    free: BTreeMap<(String, String), Vec<usize>>,
    /// (crate_ident, type name, fn name) -> ids
    typed: BTreeMap<(String, String, String), Vec<usize>>,
    /// crate_name -> crate_ident for every crate with nodes
    idents: BTreeMap<String, String>,
}

impl NameIndex {
    fn build(nodes: &[FnNode]) -> NameIndex {
        let mut ix = NameIndex {
            methods: BTreeMap::new(),
            free: BTreeMap::new(),
            typed: BTreeMap::new(),
            idents: BTreeMap::new(),
        };
        for (id, n) in nodes.iter().enumerate() {
            ix.idents
                .insert(n.crate_name.clone(), n.crate_ident.clone());
            match &n.item.self_type {
                Some(t) => {
                    ix.methods
                        .entry(n.item.name.clone())
                        .or_default()
                        .push((n.crate_name.clone(), id));
                    ix.typed
                        .entry((n.crate_ident.clone(), t.clone(), n.item.name.clone()))
                        .or_default()
                        .push(id);
                }
                None => {
                    ix.free
                        .entry((n.crate_ident.clone(), n.item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        ix
    }

    fn resolve(
        &self,
        call: &CallSite,
        caller: &FnNode,
        file: &SourceItems,
        visible: &BTreeSet<String>,
        out: &mut BTreeSet<usize>,
    ) {
        match &call.call {
            Call::Method(name) => {
                if let Some(entries) = self.methods.get(name) {
                    out.extend(
                        entries
                            .iter()
                            .filter(|(krate, _)| visible.contains(krate))
                            .map(|(_, id)| *id),
                    );
                }
            }
            Call::Path(segs) => self.resolve_path(segs, caller, file, visible, out),
        }
    }

    /// Resolve a path call. Tried in order:
    /// 1. leading `crate`/`self`/`super` keywords strip to the caller's
    ///    own crate;
    /// 2. a `use` alias on the first segment expands to its full path;
    /// 3. a first segment naming a workspace crate ident scopes the
    ///    rest to that crate;
    /// 4. `Self::name` uses the enclosing type;
    /// 5. otherwise the path is local: `name(..)` is a free fn in the
    ///    caller's crate, `Type::name(..)` a typed fn in any visible
    ///    crate (types are imported cross-crate), `module::name(..)` a
    ///    free fn.
    fn resolve_path(
        &self,
        segs: &[String],
        caller: &FnNode,
        file: &SourceItems,
        visible: &BTreeSet<String>,
        out: &mut BTreeSet<usize>,
    ) {
        let segs = strip_keywords(segs);
        let Some(first) = segs.first().cloned() else {
            return;
        };

        // `use` alias expansion (only when it lengthens the path —
        // `use wm_tls::Connection` then `Connection::new` becomes
        // `wm_tls::Connection::new`). Lengths compare after keyword
        // stripping, so `use crate::lz;` leaves `lz::compress` to local
        // resolution, and an expanded path (three or more segments) is
        // never expanded again.
        if segs.len() <= 2 {
            if let Some(u) = file.uses.iter().find(|u| u.alias == first) {
                let expanded: Vec<String> = strip_keywords(&u.path)
                    .iter()
                    .chain(&segs[1..])
                    .cloned()
                    .collect();
                if expanded.len() > segs.len() {
                    self.resolve_path(&expanded, caller, file, visible, out);
                    return;
                }
            }
        }

        // Crate-qualified path.
        if self.idents.values().any(|ident| *ident == first) {
            let crate_ident = first;
            match segs.len() {
                2 => self.add_free(&crate_ident, &segs[1], out),
                n if n >= 3 => {
                    // `krate::Type::name` or `krate::module::name` —
                    // the tail two segments decide.
                    self.add_typed(&crate_ident, &segs[n - 2], &segs[n - 1], out);
                    self.add_free(&crate_ident, &segs[n - 1], out);
                }
                _ => {}
            }
            return;
        }

        if first == "Self" {
            if let (Some(t), Some(name)) = (&caller.item.self_type, segs.get(1)) {
                self.add_typed(&caller.crate_ident, t, name, out);
            }
            return;
        }

        match segs.len() {
            1 => self.add_free(&caller.crate_ident, &segs[0], out),
            _ => {
                let (ty_or_mod, name) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
                // `Type::assoc(..)` — the type may live in any visible
                // crate (imported via `use`), so try them all.
                for krate in visible {
                    if let Some(ident) = self.idents.get(krate) {
                        self.add_typed(&ident.clone(), ty_or_mod, name, out);
                    }
                }
                // `module::free_fn(..)` within the caller's crate.
                self.add_free(&caller.crate_ident, name, out);
            }
        }
    }

    fn add_free(&self, crate_ident: &str, name: &str, out: &mut BTreeSet<usize>) {
        if let Some(ids) = self.free.get(&(crate_ident.to_string(), name.to_string())) {
            out.extend(ids);
        }
    }

    fn add_typed(&self, crate_ident: &str, ty: &str, name: &str, out: &mut BTreeSet<usize>) {
        if let Some(ids) =
            self.typed
                .get(&(crate_ident.to_string(), ty.to_string(), name.to_string()))
        {
            out.extend(ids);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn file(crate_name: &str, rel_path: &str, src: &str) -> FileItems {
        let lexed = lex(src);
        FileItems {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            items: parse_items(&lexed.tokens, &lexed.comments),
        }
    }

    fn deps(pairs: &[(&str, &[&str])]) -> BTreeMap<String, Vec<String>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.iter().map(|s| s.to_string()).collect()))
            .collect()
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let froms = g.find(from);
        let tos = g.find(to);
        froms
            .iter()
            .any(|f| g.edges[*f].iter().any(|t| tos.contains(t)))
    }

    #[test]
    fn free_fn_call_resolves_within_crate() {
        let g = CallGraph::build(
            &[file(
                "wm-a",
                "crates/a/src/lib.rs",
                "fn top() { helper(); } fn helper() {}",
            )],
            &deps(&[]),
        );
        assert!(edge(&g, "wm_a::top", "wm_a::helper"));
    }

    #[test]
    fn crate_qualified_call_crosses_crates() {
        let g = CallGraph::build(
            &[
                file(
                    "wm-a",
                    "crates/a/src/lib.rs",
                    "fn top() { wm_b::entry(1); }",
                ),
                file("wm-b", "crates/b/src/lib.rs", "pub fn entry(x: u8) {}"),
            ],
            &deps(&[("wm-a", &["wm-b"])]),
        );
        assert!(edge(&g, "wm_a::top", "wm_b::entry"));
    }

    #[test]
    fn method_call_resolves_in_visible_crates_only() {
        let srcs = "impl T { fn go(&self) {} }";
        let g = CallGraph::build(
            &[
                file("wm-a", "crates/a/src/lib.rs", "fn top(t: T) { t.go(); }"),
                file("wm-b", "crates/b/src/lib.rs", srcs),
                file("wm-c", "crates/c/src/lib.rs", srcs),
            ],
            &deps(&[("wm-a", &["wm-b"])]),
        );
        assert!(edge(&g, "wm_a::top", "wm_b::T::go"));
        assert!(!edge(&g, "wm_a::top", "wm_c::T::go"));
    }

    #[test]
    fn use_alias_expands_type_paths() {
        let g = CallGraph::build(
            &[
                file(
                    "wm-a",
                    "crates/a/src/lib.rs",
                    "use wm_b::Connection; fn top() { Connection::new(); }",
                ),
                file(
                    "wm-b",
                    "crates/b/src/lib.rs",
                    "impl Connection { pub fn new() -> Self {} }",
                ),
            ],
            &deps(&[("wm-a", &["wm-b"])]),
        );
        assert!(edge(&g, "wm_a::top", "wm_b::Connection::new"));
    }

    #[test]
    fn use_of_an_own_module_resolves_locally() {
        let g = CallGraph::build(
            &[
                file(
                    "wm-a",
                    "crates/a/src/lib.rs",
                    "use crate::m; fn top() { m::f(); }",
                ),
                file("wm-a", "crates/a/src/m.rs", "pub fn f() {}"),
            ],
            &deps(&[]),
        );
        assert!(edge(&g, "wm_a::top", "wm_a::f"));
    }

    #[test]
    fn self_calls_resolve_to_enclosing_type() {
        let g = CallGraph::build(
            &[file(
                "wm-a",
                "crates/a/src/lib.rs",
                "impl W { fn a(&self) { Self::b(); self.c(); } fn b() {} fn c(&self) {} }",
            )],
            &deps(&[]),
        );
        assert!(edge(&g, "wm_a::W::a", "wm_a::W::b"));
        assert!(edge(&g, "wm_a::W::a", "wm_a::W::c"));
    }

    #[test]
    fn reachability_stops_at_barriers() {
        let g = CallGraph::build(
            &[file(
                "wm-a",
                "crates/a/src/lib.rs",
                "fn root() { mid(); }\n\
                 // wm-lint: alloc-ok(reason = \"amortized\")\n\
                 fn mid() { leaf(); }\n\
                 fn leaf() {}",
            )],
            &deps(&[]),
        );
        let roots = g.find("wm_a::root");
        let r = g.reach(&roots, |n| n.has_annotation(Annotation::AllocOk));
        assert!(r.contains(g.find("wm_a::root")[0]));
        assert!(!r.contains(g.find("wm_a::mid")[0]));
        assert!(!r.contains(g.find("wm_a::leaf")[0]));
    }

    #[test]
    fn chain_reports_the_call_path() {
        let g = CallGraph::build(
            &[file(
                "wm-a",
                "crates/a/src/lib.rs",
                "fn root() { mid(); } fn mid() { leaf(); } fn leaf() {}",
            )],
            &deps(&[]),
        );
        let r = g.reach(&g.find("wm_a::root"), |_| false);
        let leaf = g.find("wm_a::leaf")[0];
        assert!(r.contains(leaf));
        assert_eq!(r.chain(&g, leaf), "wm_a::root -> wm_a::mid -> wm_a::leaf");
    }

    #[test]
    fn closure_bodies_attribute_calls_to_enclosing_fn() {
        let g = CallGraph::build(
            &[file(
                "wm-a",
                "crates/a/src/lib.rs",
                "fn top() { run(|i| inner(i)); } fn inner(i: usize) {} fn run(f: impl Fn(usize)) {}",
            )],
            &deps(&[]),
        );
        assert!(edge(&g, "wm_a::top", "wm_a::inner"));
    }
}
