//! The one lint pass over every workspace source, and its call-graph
//! (v2) rule families.
//!
//! [`check_workspace`] lexes each file, strips its `#[cfg(test)]` items
//! and collects its suppressions once. The token rules
//! ([`crate::rules`]) match each file's tokens alone; the families
//! below reason over the cross-crate call graph ([`crate::callgraph`])
//! built from the item view ([`crate::items`]):
//!
//! * **hotpath** — functions annotated `// wm-lint: hotpath` are roots
//!   of the per-record hot loops PR 6 made allocation-free. Nothing
//!   transitively reachable from a root may call an allocation verb
//!   (`Vec::new`, `.to_vec()`, `.clone()`, `.collect()`, `format!`,
//!   `vec!`, …) unless the allocating function is itself annotated
//!   `// wm-lint: alloc-ok(reason = "...")` — the allowlist of
//!   recycled-buffer/amortized-setup APIs — or the call site carries an
//!   `allow(hotpath/alloc, reason = "...")` suppression.
//! * **concurrency** — `static mut` is banned workspace-wide; the
//!   `wm-pool` steal loops must stay lock-free (no `Mutex`/`RwLock`/
//!   `Condvar`/`Barrier`/`mpsc` outside tests); and each crate has an
//!   explicit `unsafe` budget (default zero — the workspace is
//!   currently `unsafe`-free and should stay that way unless a budget
//!   is granted here).
//! * **defense/length-taint** — functions annotated
//!   `// wm-lint: response-path` are roots of victim response
//!   construction. In `wm-defense`/`wm-netflix`, any reachable
//!   plaintext-length read (`.len()`, `.serialized_len()`) used as a
//!   value is flagged unless it sits behind a function annotated
//!   `// wm-lint: quantizer(reason = "...")` — the approved pad/bucket
//!   quantizers. This is the static side of the paper's core leak:
//!   secret-dependent plaintext lengths must not flow to the wire
//!   unquantized.
//!
//! * **panic** — functions annotated `// wm-lint: parse-root` take
//!   attacker- or disk-supplied bytes: captured frames, pcap files,
//!   checkpoint blobs, IPC frames, JSON. Every file that holds a
//!   function reachable from a parse root is in scope, and there
//!   `unwrap`/`expect`, panicking macros and unchecked indexing are
//!   flagged. Scoping by file rather than by reached function keeps a
//!   parser's siblings (the serializer beside it, a helper the
//!   name-based resolution misses) under the same rule.
//!
//! Root sets are pinned in [`V2Config`] so deleting an annotation (or
//! renaming a root) surfaces as a `*/missing-root` finding instead of
//! silently disabling a family.

use crate::callgraph::{CallGraph, FileItems, Reachability};
use crate::items::{parse_items, Annotation, Call};
use crate::lexer::{lex, Tok, Token};
use crate::rules::{
    ident, is_punct, parse_suppressions, strip_test_items, token_rules, Finding, MISSING_REASON,
};
use std::collections::{BTreeMap, BTreeSet};

pub const HOTPATH_ALLOC: &str = "hotpath/alloc";
pub const HOTPATH_MISSING_ROOT: &str = "hotpath/missing-root";
pub const CONC_STATIC_MUT: &str = "concurrency/static-mut";
pub const CONC_POOL_LOCK: &str = "concurrency/pool-lock";
pub const CONC_UNSAFE_BUDGET: &str = "concurrency/unsafe-budget";
pub const LENGTH_TAINT: &str = "defense/length-taint";
pub const TAINT_MISSING_ROOT: &str = "defense/missing-root";
pub const ANNOTATION_DANGLING: &str = "annotation/dangling";
pub const PANIC_UNWRAP: &str = "panic/unwrap";
pub const PANIC_MACRO: &str = "panic/macro";
pub const PANIC_INDEX: &str = "panic/index";
pub const PANIC_MISSING_ROOT: &str = "panic/missing-root";

/// One workspace source file handed to the v2 pass.
pub struct WorkspaceFile {
    /// Package name, e.g. `wm-tls`.
    pub crate_name: String,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    pub src: String,
}

/// Pinned root sets and budgets. [`V2Config::default`] is the real
/// workspace policy; tests substitute fixture-sized configs.
pub struct V2Config {
    /// Qualified names (`crate_ident::[Type::]fn`) that must exist and
    /// carry `// wm-lint: hotpath`.
    pub expected_hotpath_roots: &'static [&'static str],
    /// Qualified names that must exist and carry
    /// `// wm-lint: response-path`.
    pub expected_response_roots: &'static [&'static str],
    /// Qualified names that must exist and carry
    /// `// wm-lint: parse-root`.
    pub expected_parse_roots: &'static [&'static str],
    /// Per-crate `unsafe` allowance; crates not listed get zero.
    pub unsafe_budget: &'static [(&'static str, usize)],
}

/// The per-record hot loops the throughput engine (PR 6) depends on:
/// the sim's reused-buffer record drain, TLS sealing/framing into
/// caller buffers, online ingest, and the LUT length classifier; and
/// the victim's per-segment and per-message data path: TCP segment
/// arrival and HTTP framing; and the fleet's per-packet routing: the
/// ring's victim lookup and the shard's resident-table search.
/// The per-session drivers above them (dataset runner, session setup)
/// are deliberately *not* roots: they allocate once per session, and
/// annotating them would drown the per-record envelope in noise.
pub const EXPECTED_HOTPATH_ROOTS: &[&str] = &[
    "wm_sim::drain_records_reused",
    "wm_tls::RecordEngine::seal_payload_into",
    "wm_tls::RecordEngine::next_record_into",
    "wm_core::FlowIngest::accept_segment",
    "wm_core::IntervalClassifier::classify_lengths",
    "wm_net::TcpEndpoint::on_segment",
    "wm_http::Accumulator::feed",
    "wm_fleet::HashRing::victim_shard",
    "wm_fleet::ShardState::resident",
];

/// Victim-side response construction: every wire length the attacker
/// observes is decided under one of these.
pub const EXPECTED_RESPONSE_ROOTS: &[&str] = &[
    "wm_defense::Defense::encode",
    "wm_netflix::NetflixServer::handle",
];

/// Every function that takes attacker- or disk-supplied bytes: the
/// frame parsers and pcap readers the capture and the streaming decoder
/// run on every packet, the drivers that feed captured packets to the
/// decoder, the checkpoint codec, the process-shard IPC codec, JSON and
/// the HTTP parsers, and the operator tools' document readers.
pub const EXPECTED_PARSE_ROOTS: &[&str] = &[
    "wm_net::parse_frame",
    "wm_net::parse_frame_lossy",
    "wm_capture::Trace::read_pcap_file",
    "wm_core::FlowIngest::accept_segment",
    "wm_core::OnlineDecoder::push_packet",
    "wm_core::OnlineDecoder::resume_from_checkpoint",
    "wm_core::Blob::parse",
    "wm_core::Blob::parse_prefix",
    "wm_core::read_graph",
    "wm_core::split_records",
    "wm_core::restore_record",
    "wm_core::replay_session",
    "wm_core::decode_sessions_sharded",
    "wm_core::WhiteMirror::decode_trace",
    "wm_core::WhiteMirror::load_model",
    "wm_fleet::decode_frame",
    "wm_fleet::Request::parse",
    "wm_fleet::Reply::parse",
    "wm_fleet::parse_envelope",
    "wm_fleet::one_record",
    "wm_json::parse",
    "wm_obs::BenchDoc::parse",
    "wm_obs::collapse_jsonl",
    "wm_http::RequestParser::feed",
    "wm_http::ResponseParser::feed",
];

impl Default for V2Config {
    fn default() -> Self {
        V2Config {
            expected_hotpath_roots: EXPECTED_HOTPATH_ROOTS,
            expected_response_roots: EXPECTED_RESPONSE_ROOTS,
            expected_parse_roots: EXPECTED_PARSE_ROOTS,
            unsafe_budget: &[],
        }
    }
}

/// Crates whose reachable response paths are subject to the
/// length-taint rule. Attacker-side crates *measure* lengths by
/// design; only victim response construction must quantize them.
const TAINT_CRATES: &[&str] = &["wm-defense", "wm-netflix"];

/// `Type::verb(..)` constructor calls that allocate.
const ALLOC_TYPES: &[&str] = &["Vec", "String", "VecDeque", "Box", "BTreeMap", "BTreeSet"];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "default"];

/// `.verb(..)` method calls that allocate their result.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "collect",
    "concat",
    "join",
    "repeat",
    "into_owned",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Lock/channel vocabulary forbidden in `wm-pool` shipping code.
const POOL_LOCK_IDENTS: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

/// Headline numbers from the v2 pass (surfaced by `wm-lint --deny` and
/// asserted by the root gate test so the families cannot silently
/// deactivate).
#[derive(Debug, Default, Clone)]
pub struct V2Summary {
    /// Annotated hot-path roots found.
    pub hotpath_roots: usize,
    /// Functions reachable from those roots (allocation-checked).
    pub hotpath_reachable: usize,
    /// Annotated response-path roots found.
    pub response_roots: usize,
    /// Functions reachable from those roots (taint-checked).
    pub taint_reachable: usize,
    /// Annotated parse roots found.
    pub parse_roots: usize,
    /// Functions in the files the panic family covers: every file
    /// holding a function reachable from a parse root.
    pub panic_scope_fns: usize,
    /// Call-graph size.
    pub graph_fns: usize,
    pub graph_edges: usize,
    /// Total `unsafe` occurrences in shipping code.
    pub unsafe_uses: usize,
    /// Qualified names of the functions no production root reaches
    /// ([`CallGraph::unreached`]), in graph order.
    pub unreached: Vec<String>,
}

/// The one lint pass. Each file is lexed, stripped of `#[cfg(test)]`
/// items and parsed for suppressions once; its tokens go through the
/// token rules ([`crate::rules`]) and the item parser, and then the
/// call-graph families run over every file. One suppression filter
/// ends the pass. `deps` maps crate name to declared dependency names
/// (scoping call resolution; dev-deps should be excluded since test
/// items are stripped). `named` holds the identifiers production code
/// outside `files` uses (binaries, examples, the benchmark); the
/// functions they name count as reached.
pub fn check_workspace(
    files: &[WorkspaceFile],
    deps: &BTreeMap<String, Vec<String>>,
    named: &BTreeSet<String>,
    config: &V2Config,
) -> (Vec<Finding>, V2Summary) {
    let mut findings = Vec::new();
    let mut summary = V2Summary::default();

    let mut tokens = Vec::with_capacity(files.len());
    let mut file_items = Vec::with_capacity(files.len());
    let mut suppressions = BTreeMap::new();
    for f in files {
        let lexed = lex(&f.src);
        let file_tokens = strip_test_items(&lexed.tokens);
        token_rules(&f.crate_name, &f.rel_path, &file_tokens, &mut findings);
        suppressions.insert(
            f.rel_path.as_str(),
            parse_suppressions(&lexed.comments, &f.rel_path, &mut findings),
        );
        let items = parse_items(&file_tokens, &lexed.comments);
        for site in &items.dangling {
            findings.push(Finding {
                rule: ANNOTATION_DANGLING,
                file: f.rel_path.clone(),
                line: site.line,
                message: format!(
                    "`wm-lint: {}` does not attach to any fn (nearest fn is more than a few \
                     lines away); a dangling annotation enforces nothing",
                    site.kind.keyword()
                ),
            });
        }
        for site in &items.missing_reason {
            findings.push(Finding {
                rule: MISSING_REASON,
                file: f.rel_path.clone(),
                line: site.line,
                message: format!(
                    "`wm-lint: {}` exempts a function from transitive checking and must say \
                     why: `{}(reason = \"...\")`",
                    site.kind.keyword(),
                    site.kind.keyword()
                ),
            });
        }
        file_items.push(FileItems {
            crate_name: f.crate_name.clone(),
            rel_path: f.rel_path.clone(),
            items,
        });
        tokens.push(file_tokens);
    }

    let graph = CallGraph::build(&file_items, deps);
    summary.graph_fns = graph.nodes.len();
    summary.graph_edges = graph.edge_count();
    summary.unreached = graph
        .unreached(named)
        .into_iter()
        .map(|id| graph.nodes[id].qualified.clone())
        .collect();

    hotpath_family(&graph, &tokens, config, &mut findings, &mut summary);
    concurrency_family(files, &tokens, config, &mut findings, &mut summary);
    taint_family(&graph, &tokens, config, &mut findings, &mut summary);
    panic_family(&graph, files, &tokens, config, &mut findings, &mut summary);

    // Inline suppressions: same line or the line above, matching rule
    // or family prefix, reason mandatory. A missing reason is never
    // suppressible.
    findings.retain(|f| {
        f.rule == MISSING_REASON
            || !suppressions
                .get(f.file.as_str())
                .is_some_and(|sups| sups.iter().any(|s| s.silences(f)))
    });

    (findings, summary)
}

// ---------------------------------------------------------------------
// hotpath/*
// ---------------------------------------------------------------------

fn hotpath_family(
    graph: &CallGraph,
    tokens: &[Vec<Token>],
    config: &V2Config,
    findings: &mut Vec<Finding>,
    summary: &mut V2Summary,
) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| graph.nodes[i].has_annotation(Annotation::Hotpath))
        .collect();
    summary.hotpath_roots = roots.len();

    check_expected_roots(
        graph,
        config.expected_hotpath_roots,
        Annotation::Hotpath,
        HOTPATH_MISSING_ROOT,
        "hotpath",
        findings,
    );

    let reach = graph.reach(&roots, |n| {
        n.has_annotation(Annotation::AllocOk) || n.has_annotation(Annotation::Quantizer)
    });
    summary.hotpath_reachable = reach.order.len();

    for &id in &reach.order {
        let node = &graph.nodes[id];
        let tokens = &tokens[node.file_index];

        // Allocating constructor paths and method verbs, from the
        // resolved call-site list (reasons about `Type::new` even when
        // the type is std and has no node in the graph).
        for site in &node.item.calls {
            let verb = match &site.call {
                Call::Path(segs) if segs.len() >= 2 => {
                    let (ty, name) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
                    (ALLOC_TYPES.contains(&ty.as_str()) && ALLOC_CTORS.contains(&name.as_str()))
                        .then(|| format!("{ty}::{name}"))
                }
                Call::Method(name) => ALLOC_METHODS
                    .contains(&name.as_str())
                    .then(|| format!(".{name}()")),
                _ => None,
            };
            if let Some(verb) = verb {
                findings.push(alloc_finding(graph, &reach, id, site.line, &verb));
            }
        }

        // Allocating macros (`format!`, `vec!`) — not call syntax, so
        // scanned at token level within the body.
        let body = node.item.body.clone();
        for i in body.clone() {
            if let Tok::Ident(name) = &tokens[i].tok {
                if ALLOC_MACROS.contains(&name.as_str())
                    && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
                {
                    findings.push(alloc_finding(
                        graph,
                        &reach,
                        id,
                        tokens[i].line,
                        &format!("{name}!"),
                    ));
                }
            }
        }
    }
}

fn alloc_finding(
    graph: &CallGraph,
    reach: &Reachability,
    node: usize,
    line: u32,
    verb: &str,
) -> Finding {
    let n = &graph.nodes[node];
    Finding {
        rule: HOTPATH_ALLOC,
        file: n.file.clone(),
        line,
        message: format!(
            "`{verb}` allocates on a hot path ({}); recycle a caller-provided buffer, move \
             the allocation behind an `alloc-ok(reason = ...)` API, or suppress with a reason",
            reach.chain(graph, node)
        ),
    }
}

fn check_expected_roots(
    graph: &CallGraph,
    expected: &[&str],
    annotation: Annotation,
    rule: &'static str,
    keyword: &str,
    findings: &mut Vec<Finding>,
) {
    for name in expected {
        let ids = graph.find(name);
        if ids.is_empty() {
            findings.push(Finding {
                rule,
                file: "crates/lint/src/rules_v2.rs".to_string(),
                line: 0,
                message: format!(
                    "expected root `{name}` does not exist in the workspace; if it was renamed, \
                     update the pinned root list so the family keeps covering it"
                ),
            });
            continue;
        }
        if !ids
            .iter()
            .any(|&id| graph.nodes[id].has_annotation(annotation))
        {
            let n = &graph.nodes[ids[0]];
            findings.push(Finding {
                rule,
                file: n.file.clone(),
                line: n.item.line,
                message: format!(
                    "`{name}` is a pinned root and must carry `// wm-lint: {keyword}`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// concurrency/*
// ---------------------------------------------------------------------

fn concurrency_family(
    files: &[WorkspaceFile],
    tokens: &[Vec<Token>],
    config: &V2Config,
    findings: &mut Vec<Finding>,
    summary: &mut V2Summary,
) {
    // Per-crate unsafe occurrences: (file, line) sites.
    let mut unsafe_sites: BTreeMap<&str, Vec<(&str, u32)>> = BTreeMap::new();

    for (f, file_tokens) in files.iter().zip(tokens) {
        let in_pool = f.rel_path.starts_with("crates/pool/src/");
        for (i, t) in file_tokens.iter().enumerate() {
            let Tok::Ident(name) = &t.tok else { continue };
            match name.as_str() {
                "static"
                    if matches!(
                        file_tokens.get(i + 1).map(|t| &t.tok),
                        Some(Tok::Ident(next)) if next == "mut"
                    ) =>
                {
                    findings.push(Finding {
                        rule: CONC_STATIC_MUT,
                        file: f.rel_path.clone(),
                        line: t.line,
                        message: "`static mut` is unsynchronized shared mutable state; use an \
                                  atomic, a lock outside wm-pool, or thread the state through \
                                  explicit ownership"
                            .to_string(),
                    });
                }
                "unsafe" => {
                    unsafe_sites
                        .entry(f.crate_name.as_str())
                        .or_default()
                        .push((f.rel_path.as_str(), t.line));
                }
                _ if in_pool && POOL_LOCK_IDENTS.contains(&name.as_str()) => {
                    findings.push(Finding {
                        rule: CONC_POOL_LOCK,
                        file: f.rel_path.clone(),
                        line: t.line,
                        message: format!(
                            "`{name}` in wm-pool shipping code: the steal loop is lock-free by \
                             design (AtomicUsize dispatch + index-ordered merge); blocking \
                             primitives reintroduce the convoy the pool exists to avoid"
                        ),
                    });
                }
                _ => {}
            }
        }
    }

    for (crate_name, sites) in &unsafe_sites {
        summary.unsafe_uses += sites.len();
        let budget = config
            .unsafe_budget
            .iter()
            .find(|(c, _)| c == crate_name)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        if sites.len() > budget {
            for (file, line) in sites {
                findings.push(Finding {
                    rule: CONC_UNSAFE_BUDGET,
                    file: (*file).to_string(),
                    line: *line,
                    message: format!(
                        "`unsafe` in `{crate_name}` ({} use{}, budget {budget}); the workspace \
                         is std-only safe Rust — raise the per-crate budget in wm-lint's \
                         V2Config only with a reviewed justification",
                        sites.len(),
                        if sites.len() == 1 { "" } else { "s" },
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// defense/length-taint
// ---------------------------------------------------------------------

/// Length-read verbs whose *value use* on a response path is a leak.
const LENGTH_VERBS: &[&str] = &["len", "serialized_len"];

fn taint_family(
    graph: &CallGraph,
    tokens: &[Vec<Token>],
    config: &V2Config,
    findings: &mut Vec<Finding>,
    summary: &mut V2Summary,
) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| graph.nodes[i].has_annotation(Annotation::ResponsePath))
        .collect();
    summary.response_roots = roots.len();

    check_expected_roots(
        graph,
        config.expected_response_roots,
        Annotation::ResponsePath,
        TAINT_MISSING_ROOT,
        "response-path",
        findings,
    );

    let reach = graph.reach(&roots, |n| n.has_annotation(Annotation::Quantizer));
    summary.taint_reachable = reach.order.len();

    for &id in &reach.order {
        let node = &graph.nodes[id];
        if !TAINT_CRATES.contains(&node.crate_name.as_str()) {
            continue;
        }
        let tokens = &tokens[node.file_index];
        let body = node.item.body.clone();
        for i in body.clone() {
            let Tok::Ident(name) = &tokens[i].tok else {
                continue;
            };
            if !LENGTH_VERBS.contains(&name.as_str()) {
                continue;
            }
            // `.len()` / `.serialized_len()` with an empty arg list.
            let is_len_call = i > 0
                && matches!(tokens[i - 1].tok, Tok::Punct('.'))
                && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                && matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(')')));
            if !is_len_call {
                continue;
            }
            // Comparison/scrutinee contexts do not put the length on
            // the wire: `a.len() >= n`, `a.len() == n`, `a.len() != n`,
            // `a.len() < n`, and `for _ in 0..a.len() {`.
            if matches!(
                tokens.get(i + 3).map(|t| &t.tok),
                Some(Tok::Punct('<' | '>' | '=' | '!' | '{'))
            ) {
                continue;
            }
            findings.push(Finding {
                rule: LENGTH_TAINT,
                file: node.file.clone(),
                line: tokens[i].line,
                message: format!(
                    "plaintext length `.{name}()` used as a value on a response path ({}); \
                     wire lengths must flow through a `// wm-lint: quantizer` API (pad/bucket) \
                     or be suppressed with a reason explaining why this use cannot reach the \
                     wire",
                    reach.chain(graph, id)
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// panic/*
// ---------------------------------------------------------------------

fn panic_family(
    graph: &CallGraph,
    files: &[WorkspaceFile],
    tokens: &[Vec<Token>],
    config: &V2Config,
    findings: &mut Vec<Finding>,
    summary: &mut V2Summary,
) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| graph.nodes[i].has_annotation(Annotation::ParseRoot))
        .collect();
    summary.parse_roots = roots.len();

    check_expected_roots(
        graph,
        config.expected_parse_roots,
        Annotation::ParseRoot,
        PANIC_MISSING_ROOT,
        "parse-root",
        findings,
    );

    let reach = graph.reach(&roots, |_| false);
    let mut in_scope = vec![false; tokens.len()];
    for &id in &reach.order {
        in_scope[graph.nodes[id].file_index] = true;
    }
    summary.panic_scope_fns = graph
        .nodes
        .iter()
        .filter(|n| in_scope[n.file_index])
        .count();

    for (file_index, (f, file_tokens)) in files.iter().zip(tokens).enumerate() {
        if !in_scope[file_index] {
            continue;
        }
        let file_fns: Vec<usize> = (0..graph.nodes.len())
            .filter(|&id| graph.nodes[id].file_index == file_index)
            .collect();
        let shared = file_fns
            .iter()
            .find(|&&id| reach.contains(id))
            .map_or("", |&id| graph.nodes[id].qualified.as_str());
        for i in 0..file_tokens.len() {
            let Some((rule, what)) = panic_site(file_tokens, i) else {
                continue;
            };
            // Name the innermost fn around the site: its call chain
            // when a root reaches it, else the reached code it shares
            // a file with.
            let enclosing = file_fns
                .iter()
                .copied()
                .filter(|&id| graph.nodes[id].item.body.contains(&i))
                .min_by_key(|&id| graph.nodes[id].item.body.len());
            let scope = match enclosing {
                Some(id) if reach.contains(id) => format!("reached: {}", reach.chain(graph, id)),
                _ => format!("in a file with parse-reachable `{shared}`"),
            };
            findings.push(Finding {
                rule,
                file: f.rel_path.clone(),
                line: file_tokens[i].line,
                message: format!("{what} ({scope})"),
            });
        }
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// Does `tokens[i]` start a panic site? Returns its rule and what is
/// wrong with it.
fn panic_site(tokens: &[Token], i: usize) -> Option<(&'static str, String)> {
    let t = &tokens[i];
    if let Some(name) = ident(t) {
        // `.unwrap()` / `.expect("…")` method calls, and
        // `Result::unwrap` style paths passed as functions — both panic
        // on Err. Bare identifiers named `unwrap` (e.g. a local) are
        // left alone.
        if matches!(name, "unwrap" | "expect")
            && i > 0
            && (is_punct(tokens.get(i - 1), '.') || is_punct(tokens.get(i - 1), ':'))
        {
            return Some((
                PANIC_UNWRAP,
                format!(
                    "`.{name}()` panics on malformed input; code that parses outside bytes must \
                     propagate a typed error instead"
                ),
            ));
        }
        if matches!(
            name,
            "panic"
                | "unreachable"
                | "todo"
                | "unimplemented"
                | "assert"
                | "assert_eq"
                | "assert_ne"
        ) && is_punct(tokens.get(i + 1), '!')
        {
            return Some((
                PANIC_MACRO,
                format!(
                    "`{name}!` aborts on adversarial input; return an error (debug_assert! is \
                     permitted for internal invariants)"
                ),
            ));
        }
        return None;
    }
    // `expr[...]` indexing: the `[` directly follows a value — an
    // identifier (not a keyword), a call/paren close, or a prior index
    // close. Attributes (`#[`), macros (`vec![`), slice patterns and
    // array literals/types all follow other tokens.
    if !matches!(t.tok, Tok::Punct('[')) || i == 0 {
        return None;
    }
    let indexing = match &tokens[i - 1].tok {
        Tok::Ident(name) => !KEYWORDS.contains(&name.as_str()),
        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
        _ => false,
    };
    indexing.then(|| {
        (
            PANIC_INDEX,
            "unchecked indexing panics out of bounds; use `.get(..)` and handle `None`".to_string(),
        )
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn wf(crate_name: &str, rel_path: &str, src: &str) -> WorkspaceFile {
        WorkspaceFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            src: src.to_string(),
        }
    }

    const EMPTY_CONFIG: V2Config = V2Config {
        expected_hotpath_roots: &[],
        expected_response_roots: &[],
        expected_parse_roots: &[],
        unsafe_budget: &[],
    };

    pub(crate) fn run(files: &[WorkspaceFile]) -> (Vec<Finding>, V2Summary) {
        run_with(files, &EMPTY_CONFIG)
    }

    fn run_with(files: &[WorkspaceFile], config: &V2Config) -> (Vec<Finding>, V2Summary) {
        let deps: BTreeMap<String, Vec<String>> = files
            .iter()
            .map(|f| {
                (
                    f.crate_name.clone(),
                    files.iter().map(|g| g.crate_name.clone()).collect(),
                )
            })
            .collect();
        check_workspace(files, &deps, &BTreeSet::new(), config)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // -- hotpath ------------------------------------------------------

    #[test]
    fn transitive_allocation_under_hot_root_fires() {
        // The deliberate no-alloc regression fixture: the root is
        // clean, the leak is two hops down and in another crate.
        let (f, s) = run(&[
            wf(
                "wm-a",
                "crates/a/src/lib.rs",
                "// wm-lint: hotpath\n\
                 pub fn drive(buf: &mut [u8]) { step(buf); }\n\
                 fn step(buf: &mut [u8]) { wm_b::frame(buf); }",
            ),
            wf(
                "wm-b",
                "crates/b/src/lib.rs",
                "pub fn frame(buf: &mut [u8]) { let copy = buf.to_vec(); }",
            ),
        ]);
        assert_eq!(rules_of(&f), [HOTPATH_ALLOC], "{f:?}");
        assert!(f[0].file.contains("crates/b"), "{f:?}");
        assert!(f[0]
            .message
            .contains("wm_a::drive -> wm_a::step -> wm_b::frame"));
        assert_eq!(s.hotpath_roots, 1);
        assert_eq!(s.hotpath_reachable, 3);
    }

    #[test]
    fn alloc_verbs_fire_individually() {
        for (snippet, verb) in [
            ("let v = Vec::new();", "Vec::new"),
            ("let v = Vec::with_capacity(8);", "Vec::with_capacity"),
            ("let s = x.to_vec();", ".to_vec()"),
            ("let s = x.clone();", ".clone()"),
            ("let s: Vec<u8> = it.collect();", ".collect()"),
            ("let s = format!(\"x{}\", 1);", "format!"),
            ("let s = vec![0u8; 4];", "vec!"),
        ] {
            let src = format!("// wm-lint: hotpath\npub fn root(x: &[u8]) {{ {snippet} }}");
            let (f, _) = run(&[wf("wm-a", "crates/a/src/lib.rs", &src)]);
            assert!(
                f.iter()
                    .any(|f| f.rule == HOTPATH_ALLOC && f.message.contains(verb)),
                "expected {verb} to fire for `{snippet}`: {f:?}"
            );
        }
    }

    #[test]
    fn alloc_ok_is_a_barrier() {
        let (f, s) = run(&[wf(
            "wm-a",
            "crates/a/src/lib.rs",
            "// wm-lint: hotpath\n\
             pub fn drive() { setup(); }\n\
             // wm-lint: alloc-ok(reason = \"amortized once per session\")\n\
             fn setup() { let v = Vec::new(); deeper(); }\n\
             fn deeper() { let w = vec![1]; }",
        )]);
        assert!(rules_of(&f).is_empty(), "{f:?}");
        // Neither the barrier nor anything behind it is scanned.
        assert_eq!(s.hotpath_reachable, 1);
    }

    #[test]
    fn suppression_with_reason_silences_one_site() {
        let (f, _) = run(&[wf(
            "wm-a",
            "crates/a/src/lib.rs",
            "// wm-lint: hotpath\n\
             pub fn drive(g: &Arc<G>) {\n\
                 let bad = g.to_vec();\n\
                 let h = g.clone(); // wm-lint: allow(hotpath/alloc, reason = \"Arc refcount bump\")\n\
             }",
        )]);
        assert_eq!(rules_of(&f), [HOTPATH_ALLOC], "{f:?}");
        assert!(f[0].message.contains(".to_vec()"));
    }

    #[test]
    fn unannotated_code_may_allocate_freely() {
        let (f, s) = run(&[wf(
            "wm-a",
            "crates/a/src/lib.rs",
            "pub fn cold() { let v: Vec<u8> = (0..9).collect(); }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.hotpath_roots, 0);
        assert_eq!(s.hotpath_reachable, 0);
    }

    #[test]
    fn missing_expected_hotpath_root_fires() {
        const CFG: V2Config = V2Config {
            expected_hotpath_roots: &["wm_a::drive", "wm_a::gone"],
            expected_response_roots: &[],
            expected_parse_roots: &[],
            unsafe_budget: &[],
        };
        // `drive` exists but is unannotated; `gone` does not exist.
        let (f, _) = run_with(
            &[wf("wm-a", "crates/a/src/lib.rs", "pub fn drive() {}")],
            &CFG,
        );
        assert_eq!(
            rules_of(&f),
            [HOTPATH_MISSING_ROOT, HOTPATH_MISSING_ROOT],
            "{f:?}"
        );
        assert!(f.iter().any(|x| x.message.contains("must carry")));
        assert!(f.iter().any(|x| x.message.contains("does not exist")));
    }

    // -- concurrency --------------------------------------------------

    #[test]
    fn static_mut_in_a_pool_path_fires() {
        // The deliberate shared-state regression fixture.
        let (f, _) = run(&[wf(
            "wm-pool",
            "crates/pool/src/lib.rs",
            "static mut NEXT_TASK: usize = 0;\n\
             pub fn steal() -> usize { 0 }",
        )]);
        assert_eq!(rules_of(&f), [CONC_STATIC_MUT], "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn static_immutable_is_fine() {
        let (f, _) = run(&[wf(
            "wm-pool",
            "crates/pool/src/lib.rs",
            "static LIMIT: usize = 64; pub fn cap() -> usize { LIMIT }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn locks_in_pool_shipping_code_fire() {
        for ident in ["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"] {
            let src = format!("use std::sync::{ident}; pub fn f() {{}}");
            let (f, _) = run(&[wf("wm-pool", "crates/pool/src/lib.rs", &src)]);
            assert_eq!(rules_of(&f), [CONC_POOL_LOCK], "{ident}: {f:?}");
        }
    }

    #[test]
    fn locks_in_pool_tests_and_other_crates_are_fine() {
        // cfg(test) items are stripped before the scan.
        let (f, _) = run(&[wf(
            "wm-pool",
            "crates/pool/src/lib.rs",
            "#[cfg(test)] mod tests { use std::sync::Mutex; }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        let (f, _) = run(&[wf(
            "wm-sim",
            "crates/sim/src/lib.rs",
            "use std::sync::Mutex;",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_over_budget_fires_and_budget_exempts() {
        let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let (f, s) = run(&[wf("wm-a", "crates/a/src/lib.rs", src)]);
        assert_eq!(rules_of(&f), [CONC_UNSAFE_BUDGET], "{f:?}");
        assert_eq!(s.unsafe_uses, 1);

        const CFG: V2Config = V2Config {
            expected_hotpath_roots: &[],
            expected_response_roots: &[],
            expected_parse_roots: &[],
            unsafe_budget: &[("wm-a", 1)],
        };
        let (f, s) = run_with(&[wf("wm-a", "crates/a/src/lib.rs", src)], &CFG);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.unsafe_uses, 1);
    }

    // -- defense/length-taint -----------------------------------------

    #[test]
    fn unquantized_length_flow_in_defense_fires() {
        // The deliberate leak fixture: a response path writes the
        // plaintext length into the frame header unquantized.
        let (f, s) = run(&[wf(
            "wm-defense",
            "crates/defense/src/transform.rs",
            "// wm-lint: response-path\n\
             pub fn encode(body: &[u8], out: &mut Vec<u8>) {\n\
                 emit_header(body.len(), out);\n\
             }\n\
             fn emit_header(n: usize, out: &mut Vec<u8>) {}",
        )]);
        assert_eq!(rules_of(&f), [LENGTH_TAINT], "{f:?}");
        assert!(f[0].message.contains("wm_defense::encode"));
        assert_eq!(s.response_roots, 1);
    }

    #[test]
    fn quantizer_is_a_barrier() {
        let (f, _) = run(&[wf(
            "wm-defense",
            "crates/defense/src/transform.rs",
            "// wm-lint: response-path\n\
             pub fn encode(body: &[u8]) -> usize { pad(body) }\n\
             // wm-lint: quantizer(reason = \"rounds up to the bucket boundary\")\n\
             fn pad(body: &[u8]) -> usize { (body.len() / 64 + 1) * 64 }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn comparisons_and_loop_bounds_are_not_taint() {
        let (f, _) = run(&[wf(
            "wm-defense",
            "crates/defense/src/transform.rs",
            "// wm-lint: response-path\n\
             pub fn encode(body: &[u8]) {\n\
                 if body.len() >= 4 { }\n\
                 if body.len() == 0 { }\n\
                 while body.len() < 9 { }\n\
                 for i in 0..body.len() { }\n\
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn length_reads_outside_taint_crates_are_fine() {
        // Attacker-side code *measures* lengths by design.
        let (f, _) = run(&[wf(
            "wm-core",
            "crates/core/src/decode.rs",
            "// wm-lint: response-path\n\
             pub fn observe(rec: &[u8]) -> usize { rec.len() }",
        )]);
        assert!(f.iter().all(|x| x.rule != LENGTH_TAINT), "{f:?}");
    }

    #[test]
    fn serialized_len_is_a_length_verb() {
        let (f, _) = run(&[wf(
            "wm-netflix",
            "crates/netflix/src/server.rs",
            "// wm-lint: response-path\n\
             pub fn handle(doc: &Doc) -> u64 { doc.serialized_len() as u64 }",
        )]);
        assert_eq!(rules_of(&f), [LENGTH_TAINT], "{f:?}");
    }

    // -- panic --------------------------------------------------------

    /// Panic findings for `body` placed inside a parse root.
    fn rooted(body: &str) -> Vec<Finding> {
        let src = format!("// wm-lint: parse-root\npub fn root(b: &[u8]) {{\n{body}\n}}");
        let (f, _) = run(&[wf("wm-a", "crates/a/src/lib.rs", &src)]);
        f.into_iter()
            .filter(|f| f.rule.starts_with("panic/"))
            .collect()
    }

    #[test]
    fn unwrap_and_expect_fire_under_a_parse_root() {
        for src in [
            "let v = parse(b).unwrap();",
            "let v = parse(b).expect(\"ok\");",
            "xs.map(Result::unwrap)",
        ] {
            assert_eq!(rules_of(&rooted(src)), [PANIC_UNWRAP], "{src}");
        }
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src =
            "let v = x.unwrap_or_default(); let w = y.unwrap_or(0); let z = z.unwrap_or_else(f);";
        assert!(rooted(src).is_empty());
    }

    #[test]
    fn panic_macros_fire_under_a_parse_root() {
        for src in [
            "panic!(\"boom\")",
            "unreachable!()",
            "todo!()",
            "unimplemented!()",
            "assert!(x > 0);",
            "assert_eq!(a, b);",
            "assert_ne!(a, b);",
        ] {
            assert_eq!(rules_of(&rooted(src)), [PANIC_MACRO], "{src}");
        }
    }

    #[test]
    fn debug_assert_is_permitted() {
        assert!(rooted("debug_assert!(ok);").is_empty());
    }

    #[test]
    fn indexing_fires_under_a_parse_root() {
        for src in [
            "let b = buf[0];",
            "let s = &buf[1..4];",
            "let x = f()[0];",
            "let y = grid[i][j];",
        ] {
            let f = rooted(src);
            assert!(
                f.iter().any(|f| f.rule == PANIC_INDEX),
                "expected panic/index for {src}: {f:?}"
            );
        }
    }

    #[test]
    fn non_indexing_brackets_are_fine() {
        for src in [
            "#[derive(Debug)] struct S;",
            "let v = vec![1, 2, 3];",
            "let a = [0u8; 4];",
            "let t: [u8; 4] = x;",
            "let [a, b] = pair;",
            "if let [x, ..] = slice {}",
            "fn f() -> [u8; 2] { y }",
        ] {
            let f = rooted(src);
            assert!(
                f.iter().all(|f| f.rule != PANIC_INDEX),
                "false positive for {src}: {f:?}"
            );
        }
    }

    #[test]
    fn panic_test_code_is_exempt() {
        let (f, _) = run(&[wf(
            "wm-a",
            "crates/a/src/lib.rs",
            "// wm-lint: parse-root\n\
             pub fn root(b: &[u8]) -> u8 { 0 }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let v = parse(b\"x\").unwrap(); let b = buf[0]; panic!(); } }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_suppression_needs_its_rule_or_family() {
        let f = rooted(
            "let a = buf[0]; // wm-lint: allow(panic/index, reason = \"len checked above\")\n\
             // wm-lint: allow(panic, reason = \"fixture\")\n\
             let b = buf[1].unwrap();\n\
             // wm-lint: allow(panic/unwrap, reason = \"other rule\")\n\
             let c = buf[2];",
        );
        assert_eq!(rules_of(&f), [PANIC_INDEX], "{f:?}");
        assert_eq!(f[0].line, 7);
    }

    /// The deliberate mutation fixture: the root itself is clean, and
    /// the `unwrap` sits in another crate's helper that only the root
    /// reaches. The finding names the whole chain.
    #[test]
    fn unwrap_in_a_helper_reached_only_through_a_parse_root_fires() {
        let (f, s) = run(&[
            wf(
                "wm-net",
                "crates/net/src/headers.rs",
                "// wm-lint: parse-root\n\
                 pub fn parse_frame_lossy(frame: &[u8]) -> Option<u8> { header(frame) }\n\
                 fn header(frame: &[u8]) -> Option<u8> { wm_b::first(frame) }",
            ),
            wf(
                "wm-b",
                "crates/b/src/bytes.rs",
                "pub fn first(b: &[u8]) -> Option<u8> { Some(*b.first().unwrap()) }",
            ),
        ]);
        assert_eq!(rules_of(&f), [PANIC_UNWRAP], "{f:?}");
        assert_eq!(f[0].file, "crates/b/src/bytes.rs");
        assert!(
            f[0].message
                .contains("wm_net::parse_frame_lossy -> wm_net::header -> wm_b::first"),
            "{f:?}"
        );
        assert_eq!((s.parse_roots, s.panic_scope_fns), (1, 3));
    }

    #[test]
    fn every_fn_in_a_reached_file_is_in_scope() {
        // The online decoder's root reaches the path decoder and the
        // evidence resolver, so both files are in scope; the serializer
        // beside the root is covered although nothing calls it.
        let (f, s) = run(&[
            wf(
                "wm-core",
                "crates/core/src/online/engine.rs",
                "impl OnlineDecoder {\n\
                 // wm-lint: parse-root\n\
                 pub fn push_packet(&mut self, frame: &[u8]) { step(); resolve(); }\n\
                 pub fn checkpoint(&self) -> u8 { self.buf[0] }\n\
                 }",
            ),
            wf(
                "wm-core",
                "crates/core/src/decode.rs",
                "pub fn step() { let d = next().unwrap(); }",
            ),
            wf(
                "wm-core",
                "crates/core/src/provenance.rs",
                "pub fn resolve() { let e = cite().expect(\"cited\"); }",
            ),
        ]);
        let sites: Vec<(&str, &str)> = f.iter().map(|f| (f.file.as_str(), f.rule)).collect();
        assert_eq!(
            sites,
            [
                ("crates/core/src/online/engine.rs", PANIC_INDEX),
                ("crates/core/src/decode.rs", PANIC_UNWRAP),
                ("crates/core/src/provenance.rs", PANIC_UNWRAP),
            ],
            "{f:?}"
        );
        assert!(f[0]
            .message
            .contains("parse-reachable `wm_core::OnlineDecoder::push_packet`"));
        assert_eq!(s.panic_scope_fns, 4);
    }

    #[test]
    fn a_file_holding_no_reached_fn_stays_quiet() {
        let (f, s) = run(&[
            wf(
                "wm-a",
                "crates/a/src/parse.rs",
                "// wm-lint: parse-root\npub fn parse(b: &[u8]) -> Option<&u8> { b.first() }",
            ),
            wf(
                "wm-a",
                "crates/a/src/report.rs",
                "pub fn render(xs: &[u8]) -> u8 { xs[0] + xs.first().copied().unwrap() }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!((s.parse_roots, s.panic_scope_fns), (1, 1));
    }

    #[test]
    fn no_parse_root_means_no_panic_scope() {
        let (f, s) = run(&[wf(
            "wm-a",
            "crates/a/src/lib.rs",
            "pub fn parse(b: &[u8]) -> u8 { b[0] }",
        )]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!((s.parse_roots, s.panic_scope_fns), (0, 0));
    }

    #[test]
    fn missing_expected_parse_root_fires() {
        const CFG: V2Config = V2Config {
            expected_hotpath_roots: &[],
            expected_response_roots: &[],
            expected_parse_roots: &["wm_net::parse_frame_lossy", "wm_net::gone"],
            unsafe_budget: &[],
        };
        // The root exists but lost its annotation, and `gone` does not
        // exist: both fire, and the panic scope is empty.
        let (f, s) = run_with(
            &[wf(
                "wm-net",
                "crates/net/src/headers.rs",
                "pub fn parse_frame_lossy(frame: &[u8]) -> u8 { frame[0] }",
            )],
            &CFG,
        );
        assert_eq!(
            rules_of(&f),
            [PANIC_MISSING_ROOT, PANIC_MISSING_ROOT],
            "{f:?}"
        );
        assert!(f
            .iter()
            .any(|x| x.message.contains("must carry `// wm-lint: parse-root`")));
        assert!(f.iter().any(|x| x.message.contains("does not exist")));
        assert_eq!(s.panic_scope_fns, 0);
    }

    // -- annotations --------------------------------------------------

    #[test]
    fn dangling_annotation_fires() {
        let (f, _) = run(&[wf(
            "wm-a",
            "crates/a/src/lib.rs",
            "// wm-lint: hotpath\nconst X: u8 = 1;",
        )]);
        assert_eq!(rules_of(&f), [ANNOTATION_DANGLING], "{f:?}");
    }

    #[test]
    fn alloc_ok_without_reason_is_missing_reason() {
        let (f, _) = run(&[wf(
            "wm-a",
            "crates/a/src/lib.rs",
            "// wm-lint: alloc-ok\nfn setup() { let v = Vec::new(); }",
        )]);
        assert_eq!(rules_of(&f), [MISSING_REASON], "{f:?}");
    }
}
