//! The rule engine.
//!
//! Three rule families guard the invariants the traffic-analysis
//! pipeline depends on:
//!
//! * **determinism** — byte-producing crates must not consult wall
//!   clocks or iterate randomized hash collections, and nothing in the
//!   workspace may draw unseeded randomness. Golden-trace tests only
//!   mean something if the same seed always yields the same bytes.
//! * **panic** — attacker-facing parse paths consume adversarial bytes
//!   (pcap frames, TLS records, HTTP heads, JSON blobs) and must return
//!   errors, never panic: no `unwrap`/`expect`, no panicking macros, no
//!   unchecked indexing.
//! * **layering** — attacker crates may only see what an on-path
//!   observer sees. Their declared dependencies are restricted to the
//!   capture window and public vocabulary crates; reaching into victim
//!   internals (`wm-netflix`, `wm-player`, `wm-tls`) would let the
//!   "attack" cheat. The rule is bidirectional: victim crates must not
//!   depend on attacker-side crates either (the fleet supervisor
//!   included) — the simulated service cannot be shaped by the attack
//!   observing it.
//! * **bounded** — the online decoder's ingest paths run for the length
//!   of a viewing session against adversarial streams, so every buffer
//!   there must grow through the capacity-enforcing `wm_online::bounded`
//!   API. Raw `Vec::push`-style growth is forbidden in those files.
//!
//! Findings may be silenced with an inline
//! `// wm-lint: allow(<rule>, reason = "...")` comment on the offending
//! line or the line above; the reason is mandatory.

use crate::lexer::{lex, Comment, Tok, Token};
use crate::manifest::Manifest;

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `panic/index`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

pub const WALL_CLOCK: &str = "determinism/wall-clock";
pub const TRACE_SIM_TIME: &str = "determinism/trace-sim-time";
pub const HASH_COLLECTIONS: &str = "determinism/hash-collections";
pub const UNSEEDED_RNG: &str = "determinism/unseeded-rng";
pub const PANIC_UNWRAP: &str = "panic/unwrap";
pub const PANIC_MACRO: &str = "panic/macro";
pub const PANIC_INDEX: &str = "panic/index";
pub const LAYERING: &str = "layering/dependency";
pub const LAYERING_EXTERNAL: &str = "layering/external-dependency";
pub const PROCESS_SPAWN: &str = "layering/process-spawn";
pub const BOUNDED_BUFFER: &str = "bounded/unbounded-buffer";
pub const MISSING_REASON: &str = "suppression/missing-reason";

/// Every rule the engine can emit (v1 token rules plus the
/// call-graph-based v2 families), for `--help` and the report header.
pub const ALL_RULES: &[&str] = &[
    WALL_CLOCK,
    TRACE_SIM_TIME,
    HASH_COLLECTIONS,
    UNSEEDED_RNG,
    PANIC_UNWRAP,
    PANIC_MACRO,
    PANIC_INDEX,
    LAYERING,
    LAYERING_EXTERNAL,
    PROCESS_SPAWN,
    BOUNDED_BUFFER,
    MISSING_REASON,
    crate::rules_v2::HOTPATH_ALLOC,
    crate::rules_v2::HOTPATH_MISSING_ROOT,
    crate::rules_v2::CONC_STATIC_MUT,
    crate::rules_v2::CONC_POOL_LOCK,
    crate::rules_v2::CONC_UNSAFE_BUDGET,
    crate::rules_v2::LENGTH_TAINT,
    crate::rules_v2::TAINT_MISSING_ROOT,
    crate::rules_v2::ANNOTATION_DANGLING,
];

/// Crates whose outputs are bytes-on-the-wire (or inputs to them);
/// iteration order and clocks in these crates shape golden traces.
pub const BYTE_PRODUCING_CRATES: &[&str] = &[
    "wm-chaos",
    "wm-fleet",
    "wm-net",
    "wm-netflix",
    "wm-obs",
    "wm-player",
    "wm-sim",
    "wm-story",
    "wm-tls",
];

/// Attacker-side crates: everything they may declare in
/// `[dependencies]`. The capture window (`wm-capture`) re-exports the
/// wire-observable vocabulary; `wm-story` is the public story graph an
/// attacker reconstructs offline; telemetry, JSON and the work-stealing
/// pool (`wm-pool`, pure scheduling over indexed tasks) are inert
/// utilities. Other attacker crates are also fine (the pipeline layers
/// internally). `[dev-dependencies]` are exempt — integration tests
/// legitimately stand up a simulated victim.
pub const ATTACKER_CRATES: &[&str] = &[
    "wm-baselines",
    "wm-behavior",
    "wm-core",
    "wm-fleet",
    "wm-obs",
    "wm-online",
];
pub const ATTACKER_ALLOWED_DEPS: &[&str] = &[
    "wm-baselines",
    "wm-behavior",
    "wm-capture",
    "wm-core",
    "wm-fleet",
    "wm-json",
    "wm-obs",
    "wm-online",
    "wm-pool",
    "wm-story",
    "wm-telemetry",
];

/// Per-crate widenings of [`ATTACKER_ALLOWED_DEPS`]. The fleet
/// supervisor absorbs `wm-chaos` fault plans by design — chaos is the
/// shared fault vocabulary the kill/resume contract is written
/// against, not victim internals — but no other attacker crate gets to
/// import it.
pub const ATTACKER_EXTRA_ALLOWED: &[(&str, &[&str])] = &[("wm-fleet", &["wm-chaos"])];

/// Victim-side crates: the simulated service and its direct internals.
/// They must never declare a dependency on an attacker crate — the
/// service cannot be shaped by the attack observing it, and the
/// "attack works from ciphertext alone" claim dies the moment victim
/// code links the decoder.
pub const VICTIM_CRATES: &[&str] = &["wm-cipher", "wm-http", "wm-netflix", "wm-player", "wm-tls"];

/// Is `dep` a legal `[dependencies]` entry for attacker crate `name`?
pub fn attacker_dep_allowed(name: &str, dep: &str) -> bool {
    ATTACKER_ALLOWED_DEPS.contains(&dep)
        || ATTACKER_EXTRA_ALLOWED
            .iter()
            .any(|(c, extra)| *c == name && extra.contains(&dep))
}

/// Crates allowed to spawn OS processes: the fleet supervisor hosts
/// shards in child worker processes by design (the `ProcessShard`
/// backend), and that capability must stay inside the attacker-side
/// supervisor. Any other crate reaching for `std::process::Command`
/// is either a victim crate growing an escape hatch or an attacker
/// crate bypassing the supervisor's respawn/checkpoint accounting —
/// both are layering bugs. (`std::process::exit` is fine everywhere;
/// the rule matches the `Command` type, not the module.)
const PROCESS_SPAWN_EXEMPT: &[&str] = &["wm-fleet"];

/// Does the process-spawn rule apply to this crate?
pub fn process_spawn_applies(crate_name: &str) -> bool {
    !PROCESS_SPAWN_EXEMPT.contains(&crate_name)
}

/// Crates allowed to read wall clocks: the benchmark harness times real
/// executions by definition. Everything else must justify a clock with
/// a suppression (telemetry's span timers do exactly that).
const WALL_CLOCK_EXEMPT: &[&str] = &["wm-bench"];

/// Does the wall-clock rule apply to this crate?
pub fn wall_clock_applies(crate_name: &str) -> bool {
    !WALL_CLOCK_EXEMPT.contains(&crate_name)
}

/// Does the hash-collection rule apply to this crate?
pub fn hash_collections_apply(crate_name: &str) -> bool {
    BYTE_PRODUCING_CRATES.contains(&crate_name)
}

/// Trace emit paths: anything in `crates/telemetry/src/trace/` sits
/// between an emitter and the recorder, so any wall-clock reachability
/// there — `Instant::<anything>` in path position, or `SystemTime` even
/// as a bare type — can leak nondeterminism into event timestamps. Golden
/// traces and `trace_diff` gates only hold if every `TraceEvent` is
/// stamped with sim time. (Bare `Instant` is exempt: it is also the
/// module's own `EventKind::Instant` variant.) The rest of
/// `wm-telemetry` stays outside: its `Span` timer measures wall time
/// by design and never stamps a trace event. The observability
/// plane's emit/export paths (`crates/obs/src/`) get the same
/// treatment: alert events, time-series points and flamegraph stacks
/// all claim byte-determinism, which a wall clock anywhere in the
/// crate would silently break.
pub fn trace_sim_time_applies(rel_path: &str) -> bool {
    rel_path.starts_with("crates/telemetry/src/trace/") || rel_path.starts_with("crates/obs/src/")
}

/// Attacker-facing parse paths: every byte they consume is
/// adversary-controlled, so the panic family applies.
pub fn panic_rules_apply(rel_path: &str) -> bool {
    rel_path.starts_with("crates/json/src/")
        || rel_path.starts_with("crates/http/src/")
        || rel_path.starts_with("crates/capture/src/")
        || rel_path.starts_with("crates/online/src/")
        || rel_path == "crates/core/src/decode.rs"
}

/// The online decoder's ingest paths: long-running, fed by an
/// adversarial stream, and required to hold memory bounded by
/// *configuration*. All growth must flow through `wm_online::bounded`;
/// `bounded.rs` itself (and the checkpoint codec, which materializes
/// decoded state of already-bounded size) may use the raw APIs.
pub fn bounded_rules_apply(rel_path: &str) -> bool {
    rel_path == "crates/online/src/ingest.rs" || rel_path == "crates/online/src/engine.rs"
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// Lint one Rust source file. `rel_path` is workspace-relative with
/// `/` separators (it selects path-scoped rules and labels findings).
pub fn check_source(crate_name: &str, rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let mut findings = Vec::new();

    if wall_clock_applies(crate_name) {
        wall_clock_rule(&tokens, rel_path, &mut findings);
    }
    if trace_sim_time_applies(rel_path) {
        trace_sim_time_rule(&tokens, rel_path, &mut findings);
    }
    if hash_collections_apply(crate_name) {
        hash_collections_rule(&tokens, rel_path, &mut findings);
    }
    unseeded_rng_rule(&tokens, rel_path, &mut findings);
    if process_spawn_applies(crate_name) {
        process_spawn_rule(&tokens, rel_path, &mut findings);
    }
    if panic_rules_apply(rel_path) {
        panic_unwrap_rule(&tokens, rel_path, &mut findings);
        panic_macro_rule(&tokens, rel_path, &mut findings);
        panic_index_rule(&tokens, rel_path, &mut findings);
    }
    if bounded_rules_apply(rel_path) {
        bounded_buffer_rule(&tokens, rel_path, &mut findings);
    }

    let suppressions = collect_suppressions(&lexed.comments, rel_path, &mut findings);
    findings.retain(|f| {
        f.rule == MISSING_REASON
            || !suppressions
                .iter()
                .any(|s| s.matches(f.rule) && (f.line == s.line || f.line == s.line + 1))
    });
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Lint one `Cargo.toml`. Only the layering family applies.
pub fn check_manifest(rel_path: &str, m: &Manifest) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Every section of every crate — `dependencies`, `dev-dependencies`
    // and `build-dependencies` alike — is confined to the workspace's
    // own `wm-*` crates. The pipeline's reproducibility claims rest on
    // being std-only; an external crate slipping in through a dev or
    // build section would run in CI without tripping the attacker
    // layering rule below.
    for (section, deps) in [
        ("dependencies", &m.dependencies),
        ("dev-dependencies", &m.dev_dependencies),
        ("build-dependencies", &m.build_dependencies),
    ] {
        for dep in deps {
            if !dep.name.starts_with("wm-") {
                findings.push(Finding {
                    rule: LAYERING_EXTERNAL,
                    file: rel_path.to_string(),
                    line: dep.line,
                    message: format!(
                        "`{}` declares external dependency `{}` in [{}]; the workspace is \
                         std-only — every dependency must be a workspace `wm-*` crate",
                        m.name, dep.name, section
                    ),
                });
            }
        }
    }
    if VICTIM_CRATES.contains(&m.name.as_str()) {
        for dep in m.dependencies.iter().chain(&m.build_dependencies) {
            if ATTACKER_CRATES.contains(&dep.name.as_str()) {
                findings.push(Finding {
                    rule: LAYERING,
                    file: rel_path.to_string(),
                    line: dep.line,
                    message: format!(
                        "victim crate `{}` declares dependency `{}` on an attacker-side crate; \
                         the simulated service must not link the attack that observes it",
                        m.name, dep.name
                    ),
                });
            }
        }
        return findings;
    }
    if !ATTACKER_CRATES.contains(&m.name.as_str()) {
        return findings;
    }
    for dep in m.dependencies.iter().chain(&m.build_dependencies) {
        if !attacker_dep_allowed(&m.name, &dep.name) {
            findings.push(Finding {
                rule: LAYERING,
                file: rel_path.to_string(),
                line: dep.line,
                message: format!(
                    "attacker crate `{}` declares dependency `{}`; attacker crates may only \
                     depend on {:?} (dev-dependencies are exempt)",
                    m.name, dep.name, ATTACKER_ALLOWED_DEPS
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t, Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
}

fn wall_clock_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = ident(t) else { continue };
        if !matches!(name, "Instant" | "SystemTime") {
            continue;
        }
        if is_punct(tokens.get(i + 1), ':')
            && is_punct(tokens.get(i + 2), ':')
            && tokens.get(i + 3).and_then(ident) == Some("now")
        {
            out.push(Finding {
                rule: WALL_CLOCK,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`{name}::now()` reads the wall clock; byte-producing code must use \
                     simulated time (`wm_net::time`) so traces are reproducible"
                ),
            });
        }
    }
}

fn process_spawn_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if ident(t) != Some("Command") {
            continue;
        }
        // Path position (`Command::new(..)`) or imported/named through
        // the process module (`std::process::Command`, `use
        // std::process::{Command, ..}`). A bare `Command` elsewhere is
        // left alone so a crate-local type of that name can exist.
        let in_path = is_punct(tokens.get(i + 1), ':') && is_punct(tokens.get(i + 2), ':');
        // Walk back over a `{A, B, …}` import group so every name in
        // `std::process::{…}` is anchored to the module path.
        let mut j = i;
        while j >= 1
            && (is_punct(tokens.get(j - 1), ',') || tokens.get(j - 1).and_then(ident).is_some())
        {
            j -= 1;
        }
        let group_start = if j >= 1 && is_punct(tokens.get(j - 1), '{') {
            j - 1
        } else {
            i
        };
        let via_process = group_start >= 3
            && is_punct(tokens.get(group_start - 1), ':')
            && is_punct(tokens.get(group_start - 2), ':')
            && tokens.get(group_start - 3).and_then(ident) == Some("process");
        if in_path || via_process {
            out.push(Finding {
                rule: PROCESS_SPAWN,
                file: file.to_string(),
                line: t.line,
                message: "`std::process::Command` spawns OS processes; the process-shard \
                          runner must stay inside the fleet supervisor (`wm-fleet`), which \
                          owns respawn and checkpoint accounting for child workers"
                    .to_string(),
            });
        }
    }
}

fn trace_sim_time_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = ident(t) else { continue };
        // `SystemTime` anywhere; `Instant` only in path position
        // (`Instant::…`) — the bare word is also the legitimate
        // `EventKind::Instant` variant of the trace module.
        let wall_clock = name == "SystemTime"
            || (name == "Instant"
                && is_punct(tokens.get(i + 1), ':')
                && is_punct(tokens.get(i + 2), ':'));
        if wall_clock {
            out.push(Finding {
                rule: TRACE_SIM_TIME,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`{name}` is a wall-clock source; trace events must be stamped with the \
                     recorder's sim-time clock (`set_now` / `*_at`) so exports are \
                     byte-deterministic per seed"
                ),
            });
        }
    }
}

fn hash_collections_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for t in tokens {
        let Some(name) = ident(t) else { continue };
        if matches!(name, "HashMap" | "HashSet" | "RandomState") {
            out.push(Finding {
                rule: HASH_COLLECTIONS,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`{name}` has randomized iteration order; use `BTreeMap`/`BTreeSet` or a \
                     sorted `Vec` so emitted bytes are deterministic"
                ),
            });
        }
    }
}

fn unseeded_rng_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for t in tokens {
        let Some(name) = ident(t) else { continue };
        if matches!(
            name,
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" | "getrandom"
        ) {
            out.push(Finding {
                rule: UNSEEDED_RNG,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`{name}` draws OS entropy; all randomness must flow from an explicit \
                     seed (`SimRng`) so runs are reproducible"
                ),
            });
        }
    }
}

fn panic_unwrap_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = ident(t) else { continue };
        if !matches!(name, "unwrap" | "expect") {
            continue;
        }
        // `.unwrap()` / `.expect("…")` method calls, and
        // `Result::unwrap` style paths passed as functions — both panic
        // on Err. Bare identifiers named `unwrap` (e.g. a local) are
        // left alone.
        let method = i > 0 && is_punct(tokens.get(i - 1), '.');
        let path = i > 0 && is_punct(tokens.get(i - 1), ':');
        if method || path {
            out.push(Finding {
                rule: PANIC_UNWRAP,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`.{name}()` panics on malformed input; attacker-facing parse paths must \
                     propagate a typed error instead"
                ),
            });
        }
    }
}

fn panic_macro_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = ident(t) else { continue };
        if !matches!(
            name,
            "panic"
                | "unreachable"
                | "todo"
                | "unimplemented"
                | "assert"
                | "assert_eq"
                | "assert_ne"
        ) {
            continue;
        }
        if is_punct(tokens.get(i + 1), '!') {
            out.push(Finding {
                rule: PANIC_MACRO,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`{name}!` aborts on adversarial input; return an error (debug_assert! is \
                     permitted for internal invariants)"
                ),
            });
        }
    }
}

fn panic_index_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !matches!(t.tok, Tok::Punct('[')) || i == 0 {
            continue;
        }
        // `expr[...]` indexing: the `[` directly follows a value — an
        // identifier (not a keyword), a call/paren close, or a prior
        // index close. Attributes (`#[`), macros (`vec![`), slice
        // patterns and array literals/types all follow other tokens.
        let indexing = match &tokens[i - 1].tok {
            Tok::Ident(name) => !KEYWORDS.contains(&name.as_str()),
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
            _ => false,
        };
        if indexing {
            out.push(Finding {
                rule: PANIC_INDEX,
                file: file.to_string(),
                line: t.line,
                message: "unchecked indexing panics out of bounds; use `.get(..)` and handle \
                          `None`"
                    .to_string(),
            });
        }
    }
}

fn bounded_buffer_rule(tokens: &[Token], file: &str, out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = ident(t) else { continue };
        if !matches!(
            name,
            "push"
                | "push_back"
                | "push_front"
                | "extend"
                | "extend_from_slice"
                | "append"
                | "insert"
        ) {
            continue;
        }
        // Method position only (`.push(…)`): the bounded containers
        // deliberately expose differently-named admission methods
        // (`put`/`admit`/`admit_evict`/`absorb`/`park`), so any raw
        // growth verb here is a buffer whose size session length — not
        // configuration — controls.
        if i > 0 && is_punct(tokens.get(i - 1), '.') {
            out.push(Finding {
                rule: BOUNDED_BUFFER,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`.{name}(…)` grows a buffer without a capacity bound; online ingest \
                     paths must use the `wm_online::bounded` admission APIs so memory is \
                     bounded by configuration, not session length"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// `#[cfg(test)]` stripping
// ---------------------------------------------------------------------

/// Drop every item gated behind `#[cfg(test)]` (or `#[cfg(any/all(..
/// test ..))]`). Test code may unwrap and assert freely.
pub(crate) fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = cfg_test_attr_end(tokens, i) {
            i = skip_item(tokens, attr_end + 1);
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

/// If `tokens[i..]` starts a `#[cfg(.. test ..)]` attribute, return the
/// index of its closing `]`.
fn cfg_test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !is_punct(tokens.get(i), '#') || !is_punct(tokens.get(i + 1), '[') {
        return None;
    }
    if tokens.get(i + 2).and_then(ident) != Some("cfg") {
        return None;
    }
    let close = matching(tokens, i + 1, '[', ']')?;
    let mentions_test = tokens
        .get(i + 3..close)?
        .iter()
        .any(|t| ident(t) == Some("test"));
    mentions_test.then_some(close)
}

/// Skip one item starting at `i` (past its attributes): consume any
/// further attributes, then everything through the first `;` or the
/// matching close of the first `{` block.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    while is_punct(tokens.get(i), '#') && is_punct(tokens.get(i + 1), '[') {
        match matching(tokens, i + 1, '[', ']') {
            Some(close) => i = close + 1,
            None => return tokens.len(),
        }
    }
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct(';') => return i + 1,
            Tok::Punct('{') => {
                return match matching(tokens, i, '{', '}') {
                    Some(close) => close + 1,
                    None => tokens.len(),
                };
            }
            _ => i += 1,
        }
    }
    i
}

/// Index of the close punct matching the open punct at `tokens[open]`.
fn matching(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct(c) if c == open_c => depth += 1,
            Tok::Punct(c) if c == close_c => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

pub(crate) struct Suppression {
    rule: String,
    pub(crate) line: u32,
}

impl Suppression {
    /// A suppression matches its exact rule or a whole family
    /// (`allow(panic, ...)` silences every `panic/*` rule).
    pub(crate) fn matches(&self, rule: &str) -> bool {
        rule == self.rule
            || (rule.len() > self.rule.len()
                && rule.starts_with(&self.rule)
                && rule.as_bytes().get(self.rule.len()) == Some(&b'/'))
    }
}

/// Item annotation directives (`wm-lint: hotpath`, `alloc-ok(..)`,
/// `response-path`, `quantizer(..)`) are parsed and validated by the
/// v2 pass ([`crate::items`]); the suppression collector must not
/// report them as unrecognized.
fn is_annotation_directive(rest: &str) -> bool {
    ["hotpath", "alloc-ok", "response-path", "quantizer"]
        .iter()
        .any(|kw| {
            rest.strip_prefix(kw).is_some_and(|after| {
                after
                    .chars()
                    .next()
                    .is_none_or(|ch| !ch.is_alphanumeric() && ch != '-' && ch != '_')
            })
        })
}

/// Parse `wm-lint: allow(rule, reason = "...")` directives out of the
/// comment stream. Directives without a non-empty reason do not
/// suppress anything and are themselves reported via `report`.
fn parse_suppressions(
    comments: &[Comment],
    mut report: impl FnMut(u32, String),
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = crate::items::directive_body(c) else {
            continue;
        };
        if is_annotation_directive(rest) {
            continue;
        }
        let Some(body) = rest.strip_prefix("allow") else {
            report(
                c.line,
                "unrecognized wm-lint directive; expected \
                 `wm-lint: allow(<rule>, reason = \"...\")` or an item annotation \
                 (`hotpath`, `alloc-ok(..)`, `response-path`, `quantizer(..)`)"
                    .to_string(),
            );
            continue;
        };
        let body = body.trim_start();
        let Some(body) = body.strip_prefix('(') else {
            report(
                c.line,
                "malformed wm-lint allow; expected `allow(<rule>, reason = \"...\")`".to_string(),
            );
            continue;
        };
        let rule_end = body.find([',', ')']).unwrap_or(body.len());
        let rule = body.get(..rule_end).unwrap_or_default().trim().to_string();
        let reason = extract_reason(body.get(rule_end..).unwrap_or_default());
        match reason {
            Some(r) if !r.trim().is_empty() => out.push(Suppression { rule, line: c.line }),
            _ => report(
                c.line,
                format!(
                    "suppression of `{rule}` has no reason; every allow must say why the \
                     violation is sound"
                ),
            ),
        }
    }
    out
}

fn collect_suppressions(
    comments: &[Comment],
    file: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    parse_suppressions(comments, |line, message| {
        findings.push(Finding {
            rule: MISSING_REASON,
            file: file.to_string(),
            line,
            message,
        })
    })
}

/// Suppressions only, no malformed-directive findings — for the v2
/// workspace pass, which runs after the per-file pass has already
/// reported them.
pub(crate) fn collect_suppressions_quiet(comments: &[Comment]) -> Vec<Suppression> {
    parse_suppressions(comments, |_, _| {})
}

/// From `, reason = "why"` (or similar), pull out `why`.
fn extract_reason(s: &str) -> Option<&str> {
    let after = s.split_once("reason")?.1.trim_start();
    let after = after.strip_prefix('=')?.trim_start();
    let after = after.strip_prefix('"')?;
    after.split_once('"').map(|(reason, _)| reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // Paths chosen so the path-scoped panic family is active/inactive.
    const PARSE_PATH: &str = "crates/json/src/fixture.rs";
    const NON_PARSE_PATH: &str = "crates/netflix/src/fixture.rs";

    #[test]
    fn wall_clock_fires_in_byte_producing_crate() {
        let f = check_source(
            "wm-player",
            NON_PARSE_PATH,
            "fn t() -> Instant { Instant::now() }",
        );
        assert_eq!(rules_of(&f), [WALL_CLOCK]);
        let f = check_source(
            "wm-net",
            NON_PARSE_PATH,
            "fn t() -> u64 { SystemTime::now().elapsed() }",
        );
        assert_eq!(rules_of(&f), [WALL_CLOCK]);
    }

    #[test]
    fn wall_clock_exempts_bench() {
        let f = check_source("wm-bench", NON_PARSE_PATH, "let t = Instant::now();");
        assert!(f.is_empty());
    }

    #[test]
    fn instant_in_string_or_comment_is_fine() {
        let src = r#"// Instant::now() is forbidden here
            let s = "Instant::now()";"#;
        assert!(check_source("wm-sim", NON_PARSE_PATH, src).is_empty());
    }

    #[test]
    fn process_spawn_fires_outside_the_fleet() {
        let f = check_source(
            "wm-online",
            "crates/online/src/engine.rs",
            "let c = std::process::Command::new(\"worker\").spawn();",
        );
        assert_eq!(rules_of(&f), [PROCESS_SPAWN]);
        let f = check_source(
            "wm-netflix",
            NON_PARSE_PATH,
            "use std::process::{Command, Stdio};",
        );
        assert_eq!(rules_of(&f), [PROCESS_SPAWN]);
    }

    #[test]
    fn process_spawn_exempts_the_fleet_supervisor() {
        let f = check_source(
            "wm-fleet",
            "crates/fleet/src/process.rs",
            "let c = Command::new(worker).spawn();",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn process_exit_and_local_command_types_are_fine() {
        // `std::process::exit` is the ordinary way for a binary to set
        // its exit code; only the `Command` type is the spawn surface.
        let f = check_source("wm-bench", NON_PARSE_PATH, "std::process::exit(1);");
        assert!(f.is_empty(), "{f:?}");
        // A crate-local `Command` used as a bare name (no path, not via
        // the process module) stays legal.
        let f = check_source(
            "wm-player",
            NON_PARSE_PATH,
            "enum Command { Play, Pause } fn f(c: Command) {}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn trace_sim_time_fires_on_wall_clock_in_trace_module() {
        // `Instant::now()` trips both the generic wall-clock rule and
        // the stricter trace rule.
        let f = check_source(
            "wm-telemetry",
            "crates/telemetry/src/trace/recorder.rs",
            "let t = Instant::now();",
        );
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME), "{f:?}");
        assert!(rules_of(&f).contains(&WALL_CLOCK), "{f:?}");
        // Any path through `Instant`, and any mention of `SystemTime`
        // (even a field/signature without `::now()`), fires the trace
        // rule — timestamps must arrive as sim-time integers.
        let f = check_source(
            "wm-telemetry",
            "crates/telemetry/src/trace/recorder.rs",
            "let e = start.elapsed(); let z = Instant::from_micros(0);",
        );
        assert_eq!(rules_of(&f), [TRACE_SIM_TIME]);
        let f = check_source(
            "wm-telemetry",
            "crates/telemetry/src/trace/event.rs",
            "struct E { at: SystemTime }",
        );
        assert_eq!(rules_of(&f), [TRACE_SIM_TIME]);
    }

    #[test]
    fn trace_sim_time_permits_the_event_kind_variant() {
        // `EventKind::Instant` is the trace module's own variant, not a
        // wall-clock type; the bare ident must not fire.
        let src = "match k { EventKind::Instant => \"n\", _ => \"b\" }";
        assert!(
            check_source("wm-telemetry", "crates/telemetry/src/trace/export.rs", src).is_empty()
        );
    }

    #[test]
    fn trace_sim_time_is_scoped_to_trace_sources() {
        let src = "struct S { at: SystemTime }";
        let f = check_source("wm-player", "crates/player/src/player.rs", src);
        assert!(rules_of(&f).iter().all(|r| *r != TRACE_SIM_TIME), "{f:?}");
        // Within wm-telemetry only the trace module is in scope: the
        // metric `Span` timer's wall clock never stamps a trace event.
        let src = "let t = Instant::now();";
        let f = check_source("wm-telemetry", "crates/telemetry/src/metric.rs", src);
        assert!(rules_of(&f).iter().all(|r| *r != TRACE_SIM_TIME), "{f:?}");
        let f = check_source(
            "wm-telemetry",
            "crates/telemetry/src/trace/recorder.rs",
            src,
        );
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME), "{f:?}");
    }

    #[test]
    fn trace_sim_time_covers_obs_exporters() {
        // The observability plane emits byte-deterministic exports and
        // sim-time alerts; a wall clock anywhere in its sources is the
        // same determinism bug as one in the trace recorder.
        let f = check_source(
            "wm-obs",
            "crates/obs/src/export.rs",
            "let stamp = SystemTime::now();",
        );
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME), "{f:?}");
        let f = check_source(
            "wm-obs",
            "crates/obs/src/health.rs",
            "let t = Instant::now();",
        );
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME), "{f:?}");
    }

    #[test]
    fn trace_sim_time_suppressible_with_reason_only() {
        let ok = "struct E { at: SystemTime } // wm-lint: allow(determinism/trace-sim-time, reason = \"doc example\")";
        assert!(check_source("wm-telemetry", "crates/telemetry/src/trace/mod.rs", ok).is_empty());
        let bare = "// wm-lint: allow(determinism/trace-sim-time)\nstruct E { at: SystemTime }";
        let f = check_source("wm-telemetry", "crates/telemetry/src/trace/mod.rs", bare);
        assert!(rules_of(&f).contains(&MISSING_REASON));
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME));
    }

    #[test]
    fn hash_collections_fire_only_in_byte_producing_crates() {
        let src = "use std::collections::HashMap; fn f() { let m: HashMap<u8, u8>; }";
        let f = check_source("wm-tls", NON_PARSE_PATH, src);
        assert!(f.iter().all(|f| f.rule == HASH_COLLECTIONS));
        assert_eq!(f.len(), 2);
        // Attacker/utility crates may hash internally (they emit no bytes).
        assert!(check_source("wm-telemetry", "crates/telemetry/src/x.rs", src).is_empty());
    }

    #[test]
    fn randomstate_and_hashset_fire() {
        let f = check_source(
            "wm-story",
            NON_PARSE_PATH,
            "let s: HashSet<u8> = HashSet::default(); let r = RandomState::new();",
        );
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn unseeded_rng_fires_everywhere() {
        for krate in ["wm-core", "wm-sim", "wm-bench"] {
            let f = check_source(krate, NON_PARSE_PATH, "let mut rng = thread_rng();");
            assert_eq!(rules_of(&f), [UNSEEDED_RNG], "{krate}");
        }
        let f = check_source("wm-json", NON_PARSE_PATH, "let r = OsRng.next_u64();");
        assert_eq!(rules_of(&f), [UNSEEDED_RNG]);
    }

    #[test]
    fn unwrap_and_expect_fire_on_parse_paths() {
        let f = check_source("wm-json", PARSE_PATH, "let v = parse(b).unwrap();");
        assert_eq!(rules_of(&f), [PANIC_UNWRAP]);
        let f = check_source("wm-json", PARSE_PATH, "let v = parse(b).expect(\"ok\");");
        assert_eq!(rules_of(&f), [PANIC_UNWRAP]);
        let f = check_source("wm-json", PARSE_PATH, "xs.map(Result::unwrap)");
        assert_eq!(rules_of(&f), [PANIC_UNWRAP]);
    }

    #[test]
    fn unwrap_outside_parse_paths_is_fine() {
        let f = check_source("wm-netflix", NON_PARSE_PATH, "let v = parse(b).unwrap();");
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src =
            "let v = x.unwrap_or_default(); let w = y.unwrap_or(0); let z = z.unwrap_or_else(f);";
        assert!(check_source("wm-json", PARSE_PATH, src).is_empty());
    }

    #[test]
    fn panic_macros_fire_on_parse_paths() {
        for src in [
            "panic!(\"boom\")",
            "unreachable!()",
            "todo!()",
            "unimplemented!()",
            "assert!(x > 0);",
            "assert_eq!(a, b);",
            "assert_ne!(a, b);",
        ] {
            let f = check_source("wm-http", "crates/http/src/parse.rs", src);
            assert_eq!(rules_of(&f), [PANIC_MACRO], "{src}");
        }
    }

    #[test]
    fn debug_assert_is_permitted() {
        let f = check_source("wm-http", "crates/http/src/parse.rs", "debug_assert!(ok);");
        assert!(f.is_empty());
    }

    #[test]
    fn indexing_fires_on_parse_paths() {
        for src in [
            "let b = buf[0];",
            "let s = &buf[1..4];",
            "let x = f()[0];",
            "let y = grid[i][j];",
        ] {
            let f = check_source("wm-capture", "crates/capture/src/pcap.rs", src);
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
            let f = check_source("wm-capture", "crates/capture/src/pcap.rs", src);
            assert!(
                f.iter().all(|f| f.rule != PANIC_INDEX),
                "false positive for {src}: {f:?}"
            );
        }
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            pub fn shipping() -> u8 { 0 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let v = parse(b"x").unwrap();
                    let b = buf[0];
                    panic!("fine in tests");
                    let m: HashMap<u8, u8> = HashMap::new();
                    let t = Instant::now();
                }
            }
        "#;
        assert!(check_source("wm-sim", "crates/sim/src/x.rs", src).is_empty());
        assert!(check_source("wm-json", PARSE_PATH, src).is_empty());
    }

    #[test]
    fn cfg_all_test_is_also_stripped() {
        let src = "#[cfg(all(test, feature = \"x\"))] mod t { fn f() { x.unwrap() } }";
        assert!(check_source("wm-json", PARSE_PATH, src).is_empty());
    }

    #[test]
    fn code_after_test_mod_is_still_checked() {
        let src = "#[cfg(test)] mod t { fn f() { a.unwrap() } }\npub fn g() { b.unwrap(); }";
        let f = check_source("wm-json", PARSE_PATH, src);
        assert_eq!(rules_of(&f), [PANIC_UNWRAP]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn suppression_with_reason_silences_same_line() {
        let src = "let b = buf[0]; // wm-lint: allow(panic/index, reason = \"len checked above\")";
        assert!(check_source("wm-capture", "crates/capture/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_next_line() {
        let src = "// wm-lint: allow(panic/index, reason = \"len checked above\")\nlet b = buf[0];";
        assert!(check_source("wm-capture", "crates/capture/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_does_not_reach_two_lines_down() {
        let src =
            "// wm-lint: allow(panic/index, reason = \"only covers next line\")\nlet a = 1;\nlet b = buf[0];";
        let f = check_source("wm-capture", "crates/capture/src/x.rs", src);
        assert_eq!(rules_of(&f), [PANIC_INDEX]);
    }

    #[test]
    fn suppression_of_other_rule_does_not_silence() {
        let src = "// wm-lint: allow(determinism/wall-clock, reason = \"n/a\")\nlet b = buf[0];";
        let f = check_source("wm-capture", "crates/capture/src/x.rs", src);
        assert_eq!(rules_of(&f), [PANIC_INDEX]);
    }

    #[test]
    fn family_suppression_covers_members() {
        let src = "// wm-lint: allow(panic, reason = \"fixture\")\nlet b = buf[0].unwrap();";
        assert!(check_source("wm-capture", "crates/capture/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_reported_and_inert() {
        let src = "// wm-lint: allow(panic/index)\nlet b = buf[0];";
        let f = check_source("wm-capture", "crates/capture/src/x.rs", src);
        assert_eq!(rules_of(&f), [MISSING_REASON, PANIC_INDEX]);
    }

    #[test]
    fn suppression_with_empty_reason_is_reported() {
        let src = "// wm-lint: allow(panic/index, reason = \"  \")\nlet b = buf[0];";
        let f = check_source("wm-capture", "crates/capture/src/x.rs", src);
        assert!(rules_of(&f).contains(&MISSING_REASON));
    }

    #[test]
    fn malformed_directive_is_reported() {
        let f = check_source(
            "wm-json",
            NON_PARSE_PATH,
            "// wm-lint: disable-everything\nlet x = 1;",
        );
        assert_eq!(rules_of(&f), [MISSING_REASON]);
    }

    #[test]
    fn bounded_buffer_fires_in_online_ingest_paths() {
        for src in [
            "self.queue.push(x);",
            "buf.push_back(x);",
            "buf.push_front(x);",
            "v.extend(items);",
            "v.extend_from_slice(&bytes);",
            "a.append(&mut b);",
            "map.insert(k, v);",
        ] {
            for path in ["crates/online/src/ingest.rs", "crates/online/src/engine.rs"] {
                let f = check_source("wm-online", path, src);
                assert!(
                    f.iter().any(|f| f.rule == BOUNDED_BUFFER),
                    "expected bounded/unbounded-buffer for {src} in {path}: {f:?}"
                );
            }
        }
    }

    #[test]
    fn bounded_buffer_permits_admission_apis_and_non_method_idents() {
        for src in [
            "self.pending.admit(x);",
            "self.recent.admit_evict(x);",
            "self.carry.absorb(&data);",
            "self.parked.park(off, t, &data);",
            "batch.put(item);",
            "let e = self.flows.entry(id).or_insert_with(f);",
            "fn push(x: u8) {} push(1);", // bare call, not method position
        ] {
            let f = check_source("wm-online", "crates/online/src/ingest.rs", src);
            assert!(
                f.iter().all(|f| f.rule != BOUNDED_BUFFER),
                "false positive for {src}: {f:?}"
            );
        }
    }

    #[test]
    fn bounded_buffer_is_scoped_to_ingest_paths() {
        let src = "v.push(x);";
        for path in [
            "crates/online/src/bounded.rs",
            "crates/online/src/checkpoint.rs",
            "crates/core/src/decode.rs",
        ] {
            let f = check_source("wm-online", path, src);
            assert!(
                f.iter().all(|f| f.rule != BOUNDED_BUFFER),
                "rule must not apply to {path}: {f:?}"
            );
        }
    }

    #[test]
    fn bounded_buffer_suppressible_with_reason_only() {
        let ok = "v.push(x); // wm-lint: allow(bounded/unbounded-buffer, reason = \"drained same call\")";
        assert!(check_source("wm-online", "crates/online/src/ingest.rs", ok).is_empty());
        let bare = "// wm-lint: allow(bounded/unbounded-buffer)\nv.push(x);";
        let f = check_source("wm-online", "crates/online/src/ingest.rs", bare);
        assert!(rules_of(&f).contains(&MISSING_REASON));
        assert!(rules_of(&f).contains(&BOUNDED_BUFFER));
    }

    #[test]
    fn path_decoder_is_under_the_panic_family() {
        let f = check_source(
            "wm-core",
            "crates/core/src/decode.rs",
            "let v = x.unwrap();",
        );
        assert_eq!(rules_of(&f), [PANIC_UNWRAP]);
    }

    #[test]
    fn online_panic_rules_apply_to_all_sources() {
        let f = check_source(
            "wm-online",
            "crates/online/src/engine.rs",
            "let v = x.unwrap();",
        );
        assert_eq!(rules_of(&f), [PANIC_UNWRAP]);
    }

    #[test]
    fn layering_flags_victim_dep_in_attacker_crate() {
        let m = crate::manifest::parse(
            "[package]\nname = \"wm-core\"\n[dependencies]\nwm-tls.workspace = true\nwm-json.workspace = true\n",
        );
        let f = check_manifest("crates/core/Cargo.toml", &m);
        assert_eq!(rules_of(&f), [LAYERING]);
        assert!(f[0].message.contains("wm-tls"));
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn layering_allows_capture_window_and_dev_deps() {
        let m = crate::manifest::parse(
            "[package]\nname = \"wm-behavior\"\n[dependencies]\nwm-capture.workspace = true\nwm-story.workspace = true\n[dev-dependencies]\nwm-sim.workspace = true\n",
        );
        assert!(check_manifest("crates/behavior/Cargo.toml", &m).is_empty());
    }

    #[test]
    fn external_dep_flagged_in_every_section() {
        let m = crate::manifest::parse(
            "[package]\nname = \"wm-player\"\n[dependencies]\nserde = \"1\"\n[dev-dependencies]\nproptest = \"1\"\n[build-dependencies]\ncc = \"1\"\n",
        );
        let f = check_manifest("crates/player/Cargo.toml", &m);
        assert_eq!(
            rules_of(&f),
            [LAYERING_EXTERNAL, LAYERING_EXTERNAL, LAYERING_EXTERNAL]
        );
        assert!(f[0].message.contains("[dependencies]"));
        assert!(f[1].message.contains("[dev-dependencies]"));
        assert!(f[2].message.contains("[build-dependencies]"));
        assert_eq!((f[0].line, f[1].line, f[2].line), (4, 6, 8));
    }

    #[test]
    fn workspace_deps_pass_every_section() {
        let m = crate::manifest::parse(
            "[package]\nname = \"wm-core\"\n[dependencies]\nwm-json.workspace = true\n[dev-dependencies]\nwm-telemetry.workspace = true\n[build-dependencies]\nwm-json.workspace = true\n",
        );
        assert!(check_manifest("crates/core/Cargo.toml", &m).is_empty());
    }

    /// Self-check: the rule guards the *real* workspace — every
    /// manifest in this repository must satisfy it, so the std-only
    /// claim in the docs is machine-checked rather than aspirational.
    #[test]
    fn real_workspace_manifests_are_std_only() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap();
        let mut checked = 0usize;
        for entry in std::fs::read_dir(root.join("crates")).unwrap() {
            let path = entry.unwrap().path().join("Cargo.toml");
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let m = crate::manifest::parse(&text);
            let f = check_manifest(&path.display().to_string(), &m);
            assert!(f.is_empty(), "{}: {:?}", path.display(), f);
            checked += 1;
        }
        assert!(checked >= 20, "expected the full workspace, saw {checked}");
    }

    #[test]
    fn layering_ignores_victim_crates() {
        let m = crate::manifest::parse(
            "[package]\nname = \"wm-player\"\n[dependencies]\nwm-tls.workspace = true\n",
        );
        assert!(check_manifest("crates/player/Cargo.toml", &m).is_empty());
    }

    #[test]
    fn layering_flags_attacker_dep_in_victim_crate() {
        let m = crate::manifest::parse(
            "[package]\nname = \"wm-player\"\n[dependencies]\nwm-fleet.workspace = true\nwm-tls.workspace = true\n",
        );
        let f = check_manifest("crates/player/Cargo.toml", &m);
        assert_eq!(rules_of(&f), [LAYERING]);
        assert!(f[0].message.contains("wm-fleet"));
        assert!(f[0].message.contains("victim crate"));
    }

    #[test]
    fn obs_is_attacker_side() {
        // wm-obs observes the attacker fleet, so attacker crates may
        // depend on it…
        assert!(attacker_dep_allowed("wm-fleet", "wm-obs"));
        // …but it is itself held to the attacker dependency contract:
        // victim internals stay off-limits.
        let bad = crate::manifest::parse(
            "[package]\nname = \"wm-obs\"\n[dependencies]\nwm-tls.workspace = true\n",
        );
        let f = check_manifest("crates/obs/Cargo.toml", &bad);
        assert_eq!(rules_of(&f), [LAYERING]);
        // And no victim crate may grow a health-plane dependency.
        let victim = crate::manifest::parse(
            "[package]\nname = \"wm-netflix\"\n[dependencies]\nwm-obs.workspace = true\n",
        );
        let f = check_manifest("crates/netflix/Cargo.toml", &victim);
        assert_eq!(rules_of(&f), [LAYERING]);
        assert!(f[0].message.contains("wm-obs"));
    }

    #[test]
    fn fleet_chaos_allowance_is_scoped_to_the_fleet() {
        // wm-fleet may absorb chaos fault plans…
        let fleet = crate::manifest::parse(
            "[package]\nname = \"wm-fleet\"\n[dependencies]\nwm-chaos.workspace = true\nwm-online.workspace = true\nwm-pool.workspace = true\nwm-telemetry.workspace = true\n",
        );
        assert!(check_manifest("crates/fleet/Cargo.toml", &fleet).is_empty());
        // …but victim internals stay off-limits to it…
        let bad = crate::manifest::parse(
            "[package]\nname = \"wm-fleet\"\n[dependencies]\nwm-tls.workspace = true\n",
        );
        let f = check_manifest("crates/fleet/Cargo.toml", &bad);
        assert_eq!(rules_of(&f), [LAYERING]);
        // …and the chaos allowance does not leak to other attacker crates.
        let core = crate::manifest::parse(
            "[package]\nname = \"wm-core\"\n[dependencies]\nwm-chaos.workspace = true\n",
        );
        let f = check_manifest("crates/core/Cargo.toml", &core);
        assert_eq!(rules_of(&f), [LAYERING]);
    }

    #[test]
    fn findings_sort_by_line() {
        let src = "let a = buf[0];\nlet b = parse(x).unwrap();";
        let f = check_source("wm-json", PARSE_PATH, src);
        assert_eq!(rules_of(&f), [PANIC_INDEX, PANIC_UNWRAP]);
    }
}
