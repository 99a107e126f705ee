//! Rule policy and the per-file token rules.
//!
//! Rule families guard the invariants the traffic-analysis
//! pipeline depends on:
//!
//! * **determinism** — byte-producing crates must not consult wall
//!   clocks or iterate randomized hash collections, and nothing in the
//!   workspace may draw unseeded randomness. Golden-trace tests only
//!   mean something if the same seed always yields the same bytes.
//! * **panic** — code that parses attacker- or disk-supplied bytes must
//!   return errors, never panic: no `unwrap`/`expect`, no panicking
//!   macros, no unchecked indexing. Its scope is not a path list: the
//!   code marks its entry points `// wm-lint: parse-root`, and the
//!   call-graph families ([`crate::rules_v2`]) apply it to every file
//!   holding a function the call graph reaches from one.
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
//!   there must grow through the capacity-enforcing `wm_core::online::bounded`
//!   API. Raw `Vec::push`-style growth is forbidden in those files.
//!
//! This module holds the policy lists, the manifest check, and the
//! token rules: one table whose rows each pair a rule id with the
//! identifiers it matches, where they must sit, the files it covers and
//! its message. The one workspace pass ([`crate::rules_v2`]) lexes and
//! strips each file once and scans its tokens against the table beside
//! the call-graph families.
//!
//! Findings may be silenced with an inline
//! `// wm-lint: allow(<rule>, reason = "...")` comment on the offending
//! line or the line above; the reason is mandatory.

use crate::items::{directive_body, extract_reason, Annotation};
use crate::lexer::{Comment, Tok, Token};
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
pub const LAYERING: &str = "layering/dependency";
pub const LAYERING_EXTERNAL: &str = "layering/external-dependency";
pub const PROCESS_SPAWN: &str = "layering/process-spawn";
pub const BOUNDED_BUFFER: &str = "bounded/unbounded-buffer";
pub const MISSING_REASON: &str = "suppression/missing-reason";

/// Every rule the engine can emit (token, manifest and call-graph
/// rules), for `--help` and the report header; the order sets the
/// report's key order.
pub const ALL_RULES: &[&str] = &[
    WALL_CLOCK,
    TRACE_SIM_TIME,
    HASH_COLLECTIONS,
    UNSEEDED_RNG,
    crate::rules_v2::PANIC_UNWRAP,
    crate::rules_v2::PANIC_MACRO,
    crate::rules_v2::PANIC_INDEX,
    crate::rules_v2::PANIC_MISSING_ROOT,
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
/// legitimately stand up a simulated victim. `wm-online` is only the
/// old name of `wm_core::online`, kept for the benchmark's imports: it
/// is checked as an attacker crate, and no crate may depend on it.
pub const ATTACKER_CRATES: &[&str] = &["wm-behavior", "wm-core", "wm-fleet", "wm-obs", "wm-online"];
pub const ATTACKER_ALLOWED_DEPS: &[&str] = &[
    "wm-behavior",
    "wm-capture",
    "wm-core",
    "wm-fleet",
    "wm-json",
    "wm-obs",
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
pub const VICTIM_CRATES: &[&str] = &[
    "wm-cipher",
    "wm-defense",
    "wm-http",
    "wm-netflix",
    "wm-player",
    "wm-sim",
    "wm-tls",
];

/// Is `dep` a legal `[dependencies]` entry for attacker crate `name`?
pub fn attacker_dep_allowed(name: &str, dep: &str) -> bool {
    ATTACKER_ALLOWED_DEPS.contains(&dep)
        || ATTACKER_EXTRA_ALLOWED
            .iter()
            .any(|(c, extra)| *c == name && extra.contains(&dep))
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

pub(crate) fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

pub(crate) fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t, Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
}

/// The files a token rule covers.
enum Scope {
    /// Every crate except these.
    CratesExcept(&'static [&'static str]),
    /// Only these crates.
    Crates(&'static [&'static str]),
    /// Files under these path prefixes.
    PathPrefixes(&'static [&'static str]),
    /// Exactly these files.
    Files(&'static [&'static str]),
}

impl Scope {
    fn covers(&self, crate_name: &str, rel_path: &str) -> bool {
        match self {
            Scope::CratesExcept(crates) => !crates.contains(&crate_name),
            Scope::Crates(crates) => crates.contains(&crate_name),
            Scope::PathPrefixes(prefixes) => prefixes.iter().any(|p| rel_path.starts_with(p)),
            Scope::Files(files) => files.contains(&rel_path),
        }
    }
}

/// Where a matched identifier must sit for its row to fire.
enum Position {
    Anywhere,
    /// Path head: `Name::…`.
    Path,
    /// `Name::now`.
    NowCall,
    /// Method position: `.name`.
    Method,
    /// Path head, or named through the process module:
    /// `std::process::Name`, or any name in a `use std::process::{…}`
    /// group. A bare name elsewhere is left alone so a crate-local
    /// type of that name can exist.
    PathOrProcessImport,
}

impl Position {
    fn holds(&self, tokens: &[Token], i: usize) -> bool {
        let path = is_punct(tokens.get(i + 1), ':') && is_punct(tokens.get(i + 2), ':');
        match self {
            Position::Anywhere => true,
            Position::Path => path,
            Position::NowCall => path && tokens.get(i + 3).and_then(ident) == Some("now"),
            Position::Method => i > 0 && is_punct(tokens.get(i - 1), '.'),
            Position::PathOrProcessImport => path || via_process_module(tokens, i),
        }
    }
}

/// Is `tokens[i]` named through `process::`, directly or as a member
/// of a `{A, B, …}` import group?
fn via_process_module(tokens: &[Token], i: usize) -> bool {
    // Walk back over the group so every name in it is anchored to the
    // module path.
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
    group_start >= 3
        && is_punct(tokens.get(group_start - 1), ':')
        && is_punct(tokens.get(group_start - 2), ':')
        && tokens.get(group_start - 3).and_then(ident) == Some("process")
}

/// One row of the token-rule table: an identifier in `idents`, at
/// `position`, in a file `scope` covers, fires `rule`.
struct TokenRule {
    rule: &'static str,
    idents: &'static [&'static str],
    position: Position,
    scope: Scope,
    /// `{name}` stands for the matched identifier.
    message: &'static str,
}

/// Trace emit paths: anything in `crates/telemetry/src/trace/` sits
/// between an emitter and the recorder, so any wall-clock reachability
/// there can leak nondeterminism into event timestamps. Golden traces
/// and `trace_diff` gates only hold if every `TraceEvent` is stamped
/// with sim time. The rest of `wm-telemetry` stays outside: its `Span`
/// timer measures wall time by design and never stamps a trace event.
/// The observability plane's emit/export paths (`crates/obs/src/`) get
/// the same treatment: alert events, time-series points and flamegraph
/// stacks all claim byte-determinism, which a wall clock anywhere in
/// the crate would silently break.
const TRACE_PATHS: Scope = Scope::PathPrefixes(&["crates/telemetry/src/trace/", "crates/obs/src/"]);

const TRACE_SIM_TIME_MESSAGE: &str =
    "`{name}` is a wall-clock source; trace events must be stamped with the \
     recorder's sim-time clock (`set_now` / `*_at`) so exports are \
     byte-deterministic per seed";

/// Every token rule. The workspace pass scans each file's test-stripped
/// tokens once, trying the rows whose scope covers the file.
const TOKEN_RULES: &[TokenRule] = &[
    // The benchmark harness times real executions by definition; every
    // other crate must justify a clock with a suppression (telemetry's
    // span timers do exactly that).
    TokenRule {
        rule: WALL_CLOCK,
        idents: &["Instant", "SystemTime"],
        position: Position::NowCall,
        scope: Scope::CratesExcept(&["wm-bench"]),
        message: "`{name}::now()` reads the wall clock; byte-producing code must use \
                  simulated time (`wm_net::time`) so traces are reproducible",
    },
    // `SystemTime` anywhere, even as a bare type; `Instant` only in
    // path position (`Instant::…`), since the bare word is also the
    // trace module's own `EventKind::Instant` variant.
    TokenRule {
        rule: TRACE_SIM_TIME,
        idents: &["SystemTime"],
        position: Position::Anywhere,
        scope: TRACE_PATHS,
        message: TRACE_SIM_TIME_MESSAGE,
    },
    TokenRule {
        rule: TRACE_SIM_TIME,
        idents: &["Instant"],
        position: Position::Path,
        scope: TRACE_PATHS,
        message: TRACE_SIM_TIME_MESSAGE,
    },
    TokenRule {
        rule: HASH_COLLECTIONS,
        idents: &["HashMap", "HashSet", "RandomState"],
        position: Position::Anywhere,
        scope: Scope::Crates(BYTE_PRODUCING_CRATES),
        message: "`{name}` has randomized iteration order; use `BTreeMap`/`BTreeSet` or a \
                  sorted `Vec` so emitted bytes are deterministic",
    },
    TokenRule {
        rule: UNSEEDED_RNG,
        idents: &[
            "thread_rng",
            "ThreadRng",
            "OsRng",
            "from_entropy",
            "getrandom",
        ],
        position: Position::Anywhere,
        scope: Scope::CratesExcept(&[]),
        message: "`{name}` draws OS entropy; all randomness must flow from an explicit \
                  seed (`SimRng`) so runs are reproducible",
    },
    // The fleet supervisor hosts shards in child worker processes by
    // design (the `ProcessShard` backend), and that capability must
    // stay inside it. Any other crate reaching for `Command` is either a
    // victim crate growing an escape hatch or an attacker crate
    // bypassing the supervisor's respawn/checkpoint accounting — both
    // are layering bugs. (`std::process::exit` is fine everywhere: the
    // row matches the `Command` type, not the module.)
    TokenRule {
        rule: PROCESS_SPAWN,
        idents: &["Command"],
        position: Position::PathOrProcessImport,
        scope: Scope::CratesExcept(&["wm-fleet"]),
        message: "`std::process::Command` spawns OS processes; the process-shard \
                  runner must stay inside the fleet supervisor (`wm-fleet`), which \
                  owns respawn and checkpoint accounting for child workers",
    },
    // The online decoder's ingest paths: long-running, fed by an
    // adversarial stream, and required to hold memory bounded by
    // configuration. All growth flows through `wm_core::online::bounded`
    // (whose differently-named admission methods `put`/`admit`/
    // `admit_evict`/`absorb`/`park` never match here); `bounded.rs`
    // itself and the checkpoint codec, which materializes decoded state
    // of already-bounded size, may use the raw APIs.
    TokenRule {
        rule: BOUNDED_BUFFER,
        idents: &[
            "push",
            "push_back",
            "push_front",
            "extend",
            "extend_from_slice",
            "append",
            "insert",
        ],
        position: Position::Method,
        scope: Scope::Files(&[
            "crates/core/src/online/ingest.rs",
            "crates/core/src/online/engine.rs",
        ]),
        message: "`.{name}(…)` grows a buffer without a capacity bound; online ingest \
                  paths must use the `wm_core::online::bounded` admission APIs so memory is \
                  bounded by fixed budgets, not session length",
    },
];

/// Run the token rules over one file's test-stripped tokens, in token
/// order.
pub(crate) fn token_rules(
    crate_name: &str,
    rel_path: &str,
    tokens: &[Token],
    out: &mut Vec<Finding>,
) {
    let rows: Vec<&TokenRule> = TOKEN_RULES
        .iter()
        .filter(|r| r.scope.covers(crate_name, rel_path))
        .collect();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = ident(t) else { continue };
        for row in &rows {
            if row.idents.contains(&name) && row.position.holds(tokens, i) {
                out.push(Finding {
                    rule: row.rule,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: row.message.replace("{name}", name),
                });
            }
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
    line: u32,
}

impl Suppression {
    /// A suppression covers its own line and the next, and matches its
    /// exact rule or a whole family (`allow(panic, ...)` silences every
    /// `panic/*` rule).
    pub(crate) fn silences(&self, f: &Finding) -> bool {
        let rule = f.rule;
        (f.line == self.line || f.line == self.line + 1)
            && (rule == self.rule
                || (rule.len() > self.rule.len()
                    && rule.starts_with(&self.rule)
                    && rule.as_bytes().get(self.rule.len()) == Some(&b'/')))
    }
}

/// Parse `wm-lint: allow(rule, reason = "...")` directives out of the
/// comment stream. Directives without a non-empty reason do not
/// suppress anything; each is reported once into `findings`. Item
/// annotations (`wm-lint: hotpath`, `parse-root`, …) are the item
/// parser's ([`crate::items`]) and are skipped here.
pub(crate) fn parse_suppressions(
    comments: &[Comment],
    file: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut report = |line, message| {
        findings.push(Finding {
            rule: MISSING_REASON,
            file: file.to_string(),
            line,
            message,
        })
    };
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = directive_body(c) else {
            continue;
        };
        if Annotation::parse_directive(rest).is_some() {
            continue;
        }
        let Some(body) = rest.strip_prefix("allow") else {
            report(
                c.line,
                "unrecognized wm-lint directive; expected \
                 `wm-lint: allow(<rule>, reason = \"...\")` or an item annotation \
                 (`hotpath`, `alloc-ok(..)`, `response-path`, `quantizer(..)`, `parse-root`)"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules_v2::tests::{run, wf};

    /// One in-memory file through the one lint pass with no pinned
    /// roots, its findings in (line, rule) order.
    fn lint(crate_name: &str, rel_path: &str, src: &str) -> Vec<Finding> {
        let (mut findings, _) = run(&[wf(crate_name, rel_path, src)]);
        findings.sort_by_key(|f| (f.line, f.rule));
        findings
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // A path outside every path-scoped rule.
    const FIXTURE_PATH: &str = "crates/netflix/src/fixture.rs";

    #[test]
    fn wall_clock_fires_in_byte_producing_crate() {
        let f = lint(
            "wm-player",
            FIXTURE_PATH,
            "fn t() -> Instant { Instant::now() }",
        );
        assert_eq!(rules_of(&f), [WALL_CLOCK]);
        let f = lint(
            "wm-net",
            FIXTURE_PATH,
            "fn t() -> u64 { SystemTime::now().elapsed() }",
        );
        assert_eq!(rules_of(&f), [WALL_CLOCK]);
    }

    #[test]
    fn wall_clock_exempts_bench() {
        let f = lint("wm-bench", FIXTURE_PATH, "let t = Instant::now();");
        assert!(f.is_empty());
    }

    #[test]
    fn instant_in_string_or_comment_is_fine() {
        let src = r#"// Instant::now() is forbidden here
            let s = "Instant::now()";"#;
        assert!(lint("wm-sim", FIXTURE_PATH, src).is_empty());
    }

    #[test]
    fn process_spawn_fires_outside_the_fleet() {
        let f = lint(
            "wm-core",
            "crates/core/src/online/engine.rs",
            "let c = std::process::Command::new(\"worker\").spawn();",
        );
        assert_eq!(rules_of(&f), [PROCESS_SPAWN]);
        let f = lint(
            "wm-netflix",
            FIXTURE_PATH,
            "use std::process::{Command, Stdio};",
        );
        assert_eq!(rules_of(&f), [PROCESS_SPAWN]);
    }

    #[test]
    fn process_spawn_exempts_the_fleet_supervisor() {
        let f = lint(
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
        let f = lint("wm-bench", FIXTURE_PATH, "std::process::exit(1);");
        assert!(f.is_empty(), "{f:?}");
        // A crate-local `Command` used as a bare name (no path, not via
        // the process module) stays legal.
        let f = lint(
            "wm-player",
            FIXTURE_PATH,
            "enum Command { Play, Pause } fn f(c: Command) {}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn trace_sim_time_fires_on_wall_clock_in_trace_module() {
        // `Instant::now()` trips both the generic wall-clock rule and
        // the stricter trace rule.
        let f = lint(
            "wm-telemetry",
            "crates/telemetry/src/trace/recorder.rs",
            "let t = Instant::now();",
        );
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME), "{f:?}");
        assert!(rules_of(&f).contains(&WALL_CLOCK), "{f:?}");
        // Any path through `Instant`, and any mention of `SystemTime`
        // (even a field/signature without `::now()`), fires the trace
        // rule — timestamps must arrive as sim-time integers.
        let f = lint(
            "wm-telemetry",
            "crates/telemetry/src/trace/recorder.rs",
            "let e = start.elapsed(); let z = Instant::from_micros(0);",
        );
        assert_eq!(rules_of(&f), [TRACE_SIM_TIME]);
        let f = lint(
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
        assert!(lint("wm-telemetry", "crates/telemetry/src/trace/export.rs", src).is_empty());
    }

    #[test]
    fn trace_sim_time_is_scoped_to_trace_sources() {
        let src = "struct S { at: SystemTime }";
        let f = lint("wm-player", "crates/player/src/player.rs", src);
        assert!(rules_of(&f).iter().all(|r| *r != TRACE_SIM_TIME), "{f:?}");
        // Within wm-telemetry only the trace module is in scope: the
        // metric `Span` timer's wall clock never stamps a trace event.
        let src = "let t = Instant::now();";
        let f = lint("wm-telemetry", "crates/telemetry/src/metric.rs", src);
        assert!(rules_of(&f).iter().all(|r| *r != TRACE_SIM_TIME), "{f:?}");
        let f = lint(
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
        let f = lint(
            "wm-obs",
            "crates/obs/src/export.rs",
            "let stamp = SystemTime::now();",
        );
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME), "{f:?}");
        let f = lint(
            "wm-obs",
            "crates/obs/src/health.rs",
            "let t = Instant::now();",
        );
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME), "{f:?}");
    }

    #[test]
    fn trace_sim_time_suppressible_with_reason_only() {
        let ok = "struct E { at: SystemTime } // wm-lint: allow(determinism/trace-sim-time, reason = \"doc example\")";
        assert!(lint("wm-telemetry", "crates/telemetry/src/trace/mod.rs", ok).is_empty());
        let bare = "// wm-lint: allow(determinism/trace-sim-time)\nstruct E { at: SystemTime }";
        let f = lint("wm-telemetry", "crates/telemetry/src/trace/mod.rs", bare);
        assert!(rules_of(&f).contains(&MISSING_REASON));
        assert!(rules_of(&f).contains(&TRACE_SIM_TIME));
    }

    #[test]
    fn hash_collections_fire_only_in_byte_producing_crates() {
        let src = "use std::collections::HashMap; fn f() { let m: HashMap<u8, u8>; }";
        let f = lint("wm-tls", FIXTURE_PATH, src);
        assert!(f.iter().all(|f| f.rule == HASH_COLLECTIONS));
        assert_eq!(f.len(), 2);
        // Attacker/utility crates may hash internally (they emit no bytes).
        assert!(lint("wm-telemetry", "crates/telemetry/src/x.rs", src).is_empty());
    }

    #[test]
    fn randomstate_and_hashset_fire() {
        let f = lint(
            "wm-story",
            FIXTURE_PATH,
            "let s: HashSet<u8> = HashSet::default(); let r = RandomState::new();",
        );
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn unseeded_rng_fires_everywhere() {
        for krate in ["wm-core", "wm-sim", "wm-bench"] {
            let f = lint(krate, FIXTURE_PATH, "let mut rng = thread_rng();");
            assert_eq!(rules_of(&f), [UNSEEDED_RNG], "{krate}");
        }
        let f = lint("wm-json", FIXTURE_PATH, "let r = OsRng.next_u64();");
        assert_eq!(rules_of(&f), [UNSEEDED_RNG]);
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
        assert!(lint("wm-sim", "crates/sim/src/x.rs", src).is_empty());
        assert!(lint("wm-tls", FIXTURE_PATH, src).is_empty());
    }

    #[test]
    fn cfg_all_test_is_also_stripped() {
        let src = "#[cfg(all(test, feature = \"x\"))] mod t { fn f() { let m: HashMap<u8, u8>; } }";
        assert!(lint("wm-tls", FIXTURE_PATH, src).is_empty());
    }

    #[test]
    fn code_after_test_mod_is_still_checked() {
        let src = "#[cfg(test)] mod t { fn f() { let m: HashMap<u8, u8>; } }\n\
                   pub fn g() { let s: HashSet<u8>; }";
        let f = lint("wm-tls", FIXTURE_PATH, src);
        assert_eq!(rules_of(&f), [HASH_COLLECTIONS]);
        assert_eq!(f[0].line, 2);
    }

    // The suppression fixtures use a hash collection in a byte-producing
    // crate: a per-file rule that fires on one token.
    const HASHED: &str = "let m: HashSet<u8>;";

    #[test]
    fn suppression_with_reason_silences_same_line() {
        let src = format!(
            "{HASHED} // wm-lint: allow(determinism/hash-collections, reason = \"never iterated\")"
        );
        assert!(lint("wm-tls", FIXTURE_PATH, &src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_next_line() {
        let src = format!(
            "// wm-lint: allow(determinism/hash-collections, reason = \"never iterated\")\n{HASHED}"
        );
        assert!(lint("wm-tls", FIXTURE_PATH, &src).is_empty());
    }

    #[test]
    fn suppression_does_not_reach_two_lines_down() {
        let src = format!(
            "// wm-lint: allow(determinism/hash-collections, reason = \"only covers next line\")\n\
             let a = 1;\n{HASHED}"
        );
        let f = lint("wm-tls", FIXTURE_PATH, &src);
        assert_eq!(rules_of(&f), [HASH_COLLECTIONS]);
    }

    #[test]
    fn suppression_of_other_rule_does_not_silence() {
        let src = format!("// wm-lint: allow(determinism/wall-clock, reason = \"n/a\")\n{HASHED}");
        let f = lint("wm-tls", FIXTURE_PATH, &src);
        assert_eq!(rules_of(&f), [HASH_COLLECTIONS]);
    }

    #[test]
    fn family_suppression_covers_members() {
        let src = format!(
            "// wm-lint: allow(determinism, reason = \"fixture\")\n{HASHED} let t = Instant::now();"
        );
        assert!(lint("wm-tls", FIXTURE_PATH, &src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_reported_and_inert() {
        let src = format!("// wm-lint: allow(determinism/hash-collections)\n{HASHED}");
        let f = lint("wm-tls", FIXTURE_PATH, &src);
        assert_eq!(rules_of(&f), [MISSING_REASON, HASH_COLLECTIONS]);
    }

    #[test]
    fn suppression_with_empty_reason_is_reported() {
        let src =
            format!("// wm-lint: allow(determinism/hash-collections, reason = \"  \")\n{HASHED}");
        let f = lint("wm-tls", FIXTURE_PATH, &src);
        assert!(rules_of(&f).contains(&MISSING_REASON));
    }

    #[test]
    fn item_annotations_are_not_unrecognized_directives() {
        for kw in ["hotpath", "response-path", "parse-root"] {
            let src = format!("// wm-lint: {kw}\npub fn f() {{}}");
            assert!(lint("wm-a", FIXTURE_PATH, &src).is_empty(), "{kw}");
        }
    }

    #[test]
    fn malformed_directive_is_reported() {
        let f = lint(
            "wm-json",
            FIXTURE_PATH,
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
            for path in [
                "crates/core/src/online/ingest.rs",
                "crates/core/src/online/engine.rs",
            ] {
                let f = lint("wm-core", path, src);
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
            let f = lint("wm-core", "crates/core/src/online/ingest.rs", src);
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
            "crates/core/src/online/bounded.rs",
            "crates/core/src/online/checkpoint.rs",
            "crates/core/src/decode.rs",
        ] {
            let f = lint("wm-core", path, src);
            assert!(
                f.iter().all(|f| f.rule != BOUNDED_BUFFER),
                "rule must not apply to {path}: {f:?}"
            );
        }
    }

    #[test]
    fn bounded_buffer_suppressible_with_reason_only() {
        let ok = "v.push(x); // wm-lint: allow(bounded/unbounded-buffer, reason = \"drained same call\")";
        assert!(lint("wm-core", "crates/core/src/online/ingest.rs", ok).is_empty());
        let bare = "// wm-lint: allow(bounded/unbounded-buffer)\nv.push(x);";
        let f = lint("wm-core", "crates/core/src/online/ingest.rs", bare);
        assert!(rules_of(&f).contains(&MISSING_REASON));
        assert!(rules_of(&f).contains(&BOUNDED_BUFFER));
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
        for (victim, attacker) in [
            ("wm-player", "wm-fleet"),
            ("wm-defense", "wm-core"),
            ("wm-sim", "wm-core"),
        ] {
            let m = crate::manifest::parse(&format!(
                "[package]\nname = \"{victim}\"\n[dependencies]\n{attacker}.workspace = true\nwm-tls.workspace = true\n",
            ));
            let f = check_manifest("crates/victim/Cargo.toml", &m);
            assert_eq!(rules_of(&f), [LAYERING], "{victim}");
            assert!(f[0].message.contains(attacker));
            assert!(f[0].message.contains("victim crate"));
        }
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
            "[package]\nname = \"wm-fleet\"\n[dependencies]\nwm-chaos.workspace = true\nwm-core.workspace = true\nwm-pool.workspace = true\nwm-telemetry.workspace = true\n",
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
        // The line-2 wall-clock finding sorts after the line-1
        // hash-collection finding.
        let src = format!("{HASHED}\nlet t = Instant::now();");
        let f = lint("wm-tls", FIXTURE_PATH, &src);
        assert_eq!(rules_of(&f), [HASH_COLLECTIONS, WALL_CLOCK]);
    }
}
