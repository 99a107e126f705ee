//! End-to-end checks for the workspace scanner.
//!
//! Two halves: the real workspace must be clean (this is the same gate
//! CI runs via `wm-lint --deny`), and a synthetic workspace seeded with
//! one violation per rule family must light every rule up — proving the
//! walker, crate classification and parse-root scoping all work outside
//! unit tests.

use std::fs;
use std::path::{Path, PathBuf};

use wm_lint::{rules, rules_v2};

fn workspace_root() -> PathBuf {
    // crates/lint → crates → workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn real_workspace_is_clean() {
    let result = wm_lint::scan_workspace(&workspace_root()).expect("scan");
    assert!(
        result.findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        result
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the scan actually visited the workspace (17 crates of
    // sources + manifests), not an empty directory.
    assert!(
        result.files_scanned > 50,
        "suspiciously few files scanned: {}",
        result.files_scanned
    );
}

#[test]
fn scan_is_deterministic() {
    let root = workspace_root();
    let a = wm_lint::scan_workspace(&root).expect("scan a");
    let b = wm_lint::scan_workspace(&root).expect("scan b");
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.files_scanned, b.files_scanned);
    let ra = wm_lint::report::to_json(&a);
    let rb = wm_lint::report::to_json(&b);
    assert_eq!(ra, rb, "JSON report must be byte-identical across runs");
}

/// Build a throwaway workspace under the target dir with one violation
/// per rule family and check each is reported.
#[test]
fn seeded_violations_all_fire() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wm-lint-fixture");
    let _ = fs::remove_dir_all(&dir);

    let mk = |rel: &str, contents: &str| {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, contents).expect("write fixture");
    };

    // A "victim" byte-producing crate with determinism violations.
    mk("crates/tls/Cargo.toml", "[package]\nname = \"wm-tls\"\n");
    mk(
        "crates/tls/src/lib.rs",
        "pub fn emit() -> u64 {\n\
         let t = Instant::now();\n\
         let m: HashMap<u8, u8> = HashMap::new();\n\
         let r = thread_rng().next_u64();\n\
         0\n}\n",
    );
    // A parse root with panic violations. None of the workspace's
    // pinned parse roots exist here, so each is a missing root too.
    mk("crates/json/Cargo.toml", "[package]\nname = \"wm-json\"\n");
    mk(
        "crates/json/src/de.rs",
        "// wm-lint: parse-root\n\
         pub fn de(b: &[u8]) -> u8 {\n\
         let first = b[0];\n\
         let v = std::str::from_utf8(b).unwrap();\n\
         panic!(\"bad\");\n\
         lenient(b)\n}\n",
    );
    // A suppression without a reason, in a helper the root reaches.
    mk(
        "crates/json/src/lenient.rs",
        "// wm-lint: allow(panic/index)\npub fn lenient(b: &[u8]) -> u8 { b[1] }\n",
    );
    // An attacker crate reaching into the victim stack.
    mk(
        "crates/core/Cargo.toml",
        "[package]\nname = \"wm-core\"\n\n[dependencies]\nwm-player = { path = \"../player\" }\n",
    );
    mk(
        "crates/core/src/lib.rs",
        "pub fn attack() { let _ = std::process::Command::new(\"sh\").spawn(); }\n",
    );

    // A wall-clock type on a trace emit path, even without `::now()`.
    mk(
        "crates/telemetry/Cargo.toml",
        "[package]\nname = \"wm-telemetry\"\n",
    );
    mk(
        "crates/telemetry/src/trace/clock.rs",
        "pub struct Stamp {\n    pub at: SystemTime,\n}\n",
    );
    // Raw growth on an online ingest path, beside an allocation
    // exemption that gives no reason.
    mk(
        "crates/core/src/online/ingest.rs",
        "pub fn accept(queue: &mut Vec<u8>, b: u8) {\n    queue.push(b);\n}\n\
         // wm-lint: alloc-ok\n\
         pub fn setup() -> Vec<u8> {\n    Vec::new()\n}\n",
    );
    // A reasoned suppression silences the hash collection on its line.
    mk(
        "crates/tls/src/quiet.rs",
        "pub fn quiet() {\n\
         let s: HashSet<u8> = HashSet::new(); \
         // wm-lint: allow(determinism/hash-collections, reason = \"never iterated\")\n\
         }\n",
    );

    let result = wm_lint::scan_workspace(&dir).expect("scan fixture");
    let fired: Vec<&str> = result.findings.iter().map(|f| f.rule).collect();
    for rule in [
        rules::WALL_CLOCK,
        rules::TRACE_SIM_TIME,
        rules::BOUNDED_BUFFER,
        rules::HASH_COLLECTIONS,
        rules::UNSEEDED_RNG,
        rules_v2::PANIC_INDEX,
        rules_v2::PANIC_UNWRAP,
        rules_v2::PANIC_MACRO,
        rules_v2::PANIC_MISSING_ROOT,
        rules::MISSING_REASON,
        rules::LAYERING,
        rules::PROCESS_SPAWN,
    ] {
        assert!(
            fired.contains(&rule),
            "expected {rule} to fire; got {fired:?}"
        );
    }
    // The unjustified suppression must not silence the indexing it sits on.
    assert!(
        result
            .findings
            .iter()
            .any(|f| f.rule == rules_v2::PANIC_INDEX && f.file.ends_with("lenient.rs")),
        "reason-less suppression should be inert"
    );
    let at = |rule: &str, file: &str, line: u32| {
        result
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.file == file && f.line == line)
            .count()
    };
    assert_eq!(
        at(
            rules::TRACE_SIM_TIME,
            "crates/telemetry/src/trace/clock.rs",
            2
        ),
        1
    );
    assert_eq!(
        at(rules::BOUNDED_BUFFER, "crates/core/src/online/ingest.rs", 2),
        1
    );
    // Each reason-less directive is reported exactly once: the `allow`
    // and the `alloc-ok` annotation.
    assert_eq!(
        at(rules::MISSING_REASON, "crates/json/src/lenient.rs", 1),
        1
    );
    assert_eq!(
        at(rules::MISSING_REASON, "crates/core/src/online/ingest.rs", 4),
        1
    );
    assert_eq!(
        fired
            .iter()
            .filter(|&&r| r == rules::MISSING_REASON)
            .count(),
        2
    );
    // The reasoned suppression silences its line and nothing else fires
    // in that file.
    assert!(
        result
            .findings
            .iter()
            .all(|f| f.file != "crates/tls/src/quiet.rs"),
        "reasoned suppression should silence its line: {:?}",
        result.findings
    );

    let _ = fs::remove_dir_all(&dir);
}
