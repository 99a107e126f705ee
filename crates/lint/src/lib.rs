//! # wm-lint — workspace invariant checker
//!
//! The White Mirror pipeline rests on three invariants that ordinary
//! compilation cannot enforce:
//!
//! 1. **Determinism.** Golden-trace and byte-identity tests only prove
//!    something if the same seed always produces the same bytes, so
//!    byte-producing crates must not read wall clocks or iterate
//!    randomized hash collections, and nothing may draw unseeded
//!    entropy.
//! 2. **Panic-safety.** Code that parses attacker- or disk-supplied
//!    bytes must return typed errors rather than panic. Its entry points
//!    are marked `// wm-lint: parse-root`, and the rule covers every
//!    file holding code the call graph reaches from one.
//! 3. **Layering.** Attacker crates model an on-path observer; their
//!    declared dependencies are confined to the capture window and
//!    public vocabulary so the attack cannot quietly cheat by reaching
//!    into victim internals.
//!
//! `wm-lint` enforces all three with a lightweight Rust lexer
//! ([`lexer`]), a table of token rules and the policy lists
//! ([`rules`]), a call graph over an item view ([`callgraph`],
//! [`items`]) for the rules that reach across files, and a minimal
//! manifest reader ([`manifest`]). It walks every `crates/*/src` file
//! plus each crate's `Cargo.toml`. One pass ([`rules_v2`]) lexes each
//! source once, skips `#[cfg(test)]` items, runs the token rules and
//! the call-graph families, and honours inline
//! `// wm-lint: allow(<rule>, reason = "...")` suppressions. It can
//! emit a machine-readable JSON report ([`report`]). The binary's
//! `--deny` mode (exit 1 on any finding) is wired into CI.

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod rules_v2;

pub use rules::Finding;
pub use rules_v2::V2Summary;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Outcome of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files inspected (sources + manifests).
    pub files_scanned: usize,
    /// Headline numbers from the call-graph (v2) pass.
    pub v2: V2Summary,
    /// Rust lines in the whole tree, not only the linted sources.
    pub rust_lines: RustLines,
}

/// Rust line counts over every `.rs` file under the root, outside
/// `target/`, `pipeline_ledger/` and hidden directories. A file under a
/// `tests/` directory is test code, and so is everything from a file's
/// first line that reads `#[cfg(test)]`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RustLines {
    pub non_test: usize,
    pub test: usize,
}

/// Scan the workspace rooted at `root` (the directory containing
/// `crates/`). The walk order is sorted, so output is deterministic.
/// Checks each manifest as it is read, then runs the one lint pass
/// ([`rules_v2::check_workspace`]) over every source.
pub fn scan_workspace(root: &Path) -> io::Result<ScanResult> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut result = ScanResult::default();
    let mut sources: Vec<rules_v2::WorkspaceFile> = Vec::new();
    let mut deps: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for dir in &crate_dirs {
        scan_crate(root, dir, &mut result, &mut sources, &mut deps)?;
    }

    let named = named_outside(root)?;
    let (v2_findings, v2_summary) =
        rules_v2::check_workspace(&sources, &deps, &named, &rules_v2::V2Config::default());
    result.findings.extend(v2_findings);
    result.v2 = v2_summary;
    result.rust_lines = rust_lines(root)?;

    result
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(result)
}

fn scan_crate(
    root: &Path,
    dir: &Path,
    result: &mut ScanResult,
    sources_out: &mut Vec<rules_v2::WorkspaceFile>,
    deps_out: &mut BTreeMap<String, Vec<String>>,
) -> io::Result<()> {
    let manifest_path = dir.join("Cargo.toml");
    let mut crate_name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if let Ok(text) = fs::read_to_string(&manifest_path) {
        let m = manifest::parse(&text);
        if !m.name.is_empty() {
            crate_name = m.name.clone();
        }
        result.files_scanned += 1;
        result
            .findings
            .extend(rules::check_manifest(&rel(root, &manifest_path), &m));
        // Call-graph visibility: normal and build deps only — test
        // items are stripped before analysis, so dev-deps never carry
        // shipping-code calls.
        deps_out.insert(
            crate_name.clone(),
            m.dependencies
                .iter()
                .chain(&m.build_dependencies)
                .map(|d| d.name.clone())
                .collect(),
        );
    }

    let src_dir = dir.join("src");
    if !src_dir.is_dir() {
        return Ok(());
    }
    let mut sources = Vec::new();
    collect_rs(&src_dir, &mut sources)?;
    for path in sources {
        // Non-UTF-8 sources cannot be valid Rust; read lossily so the
        // lint still sees whatever decodes.
        let bytes = fs::read(&path)?;
        let src = String::from_utf8_lossy(&bytes);
        result.files_scanned += 1;
        sources_out.push(rules_v2::WorkspaceFile {
            crate_name: crate_name.clone(),
            rel_path: rel(root, &path),
            src: src.into_owned(),
        });
    }
    Ok(())
}

/// Directories of production code outside the linted crates: the root
/// package's binaries, the examples and the benchmark. They are read
/// only for the names they use.
const NAMED_ROOT_DIRS: &[&str] = &["src", "examples", "pipeline_ledger/src"];

/// Every identifier the non-test code under [`NAMED_ROOT_DIRS`] uses,
/// outside `use` items: an import or re-export calls nothing, and a
/// name that is used is also written where it is used.
fn named_outside(root: &Path) -> io::Result<BTreeSet<String>> {
    let mut files = Vec::new();
    for dir in NAMED_ROOT_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut named = BTreeSet::new();
    for path in files {
        let bytes = fs::read(&path)?;
        let tokens = rules::strip_test_items(&lexer::lex(&String::from_utf8_lossy(&bytes)).tokens);
        let mut in_use = false;
        for t in &tokens {
            match &t.tok {
                lexer::Tok::Ident(w) if w == "use" => in_use = true,
                lexer::Tok::Punct(';') => in_use = false,
                lexer::Tok::Ident(w) if !in_use => {
                    named.insert(w.clone());
                }
                _ => {}
            }
        }
    }
    Ok(named)
}

fn rust_lines(root: &Path) -> io::Result<RustLines> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    let mut lines = RustLines::default();
    for path in files {
        let bytes = fs::read(&path)?;
        let src = String::from_utf8_lossy(&bytes);
        let total = src.lines().count();
        let in_tests = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .any(|c| c.as_os_str() == "tests");
        let non_test = if in_tests {
            0
        } else {
            src.lines()
                .position(|l| l.trim() == "#[cfg(test)]")
                .unwrap_or(total)
        };
        lines.non_test += non_test;
        lines.test += total - non_test;
    }
    Ok(lines)
}

/// Recursively collect `.rs` files under `dir`, sorted at every level,
/// skipping build output (`target/`), the benchmark's own workspace
/// (`pipeline_ledger/`) and hidden directories.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name != "target" && name != "pipeline_ledger" && !name.starts_with('.') {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators.
fn rel(root: &Path, path: &Path) -> String {
    let r = path.strip_prefix(root).unwrap_or(path);
    r.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rust_lines_split_test_code_and_skip_build_output() {
        let root = std::env::temp_dir().join(format!("wm_lint_lines_{}", std::process::id()));
        let files = [
            (
                "crates/a/src/lib.rs",
                "fn a() {}\n\n#[cfg(test)]\nmod t {}\n",
            ),
            ("crates/a/tests/t.rs", "#[test]\nfn t() {}\n"),
            ("src/main.rs", "fn main() {}\n"),
            ("target/gen.rs", "fn skipped() {}\n"),
            ("pipeline_ledger/src/main.rs", "fn skipped() {}\n"),
            (".hidden/x.rs", "fn skipped() {}\n"),
            ("crates/a/README.md", "not rust\n"),
        ];
        for (rel, src) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, src).unwrap();
        }
        let lines = rust_lines(&root).unwrap();
        fs::remove_dir_all(&root).ok();
        assert_eq!(
            lines,
            RustLines {
                non_test: 3,
                test: 4
            }
        );
    }
}
