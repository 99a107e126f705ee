//! Workspace invariant gate: the tier-1 test suite fails if any
//! `wm-lint` rule fires, mirroring the `wm-lint --deny` step CI runs.
//!
//! Keeping this in the root suite means a developer cannot land a
//! wall-clock read in a byte-producing crate, a panicking parse path,
//! or an attacker→victim dependency without `cargo test` going red
//! locally — no CI round-trip needed.

#[test]
fn workspace_passes_wm_lint_deny() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = wm_lint::scan_workspace(root).expect("scan workspace");
    assert!(
        result.findings.is_empty(),
        "wm-lint found {} violation(s):\n{}\n\
         (suppress only with `// wm-lint: allow(<rule>, reason = \"...\")` and a real reason)",
        result.findings.len(),
        result
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The v2 families must actually be *running*, not vacuously green: a
/// broken item parser or an empty call graph would zero out every
/// workspace rule while the gate above stays silent. Pin the scan
/// summary to the workspace's known shape.
#[test]
fn workspace_v2_analysis_is_live() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = wm_lint::scan_workspace(root).expect("scan workspace");
    let v2 = &result.v2;
    assert!(
        v2.graph_fns > 500 && v2.graph_edges > 1000,
        "call graph collapsed: {} fns / {} edges",
        v2.graph_fns,
        v2.graph_edges
    );
    assert_eq!(
        v2.hotpath_roots, 9,
        "hot-path roots drifted from the declared set"
    );
    assert!(
        v2.hotpath_reachable >= 50,
        "no-alloc envelope collapsed: {} fns",
        v2.hotpath_reachable
    );
    assert_eq!(
        v2.response_roots, 2,
        "response roots drifted from the declared set"
    );
    assert!(
        v2.taint_reachable >= 20,
        "length-taint envelope collapsed: {} fns",
        v2.taint_reachable
    );
    assert_eq!(v2.unsafe_uses, 0, "the workspace is supposed to be safe");
}
