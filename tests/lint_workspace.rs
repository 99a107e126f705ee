//! Workspace invariant gate: the tier-1 test suite fails if any
//! `wm-lint` rule fires, mirroring the `wm-lint --deny` step CI runs.
//!
//! Keeping this in the root suite means a developer cannot land a
//! wall-clock read in a byte-producing crate, a panic reachable from a
//! parse root, or an attacker→victim dependency without `cargo test`
//! going red locally — no CI round-trip needed.

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
    assert_eq!(
        v2.parse_roots, 25,
        "parse roots drifted from the declared set"
    );
    // The bound sits well above the 320 functions (item-parser count)
    // that the panic family's old path list covered, so the scope
    // cannot shrink back to that size unnoticed.
    assert!(
        v2.panic_scope_fns >= 500,
        "panic-family scope collapsed: {} fns",
        v2.panic_scope_fns
    );
    assert_eq!(
        v2.unsafe_uses, 2,
        "the only `unsafe` blocks are wm-cipher's AVX2 keystream dispatch and wm-core's \
         PCLMULQDQ CRC-32 dispatch (budget 1 each); any other use needs its own reviewed \
         budget"
    );
}

/// Production code is what production reaches. The roots are every
/// binary's `main`, every fn named in `src/`, `examples/` or the
/// benchmark, every fn used as a value and every trait-impl method; a
/// function only tests call belongs in those tests. The ceiling holds
/// the functions kept on purpose (CHANGES.md gives each one's reason),
/// so a new test-only helper in a crate's API fails here.
#[test]
fn unreached_fns_stay_under_the_ceiling() {
    const CEILING: usize = 20;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = wm_lint::scan_workspace(root).expect("scan workspace");
    let unreached = &result.v2.unreached;
    assert!(
        unreached.len() <= CEILING,
        "{} fns no production root reaches (ceiling {CEILING}); move each test-only \
         helper into its test:\n{}",
        unreached.len(),
        unreached.join("\n")
    );
}
