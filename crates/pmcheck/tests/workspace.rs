//! The lint's verdict on the real workspace, pinned by `(rule, file,
//! function)`: no violations, the two sanctioned in-epoch fences, and the
//! eight findings the call-graph proofs discharge. A lost proof, a new
//! allowlisted site or a new violation each fail here.

use std::path::Path;

fn keys<'a>(
    findings: impl Iterator<Item = &'a pmcheck::Finding>,
) -> Vec<(&'a str, &'a str, &'a str)> {
    let mut v: Vec<_> = findings
        .map(|f| (f.rule, f.file.as_str(), f.function.as_str()))
        .collect();
    v.sort();
    v
}

#[test]
fn workspace_lint_outcome_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = pmcheck::lint_workspace(&root).expect("workspace lint runs");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert!(report.stale_allows.is_empty(), "{:?}", report.stale_allows);
    assert_eq!(
        keys(report.allowed.iter().map(|(f, _)| f)),
        [
            ("PMS12", "crates/core/src/ops.rs", "create_successor"),
            ("PMS12", "crates/core/src/ops.rs", "split_node"),
        ]
    );
    assert_eq!(
        keys(report.proven.iter().map(|(f, _)| f)),
        [
            ("PMS01", "crates/core/src/list.rs", "init_node"),
            ("PMS01", "crates/core/src/list.rs", "init_sentinel"),
            ("PMS01", "crates/core/src/ops.rs", "populate_next_pointers"),
            (
                "PMS01",
                "crates/pmalloc/src/alloc.rs",
                "space_write_unresolved"
            ),
            ("PMS01", "crates/riv/src/fat.rs", "store"),
            ("PMS01", "crates/riv/src/space.rs", "fetch_add"),
            ("PMS01", "crates/riv/src/space.rs", "write"),
            (
                "PMS05",
                "crates/pmalloc/tests/crash_recovery.rs",
                "tear_slot"
            ),
        ]
    );
}
