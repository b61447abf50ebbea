//! Interprocedural dataflow fixtures: call-graph proofs that discharge
//! intra-procedural findings, and findings only the call graph can see.

use pmcheck::{lint_sources, Allowlist, SourceLint};

fn scan(files: &[(&str, &str)]) -> SourceLint {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_sources(&files, &Allowlist::parse("").unwrap())
}

fn rules_at(lint: &SourceLint) -> Vec<(String, usize)> {
    lint.findings
        .iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

#[test]
fn caller_persists_proof_discharges_the_helper_pms01() {
    // `carve` leaves its writes unflushed; its only caller persists right
    // after the call, so the call graph proves the helper safe.
    let src = "fn carve(p: &pmem::Pool, off: u64) {\n\
               \x20   p.write(off, 1);\n\
               \x20   p.write(off + 1, 2);\n\
               }\n\
               fn install(p: &pmem::Pool) {\n\
               \x20   carve(p, 64);\n\
               \x20   p.persist(64, 2);\n\
               }\n";
    let lint = scan(&[("crates/demo/src/a.rs", src)]);
    assert!(lint.findings.is_empty(), "{:?}", lint.findings);
    assert_eq!(lint.proven.len(), 1, "{:?}", lint.proven);
    let (f, proof) = &lint.proven[0];
    assert_eq!((f.rule, f.line, f.function.as_str()), ("PMS01", 3, "carve"));
    assert!(proof.contains("call-graph proof"), "{proof}");
}

#[test]
fn unflushed_call_escaping_the_caller_is_interprocedural_pms01() {
    // Neither the helper nor its caller flushes: the helper keeps its
    // intra finding and the caller gains the interprocedural one at the
    // call site.
    let src = "fn carve(p: &pmem::Pool, off: u64) {\n\
               \x20   p.write(off, 1);\n\
               }\n\
               fn install(p: &pmem::Pool) {\n\
               \x20   carve(p, 64);\n\
               }\n";
    let lint = scan(&[("crates/demo/src/a.rs", src)]);
    assert_eq!(
        rules_at(&lint),
        vec![("PMS01".into(), 2), ("PMS01".into(), 5)],
        "helper write (intra) and call site (interprocedural)"
    );
    assert!(lint.proven.is_empty());
}

#[test]
fn publish_over_callee_dirtied_lines_is_interprocedural_pms02() {
    // The caller flushes at exit (so no PMS01 anywhere), but the publish
    // CAS runs while `carve`'s writes may still be in cache.
    let src = "fn carve(p: &pmem::Pool, off: u64) {\n\
               \x20   p.write(off, 1);\n\
               }\n\
               fn install(p: &pmem::Pool) {\n\
               \x20   carve(p, 64);\n\
               \x20   let _ = p.cas(8, 0, 64);\n\
               \x20   p.persist(64, 1);\n\
               \x20   p.persist(8, 1);\n\
               }\n";
    let lint = scan(&[("crates/demo/src/a.rs", src)]);
    assert_eq!(
        rules_at(&lint),
        vec![("PMS02".into(), 6)],
        "publish at line 6 over carve's unflushed writes"
    );
}

#[test]
fn crash_helper_with_asserting_callers_is_proven() {
    // Mirrors pmalloc's tear_slot: a non-test crash helper inside a tests
    // file, with every test caller asserting (or exercising) recovery.
    let tests = "fn tear(p: &pmem::Pool) {\n\
                 \x20   p.write(8, 1);\n\
                 \x20   p.simulate_crash_with(CrashPlan::KeepAll);\n\
                 }\n\
                 #[test]\n\
                 fn torn_residue_is_skipped() {\n\
                 \x20   let p = build();\n\
                 \x20   tear(&p);\n\
                 \x20   assert_eq!(p.read(8), 0);\n\
                 }\n";
    let lint = scan(&[("crates/demo/tests/t.rs", tests)]);
    let pms05: Vec<_> = lint.findings.iter().filter(|f| f.rule == "PMS05").collect();
    assert!(pms05.is_empty(), "{pms05:?}");
    assert!(
        lint.proven
            .iter()
            .any(|(f, _)| f.rule == "PMS05" && f.function == "tear"),
        "{:?}",
        lint.proven
    );
}

#[test]
fn test_calling_crash_helper_and_stopping_is_interprocedural_pms05() {
    let helper = "fn tear(p: &pmem::Pool) {\n\
                  \x20   p.write(8, 1);\n\
                  \x20   p.simulate_crash_with(CrashPlan::KeepAll);\n\
                  }\n";
    let tests = "#[test]\n\
                 fn proves_nothing() {\n\
                 \x20   let p = build();\n\
                 \x20   tear(&p);\n\
                 }\n";
    let lint = scan(&[
        ("crates/demo/src/a.rs", helper),
        ("crates/demo/tests/t.rs", tests),
    ]);
    let got: Vec<_> = lint
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert!(
        got.contains(&("PMS05", "crates/demo/tests/t.rs", 4)),
        "expected interprocedural PMS05 at the tear() call: {got:?}"
    );
}

#[test]
fn callee_flush_does_not_close_the_callers_direct_write() {
    // `log_commit` ends flushed, but its persist covers its own range,
    // not the word `update` wrote: the write at line 2 stays PMS01, and
    // the publish CAS in `publish` still runs over an unflushed write.
    let src = "fn update(p: &pmem::Pool) {\n\
               \x20   p.write(64, 7);\n\
               \x20   log_commit(p);\n\
               }\n\
               fn log_commit(p: &pmem::Pool) {\n\
               \x20   p.write(0, 1);\n\
               \x20   p.persist(0, 1);\n\
               }\n\
               fn publish(p: &pmem::Pool) {\n\
               \x20   p.write(64, 7);\n\
               \x20   log_commit(p);\n\
               \x20   let _ = p.cas(8, 0, 64);\n\
               \x20   p.persist(64, 1);\n\
               }\n";
    let lint = scan(&[("crates/demo/src/a.rs", src)]);
    assert_eq!(
        rules_at(&lint),
        vec![("PMS01".into(), 2), ("PMS02".into(), 12)],
        "{:?}",
        lint.findings
    );
    assert!(lint.proven.is_empty(), "{:?}", lint.proven);
}

#[test]
fn direct_crash_needs_recovery_even_when_a_helper_call_follows() {
    // The helper call after the direct crash is followed by an API call,
    // which covers the helper; the direct `simulate_crash` at line 4 still
    // has no recovery assertion after it.
    let helper = "fn tear(p: &pmem::Pool) {\n\
                  \x20   p.write(8, 1);\n\
                  \x20   p.simulate_crash_with(CrashPlan::KeepAll);\n\
                  }\n";
    let tests = "#[test]\n\
                 fn crash_then_tear() {\n\
                 \x20   let p = build();\n\
                 \x20   p.simulate_crash();\n\
                 \x20   tear(&p);\n\
                 \x20   list.get(1);\n\
                 }\n";
    let lint = scan(&[
        ("crates/demo/src/a.rs", helper),
        ("crates/demo/tests/t.rs", tests),
    ]);
    let got: Vec<_> = lint
        .findings
        .iter()
        .filter(|f| f.file == "crates/demo/tests/t.rs")
        .map(|f| (f.rule, f.line))
        .collect();
    assert_eq!(got, vec![("PMS05", 4)], "{:?}", lint.findings);
}

#[test]
fn test_module_fixture_does_not_dirty_production_calls_of_its_name() {
    // `insert` in the test module writes unflushed on purpose (a fixture
    // for a lost-ack check). Only test builds compile it, so `load`'s call
    // resolves to the production `insert`, which persists.
    let prod = "fn insert(p: &pmem::Pool) {\n\
                \x20   p.write(8, 1);\n\
                \x20   p.persist(8, 1);\n\
                }\n\
                fn load(p: &pmem::Pool) {\n\
                \x20   insert(p);\n\
                }\n";
    let fixture = "use pmem::Pool;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   struct Unflushed(Pool);\n\
                   \x20   impl Unflushed {\n\
                   \x20       fn insert(&self) {\n\
                   \x20           self.0.write(8, 1);\n\
                   \x20       }\n\
                   \x20   }\n\
                   }\n";
    let lint = scan(&[
        ("crates/demo/src/a.rs", prod),
        ("crates/demo/src/b.rs", fixture),
    ]);
    let prod_findings: Vec<_> = lint
        .findings
        .iter()
        .filter(|f| f.file == "crates/demo/src/a.rs")
        .collect();
    assert!(prod_findings.is_empty(), "{prod_findings:?}");
}
