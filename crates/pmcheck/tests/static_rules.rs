//! Static-lint true-positive/negative fixtures: each seeded anti-pattern
//! must be caught with the exact rule id on the exact source line, and the
//! corrected variant must scan clean.

use pmcheck::{lint_file, Allowlist};

fn sanctioned() -> Allowlist {
    Allowlist::parse(
        r#"
[[exempt]]
tag = "node-lock-word"
reason = "test fixture"
"#,
    )
    .unwrap()
}

/// `(rule, line)` pairs for the findings in `src` at `path`.
fn hits(path: &str, src: &str) -> Vec<(String, usize)> {
    lint_file(path, src, &sanctioned())
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

#[test]
fn pms01_unflushed_write_is_caught_on_its_line() {
    let src = "use pmem::Pool;\n\
               fn leak(p: &Pool) {\n\
               \x20   p.write(8, 1);\n\
               \x20   p.write(16, 2);\n\
               }\n";
    assert_eq!(hits("crates/demo/src/a.rs", src), vec![("PMS01".into(), 4)]);
}

#[test]
fn pms01_flushed_write_is_clean() {
    let src = "use pmem::Pool;\n\
               fn ok(p: &std::sync::Arc<pmem::Pool>) {\n\
               \x20   p.write(8, 1);\n\
               \x20   p.persist(8, 1);\n\
               }\n";
    assert!(hits("crates/demo/src/a.rs", src).is_empty());
}

#[test]
fn pms02_unfenced_publish_cas_is_caught() {
    let src = "use pmem::Pool;\n\
               fn publish(p: &std::sync::Arc<pmem::Pool>) {\n\
               \x20   p.write(64, 42);\n\
               \x20   p.persist(64, 1);\n\
               \x20   p.write(72, 43);\n\
               \x20   let _ = p.cas(8, 0, 64);\n\
               \x20   p.persist(72, 1);\n\
               }\n";
    // The write at line 5 is unflushed at the CAS on line 6 (its persist
    // comes after the publish) — PMS02; PMS01 stays quiet because a flush
    // does follow the last write before exit.
    assert_eq!(hits("crates/demo/src/a.rs", src), vec![("PMS02".into(), 6)]);
}

#[test]
fn pms02_fenced_publish_and_exempted_publish_are_clean() {
    let fenced = "use pmem::Pool;\n\
                  fn ok(p: &std::sync::Arc<pmem::Pool>) {\n\
                  \x20   p.write(64, 42);\n\
                  \x20   p.persist(64, 1);\n\
                  \x20   let _ = p.cas(8, 0, 64);\n\
                  \x20   p.persist(8, 1);\n\
                  }\n";
    assert!(hits("crates/demo/src/a.rs", fenced).is_empty());
    let exempted = "use pmem::Pool;\n\
                    fn lock(p: &std::sync::Arc<pmem::Pool>) {\n\
                    \x20   let _g = pmem::exempt_scope(\"node-lock-word\");\n\
                    \x20   p.write(8, 1);\n\
                    \x20   let _ = p.cas(16, 0, 1);\n\
                    }\n";
    assert!(hits("crates/demo/src/a.rs", exempted).is_empty());
}

#[test]
fn pms03_relaxed_success_ordering_is_caught() {
    let bad = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn publish(a: &AtomicU64) {\n\
               \x20   let _ = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);\n\
               }\n";
    assert_eq!(hits("crates/demo/src/a.rs", bad), vec![("PMS03".into(), 3)]);
    let good = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                fn publish(a: &AtomicU64) {\n\
                \x20   let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed);\n\
                }\n";
    assert!(hits("crates/demo/src/a.rs", good).is_empty());
}

#[test]
fn pms04_raw_riv_arithmetic_is_caught_outside_riv() {
    let src = "use riv::RivPtr;\n\
               fn sketchy(p: RivPtr) -> RivPtr {\n\
               \x20   RivPtr::from_raw(p.raw() + 8)\n\
               }\n";
    let h = hits("crates/demo/src/a.rs", src);
    assert!(
        h.iter().any(|(r, l)| r == "PMS04" && *l == 3),
        "expected PMS04 at line 3, got {h:?}"
    );
    // The same text inside crates/riv is the helper implementation itself.
    assert!(hits("crates/riv/src/fat.rs", src).is_empty());
    // Arithmetic nested inside a call argument is plain u64 math, not
    // pointer math: `from_raw(pool.read(slot + 2))` must stay clean.
    let nested = "use riv::RivPtr;\n\
                  fn ok(p: &pmem::Pool, slot: u64) -> RivPtr {\n\
                  \x20   RivPtr::from_raw(p.read(slot + 2))\n\
                  }\n";
    assert!(hits("crates/demo/src/a.rs", nested).is_empty());
}

#[test]
fn pms05_crash_test_without_recovery_assert_is_caught() {
    let bad = "use pmem::Pool;\n\
               #[test]\n\
               fn crashes() {\n\
               \x20   let p = Pool::tracked(64);\n\
               \x20   p.write(8, 1);\n\
               \x20   p.persist(8, 1);\n\
               \x20   p.simulate_crash();\n\
               }\n";
    let h = hits("crates/demo/tests/t.rs", bad);
    assert!(
        h.iter().any(|(r, l)| r == "PMS05" && *l == 7),
        "expected PMS05 at line 7, got {h:?}"
    );
    let good = "use pmem::Pool;\n\
                #[test]\n\
                fn crashes() {\n\
                \x20   let p = Pool::tracked(64);\n\
                \x20   p.write(8, 1);\n\
                \x20   p.persist(8, 1);\n\
                \x20   p.simulate_crash();\n\
                \x20   assert_eq!(p.read(8), 1);\n\
                }\n";
    assert!(hits("crates/demo/tests/t.rs", good).is_empty());
}

#[test]
fn pms07_unsanctioned_exempt_tag_is_caught() {
    let src = "fn sneaky(p: &pmem::Pool) {\n\
               \x20   let _g = pmem::exempt_scope(\"rogue-tag\");\n\
               \x20   p.write(8, 1);\n\
               \x20   p.persist(8, 1);\n\
               }\n";
    let h = hits("crates/demo/src/a.rs", src);
    assert!(
        h.iter().any(|(r, l)| r == "PMS07" && *l == 2),
        "expected PMS07 at line 2, got {h:?}"
    );
    // Mentions in comments/docs must not fire.
    let doc = "/// Use `exempt_scope(\"anything-goes\")` for volatile words.\n\
               fn doc_only() {}\n";
    assert!(hits("crates/demo/src/a.rs", doc).is_empty());
}

#[test]
fn workspace_allowlist_parses_and_sanctions_the_known_tags() {
    let allow = Allowlist::workspace();
    for tag in ["node-lock-word", "pmwcas-dirty-bit", "tx-undo-covered"] {
        assert!(
            allow.exempt_tag(tag).is_some(),
            "pmcheck.toml must sanction {tag}"
        );
    }
    assert!(allow.exempt_tag("rogue").is_none());
}

// ---- summary-level rules (PMS08–11) ---------------------------------------
//
// These need the whole-file (or whole-set) summary pass, so they go through
// `lint_sources` rather than `lint_file`.

/// `(rule, file, line)` triples for the findings over a file set.
fn source_hits(files: &[(&str, &str)]) -> Vec<(String, String, usize)> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    pmcheck::lint_sources(&files, &sanctioned())
        .findings
        .into_iter()
        .map(|f| (f.rule.to_string(), f.file.clone(), f.line))
        .collect()
}

#[test]
fn pms08_relaxed_load_of_release_published_atomic_is_caught() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn publish(p: &pmem::Pool, ready: &AtomicU64) {\n\
               \x20   p.write(8, 1);\n\
               \x20   p.persist(8, 1);\n\
               \x20   ready.store(1, Ordering::Release);\n\
               }\n\
               fn consume(p: &pmem::Pool, ready: &AtomicU64) {\n\
               \x20   if ready.load(Ordering::Relaxed) == 1 {\n\
               \x20       p.write(16, 2);\n\
               \x20       p.persist(16, 1);\n\
               \x20   }\n\
               }\n";
    let h = source_hits(&[("crates/demo/src/a.rs", src)]);
    assert_eq!(
        h,
        vec![("PMS08".into(), "crates/demo/src/a.rs".into(), 8)],
        "exactly the Relaxed load in the persisting function"
    );
    // Acquire pairs correctly: clean.
    let fixed = src.replace("Ordering::Relaxed", "Ordering::Acquire");
    assert!(source_hits(&[("crates/demo/src/a.rs", &fixed)]).is_empty());
}

#[test]
fn pms09_mutation_reaching_unlock_without_epoch_bump_is_caught() {
    let src = "impl L {\n\
               \x20   fn remove(&self, node: u64, idx: usize) -> u64 {\n\
               \x20       let old = self.update(node, idx, TOMBSTONE);\n\
               \x20       rwlock::read_unlock(self.space(), node);\n\
               \x20       if old != TOMBSTONE {\n\
               \x20           self.invalidate_structure();\n\
               \x20       }\n\
               \x20       old\n\
               \x20   }\n\
               }\n";
    let h = source_hits(&[("crates/core/src/demo.rs", src)]);
    assert_eq!(
        h,
        vec![("PMS09".into(), "crates/core/src/demo.rs".into(), 3)],
        "the tombstone update reaches the unlock with no bump"
    );
    // Bump moved before the unlock: clean.
    let fixed = "impl L {\n\
                 \x20   fn remove(&self, node: u64, idx: usize) -> u64 {\n\
                 \x20       let old = self.update(node, idx, TOMBSTONE);\n\
                 \x20       if old != TOMBSTONE {\n\
                 \x20           self.invalidate_structure();\n\
                 \x20       }\n\
                 \x20       rwlock::read_unlock(self.space(), node);\n\
                 \x20       old\n\
                 \x20   }\n\
                 }\n";
    assert!(source_hits(&[("crates/core/src/demo.rs", fixed)]).is_empty());
    // Outside crates/core the markers are meaningless: clean.
    assert!(source_hits(&[("crates/demo/src/demo.rs", src)]).is_empty());
}

#[test]
fn pms10_conflicting_lock_order_is_caught_in_both_witnesses() {
    let src = "impl Svc {\n\
               \x20   fn forward(&self) {\n\
               \x20       let a = self.admission.lock().unwrap();\n\
               \x20       let s = self.shards.lock().unwrap();\n\
               \x20   }\n\
               \x20   fn drain(&self) {\n\
               \x20       let s = self.shards.lock().unwrap();\n\
               \x20       let a = self.admission.lock().unwrap();\n\
               \x20   }\n\
               }\n";
    let h = source_hits(&[("crates/service/src/demo.rs", src)]);
    assert_eq!(
        h,
        vec![
            ("PMS10".into(), "crates/service/src/demo.rs".into(), 4),
            ("PMS10".into(), "crates/service/src/demo.rs".into(), 8),
        ],
        "both sides of the admission/shards cycle"
    );
    // Consistent hierarchy: clean.
    let fixed = src.replace(
        "let s = self.shards.lock().unwrap();\n\x20       let a = self.admission.lock().unwrap();",
        "let a = self.admission.lock().unwrap();\n\x20       let s = self.shards.lock().unwrap();",
    );
    assert!(source_hits(&[("crates/service/src/demo.rs", &fixed)]).is_empty());
}

#[test]
fn pms11_volatile_cache_write_before_publish_cas_is_caught() {
    let src = "impl L {\n\
               \x20   fn link(&self, p: &pmem::Pool, node: u64, key: u64) {\n\
               \x20       self.magazine.push(node);\n\
               \x20       let _ = p.cas(8, 0, 64);\n\
               \x20       p.persist(8, 1);\n\
               \x20   }\n\
               }\n";
    let h = source_hits(&[("crates/core/src/demo.rs", src)]);
    assert_eq!(
        h,
        vec![("PMS11".into(), "crates/core/src/demo.rs".into(), 3)],
        "magazine refilled before the persistent commit point"
    );
    // Cache updated after the publish: clean.
    let fixed = "impl L {\n\
                 \x20   fn link(&self, p: &pmem::Pool, node: u64, key: u64) {\n\
                 \x20       let _ = p.cas(8, 0, 64);\n\
                 \x20       p.persist(8, 1);\n\
                 \x20       self.magazine.push(node);\n\
                 \x20   }\n\
                 }\n";
    assert!(source_hits(&[("crates/core/src/demo.rs", fixed)]).is_empty());
}

#[test]
fn pms12_fence_inside_open_flush_epoch_is_caught() {
    // The persist on line 5 fences inside the open epoch: the prepare
    // phase should have queued the CLWB and let the sweep pay the fence.
    let src = "impl L {\n\
               \x20   fn prepare(&self, p: &pmem::Pool) {\n\
               \x20       let ep = pmem::FlushEpoch::open();\n\
               \x20       p.write(8, 1);\n\
               \x20       p.persist(8, 1);\n\
               \x20       ep.sweep();\n\
               \x20       let _ = p.cas(16, 0, 8);\n\
               \x20       p.persist(16, 1);\n\
               \x20   }\n\
               }\n";
    let h = source_hits(&[("crates/core/src/demo.rs", src)]);
    assert_eq!(
        h,
        vec![("PMS12".into(), "crates/core/src/demo.rs".into(), 5)],
        "exactly the in-epoch persist"
    );
    // Deferred to the sweep: clean — and so are the fences outside the
    // window (the publish persist after the sweep).
    let fixed = "impl L {\n\
                 \x20   fn prepare(&self, p: &pmem::Pool) {\n\
                 \x20       let ep = pmem::FlushEpoch::open();\n\
                 \x20       p.write(8, 1);\n\
                 \x20       p.flush_range(8, 1);\n\
                 \x20       ep.sweep();\n\
                 \x20       let _ = p.cas(16, 0, 8);\n\
                 \x20       p.persist(16, 1);\n\
                 \x20   }\n\
                 }\n";
    assert!(source_hits(&[("crates/core/src/demo.rs", fixed)]).is_empty());
    // Outside crates/core and crates/pmalloc the epoch markers are out of
    // scope: clean.
    assert!(source_hits(&[("crates/demo/src/demo.rs", src)]).is_empty());
}

#[test]
fn pms12_sees_fences_buried_in_callees() {
    // `helper` fences; calling it between open and sweep is flagged at the
    // call site via the call graph's `fences` reachability fact.
    let src = "impl L {\n\
               \x20   fn helper(&self, p: &pmem::Pool) {\n\
               \x20       p.write(8, 1);\n\
               \x20       p.persist(8, 1);\n\
               \x20   }\n\
               \x20   fn prepare(&self, p: &pmem::Pool) {\n\
               \x20       let ep = pmem::FlushEpoch::open();\n\
               \x20       self.helper(p);\n\
               \x20       ep.sweep();\n\
               \x20   }\n\
               }\n";
    let h = source_hits(&[("crates/core/src/demo.rs", src)]);
    assert_eq!(
        h,
        vec![("PMS12".into(), "crates/core/src/demo.rs".into(), 8)],
        "the fencing call inside the window"
    );
    // The same call after the sweep is clean.
    let moved = "impl L {\n\
                 \x20   fn helper(&self, p: &pmem::Pool) {\n\
                 \x20       p.write(8, 1);\n\
                 \x20       p.persist(8, 1);\n\
                 \x20   }\n\
                 \x20   fn prepare(&self, p: &pmem::Pool) {\n\
                 \x20       let ep = pmem::FlushEpoch::open();\n\
                 \x20       p.write(16, 2);\n\
                 \x20       p.flush_range(16, 1);\n\
                 \x20       ep.sweep();\n\
                 \x20       self.helper(p);\n\
                 \x20   }\n\
                 }\n";
    assert!(source_hits(&[("crates/core/src/demo.rs", moved)]).is_empty());
}

// ---- parser regressions ----------------------------------------------------

#[test]
fn array_typed_parameters_do_not_hide_the_function_body() {
    // The `;` inside `[RivPtr; 16]` used to read as a bodyless declaration,
    // making every function with an array parameter (the whole tower-link
    // insert path) invisible to every rule.
    let src = "fn leak(p: &pmem::Pool, preds: &mut [riv::RivPtr; 16]) {\n\
               \x20   p.write(8, 1);\n\
               }\n";
    assert_eq!(hits("crates/demo/src/a.rs", src), vec![("PMS01".into(), 2)]);
}

// ---- stripper regressions --------------------------------------------------

#[test]
fn raw_string_write_tokens_do_not_poison_the_scan() {
    let src = "fn doc() -> &'static str {\n\
               \x20   r#\"p.write(8, 1); never flushed \"inner\" text\"#\n\
               }\n";
    assert!(hits("crates/demo/src/a.rs", src).is_empty());
}

#[test]
fn nested_block_comments_are_fully_stripped() {
    let src = "/* outer /* p.write(8, 1) */ still a comment p.write(16, 2) */\n\
               fn ok() {}\n";
    assert!(hits("crates/demo/src/a.rs", src).is_empty());
}

#[test]
fn escaped_quote_char_literal_does_not_hide_later_code() {
    // With the old stripper `'\''` closed on its own escaped quote, leaving
    // the trailing `'` to swallow the rest of the function as a bogus
    // literal — hiding the unflushed write below.
    let src = "fn f(p: &pmem::Pool) {\n\
               \x20   let _q = '\\'';\n\
               \x20   p.write(8, 1);\n\
               }\n";
    assert_eq!(hits("crates/demo/src/a.rs", src), vec![("PMS01".into(), 3)]);
}

#[test]
fn trailing_escaped_quote_string_does_not_panic() {
    // A malformed tail (string opened, escape at EOF) must not panic the
    // byte-walker.
    let src = "fn f() { let _s = \"\\";
    let _ = hits("crates/demo/src/a.rs", src);
}
