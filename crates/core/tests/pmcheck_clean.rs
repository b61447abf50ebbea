//! pmcheck false-positive suite: the shipped UPSkipList code follows the
//! write → CLWB → SFENCE → publish discipline everywhere (modulo the
//! sanctioned, tagged exemptions), so running real workloads under
//! `PmCheckLevel::Track` must produce **zero rule violations**. Any PMD01
//! here is either a genuine persist-ordering bug in `core` or a detector
//! false positive — both block the PR.

use pmem::{PersistenceMode, PmCheckLevel};
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

fn checked_list(keys_per_node: usize) -> std::sync::Arc<UpSkipList> {
    ListBuilder {
        list: ListConfig::new(8, keys_per_node),
        pool_words: 1 << 18,
        mode: PersistenceMode::Tracked,
        check: PmCheckLevel::Track,
        ..ListBuilder::default()
    }
    .create()
}

fn assert_no_violations(list: &UpSkipList, what: &str) {
    let mut violations = Vec::new();
    for pool in list.space().pools() {
        violations.extend(
            pool.take_check_findings()
                .into_iter()
                .filter(|f| f.rule.is_violation()),
        );
    }
    assert!(
        violations.is_empty(),
        "{what}: pmcheck reported persist-ordering violations on clean code:\n{}",
        violations
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn single_thread_insert_get_remove_is_violation_free() {
    let list = checked_list(8);
    for k in 1..400u64 {
        assert_eq!(list.insert(k * 3, k), None, "insert {k}");
    }
    for k in 1..400u64 {
        assert_eq!(list.get(k * 3), Some(k));
        list.insert(k * 3, k + 1); // update path (CAS on the value slot)
    }
    for k in (1..400u64).step_by(2) {
        assert!(list.remove(k * 3).is_some());
    }
    assert_no_violations(&list, "single-thread insert/get/remove");
}

#[test]
fn concurrent_inserts_are_violation_free() {
    let list = checked_list(4);
    let threads = 4;
    let per = 150u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let list = &list;
            s.spawn(move || {
                for i in 0..per {
                    list.insert(t * 10_000 + i * 7 + 1, i);
                }
            });
        }
    });
    for t in 0..threads {
        for i in 0..per {
            assert_eq!(list.get(t * 10_000 + i * 7 + 1), Some(i));
        }
    }
    assert_no_violations(&list, "concurrent inserts");
}

/// The lost-link-race retry, replayed on one thread: `create_successor`
/// and `split_node` hand a prepared block back through the allocator's
/// outbox when their link CAS loses, and the retry may go straight to a
/// slot-claim CAS in the winner's node with no fence in between. The
/// de-initialised block is reachable from nothing until the outbox's own
/// batch fence, so its unfenced write-back is a declared deferral, not a
/// publish-ordering violation (`concurrent_inserts_are_violation_free`
/// used to trip on exactly this, a few runs in a hundred).
#[test]
fn block_freed_after_a_lost_link_race_does_not_taint_the_retry() {
    let list = checked_list(4);
    assert_eq!(list.insert(10, 1), None);
    let alloc = list.allocator();
    let block = alloc.alloc(list.epoch(), 0, riv::RivPtr::NULL, 99, &*list);
    alloc.free_deferred(list.epoch(), 0, block);
    assert_eq!(list.insert(11, 2), None); // claims a slot next to 10
    assert_eq!(list.insert(11, 3), Some(2)); // value CAS
    assert_no_violations(&list, "retry after a lost link race");
    list.sync();
    assert_no_violations(&list, "the deferred write-back, fenced");
}

#[test]
fn recovery_after_crash_is_violation_free() {
    let list = checked_list(4);
    for k in 1..200u64 {
        list.insert(k, k);
    }
    for pool in list.space().pools() {
        pool.simulate_crash_with(pmem::CrashPlan::KeepUnfencedOnly);
    }
    pmem::discard_pending();
    list.recover();
    // Reads over recovered state + fresh operations in the new epoch.
    let mut live = 0;
    for k in 1..200u64 {
        if list.get(k).is_some() {
            live += 1;
        }
        list.insert(k + 10_000, k);
    }
    assert!(live > 0, "persisted prefix must survive the crash");
    assert_no_violations(&list, "post-crash recovery + new epoch");
}

/// The read caches' core contract, checked at the pmem-op level: a
/// descent that starts from the DRAM image — and, at 256 keys/node, an
/// in-node search steered by the DRAM tags — issues **zero pmem writes**:
/// shadow and tags are consulted, refreshed and rebuilt entirely in DRAM,
/// and the read path never persists anything. Runs under `Track` so a
/// cache that did write (and publish) would also trip PMD01.
#[test]
fn warm_shadow_read_path_makes_zero_pmem_writes() {
    for keys_per_node in [8, 256] {
        let list = ListBuilder {
            list: ListConfig::new(10, keys_per_node),
            pool_words: 1 << 20,
            mode: PersistenceMode::Tracked,
            check: PmCheckLevel::Track,
            obs: upskiplist::ObsLevel::Counters,
            ..ListBuilder::default()
        }
        .create();
        for k in 1..=1_000u64 {
            list.insert(k, k);
        }
        // Warm pass: builds the image and fills the tags (pure reads).
        for k in 1..=1_000u64 {
            list.get(k);
        }
        let writes = || -> u64 { list.space().stats_snapshot().writes };
        let writes_before = writes();
        for round in 0..3u64 {
            for k in 1..=1_000u64 {
                assert_eq!(list.get(k), Some(k), "round {round}");
            }
            assert_eq!(list.get(5_000), None, "miss path is read-only too");
        }
        assert_eq!(
            writes() - writes_before,
            0,
            "cache-assisted gets must not touch pmem with a single write"
        );
        let m = list.struct_metrics();
        assert!(m.shadow_hits > 0, "the warm image must actually be in use");
        assert_eq!(
            m.tag_hits > 0,
            keys_per_node == 256,
            "tags steer large nodes only"
        );
        assert_no_violations(&list, "warm read path");
    }
}

#[test]
fn exempt_tags_seen_at_runtime_are_the_sanctioned_ones() {
    let list = checked_list(4);
    for k in 1..300u64 {
        list.insert(k, k);
        if k % 3 == 0 {
            list.remove(k);
        }
    }
    assert_no_violations(&list, "tag-collection workload");
    let sanctioned = ["node-lock-word", "pmwcas-dirty-bit", "tx-undo-covered"];
    for tag in pmem::check::exempt_tags_used() {
        // Detector unit tests in other processes use their own tags; within
        // this test binary only sanctioned tags may appear.
        assert!(
            sanctioned.contains(&tag),
            "unsanctioned exempt tag observed at runtime: {tag}"
        );
    }
    assert!(pmem::check::exempt_tags_used().contains(&"node-lock-word"));
}
