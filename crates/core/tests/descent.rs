//! Point operations through the one descent path (index shadow, then the
//! persistent levels) stay correct while the nodes they land on split,
//! lose keys, get reclaimed or pass through a recovery.

use std::sync::Arc;

use upskiplist::{ListBuilder, ListConfig, UpSkipList};

fn small_list() -> Arc<UpSkipList> {
    ListBuilder {
        list: ListConfig::new(8, 4),
        ..ListBuilder::default()
    }
    .create()
}

#[test]
fn recovery_keeps_every_key_reachable() {
    let l = small_list();
    l.insert(10, 100);
    assert_eq!(l.get(10), Some(100));
    // Simulated restart: the epoch bump sends the first descent through
    // the deferred recovery claims.
    l.recover();
    assert_eq!(l.get(10), Some(100));
    l.check_invariants();
}

#[test]
fn compaction_then_block_reuse_keeps_answers_correct() {
    let l = small_list();
    for k in 1..=40u64 {
        l.insert(k, k);
    }
    assert_eq!(l.get(35), Some(35));
    for k in 20..=40u64 {
        l.remove(k);
    }
    let reclaimed = l.compact();
    assert!(reclaimed > 0, "compaction reclaimed nothing");
    // The freed blocks come back as new nodes in another key range.
    for k in 100..=140u64 {
        l.insert(k, k + 1);
    }
    for k in 100..=140u64 {
        assert_eq!(l.get(k), Some(k + 1));
    }
    assert_eq!(l.get(20), None);
    l.check_invariants();
}

#[test]
fn lookups_stay_correct_across_node_splits() {
    // keys_per_node = 4: inserting interleaved keys forces repeated splits
    // of exactly the nodes the previous lookup landed on. The split-count
    // protocol plus immutable keys[0] must keep every descent correct.
    let l = small_list();
    for k in (10..=400u64).step_by(10) {
        l.insert(k, k);
    }
    for k in (10..=400u64).step_by(10) {
        assert_eq!(l.get(k), Some(k), "pre-split key {k}");
        for d in 1..=4u64 {
            l.insert(k + d, k + d);
        }
        assert_eq!(l.get(k + 4), Some(k + 4), "post-split key {}", k + 4);
    }
    for k in (10..=400u64).step_by(10) {
        for d in 0..=4u64 {
            assert_eq!(l.get(k + d), Some(k + d));
        }
    }
    l.check_invariants();
}

#[test]
fn remove_then_reinsert_is_seen_by_the_next_lookup() {
    let l = small_list();
    for k in 1..=32u64 {
        l.insert(k, k);
    }
    // get → remove → get → insert → get on one key, back to back, so every
    // descent lands on a node the previous operation just changed.
    for k in 1..=32u64 {
        assert_eq!(l.get(k), Some(k));
        assert_eq!(l.remove(k), Some(k));
        assert_eq!(l.get(k), None, "tombstoned key {k} visible");
        assert_eq!(l.insert(k, k * 7), None);
        assert_eq!(l.get(k), Some(k * 7), "reinserted key {k} missed");
    }
    l.check_invariants();
}

#[test]
fn concurrent_mixed_ops_match_oracle() {
    // Several threads over disjoint key ranges, then every stream's final
    // state is checked exactly.
    let l = small_list();
    let threads = 4u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let l = Arc::clone(&l);
            s.spawn(move || {
                pmem::thread::register(t as usize, 0);
                let base = t * 10_000;
                for i in 1..=500u64 {
                    let k = base + i;
                    assert_eq!(l.insert(k, k), None);
                    assert_eq!(l.get(k), Some(k));
                    if i % 3 == 0 {
                        assert_eq!(l.remove(k), Some(k));
                    }
                }
            });
        }
    });
    for t in 0..threads {
        let base = t * 10_000;
        for i in 1..=500u64 {
            let k = base + i;
            let expect = if i % 3 == 0 { None } else { Some(k) };
            assert_eq!(l.get(k), expect);
        }
    }
    l.check_invariants();
}
