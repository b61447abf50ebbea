//! Point operations through the one descent path (index shadow, then the
//! persistent levels) stay correct while the nodes they land on split,
//! lose keys, get reclaimed or pass through a recovery. A reader's descent
//! consults only the image's base level; the writer's fills every level,
//! and the towers it builds must come out whole either way.

use std::sync::Arc;

use pmem::{run_crashable, CrashPlan, PersistenceMode};
use riv::RivPtr;
use upskiplist::layout::{key_off, next_off_cfg, N_HEIGHT};
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

fn next(list: &UpSkipList, node: RivPtr, level: usize) -> RivPtr {
    let off = next_off_cfg(list.config(), level);
    RivPtr::from_raw(list.space().read(node.add(off as u32)))
}

/// `keys[0]` of every node missing from a level below its height
/// (quiescent use only).
fn incomplete_towers(list: &UpSkipList) -> Vec<u64> {
    let key0 = |node: RivPtr| {
        list.space()
            .read(node.add(key_off(list.config(), 0) as u32))
    };
    let mut linked = std::collections::HashSet::new();
    for level in 1..list.config().max_height {
        let mut cur = next(list, list.head(), level);
        while cur != list.tail() {
            linked.insert((cur, level));
            cur = next(list, cur, level);
        }
    }
    let mut torn = Vec::new();
    let mut cur = next(list, list.head(), 0);
    while cur != list.tail() {
        let height = list.space().read(cur.add(N_HEIGHT as u32)) as usize;
        if (1..height).any(|level| !linked.contains(&(cur, level))) {
            torn.push(key0(cur));
        }
        cur = next(list, cur, 0);
    }
    torn
}

#[test]
fn inserts_after_reader_descents_build_whole_towers() {
    for kpn in [16usize, 256] {
        let l = ListBuilder {
            list: ListConfig::new(12, kpn),
            ..ListBuilder::default()
        }
        .create();
        let n = kpn as u64 * 8;
        for k in 1..=n {
            l.insert(k * 16, k);
        }
        // Warm the image with reader descents, then split every node
        // several times over with keys between the loaded ones, a get
        // after each insert keeping the image in use.
        for k in 1..=n {
            assert_eq!(l.get(k * 16), Some(k));
        }
        let splits0 = l.registry().snapshot().counter("list.node_splits");
        for i in 0..n * 4 {
            let k = 1 + (i * 7_919) % (n * 16);
            if !k.is_multiple_of(16) {
                l.insert(k, k);
                assert_eq!(l.get(k), Some(k), "{kpn} keys/node: key {k}");
            }
        }
        assert!(
            l.registry().snapshot().counter("list.node_splits") > splits0 + n / kpn as u64,
            "{kpn} keys/node: too few splits"
        );
        l.check_invariants();
        assert_eq!(
            incomplete_towers(&l),
            Vec::<u64>::new(),
            "{kpn} keys/node: nodes missing from their own levels"
        );
        for k in 1..=n {
            assert_eq!(l.get(k * 16), Some(k));
        }
    }
}

/// A crash after a split has published its new node on level 0 but before
/// the node's tower is linked: gets alone must finish the tower, through
/// the recovery claim a reader's descent makes when it meets the node.
#[test]
fn gets_complete_a_tower_a_crash_cut_short() {
    pmem::crash::silence_crash_panics();
    for kpn in [16usize, 256] {
        let mut repaired = 0;
        for crash_after in 1u64.. {
            let l = ListBuilder {
                list: ListConfig::new(10, kpn),
                pool_words: 1 << 20,
                mode: PersistenceMode::Tracked,
                ..ListBuilder::default()
            }
            .create();
            let keys: Vec<u64> = (1..=kpn as u64).map(|k| k * 10).collect();
            for &k in &keys {
                l.insert(k, k);
            }
            l.sync();
            assert_eq!(l.node_count(), 1);
            assert_eq!(l.get(keys[0]), Some(keys[0]));
            let ctl = Arc::clone(l.space().pool(0).crash_controller());
            ctl.arm_after(crash_after);
            let done = run_crashable(|| l.insert(15, 15)).is_ok();
            ctl.disarm();
            if done || repaired == 16 {
                break; // past the split's last crash point, or seen enough
            }
            for p in l.space().pools() {
                p.simulate_crash_with(CrashPlan::DropAll);
            }
            pmem::discard_pending();
            l.recover();
            if l.node_count() < 2 || incomplete_towers(&l).is_empty() {
                continue; // not between the level-0 link and the tower
            }
            // Gets only, present and absent keys, in ascending order.
            for &k in &keys {
                assert_eq!(l.get(k), Some(k), "{kpn} keys/node, crash@{crash_after}");
                assert_eq!(l.get(k + 1), None);
            }
            assert_eq!(
                incomplete_towers(&l),
                Vec::<u64>::new(),
                "{kpn} keys/node, crash@{crash_after}: gets left a tower unfinished"
            );
            l.check_invariants();
            repaired += 1;
        }
        assert!(repaired > 0, "{kpn} keys/node: no crash cut a tower short");
    }
}
