//! Shadow staleness: the DRAM index shadow is a hint cache, and these
//! tests drive it stale on purpose — concurrent splits and removes under
//! readers, compaction under a warm image, and power failures under every
//! crash-residue policy — to pin the two properties the design leans on:
//!
//! 1. A stale shadow can only cost extra hops, never wrong results.
//! 2. The shadow is rebuilt from the persistent bottom levels on every
//!    open/recover path; it is never itself recovered.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use lincheck::{merge, OpKind, ThreadLog, Ticket, EMPTY};
use pmem::{CrashPlan, ObsLevel, PersistenceMode};
use riv::RivPtr;
use upskiplist::layout::{key_off, next_off_cfg};
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

fn build(height: usize, kpn: usize, pool_words: u64, tracked: bool) -> Arc<UpSkipList> {
    ListBuilder {
        list: ListConfig::new(height, kpn),
        pool_words,
        mode: if tracked {
            PersistenceMode::Tracked
        } else {
            PersistenceMode::Fast
        },
        obs: ObsLevel::Counters,
        ..ListBuilder::default()
    }
    .create()
}

/// Every bottom-level node, by its immutable first key, with the keys it
/// holds — read straight from pmem (quiescent use only).
fn bottom_level(list: &UpSkipList) -> BTreeMap<u64, Vec<u64>> {
    let cfg = *list.config();
    let word = |node: RivPtr, off: u64| list.space().read(node.add(off as u32));
    let mut out = BTreeMap::new();
    let mut cur = RivPtr::from_raw(word(list.head(), next_off_cfg(&cfg, 0)));
    while cur != list.tail() {
        let keys: Vec<u64> = (0..cfg.keys_per_node)
            .map(|i| word(cur, key_off(&cfg, i)))
            .filter(|&k| k != 0)
            .collect();
        out.insert(word(cur, key_off(&cfg, 0)), keys);
        cur = RivPtr::from_raw(word(cur, next_off_cfg(&cfg, 0)));
    }
    out
}

/// Warm the shadow: descents lazily build the image, so a read sweep
/// leaves it populated (unless the list is too flat to mirror anything).
fn warm(list: &Arc<UpSkipList>, keys: impl Iterator<Item = u64>) {
    for k in keys {
        list.get(k);
    }
}

#[test]
fn stale_shadow_readers_stay_correct_under_splits_and_removes() {
    // Odd keys are the stable set readers check; writers insert even keys
    // (forcing node splits that invalidate the shadow mid-read) and
    // remove a disjoint slice of high keys (forcing tombstone
    // invalidations). Small nodes make splits frequent.
    let list = build(12, 4, 1 << 22, false);
    let stable_max = 4_000u64;
    for k in (1..=stable_max).step_by(2) {
        list.insert(k, k * 10);
    }
    for k in (stable_max + 1)..=(stable_max + 1_000) {
        list.insert(k, 1);
    }
    warm(&list, (1..=stable_max).step_by(2));
    assert!(
        list.shadow_entries() > 0,
        "read sweep must have built the image"
    );

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Splitter: fill in the even keys, splitting nodes under readers.
        for t in 0..2u64 {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                pmem::thread::register(t as usize, 0);
                for k in ((2 + 2 * t)..=stable_max).step_by(4) {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    list.insert(k, k * 100);
                }
            });
        }
        // Remover: tombstone the high slice, then put it back, repeatedly.
        {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                pmem::thread::register(2, 0);
                for round in 0..6u64 {
                    for k in (stable_max + 1)..=(stable_max + 1_000) {
                        if round % 2 == 0 {
                            list.remove(k);
                        } else {
                            list.insert(k, round);
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        // Readers: stable keys must read exactly, no matter how stale the
        // image they started their descent from is.
        for t in 0..3u64 {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                pmem::thread::register(3 + t as usize, 0);
                let mut k = 1 + 2 * t;
                for _ in 0..40_000 {
                    assert_eq!(
                        list.get(k),
                        Some(k * 10),
                        "stable key {k} misread under concurrent restructuring"
                    );
                    k += 2;
                    if k > stable_max {
                        k -= stable_max;
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });

    for k in (1..=stable_max).step_by(2) {
        assert_eq!(list.get(k), Some(k * 10));
    }
    for k in (2..=stable_max).step_by(2) {
        assert_eq!(list.get(k), Some(k * 100), "split-inserted key {k}");
    }
    list.check_invariants();
    let m = list.registry().snapshot();
    assert!(
        m.counter("list.shadow_invalidations") > 0,
        "splits and removes must have bumped the structure epoch"
    );
}

#[test]
fn compaction_under_a_warm_shadow_discards_then_rebuilds() {
    let list = build(10, 4, 1 << 20, false);
    for k in 1..=800u64 {
        list.insert(k, k);
    }
    warm(&list, 1..=800);
    assert!(list.shadow_entries() > 0);
    for k in 200..=600u64 {
        list.remove(k);
    }
    let reclaimed = list.compact();
    assert!(reclaimed > 0, "a 401-key hole must empty some 4-key nodes");
    assert_eq!(
        list.shadow_entries(),
        0,
        "compact frees nodes, so it must throw the whole image away"
    );
    // Post-compact descents are correct and repopulate the image lazily.
    for k in (1..200u64).chain(601..=800) {
        assert_eq!(list.get(k), Some(k));
    }
    for k in 200..=600u64 {
        assert_eq!(list.get(k), None);
    }
    assert!(list.shadow_entries() > 0, "image rebuilt after compaction");
    list.check_invariants();
}

#[test]
fn every_crash_plan_rebuilds_the_shadow_from_scratch() {
    pmem::crash::silence_crash_panics();
    let plans = [
        CrashPlan::DropAll,
        CrashPlan::KeepAll,
        CrashPlan::KeepUnfencedOnly,
        CrashPlan::Seeded(41),
        CrashPlan::Seeded(42),
    ];
    for &plan in &plans {
        let list = build(10, 8, 1 << 20, true);
        for k in 1..=600u64 {
            list.insert(k, k * 3);
        }
        warm(&list, 1..=600);
        assert!(list.shadow_entries() > 0, "[{plan}] warm image expected");

        for p in list.space().pools() {
            p.simulate_crash_with(plan);
        }
        pmem::discard_pending();
        list.recover();
        assert_eq!(
            list.shadow_entries(),
            0,
            "[{plan}] recovery must discard the image, never repair it"
        );

        // Reads after recovery are correct and rebuild the image from the
        // persistent levels alone.
        for k in 1..=600u64 {
            assert_eq!(list.get(k), Some(k * 3), "[{plan}] key {k}");
        }
        assert!(
            list.shadow_entries() > 0,
            "[{plan}] image rebuilt lazily after recovery"
        );
        list.check_invariants();
    }
}

/// Strict-linearizability of a concurrent read/write history with the
/// shadow enabled and deliberately under-provisioned (tiny capacity, few
/// regions), so descents constantly race rebuilds and region refreshes.
#[test]
fn concurrent_history_with_stressed_shadow_is_linearizable() {
    let list = build(12, 4, 1 << 22, false);
    list.set_shadow_tuning(64, 4);
    let ticket = Ticket::new();
    let keyspace = 250u64;
    let logs = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for t in 0..6usize {
            let list = Arc::clone(&list);
            let logs = Arc::clone(&logs);
            let ticket = &ticket;
            s.spawn(move || {
                pmem::thread::register(t, 0);
                let mut log = ThreadLog::new(t as u32);
                // Deterministic per-thread mix, ~40% reads.
                let mut x = 0x9E37u64.wrapping_mul(t as u64 + 1);
                for _ in 0..3_000 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = 1 + (x >> 33) % keyspace;
                    if x % 10 < 4 {
                        let idx = log.begin(ticket, OpKind::Read, key, 0);
                        let v = list.get(key);
                        log.finish(ticket, idx, v.unwrap_or(EMPTY));
                    } else {
                        let value = ticket.next();
                        let idx = log.begin(ticket, OpKind::Write, key, value);
                        let old = list.insert(key, value);
                        log.finish(ticket, idx, old.unwrap_or(EMPTY));
                    }
                }
                logs.lock().unwrap().push(log);
            });
        }
    });
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    let history = merge(logs, vec![]);
    let result = lincheck::check(&history);
    assert!(
        result.is_linearizable(),
        "violations: {:?}",
        result.violations
    );
    assert!(result.writes_checked > 1_000);
    list.check_invariants();
}

/// A scan or range from a node's `keys[0]` starts on that node, at every
/// node size and with or without the index shadow. Such a key is often
/// found on an upper level, as a tower's first key; the walk starts on
/// `Traversal::landing`, the containing node, rather than on the list head.
/// Starting from the head, a scan read more nodes the further into the list
/// it began.
#[test]
fn a_scan_from_any_nodes_first_key_starts_on_that_node() {
    const NODES: u64 = 200;
    for kpn in [16usize, 64] {
        for shadow in [true, false] {
            let mut cfg = ListConfig::new(12, kpn);
            cfg.shadow = shadow;
            let list = ListBuilder {
                list: cfg,
                pool_words: 1 << 22,
                obs: ObsLevel::Counters,
                ..ListBuilder::default()
            }
            .create();
            // An ascending load splits the last node each time it fills:
            // the upper half moves out, so node j starts at key 1 + half j.
            let half = kpn as u64 / 2;
            let n = NODES * half + half / 2;
            for k in 1..=n {
                list.insert(k, k);
            }
            assert_eq!(list.node_count() as u64, NODES);
            warm(&list, 1..=n);
            let row = format!("{kpn} keys/node, shadow {shadow}");
            let reads = |from: u64, ranged: bool| {
                let want: Vec<(u64, u64)> = (from..from + 10).map(|k| (k, k)).collect();
                let r0 = list.space().stats_snapshot().reads;
                let got = if ranged {
                    list.range(from, from + 9)
                } else {
                    list.scan(from, 10)
                };
                assert_eq!(got, want, "{row}: from {from}, range {ranged}");
                list.space().stats_snapshot().reads - r0
            };
            // One node's snapshot: key and value arrays, header words, `next`.
            let node_lines = 2 * kpn as u64 / 8 + 8;
            for ranged in [false, true] {
                for j in 0..NODES {
                    let k0 = 1 + half * j;
                    let (first, inner) = (reads(k0, ranged), reads(k0 + 1, ranged));
                    assert!(
                        first <= inner + node_lines,
                        "{row}, range {ranged}, node {j}: from its keys[0] read {first} \
                         lines, from the key after it {inner}"
                    );
                }
            }
        }
    }
}

/// A list that only ever grows at its end — an ascending load — is imaged
/// as it grows: each stale consult re-images the region it landed in, and
/// that region's range covers the landing index. (With floor bounds the
/// range missed the landing index while the base level had fewer entries
/// than regions, and the image stayed at the 3 nodes of its first build.)
#[test]
fn an_ascending_load_is_imaged_as_it_grows() {
    for n in [5_000u64, 20_000, 100_000] {
        let list = build(10, 64, 1 << 22, false);
        for k in 1..=n {
            list.insert(k, k);
        }
        warm(&list, 1..=n);
        let nodes = list.node_count();
        assert!(
            list.shadow_entries() >= nodes,
            "{n} keys: {} entries imaged over {nodes} nodes",
            list.shadow_entries()
        );
        let r0 = list.space().stats_snapshot().reads;
        for k in 1..=n {
            assert_eq!(list.get(k), Some(k));
        }
        let reads = list.space().stats_snapshot().reads - r0;
        assert_eq!(reads, 4 * n, "{n} keys: a warm get reads 4 pmem lines");
    }
}

/// A stale bottom-level image: the image is frozen while nodes split, so
/// every consult lands on the node a moved key *used* to live in. The
/// probe there misses, the walk hops on, and the next node answers —
/// through every operation, with no key lost or stored twice.
#[test]
fn a_stale_bottom_level_image_costs_a_hop_never_a_key() {
    let list = build(10, 64, 1 << 22, false);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for k in (1..=4_000u64).step_by(3) {
        list.insert(k, k);
        model.insert(k, k);
    }
    warm(&list, (1..=4_000).step_by(3));
    // Nodes are never unlinked and `keys[0]` never changes, so a node is
    // named by its first key; the frozen image holds none but these.
    let imaged: HashSet<u64> = bottom_level(&list).keys().copied().collect();
    let mut moved_removes = 0;
    let m0 = list.registry().snapshot();
    list.with_shadow_frozen(|| {
        // Two keys into every gap: each imaged node overflows and splits.
        for k in (1..=4_000u64).filter(|k| k % 3 != 1) {
            assert_eq!(list.insert(k, k * 2), model.insert(k, k * 2));
        }
        let nodes = bottom_level(&list);
        assert!(nodes.len() >= imaged.len() * 3 / 2, "nodes must split");
        // Each second remove below follows its first remove's epoch bump:
        // it starts on the imaged node before its key and hops at least once to a key that lives in a newer node.
        let node_of: BTreeMap<u64, u64> = nodes
            .iter()
            .flat_map(|(&k0, keys)| keys.iter().map(move |&k| (k, k0)))
            .collect();
        moved_removes = (1..=4_000u64)
            .step_by(5)
            .filter(|k| !imaged.contains(&node_of[k]))
            .count() as u64;
        for k in 1..=4_000u64 {
            assert_eq!(list.get(k), model.get(&k).copied(), "get {k}");
        }
        for k in (1..=4_000u64).step_by(7) {
            assert_eq!(list.insert(k, k + 7), model.insert(k, k + 7), "update {k}");
        }
        for k in (1..=4_000u64).step_by(5) {
            assert_eq!(list.remove(k), model.remove(&k), "remove {k}");
            assert_eq!(list.remove(k), None, "second remove {k}");
        }
        for k in (1..=4_000u64).step_by(10) {
            assert_eq!(
                list.insert(k, k + 9),
                model.insert(k, k + 9),
                "reinsert {k}"
            );
        }
        for k in 1..=4_000u64 {
            let want: Vec<(u64, u64)> = model.range(k..).take(5).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(list.scan(k, 5), want, "scan from {k}");
        }
    });
    let m = list.registry().snapshot().since(&m0);
    assert_eq!(
        m.counter("list.shadow_rebuilds"),
        0,
        "the image stayed the one imaged before the splits"
    );
    assert!(
        moved_removes > 0 && m.counter("list.hops.l00") >= moved_removes,
        "moved keys are one hop past their imaged node: {} hops, {moved_removes} \
         second removes of moved keys",
        m.counter("list.hops.l00")
    );
    for (&k, &v) in &model {
        assert_eq!(list.get(k), Some(v));
    }
    assert_eq!(list.count_live(), model.len());
    list.check_invariants(); // includes: no key stored twice in a node
}

#[test]
fn disabled_shadow_still_serves_and_counts_nothing() {
    let list = ListBuilder {
        list: ListConfig::new(10, 8).without_shadow(),
        pool_words: 1 << 20,
        obs: ObsLevel::Counters,
        ..ListBuilder::default()
    }
    .create();
    for k in 1..=400u64 {
        list.insert(k, k);
    }
    warm(&list, 1..=400);
    assert_eq!(list.shadow_entries(), 0);
    let m = list.registry().snapshot();
    assert_eq!(
        m.counter("list.shadow_hits")
            + m.counter("list.shadow_misses")
            + m.counter("list.shadow_rebuilds"),
        0
    );
    for k in 1..=400u64 {
        assert_eq!(list.get(k), Some(k));
    }
}
