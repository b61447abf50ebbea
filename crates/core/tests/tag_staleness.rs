//! Tag staleness: the per-slot key tags that steer the in-node search of
//! large nodes are positive-only DRAM hints, and these tests make them
//! wrong on purpose — scrambled, zeroed and aliased between operations,
//! raced by concurrent splits, and carried across power failures,
//! reopens and compaction — to pin the two properties the design leans on:
//!
//! 1. A stale, missing or aliased tag can only cost a wasted probe or a
//!    fallback scan, never a wrong answer.
//! 2. Tags are dropped on every open/recover/compact path and refilled
//!    from the persistent key arrays; they are never themselves recovered.
//!
//! Writers lean on (1) harder than readers: an insert's descent stops at
//! the tag probe, and the one stream of the key array it takes under the
//! read lock must find a key the tags forgot before it claims any hole.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use lincheck::{merge, OpKind, ThreadLog, Ticket, EMPTY};
use pmem::{CrashPlan, ObsLevel, PersistenceMode};
use proptest::prelude::*;
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

fn build(height: usize, kpn: usize, tracked: bool) -> Arc<UpSkipList> {
    ListBuilder {
        list: ListConfig::new(height, kpn),
        pool_words: 1 << 21,
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

fn pmem_reads(list: &UpSkipList) -> u64 {
    list.space().stats_snapshot().reads
}

/// Ways to make every recorded tag wrong.
#[derive(Debug, Clone, Copy)]
enum Disturb {
    /// Each tag becomes an unrelated one: hits turn into fallbacks.
    Scramble(u16),
    /// Every tag is forgotten.
    Zero,
    /// Tags collapse onto four values: nearly every slot is a (wrong)
    /// candidate for nearly every key.
    Alias,
}

fn disturb(list: &UpSkipList, how: Disturb) {
    match how {
        Disturb::Scramble(salt) => list.map_tags(|t| t.wrapping_mul(40_503).wrapping_add(salt)),
        Disturb::Zero => list.map_tags(|_| 0),
        Disturb::Alias => list.map_tags(|t| 1 + (t & 3)),
    }
}

#[derive(Debug, Clone)]
enum Cmd {
    Insert(u64, u64),
    /// Two inserts of one key with the tags disturbed in between: the
    /// second is an insert-of-existing whatever the first was.
    Upsert(u64, Disturb, u64, u64),
    /// Remove, disturb, insert again: the tombstoned slot must be reused,
    /// not joined by a second copy.
    RemoveThenReinsert(u64, Disturb, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
    Disturb(Disturb),
}

fn disturb_strategy() -> impl Strategy<Value = Disturb> {
    prop_oneof![
        (0..u16::MAX).prop_map(Disturb::Scramble),
        Just(Disturb::Zero),
        Just(Disturb::Alias),
    ]
}

fn cmd_strategy(keyspace: u64) -> impl Strategy<Value = Cmd> {
    let value = || 0..u64::MAX - 1;
    prop_oneof![
        (1..=keyspace, 0..u64::MAX - 1).prop_map(|(k, v)| Cmd::Insert(k, v)),
        (1..=keyspace, 0..u64::MAX - 1).prop_map(|(k, v)| Cmd::Insert(k, v)),
        (1..=keyspace, disturb_strategy(), value(), value())
            .prop_map(|(k, how, v1, v2)| Cmd::Upsert(k, how, v1, v2)),
        (1..=keyspace, disturb_strategy(), value())
            .prop_map(|(k, how, v)| Cmd::RemoveThenReinsert(k, how, v)),
        (1..=keyspace).prop_map(Cmd::Remove),
        (1..=keyspace).prop_map(Cmd::Get),
        (1..=keyspace).prop_map(Cmd::Get),
        (1..=keyspace, 1..=64u64).prop_map(|(a, len)| Cmd::Range(a, a + len)),
        disturb_strategy().prop_map(Cmd::Disturb),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// (i) Identical answers to a `BTreeMap` with the tags disturbed
    /// between operations, through splits, removes and re-inserts.
    #[test]
    fn answers_match_the_model_whatever_the_tags_say(
        keys_per_node in prop_oneof![Just(64usize), Just(256)],
        cmds in proptest::collection::vec(cmd_strategy(1_200), 200..1_500),
    ) {
        let list = build(8, keys_per_node, false);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // A loaded list: nodes have split before the first random command
        // and keep splitting under them.
        for k in (1..=1_200u64).step_by(2) {
            list.insert(k, k);
            model.insert(k, k);
        }
        for cmd in cmds {
            match cmd {
                Cmd::Insert(k, v) => prop_assert_eq!(list.insert(k, v), model.insert(k, v)),
                Cmd::Upsert(k, how, v1, v2) => {
                    prop_assert_eq!(list.insert(k, v1), model.insert(k, v1));
                    disturb(&list, how);
                    prop_assert_eq!(list.insert(k, v2), model.insert(k, v2));
                }
                Cmd::RemoveThenReinsert(k, how, v) => {
                    prop_assert_eq!(list.remove(k), model.remove(&k));
                    disturb(&list, how);
                    prop_assert_eq!(list.insert(k, v), model.insert(k, v));
                }
                Cmd::Remove(k) => prop_assert_eq!(list.remove(k), model.remove(&k)),
                Cmd::Get(k) => prop_assert_eq!(list.get(k), model.get(&k).copied()),
                Cmd::Range(lo, hi) => {
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(list.range(lo, hi), want);
                }
                Cmd::Disturb(how) => disturb(&list, how),
            }
        }
        for (&k, &v) in &model {
            prop_assert_eq!(list.get(k), Some(v));
        }
        list.check_invariants();
        prop_assert_eq!(list.count_live(), model.len());
    }
}

/// Regression for the presence-before-claim order of an insert's one
/// stream. A split erases the moved keys *in place*, so the old node keeps
/// its survivors behind a run of holes; with the tags forgotten the
/// writer's descent reports a miss, and an insert that claimed the first
/// hole it met would store the key a second time.
#[test]
fn insert_finds_an_untagged_key_behind_split_erased_holes() {
    let list = build(8, 64, false);
    // Slot 0 holds 1, slots 1..=63 hold 64, 63, .., 2: the node is full.
    list.insert(1, 10);
    for k in (2..=64u64).rev() {
        list.insert(k, k * 10);
    }
    assert_eq!(list.node_count(), 1);
    // The split moves 33..=64 out of slots 1..=32; 2..=32 stay behind them.
    list.insert(65, 650);
    assert_eq!(list.node_count(), 2);
    assert_eq!(list.struct_metrics().node_splits, 1);

    disturb(&list, Disturb::Zero);
    let (m0, r0) = (list.struct_metrics(), pmem_reads(&list));
    assert_eq!(list.insert(20, 7), Some(200), "20 was there: an update");
    let m = list.struct_metrics().since(&m0);
    assert_eq!(m.tag_hits, 0, "the probe missed");
    assert_eq!(m.tag_fallbacks, 0, "and no scan backed the miss up");
    let streamed = pmem_reads(&list) - r0;
    assert_eq!(list.get(20), Some(7));
    assert_eq!(
        list.range(1, 65).iter().filter(|&&(k, _)| k == 20).count(),
        1
    );
    assert_eq!(list.count_live(), 65);
    list.check_invariants(); // includes: no key stored twice in a node

    // That stream refilled the node's tags: the next writer is steered.
    let (m0, r0) = (list.struct_metrics(), pmem_reads(&list));
    assert_eq!(list.insert(9, 8), Some(90));
    assert_eq!(list.struct_metrics().since(&m0).tag_hits, 1);
    assert!(
        pmem_reads(&list) - r0 + 8 <= streamed,
        "steered: the 8-line key array is not streamed again"
    );

    // A fresh key still lands in the lowest hole, once.
    assert_eq!(list.insert(2_000, 1), None);
    assert_eq!(list.insert(33, 2), Some(330));
    assert_eq!(list.count_live(), 66);
    list.check_invariants();
}

/// An insert-only load never runs the reader's fallback scan: a fresh key
/// costs the descent plus one stream of its node's key array. Measured on
/// a list without the index shadow (whose re-imaging reads vary by the
/// build) and against an absent-key get, which pays the same descent plus
/// the reader's one scan: a second stream would put 32 lines between them.
#[test]
fn fresh_inserts_stream_the_key_array_once() {
    let list = ListBuilder {
        list: ListConfig {
            shadow: false,
            ..ListConfig::new(10, 256)
        },
        pool_words: 1 << 21,
        ..ListBuilder::default()
    }
    .create();
    // A fixed odd multiplier scatters the keys over the nodes.
    let key_of = |i: u64| i.wrapping_mul(0x9e37_79b9) % 1_000_003 + 1;
    let n = 20_000u64;
    let (m0, r0) = (list.struct_metrics(), pmem_reads(&list));
    for i in 1..=n {
        assert_eq!(list.insert(key_of(i), i), None);
    }
    let per_insert = (pmem_reads(&list) - r0) as f64 / n as f64;
    assert_eq!(
        list.struct_metrics().since(&m0).tag_fallbacks,
        0,
        "no writer runs the linear scan"
    );
    let r0 = pmem_reads(&list);
    for i in n + 1..=2 * n {
        assert_eq!(list.get(key_of(i)), None);
    }
    let per_absent_get = (pmem_reads(&list) - r0) as f64 / n as f64;
    assert!(
        per_insert < per_absent_get + 16.0,
        "{per_insert} pmem reads per fresh insert against {per_absent_get} per \
         absent get: a second stream is back"
    );
    list.check_invariants();
}

/// The steered path is the one warm gets actually take, at the cost
/// Function 9 cannot go below: header (split count), key word, value word,
/// header again. The index image mirrors the bottom level of a tagged list,
/// so the descent starts *on* the containing node, and its tags are asked
/// before its `next[0]` is read: no hop, no successor.
#[test]
fn a_warm_get_reads_four_pmem_lines_and_hops_nowhere() {
    let list = build(10, 256, false);
    let n = 20_000u64;
    let m0 = list.struct_metrics();
    // Scattered order, as a hashed load arrives (an ascending one grows the
    // list only at its end, where the image's lazy refresh does not follow
    // while its base level has fewer entries than regions).
    for i in 0..n {
        let k = i * 7_919 % n + 1;
        list.insert(k * 7, k);
    }
    assert_eq!(
        list.struct_metrics().since(&m0).tag_fallbacks,
        0,
        "an insert-only load never runs the reader's scan"
    );
    for k in 1..=n {
        list.get(k * 7); // refreshes the image regions the last splits aged
    }
    let m0 = list.struct_metrics();
    for k in 1..=n {
        let r0 = pmem_reads(&list);
        assert_eq!(list.get(k * 7), Some(k));
        assert_eq!(pmem_reads(&list) - r0, 4, "warm get of {}", k * 7);
    }
    let m = list.struct_metrics().since(&m0);
    assert_eq!(m.hops_per_level[0], 0, "the image lands on the node");
    assert_eq!(m.tag_fallbacks, 0, "a filled node needs no fallback scan");
    assert!(
        m.tag_hits >= n * 9 / 10,
        "keys[0] hits aside: {}",
        m.tag_hits
    );

    // An absent key is never answered from the tags: it pays the hop that
    // proves the walk may stop, and the scan.
    let (m0, r0) = (list.struct_metrics(), pmem_reads(&list));
    assert_eq!(list.get(11), None);
    assert_eq!(list.struct_metrics().since(&m0).tag_fallbacks, 1);
    assert!(pmem_reads(&list) - r0 >= 32);
}

/// (ii) Strict linearizability at 64 keys/node with four threads whose
/// inserts keep splitting nodes under each other's tag-steered searches,
/// while every thread also scrambles the tags now and then.
#[test]
fn concurrent_history_with_disturbed_tags_is_linearizable() {
    disturbed_history_is_linearizable(None);
}

/// The same history with the image too small for the bottom level (~60
/// nodes, as many towers above them): the capacity rule drops level 0 and
/// the descent walks it from the level-1 predecessor, probing each node it
/// hops into.
#[test]
fn concurrent_history_without_the_bottom_level_image_is_linearizable() {
    disturbed_history_is_linearizable(Some((64, 4)));
}

fn disturbed_history_is_linearizable(shadow_tuning: Option<(usize, usize)>) {
    let list = build(12, 64, false);
    if let Some((capacity, regions)) = shadow_tuning {
        list.set_shadow_tuning(capacity, regions);
    }
    let ticket = Ticket::new();
    let keyspace = 2_000u64;
    let logs = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for t in 0..4usize {
            let list = Arc::clone(&list);
            let logs = Arc::clone(&logs);
            let ticket = &ticket;
            s.spawn(move || {
                pmem::thread::register(t, 0);
                let mut log = ThreadLog::new(t as u32);
                let mut x = 0x9E37u64.wrapping_mul(t as u64 + 1);
                for i in 0..4_000u64 {
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
                    if i % 512 == 64 * t as u64 {
                        disturb(&list, Disturb::Scramble(i as u16));
                    }
                }
                logs.lock().unwrap().push(log);
            });
        }
    });
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    let result = lincheck::check(&merge(logs, vec![]));
    assert!(
        result.is_linearizable(),
        "violations: {:?}",
        result.violations
    );
    assert!(result.writes_checked > 1_000);
    let m = list.struct_metrics();
    assert!(m.node_splits > 10, "splits must have raced the searches");
    assert!(m.tag_hits > 0 && m.tag_fallbacks > 0);
    if let Some((capacity, _)) = shadow_tuning {
        assert!(list.node_count() > capacity / 2, "level 0 must not fit");
        assert!(list.shadow_entries() <= capacity);
        assert!(m.hops_per_level[0] > 0, "level 0 is walked, not imaged");
    }
    list.check_invariants();
}

/// (ii, writers) Four threads insert the *same* small key set, each in its
/// own order and all at once, at 64 keys/node: the same key is raced as a
/// fresh insert and as an update, inside nodes that split under the
/// racers, with the tags scrambled mid-run. Every thread's probe may miss
/// a key another thread is placing; the history must stay linearizable
/// and no node may end up holding a key twice.
#[test]
fn concurrent_inserts_of_one_key_set_never_duplicate_a_key() {
    let list = build(12, 64, false);
    let ticket = Ticket::new();
    let keyset = 600u64;
    let rounds = 6u64;
    let logs = Arc::new(Mutex::new(Vec::new()));
    let go = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let list = Arc::clone(&list);
            let logs = Arc::clone(&logs);
            let (ticket, go) = (&ticket, &go);
            s.spawn(move || {
                pmem::thread::register(t as usize, 0);
                let mut log = ThreadLog::new(t as u32);
                // Coprime strides: four different walks over one key set.
                let stride = [1u64, 7, 11, 13][t as usize];
                go.wait();
                for i in 0..rounds * keyset {
                    let key = 1 + (i * stride + t * 37) % keyset;
                    let value = ticket.next();
                    let idx = log.begin(ticket, OpKind::Write, key, value);
                    let old = list.insert(key, value);
                    log.finish(ticket, idx, old.unwrap_or(EMPTY));
                    if i % 256 == 64 * t {
                        disturb(&list, Disturb::Scramble(i as u16));
                    }
                }
                logs.lock().unwrap().push(log);
            });
        }
    });
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    let result = lincheck::check(&merge(logs, vec![]));
    assert!(
        result.is_linearizable(),
        "violations: {:?}",
        result.violations
    );
    assert_eq!(result.writes_checked as u64, 4 * rounds * keyset);
    assert!(list.struct_metrics().node_splits >= 8, "splits must race");
    assert_eq!(list.count_live(), keyset as usize);
    list.check_invariants(); // includes: no key stored twice in a node
}

/// The tag of `key`, read back from a scratch list (the hash is the
/// table's own business): whatever lane appears when `key` becomes a
/// node's first key.
fn tag_of(key: u64) -> u16 {
    let scratch = build(8, 64, false);
    let lanes = |l: &UpSkipList| {
        let mut seen = Vec::new();
        l.map_tags(|t| {
            seen.push(t);
            t
        });
        seen
    };
    scratch.insert(key + 1, 0); // sentinels and slabs exist from here on
    let before = lanes(&scratch);
    scratch.insert(key, 0);
    let after = lanes(&scratch);
    let new: Vec<u16> = (before.iter().zip(&after))
        .filter(|(b, a)| b != a)
        .map(|(_, &a)| a)
        .collect();
    assert_eq!(new.len(), 1, "one lane changed: {new:?}");
    new[0]
}

/// (iv) A power failure between a split's link CAS and its erasure of the
/// moved keys leaves the old node holding keys it no longer owns —
/// write-locked, epoch-stale. No probe may answer from it: the first
/// consult after `recover()` fails the epoch check on its landing node and
/// descends from the head, and the walk claims and repairs the old node
/// before it looks inside. Every tag is planted to say "key 50 is here" to
/// make a probe of the unrepaired node as tempting as it can be.
#[test]
fn a_moved_key_is_never_answered_from_unrepaired_split_residue() {
    pmem::crash::silence_crash_panics();
    let tag_50 = tag_of(50);
    let mut residue_states = 0;
    for crash_after in 1u64.. {
        let list = build(8, 64, true);
        for k in 1..=64u64 {
            list.insert(k, k * 10);
        }
        list.sync();
        assert_eq!(list.node_count(), 1);
        let ctl = Arc::clone(list.space().pool(0).crash_controller());
        ctl.arm_after(crash_after);
        let done = pmem::run_crashable(|| list.insert(65, 650)).is_ok();
        ctl.disarm();
        if done {
            break; // the sweep has covered every pmem operation of the split
        }
        for p in list.space().pools() {
            p.simulate_crash_with(CrashPlan::DropAll);
        }
        pmem::discard_pending();
        list.recover();
        // Both nodes still hold the upper half: the state under test.
        let residue = list.node_count() == 2 && list.count_live() == 64 + 32;
        residue_states += residue as u32;
        list.map_tags(|_| tag_50);
        let m0 = list.struct_metrics();
        assert_eq!(list.get(50), Some(500), "crash@{crash_after}");
        let m = list.struct_metrics().since(&m0);
        assert!(
            m.shadow_misses >= 1,
            "crash@{crash_after}: the first consult lands on a stale epoch"
        );
        if residue {
            assert_eq!(
                list.count_live(),
                64,
                "crash@{crash_after}: the old node was repaired on the way"
            );
        }
        for k in 1..=64u64 {
            assert_eq!(list.get(k), Some(k * 10), "crash@{crash_after}: key {k}");
        }
        // The interrupted insert was never acked: landed whole, or not.
        assert!(
            matches!(list.get(65), None | Some(650)),
            "crash@{crash_after}"
        );
        list.check_invariants();
    }
    assert!(residue_states > 0, "no crash point fell inside the window");
}

fn load_and_warm(list: &UpSkipList, n: u64) {
    for k in 1..=n {
        list.insert(k, k * 3);
    }
    for k in 1..=n {
        assert_eq!(list.get(k), Some(k * 3));
    }
    assert!(list.tag_slabs_populated() > 0, "warm tags expected");
}

/// (iii) `recover()` under every crash-residue policy drops the tags; the
/// reads after it are correct and refill them from pmem alone.
#[test]
fn every_crash_plan_drops_the_tags() {
    pmem::crash::silence_crash_panics();
    let plans = [
        CrashPlan::DropAll,
        CrashPlan::KeepAll,
        CrashPlan::KeepUnfencedOnly,
        CrashPlan::Seeded(41),
        CrashPlan::Seeded(42),
    ];
    for &plan in &plans {
        let list = build(10, 64, true);
        load_and_warm(&list, 2_000);
        list.sync();
        for p in list.space().pools() {
            p.simulate_crash_with(plan);
        }
        pmem::discard_pending();
        list.recover();
        assert_eq!(list.tag_slabs_populated(), 0, "[{plan}] tags recovered");
        for k in 1..=2_000u64 {
            assert_eq!(list.get(k), Some(k * 3), "[{plan}] key {k}");
        }
        assert!(list.tag_slabs_populated() > 0, "[{plan}] tags refilled");
        list.check_invariants();
    }
}

/// (iii) A fresh handle from `open()` starts with no tags.
#[test]
fn open_starts_without_tags() {
    let list = build(10, 256, true);
    load_and_warm(&list, 3_000);
    list.close();
    let space = Arc::clone(list.space());
    let acfg = *list.allocator().config();
    drop(list);
    let list = UpSkipList::open(pmalloc::Allocator::new(space, acfg));
    assert_eq!(list.tag_slabs_populated(), 0);
    for k in 1..=3_000u64 {
        assert_eq!(list.get(k), Some(k * 3));
    }
    assert!(list.tag_slabs_populated() > 0);
}

/// (iii) `compact()` frees nodes, so it drops the tags first; recycled
/// blocks get fresh ones.
#[test]
fn compaction_drops_the_tags() {
    let list = build(10, 64, false);
    load_and_warm(&list, 4_000);
    for k in 1_000..=3_000u64 {
        list.remove(k);
    }
    assert!(
        list.compact() > 0,
        "a 2001-key hole must empty 64-key nodes"
    );
    assert_eq!(list.tag_slabs_populated(), 0);
    for k in 1_000..=3_000u64 {
        assert_eq!(list.get(k), None);
        assert_eq!(list.insert(k, k + 1), None);
    }
    for k in 1..=4_000u64 {
        let want = if (1_000..=3_000).contains(&k) {
            k + 1
        } else {
            k * 3
        };
        assert_eq!(list.get(k), Some(want), "key {k}");
    }
    list.check_invariants();
}
