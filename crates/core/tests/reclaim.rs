//! Reclaiming removed slots: a full node whose keys were partly removed is
//! purged in place — the tombstoned keys' slots become empty under the
//! write lock and split-count bump a split uses — instead of being split.
//! These tests pin what the purge must and must not do:
//!
//! 1. It fires exactly when a full node holds a tombstoned key outside
//!    slot 0, keeps the node count, and leaves every answer unchanged.
//! 2. A crash at any pmem operation of a purge and the claim after it
//!    recovers to the acked state, whatever the line residue.
//! 3. Concurrent histories that race it stay linearizable.
//! 4. Under steady insert-fresh/remove-oldest churn the list stops growing
//!    with every turnover.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use lincheck::{merge, OpKind, ThreadLog, Ticket, EMPTY};
use pmem::{run_crashable, CrashPlan, ObsLevel, PersistenceMode};
use riv::RivPtr;
use upskiplist::layout::{next_off_cfg, N_SPLIT_COUNT};
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

fn build(kpn: usize, tracked: bool) -> Arc<UpSkipList> {
    ListBuilder {
        list: ListConfig::new(10, kpn),
        pool_words: 1 << 22,
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

fn first_node(list: &UpSkipList) -> RivPtr {
    let off = next_off_cfg(list.config(), 0);
    RivPtr::from_raw(list.space().read(list.head().add(off as u32)))
}

fn split_count(list: &UpSkipList, node: RivPtr) -> u64 {
    list.space().read(node.add(N_SPLIT_COUNT as u32))
}

/// One full 16-key node holding 10, 20, .., 160.
fn full_node(tracked: bool) -> Arc<UpSkipList> {
    let list = build(16, tracked);
    for k in 1..=16u64 {
        assert_eq!(list.insert(k * 10, k * 100), None);
    }
    assert_eq!(list.node_count(), 1);
    list
}

#[test]
fn a_full_node_with_removed_keys_takes_an_insert_without_splitting() {
    let list = full_node(false);
    let node = first_node(&list);
    for k in [30u64, 70, 120] {
        assert_eq!(list.remove(k), Some(k * 10));
    }
    let (m0, sc0) = (list.registry().snapshot(), split_count(&list, node));
    assert_eq!(list.insert(55, 550), None);
    let m = list.registry().snapshot().since(&m0);
    assert_eq!(list.node_count(), 1, "no split");
    assert_eq!(
        (m.counter("list.node_purges"), m.counter("list.node_splits")),
        (1, 0)
    );
    assert_eq!(split_count(&list, node), sc0 + 1, "a purge bumps the count");
    for k in 1..=16u64 {
        let want = (![3, 7, 12].contains(&k)).then_some(k * 100);
        assert_eq!(list.get(k * 10), want, "key {}", k * 10);
    }
    assert_eq!(list.get(55), Some(550));
    assert_eq!(list.count_live(), 14);
    list.check_invariants();

    // Two holes are left: they take two more keys, and the node splits only
    // once it is full of live ones.
    assert_eq!(list.insert(56, 1), None);
    assert_eq!(list.insert(57, 1), None);
    assert_eq!(list.node_count(), 1);
    assert_eq!(list.insert(58, 1), None);
    let m = list.registry().snapshot().since(&m0);
    assert_eq!(
        (m.counter("list.node_purges"), m.counter("list.node_splits")),
        (1, 1)
    );
    assert_eq!(list.node_count(), 2);
    assert_eq!(list.count_live(), 17);
    list.check_invariants();
}

#[test]
fn a_removed_first_key_keeps_its_slot_and_the_node_splits() {
    let list = full_node(false);
    assert_eq!(list.remove(10), Some(100));
    let m0 = list.registry().snapshot();
    assert_eq!(list.insert(55, 550), None);
    let m = list.registry().snapshot().since(&m0);
    assert_eq!(
        (m.counter("list.node_purges"), m.counter("list.node_splits")),
        (0, 1)
    );
    assert_eq!(list.node_count(), 2);
    assert_eq!(list.get(10), None);
    assert_eq!(list.get(55), Some(550));
    list.check_invariants();
}

#[test]
fn a_list_without_removes_never_purges() {
    for kpn in [4, 16, 64] {
        let list = build(kpn, false);
        for i in 1..=5_000u64 {
            list.insert(i.wrapping_mul(0x9e37_79b9) % 1_000_003 + 1, i);
        }
        let m = list.registry().snapshot();
        assert!(m.counter("list.node_splits") > 0, "{kpn} keys/node");
        assert_eq!(m.counter("list.node_purges"), 0, "{kpn} keys/node");
    }
}

/// A power failure at every pmem operation of `insert(55)` into a full
/// node with three removed keys — the purge, then the claim — under every
/// residue policy. Recovery must show the acked state: removed keys
/// absent, live keys present, and the insert in flight landed whole or
/// not at all; and the list must take the insert afterwards.
#[test]
fn a_crash_anywhere_in_a_purge_and_claim_recovers_the_acked_state() {
    pmem::crash::silence_crash_panics();
    let plans = [
        CrashPlan::DropAll,
        CrashPlan::KeepAll,
        CrashPlan::KeepUnfencedOnly,
        CrashPlan::Seeded(41),
        CrashPlan::Seeded(42),
    ];
    for plan in plans {
        let mut crashed = 0;
        for crash_after in 1u64.. {
            let list = full_node(true);
            for k in [30u64, 70, 120] {
                list.remove(k);
            }
            list.sync();
            let m0 = list.registry().snapshot();
            let ctl = Arc::clone(list.space().pool(0).crash_controller());
            ctl.arm_after(crash_after);
            let done = run_crashable(|| {
                list.insert(55, 550);
                list.sync();
            })
            .is_ok();
            ctl.disarm();
            if done {
                assert_eq!(
                    list.registry()
                        .snapshot()
                        .since(&m0)
                        .counter("list.node_purges"),
                    1
                );
                break; // every pmem operation of the insert was a crash point
            }
            crashed += 1;
            for p in list.space().pools() {
                p.simulate_crash_with(plan);
            }
            pmem::discard_pending();
            list.recover();
            let at = format!("[{plan}] crash@{crash_after}");
            for k in 1..=16u64 {
                let want = (![3, 7, 12].contains(&k)).then_some(k * 100);
                assert_eq!(list.get(k * 10), want, "{at}: key {}", k * 10);
            }
            assert!(matches!(list.get(55), None | Some(550)), "{at}");
            list.check_invariants();
            assert!(matches!(list.insert(55, 551), None | Some(550)), "{at}");
            assert_eq!(list.get(55), Some(551), "{at}");
            assert_eq!(list.node_count(), 1, "{at}: room was reclaimed");
            assert_eq!(list.count_live(), 14, "{at}");
            list.check_invariants();
        }
        assert!(crashed > 20, "[{plan}] only {crashed} crash points");
    }
}

/// Four threads churn fresh keys through a few nodes — each inserts keys
/// nobody used before and removes its own oldest — racing gets (tag probes
/// at 64 keys/node), updates of never-removed keys, and scans.
///
/// The history lincheck sees: every update and read of a stable key; a
/// churn key's insert (from empty) and remove (a write of a unique token
/// the list never stores); its owner's reads while it is live; and other
/// threads' reads that found it (a value read after its remove completed is
/// a violation). Scans are checked for order and for every stable key they
/// spanned.
fn churn_history_is_linearizable(kpn: usize) {
    let list = build(kpn, false);
    let ticket = Ticket::new();
    // Even keys spread over the churn keys' range, never removed.
    let n = kpn as u64 * 3 / 2;
    let stable: Vec<u64> = (1..=n).map(|j| j * (1_000_000 / n) * 2).collect();
    let live_per_thread = kpn / 4;
    let mut setup = ThreadLog::new(u32::MAX);
    for &k in &stable {
        let v = ticket.next();
        let idx = setup.begin(&ticket, OpKind::Write, k, v);
        let old = list.insert(k, v);
        setup.finish(&ticket, idx, old.unwrap_or(EMPTY));
    }
    let logs = Arc::new(Mutex::new(vec![setup]));
    let stable = &stable;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let list = Arc::clone(&list);
            let logs = Arc::clone(&logs);
            let ticket = &ticket;
            s.spawn(move || {
                pmem::thread::register(t as usize, 0);
                let mut log = ThreadLog::new(t as u32);
                let mut live: VecDeque<(u64, u64)> = VecDeque::new();
                let mut x = 0x9E37u64.wrapping_mul(t + 1);
                for i in 0..2_500u64 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Odd keys, a bijection of (i, t): never reused, spread
                    // over the stable keys' range.
                    let fresh = 2 * ((i * 4 + t) * 7_919 % 1_000_000) + 1;
                    let v = ticket.next();
                    let idx = log.begin(ticket, OpKind::Write, fresh, v);
                    let old = list.insert(fresh, v);
                    log.finish(ticket, idx, old.unwrap_or(EMPTY));
                    live.push_back((fresh, v));
                    if live.len() > live_per_thread {
                        let (k, _) = live.pop_front().unwrap();
                        let token = ticket.next();
                        let idx = log.begin(ticket, OpKind::Write, k, token);
                        let old = list.remove(k);
                        log.finish(ticket, idx, old.unwrap_or(EMPTY));
                    }
                    match x % 8 {
                        0..=2 => {
                            let k = stable[(x >> 8) as usize % stable.len()];
                            let idx = log.begin(ticket, OpKind::Read, k, 0);
                            let got = list.get(k);
                            log.finish(ticket, idx, got.unwrap_or(EMPTY));
                        }
                        3 => {
                            let k = stable[(x >> 8) as usize % stable.len()];
                            let v = ticket.next();
                            let idx = log.begin(ticket, OpKind::Write, k, v);
                            let old = list.insert(k, v);
                            log.finish(ticket, idx, old.unwrap_or(EMPTY));
                        }
                        4 | 5 => {
                            let (k, _) = live[(x >> 8) as usize % live.len()];
                            let idx = log.begin(ticket, OpKind::Read, k, 0);
                            let got = list.get(k);
                            log.finish(ticket, idx, got.unwrap_or(EMPTY));
                        }
                        6 => {
                            // Somebody's churn key, maybe removed by now.
                            let j = (x >> 8) % (4 * i + 4);
                            let k = 2 * (j * 7_919 % 1_000_000) + 1;
                            let idx = log.begin(ticket, OpKind::Read, k, 0);
                            match list.get(k) {
                                Some(got) => log.finish(ticket, idx, got),
                                None => log.discard(idx),
                            }
                        }
                        _ => {
                            let from = 1 + (x >> 8) % 2_000_000;
                            let got = list.scan(from, 8);
                            assert!(
                                got.windows(2).all(|w| w[0].0 <= w[1].0),
                                "scan from {from}: out of order {got:?}"
                            );
                            if let Some(&(last, _)) = got.last() {
                                for k in stable.iter().filter(|&&k| k >= from && k <= last) {
                                    assert!(
                                        got.iter().any(|&(g, _)| g == *k),
                                        "scan from {from} skipped stable key {k}: {got:?}"
                                    );
                                }
                            }
                        }
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
        "{kpn} keys/node: violations: {:?}",
        result.violations
    );
    let m = list.registry().snapshot();
    assert!(
        m.counter("list.node_purges") > 0,
        "{kpn} keys/node: no purge raced the history"
    );
    assert_eq!(list.count_live(), stable.len() + 4 * live_per_thread);
    list.check_invariants();
}

#[test]
fn concurrent_churn_at_16_keys_per_node_is_linearizable() {
    churn_history_is_linearizable(16);
}

#[test]
fn concurrent_churn_at_64_keys_per_node_is_linearizable() {
    churn_history_is_linearizable(64);
}

/// Allocator chunks carved after loading `live` scattered keys, and after
/// four full turnovers of inserting a fresh key and removing the oldest.
fn chunks_under_churn(kpn: usize, live: u64) -> (u64, u64) {
    let list = build(kpn, false);
    // An odd multiplier is a bijection on 32-bit words: every key is new.
    let key = |i: u64| 1 + (i.wrapping_mul(0x9e37_79b9) & 0xffff_ffff);
    let chunks = || list.allocator().chunks_provisioned(0);
    let mut model = BTreeMap::new();
    for i in 0..live {
        list.insert(key(i), i);
        model.insert(key(i), i);
    }
    let loaded = chunks();
    for i in live..5 * live {
        list.insert(key(i), i);
        model.insert(key(i), i);
        list.remove(key(i - live));
        model.remove(&key(i - live));
    }
    assert_eq!(list.count_live(), model.len());
    for (&k, &v) in model.iter().step_by(97) {
        assert_eq!(list.get(k), Some(v));
    }
    list.check_invariants();
    (loaded, chunks())
}

#[test]
fn a_churned_list_stops_growing_with_every_turnover() {
    for kpn in [16, 64] {
        let (loaded, churned) = chunks_under_churn(kpn, 50_000);
        assert!(
            churned <= 2 * loaded,
            "{kpn} keys/node: {loaded} chunks after the load, {churned} after four turnovers"
        );
    }
}
