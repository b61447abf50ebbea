//! Property-based testing: UPSkipList against a `BTreeMap` model, across
//! node-size configurations and crash points.

use std::collections::BTreeMap;

use proptest::prelude::*;
use upskiplist::{ListBuilder, ListConfig};

#[derive(Debug, Clone)]
enum Cmd {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

fn cmd_strategy(keyspace: u64) -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (1..=keyspace, 0..u64::MAX - 1).prop_map(|(k, v)| Cmd::Insert(k, v)),
        (1..=keyspace).prop_map(Cmd::Remove),
        (1..=keyspace).prop_map(Cmd::Get),
        (1..=keyspace, 1..=keyspace).prop_map(|(a, b)| Cmd::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn matches_btreemap_for_any_op_sequence(
        keys_per_node in prop_oneof![Just(4usize), Just(16), Just(64)],
        max_height in 3usize..10,
        cmds in proptest::collection::vec(cmd_strategy(120), 1..400),
    ) {
        let list = ListBuilder {
            list: ListConfig::new(max_height, keys_per_node),
            pool_words: 1 << 20,
            ..ListBuilder::default()
        }
        .create();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for cmd in cmds {
            match cmd {
                Cmd::Insert(k, v) => prop_assert_eq!(list.insert(k, v), model.insert(k, v)),
                Cmd::Remove(k) => prop_assert_eq!(list.remove(k), model.remove(&k)),
                Cmd::Get(k) => prop_assert_eq!(list.get(k), model.get(&k).copied()),
                Cmd::Range(lo, hi) => {
                    let got = list.range(lo, hi);
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        list.check_invariants();
        prop_assert_eq!(list.count_live(), model.len());
    }

    #[test]
    fn single_threaded_crash_at_any_point_preserves_completed_writes(
        crash_after in 200u64..20_000,
        keys in proptest::collection::vec(1u64..500, 10..150),
    ) {
        pmem::crash::silence_crash_panics();
        let list = ListBuilder {
            list: ListConfig::new(8, 4),
            mode: pmem::PersistenceMode::Tracked,
            pool_words: 1 << 20,
            ..ListBuilder::default()
        }
        .create();
        let controller = std::sync::Arc::clone(list.space().pool(0).crash_controller());
        controller.arm_after(crash_after);
        let mut completed: Vec<u64> = Vec::new();
        let crashed = pmem::run_crashable(|| {
            for &k in &keys {
                list.insert(k, k + 7);
                // The insert's publish line is flush-deferred (buffered
                // durable linearizability); the explicit sync is the
                // strict-durability ack boundary. Only record after it
                // returns (= linearized and durable).
                list.sync();
                completed.push(k);
            }
        })
        .is_err();
        controller.disarm();
        pmem::discard_pending();
        if crashed {
            for pool in list.space().pools() {
                pool.simulate_crash();
            }
            list.recover();
        }
        for &k in &completed {
            prop_assert_eq!(list.get(k), Some(k + 7), "completed insert {} lost", k);
        }
        list.check_invariants();
    }
}
