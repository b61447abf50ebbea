//! # upskiplist — a scalable recoverable skip list for persistent memory
//!
//! Rust reproduction of **UPSkipList** (Chowdhury, *A Scalable Recoverable
//! Skip List for Persistent Memory on NUMA Machines*, SPAA '21 / UWaterloo
//! thesis 2021): a fully PMEM-resident skip list derived from Herlihy et
//! al.'s lock-free algorithm via an extension of RECIPE to lock-free
//! algorithms with **non-repairing, non-blocking writes**.
//!
//! Key ideas implemented here:
//!
//! * **Failure-free epochs (§4.1.3)** — a persistent, monotonically
//!   increasing `epochID`; every node records the epoch in which it was
//!   created or last verified. A traversal meeting an older epoch knows no
//!   live thread owns that node, claims it by CASing the epoch forward, and
//!   repairs interrupted splits and tower builds in place.
//! * **Deferred recovery (§4.1.4–4.1.5)** — per-thread allocation logs make
//!   post-crash memory reclamation O(threads), and restart cost is O(pools):
//!   [`UpSkipList::open`] just reconnects and bumps the epoch.
//! * **Multi-key nodes with recoverable splits (§4.5)** — unordered internal
//!   keys claimed by CAS under a per-node read lock; splits take the write
//!   lock, move the sorted upper half to a new node, and bump a split
//!   counter that readers validate.
//! * **Extended RIV pointers + NUMA awareness (§4.3)** — single-word
//!   `[pool | chunk | offset]` persistent pointers over one pool per NUMA
//!   node (or one striped pool), with cache-efficient one-word next links.
//!
//! ## Quick start
//!
//! ```
//! use upskiplist::{ListBuilder, ListConfig};
//!
//! let list = ListBuilder {
//!     list: ListConfig::new(16, 8),
//!     ..ListBuilder::default()
//! }
//! .create();
//!
//! assert_eq!(list.insert(7, 700), None);
//! assert_eq!(list.get(7), Some(700));
//! assert_eq!(list.insert(7, 701), Some(700));
//! assert_eq!(list.remove(7), Some(701));
//! assert_eq!(list.get(7), None);
//! ```

pub mod batch;
pub mod compact;
pub mod config;
pub mod iter;
pub mod layout;
pub mod list;
pub mod metrics;
pub mod ops;
pub mod recovery;
pub mod rwlock;
pub(crate) mod shadow;
pub(crate) mod tags;
pub mod traverse;

#[cfg(test)]
mod flush_audit_tests;

pub use config::{ListConfig, MAX_HEIGHT, MAX_USER_KEY, MIN_USER_KEY};
pub use list::{ListBuilder, UpSkipList};
pub use metrics::{StructMetricsSnapshot, StructStats};
pub use obs::ObsLevel;
pub use shadow::{DEFAULT_SHADOW_CAPACITY, DEFAULT_SHADOW_REGIONS};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn list(max_height: usize, keys_per_node: usize) -> Arc<UpSkipList> {
        ListBuilder {
            list: ListConfig::new(max_height, keys_per_node),
            ..ListBuilder::default()
        }
        .create()
    }

    #[test]
    fn empty_list_finds_nothing() {
        let l = list(8, 4);
        assert_eq!(l.get(1), None);
        assert_eq!(l.get(u64::MAX - 1), None);
        assert_eq!(l.remove(5), None);
        assert_eq!(l.count_live(), 0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let l = list(8, 4);
        assert_eq!(l.insert(10, 100), None);
        assert_eq!(l.get(10), Some(100));
        assert_eq!(l.get(9), None);
        assert_eq!(l.get(11), None);
    }

    #[test]
    fn insert_is_upsert() {
        let l = list(8, 4);
        assert_eq!(l.insert(10, 100), None);
        assert_eq!(l.insert(10, 101), Some(100));
        assert_eq!(l.get(10), Some(101));
    }

    #[test]
    fn remove_then_reinsert() {
        let l = list(8, 4);
        l.insert(10, 100);
        assert_eq!(l.remove(10), Some(100));
        assert_eq!(l.get(10), None);
        assert_eq!(l.remove(10), None);
        assert_eq!(
            l.insert(10, 102),
            None,
            "reinsert after remove is a fresh insert"
        );
        assert_eq!(l.get(10), Some(102));
    }

    #[test]
    fn many_sequential_inserts_split_nodes() {
        let l = list(12, 4);
        for k in 1..=200u64 {
            assert_eq!(l.insert(k, k * 2), None);
        }
        for k in 1..=200u64 {
            assert_eq!(l.get(k), Some(k * 2), "key {k}");
        }
        assert!(l.node_count() > 1, "splits must have created nodes");
        l.check_invariants();
    }

    #[test]
    fn descending_and_interleaved_insert_orders() {
        let l = list(12, 4);
        for k in (1..=100u64).rev() {
            l.insert(k, k);
        }
        for k in (101..=200u64).step_by(2) {
            l.insert(k, k);
        }
        for k in (102..=200u64).step_by(2) {
            l.insert(k, k);
        }
        for k in 1..=200u64 {
            assert_eq!(l.get(k), Some(k), "key {k}");
        }
        l.check_invariants();
    }

    #[test]
    fn single_key_per_node_mode() {
        let l = list(12, 1);
        for k in [5u64, 3, 9, 1, 7, 2, 8, 4, 6] {
            assert_eq!(l.insert(k, k * 10), None);
        }
        for k in 1..=9u64 {
            assert_eq!(l.get(k), Some(k * 10));
        }
        assert_eq!(l.node_count(), 9, "one node per key in K=1 mode");
        l.check_invariants();
    }

    #[test]
    fn matches_btreemap_model_sequentially() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let l = list(10, 4);
        let mut model = BTreeMap::new();
        for _ in 0..3000 {
            let k = rng.gen_range(1..=300u64);
            match rng.gen_range(0..3) {
                0 => {
                    let v = rng.gen_range(0..1_000_000u64);
                    assert_eq!(l.insert(k, v), model.insert(k, v), "insert {k}");
                }
                1 => assert_eq!(l.remove(k), model.remove(&k), "remove {k}"),
                _ => assert_eq!(l.get(k), model.get(&k).copied(), "get {k}"),
            }
        }
        assert_eq!(l.count_live(), model.len());
        l.check_invariants();
    }

    #[test]
    fn range_returns_live_pairs_in_order() {
        let l = list(10, 4);
        for k in (10..=100u64).step_by(10) {
            l.insert(k, k + 1);
        }
        l.remove(50);
        let got = l.range(20, 80);
        assert_eq!(
            got,
            vec![(20, 21), (30, 31), (40, 41), (60, 61), (70, 71), (80, 81)]
        );
        assert_eq!(l.range(1, 5), vec![]);
        assert_eq!(l.range(95, 200), vec![(100, 101)]);
    }

    #[test]
    fn reserved_keys_rejected() {
        let l = list(8, 4);
        assert!(std::panic::catch_unwind(|| l.insert(0, 1)).is_err());
        assert!(std::panic::catch_unwind(|| l.insert(u64::MAX, 1)).is_err());
        assert!(std::panic::catch_unwind(|| l.insert(1, u64::MAX)).is_err());
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let l = list(16, 8);
        let threads = 8u64;
        let per = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let l = &l;
                s.spawn(move || {
                    pmem::thread::register(t as usize, 0);
                    for i in 0..per {
                        let k = t * per + i + 1;
                        assert_eq!(l.insert(k, k * 7), None);
                    }
                });
            }
        });
        for k in 1..=threads * per {
            assert_eq!(l.get(k), Some(k * 7), "key {k}");
        }
        assert_eq!(l.count_live() as u64, threads * per);
        l.check_invariants();
    }

    #[test]
    fn concurrent_mixed_workload_on_shared_keys() {
        let l = list(16, 8);
        let threads = 8;
        std::thread::scope(|s| {
            for t in 0..threads {
                let l = &l;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    pmem::thread::register(t, 0);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t as u64);
                    for _ in 0..2000 {
                        let k = rng.gen_range(1..=200u64);
                        match rng.gen_range(0..4) {
                            0 => {
                                l.insert(k, rng.gen_range(0..1000));
                            }
                            1 => {
                                l.remove(k);
                            }
                            _ => {
                                l.get(k);
                            }
                        }
                    }
                });
            }
        });
        l.check_invariants();
    }

    #[test]
    fn concurrent_same_key_upserts_keep_one_value() {
        let l = list(12, 4);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let l = &l;
                s.spawn(move || {
                    pmem::thread::register(t as usize, 0);
                    for i in 0..500u64 {
                        l.insert(42, t * 10_000 + i);
                    }
                });
            }
        });
        let v = l.get(42).expect("key 42 must exist");
        assert!(v < 8 * 10_000 + 500);
        assert_eq!(l.count_live(), 1);
        l.check_invariants();
    }

    #[test]
    fn multi_pool_numa_deployment_works() {
        let l = ListBuilder {
            list: ListConfig::new(12, 4),
            num_pools: 4,
            pool_words: 1 << 20,
            ..ListBuilder::default()
        }
        .create();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let l = &l;
                s.spawn(move || {
                    pmem::thread::register(t as usize, (t % 4) as u16);
                    for i in 0..300u64 {
                        let k = t * 300 + i + 1;
                        l.insert(k, k);
                    }
                });
            }
        });
        for k in 1..=2400u64 {
            assert_eq!(l.get(k), Some(k));
        }
        l.check_invariants();
        // Nodes really are spread across pools.
        let mut pools_seen = std::collections::HashSet::new();
        let mut cur = l.next(l.head(), 0);
        while cur != l.tail() {
            pools_seen.insert(cur.pool());
            cur = l.next(cur, 0);
        }
        assert!(
            pools_seen.len() > 1,
            "multi-pool deployment must place nodes on several pools"
        );
    }

    #[test]
    fn read_your_writes_survives_concurrent_splits() {
        // Regression for the stale-empty-read race the linearizability
        // analyzer caught: a lookup concurrent with a split could miss a
        // key mid-transfer and report "absent" without validation. Small
        // nodes + a hot keyspace force constant splits under readers.
        let l = list(10, 4);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let l = &l;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    pmem::thread::register(t as usize, 0);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                    for i in 0..3000u64 {
                        let k = rng.gen_range(1..=500u64);
                        let v = t * 1_000_000 + i;
                        l.insert(k, v);
                        assert!(
                            l.get(k).is_some(),
                            "thread {t}: key {k} invisible right after its own insert"
                        );
                    }
                });
            }
        });
        l.check_invariants();
    }

    #[test]
    fn open_reconnects_a_fresh_handle_to_existing_pools() {
        let l = ListBuilder {
            list: ListConfig::new(10, 8),
            mode: pmem::PersistenceMode::Tracked,
            ..ListBuilder::default()
        }
        .create();
        for k in 1..=300u64 {
            l.insert(k, k + 9);
        }
        let epoch_before = l.epoch();
        let space = std::sync::Arc::clone(l.space());
        let acfg = *l.allocator().config();
        drop(l);
        // A brand-new process: rebuild the allocator handle over the same
        // pools and reopen. Opening bumps the failure-free epoch.
        let alloc = pmalloc::Allocator::new(space, acfg);
        let l2 = UpSkipList::open(alloc);
        assert_eq!(l2.epoch(), epoch_before + 1);
        assert_eq!(*l2.config(), ListConfig::new(10, 8));
        for k in 1..=300u64 {
            assert_eq!(l2.get(k), Some(k + 9), "key {k} lost across reopen");
        }
        l2.insert(1000, 1);
        assert_eq!(l2.get(1000), Some(1));
        l2.check_invariants();
    }

    #[test]
    fn open_after_dirty_crash_recovers() {
        let l = ListBuilder {
            list: ListConfig::new(10, 8),
            mode: pmem::PersistenceMode::Tracked,
            ..ListBuilder::default()
        }
        .create();
        for k in 1..=200u64 {
            l.insert(k, k);
        }
        for pool in l.space().pools() {
            pool.simulate_crash(); // no clean shutdown
        }
        let space = std::sync::Arc::clone(l.space());
        let acfg = *l.allocator().config();
        drop(l);
        let l2 = UpSkipList::open(pmalloc::Allocator::new(space, acfg));
        for k in 1..=200u64 {
            assert_eq!(l2.get(k), Some(k), "key {k} lost across dirty reopen");
        }
        l2.check_invariants();
    }

    #[test]
    fn persistence_roundtrip_clean_shutdown() {
        let l = ListBuilder {
            list: ListConfig::new(10, 4),
            mode: pmem::PersistenceMode::Tracked,
            ..ListBuilder::default()
        }
        .create();
        for k in 1..=100u64 {
            l.insert(k, k + 5);
        }
        l.close();
        for pool in l.space().pools() {
            pool.simulate_crash(); // clean shutdown: nothing may be lost
        }
        l.recover();
        for k in 1..=100u64 {
            assert_eq!(l.get(k), Some(k + 5), "key {k} lost across clean shutdown");
        }
        l.check_invariants();
    }

    #[test]
    fn dirty_crash_preserves_all_completed_inserts() {
        let l = ListBuilder {
            list: ListConfig::new(10, 4),
            mode: pmem::PersistenceMode::Tracked,
            ..ListBuilder::default()
        }
        .create();
        // Every insert persists its linearization point before returning,
        // so even without a clean shutdown all acknowledged inserts must
        // survive.
        for k in 1..=200u64 {
            l.insert(k, k);
        }
        for pool in l.space().pools() {
            pool.simulate_crash();
        }
        l.recover();
        for k in 1..=200u64 {
            assert_eq!(l.get(k), Some(k), "acked insert {k} lost in crash");
        }
        l.check_invariants();
    }
}
