//! Crash-recovery integration sweeps: deterministic crash points during
//! concurrent workloads, followed by full verification.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem::{run_crashable, PersistenceMode};
use upskiplist::{ListBuilder, ListConfig};

fn tracked_list(keys_per_node: usize) -> Arc<upskiplist::UpSkipList> {
    ListBuilder {
        list: ListConfig::new(12, keys_per_node),
        mode: PersistenceMode::Tracked,
        pool_words: 1 << 22,
        ..ListBuilder::default()
    }
    .create()
}

/// Run concurrent inserts until the armed crash fires; returns the number
/// of acknowledged (returned) inserts per thread stream.
fn inserts_until_crash(
    list: &Arc<upskiplist::UpSkipList>,
    threads: u64,
    crash_after: u64,
) -> Vec<u64> {
    let controller = Arc::clone(list.space().pool(0).crash_controller());
    controller.arm_after(crash_after);
    let acked: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for t in 0..threads {
            let list = Arc::clone(list);
            let acked = &acked[t as usize];
            s.spawn(move || {
                pmem::thread::register(t as usize, 0);
                let mut k = t + 1;
                let _ = run_crashable(|| loop {
                    list.insert(k, k + 1_000_000);
                    acked.store(k, Ordering::Release);
                    k += threads;
                });
                pmem::discard_pending();
            });
        }
    });
    controller.disarm();
    acked.iter().map(|a| a.load(Ordering::Acquire)).collect()
}

#[test]
fn acked_inserts_survive_crashes_at_many_points() {
    pmem::crash::silence_crash_panics();
    for crash_after in [5_000u64, 20_000, 80_000, 200_000] {
        let list = tracked_list(8);
        let threads = 4;
        let acked = inserts_until_crash(&list, threads, crash_after);
        for pool in list.space().pools() {
            pool.simulate_crash();
        }
        list.recover();
        for (t, &last) in acked.iter().enumerate() {
            let mut k = t as u64 + 1;
            while k <= last {
                assert_eq!(
                    list.get(k),
                    Some(k + 1_000_000),
                    "crash@{crash_after}: acked insert {k} lost"
                );
                k += threads;
            }
        }
        // The structure must be fully usable and structurally sound.
        list.insert(999_999, 1);
        assert_eq!(list.get(999_999), Some(1));
        list.check_invariants();
    }
}

#[test]
fn repeated_crash_recover_cycles_accumulate_no_damage() {
    pmem::crash::silence_crash_panics();
    let list = tracked_list(8);
    let mut all_acked: Vec<(u64, u64)> = Vec::new();
    let mut base = 0u64;
    for round in 0..5u64 {
        let controller = Arc::clone(list.space().pool(0).crash_controller());
        controller.arm_after(30_000 + round * 7_000);
        let acked: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let list = Arc::clone(&list);
                let acked = &acked[t as usize];
                s.spawn(move || {
                    pmem::thread::register(t as usize, 0);
                    let mut k = base + t + 1;
                    let _ = run_crashable(|| loop {
                        list.insert(k, k);
                        acked.store(k, Ordering::Release);
                        k += 2;
                    });
                    pmem::discard_pending();
                });
            }
        });
        controller.disarm();
        for pool in list.space().pools() {
            pool.simulate_crash();
        }
        list.recover();
        for (t, a) in acked.iter().enumerate() {
            let hi = a.load(Ordering::Acquire);
            if hi > base {
                all_acked.push((base + t as u64 + 1, hi));
            }
        }
        base += 10_000;
    }
    // All acknowledged per-thread streams from every round are intact
    // (keys step by 2 within a stream).
    for &(lo, hi) in &all_acked {
        let mut k = lo;
        while k <= hi {
            assert!(list.get(k).is_some(), "key {k} from an earlier epoch lost");
            k += 2;
        }
    }
    list.check_invariants();
}

#[test]
fn eviction_mode_widens_persisted_states_without_breaking_recovery() {
    pmem::crash::silence_crash_panics();
    // Random cache evictions persist *more* than the algorithm flushed; the
    // structure must recover from those states too.
    for trial in 0..5u64 {
        let list = ListBuilder {
            list: ListConfig::new(12, 8),
            mode: PersistenceMode::Tracked,
            pool_words: 1 << 22,
            evict_one_in: 3,
            ..ListBuilder::default()
        }
        .create();
        let acked = inserts_until_crash(&list, 3, 40_000 + trial * 13_000);
        for pool in list.space().pools() {
            pool.simulate_crash();
        }
        list.recover();
        for (t, &last) in acked.iter().enumerate() {
            let mut k = t as u64 + 1;
            while k <= last {
                assert_eq!(list.get(k), Some(k + 1_000_000), "trial {trial}: key {k}");
                k += 3;
            }
        }
        list.check_invariants();
    }
}

#[test]
fn multi_pool_numa_deployment_survives_crashes() {
    pmem::crash::silence_crash_panics();
    for trial in 0..4u64 {
        let list = ListBuilder {
            list: ListConfig::new(12, 8),
            mode: PersistenceMode::Tracked,
            num_pools: 4,
            pool_words: 1 << 21,
            ..ListBuilder::default()
        }
        .create();
        let controller = Arc::clone(list.space().pool(0).crash_controller());
        controller.arm_after(40_000 + trial * 21_000);
        let threads = 8u64;
        let acked: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..threads {
                let list = Arc::clone(&list);
                let acked = &acked[t as usize];
                s.spawn(move || {
                    // Threads spread round-robin over the 4 NUMA nodes, so
                    // allocations hit all pools.
                    pmem::thread::register(t as usize, (t % 4) as u16);
                    let mut k = t + 1;
                    let _ = run_crashable(|| loop {
                        list.insert(k, k + 7);
                        // The publishing link is flush-deferred; `sync()`
                        // is the durability ack boundary.
                        list.sync();
                        acked.store(k, Ordering::Release);
                        k += threads;
                    });
                    pmem::discard_pending();
                });
            }
        });
        controller.disarm();
        // The power failure hits every pool of the machine at once.
        for pool in list.space().pools() {
            pool.simulate_crash();
        }
        list.recover();
        for (t, a) in acked.iter().enumerate() {
            let last = a.load(Ordering::Acquire);
            let mut k = t as u64 + 1;
            while k <= last {
                assert_eq!(
                    list.get(k),
                    Some(k + 7),
                    "trial {trial}: acked insert {k} lost in multi-pool crash"
                );
                k += threads;
            }
        }
        // Cross-pool structure is sound after the crash.
        list.check_invariants();
        // A post-recovery round from every NUMA node must succeed and land
        // allocations on multiple pools (pre-crash scheduling on a single
        // core may have run only one thread).
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = Arc::clone(&list);
                s.spawn(move || {
                    pmem::thread::register(t as usize, t as u16);
                    for i in 0..200u64 {
                        let k = 1_000_000 + t * 200 + i;
                        list.insert(k, k);
                        assert_eq!(list.get(k), Some(k));
                    }
                });
            }
        });
        list.check_invariants();
        let dist = list.node_distribution();
        assert!(
            dist.iter().filter(|&&c| c > 0).count() > 1,
            "trial {trial}: nodes on several pools: {dist:?}"
        );
    }
}

#[test]
fn allocator_conserves_blocks_across_crash_with_bounded_leak() {
    pmem::crash::silence_crash_panics();
    let threads = 4u64;
    let list = tracked_list(4);
    let _ = inserts_until_crash(&list, threads, 60_000);
    for pool in list.space().pools() {
        pool.simulate_crash();
    }
    list.recover();
    // Exercise deferred log recovery: every thread id allocates again.
    std::thread::scope(|s| {
        for t in 0..threads {
            let list = Arc::clone(&list);
            s.spawn(move || {
                pmem::thread::register(t as usize, 0);
                for i in 0..200u64 {
                    list.insert(1_000_000 + t * 1000 + i, 1);
                }
            });
        }
    });
    list.check_invariants();
    let alloc = list.allocator();
    let provisioned: u64 = alloc.chunks_provisioned(0) * alloc.config().blocks_per_chunk;
    let free = alloc.count_free_all(0) as u64;
    let live = list.node_count() as u64 + 2; // + sentinels
    assert!(
        provisioned >= free + live,
        "more blocks in circulation than provisioned: {provisioned} < {free}+{live}"
    );
    let leaked = provisioned - free - live;
    // The documented crash windows leak at most ~1 block per thread plus
    // one partially-provisioned chunk.
    let bound = threads + alloc.config().blocks_per_chunk;
    assert!(
        leaked <= bound,
        "crash leaked {leaked} blocks (bound {bound}) of {provisioned}"
    );
}
