//! # pmalloc — recoverable memory management for PMEM pools
//!
//! Implements the thesis's memory management system (§4.3):
//!
//! * **coarse grain** (§4.3.2): MiB-scale chunks reserved inside each pool
//!   and registered in the RIV chunk table;
//! * **fine grain** (§4.3.3): per-arena lock-free free lists of equal-sized
//!   blocks (`MakeLinkedObject` / `DeleteLinkedObject` / `LinkInTail`,
//!   Functions 4–6);
//! * **logging** (§4.1.4): one persisted log line per thread, written before
//!   any modification that could leave memory unreachable, validated lazily
//!   on the thread's next allocation — O(threads) recovery, not O(size).

pub mod alloc;
pub mod blocks;
pub mod layout;
pub mod log;

pub use alloc::{AllocCounters, Allocator, NoNav, Reachability};
pub use blocks::{
    BLK_CLIENT, BLK_EPOCH, BLK_HEADER_WORDS, BLK_KIND, BLK_NEXT_FREE, KIND_FREE, KIND_NODE,
    KIND_RAW, NEXT_POPPED,
};
pub use layout::{AllocConfig, PoolLayout, LEASE_MAX_BLOCKS};
pub use log::{read_log, write_log, LogEntry, LOG_EMPTY, LOG_LEASE, LOG_PROVISION};

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::pool::PoolConfig;
    use pmem::{run_crashable, CrashController, Placement, Pool};
    use riv::{RivPtr, RivSpace};
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    const EPOCH1: u64 = 1;

    fn build(pools: u16, tracked: bool) -> Allocator {
        build_cfg(pools, tracked, AllocConfig::small())
    }

    fn build_cfg(pools: u16, tracked: bool, cfg: AllocConfig) -> Allocator {
        let layout = PoolLayout::for_config(&cfg);
        let words = layout.required_pool_words(&cfg, cfg.max_chunks as u64);
        let crash = Arc::new(CrashController::new());
        let pool_vec: Vec<_> = (0..pools)
            .map(|id| {
                let mut pc = if tracked {
                    PoolConfig::tracked(words)
                } else {
                    PoolConfig::simple(words)
                };
                pc.id = id;
                pc.placement = Placement::Node(id);
                Pool::new(pc, Arc::clone(&crash))
            })
            .collect();
        let space = Arc::new(RivSpace::new(
            pool_vec,
            layout.chunk_table_off,
            cfg.max_chunks,
        ));
        let a = Allocator::new(space, cfg);
        a.format(EPOCH1);
        a
    }

    #[test]
    fn format_seeds_every_arena() {
        let a = build(1, false);
        for arena in 0..a.config().num_arenas {
            assert!(
                a.count_free(0, arena) >= 1,
                "arena {arena} empty after format"
            );
        }
        assert_eq!(
            a.count_free_all(0) as u64,
            a.config().blocks_per_chunk,
            "all blocks of the first chunk must be free"
        );
    }

    #[test]
    fn alloc_returns_distinct_raw_blocks() {
        let a = build(1, false);
        let mut seen = HashSet::new();
        for i in 0..10u64 {
            let b = a.alloc(EPOCH1, 0, RivPtr::NULL, i + 1, &NoNav);
            assert!(seen.insert(b), "block {b} handed out twice");
            assert_eq!(a.space().read(b.add(BLK_KIND as u32)), KIND_RAW);
            assert_eq!(a.space().read(b.add(BLK_NEXT_FREE as u32)), NEXT_POPPED);
            assert_eq!(a.space().read(b.add(BLK_EPOCH as u32)), EPOCH1);
        }
    }

    #[test]
    fn exhaustion_provisions_new_chunks() {
        let a = build(1, false);
        let initial = a.chunks_provisioned(0);
        let n = a.config().blocks_per_chunk * 2;
        for i in 0..n {
            let _ = a.alloc(EPOCH1, 0, RivPtr::NULL, i + 1, &NoNav);
        }
        assert!(
            a.chunks_provisioned(0) > initial,
            "allocation pressure must grow the pool"
        );
    }

    #[test]
    fn free_returns_blocks_to_a_list() {
        let a = build(1, false);
        let before = a.count_free_all(0);
        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav);
        assert_eq!(a.count_free_all(0), before - 1);
        a.free(EPOCH1, 0, b);
        assert_eq!(a.count_free_all(0), before);
        assert_eq!(a.space().read(b.add(BLK_KIND as u32)), KIND_FREE);
    }

    #[test]
    fn free_zeroes_client_words() {
        let a = build(1, false);
        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav);
        for w in BLK_CLIENT..a.config().block_words {
            a.space().write(b.add(w as u32), 0xdead);
        }
        a.space().write(b.add(BLK_KIND as u32), KIND_NODE);
        a.free(EPOCH1, 0, b);
        for w in BLK_CLIENT..a.config().block_words {
            assert_eq!(
                a.space().read(b.add(w as u32)),
                0,
                "client word {w} not zeroed"
            );
        }
    }

    #[test]
    fn free_is_idempotent() {
        let a = build(1, false);
        let before = a.count_free_all(0);
        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav);
        a.free(EPOCH1, 0, b);
        a.free(EPOCH1, 0, b);
        a.free(EPOCH1, 0, b);
        assert_eq!(
            a.count_free_all(0),
            before,
            "double free must not duplicate the block"
        );
    }

    #[test]
    fn cross_pool_free_links_into_local_list() {
        let a = build(2, false);
        pmem::thread::register(0, 0);
        let b = a.alloc(EPOCH1, 1, RivPtr::NULL, 1, &NoNav); // block homed in pool 1
        assert_eq!(b.pool(), 1);
        let before = a.count_free_all(0);
        a.free(EPOCH1, 0, b); // pushed onto pool 0's free lists
        assert_eq!(a.count_free_all(0), before + 1);
    }

    #[test]
    fn stale_log_reclaims_unreachable_node() {
        let a = build(1, false);
        pmem::thread::register(3, 0);
        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, 42, &NoNav);
        // Simulate: the insert initialized the node but crashed before
        // linking it. NoNav says "unreachable" and reports key 42.
        struct Nav(RivPtr);
        impl Reachability for Nav {
            fn node_first_key(&self, b: RivPtr) -> u64 {
                assert_eq!(b, self.0);
                42
            }
            fn is_linked(&self, _k: u64, _b: RivPtr) -> bool {
                false
            }
        }
        a.space().write(b.add(BLK_KIND as u32), KIND_NODE);
        let free_before = a.count_free_all(0);
        // Next epoch: the thread's next allocation validates the stale log
        // and reclaims the orphan.
        let b2 = a.alloc(EPOCH1 + 1, 0, RivPtr::NULL, 43, &Nav(b));
        assert_ne!(b, b2);
        assert!(
            a.count_free_all(0) >= free_before,
            "orphan must return to a free list (minus the new allocation)"
        );
        assert_eq!(
            a.space().read(b.add(BLK_KIND as u32)),
            KIND_FREE,
            "orphan reclaimed"
        );
    }

    #[test]
    fn stale_log_keeps_reachable_node() {
        let a = build(1, false);
        pmem::thread::register(4, 0);
        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, 7, &NoNav);
        a.space().write(b.add(BLK_KIND as u32), KIND_NODE);
        struct Nav;
        impl Reachability for Nav {
            fn node_first_key(&self, _b: RivPtr) -> u64 {
                7
            }
            fn is_linked(&self, _k: u64, _b: RivPtr) -> bool {
                true // the insert completed before the crash
            }
        }
        let _ = a.alloc(EPOCH1 + 1, 0, RivPtr::NULL, 8, &Nav);
        assert_eq!(
            a.space().read(b.add(BLK_KIND as u32)),
            KIND_NODE,
            "a reachable node must survive log validation"
        );
    }

    #[test]
    fn stale_log_skips_block_repopped_in_new_epoch_even_with_same_key() {
        // The subtle §4.3.3 hazard: thread A's crashed insert of key K left
        // a stale log for block B; post-crash, thread B pops the same block
        // for the same key and is mid-insert (node initialized, unlinked).
        // Without the epoch guard, A's deferred recovery would free the
        // live block out from under its new owner.
        let a = build(1, false);
        pmem::thread::register(8, 0);
        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, 42, &NoNav); // A's pop, epoch 1
        a.space().write(b.add(BLK_KIND as u32), KIND_NODE);
        // Crash; the new owner pops B in epoch 2 (same thread id is fine:
        // the pop itself rewrites the block epoch). Simulate the re-pop by
        // stamping the new epoch and re-initializing with the same key.
        a.space().write(b.add(BLK_EPOCH as u32), EPOCH1 + 1);
        struct Nav;
        impl Reachability for Nav {
            fn node_first_key(&self, _b: RivPtr) -> u64 {
                42 // same key as the stale log
            }
            fn is_linked(&self, _k: u64, _b: RivPtr) -> bool {
                false // not yet linked by its new owner
            }
        }
        let _ = a.alloc(EPOCH1 + 1, 0, RivPtr::NULL, 43, &Nav);
        assert_eq!(
            a.space().read(b.add(BLK_KIND as u32)),
            KIND_NODE,
            "a block re-popped in a newer epoch must never be reclaimed from a stale log"
        );
    }

    #[test]
    fn a_block_named_by_two_stale_logs_is_reclaimed_once() {
        // Two threads' stale lease logs name the same unlinked node block
        // (one leased and freed it, the other re-leased it, both before the
        // crash). The first validation reclaims it; the second finds it
        // already freed in the new epoch and skips it.
        let a = build(1, false);
        pmem::thread::register(5, 0);
        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, 10, &NoNav);
        a.space().write(b.add(BLK_KIND as u32), KIND_NODE);
        write_log(a.space(), a.layout(), 20, LogEntry::lease(EPOCH1, &[b]));
        let b5 = a.alloc(EPOCH1 + 1, 0, RivPtr::NULL, 11, &NoNav);
        assert_eq!(a.space().read(b.add(BLK_KIND as u32)), KIND_FREE);
        pmem::thread::register(20, 0);
        let b20 = a.alloc(EPOCH1 + 1, 0, RivPtr::NULL, 12, &NoNav);
        a.free(EPOCH1 + 1, 0, b5);
        a.free(EPOCH1 + 1, 0, b20);
        // count_free panics on a cycle, so the walk below terminates.
        let total = a.chunks_provisioned(0) * a.config().blocks_per_chunk;
        assert_eq!(a.count_free_all(0) as u64, total);
        let mut links = 0;
        for arena in 0..a.config().num_arenas {
            let mut cur = RivPtr::from_raw(a.space().pool(0).read(a.layout().arena_head(arena)));
            while !cur.is_null() {
                links += usize::from(cur == b);
                cur = RivPtr::from_raw(a.space().read(cur.add(BLK_NEXT_FREE as u32)));
            }
        }
        assert_eq!(
            links, 1,
            "the doubly-named block must be freed exactly once"
        );
    }

    #[test]
    fn crash_during_provisioning_is_completed_on_recovery() {
        pmem::crash::silence_crash_panics();
        let a = build(1, true);
        pmem::thread::register(6, 0);
        let crash = Arc::clone(a.space().pool(0).crash_controller());
        // Drain the first chunk so the next alloc provisions chunk 2, then
        // crash somewhere inside provisioning.
        let n = a.config().blocks_per_chunk;
        for i in 0..n - a.config().num_arenas as u64 {
            let _ = a.alloc(EPOCH1, 0, RivPtr::NULL, i + 1, &NoNav);
        }
        crash.arm_after(40);
        let r = run_crashable(|| {
            for i in 0..n {
                let _ = a.alloc(EPOCH1, 0, RivPtr::NULL, 1000 + i, &NoNav);
            }
        });
        assert!(r.is_err(), "crash must have fired during provisioning");
        crash.disarm();
        pmem::discard_pending();
        a.space().pool(0).simulate_crash();
        a.space().invalidate_caches();
        // New epoch: the stale PROVISION log is completed lazily by the
        // same thread's next allocations.
        let mut seen = HashSet::new();
        for i in 0..2 * n {
            let b = a.alloc(EPOCH1 + 1, 0, RivPtr::NULL, 2000 + i, &NoNav);
            assert!(
                seen.insert(b),
                "double allocation after provisioning recovery"
            );
        }
    }

    #[test]
    fn concurrent_allocs_never_hand_out_duplicates() {
        let a = Arc::new(build(1, false));
        let all = Arc::new(Mutex::new(HashSet::new()));
        let threads = 8;
        let per = 200;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = Arc::clone(&a);
                let all = Arc::clone(&all);
                s.spawn(move || {
                    pmem::thread::register(t, 0);
                    let mut local = Vec::with_capacity(per);
                    for i in 0..per {
                        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, (t * per + i) as u64 + 1, &NoNav);
                        local.push(b);
                    }
                    let mut g = all.lock().unwrap();
                    for b in local {
                        assert!(g.insert(b), "block {b} allocated twice");
                    }
                });
            }
        });
        assert_eq!(all.lock().unwrap().len(), threads * per);
    }

    #[test]
    fn concurrent_alloc_free_preserves_block_conservation() {
        let a = Arc::new(build(1, false));
        let threads = 4;
        let rounds = 300;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    pmem::thread::register(t, 0);
                    for i in 0..rounds {
                        let b =
                            a.alloc(EPOCH1, 0, RivPtr::NULL, (t * rounds + i) as u64 + 1, &NoNav);
                        a.free(EPOCH1, 0, b);
                    }
                });
            }
        });
        let total = a.chunks_provisioned(0) * a.config().blocks_per_chunk;
        assert_eq!(
            a.count_free_all(0) as u64,
            total,
            "every block must be back in a free list after alloc/free pairs"
        );
    }

    // ---- leased-magazine fast path ----

    #[test]
    #[should_panic(expected = "lease size")]
    fn an_empty_lease_is_rejected() {
        build_cfg(1, false, AllocConfig::small_magazine(0));
    }

    #[test]
    fn magazine_serves_allocs_with_zero_pmem_traffic() {
        let a = build_cfg(1, true, AllocConfig::small_magazine(8));
        pmem::thread::register(10, 0);
        let b1 = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav); // lease acquisition
        let before = a.space().stats_snapshot();
        let mut seen = HashSet::from([b1]);
        // The seeded arena run holds 8 blocks and the terminal one is never
        // claimable, so the lease claimed 7: one returned, six parked.
        for i in 0..6u64 {
            let b = a.alloc(EPOCH1, 0, RivPtr::NULL, i + 2, &NoNav);
            assert!(seen.insert(b), "block {b} handed out twice");
        }
        let after = a.space().stats_snapshot();
        assert_eq!(
            after.writes, before.writes,
            "magazine hits must not write pmem"
        );
        assert_eq!(after.fences, before.fences, "magazine hits must not fence");
        let c = a.counters();
        assert_eq!(c.leases, 1);
        assert_eq!(c.lease_blocks, 7);
        assert_eq!(c.magazine_hits, 6);
    }

    #[test]
    fn leased_blocks_are_stamped_raw_and_popped() {
        let a = build_cfg(1, false, AllocConfig::small_magazine(4));
        pmem::thread::register(11, 0);
        for i in 0..4u64 {
            let b = a.alloc(EPOCH1, 0, RivPtr::NULL, i + 1, &NoNav);
            assert_eq!(a.space().read(b.add(BLK_KIND as u32)), KIND_RAW);
            assert_eq!(a.space().read(b.add(BLK_NEXT_FREE as u32)), NEXT_POPPED);
            assert_eq!(a.space().read(b.add(BLK_EPOCH as u32)), EPOCH1);
        }
    }

    #[test]
    fn drain_restores_block_conservation_with_magazine() {
        let a = build_cfg(1, false, AllocConfig::small_magazine(8));
        pmem::thread::register(12, 0);
        let mut held = Vec::new();
        for i in 0..20u64 {
            held.push(a.alloc(EPOCH1, 0, RivPtr::NULL, i + 1, &NoNav));
        }
        for b in held {
            a.free_deferred(EPOCH1, 0, b);
        }
        a.drain_all(EPOCH1);
        let total = a.chunks_provisioned(0) * a.config().blocks_per_chunk;
        assert_eq!(
            a.count_free_all(0) as u64,
            total,
            "drain must return magazine and outbox blocks to the lists"
        );
    }

    #[test]
    fn outbox_batches_frees_under_one_fence_per_flush() {
        let a = build_cfg(1, true, AllocConfig::small_magazine(8));
        pmem::thread::register(13, 0);
        let blocks: Vec<_> = (0..8u64)
            .map(|i| a.alloc(EPOCH1, 0, RivPtr::NULL, i + 1, &NoNav))
            .collect();
        let before = a.space().stats_snapshot();
        // 7 deferred frees stay in the outbox (capacity 8): no fence yet.
        for &b in &blocks[..7] {
            a.free_deferred(EPOCH1, 0, b);
        }
        let mid = a.space().stats_snapshot();
        assert_eq!(mid.fences, before.fences, "queued frees must not fence");
        // The 8th free fills the outbox and flushes it: the whole batch
        // pays one fence plus the LinkInTail's publish persist.
        a.free_deferred(EPOCH1, 0, blocks[7]);
        let after = a.space().stats_snapshot();
        assert!(
            after.fences - mid.fences <= 3,
            "outbox flush must batch fences, saw {}",
            after.fences - mid.fences
        );
        assert_eq!(a.counters().outbox_flushes, 1);
        assert_eq!(a.counters().outbox_blocks, 8);
    }

    #[test]
    fn free_deferred_is_idempotent_within_and_across_batches() {
        let a = build_cfg(1, false, AllocConfig::small_magazine(4));
        pmem::thread::register(14, 0);
        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav);
        a.free_deferred(EPOCH1, 0, b);
        a.free_deferred(EPOCH1, 0, b); // duplicate while queued
        a.drain_all(EPOCH1);
        a.free_deferred(EPOCH1, 0, b); // duplicate after the flush
        a.drain_all(EPOCH1);
        let total = a.chunks_provisioned(0) * a.config().blocks_per_chunk;
        assert_eq!(
            a.count_free_all(0) as u64,
            total,
            "double free must not duplicate"
        );
    }

    #[test]
    fn stale_lease_log_reclaims_unconsumed_blocks_on_restart() {
        // A lease is taken, some blocks are consumed, then the process
        // "restarts" (new Allocator over the same space = DRAM magazine
        // lost). The next epoch's first allocation must validate the stale
        // LOG_LEASE entry and reclaim every unconsumed block.
        let cfg = AllocConfig::small_magazine(8);
        let a = build_cfg(1, false, cfg);
        pmem::thread::register(15, 0);
        let _b1 = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav); // lease
        let leased = a.counters().lease_blocks;
        assert!(leased > 1, "test needs a multi-block lease");
        let restarted = Allocator::new(Arc::clone(a.space()), cfg);
        // All leased blocks are RAW/POPPED orphans now; the stale log names
        // them all and recovery frees each one (the next lease may first
        // provision a fresh chunk — growth is fine, loss is not).
        let b2 = restarted.alloc(EPOCH1 + 1, 0, RivPtr::NULL, 2, &NoNav);
        restarted.drain_all(EPOCH1 + 1);
        let total = restarted.chunks_provisioned(0) * restarted.config().blocks_per_chunk;
        let free = restarted.count_free_all(0) as u64;
        assert_eq!(
            free,
            total - 1,
            "exactly the one re-allocated block may be missing after lease recovery"
        );
        assert_ne!(b2, RivPtr::NULL);
    }

    #[test]
    fn stale_lease_log_keeps_linked_nodes_and_skips_reowned_blocks() {
        let cfg = AllocConfig::small_magazine(4);
        let a = build_cfg(1, false, cfg);
        pmem::thread::register(16, 0);
        let b1 = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav);
        let b2 = a.alloc(EPOCH1, 0, RivPtr::NULL, 2, &NoNav);
        // b1 became a linked node; b2 was re-owned in a newer epoch.
        a.space().write(b1.add(BLK_KIND as u32), KIND_NODE);
        a.space().write(b2.add(BLK_EPOCH as u32), EPOCH1 + 1);
        struct Nav(RivPtr);
        impl Reachability for Nav {
            fn node_first_key(&self, _b: RivPtr) -> u64 {
                77
            }
            fn is_linked(&self, _k: u64, b: RivPtr) -> bool {
                b == self.0 // only b1 is linked in
            }
        }
        let restarted = Allocator::new(Arc::clone(a.space()), cfg);
        let _ = restarted.alloc(EPOCH1 + 2, 0, RivPtr::NULL, 3, &Nav(b1));
        assert_eq!(
            restarted.space().read(b1.add(BLK_KIND as u32)),
            KIND_NODE,
            "a linked node must survive lease validation"
        );
        assert_eq!(
            restarted.space().read(b2.add(BLK_EPOCH as u32)),
            EPOCH1 + 1,
            "a re-owned block must not be touched by a stale lease log"
        );
        assert_ne!(
            restarted.space().read(b2.add(BLK_KIND as u32)),
            KIND_FREE,
            "a re-owned block must not be reclaimed from a stale lease log"
        );
    }

    // ---- ABA mis-pop regression (module docs "Known windows") ----

    #[test]
    fn mis_popped_head_is_never_double_allocated() {
        // Plant the aftermath of the documented ABA window: the arena head
        // slot names a block that already left the list (KIND_RAW, next =
        // POPPED). The pop guard must refuse to hand it out again and
        // self-heal the arena instead of spinning or double-allocating.
        let a = build(1, false);
        pmem::thread::register(17, 0);
        let arena = 17 % a.config().num_arenas;
        let victim = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav);
        assert_eq!(
            a.space().read(victim.add(BLK_NEXT_FREE as u32)),
            NEXT_POPPED
        );
        let pool = a.space().pool(0);
        let head_slot = a.layout().arena_head(arena);
        pool.write(head_slot, victim.raw()); // simulated mis-pop residue
        pool.persist(head_slot, 1);
        let chunks_before = a.chunks_provisioned(0);
        for i in 0..5u64 {
            let b = a.alloc(EPOCH1, 0, RivPtr::NULL, i + 2, &NoNav);
            assert_ne!(b, victim, "a linked-out block must never be re-allocated");
        }
        assert!(a.counters().heals >= 1, "the corrupt head must be healed");
        assert!(
            a.chunks_provisioned(0) > chunks_before,
            "healing provisions a fresh chunk for the arena"
        );
        // The victim is still exactly where its owner left it.
        assert_eq!(a.space().read(victim.add(BLK_KIND as u32)), KIND_RAW);
    }

    #[test]
    fn lease_multi_pop_never_claims_mis_popped_blocks() {
        // Same residue, lease path: the multi-pop walk must stop at the
        // first non-claimable block rather than leasing through it.
        let a = build_cfg(1, false, AllocConfig::small_magazine(8));
        pmem::thread::register(18, 0);
        let arena = 18 % a.config().num_arenas;
        let victim = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav);
        a.drain_all(EPOCH1); // return the rest of the first lease
        let pool = a.space().pool(0);
        let head_slot = a.layout().arena_head(arena);
        pool.write(head_slot, victim.raw());
        pool.persist(head_slot, 1);
        let mut seen = HashSet::new();
        for i in 0..10u64 {
            let b = a.alloc(EPOCH1, 0, RivPtr::NULL, i + 2, &NoNav);
            assert_ne!(b, victim, "lease multi-pop claimed a linked-out block");
            assert!(seen.insert(b), "block {b} handed out twice");
        }
        assert!(a.counters().heals >= 1);
    }

    #[test]
    fn magazine_is_discarded_across_epochs() {
        // Blocks leased in epoch e must not be served in epoch e+1: the
        // lease log was written in e and recovery reasons per-epoch.
        let a = build_cfg(1, false, AllocConfig::small_magazine(8));
        pmem::thread::register(19, 0);
        let b1 = a.alloc(EPOCH1, 0, RivPtr::NULL, 1, &NoNav);
        let b = a.alloc(EPOCH1 + 1, 0, RivPtr::NULL, 2, &NoNav);
        assert_eq!(
            a.space().read(b.add(BLK_EPOCH as u32)),
            EPOCH1 + 1,
            "a block served in a new epoch must carry that epoch"
        );
        a.drain_all(EPOCH1 + 1);
        // An epoch bump is a recovery boundary: the stale lease log treats
        // every still-RAW block from the old epoch as orphaned — including
        // `b1`, which was handed out but never initialized. Only `b` (the
        // new epoch's block) stays allocated.
        assert_eq!(a.space().read(b1.add(BLK_KIND as u32)), KIND_FREE);
        let total = a.chunks_provisioned(0) * a.config().blocks_per_chunk;
        assert_eq!(
            a.count_free_all(0) as u64 + 1,
            total,
            "only the new epoch's block may still be out"
        );
    }

    #[test]
    fn concurrent_magazine_allocs_never_hand_out_duplicates() {
        let a = Arc::new(build_cfg(1, false, AllocConfig::small_magazine(6)));
        let all = Arc::new(Mutex::new(HashSet::new()));
        let threads = 8;
        let per = 150;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = Arc::clone(&a);
                let all = Arc::clone(&all);
                s.spawn(move || {
                    pmem::thread::register(t, 0);
                    let mut local = Vec::with_capacity(per);
                    for i in 0..per {
                        let b = a.alloc(EPOCH1, 0, RivPtr::NULL, (t * per + i) as u64 + 1, &NoNav);
                        local.push(b);
                    }
                    let mut g = all.lock().unwrap();
                    for b in local {
                        assert!(g.insert(b), "block {b} allocated twice");
                    }
                });
            }
        });
        assert_eq!(all.lock().unwrap().len(), threads * per);
    }

    #[test]
    fn concurrent_magazine_alloc_free_conserves_blocks_after_drain() {
        let a = Arc::new(build_cfg(1, false, AllocConfig::small_magazine(6)));
        let threads = 4;
        let rounds = 200;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    pmem::thread::register(t, 0);
                    for i in 0..rounds {
                        let b =
                            a.alloc(EPOCH1, 0, RivPtr::NULL, (t * rounds + i) as u64 + 1, &NoNav);
                        a.free_deferred(EPOCH1, 0, b);
                    }
                });
            }
        });
        a.drain_all(EPOCH1);
        let total = a.chunks_provisioned(0) * a.config().blocks_per_chunk;
        assert_eq!(
            a.count_free_all(0) as u64,
            total,
            "every block must be accounted for after drain"
        );
    }
}
