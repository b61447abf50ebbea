//! Crash-recovery grids over the crash harness (`bench::sweep`): fresh-key
//! insert streams, a power failure at fixed pmem-op counts, recovery, and
//! the harness's verdict, in which a lost acked insert (acked once `insert`
//! and `sync` both returned) is a read-back that misses a completed write.

use std::sync::Arc;

use bench::sweep::{run_point, Arm, Keys, KvSubject, KvWorkload, Phase};
use pmem::{CrashPlan, PersistenceMode};
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

fn tracked(keys_per_node: usize) -> ListBuilder {
    ListBuilder {
        list: ListConfig::new(12, keys_per_node),
        mode: PersistenceMode::Tracked,
        pool_words: 1 << 22,
        ..ListBuilder::default()
    }
}

/// `threads` fresh-key insert streams, thread `t` on NUMA node
/// `t % numa_nodes`, until the crash; then `after` more inserts per thread
/// on the recovered list.
fn streams(list: &Arc<UpSkipList>, threads: usize, numa_nodes: u16, after: u64) -> KvSubject {
    let fresh = |ops| Phase {
        keys: Keys::Fresh,
        ops,
    };
    let w = KvWorkload {
        threads,
        numa_nodes,
        prepop: 0,
        load: fresh(u64::MAX),
        verify: (after > 0).then(|| fresh(after)),
    };
    KvSubject::new(Arc::clone(list).into(), w)
}

/// Crash `s` after `pmem_ops` pmem operations with every unfenced line
/// dropped, recover, and verify.
fn crash(s: &mut KvSubject, pmem_ops: u64) {
    pmem::crash::silence_crash_panics();
    if let Err(e) = run_point(s, Arm::After(pmem_ops), CrashPlan::DropAll, None, false) {
        panic!("crash@{pmem_ops}: {e}");
    }
}

#[test]
fn acked_inserts_survive_crashes_at_many_points() {
    for crash_after in [5_000u64, 20_000, 80_000, 200_000] {
        // One more insert per thread proves the recovered list usable.
        crash(&mut streams(&tracked(8).create(), 4, 1, 1), crash_after);
    }
}

#[test]
fn repeated_crash_recover_cycles_accumulate_no_damage() {
    let mut s = streams(&tracked(8).create(), 2, 1, 0);
    // Each round's verdict reads back every key of every earlier round.
    for round in 0..5u64 {
        crash(&mut s, 30_000 + round * 7_000);
    }
}

#[test]
fn eviction_mode_widens_persisted_states_without_breaking_recovery() {
    // Random cache evictions persist *more* than the algorithm flushed; the
    // structure must recover from those states too.
    for trial in 0..5u64 {
        let list = ListBuilder {
            evict_one_in: 3,
            ..tracked(8)
        }
        .create();
        crash(&mut streams(&list, 3, 1, 0), 40_000 + trial * 13_000);
    }
}

#[test]
fn multi_pool_numa_deployment_survives_crashes() {
    for trial in 0..4u64 {
        let list = ListBuilder {
            num_pools: 4,
            pool_words: 1 << 21,
            ..tracked(8)
        }
        .create();
        // Threads spread round-robin over the 4 NUMA nodes and the power
        // failure hits every pool at once. After recovery every thread
        // inserts again from its node, so nodes land on several pools even
        // if pre-crash scheduling on one core ran only one thread.
        crash(&mut streams(&list, 8, 4, 200), 40_000 + trial * 21_000);
        let dist = list.node_distribution();
        assert!(
            dist.iter().filter(|&&c| c > 0).count() > 1,
            "trial {trial}: nodes on several pools: {dist:?}"
        );
    }
}

#[test]
fn allocator_conserves_blocks_across_crash_with_bounded_leak() {
    let threads = 4;
    let list = tracked(4).create();
    // After recovery every thread id allocates again, which runs the
    // allocator's deferred log recovery.
    crash(&mut streams(&list, threads, 1, 200), 60_000);
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
    let bound = threads as u64 + alloc.config().blocks_per_chunk;
    assert!(
        leaked <= bound,
        "crash leaked {leaked} blocks (bound {bound}) of {provisioned}"
    );
}
