//! Crash-during-recovery and torn-log hardening tests (E12).
//!
//! The per-thread allocation log is one cache line overwritten in place;
//! a crash whose residue keeps the dirty line ([`CrashPlan::KeepAll`] or a
//! seeded policy) can persist a *torn* slot mixing the previous entry's
//! kind word with the next entry's fields. Recovery must treat every field
//! read back from the log as untrusted — these tests construct the torn
//! decodings directly and also drive full crash → recover → crash-again
//! cycles through the injection machinery.

use std::sync::Arc;

use pmalloc::{
    read_log, write_log, AllocConfig, Allocator, LogEntry, NoNav, PoolLayout, KIND_FREE,
};
use pmem::pool::PoolConfig;
use pmem::{run_crashable, CrashController, CrashPlan, Pool};
use riv::{RivPtr, RivSpace};

const LOG_PROVISION_KIND: u64 = 2;
const LOG_LEASE_KIND: u64 = 3;

fn build(chunks: u64) -> (Allocator, Arc<Pool>) {
    let cfg = AllocConfig::small();
    let layout = PoolLayout::for_config(&cfg);
    let words = layout.required_pool_words(&cfg, chunks);
    let pool = Pool::new(PoolConfig::tracked(words), Arc::new(CrashController::new()));
    let space = Arc::new(RivSpace::new(
        vec![Arc::clone(&pool)],
        layout.chunk_table_off,
        cfg.max_chunks,
    ));
    let a = Allocator::new(space, cfg);
    a.format(1);
    (a, pool)
}

/// Dirty the log slot as a half-finished `write_log` would (fields written,
/// kind word untouched), then crash keeping the torn line.
fn tear_slot(a: &Allocator, pool: &Arc<Pool>, kind: u64, w2: u64, w3: u64) {
    let slot = a.layout().log_slot(pmem::thread::current().id);
    pool.write(slot, 1); // stale epoch — forces validation on next alloc
    pool.write(slot + 1, kind);
    pool.write(slot + 2, w2);
    pool.write(slot + 3, w3);
    pool.simulate_crash_with(CrashPlan::KeepAll);
    pmem::discard_pending();
}

#[test]
fn torn_provision_entry_with_garbage_pool_id_is_skipped() {
    let (a, pool) = build(8);
    // Regression for the crash_sweep find: an old PROVISION kind over a new
    // entry's block pointer decodes as pool_id = 384 on a 1-pool
    // machine. Recovery used to index pools[384] and die.
    tear_slot(&a, &pool, LOG_PROVISION_KIND, 384, 1);
    let b = a.alloc(2, 0, RivPtr::NULL, 7, &NoNav);
    assert!(!b.is_null());
    a.free(2, 0, b);
}

#[test]
fn torn_provision_entry_with_zero_chunk_id_is_skipped() {
    let (a, pool) = build(8);
    tear_slot(&a, &pool, LOG_PROVISION_KIND, 0, 0);
    let b = a.alloc(2, 0, RivPtr::NULL, 7, &NoNav);
    a.free(2, 0, b);
}

#[test]
fn provision_entry_for_chunk_beyond_the_pool_is_skipped() {
    // chunk id 60 is within max_chunks but this pool only has room for 4
    // chunks — recovery must not carve headers past the end of the pool.
    let (a, pool) = build(4);
    let provisioned_before = a.chunks_provisioned(0);
    tear_slot(&a, &pool, LOG_PROVISION_KIND, 0, 60);
    let b = a.alloc(2, 0, RivPtr::NULL, 7, &NoNav);
    a.free(2, 0, b);
    assert_eq!(a.chunks_provisioned(0), provisioned_before);
}

#[test]
fn torn_lease_entry_with_unresolvable_block_is_skipped() {
    let (a, pool) = build(8);
    // A one-block lease naming all-ones raw: pool 0xffff, chunk 0xffff —
    // nothing resolves.
    tear_slot(&a, &pool, LOG_LEASE_KIND, 1, u64::MAX);
    let b = a.alloc(2, 0, RivPtr::NULL, 7, &NoNav);
    a.free(2, 0, b);
}

#[test]
fn torn_lease_entry_with_unregistered_chunk_is_skipped() {
    let (a, pool) = build(8);
    // Chunk 37 is in range but was never provisioned/registered.
    tear_slot(&a, &pool, LOG_LEASE_KIND, 1, RivPtr::new(0, 37, 64).raw());
    let b = a.alloc(2, 0, RivPtr::NULL, 7, &NoNav);
    a.free(2, 0, b);
}

#[test]
fn retired_alloc_kind_decodes_as_empty() {
    // Kind 1 was the per-pop log entry before every pop became a lease; a
    // pool written by that code may still hold one. It decodes as empty
    // and recovery has nothing to do for it.
    let (a, pool) = build(8);
    tear_slot(&a, &pool, 1, RivPtr::new(0, 1, 64).raw(), 0);
    let tid = pmem::thread::current().id;
    assert_eq!(read_log(a.space(), a.layout(), tid), LogEntry::Empty);
    let b = a.alloc(2, 0, RivPtr::NULL, 7, &NoNav);
    assert!(!b.is_null());
    a.free(2, 0, b);
}

#[test]
fn intact_stale_logs_still_recover() {
    // The hardening must not skip *valid* stale entries: an interrupted
    // provision (logged, chunk never registered) is completed on replay.
    let (a, pool) = build(8);
    let tid = pmem::thread::current().id;
    write_log(
        a.space(),
        a.layout(),
        tid,
        LogEntry::Provision {
            epoch: 1,
            pool_id: 0,
            chunk_id: 2,
        },
    );
    pool.simulate_crash_with(CrashPlan::KeepAll);
    pmem::discard_pending();
    assert!(matches!(
        read_log(a.space(), a.layout(), tid),
        LogEntry::Provision { chunk_id: 2, .. }
    ));
    let free_before = a.count_free_all(0);
    let b = a.alloc(2, 0, RivPtr::NULL, 7, &NoNav);
    a.free(2, 0, b);
    // Replay carved and linked chunk 2: the free count must have grown by
    // about a chunk's worth of blocks.
    assert!(
        a.count_free_all(0) > free_before,
        "stale provision entry was not completed"
    );
}

#[test]
fn crash_during_lazy_recovery_is_idempotent_under_residue() {
    pmem::crash::silence_crash_panics();
    let plans = [
        CrashPlan::KeepUnfencedOnly,
        CrashPlan::KeepAll,
        CrashPlan::Seeded(11),
        CrashPlan::Seeded(12),
    ];
    for (pi, &plan) in plans.iter().enumerate() {
        for crash_after in [40u64, 90, 150, 260, 400] {
            let (a, pool) = build(AllocConfig::small().max_chunks as u64);
            let ctl = Arc::clone(pool.crash_controller());
            let cfg = *a.config();

            // Workload: allocate a pile (forces chunk provisioning),
            // free every other block, crash mid-way.
            ctl.arm_after(crash_after);
            let _ = run_crashable(|| {
                let mut held = Vec::new();
                for i in 0..3 * cfg.blocks_per_chunk {
                    held.push(a.alloc(1, 0, RivPtr::NULL, i + 1, &NoNav));
                    if i % 2 == 1 {
                        let b = held.swap_remove(held.len() / 2);
                        a.free(1, 0, b);
                    }
                }
            });
            ctl.disarm();
            pool.simulate_crash_with(plan);
            pmem::discard_pending();

            // First restart: lazy log validation runs inside the first
            // alloc of epoch 2 — crash it again part-way through.
            let nested = 3 + (crash_after % 17);
            ctl.arm_after(nested);
            let r = run_crashable(|| {
                let b = a.alloc(2, 0, RivPtr::NULL, u64::MAX, &NoNav);
                a.free(2, 0, b);
            });
            ctl.disarm();
            if r.is_err() {
                pool.simulate_crash_with(plan);
                pmem::discard_pending();
            }

            // Second restart must finish the job.
            let b = a.alloc(3, 0, RivPtr::NULL, u64::MAX, &NoNav);
            a.free(3, 0, b);

            // Free lists are sound: bounded (count_free panics on a cycle)
            // and not inflated past everything ever carved.
            let capacity = (a.chunks_provisioned(0) * cfg.blocks_per_chunk) as usize;
            let free = a.count_free_all(0);
            assert!(
                free <= capacity,
                "plan {pi} crash {crash_after}: {free} free blocks out of {capacity} carved"
            );
            // And a sampled free block really is free.
            let head = pool.read(a.layout().arena_head(0));
            assert_eq!(
                a.space()
                    .read(RivPtr::from_raw(head).add(pmalloc::BLK_KIND as u32)),
                KIND_FREE
            );
        }
    }
}
