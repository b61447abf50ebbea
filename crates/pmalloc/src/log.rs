//! Per-thread allocation logs (thesis §4.1.4, Function 3).
//!
//! Each thread owns one log slot of [`crate::layout::LOG_SLOT_LINES`] cache lines in
//! pool 0. Before any modification that could leave memory unreachable if
//! interrupted (a lease of one or more blocks, a chunk provisioning), the
//! thread persists a log describing the attempt. Because a thread
//! processes operations sequentially, a log from the *current* failure-free
//! epoch proves the previous attempt completed; a log from an *older* epoch
//! means the attempt may have been interrupted by a crash, and is
//! validated/cleaned up lazily before the slot is reused. Recovery work
//! after a crash of `k` threads is therefore O(k) for provisionings and
//! O(k·M) for leases of M blocks — still independent of structure size
//! (thesis §4.1.5). A lease of one block is the thesis's per-pop log.
//!
//! A lease entry names every leased block explicitly (line 1 of the slot)
//! rather than `(first, count)`: once blocks are consumed from the DRAM
//! magazine their free-list chain is overwritten by client data, so only an
//! explicit list lets recovery re-derive what the lease covered.

use riv::{RivPtr, RivSpace};

use crate::layout::{PoolLayout, LEASE_MAX_BLOCKS, LOG_SLOT_WORDS};

/// Discriminant for an empty slot. Kind 1 (the retired per-pop entry) and
/// every other unknown kind also decode as empty.
pub const LOG_EMPTY: u64 = 0;
/// Discriminant for a chunk-provisioning attempt.
pub const LOG_PROVISION: u64 = 2;
/// Discriminant for a lease of one or more blocks (magazine refill).
pub const LOG_LEASE: u64 = 3;

/// A decoded log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEntry {
    Empty,
    /// A provisioning of chunk `chunk_id` in `pool_id`.
    Provision {
        epoch: u64,
        pool_id: u16,
        chunk_id: u16,
    },
    /// A pop of up to [`LEASE_MAX_BLOCKS`] blocks into a thread-local
    /// DRAM magazine. `blocks[..count]` are the claimed blocks.
    Lease {
        epoch: u64,
        count: usize,
        blocks: [RivPtr; LEASE_MAX_BLOCKS],
    },
}

impl LogEntry {
    /// The epoch recorded in the entry, if any.
    pub fn epoch(&self) -> Option<u64> {
        match *self {
            LogEntry::Empty => None,
            LogEntry::Provision { epoch, .. } | LogEntry::Lease { epoch, .. } => Some(epoch),
        }
    }

    /// Build a lease entry from a block slice (at most
    /// [`LEASE_MAX_BLOCKS`] entries).
    pub fn lease(epoch: u64, claimed: &[RivPtr]) -> Self {
        assert!(
            claimed.len() <= LEASE_MAX_BLOCKS,
            "lease too large for one log slot"
        );
        let mut blocks = [RivPtr::NULL; LEASE_MAX_BLOCKS];
        blocks[..claimed.len()].copy_from_slice(claimed);
        LogEntry::Lease {
            epoch,
            count: claimed.len(),
            blocks,
        }
    }
}

/// Read the log slot of `thread_id` (no persistence side effects).
pub fn read_log(space: &RivSpace, layout: &PoolLayout, thread_id: usize) -> LogEntry {
    let pool = space.pool(0);
    let slot = layout.log_slot(thread_id);
    let kind = pool.read(slot + 1);
    match kind {
        LOG_PROVISION => LogEntry::Provision {
            epoch: pool.read(slot),
            pool_id: pool.read(slot + 2) as u16,
            chunk_id: pool.read(slot + 3) as u16,
        },
        LOG_LEASE => {
            // Clamp a torn count: out-of-range values come from a
            // half-overwritten slot and the per-pointer resolve/epoch
            // guards in recovery absorb whatever the clamp lets through.
            let count = (pool.read(slot + 2) as usize).min(LEASE_MAX_BLOCKS);
            let mut blocks = [RivPtr::NULL; LEASE_MAX_BLOCKS];
            for (i, b) in blocks.iter_mut().enumerate().take(count) {
                *b = RivPtr::from_raw(pool.read(slot + 3 + i as u64));
            }
            LogEntry::Lease {
                epoch: pool.read(slot),
                count,
                blocks,
            }
        }
        _ => LogEntry::Empty,
    }
}

/// Overwrite and persist the log slot of `thread_id`. A provisioning entry
/// fits one cache line (a single flush, thesis §4.1.4); a lease entry spans
/// [`crate::layout::LOG_SLOT_LINES`] lines but still pays only **one**
/// fence — that amortized fence is the point of the lease fast path.
pub fn write_log(space: &RivSpace, layout: &PoolLayout, thread_id: usize, entry: LogEntry) {
    let pool = space.pool(0);
    let slot = layout.log_slot(thread_id);
    match entry {
        LogEntry::Empty => {
            pool.write(slot + 1, LOG_EMPTY);
        }
        LogEntry::Provision {
            epoch,
            pool_id,
            chunk_id,
        } => {
            pool.write(slot, epoch);
            pool.write(slot + 2, pool_id as u64);
            pool.write(slot + 3, chunk_id as u64);
            // The kind word is written last so a torn slot decodes as the
            // previous kind with stale fields only if the line was partially
            // evicted — recovery tolerates both interpretations because both
            // validations are idempotent.
            pool.write(slot + 1, LOG_PROVISION);
        }
        LogEntry::Lease {
            epoch,
            count,
            blocks,
        } => {
            debug_assert!(count <= LEASE_MAX_BLOCKS);
            pool.write(slot, epoch);
            pool.write(slot + 2, count as u64);
            for (i, b) in blocks.iter().enumerate().take(count) {
                pool.write(slot + 3 + i as u64, b.raw());
            }
            pool.write(slot + 1, LOG_LEASE);
            // Both lines flushed, one fence.
            pool.persist(slot, LOG_SLOT_WORDS);
            return;
        }
    }
    pool.persist(slot, pmem::CACHE_LINE_WORDS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AllocConfig;
    use pmem::Pool;

    fn space() -> (RivSpace, PoolLayout) {
        let cfg = AllocConfig::small();
        let layout = PoolLayout::for_config(&cfg);
        let pool = Pool::tracked(1 << 14);
        (
            RivSpace::new(vec![pool], layout.chunk_table_off, cfg.max_chunks),
            layout,
        )
    }

    #[test]
    fn roundtrip_provision_entry() {
        let (sp, l) = space();
        let e = LogEntry::Provision {
            epoch: 9,
            pool_id: 0,
            chunk_id: 7,
        };
        write_log(&sp, &l, 0, e);
        assert_eq!(read_log(&sp, &l, 0), e);
        assert_eq!(read_log(&sp, &l, 1), LogEntry::Empty);
    }

    #[test]
    fn log_survives_crash() {
        let (sp, l) = space();
        let e = LogEntry::Provision {
            epoch: 1,
            pool_id: 0,
            chunk_id: 2,
        };
        write_log(&sp, &l, 3, e);
        sp.pool(0).simulate_crash();
        assert_eq!(read_log(&sp, &l, 3), e);
    }

    #[test]
    fn slots_are_independent() {
        let (sp, l) = space();
        let a = LogEntry::Provision {
            epoch: 1,
            pool_id: 0,
            chunk_id: 1,
        };
        let b = LogEntry::Provision {
            epoch: 2,
            pool_id: 0,
            chunk_id: 2,
        };
        write_log(&sp, &l, 0, a);
        write_log(&sp, &l, 1, b);
        assert_eq!(read_log(&sp, &l, 0), a);
        assert_eq!(read_log(&sp, &l, 1), b);
    }

    #[test]
    fn epoch_accessor() {
        assert_eq!(LogEntry::Empty.epoch(), None);
        let e = LogEntry::Provision {
            epoch: 4,
            pool_id: 0,
            chunk_id: 1,
        };
        assert_eq!(e.epoch(), Some(4));
        assert_eq!(LogEntry::lease(6, &[]).epoch(), Some(6));
    }

    #[test]
    fn roundtrip_lease_entry_full_and_partial() {
        let (sp, l) = space();
        for n in [1usize, 5, LEASE_MAX_BLOCKS] {
            let claimed: Vec<RivPtr> = (0..n).map(|i| RivPtr::new(0, 1, (i as u32) * 64)).collect();
            let e = LogEntry::lease(11, &claimed);
            write_log(&sp, &l, 2, e);
            let back = read_log(&sp, &l, 2);
            assert_eq!(back, e);
            match back {
                LogEntry::Lease { count, blocks, .. } => {
                    assert_eq!(count, n);
                    assert_eq!(&blocks[..n], claimed.as_slice());
                }
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn lease_entry_survives_crash_and_overwrite_by_provision() {
        let (sp, l) = space();
        let claimed: Vec<RivPtr> = (0..7).map(|i| RivPtr::new(0, 2, i * 128)).collect();
        let e = LogEntry::lease(3, &claimed);
        write_log(&sp, &l, 4, e);
        sp.pool(0).simulate_crash();
        assert_eq!(read_log(&sp, &l, 4), e);
        // A provisioning entry only rewrites line 0; the decode must follow
        // the new kind and ignore the lease pointers left in line 1.
        let a = LogEntry::Provision {
            epoch: 4,
            pool_id: 0,
            chunk_id: 1,
        };
        write_log(&sp, &l, 4, a);
        assert_eq!(read_log(&sp, &l, 4), a);
    }

    #[test]
    fn torn_lease_count_is_clamped() {
        let (sp, l) = space();
        let slot = l.log_slot(9);
        let pool = sp.pool(0);
        pool.write(slot, 5); // epoch
        pool.write(slot + 2, u64::MAX); // absurd count from a torn line
        pool.write(slot + 1, LOG_LEASE);
        match read_log(&sp, &l, 9) {
            LogEntry::Lease { count, .. } => assert_eq!(count, LEASE_MAX_BLOCKS),
            other => panic!("decoded {other:?}"),
        }
    }
}
