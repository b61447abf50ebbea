//! Pool layout: where the allocator's persistent metadata lives.
//!
//! Every pool (one per NUMA node) uses the same layout so that RIV pointers
//! resolve uniformly:
//!
//! ```text
//! [0 .. root_words)            client root area (magic, epoch, list roots…)
//! [chunk_table_off ..)         RIV chunk table (riv::RivSpace)
//! [alloc_meta_off ..)          next_chunk_id (monotonic chunk reservation)
//! [arena_heads_off ..)         headBlocks[a], one cache line per arena
//! [logs_off ..)                per-thread allocation logs, LOG_SLOT_LINES
//!                              cache lines each (line 0: epoch/kind/fields,
//!                              line 1: lease block-pointer overflow)
//! [data_off ..)                chunk regions, carved sequentially
//! ```
//!
//! Chunk `c` (ids start at 1) occupies
//! `data_off + (c-1)*chunk_words .. data_off + c*chunk_words`, so a single
//! atomic increment of `next_chunk_id` reserves both the id and the region —
//! an interrupted chunk provisioning can always be re-derived from the id
//! alone (thesis §4.3.3).

use pmem::{CACHE_LINE_WORDS, MAX_THREADS};
use riv::RivSpace;

/// Cache lines per per-thread log slot. Line 0 holds the epoch, kind, and
/// the entry's scalar fields; line 1 is the overflow region for a lease
/// entry's block-pointer list.
pub const LOG_SLOT_LINES: u64 = 2;

/// Words per per-thread log slot.
pub const LOG_SLOT_WORDS: u64 = LOG_SLOT_LINES * CACHE_LINE_WORDS;

/// Maximum blocks one `LOG_LEASE` entry can name: the slot words minus the
/// epoch, kind, and count header words.
pub const LEASE_MAX_BLOCKS: usize = (LOG_SLOT_WORDS - 3) as usize;

/// Sizing parameters for the allocator.
#[derive(Debug, Clone, Copy)]
pub struct AllocConfig {
    /// Words per block. All blocks are the same size, large enough for one
    /// node of maximal height (thesis §4.2).
    pub block_words: u64,
    /// Blocks per coarse-grained chunk (the thesis uses 4 MiB chunks).
    pub blocks_per_chunk: u64,
    /// Lock-free free lists (arenas) per pool; threads map to arenas by
    /// `thread_id % num_arenas` (Function 4 line 29).
    pub num_arenas: usize,
    /// Maximum chunk ids per pool (bounds the chunk table).
    pub max_chunks: u16,
    /// Words reserved at the front of every pool for the client's root.
    pub root_words: u64,
    /// Lease size M: how many blocks one persisted `LOG_LEASE` entry claims
    /// at once into the thread's DRAM magazine, `1..=`[`LEASE_MAX_BLOCKS`].
    /// M = 1 is the thesis's one log + one CAS per allocation.
    pub magazine: usize,
}

impl AllocConfig {
    /// A small configuration for unit tests: one-block leases, so every
    /// allocation logs and pops on its own.
    pub fn small() -> Self {
        Self {
            block_words: 64,
            blocks_per_chunk: 32,
            num_arenas: 4,
            max_chunks: 64,
            root_words: 64,
            magazine: 1,
        }
    }

    /// [`AllocConfig::small`] with leases of `capacity` blocks.
    pub fn small_magazine(capacity: usize) -> Self {
        Self {
            magazine: capacity,
            ..Self::small()
        }
    }

    /// Words occupied by one chunk.
    #[inline]
    pub fn chunk_words(&self) -> u64 {
        self.block_words * self.blocks_per_chunk
    }
}

/// Computed word offsets for the allocator's metadata regions.
#[derive(Debug, Clone, Copy)]
pub struct PoolLayout {
    pub chunk_table_off: u64,
    pub alloc_meta_off: u64,
    pub arena_heads_off: u64,
    pub logs_off: u64,
    pub data_off: u64,
}

/// Word offset (within `alloc_meta_off`) of the monotonic chunk counter.
pub const META_NEXT_CHUNK: u64 = 0;

impl PoolLayout {
    /// Derive the layout from a configuration.
    pub fn for_config(cfg: &AllocConfig) -> Self {
        let align = |x: u64| x.div_ceil(CACHE_LINE_WORDS) * CACHE_LINE_WORDS;
        let chunk_table_off = align(cfg.root_words);
        let alloc_meta_off = align(chunk_table_off + RivSpace::chunk_table_words(cfg.max_chunks));
        let arena_heads_off = align(alloc_meta_off + CACHE_LINE_WORDS);
        let logs_off = align(arena_heads_off + cfg.num_arenas as u64 * CACHE_LINE_WORDS);
        let data_off = align(logs_off + MAX_THREADS as u64 * LOG_SLOT_WORDS);
        Self {
            chunk_table_off,
            alloc_meta_off,
            arena_heads_off,
            logs_off,
            data_off,
        }
    }

    /// Offset of `headBlocks[arena]` (each arena head gets its own cache
    /// line to avoid false sharing).
    #[inline]
    pub fn arena_head(&self, arena: usize) -> u64 {
        self.arena_heads_off + arena as u64 * CACHE_LINE_WORDS
    }

    /// Offset of thread `t`'s allocation log ([`LOG_SLOT_LINES`] cache
    /// lines).
    #[inline]
    pub fn log_slot(&self, thread_id: usize) -> u64 {
        self.logs_off + thread_id as u64 * LOG_SLOT_WORDS
    }

    /// Base offset of chunk `chunk_id` (ids start at 1).
    #[inline]
    pub fn chunk_base(&self, cfg: &AllocConfig, chunk_id: u16) -> u64 {
        debug_assert!(chunk_id >= 1);
        self.data_off + (chunk_id as u64 - 1) * cfg.chunk_words()
    }

    /// Minimum pool size (in words) to hold `chunks` chunks.
    pub fn required_pool_words(&self, cfg: &AllocConfig, chunks: u64) -> u64 {
        self.data_off + chunks * cfg.chunk_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap_and_are_line_aligned() {
        let cfg = AllocConfig::small();
        let l = PoolLayout::for_config(&cfg);
        let offs = [
            l.chunk_table_off,
            l.alloc_meta_off,
            l.arena_heads_off,
            l.logs_off,
            l.data_off,
        ];
        for w in offs.windows(2) {
            assert!(w[0] < w[1], "regions must be ordered: {offs:?}");
        }
        for o in offs {
            assert_eq!(o % CACHE_LINE_WORDS, 0, "offset {o} not line aligned");
        }
        assert!(l.logs_off - l.arena_heads_off >= cfg.num_arenas as u64 * CACHE_LINE_WORDS);
    }

    #[test]
    fn chunk_bases_are_disjoint_and_sequential() {
        let cfg = AllocConfig::small();
        let l = PoolLayout::for_config(&cfg);
        let b1 = l.chunk_base(&cfg, 1);
        let b2 = l.chunk_base(&cfg, 2);
        assert_eq!(b1, l.data_off);
        assert_eq!(b2 - b1, cfg.chunk_words());
    }

    #[test]
    fn log_slots_are_slot_words_apart_and_line_aligned() {
        let cfg = AllocConfig::small();
        let l = PoolLayout::for_config(&cfg);
        assert_eq!(l.log_slot(1) - l.log_slot(0), LOG_SLOT_WORDS);
        assert_eq!(l.log_slot(0) % CACHE_LINE_WORDS, 0);
        assert_eq!(LOG_SLOT_WORDS % CACHE_LINE_WORDS, 0);
        // The last slot must stay inside the log region.
        assert!(l.log_slot(MAX_THREADS - 1) + LOG_SLOT_WORDS <= l.data_off);
    }

    #[test]
    fn lease_capacity_fits_one_slot() {
        // epoch + kind + count + LEASE_MAX_BLOCKS pointers == slot words.
        assert_eq!(3 + LEASE_MAX_BLOCKS as u64, LOG_SLOT_WORDS);
        assert!(AllocConfig::small_magazine(8).magazine <= LEASE_MAX_BLOCKS);
    }
}
