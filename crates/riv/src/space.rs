//! Multi-pool pointer resolution with a persistent chunk table and a
//! lazily rebuilt DRAM base-address cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pmem::Pool;

use crate::ptr::RivPtr;

/// Resolves [`RivPtr`]s across one or more pools.
///
/// Every pool reserves a *chunk table* region at the same word offset
/// (`chunk_table_off`): `table[chunk_id]` holds `base_offset + 1` of that
/// chunk within the pool, or 0 when unregistered. The table is persistent;
/// a DRAM cache of the same shape avoids re-reading it on every dereference
/// and is rebuilt lazily after recovery (thesis §4.3.2).
pub struct RivSpace {
    pools: Vec<Arc<Pool>>,
    chunk_table_off: u64,
    max_chunks: u16,
    caches: Vec<Box<[AtomicU64]>>,
}

impl std::fmt::Debug for RivSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RivSpace")
            .field("pools", &self.pools.len())
            .field("chunk_table_off", &self.chunk_table_off)
            .field("max_chunks", &self.max_chunks)
            .finish()
    }
}

impl RivSpace {
    /// Words needed for a chunk table with ids `1..max_chunks`.
    pub const fn chunk_table_words(max_chunks: u16) -> u64 {
        max_chunks as u64
    }

    /// Build a space over `pools` (indexed by pool id). All pools share the
    /// same chunk-table offset, as their layouts are identical.
    pub fn new(pools: Vec<Arc<Pool>>, chunk_table_off: u64, max_chunks: u16) -> Self {
        assert!(!pools.is_empty());
        assert!(max_chunks >= 2, "need at least one usable chunk id");
        for (i, p) in pools.iter().enumerate() {
            assert_eq!(
                p.id() as usize,
                i,
                "pool ids must be dense and match indices"
            );
        }
        let caches = pools
            .iter()
            .map(|_| {
                (0..max_chunks as usize)
                    .map(|_| AtomicU64::new(0))
                    .collect()
            })
            .collect();
        Self {
            pools,
            chunk_table_off,
            max_chunks,
            caches,
        }
    }

    #[inline]
    pub fn pools(&self) -> &[Arc<Pool>] {
        &self.pools
    }

    #[inline]
    pub fn pool(&self, id: u16) -> &Arc<Pool> {
        &self.pools[id as usize]
    }

    #[inline]
    pub fn max_chunks(&self) -> u16 {
        self.max_chunks
    }

    /// Record a chunk's base offset persistently and in the DRAM cache.
    pub fn register_chunk(&self, pool_id: u16, chunk_id: u16, base_off: u64) {
        assert!(
            chunk_id != 0 && chunk_id < self.max_chunks,
            "chunk id out of range"
        );
        let pool = self.pool(pool_id);
        let slot = self.chunk_table_off + chunk_id as u64;
        pool.write(slot, base_off + 1);
        pool.persist(slot, 1);
        self.caches[pool_id as usize][chunk_id as usize].store(base_off + 1, Ordering::Release);
    }

    /// Remove a chunk registration (used when an interrupted chunk
    /// provisioning is rolled back).
    pub fn unregister_chunk(&self, pool_id: u16, chunk_id: u16) {
        let pool = self.pool(pool_id);
        let slot = self.chunk_table_off + chunk_id as u64;
        pool.write(slot, 0);
        pool.persist(slot, 1);
        self.caches[pool_id as usize][chunk_id as usize].store(0, Ordering::Release);
    }

    /// Base word offset of a chunk, consulting the DRAM cache first and
    /// falling back to the persistent table (lazy post-crash rebuild).
    ///
    /// # Panics
    /// Panics if the chunk was never registered — that is a dangling pointer.
    #[inline]
    pub fn chunk_base(&self, pool_id: u16, chunk_id: u16) -> u64 {
        let cached = self.caches[pool_id as usize][chunk_id as usize].load(Ordering::Acquire);
        if cached != 0 {
            return cached - 1;
        }
        let pool = self.pool(pool_id);
        let v = pool.read(self.chunk_table_off + chunk_id as u64);
        assert!(
            v != 0,
            "dangling RivPtr: chunk {chunk_id} of pool {pool_id} unregistered"
        );
        self.caches[pool_id as usize][chunk_id as usize].store(v, Ordering::Release);
        v - 1
    }

    /// Two-stage lookup (Fig 4.3): pointer → (pool, absolute word offset).
    #[inline]
    pub fn resolve(&self, ptr: RivPtr) -> (&Arc<Pool>, u64) {
        debug_assert!(!ptr.is_null(), "dereferencing null RivPtr");
        let pool_id = ptr.pool();
        let base = self.chunk_base(pool_id, ptr.chunk());
        (self.pool(pool_id), base + ptr.offset() as u64)
    }

    /// Non-panicking validity probe for a pointer decoded from
    /// possibly-torn pmem — e.g. a recovery log slot whose cache line a
    /// crash persisted mid-overwrite. Returns true iff `ptr` is non-null,
    /// names an existing pool and a *registered* chunk, and the
    /// `words`-word span starting at it stays inside the pool, making
    /// `read(ptr.add(w))` safe for every `w < words`. A true result says
    /// nothing about semantic validity; recovery code must still treat the
    /// pointee's contents as untrusted.
    pub fn ptr_resolves(&self, ptr: RivPtr, words: u32) -> bool {
        if ptr.is_null() {
            return false;
        }
        let pool_id = ptr.pool() as usize;
        if pool_id >= self.pools.len() {
            return false;
        }
        let chunk = ptr.chunk();
        if chunk == 0 || chunk >= self.max_chunks {
            return false;
        }
        let pool = &self.pools[pool_id];
        // Consult the persistent table directly: the DRAM cache may be
        // cold after a restart and must not be polluted with garbage ids.
        let base_plus_one = pool.read(self.chunk_table_off + chunk as u64);
        if base_plus_one == 0 {
            return false;
        }
        let Some(end) = ptr.offset().checked_add(words) else {
            return false;
        };
        base_plus_one - 1 + end as u64 <= pool.len_words()
    }

    /// Drop the DRAM caches, as after a restart; they refill on demand.
    pub fn invalidate_caches(&self) {
        for cache in &self.caches {
            for slot in cache.iter() {
                slot.store(0, Ordering::Release);
            }
        }
    }

    // ---- word accessors through a pointer ----

    #[inline]
    pub fn read(&self, ptr: RivPtr) -> u64 {
        let (pool, off) = self.resolve(ptr);
        pool.read(off)
    }

    /// Sequential bulk read through a pointer (cache-line-granular
    /// accounting; see [`Pool::read_slice`]).
    #[inline]
    pub fn read_slice(&self, ptr: RivPtr, out: &mut [u64]) {
        let (pool, off) = self.resolve(ptr);
        pool.read_slice(off, out);
    }

    /// [`RivSpace::read_slice`], highest word loaded first (see
    /// [`Pool::read_slice_rev`]).
    #[inline]
    pub fn read_slice_rev(&self, ptr: RivPtr, out: &mut [u64]) {
        let (pool, off) = self.resolve(ptr);
        pool.read_slice_rev(off, out);
    }

    #[inline]
    pub fn write(&self, ptr: RivPtr, value: u64) {
        let (pool, off) = self.resolve(ptr);
        pool.write(off, value);
    }

    #[inline]
    pub fn cas(&self, ptr: RivPtr, old: u64, new: u64) -> Result<u64, u64> {
        let (pool, off) = self.resolve(ptr);
        pool.cas(off, old, new)
    }

    #[inline]
    pub fn fetch_add(&self, ptr: RivPtr, delta: u64) -> u64 {
        let (pool, off) = self.resolve(ptr);
        pool.fetch_add(off, delta)
    }

    #[inline]
    pub fn flush(&self, ptr: RivPtr) {
        let (pool, off) = self.resolve(ptr);
        pool.flush(off);
    }

    /// Software prefetch hint for `words` words through a pointer. Resolves
    /// via the DRAM chunk-base cache **only**: a cold cache entry would need
    /// a persistent-table read (a real, accounted pmem access), which would
    /// defeat the point of a hint — so the prefetch is simply dropped then.
    /// Dangling or out-of-range pointers are ignored, never panics.
    #[inline]
    pub fn prefetch(&self, ptr: RivPtr, words: u64) {
        if ptr.is_null() {
            return;
        }
        let pool_id = ptr.pool() as usize;
        let chunk = ptr.chunk() as usize;
        if pool_id >= self.pools.len() || chunk >= self.max_chunks as usize {
            return;
        }
        let cached = self.caches[pool_id][chunk].load(Ordering::Acquire);
        if cached == 0 {
            return;
        }
        self.pools[pool_id].prefetch(cached - 1 + ptr.offset() as u64, words);
    }

    /// Flush (write back, no fence) every line overlapping
    /// `ptr .. ptr + words` — see [`Pool::flush_range`].
    #[inline]
    pub fn flush_range(&self, ptr: RivPtr, words: u64) {
        let (pool, off) = self.resolve(ptr);
        pool.flush_range(off, words);
    }

    /// The `Persist` primitive (Function 1) through a pointer.
    #[inline]
    pub fn persist(&self, ptr: RivPtr, words: u64) {
        let (pool, off) = self.resolve(ptr);
        pool.persist(off, words);
    }

    /// Flush with *deferred* durability through a pointer — the CLWB is
    /// issued now but the fence is left to the thread's next epoch sweep or
    /// [`pmem::pool::fence_pending`] call. See [`Pool::flush_deferred`].
    #[inline]
    pub fn flush_deferred(&self, ptr: RivPtr, words: u64) {
        let (pool, off) = self.resolve(ptr);
        pool.flush_deferred(off, words);
    }

    /// Pool counters summed across every pool in the space.
    pub fn stats_snapshot(&self) -> pmem::StatsSnapshot {
        self.pools.iter().map(|p| p.stats().snapshot()).sum()
    }

    /// Per-op-kind counters summed across every pool (indexed by
    /// `OpKind as usize`).
    pub fn stats_by_op(&self) -> [pmem::StatsSnapshot; pmem::stats::OP_KINDS] {
        let mut total = [pmem::StatsSnapshot::default(); pmem::stats::OP_KINDS];
        for p in &self.pools {
            for (t, b) in total.iter_mut().zip(p.stats().snapshot_by_op()) {
                *t = t.plus(&b);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::pool::PoolConfig;
    use pmem::{CrashController, Placement};

    fn two_pool_space() -> RivSpace {
        let crash = Arc::new(CrashController::new());
        let pools: Vec<_> = (0..2u16)
            .map(|id| {
                let mut cfg = PoolConfig::tracked(1 << 14);
                cfg.id = id;
                cfg.placement = Placement::Node(id);
                Pool::new(cfg, Arc::clone(&crash))
            })
            .collect();
        RivSpace::new(pools, 64, 128)
    }

    #[test]
    fn ptr_resolves_rejects_every_torn_decoding() {
        let sp = two_pool_space();
        sp.register_chunk(0, 1, 1024);
        let ok = RivPtr::new(0, 1, 10);
        assert!(sp.ptr_resolves(ok, 4));
        // Null, bad pool, reserved chunk 0, chunk out of range, chunk in
        // range but unregistered, span past the pool, offset overflow.
        assert!(!sp.ptr_resolves(RivPtr::NULL, 4));
        assert!(!sp.ptr_resolves(RivPtr::new(7, 1, 10), 4));
        assert!(!sp.ptr_resolves(RivPtr::from_raw(1), 4)); // chunk 0 encoding
        assert!(!sp.ptr_resolves(RivPtr::new(0, 200, 10), 4)); // >= max_chunks
        assert!(!sp.ptr_resolves(RivPtr::new(0, 2, 10), 4));
        assert!(!sp.ptr_resolves(RivPtr::new(0, 1, (1 << 14) as u32), 4));
        assert!(!sp.ptr_resolves(RivPtr::new(0, 1, u32::MAX), 4));
        // A true probe means reads through the span cannot panic.
        sp.write(ok.add(3), 9);
        assert_eq!(sp.read(ok.add(3)), 9);
    }

    #[test]
    fn register_resolve_roundtrip() {
        let sp = two_pool_space();
        sp.register_chunk(0, 1, 1024);
        sp.register_chunk(1, 1, 2048);
        let p0 = RivPtr::new(0, 1, 10);
        let p1 = RivPtr::new(1, 1, 20);
        sp.write(p0, 111);
        sp.write(p1, 222);
        assert_eq!(sp.pool(0).read(1034), 111);
        assert_eq!(sp.pool(1).read(2068), 222);
        assert_eq!(sp.read(p0), 111);
        assert_eq!(sp.read(p1), 222);
    }

    #[test]
    fn cache_rebuilds_lazily_after_invalidation() {
        let sp = two_pool_space();
        sp.register_chunk(0, 5, 4096);
        let p = RivPtr::new(0, 5, 0);
        sp.write(p, 9);
        sp.invalidate_caches();
        // Resolution falls back to the persistent table and repopulates.
        assert_eq!(sp.read(p), 9);
        assert_eq!(sp.chunk_base(0, 5), 4096);
    }

    #[test]
    fn chunk_registration_survives_crash() {
        let sp = two_pool_space();
        sp.register_chunk(0, 3, 512);
        let p = RivPtr::new(0, 3, 1);
        sp.write(p, 77);
        sp.persist(p, 1);
        sp.pool(0).simulate_crash();
        sp.invalidate_caches();
        assert_eq!(sp.read(p), 77);
    }

    #[test]
    #[should_panic(expected = "dangling RivPtr")]
    fn dangling_chunk_panics() {
        let sp = two_pool_space();
        sp.read(RivPtr::new(0, 9, 0));
    }

    #[test]
    fn cas_and_fetch_add_through_pointer() {
        let sp = two_pool_space();
        sp.register_chunk(1, 2, 100);
        let p = RivPtr::new(1, 2, 4);
        assert_eq!(sp.cas(p, 0, 5), Ok(0));
        assert_eq!(sp.cas(p, 0, 6), Err(5));
        assert_eq!(sp.fetch_add(p, 10), 5);
        assert_eq!(sp.read(p), 15);
    }

    #[test]
    fn unregister_clears_slot() {
        let sp = two_pool_space();
        sp.register_chunk(0, 7, 256);
        sp.unregister_chunk(0, 7);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sp.chunk_base(0, 7)));
        assert!(r.is_err());
    }
}
