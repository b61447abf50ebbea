//! The recoverable block allocator (thesis §4.3.2–4.3.3, Functions 4–6),
//! with every pop taken as a **lease** into a per-thread magazine.
//!
//! * **Coarse grain**: chunks are reserved from each pool's data region by a
//!   single monotonic counter, so a chunk id alone identifies its region and
//!   an interrupted provisioning can always be re-derived and completed.
//! * **Fine grain**: each pool has `num_arenas` lock-free free lists of
//!   fixed-size blocks. Threads pop from the head of
//!   `arena = thread_id % num_arenas` (Function 4) and push returned blocks
//!   at the tail (Functions 5–6). Blocks reference each other with RIV
//!   pointers, so a free list on one NUMA node may contain blocks homed on
//!   another — exactly what cross-node deallocation needs (§4.3.3).
//! * **Leases** (M = `AllocConfig::magazine`): a thread claims up to M
//!   blocks with **one** persisted `LOG_LEASE` entry and **one** multi-pop
//!   CAS that jumps the arena head over the whole claimed prefix. With
//!   M = 1 this is the thesis's per-pop protocol (Functions 3–4); larger M
//!   amortizes the log, the CAS and the stamping fence over M allocations.
//!   The claimed blocks are stamped RAW/POPPED under a single fence and
//!   parked in a DRAM thread-local *magazine*; subsequent `alloc()` calls
//!   are served from the magazine with zero pmem writes, zero fences, and
//!   zero shared CAS. Frees batch
//!   symmetrically: [`Allocator::free_deferred`] de-initializes the block
//!   and writes its lines back immediately (no fence), parks it in a DRAM
//!   *outbox*, and on flush chains the whole batch with one fence plus one
//!   `LinkInTail`. Arena selection on the lease path is NUMA-aware: the
//!   thread prefers an arena whose head block `Placement::owner_node` homes
//!   on its own node, falling back to its hashed arena (stealing).
//! * **Recovery**: every lease and provisioning is preceded by a persisted
//!   per-thread log; a log left over from a previous failure-free epoch is
//!   validated on the thread's next allocation and any unreachable memory
//!   is returned to a free list (deferred recovery, §4.1.4). A stale lease
//!   log is validated block-by-block via [`Reachability::is_linked`]: each
//!   listed block is either linked into the structure (keep), back on a
//!   free list (skip), or an orphan (reclaim) — O(k·M) for k crashed
//!   threads, still independent of structure size. Leases are only
//!   acquired with an empty magazine, so the thread's previous lease (and
//!   every block it handed out) is fully resolved before its log slot is
//!   overwritten.
//!
//! ### Known windows (shared with the thesis's algorithm)
//!
//! The multi-pop is Function 4's single-word CAS and therefore inherits
//! the classic free-list ABA window: a stalled thread can mis-pop if the
//! same block cycles head → allocated → freed → head while it sleeps. The
//! pop *guards* the window's aftermath: a candidate must still be
//! `KIND_FREE` with a live successor, and a head slot that persistently
//! names a block that already left the list is **self-healed** by swinging
//! the head to a freshly carved chunk (the untrustworthy suffix is
//! abandoned — a bounded, deliberate leak in an already-corrupt state; see
//! the `alloc.heals` counter). The guard's re-read discipline shrinks, but
//! cannot close, the underlying window; frees are rare (failed link-ins
//! and crash cleanup), matching the thesis's usage.
//!
//! Crash-leak bounds: a crash between a durable multi-pop CAS and the
//! stamping fence can leak at most M blocks per thread; a crash while an
//! outbox holds de-initialized blocks leaks at most M more. Both are
//! reclaimed only by a full reformat, mirroring the thesis's own
//! bounded-leak stance.

use std::sync::{Arc, Mutex};

use obs::{Counter, Registry};
use pmem::{thread, Placement, MAX_THREADS};
use riv::{RivPtr, RivSpace};

use crate::blocks::*;
use crate::layout::{AllocConfig, PoolLayout, LEASE_MAX_BLOCKS, META_NEXT_CHUNK};
use crate::log::{read_log, write_log, LogEntry};

/// Client-provided navigation used to validate stale lease logs: the
/// allocator itself cannot interpret node contents.
pub trait Reachability: Sync {
    /// The first key stored in a block that is initialized as a node: the
    /// key [`Reachability::is_linked`] searches for.
    fn node_first_key(&self, block: RivPtr) -> u64;

    /// Is `block` linked into the structure as the node holding `key`
    /// (Function 3 lines 15–22)? A lease log names blocks, not insert
    /// positions, so there is no logged predecessor to start from:
    /// implementations run a self-contained read-only search.
    fn is_linked(&self, key: u64, block: RivPtr) -> bool;
}

/// Per-thread DRAM state for the lease path. Blocks in `magazine` are
/// claimed by a persisted lease log; blocks in `outbox` are de-initialized
/// and written back but not yet linked into a free list.
#[derive(Default)]
struct ThreadCache {
    /// Epoch the current magazine lease was taken in (0 = none).
    lease_epoch: u64,
    /// Pool the current magazine lease was taken from.
    lease_pool: u16,
    /// Unconsumed leased blocks, served LIFO with zero pmem traffic.
    magazine: Vec<RivPtr>,
    /// De-initialized blocks awaiting one batched `LinkInTail`.
    outbox: Vec<RivPtr>,
    outbox_epoch: u64,
    outbox_pool: u16,
    outbox_arena: usize,
}

/// The allocator. Cheap to clone handles around via `Arc`.
pub struct Allocator {
    space: Arc<RivSpace>,
    cfg: AllocConfig,
    layout: PoolLayout,
    /// One slot per dense thread id; the Mutex is uncontended in normal
    /// operation (only [`Allocator::drain_all`] crosses threads).
    caches: Vec<Mutex<ThreadCache>>,
    /// The deployment's metrics registry: the path counters below are
    /// registered in it as `alloc.*`, and the list built on this
    /// allocator registers its `list.*` counters here too. DRAM-only
    /// (reset on restart) and never gated by `ObsLevel`.
    registry: Arc<Registry>,
    /// `alloc.fast`: leases served by popping an arena free list directly
    /// (counted once per lease).
    fast: Arc<Counter>,
    /// `alloc.slow`: leases that had to provision (carve) a new chunk
    /// first.
    slow: Arc<Counter>,
    /// `alloc.magazine_hits`: allocations served from the DRAM magazine,
    /// with no pmem op at all.
    magazine_hits: Arc<Counter>,
    /// `alloc.leases`: lease acquisitions (one persisted log + one
    /// multi-pop CAS each).
    leases: Arc<Counter>,
    /// `alloc.lease_blocks`: total blocks claimed across all leases.
    lease_blocks: Arc<Counter>,
    /// `alloc.outbox_flushes`: outbox flushes (one fence + one
    /// `LinkInTail` each).
    outbox_flushes: Arc<Counter>,
    /// `alloc.outbox_blocks`: total blocks returned through outbox
    /// flushes.
    outbox_blocks: Arc<Counter>,
    /// `alloc.heals`: corrupt-head self-heals (module docs "Known
    /// windows").
    heals: Arc<Counter>,
}

impl std::fmt::Debug for Allocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Allocator")
            .field("cfg", &self.cfg)
            .field("layout", &self.layout)
            .finish()
    }
}

impl Allocator {
    /// Wrap an existing space. Call [`Allocator::format`] once on a fresh
    /// set of pools before first use.
    pub fn new(space: Arc<RivSpace>, cfg: AllocConfig) -> Self {
        assert!(
            cfg.blocks_per_chunk >= cfg.num_arenas as u64,
            "each arena needs at least one block per chunk"
        );
        assert!(cfg.block_words > BLK_CLIENT, "blocks must fit their header");
        assert!(
            (1..=LEASE_MAX_BLOCKS).contains(&cfg.magazine),
            "lease size must be 1..=LEASE_MAX_BLOCKS (one log slot)"
        );
        let layout = PoolLayout::for_config(&cfg);
        let registry = Arc::new(Registry::new());
        Self {
            space,
            cfg,
            layout,
            caches: (0..MAX_THREADS).map(|_| Mutex::default()).collect(),
            fast: registry.counter("alloc.fast"),
            slow: registry.counter("alloc.slow"),
            magazine_hits: registry.counter("alloc.magazine_hits"),
            leases: registry.counter("alloc.leases"),
            lease_blocks: registry.counter("alloc.lease_blocks"),
            outbox_flushes: registry.counter("alloc.outbox_flushes"),
            outbox_blocks: registry.counter("alloc.outbox_blocks"),
            heals: registry.counter("alloc.heals"),
            registry,
        }
    }

    /// The deployment's metrics registry (`alloc.*` counters, plus
    /// whatever the structure on top registers).
    #[inline]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Lock a thread-cache slot, tolerating poison: a simulated-crash
    /// unwind mid-operation poisons the mutex, and the cache contents are
    /// discarded on recovery anyway, so poisoning carries no information.
    fn cache(&self, id: usize) -> std::sync::MutexGuard<'_, ThreadCache> {
        self.caches[id]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Discard every thread's DRAM cache without touching pmem — the
    /// in-process analogue of a power failure destroying DRAM. Magazine
    /// blocks stay claimed by their (now stale) lease logs and are
    /// reclaimed at the next validation; un-flushed outbox blocks leak
    /// within the documented per-thread bound. Crash-recovery paths call
    /// this; clean shutdown uses [`Allocator::drain_all`] instead.
    pub fn discard_thread_caches(&self) {
        for slot in self.caches.iter() {
            slot.clear_poison();
            let mut cache = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *cache = ThreadCache::default();
        }
    }

    #[inline]
    pub fn space(&self) -> &Arc<RivSpace> {
        &self.space
    }

    #[inline]
    pub fn config(&self) -> &AllocConfig {
        &self.cfg
    }

    #[inline]
    pub fn layout(&self) -> &PoolLayout {
        &self.layout
    }

    /// The pool homed on the calling thread's NUMA node (clamped to the
    /// pools that actually exist).
    #[inline]
    fn home_pool(&self) -> u16 {
        thread::current()
            .numa_node
            .min(self.space.pools().len() as u16 - 1)
    }

    /// One-time, single-threaded initialization of every pool: reset the
    /// chunk counter and seed each arena with the runs of one chunk.
    pub fn format(&self, epoch: u64) {
        for pool_id in 0..self.space.pools().len() as u16 {
            let pool = self.space.pool(pool_id);
            pool.write(self.layout.alloc_meta_off + META_NEXT_CHUNK, 1);
            pool.persist(self.layout.alloc_meta_off + META_NEXT_CHUNK, 1);
            let chunk_id = self.reserve_chunk_id(pool_id);
            let firsts = self.carve_chunk(epoch, pool_id, chunk_id);
            self.space.register_chunk(
                pool_id,
                chunk_id,
                self.layout.chunk_base(&self.cfg, chunk_id),
            );
            for (arena, first) in firsts.into_iter().enumerate() {
                let head = self.layout.arena_head(arena);
                pool.write(head, first.raw());
                pool.persist(head, 1);
            }
        }
    }

    /// Allocate one block from the caller's NUMA pool (`MakeLinkedObject`,
    /// Function 4, up to the pop). The returned block has kind
    /// [`KIND_RAW`]; the client initializes it and sets [`KIND_NODE`].
    /// Calls are served from the thread's DRAM magazine, refilled by a
    /// lease when empty.
    ///
    /// `_pred` and `_key` are unused: a lease log records neither, and
    /// recovery re-derives both via [`Reachability::node_first_key`] and
    /// [`Reachability::is_linked`].
    pub fn alloc(
        &self,
        epoch: u64,
        pool_id: u16,
        _pred: RivPtr,
        _key: u64,
        reach: &dyn Reachability,
    ) -> RivPtr {
        let ctx = thread::current();
        let mut cache = self.cache(ctx.id);
        if !cache.magazine.is_empty() && (cache.lease_epoch != epoch || cache.lease_pool != pool_id)
        {
            // The epoch moved on (in-process restart) or the thread changed
            // pools: eagerly return the unconsumed blocks. The old lease
            // log then sees them as KIND_FREE and skips them.
            let stale_pool = cache.lease_pool;
            for b in std::mem::take(&mut cache.magazine) {
                self.free(epoch, stale_pool, b);
            }
        }
        if let Some(b) = cache.magazine.pop() {
            self.magazine_hits.inc();
            return b;
        }
        self.lease_refill(&mut cache, epoch, pool_id, reach)
    }

    /// Acquire a lease of up to `cfg.magazine` blocks: one persisted
    /// `LOG_LEASE` entry, one multi-pop CAS, one stamping fence. Returns
    /// the first claimed block; the rest fill the thread's magazine.
    fn lease_refill(
        &self,
        cache: &mut ThreadCache,
        epoch: u64,
        pool_id: u16,
        reach: &dyn Reachability,
    ) -> RivPtr {
        let ctx = thread::current();
        let m = self.cfg.magazine;
        let pool = self.space.pool(pool_id);
        let mut provisioned: Option<usize> = None;
        let mut claimed: Vec<RivPtr> = Vec::with_capacity(m);
        loop {
            // Once we provisioned a chunk into an arena, stay on it so the
            // NUMA preference cannot chase us away from our own growth.
            let arena =
                provisioned.unwrap_or_else(|| self.pick_arena(pool_id, ctx.id, ctx.numa_node));
            let head_slot = self.layout.arena_head(arena);
            let head_raw = pool.read(head_slot);
            let head = RivPtr::from_raw(head_raw);
            assert!(
                !head.is_null(),
                "arena head must never be null (pool not formatted?)"
            );
            // Walk up to m live links, collecting claimable blocks. The
            // terminal block (next == 0) is never claimed (line 34).
            claimed.clear();
            let mut cur = head;
            let mut corrupt = false;
            while claimed.len() < m {
                if self.space.read(cur.add(BLK_KIND as u32)) != KIND_FREE {
                    corrupt = true;
                    break;
                }
                let next_raw = self.space.read(cur.add(BLK_NEXT_FREE as u32));
                if next_raw == NEXT_POPPED {
                    corrupt = true;
                    break;
                }
                if next_raw == 0 {
                    break;
                }
                claimed.push(cur);
                cur = RivPtr::from_raw(next_raw);
            }
            if corrupt {
                // Mid-walk (cur != head) this is just a racing pop — retry.
                // At the head itself it may be mis-pop residue.
                if cur == head {
                    self.heal_head_if_corrupt(epoch, pool_id, arena, head_raw, reach);
                }
                continue;
            }
            if claimed.is_empty() {
                self.provision_chunk(epoch, pool_id, arena, reach);
                provisioned = Some(arena);
                continue;
            }
            // Function 3, amortized: one persisted log entry names every
            // block this lease claims.
            self.validate_stale_log(epoch, reach);
            write_log(
                &self.space,
                &self.layout,
                ctx.id,
                LogEntry::lease(epoch, &claimed),
            );
            // One multi-pop CAS jumps the head over the claimed prefix.
            if pool.cas(head_slot, head_raw, cur.raw()).is_err() {
                continue;
            }
            // When the caller holds an open flush epoch (the list's
            // prepare-then-publish insert path), the head advance and the
            // block stamps ride the op's single
            // sweep fence instead of fencing here — the lease log above is
            // already durable, and a crash before the sweep falls into the
            // same stale-lease window the log machinery tolerates (the
            // ≤M-blocks-per-thread leak bound in the module docs).
            let in_epoch = pmem::epoch_active();
            if in_epoch {
                pool.flush_deferred(head_slot, 1);
            } else {
                pool.persist(head_slot, 1);
            }
            // Stamp every claimed block RAW/POPPED in the new epoch. The
            // write-backs are batched; the persist below dedups against
            // the first block's pending line, so the whole lease pays one
            // stamping fence (none at all inside an epoch).
            for &b in &claimed {
                self.space.write(b.add(BLK_KIND as u32), KIND_RAW);
                self.space.write(b.add(BLK_NEXT_FREE as u32), NEXT_POPPED);
                self.space.write(b.add(BLK_EPOCH as u32), epoch);
                if in_epoch {
                    self.space.flush_deferred(b, BLK_CLIENT);
                } else {
                    self.space.flush_range(b, BLK_CLIENT);
                }
            }
            if !in_epoch {
                self.space.persist(claimed[0], 1);
            }
            self.leases.inc();
            self.lease_blocks.add(claimed.len() as u64);
            let path = if provisioned.is_some() {
                &self.slow
            } else {
                &self.fast
            };
            path.inc();
            // Hand back the first block; park the rest in list order.
            cache.magazine.extend(claimed.iter().skip(1).rev());
            cache.lease_epoch = epoch;
            cache.lease_pool = pool_id;
            return claimed[0];
        }
    }

    /// The arena a lease draws from: prefer one whose head block is homed
    /// on the calling thread's NUMA node (pool placement may stripe lines
    /// across nodes), falling back to the thread's hashed arena (stealing).
    fn pick_arena(&self, pool_id: u16, tid: usize, node: u16) -> usize {
        let n = self.cfg.num_arenas;
        let start = tid % n;
        let pool = self.space.pool(pool_id);
        let placement = pool.placement();
        if matches!(placement, Placement::Node(_)) {
            // The whole pool lives on one node; nothing to pick.
            return start;
        }
        for i in 0..n {
            let a = (start + i) % n;
            let head = RivPtr::from_raw(pool.read(self.layout.arena_head(a)));
            if head.is_null() || head.chunk() == 0 {
                continue;
            }
            let word = self.layout.chunk_base(&self.cfg, head.chunk()) + head.offset() as u64;
            if placement.owner_node(word) == node {
                return a;
            }
        }
        start
    }

    /// Corrupt-head self-heal (module docs "Known windows"). Called when a
    /// pop path saw the head fail the claimable guard: distinguish a stale
    /// local read (slot already moved on — just retry) from mis-pop
    /// residue (the slot keeps naming a block that left the list; a pop
    /// CAS moves the slot *before* stamping, so this state is never a pop
    /// in flight), and replace the latter with a freshly carved chunk.
    fn heal_head_if_corrupt(
        &self,
        epoch: u64,
        pool_id: u16,
        arena: usize,
        suspect_raw: u64,
        reach: &dyn Reachability,
    ) {
        let pool = self.space.pool(pool_id);
        let head_slot = self.layout.arena_head(arena);
        if pool.read(head_slot) != suspect_raw {
            return;
        }
        let suspect = RivPtr::from_raw(suspect_raw);
        let kind = self.space.read(suspect.add(BLK_KIND as u32));
        let next = self.space.read(suspect.add(BLK_NEXT_FREE as u32));
        if kind == KIND_FREE && next != NEXT_POPPED {
            return; // sane again (our earlier reads were stale)
        }
        if pool.read(head_slot) != suspect_raw {
            return;
        }
        // The corrupt suffix is abandoned rather than walked — its links
        // are untrustworthy by definition (bounded, counted leak).
        let (first, last) = self.provision_chunk_unlinked(epoch, pool_id, reach);
        if pool.cas(head_slot, suspect_raw, first.raw()).is_ok() {
            pool.persist(head_slot, 1);
            self.heals.inc();
        } else {
            // Lost the race to another healer; attach the fresh chunk
            // normally instead of leaking it.
            self.link_chain_in_tail(pool_id, arena, first, last);
        }
    }

    /// Return an object to a free list of `pool_id` (`DeleteLinkedObject`,
    /// Function 5). Idempotent: safe to call again on a block whose previous
    /// deletion was interrupted, and safe to race with another recovering
    /// thread deleting the same block.
    pub fn free(&self, epoch: u64, pool_id: u16, obj: RivPtr) {
        let ctx = thread::current();
        let arena = ctx.id % self.cfg.num_arenas;
        let kind = self.space.read(obj.add(BLK_KIND as u32));
        if kind != KIND_FREE {
            // "If object is a node": de-initialize by zeroing it out
            // (Function 5 lines 46–48). RAW blocks take the same path.
            for w in BLK_CLIENT..self.cfg.block_words {
                self.space.write(obj.add(w as u32), 0);
            }
            self.space.write(obj.add(BLK_NEXT_FREE as u32), 0);
            self.space.write(obj.add(BLK_EPOCH as u32), epoch);
            self.space.write(obj.add(BLK_KIND as u32), KIND_FREE);
            self.space.persist(obj, self.cfg.block_words);
        } else {
            // Already free with a successor: a previous deletion completed
            // (Function 5 lines 50–51). A free block with next == 0 may be
            // the in-list tail or an unlinked orphan — the membership walk
            // below distinguishes the two.
            let next = self.space.read(obj.add(BLK_NEXT_FREE as u32));
            if next != 0 && next != NEXT_POPPED {
                return;
            }
        }
        self.link_chain_in_tail(pool_id, arena, obj, obj);
    }

    /// [`Allocator::free`] with the list append deferred: the block is
    /// de-initialized and written back immediately (its content never
    /// outlives the free), but the fence and the `LinkInTail` are batched —
    /// one of each per outbox flush instead of per block. Falls back to the
    /// eager path when the block needs the membership walk. Not safe to race with another free of the *same*
    /// block (the structure's unlink already serializes frees per block);
    /// recovery paths use the eager [`Allocator::free`].
    ///
    /// A crash while blocks sit in the outbox leaks at most
    /// `cfg.magazine` blocks per thread (module docs "Known windows").
    pub fn free_deferred(&self, epoch: u64, pool_id: u16, obj: RivPtr) {
        let ctx = thread::current();
        let arena = ctx.id % self.cfg.num_arenas;
        let mut cache = self.cache(ctx.id);
        if !cache.outbox.is_empty()
            && (cache.outbox_pool != pool_id
                || cache.outbox_epoch != epoch
                || cache.outbox_arena != arena)
        {
            // The batch targets one list; a different target flushes first.
            self.flush_outbox_locked(&mut cache);
        }
        if cache.outbox.contains(&obj) {
            return; // a duplicate link would cycle the chain
        }
        let kind = self.space.read(obj.add(BLK_KIND as u32));
        if kind == KIND_FREE {
            let next = self.space.read(obj.add(BLK_NEXT_FREE as u32));
            if next != 0 && next != NEXT_POPPED {
                return; // a previous deletion completed
            }
            // Free-but-maybe-unlinked: only the eager path's membership
            // walk can safely (re)attach it.
            drop(cache);
            return self.free(epoch, pool_id, obj);
        }
        // De-initialize now and write the lines back (no fence — the batch
        // fence at flush time orders every queued block at once). The
        // write-back is *declared* deferred: until that batch fence the
        // block is reachable from nothing but this DRAM outbox, so the
        // caller's next publish CAS (an insert retrying after the lost link
        // race that freed this block) has no ordering claim on these lines.
        for w in BLK_CLIENT..self.cfg.block_words {
            self.space.write(obj.add(w as u32), 0);
        }
        self.space.write(obj.add(BLK_NEXT_FREE as u32), 0);
        self.space.write(obj.add(BLK_EPOCH as u32), epoch);
        self.space.write(obj.add(BLK_KIND as u32), KIND_FREE);
        self.space.flush_deferred(obj, self.cfg.block_words);
        cache.outbox_pool = pool_id;
        cache.outbox_epoch = epoch;
        cache.outbox_arena = arena;
        cache.outbox.push(obj);
        if cache.outbox.len() >= self.cfg.magazine {
            self.flush_outbox_locked(&mut cache);
        }
    }

    /// Chain the outbox into one segment and append it with a single fence
    /// plus a single `LinkInTail`.
    fn flush_outbox_locked(&self, cache: &mut ThreadCache) {
        if cache.outbox.is_empty() {
            return;
        }
        let pool_id = cache.outbox_pool;
        let arena = cache.outbox_arena;
        for w in cache.outbox.windows(2) {
            self.space.write(w[0].add(BLK_NEXT_FREE as u32), w[1].raw());
            self.space.flush_range(w[0].add(BLK_NEXT_FREE as u32), 1);
        }
        let first = cache.outbox[0];
        let last = *cache.outbox.last().unwrap();
        // One fence commits every de-initialized block and chain link
        // before the publishing CAS inside the walk can expose them (the
        // flush dedups against `last`'s already-pending header line).
        self.space.persist(last, 1);
        self.link_chain_in_tail(pool_id, arena, first, last);
        self.outbox_flushes.inc();
        self.outbox_blocks.add(cache.outbox.len() as u64);
        cache.outbox.clear();
    }

    /// Drain the calling thread's cache: flush its outbox and return its
    /// unconsumed magazine blocks to the free lists. Call before counting
    /// blocks or closing the structure.
    pub fn drain_thread_cache(&self, epoch: u64) {
        self.drain_slot(thread::current().id, epoch);
    }

    /// Drain every thread's cache. Callers must be quiescent: other threads
    /// may not be allocating or freeing concurrently.
    pub fn drain_all(&self, epoch: u64) {
        for id in 0..self.caches.len() {
            self.drain_slot(id, epoch);
        }
    }

    fn drain_slot(&self, id: usize, epoch: u64) {
        let mut cache = self.cache(id);
        self.flush_outbox_locked(&mut cache);
        let pool = cache.lease_pool;
        for b in std::mem::take(&mut cache.magazine) {
            // Eagerly returned blocks read as KIND_FREE when the lease log
            // is eventually validated, so the log needs no cleanup.
            self.free(epoch, pool, b);
        }
        cache.lease_epoch = 0;
    }

    /// `LogChangeAttempt`'s validation half (Function 3): if the thread's
    /// previous log predates the current epoch, validate and repair
    /// whatever it covered before the slot is overwritten.
    fn validate_stale_log(&self, epoch: u64, reach: &dyn Reachability) {
        let tid = thread::current().id;
        let prev = read_log(&self.space, &self.layout, tid);
        if let Some(log_epoch) = prev.epoch() {
            if log_epoch != epoch {
                self.recover_log(epoch, prev, reach);
            }
        }
    }

    /// Validate one stale log entry and repair whatever it covered.
    pub(crate) fn recover_log(&self, epoch: u64, entry: LogEntry, reach: &dyn Reachability) {
        match entry {
            LogEntry::Empty => {}
            LogEntry::Lease {
                epoch: log_epoch,
                count,
                blocks,
            } => {
                // O(M) per stale lease: classify every listed block. The
                // lease log records no key or predecessor, so node-shaped
                // blocks are checked with the structure's own search
                // (`is_linked` on the node's current first key).
                for &block in blocks.iter().take(count) {
                    // A crash mid-overwrite can persist a torn slot mixing
                    // two entries; the lease it names never touched shared
                    // state, and unresolvable pointers are that residue.
                    if !self.space.ptr_resolves(block, BLK_HEADER_WORDS) {
                        continue;
                    }
                    // Re-popped since the crash (stamped with the new
                    // epoch): its new owner's log covers it.
                    if self.space.read(block.add(BLK_EPOCH as u32)) != log_epoch {
                        continue;
                    }
                    match self.space.read(block.add(BLK_KIND as u32)) {
                        KIND_NODE => {
                            // Linked: the interrupted insert completed.
                            let key = reach.node_first_key(block);
                            if !reach.is_linked(key, block) {
                                self.free(epoch, self.home_pool(), block);
                            }
                        }
                        KIND_RAW => {
                            // Popped (or mid-conversion) but never
                            // initialized: reclaim.
                            let next = self.space.read(block.add(BLK_NEXT_FREE as u32));
                            if next == NEXT_POPPED || next == 0 {
                                self.free(epoch, self.home_pool(), block);
                            }
                            // Other next values: the multi-pop may not be
                            // durable and the block may still be in a list
                            // (bounded leak, see module docs).
                        }
                        _ => {} // KIND_FREE: already back in a list
                    }
                }
            }
            LogEntry::Provision {
                pool_id, chunk_id, ..
            } => {
                // Same torn-line discipline as above: ids outside the
                // machine's shape come from a half-overwritten slot (a
                // block pointer's raw bits read back as `pool_id`), and
                // the provisioning they pretend to describe never started.
                if pool_id as usize >= self.space.pools().len()
                    || chunk_id == 0
                    || chunk_id >= self.cfg.max_chunks
                {
                    return;
                }
                // An in-range id still isn't trusted to fit: a chunk this
                // pool was never grown to carve must not be carved now.
                let end = self.layout.required_pool_words(&self.cfg, chunk_id as u64);
                if end > self.space.pool(pool_id).len_words() {
                    return;
                }
                self.recover_provision(epoch, pool_id, chunk_id);
            }
        }
    }

    /// Reserve a fresh chunk id, skipping ids that a crash-era race already
    /// registered (the counter's persist can lag its volatile increment).
    fn reserve_chunk_id(&self, pool_id: u16) -> u16 {
        let pool = self.space.pool(pool_id);
        let counter = self.layout.alloc_meta_off + META_NEXT_CHUNK;
        loop {
            let id = pool.fetch_add(counter, 1);
            pool.persist(counter, 1);
            assert!(
                id < self.cfg.max_chunks as u64,
                "pool {pool_id} exhausted: chunk table full"
            );
            let id = id as u16;
            if pool.read(self.layout.chunk_table_off + id as u64) == 0 {
                let required = self.layout.required_pool_words(&self.cfg, id as u64);
                assert!(
                    required <= pool.len_words(),
                    "pool {pool_id} exhausted: chunk {id} needs {required} words"
                );
                return id;
            }
        }
    }

    /// Provision a new chunk and link it into `arena`'s free list.
    fn provision_chunk(&self, epoch: u64, pool_id: u16, arena: usize, reach: &dyn Reachability) {
        // The whole chunk goes to the requesting arena (Function 4 line 35
        // links the new chunk into the empty list that triggered it);
        // splitting across arenas would strand 1 − 1/arenas of every chunk
        // when few threads are active.
        let (first, last) = self.provision_chunk_unlinked(epoch, pool_id, reach);
        self.link_chain_in_tail(pool_id, arena, first, last);
    }

    /// Log, carve, and register a new chunk (commit point) without linking
    /// it anywhere. Returns its whole-chunk chain.
    fn provision_chunk_unlinked(
        &self,
        epoch: u64,
        pool_id: u16,
        reach: &dyn Reachability,
    ) -> (RivPtr, RivPtr) {
        let tid = thread::current().id;
        let chunk_id = self.reserve_chunk_id(pool_id);
        // Validate the previous log first (it may be stale), then log this
        // provisioning so a crash mid-way is completed on our next attempt.
        self.validate_stale_log(epoch, reach);
        write_log(
            &self.space,
            &self.layout,
            tid,
            LogEntry::Provision {
                epoch,
                pool_id,
                chunk_id,
            },
        );
        let span = self.carve_chunk_single(epoch, pool_id, chunk_id);
        self.space.register_chunk(
            pool_id,
            chunk_id,
            self.layout.chunk_base(&self.cfg, chunk_id),
        );
        span
    }

    /// Complete an interrupted provisioning (idempotent). Runtime chunks
    /// are single whole-chunk chains owned by the logging thread's arena.
    fn recover_provision(&self, epoch: u64, pool_id: u16, chunk_id: u16) {
        let pool = self.space.pool(pool_id);
        let registered = pool.read(self.layout.chunk_table_off + chunk_id as u64) != 0;
        let (first, last) = if registered {
            self.chunk_span(pool_id, chunk_id)
        } else {
            // Carving never completed; the region content is garbage and
            // nothing references it — re-carve from scratch.
            let span = self.carve_chunk_single(epoch, pool_id, chunk_id);
            self.space.register_chunk(
                pool_id,
                chunk_id,
                self.layout.chunk_base(&self.cfg, chunk_id),
            );
            span
        };
        let arena = thread::current().id % self.cfg.num_arenas;
        // A chain whose last block is free and unlinked was never attached
        // (registered-but-unlinked chunks are invisible to other threads,
        // so the checks are stable); the walk-based push is additionally a
        // membership check, making double-links impossible.
        let last_kind = self.space.read(last.add(BLK_KIND as u32));
        if last_kind != KIND_FREE {
            return; // blocks were popped ⇒ the chain was linked
        }
        if self.space.read(last.add(BLK_NEXT_FREE as u32)) != 0 {
            return; // something follows it ⇒ linked
        }
        self.link_chain_in_tail(pool_id, arena, first, last);
    }

    /// Write the free-block headers of a chunk as one whole-chunk chain.
    /// Returns `(first, last)`.
    fn carve_chunk_single(&self, epoch: u64, pool_id: u16, chunk_id: u16) -> (RivPtr, RivPtr) {
        let pool = self.space.pool(pool_id);
        let base = self.layout.chunk_base(&self.cfg, chunk_id);
        let n = self.cfg.blocks_per_chunk;
        for i in 0..n {
            let blk = RivPtr::new(pool_id, chunk_id, (i * self.cfg.block_words) as u32);
            let next = if i + 1 < n {
                blk.add(self.cfg.block_words as u32)
            } else {
                RivPtr::NULL
            };
            self.space_write_unresolved(pool_id, base, blk, BLK_EPOCH, epoch);
            self.space_write_unresolved(pool_id, base, blk, BLK_KIND, KIND_FREE);
            self.space_write_unresolved(pool_id, base, blk, BLK_NEXT_FREE, next.raw());
        }
        pool.persist(base, self.cfg.chunk_words());
        self.chunk_span(pool_id, chunk_id)
    }

    /// First and last block of a whole-chunk chain.
    fn chunk_span(&self, pool_id: u16, chunk_id: u16) -> (RivPtr, RivPtr) {
        let first = RivPtr::new(pool_id, chunk_id, 0);
        let last = RivPtr::new(
            pool_id,
            chunk_id,
            ((self.cfg.blocks_per_chunk - 1) * self.cfg.block_words) as u32,
        );
        (first, last)
    }

    /// Write the free-block headers of a chunk and chain them into one run
    /// per arena (used only by the single-threaded [`Allocator::format`]
    /// to seed every arena). Returns each arena's first block.
    fn carve_chunk(&self, epoch: u64, pool_id: u16, chunk_id: u16) -> Vec<RivPtr> {
        let pool = self.space.pool(pool_id);
        let base = self.layout.chunk_base(&self.cfg, chunk_id);
        let arenas = self.cfg.num_arenas as u64;
        let per = self.cfg.blocks_per_chunk / arenas;
        let firsts = (0..arenas)
            .map(|arena| {
                let start = arena * per;
                let count = if arena == arenas - 1 {
                    self.cfg.blocks_per_chunk - start
                } else {
                    per
                };
                let first = RivPtr::new(pool_id, chunk_id, (start * self.cfg.block_words) as u32);
                for i in 0..count {
                    let blk = first.add((i * self.cfg.block_words) as u32);
                    let next = if i + 1 < count {
                        blk.add(self.cfg.block_words as u32)
                    } else {
                        RivPtr::NULL
                    };
                    self.space_write_unresolved(pool_id, base, blk, BLK_EPOCH, epoch);
                    self.space_write_unresolved(pool_id, base, blk, BLK_KIND, KIND_FREE);
                    self.space_write_unresolved(pool_id, base, blk, BLK_NEXT_FREE, next.raw());
                }
                first
            })
            .collect();
        // One fence for the whole chunk.
        pool.persist(base, self.cfg.chunk_words());
        firsts
    }

    /// Write a block header word before the chunk is registered in the
    /// chunk table (so `RivSpace::resolve` cannot be used yet).
    #[inline]
    fn space_write_unresolved(&self, pool_id: u16, base: u64, blk: RivPtr, field: u64, v: u64) {
        let pool = self.space.pool(pool_id);
        pool.write(base + blk.offset() as u64 + field, v);
    }

    /// `LinkInTail` (Function 6), reworked: the chain `first..=last` is
    /// appended by **walking the live links from the arena head**; no tail
    /// pointer is kept. With blocks recycling through pop/initialize
    /// cycles, a helped or crash-stale tail can reference a block that
    /// already left the list, silently detaching every subsequent push (a
    /// failure mode our contended benchmarks hit). The walk costs O(list
    /// length) per push — frees are rare by design (§4.3.3) — and doubles
    /// as a membership proof: encountering `first` in-list makes re-pushes
    /// (idempotent recovery, Function 5) a no-op.
    ///
    /// Safety of the append CAS: a block observed in-list with
    /// `next == 0` is the true tail (pops require `next != 0`, so a tail
    /// cannot be popped), and the next-word is never reused by clients,
    /// so the CAS can never land on live foreign state.
    fn link_chain_in_tail(&self, pool_id: u16, arena: usize, first: RivPtr, last: RivPtr) {
        let pool = self.space.pool(pool_id);
        let head_slot = self.layout.arena_head(arena);
        let mut cur = RivPtr::from_raw(pool.read(head_slot));
        loop {
            if cur == first || cur == last {
                return; // already linked (idempotent re-push)
            }
            debug_assert!(!cur.is_null(), "arena head must never be null");
            let next_field = cur.add(BLK_NEXT_FREE as u32);
            let next = self.space.read(next_field);
            if next == 0 {
                if self.space.cas(next_field, 0, first.raw()).is_ok() {
                    self.space.persist(next_field, 1);
                    return;
                }
                continue; // a concurrent push appended; re-read our next
            }
            if next == NEXT_POPPED {
                // `cur` left the list under us; restart from the head.
                cur = RivPtr::from_raw(pool.read(head_slot));
                continue;
            }
            cur = RivPtr::from_raw(next);
        }
    }

    // ---- test / diagnostic helpers ----

    /// Count the blocks currently in `arena`'s free list of `pool_id`.
    /// Only meaningful while the allocator is quiescent (drain caches
    /// first).
    pub fn count_free(&self, pool_id: u16, arena: usize) -> usize {
        let pool = self.space.pool(pool_id);
        let mut cur = RivPtr::from_raw(pool.read(self.layout.arena_head(arena)));
        let mut n = 0;
        while !cur.is_null() {
            n += 1;
            assert!(n <= 1_000_000, "free list cycle detected");
            cur = RivPtr::from_raw(self.space.read(cur.add(BLK_NEXT_FREE as u32)));
        }
        n
    }

    /// Total free blocks across all arenas of a pool (quiescent only).
    pub fn count_free_all(&self, pool_id: u16) -> usize {
        (0..self.cfg.num_arenas)
            .map(|a| self.count_free(pool_id, a))
            .sum()
    }

    /// Number of chunks carved so far in a pool.
    pub fn chunks_provisioned(&self, pool_id: u16) -> u64 {
        self.space
            .pool(pool_id)
            .read(self.layout.alloc_meta_off + META_NEXT_CHUNK)
            - 1
    }
}

/// Reachability stub for contexts where no structure exists to navigate yet
/// (e.g. formatting tests). Treats every block as unreachable.
pub struct NoNav;

impl Reachability for NoNav {
    fn node_first_key(&self, _block: RivPtr) -> u64 {
        u64::MAX
    }
    fn is_linked(&self, _key: u64, _block: RivPtr) -> bool {
        false
    }
}
