//! The `UpSkipList` handle: creation, opening, recovery, node accessors,
//! and the allocator integration (`MakeLinkedObject`'s navigation callback).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::{ObsLevel, Registry};
use pmalloc::{AllocConfig, Allocator, Reachability, KIND_NODE};
use pmem::pool::PoolConfig;
use pmem::{CrashController, LatencyModel, PersistenceMode, Placement, PmCheckLevel, Pool};
use riv::{RivPtr, RivSpace};

use crate::config::{ListConfig, KEY_INF, KEY_NULL, TOMBSTONE};
use crate::layout::*;
use crate::metrics::StructStats;
use crate::shadow::{IndexShadow, StructureEpoch};
use crate::tags::TagTable;

/// A PMEM-resident, recoverable, NUMA-aware lock-free skip list
/// (the thesis's UPSkipList, Chapter 4).
///
/// All persistent state lives in the pools of the underlying
/// [`RivSpace`]; this handle caches only immutable pointers (head/tail) and
/// the current failure-free epoch.
pub struct UpSkipList {
    pub(crate) alloc: Allocator,
    pub(crate) cfg: ListConfig,
    pub(crate) head: RivPtr,
    pub(crate) tail: RivPtr,
    pub(crate) epoch: AtomicU64,
    /// Shared volatile structure generation: bumped by removes, compaction
    /// and a link publish that found the image busy; validates every
    /// shadow region so one store invalidates them all.
    pub(crate) sepoch: StructureEpoch,
    /// Volatile DRAM mirror of the upper index levels (never persisted;
    /// discarded and rebuilt on every open/recover path — see the `shadow`
    /// module docs for the full contract).
    pub(crate) shadow: IndexShadow,
    /// Volatile per-slot key tags steering the in-node search of large
    /// nodes (`None` when the key array is small enough to stream; never
    /// persisted, dropped on every open/recover/compact — see the `tags`
    /// module docs for the positive-only contract).
    pub(crate) tags: Option<TagTable>,
    /// Structure-level observability counters (DRAM-only; level derived
    /// from pool 0's [`ObsLevel`]), registered in the allocator's
    /// registry.
    pub(crate) stats: StructStats,
}

impl std::fmt::Debug for UpSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpSkipList")
            .field("cfg", &self.cfg)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("pools", &self.space().pools().len())
            .finish()
    }
}

/// Blocks per allocator lease (`AllocConfig::magazine`). One lease-log
/// fence per 8 allocations is what keeps a fresh-node insert under E13's
/// budget of 2.0 fences.
const LEASE_BLOCKS: usize = 8;

/// Builder for a complete simulated deployment: pools, allocator, list.
#[derive(Debug, Clone)]
pub struct ListBuilder {
    pub list: ListConfig,
    /// Pools to create (1 = single pool; >1 = one per NUMA node, §4.3.1).
    pub num_pools: u16,
    /// Words per pool.
    pub pool_words: u64,
    /// Stripe a single pool across this many NUMA nodes (Fig 5.4's
    /// "striped device"); ignored when `num_pools > 1`.
    pub striped_nodes: u16,
    /// Home NUMA node for a single un-striped pool (`num_pools == 1`,
    /// `striped_nodes <= 1`). The serving layer places each shard's pool
    /// on its own node this way; ignored otherwise.
    pub home_node: u16,
    pub mode: PersistenceMode,
    pub latency: LatencyModel,
    /// Random write-back probability denominator (0 = off).
    pub evict_one_in: u32,
    /// Free lists per pool.
    pub num_arenas: usize,
    /// Blocks carved per chunk (the thesis uses 4 MiB chunks).
    pub blocks_per_chunk: u64,
    /// Observability level for the pools and the structure counters
    /// (`Off` for throughput benchmarks — the counters are shared atomics).
    pub obs: ObsLevel,
    /// Persist-ordering check level for the pools (requires
    /// `PersistenceMode::Tracked` when enabled; see `pmem::check`).
    pub check: PmCheckLevel,
}

impl Default for ListBuilder {
    fn default() -> Self {
        Self {
            list: ListConfig::default(),
            num_pools: 1,
            pool_words: 1 << 22, // 32 MiB
            striped_nodes: 1,
            home_node: 0,
            mode: PersistenceMode::Fast,
            latency: LatencyModel::default(),
            evict_one_in: 0,
            num_arenas: 4,
            blocks_per_chunk: 64,
            obs: ObsLevel::Counters,
            check: PmCheckLevel::Off,
        }
    }
}

impl ListBuilder {
    /// Words per block: one node of maximal height, rounded to cache lines.
    fn block_words(&self) -> u64 {
        node_words(&self.list).div_ceil(pmem::CACHE_LINE_WORDS) * pmem::CACHE_LINE_WORDS
    }

    fn alloc_config(&self) -> AllocConfig {
        AllocConfig {
            block_words: self.block_words(),
            blocks_per_chunk: self.blocks_per_chunk,
            num_arenas: self.num_arenas,
            max_chunks: u16::MAX,
            root_words: ROOT_WORDS,
            magazine: LEASE_BLOCKS,
        }
    }

    /// Create pools, format the allocator, and initialize a fresh list.
    pub fn create(&self) -> Arc<UpSkipList> {
        let acfg = self.alloc_config();
        let layout = pmalloc::PoolLayout::for_config(&acfg);
        let crash = Arc::new(CrashController::new());
        let pools: Vec<Arc<Pool>> = (0..self.num_pools)
            .map(|id| {
                let placement = if self.num_pools > 1 {
                    Placement::Node(id)
                } else if self.striped_nodes > 1 {
                    Placement::Striped {
                        nodes: self.striped_nodes,
                        stripe_words: 1 << 18,
                    }
                } else {
                    Placement::Node(self.home_node)
                };
                Pool::new(
                    PoolConfig {
                        id,
                        len_words: self.pool_words,
                        placement,
                        mode: self.mode,
                        latency: self.latency,
                        evict_one_in: self.evict_one_in,
                        obs: self.obs,
                        check: self.check,
                    },
                    Arc::clone(&crash),
                )
            })
            .collect();
        let space = Arc::new(RivSpace::new(
            pools,
            layout.chunk_table_off,
            acfg.max_chunks,
        ));
        let alloc = Allocator::new(space, acfg);
        UpSkipList::create(alloc, self.list)
    }
}

impl UpSkipList {
    /// Format pools (already wrapped in an allocator) into a fresh list.
    pub fn create(alloc: Allocator, cfg: ListConfig) -> Arc<Self> {
        assert!(
            node_words(&cfg) <= alloc.config().block_words,
            "blocks too small for configured nodes: need {} words",
            node_words(&cfg)
        );
        let epoch = 1u64;
        alloc.format(epoch);
        let pool0 = Arc::clone(alloc.space().pool(0));
        let stats = StructStats::new(pool0.obs_level(), alloc.registry());
        let list = Arc::new(Self {
            tags: TagTable::for_list(&cfg, &alloc),
            alloc,
            cfg,
            head: RivPtr::NULL,
            tail: RivPtr::NULL,
            epoch: AtomicU64::new(epoch),
            sepoch: StructureEpoch::new(),
            shadow: IndexShadow::new(),
            stats,
        });
        // Sentinels (§4.2). The tail is created first so the head can link
        // to it at every level. Each sentinel is persisted before the next
        // allocator publish so formatting obeys the same write → persist →
        // publish discipline pmcheck enforces on normal operation.
        let tail = list.alloc_block();
        list.init_sentinel(tail, KEY_INF);
        list.space().persist(tail, node_words(&cfg));
        let head = list.alloc_block();
        list.init_sentinel(head, KEY_NULL);
        for level in 0..cfg.max_height {
            list.space()
                .write(head.add(next_off_cfg(&cfg, level) as u32), tail.raw());
        }
        list.space().persist(head, node_words(&cfg));
        pool0.write(ROOT_EPOCH, epoch);
        pool0.write(ROOT_CLEAN, 0);
        pool0.write(ROOT_CONFIG, cfg.pack());
        pool0.write(ROOT_HEAD, head.raw());
        pool0.write(ROOT_TAIL, tail.raw());
        pool0.write(ROOT_MAGIC, ROOT_MAGIC_VALUE);
        pool0.persist(ROOT_MAGIC, ROOT_WORDS);
        // `Arc::get_mut` is unavailable once cloned; rebuild with pointers.
        let mut inner = Arc::try_unwrap(list).expect("no clones yet");
        inner.head = head;
        inner.tail = tail;
        Arc::new(inner)
    }

    /// Reconnect to a formatted deployment: read the root, start a new
    /// failure-free epoch, and resume — recovery work is deferred into
    /// normal operation (§4.1.5), so this is O(pools).
    pub fn open(alloc: Allocator) -> Arc<Self> {
        let pool0 = Arc::clone(alloc.space().pool(0));
        assert_eq!(
            pool0.read(ROOT_MAGIC),
            ROOT_MAGIC_VALUE,
            "pool 0 holds no UPSkipList root"
        );
        alloc.space().invalidate_caches();
        alloc.discard_thread_caches();
        let cfg = ListConfig::unpack(pool0.read(ROOT_CONFIG));
        let epoch = pool0.read(ROOT_EPOCH) + 1;
        pool0.write(ROOT_EPOCH, epoch);
        pool0.write(ROOT_CLEAN, 0);
        pool0.persist(ROOT_EPOCH, 2);
        let stats = StructStats::new(pool0.obs_level(), alloc.registry());
        Arc::new(Self {
            head: RivPtr::from_raw(pool0.read(ROOT_HEAD)),
            tail: RivPtr::from_raw(pool0.read(ROOT_TAIL)),
            // Fresh volatile caches: the shadow and the tags are rebuilt
            // from the persistent structure on first use, never recovered.
            tags: TagTable::for_list(&cfg, &alloc),
            alloc,
            cfg,
            epoch: AtomicU64::new(epoch),
            sepoch: StructureEpoch::new(),
            shadow: IndexShadow::new(),
            stats,
        })
    }

    /// In-place post-crash recovery on an existing handle (used by crash
    /// tests, where the pools object survives the simulated power cycle):
    /// drop DRAM caches and begin a new epoch.
    pub fn recover(&self) {
        self.space().invalidate_caches();
        // The crash destroyed DRAM: magazines and outboxes are gone, not
        // drained — stale lease logs reclaim the magazine blocks lazily.
        self.alloc.discard_thread_caches();
        // The index shadow is DRAM too: discard, never recover. (The epoch
        // bump below already orphans it, but dropping the entries now frees
        // the memory and makes the rebuild-from-scratch contract explicit.)
        self.shadow.discard();
        self.discard_tags();
        let pool0 = self.space().pool(0);
        let epoch = pool0.read(ROOT_EPOCH) + 1;
        pool0.write(ROOT_EPOCH, epoch);
        pool0.write(ROOT_CLEAN, 0);
        let pool0 = Arc::clone(pool0);
        pool0.persist(ROOT_EPOCH, 2);
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Drain the calling thread's pending (epoch-deferred) flushes with one
    /// fence, making every operation it completed durable. Under the
    /// prepare-then-publish insert path the publishing link line is flushed
    /// with deferred durability — it rides the next operation's sweep fence
    /// — so a thread that must *guarantee* its last operation survives a
    /// power failure (an ack boundary, a quiesce point) calls `sync` first.
    /// Returns true if a fence was actually issued (false = nothing
    /// pending). Per-thread: other threads' pending flushes are unaffected.
    #[inline]
    pub fn sync(&self) -> bool {
        pmem::fence_pending()
    }

    /// Mark a clean shutdown (flushes everything in tracked pools). Drains
    /// every thread's magazine and free outbox first so no block is lost to
    /// a DRAM cache; callers must have quiesced all worker threads.
    pub fn close(&self) {
        self.alloc.drain_all(self.epoch());
        let pool0 = Arc::clone(self.space().pool(0));
        pool0.write(ROOT_CLEAN, 1);
        pool0.persist(ROOT_CLEAN, 1);
        for pool in self.space().pools() {
            pool.mark_all_persisted();
        }
    }

    #[inline]
    pub fn space(&self) -> &Arc<RivSpace> {
        self.alloc.space()
    }

    #[inline]
    pub fn allocator(&self) -> &Allocator {
        &self.alloc
    }

    #[inline]
    pub fn config(&self) -> &ListConfig {
        &self.cfg
    }

    /// The deployment's observability registry: the structure counters
    /// (`list.*` names) and the allocator's path counters (`alloc.*`),
    /// live at every snapshot. Benches may add their own entries.
    #[inline]
    pub fn registry(&self) -> &Arc<Registry> {
        self.alloc.registry()
    }

    /// The observability level this deployment was built with (pool 0's).
    #[inline]
    pub fn obs_level(&self) -> ObsLevel {
        self.space().pool(0).obs_level()
    }

    /// Same as `self.registry().snapshot()`. The method remains only
    /// because the benchmark's `deploy::registry_snapshot` still calls
    /// it, and goes once that caller drops it; read the registry instead.
    pub fn struct_metrics(&self) -> obs::Snapshot {
        self.registry().snapshot()
    }

    /// The current failure-free epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    #[inline]
    pub fn head(&self) -> RivPtr {
        self.head
    }

    #[inline]
    pub fn tail(&self) -> RivPtr {
        self.tail
    }

    /// The pool a thread allocates from: its NUMA node's pool in multi-pool
    /// mode, pool 0 otherwise.
    #[inline]
    pub(crate) fn local_pool(&self) -> u16 {
        let node = pmem::thread::current().numa_node;
        if (node as usize) < self.space().pools().len() {
            node
        } else {
            0
        }
    }

    // ---- node field accessors ----

    #[inline]
    pub(crate) fn node_epoch(&self, node: RivPtr) -> u64 {
        self.space().read(node.add(N_EPOCH as u32))
    }

    #[inline]
    pub(crate) fn height(&self, node: RivPtr) -> usize {
        self.space().read(node.add(N_HEIGHT as u32)) as usize
    }

    #[inline]
    pub(crate) fn split_count(&self, node: RivPtr) -> u64 {
        self.space().read(node.add(N_SPLIT_COUNT as u32))
    }

    #[inline]
    pub(crate) fn next(&self, node: RivPtr, level: usize) -> RivPtr {
        RivPtr::from_raw(
            self.space()
                .read(node.add(next_off_cfg(&self.cfg, level) as u32)),
        )
    }

    /// keys[0]; immutable after node initialization (head: 0, tail: +∞).
    #[inline]
    pub(crate) fn key0(&self, node: RivPtr) -> u64 {
        if node == self.head {
            return KEY_NULL;
        }
        self.space().read(node.add(key_off(&self.cfg, 0) as u32))
    }

    #[inline]
    pub(crate) fn key_at(&self, node: RivPtr, i: usize) -> u64 {
        self.space().read(node.add(key_off(&self.cfg, i) as u32))
    }

    #[inline]
    pub(crate) fn val_at(&self, node: RivPtr, i: usize) -> u64 {
        self.space().read(node.add(val_off(&self.cfg, i) as u32))
    }

    /// Allocate a block for a new node (the pop half of Function 4's
    /// `MakeLinkedObject`; initialization is the caller's job).
    pub(crate) fn alloc_block(&self) -> RivPtr {
        self.alloc
            .alloc(self.epoch(), self.local_pool(), RivPtr::NULL, 0, self)
    }

    /// Initialize a freshly popped block as a node holding `kvs` (remaining
    /// slots empty/tombstoned). Not persisted; callers persist once after
    /// populating next pointers (§4.5 "a single flush", line 246).
    pub(crate) fn init_node(&self, block: RivPtr, height: usize, kvs: &[(u64, u64)]) {
        debug_assert!(height >= 1 && height <= self.cfg.max_height);
        debug_assert!(kvs.len() <= self.cfg.keys_per_node);
        let sp = self.space();
        sp.write(block.add(N_LOCK as u32), 0);
        sp.write(block.add(N_HEIGHT as u32), height as u64);
        sp.write(block.add(N_SPLIT_COUNT as u32), 0);
        sp.write(block.add(N_SORTED as u32), 0);
        for i in 0..self.cfg.keys_per_node {
            let (k, v) = kvs.get(i).copied().unwrap_or((KEY_NULL, TOMBSTONE));
            sp.write(block.add(key_off(&self.cfg, i) as u32), k);
            sp.write(block.add(val_off(&self.cfg, i) as u32), v);
        }
        sp.write(block.add(N_KIND as u32), KIND_NODE);
        if let Some(tags) = &self.tags {
            // The block may be a recycled one: overwrite every slot's tag.
            tags.fill(block, kvs.iter().map(|kv| kv.0));
        }
    }

    fn init_sentinel(&self, block: RivPtr, key0: u64) {
        let sp = self.space();
        self.init_node(block, self.cfg.max_height, &[]);
        sp.write(block.add(key_off(&self.cfg, 0) as u32), key0);
        for level in 0..self.cfg.max_height {
            sp.write(block.add(next_off_cfg(&self.cfg, level) as u32), 0);
        }
    }

    /// Sample a tower height from the geometric distribution with p = 1/2
    /// (§2.3.2), capped at the configured maximum.
    pub(crate) fn random_height(&self) -> usize {
        use rand::Rng;
        let mut h = 1;
        let mut rng = rand::thread_rng();
        while h < self.cfg.max_height && rng.gen::<bool>() {
            h += 1;
        }
        h
    }
}

/// Navigation callback for stale lease logs (Function 3 lines 15–22):
/// decide whether a logged block completed its link-in.
impl Reachability for UpSkipList {
    fn node_first_key(&self, block: RivPtr) -> u64 {
        self.key0(block)
    }

    /// Is `block` the linked node owning `key`? A read-only level descent
    /// from the head — no shadow, no locks, no structure counters — so
    /// stale-lease recovery costs O(log n) per listed block.
    fn is_linked(&self, key: u64, block: RivPtr) -> bool {
        let mut cur = self.head;
        for level in (0..self.cfg.max_height).rev() {
            loop {
                let nxt = self.next(cur, level);
                if nxt.is_null() || nxt == self.tail {
                    break;
                }
                let k = self.key0(nxt);
                if k > key {
                    break;
                }
                // Linked at any level implies the bottom-level link-in
                // (the commit point) completed: levels link bottom-up.
                if nxt == block && k == key {
                    return true;
                }
                cur = nxt;
            }
        }
        cur == block && self.key0(cur) == key
    }
}
