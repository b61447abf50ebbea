//! A uniform key-value interface over the structures under test, plus
//! sized constructors for benchmark-scale deployments.

use std::sync::Arc;

use bztree::BzTree;
use hybridskip::HybridSkipList;
use pmdkskip::PmdkSkipList;
use pmem::pool::PoolConfig;
use pmem::{LatencyModel, ObsLevel, PersistenceMode, Placement, Pool};
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

/// What the benchmarks need from an index.
///
/// Every structure supports point ops (`insert`/`get`/`remove`); `scan`
/// returns `None` when the structure has no range path, and the driver
/// then leaves the call out of its counts and timings.
pub trait KvIndex: Send + Sync {
    fn name(&self) -> &'static str;
    fn insert(&self, key: u64, value: u64) -> Option<u64>;
    fn get(&self, key: u64) -> Option<u64>;
    /// Tombstone/delete `key`, returning the previous live value.
    fn remove(&self, key: u64) -> Option<u64>;
    /// Range scan from `from`, up to `limit` records (workload E).
    /// Returns the number of records visited, or `None` when the
    /// structure has no range path.
    fn scan(&self, from: u64, limit: usize) -> Option<usize>;
    /// Batched lookup, results in input order. The default loops
    /// [`KvIndex::get`]; structures with a native batch path override it.
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter().map(|&k| self.get(k)).collect()
    }
    /// Batched upsert, previous values in input order (the symmetric
    /// counterpart of [`KvIndex::get_batch`]). The default loops
    /// [`KvIndex::insert`]; structures with a native batch path override
    /// it. A batch is *not* atomic — it is equivalent to applying the
    /// pairs one at a time in input order.
    fn insert_batch(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        pairs.iter().map(|&(k, v)| self.insert(k, v)).collect()
    }
    /// Durability ack boundary: fence any flush-deferred publish lines so
    /// every operation completed so far on this thread is crash-durable
    /// (strict rather than buffered durable linearizability). Default
    /// no-op — structures that fence eagerly at the end of each op have
    /// nothing deferred.
    fn sync(&self) {}
}

impl KvIndex for UpSkipList {
    fn name(&self) -> &'static str {
        "upskiplist"
    }
    fn insert(&self, key: u64, value: u64) -> Option<u64> {
        UpSkipList::insert(self, key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        UpSkipList::get(self, key)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        UpSkipList::remove(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> Option<usize> {
        Some(UpSkipList::scan(self, from, limit).len())
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        UpSkipList::get_batch(self, keys)
    }
    fn insert_batch(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        UpSkipList::insert_batch(self, pairs)
    }
    fn sync(&self) {
        UpSkipList::sync(self);
    }
}

impl KvIndex for BzTree {
    fn name(&self) -> &'static str {
        "bztree"
    }
    fn insert(&self, key: u64, value: u64) -> Option<u64> {
        BzTree::insert(self, key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        BzTree::get(self, key)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        BzTree::remove(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> Option<usize> {
        Some(BzTree::scan(self, from, limit).len())
    }
}

impl KvIndex for PmdkSkipList {
    fn name(&self) -> &'static str {
        "pmdkskip"
    }
    fn insert(&self, key: u64, value: u64) -> Option<u64> {
        PmdkSkipList::insert(self, key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        PmdkSkipList::get(self, key)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        PmdkSkipList::remove(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> Option<usize> {
        Some(PmdkSkipList::scan(self, from, limit).len())
    }
}

impl KvIndex for HybridSkipList {
    fn name(&self) -> &'static str {
        "hybridskip"
    }
    fn insert(&self, key: u64, value: u64) -> Option<u64> {
        HybridSkipList::insert(self, key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        HybridSkipList::get(self, key)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        HybridSkipList::remove(self, key)
    }
    fn scan(&self, _from: u64, _limit: usize) -> Option<usize> {
        // The hybrid baseline keeps its index sharded by hash; it exists
        // for recovery experiments and has no ordered range path.
        None
    }
}

/// Deployment knobs shared by the constructors.
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    pub records: u64,
    pub tracked: bool,
    pub latency: LatencyModel,
    /// >1 ⇒ one pool per NUMA node (UPSkipList only).
    pub num_pools: u16,
    /// For single-pool deployments: stripe across this many nodes.
    pub striped_nodes: u16,
    /// Observability level for every pool the constructors build.
    pub obs: ObsLevel,
}

impl Deployment {
    pub fn simple(records: u64) -> Self {
        Self {
            records,
            tracked: false,
            latency: LatencyModel::pmem_default(),
            num_pools: 1,
            striped_nodes: 1,
            obs: ObsLevel::Off,
        }
    }

    /// [`Deployment::simple`] with pmem op counters on (metrics runs).
    pub fn counted(records: u64) -> Self {
        Self {
            obs: ObsLevel::Counters,
            ..Self::simple(records)
        }
    }
}

/// UPSkipList build options — one struct instead of a constructor per
/// knob combination. `..Default::default()` gives the evaluation's
/// defaults; experiments override the field they sweep.
#[derive(Debug, Clone, Copy)]
pub struct UpSkipListOpts {
    /// Keys per multi-key node (§5.1.2 uses 256; 1 reproduces the
    /// single-key variant of Fig 5.3).
    pub keys_per_node: usize,
    /// DRAM index shadow (the traversal experiment toggles this against
    /// the persistent descent from the head).
    pub shadow: bool,
    /// Random write-back: evict one in N dirty lines (0 = off).
    pub evict_one_in: u32,
}

impl Default for UpSkipListOpts {
    fn default() -> Self {
        Self {
            keys_per_node: 16,
            shadow: true,
            evict_one_in: 0,
        }
    }
}

impl UpSkipListOpts {
    /// Convenience: defaults with a specific node size.
    pub fn keys_per_node(keys_per_node: usize) -> Self {
        Self {
            keys_per_node,
            ..Self::default()
        }
    }
}

/// UPSkipList sized for the deployment, configured by `opts`.
pub fn build_upskiplist(d: &Deployment, opts: UpSkipListOpts) -> Arc<UpSkipList> {
    build_upskiplist_at(d, opts, 0)
}

/// [`build_upskiplist`] with the (single, un-striped) pool homed on a
/// specific NUMA node — the serving layer places one shard per node.
pub fn build_upskiplist_at(
    d: &Deployment,
    opts: UpSkipListOpts,
    home_node: u16,
) -> Arc<UpSkipList> {
    let mut cfg = sized_config(d, opts.keys_per_node);
    cfg.shadow = opts.shadow;
    let mut b = sized_builder(d, cfg, opts.evict_one_in);
    b.home_node = home_node;
    b.create()
}

/// One UPSkipList per shard, shard `i`'s pool homed on node `i % nodes`
/// and sized for an even share of the deployment's records (with slack for
/// hash-partition imbalance). The E14 serving experiment builds its
/// storage layer through this.
pub fn build_upskiplist_shards(
    d: &Deployment,
    opts: UpSkipListOpts,
    shards: u16,
    nodes: u16,
) -> Vec<Arc<UpSkipList>> {
    assert!(shards >= 1 && nodes >= 1);
    let per_shard = Deployment {
        // 1.5x the even share: fnv1a partitions uniform keys well, but
        // small shard counts still see a few percent of imbalance.
        records: (d.records * 3 / 2 / shards as u64).max(1024),
        ..*d
    };
    (0..shards)
        .map(|i| build_upskiplist_at(&per_shard, opts, i % nodes))
        .collect()
}

/// Tower height sized to the expected node count (the thesis tunes its
/// parameters per machine, §5.1.2; 32 levels over ~400 K nodes there).
fn sized_config(d: &Deployment, keys_per_node: usize) -> ListConfig {
    let nodes = (d.records * 3 / 2) / keys_per_node as u64 + 64;
    let height = (64 - u64::leading_zeros(nodes.max(2)) as usize + 2).clamp(8, 32);
    ListConfig::new(height, keys_per_node)
}

fn sized_builder(d: &Deployment, cfg: ListConfig, evict_one_in: u32) -> ListBuilder {
    let nodes = (d.records * 3 / 2) / cfg.keys_per_node as u64 + 64;
    let node_words = upskiplist::layout::node_words(&cfg).div_ceil(8) * 8;
    let blocks_per_chunk = 512.min(nodes.max(16));
    let chunk_words = blocks_per_chunk * node_words;
    // Each pool provisions whole chunks per arena, so leave headroom for
    // one round of chunks per arena on top of the node footprint.
    let per_pool = (nodes * node_words * 2) / d.num_pools as u64 + 12 * chunk_words + (1 << 20);
    ListBuilder {
        list: cfg,
        num_pools: d.num_pools,
        pool_words: per_pool,
        striped_nodes: d.striped_nodes,
        mode: if d.tracked {
            PersistenceMode::Tracked
        } else {
            PersistenceMode::Fast
        },
        latency: d.latency,
        evict_one_in,
        num_arenas: 8,
        blocks_per_chunk,
        obs: d.obs,
        check: pmem::PmCheckLevel::Off,
        ..ListBuilder::default()
    }
}

/// A pool for single-pool baselines.
pub fn build_pool(d: &Deployment, words: u64) -> Arc<Pool> {
    Pool::new(
        PoolConfig {
            id: 0,
            len_words: words,
            placement: if d.striped_nodes > 1 {
                Placement::Striped {
                    nodes: d.striped_nodes,
                    stripe_words: 1 << 18,
                }
            } else {
                Placement::Node(0)
            },
            mode: if d.tracked {
                PersistenceMode::Tracked
            } else {
                PersistenceMode::Fast
            },
            latency: d.latency,
            evict_one_in: 0,
            obs: d.obs,
            check: pmem::PmCheckLevel::Off,
        },
        Arc::new(pmem::CrashController::new()),
    )
}

/// BzTree sized for the deployment (512-record leaves; splits path-copy
/// the inner nodes, so that churn is included in the sizing).
pub fn build_bztree(d: &Deployment, desc_count: usize) -> Arc<BzTree> {
    let leaf_cap = 512u64;
    let leaves = 2 * d.records / (leaf_cap / 2) + 16;
    let leaf_words = (2 + 2 * leaf_cap) * 2 * leaves; // live + leaked
                                                      // Each split copies O(fanout · depth) inner entries; superseded copies
                                                      // leak (epoch GC stand-in), so budget generously.
    let inner_words = leaves * 64 * 4 + (1 << 16);
    let desc_words = pmwcas::DescriptorPool::region_words(desc_count);
    let words = 64 + desc_words + leaf_words + inner_words + (1 << 20);
    BzTree::create(build_pool(d, words), leaf_cap, desc_count)
}

/// The lock-based PMDK-style skip list sized for the deployment.
pub fn build_pmdkskip(d: &Deployment) -> Arc<PmdkSkipList> {
    let node_words = 5 + 2 * 32 + 2; // max-height node + header
    let words = pmemtx::TxHeap::overhead_words(8) + 2 * d.records * node_words + (1 << 20);
    PmdkSkipList::create(build_pool(d, words), 32)
}

/// The DRAM-index hybrid baseline sized for the deployment. Every upsert
/// of a new key appends one 3-word node; updates are in place.
pub fn build_hybridskip(d: &Deployment) -> Arc<HybridSkipList> {
    let words = 8 + 2 * d.records * 3 + (1 << 20);
    HybridSkipList::create(build_pool(d, words))
}

/// A structure under test, built by name: the index the driver plays
/// against, every pool it allocates from (per-op attribution sums their
/// counters), and the list itself when it is an UPSkipList.
pub struct Target {
    pub index: Arc<dyn KvIndex>,
    pub pools: Vec<Arc<Pool>>,
    pub list: Option<Arc<UpSkipList>>,
}

impl Target {
    /// Build `name` (`upskiplist`, `bztree`, `pmdkskip` or `hybridskip`)
    /// sized for `d`; panics on any other name. `desc_count` sizes the
    /// BzTree's PMwCAS descriptor pool, `opts` configures an UPSkipList.
    pub fn build(name: &str, d: &Deployment, desc_count: usize, opts: UpSkipListOpts) -> Target {
        let (index, pools, list): (Arc<dyn KvIndex>, _, _) = match name {
            "upskiplist" => {
                let l = build_upskiplist(d, opts);
                (l.clone(), l.space().pools().to_vec(), Some(l))
            }
            "bztree" => {
                let t = build_bztree(d, desc_count);
                (t.clone(), vec![Arc::clone(t.pool())], None)
            }
            "pmdkskip" => {
                let s = build_pmdkskip(d);
                (s.clone(), vec![Arc::clone(s.pool())], None)
            }
            "hybridskip" => {
                let h = build_hybridskip(d);
                (h.clone(), vec![Arc::clone(h.pool())], None)
            }
            other => panic!("unknown structure {other}"),
        };
        Target { index, pools, list }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builders_produce_working_indexes() {
        let d = Deployment::simple(1000);
        let idx: Vec<Arc<dyn KvIndex>> = vec![
            build_upskiplist(&d, UpSkipListOpts::default()),
            build_bztree(&d, 1024),
            build_pmdkskip(&d),
            build_hybridskip(&d),
        ];
        for i in idx {
            assert_eq!(i.insert(10, 100), None, "{}", i.name());
            assert_eq!(i.get(10), Some(100), "{}", i.name());
            assert_eq!(i.insert(10, 101), Some(100), "{}", i.name());
            assert_eq!(i.remove(10), Some(101), "{}", i.name());
            assert_eq!(i.get(10), None, "{}", i.name());
            i.insert(5, 50);
            i.insert(7, 70);
            let range = (i.name() != "hybridskip").then_some(2);
            assert_eq!(i.scan(1, 10), range, "{}", i.name());
        }
    }

    #[test]
    fn opts_cover_the_old_constructor_trio() {
        let d = Deployment::counted(500);
        // eviction (old build_upskiplist_opts)
        let l = build_upskiplist(
            &d,
            UpSkipListOpts {
                keys_per_node: 16,
                evict_one_in: 4,
                ..Default::default()
            },
        );
        l.insert(1, 1);
        assert_eq!(l.get(1), Some(1));
        assert!(l.space().stats_snapshot().reads > 0, "counters must be on");
    }
}
