//! Building, reopening and sizing the deployments under test, through the
//! construction surface the ROADMAP keeps: `ListBuilder { list, pool_words,
//! mode, latency, obs, .. }`, `UpSkipList::open`, `Allocator`, `RivSpace`.

use std::sync::Arc;

use pmalloc::Allocator;
use pmem::{LatencyModel, ObsLevel, OpKind, PersistenceMode};
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

use crate::span::now_ns;

/// Generator threads: the load comes from at most `nproc` threads (2 on
/// the box the workloads were sized on), and never more than the two the
/// workload shapes are defined for.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Tower height for the expected node count (two levels of slack), as the
/// paper sizes its parameters per deployment (§5.1.2).
fn sized_height(records: u64, keys_per_node: usize) -> usize {
    let nodes = (records * 3 / 2 / keys_per_node as u64).max(2);
    (nodes.ilog2() as usize + 3).clamp(8, upskiplist::MAX_HEIGHT)
}

pub struct ListSpec {
    pub records: u64,
    pub keys_per_node: usize,
    pub pool_words: u64,
    pub mode: PersistenceMode,
}

/// One single-pool list on NUMA node 0 (one node: the benchmark measures
/// the program, not the simulated interconnect) under the default pmem
/// cost model. `traced` turns the pool and structure counters on.
pub fn build_list(spec: &ListSpec, traced: bool) -> Arc<UpSkipList> {
    ListBuilder {
        list: ListConfig::new(
            sized_height(spec.records, spec.keys_per_node),
            spec.keys_per_node,
        ),
        pool_words: spec.pool_words,
        mode: spec.mode,
        latency: LatencyModel::pmem_default(),
        obs: if traced {
            ObsLevel::Counters
        } else {
            ObsLevel::Off
        },
        ..ListBuilder::default()
    }
    .create()
}

/// Drop the handle (with every DRAM cache it owns) and reconnect a fresh
/// one to the same pools, as a new process would. Returns it with the
/// nanoseconds the `open()` call alone took.
///
/// # Panics
/// Panics if another handle to the list is still alive; the caller must
/// have shut down whatever shared it.
pub fn reopen(list: Arc<UpSkipList>) -> (Arc<UpSkipList>, u64) {
    let space = Arc::clone(list.space());
    let config = *list.allocator().config();
    assert_eq!(Arc::strong_count(&list), 1, "reopen needs the last handle");
    drop(list);
    let t0 = now_ns();
    let list = UpSkipList::open(Allocator::new(space, config));
    (list, now_ns() - t0)
}

/// What restarting a deployment and reading everything back took and found.
pub struct Restarted {
    pub lists: Vec<Arc<UpSkipList>>,
    /// First `open()` call → last key verified.
    pub restart_ms: f64,
    /// The `open()` calls alone (the paper's Table 5.4 number).
    pub reconnect_us: f64,
    /// The read-back alone: the first read of every key after reopening.
    pub first_pass_ms: f64,
    pub checked: u64,
    pub wrong: u64,
}

/// Restart every list of a deployment and read everything back, `reps`
/// times over; the times reported are the median repetition's. Every
/// generator thread `t` runs `read_back(lists, t)` over its own share of
/// the keys (it returns keys checked and keys wrong): the read-back is
/// the same two-thread load the windows are, not one thread beside an
/// idle processor, whose speed on the box the workloads were sized on
/// swings by a third from one minute to the next.
pub fn restart(
    mut lists: Vec<Arc<UpSkipList>>,
    reps: usize,
    read_back: impl Fn(&[Arc<UpSkipList>], usize) -> (u64, u64) + Sync,
) -> Restarted {
    let (mut restart, mut reconnect, mut first_pass) = (Vec::new(), Vec::new(), Vec::new());
    let (mut checked, mut wrong) = (0, 0);
    for _ in 0..reps {
        let opened_at = now_ns();
        let mut reconnect_ns = 0;
        lists = lists
            .into_iter()
            .map(|l| {
                let (l, ns) = reopen(l);
                reconnect_ns += ns;
                l
            })
            .collect();
        let pass_start = now_ns();
        for (c, w) in on_threads(generator_threads(), |t| read_back(&lists, t)) {
            checked += c;
            wrong += w;
        }
        let done = now_ns();
        restart.push((done - opened_at) as f64 / 1e6);
        reconnect.push(reconnect_ns as f64 / 1e3);
        first_pass.push((done - pass_start) as f64 / 1e6);
    }
    let median = |v: &[f64]| crate::stats::median(v).expect("reps >= 1");
    Restarted {
        lists,
        restart_ms: median(&restart),
        reconnect_us: median(&reconnect),
        first_pass_ms: median(&first_pass),
        checked,
        wrong,
    }
}

impl Restarted {
    /// Fill a round's restart fields (and, traced, its restart layers).
    pub fn record(&self, out: &mut crate::round::Round) {
        out.restart_ms = self.restart_ms;
        out.attempted += self.checked;
        if out.traced {
            out.layer.push(("core.reconnect_us", self.reconnect_us));
            out.layer.push(("core.first_pass_ms", self.first_pass_ms));
        }
    }
}

/// Restarts per round where the restart is a clean one.
pub const RESTART_REPS: usize = 3;

/// Bytes of pmem the allocator has carved into chunks, over all pools.
pub fn pmem_bytes(list: &UpSkipList) -> u64 {
    let alloc = list.allocator();
    let chunk_bytes = alloc.config().chunk_words() * 8;
    list.space()
        .pools()
        .iter()
        .map(|p| alloc.chunks_provisioned(p.id()) * chunk_bytes)
        .sum()
}

/// The five list operations the workloads issue. A trait so the generator
/// tests can run `Churner` against a plain map; the list implementation
/// tags each call for per-operation pmem attribution.
pub trait Kv {
    /// Insert a key that is not present.
    fn insert(&self, key: u64, value: u64) -> Option<u64>;
    /// Overwrite a key that is present.
    fn update(&self, key: u64, value: u64) -> Option<u64>;
    fn remove(&self, key: u64) -> Option<u64>;
    fn get(&self, key: u64) -> Option<u64>;
    fn scan(&self, from: u64, limit: usize) -> Vec<(u64, u64)>;
    /// Make this thread's completed operations durable.
    fn sync(&self);
}

/// `pmem` attributes pool counters to the `OpKind` the calling thread is
/// tagged with. It has no kind for updates; none of the list workloads
/// issues batches, so updates borrow that bucket.
pub const UPDATE_TAG: OpKind = OpKind::Batch;

impl Kv for UpSkipList {
    fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let _tag = pmem::op_tag(OpKind::Insert);
        UpSkipList::insert(self, key, value)
    }
    fn update(&self, key: u64, value: u64) -> Option<u64> {
        let _tag = pmem::op_tag(UPDATE_TAG);
        UpSkipList::insert(self, key, value)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        let _tag = pmem::op_tag(OpKind::Remove);
        UpSkipList::remove(self, key)
    }
    fn get(&self, key: u64) -> Option<u64> {
        let _tag = pmem::op_tag(OpKind::Get);
        UpSkipList::get(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> Vec<(u64, u64)> {
        let _tag = pmem::op_tag(OpKind::Scan);
        UpSkipList::scan(self, from, limit)
    }
    fn sync(&self) {
        UpSkipList::sync(self);
    }
}

/// Run `f(t)` on `threads` registered generator threads and collect the
/// results in thread order.
pub fn on_threads<T: Send>(threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    pmem::thread::register(t, 0);
                    f(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Counter deltas of a list's registry (structure and allocator counters,
/// by name, so a counter a later change removes reads as 0 here instead
/// of breaking the build).
pub fn registry_snapshot(list: &UpSkipList) -> obs::Snapshot {
    // Refreshes the `alloc.*` mirrors before the copy.
    list.struct_metrics();
    list.registry().snapshot()
}
