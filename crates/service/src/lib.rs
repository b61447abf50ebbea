//! # service — NUMA-sharded KV serving layer
//!
//! A request router in front of N [`UpSkipList`] shards. The key space is
//! hash-partitioned (FNV-1a, same mix as the YCSB key scrambler) across
//! shards; each shard owns its own pmem pool placed on its home NUMA node
//! and is drained by dedicated worker threads registered on that node, so
//! every storage access a worker makes is node-local.
//!
//! Layering, top to bottom:
//!
//! 1. **Request API** ([`Request`]/[`Response`]/[`Ticket`]) — clients
//!    submit and wait (closed-loop) or fire-and-forget (open-loop).
//! 2. **Router** ([`KvService::submit`]) — hashes keys to shards, splits
//!    multi-key requests into per-shard slices with gather aggregators,
//!    broadcasts scans.
//! 3. **Admission queues** — one bounded queue per shard; a full queue
//!    blocks the submitter (backpressure).
//! 4. **Latch manager** — per-shard key-range latches serialize
//!    conflicting multi-key requests and coalesced write groups.
//! 5. **Shard executor** — drains batches and applies them through the
//!    list's native `get_batch`/`insert_batch`/`remove_batch` paths.
//!
//! Everything in this crate is volatile: queues, latches, and tickets
//! evaporate on a crash, and recovery is entirely the storage layer's
//! (`UpSkipList`'s) problem. A restarted service re-attaches to the
//! recovered lists and starts empty-queued.

mod api;
mod latch;
mod queue;
mod shard;

pub mod loadgen;

pub use api::{Request, Response, Ticket};
pub use latch::{normalize, point_ranges, LatchGuard, LatchManager, Range};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use obs::{Counter, Registry};
use upskiplist::UpSkipList;

use crate::api::CompletionMetrics;
use crate::shard::{GatherAgg, ScanAgg, ShardState, Task};

/// Tuning knobs for [`KvService::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads draining each shard's queue.
    pub workers_per_shard: usize,
    /// Max tasks a worker drains per batch (admission batch size).
    pub max_batch: usize,
    /// Admission queue capacity per shard; pushes block when full.
    pub queue_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers_per_shard: 1,
            max_batch: 64,
            queue_cap: 8192,
        }
    }
}

/// One shard's storage and placement, as handed to [`KvService::start`].
pub struct ShardSpec {
    pub list: Arc<UpSkipList>,
    /// Simulated NUMA node the shard's pool lives on; the shard's workers
    /// register here.
    pub node: u16,
}

fn check_key(k: u64) {
    assert!(
        (upskiplist::MIN_USER_KEY..=upskiplist::MAX_USER_KEY).contains(&k),
        "key {k} uses a reserved encoding"
    );
}

fn check_kv(k: u64, v: u64) {
    check_key(k);
    assert!(v != u64::MAX, "value u64::MAX is the tombstone encoding");
}

/// How many times a parking candidate — a shard worker facing an empty
/// queue, or [`Ticket::wait`] on an unfilled ticket — calls
/// `std::thread::yield_now` before it parks, re-reading the queue length
/// (or the ticket's `filled` flag) without a lock between yields. With an
/// idle CPU a yield returns at once and the budget costs a few µs of
/// polling; on an oversubscribed host it hands the CPU to the thread that
/// produces the awaited work, which usually saves the futex sleep and
/// wake-up. Yielding, not spinning: on 2 CPUs a spinning waiter holds the
/// CPU its producer needs. Swept on the benchmark's `svc_closed` (one
/// driver, 2 shards, 2 CPUs; 6 seeds, order rotated): budgets 0 / 4 / 16
/// / 64 gave median 310 / 377 / 391 / 378 K req/s. 4, 16 and 64 are within
/// the run-to-run spread of one another and 0 is clearly below, so the
/// smallest is kept: it wastes the least CPU when the work does not come.
pub(crate) const YIELD_BUDGET: usize = 4;

/// Worker thread ids start past the range bench drivers typically use, so
/// a driver thread and a shard worker don't share allocator caches or
/// per-thread buffers (a collision is harmless for correctness, but
/// muddies per-thread perf attribution).
const WORKER_ID_BASE: usize = 64;

/// The serving layer: router + shards + workers. Create with
/// [`KvService::start`]; submit with [`KvService::submit`]; stop with
/// [`KvService::shutdown`].
pub struct KvService {
    shards: Vec<Arc<ShardState>>,
    registry: Arc<Registry>,
    /// End-to-end request latency, submit → complete (`svc.lat.request`),
    /// and `svc.completed`: the instances every shard also records into.
    done: CompletionMetrics,
    submitted: Arc<Counter>,
    req_get: Arc<Counter>,
    req_put: Arc<Counter>,
    req_delete: Arc<Counter>,
    req_scan: Arc<Counter>,
    req_multi_get: Arc<Counter>,
    req_multi_put: Arc<Counter>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_worker_id: AtomicUsize,
}

impl KvService {
    /// Spin up the service: one `ShardState` per spec, `workers_per_shard`
    /// threads per shard, all metrics registered on a fresh [`Registry`].
    pub fn start(specs: Vec<ShardSpec>, cfg: ServiceConfig) -> Arc<Self> {
        assert!(!specs.is_empty(), "need at least one shard");
        assert!(cfg.workers_per_shard >= 1);
        let registry = Arc::new(Registry::new());
        let shards: Vec<Arc<ShardState>> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Arc::new(ShardState::new(s.list, s.node, cfg.queue_cap, &registry, i)))
            .collect();
        let svc = Arc::new(Self {
            shards,
            done: CompletionMetrics::new(&registry),
            submitted: registry.counter("svc.submitted"),
            req_get: registry.counter("svc.req.get"),
            req_put: registry.counter("svc.req.put"),
            req_delete: registry.counter("svc.req.delete"),
            req_scan: registry.counter("svc.req.scan"),
            req_multi_get: registry.counter("svc.req.multi_get"),
            req_multi_put: registry.counter("svc.req.multi_put"),
            registry,
            workers: Mutex::new(Vec::new()),
            next_worker_id: AtomicUsize::new(0),
        });
        let mut handles = Vec::new();
        for shard in &svc.shards {
            for _ in 0..cfg.workers_per_shard {
                let nth = svc.next_worker_id.fetch_add(1, Ordering::Relaxed);
                let id = (WORKER_ID_BASE + nth) % pmem::MAX_THREADS;
                let shard = Arc::clone(shard);
                handles.push(std::thread::spawn(move || {
                    shard::worker_loop(shard, id, cfg.max_batch)
                }));
            }
        }
        *svc.workers.lock().unwrap() = handles;
        svc
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The service's metrics registry (all `svc.*` names).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Which shard owns `key`. FNV-1a so adjacent keys (YCSB's dense key
    /// space) spread uniformly instead of striping by low bits.
    pub fn shard_of(&self, key: u64) -> usize {
        (ycsb::fnv1a(key) % self.shards.len() as u64) as usize
    }

    /// Requests submitted but not yet completed.
    pub fn pending(&self) -> u64 {
        self.submitted
            .value()
            .saturating_sub(self.done.completed.value())
    }

    /// Route a request: returns a [`Ticket`] the caller may wait on or
    /// drop. Blocks only when a target shard's admission queue is full.
    ///
    /// # Panics
    /// Panics on the submitting thread if a key or value uses a reserved
    /// encoding (keys outside `MIN_USER_KEY..=MAX_USER_KEY`, value
    /// `u64::MAX`) — validating here keeps a bad request from killing a
    /// shard worker and hanging every client behind it.
    pub fn submit(&self, req: Request) -> Ticket {
        match &req {
            Request::Get(k) | Request::Delete(k) => check_key(*k),
            Request::Put(k, v) => check_kv(*k, *v),
            Request::MultiGet(keys) => keys.iter().for_each(|&k| check_key(k)),
            Request::MultiPut(pairs) => pairs.iter().for_each(|&(k, v)| check_kv(k, v)),
            Request::Scan { .. } => {}
        }
        self.submitted.inc();
        let (ticket, done) = api::ticket();
        match req {
            Request::Get(key) => {
                self.req_get.inc();
                self.enqueue(self.shard_of(key), Task::Get { key, done });
            }
            Request::Put(key, value) => {
                self.req_put.inc();
                self.enqueue(self.shard_of(key), Task::Put { key, value, done });
            }
            Request::Delete(key) => {
                self.req_delete.inc();
                self.enqueue(self.shard_of(key), Task::Delete { key, done });
            }
            Request::Scan { from, limit } => {
                self.req_scan.inc();
                if limit == 0 {
                    done.complete(Response::Entries(Vec::new()), &self.done);
                    return ticket;
                }
                let agg = Arc::new(ScanAgg::new(self.shards.len(), limit, done));
                for i in 0..self.shards.len() {
                    let agg = Arc::clone(&agg);
                    self.enqueue(i, Task::Scan { from, limit, agg });
                }
            }
            Request::MultiGet(keys) => {
                self.req_multi_get.inc();
                if keys.is_empty() {
                    done.complete(Response::Values(Vec::new()), &self.done);
                    return ticket;
                }
                let groups = self.group_keys(keys.iter().copied());
                let agg = Arc::new(GatherAgg::new(keys.len(), groups.len(), done));
                for (shard, keys) in groups {
                    let agg = Arc::clone(&agg);
                    self.enqueue(shard, Task::MultiGet { keys, agg });
                }
            }
            Request::MultiPut(pairs) => {
                self.req_multi_put.inc();
                if pairs.is_empty() {
                    done.complete(Response::Values(Vec::new()), &self.done);
                    return ticket;
                }
                // Per-shard slices of (input position, key, value).
                type PutGroups = Vec<(usize, Vec<(usize, u64, u64)>)>;
                let mut groups: PutGroups = Vec::new();
                for (pos, &(k, v)) in pairs.iter().enumerate() {
                    let s = self.shard_of(k);
                    match groups.iter_mut().find(|(g, _)| *g == s) {
                        Some((_, slice)) => slice.push((pos, k, v)),
                        None => groups.push((s, vec![(pos, k, v)])),
                    }
                }
                let agg = Arc::new(GatherAgg::new(pairs.len(), groups.len(), done));
                for (shard, pairs) in groups {
                    let agg = Arc::clone(&agg);
                    self.enqueue(shard, Task::MultiPut { pairs, agg });
                }
            }
        }
        ticket
    }

    fn group_keys(&self, keys: impl Iterator<Item = u64>) -> Vec<(usize, Vec<(usize, u64)>)> {
        let mut groups: Vec<(usize, Vec<(usize, u64)>)> = Vec::new();
        for (pos, k) in keys.enumerate() {
            let s = self.shard_of(k);
            match groups.iter_mut().find(|(g, _)| *g == s) {
                Some((_, slice)) => slice.push((pos, k)),
                None => groups.push((s, vec![(pos, k)])),
            }
        }
        groups
    }

    fn enqueue(&self, shard: usize, task: Task) {
        let s = &self.shards[shard];
        if s.queue.push(task) {
            s.m.enqueued.inc();
        }
        // A push into a closed queue drops the task; its ticket never
        // completes. Submissions racing shutdown are the caller's bug.
    }

    /// Close every queue, drain remaining work, join the workers. Safe to
    /// call more than once.
    pub fn shutdown(&self) {
        for s in &self.shards {
            s.queue.close();
        }
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for KvService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upskiplist::ListBuilder;

    fn mini_list(node: u16) -> Arc<UpSkipList> {
        ListBuilder {
            pool_words: 1 << 20,
            home_node: node,
            ..ListBuilder::default()
        }
        .create()
    }

    fn mini_service(shards: u16) -> Arc<KvService> {
        let specs = (0..shards)
            .map(|i| ShardSpec {
                list: mini_list(i % 4),
                node: i % 4,
            })
            .collect();
        KvService::start(specs, ServiceConfig::default())
    }

    #[test]
    fn point_ops_round_trip() {
        let svc = mini_service(2);
        assert_eq!(
            svc.submit(Request::Put(1, 10)).wait(),
            Response::Value(None)
        );
        assert_eq!(
            svc.submit(Request::Put(1, 11)).wait(),
            Response::Value(Some(10))
        );
        assert_eq!(
            svc.submit(Request::Get(1)).wait(),
            Response::Value(Some(11))
        );
        assert_eq!(svc.submit(Request::Get(2)).wait(), Response::Value(None));
        assert_eq!(
            svc.submit(Request::Delete(1)).wait(),
            Response::Value(Some(11))
        );
        assert_eq!(svc.submit(Request::Get(1)).wait(), Response::Value(None));
        svc.shutdown();
    }

    #[test]
    fn multi_ops_preserve_input_order_across_shards() {
        let svc = mini_service(4);
        let keys: Vec<u64> = (1..=64).collect();
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 2)).collect();
        let prevs = match svc.submit(Request::MultiPut(pairs)).wait() {
            Response::Values(v) => v,
            r => panic!("unexpected response {r:?}"),
        };
        assert_eq!(prevs, vec![None; 64]);
        let vals = match svc.submit(Request::MultiGet(keys.clone())).wait() {
            Response::Values(v) => v,
            r => panic!("unexpected response {r:?}"),
        };
        assert_eq!(
            vals,
            keys.iter().map(|&k| Some(k * 2)).collect::<Vec<_>>(),
            "values must come back in input order regardless of shard routing"
        );
        assert_eq!(
            svc.submit(Request::MultiGet(Vec::new())).wait(),
            Response::Values(Vec::new())
        );
        svc.shutdown();
    }

    #[test]
    fn scan_merges_across_shards() {
        let svc = mini_service(4);
        let pairs: Vec<(u64, u64)> = (1..=100).map(|k| (k, k + 1000)).collect();
        svc.submit(Request::MultiPut(pairs)).wait();
        let entries = match svc
            .submit(Request::Scan {
                from: 10,
                limit: 20,
            })
            .wait()
        {
            Response::Entries(e) => e,
            r => panic!("unexpected response {r:?}"),
        };
        assert_eq!(
            entries,
            (10..30).map(|k| (k, k + 1000)).collect::<Vec<_>>(),
            "scan must merge shard slices into ascending order"
        );
        assert_eq!(
            svc.submit(Request::Scan { from: 0, limit: 0 }).wait(),
            Response::Entries(Vec::new())
        );
        svc.shutdown();
    }

    #[test]
    fn metrics_are_registered_per_shard() {
        let svc = mini_service(2);
        for k in 1..=32u64 {
            svc.submit(Request::Put(k, k)).wait();
        }
        svc.shutdown();
        let snap = svc.registry().snapshot();
        let total: u64 = (0..2)
            .map(|i| snap.counter(&format!("svc.shard{i}.batch_ops")))
            .sum();
        assert_eq!(total, 32, "every task must be counted by some shard");
        assert_eq!(snap.counter("svc.submitted"), 32);
        assert_eq!(snap.counter("svc.completed"), 32);
    }

    #[test]
    fn latch_waits_mirror_is_exact_with_two_workers_per_shard() {
        const SHARDS: usize = 2;
        let specs = (0..SHARDS as u16)
            .map(|i| ShardSpec {
                list: mini_list(i),
                node: i,
            })
            .collect();
        let svc = KvService::start(
            specs,
            ServiceConfig {
                workers_per_shard: 2,
                max_batch: 16,
                queue_cap: 1024,
            },
        );
        let keys: Vec<u64> = (1..=16).collect();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let (svc, keys) = (&svc, &keys);
                s.spawn(move || {
                    for round in 0..200 {
                        let pairs = keys.iter().map(|&k| (k, w * 1000 + round)).collect();
                        svc.submit(Request::MultiPut(pairs)).wait();
                    }
                });
            }
        });
        svc.shutdown();
        let snap = svc.registry().snapshot();
        for (i, shard) in svc.shards.iter().enumerate() {
            assert_eq!(
                snap.counter(&format!("svc.shard{i}.latch_waits")),
                shard.latches.waits(),
                "shard {i}: every latch wait mirrored exactly once"
            );
        }
    }
}
