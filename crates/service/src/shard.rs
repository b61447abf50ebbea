//! Shard executor: the thread-per-core worker loop that drains a shard's
//! admission queue and applies tasks to its `UpSkipList` through the
//! native batch paths.
//!
//! A drained batch contains only requests that were concurrently
//! outstanding (every client has at most one request in flight), so any
//! execution order within the batch is a linearizable one. The worker
//! exploits that: it coalesces single-key gets into one `get_batch`,
//! single-key puts into one `insert_batch`, deletes into one
//! `remove_batch`, and runs multi-key requests inline under key-range
//! latches so their shard slice is atomic with respect to every other
//! latched writer on the shard.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use obs::{Counter, Histogram, Registry};
use upskiplist::UpSkipList;

use crate::api::{Completion, CompletionMetrics, Response};
use crate::latch::{point_ranges, LatchManager};
use crate::queue::AdmissionQueue;

/// One unit of work on a shard's queue. Multi-key requests arrive as the
/// shard's slice of the request, tagged with input positions so the
/// aggregator can reassemble the response in input order.
pub(crate) enum Task {
    Get {
        key: u64,
        done: Completion,
    },
    Put {
        key: u64,
        value: u64,
        done: Completion,
    },
    Delete {
        key: u64,
        done: Completion,
    },
    Scan {
        from: u64,
        limit: usize,
        agg: Arc<ScanAgg>,
    },
    MultiGet {
        /// `(input position, key)` pairs.
        keys: Vec<(usize, u64)>,
        agg: Arc<GatherAgg>,
    },
    MultiPut {
        /// `(input position, key, value)` triples.
        pairs: Vec<(usize, u64, u64)>,
        agg: Arc<GatherAgg>,
    },
}

/// Reassembles a multi-key response from per-shard slices: each shard
/// fills its keys' input positions; the last shard to finish completes
/// the ticket with the full value vector.
pub(crate) struct GatherAgg {
    remaining: AtomicUsize,
    slots: Mutex<Vec<Option<u64>>>,
    done: Completion,
}

impl GatherAgg {
    pub fn new(len: usize, shards: usize, done: Completion) -> Self {
        Self {
            remaining: AtomicUsize::new(shards),
            slots: Mutex::new(vec![None; len]),
            done,
        }
    }

    fn fill(&self, positions: &[usize], values: Vec<Option<u64>>, m: &CompletionMetrics) {
        {
            let mut slots = self.slots.lock().unwrap();
            for (&pos, v) in positions.iter().zip(values) {
                slots[pos] = v;
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let slots = std::mem::take(&mut *self.slots.lock().unwrap());
            self.done.complete(Response::Values(slots), m);
        }
    }
}

/// Merges per-shard scan slices: each shard contributes up to `limit`
/// pairs; the last one sorts the union and truncates to `limit`.
pub(crate) struct ScanAgg {
    remaining: AtomicUsize,
    partials: Mutex<Vec<(u64, u64)>>,
    limit: usize,
    done: Completion,
}

impl ScanAgg {
    pub fn new(shards: usize, limit: usize, done: Completion) -> Self {
        Self {
            remaining: AtomicUsize::new(shards),
            partials: Mutex::new(Vec::new()),
            limit,
            done,
        }
    }

    fn merge(&self, slice: Vec<(u64, u64)>, m: &CompletionMetrics) {
        self.partials.lock().unwrap().extend(slice);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut all = std::mem::take(&mut *self.partials.lock().unwrap());
            all.sort_unstable();
            all.truncate(self.limit);
            self.done.complete(Response::Entries(all), m);
        }
    }
}

/// Per-shard observability handles, registered under
/// `svc.shard{i}.*` in the service registry.
pub(crate) struct ShardMetrics {
    /// Tasks admitted to the queue.
    pub enqueued: Arc<Counter>,
    /// Batches drained by workers.
    pub batches: Arc<Counter>,
    /// Tasks executed (sum of batch sizes).
    pub batch_ops: Arc<Counter>,
    /// Queue depth observed at each drain.
    pub queue_depth: Arc<Histogram>,
    /// Tasks per drained batch.
    pub batch_occupancy: Arc<Histogram>,
    /// Mirror of `LatchManager::waits` (updated at drain time).
    pub latch_waits: Arc<Counter>,
    /// Times a worker found the queue empty past its yield budget and
    /// parked.
    pub parks: Arc<Counter>,
    /// The service-wide `svc.lat.request` and `svc.completed`.
    pub done: CompletionMetrics,
}

impl ShardMetrics {
    fn new(reg: &Registry, shard: usize) -> Self {
        let n = |m: &str| format!("svc.shard{shard}.{m}");
        Self {
            enqueued: reg.counter(&n("enqueued")),
            batches: reg.counter(&n("batches")),
            batch_ops: reg.counter(&n("batch_ops")),
            queue_depth: reg.histogram(&n("queue_depth")),
            batch_occupancy: reg.histogram(&n("batch_occupancy")),
            latch_waits: reg.counter(&n("latch_waits")),
            parks: reg.counter(&n("parks")),
            done: CompletionMetrics::new(reg),
        }
    }
}

/// Everything a shard worker needs: storage, home node, queue, latches.
pub(crate) struct ShardState {
    pub list: Arc<UpSkipList>,
    /// Simulated NUMA node this shard's pool lives on; workers register
    /// on it so their pmem accesses are local.
    pub node: u16,
    pub queue: AdmissionQueue,
    pub latches: LatchManager,
    /// The `latches.waits()` value already added to `m.latch_waits`;
    /// workers claim the increments past it with `fetch_max`, so two
    /// workers never add the same delta.
    latch_waits_mirrored: AtomicU64,
    pub m: ShardMetrics,
}

impl ShardState {
    pub fn new(
        list: Arc<UpSkipList>,
        node: u16,
        queue_cap: usize,
        reg: &Registry,
        shard: usize,
    ) -> Self {
        Self {
            list,
            node,
            queue: AdmissionQueue::new(queue_cap),
            latches: LatchManager::new(),
            latch_waits_mirrored: AtomicU64::new(0),
            m: ShardMetrics::new(reg, shard),
        }
    }

    /// Add the latch waits since the last mirror to `m.latch_waits`. Any
    /// worker of the shard may call it at any time: `fetch_max` hands
    /// each increment to exactly one caller.
    fn mirror_latch_waits(&self) {
        let waits = self.latches.waits();
        let seen = self
            .latch_waits_mirrored
            .fetch_max(waits, Ordering::Relaxed);
        if waits > seen {
            self.m.latch_waits.add(waits - seen);
        }
    }
}

/// The worker loop: register on the shard's NUMA node, then drain and
/// execute until the queue is closed and empty.
pub(crate) fn worker_loop(shard: Arc<ShardState>, worker_id: usize, max_batch: usize) {
    pmem::thread::register(worker_id, shard.node);
    let mut batch = Vec::with_capacity(max_batch);
    loop {
        let depth = shard.queue.pop_batch(max_batch, &mut batch, &shard.m.parks);
        if batch.is_empty() {
            return; // closed and drained
        }
        shard.m.queue_depth.record(depth as u64);
        shard.m.batch_occupancy.record(batch.len() as u64);
        shard.m.batches.inc();
        shard.m.batch_ops.add(batch.len() as u64);
        execute(&shard, batch.drain(..));
        shard.mirror_latch_waits();
    }
}

/// Execute a drained batch.
///
/// Multi-key tasks run inline under latches (in arrival order — they may
/// block on latches held by other workers of the same shard). Single-key
/// tasks are coalesced and executed after the inline pass: gets through
/// one unlatched `get_batch` (a point get is individually linearizable —
/// the list itself serializes it), puts and deletes through
/// `insert_batch`/`remove_batch` under a point-set latch so they
/// serialize against multi-key writers touching the same keys.
///
/// Group commit: a batch that wrote calls `sync` once, and only then
/// completes its put and delete tickets and fills its `MultiPut` slices,
/// so an acknowledged write survives a crash. The list defers the fence of
/// some links (a new head successor's, a tower's) to the writer's next
/// operation or `sync`; without this one the last write a worker made
/// before going idle could be acked and still be lost. Gets, multi-gets
/// and scans complete as soon as they are answered.
fn execute(shard: &ShardState, tasks: impl Iterator<Item = Task>) {
    let list = &shard.list;
    let m = &shard.m.done;
    let mut gets: Vec<(u64, Completion)> = Vec::new();
    let mut puts: Vec<(u64, u64, Completion)> = Vec::new();
    let mut dels: Vec<(u64, Completion)> = Vec::new();
    // `MultiPut` slices applied but not yet durable: (aggregator, input
    // positions, previous values).
    type Slice = (Arc<GatherAgg>, Vec<usize>, Vec<Option<u64>>);
    let mut multi_puts: Vec<Slice> = Vec::new();

    for t in tasks {
        match t {
            Task::Get { key, done } => gets.push((key, done)),
            Task::Put { key, value, done } => puts.push((key, value, done)),
            Task::Delete { key, done } => dels.push((key, done)),
            Task::Scan { from, limit, agg } => {
                // Scans are unlatched: the list's lock-free iterator gives
                // a consistent-enough view and scans never claim atomicity
                // with respect to concurrent writers.
                agg.merge(list.scan(from, limit), m);
            }
            Task::MultiGet { keys, agg } => {
                let ks: Vec<u64> = keys.iter().map(|&(_, k)| k).collect();
                let _g = shard.latches.acquire(&point_ranges(ks.iter().copied()));
                let vals = list.get_batch(&ks);
                let pos: Vec<usize> = keys.iter().map(|&(p, _)| p).collect();
                agg.fill(&pos, vals, m);
            }
            Task::MultiPut { pairs, agg } => {
                let kvs: Vec<(u64, u64)> = pairs.iter().map(|&(_, k, v)| (k, v)).collect();
                let _g = shard
                    .latches
                    .acquire(&point_ranges(kvs.iter().map(|&(k, _)| k)));
                let prevs = list.insert_batch(&kvs);
                let pos: Vec<usize> = pairs.iter().map(|&(p, _, _)| p).collect();
                multi_puts.push((agg, pos, prevs));
            }
        }
    }

    if !gets.is_empty() {
        let ks: Vec<u64> = gets.iter().map(|&(k, _)| k).collect();
        let vals = list.get_batch(&ks);
        for ((_, done), v) in gets.into_iter().zip(vals) {
            done.complete(Response::Value(v), m);
        }
    }
    let wrote = !(puts.is_empty() && dels.is_empty() && multi_puts.is_empty());
    let put_prevs = if puts.is_empty() {
        Vec::new()
    } else {
        let kvs: Vec<(u64, u64)> = puts.iter().map(|&(k, v, _)| (k, v)).collect();
        let _g = shard
            .latches
            .acquire(&point_ranges(kvs.iter().map(|&(k, _)| k)));
        list.insert_batch(&kvs)
    };
    let del_prevs = if dels.is_empty() {
        Vec::new()
    } else {
        let ks: Vec<u64> = dels.iter().map(|&(k, _)| k).collect();
        let _g = shard.latches.acquire(&point_ranges(ks.iter().copied()));
        list.remove_batch(&ks)
    };
    if wrote {
        list.sync();
    }
    for ((_, _, done), v) in puts.into_iter().zip(put_prevs) {
        done.complete(Response::Value(v), m);
    }
    for ((_, done), v) in dels.into_iter().zip(del_prevs) {
        done.complete(Response::Value(v), m);
    }
    for (agg, pos, prevs) in multi_puts {
        agg.fill(&pos, prevs, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upskiplist::ListBuilder;

    #[test]
    fn concurrent_mirrors_add_each_latch_wait_once() {
        const ROUNDS: usize = 20_000;
        let list = ListBuilder {
            pool_words: 1 << 20,
            ..ListBuilder::default()
        }
        .create();
        let shard = ShardState::new(list, 0, 8, &Registry::new(), 0);
        // Each round: one new wait, then two workers mirror at the same
        // instant (a spin barrier releases them together). A mirror that
        // added `waits - counter` would add the round's wait twice
        // whenever the two reads interleave.
        let arrived = AtomicUsize::new(0);
        let barrier = |n: usize| {
            arrived.fetch_add(1, Ordering::AcqRel);
            let mut spins = 0u32;
            while arrived.load(Ordering::Acquire) < n {
                spins += 1;
                if spins < 1000 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now(); // the other worker is off-CPU
                }
            }
        };
        let double_adds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 0..2 {
                let (shard, barrier, double_adds) = (&shard, &barrier, &double_adds);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        if w == 0 {
                            shard.latches.count_wait();
                        }
                        barrier(4 * round + 2);
                        shard.mirror_latch_waits();
                        barrier(4 * round + 4);
                        let (m, waits) = (shard.m.latch_waits.value(), shard.latches.waits());
                        if w == 0 && m != waits {
                            double_adds.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(double_adds.into_inner(), 0);
        assert_eq!(shard.m.latch_waits.value(), ROUNDS as u64);
    }
}
