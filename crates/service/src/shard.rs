//! Shard executor: the thread-per-core worker loop that drains a shard's
//! admission queue and applies tasks to its `UpSkipList` through the
//! native batch paths.
//!
//! Each shard has exactly one worker, and it is the only thread that
//! touches the shard's list. It runs a drained batch serially, so a
//! `MultiPut` slice is applied with no other request of the shard in
//! between: the slice is atomic on its shard, and a `MultiGet` slice sees
//! all of it or none of it. A drained batch contains only requests that
//! were concurrently outstanding (every client has at most one request in
//! flight), so any execution order within the batch is a linearizable
//! one. The worker exploits that: it answers every read before any write
//! runs, and coalesces single-key gets into one `get_batch`, single-key
//! puts into one `insert_batch` and deletes into one `remove_batch`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use obs::{Counter, Histogram, Registry};
use upskiplist::UpSkipList;

use crate::api::{Completion, CompletionMetrics, Response};
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
    /// Batches drained by the worker.
    pub batches: Arc<Counter>,
    /// Tasks executed (sum of batch sizes).
    pub batch_ops: Arc<Counter>,
    /// Queue depth observed at each drain.
    pub queue_depth: Arc<Histogram>,
    /// Tasks per drained batch.
    pub batch_occupancy: Arc<Histogram>,
    /// Times the worker found the queue empty past its yield budget and
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
            parks: reg.counter(&n("parks")),
            done: CompletionMetrics::new(reg),
        }
    }
}

/// Everything a shard worker needs: storage, home node, queue.
pub(crate) struct ShardState {
    pub list: Arc<UpSkipList>,
    /// Simulated NUMA node this shard's pool lives on; the worker
    /// registers on it so its pmem accesses are local.
    pub node: u16,
    pub queue: AdmissionQueue,
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
            m: ShardMetrics::new(reg, shard),
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
    }
}

/// Execute a drained batch on the shard's one worker.
///
/// Reads first: scans and multi-gets are answered as they are met, and
/// the coalesced gets through one `get_batch` once every task is sorted,
/// before any write of the batch runs. Then the writes: `MultiPut` slices
/// in arrival order, the coalesced puts through one `insert_batch`, the
/// deletes through one `remove_batch`.
///
/// Group commit: a batch that wrote calls `sync` once, and only then
/// completes its put and delete tickets and fills its `MultiPut` slices,
/// so an acknowledged write survives a crash. The list defers the fence of
/// some links (a new head successor's, a tower's) to the writer's next
/// operation or `sync`; without this one the last write a worker made
/// before going idle could be acked and still be lost. Answering reads
/// before the writes keeps the same hole shut for readers: a read drained
/// with a write never returns that write's value before the `sync`, so a
/// crash cannot take back a value a client has seen.
fn execute(shard: &ShardState, tasks: impl Iterator<Item = Task>) {
    let list = &shard.list;
    let m = &shard.m.done;
    let mut gets: Vec<(u64, Completion)> = Vec::new();
    let mut puts: Vec<(u64, u64, Completion)> = Vec::new();
    let mut dels: Vec<(u64, Completion)> = Vec::new();
    let mut multi_puts = Vec::new();

    for t in tasks {
        match t {
            Task::Get { key, done } => gets.push((key, done)),
            Task::Put { key, value, done } => puts.push((key, value, done)),
            Task::Delete { key, done } => dels.push((key, done)),
            Task::MultiPut { pairs, agg } => multi_puts.push((pairs, agg)),
            Task::Scan { from, limit, agg } => agg.merge(list.scan(from, limit), m),
            Task::MultiGet { keys, agg } => {
                let ks: Vec<u64> = keys.iter().map(|&(_, k)| k).collect();
                let pos: Vec<usize> = keys.iter().map(|&(p, _)| p).collect();
                agg.fill(&pos, list.get_batch(&ks), m);
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
    // Applied but not yet durable: (aggregator, input positions, previous
    // values) per `MultiPut` slice.
    let multi_puts: Vec<_> = multi_puts
        .into_iter()
        .map(|(pairs, agg)| {
            let kvs: Vec<(u64, u64)> = pairs.iter().map(|&(_, k, v)| (k, v)).collect();
            let pos: Vec<usize> = pairs.iter().map(|&(p, _, _)| p).collect();
            (agg, pos, list.insert_batch(&kvs))
        })
        .collect();
    let put_prevs = if puts.is_empty() {
        Vec::new()
    } else {
        let kvs: Vec<(u64, u64)> = puts.iter().map(|&(k, v, _)| (k, v)).collect();
        list.insert_batch(&kvs)
    };
    let del_prevs = if dels.is_empty() {
        Vec::new()
    } else {
        let ks: Vec<u64> = dels.iter().map(|&(k, _)| k).collect();
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
    use crate::api::ticket;
    use pmem::PersistenceMode;
    use upskiplist::{ListBuilder, ListConfig};

    #[test]
    fn reads_drained_with_a_write_do_not_see_it() {
        // One level and a synced key 1000: a put of 10 links a new head
        // successor, whose link the list leaves unfenced until the
        // worker's `sync`. A read answered after that put but before the
        // sync would hand out a value a crash can still take back.
        let list = ListBuilder {
            list: ListConfig::new(1, 16),
            pool_words: 1 << 20,
            mode: PersistenceMode::Tracked,
            ..ListBuilder::default()
        }
        .create();
        list.insert(1000, 1);
        list.sync();
        let shard = ShardState::new(Arc::clone(&list), 0, 8, &Registry::new(), 0);

        let (put, put_done) = ticket();
        let (get, get_done) = ticket();
        let (multi_get, multi_get_done) = ticket();
        let tasks = vec![
            Task::MultiPut {
                pairs: vec![(0, 10, 100)],
                agg: Arc::new(GatherAgg::new(1, 1, put_done)),
            },
            Task::Get {
                key: 10,
                done: get_done,
            },
            Task::MultiGet {
                keys: vec![(0, 10)],
                agg: Arc::new(GatherAgg::new(1, 1, multi_get_done)),
            },
        ];
        execute(&shard, tasks.into_iter());

        assert_eq!(get.try_take(), Some(Response::Value(None)));
        assert_eq!(multi_get.try_take(), Some(Response::Values(vec![None])));
        assert_eq!(put.try_take(), Some(Response::Values(vec![None])));
        assert_eq!(list.get(10), Some(100));
    }
}
