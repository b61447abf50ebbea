//! Workload playback: pre-load, then one measured pass over the trace.
//!
//! Mirrors the thesis's methodology (§5.1.2): workloads are generated up
//! front and played back by driver threads pinned round-robin to NUMA
//! nodes; throughput is measured over the whole run after a warm-up pass.
//! [`run`] is the one playback loop every experiment uses, so a number and
//! its per-op breakdown always come from the same program: each driver
//! call runs under its [`pmem::op_tag`] (counted pools charge its pmem
//! work to that op kind), `batch > 1` groups consecutive reads and writes
//! into `get_batch`/`insert_batch` calls, and latency capture only times
//! the calls, never changes which calls are made.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pmem::stats::OP_KINDS;
use pmem::{op_tag, OpKind};
use ycsb::{Op, Workload};

use crate::index::KvIndex;
use crate::watchdog;

/// One driver call: a YCSB op, or a grouped [`KvIndex::get_batch`] /
/// [`KvIndex::insert_batch`] call ([`Call::Batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Read,
    Update,
    Insert,
    Scan,
    /// Read-modify-write: a `get` (tagged [`OpKind::Get`]), then an
    /// `insert`; counted and timed as one call.
    Rmw,
    Batch,
}

impl Call {
    pub const ALL: [Call; 6] = [
        Call::Read,
        Call::Update,
        Call::Insert,
        Call::Scan,
        Call::Rmw,
        Call::Batch,
    ];

    /// The op kind the call is tagged and counted as.
    pub fn kind(self) -> OpKind {
        match self {
            Call::Read => OpKind::Get,
            Call::Update | Call::Insert | Call::Rmw => OpKind::Insert,
            Call::Scan => OpKind::Scan,
            Call::Batch => OpKind::Batch,
        }
    }
}

const CALLS: usize = Call::ALL.len();

/// Result of one measured run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub ops: u64,
    pub seconds: f64,
    /// Driver calls made, indexed by `Call as usize`. A scan that returns
    /// `None` (no range path) is neither counted nor timed.
    pub calls: [u64; CALLS],
    /// Trace ops that ran inside [`Call::Batch`] calls.
    pub batched: u64,
    /// Wall time of each call in ns, indexed like `calls`, when latency
    /// capture was on; a grouped call gives one sample.
    pub latencies: [Vec<u64>; CALLS],
}

impl RunResult {
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.seconds / 1e6
    }

    /// Calls per [`OpKind`]: the denominators of per-op pmem attribution.
    pub fn calls_by_kind(&self) -> [u64; OP_KINDS] {
        let mut by_kind = [0; OP_KINDS];
        for c in Call::ALL {
            by_kind[c.kind() as usize] += self.calls[c as usize];
        }
        by_kind
    }

    /// Make one driver call under its op tag; count it (and, when
    /// `capture`, time it) if `f` reports that it ran.
    fn call(&mut self, capture: bool, call: Call, f: impl FnOnce() -> bool) {
        let _tag = op_tag(call.kind());
        let t0 = capture.then(Instant::now);
        if !f() {
            return;
        }
        if let Some(t0) = t0 {
            self.latencies[call as usize].push(t0.elapsed().as_nanos() as u64);
        }
        self.calls[call as usize] += 1;
    }

    /// The latency samples of `calls`, merged and sorted.
    pub fn samples(&self, calls: &[Call]) -> Vec<u64> {
        let mut v: Vec<u64> = calls
            .iter()
            .flat_map(|&c| self.latencies[c as usize].iter().copied())
            .collect();
        v.sort_unstable();
        v
    }
}

/// Extract the value at a percentile (0.0–100.0) from a latency sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Pre-load the structure (phase 1), threads striped over NUMA nodes.
pub fn load<I: KvIndex + ?Sized>(
    index: &Arc<I>,
    workload: &Workload,
    threads: usize,
    numa_nodes: u16,
) {
    let chunk = workload.load.len().div_ceil(threads);
    let _phase = watchdog::phase(threads);
    std::thread::scope(|s| {
        for (t, part) in workload.load.chunks(chunk.max(1)).enumerate() {
            let index = Arc::clone(index);
            s.spawn(move || {
                pmem::thread::register(t, (t as u16) % numa_nodes.max(1));
                for &(k, v) in part {
                    watchdog::tick(t);
                    index.insert(k, v);
                }
            });
        }
    });
}

/// Play back the run phase, one driver thread per trace, and measure.
///
/// At `batch > 1`, consecutive reads group into one `get_batch` and
/// consecutive updates/inserts into one `insert_batch` of up to `batch`
/// ops; a read closes a pending write group and vice versa, and a scan or
/// RMW closes both, so per-thread program order holds and every trace op
/// runs exactly once. `capture_latency` keeps each call's wall time.
pub fn run<I: KvIndex + ?Sized>(
    index: &Arc<I>,
    workload: &Workload,
    numa_nodes: u16,
    batch: usize,
    capture_latency: bool,
) -> RunResult {
    let threads = workload.ops.len();
    let batch = batch.max(1);
    let _phase = watchdog::phase(threads);
    let started = Instant::now();
    let parts: Vec<RunResult> = std::thread::scope(|s| {
        let handles: Vec<_> = workload
            .ops
            .iter()
            .enumerate()
            .map(|(t, trace)| {
                let index = Arc::clone(index);
                s.spawn(move || {
                    pmem::thread::register(t, (t as u16) % numa_nodes.max(1));
                    let mut p = Player {
                        index: &*index,
                        batch,
                        capture: capture_latency,
                        reads: Vec::with_capacity(batch),
                        writes: Vec::with_capacity(batch),
                        out: RunResult::default(),
                    };
                    for &op in trace {
                        watchdog::tick(t);
                        p.play(op);
                    }
                    p.flush();
                    p.out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let mut r = RunResult {
        ops: workload.ops.iter().map(|t| t.len() as u64).sum(),
        seconds: started.elapsed().as_secs_f64(),
        ..RunResult::default()
    };
    for part in parts {
        r.batched += part.batched;
        for (c, samples) in part.latencies.into_iter().enumerate() {
            r.calls[c] += part.calls[c];
            r.latencies[c].extend(samples);
        }
    }
    r
}

/// One driver thread's playback state: its pending groups and its share
/// of the result.
struct Player<'a, I: ?Sized> {
    index: &'a I,
    batch: usize,
    capture: bool,
    reads: Vec<u64>,
    writes: Vec<(u64, u64)>,
    out: RunResult,
}

impl<I: KvIndex + ?Sized> Player<'_, I> {
    fn play(&mut self, op: Op) {
        if self.batch > 1 {
            match op {
                Op::Read(k) => {
                    if !self.writes.is_empty() {
                        self.flush();
                    }
                    self.reads.push(k);
                    if self.reads.len() == self.batch {
                        self.flush();
                    }
                    return;
                }
                Op::Update(k, v) | Op::Insert(k, v) => {
                    if !self.reads.is_empty() {
                        self.flush();
                    }
                    self.writes.push((k, v));
                    if self.writes.len() == self.batch {
                        self.flush();
                    }
                    return;
                }
                Op::Scan(..) | Op::Rmw(..) => self.flush(),
            }
        }
        let ix = self.index;
        match op {
            Op::Read(k) => self.out.call(self.capture, Call::Read, || {
                black_box(ix.get(k));
                true
            }),
            Op::Update(k, v) => self.out.call(self.capture, Call::Update, || {
                ix.insert(k, v);
                true
            }),
            Op::Insert(k, v) => self.out.call(self.capture, Call::Insert, || {
                ix.insert(k, v);
                true
            }),
            // Counted only on a structure with a range path.
            Op::Scan(k, n) => self.out.call(self.capture, Call::Scan, || {
                black_box(ix.scan(k, n as usize)).is_some()
            }),
            Op::Rmw(k, v) => self.out.call(self.capture, Call::Rmw, || {
                {
                    let _tag = op_tag(OpKind::Get);
                    black_box(ix.get(k));
                }
                ix.insert(k, v);
                true
            }),
        }
    }

    /// Issue the pending group, if any, as one grouped call. At most one
    /// of `reads` and `writes` is ever pending.
    fn flush(&mut self) {
        let (ix, reads, writes) = (self.index, &self.reads, &self.writes);
        let n = reads.len() + writes.len();
        if n == 0 {
            return;
        }
        self.out.call(self.capture, Call::Batch, || {
            if writes.is_empty() {
                black_box(ix.get_batch(reads));
            } else {
                black_box(ix.insert_batch(writes));
            }
            true
        });
        self.out.batched += n as u64;
        self.reads.clear();
        self.writes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{build_upskiplist, Deployment, UpSkipListOpts};
    use std::sync::Mutex;
    use ycsb::{generate, Distribution, WorkloadSpec, WORKLOAD_A};

    /// Every op type the driver plays, scans and RMWs included.
    const ALL_OPS: WorkloadSpec = WorkloadSpec {
        name: "all-ops",
        read_pct: 40,
        update_pct: 20,
        insert_pct: 15,
        scan_pct: 10,
        rmw_pct: 15,
        distribution: Distribution::Zipfian,
    };

    /// One index call as the driver made it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Seen {
        Get(u64),
        GetBatch(Vec<u64>),
        Insert(u64, u64),
        InsertBatch(Vec<(u64, u64)>),
        Scan(u64, usize),
    }

    /// A [`KvIndex`] that logs every call before passing it on.
    struct Recording<I> {
        inner: Arc<I>,
        log: Mutex<Vec<Seen>>,
    }

    impl<I: KvIndex> Recording<I> {
        fn seen(&self, call: Seen) {
            self.log.lock().unwrap().push(call);
        }
    }

    impl<I: KvIndex> KvIndex for Recording<I> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn insert(&self, key: u64, value: u64) -> Option<u64> {
            self.seen(Seen::Insert(key, value));
            self.inner.insert(key, value)
        }
        fn get(&self, key: u64) -> Option<u64> {
            self.seen(Seen::Get(key));
            self.inner.get(key)
        }
        fn remove(&self, key: u64) -> Option<u64> {
            self.inner.remove(key)
        }
        fn scan(&self, from: u64, limit: usize) -> Option<usize> {
            self.seen(Seen::Scan(from, limit));
            self.inner.scan(from, limit)
        }
        fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
            self.seen(Seen::GetBatch(keys.to_vec()));
            self.inner.get_batch(keys)
        }
        fn insert_batch(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
            self.seen(Seen::InsertBatch(pairs.to_vec()));
            self.inner.insert_batch(pairs)
        }
    }

    /// The single-key calls a trace asks for, in order.
    fn expected_calls(trace: &[Op]) -> Vec<Seen> {
        trace
            .iter()
            .flat_map(|&op| match op {
                Op::Read(k) => vec![Seen::Get(k)],
                Op::Update(k, v) | Op::Insert(k, v) => vec![Seen::Insert(k, v)],
                Op::Scan(k, n) => vec![Seen::Scan(k, n as usize)],
                Op::Rmw(k, v) => vec![Seen::Get(k), Seen::Insert(k, v)],
            })
            .collect()
    }

    /// A call log with every grouped call split back into its ops.
    fn ungrouped(log: &[Seen]) -> Vec<Seen> {
        log.iter()
            .flat_map(|c| match c {
                Seen::GetBatch(keys) => keys.iter().map(|&k| Seen::Get(k)).collect(),
                Seen::InsertBatch(pairs) => {
                    pairs.iter().map(|&(k, v)| Seen::Insert(k, v)).collect()
                }
                single => vec![single.clone()],
            })
            .collect()
    }

    #[test]
    fn percentile_extraction() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 50.0), 51);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn latency_capture_changes_no_index_call() {
        let w = generate(ALL_OPS, 500, 3000, 1, 11);
        for batch in [1, 7] {
            let [off, on] = [false, true].map(|capture| {
                let idx = Arc::new(Recording {
                    inner: build_upskiplist(&Deployment::simple(500), UpSkipListOpts::default()),
                    log: Mutex::default(),
                });
                load(&idx, &w, 1, 1);
                idx.log.lock().unwrap().clear();
                run(&idx, &w, 1, batch, capture);
                let log = std::mem::take(&mut *idx.log.lock().unwrap());
                log
            });
            assert_eq!(off, on, "batch {batch}: capture changed the program");
            assert_eq!(
                ungrouped(&on),
                expected_calls(&w.ops[0]),
                "batch {batch}: every trace op runs once, in order"
            );
            let grouped_writes = on.iter().any(|c| matches!(c, Seen::InsertBatch(_)));
            assert_eq!(grouped_writes, batch > 1, "batch {batch}");
        }
    }

    #[test]
    fn every_trace_op_runs_exactly_once() {
        let w = generate(ALL_OPS, 1000, 4000, 4, 7);
        let inserts = w
            .ops
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Insert(..)));
        let inserts = inserts.count();
        for batch in [1, 7] {
            for capture in [false, true] {
                let idx = build_upskiplist(&Deployment::simple(1000), UpSkipListOpts::default());
                load(&idx, &w, 4, 1);
                let r = run(&idx, &w, 1, batch, capture);
                let at = format!("batch {batch}, capture {capture}");
                assert_eq!(r.ops, 4000, "{at}");
                assert!(r.mops() > 0.0, "{at}");
                let single: u64 = Call::ALL[..5].iter().map(|&c| r.calls[c as usize]).sum();
                assert_eq!(single + r.batched, r.ops, "{at}");
                assert_eq!(r.calls[Call::Batch as usize] > 0, batch > 1, "{at}");
                assert_eq!(idx.count_live(), 1000 + inserts, "{at}");
                for c in Call::ALL {
                    let samples = r.latencies[c as usize].len() as u64;
                    assert_eq!(samples, if capture { r.calls[c as usize] } else { 0 });
                }
                idx.check_invariants();
            }
        }
    }

    #[test]
    fn metrics_run_attributes_pmem_work_per_op() {
        let d = Deployment::counted(1000);
        let idx = build_upskiplist(&d, UpSkipListOpts::default());
        let w = generate(WORKLOAD_A, 1000, 4000, 4, 3);
        load(&idx, &w, 4, 1);
        let before = idx.space().stats_by_op();
        let r = run(&idx, &w, 1, 1, true);
        assert_eq!(r.ops, 4000);
        let after = idx.space().stats_by_op();
        let get = after[OpKind::Get as usize].since(&before[OpKind::Get as usize]);
        let ins = after[OpKind::Insert as usize].since(&before[OpKind::Insert as usize]);
        assert!(get.reads > 0, "reads must be charged to Get");
        assert!(
            ins.writes + ins.cas_ops > 0,
            "mutations must be charged to Insert"
        );
        assert!(ins.flushes > 0, "insert persists must be charged to Insert");
        assert_eq!(get.writes + get.cas_ops, 0, "lookups never write pmem");
        let calls = r.calls_by_kind();
        assert_eq!(
            calls[OpKind::Get as usize] + calls[OpKind::Insert as usize],
            4000
        );
        assert!(!r.samples(&[Call::Read]).is_empty(), "reads timed");
        assert!(!r.samples(&[Call::Update]).is_empty(), "updates timed");
        idx.check_invariants();
    }

    #[test]
    fn metrics_run_batches_reads_under_the_batch_tag() {
        let d = Deployment::counted(500);
        let idx = build_upskiplist(&d, UpSkipListOpts::default());
        let w = generate(WORKLOAD_A, 500, 2000, 2, 5);
        load(&idx, &w, 2, 1);
        let before = idx.space().stats_by_op();
        run(&idx, &w, 1, 8, false);
        let after = idx.space().stats_by_op();
        let batch = after[OpKind::Batch as usize].since(&before[OpKind::Batch as usize]);
        let get = after[OpKind::Get as usize].since(&before[OpKind::Get as usize]);
        let ins = after[OpKind::Insert as usize].since(&before[OpKind::Insert as usize]);
        assert!(batch.reads > 0, "grouped reads must be charged to Batch");
        assert!(batch.flushes > 0, "grouped writes must be charged to Batch");
        assert_eq!(get.reads, 0, "no read escapes the batch grouping");
        assert_eq!(
            ins.reads + ins.flushes,
            0,
            "no write escapes the batch grouping"
        );
    }
}
