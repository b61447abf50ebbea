//! Workload playback: pre-load, warm-up, timed run, latency capture.
//!
//! Mirrors the thesis's methodology (§5.1.2): workloads are generated up
//! front and played back by driver threads pinned round-robin to NUMA
//! nodes; throughput is measured over the whole run after a warm-up pass,
//! and latencies are captured per operation type.

use std::sync::Arc;
use std::time::Instant;

use obs::{Histogram, Registry};
use pmem::{op_tag, OpKind};
use ycsb::{Op, Workload};

use crate::index::KvIndex;
use crate::watchdog;

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub structure: &'static str,
    pub workload: &'static str,
    pub threads: usize,
    pub ops: u64,
    pub seconds: f64,
    /// Per-op latencies in nanoseconds, by type, when requested.
    pub read_latencies: Vec<u64>,
    pub update_latencies: Vec<u64>,
    pub insert_latencies: Vec<u64>,
}

impl RunResult {
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.seconds / 1e6
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

/// Play back the run phase and measure. `capture_latency` switches on
/// per-op timing (used by the latency experiment; it adds overhead, so the
/// throughput experiments leave it off).
pub fn run<I: KvIndex + ?Sized>(
    index: &Arc<I>,
    workload: &Workload,
    numa_nodes: u16,
    capture_latency: bool,
    structure: &'static str,
) -> RunResult {
    let threads = workload.ops.len();
    let _phase = watchdog::phase(threads);
    let started = Instant::now();
    let mut lat: Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = workload
            .ops
            .iter()
            .enumerate()
            .map(|(t, trace)| {
                let index = Arc::clone(index);
                s.spawn(move || {
                    pmem::thread::register(t, (t as u16) % numa_nodes.max(1));
                    let mut reads = Vec::new();
                    let mut updates = Vec::new();
                    let mut inserts = Vec::new();
                    for op in trace {
                        watchdog::tick(t);
                        if capture_latency {
                            let t0 = Instant::now();
                            match *op {
                                Op::Read(k) => {
                                    std::hint::black_box(index.get(k));
                                    reads.push(t0.elapsed().as_nanos() as u64);
                                }
                                Op::Scan(k, n) => {
                                    std::hint::black_box(index.scan(k, n as usize));
                                    reads.push(t0.elapsed().as_nanos() as u64);
                                }
                                Op::Rmw(k, v) => {
                                    std::hint::black_box(index.get(k));
                                    index.insert(k, v);
                                    updates.push(t0.elapsed().as_nanos() as u64);
                                }
                                Op::Update(k, v) => {
                                    index.insert(k, v);
                                    updates.push(t0.elapsed().as_nanos() as u64);
                                }
                                Op::Insert(k, v) => {
                                    index.insert(k, v);
                                    inserts.push(t0.elapsed().as_nanos() as u64);
                                }
                            }
                        } else {
                            match *op {
                                Op::Read(k) => {
                                    std::hint::black_box(index.get(k));
                                }
                                Op::Scan(k, n) => {
                                    std::hint::black_box(index.scan(k, n as usize));
                                }
                                Op::Rmw(k, v) => {
                                    std::hint::black_box(index.get(k));
                                    index.insert(k, v);
                                }
                                Op::Update(k, v) | Op::Insert(k, v) => {
                                    index.insert(k, v);
                                }
                            }
                        }
                    }
                    (reads, updates, inserts)
                })
            })
            .collect();
        for h in handles {
            lat.push(h.join().expect("worker panicked"));
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let ops: u64 = workload.ops.iter().map(|t| t.len() as u64).sum();
    let mut read_latencies = Vec::new();
    let mut update_latencies = Vec::new();
    let mut insert_latencies = Vec::new();
    for (r, u, i) in lat {
        read_latencies.extend(r);
        update_latencies.extend(u);
        insert_latencies.extend(i);
    }
    read_latencies.sort_unstable();
    update_latencies.sort_unstable();
    insert_latencies.sort_unstable();
    RunResult {
        structure,
        workload: workload.spec.name,
        threads,
        ops,
        seconds,
        read_latencies,
        update_latencies,
        insert_latencies,
    }
}

/// Play back the run phase with consecutive reads grouped into
/// [`KvIndex::get_batch`] calls and consecutive writes (updates/inserts)
/// grouped into [`KvIndex::insert_batch`] calls of up to `batch`
/// operations — both through the trait, so structures with native batch
/// paths use them. A read flushes a pending write group and vice versa,
/// and scans/RMWs flush both, so per-thread program order is preserved and
/// every operation still executes exactly once. Latency capture is not
/// supported in batched mode (a batch has one timestamp, not one per op).
pub fn run_batched<I: KvIndex + ?Sized>(
    index: &Arc<I>,
    workload: &Workload,
    numa_nodes: u16,
    batch: usize,
    structure: &'static str,
) -> RunResult {
    let threads = workload.ops.len();
    let batch = batch.max(1);
    let _phase = watchdog::phase(threads);
    let started = Instant::now();
    std::thread::scope(|s| {
        for (t, trace) in workload.ops.iter().enumerate() {
            let index = Arc::clone(index);
            s.spawn(move || {
                pmem::thread::register(t, (t as u16) % numa_nodes.max(1));
                let mut reads: Vec<u64> = Vec::with_capacity(batch);
                let mut writes: Vec<(u64, u64)> = Vec::with_capacity(batch);
                let flush_reads = |reads: &mut Vec<u64>| {
                    if !reads.is_empty() {
                        std::hint::black_box(index.get_batch(reads));
                        reads.clear();
                    }
                };
                let flush_writes = |writes: &mut Vec<(u64, u64)>| {
                    if !writes.is_empty() {
                        std::hint::black_box(index.insert_batch(writes));
                        writes.clear();
                    }
                };
                for op in trace {
                    watchdog::tick(t);
                    match *op {
                        Op::Read(k) => {
                            flush_writes(&mut writes);
                            reads.push(k);
                            if reads.len() == batch {
                                flush_reads(&mut reads);
                            }
                        }
                        Op::Update(k, v) | Op::Insert(k, v) => {
                            flush_reads(&mut reads);
                            writes.push((k, v));
                            if writes.len() == batch {
                                flush_writes(&mut writes);
                            }
                        }
                        Op::Scan(k, n) => {
                            flush_reads(&mut reads);
                            flush_writes(&mut writes);
                            std::hint::black_box(index.scan(k, n as usize));
                        }
                        Op::Rmw(k, v) => {
                            flush_reads(&mut reads);
                            flush_writes(&mut writes);
                            std::hint::black_box(index.get(k));
                            index.insert(k, v);
                        }
                    }
                }
                flush_reads(&mut reads);
                flush_writes(&mut writes);
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let ops: u64 = workload.ops.iter().map(|t| t.len() as u64).sum();
    RunResult {
        structure,
        workload: workload.spec.name,
        threads,
        ops,
        seconds,
        read_latencies: Vec::new(),
        update_latencies: Vec::new(),
        insert_latencies: Vec::new(),
    }
}

/// Play back the run phase with every operation tagged for per-op pmem
/// attribution ([`pmem::op_tag`]): pool counters charge each flush, fence
/// and read to the kind of operation that issued it. When `registry` is
/// given, per-op wall latencies are recorded into its `lat.get`,
/// `lat.insert`, `lat.scan` and `lat.batch` histograms. Consecutive reads
/// group into [`KvIndex::get_batch`] calls (tagged [`OpKind::Batch`])
/// when `batch > 1`; scans are skipped on structures without a range path.
pub fn run_metrics<I: KvIndex + ?Sized>(
    index: &Arc<I>,
    workload: &Workload,
    numa_nodes: u16,
    batch: usize,
    structure: &'static str,
    registry: Option<&Registry>,
) -> RunResult {
    // Histogram slots indexed like [`latency_histograms`] names them.
    const GET: usize = 0;
    const INSERT: usize = 1;
    const SCAN: usize = 2;
    const BATCH: usize = 3;
    let hist: Option<[Arc<Histogram>; 4]> = registry.map(latency_histograms);
    let threads = workload.ops.len();
    let batch = batch.max(1);
    let _phase = watchdog::phase(threads);
    let started = Instant::now();
    std::thread::scope(|s| {
        for (t, trace) in workload.ops.iter().enumerate() {
            let index = Arc::clone(index);
            let hist = hist.clone();
            s.spawn(move || {
                pmem::thread::register(t, (t as u16) % numa_nodes.max(1));
                let record = |slot: usize, t0: Instant| {
                    if let Some(h) = &hist {
                        h[slot].record(t0.elapsed().as_nanos() as u64);
                    }
                };
                let mut pending: Vec<u64> = Vec::with_capacity(batch);
                for op in trace {
                    watchdog::tick(t);
                    if batch > 1 {
                        if let Op::Read(k) = *op {
                            pending.push(k);
                            if pending.len() == batch {
                                let _tag = op_tag(OpKind::Batch);
                                let t0 = Instant::now();
                                std::hint::black_box(index.get_batch(&pending));
                                record(BATCH, t0);
                                pending.clear();
                            }
                            continue;
                        }
                        if !pending.is_empty() {
                            let _tag = op_tag(OpKind::Batch);
                            let t0 = Instant::now();
                            std::hint::black_box(index.get_batch(&pending));
                            record(BATCH, t0);
                            pending.clear();
                        }
                    }
                    match *op {
                        Op::Read(k) => {
                            let _tag = op_tag(OpKind::Get);
                            let t0 = Instant::now();
                            std::hint::black_box(index.get(k));
                            record(GET, t0);
                        }
                        Op::Scan(k, n) => {
                            if index.supports_scan() {
                                let _tag = op_tag(OpKind::Scan);
                                let t0 = Instant::now();
                                std::hint::black_box(index.scan(k, n as usize));
                                record(SCAN, t0);
                            }
                        }
                        Op::Rmw(k, v) => {
                            let t0 = Instant::now();
                            {
                                let _tag = op_tag(OpKind::Get);
                                std::hint::black_box(index.get(k));
                            }
                            let _tag = op_tag(OpKind::Insert);
                            index.insert(k, v);
                            record(INSERT, t0);
                        }
                        Op::Update(k, v) | Op::Insert(k, v) => {
                            let _tag = op_tag(OpKind::Insert);
                            let t0 = Instant::now();
                            index.insert(k, v);
                            record(INSERT, t0);
                        }
                    }
                }
                if !pending.is_empty() {
                    let _tag = op_tag(OpKind::Batch);
                    let t0 = Instant::now();
                    std::hint::black_box(index.get_batch(&pending));
                    record(BATCH, t0);
                }
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let ops: u64 = workload.ops.iter().map(|t| t.len() as u64).sum();
    RunResult {
        structure,
        workload: workload.spec.name,
        threads,
        ops,
        seconds,
        read_latencies: Vec::new(),
        update_latencies: Vec::new(),
        insert_latencies: Vec::new(),
    }
}

/// The latency histograms [`run_metrics`] records into, in slot order.
pub fn latency_histograms(registry: &Registry) -> [Arc<Histogram>; 4] {
    [
        registry.histogram("lat.get"),
        registry.histogram("lat.insert"),
        registry.histogram("lat.scan"),
        registry.histogram("lat.batch"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{build_upskiplist, Deployment, UpSkipListOpts};
    use ycsb::{generate, WORKLOAD_A};

    #[test]
    fn percentile_extraction() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 50.0), 51);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn load_and_run_complete() {
        let d = Deployment::simple(1000);
        let idx = build_upskiplist(&d, UpSkipListOpts::default());
        let w = generate(WORKLOAD_A, 1000, 4000, 4, 1);
        load(&idx, &w, 4, 1);
        assert_eq!(idx.count_live(), 1000);
        let r = run(&idx, &w, 1, true, "upskiplist");
        assert_eq!(r.ops, 4000);
        assert!(r.mops() > 0.0);
        assert!(!r.read_latencies.is_empty());
        assert!(!r.update_latencies.is_empty());
    }

    #[test]
    fn batched_run_executes_every_op() {
        let d = Deployment::simple(1000);
        let idx = build_upskiplist(&d, UpSkipListOpts::default());
        let w = generate(WORKLOAD_A, 1000, 4000, 4, 7);
        load(&idx, &w, 4, 1);
        // Batch size chosen not to divide the per-thread op count, so the
        // trailing partial batch is exercised too.
        let r = run_batched(&idx, &w, 1, 7, "upskiplist");
        assert_eq!(r.ops, 4000);
        assert!(r.mops() > 0.0);
        idx.check_invariants();
    }

    #[test]
    fn metrics_run_attributes_pmem_work_per_op() {
        let d = Deployment::counted(1000);
        let idx = build_upskiplist(&d, UpSkipListOpts::default());
        let w = generate(WORKLOAD_A, 1000, 4000, 4, 3);
        load(&idx, &w, 4, 1);
        let before = idx.space().stats_by_op();
        let registry = Registry::new();
        let r = run_metrics(&idx, &w, 1, 1, "upskiplist", Some(&registry));
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
        let lat = latency_histograms(&registry);
        assert!(lat[0].snapshot().summary().count > 0, "lat.get recorded");
        assert!(lat[1].snapshot().summary().count > 0, "lat.insert recorded");
        idx.check_invariants();
    }

    #[test]
    fn metrics_run_batches_reads_under_the_batch_tag() {
        let d = Deployment::counted(500);
        let idx = build_upskiplist(&d, UpSkipListOpts::default());
        let w = generate(WORKLOAD_A, 500, 2000, 2, 5);
        load(&idx, &w, 2, 1);
        let before = idx.space().stats_by_op();
        run_metrics(&idx, &w, 1, 8, "upskiplist", None);
        let after = idx.space().stats_by_op();
        let batch = after[OpKind::Batch as usize].since(&before[OpKind::Batch as usize]);
        let get = after[OpKind::Get as usize].since(&before[OpKind::Get as usize]);
        assert!(batch.reads > 0, "grouped reads must be charged to Batch");
        assert_eq!(get.reads, 0, "no read escapes the batch grouping");
    }
}
