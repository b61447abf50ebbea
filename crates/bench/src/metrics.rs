//! Shared plumbing for the metrics experiments: per-op pmem attribution
//! over a set of pools, `lat.<op>` latency histograms filled from the
//! driver's samples, and row emission into an [`obs::report::MetricsReport`].

use std::sync::Arc;

use obs::report::MetricsReport;
use obs::Registry;
use pmem::stats::OP_KINDS;
use pmem::{OpKind, Pool, StatsSnapshot};

use crate::{build_upskiplist, Call, Deployment, RunResult, UpSkipListOpts};

/// Aggregate per-op pmem counters across `pools` (a structure's whole
/// footprint, whether one pool or one per NUMA node).
pub fn stats_by_op(pools: &[Arc<Pool>]) -> [StatsSnapshot; OP_KINDS] {
    let mut total = [StatsSnapshot::default(); OP_KINDS];
    for p in pools {
        for (t, b) in total.iter_mut().zip(p.stats().snapshot_by_op()) {
            *t = t.plus(&b);
        }
    }
    total
}

/// Append per-op pmem-attribution rows for every op kind that executed:
/// `ops[kind]` driver-level calls turn the counter deltas into
/// reads/writes/flushes/fences *per operation*.
pub fn push_attribution_rows(
    report: &mut MetricsReport,
    structure: &str,
    before: &[StatsSnapshot; OP_KINDS],
    after: &[StatsSnapshot; OP_KINDS],
    ops: &[u64; OP_KINDS],
) {
    for kind in OpKind::ALL {
        let n = ops[kind as usize];
        if n == 0 {
            continue;
        }
        let d = after[kind as usize].since(&before[kind as usize]);
        let per = |v: u64| v as f64 / n as f64;
        let op = kind.name();
        report.push(structure, op, "ops", n as f64);
        report.push(structure, op, "reads_per_op", per(d.reads));
        report.push(structure, op, "writes_per_op", per(d.writes));
        report.push(structure, op, "flushes_per_op", per(d.flushes));
        report.push(structure, op, "fences_per_op", per(d.fences));
    }
}

/// Single-threaded dynamic-detector probe: run tagged insert / get /
/// remove passes against a fresh tracked UPSkipList with the checker at
/// [`pmem::PmCheckLevel::Track`] and return the PMD02 (redundant-fence)
/// tally per [`OpKind`] alongside the op counts per kind. The fence-diet
/// insert path must keep its bucket at zero: every `sync()` ack fence is
/// skipped outright when nothing is pending, so an empty fence here means
/// a code path still fences individually inside the prepare window.
pub fn pmd02_probe(opts: UpSkipListOpts, records: u64) -> ([u64; OP_KINDS], [u64; OP_KINDS]) {
    let d = Deployment {
        tracked: true,
        ..Deployment::simple(records)
    };
    let list = build_upskiplist(&d, opts);
    for p in list.space().pools() {
        p.set_check_level(pmem::PmCheckLevel::Track);
    }
    pmem::check::reset_thread();
    let _ = pmem::check::take_redundant_fences_by_op();
    let mut ops = [0u64; OP_KINDS];
    {
        let _t = pmem::op_tag(OpKind::Insert);
        for i in 0..records {
            list.insert(2 * i + 1, i);
            list.sync();
            ops[OpKind::Insert as usize] += 1;
        }
    }
    {
        let _t = pmem::op_tag(OpKind::Get);
        for i in 0..records {
            std::hint::black_box(list.get(2 * i + 1));
            ops[OpKind::Get as usize] += 1;
        }
    }
    {
        let _t = pmem::op_tag(OpKind::Remove);
        for i in 0..records / 2 {
            list.remove(4 * i + 1);
            list.sync();
            ops[OpKind::Remove as usize] += 1;
        }
    }
    for p in list.space().pools() {
        let _ = p.take_check_findings();
    }
    (pmem::check::take_redundant_fences_by_op(), ops)
}

/// Append one `pmd02_redundant_fences` row per op kind that executed in a
/// [`pmd02_probe`] run.
pub fn push_pmd02_rows(
    report: &mut MetricsReport,
    structure: &str,
    pmd02: &[u64; OP_KINDS],
    ops: &[u64; OP_KINDS],
) {
    for kind in OpKind::ALL {
        if ops[kind as usize] == 0 {
            continue;
        }
        report.push(
            structure,
            kind.name(),
            "pmd02_redundant_fences",
            pmd02[kind as usize] as f64,
        );
    }
}

/// Record a run's latency samples into `registry`'s `lat.<op>`
/// histograms, each call under the op kind it ran as.
pub fn record_latencies(registry: &Registry, r: &RunResult) {
    for c in Call::ALL {
        let h = registry.histogram(&format!("lat.{}", c.kind().name()));
        for &ns in &r.latencies[c as usize] {
            h.record(ns);
        }
    }
}

/// Append latency-summary rows (count, mean, p50/p95/p99, max — all ns)
/// for every `lat.<op>` histogram in `registry` that recorded samples.
pub fn push_latency_rows(report: &mut MetricsReport, structure: &str, registry: &Registry) {
    for kind in OpKind::ALL {
        let op = kind.name();
        let s = registry
            .histogram(&format!("lat.{op}"))
            .snapshot()
            .summary();
        if s.count == 0 {
            continue;
        }
        report.push(structure, op, "lat_count", s.count as f64);
        report.push(structure, op, "lat_mean_ns", s.mean as f64);
        report.push(structure, op, "lat_p50_ns", s.p50 as f64);
        report.push(structure, op, "lat_p95_ns", s.p95 as f64);
        report.push(structure, op, "lat_p99_ns", s.p99 as f64);
        report.push(structure, op, "lat_max_ns", s.max as f64);
    }
}

/// Append a deployment registry's counters (the list's `list.*` and the
/// allocator's `alloc.*`), one `struct` row each under its registered
/// name.
pub fn push_struct_rows(report: &mut MetricsReport, structure: &str, snap: &obs::Snapshot) {
    for (name, &v) in &snap.counters {
        report.push(structure, "struct", name, v as f64);
    }
}

/// Write a report to `path` as JSON or CSV by extension, creating parent
/// directories as needed.
pub fn write_report(report: &MetricsReport, path: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let body = if path.ends_with(".csv") {
        report.to_csv()
    } else {
        report.to_json()
    };
    std::fs::write(path, body).expect("write metrics report");
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_rows_skip_idle_kinds_and_divide_by_ops() {
        let before = [StatsSnapshot::default(); OP_KINDS];
        let mut after = [StatsSnapshot::default(); OP_KINDS];
        after[OpKind::Get as usize].reads = 100;
        let mut ops = [0u64; OP_KINDS];
        ops[OpKind::Get as usize] = 50;
        let mut r = MetricsReport::new("t");
        push_attribution_rows(&mut r, "s", &before, &after, &ops);
        assert!(r
            .rows
            .iter()
            .any(|row| row.op == "get" && row.metric == "reads_per_op" && row.value == 2.0));
        assert!(r.rows.iter().all(|row| row.op == "get"));
    }
}
