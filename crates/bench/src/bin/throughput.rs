//! E1/E2 — Figures 5.1 and 5.2: YCSB throughput vs thread count for
//! UPSkipList, BzTree, and the PMDK lock-based skip list.
//!
//! ```text
//! cargo run --release -p bench --bin throughput -- \
//!     --workloads A,B,C,D --threads 1,2,4,8 --records 200000 --ops 400000
//! ```
//! `--batch N` groups consecutive reads into `get_batch` calls of up to N
//! keys (writes flush the pending batch, preserving per-thread order).
//! `--metrics PATH` switches the pools to `ObsLevel::Counters`, tags every
//! op for per-op pmem attribution, and writes a [`MetricsReport`]
//! (JSON or CSV by extension) alongside the throughput CSV on stdout.
//! Emits CSV: `workload,structure,threads,mops`.
//!
//! A watchdog ends a stalled sweep: when no driver thread completes an
//! operation for two minutes it prints the cell (workload × structure ×
//! threads), the per-thread op counts and, for UPSkipList, the list's
//! structure counters (live under `--metrics`), and exits with code 2.

use std::sync::{Arc, Mutex};

use bench::metrics::{push_attribution_rows, stats_by_op, write_report};
use bench::{
    build_bztree, build_pmdkskip, build_upskiplist, run_metrics, watchdog, Args, Deployment,
    KvIndex, UpSkipListOpts,
};
use obs::report::MetricsReport;
use obs::{ObsLevel, Registry};
use pmem::stats::OP_KINDS;
use pmem::{OpKind, Pool};
use upskiplist::UpSkipList;
use ycsb::workload_by_name;

/// The sweep cell being measured, for the watchdog's report.
#[derive(Default)]
struct Cell {
    label: String,
    list: Option<Arc<UpSkipList>>,
}

fn main() {
    let args = Args::parse();
    let records = args.u64("records", 200_000);
    let ops = args.u64("ops", 400_000);
    let threads = if args.get("threads").is_some() {
        args.usize_list("threads", "")
    } else {
        bench::default_thread_sweep()
    };
    let workloads = args.list("workloads", "A,B,C,D");
    let structures = args.list("structures", "upskiplist,bztree,pmdkskip");
    let desc_count = args.usize("descriptors", 500_000.min(records as usize));
    let batch = args.usize("batch", 1);
    let metrics_path = args.get("metrics").map(str::to_owned);

    let mut report = MetricsReport::new("throughput");
    report.meta("records", records);
    report.meta("ops", ops);

    let cell = Arc::new(Mutex::new(Cell::default()));
    let watched = Arc::clone(&cell);
    watchdog::spawn(move |counts| {
        let cell = watched.lock().unwrap_or_else(|e| e.into_inner());
        eprintln!(
            "STALL: no operation completed for {} s in cell {}; per-thread ops {counts:?}",
            watchdog::STALL_LIMIT.as_secs(),
            cell.label
        );
        if let Some(list) = &cell.list {
            // The list's own counters count only under `--metrics`.
            eprintln!(
                "structure counters (obs {:?}): {:?}",
                list.obs_level(),
                list.struct_metrics()
            );
        }
    });

    println!("workload,structure,threads,mops");
    for wname in &workloads {
        let spec = workload_by_name(wname).unwrap_or_else(|| panic!("unknown workload {wname}"));
        for t in &threads {
            let w = ycsb::generate(spec, records, ops, *t, 42);
            for s in &structures {
                let d = Deployment {
                    obs: if metrics_path.is_some() {
                        ObsLevel::Counters
                    } else {
                        ObsLevel::Off
                    },
                    ..Deployment::simple(records)
                };
                let mut list = None;
                let (index, pools): (Arc<dyn KvIndex>, Vec<Arc<Pool>>) = match s.as_str() {
                    "upskiplist" => {
                        let l = build_upskiplist(&d, UpSkipListOpts::keys_per_node(256));
                        let pools = l.space().pools().to_vec();
                        list = Some(Arc::clone(&l));
                        (l, pools)
                    }
                    "bztree" => {
                        let b = build_bztree(&d, desc_count);
                        let pools = vec![Arc::clone(b.pool())];
                        (b, pools)
                    }
                    "pmdkskip" => {
                        let p = build_pmdkskip(&d);
                        let pools = vec![Arc::clone(p.pool())];
                        (p, pools)
                    }
                    other => panic!("unknown structure {other}"),
                };
                *cell.lock().unwrap_or_else(|e| e.into_inner()) = Cell {
                    label: format!("{} x {s} x {t} threads", spec.name),
                    list,
                };
                bench::load(&index, &w, (*t).max(4), 1);
                // Warm-up pass (caches, free lists), then the measured run.
                let _ = bench::run(&index, &w, 1, false, "warmup");
                let name: &'static str = match s.as_str() {
                    "upskiplist" => "upskiplist",
                    "bztree" => "bztree",
                    _ => "pmdkskip",
                };
                let r = if metrics_path.is_some() {
                    let registry = Registry::new();
                    let before = stats_by_op(&pools);
                    let r = run_metrics(&index, &w, 1, batch, name, Some(&registry));
                    let after = stats_by_op(&pools);
                    let mut op_counts = [0u64; OP_KINDS];
                    for (h, kind) in [
                        ("lat.get", OpKind::Get),
                        ("lat.insert", OpKind::Insert),
                        ("lat.scan", OpKind::Scan),
                        ("lat.batch", OpKind::Batch),
                    ] {
                        op_counts[kind as usize] = registry.histogram(h).count();
                    }
                    let label = format!("{name}[{},t{}]", spec.name, t);
                    push_attribution_rows(&mut report, &label, &before, &after, &op_counts);
                    report.push(&label, "all", "mops", r.mops());
                    r
                } else if batch > 1 {
                    bench::run_batched(&index, &w, 1, batch, name)
                } else {
                    bench::run(&index, &w, 1, false, name)
                };
                println!("{},{},{},{:.4}", spec.name, name, t, r.mops());
            }
        }
    }

    if let Some(path) = &metrics_path {
        write_report(&report, path);
    }
}
