//! E1/E2 — Figures 5.1 and 5.2: YCSB throughput vs thread count for
//! UPSkipList, BzTree, and the PMDK lock-based skip list.
//!
//! ```text
//! cargo run --release -p bench --bin throughput -- \
//!     --workloads A,B,C,D --threads 1,2,4,8 --records 200000 --ops 400000
//! ```
//! `--batch N` groups consecutive reads into `get_batch` calls and
//! consecutive writes into `insert_batch` calls of up to N ops, preserving
//! per-thread order. `--metrics PATH` switches the pools to
//! `ObsLevel::Counters` and writes a [`MetricsReport`] (JSON or CSV by
//! extension) alongside the throughput CSV on stdout: per-op pmem
//! attribution of the very run it times, batched or not.
//! Emits CSV: `workload,structure,threads,mops`.
//!
//! A watchdog ends a stalled sweep: when no driver thread completes an
//! operation for two minutes it prints the cell (workload × structure ×
//! threads), the per-thread op counts and, for UPSkipList, the list's
//! registry counters (`list.*` live under `--metrics`, `alloc.*` always),
//! and exits with code 2.

use std::sync::{Arc, Mutex};

use bench::metrics::{push_attribution_rows, stats_by_op, write_report};
use bench::{watchdog, Args, Deployment, Target, UpSkipListOpts};
use obs::report::MetricsReport;
use obs::ObsLevel;
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
            // `list.*` counts only under `--metrics`; `alloc.*` always.
            eprintln!(
                "registry counters (obs {:?}): {:?}",
                list.obs_level(),
                list.registry().snapshot().counters
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
                let target = Target::build(s, &d, desc_count, UpSkipListOpts::keys_per_node(256));
                *cell.lock().unwrap_or_else(|e| e.into_inner()) = Cell {
                    label: format!("{} x {s} x {t} threads", spec.name),
                    list: target.list.clone(),
                };
                let index = &target.index;
                bench::load(index, &w, (*t).max(4), 1);
                // Warm-up pass (caches, free lists), then the measured run.
                let _ = bench::run(index, &w, 1, 1, false);
                let before = stats_by_op(&target.pools);
                let r = bench::run(index, &w, 1, batch, false);
                let name = index.name();
                if metrics_path.is_some() {
                    let label = format!("{name}[{},t{}]", spec.name, t);
                    let after = stats_by_op(&target.pools);
                    let calls = r.calls_by_kind();
                    push_attribution_rows(&mut report, &label, &before, &after, &calls);
                    report.push(&label, "all", "mops", r.mops());
                }
                println!("{},{},{},{:.4}", spec.name, name, t, r.mops());
            }
        }
    }

    if let Some(path) = &metrics_path {
        write_report(&report, path);
    }
}
