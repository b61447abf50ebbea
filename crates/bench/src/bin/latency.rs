//! E5 — Figures 5.5/5.6 and Table 5.3: per-operation latency percentiles
//! for each YCSB workload and structure, at a fixed thread count (the
//! thesis uses 80 threads on 80 cores; scale with `--threads`).
//!
//! Emits CSV: `workload,structure,op,p50,p90,p99,p99.9,p99.99,max` (µs).

use bench::{percentile, Args, Call, Deployment, Target, UpSkipListOpts};
use ycsb::workload_by_name;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn main() {
    let args = Args::parse();
    let records = args.u64("records", 200_000);
    let ops = args.u64("ops", 400_000);
    let threads = args.usize(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8),
    );
    let workloads = args.list("workloads", "A,B,C,D");
    let structures = args.list("structures", "upskiplist,bztree,pmdkskip");
    let desc_count = args.usize("descriptors", 500_000.min(records as usize));

    let d = Deployment::simple(records);
    let opts = UpSkipListOpts::keys_per_node(256);

    println!("workload,structure,op,p50,p90,p99,p99.9,p99.99,max");
    for wname in &workloads {
        let spec = workload_by_name(wname).unwrap_or_else(|| panic!("unknown workload {wname}"));
        let w = ycsb::generate(spec, records, ops, threads, 42);
        for s in &structures {
            let index = Target::build(s, &d, desc_count, opts).index;
            bench::load(&index, &w, threads.max(4), 1);
            let _ = bench::run(&index, &w, 1, 1, false);
            let r = bench::run(&index, &w, 1, 1, true);
            let name = index.name();
            for (op, calls) in [
                ("read", &[Call::Read, Call::Scan][..]),
                ("update", &[Call::Update, Call::Rmw]),
                ("insert", &[Call::Insert]),
            ] {
                let lat = r.samples(calls);
                if lat.is_empty() {
                    continue;
                }
                println!(
                    "{},{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
                    spec.name,
                    name,
                    op,
                    us(percentile(&lat, 50.0)),
                    us(percentile(&lat, 90.0)),
                    us(percentile(&lat, 99.0)),
                    us(percentile(&lat, 99.9)),
                    us(percentile(&lat, 99.99)),
                    us(*lat.last().unwrap()),
                );
            }
        }
    }
}
