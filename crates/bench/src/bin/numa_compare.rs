//! E4 — Figure 5.4 and Table 5.2: UPSkipList on a single pool striped
//! across NUMA nodes vs one pool per node (extended-RIV NUMA awareness).
//!
//! The simulated latency model charges a penalty for remote-node accesses
//! in both deployments; the multi-pool run additionally pays the two-stage
//! pointer lookup and per-node allocation. The thesis measures multi-pool
//! at ≈5.6% below striped across workloads A–D.
//!
//! Emits CSV: `workload,deployment,threads,mops` plus a reduction table.

use std::collections::HashMap;
use std::sync::Arc;

use bench::{build_upskiplist, Args, Deployment, KvIndex, UpSkipListOpts};
use pmem::LatencyModel;
use ycsb::workload_by_name;

fn main() {
    let args = Args::parse();
    let records = args.u64("records", 100_000);
    let ops = args.u64("ops", 200_000);
    let nodes: u16 = args.u64("nodes", 4) as u16;
    let threads = args.usize_list("threads", "8");
    let workloads = args.list("workloads", "A,B,C,D");

    let mut results: HashMap<(String, &'static str), f64> = HashMap::new();
    println!("workload,deployment,threads,mops");
    for wname in &workloads {
        let spec = workload_by_name(wname).unwrap_or_else(|| panic!("unknown workload {wname}"));
        for t in &threads {
            let w = ycsb::generate(spec, records, ops, *t, 42);
            for (deployment, num_pools, striped) in
                [("striped", 1u16, nodes), ("multi_pool", nodes, 1u16)]
            {
                let d = Deployment {
                    latency: LatencyModel::numa_default(),
                    num_pools,
                    striped_nodes: striped,
                    ..Deployment::simple(records)
                };
                let index: Arc<dyn KvIndex> =
                    build_upskiplist(&d, UpSkipListOpts::keys_per_node(256));
                bench::load(&index, &w, (*t).max(4), nodes);
                let _ = bench::run(&index, &w, nodes, 1, false);
                // Median of three timed runs: single runs are noisy on
                // shared/oversubscribed hosts.
                let mut mops: Vec<f64> = (0..3)
                    .map(|_| bench::run(&index, &w, nodes, 1, false).mops())
                    .collect();
                mops.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let med = mops[1];
                println!("{},{},{},{:.4}", spec.name, deployment, t, med);
                results.insert((wname.clone(), deployment), med);
            }
        }
    }
    // Table 5.2: throughput reduction of multi-pool vs striped.
    println!();
    println!("workload,reduction_pct");
    let mut total = 0.0;
    let mut n = 0;
    for wname in &workloads {
        if let (Some(s), Some(m)) = (
            results.get(&(wname.clone(), "striped")),
            results.get(&(wname.clone(), "multi_pool")),
        ) {
            let red = (1.0 - m / s) * 100.0;
            println!("{wname},{red:.1}");
            total += red;
            n += 1;
        }
    }
    if n > 0 {
        println!("average,{:.1}", total / n as f64);
    }
}
