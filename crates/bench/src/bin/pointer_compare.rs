//! E3 — Figure 5.3: read-only throughput of UPSkipList with a single key
//! per node (one-word extended-RIV pointers) vs the lock-based skip list
//! (libpmemobj-style two-word fat pointers).
//!
//! Both structures have identical shape here (one key per node, same
//! height distribution); the pointer representation is the variable. The
//! thesis measures fat pointers reaching ≈70% of RIV throughput.
//!
//! Emits CSV: `structure,threads,mops`.

use std::sync::Arc;

use bench::{build_pmdkskip, build_upskiplist, Args, Deployment, KvIndex, UpSkipListOpts};
use ycsb::WORKLOAD_C;

fn main() {
    let args = Args::parse();
    let records = args.u64("records", 100_000);
    let ops = args.u64("ops", 400_000);
    let threads = if args.get("threads").is_some() {
        args.usize_list("threads", "")
    } else {
        bench::default_thread_sweep()
    };

    println!("structure,threads,mops");
    for t in &threads {
        let w = ycsb::generate(WORKLOAD_C, records, ops, *t, 42);
        let d = Deployment::simple(records);
        let riv: Arc<dyn KvIndex> = build_upskiplist(&d, UpSkipListOpts::keys_per_node(1));
        let fat: Arc<dyn KvIndex> = build_pmdkskip(&d);
        for (name, index) in [("riv_single_key", &riv), ("fat_pointers", &fat)] {
            bench::load(index, &w, (*t).max(4), 1);
            let _ = bench::run(index, &w, 1, 1, false);
            let r = bench::run(index, &w, 1, 1, false);
            println!("{},{},{:.4}", name, t, r.mops());
        }
    }
}
