//! E14 — serving layer: throughput and tail latency of the NUMA-sharded
//! request router vs shard count and offered load.
//!
//! The storage layer is `UpSkipList`; the serving layer (`service` crate)
//! hash-partitions the key space across shards, one pool per simulated
//! NUMA node, with a dedicated worker per shard registered on the shard's
//! home node. The 1-shard baseline is the "interleaved device": a single
//! pool striped across every node, so roughly `(nodes-1)/nodes` of its
//! accesses pay the remote-NUMA penalty, while the sharded deployments
//! make every worker access node-local. The latency model's remote
//! penalty is cranked up (`--remote-spins`) so pmem locality — not host
//! scheduling — decides the outcome; on a single-CPU host this is the
//! whole effect, which is exactly what the simulation is for.
//!
//! Workload: uniform-key YCSB-B (95/5) so shard load is balanced, with a
//! slice of requests folded into cross-shard `MultiGet`/`MultiPut` to
//! exercise the gather and latch paths. Closed-loop rows sweep logical
//! client counts; optional open-loop rows (`--rates`) sweep offered
//! request rates.
//!
//! ```text
//! cargo run --release -p bench --bin serving -- \
//!     --json results/BENCH_serving.json
//! cargo run --release -p bench --bin serving -- --smoke --gate    # CI
//! ```
//!
//! Emits CSV rows `mode,shards,load,mops,p50_ns,p95_ns,p99_ns` on stdout
//! plus the full metrics report (per-shard queue depth, batch occupancy,
//! latch waits, worker parks per 1 K requests) to `--json`/`--csv`. `--gate` exits nonzero unless the
//! max-shard closed-loop throughput beats the 1-shard baseline by
//! `--gate-ratio` (default 1.8; 1.3 with `--smoke`).

use std::sync::Arc;

use bench::{build_upskiplist, build_upskiplist_shards, Args, Deployment, UpSkipListOpts};
use obs::report::MetricsReport;
use obs::HistSummary;
use pmem::LatencyModel;
use service::loadgen::{self, LoadResult};
use service::{KvService, Request, ServiceConfig, ShardSpec};
use upskiplist::UpSkipList;

/// Uniform-key YCSB-B: the standard 95/5 read/update mix, uniform key
/// choice so every shard sees the same load (the zipfian head would pin
/// most traffic on whichever shard owns the hot keys and measure hash
/// luck instead of the serving layer).
const WORKLOAD_B_UNIFORM: ycsb::WorkloadSpec = ycsb::WorkloadSpec {
    name: "B-uniform",
    read_pct: 95,
    update_pct: 5,
    insert_pct: 0,
    scan_pct: 0,
    rmw_pct: 0,
    distribution: ycsb::Distribution::Uniform,
};

struct Config {
    records: u64,
    nodes: u16,
    remote_spins: u32,
    max_batch: usize,
    queue_cap: usize,
}

/// Build the storage layer for a shard count: 1 shard = one pool striped
/// across all nodes; k shards = one pool per shard homed on node
/// `i % nodes`.
fn build_shards(cfg: &Config, shards: u16) -> Vec<Arc<UpSkipList>> {
    let latency = LatencyModel {
        remote_spins: cfg.remote_spins,
        ..LatencyModel::pmem_default()
    };
    if shards == 1 {
        let d = Deployment {
            latency,
            striped_nodes: cfg.nodes,
            ..Deployment::simple(cfg.records)
        };
        vec![build_upskiplist(&d, UpSkipListOpts::default())]
    } else {
        let d = Deployment {
            latency,
            ..Deployment::simple(cfg.records)
        };
        build_upskiplist_shards(&d, UpSkipListOpts::default(), shards, cfg.nodes)
    }
}

/// Pre-load the records directly through each shard's native batch path,
/// partitioned with the same hash the router uses, from a thread
/// registered on the shard's home node.
fn preload(lists: &[Arc<UpSkipList>], nodes: u16, load: &[(u64, u64)]) {
    let mut per: Vec<Vec<(u64, u64)>> = vec![Vec::new(); lists.len()];
    for &(k, v) in load {
        per[(ycsb::fnv1a(k) % lists.len() as u64) as usize].push((k, v));
    }
    std::thread::scope(|s| {
        for (i, (list, pairs)) in lists.iter().zip(per).enumerate() {
            let list = Arc::clone(list);
            s.spawn(move || {
                pmem::thread::register(i, i as u16 % nodes);
                list.insert_batch(&pairs);
            });
        }
    });
}

fn start_service(cfg: &Config, lists: Vec<Arc<UpSkipList>>) -> Arc<KvService> {
    let nodes = cfg.nodes;
    let specs = lists
        .into_iter()
        .enumerate()
        .map(|(i, list)| ShardSpec {
            list,
            node: i as u16 % nodes,
        })
        .collect();
    KvService::start(
        specs,
        ServiceConfig {
            workers_per_shard: 1,
            max_batch: cfg.max_batch,
            queue_cap: cfg.queue_cap,
        },
    )
}

/// One measured run; returns throughput plus the request-latency summary
/// delta attributable to this run.
fn measure(
    svc: &Arc<KvService>,
    trace: &[Request],
    run: impl FnOnce(&Arc<KvService>, &[Request]) -> LoadResult,
) -> (LoadResult, HistSummary) {
    let before = svc.registry().snapshot();
    let res = run(svc, trace);
    let after = svc.registry().snapshot();
    let lat = after
        .since(&before)
        .hists
        .get("svc.lat.request")
        .map(|h| h.summary())
        .unwrap_or_default();
    (res, lat)
}

fn push_row(
    report: &mut MetricsReport,
    mode: &str,
    shards: u16,
    load: u64,
    res: &LoadResult,
    lat: &HistSummary,
) {
    let structure = format!("s{shards}");
    let op = format!("{mode}@{load}");
    report.push(&structure, &op, "mops", res.mops());
    report.push(&structure, &op, "completed", res.completed as f64);
    report.push(&structure, &op, "p50_ns", lat.p50 as f64);
    report.push(&structure, &op, "p95_ns", lat.p95 as f64);
    report.push(&structure, &op, "p99_ns", lat.p99 as f64);
    println!(
        "{mode},{shards},{load},{:.4},{},{},{}",
        res.mops(),
        lat.p50,
        lat.p95,
        lat.p99
    );
}

/// Dump the per-shard serving metrics accumulated over a service's whole
/// lifetime (all load levels) into the report.
fn push_shard_metrics(report: &mut MetricsReport, svc: &KvService, shards: u16) {
    let snap = svc.registry().snapshot();
    let structure = format!("s{shards}");
    for i in 0..shards as usize {
        let op = format!("shard{i}");
        for c in ["enqueued", "batches", "batch_ops", "latch_waits", "parks"] {
            let v = snap.counter(&format!("svc.shard{i}.{c}"));
            report.push(&structure, &op, c, v as f64);
        }
        // Times a worker went to sleep per 1 K requests it was handed (a
        // multi-shard request counts once on every shard it reaches).
        let parks = snap.counter(&format!("svc.shard{i}.parks")) as f64;
        let reqs = snap.counter(&format!("svc.shard{i}.enqueued")).max(1) as f64;
        report.push(&structure, &op, "parks_per_kreq", parks / reqs * 1e3);
        for h in ["queue_depth", "batch_occupancy"] {
            if let Some(hs) = snap.hists.get(&format!("svc.shard{i}.{h}")) {
                let s = hs.summary();
                report.push(&structure, &op, &format!("{h}_p50"), s.p50 as f64);
                report.push(&structure, &op, &format!("{h}_max"), s.max as f64);
            }
        }
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let gate = args.flag("gate");
    // Sizing note: the 1-shard baseline is *supposed* to be slow (~3/4 of
    // its accesses pay the remote penalty), so the grid cost is dominated
    // by the baseline rows. Its pool is striped in 2 MB stripes, so no
    // access is remote until the list spans several of them: 100 K records
    // do (4-shard ~7x on a 2-CPU host), 20 K do not (~1x). 50 K keeps the
    // full run in minutes (~3.8x).
    let records = args.u64("records", if smoke { 100_000 } else { 50_000 });
    let ops = args.u64("ops", if smoke { 60_000 } else { 40_000 });
    let nodes: u16 = args.u64("nodes", 4) as u16;
    let shard_counts: Vec<u16> = args
        .usize_list("shards", if smoke { "1,2,4" } else { "1,2,4,8" })
        .into_iter()
        .map(|s| s as u16)
        .collect();
    let client_counts = args.usize_list("clients", if smoke { "256" } else { "64,256" });
    let rates: Vec<u64> = match args.get("rates") {
        Some(r) => r
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("--rates must be integers"))
            .collect(),
        None => Vec::new(),
    };
    let driver_threads = args.usize("threads", 4);
    let remote_spins = args.u64("remote-spins", 64) as u32;
    let multi_every = args.usize("multi-every", 16);
    let multi_size = args.usize("multi-size", 8);
    let gate_ratio: f64 = args
        .get("gate-ratio")
        .map(|v| v.parse().expect("--gate-ratio must be a float"))
        .unwrap_or(if smoke { 1.3 } else { 1.8 });

    let cfg = Config {
        records,
        nodes,
        remote_spins,
        max_batch: args.usize("batch", 64),
        queue_cap: args.usize("queue-cap", 8192),
    };

    // One trace for every configuration: requests must be identical
    // across shard counts for the comparison to mean anything.
    let w = ycsb::generate(WORKLOAD_B_UNIFORM, records, ops, 1, 42);
    let trace = loadgen::requests_from_ops(&w.ops[0], multi_every, multi_size);
    let warmup = &trace[..trace.len() / 10];

    let mut report = MetricsReport::new("serving");
    report.meta("records", records.to_string());
    report.meta("ops", ops.to_string());
    report.meta("nodes", nodes.to_string());
    report.meta("remote_spins", remote_spins.to_string());
    report.meta("workload", WORKLOAD_B_UNIFORM.name.to_string());
    report.meta("multi_every", multi_every.to_string());
    report.meta("multi_size", multi_size.to_string());

    println!("mode,shards,load,mops,p50_ns,p95_ns,p99_ns");
    // Closed-loop throughput at the max client level, per shard count —
    // the gate compares max shards vs 1 shard.
    let mut gate_mops: Vec<(u16, f64)> = Vec::new();
    for &shards in &shard_counts {
        let lists = build_shards(&cfg, shards);
        preload(&lists, nodes, &w.load);
        let svc = start_service(&cfg, lists);
        let _ = loadgen::run_closed(&svc, warmup, 64, driver_threads.min(2));
        for &clients in &client_counts {
            // Median of three: single runs are noisy on shared hosts.
            let mut runs: Vec<(LoadResult, HistSummary)> = (0..3)
                .map(|_| {
                    measure(&svc, &trace, |svc, t| {
                        loadgen::run_closed(svc, t, clients, driver_threads)
                    })
                })
                .collect();
            runs.sort_by(|a, b| a.0.mops().partial_cmp(&b.0.mops()).unwrap());
            let (res, lat) = &runs[1];
            push_row(&mut report, "closed", shards, clients as u64, res, lat);
            if clients == *client_counts.last().unwrap() {
                gate_mops.push((shards, res.mops()));
            }
        }
        for &rate in &rates {
            let (res, lat) = measure(&svc, &trace, |svc, t| {
                loadgen::run_open(svc, t, rate, driver_threads)
            });
            push_row(&mut report, "open", shards, rate, &res, &lat);
        }
        push_shard_metrics(&mut report, &svc, shards);
        svc.shutdown();
    }

    if let Some(path) = args.get("json") {
        bench::metrics::write_report(&report, path);
    }
    if let Some(path) = args.get("csv") {
        bench::metrics::write_report(&report, path);
    }

    let base = gate_mops.iter().find(|(s, _)| *s == 1).map(|&(_, m)| m);
    let best = gate_mops.iter().max_by_key(|&&(s, _)| s);
    if let (Some(base), Some(&(shards, top))) = (base, best) {
        if shards > 1 {
            let ratio = top / base;
            eprintln!(
                "serving: {shards}-shard/1-shard closed-loop speedup {ratio:.2}x \
                 ({top:.4} vs {base:.4} Mops, remote_spins {remote_spins})"
            );
            if gate && ratio < gate_ratio {
                eprintln!("serving: FAIL — speedup {ratio:.2} under the {gate_ratio} gate");
                std::process::exit(1);
            }
        }
    } else if gate {
        eprintln!("serving: FAIL — gate needs both a 1-shard and a multi-shard run");
        std::process::exit(1);
    }
}
