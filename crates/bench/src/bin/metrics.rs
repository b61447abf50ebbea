//! E11 — the observability report: per-op pmem attribution (reads,
//! writes, flushes, fences *per operation type*), latency percentiles
//! from the obs histograms, and UPSkipList structure-internal counters.
//!
//! ```text
//! cargo run --release -p bench --bin metrics -- \
//!     --records 50000 --ops 100000 --threads 4 --batch 32 \
//!     --json results/BENCH_metrics.json
//! ```
//! Four phases per structure, each tagged with its [`pmem::OpKind`]:
//! a mixed read/update/scan run, a batched-read run, then a remove pass.
//! (The untagged load phase lands in the `other` bucket and is excluded.)
//! Emits CSV to stdout; `--json`/`--csv` also write the report to a file.
//!
//! `--guard [--baseline PATH] [--guard-ratio R]` additionally compares the
//! upskiplist `mixed_mops` of this run (with the pmcheck dynamic detector
//! at its default `PmCheckLevel::Off`, whose entire hot-path cost is one
//! relaxed `AtomicU8` load and a predictable branch per pmem op) against
//! the checked-in pre-detector baseline, and exits nonzero if throughput
//! fell below `R` × baseline (default 0.5 — generous on purpose: the
//! guard is a tripwire for the detector accidentally going hot at `Off`,
//! not a precision benchmark).
//!
//! `--lint-time [--lint-budget SECS]` times the static persist-ordering
//! lint (the whole interprocedural pass) over the workspace and fails if
//! it exceeds the budget (default 5 s) — the lint blocks CI, so its wall
//! time is guarded like any other regression.

use std::sync::Arc;
use std::time::Instant;

use bench::metrics::{
    push_attribution_rows, push_latency_rows, push_struct_rows, stats_by_op, write_report,
};
use bench::{
    build_bztree, build_hybridskip, build_pmdkskip, build_upskiplist, run_metrics, Args,
    Deployment, KvIndex, UpSkipListOpts,
};
use obs::report::MetricsReport;
use obs::{ObsLevel, Registry};
use pmem::stats::OP_KINDS;
use pmem::{op_tag, OpKind, Pool};
use ycsb::{Distribution, WorkloadSpec};

/// Mixed point/range workload so every supported op kind shows up.
const MIXED: WorkloadSpec = WorkloadSpec {
    name: "mixed",
    read_pct: 60,
    update_pct: 25,
    insert_pct: 5,
    scan_pct: 10,
    rmw_pct: 0,
    distribution: Distribution::Zipfian,
};

/// Read-only uniform phase for the batched-read bucket.
const READS: WorkloadSpec = WorkloadSpec {
    name: "reads",
    read_pct: 100,
    update_pct: 0,
    insert_pct: 0,
    scan_pct: 0,
    rmw_pct: 0,
    distribution: Distribution::Uniform,
};

struct Target {
    index: Arc<dyn KvIndex>,
    pools: Vec<Arc<Pool>>,
    upskiplist: Option<Arc<upskiplist::UpSkipList>>,
}

fn build(name: &str, d: &Deployment, desc_count: usize, keys_per_node: usize) -> Target {
    match name {
        "upskiplist" => {
            let l = build_upskiplist(d, UpSkipListOpts::keys_per_node(keys_per_node));
            Target {
                pools: l.space().pools().to_vec(),
                upskiplist: Some(Arc::clone(&l)),
                index: l,
            }
        }
        "bztree" => {
            let t = build_bztree(d, desc_count);
            Target {
                pools: vec![Arc::clone(t.pool())],
                upskiplist: None,
                index: t,
            }
        }
        "pmdkskip" => {
            let s = build_pmdkskip(d);
            Target {
                pools: vec![Arc::clone(s.pool())],
                upskiplist: None,
                index: s,
            }
        }
        "hybridskip" => {
            let h = build_hybridskip(d);
            Target {
                pools: vec![Arc::clone(h.pool())],
                upskiplist: None,
                index: h,
            }
        }
        other => panic!("unknown structure {other}"),
    }
}

/// Pull `structures.<name>.all.mixed_mops` out of a `MetricsReport` JSON
/// file with a dependency-free scan: find the structure key, then the
/// first `"mixed_mops":` after it (the `all` section is emitted first).
fn baseline_mixed_mops(path: &str, structure: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let at = text.find(&format!("\"{structure}\""))?;
    let rest = &text[at..];
    let v = rest
        .find("\"mixed_mops\":")
        .map(|i| i + "\"mixed_mops\":".len())?;
    let tail = rest[v..].trim_start();
    let end = tail
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Walk up from the cwd to the directory holding `crates/` — same
/// discovery the pmcheck binary uses, so `--lint-time` works from any
/// directory inside the workspace.
fn workspace_root() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() {
    let args = Args::parse();
    let records = args.u64("records", 50_000);
    let ops = args.u64("ops", 100_000);
    let threads = args.usize("threads", 4);
    let batch = args.usize("batch", 32);
    let structures = args.list("structures", "upskiplist,bztree,pmdkskip,hybridskip");
    let desc_count = args.usize("descriptors", 500_000.min(records as usize));
    let keys_per_node = args.usize("keys-per-node", 256);
    let guard = args.flag("guard");
    let baseline_path = args.get("baseline").unwrap_or("results/BENCH_metrics.json");
    let guard_ratio: f64 = args
        .get("guard-ratio")
        .map(|v| v.parse().expect("--guard-ratio must be a float"))
        .unwrap_or(0.5);
    // Read the baseline up front: the same invocation may rewrite the
    // baseline file via --json, and the guard must compare against the
    // pre-run numbers, not its own output.
    let guard_base = guard
        .then(|| baseline_mixed_mops(baseline_path, "upskiplist"))
        .flatten();
    let mut guard_mops: Option<f64> = None;

    let mut report = MetricsReport::new("metrics");
    report.meta("records", records.to_string());
    report.meta("ops", ops.to_string());
    report.meta("threads", threads.to_string());
    report.meta("batch", batch.to_string());

    let mixed = ycsb::generate(MIXED, records, ops, threads, 42);
    let reads = ycsb::generate(READS, records, ops, threads, 43);

    for sname in &structures {
        let d = Deployment {
            obs: ObsLevel::Full,
            ..Deployment::simple(records)
        };
        let t = build(sname, &d, desc_count, keys_per_node);
        let registry = Registry::new();
        let before = stats_by_op(&t.pools);

        // Load is untagged on purpose: it lands in the `other` bucket so
        // the per-op numbers below measure steady state only.
        bench::load(&t.index, &mixed, threads.max(4), 1);
        let base = t.upskiplist.as_ref().map(|l| l.registry().snapshot());

        let mixed_r = run_metrics(&t.index, &mixed, 1, 1, "mixed", Some(&registry));
        let batched_r = run_metrics(&t.index, &reads, 1, batch, "reads", Some(&registry));

        // Remove pass: tombstone a tenth of the key space.
        let lat_remove = registry.histogram("lat.remove");
        let removes = (records / 10).max(1);
        {
            let _tag = op_tag(OpKind::Remove);
            for &(k, _) in mixed.load.iter().take(removes as usize) {
                let t0 = Instant::now();
                std::hint::black_box(t.index.remove(k));
                lat_remove.record(t0.elapsed().as_nanos() as u64);
            }
        }

        let after = stats_by_op(&t.pools);
        // Driver-level call counts per kind, straight from the latency
        // histograms (one sample per call).
        let mut op_counts = [0u64; OP_KINDS];
        for (name, kind) in [
            ("lat.get", OpKind::Get),
            ("lat.insert", OpKind::Insert),
            ("lat.remove", OpKind::Remove),
            ("lat.scan", OpKind::Scan),
            ("lat.batch", OpKind::Batch),
        ] {
            op_counts[kind as usize] = registry.histogram(name).count();
        }

        push_attribution_rows(&mut report, sname, &before, &after, &op_counts);
        push_latency_rows(&mut report, sname, &registry);
        if *sname == "upskiplist" {
            // PMD02 (redundant empty fence) per op kind, from a small
            // single-threaded Track-level probe: the fence-diet insert
            // path must keep its bucket at zero.
            let (pmd02, pops) = bench::metrics::pmd02_probe(
                UpSkipListOpts::keys_per_node(keys_per_node),
                (records / 10).max(500),
            );
            bench::metrics::push_pmd02_rows(&mut report, sname, &pmd02, &pops);
        }
        report.push(sname, "all", "mixed_mops", mixed_r.mops());
        report.push(sname, "all", "batched_read_mops", batched_r.mops());
        if guard && sname == "upskiplist" {
            for p in &t.pools {
                assert_eq!(
                    p.check_level(),
                    pmem::PmCheckLevel::Off,
                    "the guard measures the detector's Off cost; a pool came up checked"
                );
            }
            guard_mops = Some(mixed_r.mops());
        }
        if let (Some(l), Some(base)) = (&t.upskiplist, base) {
            push_struct_rows(&mut report, sname, &l.registry().snapshot().since(&base));
        }
        eprintln!(
            "{sname}: mixed {:.3} Mops, batched reads {:.3} Mops",
            mixed_r.mops(),
            batched_r.mops()
        );
    }

    // --lint-time: the static persist-ordering lint blocks CI, so its
    // wall time is a budgeted metric like any throughput number. The
    // interprocedural pass (summaries + call-graph fixpoints) must stay
    // well under the budget or it gets demoted to a nightly job.
    let mut lint_fail = false;
    if args.flag("lint-time") {
        let budget: f64 = args
            .get("lint-budget")
            .map(|v| v.parse().expect("--lint-budget must be a float (seconds)"))
            .unwrap_or(5.0);
        match workspace_root() {
            Some(root) => {
                let t0 = Instant::now();
                let lint = pmcheck::lint_workspace(&root).expect("pmcheck lint failed");
                let secs = t0.elapsed().as_secs_f64();
                report.push("pmcheck", "all", "lint_secs", secs);
                report.push("pmcheck", "all", "lint_files", lint.files as f64);
                eprintln!(
                    "pmcheck lint: {} files, {} violations, {} proven in {secs:.3} s \
                     (budget {budget:.1} s)",
                    lint.files,
                    lint.violations.len(),
                    lint.proven.len()
                );
                if secs > budget {
                    eprintln!(
                        "pmcheck lint: FAIL — analysis pass exceeded its {budget:.1} s budget; \
                         it is too slow to keep blocking in CI"
                    );
                    lint_fail = true;
                }
            }
            None => eprintln!("pmcheck lint: workspace root not found — skipping timing"),
        }
    }

    print!("{}", report.to_csv());
    if let Some(path) = args.get("json") {
        write_report(&report, path);
    }
    if let Some(path) = args.get("csv") {
        write_report(&report, path);
    }

    if guard {
        let current =
            guard_mops.expect("--guard needs upskiplist in --structures to measure Off-level cost");
        match guard_base {
            Some(base) => {
                let floor = base * guard_ratio;
                eprintln!(
                    "pmcheck guard: upskiplist mixed {current:.3} Mops vs pre-detector \
                     baseline {base:.3} Mops (floor {floor:.3} at ratio {guard_ratio})"
                );
                if current < floor {
                    eprintln!(
                        "pmcheck guard: FAIL — PmCheckLevel::Off is supposed to cost one \
                         relaxed u8 load per op; something made the hot path expensive"
                    );
                    std::process::exit(1);
                }
                eprintln!("pmcheck guard: ok");
            }
            None => {
                eprintln!(
                    "pmcheck guard: no baseline at {baseline_path} — recording only \
                     (run the full metrics bin with --json to create one)"
                );
            }
        }
    }
    if lint_fail {
        std::process::exit(1);
    }
}
