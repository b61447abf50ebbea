//! E13 — allocation fast path and fence budget: fences per operation on
//! the list's own allocator configuration (8-block leases).
//!
//! Inserts run at `keys_per_node = 1`, so every insert allocates and
//! publishes a fresh node through the prepare-then-publish flush epoch:
//! one coalesced pre-publish sweep fence, plus a lease-log fence only on
//! magazine misses. The budget that gates CI is *absolute* — `--gate`
//! fails if the run spends more than `--gate-fences` (default 2.0) fences
//! per insert, or if the dynamic detector's PMD02 probe catches a
//! redundant (empty) fence on the insert path.
//!
//! ```text
//! cargo run --release -p bench --bin allocator -- \
//!     --records 20000 --json results/BENCH_allocator.json
//! cargo run --release -p bench --bin allocator -- --smoke --gate   # CI
//! ```
//!
//! Output also records fences/flushes per `get` and `remove` (tagged
//! phases over the same keys) and the PMD02 redundant-fence tally per op
//! kind from a small `PmCheckLevel::Track` probe.

use std::sync::Arc;

use bench::metrics::{pmd02_probe, push_pmd02_rows};
use bench::{build_upskiplist, Args, Deployment, UpSkipListOpts};
use obs::report::MetricsReport;
use obs::ObsLevel;
use pmem::stats::OP_KINDS;
use pmem::{op_tag, OpKind, StatsSnapshot};
use upskiplist::UpSkipList;

/// Row label of every figure this experiment reports.
const ROW: &str = "upskiplist";

/// splitmix64 — deterministic key shuffle without the rand crate.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct RunOut {
    /// Per-op pmem deltas, indexed by `OpKind as usize`.
    by_op: [StatsSnapshot; OP_KINDS],
    /// Driver-level op counts per kind.
    ops: [u64; OP_KINDS],
    leases: u64,
    magazine_hits: u64,
    fast: u64,
    slow: u64,
}

impl RunOut {
    fn per(&self, kind: OpKind) -> (f64, f64) {
        let n = self.ops[kind as usize].max(1) as f64;
        let d = &self.by_op[kind as usize];
        (d.fences as f64 / n, d.flushes as f64 / n)
    }
    fn fences_per_insert(&self) -> f64 {
        self.per(OpKind::Insert).0
    }
}

fn opts() -> UpSkipListOpts {
    UpSkipListOpts::keys_per_node(1)
}

/// Insert `records` distinct keys in a mixed order across `threads`
/// registered threads (every insert is a fresh node at keys_per_node = 1),
/// then a tagged get pass and a tagged remove pass over the same keys;
/// return per-op pmem costs.
fn run_one(records: u64, threads: usize) -> RunOut {
    let d = Deployment {
        obs: ObsLevel::Counters,
        ..Deployment::simple(records)
    };
    let list: Arc<UpSkipList> = build_upskiplist(&d, opts());
    let before = list.space().stats_by_op();
    let each_phase = |kind: OpKind| {
        std::thread::scope(|s| {
            for t in 0..threads {
                let list = Arc::clone(&list);
                s.spawn(move || {
                    pmem::thread::register(t, 0);
                    let _tag = op_tag(kind);
                    let mut i = t as u64;
                    while i < records {
                        let key = mix64(i + 1) | 1;
                        match kind {
                            OpKind::Insert => {
                                list.insert(key, i);
                            }
                            OpKind::Get => {
                                std::hint::black_box(list.get(key));
                            }
                            OpKind::Remove => {
                                list.remove(key);
                            }
                            _ => unreachable!(),
                        }
                        i += threads as u64;
                    }
                    // Ack boundary: fence this thread's deferred publish
                    // lines inside the tag so the kind's bucket pays its
                    // full durability cost (a no-op when nothing pends).
                    list.sync();
                });
            }
        });
    };
    each_phase(OpKind::Insert);
    each_phase(OpKind::Get);
    each_phase(OpKind::Remove);
    let after = list.space().stats_by_op();
    let m = list.struct_metrics();
    let mut by_op = [StatsSnapshot::default(); OP_KINDS];
    for (i, b) in by_op.iter_mut().enumerate() {
        *b = after[i].since(&before[i]);
    }
    let mut ops = [0u64; OP_KINDS];
    for kind in [OpKind::Insert, OpKind::Get, OpKind::Remove] {
        ops[kind as usize] = records;
    }
    RunOut {
        by_op,
        ops,
        leases: m.alloc.leases,
        magazine_hits: m.alloc.magazine_hits,
        fast: m.alloc.fast_allocs,
        slow: m.alloc.slow_allocs,
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let records = args.u64("records", if smoke { 8_000 } else { 50_000 });
    let threads = args.usize("threads", if smoke { 2 } else { 4 });
    let gate = args.flag("gate");
    let gate_fences: f64 = args
        .get("gate-fences")
        .map(|v| v.parse().expect("--gate-fences must be a float"))
        .unwrap_or(2.0);

    let mut report = MetricsReport::new("allocator");
    report.meta("records", records.to_string());
    report.meta("threads", threads.to_string());

    let r = run_one(records, threads);

    // PMD02 probe: a single-threaded Track-level run; an empty fence
    // attributed to insert means a path inside the prepare window still
    // fences individually.
    let probe_records = (records / 10).max(500);
    let (pmd02, pops) = pmd02_probe(opts(), probe_records);
    push_pmd02_rows(&mut report, ROW, &pmd02, &pops);
    let insert_pmd02 = pmd02[OpKind::Insert as usize];
    eprintln!(
        "allocator: pmd02 redundant fences — insert {insert_pmd02} get {} remove {} \
         (probe of {probe_records} records)",
        pmd02[OpKind::Get as usize],
        pmd02[OpKind::Remove as usize],
    );

    for kind in [OpKind::Insert, OpKind::Get, OpKind::Remove] {
        let (fences, flushes) = r.per(kind);
        let op = kind.name();
        report.push(ROW, op, "fences_per_op", fences);
        report.push(ROW, op, "flushes_per_op", flushes);
    }
    // Back-compat aliases consumed by the report tooling.
    report.push(ROW, "insert", "fences_per_insert", r.per(OpKind::Insert).0);
    report.push(ROW, "insert", "flushes_per_insert", r.per(OpKind::Insert).1);
    report.push(ROW, "alloc", "leases", r.leases as f64);
    report.push(ROW, "alloc", "magazine_hits", r.magazine_hits as f64);
    report.push(ROW, "alloc", "fast_allocs", r.fast as f64);
    report.push(ROW, "alloc", "slow_allocs", r.slow as f64);
    let (gf, _) = r.per(OpKind::Get);
    let (rf, _) = r.per(OpKind::Remove);
    eprintln!(
        "allocator: {:.3} fences/insert (budget {gate_fences:.1}), {:.3} flushes/insert, \
         {gf:.3} fences/get, {rf:.3} fences/remove \
         (leases {}, magazine hits {}, fast {}, slow {})",
        r.fences_per_insert(),
        r.per(OpKind::Insert).1,
        r.leases,
        r.magazine_hits,
        r.fast,
        r.slow
    );

    print!("{}", report.to_csv());
    if let Some(path) = args.get("json") {
        bench::metrics::write_report(&report, path);
    }
    if let Some(path) = args.get("csv") {
        bench::metrics::write_report(&report, path);
    }

    if gate {
        let mut fail = false;
        if r.fences_per_insert() > gate_fences {
            eprintln!(
                "allocator: FAIL — {:.3} fences/insert over the absolute \
                 {gate_fences} budget",
                r.fences_per_insert()
            );
            fail = true;
        }
        if insert_pmd02 > 0 {
            eprintln!(
                "allocator: FAIL — {insert_pmd02} redundant (empty) fences \
                 attributed to the insert path; the flush epoch must skip \
                 no-op sweeps"
            );
            fail = true;
        }
        if fail {
            std::process::exit(1);
        }
    }
}
