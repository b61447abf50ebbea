//! `list_read`: a bare list with the paper's 256 keys per node (§5.1.2),
//! loaded by one thread, then replayed read-only by closed-loop threads.
//!
//! About 32 of the ~40 pmem line reads of a get are the in-node key scan,
//! so `core` traversal and `pmem` reads do all the work here; allocator,
//! fences and service do none. Every round is an independent build,
//! because list structure is clock-seeded (tower heights come from
//! `rand::thread_rng`) and a build occasionally lands in a slow state
//! (level-0 hops per get in the hundreds instead of ~1); the median over
//! builds reports the normal state and `core.slow_build_share` flags the
//! other.

use std::sync::Barrier;

use pmem::{OpKind, PersistenceMode};
use upskiplist::UpSkipList;

use crate::deploy::{self, Kv, ListSpec};
use crate::gen::{read_trace, sub_seed, KeyTable, ReadOp};
use crate::round::{Ctx, Round, Samples};
use crate::span::{now_ns, Recorder, NO_PARENT};

const RECORDS: u64 = 200_000;
const KEYS_PER_NODE: usize = 256;
const ROUNDS: usize = 5;
const WARMUP_OPS: usize = 50_000;
/// Operations per thread in one round's trace; the replay wraps around.
const TRACE_OPS: usize = 1 << 20;
/// One operation in this many records spans in a traced round.
const SPAN_EVERY: u64 = 16;
/// A build counts as slow above this many level-0 hops per get.
const SLOW_BUILD_L0_HOPS: f64 = 8.0;

fn value_of(record: u32) -> u64 {
    record as u64 + 1
}

/// What one generator thread brings back from the window.
struct Replay {
    start_ns: u64,
    end_ns: u64,
    ops: u64,
    failed: u64,
    samples: Samples,
    rec: Recorder,
}

/// Check a scan against the sorted key table: exactly the next `len` live
/// pairs from the start key, in order.
fn scan_is_exact(table: &KeyTable, record: u32, len: usize, got: &[(u64, u64)]) -> bool {
    let rank = table.rank_of_record[record as usize] as usize;
    let end = (rank + len).min(table.len());
    got.len() == end - rank
        && got
            .iter()
            .zip(rank..end)
            .all(|(&(k, v), j)| k == table.keys[j] && v == value_of(table.record_of_rank[j]))
}

fn replay(
    list: &UpSkipList,
    table: &KeyTable,
    trace: &[ReadOp],
    warmup: usize,
    window_ns: u64,
    go: &Barrier,
    traced: bool,
) -> Replay {
    let mut failed = 0u64;
    let mut run_op = |op: ReadOp, samples: Option<&mut Samples>| -> (u64, u64) {
        let (t0, t1, ok);
        match op {
            ReadOp::Get { record } => {
                let key = ycsb::key_of(record as u64);
                t0 = now_ns();
                let got = Kv::get(list, key);
                t1 = now_ns();
                ok = got == Some(value_of(record));
                if let Some(s) = samples {
                    s.read.push(t1 - t0);
                }
            }
            ReadOp::Scan { record, len } => {
                let key = ycsb::key_of(record as u64);
                t0 = now_ns();
                let got = Kv::scan(list, key, len as usize);
                t1 = now_ns();
                ok = scan_is_exact(table, record, len as usize, &got);
                if let Some(s) = samples {
                    s.scan.push(t1 - t0);
                }
            }
        }
        failed += !ok as u64;
        (t0, t1)
    };

    for &op in &trace[..warmup] {
        run_op(op, None);
    }
    go.wait();
    let start_ns = now_ns();
    let deadline = start_ns + window_ns;
    let mut samples = Samples::with_capacity(TRACE_OPS);
    let mut rec = Recorder::default();
    let mut ops = 0u64;
    let mut pos = warmup;
    let mut op_start = start_ns;
    let end_ns = loop {
        let op = trace[pos % trace.len()];
        pos += 1;
        let (t0, t1) = run_op(op, Some(&mut samples));
        ops += 1;
        if traced && ops.is_multiple_of(SPAN_EVERY) {
            // `op` is the harness's share (trace fetch, key mapping,
            // verification); the call into the list is its child.
            let done = now_ns();
            let parent = rec.push("op", op_start, done, NO_PARENT, ops);
            let name = match op {
                ReadOp::Get { .. } => "core.get",
                ReadOp::Scan { .. } => "core.scan",
            };
            rec.push(name, t0, t1, parent, ops);
            op_start = done;
        } else {
            op_start = t1;
        }
        if t1 >= deadline {
            break t1;
        }
    };
    Replay {
        start_ns,
        end_ns,
        ops,
        failed,
        samples,
        rec,
    }
}

/// Traced rounds only: single-thread segments of one operation type each,
/// so pool and structure counters can be divided by an exact op count.
fn core_probes(list: &UpSkipList, trace: &[ReadOp], quick: bool) -> Vec<(&'static str, f64)> {
    let scale = if quick { 10 } else { 1 };
    let gets: Vec<u64> = trace
        .iter()
        .filter_map(|op| match *op {
            ReadOp::Get { record } => Some(ycsb::key_of(record as u64)),
            ReadOp::Scan { .. } => None,
        })
        .take(50_000 / scale)
        .collect();
    let scans: Vec<(u32, u8)> = trace
        .iter()
        .filter_map(|op| match *op {
            ReadOp::Scan { record, len } => Some((record, len)),
            ReadOp::Get { .. } => None,
        })
        .take(4_000 / scale)
        .collect();
    let pool = |kind: OpKind| list.space().stats_by_op()[kind as usize];
    let mut out = Vec::new();

    let (reg0, pool0, t0) = (deploy::registry_snapshot(list), pool(OpKind::Get), now_ns());
    for &k in &gets {
        std::hint::black_box(Kv::get(list, k));
    }
    let (t1, pool1, reg) = (
        now_ns(),
        pool(OpKind::Get),
        deploy::registry_snapshot(list).since(&reg0),
    );
    let n = gets.len() as f64;
    let (hits, misses) = (
        reg.counter("list.shadow_hits") as f64,
        reg.counter("list.shadow_misses") as f64,
    );
    out.push(("core.get.ns", (t1 - t0) as f64 / n));
    out.push(("core.get.pmem_reads", pool1.since(&pool0).reads as f64 / n));
    out.push(("core.get.l0_hops", reg.counter("list.hops.l00") as f64 / n));
    if hits + misses > 0.0 {
        out.push(("core.get.shadow_hit_share", hits / (hits + misses)));
    }

    let (pool0, t0) = (pool(OpKind::Scan), now_ns());
    let mut keys_scanned = 0usize;
    for &(record, len) in &scans {
        keys_scanned += Kv::scan(list, ycsb::key_of(record as u64), len as usize).len();
    }
    let (t1, pool1) = (now_ns(), pool(OpKind::Scan));
    out.push((
        "core.scan.ns_per_key",
        (t1 - t0) as f64 / keys_scanned as f64,
    ));
    out.push((
        "core.scan.pmem_reads_per_key",
        pool1.since(&pool0).reads as f64 / keys_scanned as f64,
    ));

    let t0 = now_ns();
    for batch in gets.chunks_exact(64) {
        let got = list.get_batch(batch);
        assert!(
            got.iter().all(Option::is_some),
            "get_batch lost a loaded key"
        );
    }
    out.push((
        "core.get_batch.ns_per_key",
        (now_ns() - t0) as f64 / (gets.len() / 64 * 64) as f64,
    ));
    out
}

fn one_round(cx: &Ctx, round: usize, rounds: usize, threads: usize) -> Round {
    let traced = cx.round_is_traced(round);
    let records = cx.records(RECORDS);
    let setup_start = now_ns();

    let table = KeyTable::new(records);
    let traces: Vec<Vec<ReadOp>> = (0..threads)
        .map(|t| {
            read_trace(
                sub_seed(cx.seed, (round * 16 + t) as u64),
                records,
                TRACE_OPS,
            )
        })
        .collect();
    let generate_s = (now_ns() - setup_start) as f64 / 1e9;

    let list = deploy::build_list(
        &ListSpec {
            records,
            keys_per_node: KEYS_PER_NODE,
            pool_words: 1 << 21,
            mode: PersistenceMode::Fast,
        },
        traced,
    );

    // Load by one thread, in record order: the structure a build ends up
    // with then depends on the clock-seeded tower heights only. Loading is
    // this workload's only writing, so its inserts are its write samples.
    let mut samples = Samples::with_capacity(records as usize);
    let mut failed = 0u64;
    for record in 0..records as u32 {
        let t0 = now_ns();
        let prev = Kv::insert(&*list, ycsb::key_of(record as u64), value_of(record));
        samples.write.push(now_ns() - t0);
        failed += prev.is_some() as u64;
    }
    list.sync();

    let go = Barrier::new(threads);
    let warmup = WARMUP_OPS / threads / if cx.quick { 10 } else { 1 };
    let replays = deploy::on_threads(threads, |t| {
        replay(
            &list,
            &table,
            &traces[t],
            warmup,
            cx.window_ns(rounds),
            &go,
            traced,
        )
    });
    let windows = replays.iter().map(|r| (r.start_ns, r.end_ns));
    let mut out = Round {
        pmem_bytes: deploy::pmem_bytes(&list),
        live_keys: records,
        attempted: records,
        failed,
        ..Round::timed(traced, setup_start, windows)
    };
    let mut rec = Recorder::default();
    for r in replays {
        out.ops += r.ops;
        out.attempted += r.ops;
        out.failed += r.failed;
        samples.absorb(r.samples);
        rec.absorb(r.rec);
    }
    out.samples = samples;

    if traced {
        out.layer = core_probes(&list, &traces[0], cx.quick);
        out.layer.push(("ycsb.generate_s", generate_s));
        out.layer.push((
            "pmalloc.chunks_provisioned",
            list.allocator().chunks_provisioned(0) as f64,
        ));
        if let Some(ns) = crate::span::median_self_ns(&rec.spans, "op") {
            out.layer.push(("harness.op_self_ns", ns));
        }
        out.spans = rec.spans;
    }

    // Restart: reconnect a fresh handle and read back every record.
    let restarted = deploy::restart(vec![list], deploy::RESTART_REPS, |lists, t| {
        let mine = (0..records as u32).skip(t).step_by(threads);
        let wrong = mine
            .clone()
            .filter(|&r| Kv::get(&*lists[0], ycsb::key_of(r as u64)) != Some(value_of(r)))
            .count();
        (mine.count() as u64, wrong as u64)
    });
    restarted.record(&mut out);
    out.failed += restarted.wrong;
    out
}

pub fn run(cx: &Ctx) -> (Vec<Round>, Vec<(&'static str, f64)>) {
    let threads = deploy::generator_threads();
    let rounds = cx.rounds(ROUNDS);
    let out: Vec<Round> = (0..rounds)
        .map(|i| one_round(cx, i, rounds, threads))
        .collect();

    // Slow builds are flagged, not averaged away.
    let hops: Vec<f64> = out
        .iter()
        .filter_map(|r| {
            r.layer
                .iter()
                .find(|(n, _)| *n == "core.get.l0_hops")
                .map(|&(_, v)| v)
        })
        .collect();
    let mut extra = Vec::new();
    if !hops.is_empty() {
        let slow = hops.iter().filter(|&&h| h > SLOW_BUILD_L0_HOPS).count();
        extra.push(("core.slow_build_share", slow as f64 / hops.len() as f64));
        extra.push((
            "core.get.l0_hops_max",
            hops.iter().copied().fold(0.0, f64::max),
        ));
    }
    (out, extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_check_wants_exactly_the_next_pairs() {
        let table = KeyTable::new(100);
        let record = table.record_of_rank[10];
        let want: Vec<(u64, u64)> = (10..15)
            .map(|j| (table.keys[j], value_of(table.record_of_rank[j])))
            .collect();
        assert!(scan_is_exact(&table, record, 5, &want));
        assert!(
            !scan_is_exact(&table, record, 5, &want[..4]),
            "a short scan is wrong"
        );
        let mut swapped = want.clone();
        swapped.swap(1, 2);
        assert!(!scan_is_exact(&table, record, 5, &swapped), "order matters");
        // A scan running off the end of the key space returns what is left.
        let last = table.record_of_rank[98];
        let tail: Vec<(u64, u64)> = (98..100)
            .map(|j| (table.keys[j], value_of(table.record_of_rank[j])))
            .collect();
        assert!(scan_is_exact(&table, last, 7, &tail));
    }
}
