//! The write workloads, `list_churn` and `crash_recover`. Both run the
//! same cycle on a bare 16-keys-per-node list, from threads that own
//! disjoint key partitions: insert a fresh key, remove the oldest live
//! key, update a live key, get a live key, and every 16th cycle scan 20
//! keys. A thread is the only writer of its keys, so its private model is
//! exact and every return value is checked against it.
//!
//! * `list_churn` runs it in `Fast` persistence with `sync()` every 64
//!   writes per thread (the stated flush policy): splits, allocation,
//!   flush epochs, tombstones, and — live keys stay constant — space.
//! * `crash_recover` runs it in `Tracked` persistence with `sync()` before
//!   every acknowledgement, loses power after a seeded budget of pmem
//!   operations with a seeded residue, reopens, and reads back every key
//!   it ever touched against the acknowledgement log.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use pmem::{CrashPlan, OpKind, PersistenceMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upskiplist::UpSkipList;

use crate::deploy::{self, Kv, ListSpec, UPDATE_TAG};
use crate::gen::{crash_point, sub_seed};
use crate::round::{Ctx, Round, Samples};
use crate::span::{now_ns, Recorder, NO_PARENT};

const KEYS_PER_NODE: usize = 16;
const SCAN_EVERY: u64 = 16;
const SCAN_LIMIT: usize = 20;
const SPAN_EVERY: u64 = 16;

/// When a thread makes its writes durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    EveryWrites(u64),
    BeforeEveryAck,
}

/// A write that was issued but not yet acknowledged when power was lost:
/// after recovery the key may hold either state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    key: u64,
    before: Option<u64>,
    after: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
enum Write {
    Insert(u64),
    Update(u64),
    Remove,
}

/// One generator thread's seeded operation stream and exact model.
pub struct Churner {
    thread: u64,
    threads: u64,
    rng: StdRng,
    policy: SyncPolicy,
    /// Next unused record index of this partition.
    next_fresh: u64,
    /// Live keys, oldest first.
    live: VecDeque<u64>,
    /// Acknowledged state: live key → value.
    model: BTreeMap<u64, u64>,
    /// Keys whose removal was acknowledged.
    removed: Vec<u64>,
    pending: Option<Pending>,
    version: u64,
    writes_since_sync: u64,
    pub cycles: u64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub samples: Samples,
    /// Per-class op counts, for dividing the per-tag pool counters.
    pub inserts: u64,
    pub updates: u64,
    pub removes: u64,
    pub rec: Option<Recorder>,
}

impl Churner {
    pub fn new(seed: u64, thread: usize, threads: usize, policy: SyncPolicy, traced: bool) -> Self {
        Self {
            thread: thread as u64,
            threads: threads as u64,
            rng: StdRng::seed_from_u64(sub_seed(seed, thread as u64)),
            policy,
            next_fresh: 0,
            live: VecDeque::new(),
            model: BTreeMap::new(),
            removed: Vec::new(),
            pending: None,
            version: 0,
            writes_since_sync: 0,
            cycles: 0,
            ops: 0,
            attempted: 0,
            failed: 0,
            samples: Samples::default(),
            inserts: 0,
            updates: 0,
            removes: 0,
            rec: traced.then(Recorder::default),
        }
    }

    /// Record `index` of this thread's partition. `ycsb::key_of` spreads
    /// the indices over the key space; the residue names the owner.
    fn key(&self, index: u64) -> u64 {
        ycsb::key_of(index) * self.threads + self.thread
    }

    fn owns(&self, key: u64) -> bool {
        key % self.threads == self.thread
    }

    fn next_value(&mut self) -> u64 {
        self.version += 1;
        self.version * self.threads + self.thread
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Issue one write, make it durable as the policy says, then — and
    /// only then — acknowledge it into the model.
    fn write<K: Kv + ?Sized>(&mut self, kv: &K, write: Write, key: u64, parent: u32) {
        let before = self.model.get(&key).copied();
        let (name, after) = match write {
            Write::Insert(v) => ("core.insert", Some(v)),
            Write::Update(v) => ("core.update", Some(v)),
            Write::Remove => ("core.remove", None),
        };
        self.pending = Some(Pending { key, before, after });
        let t0 = now_ns();
        let got = match write {
            Write::Insert(v) => kv.insert(key, v),
            Write::Update(v) => kv.update(key, v),
            Write::Remove => kv.remove(key),
        };
        self.writes_since_sync += 1;
        let due = match self.policy {
            SyncPolicy::EveryWrites(n) => self.writes_since_sync >= n,
            SyncPolicy::BeforeEveryAck => true,
        };
        if due {
            kv.sync();
            self.writes_since_sync = 0;
        }
        let t1 = now_ns();
        self.pending = None;
        match after {
            Some(v) => self.model.insert(key, v),
            None => self.model.remove(&key),
        };
        self.samples.write.push(t1 - t0);
        self.ops += 1;
        self.check(got == before);
        if let (Some(rec), true) = (&mut self.rec, parent != NO_PARENT) {
            rec.push(name, t0, t1, parent, self.cycles);
        }
    }

    /// Load `n` fresh keys (set-up).
    pub fn preload<K: Kv + ?Sized>(&mut self, kv: &K, n: u64) {
        for _ in 0..n {
            let (key, value) = (self.key(self.next_fresh), self.next_value());
            self.next_fresh += 1;
            self.write(kv, Write::Insert(value), key, NO_PARENT);
            self.live.push_back(key);
        }
    }

    /// Run `cycles` cycles of the workload itself before the window, with
    /// every generator thread at once: the list's DRAM index image is built
    /// and has met its first splits and removals, and no processor starts
    /// the window coming out of idle (the box the workloads were sized on
    /// runs a processor at half speed for most of a second after it idled
    /// through another thread's share of the load).
    pub fn warm_up<K: Kv + ?Sized>(&mut self, kv: &K, cycles: u64) {
        let rec = self.rec.take();
        for _ in 0..cycles {
            self.cycle(kv);
        }
        self.rec = rec;
    }

    /// Forget what set-up sampled and counted: the window starts here.
    /// What was checked so far stays checked.
    pub fn start_window(&mut self) {
        self.samples = Samples::with_capacity(1 << 20);
        (self.cycles, self.ops) = (0, 0);
        (self.inserts, self.updates, self.removes) = (0, 0, 0);
    }

    fn pick_live(&mut self) -> u64 {
        self.live[self.rng.gen_range(0..self.live.len())]
    }

    /// One cycle: insert, remove, update, get, and sometimes scan.
    pub fn cycle<K: Kv + ?Sized>(&mut self, kv: &K) {
        self.cycles += 1;
        let cycle_start = now_ns();
        // The cycle span is the harness's share (choosing keys, keeping
        // the model); the calls into the list are its children. Pushed
        // first so the children can name it; its end is patched below.
        let sampled = self.cycles.is_multiple_of(SPAN_EVERY);
        let parent = match (&mut self.rec, sampled) {
            (Some(rec), true) => rec.push("op", cycle_start, cycle_start, NO_PARENT, self.cycles),
            _ => NO_PARENT,
        };

        let (key, value) = (self.key(self.next_fresh), self.next_value());
        self.next_fresh += 1;
        self.write(kv, Write::Insert(value), key, parent);
        self.live.push_back(key);
        self.inserts += 1;

        let oldest = self.live.pop_front().expect("preloaded");
        self.write(kv, Write::Remove, oldest, parent);
        self.removed.push(oldest);
        self.removes += 1;

        let (key, value) = (self.pick_live(), self.next_value());
        self.write(kv, Write::Update(value), key, parent);
        self.updates += 1;

        let key = self.pick_live();
        let t0 = now_ns();
        let got = kv.get(key);
        let t1 = now_ns();
        self.samples.read.push(t1 - t0);
        self.ops += 1;
        self.check(got == self.model.get(&key).copied());
        if let (Some(rec), true) = (&mut self.rec, sampled) {
            rec.push("core.get", t0, t1, parent, self.cycles);
        }

        if self.cycles.is_multiple_of(SCAN_EVERY) {
            let from = self.pick_live();
            let t0 = now_ns();
            let got = kv.scan(from, SCAN_LIMIT);
            let t1 = now_ns();
            self.samples.scan.push(t1 - t0);
            self.ops += 1;
            let ok = self.scan_is_consistent(from, &got);
            self.check(ok);
            if let (Some(rec), true) = (&mut self.rec, sampled) {
                rec.push("core.scan", t0, t1, parent, self.cycles);
            }
        }
        if let (Some(rec), true) = (&mut self.rec, sampled) {
            rec.spans[parent as usize].end_ns = now_ns();
        }
    }

    /// A scan runs beside the other threads' writes, so only this
    /// thread's share of it has an exact answer: ascending keys from
    /// `from`, at most the limit, and — restricted to the keys this thread
    /// owns — exactly the model's pairs over the range the scan covered.
    fn scan_is_consistent(&self, from: u64, got: &[(u64, u64)]) -> bool {
        let ascending = got.windows(2).all(|w| w[0].0 < w[1].0);
        let in_range = got.first().is_none_or(|&(k, _)| k >= from);
        // `from` is live and ours, so the scan cannot come back empty.
        let Some(&(last, _)) = got.last() else {
            return false;
        };
        let covered = if got.len() < SCAN_LIMIT {
            u64::MAX
        } else {
            last
        };
        let mine = got.iter().copied().filter(|&(k, _)| self.owns(k));
        let want = self.model.range(from..=covered).map(|(&k, &v)| (k, v));
        ascending && in_range && got.len() <= SCAN_LIMIT && mine.eq(want)
    }

    /// After a restart: every key this thread ever touched must hold its
    /// acknowledged state — except the one write in flight at the crash,
    /// which may have landed or not. Returns `(checked, wrong)`.
    pub fn read_back<K: Kv + ?Sized>(&self, kv: &K) -> (u64, u64) {
        let mut wrong = 0u64;
        let mut check = |key: u64, acked: Option<u64>| {
            let got = kv.get(key);
            let in_flight = self
                .pending
                .is_some_and(|p| p.key == key && (got == p.before || got == p.after));
            wrong += !(got == acked || in_flight) as u64;
        };
        for (&key, &value) in &self.model {
            check(key, Some(value));
        }
        for &key in &self.removed {
            check(key, None);
        }
        ((self.model.len() + self.removed.len()) as u64, wrong)
    }

    pub fn live_keys(&self) -> u64 {
        self.model.len() as u64
    }
}

/// Fold the threads' counters and samples into a round.
fn collect(out: &mut Round, churners: &mut [Churner]) -> Recorder {
    let mut rec = Recorder::default();
    for c in churners {
        out.ops += c.ops;
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.samples.absorb(std::mem::take(&mut c.samples));
        if let Some(r) = c.rec.take() {
            rec.absorb(r);
        }
    }
    rec
}

/// Restart a list `reps` times and read back every thread's keys; fills
/// the restart and space fields of `out` and returns the number of wrong
/// keys.
fn restart_and_verify(
    list: Arc<UpSkipList>,
    reps: usize,
    churners: &[Churner],
    out: &mut Round,
) -> u64 {
    // Each thread reads back the keys it wrote.
    let restarted = deploy::restart(vec![list], reps, |lists, t| {
        churners[t].read_back(&*lists[0])
    });
    restarted.record(out);
    let list = &restarted.lists[0];
    out.pmem_bytes = deploy::pmem_bytes(list);
    out.live_keys = churners.iter().map(Churner::live_keys).sum();
    if out.traced {
        let chunks = list.allocator().chunks_provisioned(0);
        out.layer
            .push(("pmalloc.chunks_provisioned", chunks as f64));
    }
    // The restarted list must still take writes.
    let probe = u64::MAX - 7;
    let dead = Kv::insert(&**list, probe, 1).is_some() || Kv::get(&**list, probe) != Some(1);
    restarted.wrong + dead as u64
}

/// Per-layer values of a traced window: pool counters by op tag divided
/// by the op counts, structure counters per thousand ops, span medians.
fn window_layers(
    list: &UpSkipList,
    before: (obs::Snapshot, [pmem::StatsSnapshot; pmem::stats::OP_KINDS]),
    churners: &[Churner],
    rec: &Recorder,
) -> Vec<(&'static str, f64)> {
    let reg = deploy::registry_snapshot(list).since(&before.0);
    let pool = list.space().stats_by_op();
    let by = |kind: OpKind| pool[kind as usize].since(&before.1[kind as usize]);
    let sum = |f: fn(&Churner) -> u64| churners.iter().map(f).sum::<u64>().max(1) as f64;
    let (inserts, updates, removes) = (sum(|c| c.inserts), sum(|c| c.updates), sum(|c| c.removes));
    let ops = sum(|c| c.ops);
    let (ins, upd, rem) = (by(OpKind::Insert), by(UPDATE_TAG), by(OpKind::Remove));
    // Fences issued by `sync()` run untagged; they belong to the writes
    // they make durable, in proportion.
    let sync_fences = by(OpKind::Other).fences as f64 / (inserts + updates + removes);
    let allocs = (reg.counter("alloc.fast")
        + reg.counter("alloc.slow")
        + reg.counter("alloc.magazine_hits"))
    .max(1);
    let mut out = vec![
        ("core.insert.pmem_reads", ins.reads as f64 / inserts),
        ("core.insert.flushes", ins.flushes as f64 / inserts),
        (
            "core.insert.fences",
            ins.fences as f64 / inserts + sync_fences,
        ),
        ("core.update.flushes", upd.flushes as f64 / updates),
        (
            "core.update.fences",
            upd.fences as f64 / updates + sync_fences,
        ),
        (
            "core.remove.fences",
            rem.fences as f64 / removes + sync_fences,
        ),
        (
            "core.get.pmem_reads",
            by(OpKind::Get).reads as f64 / sum(|c| c.cycles),
        ),
        (
            "core.splits_per_kinsert",
            reg.counter("list.node_splits") as f64 / inserts * 1e3,
        ),
        (
            "core.cas_retries_per_kop",
            reg.counter("list.cas_retries") as f64 / ops * 1e3,
        ),
        (
            "core.lock_waits_per_kop",
            reg.counter("list.lock_waits") as f64 / ops * 1e3,
        ),
        (
            "pmalloc.magazine_hit_share",
            reg.counter("alloc.magazine_hits") as f64 / allocs as f64,
        ),
    ];
    for (metric, span) in [
        ("core.insert.ns", "core.insert"),
        ("core.update.ns", "core.update"),
        ("core.remove.ns", "core.remove"),
        ("core.get.ns", "core.get"),
        ("harness.op_self_ns", "op"),
    ] {
        if let Some(ns) = crate::span::median_self_ns(&rec.spans, span) {
            out.push((metric, ns));
        }
    }
    out
}

/// One churner per generator thread, each with its partition loaded, for
/// thread `t` to take with [`Loaded::take`].
///
/// The partitions are loaded by the calling thread, one after the other,
/// before the generator threads exist. When each generator thread loaded
/// its own partition, one `list_churn` round in four ran its whole window
/// (and the warm-up before it) two to three times slower; loaded both at
/// once, the load itself took half as long again about as often as not and
/// `setup_s` flipped between two values.
struct Loaded(Vec<Mutex<Option<Churner>>>);

impl Loaded {
    fn new(
        seed: u64,
        threads: usize,
        policy: SyncPolicy,
        traced: bool,
        list: &UpSkipList,
        records: u64,
    ) -> Self {
        let churners = (0..threads).map(|t| {
            let mut c = Churner::new(seed, t, threads, policy, traced);
            c.preload(list, records / threads as u64);
            Mutex::new(Some(c))
        });
        let loaded = Self(churners.collect());
        list.sync();
        loaded
    }

    fn take(&self, t: usize) -> Churner {
        let mut slot = self.0[t].lock().expect("no thread panics holding a slot");
        slot.take().expect("each thread takes its churner once")
    }
}

pub mod list_churn {
    use super::*;

    const RECORDS: u64 = 200_000;
    const ROUNDS: usize = 5;
    const SYNC_EVERY_WRITES: u64 = 64;
    /// Space is sampled when a thread completes this many cycles of its
    /// window (20 000 since the load, with the warm-up), so the reported
    /// footprint belongs to a fixed amount of churn however fast the
    /// window runs.
    const SPACE_AT_CYCLES: u64 = 12_000;
    /// Cycles per thread before the window: most of a second.
    const WARMUP_CYCLES: u64 = 8_000;

    struct Out {
        churner: Churner,
        start_ns: u64,
        end_ns: u64,
        pmem_bytes_at_mark: Option<u64>,
    }

    fn one_round(cx: &Ctx, round: usize, rounds: usize, threads: usize) -> Round {
        let traced = cx.round_is_traced(round);
        let records = cx.records(RECORDS);
        let scale = if cx.quick { 10 } else { 1 };
        let (space_at, warmup) = (SPACE_AT_CYCLES / scale, WARMUP_CYCLES / scale);
        let setup_start = now_ns();
        let list = deploy::build_list(
            &ListSpec {
                records,
                keys_per_node: KEYS_PER_NODE,
                pool_words: 1 << 23,
                mode: PersistenceMode::Fast,
            },
            traced,
        );
        let loaded = Loaded::new(
            sub_seed(cx.seed, 0x1000 + round as u64),
            threads,
            SyncPolicy::EveryWrites(SYNC_EVERY_WRITES),
            traced,
            &list,
            records,
        );
        let go = std::sync::Barrier::new(threads);
        let window_ns = cx.window_ns(rounds);
        let before = std::sync::OnceLock::new();
        let outs = deploy::on_threads(threads, |t| {
            let mut c = loaded.take(t);
            c.warm_up(&*list, warmup);
            if go.wait().is_leader() && traced {
                // Both threads are between the barriers: nothing runs.
                let _ = before.set((deploy::registry_snapshot(&list), list.space().stats_by_op()));
            }
            go.wait();
            c.start_window();
            let start_ns = now_ns();
            let mut pmem_bytes_at_mark = None;
            let end_ns = loop {
                c.cycle(&*list);
                if c.cycles == space_at {
                    pmem_bytes_at_mark = Some(deploy::pmem_bytes(&list));
                }
                let now = now_ns();
                if now - start_ns >= window_ns {
                    break now;
                }
            };
            list.sync();
            Out {
                churner: c,
                start_ns,
                end_ns,
                pmem_bytes_at_mark,
            }
        });
        let windows = outs.iter().map(|o| (o.start_ns, o.end_ns));
        let mut out = Round::timed(traced, setup_start, windows);
        // A window too short to reach the mark reports the footprint it
        // ended with.
        let marked = outs.iter().filter_map(|o| o.pmem_bytes_at_mark).max();
        let mut churners: Vec<Churner> = outs.into_iter().map(|o| o.churner).collect();
        let rec = collect(&mut out, &mut churners);
        if let Some(before) = before.into_inner() {
            out.layer = window_layers(&list, before, &churners, &rec);
            out.spans = rec.spans;
        }
        out.failed += restart_and_verify(list, deploy::RESTART_REPS, &churners, &mut out);
        if let Some(bytes) = marked {
            out.pmem_bytes = bytes;
        }
        out
    }

    pub fn run(cx: &Ctx) -> Vec<Round> {
        let threads = deploy::generator_threads();
        let rounds = cx.rounds(ROUNDS);
        (0..rounds)
            .map(|i| one_round(cx, i, rounds, threads))
            .collect()
    }
}

pub mod crash_recover {
    use super::*;

    const RECORDS: u64 = 50_000;
    /// One trial per second of `--seconds`: about half of a trial is the
    /// run up to the crash, the rest set-up and restart.
    const TRIALS_PER_SECOND: f64 = 1.0;
    /// Mean crash budget in pmem operations (the trial's seeded budget is
    /// uniform within ±10 % of it, so trials do a like amount of work and
    /// the crash still lands at an arbitrary instruction): about a second
    /// of the seed's mixed cycle on the box the workloads were sized on.
    const MEAN_BUDGET_OPS: u64 = 12_000_000;
    /// Cycles per thread before the crash is armed: a third of a second.
    const WARMUP_CYCLES: u64 = 4_000;

    fn one_trial(cx: &Ctx, trial: usize, threads: usize) -> Round {
        let traced = cx.round_is_traced(trial);
        let records = cx.records(RECORDS);
        let scale = if cx.quick { 10 } else { 1 };
        let warmup = WARMUP_CYCLES / scale;
        let point = crash_point(cx.seed, trial as u64, MEAN_BUDGET_OPS / scale);
        let setup_start = now_ns();
        let list = deploy::build_list(
            &ListSpec {
                records,
                keys_per_node: KEYS_PER_NODE,
                pool_words: 1 << 22,
                mode: PersistenceMode::Tracked,
            },
            traced,
        );
        let loaded = Loaded::new(
            sub_seed(cx.seed, 0x2000 + trial as u64),
            threads,
            SyncPolicy::BeforeEveryAck,
            traced,
            &list,
            records,
        );
        let controller = Arc::clone(list.space().pool(0).crash_controller());
        let go = std::sync::Barrier::new(threads);
        let before = std::sync::OnceLock::new();
        let outs = deploy::on_threads(threads, |t| {
            let mut c = loaded.take(t);
            c.warm_up(&*list, warmup);
            if go.wait().is_leader() {
                if traced {
                    let _ =
                        before.set((deploy::registry_snapshot(&list), list.space().stats_by_op()));
                }
                controller.arm_after(point.budget_ops);
            }
            go.wait();
            c.start_window();
            let start_ns = now_ns();
            // Power fails somewhere inside a cycle; the panic unwinds to
            // here with the churner's acknowledgement log intact.
            let crashed = pmem::run_crashable(|| -> () {
                loop {
                    c.cycle(&*list);
                }
            });
            assert!(crashed.is_err(), "the cycle loop only ends by crashing");
            (c, start_ns, now_ns())
        });
        for pool in list.space().pools() {
            pool.simulate_crash_with(CrashPlan::Seeded(point.residue));
        }
        controller.disarm();

        let mut out = Round::timed(traced, setup_start, outs.iter().map(|o| (o.1, o.2)));
        let mut churners: Vec<Churner> = outs.into_iter().map(|o| o.0).collect();
        let rec = collect(&mut out, &mut churners);
        if let Some(before) = before.into_inner() {
            out.layer = window_layers(&list, before, &churners, &rec);
            out.spans = rec.spans;
        }
        // Anything wrong after the restart is an acknowledged write lost
        // (or a removed key resurrected): durability, not a bad response.
        // Restarted once: only the first restart is the one after the crash.
        out.lost_acked = restart_and_verify(list, 1, &churners, &mut out);
        out
    }

    pub fn run(cx: &Ctx) -> Vec<Round> {
        pmem::crash::silence_crash_panics();
        let threads = deploy::generator_threads();
        let trials = cx.rounds(((cx.seconds * TRIALS_PER_SECOND).round() as usize).max(3));
        (0..trials).map(|i| one_trial(cx, i, threads)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A plain map behind the `Kv` trait, logging every call.
    #[derive(Default)]
    struct FakeKv {
        map: Mutex<BTreeMap<u64, u64>>,
        log: Mutex<Vec<String>>,
    }

    impl Kv for FakeKv {
        fn insert(&self, key: u64, value: u64) -> Option<u64> {
            self.log
                .lock()
                .unwrap()
                .push(format!("insert {key} {value}"));
            self.map.lock().unwrap().insert(key, value)
        }
        fn update(&self, key: u64, value: u64) -> Option<u64> {
            self.log
                .lock()
                .unwrap()
                .push(format!("update {key} {value}"));
            self.map.lock().unwrap().insert(key, value)
        }
        fn remove(&self, key: u64) -> Option<u64> {
            self.log.lock().unwrap().push(format!("remove {key}"));
            self.map.lock().unwrap().remove(&key)
        }
        fn get(&self, key: u64) -> Option<u64> {
            self.log.lock().unwrap().push(format!("get {key}"));
            self.map.lock().unwrap().get(&key).copied()
        }
        fn scan(&self, from: u64, limit: usize) -> Vec<(u64, u64)> {
            self.log
                .lock()
                .unwrap()
                .push(format!("scan {from} {limit}"));
            self.map
                .lock()
                .unwrap()
                .range(from..)
                .take(limit)
                .map(|(&k, &v)| (k, v))
                .collect()
        }
        fn sync(&self) {
            self.log.lock().unwrap().push("sync".into());
        }
    }

    fn churn(seed: u64, cycles: usize) -> (Churner, FakeKv) {
        let kv = FakeKv::default();
        let mut c = Churner::new(seed, 1, 2, SyncPolicy::EveryWrites(64), false);
        c.preload(&kv, 500);
        c.start_window();
        for _ in 0..cycles {
            c.cycle(&kv);
        }
        (c, kv)
    }

    #[test]
    fn same_seed_same_operations_other_seed_other_operations() {
        let (a, kv_a) = churn(5, 300);
        let (_, kv_b) = churn(5, 300);
        let (_, kv_c) = churn(6, 300);
        let log = |kv: &FakeKv| kv.log.lock().unwrap().clone();
        assert_eq!(log(&kv_a), log(&kv_b));
        assert_ne!(log(&kv_a), log(&kv_c));
        // Against a correct store nothing fails and the live set is flat.
        assert_eq!(a.failed, 0);
        assert_eq!(a.live_keys(), 500);
        assert_eq!(a.read_back(&kv_a), (500 + 300, 0));
        // 4 ops a cycle plus a scan every 16th; a sync every 64 writes.
        assert_eq!(a.ops, 300 * 4 + 300 / 16);
        let syncs = log(&kv_a).iter().filter(|l| *l == "sync").count();
        assert_eq!(syncs, (500 + 300 * 3) / 64);
    }

    #[test]
    fn a_wrong_answer_is_counted() {
        let (mut c, kv) = churn(5, 10);
        let victim = *c.model.keys().next().unwrap();
        kv.map.lock().unwrap().insert(victim, 0xdead);
        assert_eq!(c.read_back(&kv).1, 1);
        let before = c.failed;
        for _ in 0..2_000 {
            c.cycle(&kv);
        }
        assert!(
            c.failed > before,
            "the corrupted key is hit by a get, update, scan or remove"
        );
    }

    #[test]
    fn the_write_in_flight_at_a_crash_may_go_either_way() {
        let (mut c, kv) = churn(5, 10);
        let (&key, &acked) = c.model.iter().next().unwrap();
        c.pending = Some(Pending {
            key,
            before: Some(acked),
            after: Some(acked + 100),
        });
        assert_eq!(c.read_back(&kv).1, 0, "not applied");
        kv.map.lock().unwrap().insert(key, acked + 100);
        assert_eq!(c.read_back(&kv).1, 0, "applied");
        kv.map.lock().unwrap().insert(key, acked + 1);
        assert_eq!(c.read_back(&kv).1, 1, "neither state");
        // A lost acknowledged write on any other key is never excused.
        let other = *c.model.keys().nth(1).unwrap();
        kv.map.lock().unwrap().remove(&other);
        assert_eq!(c.read_back(&kv).1, 2);
    }

    #[test]
    fn scans_are_checked_on_the_owned_share() {
        let (c, kv) = churn(5, 10);
        let from = *c.model.keys().next().unwrap();
        let mut got = kv.scan(from, SCAN_LIMIT);
        assert!(c.scan_is_consistent(from, &got));
        // Another thread's key in between is tolerated whatever its value.
        let foreign = got[0].0 + 1;
        assert!(!c.owns(foreign));
        got.insert(1, (foreign, 77));
        got.truncate(SCAN_LIMIT);
        assert!(c.scan_is_consistent(from, &got));
        // A missing or stale owned key is not.
        let mut missing = kv.scan(from, SCAN_LIMIT);
        missing.remove(3);
        assert!(!c.scan_is_consistent(from, &missing));
        let mut stale = kv.scan(from, SCAN_LIMIT);
        stale[2].1 += 1;
        assert!(!c.scan_is_consistent(from, &stale));
        let mut unordered = kv.scan(from, SCAN_LIMIT);
        unordered.swap(4, 5);
        assert!(!c.scan_is_consistent(from, &unordered));
    }
}
