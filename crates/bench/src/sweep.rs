//! E12 — systematic crash-residue sweeps with crash-during-recovery.
//!
//! The thesis's correctness argument (§6.1.2) is that every acknowledged
//! operation survives a power failure in which each dirty cache line
//! independently may or may not have reached PMEM. This module tests that
//! claim *systematically* instead of at hand-picked countdowns: for each
//! subject structure it walks a grid of
//!
//! ```text
//! crash point (every k-th pmem op)  ×  workload seed  ×  residue policy
//! ```
//!
//! states. Each state runs a deterministic single-threaded workload,
//! crashes it after exactly `crash_after` pmem operations, applies the
//! [`CrashPlan`] residue to every pool, *optionally crashes again in the
//! middle of recovery* (the nested point is derived from the tuple), then
//! recovers fully and verifies:
//!
//! * **acked durability** — every operation that returned before the crash
//!   is visible; the single in-flight operation may surface as either its
//!   pre- or post-state, nothing else;
//! * **structural invariants** — `check_invariants` (skip list), free-list
//!   soundness (pmalloc), all-or-nothing target words (pmwcas), pair
//!   atomicity (pmemtx);
//! * **recovery idempotence** — recovery is run once more after
//!   verification and must change nothing.
//!
//! A failing state prints the one-line repro tuple
//! `(crash_after, seed, policy)` after shrinking `crash_after` with
//! [`lincheck::minimize_crash_point`].

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use lincheck::{minimize_crash_point, ReproTuple};
use pmem::pool::PoolConfig;
use pmem::{
    run_crashable, CrashController, CrashPlan, EpochCrashPoint, ObsLevel, PersistenceMode,
    PmCheckLevel, Pool,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use riv::RivPtr;
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

/// A structure that can be crash-swept: it owns a simulated machine (pools
/// and controller), runs a deterministic workload that records what was
/// acknowledged, recovers after a power failure, and self-verifies.
///
/// `workload` and `recover` are run under crash injection and may unwind
/// with [`pmem::Crashed`]; `recover` must be idempotent — it is invoked
/// again after nested crashes and once more after verification.
/// `verify` runs on a quiesced, recovered machine and panics on violation.
pub trait CrashSubject {
    fn controller(&self) -> Arc<CrashController>;
    fn pools(&self) -> Vec<Arc<Pool>>;
    fn workload(&mut self);
    fn recover(&mut self);
    fn verify(&mut self);
    /// Full nodes the subject reclaimed in place of a split so far (the
    /// skip list's `list.node_purges`; 0 for every other subject).
    fn purges(&self) -> u64 {
        0
    }
    /// Leases the subject's allocator completed so far (the allocator
    /// subjects only; 0 for every other subject).
    fn leases(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Subjects
// ---------------------------------------------------------------------------

/// UPSkipList under a mixed insert/remove/read workload, then a fresh-key
/// churn phase.
pub struct SkipListSubject {
    list: Arc<UpSkipList>,
    seed: u64,
    ops: u64,
    keyspace: u64,
    keys_per_node: usize,
    next_val: u64,
    /// The churn phase's next key: above the keyspace, never used before.
    next_fresh: u64,
    /// Acknowledged state: key → last acked value.
    model: BTreeMap<u64, u64>,
    /// The operation in flight at the crash, if any: `(key, Some(v))` for
    /// an insert of `v`, `(key, None)` for a remove.
    inflight: Option<(u64, Option<u64>)>,
    /// `--crash-in-epoch`: arm a one-shot crash at this flush-epoch
    /// boundary once the workload reaches op index `.1` — the crash then
    /// fires inside the *next* fresh-node insert's prepare window.
    epoch_crash: Option<(EpochCrashPoint, u64)>,
}

impl SkipListSubject {
    /// The standard subject: 8 keys per node.
    pub fn new(seed: u64, ops: u64) -> Self {
        Self::with_node_size(seed, ops, 8)
    }

    /// The subject at `keys_per_node` keys per node, its keyspace scaled
    /// along (six nodes' worth) so the workload keeps splitting nodes. At
    /// more than 32 keys per node the list carries in-node tags, and
    /// inserts take the single-stream path: the crash points then land
    /// between its slot-claim persist and its value persist too.
    pub fn with_node_size(seed: u64, ops: u64, keys_per_node: usize) -> Self {
        let list = ListBuilder {
            list: ListConfig::new(10, keys_per_node),
            pool_words: 1 << 17,
            mode: PersistenceMode::Tracked,
            num_arenas: 2,
            blocks_per_chunk: 32,
            obs: ObsLevel::Counters,
            ..Default::default()
        }
        .create();
        let mut s = Self {
            list,
            seed,
            ops,
            keyspace: 6 * keys_per_node as u64,
            keys_per_node,
            next_val: 1,
            next_fresh: 6 * keys_per_node as u64 + 1,
            model: BTreeMap::new(),
            inflight: None,
            epoch_crash: None,
        };
        // Prepopulate half the keyspace (acked + durable by protocol)
        // so early crash points land on updates and splits, not only on
        // first-time inserts into an empty list.
        for k in (2..=s.keyspace).step_by(4) {
            let v = s.next_val;
            s.next_val += 1;
            s.list.insert(k, v);
            s.model.insert(k, v);
        }
        // Ack boundary: the deferred publish lines of the prepopulated
        // inserts must be fenced before they count as durable-by-protocol,
        // or a DropAll crash early in the workload would shed them.
        s.list.sync();
        s
    }

    /// Arm a one-shot [`EpochCrashPoint`] once the workload reaches op
    /// index `at_op` (see [`run_epoch_point`]).
    pub fn with_epoch_crash(mut self, point: EpochCrashPoint, at_op: u64) -> Self {
        self.epoch_crash = Some((point, at_op));
        self
    }
}

impl CrashSubject for SkipListSubject {
    fn controller(&self) -> Arc<CrashController> {
        Arc::clone(self.list.space().pools()[0].crash_controller())
    }

    fn pools(&self) -> Vec<Arc<Pool>> {
        self.list.space().pools().to_vec()
    }

    fn workload(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for i in 0..self.ops {
            if let Some((point, at_op)) = self.epoch_crash {
                if i == at_op {
                    pmem::arm_epoch_crash(point);
                }
            }
            let key = rng.gen_range(1..=self.keyspace);
            let roll = rng.gen_range(0..100u32);
            // Mutations ack only at the `sync()` fence: the publish link
            // is flush-deferred under the fence-diet insert, so an op is
            // "acked + durable" (model-visible) only once the thread's
            // pending lines are fenced. Crashing between the CAS and the
            // sync leaves the op in-flight — either outcome verifies.
            if roll < 65 {
                let v = self.next_val;
                self.next_val += 1;
                self.inflight = Some((key, Some(v)));
                self.list.insert(key, v);
                self.list.sync();
                self.model.insert(key, v);
            } else if roll < 85 {
                self.inflight = Some((key, None));
                self.list.remove(key);
                self.list.sync();
                self.model.remove(&key);
            } else {
                let got = self.list.get(key);
                assert_eq!(
                    got,
                    self.model.get(&key).copied(),
                    "pre-crash read of key {key} disagrees with the model"
                );
            }
            self.inflight = None;
        }
        // Fresh-key churn: insert keys nothing used before and remove the
        // oldest live one. The random upserts above revive tombstones in
        // place; only a fresh key needs a free slot, so only this phase
        // fills nodes that hold removed keys and lands crash points inside
        // purges (a full node reclaiming those keys' slots).
        let mut live = VecDeque::new();
        for _ in 0..3 * self.keys_per_node {
            let (key, v) = (self.next_fresh, self.next_val);
            self.next_fresh += 1;
            self.next_val += 1;
            self.inflight = Some((key, Some(v)));
            self.list.insert(key, v);
            self.list.sync();
            self.model.insert(key, v);
            live.push_back(key);
            if live.len() > self.keys_per_node / 2 {
                let oldest = live.pop_front().expect("window is non-empty");
                self.inflight = Some((oldest, None));
                self.list.remove(oldest);
                self.list.sync();
                self.model.remove(&oldest);
            }
            self.inflight = None;
        }
    }

    fn recover(&mut self) {
        self.list.recover();
        // Eager recovery does real pmem work over every node — exactly
        // where nested crash points need to land.
        self.list.recover_eagerly();
    }

    fn verify(&mut self) {
        self.list.check_invariants();
        for key in 1..self.next_fresh {
            let got = self.list.get(key);
            let acked = self.model.get(&key).copied();
            match self.inflight {
                Some((k, post)) if k == key => assert!(
                    got == acked || got == post,
                    "key {key}: {got:?} is neither the acked {acked:?} nor \
                     the in-flight {post:?}"
                ),
                _ => assert_eq!(
                    got, acked,
                    "key {key}: acked value not durable after recovery"
                ),
            }
        }
    }

    fn purges(&self) -> u64 {
        self.list.struct_metrics().node_purges
    }
}

/// pmalloc under an alloc/free workload; verifies free-list soundness
/// (no cycles, no double links, only `KIND_FREE` blocks) after log replay.
pub struct AllocSubject {
    alloc: pmalloc::Allocator,
    seed: u64,
    ops: u64,
    epoch: u64,
    held: Vec<RivPtr>,
}

impl AllocSubject {
    /// One-block leases (`AllocConfig::small`): every allocation logs and
    /// pops on its own, the thesis's per-pop protocol.
    pub fn new(seed: u64, ops: u64) -> Self {
        Self::build(seed, ops, pmalloc::AllocConfig::small())
    }

    /// 8-block leases: the same workload runs through the per-thread
    /// magazine and free outbox, so evenly spread crash points land inside
    /// lease acquisition (log write, multi-pop CAS, stamping),
    /// mid-magazine (between leases), and outbox flushes.
    pub fn with_magazine(seed: u64, ops: u64) -> Self {
        Self::build(seed, ops, pmalloc::AllocConfig::small_magazine(8))
    }

    fn build(seed: u64, ops: u64, cfg: pmalloc::AllocConfig) -> Self {
        let layout = pmalloc::PoolLayout::for_config(&cfg);
        let words = layout.required_pool_words(&cfg, cfg.max_chunks as u64);
        let pool = Pool::new(PoolConfig::tracked(words), Arc::new(CrashController::new()));
        let space = Arc::new(riv::RivSpace::new(
            vec![pool],
            layout.chunk_table_off,
            cfg.max_chunks,
        ));
        let alloc = pmalloc::Allocator::new(space, cfg);
        alloc.format(1);
        Self {
            alloc,
            seed,
            ops,
            epoch: 1,
            held: Vec::new(),
        }
    }
}

impl CrashSubject for AllocSubject {
    fn controller(&self) -> Arc<CrashController> {
        Arc::clone(self.alloc.space().pools()[0].crash_controller())
    }

    fn pools(&self) -> Vec<Arc<Pool>> {
        self.alloc.space().pools().to_vec()
    }

    fn leases(&self) -> u64 {
        self.alloc.counters().leases
    }

    fn workload(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for i in 0..self.ops {
            if self.held.is_empty() || rng.gen_range(0..3u32) < 2 {
                let b = self
                    .alloc
                    .alloc(self.epoch, 0, RivPtr::NULL, i + 1, &pmalloc::NoNav);
                self.held.push(b);
            } else {
                let idx = rng.gen_range(0..self.held.len());
                let b = self.held.swap_remove(idx);
                // Batches through the outbox (one block per flush at M = 1).
                self.alloc.free_deferred(self.epoch, 0, b);
            }
        }
    }

    fn recover(&mut self) {
        // Blocks held across the crash are gone (nothing references them
        // under `NoNav`); pmalloc's recovery is *lazy* — the stale log is
        // validated on the owning thread's next allocation — so drive one
        // alloc/free in the new epoch to force replay. Each retry after a
        // nested crash bumps the epoch again, exactly like a re-restart.
        // The crash also destroyed DRAM: discard magazines and outboxes
        // (their blocks are reclaimed by stale-lease validation or leak
        // within the documented bound).
        self.alloc.discard_thread_caches();
        self.held.clear();
        self.epoch += 1;
        let b = self
            .alloc
            .alloc(self.epoch, 0, RivPtr::NULL, u64::MAX, &pmalloc::NoNav);
        self.alloc.free(self.epoch, 0, b);
    }

    fn verify(&mut self) {
        // Return any magazine/outbox blocks the recovery allocs parked in
        // DRAM so the free-list walk (and the listed-block assertion on the
        // probe alloc below) sees every reachable block.
        self.alloc.drain_thread_cache(self.epoch);
        // Walk every arena free list by hand: bounded, acyclic, no block
        // linked twice (a double link would hand one block to two callers),
        // and every listed block marked KIND_FREE.
        let cfg = self.alloc.config();
        let layout = self.alloc.layout();
        let space = self.alloc.space();
        let pool = &space.pools()[0];
        let capacity = self.alloc.chunks_provisioned(0) * cfg.blocks_per_chunk;
        let mut seen = std::collections::HashSet::new();
        for arena in 0..cfg.num_arenas {
            let mut cur = RivPtr::from_raw(pool.read(layout.arena_head(arena)));
            let mut walked = 0u64;
            while !cur.is_null() {
                walked += 1;
                assert!(
                    walked <= capacity + 1,
                    "arena {arena}: free list longer than every block ever \
                     carved — cycle or duplicate link"
                );
                assert!(
                    seen.insert(cur.raw()),
                    "block {cur:?} linked into two free lists"
                );
                assert_eq!(
                    space.read(cur.add(pmalloc::BLK_KIND as u32)),
                    pmalloc::KIND_FREE,
                    "non-free block {cur:?} sitting in arena {arena}'s list"
                );
                cur = RivPtr::from_raw(space.read(cur.add(pmalloc::BLK_NEXT_FREE as u32)));
            }
            assert!(walked >= 1, "arena {arena} lost its terminal block");
        }
        assert!(
            (seen.len() as u64) <= capacity,
            "more free blocks than were ever carved"
        );
        // The allocator must still be usable: a fresh alloc comes off a
        // free list and can be returned.
        let b = self
            .alloc
            .alloc(self.epoch, 0, RivPtr::NULL, u64::MAX - 1, &pmalloc::NoNav);
        assert!(seen.contains(&b.raw()), "alloc returned an unlisted block");
        self.alloc.free(self.epoch, 0, b);
    }
}

/// pmwcas over two target words; verifies all-or-nothing visibility of the
/// acked history after descriptor recovery.
pub struct PmwcasSubject {
    dp: pmwcas::DescriptorPool,
    seed: u64,
    ops: u64,
    next_val: u64,
    /// Acked values of the two target words.
    model: (u64, u64),
    inflight: Option<(u64, u64)>,
}

const MW_A: u64 = 100;
const MW_B: u64 = 200;

impl PmwcasSubject {
    pub fn new(seed: u64, ops: u64) -> Self {
        let pool = Pool::new(
            PoolConfig::tracked(1 << 14),
            Arc::new(CrashController::new()),
        );
        let dp = pmwcas::DescriptorPool::new(Arc::clone(&pool), 4096, 8);
        pool.write(MW_A, 1);
        pool.write(MW_B, 2);
        pool.mark_all_persisted();
        Self {
            dp,
            seed,
            ops,
            next_val: 10,
            model: (1, 2),
            inflight: None,
        }
    }
}

impl CrashSubject for PmwcasSubject {
    fn controller(&self) -> Arc<CrashController> {
        Arc::clone(self.dp.pool().crash_controller())
    }

    fn pools(&self) -> Vec<Arc<Pool>> {
        vec![Arc::clone(self.dp.pool())]
    }

    fn workload(&mut self) {
        // The seed varies the op count parity and value stream so different
        // seeds crash inside different descriptor phases.
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.ops {
            let (a, b) = self.model;
            let na = self.next_val + rng.gen_range(0..3u64);
            let nb = na + 1;
            self.next_val = nb + 1;
            self.inflight = Some((na, nb));
            let ok = self.dp.pmwcas(&[(MW_A, a, na), (MW_B, b, nb)]);
            assert!(ok, "single-threaded pmwcas with correct olds must win");
            self.model = (na, nb);
            self.inflight = None;
        }
    }

    fn recover(&mut self) {
        self.dp.recover();
    }

    fn verify(&mut self) {
        let a = self.dp.read(MW_A);
        let b = self.dp.read(MW_B);
        let acked_ok = (a, b) == self.model;
        let inflight_ok = self.inflight.is_some_and(|nv| (a, b) == nv);
        assert!(
            acked_ok || inflight_ok,
            "torn pmwcas state after recovery: read {:?}, acked {:?}, \
             in-flight {:?}",
            (a, b),
            self.model,
            self.inflight
        );
    }
}

/// pmemtx transactions writing two-word pairs; verifies pair atomicity and
/// acked durability after undo-log rollback.
pub struct TxSubject {
    heap: pmemtx::TxHeap,
    obj: u64,
    seed: u64,
    ops: u64,
    next_val: u64,
    model: [u64; TX_PAIRS],
    inflight: Option<(usize, u64)>,
}

const TX_PAIRS: usize = 4;

impl TxSubject {
    pub fn new(seed: u64, ops: u64) -> Self {
        let words = pmemtx::TxHeap::overhead_words(8) + (1 << 12);
        let pool = Pool::new(PoolConfig::tracked(words), Arc::new(CrashController::new()));
        let heap = pmemtx::TxHeap::new(pool, 8);
        heap.format();
        let mut tx = heap.begin();
        let obj = tx.alloc(2 * TX_PAIRS as u64);
        for i in 0..TX_PAIRS as u64 {
            tx.set(obj + 2 * i, i + 1);
            tx.set(obj + 2 * i + 1, i + 1);
        }
        tx.commit();
        heap.pool().mark_all_persisted();
        Self {
            heap,
            obj,
            seed,
            ops,
            next_val: 100,
            model: [1, 2, 3, 4],
            inflight: None,
        }
    }
}

impl CrashSubject for TxSubject {
    fn controller(&self) -> Arc<CrashController> {
        Arc::clone(self.heap.pool().crash_controller())
    }

    fn pools(&self) -> Vec<Arc<Pool>> {
        vec![Arc::clone(self.heap.pool())]
    }

    fn workload(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.ops {
            let pair = rng.gen_range(0..TX_PAIRS);
            let v = self.next_val;
            self.next_val += 1;
            self.inflight = Some((pair, v));
            let mut tx = self.heap.begin();
            tx.set(self.obj + 2 * pair as u64, v);
            tx.set(self.obj + 2 * pair as u64 + 1, v);
            tx.commit();
            self.model[pair] = v;
            self.inflight = None;
        }
    }

    fn recover(&mut self) {
        self.heap.recover();
    }

    fn verify(&mut self) {
        for (i, &acked) in self.model.iter().enumerate() {
            let x = self.heap.read(self.obj + 2 * i as u64);
            let y = self.heap.read(self.obj + 2 * i as u64 + 1);
            assert_eq!(
                x, y,
                "pair {i} torn after recovery: ({x}, {y}) — undo log failed"
            );
            let inflight_ok = self.inflight.is_some_and(|(p, v)| p == i && x == v);
            assert!(
                x == acked || inflight_ok,
                "pair {i}: {x} is neither acked {acked} nor in-flight \
                 {:?}",
                self.inflight
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// splitmix64 finalizer — derives the nested crash-during-recovery point
/// deterministically from the repro tuple.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Outcome of one stage run under crash injection.
enum Stage {
    Completed,
    Crashed,
}

/// Run `f` converting a `Crashed` unwind into [`Stage::Crashed`] (with the
/// thread's pending flushes handed off to the unfenced registry) and any
/// other panic into `Err` with its message — a sweep records failures and
/// moves on instead of aborting.
fn stage(f: impl FnOnce()) -> Result<Stage, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_crashable(f))) {
        Ok(Ok(())) => Ok(Stage::Completed),
        Ok(Err(_)) => Ok(Stage::Crashed),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())),
    }
}

/// Power-fail every pool with `plan` and reset the driver thread's own
/// pending list (its unfenced lines were already counted as residue).
fn power_fail<S: CrashSubject>(s: &S, plan: CrashPlan) {
    for pool in s.pools() {
        pool.simulate_crash_with(plan);
    }
    pmem::discard_pending();
}

thread_local! {
    /// Advisory pmcheck findings (PMD02/PMD03) tallied by `run_point` on
    /// this driver thread; drained into [`SweepOutcome::advisories`].
    static ADVISORIES: Cell<u64> = const { Cell::new(0) };
    /// Subject purges tallied the same way; drained into
    /// [`SweepOutcome::purges`].
    static PURGES: Cell<u64> = const { Cell::new(0) };
    /// Subject leases, drained into [`SweepOutcome::leases`].
    static LEASES: Cell<u64> = const { Cell::new(0) };
}

/// Run one sweep state to completion. Returns `Err(reason)` on any
/// verification failure or unexpected panic.
///
/// With `pmcheck` the dynamic persist-ordering detector runs in
/// [`PmCheckLevel::Track`] over the whole state — workload, injected
/// crashes, nested recovery, verification — and its findings are drained
/// at the end regardless of how the state finished, so every PMD01 is
/// cross-checked against the injected-crash verdict for the *same* state:
/// a violation alongside a verify failure confirms the detector caught the
/// cause; a violation on a passing state is a latent ordering bug that the
/// sampled residue happened not to expose. Both fail the state. Advisory
/// findings (redundant fences, reads of never-durable residue) are only
/// tallied.
pub fn run_point<S: CrashSubject>(
    mk: &dyn Fn(u64) -> S,
    crash_after: u64,
    seed: u64,
    plan: CrashPlan,
    nested: bool,
    pmcheck: bool,
) -> Result<(), String> {
    let mut s = mk(seed);
    if pmcheck {
        pmem::check::reset_thread();
        for pool in s.pools() {
            pool.set_check_level(PmCheckLevel::Track);
        }
    }
    let result = drive_point(&mut s, crash_after, seed, plan, nested);
    PURGES.with(|p| p.set(p.get() + s.purges()));
    LEASES.with(|l| l.set(l.get() + s.leases()));
    if !pmcheck {
        return result;
    }
    let mut violations = Vec::new();
    let mut advisories = 0u64;
    for pool in s.pools() {
        for f in pool.take_check_findings() {
            if f.rule.is_violation() {
                violations.push(f.to_string());
            } else {
                advisories += 1;
            }
        }
    }
    ADVISORIES.with(|a| a.set(a.get() + advisories));
    if violations.is_empty() {
        return result;
    }
    let list = violations.join("; ");
    Err(match result {
        Err(e) => format!("{e} [pmcheck confirms: {list}]"),
        Ok(()) => format!(
            "pmcheck: {} ordering violation(s) on a state that verified clean \
             (latent bug the sampled residue missed): {list}",
            violations.len()
        ),
    })
}

fn drive_point<S: CrashSubject>(
    s: &mut S,
    crash_after: u64,
    seed: u64,
    plan: CrashPlan,
    nested: bool,
) -> Result<(), String> {
    let ctl = s.controller();

    ctl.arm_after(crash_after);
    let first = stage(|| s.workload()).map_err(|e| format!("workload: {e}"))?;
    ctl.disarm();
    power_fail(s, plan);

    if nested {
        // Crash again *inside* recovery, at a point derived from the tuple,
        // then power-fail with the same residue policy. Recovery must be
        // idempotent: the retry below has to finish the job.
        let j = 1 + mix64(seed ^ crash_after.wrapping_mul(0x9e37)) % 400;
        ctl.arm_after(j);
        let r = stage(|| s.recover()).map_err(|e| format!("nested recovery: {e}"))?;
        ctl.disarm();
        if matches!(r, Stage::Crashed) {
            power_fail(s, plan);
        }
    }

    match stage(|| s.recover()).map_err(|e| format!("recovery: {e}"))? {
        Stage::Completed => {}
        Stage::Crashed => return Err("recovery crashed with the controller disarmed".into()),
    }
    stage(|| s.verify()).map_err(|e| format!("verify: {e}"))?;

    // Recovery idempotence: recovering an already-recovered machine must
    // not disturb the verified state.
    stage(|| s.recover()).map_err(|e| format!("re-recovery: {e}"))?;
    stage(|| s.verify()).map_err(|e| format!("verify after re-recovery: {e}"))?;

    let _ = first;
    Ok(())
}

/// One `--crash-in-epoch` state: run the skip-list workload with a
/// one-shot [`EpochCrashPoint`] armed at op index `arm_at` (the countdown
/// controller stays disarmed), so the next fresh-node insert dies either
/// mid-prepare (`PreSweep`: CLWBs issued, *nothing* durable by fence) or
/// between the coalesced sweep and the publish CAS (`PostSweep`: the
/// prepared node durable but unpublished). Either way the crash lands
/// before the publish, so recovery must surface no trace of the op:
/// every key reads exactly its acked value — the prepared node is
/// unreachable — invariants hold, and a post-recovery probe insert proves
/// the allocator reclaimed the prepared node's lease and still serves.
/// Returns whether the armed point actually fired (`false` when no
/// fresh-node insert followed `arm_at`).
pub fn run_epoch_point(
    seed: u64,
    ops: u64,
    keys_per_node: usize,
    arm_at: u64,
    point: EpochCrashPoint,
    plan: CrashPlan,
) -> Result<bool, String> {
    let mut s =
        SkipListSubject::with_node_size(seed, ops, keys_per_node).with_epoch_crash(point, arm_at);
    let first = stage(|| s.workload()).map_err(|e| format!("workload: {e}"))?;
    pmem::disarm_epoch_crash();
    let fired = matches!(first, Stage::Crashed);
    power_fail(&s, plan);

    // The crash (when it fired) died before the publish CAS: drop the
    // usual in-flight tolerance — the op's post-state must NOT be visible.
    s.inflight = None;

    match stage(|| s.recover()).map_err(|e| format!("recovery: {e}"))? {
        Stage::Completed => {}
        Stage::Crashed => return Err("recovery crashed with nothing armed".into()),
    }
    stage(|| s.verify()).map_err(|e| format!("verify: {e}"))?;

    // Reclamation probe: a fresh insert must come out of the recovered
    // allocator and be durably readable — the prepared-but-unpublished
    // node did not wedge a lease or corrupt a free list.
    stage(|| {
        let key = 1 + seed % s.keyspace;
        let v = s.next_val;
        s.next_val += 1;
        s.list.insert(key, v);
        s.list.sync();
        s.model.insert(key, v);
        assert_eq!(s.list.get(key), Some(v), "probe insert not visible");
    })
    .map_err(|e| format!("post-recovery probe: {e}"))?;

    stage(|| s.recover()).map_err(|e| format!("re-recovery: {e}"))?;
    stage(|| s.verify()).map_err(|e| format!("verify after re-recovery: {e}"))?;
    PURGES.with(|p| p.set(p.get() + s.purges()));
    Ok(fired)
}

/// Measure how many pmem operations `mk(seed)`'s workload performs by
/// arming far beyond it and reading back the unconsumed budget.
pub fn calibrate<S: CrashSubject>(mk: &dyn Fn(u64) -> S, seed: u64) -> u64 {
    const BIG: u64 = 1 << 40;
    let mut s = mk(seed);
    let ctl = s.controller();
    ctl.arm_after(BIG);
    s.workload();
    let left = ctl
        .armed_remaining()
        .expect("calibration must not trip the controller");
    ctl.disarm();
    pmem::sfence();
    BIG - left
}

/// Sweep configuration: crash points are spread evenly over the measured
/// workload length, per seed.
pub struct SweepConfig {
    pub points: usize,
    pub seeds: Vec<u64>,
    pub plans: Vec<CrashPlan>,
    pub nested: bool,
    /// Workload operations per state.
    pub ops: u64,
    /// Run the dynamic persist-ordering detector (`PmCheckLevel::Track`)
    /// over every state; PMD01 violations fail the state, advisories are
    /// tallied into [`SweepOutcome::advisories`].
    pub pmcheck: bool,
}

/// Result of sweeping one subject.
pub struct SweepOutcome {
    pub name: &'static str,
    /// Distinct (crash-point × seed × policy) states explored.
    pub states: u64,
    /// States whose armed crash actually fired. Equals `states` for
    /// countdown sweeps (crash points are calibrated inside the workload);
    /// for epoch-boundary sweeps a state can arm past the last fresh-node
    /// insert and complete uncrashed.
    pub fired: u64,
    /// One repro line per failing state (already minimized).
    pub failures: Vec<String>,
    /// Advisory pmcheck findings (PMD02 redundant fences, PMD03 reads of
    /// never-durable residue) across all states; zero with pmcheck off.
    pub advisories: u64,
    /// Node purges the subject ran across all states (skip list only): a
    /// sweep with none never crashed inside one.
    pub purges: u64,
    /// Leases the subject completed across all states (allocator subjects
    /// only): a sweep with none never crashed inside the lease path.
    pub leases: u64,
}

/// Walk the full grid for one subject; failing states are minimized and
/// reported as `(crash_after, seed, policy)` repro tuples.
pub fn sweep<S: CrashSubject>(
    name: &'static str,
    mk: &dyn Fn(u64) -> S,
    cfg: &SweepConfig,
) -> SweepOutcome {
    let mut out = SweepOutcome {
        name,
        states: 0,
        fired: 0,
        failures: Vec::new(),
        advisories: 0,
        purges: 0,
        leases: 0,
    };
    ADVISORIES.with(|a| a.set(0));
    PURGES.with(|p| p.set(0));
    LEASES.with(|l| l.set(0));
    for &seed in &cfg.seeds {
        let total = calibrate(mk, seed);
        let step = (total / (cfg.points as u64 + 1)).max(1);
        for i in 1..=cfg.points as u64 {
            let crash_after = step * i;
            for &plan in &cfg.plans {
                out.states += 1;
                if let Err(msg) = run_point(mk, crash_after, seed, plan, cfg.nested, cfg.pmcheck) {
                    let min = minimize_crash_point(
                        |k| run_point(mk, k, seed, plan, cfg.nested, cfg.pmcheck).is_err(),
                        crash_after,
                    );
                    let repro = ReproTuple {
                        crash_after: min,
                        seed,
                        policy: plan,
                    };
                    let line = format!("{name}: FAIL {repro}: {msg}");
                    eprintln!("{line}");
                    out.failures.push(line);
                }
            }
        }
    }
    out.advisories = ADVISORIES.with(|a| a.take());
    out.purges = PURGES.with(|p| p.take());
    out.leases = LEASES.with(|l| l.take());
    out.fired = out.states;
    out
}

/// Walk the `--crash-in-epoch` grid for the skip-list subject:
/// arm-op position × seed × residue policy × {`PreSweep`, `PostSweep`}.
/// Fresh-node inserts are a fraction of the mixed workload, so a state
/// whose arm point lands after the last one simply completes — the
/// outcome's `fired` counts how many states actually crashed at an epoch
/// boundary (callers asserting coverage should check it is non-zero).
pub fn sweep_epoch_points(cfg: &SweepConfig, keys_per_node: usize) -> SweepOutcome {
    let mut out = SweepOutcome {
        name: "upskiplist-epoch",
        states: 0,
        fired: 0,
        failures: Vec::new(),
        advisories: 0,
        purges: 0,
        leases: 0,
    };
    PURGES.with(|p| p.set(0));
    let step = (cfg.ops / (cfg.points as u64 + 1)).max(1);
    for &seed in &cfg.seeds {
        for i in 0..cfg.points as u64 {
            // Include 0 so one position crashes the first fresh-node
            // insert of the workload.
            let arm_at = step * i;
            for point in [EpochCrashPoint::PreSweep, EpochCrashPoint::PostSweep] {
                for &plan in &cfg.plans {
                    out.states += 1;
                    match run_epoch_point(seed, cfg.ops, keys_per_node, arm_at, point, plan) {
                        Ok(true) => out.fired += 1,
                        Ok(false) => {}
                        Err(msg) => {
                            let line = format!(
                                "upskiplist-epoch: FAIL (arm_at={arm_at}, seed={seed}, \
                                 point={point:?}, policy={plan:?}): {msg}"
                            );
                            eprintln!("{line}");
                            out.failures.push(line);
                        }
                    }
                }
            }
        }
    }
    out.purges = PURGES.with(|p| p.take());
    out
}

/// The standard residue-policy set: both deterministic extremes, the
/// unfenced frontier, and `extra_seeds` seeded coins.
pub fn standard_plans(extra_seeds: u64) -> Vec<CrashPlan> {
    let mut plans = vec![
        CrashPlan::DropAll,
        CrashPlan::KeepAll,
        CrashPlan::KeepUnfencedOnly,
    ];
    for s in 0..extra_seeds {
        plans.push(CrashPlan::Seeded(0xE12_0000 + s));
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepConfig {
        SweepConfig {
            points: 3,
            seeds: vec![1],
            plans: standard_plans(1),
            nested: true,
            ops: 24,
            pmcheck: false,
        }
    }

    #[test]
    fn skiplist_sweep_smoke() {
        pmem::crash::silence_crash_panics();
        let cfg = quick();
        let ops = cfg.ops;
        let out = sweep("upskiplist", &|seed| SkipListSubject::new(seed, ops), &cfg);
        assert_eq!(out.states, 12);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.purges > 0, "the churn phase never purged a node");
    }

    /// `--crash-in-epoch` smoke: both epoch boundaries, every residue
    /// policy. At least one state must actually fire its point (arm_at=0
    /// catches the first fresh-node insert), or the sweep proves nothing.
    #[test]
    fn skiplist_epoch_crash_sweep_smoke() {
        pmem::crash::silence_crash_panics();
        let cfg = quick();
        let out = sweep_epoch_points(&cfg, 8);
        assert_eq!(out.states, 24); // 3 arm points × 2 boundaries × 4 plans
        assert!(out.fired > 0, "no epoch crash point ever fired");
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn pmalloc_sweep_smoke() {
        pmem::crash::silence_crash_panics();
        let cfg = quick();
        let ops = cfg.ops;
        let out = sweep("pmalloc", &|seed| AllocSubject::new(seed, ops), &cfg);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.leases > 0, "no state completed a lease");
    }

    #[test]
    fn pmalloc_magazine_sweep_smoke() {
        pmem::crash::silence_crash_panics();
        let cfg = quick();
        let ops = cfg.ops;
        let out = sweep(
            "pmalloc-mag",
            &|seed| AllocSubject::with_magazine(seed, ops),
            &cfg,
        );
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.leases > 0, "no state completed a lease");
    }

    #[test]
    fn pmwcas_sweep_smoke() {
        pmem::crash::silence_crash_panics();
        let cfg = quick();
        let out = sweep("pmwcas", &|seed| PmwcasSubject::new(seed, 12), &cfg);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn pmemtx_sweep_smoke() {
        pmem::crash::silence_crash_panics();
        let cfg = quick();
        let out = sweep("pmemtx", &|seed| TxSubject::new(seed, 12), &cfg);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    /// Every subject must sweep violation-free with the dynamic detector
    /// armed: a PMD01 here is a real write→publish ordering bug (or a
    /// detector false positive) in the swept crate.
    #[test]
    fn all_subjects_sweep_clean_under_pmcheck() {
        pmem::crash::silence_crash_panics();
        let mut cfg = quick();
        cfg.pmcheck = true;
        let ops = cfg.ops;
        let outs = [
            sweep("upskiplist", &|seed| SkipListSubject::new(seed, ops), &cfg),
            sweep("pmalloc", &|seed| AllocSubject::new(seed, ops), &cfg),
            sweep(
                "pmalloc-mag",
                &|seed| AllocSubject::with_magazine(seed, ops),
                &cfg,
            ),
            sweep("pmwcas", &|seed| PmwcasSubject::new(seed, 12), &cfg),
            sweep("pmemtx", &|seed| TxSubject::new(seed, 12), &cfg),
        ];
        for out in &outs {
            assert!(
                out.failures.is_empty(),
                "{} under pmcheck: {:?}",
                out.name,
                out.failures
            );
        }
    }
}
