//! The crash harness: E12's crash-residue sweeps and Chapter 6's logged
//! crash trials, driven by one stage sequence.
//!
//! The thesis's correctness argument (§6.1.2) is that every acknowledged
//! operation survives a power failure in which each dirty cache line
//! independently may or may not have reached PMEM. [`run_point`] tests
//! that claim for one *state*: it arms a crash ([`Arm`]), runs a
//! [`CrashSubject`]'s workload until the crash fires, applies a
//! [`CrashPlan`] residue to every pool, *optionally crashes again in the
//! middle of recovery*, then recovers fully and verifies:
//!
//! * **acked durability** — every operation that returned before the crash
//!   is visible; an operation in flight may surface as its pre- or
//!   post-state, nothing else;
//! * **structural invariants** — `check_invariants` (skip list), free-list
//!   soundness (pmalloc), all-or-nothing target words (pmwcas), pair
//!   atomicity (pmemtx);
//! * **recovery idempotence** — recovery is run once more after
//!   verification and must change nothing.
//!
//! [`sweep`] walks a `(crash arm × seed × residue policy)` grid over one
//! single-threaded subject and prints each failing state's one-line repro
//! tuple `(crash_after, seed, policy)`, after shrinking `crash_after` with
//! [`lincheck::minimize_crash_point`].
//!
//! [`KvSubject`] runs any [`KvIndex`] under T logged threads and judges it
//! by strict linearizability (thesis §6.2); `crash_test`, the root crash
//! tests and the `crash_analysis` example are fixed grids over it.

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use lincheck::{minimize_crash_point, History, OpKind, ReproTuple, ThreadLog, Ticket};
use pmem::pool::PoolConfig;
use pmem::{
    run_crashable, CrashController, CrashPlan, EpochCrashPoint, ObsLevel, PersistenceMode,
    PmCheckLevel, Pool,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use riv::RivPtr;
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

use crate::index::{KvIndex, Reopen, Target};
use crate::watchdog;

/// A structure that can be crash-tested: it owns a simulated machine (its
/// pools, which share one crash controller), runs a workload that records
/// what was acknowledged, recovers after a power failure, and
/// self-verifies.
///
/// `workload` and `recover` are run under crash injection and may unwind
/// with [`pmem::Crashed`]; `recover` must be idempotent — it is invoked
/// again after nested crashes and once more after verification.
/// `verify` runs on a quiesced, recovered machine and panics on violation.
pub trait CrashSubject {
    fn pools(&self) -> Vec<Arc<Pool>>;
    fn workload(&mut self);
    fn recover(&mut self);
    fn verify(&mut self);
    /// The registry counter that proves a grid reached the path under
    /// test, and its value now; `None` when no counter is needed.
    fn coverage(&self) -> Option<(&'static str, u64)> {
        None
    }
    /// Arm a one-shot crash at `point` of the first fresh-node insert at
    /// or after workload op `at_op` (see [`Arm::Epoch`]).
    fn arm_epoch(&mut self, _point: EpochCrashPoint, _at_op: u64) {
        panic!("this subject has no flush-epoch crash points")
    }
}

/// Where a state's crash fires.
#[derive(Debug, Clone, Copy)]
pub enum Arm {
    /// After this many pmem operations, machine-wide.
    After(u64),
    /// At a flush-epoch boundary: the next fresh-node insert at or after
    /// workload op `at_op` dies mid-prepare (`PreSweep`: CLWBs issued,
    /// nothing fenced) or between the coalesced sweep and the publish CAS
    /// (`PostSweep`: the node durable but unpublished). The state may end
    /// uncrashed when no such insert follows `at_op`.
    Epoch { point: EpochCrashPoint, at_op: u64 },
}

// ---------------------------------------------------------------------------
// Subjects
// ---------------------------------------------------------------------------

/// How one logged phase of a [`KvSubject`] draws its operations.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    /// Random keys in `1..=keyspace`, `read_pct`% of the ops reads and the
    /// rest upserts: small keyspaces make threads collide (thesis §6.1.1).
    /// Thread `t` draws from a generator seeded with `seed + t`.
    Random {
        keyspace: u64,
        read_pct: u32,
        seed: u64,
    },
    /// Per-thread streams of fresh keys, all upserts: thread `t` of `T`
    /// writes `b+t+1, b+t+1+T, …`, `b` above every key used so far.
    Fresh,
    /// Every key an earlier phase wrote, read once each, in key order.
    ReadBack,
}

/// One logged phase: `ops` operations per thread.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub keys: Keys,
    pub ops: u64,
}

/// A [`KvSubject`]'s workload.
#[derive(Debug, Clone, Copy)]
pub struct KvWorkload {
    pub threads: usize,
    /// Thread `t` registers on NUMA node `t % numa_nodes`.
    pub numa_nodes: u16,
    /// Keys `1..=prepop` written and synced before the first crash arms.
    pub prepop: u64,
    /// The phase the crash interrupts.
    pub load: Phase,
    /// The read/write mix `verify` replays on the recovered index before
    /// its read-back (thesis §6.1.2); `None` reads back only.
    pub verify: Option<Phase>,
}

/// Any [`KvIndex`] under T threads, every operation logged for the
/// strict-linearizability analyzer. A write is acked (logged as completed)
/// only once `insert` *and* `sync` have returned: the durability ack
/// boundary of [`KvIndex::sync`]. The subject keeps its history across
/// [`run_point`] calls, so a grid can crash one index several times and
/// each verdict covers every earlier round.
pub struct KvSubject {
    index: Arc<dyn KvIndex>,
    pools: Vec<Arc<Pool>>,
    list: Option<Arc<UpSkipList>>,
    reopen: Reopen,
    w: KvWorkload,
    ticket: Ticket,
    history: History,
}

impl KvSubject {
    /// The subject over `t`; panics when `t` cannot be re-opened.
    pub fn new(t: Target, w: KvWorkload) -> Self {
        let name = t.index.name();
        let mut s = Self {
            reopen: (t.reopen).unwrap_or_else(|| panic!("{name} has no crash-recovery reopen")),
            index: t.index,
            pools: t.pools,
            list: t.list,
            w,
            ticket: Ticket::new(),
            history: History::default(),
        };
        // Logged, so the analyzer knows the initial values (§6.1.1).
        s.phase(Keys::Fresh, w.prepop, 1);
        s
    }

    /// Every operation logged so far, with a crash tick per recovery.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Run one logged phase: `ops` operations on each of `threads` threads.
    fn phase(&mut self, keys: Keys, ops: u64, threads: usize) {
        let (index, ticket, w, ops_so_far) =
            (&self.index, &self.ticket, &self.w, &self.history.ops);
        // Fresh keys start above every key used so far; log ids after
        // every earlier thread's.
        let base = ops_so_far.iter().map(|o| o.key).max().unwrap_or(0);
        let first = ops_so_far.iter().map(|o| o.thread + 1).max().unwrap_or(0);
        let mut written: Vec<u64> = (ops_so_far.iter())
            .filter(|o| o.kind == OpKind::Write)
            .map(|o| o.key)
            .collect();
        written.sort_unstable();
        written.dedup();
        let _running = watchdog::phase(threads);
        let logs: Vec<ThreadLog> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let written = &written;
                    s.spawn(move || {
                        pmem::thread::register(t, (t % w.numa_nodes as usize) as u16);
                        let mut log = ThreadLog::new(first + t as u32);
                        let mut rng = StdRng::seed_from_u64(match keys {
                            Keys::Random { seed, .. } => seed + t as u64,
                            _ => 0,
                        });
                        for i in 0..ops {
                            watchdog::tick(t);
                            let (key, read) = match keys {
                                Keys::Random {
                                    keyspace, read_pct, ..
                                } => (
                                    rng.gen_range(1..=keyspace),
                                    rng.gen_range(0..100) < read_pct,
                                ),
                                Keys::Fresh => (base + t as u64 + 1 + i * threads as u64, false),
                                Keys::ReadBack => match written.get(i as usize) {
                                    Some(&key) => (key, true),
                                    None => break,
                                },
                            };
                            let kind = if read { OpKind::Read } else { OpKind::Write };
                            let value = if read { 0 } else { ticket.next() };
                            let op = log.begin(ticket, kind, key, value);
                            // A write is acked only once `sync` returned.
                            let Ok(ret) = run_crashable(|| {
                                if read {
                                    return index.get(key);
                                }
                                let old = index.insert(key, value);
                                index.sync();
                                old
                            }) else {
                                break; // the op stays pending at the crash
                            };
                            log.finish(ticket, op, ret.unwrap_or(lincheck::EMPTY));
                        }
                        pmem::discard_pending();
                        log
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for log in logs {
            self.history.ops.extend(log.into_ops());
        }
    }
}

impl CrashSubject for KvSubject {
    fn pools(&self) -> Vec<Arc<Pool>> {
        self.pools.clone()
    }

    fn workload(&mut self) {
        self.phase(self.w.load.keys, self.w.load.ops, self.w.threads);
    }

    fn recover(&mut self) {
        // Every thread is stopped: ops still open stay pending at this tick.
        self.history.crashes.push(self.ticket.next());
        self.index = (self.reopen)(&self.pools);
    }

    /// The phase-2 mix, a read-back of every key ever written, invariants
    /// (lists; after the mix, which must meet nodes as recovery left them),
    /// then strict linearizability of the whole history: a lost acked
    /// write is a read-back that misses a completed write.
    fn verify(&mut self) {
        if let Some(p) = self.w.verify {
            self.phase(p.keys, p.ops, self.w.threads);
        }
        self.phase(Keys::ReadBack, u64::MAX, 1);
        if let Some(list) = &self.list {
            list.check_invariants();
        }
        let v = lincheck::check(&self.history);
        assert!(
            v.is_linearizable(),
            "{} violations, {} inconclusive (e.g. {:?})",
            v.violations.len(),
            v.inconclusive_keys,
            v.violations.first().map(|v| &v.reason)
        );
    }
}

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
    /// The [`Arm::Epoch`] point and op index armed for the workload.
    epoch_crash: Option<(EpochCrashPoint, u64)>,
}

impl SkipListSubject {
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
}

impl CrashSubject for SkipListSubject {
    fn pools(&self) -> Vec<Arc<Pool>> {
        self.list.space().pools().to_vec()
    }

    fn coverage(&self) -> Option<(&'static str, u64)> {
        // An epoch grid's path is its boundary, which `fired` proves (its
        // crash lands before the churn phase).
        if self.epoch_crash.is_some() {
            return None;
        }
        // Only the churn phase purges: a grid with none never crashed
        // inside a full node reclaiming its removed keys' slots.
        let name = "list.node_purges";
        Some((name, self.list.registry().snapshot().counter(name)))
    }

    fn arm_epoch(&mut self, point: EpochCrashPoint, at_op: u64) {
        self.epoch_crash = Some((point, at_op));
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
        if self.epoch_crash.is_some() {
            // An epoch crash dies before the publish CAS: drop the usual
            // in-flight tolerance — the op's post-state must NOT be visible.
            self.inflight = None;
        }
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
        if self.epoch_crash.is_some() {
            // Reclamation probe: a fresh insert must come out of the
            // recovered allocator and be durably readable — a prepared but
            // unpublished node did not wedge a lease or corrupt a free list.
            let key = 1 + self.seed % self.keyspace;
            let v = self.next_val;
            self.next_val += 1;
            self.list.insert(key, v);
            self.list.sync();
            self.model.insert(key, v);
            assert_eq!(self.list.get(key), Some(v), "probe insert not visible");
        }
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
    fn pools(&self) -> Vec<Arc<Pool>> {
        self.alloc.space().pools().to_vec()
    }

    fn coverage(&self) -> Option<(&'static str, u64)> {
        // A grid with no completed lease never crashed inside one.
        let name = "alloc.leases";
        Some((name, self.alloc.registry().snapshot().counter(name)))
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

/// Run stage `name` of a state under crash injection: `Ok(true)` when it
/// crashed (the thread's pending flushes handed off to the unfenced
/// registry), `Err` with the message of any other panic — a sweep records
/// failures and moves on instead of aborting.
fn stage(name: &str, f: impl FnOnce()) -> Result<bool, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_crashable(f))) {
        Ok(r) => Ok(r.is_err()),
        Err(payload) => Err(format!(
            "{name}: {}",
            (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string())
        )),
    }
}

/// The crash controller the subject's pools share.
fn controller<S: CrashSubject>(s: &S) -> Arc<CrashController> {
    Arc::clone(s.pools()[0].crash_controller())
}

/// Power-fail every pool with `plan` and reset the driver thread's own
/// pending list (its unfenced lines were already counted as residue).
fn power_fail<S: CrashSubject>(s: &S, plan: CrashPlan) {
    for pool in s.pools() {
        pool.simulate_crash_with(plan);
    }
    pmem::discard_pending();
}

/// What one state did, for a sweep's tallies.
#[derive(Debug)]
pub struct State {
    /// The armed crash fired during the workload.
    pub fired: bool,
    /// The subject's [`CrashSubject::coverage`] counter after the state.
    pub coverage: Option<(&'static str, u64)>,
    /// Advisory pmcheck findings (PMD02 redundant fences, PMD03 reads of
    /// never-durable residue); zero with pmcheck off.
    pub advisories: u64,
}

/// Run one state on `s`: arm `arm`, run the workload, power-fail with
/// `plan`, crash again `nested` pmem ops into recovery if given, recover,
/// verify, re-recover, verify. Returns `Err(reason)` on any verification
/// failure or unexpected panic.
///
/// With `pmcheck` the dynamic persist-ordering detector runs in
/// [`PmCheckLevel::Track`] over the whole state — workload, injected
/// crashes, nested recovery, verification — and its findings are drained
/// at the end regardless of how the state finished, so every PMD01 is
/// cross-checked against the injected-crash verdict for the *same* state:
/// a violation alongside a verify failure confirms the detector caught the
/// cause; a violation on a passing state is a latent ordering bug that the
/// sampled residue happened not to expose. Both fail the state. Advisory
/// findings are only tallied.
pub fn run_point<S: CrashSubject>(
    s: &mut S,
    arm: Arm,
    plan: CrashPlan,
    nested: Option<u64>,
    pmcheck: bool,
) -> Result<State, String> {
    if pmcheck {
        pmem::check::reset_thread();
        for pool in s.pools() {
            pool.set_check_level(PmCheckLevel::Track);
        }
    }
    let result = drive_point(s, arm, plan, nested);
    // Empty with the detector off.
    let (violations, advisories): (Vec<_>, Vec<_>) = (s.pools().iter())
        .flat_map(|pool| pool.take_check_findings())
        .partition(|f| f.rule.is_violation());
    let list = violations
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("; ");
    match result {
        Err(e) if !violations.is_empty() => Err(format!("{e} [pmcheck confirms: {list}]")),
        Ok(_) if !violations.is_empty() => Err(format!(
            "pmcheck: {} ordering violation(s) on a state that verified clean \
             (latent bug the sampled residue missed): {list}",
            violations.len()
        )),
        r => r.map(|fired| State {
            fired,
            coverage: s.coverage(),
            advisories: advisories.len() as u64,
        }),
    }
}

/// The stage sequence of [`run_point`]; returns whether the crash fired.
fn drive_point<S: CrashSubject>(
    s: &mut S,
    arm: Arm,
    plan: CrashPlan,
    nested: Option<u64>,
) -> Result<bool, String> {
    let ctl = controller(s);
    match arm {
        Arm::After(n) => ctl.arm_after(n),
        Arm::Epoch { point, at_op } => s.arm_epoch(point, at_op),
    }
    let first = stage("workload", || s.workload());
    let fired = ctl.is_crashed() || first == Ok(true);
    ctl.disarm();
    pmem::disarm_epoch_crash();
    first?;
    power_fail(s, plan);

    if let Some(j) = nested {
        // Crash again *inside* recovery, then power-fail with the same
        // residue policy. Recovery must be idempotent: the retry below has
        // to finish the job.
        ctl.arm_after(j);
        let crashed = stage("nested recovery", || s.recover())?;
        ctl.disarm();
        if crashed {
            power_fail(s, plan);
        }
    }

    if stage("recovery", || s.recover())? {
        return Err("recovery crashed with the controller disarmed".into());
    }
    stage("verify", || s.verify())?;
    // Recovery idempotence: recovering an already-recovered machine must
    // not disturb the verified state.
    stage("re-recovery", || s.recover())?;
    stage("verify after re-recovery", || s.verify())?;
    Ok(fired)
}

/// Measure how many pmem operations `mk(seed)`'s workload performs by
/// arming far beyond it and reading back the unconsumed budget.
pub fn calibrate<S: CrashSubject>(mk: &dyn Fn(u64) -> S, seed: u64) -> u64 {
    const BIG: u64 = 1 << 40;
    let mut s = mk(seed);
    let ctl = controller(&s);
    ctl.arm_after(BIG);
    s.workload();
    let left = ctl
        .armed_remaining()
        .expect("calibration must not trip the controller");
    ctl.disarm();
    pmem::sfence();
    BIG - left
}

/// Sweep configuration: `points` crash arms per seed, each under every
/// residue plan.
#[derive(Debug, Clone)]
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
    /// Arm at flush-epoch boundaries instead of pmem-op countdowns: each
    /// of `points` op positions (`0, ops/(points+1), …`) under both
    /// [`EpochCrashPoint`]s (skip-list subject only).
    pub epoch: bool,
}

/// Result of sweeping one subject.
#[derive(Default)]
pub struct SweepOutcome {
    pub name: &'static str,
    /// Distinct (crash arm × seed × policy) states explored.
    pub states: u64,
    /// States whose armed crash actually fired. Countdown arms are
    /// calibrated inside the workload; an epoch arm can land after the
    /// last fresh-node insert and complete uncrashed.
    pub fired: u64,
    /// One repro line per failing state (countdowns already minimized).
    pub failures: Vec<String>,
    /// Advisory pmcheck findings across all states.
    pub advisories: u64,
    /// The subject's coverage counter, summed over the passing states.
    pub coverage: Option<(&'static str, u64)>,
}

/// Walk the full grid for one subject; failing states are reported as
/// repro tuples.
pub fn sweep<S: CrashSubject>(
    name: &'static str,
    mk: &dyn Fn(u64) -> S,
    cfg: &SweepConfig,
) -> SweepOutcome {
    let mut out = SweepOutcome {
        name,
        ..Default::default()
    };
    let run = |seed: u64, arm: Arm, plan: CrashPlan| {
        let at = match arm {
            Arm::After(n) | Arm::Epoch { at_op: n, .. } => n,
        };
        let nested = cfg
            .nested
            .then(|| 1 + mix64(seed ^ at.wrapping_mul(0x9e37)) % 400);
        run_point(&mut mk(seed), arm, plan, nested, cfg.pmcheck)
    };
    for &seed in &cfg.seeds {
        let points = cfg.points as u64;
        let arms: Vec<Arm> = if cfg.epoch {
            // Position 0 crashes the workload's first fresh-node insert.
            let step = (cfg.ops / (points + 1)).max(1);
            let at = |i, point| Arm::Epoch {
                point,
                at_op: step * i,
            };
            let both = |i| {
                [
                    at(i, EpochCrashPoint::PreSweep),
                    at(i, EpochCrashPoint::PostSweep),
                ]
            };
            (0..points).flat_map(both).collect()
        } else {
            let step = (calibrate(mk, seed) / (points + 1)).max(1);
            (1..=points).map(|i| Arm::After(step * i)).collect()
        };
        for arm in arms {
            for &plan in &cfg.plans {
                out.states += 1;
                match run(seed, arm, plan) {
                    Ok(st) => {
                        out.fired += st.fired as u64;
                        out.advisories += st.advisories;
                        if let Some((counter, n)) = st.coverage {
                            out.coverage.get_or_insert((counter, 0)).1 += n;
                        }
                    }
                    Err(msg) => {
                        let at = match arm {
                            Arm::After(n) => ReproTuple {
                                crash_after: minimize_crash_point(
                                    |k| run(seed, Arm::After(k), plan).is_err(),
                                    n,
                                ),
                                seed,
                                policy: plan,
                            }
                            .to_string(),
                            Arm::Epoch { point, at_op } => format!(
                                "(arm_at={at_op}, seed={seed}, point={point:?}, policy={plan:?})"
                            ),
                        };
                        let line = format!("{name}: FAIL {at}: {msg}");
                        eprintln!("{line}");
                        out.failures.push(line);
                    }
                }
            }
        }
    }
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
            epoch: false,
        }
    }

    fn counted(out: &SweepOutcome) -> u64 {
        out.coverage.map_or(0, |(_, n)| n)
    }

    #[test]
    fn skiplist_sweep_smoke() {
        pmem::crash::silence_crash_panics();
        let cfg = quick();
        let ops = cfg.ops;
        let out = sweep(
            "upskiplist",
            &|seed| SkipListSubject::with_node_size(seed, ops, 8),
            &cfg,
        );
        assert_eq!(out.states, 12);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(counted(&out) > 0, "the churn phase never purged a node");
    }

    /// `--crash-in-epoch` smoke: both epoch boundaries, every residue
    /// policy. At least one state must actually fire its point (arm_at=0
    /// catches the first fresh-node insert), or the sweep proves nothing.
    #[test]
    fn skiplist_epoch_crash_sweep_smoke() {
        pmem::crash::silence_crash_panics();
        let cfg = SweepConfig {
            epoch: true,
            ..quick()
        };
        let ops = cfg.ops;
        let out = sweep(
            "upskiplist-epoch",
            &|seed| SkipListSubject::with_node_size(seed, ops, 8),
            &cfg,
        );
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
        assert!(counted(&out) > 0, "no state completed a lease");
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
        assert!(counted(&out) > 0, "no state completed a lease");
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
            sweep(
                "upskiplist",
                &|seed| SkipListSubject::with_node_size(seed, ops, 8),
                &cfg,
            ),
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

    /// Writes each key's value to word `key` of a tracked pool with no
    /// flush, and its `sync` does nothing: every ack rests on lines that
    /// only the cache holds.
    struct Unflushed(Arc<Pool>);

    impl KvIndex for Unflushed {
        fn name(&self) -> &'static str {
            "unflushed"
        }
        fn insert(&self, key: u64, value: u64) -> Option<u64> {
            let old = self.get(key);
            self.0.write(key, value);
            old
        }
        fn get(&self, key: u64) -> Option<u64> {
            Some(self.0.read(key)).filter(|&v| v != 0)
        }
        fn remove(&self, key: u64) -> Option<u64> {
            let old = self.get(key);
            self.0.write(key, 0);
            old
        }
        fn scan(&self, _from: u64, _limit: usize) -> Option<usize> {
            None
        }
    }

    /// The read-back verdict must catch a lost acked write on its own: on
    /// one thread the run is deterministic, `DropAll` sheds every acked
    /// value and `KeepAll` keeps them all.
    #[test]
    fn read_back_catches_acks_that_rest_on_unflushed_lines() {
        pmem::crash::silence_crash_panics();
        let run = |plan| {
            let pool = Pool::new(
                PoolConfig::tracked(1 << 10),
                Arc::new(CrashController::new()),
            );
            let index: Arc<dyn KvIndex> = Arc::new(Unflushed(Arc::clone(&pool)));
            let same = Arc::clone(&index);
            let w = KvWorkload {
                threads: 1,
                numa_nodes: 1,
                prepop: 0,
                load: Phase {
                    keys: Keys::Random {
                        keyspace: 64,
                        read_pct: 20,
                        seed: 3,
                    },
                    ops: 200,
                },
                verify: None,
            };
            let t = Target {
                index,
                pools: vec![pool],
                list: None,
                reopen: Some(Box::new(move |_| Arc::clone(&same))),
            };
            run_point(
                &mut KvSubject::new(t, w),
                Arm::After(300),
                plan,
                None,
                false,
            )
        };
        let lost = run(CrashPlan::DropAll).expect_err("DropAll must shed the unflushed acks");
        assert!(lost.contains("violations"), "{lost}");
        let kept = run(CrashPlan::KeepAll).expect("KeepAll keeps every write");
        assert!(kept.fired, "the crash must cut the workload");
    }
}
