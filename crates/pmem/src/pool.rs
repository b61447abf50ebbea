//! The simulated persistent memory pool.
//!
//! All persistent state in this workspace lives in word-addressable pools.
//! Data structures never hold Rust references into a pool; they address it
//! with word offsets (wrapped by `riv::RivPtr` for multi-pool pointers),
//! which is exactly the position-independence discipline the PMEM
//! programming model imposes (thesis §4.3.1).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use obs::ObsLevel;

use crate::audit;
use crate::check::{self, PmCheckLevel};
use crate::crash::{CrashController, CrashPlan};
use crate::latency::LatencyModel;
use crate::stats::{Field, Stats};
use crate::thread;
use crate::topology::Placement;
use crate::CACHE_LINE_WORDS;

/// Magic value structures place at word 0 of an initialized pool.
pub const POOL_MAGIC: u64 = 0x5550_534b_4950_0001; // "UPSKIP" v1

/// How persistence is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistenceMode {
    /// No shadow image: flushes and fences only update stats and charge
    /// latency. Crashes cannot be simulated. Used by throughput benchmarks.
    Fast,
    /// A shadow "persisted image" is maintained at cache-line granularity;
    /// [`Pool::simulate_crash`] reverts the pool to it. Used by all crash
    /// and recovery tests.
    Tracked,
}

/// Construction parameters for a [`Pool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    pub id: u16,
    pub len_words: u64,
    pub placement: Placement,
    pub mode: PersistenceMode,
    pub latency: LatencyModel,
    /// In `Tracked` mode, spontaneously persist a written line with
    /// probability `1/evict_one_in` (0 disables), modelling cache
    /// write-backs that happen without an explicit flush.
    pub evict_one_in: u32,
    /// Observability level. At [`ObsLevel::Off`] the per-pool [`Stats`]
    /// counters (shared atomics — a contended cache line) are never
    /// touched, so throughput benchmarks pay nothing; `Counters`
    /// maintains them.
    pub obs: ObsLevel,
    /// Persist-ordering checking (see [`crate::check`]). Any level other
    /// than [`PmCheckLevel::Off`] requires [`PersistenceMode::Tracked`].
    /// Can also be raised after construction via
    /// [`Pool::set_check_level`].
    pub check: PmCheckLevel,
}

impl PoolConfig {
    /// A single-node, fast-mode pool — the default for unit tests.
    pub fn simple(len_words: u64) -> Self {
        Self {
            id: 0,
            len_words,
            placement: Placement::Node(0),
            mode: PersistenceMode::Fast,
            latency: LatencyModel::default(),
            evict_one_in: 0,
            obs: ObsLevel::Counters,
            check: PmCheckLevel::Off,
        }
    }

    /// Like [`PoolConfig::simple`] but with crash tracking enabled.
    pub fn tracked(len_words: u64) -> Self {
        Self {
            mode: PersistenceMode::Tracked,
            ..Self::simple(len_words)
        }
    }
}

/// A word-addressable simulated PMEM pool.
pub struct Pool {
    id: u16,
    placement: Placement,
    volatile: Box<[AtomicU64]>,
    persisted: Option<Box<[AtomicU64]>>,
    crash: Arc<CrashController>,
    latency: LatencyModel,
    latency_enabled: bool,
    evict_one_in: u32,
    obs: ObsLevel,
    /// `obs.counters_enabled()`, precomputed.
    counters: bool,
    /// `counters || latency_enabled`, precomputed so the per-word hot
    /// path pays a single never-taken branch when both are off.
    accounting: bool,
    stats: Stats,
    /// Machine-wide registry of flushed-but-unfenced lines (`Tracked` mode
    /// only): line → number of threads with that line on their pending
    /// list. A thread's flush registers the line; its fence (or an explicit
    /// [`discard_pending`]) releases it; a thread that dies in a simulated
    /// power failure does *not* release — its CLWBs may still land — so
    /// [`Pool::simulate_crash_with`] can enumerate every thread's unfenced
    /// lines, not just the calling thread's.
    unfenced: Mutex<HashMap<u64, u32>>,
    /// [`PmCheckLevel`] as a u8 so the hot paths gate on one relaxed load.
    check: AtomicU8,
    /// Lazily-allocated per-line state table + findings for the dynamic
    /// persist-ordering detector (see [`crate::check`]).
    check_state: check::CheckState,
}

/// The current thread's CLWB-ed lines awaiting its next SFENCE. `list`
/// preserves flush order for the fence; `seen` (keyed by pool address +
/// line) makes the per-flush duplicate check O(1) instead of a linear scan.
#[derive(Default)]
struct PendingSet {
    list: Vec<(Arc<Pool>, u64)>,
    seen: HashSet<(usize, u64)>,
}

thread_local! {
    /// CLWB-ed lines awaiting an SFENCE by this thread.
    static PENDING: RefCell<PendingSet> = RefCell::new(PendingSet::default());
    /// Cheap per-thread RNG for the random-eviction mode.
    static EVICT_RNG: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("id", &self.id)
            .field("len_words", &self.volatile.len())
            .field("placement", &self.placement)
            .field("tracked", &self.persisted.is_some())
            .finish()
    }
}

fn zeroed_words(len: u64) -> Box<[AtomicU64]> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

impl Pool {
    /// Create a pool from a config, sharing the given crash controller.
    pub fn new(cfg: PoolConfig, crash: Arc<CrashController>) -> Arc<Self> {
        let persisted = match cfg.mode {
            PersistenceMode::Fast => None,
            PersistenceMode::Tracked => Some(zeroed_words(cfg.len_words)),
        };
        let latency_enabled = !cfg.latency.is_disabled();
        let pool = Arc::new(Self {
            id: cfg.id,
            placement: cfg.placement,
            volatile: zeroed_words(cfg.len_words),
            persisted,
            crash,
            latency_enabled,
            latency: cfg.latency,
            evict_one_in: cfg.evict_one_in,
            obs: cfg.obs,
            counters: cfg.obs.counters_enabled(),
            accounting: cfg.obs.counters_enabled() || latency_enabled,
            stats: Stats::default(),
            unfenced: Mutex::new(HashMap::new()),
            check: AtomicU8::new(0),
            check_state: check::CheckState::default(),
        });
        if cfg.check.enabled() {
            pool.set_check_level(cfg.check);
        }
        pool
    }

    /// Convenience: a fast-mode pool with its own crash controller.
    pub fn simple(len_words: u64) -> Arc<Self> {
        Self::new(
            PoolConfig::simple(len_words),
            Arc::new(CrashController::new()),
        )
    }

    /// Convenience: a tracked pool with its own crash controller.
    pub fn tracked(len_words: u64) -> Arc<Self> {
        Self::new(
            PoolConfig::tracked(len_words),
            Arc::new(CrashController::new()),
        )
    }

    #[inline]
    pub fn id(&self) -> u16 {
        self.id
    }

    #[inline]
    pub fn len_words(&self) -> u64 {
        self.volatile.len() as u64
    }

    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    #[inline]
    pub fn crash_controller(&self) -> &Arc<CrashController> {
        &self.crash
    }

    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The observability level this pool was built with.
    #[inline]
    pub fn obs_level(&self) -> ObsLevel {
        self.obs
    }

    #[inline]
    pub fn is_tracked(&self) -> bool {
        self.persisted.is_some()
    }

    /// Current persist-ordering check level.
    #[inline]
    pub fn check_level(&self) -> PmCheckLevel {
        PmCheckLevel::from_u8(self.check.load(Ordering::Relaxed))
    }

    /// `check_level().enabled()`, as the single relaxed load the hot
    /// paths gate on.
    #[inline]
    pub(crate) fn check_on(&self) -> bool {
        self.check.load(Ordering::Relaxed) != 0
    }

    /// Raise or lower the persist-ordering check level at runtime (the
    /// crash-sweep harness enables checking on pools it did not build).
    ///
    /// # Panics
    /// Panics when enabling on a pool that is not in `Tracked` mode: the
    /// detector's durability transitions are defined by the shadow image.
    pub fn set_check_level(self: &Arc<Self>, level: PmCheckLevel) {
        if level.enabled() {
            assert!(
                self.is_tracked(),
                "PmCheckLevel::{level:?} requires PersistenceMode::Tracked"
            );
            check::register_pool(self);
        }
        self.check.store(level.to_u8(), Ordering::Release);
    }

    /// Drain the findings the dynamic detector has recorded on this pool.
    pub fn take_check_findings(&self) -> Vec<check::Finding> {
        std::mem::take(&mut *self.check_state.findings.lock().unwrap())
    }

    /// The detector's per-pool race/sync state (PMD04/PMD05).
    pub(crate) fn check_state(&self) -> &check::CheckState {
        &self.check_state
    }

    /// The per-line detector state table, allocated on first use.
    pub(crate) fn check_table(&self) -> &[AtomicU64] {
        self.check_state.table.get_or_init(|| {
            check::new_table((self.volatile.len() as u64).div_ceil(CACHE_LINE_WORDS))
        })
    }

    /// Record a finding; at [`PmCheckLevel::Panic`] a rule *violation*
    /// aborts the caller (unless already unwinding).
    pub(crate) fn record_finding(&self, finding: check::Finding) {
        let panic_level = self.check_level() == PmCheckLevel::Panic;
        let is_violation = finding.rule.is_violation();
        let msg = finding.to_string();
        self.check_state.findings.lock().unwrap().push(finding);
        if panic_level && is_violation && !std::thread::panicking() {
            panic!("pmcheck violation: {msg}");
        }
    }

    #[inline]
    fn charge(&self, spins: u32, off: u64) {
        if self.latency_enabled {
            let remote = self.placement.owner_node(off) != thread::current().numa_node;
            self.latency.charge(spins, remote);
        }
    }

    /// Outlined accounting for single-word accesses: the hot path pays one
    /// fused `accounting` test and jumps here only when stats or the
    /// latency model are on.
    #[cold]
    fn account_word(&self, field: Field, spins: u32, off: u64) {
        if self.counters {
            self.stats.bump(field);
        }
        self.charge(spins, off);
    }

    /// Load the word at `off` (Acquire).
    #[inline]
    pub fn read(&self, off: u64) -> u64 {
        self.crash.check();
        if self.accounting {
            self.account_word(Field::Reads, self.latency.read_spins, off);
        }
        if self.check_on() {
            check::on_read(self, off, 1);
        }
        self.volatile[off as usize].load(Ordering::Acquire)
    }

    /// Sequential bulk load of `out.len()` words starting at `off`,
    /// modelling a hardware-prefetched streaming scan: one crash check for
    /// the whole slice, and accounting and latency charged per cache line
    /// touched, not per word (the thesis relies on exactly this for
    /// multi-key node scans — §4.4 "hardware fetching the additional cache
    /// lines when a sequential scan is detected"). The line count is added
    /// to the stats counter with a single RMW and the per-line latency loop
    /// resolves the thread's NUMA node once, so the copy loop below stays
    /// free of per-word branches. Not atomic as a whole; each word is an
    /// Acquire load, which is what a real scan gets too.
    pub fn read_slice(&self, off: u64, out: &mut [u64]) {
        if self.begin_slice(off, out.len()) {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.volatile[off as usize + i].load(Ordering::Acquire);
            }
        }
    }

    /// [`Pool::read_slice`] with the words loaded from the highest address
    /// down — same crash check, accounting and latency. For a reader whose
    /// protocol needs a word to be observed *no later* than one stored
    /// before it in the span (a counter ahead of the lock word that guards
    /// it): program-order Acquire loads give that ordering for free on
    /// hardware, and the direction is the only way to state it here.
    pub fn read_slice_rev(&self, off: u64, out: &mut [u64]) {
        if self.begin_slice(off, out.len()) {
            for (i, slot) in out.iter_mut().enumerate().rev() {
                *slot = self.volatile[off as usize + i].load(Ordering::Acquire);
            }
        }
    }

    /// Everything a slice read does before its loads; false for an empty
    /// slice (nothing to read, nothing charged).
    #[inline]
    fn begin_slice(&self, off: u64, words: usize) -> bool {
        if words == 0 {
            return false;
        }
        self.crash.check();
        if self.accounting {
            self.account_slice(off, words as u64);
        }
        if self.check_on() {
            check::on_read(self, off, words as u64);
        }
        true
    }

    /// Software prefetch hint for the `words`-word span starting at `off`:
    /// touches nothing architecturally — no stats, no latency charge, no
    /// crash check, no pmcheck event — it only asks the CPU to start
    /// pulling the backing cache lines toward L1 (`prefetcht0`). On
    /// non-x86_64 targets this is a no-op. Out-of-range spans are ignored
    /// rather than panicking: a hint derived from a stale volatile cache
    /// must never be able to crash the process.
    #[inline]
    pub fn prefetch(&self, off: u64, words: u64) {
        let end = off.saturating_add(words.max(1));
        if end > self.len_words() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let mut line = crate::line_of(off);
            let last = crate::line_of(end - 1);
            while line <= last {
                let idx = (line * CACHE_LINE_WORDS) as usize;
                // SAFETY: idx is in bounds (checked above) and prefetch has
                // no architectural effect on the pointee.
                unsafe {
                    std::arch::x86_64::_mm_prefetch(
                        self.volatile.as_ptr().add(idx) as *const i8,
                        std::arch::x86_64::_MM_HINT_T0,
                    );
                }
                line += 1;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = end;
        }
    }

    /// Outlined per-line accounting for streamed reads.
    #[cold]
    fn account_slice(&self, off: u64, words: u64) {
        let lines = crate::line_of(off + words - 1) - crate::line_of(off) + 1;
        if self.counters {
            self.stats.bump_by(Field::Reads, lines);
        }
        if self.latency_enabled {
            let node = thread::current().numa_node;
            for l in 0..lines {
                let remote = self.placement.owner_node(off + l * CACHE_LINE_WORDS) != node;
                self.latency.charge(self.latency.read_spins, remote);
            }
        }
    }

    /// Store `value` at `off` (Release).
    #[inline]
    pub fn write(&self, off: u64, value: u64) {
        self.crash.check();
        if self.accounting {
            self.account_word(Field::Writes, self.latency.write_spins, off);
            if audit::armed() {
                audit::note_write(self.id as u32, crate::line_of(off));
            }
        }
        self.volatile[off as usize].store(value, Ordering::Release);
        if self.check_on() {
            check::on_write(self, off);
        }
        self.maybe_evict(off);
    }

    /// Compare-and-swap the word at `off`. Returns `Ok(old)` on success and
    /// `Err(actual)` on failure, mirroring Function 2 of the thesis.
    #[inline]
    pub fn cas(&self, off: u64, old: u64, new: u64) -> Result<u64, u64> {
        self.crash.check();
        if self.accounting {
            self.account_word(Field::Cas, self.latency.write_spins, off);
        }
        let r = self.volatile[off as usize].compare_exchange(
            old,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if r.is_ok() {
            // Only a successful CAS dirties the line.
            if self.accounting && audit::armed() {
                audit::note_write(self.id as u32, crate::line_of(off));
            }
            if self.check_on() {
                check::on_cas_success(self, off);
            }
            self.maybe_evict(off);
        }
        r
    }

    /// Atomic fetch-add on the word at `off`; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, off: u64, delta: u64) -> u64 {
        self.crash.check();
        if self.accounting {
            self.account_word(Field::Cas, self.latency.write_spins, off);
            if audit::armed() {
                audit::note_write(self.id as u32, crate::line_of(off));
            }
        }
        let prev = self.volatile[off as usize].fetch_add(delta, Ordering::AcqRel);
        if self.check_on() {
            check::on_write(self, off);
        }
        self.maybe_evict(off);
        prev
    }

    /// The single internal CLWB path shared by [`Pool::flush`] and
    /// [`Pool::flush_range`]: accounts one flush and enqueues `line` for
    /// the thread's next [`sfence`] — unless the line is already pending,
    /// in which case re-flushing it is a no-op (a real CLWB of an
    /// already-written-back line does no extra write-back work, and the
    /// duplicate entries used to multiply `persist_line_now` cost at fence
    /// time).
    fn flush_line(self: &Arc<Self>, line: u64) {
        self.crash.check();
        if self.accounting {
            self.account_word(
                Field::Flushes,
                self.latency.flush_spins,
                line * CACHE_LINE_WORDS,
            );
            if audit::armed() {
                audit::note_flush(self.id as u32, line);
            }
        }
        // Both persistence modes enqueue: the pending list doubles as the
        // thread's "flushed since last fence" record, which the epoch sweep
        // ([`fence_pending`]) and the PMD02 empty-fence advisory need even
        // when no persisted image exists. The `seen` dedup bounds the cost
        // at one push per line per fence window.
        let key = (Arc::as_ptr(self) as usize, line);
        PENDING.with(|p| {
            let mut pending = p.borrow_mut();
            if pending.seen.insert(key) {
                pending.list.push((Arc::clone(self), line));
                // First flush of this line by this thread since its last
                // fence: register it machine-wide so a crash can see it
                // even after this thread is dead. (Tracked pools only —
                // there is no crash simulation without a persisted image.)
                if self.persisted.is_some() {
                    *self.unfenced.lock().unwrap().entry(line).or_insert(0) += 1;
                }
            }
        });
        if self.check_on() {
            check::on_flush(self, line);
        }
    }

    /// Release one thread's claim on `line` in the unfenced registry
    /// (its fence committed the line, or it explicitly discarded the
    /// flush). Saturating: entries consumed by a crash in between are
    /// simply gone.
    fn registry_release(&self, line: u64) {
        let mut reg = self.unfenced.lock().unwrap();
        if let Some(n) = reg.get_mut(&line) {
            *n -= 1;
            if *n == 0 {
                reg.remove(&line);
            }
        }
    }

    /// CLWB: mark the cache line containing `off` for write-back. The line
    /// is only guaranteed persistent after the issuing thread's next
    /// [`sfence`].
    pub fn flush(self: &Arc<Self>, off: u64) {
        self.flush_line(crate::line_of(off));
    }

    /// Flush every line overlapping `off .. off + words`.
    pub fn flush_range(self: &Arc<Self>, off: u64, words: u64) {
        if words == 0 {
            return;
        }
        let first = crate::line_of(off);
        let last = crate::line_of(off + words - 1);
        for line in first..=last {
            self.flush_line(line);
        }
    }

    /// CLWB every line overlapping `off .. off + words` with **deferred**
    /// durability: the write-back is issued now, but the lines ride the
    /// thread's *next* fence (the next op's epoch sweep, or an explicit
    /// `sync`) instead of getting one of their own. Used for post-publish
    /// link lines under the buffered-durable-linearizability contract: the
    /// dynamic checker is told the deferral is intentional, so the PMD01
    /// publish check will not report these lines at a later CAS and a
    /// crash will not taint them for PMD03 (recovery re-validates link
    /// residue by construction).
    pub fn flush_deferred(self: &Arc<Self>, off: u64, words: u64) {
        if words == 0 {
            return;
        }
        self.flush_range(off, words);
        if self.accounting && audit::armed() {
            let first = crate::line_of(off);
            let last = crate::line_of(off + words - 1);
            for line in first..=last {
                audit::note_deferred(self.id as u32, line);
            }
        }
        if self.check_on() {
            check::on_flush_deferred(self, off, words);
        }
    }

    /// Flush + fence: the `Persist` primitive of Function 1.
    pub fn persist(self: &Arc<Self>, off: u64, words: u64) {
        self.flush_range(off, words);
        if self.accounting {
            if self.counters {
                self.stats.bump(Field::Fences);
            }
            if audit::armed() {
                audit::note_fence();
            }
        }
        if self.latency_enabled {
            self.latency.charge(self.latency.fence_spins, false);
        }
        sfence();
    }

    /// Copy one line from the volatile image to the persisted image.
    fn persist_line_now(&self, line: u64) {
        let Some(persisted) = &self.persisted else {
            return;
        };
        let base = (line * CACHE_LINE_WORDS) as usize;
        let end = (base + CACHE_LINE_WORDS as usize).min(self.volatile.len());
        for w in base..end {
            persisted[w].store(self.volatile[w].load(Ordering::Acquire), Ordering::Release);
        }
    }

    /// Random-eviction mode: spontaneously write back a dirtied line, as a
    /// real cache may do at any time for any reason.
    #[inline]
    fn maybe_evict(&self, off: u64) {
        if self.evict_one_in == 0 || self.persisted.is_none() {
            return;
        }
        let roll = EVICT_RNG.with(|c| {
            let mut x = c.get();
            if x == 0 {
                // Seed from the thread id so runs differ across threads.
                x = 0x9e37_79b9_7f4a_7c15 ^ ((thread::current().id as u64 + 1) << 17);
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.set(x);
            x
        });
        if roll.is_multiple_of(self.evict_one_in as u64) {
            self.persist_line_now(crate::line_of(off));
        }
    }

    /// Simulate a power failure with the legacy all-or-nothing residue:
    /// every dirty line is dropped and the pool restarts from the fenced
    /// image. Equivalent to `simulate_crash_with(CrashPlan::DropAll)`.
    ///
    /// # Panics
    /// Panics if the pool is not in `Tracked` mode.
    pub fn simulate_crash(&self) {
        self.simulate_crash_with(CrashPlan::DropAll);
    }

    /// Simulate a power failure with an adversarial residue: every dirty
    /// cache line (volatile ≠ persisted) is independently kept (written
    /// back in the instant power died) or dropped, as decided by `plan`.
    /// Lines registered in the machine-wide unfenced registry — flushed by
    /// *some* thread, alive or dead, without a fence — are classified
    /// `unfenced`; all other dirty lines are `unflushed` (see
    /// [`CrashPlan`]). The volatile image then restarts from the resulting
    /// persisted image and the registry is cleared (the machine rebooted).
    ///
    /// The caller must have quiesced all worker threads (they are "dead"
    /// after the crash); threads that unwound through
    /// [`run_crashable`](crate::run_crashable) have already handed their
    /// pending flushes off to the registry.
    ///
    /// # Panics
    /// Panics if the pool is not in `Tracked` mode.
    pub fn simulate_crash_with(&self, plan: CrashPlan) {
        let persisted = self
            .persisted
            .as_ref()
            .expect("simulate_crash_with requires PersistenceMode::Tracked");
        let unfenced: HashSet<u64> = std::mem::take(&mut *self.unfenced.lock().unwrap())
            .into_keys()
            .collect();
        let checking = self.check_on();
        let lines = (self.volatile.len() as u64).div_ceil(CACHE_LINE_WORDS);
        for line in 0..lines {
            let base = (line * CACHE_LINE_WORDS) as usize;
            let end = (base + CACHE_LINE_WORDS as usize).min(self.volatile.len());
            let dirty = (base..end).any(|w| {
                self.volatile[w].load(Ordering::Acquire) != persisted[w].load(Ordering::Acquire)
            });
            let kept = dirty && plan.keeps(unfenced.contains(&line), self.id, line);
            if kept {
                self.persist_line_now(line);
            }
            if checking {
                check::on_crash_line(self, line, dirty, kept);
            }
        }
        for w in 0..self.volatile.len() {
            self.volatile[w].store(persisted[w].load(Ordering::Acquire), Ordering::Release);
        }
    }

    /// Number of distinct lines currently registered machine-wide as
    /// flushed-but-unfenced on this pool (diagnostic).
    pub fn unfenced_lines(&self) -> usize {
        self.unfenced.lock().unwrap().len()
    }

    /// Mark the entire volatile image persistent, as after a clean shutdown
    /// (the kernel flushes dirty lines when unmapping a DAX file, §6.1.2).
    pub fn mark_all_persisted(&self) {
        if let Some(persisted) = &self.persisted {
            for w in 0..self.volatile.len() {
                persisted[w].store(self.volatile[w].load(Ordering::Acquire), Ordering::Release);
            }
        }
        // A clean shutdown makes everything durable by definition.
        if let Some(table) = self.check_state.table.get() {
            for slot in table.iter() {
                slot.store(0, Ordering::Release);
            }
        }
    }

    /// Read a word from the persisted image (test/analysis aid).
    pub fn read_persisted(&self, off: u64) -> u64 {
        self.persisted
            .as_ref()
            .expect("read_persisted requires PersistenceMode::Tracked")[off as usize]
            .load(Ordering::Acquire)
    }
}

/// SFENCE: commit every line the current thread has flushed since its last
/// fence to the persisted images of the respective pools, and release the
/// lines from the machine-wide unfenced registry.
pub fn sfence() {
    PENDING.with(|p| {
        let mut pending = p.borrow_mut();
        if pending.list.is_empty() {
            // A fence covering zero pending flushes: PMD02 material.
            check::on_empty_fence();
            return;
        }
        // The epoch is allocated lazily: exactly one bump per fence that
        // commits at least one line of a check-enabled pool.
        let mut epoch = 0u64;
        for (pool, line) in pending.list.drain(..) {
            if pool.persisted.is_some() {
                pool.persist_line_now(line);
                pool.registry_release(line);
            }
            if pool.check_on() {
                if epoch == 0 {
                    epoch = check::next_fence_epoch();
                }
                check::on_fence_commit(&pool, line, epoch);
            }
        }
        pending.seen.clear();
    });
}

/// Issue an SFENCE only if the calling thread has CLWBs pending — the
/// flush-epoch sweep primitive (and `UpSkipList::sync`'s strict-durability
/// boundary). A fence with an empty pending list is skipped *entirely*:
/// no stats bump, no latency charge, no PMD02 redundant-fence advisory —
/// which is precisely what makes the prepare-then-publish diet free on
/// paths that prepared nothing. The fence is accounted against the pool
/// of the first pending line (one fence serves every pool the thread
/// flushed, exactly as [`Pool::persist`] already behaves when the pending
/// list spans pools). Returns whether a fence was issued.
pub fn fence_pending() -> bool {
    let first = PENDING.with(|p| p.borrow().list.first().map(|(pool, _)| Arc::clone(pool)));
    let Some(pool) = first else {
        return false;
    };
    if pool.accounting {
        if pool.counters {
            pool.stats.bump(Field::Fences);
        }
        if audit::armed() {
            audit::note_fence();
        }
    }
    if pool.latency_enabled {
        pool.latency.charge(pool.latency.fence_spins, false);
    }
    sfence();
    true
}

/// Drop the current thread's un-fenced flushes, releasing them from the
/// machine-wide unfenced registry as if they were never issued. Rarely
/// needed: a thread that dies in a simulated crash under
/// [`run_crashable`](crate::run_crashable) instead *hands its flushes off*
/// to the registry automatically (the CLWBs were issued and may still
/// land), after which this is a no-op for those lines.
pub fn discard_pending() {
    PENDING.with(|p| {
        let mut pending = p.borrow_mut();
        for (pool, line) in pending.list.drain(..) {
            pool.registry_release(line);
        }
        pending.seen.clear();
    });
    check::clear_thread_dirty();
}

/// Forget the current thread's pending list *without* releasing the lines
/// from the machine-wide unfenced registry: the thread died in a power
/// failure, so its issued CLWBs remain crash residue for
/// [`Pool::simulate_crash_with`] to keep or drop. Called by
/// [`run_crashable`](crate::run_crashable) on `Err(Crashed)`.
pub(crate) fn crash_handoff_pending() {
    PENDING.with(|p| {
        let mut pending = p.borrow_mut();
        pending.list.clear();
        pending.seen.clear();
    });
    check::clear_thread_dirty();
}

/// Number of distinct cache lines the current thread has flushed since its
/// last [`sfence`] (diagnostic; the flush path dedups at line granularity).
pub fn pending_flushes() -> usize {
    PENDING.with(|p| p.borrow().list.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{run_crashable, silence_crash_panics, CrashPlan, Crashed};
    use crate::stats::StatsSnapshot;

    #[test]
    fn read_write_roundtrip() {
        let p = Pool::simple(64);
        p.write(3, 42);
        assert_eq!(p.read(3), 42);
        assert_eq!(p.read(4), 0);
    }

    #[test]
    fn cas_success_and_failure() {
        let p = Pool::simple(64);
        p.write(0, 5);
        assert_eq!(p.cas(0, 5, 9), Ok(5));
        assert_eq!(p.cas(0, 5, 11), Err(9));
        assert_eq!(p.read(0), 9);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let p = Pool::simple(64);
        assert_eq!(p.fetch_add(0, 3), 0);
        assert_eq!(p.fetch_add(0, 3), 3);
        assert_eq!(p.read(0), 6);
    }

    #[test]
    fn unflushed_writes_do_not_survive_crash() {
        let p = Pool::tracked(64);
        p.write(0, 7);
        p.simulate_crash();
        assert_eq!(p.read(0), 0);
    }

    #[test]
    fn flushed_and_fenced_writes_survive_crash() {
        let p = Pool::tracked(64);
        p.write(0, 7);
        p.persist(0, 1);
        p.write(1, 8); // same line, written after the fence: lost
        p.simulate_crash();
        assert_eq!(p.read(0), 7);
        assert_eq!(p.read(1), 0);
    }

    #[test]
    fn flush_without_fence_does_not_persist() {
        let p = Pool::tracked(64);
        p.write(0, 7);
        p.flush(0);
        discard_pending(); // thread died before its SFENCE
        p.simulate_crash();
        assert_eq!(p.read(0), 0);
    }

    #[test]
    fn flush_persists_whole_line() {
        let p = Pool::tracked(64);
        p.write(8, 1);
        p.write(9, 2);
        p.write(15, 3);
        p.persist(9, 1); // one flush in the line persists all 8 words
        p.simulate_crash();
        assert_eq!(p.read(8), 1);
        assert_eq!(p.read(9), 2);
        assert_eq!(p.read(15), 3);
    }

    #[test]
    fn flush_range_covers_line_straddles() {
        let p = Pool::tracked(64);
        for w in 6..18 {
            p.write(w, w + 100);
        }
        p.persist(6, 12); // straddles lines 0, 1, 2
        p.simulate_crash();
        for w in 6..18 {
            assert_eq!(p.read(w), w + 100);
        }
    }

    #[test]
    fn mark_all_persisted_acts_as_clean_shutdown() {
        let p = Pool::tracked(64);
        p.write(20, 1234);
        p.mark_all_persisted();
        p.simulate_crash();
        assert_eq!(p.read(20), 1234);
    }

    #[test]
    fn crash_injection_interrupts_pmem_ops() {
        silence_crash_panics();
        let p = Pool::tracked(1024);
        p.crash_controller().arm_after(10);
        let r = run_crashable(|| {
            for i in 0..1000 {
                p.write(i % 64, i);
                p.persist(i % 64, 1);
            }
        });
        assert_eq!(r, Err(Crashed));
        p.crash_controller().disarm();
        discard_pending();
        p.simulate_crash();
        // The pool is usable again after recovery.
        p.write(0, 1);
        assert_eq!(p.read(0), 1);
    }

    #[test]
    fn random_eviction_persists_some_unflushed_lines() {
        let mut cfg = PoolConfig::tracked(4096);
        cfg.evict_one_in = 4;
        let p = Pool::new(cfg, Arc::new(CrashController::new()));
        for w in 0..4096u64 {
            p.write(w, w + 1);
        }
        p.simulate_crash();
        let survived = (0..4096u64).filter(|&w| p.read(w) != 0).count();
        assert!(survived > 0, "eviction mode should persist some lines");
        assert!(survived < 4096, "eviction mode must not persist everything");
    }

    #[test]
    fn repeated_flushes_of_one_line_stay_one_pending_entry() {
        let p = Pool::tracked(64);
        p.write(0, 1);
        for _ in 0..100 {
            p.flush(0);
        }
        assert_eq!(pending_flushes(), 1, "duplicate flushes must dedup");
        p.flush(3); // same line as word 0
        assert_eq!(pending_flushes(), 1);
        p.flush(8); // next line
        assert_eq!(pending_flushes(), 2);
        sfence();
        assert_eq!(pending_flushes(), 0);
        assert_eq!(p.read_persisted(0), 1);
    }

    #[test]
    fn flush_range_dedups_against_earlier_flushes() {
        let p = Pool::tracked(64);
        for w in 0..24 {
            p.write(w, w + 1);
        }
        p.flush(0);
        p.flush_range(0, 24); // lines 0, 1, 2 — line 0 already pending
        assert_eq!(pending_flushes(), 3);
        let flushes = p.stats().snapshot().flushes;
        assert_eq!(flushes, 4, "every CLWB call is still counted");
        sfence();
        for w in 0..24 {
            assert_eq!(p.read_persisted(w), w + 1);
        }
    }

    #[test]
    fn obs_off_keeps_stats_zero() {
        let mut cfg = PoolConfig::simple(64);
        cfg.obs = ObsLevel::Off;
        let p = Pool::new(cfg, Arc::new(CrashController::new()));
        assert_eq!(p.obs_level(), ObsLevel::Off);
        p.write(0, 1);
        p.read(0);
        let _ = p.cas(0, 1, 2);
        let _ = p.fetch_add(0, 1);
        let mut buf = [0u64; 16];
        p.read_slice(0, &mut buf);
        p.persist(0, 16);
        assert_eq!(p.stats().snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn audit_sees_writes_flushes_and_fences() {
        let p = Pool::tracked(64);
        audit::begin();
        p.write(1, 7); // line 0
        p.write(9, 8); // line 1, never flushed
        assert_eq!(p.cas(1, 0, 9), Err(7)); // failed CAS dirties nothing
        p.persist(1, 1);
        let rec = audit::end();
        assert_eq!(
            rec.written,
            std::collections::BTreeSet::from([(0, 0), (0, 1)])
        );
        assert_eq!(rec.flushed, std::collections::BTreeSet::from([(0, 0)]));
        assert_eq!(rec.unflushed(), std::collections::BTreeSet::from([(0, 1)]));
        assert!(rec.phantom_flushes().is_empty());
        assert_eq!(rec.fences, 1);
    }

    #[test]
    fn read_slice_counts_lines_not_words() {
        let p = Pool::simple(64);
        let before = p.stats().snapshot();
        let mut buf = [0u64; 18]; // words 7..=24 straddle lines 0..=3
        p.read_slice(7, &mut buf);
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.reads, 4, "words 7..=24 touch lines 0, 1, 2, 3");
    }

    #[test]
    fn stats_count_operations() {
        let p = Pool::simple(64);
        let before = p.stats().snapshot();
        p.write(0, 1);
        p.read(0);
        let _ = p.cas(0, 1, 2);
        p.persist(0, 1);
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.writes, 1);
        assert_eq!(d.reads, 1);
        assert_eq!(d.cas_ops, 1);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.fences, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_access_panics() {
        let p = Pool::simple(8);
        p.read(8);
    }

    #[test]
    fn keep_all_preserves_every_dirty_line() {
        let p = Pool::tracked(64);
        p.write(0, 7); // line 0: dirty, never flushed
        p.write(8, 9); // line 1: flushed but not fenced
        p.flush(8);
        p.simulate_crash_with(CrashPlan::KeepAll);
        discard_pending();
        assert_eq!(p.read(0), 7, "KeepAll keeps unflushed dirty lines");
        assert_eq!(p.read(8), 9, "KeepAll keeps unfenced flushed lines");
    }

    #[test]
    fn keep_unfenced_only_separates_flush_classes() {
        let p = Pool::tracked(64);
        p.write(0, 7); // line 0: flushed, no fence yet
        p.flush(0);
        p.write(8, 9); // line 1: dirty, never flushed
        assert_eq!(p.unfenced_lines(), 1);
        p.simulate_crash_with(CrashPlan::KeepUnfencedOnly);
        discard_pending();
        assert_eq!(p.read(0), 7, "the issued CLWB may have landed");
        assert_eq!(p.read(8), 0, "a never-flushed line must not survive");
        assert_eq!(p.unfenced_lines(), 0, "reboot clears the registry");
    }

    #[test]
    fn crash_residue_sees_dead_threads_unfenced_lines() {
        // A worker flushes a line and exits without fencing: the flush must
        // stay enumerable machine-wide, not die with the thread-local list.
        let p = Pool::tracked(64);
        std::thread::scope(|s| {
            s.spawn(|| {
                p.write(16, 5); // line 2
                p.flush(16);
            });
        });
        assert_eq!(pending_flushes(), 0, "main thread has nothing pending");
        assert_eq!(p.unfenced_lines(), 1, "dead thread's flush is registered");
        p.simulate_crash_with(CrashPlan::KeepUnfencedOnly);
        assert_eq!(p.read(16), 5);
    }

    #[test]
    fn run_crashable_hands_pending_flushes_to_registry() {
        silence_crash_panics();
        let p = Pool::tracked(64);
        let r = run_crashable(|| {
            p.write(0, 7);
            p.flush(0);
            p.crash_controller().trip();
            p.read(0); // panics with Crashed
        });
        assert_eq!(r, Err(Crashed));
        p.crash_controller().disarm();
        // The thread-local list was cleared, but the flush survives in the
        // machine-wide registry — no discard_pending() bookkeeping needed.
        assert_eq!(pending_flushes(), 0);
        assert_eq!(p.unfenced_lines(), 1);
        p.simulate_crash_with(CrashPlan::KeepUnfencedOnly);
        assert_eq!(p.read(0), 7);
    }

    #[test]
    fn seeded_residue_is_deterministic_and_mixed() {
        let build = |seed: u64| {
            let p = Pool::tracked(1024);
            for w in 0..1024u64 {
                p.write(w, w + 1);
            }
            p.simulate_crash_with(CrashPlan::Seeded(seed));
            (0..128u64)
                .filter(|&l| p.read(l * CACHE_LINE_WORDS) != 0)
                .collect::<Vec<_>>()
        };
        let a = build(42);
        let b = build(42);
        let c = build(43);
        assert_eq!(a, b, "same seed, same residue");
        assert!(
            !a.is_empty() && a.len() < 128,
            "a fair coin keeps some lines"
        );
        assert_ne!(a, c, "different seeds explore different residues");
    }

    #[test]
    fn seeded_residue_draws_separate_coins_per_class() {
        // The same line must be able to survive as unfenced while dying as
        // unflushed (or vice versa): the class feeds the hash.
        let survivors = |flush: bool| {
            let p = Pool::tracked(1024);
            for w in 0..1024u64 {
                p.write(w, w + 1);
            }
            if flush {
                for l in 0..128u64 {
                    p.flush(l * CACHE_LINE_WORDS);
                }
            }
            p.simulate_crash_with(CrashPlan::Seeded(7));
            discard_pending();
            (0..128u64)
                .filter(|&l| p.read(l * CACHE_LINE_WORDS) != 0)
                .collect::<Vec<_>>()
        };
        assert_ne!(survivors(false), survivors(true));
    }

    #[test]
    fn pending_set_dedups_across_pools_and_keeps_accounting() {
        // Satellite: the hashed pending set must dedup per (pool, line) —
        // not just per line — while fence semantics and flush counting stay
        // exactly as before.
        let p1 = Pool::tracked(64);
        let p2 = Pool::tracked(64);
        p1.write(0, 1);
        p2.write(0, 2);
        p1.flush(0);
        p2.flush(0); // same line number, different pool: both pending
        assert_eq!(pending_flushes(), 2);
        for _ in 0..50 {
            p1.flush(0); // duplicates: counted, not re-queued
        }
        assert_eq!(pending_flushes(), 2);
        assert_eq!(p1.stats().snapshot().flushes, 51, "every CLWB counted");
        assert_eq!(p1.unfenced_lines(), 1);
        assert_eq!(p2.unfenced_lines(), 1);
        sfence();
        assert_eq!(pending_flushes(), 0);
        assert_eq!(p1.read_persisted(0), 1);
        assert_eq!(p2.read_persisted(0), 2);
        assert_eq!(p1.unfenced_lines(), 0, "fence releases the registry");
        assert_eq!(p2.unfenced_lines(), 0);
    }

    #[test]
    fn discard_pending_releases_registry_claims() {
        let p = Pool::tracked(64);
        p.write(0, 1);
        p.flush(0);
        assert_eq!(p.unfenced_lines(), 1);
        discard_pending();
        assert_eq!(p.unfenced_lines(), 0);
        p.simulate_crash_with(CrashPlan::KeepUnfencedOnly);
        assert_eq!(p.read(0), 0, "discarded flushes are not residue");
    }

    #[test]
    fn two_threads_flushing_one_line_need_two_releases() {
        let p = Pool::tracked(64);
        p.write(0, 1);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    p.flush(0);
                    // exit unfenced: implicit handoff
                });
            }
        });
        assert_eq!(p.unfenced_lines(), 1, "counted per line, not per thread");
        p.simulate_crash_with(CrashPlan::KeepUnfencedOnly);
        assert_eq!(p.read(0), 1);
    }

    #[test]
    fn concurrent_cas_increments_do_not_lose_updates() {
        let p = Pool::simple(64);
        let threads = 8;
        let per = 1000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per {
                        loop {
                            let cur = p.read(0);
                            if p.cas(0, cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(p.read(0), (threads * per) as u64);
    }
}
