//! pmcheck's dynamic half: a per-cache-line persist-ordering state machine.
//!
//! Every cache line of a check-enabled pool moves through the states
//! `clean → written → flushed → durable` as threads write, CLWB and SFENCE
//! it, with the owning thread and the fence epoch of its last durability
//! transition recorded alongside. Three rules are evaluated against that
//! state machine at runtime:
//!
//! * **PMD01 `unflushed-publish`** (violation): a publish CAS executed
//!   while a non-exempt line written by the issuing thread — or, detected
//!   via the shared line table, by another thread — had not yet reached
//!   `durable`. This is the write → CLWB → SFENCE → publish discipline of
//!   the thesis's Chapter 6 correctness argument: anything a CAS makes
//!   reachable must already be persistent. A thread's obligation on a line
//!   ends with its own CLWB + SFENCE after its own last write to it; a
//!   neighbour's later write to another word of the line is the
//!   neighbour's candidate.
//! * **PMD02 `redundant-fence`** (advisory): an SFENCE that covered zero
//!   pending flushes. Harmless for correctness but exactly the class of
//!   avoidable ordering points MOD (Haria et al.) minimizes; reported so
//!   fence-discipline regressions are visible.
//! * **PMD03 `undurable-read`** (advisory): a post-crash read observed a
//!   line that survived the crash *without ever becoming durable by
//!   protocol* (kept as unflushed/unfenced residue, or spontaneously
//!   evicted). Recovery code is expected to read-and-validate such
//!   residue; the report stream lets the E12 harness cross-check verify
//!   failures against the exact lines recovery trusted.
//! * **PMD04 `durability-race`** (advisory): two threads wrote the same
//!   cache line with no happens-before edge between them through a fence,
//!   CAS, or lock word. Tracked with per-thread vector clocks: every
//!   thread's clock component advances at its release points (SFENCE,
//!   successful CAS, store to a CAS-established sync word) and joins at
//!   its acquire points (fence, CAS, single-word read of a sync word), so
//!   lock-protected and publish-ordered writes never report. Advisory
//!   because the harness cannot see `std::thread` spawn/join edges — a
//!   report means "no *pmem-level* synchronization", which the fence-diet
//!   work needs to see but which a test may legitimately order externally.
//! * **PMD05 `racy-publish-observation`** (advisory): a publish CAS became
//!   durable (its line's SFENCE commit) only *after* another thread had
//!   already read the published line — the linked-but-not-durable window
//!   of *Practical Detectability*: a crash between the observation and the
//!   fence loses a value a concurrent reader may have acted on.
//!
//! Sanctioned exceptions — words whose durability is deliberately deferred
//! or covered by another mechanism (node lock words, pmwcas dirty bits,
//! undo-logged transaction writes) — are marked at the write site with
//! [`exempt_scope`]. Each scope carries a tag that must also appear in the
//! workspace `pmcheck.toml` allowlist; the static lint and the test suite
//! cross-check the two so the dynamic detector and the lint cannot
//! disagree about what is sanctioned.
//!
//! Enabling is per pool via [`PmCheckLevel`] (mirroring `ObsLevel`): at
//! `Off` the hot paths pay one relaxed load and a never-taken branch; at
//! `Track` findings are recorded and drained with
//! [`Pool::take_check_findings`]; `Panic` additionally aborts the test at
//! the first rule *violation*.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::pool::Pool;
use crate::thread;

/// How much persist-ordering checking a pool performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PmCheckLevel {
    /// No tracking; the hot path pays a single never-taken branch.
    #[default]
    Off,
    /// Track line states and record findings for
    /// [`Pool::take_check_findings`].
    Track,
    /// Like `Track`, but panic at the first rule *violation* (advisory
    /// findings never panic). For tests that want a hard stop.
    Panic,
}

impl PmCheckLevel {
    /// True unless the level is [`PmCheckLevel::Off`].
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, PmCheckLevel::Off)
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            PmCheckLevel::Off => 0,
            PmCheckLevel::Track => 1,
            PmCheckLevel::Panic => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            1 => PmCheckLevel::Track,
            2 => PmCheckLevel::Panic,
            _ => PmCheckLevel::Off,
        }
    }
}

/// A persist-ordering rule the dynamic detector evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// PMD01: publish CAS over a non-durable line.
    UnflushedPublish,
    /// PMD02: SFENCE covering zero pending flushes.
    RedundantFence,
    /// PMD03: read of a line that survived a crash without ever being
    /// durable by protocol.
    UndurableRead,
    /// PMD04: two threads wrote one cache line with no happens-before
    /// edge through a fence, CAS, or lock word.
    DurabilityRace,
    /// PMD05: a publish CAS became durable only after a racing read had
    /// already observed the published line.
    RacyPublishObservation,
}

impl Rule {
    /// Stable identifier used in reports, tests and the allowlist.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnflushedPublish => "PMD01",
            Rule::RedundantFence => "PMD02",
            Rule::UndurableRead => "PMD03",
            Rule::DurabilityRace => "PMD04",
            Rule::RacyPublishObservation => "PMD05",
        }
    }

    /// Violations fail a checked run; advisory findings are tallied only.
    pub fn is_violation(self) -> bool {
        matches!(self, Rule::UnflushedPublish)
    }
}

/// One detector finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Pool holding the offending line.
    pub pool: u16,
    /// Cache-line index of the offending line within that pool.
    pub line: u64,
    /// Thread that left the line in its non-durable state.
    pub writer: u16,
    /// Thread whose operation tripped the rule.
    pub detector: u16,
    /// Global fence epoch at detection time.
    pub fence_epoch: u64,
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pool {} line {} (writer t{}, detector t{}, epoch {}): {}",
            self.rule.id(),
            self.pool,
            self.line,
            self.writer,
            self.detector,
            self.fence_epoch,
            self.detail
        )
    }
}

// ---- per-line packed state -------------------------------------------------
//
// bits 0..3   state (CLEAN / WRITTEN / FLUSHED / DURABLE)
// bit  3      non-exempt dirtiness since the last durability transition
// bit  4      exempt (volatile-intent) dirtiness
// bit  5      taint: survived a crash without ever being durable
// bits 8..24  owning thread (last writer) id
// bits 32..64 fence epoch of the last durable transition

const ST_MASK: u64 = 0b111;
pub(crate) const ST_CLEAN: u64 = 0;
pub(crate) const ST_WRITTEN: u64 = 1;
pub(crate) const ST_FLUSHED: u64 = 2;
pub(crate) const ST_DURABLE: u64 = 3;

const F_NONEXEMPT: u64 = 1 << 3;
const F_EXEMPT: u64 = 1 << 4;
const F_TAINT: u64 = 1 << 5;
/// Epoch-deferred flush: the line's CLWB was issued by
/// `Pool::flush_deferred` and its durability deliberately rides the
/// thread's next fence (buffered durable linearizability). The PMD01
/// publish check skips such lines, a crash does not taint them for PMD03,
/// and the flag clears on the fence commit or on a re-write.
const F_DEFER: u64 = 1 << 6;

const OWNER_SHIFT: u32 = 8;
const OWNER_MASK: u64 = 0xffff << OWNER_SHIFT;
const EPOCH_SHIFT: u32 = 32;

#[inline]
fn st(word: u64) -> u64 {
    word & ST_MASK
}

#[inline]
fn owner(word: u64) -> u16 {
    ((word & OWNER_MASK) >> OWNER_SHIFT) as u16
}

#[inline]
fn with_owner(word: u64, tid: u16) -> u64 {
    (word & !OWNER_MASK) | ((tid as u64) << OWNER_SHIFT)
}

/// Global SFENCE epoch: bumped once per fence that commits at least one
/// line of a check-enabled pool.
static FENCE_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Vector clock accumulated by every committing SFENCE: fences are global
/// release+acquire points for the PMD04 happens-before relation.
static FENCE_VC: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Registry of check-enabled pools, keyed by `&Pool` address, so the
/// publish check can consult the line table of pools other than the one
/// being CASed. Entries are purged lazily when their `Weak` dies.
static CHECK_POOLS: Mutex<Option<HashMap<usize, Weak<Pool>>>> = Mutex::new(None);

/// Exempt-scope tags observed at runtime (for allowlist cross-checks).
static USED_TAGS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

thread_local! {
    /// Non-exempt lines this thread has written and not yet made durable
    /// itself; candidates for the publish check. The value records whether
    /// *this thread* has CLWB-ed the line since its own last write to it:
    /// such an entry is settled by this thread's next fence whatever the
    /// shared line table says by then — a neighbour re-dirtying another
    /// word of the line in between leaves the line `written`, but that
    /// write is the neighbour's candidate, not ours. For entries not yet
    /// settled the line table stays the source of truth — those whose line
    /// went durable via another thread's fence are dropped lazily.
    static DIRTY: RefCell<BTreeMap<(usize, u64), bool>> = const { RefCell::new(BTreeMap::new()) };
    /// Stack of nested [`exempt_scope`] tags; non-empty means exempt.
    static EXEMPT: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Set once this thread touches a check-enabled pool; gates the
    /// redundant-fence check so unrelated threads never record findings.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Redundant fences observed by this thread (PMD02 tally).
    static REDUNDANT_FENCES: Cell<u64> = const { Cell::new(0) };
    /// PMD02 tally attributed to the [`OpKind`](crate::stats::OpKind) the
    /// thread was tagged with when each redundant fence executed — the
    /// fence-diet harnesses report these per op so leftovers are visible.
    static REDUNDANT_BY_OP: RefCell<[u64; crate::stats::OP_KINDS]> =
        const { RefCell::new([0; crate::stats::OP_KINDS]) };
    /// This thread's PMD04 vector clock, indexed by thread id. Seeded from
    /// [`FENCE_VC`] on first use: a thread starts ordered after everything
    /// fenced before it first touched pmem.
    static MY_VC: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static MY_VC_SEEDED: Cell<bool> = const { Cell::new(false) };
}

// ---- PMD04 vector clocks ---------------------------------------------------

fn vc_join(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

/// Run `f` on this thread's vector clock (seeding it on first use).
fn with_my_vc<R>(f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
    MY_VC.with(|vc| {
        let mut vc = vc.borrow_mut();
        if !MY_VC_SEEDED.with(|s| s.replace(true)) {
            vc_join(&mut vc, &FENCE_VC.lock().unwrap());
            // Our own component starts strictly above every other thread's
            // view of us, so a fresh thread's unreleased writes are not
            // mistaken for happens-before-covered ones.
            let me = thread::current().id;
            if vc.len() <= me {
                vc.resize(me + 1, 0);
            }
            vc[me] += 1;
        }
        f(&mut vc)
    })
}

/// The calling thread's clock component for thread `tid` (for `tid` =
/// self, that is our release counter).
fn my_vc_at(tid: u16) -> u64 {
    with_my_vc(|vc| vc.get(tid as usize).copied().unwrap_or(0))
}

/// Release: deposit this thread's clock into `target` (for a later
/// acquirer to join), then advance our own component so writes after the
/// release are distinguishable from writes before it.
fn vc_release_into(tid: u16, target: &mut Vec<u64>) {
    with_my_vc(|vc| {
        if vc.len() <= tid as usize {
            vc.resize(tid as usize + 1, 0);
        }
        vc_join(target, vc);
        vc[tid as usize] += 1;
    });
}

/// Acquire: join `src` into this thread's clock.
fn vc_acquire_from(src: &[u64]) {
    with_my_vc(|vc| vc_join(vc, src));
}

/// Acquire+release on a pool sync word (successful CAS): join the word's
/// clock, deposit ours, advance. Creates the word's sync entry — from then
/// on plain stores to it release and single-word reads of it acquire,
/// which is exactly the lock-word unlock/lock-polling pattern.
fn sync_word_acq_rel(pool: &Pool, off: u64) {
    let tid = thread::current().id as u16;
    let mut sync = pool.check_state().sync.lock().unwrap();
    let entry = sync.entry(off).or_default();
    vc_acquire_from(entry);
    vc_release_into(tid, entry);
}

/// Release half only (plain store to an established sync word — the
/// unlock store).
fn sync_word_release(pool: &Pool, off: u64) {
    let tid = thread::current().id as u16;
    let mut sync = pool.check_state().sync.lock().unwrap();
    if let Some(entry) = sync.get_mut(&off) {
        vc_release_into(tid, entry);
    }
}

/// Acquire half only (single-word read of an established sync word — a
/// lock poll or a published-pointer load).
fn sync_word_acquire(pool: &Pool, off: u64) {
    let sync = pool.check_state().sync.lock().unwrap();
    if let Some(entry) = sync.get(&off) {
        vc_acquire_from(entry);
    }
}

/// Last-writer record for one cache line (PMD04/PMD05).
#[derive(Default)]
pub(crate) struct LineRace {
    writer: u16,
    /// The writer's own clock component at write time; a later access by
    /// thread `u` is ordered after it iff `vc_u[writer] >= clock`.
    clock: u64,
    /// A non-exempt publish CAS dirtied this line and its durability has
    /// not been observed yet (PMD05 arming).
    published: bool,
    /// Thread that read the line while `published` and not yet durable.
    observer: Option<u16>,
    /// PMD04 reported for this line already (report once, like PMD03).
    reported: bool,
}

/// RAII guard marking the scope's pmem writes/CASes as volatile-intent:
/// their durability is deliberately deferred or covered by another
/// mechanism, so they are excluded from the PMD01 publish check and from
/// crash tainting. See [`exempt_scope`].
pub struct ExemptGuard {
    _priv: (),
}

impl Drop for ExemptGuard {
    fn drop(&mut self) {
        EXEMPT.with(|e| {
            e.borrow_mut().pop();
        });
    }
}

/// Enter an exempt scope. `tag` names the sanctioned exception and must be
/// declared in the workspace `pmcheck.toml` allowlist (`[[exempt]]` entry);
/// the test suite cross-checks tags observed at runtime against it. Tags
/// are recorded lazily, at the first check-enabled write the scope covers,
/// so entering a scope costs one thread-local push even with checking off.
pub fn exempt_scope(tag: &'static str) -> ExemptGuard {
    EXEMPT.with(|e| e.borrow_mut().push(tag));
    ExemptGuard { _priv: () }
}

/// Exempt-scope tags that have been observed by a check-enabled pool since
/// process start (never cleared; tags are static by construction).
pub fn exempt_tags_used() -> Vec<&'static str> {
    USED_TAGS.lock().unwrap().iter().copied().collect()
}

/// The number of redundant fences (PMD02) the *current thread* has
/// executed since the last call; resets the tally.
pub fn take_redundant_fences() -> u64 {
    REDUNDANT_FENCES.with(|r| r.replace(0))
}

/// Per-[`OpKind`](crate::stats::OpKind) redundant-fence tally for the
/// current thread since the last call (indexed by `OpKind as usize`);
/// resets the tally. Attribution follows the [`op_tag`](crate::op_tag)
/// the thread carried when the empty fence ran, like the pool counters.
pub fn take_redundant_fences_by_op() -> [u64; crate::stats::OP_KINDS] {
    REDUNDANT_BY_OP.with(|r| std::mem::replace(&mut *r.borrow_mut(), [0; crate::stats::OP_KINDS]))
}

/// Current global fence epoch (diagnostic).
pub fn fence_epoch() -> u64 {
    FENCE_EPOCH.load(Ordering::Relaxed)
}

/// Forget the current thread's dirty-line candidates (the machine
/// rebooted, or a test wants isolation). Pool line tables are reset by
/// [`Pool::simulate_crash_with`] themselves.
pub fn reset_thread() {
    DIRTY.with(|d| d.borrow_mut().clear());
    REDUNDANT_FENCES.with(|r| r.set(0));
    REDUNDANT_BY_OP.with(|r| *r.borrow_mut() = [0; crate::stats::OP_KINDS]);
}

/// Drop only the dirty-line candidates (the thread discarded or handed
/// off its pending flushes); the PMD02 tally survives.
pub(crate) fn clear_thread_dirty() {
    DIRTY.with(|d| d.borrow_mut().clear());
}

/// Whether the thread is inside an exempt scope; records the innermost
/// tag as "used" on the way (only reached with checking enabled).
fn note_exempt_scope() -> bool {
    EXEMPT.with(|e| match e.borrow().last() {
        Some(tag) => {
            USED_TAGS.lock().unwrap().insert(tag);
            true
        }
        None => false,
    })
}

fn arm_thread() {
    ARMED.with(|a| a.set(true));
}

pub(crate) fn register_pool(pool: &Arc<Pool>) {
    let mut reg = CHECK_POOLS.lock().unwrap();
    let map = reg.get_or_insert_with(HashMap::new);
    map.retain(|_, w| w.strong_count() > 0);
    map.insert(Arc::as_ptr(pool) as usize, Arc::downgrade(pool));
}

fn lookup_pool(addr: usize) -> Option<Arc<Pool>> {
    let reg = CHECK_POOLS.lock().unwrap();
    reg.as_ref()
        .and_then(|m| m.get(&addr))
        .and_then(Weak::upgrade)
}

// ---- hooks (called from pool.rs, gated on the pool's level) ---------------

/// Update `line`'s state word with `f` and return the previous word.
fn update_line(pool: &Pool, line: u64, f: impl Fn(u64) -> u64) -> u64 {
    let table = pool.check_table();
    let slot = &table[line as usize];
    let mut cur = slot.load(Ordering::Acquire);
    loop {
        match slot.compare_exchange_weak(cur, f(cur), Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => return prev,
            Err(actual) => cur = actual,
        }
    }
}

#[inline]
fn line_word(pool: &Pool, line: u64) -> u64 {
    pool.check_table()[line as usize].load(Ordering::Acquire)
}

/// A write (or fetch-add) dirtied `line`.
#[cold]
pub(crate) fn on_write(pool: &Pool, off: u64) {
    arm_thread();
    let line = crate::line_of(off);
    let tid = thread::current().id as u16;
    let exempt = note_exempt_scope();
    let flag = if exempt { F_EXEMPT } else { F_NONEXEMPT };
    // A write also clears any crash taint (the residue is overwritten
    // before anything read it) and any deferred-flush marker (the line is
    // re-dirtied; it needs a fresh CLWB and fence, deferred or not).
    update_line(pool, line, |w| {
        with_owner(
            (w & !ST_MASK & !F_TAINT & !F_DEFER) | ST_WRITTEN | flag,
            tid,
        )
    });
    if !exempt {
        let key = (pool as *const Pool as usize, line);
        DIRTY.with(|d| {
            d.borrow_mut().insert(key, false);
        });
        race_check_write(pool, line, tid);
    }
    // A plain store to a CAS-established sync word is the unlock pattern:
    // release our clock for the next acquirer. Runs for exempt writes too —
    // lock words live inside exempt scopes but ARE the synchronization.
    sync_word_release(pool, off);
}

/// PMD04: report (once per line) a write racing the line's previous
/// writer, then take over as last writer.
fn race_check_write(pool: &Pool, line: u64, tid: u16) {
    let mut race = pool.check_state().race.lock().unwrap();
    let e = race.entry(line).or_default();
    let racing = e.clock > 0 && e.writer != tid && my_vc_at(e.writer) < e.clock && !e.reported;
    if racing {
        pool.record_finding(Finding {
            rule: Rule::DurabilityRace,
            pool: pool.id(),
            line,
            writer: e.writer,
            detector: tid,
            fence_epoch: fence_epoch(),
            detail: format!(
                "pool {} line {} written by t{} and t{} with no happens-before \
                 edge through a fence, CAS, or lock word",
                pool.id(),
                line,
                e.writer,
                tid
            ),
        });
        e.reported = true;
    }
    e.writer = tid;
    e.clock = my_vc_at(tid);
    e.published = false;
    e.observer = None;
}

/// A successful CAS on `off`. Non-exempt CASes are publish points: every
/// non-exempt line this thread has written must already be durable.
#[cold]
pub(crate) fn on_cas_success(pool: &Pool, off: u64) {
    arm_thread();
    let line = crate::line_of(off);
    // The CAS word is synchronization vocabulary for PMD04 regardless of
    // exemption — lock-word CASes live in exempt scopes but ARE the
    // happens-before edges.
    sync_word_acq_rel(pool, off);
    let exempt = EXEMPT.with(|e| !e.borrow().is_empty());
    if !exempt {
        publish_check(pool, line);
    }
    on_write(pool, off);
    if !exempt {
        // Arm PMD05: the line is published but not yet durable; a
        // cross-thread read before its fence commit is a racy observation.
        let mut race = pool.check_state().race.lock().unwrap();
        if let Some(e) = race.get_mut(&line) {
            e.published = true;
            e.observer = None;
        }
    }
}

/// The PMD01 publish check: walk the thread's dirty-line candidates and
/// report any that is still not durable (excluding the CAS target's own
/// line, which the CAS itself is about to dirty and the caller persists
/// after publication).
fn publish_check(cas_pool: &Pool, cas_line: u64) {
    let self_key = (cas_pool as *const Pool as usize, cas_line);
    let candidates: Vec<(usize, u64)> = DIRTY.with(|d| d.borrow().keys().copied().collect());
    if candidates.is_empty() {
        return;
    }
    let tid = thread::current().id as u16;
    let mut cleared: Vec<(usize, u64)> = Vec::new();
    for key in candidates {
        if key == self_key {
            continue;
        }
        let (addr, line) = key;
        let target = if addr == cas_pool as *const Pool as usize {
            None // same pool: use `cas_pool` directly
        } else {
            match lookup_pool(addr) {
                Some(p) => Some(p),
                None => {
                    cleared.push(key); // pool gone; stale candidate
                    continue;
                }
            }
        };
        let pool_ref: &Pool = target.as_deref().unwrap_or(cas_pool);
        if !pool_ref.check_on() {
            cleared.push(key);
            continue;
        }
        let w = line_word(pool_ref, line);
        if st(w) == ST_DURABLE || st(w) == ST_CLEAN || w & F_NONEXEMPT == 0 {
            cleared.push(key); // became durable (possibly via another thread)
            continue;
        }
        if w & F_DEFER != 0 {
            // Sanctioned deferral: the CLWB is issued and the thread's
            // next fence commits it — stays a candidate (the fence commit
            // drops it), but is not a PMD01 at this publish.
            continue;
        }
        let writer = owner(w);
        let how = match st(w) {
            ST_WRITTEN => "written but never flushed",
            _ => "flushed but not fenced",
        };
        let who = if writer == tid {
            "by the publishing thread".to_string()
        } else {
            format!("by another thread (t{writer})")
        };
        pool_ref.record_finding(Finding {
            rule: Rule::UnflushedPublish,
            pool: pool_ref.id(),
            line,
            writer,
            detector: tid,
            fence_epoch: fence_epoch(),
            detail: format!(
                "publish CAS on pool {} line {} while line {} was {how} {who}",
                cas_pool.id(),
                cas_line,
                line
            ),
        });
        cleared.push(key); // report once, not on every subsequent CAS
    }
    if !cleared.is_empty() {
        DIRTY.with(|d| {
            let mut d = d.borrow_mut();
            for key in cleared {
                d.remove(&key);
            }
        });
    }
}

/// A CLWB on `line`: `written → flushed` (dirtiness and owner persist
/// until the fence).
#[cold]
pub(crate) fn on_flush(pool: &Pool, line: u64) {
    arm_thread();
    update_line(pool, line, |w| {
        if st(w) == ST_WRITTEN {
            (w & !ST_MASK) | ST_FLUSHED
        } else {
            w
        }
    });
    let key = (pool as *const Pool as usize, line);
    DIRTY.with(|d| {
        if let Some(flushed) = d.borrow_mut().get_mut(&key) {
            *flushed = true;
        }
    });
}

/// A deferred CLWB over `[off, off + words)` (see
/// [`Pool::flush_deferred`]): mark every covered line as sanctioned-
/// deferred. Runs *after* the ordinary [`on_flush`] transitions, so the
/// lines are `flushed` + `F_DEFER` until the fence commit (which clears
/// both) or a re-write (which clears the deferral with the rest).
#[cold]
pub(crate) fn on_flush_deferred(pool: &Pool, off: u64, words: u64) {
    let first = crate::line_of(off);
    let last = crate::line_of(off + words.max(1) - 1);
    for line in first..=last {
        update_line(pool, line, |w| w | F_DEFER);
    }
}

/// An SFENCE committed `line`: `flushed → durable` (a line re-written
/// after its flush stays `written` — it needs another CLWB).
pub(crate) fn on_fence_commit(pool: &Pool, line: u64, epoch: u64) {
    let prev = update_line(pool, line, |w| {
        if st(w) == ST_FLUSHED {
            ((epoch << EPOCH_SHIFT) | ST_DURABLE) | (w & F_TAINT)
        } else {
            w
        }
    });
    // The fence settles this thread's candidate when its own CLWB came
    // after its own last write. A line the thread re-dirtied after its
    // CLWB needs a fresh flush and stays a candidate; a line *another*
    // thread re-dirtied meanwhile is that thread's to flush.
    let key = (pool as *const Pool as usize, line);
    DIRTY.with(|d| {
        let mut d = d.borrow_mut();
        if d.get(&key) == Some(&true) {
            d.remove(&key);
        }
    });
    if st(prev) == ST_FLUSHED {
        // PMD05: this commit is what made the publish durable — if a
        // racing read already observed the published line, the durable
        // order is publish-observed-then-committed.
        let mut race = pool.check_state().race.lock().unwrap();
        if let Some(e) = race.get_mut(&line) {
            if e.published {
                if let Some(observer) = e.observer {
                    pool.record_finding(Finding {
                        rule: Rule::RacyPublishObservation,
                        pool: pool.id(),
                        line,
                        writer: e.writer,
                        detector: observer,
                        fence_epoch: epoch,
                        detail: format!(
                            "publish CAS on pool {} line {} became durable at epoch {} \
                             only after t{} had already read the published line",
                            pool.id(),
                            line,
                            epoch,
                            observer
                        ),
                    });
                }
                e.published = false;
                e.observer = None;
            }
        }
    }
}

/// Called once per [`sfence`](crate::sfence) drain that commits at least
/// one check-enabled line; returns the fence epoch for the commits.
/// Also the PMD04 global release+acquire point: the fencing thread joins
/// the fence clock and deposits its own.
pub(crate) fn next_fence_epoch() -> u64 {
    {
        let tid = thread::current().id as u16;
        with_my_vc(|_| ()); // seed now — seeding locks FENCE_VC itself
        let mut fence_vc = FENCE_VC.lock().unwrap();
        vc_acquire_from(&fence_vc);
        vc_release_into(tid, &mut fence_vc);
    }
    FENCE_EPOCH.fetch_add(1, Ordering::Relaxed) + 1
}

/// Called by [`sfence`](crate::sfence) when the pending list was empty.
pub(crate) fn on_empty_fence() {
    if ARMED.with(|a| a.get()) {
        REDUNDANT_FENCES.with(|r| r.set(r.get() + 1));
        REDUNDANT_BY_OP.with(|r| r.borrow_mut()[crate::stats::current_op_index()] += 1);
    }
}

/// A read touched `[off, off + words)`: report tainted lines (once each),
/// acquire sync-word clocks, and record PMD05 racy observations.
#[cold]
pub(crate) fn on_read(pool: &Pool, off: u64, words: u64) {
    // A single-word read of a CAS-established sync word is the acquire
    // half of the lock-poll / published-pointer-load pattern.
    if words <= 1 {
        sync_word_acquire(pool, off);
    }
    let tid = thread::current().id as u16;
    let first = crate::line_of(off);
    let last = crate::line_of(off + words.max(1) - 1);
    {
        let mut race = pool.check_state().race.lock().unwrap();
        for line in first..=last {
            if let Some(e) = race.get_mut(&line) {
                if e.published
                    && e.writer != tid
                    && e.observer.is_none()
                    && st(line_word(pool, line)) != ST_DURABLE
                {
                    e.observer = Some(tid);
                }
            }
        }
    }
    for line in first..=last {
        let prev = update_line(pool, line, |w| w & !F_TAINT);
        if prev & F_TAINT != 0 {
            let tid = thread::current().id as u16;
            pool.record_finding(Finding {
                rule: Rule::UndurableRead,
                pool: pool.id(),
                line,
                writer: owner(prev),
                detector: tid,
                fence_epoch: fence_epoch(),
                detail: format!(
                    "read of pool {} line {} which survived the crash without ever being durable",
                    pool.id(),
                    line
                ),
            });
        }
    }
}

/// Crash classification for one line, from
/// [`Pool::simulate_crash_with`]: `image_dirty` is whether the volatile
/// and persisted images differed, `kept` whether the plan persisted it.
/// Lines carrying non-exempt dirtiness that survive without a fence —
/// kept residue, or spontaneous eviction (image already clean while the
/// state machine says non-durable) — are tainted for PMD03.
pub(crate) fn on_crash_line(pool: &Pool, line: u64, image_dirty: bool, kept: bool) {
    // PMD05 at the crash edge: a publish that was observed but never
    // became durable is the lost-linked-value window itself.
    {
        let mut race = pool.check_state().race.lock().unwrap();
        if let Some(e) = race.remove(&line) {
            if e.published {
                if let Some(observer) = e.observer {
                    pool.record_finding(Finding {
                        rule: Rule::RacyPublishObservation,
                        pool: pool.id(),
                        line,
                        writer: e.writer,
                        detector: observer,
                        fence_epoch: fence_epoch(),
                        detail: format!(
                            "crash hit pool {} line {} while its publish CAS, already \
                             read by t{}, had not become durable",
                            pool.id(),
                            line,
                            observer
                        ),
                    });
                }
            }
        }
    }
    update_line(pool, line, |w| {
        // Epoch-deferred lines are excluded: their CLWB was issued and
        // their post-crash validation is recovery's contract (the link
        // walk re-derives them), so surviving is sanctioned, not taint.
        let survived_undurable = st(w) != ST_DURABLE
            && st(w) != ST_CLEAN
            && w & F_NONEXEMPT != 0
            && w & F_DEFER == 0
            && (kept || !image_dirty);
        if survived_undurable {
            F_TAINT | (w & OWNER_MASK)
        } else {
            0
        }
    });
}

/// Allocate the line-state table for a pool with `lines` cache lines.
pub(crate) fn new_table(lines: u64) -> Box<[AtomicU64]> {
    (0..lines).map(|_| AtomicU64::new(0)).collect()
}

/// Lazily-initialized per-pool storage for the detector.
#[derive(Default)]
pub(crate) struct CheckState {
    pub(crate) table: OnceLock<Box<[AtomicU64]>>,
    pub(crate) findings: Mutex<Vec<Finding>>,
    /// PMD04 sync-word vector clocks, keyed by word offset. A word enters
    /// the map at its first successful CAS.
    pub(crate) sync: Mutex<HashMap<u64, Vec<u64>>>,
    /// PMD04/PMD05 last-writer records, keyed by cache-line index.
    pub(crate) race: Mutex<HashMap<u64, LineRace>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{sfence, Pool};
    use crate::CrashPlan;

    fn checked_pool() -> Arc<Pool> {
        let p = Pool::tracked(256);
        p.set_check_level(PmCheckLevel::Track);
        p
    }

    #[test]
    fn clean_write_persist_publish_has_no_findings() {
        let p = checked_pool();
        p.write(0, 7);
        p.persist(0, 1);
        assert_eq!(p.cas(16, 0, 1), Ok(0)); // publish on line 2
        p.persist(16, 1);
        assert!(p.take_check_findings().is_empty());
    }

    #[test]
    fn unflushed_write_at_publish_is_pmd01() {
        let p = checked_pool();
        p.write(0, 7); // line 0: persisted properly
        p.persist(0, 1);
        p.write(8, 9); // line 1: never flushed
        assert_eq!(p.cas(16, 0, 1), Ok(0)); // publish on line 2
        let findings = p.take_check_findings();
        assert_eq!(findings.len(), 1, "exactly the skipped line: {findings:?}");
        assert_eq!(findings[0].rule.id(), "PMD01");
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].rule.is_violation());
        // Reported once, not on every later CAS.
        p.persist(16, 1); // settle the first CAS's own line
        let _ = p.cas(24, 0, 1);
        assert!(p.take_check_findings().is_empty());
        p.write(8, 0); // leave the line clean for other tests' threads
        p.persist(8, 1);
    }

    #[test]
    fn flushed_but_unfenced_write_at_publish_is_pmd01() {
        let p = checked_pool();
        p.write(8, 9);
        p.flush(8); // CLWB issued, no SFENCE
        assert_eq!(p.cas(16, 0, 1), Ok(0));
        let findings = p.take_check_findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule.id(), "PMD01");
        assert!(findings[0].detail.contains("flushed but not fenced"));
        sfence();
    }

    #[test]
    fn exempt_scope_suppresses_pmd01() {
        let p = checked_pool();
        {
            let _g = exempt_scope("test-exempt");
            p.write(8, 9); // volatile-intent by declaration
        }
        assert_eq!(p.cas(16, 0, 1), Ok(0));
        p.persist(16, 1);
        assert!(p.take_check_findings().is_empty());
        assert!(exempt_tags_used().contains(&"test-exempt"));
    }

    #[test]
    fn empty_fence_counts_as_redundant() {
        let p = checked_pool();
        p.write(0, 1); // arm the thread
        p.persist(0, 1);
        let _ = take_redundant_fences();
        sfence(); // nothing pending
        sfence();
        assert_eq!(take_redundant_fences(), 2);
        assert_eq!(take_redundant_fences(), 0, "taking resets the tally");
        assert!(p
            .take_check_findings()
            .iter()
            .all(|f| !f.rule.is_violation()));
    }

    #[test]
    fn undurable_crash_survivor_read_is_pmd03() {
        let p = checked_pool();
        p.write(8, 9); // line 1: never flushed
        p.simulate_crash_with(CrashPlan::KeepAll); // ... but it survives
        reset_thread();
        assert_eq!(p.read(8), 9);
        let findings = p.take_check_findings();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule.id(), "PMD03");
        assert_eq!(findings[0].line, 1);
        assert!(!findings[0].rule.is_violation());
        // Taint reports once.
        assert_eq!(p.read(8), 9);
        assert!(p.take_check_findings().is_empty());
    }

    #[test]
    fn dropped_residue_is_not_tainted() {
        let p = checked_pool();
        p.write(8, 9);
        p.simulate_crash_with(CrashPlan::DropAll);
        reset_thread();
        assert_eq!(p.read(8), 0);
        assert!(p.take_check_findings().is_empty());
    }

    #[test]
    fn durable_lines_survive_crash_untainted() {
        let p = checked_pool();
        p.write(8, 9);
        p.persist(8, 1);
        p.simulate_crash_with(CrashPlan::KeepAll);
        reset_thread();
        assert_eq!(p.read(8), 9);
        assert!(p.take_check_findings().is_empty());
    }

    #[test]
    fn refenced_dirty_line_needs_a_new_flush() {
        let p = checked_pool();
        p.write(8, 1);
        p.flush(8);
        p.write(8, 2); // re-dirtied after the CLWB
        sfence(); // commits the stale flush; line is NOT durable
        assert_eq!(p.cas(16, 0, 1), Ok(0));
        let findings = p.take_check_findings();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule.id(), "PMD01");
        p.persist(8, 1);
    }

    /// Word-granular sharing of one line (two key slots of a node): thread
    /// A's write is flushed and fenced by A, but B dirtied a neighbouring
    /// word between A's CLWB and A's SFENCE, so the line table still says
    /// `written`. A met its obligation; the open write is B's alone.
    #[test]
    fn neighbour_redirtying_a_flushed_line_is_not_the_flushers_pmd01() {
        use std::sync::mpsc::channel;
        let p = checked_pool();
        let (to_b, b_go) = channel::<()>();
        let (to_a, a_go) = channel::<()>();
        let pb = Arc::clone(&p);
        let b = std::thread::spawn(move || {
            crate::thread::register(crate::MAX_THREADS - 5, 0);
            b_go.recv().unwrap();
            pb.write(9, 2); // same line as A's word 8, after A's CLWB
            to_a.send(()).unwrap();
            b_go.recv().unwrap();
            assert_eq!(pb.cas(24, 0, 1), Ok(0)); // B publishes over its own open write
            pb.persist(8, 2);
            pb.persist(24, 1);
        });
        p.write(8, 1);
        p.flush(8);
        to_b.send(()).unwrap();
        a_go.recv().unwrap();
        sfence(); // A's write is durable; the line is `written` (by B)
        assert_eq!(p.cas(16, 0, 1), Ok(0));
        p.persist(16, 1);
        let findings = p.take_check_findings();
        assert!(
            findings.iter().all(|f| f.rule.id() != "PMD01"),
            "A flushed and fenced its own write: {findings:?}"
        );
        to_b.send(()).unwrap();
        b.join().unwrap();
        let findings = p.take_check_findings();
        let open: Vec<_> = findings.iter().filter(|f| f.rule.id() == "PMD01").collect();
        assert_eq!(
            open.len(),
            1,
            "B's unflushed write is still B's: {findings:?}"
        );
        assert_eq!(open[0].line, 1);
        assert_eq!(open[0].detector, (crate::MAX_THREADS - 5) as u16);
    }

    #[test]
    fn deferred_flush_suppresses_pmd01_at_publish() {
        let p = checked_pool();
        p.write(8, 9); // line 1
        p.flush_deferred(8, 1); // CLWB issued, durability deferred
        assert_eq!(p.cas(16, 0, 1), Ok(0)); // publish: deferred line is sanctioned
        assert!(
            p.take_check_findings()
                .iter()
                .all(|f| f.rule.id() != "PMD01"),
            "deferred flush must not be a PMD01"
        );
        p.persist(16, 1); // commits line 1 (pending) and the CAS line
        assert!(p.take_check_findings().is_empty());
    }

    #[test]
    fn rewrite_clears_the_deferral() {
        let p = checked_pool();
        p.write(8, 9);
        p.flush_deferred(8, 1);
        sfence(); // deferred line goes durable
        p.write(8, 10); // re-dirtied: needs its own flush+fence again
        assert_eq!(p.cas(16, 0, 2), Ok(0));
        let findings = p.take_check_findings();
        assert!(
            findings
                .iter()
                .any(|f| f.rule.id() == "PMD01" && f.line == 1),
            "a rewrite after the deferral is an ordinary dirty line: {findings:?}"
        );
        p.persist(8, 1);
        p.persist(16, 1);
    }

    #[test]
    fn deferred_flush_residue_is_not_tainted() {
        let p = checked_pool();
        p.write(8, 9);
        p.flush_deferred(8, 1);
        p.simulate_crash_with(CrashPlan::KeepAll);
        crate::pool::discard_pending();
        reset_thread();
        assert_eq!(p.read(8), 9);
        assert!(
            p.take_check_findings()
                .iter()
                .all(|f| f.rule.id() != "PMD03"),
            "epoch-deferred residue is sanctioned; recovery validates it"
        );
    }

    #[test]
    fn redundant_fences_attribute_to_the_tagged_op() {
        use crate::stats::{op_tag, OpKind};
        let p = checked_pool();
        p.write(0, 1); // arm the thread
        p.persist(0, 1);
        let _ = take_redundant_fences();
        let _ = take_redundant_fences_by_op();
        {
            let _t = op_tag(OpKind::Insert);
            sfence(); // nothing pending: PMD02 charged to Insert
        }
        sfence(); // untagged: Other
        let by_op = take_redundant_fences_by_op();
        assert_eq!(by_op[OpKind::Insert as usize], 1);
        assert_eq!(by_op[OpKind::Other as usize], 1);
        assert_eq!(by_op.iter().sum::<u64>(), 2);
        assert_eq!(take_redundant_fences(), 2, "total tally is independent");
        assert_eq!(
            take_redundant_fences_by_op().iter().sum::<u64>(),
            0,
            "taking resets the per-op tally"
        );
    }

    #[test]
    fn unsynchronized_cross_thread_writes_are_pmd04() {
        let p = checked_pool();
        // Two fresh threads with reserved ids write the same cache line
        // (offsets 8 and 9 share line 1) with no fence/CAS between them.
        let p1 = Arc::clone(&p);
        std::thread::spawn(move || {
            crate::thread::register(crate::MAX_THREADS - 1, 0);
            p1.write(8, 1);
        })
        .join()
        .unwrap();
        let p2 = Arc::clone(&p);
        std::thread::spawn(move || {
            crate::thread::register(crate::MAX_THREADS - 2, 0);
            p2.write(9, 2);
            p2.persist(8, 2); // leave the line settled for other tests
        })
        .join()
        .unwrap();
        let findings = p.take_check_findings();
        let race: Vec<_> = findings.iter().filter(|f| f.rule.id() == "PMD04").collect();
        assert_eq!(race.len(), 1, "{findings:?}");
        assert_eq!(race[0].line, 1);
        assert_eq!(race[0].writer, (crate::MAX_THREADS - 1) as u16);
        assert!(!race[0].rule.is_violation(), "PMD04 is advisory");
    }

    #[test]
    fn lock_word_cas_orders_cross_thread_writes() {
        let p = checked_pool();
        // Same two-thread shape, but thread B acquires the "lock word"
        // (offset 32) that thread A released: CAS + release-store give a
        // happens-before edge, so no PMD04.
        let p1 = Arc::clone(&p);
        std::thread::spawn(move || {
            crate::thread::register(crate::MAX_THREADS - 3, 0);
            assert_eq!(p1.cas(32, 0, 1), Ok(0)); // acquire
            p1.write(8, 1);
            p1.write(32, 0); // release store on the sync word
            p1.persist(8, 1);
            p1.persist(32, 1);
        })
        .join()
        .unwrap();
        let p2 = Arc::clone(&p);
        std::thread::spawn(move || {
            crate::thread::register(crate::MAX_THREADS - 4, 0);
            assert_eq!(p2.cas(32, 0, 1), Ok(0)); // acquire joins A's release
            p2.write(9, 2);
            p2.write(32, 0);
            p2.persist(8, 2);
            p2.persist(32, 1);
        })
        .join()
        .unwrap();
        let findings = p.take_check_findings();
        assert!(
            findings.iter().all(|f| f.rule.id() != "PMD04"),
            "lock-word ordered writes must not race: {findings:?}"
        );
    }

    #[test]
    fn racy_publish_observation_is_pmd05() {
        let p = checked_pool();
        p.write(0, 7); // prepared data, properly persisted
        p.persist(0, 1);
        assert_eq!(p.cas(16, 0, 1), Ok(0)); // publish on line 2, not yet durable
        let p2 = Arc::clone(&p);
        std::thread::spawn(move || {
            assert_eq!(p2.read(16), 1); // observes the undurable publish
        })
        .join()
        .unwrap();
        p.persist(16, 1); // the fence commits the publish AFTER the read
        let findings = p.take_check_findings();
        let racy: Vec<_> = findings.iter().filter(|f| f.rule.id() == "PMD05").collect();
        assert_eq!(racy.len(), 1, "{findings:?}");
        assert_eq!(racy[0].line, 2);
        assert!(!racy[0].rule.is_violation(), "PMD05 is advisory");
    }

    #[test]
    fn publish_fenced_before_read_has_no_pmd05() {
        let p = checked_pool();
        assert_eq!(p.cas(16, 0, 1), Ok(0));
        p.persist(16, 1); // durable before anyone reads
        let p2 = Arc::clone(&p);
        std::thread::spawn(move || {
            assert_eq!(p2.read(16), 1);
        })
        .join()
        .unwrap();
        assert!(p
            .take_check_findings()
            .iter()
            .all(|f| f.rule.id() != "PMD05"));
    }

    #[test]
    fn panic_level_aborts_on_violation() {
        let p = Pool::tracked(256);
        p.set_check_level(PmCheckLevel::Panic);
        let p2 = Arc::clone(&p);
        let r = std::thread::spawn(move || {
            p2.write(8, 9);
            let _ = p2.cas(16, 0, 1);
        })
        .join();
        assert!(r.is_err(), "Panic level must abort on PMD01");
    }

    #[test]
    #[should_panic(expected = "Tracked")]
    fn enabling_on_fast_pool_panics() {
        let p = Pool::simple(64);
        p.set_check_level(PmCheckLevel::Track);
    }
}
