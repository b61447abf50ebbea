//! # obs — the workspace observability layer
//!
//! The thesis explains every throughput curve through low-level event
//! counts: cache-line flushes and fences validate persist ordering
//! (§4.1.1), pmem reads per descent expose traversal pathologies, CAS
//! retries and lock waits expose contention. This crate is the shared
//! substrate those measurements flow through:
//!
//! * [`Counter`] — a monotonic counter, sharded across cache-line-padded
//!   slots so concurrent writers on different threads do not ping-pong one
//!   line.
//! * [`Histogram`] — a log₂-bucketed value histogram (p50/p95/p99/max) for
//!   latency capture without per-sample allocation.
//! * [`Registry`] — a named collection of both, with a point-in-time
//!   [`Registry::snapshot`] and a [`Snapshot::since`] delta API (the
//!   generalization of `pmem`'s `StatsSnapshot`).
//! * [`ObsLevel`] — the workspace-wide switch replacing the ad-hoc
//!   `collect_stats: bool` flags: `Off` (instrumentation compiled in but
//!   never executed) and `Counters`. Latency histograms are recorded
//!   wherever a [`Registry`] is handed to the driver, whatever the level.
//! * [`OpKind`] — the operation-type tag used for per-op pmem attribution
//!   (flushes/fences/reads *per* get/insert/scan/batch).
//! * [`report::MetricsReport`] — JSON/CSV export consumed by the E11
//!   experiment and the `--metrics` flag of the bench bins.

pub mod report;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How much instrumentation a component maintains.
///
/// Replaces the bare `collect_stats: bool` that used to be threaded through
/// `PoolConfig`/`ListBuilder`: `Off` promises the hot paths pay only a
/// never-taken branch. Histograms are not gated by the level; they are
/// recorded wherever a [`Registry`] is passed to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsLevel {
    /// No counters. Hot paths pay one predictable branch.
    Off,
    /// Event counters (pool stats, structure counters). The default: this
    /// is what the seed's `collect_stats: true` maintained.
    #[default]
    Counters,
}

impl ObsLevel {
    /// True when event counters are maintained.
    #[inline]
    pub fn counters_enabled(self) -> bool {
        self != ObsLevel::Off
    }
}

/// Operation types for per-op pmem attribution. Benches tag the executing
/// thread with the kind of the operation in flight (`pmem::op_tag`); every
/// pool counter bump lands in that kind's bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    Get = 0,
    Insert = 1,
    Remove = 2,
    Scan = 3,
    Batch = 4,
    /// Anything untagged: load phases, maintenance, recovery.
    Other = 5,
}

impl OpKind {
    pub const ALL: [OpKind; 6] = [
        OpKind::Get,
        OpKind::Insert,
        OpKind::Remove,
        OpKind::Scan,
        OpKind::Batch,
        OpKind::Other,
    ];

    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Scan => "scan",
            OpKind::Batch => "batch",
            OpKind::Other => "other",
        }
    }
}

/// Shards per counter. Power of two; 16 covers the bench thread counts
/// without making `value()` scans expensive.
const SHARDS: usize = 16;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Which shard the calling thread bumps. Assigned round-robin on first use
/// so threads spread over shards regardless of how they were spawned.
fn shard_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s) & (SHARDS - 1)
}

/// A monotonic event counter, sharded to keep concurrent increments off a
/// single contended cache line.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_id()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over all shards (advisory: concurrent increments may or may not
    /// be included, like any relaxed counter read).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// Number of log₂ buckets: bucket `b` counts values in `[2^(b-1), 2^b)`
/// (bucket 0 counts zeros), covering the full `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram. Recording is one relaxed `fetch_add` plus a
/// `fetch_max`; percentile queries walk the 65 buckets. Intended for
/// nanosecond latencies, where a factor-of-two bucket is plenty to tell a
/// cache hit from a pmem round trip.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    max: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            max: self.max.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot().summary();
        write!(f, "Histogram(n={}, p50={}, max={})", s.count, s.p50, s.max)
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub max: u64,
    pub sum: u64,
}

impl HistSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise delta since an earlier snapshot. `max` cannot be
    /// differenced and keeps the later snapshot's value.
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] - earlier.buckets[i]),
            max: self.max,
            sum: self.sum - earlier.sum,
        }
    }

    /// Value at quantile `q` in `[0, 1]`, estimated as the geometric
    /// midpoint of the bucket the rank falls into (exact for `max`).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if b == 0 {
                    return 0;
                }
                let lo = 1u64 << (b - 1);
                let hi = lo.saturating_mul(2).saturating_sub(1).min(self.max);
                return lo.midpoint(hi.max(lo));
            }
        }
        self.max
    }

    pub fn summary(&self) -> HistSummary {
        let count = self.count();
        HistSummary {
            count,
            mean: self.sum.checked_div(count).unwrap_or(0),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

/// The digest benches report: count, mean, p50/p95/p99, max.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub mean: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    hists: BTreeMap<String, Arc<Histogram>>,
}

/// A named collection of counters and histograms.
///
/// Registration is get-or-create and returns a shared handle; hot paths
/// hold the `Arc` and never touch the registry lock. `snapshot()` copies
/// every metric at once, and [`Snapshot::since`] produces the delta a
/// measured run attributes to itself.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.inner.lock().unwrap();
        Arc::clone(
            g.counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or create the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = self.inner.lock().unwrap();
        Arc::clone(
            g.hists
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Copy every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.lock().unwrap();
        Snapshot {
            counters: g
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.value()))
                .collect(),
            hists: g
                .hists
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock().unwrap();
        f.debug_struct("Registry")
            .field("counters", &g.counters.len())
            .field("histograms", &g.hists.len())
            .finish()
    }
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Delta since an earlier snapshot. Metrics absent from `earlier`
    /// (registered later) count from zero.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, &v)| (n.clone(), v - earlier.counters.get(n).copied().unwrap_or(0)))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| {
                    let d = match earlier.hists.get(n) {
                        Some(e) => h.since(e),
                        None => h.clone(),
                    };
                    (n.clone(), d)
                })
                .collect(),
        }
    }

    /// Counter value, zero when unregistered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_level_gates() {
        assert!(!ObsLevel::Off.counters_enabled());
        assert!(ObsLevel::Counters.counters_enabled());
        assert_eq!(ObsLevel::default(), ObsLevel::Counters);
    }

    #[test]
    fn counter_sums_shards() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8042);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot().summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        // Log buckets: p50 of 1..=100 lands in bucket [32, 64).
        assert!((32..64).contains(&s.p50), "p50 = {}", s.p50);
        assert!(s.p99 >= 64, "p99 = {}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().summary(), HistSummary::default());
        h.record(0);
        let s = h.snapshot().summary();
        assert_eq!((s.count, s.p50, s.max), (1, 0, 0));
    }

    #[test]
    fn histogram_since_subtracts_buckets() {
        let h = Histogram::new();
        h.record(10);
        let a = h.snapshot();
        h.record(1000);
        h.record(1000);
        let d = h.snapshot().since(&a);
        assert_eq!(d.count(), 2);
        assert!(d.quantile(0.5) >= 512);
    }

    #[test]
    fn registry_snapshot_delta() {
        let r = Registry::new();
        let c = r.counter("cas_retries");
        c.add(5);
        let a = r.snapshot();
        c.add(7);
        r.counter("splits").inc(); // registered after the first snapshot
        r.histogram("lat.get").record(100);
        let d = r.snapshot().since(&a);
        assert_eq!(d.counter("cas_retries"), 7);
        assert_eq!(d.counter("splits"), 1);
        assert_eq!(d.counter("never_registered"), 0);
        assert_eq!(d.hists["lat.get"].count(), 1);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x"), 2);
    }

    #[test]
    fn op_kind_names_are_distinct() {
        let names: std::collections::BTreeSet<_> = OpKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), OpKind::ALL.len());
        assert_eq!(OpKind::Get as usize, 0);
        assert_eq!(OpKind::Other as usize, OpKind::ALL.len() - 1);
    }
}
