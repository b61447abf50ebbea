//! Structure-level observability for [`UpSkipList`](crate::UpSkipList):
//! named counters for the events the pool-level [`pmem::Stats`] cannot see
//! — CAS retries, node-lock acquisition failures, node splits and in-place
//! purges, index-shadow hits/misses, in-node tag hits/fallbacks,
//! compactions, and traversal hops per level.
//!
//! All counters live in an [`obs::Registry`] owned by the list, so a bench
//! can `registry().snapshot()` before and after a phase and diff with
//! [`obs::Snapshot::since`]. The hot paths hold pre-resolved
//! [`Arc<Counter>`] handles (no name lookups) and bail on a single `enabled`
//! test when the list was built with [`obs::ObsLevel::Off`].

use std::sync::Arc;

use obs::{Counter, ObsLevel, Registry};
use pmalloc::AllocCounters;

use crate::config::MAX_HEIGHT;

/// Registry names for the allocator path counters mirrored into the list's
/// registry, in [`AllocCounters`] field order (see `alloc_counter_values`).
const ALLOC_COUNTER_NAMES: [&str; 8] = [
    "alloc.fast",
    "alloc.slow",
    "alloc.magazine_hits",
    "alloc.leases",
    "alloc.lease_blocks",
    "alloc.outbox_flushes",
    "alloc.outbox_blocks",
    "alloc.heals",
];

/// [`AllocCounters`] field values in [`ALLOC_COUNTER_NAMES`] order.
fn alloc_counter_values(c: &AllocCounters) -> [u64; 8] {
    [
        c.fast_allocs,
        c.slow_allocs,
        c.magazine_hits,
        c.leases,
        c.lease_blocks,
        c.outbox_flushes,
        c.outbox_blocks,
        c.heals,
    ]
}

/// Pre-resolved counter handles for the list's hot paths.
pub struct StructStats {
    /// `ObsLevel::Counters` or `Full`: counters below are live.
    pub(crate) enabled: bool,
    /// `ObsLevel::Full`: callers may additionally record latency
    /// histograms into [`StructStats::registry`].
    pub(crate) full: bool,
    registry: Arc<Registry>,
    /// Link/claim/update CASes that lost a race and retried.
    pub(crate) cas_retries: Arc<Counter>,
    /// Per-node lock acquisitions (read or write) that failed and forced a
    /// restart or defer.
    pub(crate) lock_waits: Arc<Counter>,
    /// Completed node splits.
    pub(crate) node_splits: Arc<Counter>,
    /// Full nodes whose removed keys' slots were reclaimed in place of a
    /// split.
    pub(crate) node_purges: Arc<Counter>,
    /// Shadow consults that resolved the upper levels from a fresh region.
    pub(crate) shadow_hits: Arc<Counter>,
    /// Shadow consults that missed (discarded, contended, stale region, or
    /// failed start-predecessor validation).
    pub(crate) shadow_misses: Arc<Counter>,
    /// Full shadow image rebuilds (first descent of an epoch, retuning).
    pub(crate) shadow_rebuilds: Arc<Counter>,
    /// Structure-generation bumps (splits, purges, removes, compactions) — each
    /// invalidates every shadow region in one store.
    pub(crate) shadow_invalidations: Arc<Counter>,
    /// Software prefetch hints issued by the descent.
    pub(crate) prefetch_issued: Arc<Counter>,
    /// In-node searches answered by a tag-steered key-word read.
    pub(crate) tag_hits: Arc<Counter>,
    /// In-node searches on a tagged node that fell back to the streamed
    /// linear scan (absent key, or tags missing/stale).
    pub(crate) tag_fallbacks: Arc<Counter>,
    /// Quiescent compaction passes.
    pub(crate) compactions: Arc<Counter>,
    /// Dead nodes unlinked and freed by compaction.
    pub(crate) nodes_reclaimed: Arc<Counter>,
    /// List-pointer hops taken at each level during traversals.
    pub(crate) hops: [Arc<Counter>; MAX_HEIGHT],
    /// Mirrors of the allocator path counters (`alloc.*` names), updated by
    /// [`StructStats::sync_alloc`] so registry snapshots include them.
    alloc_mirror: [Arc<Counter>; 8],
}

impl std::fmt::Debug for StructStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StructStats")
            .field("enabled", &self.enabled)
            .field("full", &self.full)
            .finish()
    }
}

impl StructStats {
    pub fn new(level: ObsLevel) -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            enabled: level.counters_enabled(),
            full: level.full(),
            cas_retries: registry.counter("list.cas_retries"),
            lock_waits: registry.counter("list.lock_waits"),
            node_splits: registry.counter("list.node_splits"),
            node_purges: registry.counter("list.node_purges"),
            shadow_hits: registry.counter("list.shadow_hits"),
            shadow_misses: registry.counter("list.shadow_misses"),
            shadow_rebuilds: registry.counter("list.shadow_rebuilds"),
            shadow_invalidations: registry.counter("list.shadow_invalidations"),
            prefetch_issued: registry.counter("list.prefetch_issued"),
            tag_hits: registry.counter("list.tag_hits"),
            tag_fallbacks: registry.counter("list.tag_fallbacks"),
            compactions: registry.counter("list.compactions"),
            nodes_reclaimed: registry.counter("list.nodes_reclaimed"),
            hops: std::array::from_fn(|l| registry.counter(&format!("list.hops.l{l:02}"))),
            alloc_mirror: ALLOC_COUNTER_NAMES.map(|n| registry.counter(n)),
            registry,
        }
    }

    /// The registry all structure counters live in. Benches may add their
    /// own counters and histograms to it (the driver records per-op
    /// latencies as `lat.<op>` histograms when the level is `Full`).
    #[inline]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    #[inline]
    pub fn level(&self) -> ObsLevel {
        if self.full {
            ObsLevel::Full
        } else if self.enabled {
            ObsLevel::Counters
        } else {
            ObsLevel::Off
        }
    }

    // Hot-path increment helpers: one predictable branch when off.

    #[inline]
    pub(crate) fn cas_retry(&self) {
        if self.enabled {
            self.cas_retries.inc();
        }
    }

    #[inline]
    pub(crate) fn lock_wait(&self) {
        if self.enabled {
            self.lock_waits.inc();
        }
    }

    #[inline]
    pub(crate) fn node_split(&self) {
        if self.enabled {
            self.node_splits.inc();
        }
    }

    #[inline]
    pub(crate) fn node_purge(&self) {
        if self.enabled {
            self.node_purges.inc();
        }
    }

    #[inline]
    pub(crate) fn shadow_hit(&self) {
        if self.enabled {
            self.shadow_hits.inc();
        }
    }

    #[inline]
    pub(crate) fn shadow_miss(&self) {
        if self.enabled {
            self.shadow_misses.inc();
        }
    }

    #[inline]
    pub(crate) fn shadow_rebuild(&self) {
        if self.enabled {
            self.shadow_rebuilds.inc();
        }
    }

    #[inline]
    pub(crate) fn shadow_invalidation(&self) {
        if self.enabled {
            self.shadow_invalidations.inc();
        }
    }

    #[inline]
    pub(crate) fn prefetch_issue(&self) {
        if self.enabled {
            self.prefetch_issued.inc();
        }
    }

    #[inline]
    pub(crate) fn tag_hit(&self) {
        if self.enabled {
            self.tag_hits.inc();
        }
    }

    #[inline]
    pub(crate) fn tag_fallback(&self) {
        if self.enabled {
            self.tag_fallbacks.inc();
        }
    }

    #[inline]
    pub(crate) fn compaction(&self) {
        if self.enabled {
            self.compactions.inc();
        }
    }

    #[inline]
    pub(crate) fn reclaimed(&self, n: u64) {
        if self.enabled {
            self.nodes_reclaimed.add(n);
        }
    }

    /// Record `n` hops taken at `level` during one traversal.
    #[inline]
    pub(crate) fn hops_at(&self, level: usize, n: u64) {
        if self.enabled && n > 0 {
            self.hops[level].add(n);
        }
    }

    /// Bring the registry's `alloc.*` mirror counters up to the allocator's
    /// current values. Registry counters are monotonic, so the mirror adds
    /// the delta since the last sync; concurrent syncs can transiently
    /// over-add, which is fine for the single reporting thread the
    /// registry-snapshot path assumes.
    pub(crate) fn sync_alloc(&self, c: &AllocCounters) {
        for (ctr, target) in self.alloc_mirror.iter().zip(alloc_counter_values(c)) {
            let cur = ctr.value();
            if target > cur {
                ctr.add(target - cur);
            }
        }
    }

    /// A plain-struct snapshot of the structure counters (the registry
    /// remains the source of truth; this is a convenience for reports).
    pub fn snapshot(&self) -> StructMetricsSnapshot {
        StructMetricsSnapshot {
            cas_retries: self.cas_retries.value(),
            lock_waits: self.lock_waits.value(),
            node_splits: self.node_splits.value(),
            node_purges: self.node_purges.value(),
            shadow_hits: self.shadow_hits.value(),
            shadow_misses: self.shadow_misses.value(),
            shadow_rebuilds: self.shadow_rebuilds.value(),
            shadow_invalidations: self.shadow_invalidations.value(),
            prefetch_issued: self.prefetch_issued.value(),
            tag_hits: self.tag_hits.value(),
            tag_fallbacks: self.tag_fallbacks.value(),
            compactions: self.compactions.value(),
            nodes_reclaimed: self.nodes_reclaimed.value(),
            hops_per_level: std::array::from_fn(|l| self.hops[l].value()),
            alloc: AllocCounters::default(),
        }
    }
}

/// Point-in-time structure counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructMetricsSnapshot {
    pub cas_retries: u64,
    pub lock_waits: u64,
    pub node_splits: u64,
    pub node_purges: u64,
    pub shadow_hits: u64,
    pub shadow_misses: u64,
    pub shadow_rebuilds: u64,
    pub shadow_invalidations: u64,
    pub prefetch_issued: u64,
    pub tag_hits: u64,
    pub tag_fallbacks: u64,
    pub compactions: u64,
    pub nodes_reclaimed: u64,
    pub hops_per_level: [u64; MAX_HEIGHT],
    /// Allocator path counters (fast/slow pops, magazine hits, leases,
    /// outbox batches, heals); filled in by `UpSkipList::struct_metrics`,
    /// zero from [`StructStats::snapshot`].
    pub alloc: AllocCounters,
}

impl StructMetricsSnapshot {
    pub fn since(&self, earlier: &StructMetricsSnapshot) -> StructMetricsSnapshot {
        StructMetricsSnapshot {
            cas_retries: self.cas_retries - earlier.cas_retries,
            lock_waits: self.lock_waits - earlier.lock_waits,
            node_splits: self.node_splits - earlier.node_splits,
            node_purges: self.node_purges - earlier.node_purges,
            shadow_hits: self.shadow_hits - earlier.shadow_hits,
            shadow_misses: self.shadow_misses - earlier.shadow_misses,
            shadow_rebuilds: self.shadow_rebuilds - earlier.shadow_rebuilds,
            shadow_invalidations: self.shadow_invalidations - earlier.shadow_invalidations,
            prefetch_issued: self.prefetch_issued - earlier.prefetch_issued,
            tag_hits: self.tag_hits - earlier.tag_hits,
            tag_fallbacks: self.tag_fallbacks - earlier.tag_fallbacks,
            compactions: self.compactions - earlier.compactions,
            nodes_reclaimed: self.nodes_reclaimed - earlier.nodes_reclaimed,
            hops_per_level: std::array::from_fn(|l| {
                self.hops_per_level[l] - earlier.hops_per_level[l]
            }),
            alloc: AllocCounters {
                fast_allocs: self.alloc.fast_allocs - earlier.alloc.fast_allocs,
                slow_allocs: self.alloc.slow_allocs - earlier.alloc.slow_allocs,
                magazine_hits: self.alloc.magazine_hits - earlier.alloc.magazine_hits,
                leases: self.alloc.leases - earlier.alloc.leases,
                lease_blocks: self.alloc.lease_blocks - earlier.alloc.lease_blocks,
                outbox_flushes: self.alloc.outbox_flushes - earlier.alloc.outbox_flushes,
                outbox_blocks: self.alloc.outbox_blocks - earlier.alloc.outbox_blocks,
                heals: self.alloc.heals - earlier.alloc.heals,
            },
        }
    }

    /// Total hops across all levels.
    pub fn total_hops(&self) -> u64 {
        self.hops_per_level.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_counts_nothing() {
        let s = StructStats::new(ObsLevel::Off);
        s.cas_retry();
        s.node_split();
        s.node_purge();
        s.hops_at(0, 5);
        assert_eq!(s.snapshot(), StructMetricsSnapshot::default());
        assert_eq!(s.level(), ObsLevel::Off);
    }

    #[test]
    fn counters_feed_registry_and_snapshot() {
        let s = StructStats::new(ObsLevel::Counters);
        s.cas_retry();
        s.cas_retry();
        s.hops_at(3, 7);
        s.reclaimed(2);
        let snap = s.snapshot();
        assert_eq!(snap.cas_retries, 2);
        assert_eq!(snap.hops_per_level[3], 7);
        assert_eq!(snap.total_hops(), 7);
        assert_eq!(snap.nodes_reclaimed, 2);
        s.shadow_hit();
        s.shadow_miss();
        s.shadow_rebuild();
        s.shadow_invalidation();
        s.prefetch_issue();
        s.tag_hit();
        s.tag_fallback();
        s.node_purge();
        let snap = s.snapshot();
        assert_eq!((snap.tag_hits, snap.tag_fallbacks), (1, 1));
        assert_eq!((snap.node_splits, snap.node_purges), (0, 1));
        assert_eq!(snap.since(&StructMetricsSnapshot::default()).node_purges, 1);
        assert_eq!(snap.shadow_hits, 1);
        assert_eq!(snap.shadow_misses, 1);
        assert_eq!(snap.shadow_rebuilds, 1);
        assert_eq!(snap.shadow_invalidations, 1);
        assert_eq!(snap.prefetch_issued, 1);
        let reg = s.registry().snapshot();
        assert_eq!(reg.counter("list.cas_retries"), 2);
        assert_eq!(reg.counter("list.hops.l03"), 7);
        assert_eq!(reg.counter("list.shadow_hits"), 1);
        assert_eq!(reg.counter("list.shadow_rebuilds"), 1);
        assert_eq!(reg.counter("list.node_purges"), 1);
        assert_eq!(s.level(), ObsLevel::Counters);
        assert_eq!(StructStats::new(ObsLevel::Full).level(), ObsLevel::Full);
    }
}
