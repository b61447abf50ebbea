//! Structure-level observability for [`UpSkipList`](crate::UpSkipList):
//! named counters for the events the pool-level [`pmem::Stats`] cannot see
//! — CAS retries, node-lock acquisition failures, node splits and in-place
//! purges, index-shadow hits/misses, in-node tag hits/fallbacks,
//! compactions, and traversal hops per level.
//!
//! The counters are registered as `list.*` in the deployment's
//! [`obs::Registry`] (the allocator's, beside its `alloc.*` counters), so
//! a bench can `registry().snapshot()` before and after a phase and diff
//! with [`obs::Snapshot::since`]. The hot paths hold pre-resolved
//! [`Arc<Counter>`] handles (no name lookups) and bail on a single `enabled`
//! test when the list was built with [`obs::ObsLevel::Off`].

use std::sync::Arc;

use obs::{Counter, ObsLevel, Registry};

use crate::config::MAX_HEIGHT;

/// Pre-resolved counter handles for the list's hot paths.
pub(crate) struct StructStats {
    /// `ObsLevel::Counters` or `Full`: counters below are live.
    pub(crate) enabled: bool,
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
}

impl StructStats {
    /// Register the `list.*` counters in `registry`.
    pub(crate) fn new(level: ObsLevel, registry: &Registry) -> Self {
        Self {
            enabled: level.counters_enabled(),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_counts_nothing() {
        let reg = Registry::new();
        let s = StructStats::new(ObsLevel::Off, &reg);
        s.cas_retry();
        s.node_split();
        s.node_purge();
        s.hops_at(0, 5);
        let snap = reg.snapshot();
        assert!(snap.counters.keys().all(|n| n.starts_with("list.")));
        assert!(snap.counters.values().all(|&v| v == 0), "{snap:?}");
    }

    #[test]
    fn counters_feed_the_registry() {
        let reg = Registry::new();
        let s = StructStats::new(ObsLevel::Counters, &reg);
        s.cas_retry();
        s.cas_retry();
        s.hops_at(3, 7);
        s.reclaimed(2);
        s.shadow_hit();
        s.shadow_miss();
        s.shadow_rebuild();
        s.shadow_invalidation();
        s.prefetch_issue();
        s.tag_hit();
        s.tag_fallback();
        s.node_purge();
        let snap = reg.snapshot();
        for (name, v) in [
            ("list.cas_retries", 2),
            ("list.hops.l03", 7),
            ("list.nodes_reclaimed", 2),
            ("list.shadow_hits", 1),
            ("list.shadow_misses", 1),
            ("list.shadow_rebuilds", 1),
            ("list.shadow_invalidations", 1),
            ("list.prefetch_issued", 1),
            ("list.tag_hits", 1),
            ("list.tag_fallbacks", 1),
            ("list.node_splits", 0),
            ("list.node_purges", 1),
        ] {
            assert_eq!(snap.counter(name), v, "{name}");
        }
    }
}
