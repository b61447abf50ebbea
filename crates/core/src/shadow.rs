//! The *index shadow*: a volatile, epoch-versioned DRAM mirror of the skip
//! list's levels from the *image floor* up, consulted before the persistent
//! level descent so a point operation touches PMEM only for what is left of
//! the bottom-level walk and the target node (the "Foresight traversal"
//! optimization). The floor is level 1 — except on tagged lists (> 32
//! keys/node, see the `tags` module), where the bottom level is n/128
//! entries of 16 B (≤ 0.5 B of DRAM per key) and is mirrored too: the
//! descent then *starts on* the containing node, and the traversal's tag
//! probe answers from it without a single hop.
//!
//! ## Contract
//!
//! - **Volatile only.** The shadow is never persisted and never recovered:
//!   every `open`/`recover` path discards it wholesale (alongside
//!   `discard_thread_caches`) and the first descent of the new epoch
//!   rebuilds it from the persistent levels. The bottom level remains the
//!   sole persistent source of truth.
//! - **Hints, not answers.** A shadow-guided descent adopts the shadow's
//!   predecessor towers only after the start predecessor's header is
//!   re-read and validated (epoch + immutable `keys[0]`), and the
//!   bottom-level walk plus the split-count protocol validate
//!   the final answer. Link CASes made against stale shadow successors fail
//!   harmlessly (CAS success implies adjacency) and retry through an
//!   uncached traversal. A stale shadow can therefore only cost extra hops
//!   or failed CASes — never a wrong result.
//! - **One invalidation epoch.** Structural changes (splits, purges, removes,
//!   compaction) bump the shared [`StructureEpoch`]; every shadow region is
//!   validated against that generation, so one store invalidates them all.
//! - **Lazy regional rebuild.** The mirrored key space is divided into
//!   regions stamped with the structure generation they were imaged at. A
//!   consult landing in a stale region still uses it as a hint (safe, see
//!   above) but counts a miss and re-walks just that region's key range.
//!
//! ## Why stale entries are safe
//!
//! Within a failure-free epoch nodes are never physically unlinked
//! (removes tombstone, splits only add), so any node the shadow captured
//! stays linked at every level it was captured on. `keys[0]` is immutable
//! after initialization, so a captured `(key0, node)` pair can never point
//! descent *past* the containing node. That holds on the bottom level as
//! on any other: the imaged nodes are a subset of the linked ones, so the
//! image's level-0 predecessor is the containing node or one a split has
//! since put before it — a probe that misses, and a hop. The two events
//! that break these guarantees — compaction (frees nodes) and a crash (new
//! epoch) — both discard the image outright before any block can be
//! recycled.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

use riv::RivPtr;

use crate::config::{KEY_INF, KEY_NULL, MAX_HEIGHT};
use crate::layout::{N_EPOCH, N_KEYS, N_LOCK, N_SPLIT_COUNT};
use crate::list::UpSkipList;
use crate::rwlock;

/// Default cap on total mirrored entries (levels are dropped bottom-up past
/// this); each entry is 16 bytes of DRAM.
pub const DEFAULT_SHADOW_CAPACITY: usize = 1 << 20;
/// Default number of lazily-refreshed regions the base mirrored level is
/// divided into.
pub const DEFAULT_SHADOW_REGIONS: usize = 64;

/// The shared *structure generation*: a volatile counter bumped by every
/// structural change (split, purge, remove, compaction). Shadow regions
/// record the generation they were imaged at and are treated as stale on
/// mismatch — one store invalidates them all.
#[derive(Debug, Default)]
pub(crate) struct StructureEpoch(AtomicU64);

impl StructureEpoch {
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    #[inline]
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }
}

/// The region a consult landing on base-level index `i` stamps and
/// refreshes: `⌊i·regions/len⌋`, for `i < len`.
fn region_of(i: usize, len: usize, regions: usize) -> usize {
    i * regions / len
}

/// The base-level indices region `r` re-images: exactly the `i` with
/// `region_of(i, len, regions) == r`. The bounds are ceilings — floors
/// left out `i = ⌊(r+1)·len/regions⌋`, so a list grown at its end was never
/// re-imaged there while its base level had fewer entries than regions.
fn region_range(r: usize, len: usize, regions: usize) -> std::ops::Range<usize> {
    (r * len).div_ceil(regions)..((r + 1) * len).div_ceil(regions)
}

/// One mirrored tower: a node's immutable `keys[0]` and its RIV pointer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShadowEntry {
    pub key0: u64,
    pub node: RivPtr,
}

/// The DRAM image of levels `min_level..max_height`, sorted by `key0` per
/// level. `epoch == 0` means discarded (0 is never a live list epoch).
#[derive(Debug, Default)]
struct ShadowImage {
    /// Failure-free list epoch the image was built in; 0 = discarded.
    epoch: u64,
    /// Lowest mirrored level (the image floor; capacity may push it higher).
    min_level: usize,
    /// `levels[l]` mirrors list level `l`; indices below `min_level` unused.
    levels: Vec<Vec<ShadowEntry>>,
    /// Structure generation each region of the base level was imaged at.
    region_gen: Vec<u64>,
}

/// Owner of the shadow image plus its tuning knobs. Lives on the list
/// handle; shares its lifetime and volatility.
pub(crate) struct IndexShadow {
    image: RwLock<ShadowImage>,
    capacity: AtomicUsize,
    regions: AtomicUsize,
}

impl std::fmt::Debug for IndexShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexShadow")
            .field("capacity", &self.capacity.load(Ordering::Relaxed))
            .field("regions", &self.regions.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for IndexShadow {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexShadow {
    pub fn new() -> Self {
        Self {
            image: RwLock::new(ShadowImage::default()),
            capacity: AtomicUsize::new(DEFAULT_SHADOW_CAPACITY),
            regions: AtomicUsize::new(DEFAULT_SHADOW_REGIONS),
        }
    }

    /// Throw the whole image away (crash recovery, compaction, retuning).
    /// The next consult rebuilds from the persistent levels.
    pub fn discard(&self) {
        let mut img = self.image.write().unwrap_or_else(|e| e.into_inner());
        *img = ShadowImage::default();
    }

    /// Total mirrored entries (diagnostic; 0 when discarded).
    pub fn entry_count(&self) -> usize {
        match self.image.try_read() {
            Ok(img) if img.epoch != 0 => img.levels.iter().map(Vec::len).sum(),
            _ => 0,
        }
    }
}

/// A successful shadow consult: where the descent may resume.
pub(crate) struct ShadowStart {
    /// Lowest level the shadow filled; the descent resumes one below it,
    /// or — with level 0 mirrored — *on* it, at `pred`.
    pub low: usize,
    /// Validated start predecessor at `low` (may be the head).
    pub pred: RivPtr,
    pub pred_k0: u64,
    /// Split count from the validated header read (0 for the head).
    pub split_count: u64,
    /// Whether that header showed a writer (a split in flight).
    pub write_locked: bool,
    /// Highest filled level whose predecessor *is* the containing node
    /// (`key0 == key`): the descent can return via the step-in path.
    pub step_level: Option<usize>,
}

impl UpSkipList {
    #[inline]
    pub(crate) fn structure_gen(&self) -> u64 {
        self.sepoch.current()
    }

    /// Bump the shared structure generation: every shadow region becomes
    /// stale in this one store.
    pub(crate) fn invalidate_structure(&self) {
        self.sepoch.bump();
        self.stats.shadow_invalidation();
    }

    /// Retune the shadow (entry capacity, lazy-refresh region count) and
    /// discard the current image so the new limits take effect. Quiescent
    /// use recommended; concurrent readers just miss during the rebuild.
    pub fn set_shadow_tuning(&self, capacity: usize, regions: usize) {
        self.shadow
            .capacity
            .store(capacity.max(1), Ordering::Release);
        self.shadow.regions.store(regions.max(1), Ordering::Release);
        self.shadow.discard();
    }

    /// Total entries currently mirrored (diagnostic; tests use it to assert
    /// the shadow is rebuilt, never recovered, across crashes).
    #[doc(hidden)]
    pub fn shadow_entries(&self) -> usize {
        self.shadow.entry_count()
    }

    /// Run `f` with the image frozen: consults keep reading it, but no
    /// refresh or rebuild gets the write side meanwhile — the staleness
    /// tests' hook for keeping an image stale across whole operations
    /// (`f` must not discard the image: no retune, recover or compact).
    #[doc(hidden)]
    pub fn with_shadow_frozen<R>(&self, f: impl FnOnce() -> R) -> R {
        let _pin = self.shadow.image.read().unwrap_or_else(|e| e.into_inner());
        f()
    }

    /// Consult the shadow for `key`: fill `preds`/`succs` for the image's
    /// base level — and, with `fill_upper`, for every mirrored level above
    /// it — and return where the persistent descent may resume.
    /// `None` means miss (discarded, contended, wrong epoch, or the start
    /// predecessor failed header validation) — the caller walks from the
    /// head as usual.
    pub(crate) fn shadow_position(
        &self,
        key: u64,
        epoch: u64,
        sgen: u64,
        fill_upper: bool,
        preds: &mut [RivPtr; MAX_HEIGHT],
        succs: &mut [RivPtr; MAX_HEIGHT],
    ) -> Option<ShadowStart> {
        let top = self.cfg.max_height - 1;
        for attempt in 0..2 {
            let filled = {
                let img = match self.shadow.image.try_read() {
                    Ok(g) => g,
                    Err(_) => {
                        // Contended (a rebuild/refresh is running): skip the
                        // hint rather than wait on the lock.
                        self.stats.shadow_miss();
                        return None;
                    }
                };
                if img.epoch != epoch || img.min_level > top {
                    None
                } else {
                    let highest = if fill_upper { top } else { img.min_level };
                    Some(self.fill_from_image(&img, key, highest, sgen, preds, succs))
                }
            };
            match filled {
                Some((start, fresh, region)) => {
                    // Validate before use: one streamed header line
                    // re-checks the epoch and the immutable `keys[0]`, and
                    // hands us the split-count snapshot the Function 9
                    // protocol needs. The validated node must be the one
                    // the caller will act on: for a step-in that is
                    // `preds[step_level]` (the containing node), NOT the
                    // `min_level` start predecessor — the two can differ
                    // when a refresh imaged the levels at different moments,
                    // and a foreign split count would fail the caller's
                    // validation forever (re-served by the warm shadow on
                    // every retry: a livelock, not just a wasted descent).
                    let (vnode, vk0) = match start.step_level {
                        Some(lf) => (preds[lf], key),
                        None => (start.pred, start.pred_k0),
                    };
                    let (mut split_count, mut write_locked) = (0, false);
                    if vnode != self.head {
                        let hdr = self.read_header(vnode);
                        if hdr[N_EPOCH as usize] != epoch || hdr[N_KEYS as usize] != vk0 {
                            self.stats.shadow_miss();
                            return None;
                        }
                        split_count = hdr[N_SPLIT_COUNT as usize];
                        write_locked = rwlock::is_write_locked(hdr[N_LOCK as usize]);
                    }
                    if fresh {
                        self.stats.shadow_hit();
                    } else {
                        // Stale region: still a valid hint (see module docs)
                        // but refresh its key range for the next consult.
                        self.stats.shadow_miss();
                        self.shadow_refresh_region(region, epoch, sgen);
                    }
                    return Some(ShadowStart {
                        split_count,
                        write_locked,
                        ..start
                    });
                }
                None if attempt == 0 => {
                    // Discarded or built for an older epoch: rebuild lazily.
                    if !self.shadow_rebuild(epoch, sgen) {
                        self.stats.shadow_miss();
                        return None;
                    }
                }
                None => {
                    self.stats.shadow_miss();
                    return None;
                }
            }
        }
        None
    }

    /// Fill the traversal arrays from a valid image. Returns the start
    /// position, whether the landing region was imaged at `sgen`, and the
    /// region index (for the refresh on staleness).
    ///
    /// Levels `min_level..=highest` are searched. A reader passes the base
    /// level alone: the start predecessor, the step-in and the region stamp
    /// all come from it. A writer passes the top level, because its split
    /// or new node links its tower against the levels above.
    fn fill_from_image(
        &self,
        img: &ShadowImage,
        key: u64,
        highest: usize,
        sgen: u64,
        preds: &mut [RivPtr; MAX_HEIGHT],
        succs: &mut [RivPtr; MAX_HEIGHT],
    ) -> (ShadowStart, bool, usize) {
        let mut start = ShadowStart {
            low: img.min_level,
            pred: self.head,
            pred_k0: KEY_NULL,
            split_count: 0,
            write_locked: false,
            step_level: None,
        };
        let mut region = 0usize;
        for level in (img.min_level..=highest).rev() {
            let v = &img.levels[level];
            let pp = v.partition_point(|e| e.key0 <= key);
            let (pred, pred_k0) = if pp == 0 {
                (self.head, KEY_NULL)
            } else {
                (v[pp - 1].node, v[pp - 1].key0)
            };
            let succ = v.get(pp).map(|e| e.node).unwrap_or(self.tail);
            preds[level] = pred;
            succs[level] = succ;
            if pred_k0 == key && start.step_level.is_none() {
                start.step_level = Some(level);
            }
            if level == img.min_level {
                start.pred = pred;
                start.pred_k0 = pred_k0;
                if !v.is_empty() {
                    region = region_of(pp.saturating_sub(1), v.len(), img.region_gen.len());
                }
            }
        }
        let fresh = img.region_gen.get(region).is_some_and(|&g| g == sgen);
        (start, fresh, region)
    }

    /// Rebuild the whole image by walking the persistent levels top-down,
    /// dropping the lowest (largest) levels once `capacity` is exceeded.
    /// Returns false when another thread holds the image (it is rebuilding
    /// or refreshing; this consult just misses).
    fn shadow_rebuild(&self, epoch: u64, sgen: u64) -> bool {
        let Ok(mut img) = self.shadow.image.try_write() else {
            return false;
        };
        if img.epoch == epoch {
            return true; // raced with another rebuilder; image is fresh
        }
        let top = self.cfg.max_height - 1;
        let capacity = self.shadow.capacity.load(Ordering::Acquire);
        let regions = self.shadow.regions.load(Ordering::Acquire);
        let mut levels: Vec<Vec<ShadowEntry>> = vec![Vec::new(); top + 1];
        let mut min_level = top + 1;
        let mut total = 0usize;
        // The image floor: tagged nodes are few and big enough that their
        // bottom level is worth 16 B each (module docs).
        let floor = if self.tags.is_some() { 0 } else { 1 };
        for level in (floor..=top).rev() {
            let mut v = Vec::new();
            let mut cur = self.next(self.head, level);
            while cur != self.tail && !cur.is_null() {
                v.push(ShadowEntry {
                    key0: self.key0(cur),
                    node: cur,
                });
                cur = self.next(cur, level);
            }
            if total + v.len() > capacity {
                break; // this level and everything below stay unmirrored
            }
            total += v.len();
            min_level = level;
            levels[level] = v;
        }
        if min_level > top {
            // Even the top level alone exceeds capacity: image unusable.
            *img = ShadowImage::default();
            return false;
        }
        *img = ShadowImage {
            epoch,
            min_level,
            levels,
            region_gen: vec![sgen; regions],
        };
        self.stats.shadow_rebuild();
        true
    }

    /// Re-image one region's key range: walk each mirrored level over
    /// `[lo_key, hi_key)` from the last still-linked entry before the range
    /// and splice the fresh entries in. Stamps the region with `sgen`
    /// (loaded by the caller *before* its walk, so a concurrent bump can
    /// only make the stamp conservatively stale).
    fn shadow_refresh_region(&self, r: usize, epoch: u64, sgen: u64) {
        let Ok(mut img) = self.shadow.image.try_write() else {
            return; // contended; the next stale consult retries
        };
        if img.epoch != epoch || r >= img.region_gen.len() {
            return;
        }
        let top = self.cfg.max_height - 1;
        let min_level = img.min_level;
        let base = &img.levels[min_level];
        if base.is_empty() {
            // The base level was imaged empty but the region went stale:
            // towers appeared from nothing; cheapest correct move is a full
            // rebuild on the next consult.
            *img = ShadowImage::default();
            return;
        }
        let idx = region_range(r, base.len(), img.region_gen.len());
        if idx.is_empty() {
            return; // no base index maps here, so no consult asked for it
        }
        let lo_key = base[idx.start].key0;
        let hi_key = base.get(idx.end).map_or(KEY_INF, |e| e.key0);
        for level in min_level..=top {
            let v = &img.levels[level];
            // Entries strictly below lo_key stay linked (never unlinked
            // mid-epoch), so the one before the range is a safe walk start.
            let s = v.partition_point(|e| e.key0 < lo_key);
            let start = if s == 0 { self.head } else { v[s - 1].node };
            let mut fresh = Vec::new();
            let mut cur = self.next(start, level);
            while cur != self.tail && !cur.is_null() {
                let k0 = self.key0(cur);
                if k0 >= hi_key {
                    break;
                }
                fresh.push(ShadowEntry {
                    key0: k0,
                    node: cur,
                });
                cur = self.next(cur, level);
            }
            let e = v.partition_point(|e| e.key0 < hi_key);
            img.levels[level].splice(s..e, fresh);
        }
        img.region_gen[r] = sgen;
        // A refresh splices in towers the original rebuild never saw
        // (splits grow levels mid-epoch), so re-enforce the capacity
        // budget: drop the lowest mirrored levels until the image fits,
        // exactly as the rebuild would have.
        let capacity = self.shadow.capacity.load(Ordering::Acquire);
        let mut total: usize = img.levels.iter().map(Vec::len).sum();
        let mut min_level = img.min_level;
        while total > capacity && min_level < top {
            total -= img.levels[min_level].len();
            img.levels[min_level] = Vec::new();
            min_level += 1;
        }
        if total > capacity {
            // Even the top level alone overflows: image unusable.
            *img = ShadowImage::default();
            return;
        }
        img.min_level = min_level;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::config::ListConfig;
    use crate::list::{ListBuilder, UpSkipList};

    fn list(max_height: usize, keys_per_node: usize) -> Arc<UpSkipList> {
        ListBuilder {
            list: ListConfig::new(max_height, keys_per_node),
            ..ListBuilder::default()
        }
        .create()
    }

    #[test]
    fn each_region_re_images_exactly_the_indices_mapped_to_it() {
        for regions in [1, 4, 64] {
            for len in 1..300 {
                let mut next = 0;
                for r in 0..regions {
                    let range = super::region_range(r, len, regions);
                    assert_eq!(
                        range.start, next,
                        "len {len}, {regions} regions: gap at {r}"
                    );
                    for i in range.clone() {
                        assert_eq!(
                            super::region_of(i, len, regions),
                            r,
                            "len {len}, {regions} regions: index {i}"
                        );
                    }
                    next = range.end;
                }
                assert_eq!(next, len, "len {len}, {regions} regions: tail uncovered");
            }
        }
    }

    #[test]
    fn first_descent_builds_the_shadow() {
        let l = list(8, 4);
        for k in 1..=200u64 {
            l.insert(k, k);
        }
        assert_eq!(l.get(100), Some(100));
        assert!(
            l.shadow_entries() > 0,
            "a descent over a populated list must image the upper levels"
        );
        let m = l.registry().snapshot();
        assert!(m.counter("list.shadow_rebuilds") >= 1);
        assert!(m.counter("list.shadow_hits") + m.counter("list.shadow_misses") > 0);
    }

    #[test]
    fn shadow_answers_match_oracle_under_churn() {
        let l = list(8, 4);
        // Interleave inserts/removes (both bump the structure generation)
        // with reads that consult stale regions.
        for k in 1..=300u64 {
            l.insert(k, k);
        }
        for k in (1..=300u64).step_by(3) {
            l.remove(k);
        }
        for k in 301..=400u64 {
            l.insert(k, k * 2);
        }
        for k in 1..=400u64 {
            let expect = if k > 300 {
                Some(k * 2)
            } else if k % 3 == 1 {
                None
            } else {
                Some(k)
            };
            assert_eq!(l.get(k), expect, "key {k}");
        }
        l.check_invariants();
    }

    #[test]
    fn split_invalidates_every_shadow_region_in_one_store() {
        let l = list(8, 4);
        for k in (10..=100u64).step_by(10) {
            l.insert(k, k);
        }
        assert_eq!(l.get(50), Some(50)); // image built
        let g0 = l.structure_gen();
        // Force a split of a full node.
        for d in 1..=4u64 {
            l.insert(50 + d, d);
        }
        assert!(
            l.structure_gen() > g0,
            "a split must bump the shared structure generation"
        );
        // The stale image still gives correct answers afterwards.
        for d in 0..=4u64 {
            let expect = if d == 0 { 50 } else { d };
            assert_eq!(l.get(50 + d), Some(expect));
        }
        l.check_invariants();
    }

    #[test]
    fn recover_discards_the_image() {
        let l = list(8, 4);
        for k in 1..=100u64 {
            l.insert(k, k);
        }
        assert_eq!(l.get(50), Some(50));
        assert!(l.shadow_entries() > 0);
        l.recover();
        assert_eq!(
            l.shadow_entries(),
            0,
            "the shadow must be discarded, never recovered"
        );
        // First post-crash descent rebuilds it from the persistent levels.
        assert_eq!(l.get(50), Some(50));
        assert!(l.shadow_entries() > 0);
        l.check_invariants();
    }

    #[test]
    fn compaction_discards_the_image_before_freeing() {
        let l = list(8, 4);
        for k in 1..=100u64 {
            l.insert(k, k);
        }
        assert_eq!(l.get(50), Some(50));
        for k in 20..=80u64 {
            l.remove(k);
        }
        let reclaimed = l.compact();
        assert!(reclaimed > 0);
        assert_eq!(
            l.shadow_entries(),
            0,
            "image may hold freed blocks; compact must discard it"
        );
        for k in (1..20u64).chain(81..=100) {
            assert_eq!(l.get(k), Some(k));
        }
        l.check_invariants();
    }

    #[test]
    fn disabled_shadow_images_nothing() {
        let l = ListBuilder {
            list: ListConfig::new(8, 4).without_shadow(),
            ..ListBuilder::default()
        }
        .create();
        for k in 1..=100u64 {
            l.insert(k, k);
        }
        assert_eq!(l.get(50), Some(50));
        assert_eq!(l.shadow_entries(), 0);
        assert_eq!(l.registry().snapshot().counter("list.shadow_rebuilds"), 0);
    }

    #[test]
    fn tiny_capacity_drops_lower_levels_but_stays_correct() {
        let l = list(8, 4);
        l.set_shadow_tuning(4, 2); // at most 4 mirrored entries, 2 regions
        for k in 1..=400u64 {
            l.insert(k, k);
        }
        for k in 1..=400u64 {
            assert_eq!(l.get(k), Some(k), "key {k}");
        }
        // Whatever was mirrored respects the cap.
        assert!(l.shadow_entries() <= 4);
        l.check_invariants();
    }

    #[test]
    fn height_one_list_never_consults_the_shadow() {
        let l = list(1, 4);
        for k in 1..=50u64 {
            l.insert(k, k);
        }
        for k in 1..=50u64 {
            assert_eq!(l.get(k), Some(k));
        }
        assert_eq!(l.shadow_entries(), 0, "no upper levels exist to mirror");
        assert_eq!(l.registry().snapshot().counter("list.shadow_rebuilds"), 0);
    }
}
