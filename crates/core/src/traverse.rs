//! Skip-list traversal (Functions 7–9, §4.4).
//!
//! Traversals are wait-free apart from the bounded recovery work they may
//! perform on nodes left inconsistent by a crash. Multi-key nodes keep
//! their internal keys unordered except that `keys[0]` is the node's
//! smallest key and is immutable after initialization, so the classic
//! level-descent can navigate on `keys[0]` alone and treat internal keys as
//! one extra bottom level (§4.4).

use riv::RivPtr;

use crate::config::{ListConfig, KEY_NULL};
use crate::layout::HEADER_WORDS;
use crate::list::UpSkipList;
use crate::{config::MAX_HEIGHT, rwlock};

/// Sentinel for "key not present".
pub(crate) const NO_INDEX: usize = usize::MAX;

thread_local! {
    /// Workhorse buffer for one node's key array. One live stream per
    /// thread at a time: the in-node scan, or an insert's snapshot.
    pub(crate) static KEY_BUF: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// What a descent fills in its [`Traversal`], and whether it consults the
/// index image on the way.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Descent {
    /// A reader's descent (get, remove, the start of a walk): it needs only
    /// the node that holds the key (Function 9), so its image consult
    /// searches the image's base level alone and fills `preds`/`succs` from
    /// there down. The levels above stay NULL unless the image missed and
    /// the walk came down them from the head.
    Read,
    /// The insert path's descent: every level, because a split or a new
    /// node links its tower against the `preds`/`succs` above `landing()`.
    /// On a tagged list a miss among the internal keys is returned
    /// *unproven*: `insert_into_existing` streams the node's key array
    /// under the read lock anyway and is the one place an insert decides
    /// presence.
    Write,
    /// Every level from the persistent list, never the image. Link-CAS
    /// retry loops (`link_higher_levels`) and tower completion re-traverse
    /// to refresh their predecessor arrays, and must observe the persistent
    /// neighborhood: a stale image could hand back the same failed CAS
    /// expectations forever.
    Uncached,
}

/// Result of a traversal: per-level predecessors/successors, plus where the
/// key was found, if anywhere.
///
/// A *not-found* [`Descent::Write`] or [`Descent::Uncached`] traversal
/// fills every level of both arrays; a [`Descent::Read`] one guarantees the
/// levels from the image's base level down. A *found* one guarantees
/// `landing()`, `key_index`, `split_count` and — for the two full kinds —
/// above `level_found`, the `preds`/`succs` the walk ended on (tower
/// building links against those), plus `preds[0]` whenever the descent
/// reached, or the index image mirrors, the bottom level. From
/// `level_found` down `succs` are meaningful only when `!found()`: a hit
/// returns the moment the key is seen, so a successor there may be unread
/// (NULL) or an unvalidated image hint. Either way [`Traversal::landing`]
/// is where the descent ended, and a range walk starts: the node whose
/// range holds the key.
pub(crate) struct Traversal {
    pub preds: [RivPtr; MAX_HEIGHT],
    pub succs: [RivPtr; MAX_HEIGHT],
    /// Split count of the containing node, read *before* its keys
    /// (validated after reads, Function 9 line 110).
    pub split_count: u64,
    /// Index of the key in the containing node, or [`NO_INDEX`].
    pub key_index: usize,
    /// Level at which the containing node was recorded; 0 on a miss.
    pub level_found: usize,
}

impl Traversal {
    #[inline]
    pub fn found(&self) -> bool {
        self.key_index != NO_INDEX
    }

    /// The containing node when [`Traversal::found`], else `preds[0]` (a
    /// miss reports `level_found` 0).
    #[inline]
    pub fn landing(&self) -> RivPtr {
        self.preds[self.level_found]
    }
}

impl UpSkipList {
    /// Issue a software prefetch for `words` starting at `ptr`. Purely a
    /// hint: no accounting, no crash checks, dropped when the chunk base is
    /// not in the DRAM translation cache.
    #[inline]
    fn prefetch(&self, ptr: RivPtr, words: u64) {
        self.space().prefetch(ptr, words);
        self.stats.prefetch_issue();
    }

    /// One streamed line covers epoch, lock, split count and `keys[0]` — the
    /// cache-line co-location of §4.4 that makes the recovery check free
    /// during traversal. On a tagged list the line is loaded highest word
    /// first, so the split count is observed *before* the lock word: a
    /// header that shows no writer then proves no split was running when
    /// its count was taken (a split bumps the count only while it holds the
    /// lock), which is what lets the probe-on-arrival below answer from the
    /// node without reading on. Untagged lists never probe, and keep the
    /// ascending loads that run the hardware prefetcher into the key array
    /// their scan reads next (descending cost `list_churn` 4 % of its p50s).
    #[inline]
    pub(crate) fn read_header(&self, node: RivPtr) -> [u64; HEADER_WORDS] {
        let mut hdr = [0u64; HEADER_WORDS];
        if self.tags.is_some() {
            self.space().read_slice_rev(node, &mut hdr);
        } else {
            self.space().read_slice(node, &mut hdr);
        }
        hdr
    }

    /// Function 7. On success the *containing* node is recorded as
    /// `preds[level_found]` (for a `keys[0]` hit the traversal steps into
    /// the node first), so callers address one node uniformly. `descent`
    /// says which levels to fill and whether the index image is consulted.
    pub(crate) fn traverse(&self, key: u64, descent: Descent) -> Traversal {
        let top = self.cfg.max_height - 1;
        let mut recoveries_done = 0u32;
        // Whether the image consult fills the levels above its base one.
        // A reader that meets a node from a dead epoch turns it on and
        // restarts: the tower repair needs the level above the claim.
        let mut fill_upper = descent != Descent::Read;
        'outer: loop {
            let epoch = self.epoch();
            // One structure-generation load validates the shadow region for
            // this whole descent: a concurrent remove invalidates it with its
            // single bump (splits patch the image instead).
            let sgen = self.structure_gen();
            let mut preds = [RivPtr::NULL; MAX_HEIGHT];
            let mut succs = [RivPtr::NULL; MAX_HEIGHT];
            let mut split_count = 0u64;
            let mut pred = self.head;
            // Whether the header read that supplied `split_count` showed
            // `pred` write-locked (mid-split): such a node is not probed.
            let mut pred_locked = false;
            let mut start_level = top;
            // Every return hands the arrays over.
            macro_rules! finish {
                ($level:expr, $key_index:expr) => {{
                    return Traversal {
                        preds,
                        succs,
                        split_count,
                        key_index: $key_index,
                        level_found: $level,
                    };
                }};
            }
            // Index-shadow consult: resolve the base level `min_level` in
            // DRAM (and, with `fill_upper`, every level above it), validate
            // the landing predecessor's header once, and resume the
            // persistent descent just below the mirrored range (on its
            // bottom level when that is level 0). The bottom level stays
            // the sole persistent source of truth — the walk below
            // revalidates everything the shadow claimed.
            if descent != Descent::Uncached && self.cfg.shadow && top >= 1 {
                let filled =
                    self.shadow_position(key, epoch, sgen, fill_upper, &mut preds, &mut succs);
                if let Some(s) = filled {
                    split_count = s.split_count;
                    pred = s.pred;
                    pred_locked = s.write_locked;
                    if let Some(lf) = s.step_level {
                        // The shadow landed inside the containing node;
                        // mirror the step-in return (fresh successor read,
                        // validated split count from the header line).
                        succs[lf] = self.next(preds[lf], lf);
                        finish!(lf, 0);
                    }
                    start_level = s.low.saturating_sub(1);
                    // Prefetch-ahead: the first pointer the resumed descent
                    // will chase, plus the mirrored successor's header (the
                    // likely next tower when the gap below is short).
                    self.prefetch(
                        pred.add(crate::layout::next_off_cfg(&self.cfg, start_level) as u32),
                        1,
                    );
                    self.prefetch(succs[s.low], HEADER_WORDS as u64);
                }
            }
            for level in (0..=start_level).rev() {
                // Probe-on-arrival (tagged lists, bottom level): a node is
                // asked for the key through its tags *before* its `next[0]`
                // is read. A key read in a node and validated by that
                // node's split count and lock is linearizable whatever
                // follows the node — comparing the successor's `keys[0]`
                // proves absence, nothing else — so a verified hit returns
                // at once, `succs[0]` unread. The one state in which a node
                // holds a key it no longer owns is between a split's link
                // CAS and its erasure, under the write lock: a header that
                // shows the writer is not probed, and one that does not
                // took its count with no split running (`read_header`), so
                // the caller's validation against that count catches every
                // split since.
                let probing = level == 0 && self.tags.is_some();
                if probing && !pred_locked && pred != self.head {
                    if let Some(i) = self.probe_tags(pred, key) {
                        preds[0] = pred;
                        finish!(0, i);
                    }
                }
                let mut cur = self.next(pred, level);
                // Foresight-style prefetch-ahead: pull the next tower's
                // header toward the cache while this iteration's compare
                // and branch resolve.
                self.prefetch(cur, HEADER_WORDS as u64);
                let mut hops = 0u64;
                loop {
                    debug_assert!(!cur.is_null(), "broken level {level}");
                    let mut hdr = self.read_header(cur);
                    if hdr[crate::layout::N_EPOCH as usize] != epoch {
                        if level < top && preds[level + 1].is_null() {
                            // A reader's consult left the level above
                            // unfilled, and Function 12's tower check reads
                            // it: redo this descent on every level. Only a
                            // crash leaves such a node.
                            fill_upper = true;
                            continue 'outer;
                        }
                        if self.check_for_recovery(level, cur, &preds, &succs, recoveries_done) {
                            recoveries_done += 1;
                            continue 'outer;
                        }
                        // Claimed by another thread: proceed as with any
                        // concurrent in-progress operation (re-read the
                        // header so we see its repairs where possible).
                        hdr = self.read_header(cur);
                    }
                    let k0 = hdr[crate::layout::N_KEYS as usize];
                    if k0 > key {
                        break;
                    }
                    split_count = hdr[crate::layout::N_SPLIT_COUNT as usize];
                    pred_locked = rwlock::is_write_locked(hdr[crate::layout::N_LOCK as usize]);
                    pred = cur;
                    hops += 1;
                    if probing && k0 != key && !pred_locked {
                        if let Some(i) = self.probe_tags(pred, key) {
                            self.stats.hops_at(0, hops);
                            preds[0] = pred;
                            finish!(0, i);
                        }
                    }
                    cur = self.next(pred, level);
                    self.prefetch(cur, HEADER_WORDS as u64);
                    if k0 == key {
                        // Stepped into the containing node.
                        self.stats.hops_at(level, hops);
                        preds[level] = pred;
                        succs[level] = cur;
                        finish!(level, 0);
                    }
                }
                self.stats.hops_at(level, hops);
                preds[level] = pred;
                succs[level] = cur;
                if level > 0 {
                    // Descending: the next pointer one level down is the
                    // next word read off this predecessor.
                    self.prefetch(
                        pred.add(crate::layout::next_off_cfg(&self.cfg, level - 1) as u32),
                        1,
                    );
                } else if pred != self.head {
                    // Function 8 on the node the walk ended on. On a tagged
                    // list its tags were asked on arrival, so what is left
                    // is the part that proves absence: the streamed scan for
                    // a reader, and for a writer nothing — its own stream of
                    // the key array under the read lock is about to start,
                    // so its lines are requested now.
                    let hit = if !probing {
                        self.scan_linear(pred, key)
                    } else if descent != Descent::Write {
                        self.stats.tag_fallback();
                        self.scan_linear(pred, key)
                    } else {
                        self.prefetch(
                            pred.add(crate::layout::key_off(&self.cfg, 0) as u32),
                            self.cfg.keys_per_node as u64,
                        );
                        None
                    };
                    if let Some(i) = hit {
                        finish!(0, i);
                    }
                }
            }
            finish!(0, NO_INDEX);
        }
    }

    /// Function 8 through the volatile tags (see the `tags` module): only
    /// slots whose tag matches are read from pmem, and a slot is returned
    /// only after its key word compared equal — exactly what the linear
    /// scan would have seen. Tags never answer "absent": a miss here proves
    /// nothing, and the walk goes on to the next node or to
    /// [`UpSkipList::scan_linear`]. Slot 0 is the descent's, never a tag's.
    fn probe_tags(&self, node: RivPtr, key: u64) -> Option<usize> {
        let hit = self
            .tags
            .as_ref()?
            .find(node, key, |i| self.key_at(node, i) == key);
        if hit.is_some() {
            self.stats.tag_hit();
        }
        hit
    }

    /// The paper's search: stream key slots `[1, keys_per_node)` at
    /// cache-line granularity — the sequential-prefetch behaviour the
    /// thesis counts on to make multi-key scans cheap (§4.4). On a tagged
    /// node a scan that finds its key also records the tags of everything
    /// it streamed, so the next search of this node is steered.
    fn scan_linear(&self, node: RivPtr, key: u64) -> Option<usize> {
        let k = self.cfg.keys_per_node;
        if k == 1 {
            return None;
        }
        // The scan streams the whole key array; start pulling it in while
        // the buffer sets up.
        self.prefetch(
            node.add(crate::layout::key_off(&self.cfg, 1) as u32),
            k as u64 - 1,
        );
        KEY_BUF.with(|b| {
            let mut keys = b.borrow_mut();
            keys.clear();
            keys.resize(k - 1, 0);
            self.space().read_slice(
                node.add(crate::layout::key_off(&self.cfg, 1) as u32),
                &mut keys,
            );
            let found = keys.iter().position(|&x| x == key).map(|i| i + 1);
            if let (Some(_), Some(tags)) = (found, &self.tags) {
                tags.fill(node, std::iter::once(KEY_NULL).chain(keys.iter().copied()));
            }
            found
        })
    }

    /// Function 9's validation, for a node whose keys or values were just
    /// read under the split count `expected` (taken *before* those reads):
    /// true when no split moved keys meanwhile and none is in flight. The
    /// lock and the split count share the header line by design (§4.4.1),
    /// so one streamed line answers both; the lock word is loaded first, so
    /// a split that began after it was seen free cannot also have finished
    /// unnoticed.
    pub(crate) fn node_unsplit_since(&self, node: RivPtr, expected: u64) -> bool {
        let mut hdr = [0u64; crate::layout::HEADER_WORDS];
        self.space().read_slice(node, &mut hdr);
        !rwlock::is_write_locked(hdr[crate::layout::N_LOCK as usize])
            && hdr[crate::layout::N_SPLIT_COUNT as usize] == expected
    }

    /// Function 9: linearizable lookup. Returns the raw stored value (which
    /// may be the tombstone; the public API maps that to "absent").
    ///
    /// Beyond the thesis's pseudocode, the *not-found* outcome is validated
    /// too: a split can move the key out of the scanned node between the
    /// descent and the internal scan, so "absent" is only trusted if the
    /// scanned node's split count is unchanged and it is not mid-split —
    /// a stale-empty-read window our linearizability analyzer caught.
    pub(crate) fn search_raw(&self, key: u64) -> Option<u64> {
        loop {
            let t = self.traverse(key, Descent::Read);
            if !t.found() {
                let landing = t.landing();
                if landing != self.head && !self.node_unsplit_since(landing, t.split_count) {
                    continue; // keys were (or are) mid-transfer
                }
                return None;
            }
            let node = t.landing();
            let value = self.val_at(node, t.key_index);
            if !self.node_unsplit_since(node, t.split_count) {
                continue; // a split moved (or is moving) keys under us
            }
            return Some(value);
        }
    }

    /// Number of nodes hosted on each pool, excluding sentinels
    /// (diagnostic; quiescent use only). Shows the NUMA placement the
    /// extended RIV pointers enable (§4.3.1).
    pub fn node_distribution(&self) -> Vec<u64> {
        let mut per_pool = vec![0u64; self.space().pools().len()];
        let mut cur = self.next(self.head, 0);
        while cur != self.tail {
            per_pool[cur.pool() as usize] += 1;
            cur = self.next(cur, 0);
        }
        per_pool
    }

    /// Number of nodes on the bottom level, excluding sentinels
    /// (diagnostic; quiescent use only).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        let mut cur = self.next(self.head, 0);
        while cur != self.tail {
            n += 1;
            cur = self.next(cur, 0);
        }
        n
    }

    /// Check structural invariants (quiescent use only): bottom-level
    /// `keys[0]` strictly ascending, internal keys within `[keys[0],
    /// succ.keys[0])` and stored once, towers sorted per level. Panics on
    /// violation.
    pub fn check_invariants(&self) {
        let cfg: &ListConfig = &self.cfg;
        // Bottom level ordering + key ranges.
        let mut cur = self.next(self.head, 0);
        let mut prev_k0 = 0u64;
        let mut stored = std::collections::HashSet::new();
        while cur != self.tail {
            // Deferred-recovery contract (§4.4.1): a crash between a
            // split's publishing link CAS and its moved-key erasure leaves
            // the old node holding keys at or above its successor's first
            // key, write-locked and epoch-stale. That residue is sanctioned
            // state — any thread that meets the node claims it, and the
            // claim runs the split's own erasure from the successor's
            // `keys[0]` (Function 11). This checker visits every node, so
            // it must make the same claim before judging key ranges, or it
            // reports the sanctioned residue as corruption.
            if self.node_epoch(cur) != self.epoch() {
                let _ = self.ensure_current_epoch(cur);
            }
            let k0 = self.key0(cur);
            assert!(k0 > prev_k0, "keys[0] not ascending: {prev_k0} then {k0}");
            let succ = self.next(cur, 0);
            let bound = self.key0(succ);
            stored.clear();
            for i in 0..cfg.keys_per_node {
                let k = self.key_at(cur, i);
                if k != KEY_NULL {
                    assert!(
                        k >= k0 && k < bound,
                        "internal key {k} outside [{k0}, {bound})"
                    );
                    assert!(stored.insert(k), "key {k} stored twice in node {k0}");
                }
            }
            prev_k0 = k0;
            cur = succ;
        }
        // Every level sorted and a sublist of the bottom level's nodes.
        for level in 1..cfg.max_height {
            let mut cur = self.next(self.head, level);
            let mut prev = 0u64;
            while cur != self.tail {
                let k0 = self.key0(cur);
                assert!(k0 > prev, "level {level} not ascending");
                assert!(
                    self.height(cur) > level,
                    "node {cur} linked above its height"
                );
                prev = k0;
                cur = self.next(cur, level);
            }
        }
    }
}
