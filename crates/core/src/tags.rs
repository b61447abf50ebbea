//! Volatile *tag arrays*: one 16-bit key hash per key slot of every large
//! node, held in DRAM so the in-node search (Function 8) reads only the
//! key words that can match instead of streaming the whole key array.
//!
//! ## Contract
//!
//! - **Positive-only hints.** A tag equal to the wanted key's says "read
//!   this slot's key word from pmem and compare"; nothing else is ever
//!   concluded from a tag. "Absent" is never answered from DRAM: when no
//!   candidate verifies, a reader falls back to the streamed linear scan,
//!   and a writer (whose descent stops at the probe) goes on to stream the
//!   key array under the node's read lock, where it searches for the key
//!   before it claims a slot. A stale, missing or aliased tag therefore
//!   costs at most one wasted word read (or one stream) and can never
//!   change an answer, and the split-count/lock validation of Function 9
//!   runs unchanged on whatever slot index the search returns.
//! - **Volatile only.** No layout word, no flush, no fence. Tags are filled
//!   by the first fallback scan that finds its key, by an insert — its slot
//!   claim (after its persist), or its whole stream when that meets a key
//!   the probe missed — and by node initialization; every
//!   `open`/`recover`/`compact` drops them wholesale next to the index
//!   shadow.
//! - **Direct-mapped, lock-free.** A node's tags are packed four to a
//!   word (2 B of DRAM per slot) at
//!   `slabs[pool][chunk][block-in-chunk * words_per_node ..]`: the lookup is
//!   two indexations and a division — no hashing, no lock, no refcount —
//!   and allocates nothing (a chunk's slab is allocated by its first
//!   *fill*, behind a `OnceLock`).
//! - **Large nodes only.** A key array of at most [`LINEAR_SCAN_LINES`]
//!   cache lines is cheaper to stream than to steer, so such lists carry no
//!   table at all (see [`TagTable::for_list`]).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use pmalloc::Allocator;
use riv::RivPtr;

use crate::config::{ListConfig, KEY_NULL};
use crate::list::UpSkipList;

/// Key arrays of up to this many cache lines are searched by the streamed
/// linear scan alone. At ≤ 4 sequential lines (~55 ns each under the
/// default latency model) the scan already costs no more than the one
/// random word read (~240 ns) a tag probe ends in, so tags could only add
/// DRAM and a first-touch fill per node after every reopen — and lists of
/// tens of thousands of small nodes pay that fill tens of thousands of
/// times. The sizing prototype, tagging every node, lost 13 % throughput on
/// the service workload and 25–30 % restart time on the 16-keys/node
/// workloads; with this switch they run no tag code at all.
const LINEAR_SCAN_LINES: usize = 4;

/// "No tag recorded for this slot."
const NO_TAG: u16 = 0;

/// Tags are packed four to a word, so a probe compares four slots per load
/// and a 256-key node's tags span 64 words.
const LANES: usize = 4;
const LANE_BITS: usize = 16;
/// The lowest / highest bit of every lane.
const LANE_LSB: u64 = 0x0001_0001_0001_0001;
const LANE_MSB: u64 = 0x8000_8000_8000_8000;

/// The tag of `key`: 16 well-mixed bits, never [`NO_TAG`] for a real key.
#[inline]
fn tag_of(key: u64) -> u16 {
    if key == KEY_NULL {
        return NO_TAG;
    }
    ((key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as u16).max(1)
}

#[inline]
fn lane(word: u64, lane: usize) -> u16 {
    (word >> (LANE_BITS * lane)) as u16
}

type Slab = Box<[AtomicU64]>;

pub(crate) struct TagTable {
    /// `slabs[pool][chunk]`: the tags of every key slot of every block of
    /// one allocator chunk.
    slabs: Vec<Box<[OnceLock<Slab>]>>,
    block_words: u32,
    blocks_per_chunk: usize,
    keys_per_node: usize,
}

impl std::fmt::Debug for TagTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TagTable")
            .field("keys_per_node", &self.keys_per_node)
            .field("populated_slabs", &self.populated_slabs())
            .finish()
    }
}

impl TagTable {
    /// The table for a list of `cfg`-shaped nodes carved by `alloc`, or
    /// `None` when the key array is small enough to stream.
    pub fn for_list(cfg: &ListConfig, alloc: &Allocator) -> Option<Self> {
        if cfg.keys_per_node <= LINEAR_SCAN_LINES * pmem::CACHE_LINE_WORDS as usize {
            return None;
        }
        let acfg = alloc.config();
        let slabs = alloc
            .space()
            .pools()
            .iter()
            .map(|pool| {
                // Chunk ids start at 1 and chunks are carved back to back
                // from `data_off`, so the pool's size bounds the ids.
                let data_words = pool.len_words().saturating_sub(alloc.layout().data_off);
                let chunks = (data_words / acfg.chunk_words()).min(acfg.max_chunks as u64);
                (0..=chunks).map(|_| OnceLock::new()).collect()
            })
            .collect();
        Some(Self {
            slabs,
            block_words: u32::try_from(acfg.block_words).expect("block offsets are 32-bit"),
            blocks_per_chunk: acfg.blocks_per_chunk as usize,
            keys_per_node: cfg.keys_per_node,
        })
    }

    #[inline]
    fn chunk_slot(&self, node: RivPtr) -> Option<&OnceLock<Slab>> {
        self.slabs
            .get(node.pool() as usize)?
            .get(node.chunk() as usize)
    }

    /// Tag words per node (the last one padded with [`NO_TAG`] lanes).
    #[inline]
    fn words_per_node(&self) -> usize {
        self.keys_per_node.div_ceil(LANES)
    }

    #[inline]
    fn node_range(&self, node: RivPtr) -> std::ops::Range<usize> {
        let start = (node.offset() / self.block_words) as usize * self.words_per_node();
        start..start + self.words_per_node()
    }

    /// The node's tag words, allocating its chunk's slab on first use.
    fn words_or_alloc(&self, node: RivPtr) -> Option<&[AtomicU64]> {
        let words = self.blocks_per_chunk * self.words_per_node();
        self.chunk_slot(node)?
            .get_or_init(|| (0..words).map(|_| AtomicU64::new(0)).collect())
            .get(self.node_range(node))
    }

    /// The first internal slot (≥ 1) of `node` whose tag matches `key`'s
    /// and which `verify` accepts. Never allocates: this is the lookup
    /// path, and a chunk nobody filled yet simply has no candidates.
    #[inline]
    pub fn find(
        &self,
        node: RivPtr,
        key: u64,
        mut verify: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let words = self.chunk_slot(node)?.get()?.get(self.node_range(node))?;
        let pattern = tag_of(key) as u64 * LANE_LSB;
        for (w, word) in words.iter().enumerate() {
            // A lane of `x` is zero where the tag matches. The classic
            // zero-lane test may also flag lanes above a true match, so
            // flagged words are re-checked lane by lane.
            let x = word.load(Relaxed) ^ pattern;
            if x.wrapping_sub(LANE_LSB) & !x & LANE_MSB == 0 {
                continue;
            }
            for l in 0..LANES {
                let slot = w * LANES + l;
                // Slot 0 is compared by the descent, and padding lanes
                // name no slot: neither may ever be verified.
                if lane(x, l) == 0 && (1..self.keys_per_node).contains(&slot) && verify(slot) {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// Record that `slot` of `node` now holds `key`.
    pub fn set(&self, node: RivPtr, slot: usize, key: u64) {
        if let Some(words) = self.words_or_alloc(node) {
            let shift = LANE_BITS * (slot % LANES);
            let tag = (tag_of(key) as u64) << shift;
            let _ = words[slot / LANES]
                .fetch_update(Relaxed, Relaxed, |w| Some(w & !(0xffff << shift) | tag));
        }
    }

    /// Record `keys` as the contents of slots `0..` of `node` (slots past
    /// the iterator's end are recorded as empty).
    pub fn fill(&self, node: RivPtr, keys: impl Iterator<Item = u64>) {
        if let Some(words) = self.words_or_alloc(node) {
            let mut keys = keys.take(self.keys_per_node).fuse();
            for word in words {
                let mut w = 0u64;
                for l in 0..LANES {
                    w |= (tag_of(keys.next().unwrap_or(KEY_NULL)) as u64) << (LANE_BITS * l);
                }
                word.store(w, Relaxed);
            }
        }
    }

    fn allocated_slabs(&self) -> impl Iterator<Item = &Slab> {
        self.slabs
            .iter()
            .flat_map(|pool| pool.iter())
            .filter_map(OnceLock::get)
    }

    /// Forget every tag (crash recovery, compaction).
    pub fn discard(&self) {
        self.map_all(|_| NO_TAG);
    }

    /// Rewrite every tag lane through `f` (the staleness tests' scramble /
    /// zero / alias hook; padding lanes included, which `find` must — and
    /// does — survive).
    pub fn map_all(&self, mut f: impl FnMut(u16) -> u16) {
        for word in self.allocated_slabs().flat_map(|slab| slab.iter()) {
            let old = word.load(Relaxed);
            let new = (0..LANES).fold(0u64, |w, l| w | (f(lane(old, l)) as u64) << (LANE_BITS * l));
            word.store(new, Relaxed);
        }
    }

    /// Chunk slabs holding at least one tag (diagnostic).
    pub fn populated_slabs(&self) -> usize {
        self.allocated_slabs()
            .filter(|slab| slab.iter().any(|w| w.load(Relaxed) != 0))
            .count()
    }
}

impl UpSkipList {
    /// Forget every in-node search tag (no-op on small-node lists).
    pub(crate) fn discard_tags(&self) {
        if let Some(tags) = &self.tags {
            tags.discard();
        }
    }

    /// Chunk slabs currently holding at least one tag (diagnostic; tests
    /// use it to assert tags are dropped, never recovered, across
    /// `open`/`recover`/`compact`).
    #[doc(hidden)]
    pub fn tag_slabs_populated(&self) -> usize {
        self.tags.as_ref().map_or(0, TagTable::populated_slabs)
    }

    /// Rewrite every recorded tag through `f` — the staleness tests'
    /// hook for scrambling, zeroing and aliasing tags between operations.
    #[doc(hidden)]
    pub fn map_tags(&self, f: impl FnMut(u16) -> u16) {
        if let Some(tags) = &self.tags {
            tags.map_all(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ListBuilder;

    #[test]
    fn real_keys_never_hash_to_no_tag() {
        assert_eq!(tag_of(KEY_NULL), NO_TAG);
        for k in (1..1_000_000u64).chain([u64::MAX - 1, 1 << 48, 0x9e37_79b9_7f4a_7c15]) {
            assert_ne!(tag_of(k), NO_TAG, "key {k}");
        }
    }

    #[test]
    fn small_nodes_carry_no_table() {
        for (kpn, tagged) in [
            (1, false),
            (16, false),
            (32, false),
            (33, true),
            (256, true),
        ] {
            let l = ListBuilder {
                list: ListConfig::new(8, kpn),
                ..ListBuilder::default()
            }
            .create();
            assert_eq!(l.tags.is_some(), tagged, "keys_per_node {kpn}");
        }
    }

    #[test]
    fn lookups_allocate_nothing_and_fills_address_one_node() {
        // 66 keys/node: the last tag word has two padding lanes.
        let l = ListBuilder {
            list: ListConfig::new(8, 66),
            ..ListBuilder::default()
        }
        .create();
        let tags = l.tags.as_ref().unwrap();
        let bw = l.allocator().config().block_words as u32;
        let (a, b) = (RivPtr::new(0, 1, 2 * bw), RivPtr::new(0, 1, 3 * bw));
        let candidates = |node, key| {
            let mut seen = Vec::new();
            tags.find(node, key, |slot| {
                seen.push(slot);
                false
            });
            seen
        };
        assert_eq!(candidates(a, 77), vec![]);
        assert_eq!(tags.populated_slabs(), 0, "a lookup must not allocate");
        tags.set(a, 5, 77);
        tags.set(a, 65, 78);
        tags.fill(b, [9u64, 10, KEY_NULL, 12, 10].into_iter());
        assert_eq!(candidates(a, 77), vec![5]);
        assert_eq!(candidates(a, 78), vec![65]);
        assert_eq!(candidates(b, 77), vec![], "a's tags are not b's");
        assert_eq!(candidates(b, 10), vec![1, 4]);
        assert_eq!(candidates(b, 9), vec![], "slot 0 is the descent's");
        assert_eq!(tags.find(b, 10, |slot| slot == 4), Some(4));
        tags.set(b, 1, 13);
        assert_eq!(
            candidates(b, 10),
            vec![4],
            "a re-claimed slot loses its old tag"
        );
        assert_eq!(tags.populated_slabs(), 1);
        // Every lane aliased to one tag, padding included: each real
        // internal slot is a candidate, and nothing past the key array is.
        tags.map_all(|_| tag_of(77));
        assert_eq!(candidates(a, 77), (1..66).collect::<Vec<_>>());
        // Out-of-range pointers (garbage pool or chunk ids) are ignored.
        tags.set(RivPtr::new(9, 1, 0), 0, 1);
        tags.set(RivPtr::new(0, u16::MAX, 0), 0, 1);
        assert_eq!(candidates(RivPtr::new(9, 1, 0), 1), vec![]);
        tags.discard();
        assert_eq!(tags.populated_slabs(), 0);
    }
}
