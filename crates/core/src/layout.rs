//! Persistent word layouts: the root record and the node record (§4.2).

use crate::config::ListConfig;

// ---- root record (start of pool 0's client root area) ----

/// Magic word identifying a formatted UPSkipList root.
pub const ROOT_MAGIC_VALUE: u64 = 0x5550_534b_4c31_0001;

pub const ROOT_MAGIC: u64 = 0;
/// The monotonically increasing failure-free epoch id (§4.1.3).
pub const ROOT_EPOCH: u64 = 1;
/// 1 after a clean shutdown, 0 while the structure is open.
pub const ROOT_CLEAN: u64 = 2;
/// Packed [`ListConfig`].
pub const ROOT_CONFIG: u64 = 3;
/// Raw `RivPtr` of the head sentinel.
pub const ROOT_HEAD: u64 = 4;
/// Raw `RivPtr` of the tail sentinel.
pub const ROOT_TAIL: u64 = 5;
/// Words the root record occupies.
pub const ROOT_WORDS: u64 = 8;

// ---- node record (offsets relative to the block start) ----
//
// Words 0–2 overlay the allocator header: the epoch doubles as the node's
// epochID (§4.1.3) and the free-list next-pointer word is reused as the
// split lock once the block is a node. The split count and lock share the
// node's first cache line with the epoch, so the recovery check of
// Function 10 costs no extra line fetch (§4.4.1).

/// Failure-free epoch in which the node was created or last verified.
pub const N_EPOCH: u64 = 0;
/// Block kind tag (allocator-owned).
pub const N_KIND: u64 = 1;
// Word 2 is the allocator's free-list link and is never reused by node
// state: free-list pushes walk live links, and a word that doubles as
// client state could alias a concurrent walker's CAS (a corruption our
// contended bench runs exposed).
/// Split lock: bit 63 = writer, low 32 bits = reader count.
pub const N_LOCK: u64 = 3;
/// Tower height (number of levels this node occupies).
pub const N_HEIGHT: u64 = 4;
/// Number of completed splits (readers validate against it, Function 9).
pub const N_SPLIT_COUNT: u64 = 5;
/// Reserved (written as 0). Held the sorted-base-region length of the
/// retired binary-search lookup; the word stays so `node_words` — and with
/// it every formatted pool's block size — is unchanged.
pub const N_SORTED: u64 = 6;
/// First key slot. The key array directly follows the header so that
/// `keys[0]` shares the node's first cache line with the metadata a
/// traversal reads anyway (§4.4); [`crate::layout::HEADER_WORDS`] covers
/// both.
pub const N_KEYS: u64 = 7;

/// Words of the header + `keys[0]`, fetchable as one streamed read (a
/// full cache line).
pub const HEADER_WORDS: usize = 8;

/// Word offset of `keys[i]`.
#[inline]
pub fn key_off(_cfg: &ListConfig, i: usize) -> u64 {
    N_KEYS + i as u64
}

/// Word offset of `next[level]`.
#[inline]
pub fn next_off_cfg(cfg: &ListConfig, level: usize) -> u64 {
    N_KEYS + cfg.keys_per_node as u64 + level as u64
}

/// Word offset of `values[i]`.
#[inline]
pub fn val_off(cfg: &ListConfig, i: usize) -> u64 {
    N_KEYS + cfg.keys_per_node as u64 + cfg.max_height as u64 + i as u64
}

/// Total words a node occupies.
#[inline]
pub fn node_words(cfg: &ListConfig) -> u64 {
    N_KEYS + cfg.max_height as u64 + 2 * cfg.keys_per_node as u64
}

#[cfg(test)]
#[allow(clippy::assertions_on_constants)] // compile-time layout contracts, asserted for documentation
mod tests {
    use super::*;

    #[test]
    fn fields_do_not_overlap() {
        let cfg = ListConfig::new(8, 4);
        let mut offs = vec![N_EPOCH, N_KIND, N_LOCK, N_HEIGHT, N_SPLIT_COUNT, N_SORTED];
        for l in 0..cfg.max_height {
            offs.push(next_off_cfg(&cfg, l));
        }
        for i in 0..cfg.keys_per_node {
            offs.push(key_off(&cfg, i));
            offs.push(val_off(&cfg, i));
        }
        let n = offs.len();
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), n, "overlapping node fields");
        assert_eq!(*offs.last().unwrap() + 1, node_words(&cfg));
    }

    #[test]
    fn header_overlays_allocator_words() {
        assert_eq!(N_EPOCH, pmalloc::BLK_EPOCH);
        assert_eq!(N_KIND, pmalloc::BLK_KIND);
        // The free-list link word is exclusively the allocator's.
        assert!(N_LOCK >= pmalloc::BLK_CLIENT);
        assert!(N_LOCK > pmalloc::BLK_NEXT_FREE);
        assert_eq!(HEADER_WORDS as u64, pmem::CACHE_LINE_WORDS);
    }

    #[test]
    fn root_fields_fit_reserved_area() {
        assert!(ROOT_WORDS <= 64);
        assert!(ROOT_TAIL < ROOT_WORDS);
    }
}
