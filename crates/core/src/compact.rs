//! Quiescent compaction: reclaim fully-tombstoned nodes.
//!
//! The thesis implements removals as tombstones and leaves node
//! reclamation as future work (§4.6): concurrent physical unlinking needs
//! marked pointers and recoverable reclamation. This module provides the
//! practical middle ground real deployments use for log/tombstone-based
//! structures: an **offline maintenance pass** (no concurrent operations)
//! that unlinks nodes whose every slot is dead and returns their blocks to
//! the allocator's free lists.
//!
//! Crash safety: links are snipped top-down and persisted per level, so an
//! interrupted compaction leaves the node linked at a prefix of its lower
//! levels — exactly the "incomplete tower" shape that traversal recovery
//! already tolerates (the node stays reachable at level 0 until the final
//! snip, and the freed block is only recycled after the level-0 unlink is
//! durable).

use riv::RivPtr;

use crate::config::{KEY_NULL, TOMBSTONE};
use crate::layout::next_off_cfg;
use crate::list::UpSkipList;

impl UpSkipList {
    /// True when the node carries no live pair.
    fn is_dead(&self, node: RivPtr) -> bool {
        for i in 0..self.cfg.keys_per_node {
            if self.key_at(node, i) != KEY_NULL && self.val_at(node, i) != TOMBSTONE {
                return false;
            }
        }
        true
    }

    /// Unlink and reclaim every fully-tombstoned node. **Quiescent use
    /// only** — the caller must guarantee no concurrent operations (e.g. a
    /// maintenance window right after recovery). Returns the number of
    /// nodes reclaimed.
    pub fn compact(&self) -> usize {
        // Compaction is the one path that physically frees nodes, which the
        // epoch protocol does not cover — bump the structure generation and
        // throw the shadow image away outright before any block can be
        // recycled: stale shadow entries are used as hints even past a
        // generation mismatch, so the image itself must not outlive the
        // nodes it points at. The
        // in-node search tags go with it (recycled blocks get fresh ones).
        self.invalidate_structure();
        self.shadow.discard();
        self.discard_tags();
        let epoch = self.epoch();
        let mut reclaimed = 0;
        let mut pred = self.head;
        let mut cur = self.next(pred, 0);
        while cur != self.tail {
            let succ0 = self.next(cur, 0);
            if self.is_dead(cur) {
                let height = self.height(cur).clamp(1, self.cfg.max_height);
                // Top-down: the node stays a member of the abstract set
                // (level 0) until the last snip, so a crash mid-compaction
                // leaves a recoverable incomplete tower, never a dangling
                // upper link.
                for level in (0..height).rev() {
                    // Find the node's predecessor at this level by key.
                    let mut p = self.head;
                    loop {
                        let n = self.next(p, level);
                        if n == cur {
                            break;
                        }
                        if n == self.tail || self.key0(n) > self.key0(cur) {
                            p = RivPtr::NULL; // not linked at this level
                            break;
                        }
                        p = n;
                    }
                    if p.is_null() {
                        continue;
                    }
                    let slot = p.add(next_off_cfg(&self.cfg, level) as u32);
                    let next = self.next(cur, level);
                    if self.space().cas(slot, cur.raw(), next.raw()).is_ok() {
                        self.space().persist(slot, 1);
                    }
                }
                self.alloc.free_deferred(epoch, self.local_pool(), cur);
                reclaimed += 1;
                // `pred` is unchanged; re-read its successor.
                cur = self.next(pred, 0);
                continue;
            }
            pred = cur;
            cur = succ0;
        }
        self.stats.compaction();
        self.stats.reclaimed(reclaimed as u64);
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use crate::{ListBuilder, ListConfig};

    fn list() -> std::sync::Arc<crate::UpSkipList> {
        ListBuilder {
            list: ListConfig::new(10, 4),
            ..ListBuilder::default()
        }
        .create()
    }

    #[test]
    fn compact_reclaims_fully_dead_nodes() {
        let l = list();
        for k in 1..=100u64 {
            l.insert(k, k);
        }
        let nodes_before = l.node_count();
        // Kill a contiguous key range: some nodes become fully dead.
        for k in 20..=60u64 {
            l.remove(k);
        }
        // Drain the insert phase's magazine so the baseline below counts
        // only list-visible free blocks.
        l.allocator().drain_all(l.epoch());
        let free_before = l.allocator().count_free_all(0);
        let reclaimed = l.compact();
        assert!(reclaimed > 0, "a 41-key hole must empty some 4-key nodes");
        assert_eq!(l.node_count(), nodes_before - reclaimed);
        // Reclaimed blocks batch through the free outbox; drain it so the
        // free-list count reflects them.
        l.allocator().drain_all(l.epoch());
        assert_eq!(
            l.allocator().count_free_all(0),
            free_before + reclaimed,
            "every reclaimed node returns to a free list"
        );
        // Surviving data intact, structure sound.
        for k in (1..20u64).chain(61..=100) {
            assert_eq!(l.get(k), Some(k), "key {k}");
        }
        for k in 20..=60u64 {
            assert_eq!(l.get(k), None);
        }
        l.check_invariants();
    }

    #[test]
    fn compact_on_live_list_is_a_noop() {
        let l = list();
        for k in 1..=50u64 {
            l.insert(k, k);
        }
        assert_eq!(l.compact(), 0);
        assert_eq!(l.count_live(), 50);
        l.check_invariants();
    }

    #[test]
    fn compacted_list_remains_fully_usable() {
        let l = list();
        for k in 1..=100u64 {
            l.insert(k, k);
        }
        for k in 1..=100u64 {
            l.remove(k);
        }
        let reclaimed = l.compact();
        assert!(reclaimed > 0);
        assert_eq!(l.count_live(), 0);
        // Reinsert into the compacted structure (blocks get recycled).
        for k in 1..=100u64 {
            assert_eq!(l.insert(k, k * 2), None);
        }
        for k in 1..=100u64 {
            assert_eq!(l.get(k), Some(k * 2));
        }
        l.check_invariants();
    }

    #[test]
    fn compact_then_crash_recovers() {
        let l = ListBuilder {
            list: ListConfig::new(10, 4),
            mode: pmem::PersistenceMode::Tracked,
            ..ListBuilder::default()
        }
        .create();
        for k in 1..=80u64 {
            l.insert(k, k);
        }
        for k in 30..=50u64 {
            l.remove(k);
        }
        l.compact();
        for pool in l.space().pools() {
            pool.simulate_crash();
        }
        l.recover();
        for k in (1..30u64).chain(51..=80) {
            assert_eq!(l.get(k), Some(k), "key {k} after compaction + crash");
        }
        l.check_invariants();
    }
}
