//! Runtime recovery checks (Functions 10–12, §4.1.3, §4.4.1).
//!
//! Every node records the failure-free epoch in which it was created or
//! last verified. A thread that meets a node from an older epoch knows no
//! live thread is responsible for it. All three paths that meet one — a
//! traversal's hop (Function 10), an operation about to lock the node
//! (`ensure_current_epoch`) and the eager pass — take it through one
//! claim: read the node's epoch, then its lock word, drain the dead
//! epoch's readers, and CAS the epoch forward, so exactly one thread
//! repairs the node. If the word read before that CAS held the write bit,
//! the dead epoch was mid-split, and the claimant finishes the split with
//! the live split's own erasure (Function 11). The traversal's hop then
//! finishes an interrupted tower build (Function 12), and the eager pass
//! rebuilds every tower.
//!
//! To avoid a post-crash throughput collapse, searches repair at most one
//! incomplete *insert* per traversal; incomplete *splits* are always
//! repaired immediately because their node contents are unreliable until
//! fixed (§4.4.1 "Preventing Low Throughput After Recovery").

use std::cell::Cell;

use riv::RivPtr;

use crate::layout::{N_EPOCH, N_LOCK};
use crate::list::UpSkipList;
use crate::rwlock;
use crate::traverse::Descent;

thread_local! {
    /// Bounds recursion: completing a tower re-traverses, which may claim
    /// further stale nodes. Beyond this depth, insert recovery is deferred
    /// (split recovery never recurses and always runs).
    static RECOVERY_DEPTH: Cell<u32> = const { Cell::new(0) };
}

const MAX_RECOVERY_DEPTH: u32 = 2;

impl UpSkipList {
    /// The node's epoch and lock word, read in that order, when the node
    /// is from a dead epoch; `None` when it is current. The order matters:
    /// a live thread locks only a current node, so a lock word read after
    /// a stale epoch is the dead epoch's unless the epoch has since moved,
    /// and then [`UpSkipList::claim`]'s CAS fails.
    fn stale_words(&self, node: RivPtr) -> Option<(u64, u64)> {
        let node_epoch = self.node_epoch(node);
        (node_epoch != self.epoch()).then(|| (node_epoch, rwlock::load(self.space(), node)))
    }

    /// Claim a node read stale as `(node_epoch, lock)` by
    /// [`UpSkipList::stale_words`], and finish the split the dead epoch
    /// left on it (Functions 10–11). Returns false when another thread
    /// claimed it first; that thread repairs it.
    ///
    /// Whether a split is finished is decided from `lock`, the word read
    /// *before* the CAS. Once the CAS lands the node is current, and a live
    /// splitter may lock it at once; a fresh load would take that lock for
    /// the dead epoch's, erase under the splitter and release its lock.
    fn claim(&self, node: RivPtr, (node_epoch, lock): (u64, u64)) -> bool {
        // Drain before the CAS, so the dead epoch's reader count never
        // becomes visible as live state.
        rwlock::drain_readers(self.space(), node, lock);
        let epoch_word = node.add(N_EPOCH as u32);
        if self
            .space()
            .cas(epoch_word, node_epoch, self.epoch())
            .is_err()
        {
            return false;
        }
        self.space().persist(epoch_word, 1);
        if rwlock::is_write_locked(lock) {
            // The contents are frozen under the stale lock. Whatever the
            // crash kept of the split, every key at or above the
            // successor's first key has moved on (into the new node, or
            // past it if that node split too), and the rest stayed.
            self.erase_from(node, self.key0(self.next(node, 0)));
            rwlock::write_unlock(self.space(), node);
            self.space().persist(node.add(N_LOCK as u32), 1);
        }
        true
    }

    /// Function 10. Returns true when this thread performed a recovery (the
    /// caller restarts its traversal).
    pub(crate) fn check_for_recovery(
        &self,
        level: usize,
        cur: RivPtr,
        preds: &[RivPtr],
        succs: &[RivPtr],
        recoveries_done: u32,
    ) -> bool {
        let Some(words) = self.stale_words(cur) else {
            return false;
        };
        // Past the first repair of this traversal, only a stale lock word
        // (a split to finish, readers to drain) is claimed at once.
        if (recoveries_done > 0 && words.1 == 0) || !self.claim(cur, words) {
            return false;
        }
        self.check_insert_recovery(level, cur, preds, succs);
        true
    }

    /// Function 12: if the claimed node is missing from a level its height
    /// says it should occupy, finish building its tower.
    ///
    /// Detection uses the current traversal's arrays: when the node is
    /// linked at `level + 1`, the level-`level + 1` descent must have
    /// stopped at or beyond it. The check is conservative — inconclusive
    /// cases defer to a later traversal — and completion re-traverses for
    /// the node's own key before linking, which keeps the CAS positions
    /// exact (the thesis reuses the current arrays; re-traversing the
    /// node's key is what its own Function 20 line 269 does and avoids
    /// mis-positioned links when the search key differs from the node's).
    pub(crate) fn check_insert_recovery(
        &self,
        level: usize,
        cur: RivPtr,
        preds: &[RivPtr],
        succs: &[RivPtr],
    ) {
        if level + 1 >= self.cfg.max_height {
            return;
        }
        let h = self.height(cur);
        if h == 0 || h > self.cfg.max_height || h <= level + 1 {
            return; // tower already complete at this level (or corrupt)
        }
        let k0 = self.key0(cur);
        let pred_up = preds[level + 1];
        let succ_up = succs[level + 1];
        if pred_up.is_null() || succ_up.is_null() {
            return;
        }
        let missing_above = if succ_up == cur {
            false
        } else {
            // pred_up stopped strictly before cur and succ_up jumped past
            // it: cur is invisible at level + 1.
            self.key0(pred_up) < k0 && self.key0(succ_up) > k0
        };
        if !missing_above {
            return;
        }
        let depth = RECOVERY_DEPTH.with(|d| d.get());
        if depth >= MAX_RECOVERY_DEPTH {
            return; // defer; another traversal will finish the tower
        }
        RECOVERY_DEPTH.with(|d| d.set(depth + 1));
        self.complete_tower(cur);
        RECOVERY_DEPTH.with(|d| d.set(depth));
    }

    /// Bring a node into the current epoch before locking it. Deferred
    /// recovery (Function 10's `recoveriesDone` bound) lets traversals walk
    /// past stale nodes without claiming them — but an operation must
    /// never *lock* a stale node: a later recovery claim would drain its
    /// live reader count and let a split race the update (a lost-update
    /// window our linearizability analyzer caught, echoing the thesis's
    /// own DrainReaders find, §6.3). Returns false when another thread won
    /// the claim; the caller restarts and sees the repaired node.
    pub(crate) fn ensure_current_epoch(&self, node: RivPtr) -> bool {
        self.stale_words(node).is_none_or(|w| self.claim(node, w))
    }

    /// Eager post-crash recovery: claim and repair **every** node right
    /// now instead of deferring into normal operation. This is the
    /// alternative §4.4.1 argues against — its cost is O(structure size)
    /// and it is provided for the deferred-vs-eager ablation (A2) and for
    /// deployments that prefer a longer restart over a slower first pass.
    /// Call after [`crate::UpSkipList::recover`]; single-threaded use.
    pub fn recover_eagerly(&self) -> usize {
        let mut repaired = 0;
        let mut cur = self.next(self.head, 0);
        loop {
            let claimed = self.stale_words(cur).is_some_and(|w| self.claim(cur, w));
            // The tail sentinel is claimed too, so traversals never pay a
            // claim.
            if cur == self.tail {
                return repaired;
            }
            if claimed {
                self.complete_tower(cur);
                repaired += 1;
            }
            cur = self.next(cur, 0);
        }
    }

    /// Re-traverse for the node's own key and link any unlinked upper
    /// levels (the recovery path into Function 17).
    pub(crate) fn complete_tower(&self, node: RivPtr) {
        let k0 = self.key0(node);
        let h = self.height(node);
        // Uncached: the link CASes below must be positioned against the
        // persistent neighborhood, not a stale shadow image.
        let t = self.traverse(k0, Descent::Uncached);
        if !t.found() || t.landing() != node {
            // The node is not (or no longer) the one holding k0; nothing to
            // complete from here.
            return;
        }
        if t.level_found + 1 >= h {
            return; // fully linked
        }
        let mut preds = t.preds;
        let mut succs = t.succs;
        self.link_higher_levels(&mut preds, &mut succs, node, k0, t.level_found + 1, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ListConfig;
    use crate::layout::{next_off_cfg, node_words, N_SPLIT_COUNT};
    use crate::list::ListBuilder;

    fn small_list() -> std::sync::Arc<UpSkipList> {
        ListBuilder {
            list: ListConfig::new(8, 4),
            ..ListBuilder::default()
        }
        .create()
    }

    #[test]
    fn stale_epoch_nodes_are_claimed_once() {
        let l = small_list();
        l.insert(10, 100);
        l.insert(20, 200);
        // Simulate a restart: every node now carries an old epoch.
        l.recover();
        assert_eq!(l.get(10), Some(100));
        assert_eq!(l.get(20), Some(200));
        // After the lookups the touched nodes are claimed into the current
        // epoch; a second pass performs no further recovery.
        assert_eq!(l.get(10), Some(100));
        l.check_invariants();
    }

    #[test]
    fn stale_write_lock_is_released_by_recovery() {
        let l = small_list();
        l.insert(10, 100);
        let t = l.traverse(10, Descent::Read);
        let node = t.landing();
        // A thread died holding the split lock in the previous epoch.
        assert!(rwlock::try_write_lock(l.space(), node));
        l.recover();
        assert_eq!(l.get(10), Some(100), "reads must recover the stale lock");
        assert_eq!(rwlock::load(l.space(), node), 0, "lock released");
        l.check_invariants();
    }

    #[test]
    fn stale_reader_count_is_drained() {
        let l = small_list();
        l.insert(10, 100);
        let node = l.traverse(10, Descent::Read).landing();
        assert!(rwlock::try_read_lock(l.space(), node));
        assert!(rwlock::try_read_lock(l.space(), node));
        l.recover();
        assert_eq!(l.get(10), Some(100));
        assert_eq!(rwlock::reader_count(rwlock::load(l.space(), node)), 0);
    }

    #[test]
    fn eager_recovery_claims_every_node_once() {
        let l = small_list();
        for k in 1..=50u64 {
            l.insert(k, k);
        }
        l.recover(); // every node is now epoch-stale
        let repaired = l.recover_eagerly();
        // Tower-completion traversals inside the pass claim some nodes on
        // the loop's behalf, so `repaired` can undercount — but afterwards
        // nothing may remain stale.
        assert!(
            repaired > 0 && repaired <= l.node_count(),
            "repaired {repaired}"
        );
        assert_eq!(l.recover_eagerly(), 0, "second pass finds nothing stale");
        for k in 1..=50u64 {
            assert_eq!(l.get(k), Some(k));
        }
        l.check_invariants();
    }

    #[test]
    fn eager_recovery_completes_interrupted_split() {
        let l = small_list();
        for k in [10u64, 20, 30, 40] {
            l.insert(k, k);
        }
        let node = l.traverse(10, Descent::Read).landing();
        // Stale write lock as left by a crashed split (nothing moved yet).
        assert!(rwlock::try_write_lock(l.space(), node));
        l.recover();
        l.recover_eagerly();
        assert_eq!(
            rwlock::load(l.space(), node),
            0,
            "stale split lock released"
        );
        for k in [10u64, 20, 30, 40] {
            assert_eq!(l.get(k), Some(k));
        }
        l.check_invariants();
    }

    /// Hand-craft Function 20's crash state just after the link CAS (line
    /// 255): the node holding 10..=40 is write-locked and its split count
    /// bumped; its level-0 link leads through one new node per `chain`
    /// entry, in order, to its old successor; and it still holds every key
    /// (the erasure was lost). Then restart. Returns the old node.
    fn split_residue(l: &UpSkipList, chain: &[&[(u64, u64)]]) -> RivPtr {
        for k in [10u64, 20, 30, 40] {
            l.insert(k, k * 10);
        }
        let node = l.traverse(10, Descent::Read).landing();
        let mut next = l.next(node, 0);
        for kvs in chain.iter().rev() {
            let block = l.alloc_block();
            l.init_node(block, 1, kvs);
            l.space()
                .write(block.add(next_off_cfg(l.config(), 0) as u32), next.raw());
            l.space().persist(block, node_words(l.config()));
            next = block;
        }
        assert!(rwlock::try_write_lock(l.space(), node));
        l.space()
            .write(node.add(next_off_cfg(l.config(), 0) as u32), next.raw());
        l.space().fetch_add(node.add(N_SPLIT_COUNT as u32), 1);
        l.space().persist(node, node_words(l.config()));
        l.recover();
        node
    }

    fn assert_all_four_keys(l: &UpSkipList) {
        for (k, v) in [(10u64, 100u64), (20, 200), (30, 300), (40, 400)] {
            assert_eq!(l.get(k), Some(v), "key {k} lost across split recovery");
        }
    }

    #[test]
    fn invariant_check_repairs_split_residue_instead_of_panicking() {
        let l = small_list();
        let node = split_residue(&l, &[&[(30, 300), (40, 400)]]);
        // No traversal has claimed the node: the checker itself must apply
        // the deferred repair rather than flagging the residue.
        l.check_invariants();
        assert_eq!(rwlock::load(l.space(), node), 0, "repair released the lock");
        assert_all_four_keys(&l);
    }

    #[test]
    fn interrupted_split_is_completed() {
        let l = small_list();
        split_residue(&l, &[&[(30, 300), (40, 400)]]);
        assert_all_four_keys(&l);
        l.check_invariants();
    }

    /// The split's new node [30, 40] was itself split into [30] and [40]
    /// before the crash. The repair must erase 40 from the old node too,
    /// though its immediate successor does not hold it.
    #[test]
    fn split_residue_past_a_resplit_successor_is_erased() {
        let lazy = small_list();
        split_residue(&lazy, &[&[(30, 300)], &[(40, 400)]]);
        assert_all_four_keys(&lazy);
        lazy.check_invariants();

        let eager = small_list();
        let node = split_residue(&eager, &[&[(30, 300)], &[(40, 400)]]);
        eager.recover_eagerly();
        assert_eq!(
            rwlock::load(eager.space(), node),
            0,
            "repair released the lock"
        );
        eager.check_invariants();
        assert_all_four_keys(&eager);
    }

    /// A live splitter can lock a node the moment a claim's epoch CAS makes
    /// it current. The claim must judge the split from the lock word it
    /// read before the CAS, not take the live lock for a dead epoch's.
    #[test]
    fn claim_leaves_a_live_splitters_lock_alone() {
        let l = small_list();
        for k in [10u64, 20, 30, 40] {
            l.insert(k, k);
        }
        let node = l.traverse(10, Descent::Read).landing();
        l.recover();
        let words = l.stale_words(node).expect("recover() stales every node");
        assert_eq!(words.1, 0, "no thread held the lock at the crash");
        assert!(rwlock::try_write_lock(l.space(), node), "live splitter");
        assert!(l.claim(node, words), "the claim wins the epoch CAS");
        assert_eq!(
            rwlock::load(l.space(), node),
            rwlock::WRITE_BIT,
            "the live splitter still holds its lock"
        );
        let keys: Vec<u64> = (0..4).map(|i| l.key_at(node, i)).collect();
        assert_eq!(keys, [10, 20, 30, 40], "the claim erased nothing");
        rwlock::write_unlock(l.space(), node);
        l.check_invariants();
    }
}
