//! Mutating operations (Functions 13–20, §4.5–4.6) and the public API.
#![allow(clippy::needless_range_loop)] // level loops mirror the thesis pseudocode

use riv::RivPtr;

use crate::config::{KEY_NULL, MAX_HEIGHT, MAX_USER_KEY, MIN_USER_KEY, TOMBSTONE};
use crate::layout::{key_off, next_off_cfg, node_words, val_off, N_SPLIT_COUNT};
use crate::list::UpSkipList;
use crate::rwlock;
use crate::traverse::{Descent, KEY_BUF};

/// Outcome of an attempt to place a key into an existing node.
enum InsertStatus {
    /// The world moved (lock contention or a split); restart from traversal.
    Restart,
    /// The node is full; split it (or, for single-key nodes, create a
    /// successor node).
    NeedSplit,
    /// Placed; carries the previous raw value (tombstone = fresh insert).
    Done(u64),
}

impl UpSkipList {
    /// Insert or update (`Insert` is an upsert, Function 13). Returns the
    /// previous value if the key was present and live.
    ///
    /// ```
    /// let list = upskiplist::ListBuilder::default().create();
    /// assert_eq!(list.insert(1, 10), None);       // fresh insert
    /// assert_eq!(list.insert(1, 11), Some(10));   // update
    /// ```
    ///
    /// # Panics
    /// Panics if `key` is outside `1..=u64::MAX-2` or `value == u64::MAX`
    /// (reserved encodings; see [`crate::config`]).
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        assert!(
            (MIN_USER_KEY..=MAX_USER_KEY).contains(&key),
            "key {key} reserved"
        );
        assert!(value != TOMBSTONE, "value {value} reserved (tombstone)");
        loop {
            let t = self.traverse(key, Descent::Write);
            if t.found() {
                let node = t.landing();
                if !self.read_lock_unsplit(node, t.split_count) {
                    continue;
                }
                let old = self.update(node, t.key_index, value);
                rwlock::read_unlock(self.space(), node);
                return (old != TOMBSTONE).then_some(old);
            }
            if t.landing() == self.head || self.cfg.keys_per_node == 1 {
                // No node can hold the key (the head stores none, and
                // single-key nodes cannot make room): link a fresh node
                // (Function 15, generalized from head-successor to
                // any-predecessor for the single-key configuration).
                debug_assert!(!t.found(), "succs are a miss's (see `Traversal`)");
                let mut preds = t.preds;
                let mut succs = t.succs;
                if self.create_successor(key, value, &mut preds, &mut succs) {
                    return None;
                }
                continue;
            }
            match self.insert_into_existing(key, value, &t.preds, t.split_count) {
                InsertStatus::Restart => continue,
                InsertStatus::Done(old) => return (old != TOMBSTONE).then_some(old),
                InsertStatus::NeedSplit => {
                    debug_assert!(!t.found(), "succs are a miss's (see `Traversal`)");
                    let mut preds = t.preds;
                    let mut succs = t.succs;
                    self.split_node(&mut preds, &mut succs);
                    continue;
                }
            }
        }
    }

    /// Linearizable lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        assert!(
            (MIN_USER_KEY..=MAX_USER_KEY).contains(&key),
            "key {key} reserved"
        );
        self.search_raw(key).filter(|&v| v != TOMBSTONE)
    }

    /// True when the key is present and live.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Remove a key by tombstoning its value (§4.6). Returns the removed
    /// value, or `None` if the key was absent.
    pub fn remove(&self, key: u64) -> Option<u64> {
        assert!(
            (MIN_USER_KEY..=MAX_USER_KEY).contains(&key),
            "key {key} reserved"
        );
        loop {
            let t = self.traverse(key, Descent::Read);
            if !t.found() {
                // Validate the absent outcome as in Function 9's extension
                // (see `search_raw`): a concurrent split may have moved the
                // key out of the node that was scanned.
                let landing = t.landing();
                if landing != self.head && !self.node_unsplit_since(landing, t.split_count) {
                    continue;
                }
                return None;
            }
            let node = t.landing();
            if !self.read_lock_unsplit(node, t.split_count) {
                continue;
            }
            let old = self.update(node, t.key_index, TOMBSTONE);
            if old != TOMBSTONE {
                // The key's liveness changed: stale every shadow region so
                // it re-images. A tombstone moves no link and no `keys[0]`,
                // so the image stays a safe hint without this bump; it stays
                // until a restart metric that does not punish a faster
                // remove window can judge deleting it (DESIGN.md). The bump
                // must land before the unlock (PMS09).
                self.invalidate_structure();
            }
            rwlock::read_unlock(self.space(), node);
            return (old != TOMBSTONE).then_some(old);
        }
    }

    /// Collect all live pairs with keys in `[lo, hi]`, ascending.
    ///
    /// ```
    /// let list = upskiplist::ListBuilder::default().create();
    /// for k in 1..=10u64 { list.insert(k, k * k); }
    /// list.remove(5);
    /// assert_eq!(list.range(4, 6), vec![(4, 16), (6, 36)]);
    /// ```
    ///
    /// Weakly consistent, as [`UpSkipList::iter`]: the thesis leaves
    /// linearizable range queries as future work (Chapter 7).
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        assert!(lo <= hi);
        self.walk_from(lo, Some(hi), usize::MAX).collect()
    }

    /// Count live keys (diagnostic; quiescent use only).
    pub fn count_live(&self) -> usize {
        let mut n = 0;
        let mut node = self.next(self.head, 0);
        while node != self.tail {
            for i in 0..self.cfg.keys_per_node {
                if self.key_at(node, i) != KEY_NULL && self.val_at(node, i) != TOMBSTONE {
                    n += 1;
                }
            }
            node = self.next(node, 0);
        }
        n
    }

    /// Claim `node` if it is stale, read-lock it, and keep the lock only
    /// if no split has run since the traversal read `split_count` (Function
    /// 16 lines 199–203). False, holding nothing, when the caller must
    /// restart.
    fn read_lock_unsplit(&self, node: RivPtr, split_count: u64) -> bool {
        if !self.ensure_current_epoch(node) {
            return false; // another thread is repairing the node
        }
        if !rwlock::try_read_lock(self.space(), node) {
            self.stats.lock_wait();
            return false;
        }
        if self.split_count(node) != split_count {
            rwlock::read_unlock(self.space(), node);
            return false;
        }
        true
    }

    /// Function 14: total-order value update via CAS; the persist of the
    /// new value is the operation's linearization point (§4.5).
    pub(crate) fn update(&self, node: RivPtr, key_index: usize, value: u64) -> u64 {
        let slot = node.add(val_off(&self.cfg, key_index) as u32);
        loop {
            let old = self.space().read(slot);
            if self.space().cas(slot, old, value).is_ok() {
                self.space().persist(slot, 1);
                return old;
            }
            self.stats.cas_retry();
        }
    }

    /// Function 15, generalized: allocate and link a brand-new node holding
    /// `(key, value)` after `preds[0]`.
    ///
    /// MOD-style prepare-then-publish: the whole prepare phase (allocator
    /// pop, node init, tower links) runs inside one [`pmem::FlushEpoch`] —
    /// every CLWB queues in the thread's pending set — and a single sweep
    /// fence commits it all right before the publishing link CAS. The node
    /// is unreachable until that CAS, so one fence suffices (§4.5 "the
    /// order of persistence does not matter"). The publish line itself is
    /// flushed with deferred durability: it rides the next fence (a later
    /// op's sweep or an explicit [`UpSkipList::sync`]), which is the
    /// buffered-durable-linearizability point of the design.
    fn create_successor(
        &self,
        key: u64,
        value: u64,
        preds: &mut [RivPtr; MAX_HEIGHT],
        succs: &mut [RivPtr; MAX_HEIGHT],
    ) -> bool {
        let height = self.random_height();
        let pred = preds[0];
        let succ0 = succs[0];
        let ep = pmem::FlushEpoch::open();
        let block = self.alloc_block();
        self.init_node(block, height, &[(key, value)]);
        self.populate_next_pointers(succs, block, height);
        self.space().flush_range(block, node_words(&self.cfg));
        ep.sweep();
        if self
            .space()
            .cas(
                pred.add(next_off_cfg(&self.cfg, 0) as u32),
                succ0.raw(),
                block.raw(),
            )
            .is_err()
        {
            // Lost the race; return the block (Function 15 line 194) via
            // the outbox so the retry's re-alloc stays on the fast path.
            self.stats.cas_retry();
            self.alloc
                .free_deferred(self.epoch(), self.local_pool(), block);
            return false;
        }
        self.space()
            .flush_deferred(pred.add(next_off_cfg(&self.cfg, 0) as u32), 1);
        self.shadow_publish(0, block, key);
        self.link_higher_levels(preds, succs, block, key, 1, height);
        true
    }

    /// Function 16: place the key into the node that must contain it —
    /// update it where it already sits, else claim an empty slot with a CAS
    /// under the read lock.
    ///
    /// This is where an insert decides "present". The writer's descent
    /// proves nothing on a tag miss, so the one stream of the key array
    /// taken here does both jobs, in this order: search the *whole*
    /// snapshot for `key`, and only then go for the empty slots. Claiming
    /// the first hole met on the way would duplicate a key that sits behind
    /// it — splits erase moved keys in place, so holes precede survivors.
    fn insert_into_existing(
        &self,
        key: u64,
        value: u64,
        preds: &[RivPtr; MAX_HEIGHT],
        expected_split_count: u64,
    ) -> InsertStatus {
        let node = preds[0];
        if !self.read_lock_unsplit(node, expected_split_count) {
            return InsertStatus::Restart;
        }
        let kpn = self.cfg.keys_per_node;
        let placed = KEY_BUF.with(|b| {
            let mut snapshot = b.borrow_mut();
            snapshot.resize(kpn, 0); // every word is overwritten below
            self.space()
                .read_slice(node.add(key_off(&self.cfg, 0) as u32), &mut snapshot);
            if let Some(i) = snapshot.iter().position(|&k| k == key) {
                // Present, yet the descent reported a miss: the tags are
                // cold (first write since open/recover) or a racing insert
                // placed the key. Record what was just streamed, so the
                // next writer of this node is steered.
                if let Some(tags) = &self.tags {
                    tags.fill(node, snapshot.iter().copied());
                }
                return Some(self.update(node, i, value));
            }
            // Absent as of the snapshot. Slots only fill while the read
            // lock is held, and every inserter tries the holes it saw in
            // ascending order, so a racing insert of `key` either shows in
            // the snapshot or wins a CAS on a slot tried here.
            for i in (0..kpn).filter(|&i| snapshot[i] == KEY_NULL) {
                let slot = node.add(key_off(&self.cfg, i) as u32);
                if self.space().cas(slot, KEY_NULL, key).is_ok() {
                    self.space().persist(slot, 1);
                    if let Some(tags) = &self.tags {
                        tags.set(node, i, key);
                    }
                    return Some(self.update(node, i, value));
                }
                // Failed to claim: if the winner inserted our key, update.
                self.stats.cas_retry();
                if self.space().read(slot) == key {
                    return Some(self.update(node, i, value));
                }
            }
            None
        });
        rwlock::read_unlock(self.space(), node);
        placed.map_or(InsertStatus::NeedSplit, InsertStatus::Done)
    }

    /// Function 17: swing predecessors' next pointers level by level, from
    /// the bottom up, flushing each level before the next — the order
    /// matters for recovery (§4.5). Upper links are flushed with deferred
    /// durability (they are index-only state `complete_tower` can rebuild;
    /// losing them to a crash costs a repair, not data), so tower building
    /// adds CLWBs but no fences to the insert. Each published level is
    /// written into the index image (`key0` is the node's first key).
    pub(crate) fn link_higher_levels(
        &self,
        preds: &mut [RivPtr; MAX_HEIGHT],
        succs: &mut [RivPtr; MAX_HEIGHT],
        node: RivPtr,
        key0: u64,
        starting_level: usize,
        height: usize,
    ) {
        for level in starting_level..height {
            loop {
                let pred_l = preds[level];
                if pred_l == node {
                    break; // traversal stepped into the node: already linked
                }
                let expected = self.next(node, level);
                if self
                    .space()
                    .cas(
                        pred_l.add(next_off_cfg(&self.cfg, level) as u32),
                        expected.raw(),
                        node.raw(),
                    )
                    .is_ok()
                {
                    self.space()
                        .flush_deferred(pred_l.add(next_off_cfg(&self.cfg, level) as u32), 1);
                    self.shadow_publish(level, node, key0);
                    break;
                }
                // The neighborhood changed: re-traverse for the node's own
                // key and refresh its upper next pointers (lines 235–237).
                // Uncached: a stale shadow could re-serve the very arrays
                // this CAS just rejected, livelocking the retry loop.
                self.stats.cas_retry();
                let t = self.traverse(key0, Descent::Uncached);
                debug_assert!(t.found(), "node vanished while building its tower");
                *preds = t.preds;
                *succs = t.succs;
                if t.found() && t.level_found >= level {
                    break; // already visible at this level
                }
                self.populate_levels(succs, node, level, height);
            }
        }
    }

    /// Function 18: point `node.next[starting_level..height]` at the fresh
    /// successors, then persist them with one fence.
    fn populate_levels(
        &self,
        succs: &[RivPtr; MAX_HEIGHT],
        node: RivPtr,
        starting_level: usize,
        height: usize,
    ) {
        for level in starting_level..height {
            self.space().write(
                node.add(next_off_cfg(&self.cfg, level) as u32),
                succs[level].raw(),
            );
        }
        self.space().persist(
            node.add(next_off_cfg(&self.cfg, starting_level) as u32),
            (height - starting_level) as u64,
        );
    }

    /// Function 19: populate every level of a new node's next pointers.
    fn populate_next_pointers(&self, succs: &[RivPtr; MAX_HEIGHT], node: RivPtr, height: usize) {
        for level in 0..height {
            self.space().write(
                node.add(next_off_cfg(&self.cfg, level) as u32),
                succs[level].raw(),
            );
        }
    }

    /// Function 20: split a full node, moving the sorted upper half
    /// (median included) into a new successor node — unless some of its
    /// keys were removed, in which case their slots are reclaimed in place
    /// ([`UpSkipList::purge_removed`]).
    fn split_node(&self, preds: &mut [RivPtr; MAX_HEIGHT], succs: &mut [RivPtr; MAX_HEIGHT]) {
        let node = preds[0];
        if !self.ensure_current_epoch(node) {
            return; // claimed by a recovering thread; the caller restarts
        }
        if !rwlock::try_write_lock(self.space(), node) {
            self.stats.lock_wait();
            return; // someone else is progressing; the caller restarts
        }
        // Persist the lock before any split effect can become durable:
        // recovery detects an interrupted split *by* the stale write lock
        // (Function 11), so a crash after the link CAS must find the node
        // locked in the persisted image.
        self.space()
            .persist(node.add(crate::layout::N_LOCK as u32), 1);
        // Contents are frozen under the write lock; stream them out.
        let kpn = self.cfg.keys_per_node;
        let mut keys = vec![0u64; kpn];
        let mut vals = vec![0u64; kpn];
        self.space()
            .read_slice(node.add(key_off(&self.cfg, 0) as u32), &mut keys);
        self.space()
            .read_slice(node.add(val_off(&self.cfg, 0) as u32), &mut vals);
        if self.purge_removed(node, &mut keys, &vals) {
            return; // the caller's retry claims a reclaimed slot
        }
        let mut pairs: Vec<(u64, u64)> = keys
            .iter()
            .zip(&vals)
            .filter(|&(&k, _)| k != KEY_NULL)
            .map(|(&k, &v)| (k, v))
            .collect();
        if pairs.len() < 2 {
            rwlock::write_unlock(self.space(), node);
            return;
        }
        pairs.sort_unstable();
        let moved = pairs.split_off(pairs.len() / 2);
        let new_height = self.random_height();
        // Prepare-then-publish, as in `create_successor`: the allocator
        // pop, the new node's contents, and its tower links all queue their
        // CLWBs inside one flush epoch, committed by a single sweep fence
        // right before the publishing link CAS.
        let ep = pmem::FlushEpoch::open();
        let block = self.alloc_block();
        self.init_node(block, new_height, &moved);
        self.populate_next_pointers(succs, block, new_height);
        // The bottom link must take over the split node's current successor
        // (stable while we hold the write lock, but read it exactly once so
        // the link CAS and the new node's pointer agree).
        let succ0 = self.next(node, 0);
        self.space()
            .write(block.add(next_off_cfg(&self.cfg, 0) as u32), succ0.raw());
        self.space().flush_range(block, node_words(&self.cfg));
        ep.sweep();
        if self
            .space()
            .cas(
                node.add(next_off_cfg(&self.cfg, 0) as u32),
                succ0.raw(),
                block.raw(),
            )
            .is_err()
        {
            self.stats.cas_retry();
            self.alloc
                .free_deferred(self.epoch(), self.local_pool(), block);
            rwlock::write_unlock(self.space(), node);
            return;
        }
        // One fence covers both the published link and the split counter:
        // the link's CLWB queues in the pending set, and the counter's
        // `persist` right after drains it. No publishing CAS intervenes, so
        // the link line is never dirty at a publish point.
        self.space()
            .flush_range(node.add(next_off_cfg(&self.cfg, 0) as u32), 1);
        self.space().fetch_add(node.add(N_SPLIT_COUNT as u32), 1);
        self.space().persist(node.add(N_SPLIT_COUNT as u32), 1);
        self.stats.node_split();
        // Erase the moved pairs from the old node (lines 265–267): the
        // pairs are sorted, so they are exactly the keys from `moved[0]` on.
        self.erase_from(node, moved[0].0);
        rwlock::write_unlock(self.space(), node);
        // Image the new node's level-0 link (mirrored on tagged lists only),
        // outside the lock, then build its tower (lines 269–270).
        self.shadow_publish(0, block, moved[0].0);
        self.complete_tower(block);
    }

    /// The split's erasure, shared by a live split and recovery's finish
    /// of a crashed one (Function 11): empty every slot of the write-locked
    /// `node` whose key is at or above `bound`, then persist the node. A
    /// slot whose key is already NULL gets its value reset as well — a
    /// crash mid-erasure can keep the NULL key and lose the tombstone, and
    /// a later claim of the slot would report that value as the key's
    /// previous one.
    pub(crate) fn erase_from(&self, node: RivPtr, bound: u64) {
        for i in 0..self.cfg.keys_per_node {
            let k = self.key_at(node, i);
            if k == KEY_NULL || k >= bound {
                self.space()
                    .write(node.add(key_off(&self.cfg, i) as u32), KEY_NULL);
                self.space()
                    .write(node.add(val_off(&self.cfg, i) as u32), TOMBSTONE);
            }
        }
        self.space().persist(node, node_words(&self.cfg));
    }

    /// Give a full node its removed keys' slots back instead of splitting
    /// it (DESIGN.md "Reclaiming removed slots"). Runs under the write lock
    /// `split_node` took and persisted, on the key and value arrays streamed
    /// under it. Every slot but the immutable `keys[0]` whose key is
    /// tombstoned becomes empty — (K, ⊥) → (NULL, ⊥), absent either way —
    /// and the split count is bumped exactly as by a split, so a reader that
    /// read K there fails its validation once another key is claimed into
    /// the slot. No key changes node, so no allocation, link or tower is
    /// involved, and the index image stays exact: it holds only links and
    /// `keys[0]`. Returns false, having touched nothing, when there is no
    /// such slot; true once the node is purged and unlocked.
    fn purge_removed(&self, node: RivPtr, keys: &mut [u64], vals: &[u64]) -> bool {
        let mut last = 0;
        for i in 1..keys.len() {
            if keys[i] != KEY_NULL && vals[i] == TOMBSTONE {
                keys[i] = KEY_NULL;
                self.space()
                    .write(node.add(key_off(&self.cfg, i) as u32), KEY_NULL);
                last = i;
            }
        }
        if last == 0 {
            return false;
        }
        self.space().fetch_add(node.add(N_SPLIT_COUNT as u32), 1);
        // One fence for the header line (split count) and the key lines up
        // to the last erased slot.
        self.space().persist(node, key_off(&self.cfg, last) + 1);
        self.stats.node_purge();
        if let Some(tags) = &self.tags {
            tags.fill(node, keys.iter().copied());
        }
        rwlock::write_unlock(self.space(), node);
        true
    }
}
