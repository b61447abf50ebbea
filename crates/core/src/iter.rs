//! Streaming iteration over the live key-value pairs: the one walk behind
//! `iter`, `scan` and `range`. It reads the bottom level one node at a time
//! with the same split-counter validation as a lookup: each node's pairs
//! are consistent, but the iteration as a whole is weakly consistent (the
//! thesis leaves fully linearizable scans as future work).

use std::cell::RefCell;

use riv::RivPtr;

use crate::config::{KEY_NULL, MIN_USER_KEY, TOMBSTONE};
use crate::layout::{key_off, val_off};
use crate::list::UpSkipList;
use crate::rwlock;

/// Iterator over live `(key, value)` pairs, strictly ascending.
/// Created by [`UpSkipList::iter`] and [`UpSkipList::iter_from`].
pub struct Iter<'a> {
    list: &'a UpSkipList,
    node: RivPtr,
    /// The lower bound, then one past the last key yielded: below it lie a
    /// moved half met again (a split raced a `next` read) and racing inserts.
    floor: u64,
    /// Inclusive upper bound, checked on `keys[0]` before a node is read.
    hi: Option<u64>,
    buffer: Vec<(u64, u64)>,
    idx: usize,
}

impl UpSkipList {
    /// Iterate over all live pairs. Weakly consistent: each node is read
    /// atomically (validated against concurrent splits); keys come strictly
    /// ascending, each once, even when pairs move between nodes meanwhile.
    pub fn iter(&self) -> Iter<'_> {
        self.walk(self.head, KEY_NULL, None)
    }

    /// As [`UpSkipList::iter`], from the first live key ≥ `from`.
    pub fn iter_from(&self, from: u64) -> Iter<'_> {
        self.walk_from(from, None)
    }

    /// YCSB-style scan: up to `limit` live pairs with keys ≥ `from`,
    /// ascending (workload E's operation).
    pub fn scan(&self, from: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(limit);
        out.extend(self.iter_from(from).take(limit));
        out
    }

    /// The walk over `[lo, hi]`, started where the descent for `lo` lands.
    pub(crate) fn walk_from(&self, lo: u64, hi: Option<u64>) -> Iter<'_> {
        self.walk(self.traverse(lo.max(MIN_USER_KEY)).landing(), lo, hi)
    }

    fn walk(&self, node: RivPtr, floor: u64, hi: Option<u64>) -> Iter<'_> {
        Iter {
            list: self,
            node,
            floor,
            hi,
            buffer: Vec::new(),
            idx: 0,
        }
    }

    /// Validated snapshot of one node's live pairs, sorted, into `pairs`
    /// (cleared first). The key and value arrays are streamed into
    /// per-thread buffers, so a scan allocates nothing per node visited.
    pub(crate) fn snapshot_node(&self, node: RivPtr, pairs: &mut Vec<(u64, u64)>) {
        thread_local! {
            /// Key and value arrays of the one node a thread is reading.
            static NODE: RefCell<(Vec<u64>, Vec<u64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
        }
        let kpn = self.cfg.keys_per_node;
        NODE.with(|b| {
            let (keys, vals) = &mut *b.borrow_mut();
            keys.resize(kpn, 0);
            vals.resize(kpn, 0);
            loop {
                if rwlock::is_write_locked(rwlock::load(self.space(), node)) {
                    std::hint::spin_loop();
                    continue;
                }
                let sc = self.split_count(node);
                self.space()
                    .read_slice(node.add(key_off(&self.cfg, 0) as u32), keys);
                self.space()
                    .read_slice(node.add(val_off(&self.cfg, 0) as u32), vals);
                if self.split_count(node) == sc
                    && !rwlock::is_write_locked(rwlock::load(self.space(), node))
                {
                    break;
                }
            }
            pairs.clear();
            let live = keys.iter().zip(vals.iter());
            pairs.extend(
                live.filter(|&(&k, &v)| k != KEY_NULL && v != TOMBSTONE)
                    .map(|(&k, &v)| (k, v)),
            );
        });
        pairs.sort_unstable();
    }
}

impl Iterator for Iter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            while let Some(&(k, v)) = self.buffer.get(self.idx) {
                self.idx += 1;
                if self.hi.is_some_and(|hi| k > hi) {
                    self.node = self.list.tail; // sorted: nothing more is wanted
                    return None;
                }
                if k >= self.floor {
                    self.floor = k + 1;
                    return Some((k, v));
                }
            }
            if self.node == self.list.tail
                || self.hi.is_some_and(|hi| self.list.key0(self.node) > hi)
            {
                return None;
            }
            // The head (a start below every key) holds no pairs: step past.
            if self.node != self.list.head {
                self.list.snapshot_node(self.node, &mut self.buffer);
                self.idx = 0;
            }
            self.node = self.list.next(self.node, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ListBuilder, ListConfig};

    #[test]
    fn iter_yields_all_live_pairs_in_order() {
        let l = ListBuilder {
            list: ListConfig::new(10, 4),
            ..ListBuilder::default()
        }
        .create();
        for k in (1..=100u64).rev() {
            l.insert(k, k * 2);
        }
        l.remove(50);
        let got: Vec<(u64, u64)> = l.iter().collect();
        assert_eq!(got.len(), 99);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "not ascending");
        assert!(!got.iter().any(|&(k, _)| k == 50));
        assert_eq!(got[0], (1, 2));
        assert_eq!(*got.last().unwrap(), (100, 200));
    }

    #[test]
    fn iter_on_empty_list_is_empty() {
        let l = ListBuilder::default().create();
        assert_eq!(l.iter().count(), 0);
    }

    #[test]
    fn a_split_between_a_snapshot_and_its_next_read_yields_no_key_twice() {
        let l = ListBuilder {
            list: ListConfig::new(10, 4),
            ..ListBuilder::default()
        }
        .create();
        for k in 1..=4u64 {
            l.insert(k, k);
        }
        let node = l.next(l.head(), 0);
        let mut it = l.iter();
        assert_eq!(it.next(), Some((1, 1)), "snapshots the full node");
        // A split moves {3, 4} out; the walk then reads the node's `next`
        // as if that read had raced the split, and lands on the moved half.
        l.insert(5, 5);
        it.node = l.next(node, 0);
        let rest: Vec<u64> = it.map(|(k, _)| k).collect();
        assert_eq!(rest, vec![2, 3, 4, 5]);
    }

    #[test]
    fn iter_under_concurrent_inserts_terminates_and_is_sane() {
        let l = ListBuilder {
            list: ListConfig::new(10, 4),
            ..ListBuilder::default()
        }
        .create();
        // Pre-existing keys are the multiples of 4; the writer fills the
        // gaps between them, in a scattered order, so the nodes the readers
        // walk keep splitting under them.
        for k in (4..=800u64).step_by(4) {
            l.insert(k, 1);
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                pmem::thread::register(1, 0);
                for i in 0..800u64 {
                    let k = 1 + (i * 337) % 800;
                    if k % 4 != 0 {
                        l.insert(k, 1);
                    }
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            pmem::thread::register(0, 0);
            let mut rounds = 0;
            while rounds < 20 || !done.load(std::sync::atomic::Ordering::Acquire) {
                rounds += 1;
                let seen: Vec<u64> = l.iter().map(|(k, _)| k).collect();
                // Strictly ascending: a key is never seen twice, nor out
                // of order, whatever moved between nodes meanwhile.
                assert!(
                    seen.windows(2).all(|w| w[0] < w[1]),
                    "round {rounds}: not strictly ascending"
                );
                for k in (4..=800u64).step_by(4) {
                    assert!(
                        seen.binary_search(&k).is_ok(),
                        "pre-existing key {k} missed"
                    );
                }
            }
        });
    }
}
