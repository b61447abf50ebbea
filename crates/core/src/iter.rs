//! Streaming iteration over the live key-value pairs.
//!
//! Iteration walks the bottom level, snapshotting one node at a time with
//! the same split-counter validation as a range query: each node's pairs
//! are consistent, but the iteration as a whole is weakly consistent (the
//! thesis leaves fully linearizable scans as future work).

use std::cell::RefCell;

use riv::RivPtr;

use crate::config::{KEY_NULL, TOMBSTONE};
use crate::layout::{key_off, val_off};
use crate::list::UpSkipList;
use crate::rwlock;

/// Iterator over live `(key, value)` pairs in ascending key order.
/// Created by [`UpSkipList::iter`].
pub struct Iter<'a> {
    list: &'a UpSkipList,
    node: RivPtr,
    buffer: Vec<(u64, u64)>,
    idx: usize,
}

impl UpSkipList {
    /// Iterate over all live pairs, ascending. Weakly consistent: each
    /// node is read atomically (validated against concurrent splits), but
    /// pairs moved between nodes mid-iteration may be seen once on either
    /// side of the move.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            list: self,
            node: self.next(self.head(), 0),
            buffer: Vec::new(),
            idx: 0,
        }
    }

    /// YCSB-style scan: up to `limit` live pairs with keys ≥ `from`,
    /// ascending (workload E's operation).
    pub fn scan(&self, from: u64, limit: usize) -> Vec<(u64, u64)> {
        let t = self.traverse(from.max(crate::config::MIN_USER_KEY));
        let mut node = if t.preds[0] != self.head() && !t.preds[0].is_null() {
            t.preds[0]
        } else {
            self.next(self.head(), 0)
        };
        let mut out = Vec::with_capacity(limit);
        let mut pairs = Vec::new();
        while node != self.tail() && out.len() < limit {
            self.snapshot_node(node, &mut pairs);
            let wanted = pairs.iter().filter(|&&(k, _)| k >= from);
            out.extend(wanted.take(limit - out.len()));
            node = self.next(node, 0);
        }
        out
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
            if self.idx < self.buffer.len() {
                let item = self.buffer[self.idx];
                self.idx += 1;
                return Some(item);
            }
            if self.node == self.list.tail() {
                return None;
            }
            self.list.snapshot_node(self.node, &mut self.buffer);
            self.idx = 0;
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
    fn iter_under_concurrent_inserts_terminates_and_is_sane() {
        let l = ListBuilder {
            list: ListConfig::new(10, 4),
            ..ListBuilder::default()
        }
        .create();
        for k in 1..=200u64 {
            l.insert(k, 1);
        }
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                pmem::thread::register(1, 0);
                for k in 201..=600u64 {
                    l.insert(k, 1);
                }
            });
            pmem::thread::register(0, 0);
            for _ in 0..20 {
                let seen: Vec<u64> = l.iter().map(|(k, _)| k).collect();
                // All pre-existing keys must be observed; new ones may or
                // may not be, but never out of order within a node walk.
                for k in 1..=200u64 {
                    assert!(seen.contains(&k), "pre-existing key {k} missed");
                }
            }
            writer.join().unwrap();
        });
    }
}
