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
use crate::traverse::Descent;

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
    /// Pairs still wanted: what is left of `scan`'s limit, unbounded for
    /// `iter` and `range`.
    want: usize,
    buffer: Vec<(u64, u64)>,
    idx: usize,
}

impl UpSkipList {
    /// Iterate over all live pairs. Weakly consistent: each node is read
    /// atomically (validated against concurrent splits); keys come strictly
    /// ascending, each once, even when pairs move between nodes meanwhile.
    pub fn iter(&self) -> Iter<'_> {
        self.walk(self.head, KEY_NULL, None, usize::MAX)
    }

    /// As [`UpSkipList::iter`], from the first live key ≥ `from`.
    pub fn iter_from(&self, from: u64) -> Iter<'_> {
        self.walk_from(from, None, usize::MAX)
    }

    /// YCSB-style scan: up to `limit` live pairs with keys ≥ `from`,
    /// ascending (workload E's operation).
    pub fn scan(&self, from: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(limit);
        out.extend(self.walk_from(from, None, limit));
        out
    }

    /// The walk over `[lo, hi]` yielding at most `want` pairs, started
    /// where the descent for `lo` lands.
    pub(crate) fn walk_from(&self, lo: u64, hi: Option<u64>, want: usize) -> Iter<'_> {
        let start = self.traverse(lo.max(MIN_USER_KEY), Descent::Read).landing();
        self.walk(start, lo, hi, want)
    }

    fn walk(&self, node: RivPtr, floor: u64, hi: Option<u64>, want: usize) -> Iter<'_> {
        Iter {
            list: self,
            node,
            floor,
            hi,
            want,
            buffer: Vec::new(),
            idx: 0,
        }
    }

    /// Validated snapshot of one node's live pairs with keys ≥ `floor`, the
    /// `want` smallest of them, sorted, into `pairs` (cleared first). The
    /// key and value arrays are streamed into per-thread buffers, so a scan
    /// allocates nothing per node visited.
    fn snapshot_node(&self, node: RivPtr, floor: u64, want: usize, pairs: &mut Vec<(u64, u64)>) {
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
                live.filter(|&(&k, &v)| k != KEY_NULL && k >= floor && v != TOMBSTONE)
                    .map(|(&k, &v)| (k, v)),
            );
        });
        // Keys are unordered inside a node (§4.4), so whatever is returned
        // must be sorted — but only that. Dropping the larger pairs is safe
        // because the walk never leaves a node it truncated: a validated
        // snapshot holds each key once, every kept pair is ≥ `floor` and so
        // is yielded, and the `want`-th yield ends the walk in this node.
        if want < pairs.len() {
            pairs.select_nth_unstable(want);
            pairs.truncate(want);
        }
        pairs.sort_unstable();
    }
}

impl Iterator for Iter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            if let Some(&(k, v)) = self.buffer.get(self.idx) {
                self.idx += 1;
                if self.hi.is_some_and(|hi| k > hi) {
                    self.node = self.list.tail; // sorted: nothing more is wanted
                    return None;
                }
                // The snapshot held only keys ≥ the floor, ascending.
                self.floor = k + 1;
                self.want -= 1;
                return Some((k, v));
            }
            if self.want == 0
                || self.node == self.list.tail
                || self.hi.is_some_and(|hi| self.list.key0(self.node) > hi)
            {
                return None;
            }
            // The head (a start below every key) holds no pairs: step past.
            if self.node != self.list.head {
                self.list
                    .snapshot_node(self.node, self.floor, self.want, &mut self.buffer);
                self.idx = 0;
            }
            self.node = self.list.next(self.node, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use crate::{ListBuilder, ListConfig, UpSkipList};

    /// Multiples of 3 in a scattered insert order (so nodes split), every
    /// seventh removed again (so nodes hold tombstones), mirrored in a map.
    fn loaded(kpn: usize) -> (std::sync::Arc<UpSkipList>, BTreeMap<u64, u64>) {
        let l = ListBuilder {
            list: ListConfig::new(10, kpn),
            ..ListBuilder::default()
        }
        .create();
        let mut oracle = BTreeMap::new();
        let n = kpn as u64 * 12;
        for i in 0..n {
            let k = 3 * (1 + (i * 7_919) % n);
            l.insert(k, k + 1);
            oracle.insert(k, k + 1);
        }
        for k in (21..=3 * n).step_by(21) {
            l.remove(k);
            oracle.remove(&k);
        }
        (l, oracle)
    }

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

    #[test]
    fn scan_matches_a_btreemap_for_every_limit_and_start() {
        for kpn in [16usize, 256] {
            let (l, oracle) = loaded(kpn);
            let max = *oracle.keys().last().unwrap();
            let limits = [1, 7, kpn / 2, kpn, oracle.len() + 10];
            // Starts on each node's first key, just past it, and on the
            // last key the node can hold: short scans end in the landing
            // node, longer ones in the next; then the list's ends.
            let mut froms = vec![0, 1, max, max + 1, max + 1000];
            let mut node = l.next(l.head(), 0);
            while node != l.tail() {
                let succ = l.next(node, 0);
                let k0 = l.key0(node);
                froms.extend([k0, k0 + 1, l.key0(succ).min(max + 2) - 1]);
                node = succ;
            }
            assert!(l.node_count() > 8, "{kpn} keys/node: too few nodes");
            for &from in &froms {
                for &limit in &limits {
                    let want: Vec<(u64, u64)> = oracle
                        .range(from..)
                        .take(limit)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(
                        l.scan(from, limit),
                        want,
                        "{kpn} keys/node: scan({from}, {limit})"
                    );
                }
            }
            assert!(l.scan(max + 1, 5).is_empty());
            assert!(l.scan(1, 0).is_empty());
        }
    }

    #[test]
    fn short_scans_under_concurrent_splits_are_ascending_and_complete() {
        for kpn in [16usize, 256] {
            let l = ListBuilder {
                list: ListConfig::new(10, kpn),
                ..ListBuilder::default()
            }
            .create();
            // Pre-existing keys are the multiples of 4; the writer fills
            // the gaps in a scattered order, splitting the nodes the
            // readers scan.
            let n = kpn as u64 * 16;
            for k in (4..=n).step_by(4) {
                l.insert(k, 1);
            }
            let limit = kpn / 4 + 1; // below any node's occupancy
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    pmem::thread::register(1, 0);
                    for i in 0..n {
                        let k = 1 + (i * 337) % n;
                        if !k.is_multiple_of(4) {
                            l.insert(k, 1);
                        }
                    }
                    done.store(true, std::sync::atomic::Ordering::Release);
                });
                pmem::thread::register(0, 0);
                let mut x = 0x9E37_79B9u64;
                let mut rounds = 0;
                while rounds < 200 || !done.load(std::sync::atomic::Ordering::Acquire) {
                    rounds += 1;
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let from = 1 + (x >> 33) % n;
                    let got: Vec<u64> = l.scan(from, limit).iter().map(|&(k, _)| k).collect();
                    assert!(
                        got.windows(2).all(|w| w[0] < w[1]),
                        "{kpn} keys/node: scan({from}, {limit}) not strictly ascending: {got:?}"
                    );
                    assert!(got.first().is_none_or(|&k| k >= from));
                    // Every pre-existing key up to the last one returned —
                    // or to the end, when the scan came back short.
                    let last = if got.len() == limit {
                        *got.last().unwrap()
                    } else {
                        n
                    };
                    for k in (from.div_ceil(4) * 4..=last).step_by(4) {
                        assert!(
                            got.binary_search(&k).is_ok(),
                            "{kpn} keys/node: scan({from}, {limit}) missed key {k}: {got:?}"
                        );
                    }
                }
            });
            l.check_invariants();
        }
    }
}
