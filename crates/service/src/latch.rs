//! Per-shard key-range latch manager.
//!
//! Multi-key requests (and coalesced single-key write groups) acquire an
//! exclusive latch over the set of key ranges they touch before hitting
//! the storage layer, in the latch-manager/concurrency-manager style of
//! the KV-store stacks this layer is modeled on. The protocol is
//! deliberately simple:
//!
//! * **All-or-nothing acquisition.** A request's whole range set is
//!   acquired atomically under one mutex, or the request waits — a waiter
//!   never holds a partial set, so there is no hold-and-wait and therefore
//!   no deadlock, regardless of acquisition order across requests.
//! * **Exclusive only.** Every latch conflicts with every overlapping
//!   latch. Read-side multi-key requests take the same latches, which is
//!   what makes them atomic observers of multi-key writes.
//! * **Ranges are inclusive** `[lo, hi]` and normalized on entry (sorted,
//!   overlapping/adjacent ranges merged), so the conflict scan is a merge
//!   over two sorted lists.
//!
//! Latches are volatile: they protect in-flight requests, not persistent
//! state, and simply evaporate on a crash (nothing to recover).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// An inclusive key range `[lo, hi]`.
pub type Range = (u64, u64);

/// Normalize a range set: sort by `lo`, merge overlapping or adjacent
/// ranges. Panics on an inverted range.
pub fn normalize(ranges: &[Range]) -> Vec<Range> {
    let mut v: Vec<Range> = ranges.to_vec();
    for &(lo, hi) in &v {
        assert!(lo <= hi, "inverted latch range [{lo}, {hi}]");
    }
    v.sort_unstable();
    let mut out: Vec<Range> = Vec::with_capacity(v.len());
    for (lo, hi) in v {
        match out.last_mut() {
            // Merge when overlapping or adjacent (hi + 1 == lo).
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Point latches for a key set (the common case: multi-key requests latch
/// exactly the keys they touch).
pub fn point_ranges(keys: impl IntoIterator<Item = u64>) -> Vec<Range> {
    normalize(&keys.into_iter().map(|k| (k, k)).collect::<Vec<_>>())
}

fn overlaps(a: &[Range], b: &[Range]) -> bool {
    // Both sides sorted and internally disjoint: one merge pass.
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (alo, ahi) = a[i];
        let (blo, bhi) = b[j];
        if ahi < blo {
            i += 1;
        } else if bhi < alo {
            j += 1;
        } else {
            return true;
        }
    }
    false
}

#[derive(Default)]
struct Table {
    /// Held range sets, keyed by owner id. Small (bounded by in-flight
    /// requests per shard), so a Vec scan beats a tree.
    held: Vec<(u64, Vec<Range>)>,
    next_id: u64,
}

/// The latch manager. One per shard.
#[derive(Default)]
pub struct LatchManager {
    table: Mutex<Table>,
    released: Condvar,
    waits: AtomicU64,
}

impl LatchManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Times an acquisition found a conflicting holder and had to wait.
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Count a wait without one, for tests of the code that mirrors
    /// [`LatchManager::waits`].
    #[cfg(test)]
    pub(crate) fn count_wait(&self) {
        self.waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of every held range, for tests and debugging.
    pub fn held_ranges(&self) -> Vec<Range> {
        let t = self.table.lock().unwrap();
        t.held
            .iter()
            .flat_map(|(_, rs)| rs.iter().copied())
            .collect()
    }

    /// Acquire an exclusive latch over `ranges`, waiting for conflicting
    /// holders to release. The whole set is acquired atomically.
    pub fn acquire(&self, ranges: &[Range]) -> LatchGuard<'_> {
        let want = normalize(ranges);
        let mut t = self.table.lock().unwrap();
        let mut waited = false;
        while t.held.iter().any(|(_, held)| overlaps(held, &want)) {
            if !waited {
                self.waits.fetch_add(1, Ordering::Relaxed);
                waited = true;
            }
            t = self.released.wait(t).unwrap();
        }
        let id = t.next_id;
        t.next_id += 1;
        t.held.push((id, want));
        LatchGuard { mgr: self, id }
    }

    /// Non-blocking [`LatchManager::acquire`]: `None` when any range
    /// conflicts with a held latch.
    pub fn try_acquire(&self, ranges: &[Range]) -> Option<LatchGuard<'_>> {
        let want = normalize(ranges);
        let mut t = self.table.lock().unwrap();
        if t.held.iter().any(|(_, held)| overlaps(held, &want)) {
            return None;
        }
        let id = t.next_id;
        t.next_id += 1;
        t.held.push((id, want));
        Some(LatchGuard { mgr: self, id })
    }

    fn release(&self, id: u64) {
        let mut t = self.table.lock().unwrap();
        t.held.retain(|(owner, _)| *owner != id);
        // Wake every waiter: disjoint waiters can all proceed, and the
        // conflict re-check under the mutex keeps the rest waiting.
        self.released.notify_all();
    }
}

impl std::fmt::Debug for LatchManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatchManager(held: {:?})", self.held_ranges())
    }
}

/// Releases its ranges (and wakes waiters) on drop.
pub struct LatchGuard<'a> {
    mgr: &'a LatchManager,
    id: u64,
}

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        self.mgr.release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn normalize_sorts_and_merges() {
        assert_eq!(
            normalize(&[(10, 20), (1, 5), (15, 30), (6, 6)]),
            vec![(1, 6), (10, 30)],
            "adjacent [1,5]+[6,6] merge; overlapping [10,20]+[15,30] merge"
        );
        assert_eq!(point_ranges([7, 3, 7, 4]), vec![(3, 4), (7, 7)]);
        assert_eq!(normalize(&[]), Vec::<Range>::new());
    }

    #[test]
    #[should_panic(expected = "inverted latch range")]
    fn inverted_range_is_rejected() {
        normalize(&[(5, 1)]);
    }

    #[test]
    fn overlap_conflicts_and_disjoint_coexistence() {
        let m = LatchManager::new();
        let g = m.acquire(&[(5, 10), (20, 30)]);
        // Inclusive ends on both sides conflict.
        assert!(m.try_acquire(&[(10, 12)]).is_none());
        assert!(m.try_acquire(&[(0, 5)]).is_none());
        assert!(m.try_acquire(&[(15, 19), (31, 40)]).is_some());
        assert!(m.try_acquire(&[(11, 19)]).is_some());
        drop(g);
        assert!(m.try_acquire(&[(10, 12)]).is_some());
    }

    #[test]
    fn release_wakes_blocked_waiter() {
        let m = Arc::new(LatchManager::new());
        let g = m.acquire(&[(1, 100)]);
        let order = Arc::new(AtomicUsize::new(0));
        let h = {
            let (m, order) = (Arc::clone(&m), Arc::clone(&order));
            std::thread::spawn(move || {
                let _g = m.acquire(&[(50, 60)]);
                order.fetch_add(1, Ordering::SeqCst)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(order.load(Ordering::SeqCst), 0, "waiter must be blocked");
        assert_eq!(m.waits(), 1);
        drop(g);
        h.join().unwrap();
        assert_eq!(order.load(Ordering::SeqCst), 1);
        assert!(m.held_ranges().is_empty());
    }

    #[test]
    fn release_order_lets_every_waiter_through() {
        // Two waiters blocked on the same holder, disjoint from each
        // other: one release must let both finish (notify_all + re-check).
        let m = Arc::new(LatchManager::new());
        let g = m.acquire(&[(0, 100)]);
        let done = Arc::new(AtomicUsize::new(0));
        let spawn = |lo: u64, hi: u64| {
            let (m, done) = (Arc::clone(&m), Arc::clone(&done));
            std::thread::spawn(move || {
                let _g = m.acquire(&[(lo, hi)]);
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        let h1 = spawn(10, 20);
        let h2 = spawn(30, 40);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(done.load(Ordering::SeqCst), 0);
        drop(g);
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }
}
