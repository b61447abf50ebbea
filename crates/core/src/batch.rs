//! Batched operations.
//!
//! A batch sorts its keys once and processes them in ascending order for
//! locality: consecutive operations land on the same or neighbouring
//! nodes, whose header and key lines the previous operation just pulled
//! in, and a run of inserts fills one node and splits it before moving on
//! instead of scattering splits — and the shadow-region refreshes each
//! split triggers — across the whole list. The service loads its shards
//! through `insert_batch`, and that load measured about 1.5× slower in
//! input order.
//!
//! Semantics: each batch is equivalent to applying the operations one at a
//! time in **input order** (duplicate keys within a batch are resolved by
//! stable sorting, so ties keep their input order), and each individual
//! operation is linearizable exactly as its single-key counterpart — a
//! batch as a whole is *not* atomic. Results are returned in input order.

use crate::list::UpSkipList;

/// Stable permutation that visits `keys` in ascending order (ties in input
/// order).
fn ascending_order(keys: impl Iterator<Item = u64>) -> Vec<usize> {
    let keys: Vec<u64> = keys.collect();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    order
}

impl UpSkipList {
    /// Look up every key in `keys`. Returns the values in input order
    /// (`None` for absent keys). Equivalent to calling [`UpSkipList::get`]
    /// per key, but keys are visited in ascending order so consecutive
    /// lookups land on neighbouring nodes.
    pub fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = vec![None; keys.len()];
        for i in ascending_order(keys.iter().copied()) {
            out[i] = self.get(keys[i]);
        }
        out
    }

    /// Insert every `(key, value)` pair. Returns the previous values in
    /// input order. Duplicate keys within the batch apply in input order
    /// (the last pair wins, earlier pairs see their predecessors' values).
    pub fn insert_batch(&self, pairs: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut out = vec![None; pairs.len()];
        for i in ascending_order(pairs.iter().map(|&(k, _)| k)) {
            let (k, v) = pairs[i];
            out[i] = self.insert(k, v);
        }
        out
    }

    /// Remove every key in `keys`. Returns the removed values in input
    /// order. A key appearing twice is removed once; the later occurrence
    /// reports `None`.
    pub fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = vec![None; keys.len()];
        for i in ascending_order(keys.iter().copied()) {
            out[i] = self.remove(keys[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ListConfig;
    use crate::list::ListBuilder;

    fn small_list() -> std::sync::Arc<crate::list::UpSkipList> {
        ListBuilder {
            list: ListConfig::new(8, 4),
            ..ListBuilder::default()
        }
        .create()
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        let l = small_list();
        let pairs: Vec<(u64, u64)> = vec![(50, 500), (10, 100), (30, 300), (20, 200)];
        assert_eq!(l.insert_batch(&pairs), vec![None; 4]);
        assert_eq!(
            l.get_batch(&[30, 99, 10, 50]),
            vec![Some(300), None, Some(100), Some(500)]
        );
        assert_eq!(
            l.remove_batch(&[10, 20, 10]),
            vec![Some(100), Some(200), None],
            "second removal of 10 must observe the first"
        );
        assert_eq!(l.get(10), None);
        assert_eq!(l.get(30), Some(300));
        l.check_invariants();
    }

    #[test]
    fn duplicate_inserts_in_one_batch_apply_in_input_order() {
        let l = small_list();
        let prev = l.insert_batch(&[(7, 70), (7, 71), (7, 72)]);
        assert_eq!(prev, vec![None, Some(70), Some(71)]);
        assert_eq!(l.get(7), Some(72), "last duplicate wins");
        l.check_invariants();
    }

    #[test]
    fn large_batch_matches_single_ops() {
        let l = small_list();
        let pairs: Vec<(u64, u64)> = (1..=300u64).rev().map(|k| (k, k * 2)).collect();
        l.insert_batch(&pairs);
        let keys: Vec<u64> = (1..=300).collect();
        let got = l.get_batch(&keys);
        for (k, v) in keys.iter().zip(got) {
            assert_eq!(v, Some(k * 2));
        }
        // Remove the odd keys in one batch; evens must survive.
        let odds: Vec<u64> = (1..=300).filter(|k| k % 2 == 1).collect();
        let removed = l.remove_batch(&odds);
        assert!(removed.iter().all(|r| r.is_some()));
        for k in 1..=300u64 {
            assert_eq!(l.get(k), if k % 2 == 0 { Some(k * 2) } else { None });
        }
        l.check_invariants();
    }

    #[test]
    fn empty_batches_are_noops() {
        let l = small_list();
        assert!(l.get_batch(&[]).is_empty());
        assert!(l.insert_batch(&[]).is_empty());
        assert!(l.remove_batch(&[]).is_empty());
    }
}
