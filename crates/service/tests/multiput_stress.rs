//! Concurrent stress proving the acceptance property of multi-key
//! writes: a `MultiPut` spanning shard boundaries is atomic *per shard*.
//! The source of that atomicity is the shard's single executor: its one
//! worker runs each drained request's slice with no other request of the
//! shard in between.
//!
//! Writers repeatedly `MultiPut` the same fixed key set (which hashes
//! across all shards), stamping every key with the same writer-unique
//! value. Readers concurrently `MultiGet` the full set. If per-shard
//! atomicity were broken, a reader would observe two different stamps
//! *within one shard's slice* of its response — i.e. a torn multi-put. Across shards tearing is expected and allowed
//! (the API contract is per-shard atomicity), which is exactly what the
//! invariant below distinguishes.

use std::sync::Arc;

use service::{KvService, Request, Response, ServiceConfig, ShardSpec};
use upskiplist::{ListBuilder, UpSkipList};

fn mini_list(node: u16) -> Arc<UpSkipList> {
    ListBuilder {
        pool_words: 1 << 20,
        home_node: node,
        ..ListBuilder::default()
    }
    .create()
}

#[test]
fn multiput_is_atomic_per_shard_under_contention() {
    const SHARDS: usize = 4;
    const WRITERS: u64 = 4;
    const READERS: usize = 2;
    const ROUNDS: u64 = 150;

    let specs = (0..SHARDS)
        .map(|i| ShardSpec {
            list: mini_list(i as u16 % 4),
            node: i as u16 % 4,
        })
        .collect();
    let svc = KvService::start(
        specs,
        ServiceConfig {
            max_batch: 16,
            queue_cap: 1024,
            ..ServiceConfig::default()
        },
    );

    // A fixed key set spanning every shard.
    let keys: Vec<u64> = (1..=32u64).collect();
    let shard_of: Vec<usize> = keys.iter().map(|&k| svc.shard_of(k)).collect();
    {
        let distinct: std::collections::HashSet<usize> = shard_of.iter().copied().collect();
        assert_eq!(distinct.len(), SHARDS, "key set must span all shards");
    }

    // Seed every key so reads always observe some stamp.
    svc.submit(Request::MultiPut(keys.iter().map(|&k| (k, 1)).collect()))
        .wait();

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let svc = Arc::clone(&svc);
            let keys = keys.clone();
            s.spawn(move || {
                for round in 0..ROUNDS {
                    // Stamp: writer tag in the high part, round below —
                    // unique per (writer, round).
                    let stamp = (w + 2) * 1_000_000 + round;
                    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, stamp)).collect();
                    svc.submit(Request::MultiPut(pairs)).wait();
                }
            });
        }
        for r in 0..READERS {
            let svc = Arc::clone(&svc);
            let keys = keys.clone();
            let shard_of = shard_of.clone();
            s.spawn(move || {
                for _ in 0..ROUNDS * 2 {
                    let vals = match svc.submit(Request::MultiGet(keys.clone())).wait() {
                        Response::Values(v) => v,
                        resp => panic!("reader {r}: unexpected response {resp:?}"),
                    };
                    // Per-shard atomicity: within one MultiGet response,
                    // all keys living on the same shard must carry the
                    // same stamp (the shard's worker runs the MultiGet
                    // slice between two whole multi-put slices, never
                    // inside one).
                    for shard in 0..SHARDS {
                        let stamps: std::collections::HashSet<u64> = vals
                            .iter()
                            .zip(&shard_of)
                            .filter(|&(_, &s)| s == shard)
                            .map(|(v, _)| v.expect("seeded key missing"))
                            .collect();
                        assert_eq!(
                            stamps.len(),
                            1,
                            "torn multi-put on shard {shard}: observed stamps {stamps:?}"
                        );
                    }
                }
            });
        }
    });

    svc.shutdown();
    let snap = svc.registry().snapshot();
    let multi: u64 = snap.counter("svc.req.multi_put") + snap.counter("svc.req.multi_get");
    assert_eq!(multi, WRITERS * ROUNDS + READERS as u64 * ROUNDS * 2 + 1);
}
