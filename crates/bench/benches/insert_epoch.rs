//! insert_epoch — latency of the prepare-then-publish insert path.
//!
//! At `keys_per_node = 1` every insert allocates a fresh node and goes
//! through the flush epoch: prepare writes queue their CLWBs, one
//! coalesced sweep fence runs immediately before the publish CAS, and the
//! lease log adds a second fence only on magazine misses. Three shapes:
//!
//! * `fresh_insert` — a batch of fresh-node inserts with one trailing
//!   `sync()` ack (buffered durability, the throughput configuration);
//! * `fresh_insert_sync_each` — `sync()` after every insert (strict
//!   per-op durability, the E12/lincheck ack discipline);
//! * `update_in_place` — value overwrite of an existing key (the eager
//!   non-epoch path, for comparison).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::sync::Arc;
use upskiplist::UpSkipList;

const BATCH: u64 = 2_000;

/// splitmix64 — deterministic key shuffle without the rand crate.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fresh_list() -> Arc<UpSkipList> {
    let d = bench::Deployment::simple(4 * BATCH);
    bench::build_upskiplist(
        &d,
        bench::UpSkipListOpts {
            keys_per_node: 1,
            ..bench::UpSkipListOpts::default()
        },
    )
}

fn bench_insert_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_epoch");
    group.sample_size(20);
    group.throughput(Throughput::Elements(BATCH));

    group.bench_function("fresh_insert", |b| {
        b.iter_batched_ref(
            fresh_list,
            |list| {
                for i in 0..BATCH {
                    list.insert(mix64(i + 1) | 1, i);
                }
                list.sync();
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("fresh_insert_sync_each", |b| {
        b.iter_batched_ref(
            fresh_list,
            |list| {
                for i in 0..BATCH {
                    list.insert(mix64(i + 1) | 1, i);
                    list.sync();
                }
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("update_in_place", |b| {
        b.iter_batched_ref(
            || {
                let d = bench::Deployment::simple(4 * BATCH);
                let list = bench::build_upskiplist(&d, bench::UpSkipListOpts::keys_per_node(64));
                for i in 0..BATCH {
                    list.insert(mix64(i + 1) | 1, i);
                }
                list.sync();
                list
            },
            |list| {
                for i in 0..BATCH {
                    list.insert(mix64(i + 1) | 1, i + 1);
                }
                list.sync();
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_insert_epoch);
criterion_main!(benches);
