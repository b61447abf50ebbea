//! Traversal fast path: single-key descents and batched lookups at several
//! batch sizes, on the un-shadowed persistent descent. Complements the
//! `traversal` binary (which also reports pmem reads per op) with
//! criterion-grade timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

const RECORDS: u64 = 100_000;

fn loaded_list(shadow: bool) -> std::sync::Arc<upskiplist::UpSkipList> {
    let d = bench::Deployment::simple(RECORDS);
    let list = bench::build_upskiplist(
        &d,
        bench::UpSkipListOpts {
            keys_per_node: 256,
            shadow,
            ..Default::default()
        },
    );
    for i in 0..RECORDS {
        list.insert(ycsb::key_of(i), i + 1);
    }
    list
}

fn bench_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("traversal");
    group.sample_size(20);

    let list = loaded_list(false);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    group.bench_function("get", |b| {
        b.iter(|| {
            let k = ycsb::key_of(rng.gen_range(0..RECORDS));
            std::hint::black_box(list.get(k))
        })
    });

    for batch in [8usize, 32, 128] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        group.bench_with_input(BenchmarkId::new("get_batch", batch), &list, |b, l| {
            b.iter(|| {
                let keys: Vec<u64> = (0..batch)
                    .map(|_| ycsb::key_of(rng.gen_range(0..RECORDS)))
                    .collect();
                std::hint::black_box(l.get_batch(&keys))
            })
        });
    }
    group.finish();
}

/// Shadow on vs off, single gets and batches: the timing counterpart to
/// the `traversal` binary's reads/op comparison.
fn bench_shadow_descent(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow_descent");
    group.sample_size(20);

    for (name, shadow) in [("off", false), ("on", true)] {
        let list = loaded_list(shadow);
        // One warm pass so the lazy rebuild happens outside the timer.
        list.get(ycsb::key_of(0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        group.bench_with_input(BenchmarkId::new("get", name), &list, |b, l| {
            b.iter(|| {
                let k = ycsb::key_of(rng.gen_range(0..RECORDS));
                std::hint::black_box(l.get(k))
            })
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        group.bench_with_input(BenchmarkId::new("get_batch_128", name), &list, |b, l| {
            b.iter(|| {
                let keys: Vec<u64> = (0..128)
                    .map(|_| ycsb::key_of(rng.gen_range(0..RECORDS)))
                    .collect();
                std::hint::black_box(l.get_batch(&keys))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_traversal, bench_shadow_descent);
criterion_main!(benches);
