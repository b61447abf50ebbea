//! Ablation A3 — streamed vs per-word node scans (§4.4): the thesis's
//! multi-key nodes are only viable because scanning a node's key array is
//! a sequential, prefetch-friendly access pattern ("hardware fetching the
//! additional cache lines when a sequential scan is detected"). This
//! bench compares scanning 256 keys with the cache-line-granular
//! `read_slice` against 256 individual word reads under the PMEM latency
//! model, which is the cost difference the design exploits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmem::pool::PoolConfig;
use pmem::{CrashController, LatencyModel, Pool};
use std::sync::Arc;

fn bench_scan(c: &mut Criterion) {
    let mut cfg = PoolConfig::simple(1 << 16);
    cfg.latency = LatencyModel::pmem_default();
    cfg.obs = pmem::ObsLevel::Off;
    let pool = Pool::new(cfg, Arc::new(CrashController::new()));
    for w in 0..512u64 {
        pool.write(w, w * 3 + 1);
    }
    let mut group = c.benchmark_group("scan_mode");
    for keys in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("streamed", keys), &keys, |b, &n| {
            let mut buf = vec![0u64; n];
            b.iter(|| {
                pool.read_slice(0, &mut buf);
                std::hint::black_box(buf.iter().position(|&x| x == u64::MAX))
            })
        });
        group.bench_with_input(BenchmarkId::new("per_word", keys), &keys, |b, &n| {
            b.iter(|| {
                let mut found = None;
                for i in 0..n as u64 {
                    if pool.read(i) == u64::MAX {
                        found = Some(i);
                        break;
                    }
                }
                std::hint::black_box(found)
            })
        });
    }
    group.finish();
}

/// The full-structure version of A3: warm lookups at the paper's 256
/// keys/node, after split churn has produced a realistic mix of dense
/// (fresh) and holey (split) nodes. The in-node search is tag-steered, so
/// this is the cost the streamed scan above is *not* paid at.
fn bench_node_search(c: &mut Criterion) {
    use rand::{Rng, SeedableRng};
    let records = 20_000u64;
    let list = upskiplist::ListBuilder {
        list: upskiplist::ListConfig::new(10, 256),
        pool_words: 1 << 23,
        obs: pmem::ObsLevel::Off,
        latency: pmem::LatencyModel::pmem_default(),
        ..upskiplist::ListBuilder::default()
    }
    .create();
    for i in 0..records {
        list.insert(ycsb::key_of(i), i + 1);
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("node_search");
    group.sample_size(20);
    group.bench_function("warm_get_256", |b| {
        b.iter(|| {
            let k = ycsb::key_of(rng.gen_range(0..records));
            std::hint::black_box(list.get(k))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scan, bench_node_search);
criterion_main!(benches);
