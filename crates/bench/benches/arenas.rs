//! Ablation A4 — allocator arena count (§4.3.3): threads map to per-pool
//! free lists by `thread_id % num_arenas`; more arenas means less
//! contention on the lock-free head/tail CAS but more chunk
//! over-provisioning. Measured as contended allocate/free pairs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmalloc::{AllocConfig, Allocator, NoNav, PoolLayout};
use pmem::{CrashController, Pool};
use riv::RivSpace;
use std::sync::Arc;

fn build(num_arenas: usize, magazine: usize) -> Arc<Allocator> {
    let cfg = AllocConfig {
        block_words: 64,
        blocks_per_chunk: 256,
        num_arenas,
        max_chunks: 1024,
        root_words: 64,
        magazine,
    };
    let layout = PoolLayout::for_config(&cfg);
    let words = layout.required_pool_words(&cfg, 512);
    let pool = Pool::new(
        pmem::pool::PoolConfig::simple(words),
        Arc::new(CrashController::new()),
    );
    let space = Arc::new(RivSpace::new(
        vec![pool],
        layout.chunk_table_off,
        cfg.max_chunks,
    ));
    let a = Allocator::new(space, cfg);
    a.format(1);
    Arc::new(a)
}

fn bench_arenas(c: &mut Criterion) {
    let mut group = c.benchmark_group("arenas");
    group.sample_size(10);
    for num_arenas in [1usize, 2, 8] {
        let alloc = build(num_arenas, 1);
        // Contended alloc/free pairs across 4 threads.
        group.bench_with_input(
            BenchmarkId::new("contended_alloc_free", num_arenas),
            &alloc,
            |b, alloc| {
                b.iter_custom(|iters| {
                    let threads = 4;
                    let per = iters.div_ceil(threads as u64);
                    let t0 = std::time::Instant::now();
                    std::thread::scope(|s| {
                        for t in 0..threads {
                            let alloc = Arc::clone(alloc);
                            s.spawn(move || {
                                pmem::thread::register(t, 0);
                                for i in 0..per {
                                    let b = alloc.alloc(1, 0, riv::RivPtr::NULL, i + 1, &NoNav);
                                    alloc.free(1, 0, b);
                                }
                            });
                        }
                    });
                    t0.elapsed()
                })
            },
        );
    }
    group.finish();
}

/// Lease size ablation: the same contended alloc/free-pair traffic with
/// one-block leases (one persisted log per pop, the thesis's protocol) vs
/// 8-block leases (one lease log per 8 pops, frees batched through the
/// outbox).
fn bench_magazine(c: &mut Criterion) {
    let mut group = c.benchmark_group("magazine");
    group.sample_size(10);
    for magazine in [1usize, 8] {
        let alloc = build(8, magazine);
        group.bench_with_input(
            BenchmarkId::new("contended_alloc_free", magazine),
            &alloc,
            |b, alloc| {
                b.iter_custom(|iters| {
                    let threads = 4;
                    let per = iters.div_ceil(threads as u64);
                    let t0 = std::time::Instant::now();
                    std::thread::scope(|s| {
                        for t in 0..threads {
                            let alloc = Arc::clone(alloc);
                            s.spawn(move || {
                                pmem::thread::register(t, 0);
                                for i in 0..per {
                                    let b = alloc.alloc(1, 0, riv::RivPtr::NULL, i + 1, &NoNav);
                                    alloc.free_deferred(1, 0, b);
                                }
                                alloc.drain_thread_cache(1);
                            });
                        }
                    });
                    t0.elapsed()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_arenas, bench_magazine);
criterion_main!(benches);
