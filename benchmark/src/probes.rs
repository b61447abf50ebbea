//! Single-thread micro-probes of the bottom layers, run once per traced
//! run: what one `pmem` access, one pointer-resolved `riv` read and one
//! `pmalloc` alloc/free cost under the cost model the workloads use, and
//! what the harness's own floor is with that model zeroed.

use std::hint::black_box;
use std::sync::Arc;

use pmem::pool::PoolConfig;
use pmem::{CrashController, LatencyModel, ObsLevel, PersistenceMode, Pool};
use riv::RivPtr;

use crate::deploy::{self, ListSpec};
use crate::span::now_ns;

/// 64 MiB.
const POOL_WORDS: u64 = 1 << 23;
const LINES: u64 = POOL_WORDS / pmem::CACHE_LINE_WORDS;
const SLICE_LINES: u64 = 32;
const FREED_BLOCKS: u64 = 2048;

/// Word offset of the `i`-th line visited: an odd multiplier walks every
/// line of the power-of-two pool once, in a scattered order.
fn line_off(i: u64) -> u64 {
    (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % LINES) * pmem::CACHE_LINE_WORDS
}

/// Nanoseconds per iteration of `f(i)`.
fn per_iter(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = now_ns();
    for i in 0..n {
        f(i);
    }
    (now_ns() - t0) as f64 / n as f64
}

fn pool(latency: LatencyModel) -> Arc<Pool> {
    Pool::new(
        PoolConfig {
            latency,
            obs: ObsLevel::Off,
            ..PoolConfig::simple(POOL_WORDS)
        },
        Arc::new(CrashController::new()),
    )
}

struct PmemCosts {
    read: f64,
    read_slice_line: f64,
    write: f64,
    cas: f64,
    flush: f64,
    persist: f64,
}

fn pmem_costs(latency: LatencyModel, n: u64) -> PmemCosts {
    let p = pool(latency);
    // First, on the still-zero pool, so every CAS finds what it expects.
    let cas = per_iter(n, |i| {
        black_box(p.cas(line_off(i), 0, 1)).expect("fresh line");
    });
    let write = per_iter(n, |i| p.write(line_off(i), i));
    let read = per_iter(n, |i| {
        black_box(p.read(line_off(i)));
    });
    let mut buf = [0u64; (SLICE_LINES * pmem::CACHE_LINE_WORDS) as usize];
    let slices = n / SLICE_LINES;
    let read_slice_line = per_iter(slices, |i| {
        let off = line_off(i).min(POOL_WORDS - buf.len() as u64);
        p.read_slice(off, &mut buf);
        black_box(&buf);
    }) / SLICE_LINES as f64;
    // CLWB alone: 64 dirty lines flushed back to back, fenced off the clock.
    let mut flush_ns = 0u64;
    let batches = n / 64 / 4;
    for b in 0..batches {
        for i in 0..64 {
            p.write(line_off(b * 64 + i), b);
        }
        let t0 = now_ns();
        for i in 0..64 {
            p.flush(line_off(b * 64 + i));
        }
        flush_ns += now_ns() - t0;
        pmem::sfence();
    }
    // The `Persist` primitive (flush + fence of one line), net of the
    // write that dirtied the line.
    let persist = per_iter(n / 4, |i| {
        let off = line_off(i);
        p.write(off, i);
        p.persist(off, 1);
    }) - write;
    PmemCosts {
        read,
        read_slice_line,
        write,
        cas,
        flush: flush_ns as f64 / (batches * 64) as f64,
        persist,
    }
}

struct AllocCosts {
    alloc_ns: f64,
    free_ns: f64,
    riv_read_ns: f64,
    fences_per_alloc: f64,
    flushes_per_alloc: f64,
}

/// Allocate `n` blocks and free some through a list's allocator (a list rather
/// than a hand-built `Allocator`, so block size and allocator settings are
/// whatever the deployment under test uses). The counts need `traced`, the
/// times want it off.
fn alloc_costs(n: u64, traced: bool) -> AllocCosts {
    let list = deploy::build_list(
        &ListSpec {
            records: 100_000,
            keys_per_node: 16,
            pool_words: POOL_WORDS,
            mode: PersistenceMode::Fast,
        },
        traced,
    );
    let (alloc, epoch) = (list.allocator(), list.epoch());
    let before = list.space().stats_snapshot();
    let mut blocks: Vec<RivPtr> = Vec::with_capacity(n as usize);
    let alloc_ns = per_iter(n, |i| {
        blocks.push(alloc.alloc(epoch, 0, RivPtr::NULL, i + 1, &*list))
    });
    let used = list.space().stats_snapshot().since(&before);
    // A pointer-resolved read of each block, scattered like the pool probe.
    let riv_read_ns = per_iter(n, |i| {
        let block = blocks[(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % n) as usize];
        black_box(list.space().read(block.add(8)));
    });
    // The eager `free` walks the arena's free list to its tail, so its
    // cost grows with the blocks already freed; the probe frees a fixed
    // few onto the emptied arena and reports their mean.
    let free_ns = per_iter(FREED_BLOCKS.min(n), |i| {
        alloc.free(epoch, 0, blocks[i as usize])
    });
    AllocCosts {
        alloc_ns,
        free_ns,
        riv_read_ns,
        fences_per_alloc: used.fences as f64 / n as f64,
        flushes_per_alloc: used.flushes as f64 / n as f64,
    }
}

pub fn run(quick: bool) -> Vec<(&'static str, f64)> {
    let scale = if quick { 8 } else { 1 };
    let model = pmem_costs(LatencyModel::pmem_default(), (1 << 20) / scale);
    let floor = pmem_costs(LatencyModel::default(), (1 << 20) / scale);
    let blocks = (1 << 16) / scale;
    let timed = alloc_costs(blocks, false);
    let counted = alloc_costs(blocks, true);
    vec![
        ("pmem.read_ns", model.read),
        ("pmem.read_slice_line_ns", model.read_slice_line),
        ("pmem.write_ns", model.write),
        ("pmem.cas_ns", model.cas),
        ("pmem.flush_ns", model.flush),
        // One fence retiring one flushed line.
        ("pmem.fence_ns", model.persist - model.flush),
        ("pmem.persist_ns", model.persist),
        ("pmem.read0_ns", floor.read),
        ("pmem.persist0_ns", floor.persist),
        ("riv.read_ns", timed.riv_read_ns),
        ("pmalloc.alloc_ns", timed.alloc_ns),
        ("pmalloc.free_ns", timed.free_ns),
        ("pmalloc.fences_per_alloc", counted.fences_per_alloc),
        ("pmalloc.flushes_per_alloc", counted.flushes_per_alloc),
    ]
}
