//! Stress and semantics tests for the simulated PMEM substrate.

use std::sync::Arc;

use pmem::pool::PoolConfig;
use pmem::{
    op_tag, run_crashable, CrashController, ObsLevel, OpKind, Placement, Pool, StatsSnapshot,
};

#[test]
fn read_slice_matches_individual_reads() {
    let p = Pool::simple(1 << 12);
    for w in 0..512u64 {
        p.write(w, w.wrapping_mul(0x9e37_79b9));
    }
    for (off, len) in [
        (0u64, 1usize),
        (3, 5),
        (7, 9),
        (0, 512),
        (63, 65),
        (100, 17),
    ] {
        let mut buf = vec![0u64; len];
        p.read_slice(off, &mut buf);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, p.read(off + i as u64), "slice({off},{len})[{i}]");
        }
        // The descending variant differs in load order only: same words,
        // same line count charged.
        let mut rev = vec![0u64; len];
        let before = p.stats().snapshot().reads;
        p.read_slice_rev(off, &mut rev);
        let lines = (off + len as u64 - 1) / 8 - off / 8 + 1;
        assert_eq!(p.stats().snapshot().reads - before, lines);
        assert_eq!(rev, buf, "slice_rev({off},{len})");
    }
}

#[test]
fn fences_only_commit_own_threads_flushes() {
    let p = Pool::tracked(1 << 10);
    p.write(0, 11);
    p.flush(0);
    // A fence on another thread must not commit this thread's pending line.
    std::thread::scope(|s| {
        s.spawn(|| {
            pmem::sfence();
        });
    });
    p.simulate_crash();
    assert_eq!(p.read(0), 0, "a foreign fence must not commit our flush");
    pmem::discard_pending();
}

#[test]
fn per_thread_flush_isolation_under_concurrency() {
    let p = Pool::tracked(1 << 14);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let p = &p;
            s.spawn(move || {
                pmem::thread::register(t as usize, 0);
                // Each thread persists only even slots of its stripe.
                for i in 0..64u64 {
                    let off = t * 128 + i;
                    p.write(off, off + 1);
                    if i % 2 == 0 {
                        p.persist(off, 1);
                    }
                }
                pmem::discard_pending();
            });
        }
    });
    p.simulate_crash();
    for t in 0..8u64 {
        for i in (0..64u64).step_by(2) {
            let off = t * 128 + i;
            // The persisted line covers 8 words, so neighbours may survive;
            // the explicitly persisted word must.
            assert_eq!(p.read(off), off + 1, "persisted word lost at {off}");
        }
    }
}

#[test]
fn crash_counts_operations_machine_wide() {
    pmem::crash::silence_crash_panics();
    let crash = Arc::new(CrashController::new());
    let a = Pool::new(PoolConfig::tracked(256), Arc::clone(&crash));
    let b = Pool::new(PoolConfig::tracked(256), Arc::clone(&crash));
    crash.arm_after(10);
    let r = run_crashable(|| {
        for i in 0..20 {
            a.write(i, 1);
            b.write(i, 2);
        }
    });
    assert!(
        r.is_err(),
        "ops across both pools must consume the countdown"
    );
    crash.disarm();
    pmem::discard_pending();
}

#[test]
fn concurrent_crash_kills_every_thread() {
    pmem::crash::silence_crash_panics();
    let p = Pool::tracked(1 << 12);
    p.crash_controller().arm_after(5_000);
    let survivors = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..6 {
            let p = &p;
            let survivors = &survivors;
            s.spawn(move || {
                pmem::thread::register(t, 0);
                let r = run_crashable(|| loop {
                    p.write((t * 64) as u64, 1);
                });
                if r.is_err() {
                    survivors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                pmem::discard_pending();
            });
        }
    });
    assert_eq!(
        survivors.load(std::sync::atomic::Ordering::Relaxed),
        6,
        "every thread must observe the power failure"
    );
}

#[test]
fn striped_pool_charges_remote_latency_without_affecting_values() {
    let mut cfg = PoolConfig::simple(1 << 12);
    cfg.placement = Placement::Striped {
        nodes: 4,
        stripe_words: 64,
    };
    cfg.latency = pmem::LatencyModel::numa_default();
    let p = Pool::new(cfg, Arc::new(CrashController::new()));
    pmem::thread::register(0, 2);
    for w in 0..1024u64 {
        p.write(w, w);
    }
    for w in 0..1024u64 {
        assert_eq!(p.read(w), w);
    }
}

#[test]
fn tracked_pool_partial_line_semantics() {
    let p = Pool::tracked(64);
    // Two words in the same line, persisted at different times, with an
    // interleaved overwrite: the persist captures the values at fence time.
    p.write(0, 1);
    p.write(1, 2);
    p.flush(0);
    p.write(1, 3); // overwritten before the fence: the fence may capture it
    pmem::sfence();
    p.simulate_crash();
    assert_eq!(p.read(0), 1);
    let v1 = p.read(1);
    assert!(
        v1 == 2 || v1 == 3,
        "word 1 must hold one of the written values, got {v1}"
    );
}

#[test]
fn read_persisted_exposes_the_durable_image() {
    let p = Pool::tracked(64);
    p.write(0, 5);
    assert_eq!(p.read(0), 5, "volatile image sees the write");
    assert_eq!(
        p.read_persisted(0),
        0,
        "persisted image does not, pre-fence"
    );
    p.persist(0, 1);
    assert_eq!(p.read_persisted(0), 5);
}

#[test]
fn obs_off_disables_counting() {
    let mut cfg = PoolConfig::simple(256);
    cfg.obs = ObsLevel::Off;
    let p = Pool::new(cfg, Arc::new(CrashController::new()));
    p.write(0, 1);
    let _ = p.read(0);
    let s = p.stats().snapshot();
    assert_eq!(s.reads + s.writes, 0, "ObsLevel::Off must not count");
}

/// Satellite coverage: deltas aggregated across pools equal the sum of the
/// per-pool deltas, per-op buckets sum to the pool totals, and an
/// `ObsLevel::Off` pool contributes exactly zero to the aggregate.
#[test]
fn cross_pool_aggregation_sums_per_pool_deltas() {
    let crash = Arc::new(CrashController::new());
    let mut off_cfg = PoolConfig::simple(256);
    off_cfg.obs = ObsLevel::Off;
    off_cfg.id = 2;
    let pools = [
        Pool::new(PoolConfig::simple(256), Arc::clone(&crash)),
        Pool::new(
            PoolConfig {
                id: 1,
                ..PoolConfig::simple(256)
            },
            Arc::clone(&crash),
        ),
        Pool::new(off_cfg, Arc::clone(&crash)),
    ];
    let before: Vec<StatsSnapshot> = pools.iter().map(|p| p.stats().snapshot()).collect();

    {
        let _t = op_tag(OpKind::Insert);
        for (i, p) in pools.iter().enumerate() {
            for w in 0..(i as u64 + 1) * 10 {
                p.write(w % 256, w);
            }
            p.persist(0, 8);
        }
    }
    {
        let _t = op_tag(OpKind::Get);
        for p in &pools {
            for w in 0..7u64 {
                let _ = p.read(w);
            }
        }
    }

    let per_pool: Vec<StatsSnapshot> = pools
        .iter()
        .zip(&before)
        .map(|(p, b)| p.stats().snapshot().since(b))
        .collect();
    let aggregate: StatsSnapshot = per_pool.iter().copied().sum();

    // The Off pool contributes nothing.
    assert_eq!(per_pool[2], StatsSnapshot::default());
    // The aggregate equals the two counting pools' work.
    assert_eq!(aggregate.writes, 10 + 20);
    assert_eq!(aggregate.reads, 7 + 7);
    assert_eq!(aggregate.fences, 2);

    // Per-op buckets partition the totals, and attribution went to the
    // tagged kinds.
    for p in &pools {
        let by_op: StatsSnapshot = p.stats().snapshot_by_op().iter().copied().sum();
        assert_eq!(by_op, p.stats().snapshot());
    }
    let get_reads: u64 = pools
        .iter()
        .map(|p| p.stats().snapshot_op(OpKind::Get).reads)
        .sum();
    let insert_writes: u64 = pools
        .iter()
        .map(|p| p.stats().snapshot_op(OpKind::Insert).writes)
        .sum();
    assert_eq!(get_reads, 14);
    assert_eq!(insert_writes, 30);
    assert_eq!(
        pools[0].stats().snapshot_op(OpKind::Get).writes,
        0,
        "writes must not leak into the Get bucket"
    );
}
