//! End-to-end strict-linearizability analysis of real concurrent histories
//! with injected power failures: Chapter 6's methodology as grids over the
//! crash harness (`bench::sweep`). The full 30-trial campaign is
//! `bench --bin crash_test`.

use bench::sweep::{run_point, Arm, CrashSubject, Keys, KvSubject, KvWorkload, Phase};
use pmem::{CrashPlan, PersistenceMode};
use upskiplist::{ListBuilder, ListConfig};

/// `ops` random ops per thread over keys `1..=keyspace`, `read_pct`%
/// reads, thread `t` seeded with `seed + t`.
fn mix(keyspace: u64, read_pct: u32, ops: u64, seed: u64) -> Phase {
    let keys = Keys::Random {
        keyspace,
        read_pct,
        seed,
    };
    Phase { keys, ops }
}

/// A 12-level list at 8 keys per node under `threads` logged threads.
fn subject(mode: PersistenceMode, threads: usize, load: Phase, verify: Option<Phase>) -> KvSubject {
    let list = ListBuilder {
        list: ListConfig::new(12, 8),
        mode,
        pool_words: 1 << 22,
        ..ListBuilder::default()
    };
    let w = KvWorkload {
        threads,
        numa_nodes: 1,
        prepop: 0,
        load,
        verify,
    };
    KvSubject::new(list.create().into(), w)
}

#[test]
fn crash_free_concurrent_history_is_strictly_linearizable() {
    let mut s = subject(PersistenceMode::Fast, 6, mix(300, 40, 3_000, 11), None);
    s.workload();
    s.verify();
    assert!(lincheck::check(s.history()).writes_checked > 1_000);
}

#[test]
fn crashed_histories_are_strictly_linearizable_across_recovery() {
    pmem::crash::silence_crash_panics();
    for trial in 0..6u64 {
        let seed = trial * 31;
        let (load, after) = (mix(400, 20, 5_000, seed), mix(400, 60, 2_000, seed + 7));
        let mut s = subject(PersistenceMode::Tracked, 4, load, Some(after));
        let arm = Arm::After(20_000 + trial * 17_000);
        let st = run_point(&mut s, arm, CrashPlan::DropAll, None, false)
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        assert!(st.fired, "trial {trial}: workload ended before the crash");
        assert!(
            s.history().pending_count() > 0,
            "trial {trial}: crash cut nothing off"
        );
    }
}
