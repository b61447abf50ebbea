//! The Chapter 6 methodology end-to-end in one run: log every operation,
//! pull the plug mid-workload, recover, keep operating, read back every
//! key, and feed the whole history (with the crash boundary) to the
//! strict-linearizability analyzer. One state of the crash harness
//! (`bench::sweep`).
//!
//! ```text
//! cargo run --release --example crash_analysis
//! ```

use bench::sweep::{run_point, Arm, Keys, KvSubject, KvWorkload, Phase};
use pmem::CrashPlan;
use upskiplist::{ListBuilder, ListConfig};

fn main() {
    pmem::crash::silence_crash_panics();
    let list = ListBuilder {
        list: ListConfig::new(12, 8),
        mode: pmem::PersistenceMode::Tracked,
        pool_words: 1 << 22,
        ..ListBuilder::default()
    }
    .create();
    let threads = 4;
    let mix = |read_pct, seed| Phase {
        keys: Keys::Random {
            keyspace: 500,
            read_pct,
            seed,
        },
        ops: 4000,
    };
    // Phase 1: writes and reads under a scheduled power failure. Every
    // operation is logged open/closed; an operation cut off by the crash
    // stays open and becomes "pending at crash" for the analyzer. Phase 2
    // re-reads and re-writes the same keyspace after recovery.
    let mut s = KvSubject::new(
        list.into(),
        KvWorkload {
            threads,
            numa_nodes: 1,
            prepop: 0,
            load: mix(30, 1),
            verify: Some(mix(70, 99)),
        },
    );
    let outcome = run_point(&mut s, Arm::After(120_000), CrashPlan::DropAll, None, false);
    println!("power failure during phase 1 ({threads} threads cut off mid-operation)");

    let (history, result) = (s.history(), lincheck::check(s.history()));
    println!(
        "history: {} operations, {} pending at the crash",
        history.ops.len(),
        history.pending_count()
    );
    println!(
        "analysis: {} keys, {} writes, {} reads checked",
        result.keys_checked, result.writes_checked, result.reads_checked
    );
    match outcome {
        Ok(_) => println!("verdict: strictly linearizable ✓"),
        Err(e) => {
            println!("verdict: VIOLATIONS: {e}");
            std::process::exit(1);
        }
    }
}
