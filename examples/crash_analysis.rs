//! The Chapter 6 methodology end-to-end in one run: log every operation,
//! pull the plug mid-workload, recover, keep operating, and feed the whole
//! history (with the crash boundary) to the strict-linearizability
//! analyzer.
//!
//! ```text
//! cargo run --release --example crash_analysis
//! ```

use std::sync::{Arc, Mutex};

use lincheck::{merge, OpKind, ThreadLog, Ticket, EMPTY};
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
    let ticket = Ticket::new();
    let threads = 4;
    let keyspace = 500u64;

    // Phase 1: writes and reads under a scheduled power failure. Every
    // operation is logged open/closed; an operation cut off by the crash
    // stays open and becomes "pending at crash" for the analyzer.
    let controller = Arc::clone(list.space().pool(0).crash_controller());
    controller.arm_after(120_000);
    let run_phase = |read_pct: u32, seed: u64, base: u32| -> Vec<ThreadLog> {
        let logs = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for t in 0..threads {
                let list = Arc::clone(&list);
                let logs = Arc::clone(&logs);
                let ticket = &ticket;
                s.spawn(move || {
                    use rand::{Rng, SeedableRng};
                    pmem::thread::register(t, 0);
                    let mut log = ThreadLog::new(base + t as u32);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed + t as u64);
                    for _ in 0..4000 {
                        let key = rng.gen_range(1..=keyspace);
                        if rng.gen_range(0..100) < read_pct {
                            let idx = log.begin(ticket, OpKind::Read, key, 0);
                            match pmem::run_crashable(|| list.get(key)) {
                                Ok(v) => log.finish(ticket, idx, v.unwrap_or(EMPTY)),
                                Err(_) => break,
                            }
                        } else {
                            let value = ticket.next();
                            let idx = log.begin(ticket, OpKind::Write, key, value);
                            // An insert's publish link is flush-deferred:
                            // fence it before the write is logged as acked.
                            match pmem::run_crashable(|| {
                                let old = list.insert(key, value);
                                list.sync();
                                old
                            }) {
                                Ok(old) => log.finish(ticket, idx, old.unwrap_or(EMPTY)),
                                Err(_) => break,
                            }
                        }
                    }
                    pmem::discard_pending();
                    logs.lock().unwrap().push(log);
                });
            }
        });
        Arc::try_unwrap(logs).unwrap().into_inner().unwrap()
    };

    let mut logs = run_phase(30, 1, 0);
    println!(
        "power failure during phase 1 ({} threads cut off mid-operation)",
        threads
    );
    controller.disarm();
    let crash_tick = ticket.next();
    for pool in list.space().pools() {
        pool.simulate_crash();
    }
    list.recover();

    // Phase 2: re-read and re-write the same keyspace after recovery.
    logs.extend(run_phase(70, 99, 100));

    let history = merge(logs, vec![crash_tick]);
    println!(
        "history: {} operations, {} pending at the crash",
        history.ops.len(),
        history.pending_count()
    );
    let result = lincheck::check(&history);
    println!(
        "analysis: {} keys, {} writes, {} reads checked",
        result.keys_checked, result.writes_checked, result.reads_checked
    );
    if result.is_linearizable() {
        println!("verdict: strictly linearizable ✓");
    } else {
        println!("verdict: VIOLATIONS: {:?}", result.violations);
        std::process::exit(1);
    }
}
