//! End-to-end strict-linearizability analysis of real concurrent histories
//! with injected power failures (Chapter 6 methodology as an integration
//! test; the full 30-trial campaign lives in `bench --bin crash_test`).

use std::sync::{Arc, Mutex};

use lincheck::{merge, OpKind, ThreadLog, Ticket, EMPTY};
use pmem::{run_crashable, PersistenceMode};
use rand::{Rng, SeedableRng};
use upskiplist::{ListBuilder, ListConfig, UpSkipList};

#[allow(clippy::too_many_arguments)] // test-harness plumbing
fn run_phase(
    list: &Arc<UpSkipList>,
    ticket: &Ticket,
    threads: usize,
    ops: u64,
    keyspace: u64,
    read_pct: u32,
    seed: u64,
    base: u32,
) -> Vec<ThreadLog> {
    let logs = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for t in 0..threads {
            let list = Arc::clone(list);
            let logs = Arc::clone(&logs);
            s.spawn(move || {
                pmem::thread::register(t, 0);
                let mut log = ThreadLog::new(base + t as u32);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + t as u64);
                for _ in 0..ops {
                    let key = rng.gen_range(1..=keyspace);
                    if rng.gen_range(0..100) < read_pct {
                        let idx = log.begin(ticket, OpKind::Read, key, 0);
                        match run_crashable(|| list.get(key)) {
                            Ok(v) => log.finish(ticket, idx, v.unwrap_or(EMPTY)),
                            Err(_) => break,
                        }
                    } else {
                        let value = ticket.next();
                        let idx = log.begin(ticket, OpKind::Write, key, value);
                        // Acknowledged only once durable: the insert's
                        // publishing link is flush-deferred and `sync()` is
                        // the ack boundary, so it runs inside the crashable
                        // closure (a crash before it leaves the op pending).
                        let acked = run_crashable(|| {
                            let old = list.insert(key, value);
                            list.sync();
                            old
                        });
                        match acked {
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
}

#[test]
fn crash_free_concurrent_history_is_strictly_linearizable() {
    let list = ListBuilder {
        list: ListConfig::new(12, 8),
        pool_words: 1 << 22,
        ..ListBuilder::default()
    }
    .create();
    let ticket = Ticket::new();
    let logs = run_phase(&list, &ticket, 6, 3_000, 300, 40, 11, 0);
    let history = merge(logs, vec![]);
    let result = lincheck::check(&history);
    assert!(
        result.is_linearizable(),
        "violations: {:?}",
        result.violations
    );
    assert!(result.writes_checked > 1_000);
}

#[test]
fn crashed_histories_are_strictly_linearizable_across_recovery() {
    pmem::crash::silence_crash_panics();
    for trial in 0..6u64 {
        let list = ListBuilder {
            list: ListConfig::new(12, 8),
            mode: PersistenceMode::Tracked,
            pool_words: 1 << 22,
            ..ListBuilder::default()
        }
        .create();
        let ticket = Ticket::new();
        let controller = Arc::clone(list.space().pool(0).crash_controller());
        controller.arm_after(20_000 + trial * 17_000);
        let mut logs = run_phase(&list, &ticket, 4, 5_000, 400, 20, trial * 31, 0);
        assert!(
            controller.is_crashed(),
            "trial {trial}: workload ended before the crash"
        );
        controller.disarm();
        let crash_tick = ticket.next();
        for pool in list.space().pools() {
            pool.simulate_crash();
        }
        list.recover();
        logs.extend(run_phase(
            &list,
            &ticket,
            4,
            2_000,
            400,
            60,
            trial * 31 + 7,
            100,
        ));
        let history = merge(logs, vec![crash_tick]);
        let result = lincheck::check(&history);
        assert!(
            result.is_linearizable(),
            "trial {trial}: {:?} ({} inconclusive)",
            result.violations.first(),
            result.inconclusive_keys
        );
        assert!(
            history.pending_count() > 0,
            "trial {trial}: crash cut nothing off"
        );
    }
}
