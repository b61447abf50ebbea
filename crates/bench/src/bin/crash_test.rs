//! E7/E9 — Chapter 6: black-box crash testing with strict-linearizability
//! analysis.
//!
//! Each trial prepopulates a small keyspace (the thesis uses 50 000 keys,
//! 20 000 prepopulated, to maximize cross-thread key collisions), runs an
//! insert-heavy workload across worker threads, injects a power failure at
//! a random pmem-operation count, recovers, runs a second phase that
//! re-reads and re-writes the same keys, and feeds the merged operation
//! logs (with the crash tick) to the `lincheck` analyzer.
//!
//! `--structure upskiplist|bztree|pmdkskip` selects the subject (E9
//! extension — the thesis only crash-tests UPSkipList). Expectations:
//! UPSkipList and BzTree are strictly linearizable (BzTree's PMwCAS
//! dirty-bit reads refuse unpersisted values); the PMDK lock-based list is
//! *expected* to show violations occasionally, because libpmemobj
//! transactions do not isolate readers (§3.1) — a reader can observe an
//! uncommitted value that a crash rolls back.
//!
//! `--corrupt` reproduces the thesis's analyzer sanity check (§6.3):
//! read values are corrupted at random and every corruption must be
//! flagged.

use std::sync::{Arc, Mutex};

use bench::{Args, Deployment, KvIndex, Target, UpSkipListOpts};
use lincheck::{merge, OpKind, ThreadLog, Ticket, EMPTY};
use pmem::{run_crashable, CrashController, Pool};
use rand::{Rng, SeedableRng};

/// A crash-testable subject: an index plus the hooks to power-cycle it.
struct Subject {
    name: &'static str,
    index: Arc<dyn KvIndex>,
    pools: Vec<Arc<Pool>>,
    controller: Arc<CrashController>,
    reopen: Reopen,
}

/// Re-open after `simulate_crash` on every pool; returns the new index.
type Reopen = Box<dyn Fn(&[Arc<Pool>]) -> Arc<dyn KvIndex>>;

impl Subject {
    fn build(name: &str, keyspace: u64, evict: bool) -> Subject {
        let d = Deployment {
            tracked: true,
            ..Deployment::simple(keyspace)
        };
        let opts = UpSkipListOpts {
            keys_per_node: 16,
            evict_one_in: if evict { 4 } else { 0 },
            ..Default::default()
        };
        let t = Target::build(name, &d, 20_000, opts);
        let reopen: Reopen = match (name, t.list) {
            (_, Some(list)) => Box::new(move |_| {
                list.recover();
                Arc::clone(&list) as Arc<dyn KvIndex>
            }),
            ("bztree", None) => Box::new(|pools| bztree::BzTree::open(Arc::clone(&pools[0])).0),
            ("pmdkskip", None) => {
                Box::new(|pools| pmdkskip::PmdkSkipList::open(Arc::clone(&pools[0])).0)
            }
            (other, None) => panic!("{other} has no crash-recovery reopen"),
        };
        Subject {
            name: t.index.name(),
            controller: Arc::clone(t.pools[0].crash_controller()),
            index: t.index,
            pools: t.pools,
            reopen,
        }
    }
}

struct PhaseConfig {
    keyspace: u64,
    ops: u64,
    read_pct: u32,
}

/// Run one workload phase; each thread logs its ops. Returns the logs.
fn phase(
    index: &Arc<dyn KvIndex>,
    ticket: &Ticket,
    threads: usize,
    cfg: &PhaseConfig,
    seed: u64,
    thread_base: u32,
) -> Vec<ThreadLog> {
    let logs = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for t in 0..threads {
            let index = Arc::clone(index);
            let logs = Arc::clone(&logs);
            s.spawn(move || {
                pmem::thread::register(t, 0);
                let mut log = ThreadLog::new(thread_base + t as u32);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (t as u64) << 32);
                for _ in 0..cfg.ops {
                    let key = rng.gen_range(1..=cfg.keyspace);
                    if rng.gen_range(0..100) < cfg.read_pct {
                        let idx = log.begin(ticket, OpKind::Read, key, 0);
                        match run_crashable(|| index.get(key)) {
                            Ok(v) => log.finish(ticket, idx, v.unwrap_or(EMPTY)),
                            Err(_) => break, // pending at crash
                        }
                    } else {
                        let value = ticket.next();
                        let idx = log.begin(ticket, OpKind::Write, key, value);
                        // A write acks (logs as completed) only at the
                        // sync fence: the publish link is flush-deferred,
                        // so a crash between insert and sync leaves the
                        // op pending — either outcome satisfies strict
                        // linearizability.
                        match run_crashable(|| {
                            let old = index.insert(key, value);
                            index.sync();
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
}

fn main() {
    pmem::crash::silence_crash_panics();
    let args = Args::parse();
    let trials = args.u64("trials", 30);
    let threads = args.usize("threads", 8);
    let keyspace = args.u64("keyspace", 5_000);
    let prepop = args.u64("prepop", 2_000);
    let ops = args.u64("ops", 5_000);
    let corrupt = args.flag("corrupt");
    let structure = args.get("structure").unwrap_or("upskiplist").to_string();
    let evict = args.flag("evict");

    let mut linearizable = 0u64;
    let mut violations_found = 0u64;
    for trial in 0..trials {
        let subject = Subject::build(&structure, keyspace, evict);
        let ticket = Ticket::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(trial);

        // Prepopulate (logged, so initial values are known to the
        // analyzer, §6.1.1).
        let mut setup_log = ThreadLog::new(u32::MAX);
        for k in 1..=prepop {
            let v = ticket.next();
            let idx = setup_log.begin(&ticket, OpKind::Write, k, v);
            let old = subject.index.insert(k, v);
            setup_log.finish(&ticket, idx, old.unwrap_or(EMPTY));
        }
        // The prepopulated writes are logged as completed: fence their
        // deferred publish lines before crash injection arms.
        subject.index.sync();

        // Phase 1: insert-heavy, interrupted by a power failure at a
        // random operation count.
        subject.controller.arm_after(rng.gen_range(50_000..500_000));
        let mut logs = phase(
            &subject.index,
            &ticket,
            threads,
            &PhaseConfig {
                keyspace,
                ops,
                read_pct: 20,
            },
            trial * 7 + 1,
            0,
        );
        let crashed = subject.controller.is_crashed();
        subject.controller.disarm();
        let crash_tick = ticket.next();
        for pool in &subject.pools {
            pool.simulate_crash();
        }
        let index2 = (subject.reopen)(&subject.pools);

        // Phase 2: re-read and re-write the same keyspace (§6.1.2).
        let logs2 = phase(
            &index2,
            &ticket,
            threads,
            &PhaseConfig {
                keyspace,
                ops,
                read_pct: 60,
            },
            trial * 7 + 2,
            1000,
        );
        logs.push(setup_log);
        logs.extend(logs2);
        let mut history = merge(logs, if crashed { vec![crash_tick] } else { vec![] });

        if corrupt {
            // Thesis §6.3 sanity check: flip a few read return values.
            let mut corrupted = 0;
            for op in history.ops.iter_mut() {
                if matches!(op.kind, OpKind::Read)
                    && op.ret != lincheck::PENDING
                    && op.ret != EMPTY
                    && corrupted < 3
                    && rand::Rng::gen_bool(&mut rng, 0.01)
                {
                    op.ret = op.ret.wrapping_add(0xdead);
                    corrupted += 1;
                }
            }
            if corrupted == 0 {
                if let Some(op) = history.ops.iter_mut().find(|o| {
                    matches!(o.kind, OpKind::Read) && o.ret != EMPTY && o.ret != lincheck::PENDING
                }) {
                    op.ret = op.ret.wrapping_add(0xdead);
                }
            }
        }

        let result = lincheck::check(&history);
        let ok = result.is_linearizable();
        if !ok && args.flag("dump") {
            for v in &result.violations {
                eprintln!("--- key {} (crash tick {crash_tick}) ---", v.key);
                let mut ops: Vec<_> = history.ops.iter().filter(|o| o.key == v.key).collect();
                ops.sort_by_key(|o| o.start);
                for o in ops {
                    eprintln!(
                        "  t{:<4} {:?} arg={} ret={} [{}..{}]",
                        o.thread,
                        o.kind,
                        o.arg,
                        if o.ret == lincheck::PENDING {
                            u64::MAX
                        } else {
                            o.ret
                        },
                        o.start,
                        o.end,
                    );
                }
            }
        }
        println!(
            "trial {trial} [{}]: crashed={crashed} ops={} pending={} keys={} -> {}",
            subject.name,
            history.ops.len(),
            history.pending_count(),
            result.keys_checked,
            if ok {
                "strictly linearizable".to_string()
            } else {
                format!(
                    "{} violations, {} inconclusive (e.g. {:?})",
                    result.violations.len(),
                    result.inconclusive_keys,
                    result.violations.first().map(|v| &v.reason)
                )
            }
        );
        if ok {
            linearizable += 1;
        } else {
            violations_found += 1;
        }
    }
    println!();
    println!(
        "{structure}: {linearizable}/{trials} trials strictly linearizable, {violations_found} with violations{}",
        if corrupt { " (corruption mode: violations are EXPECTED)" } else { "" }
    );
    if corrupt {
        assert!(
            violations_found > 0,
            "the analyzer failed to flag injected corruption"
        );
    } else if structure != "pmdkskip" {
        // The PMDK baseline is *expected* to violate occasionally: its
        // transactions do not isolate readers (§3.1).
        assert_eq!(
            violations_found, 0,
            "{structure} produced a non-linearizable history"
        );
    }
}
