//! E7/E9 — Chapter 6: black-box crash testing with strict-linearizability
//! analysis, as a CLI over the crash harness (`bench::sweep`).
//!
//! Each trial prepopulates a small keyspace (the thesis uses 50 000 keys,
//! 20 000 prepopulated, to maximize cross-thread key collisions), runs an
//! insert-heavy workload across worker threads, injects a power failure at
//! a random pmem-operation count, recovers, re-reads and re-writes the
//! same keys, reads back every key written, and feeds the whole history
//! to the `lincheck` analyzer.
//!
//! `--structure upskiplist|bztree|pmdkskip` selects the subject (E9
//! extension — the thesis only crash-tests UPSkipList). Expectations:
//! UPSkipList is strictly linearizable. BzTree should be too (its PMwCAS
//! dirty-bit reads refuse unpersisted values), but 2–4 of 10 runs of
//! `--structure bztree --trials 5 --threads 4` report violations, and a
//! trial can stall: PMwCAS can recycle a descriptor a helper still uses
//! (ROADMAP item 14). The PMDK lock-based list is *expected* to show
//! violations occasionally, because libpmemobj transactions do not
//! isolate readers (§3.1) — a reader can observe an uncommitted value that
//! a crash rolls back.
//!
//! A run in which no operation completes for `watchdog::STALL_LIMIT`
//! prints a `STALL` line and exits with code 2.
//!
//! `--corrupt` reproduces the thesis's analyzer sanity check (§6.3): read
//! values are corrupted at random and every corruption must be flagged.
//! `--dump` prints every violating key's history.

use bench::sweep::{run_point, Arm, Keys, KvSubject, KvWorkload, Phase};
use bench::{watchdog, Args, Deployment, Target, UpSkipListOpts};
use lincheck::{History, OpKind, EMPTY, PENDING};
use pmem::CrashPlan;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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
    let watched = structure.clone();
    watchdog::spawn(move |counts| {
        eprintln!(
            "STALL: no operation completed for {} s in crash_test --structure {watched}; \
             per-thread ops {counts:?}",
            watchdog::STALL_LIMIT.as_secs()
        );
    });

    let d = Deployment {
        tracked: true,
        ..Deployment::simple(keyspace)
    };
    let opts = UpSkipListOpts {
        keys_per_node: 16,
        evict_one_in: if evict { 4 } else { 0 },
        ..Default::default()
    };
    let mut violations_found = 0u64;
    for trial in 0..trials {
        // Thread `t` of a phase draws from seed + t: phase seeds 64 K apart.
        let mix = |read_pct, seed: u64| Phase {
            keys: Keys::Random {
                keyspace,
                read_pct,
                seed: seed << 16,
            },
            ops,
        };
        let mut subject = KvSubject::new(
            Target::build(&structure, &d, 20_000, opts),
            KvWorkload {
                threads,
                numa_nodes: 1,
                prepop,
                // Insert-heavy, interrupted by a power failure at a random
                // operation count; then re-read and re-write (§6.1.2).
                load: mix(20, trial * 7 + 1),
                verify: Some(mix(60, trial * 7 + 2)),
            },
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(trial);
        let arm = Arm::After(rng.gen_range(50_000..500_000));
        let outcome = run_point(&mut subject, arm, CrashPlan::DropAll, None, false);

        let mut history = subject.history().clone();
        if corrupt {
            corrupt_reads(&mut history, &mut rng);
        }
        let result = lincheck::check(&history);
        let ok = outcome.is_ok() && result.is_linearizable();
        if !ok && args.flag("dump") {
            dump(&history, &result);
        }
        println!(
            "trial {trial} [{structure}]: crashed={} ops={} pending={} keys={} -> {}",
            outcome
                .as_ref()
                .map_or(history.pending_count() > 0, |st| st.fired),
            history.ops.len(),
            history.pending_count(),
            result.keys_checked,
            match outcome {
                _ if ok => "strictly linearizable".to_string(),
                // A failure the analyzer does not explain (invariants, a panic).
                Err(e) if result.is_linearizable() => format!("failed: {e}"),
                _ => format!(
                    "{} violations, {} inconclusive (e.g. {:?})",
                    result.violations.len(),
                    result.inconclusive_keys,
                    result.violations.first().map(|v| &v.reason)
                ),
            }
        );
        violations_found += !ok as u64;
    }
    let linearizable = trials - violations_found;
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

/// Thesis §6.3 sanity check: corrupt three random reads of a value.
fn corrupt_reads(history: &mut History, rng: &mut impl Rng) {
    let mut reads: Vec<_> = (history.ops.iter_mut())
        .filter(|o| o.kind == OpKind::Read && o.ret != PENDING && o.ret != EMPTY)
        .collect();
    reads.shuffle(rng);
    for op in reads.into_iter().take(3) {
        op.ret = op.ret.wrapping_add(0xdead);
    }
}

/// Print each violating key's operations in start order.
fn dump(history: &History, result: &lincheck::CheckResult) {
    for v in &result.violations {
        eprintln!("--- key {} (crash ticks {:?}) ---", v.key, history.crashes);
        let mut ops: Vec<_> = history.ops.iter().filter(|o| o.key == v.key).collect();
        ops.sort_by_key(|o| o.start);
        ops.iter().for_each(|o| eprintln!("  {o:?}"));
    }
}
