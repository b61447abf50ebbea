//! E12 — adversarial crash-residue sweep (Chapter 6 extension).
//!
//! Walks a grid of `(crash point × seed × residue policy)` states over the
//! recoverable structures, with a nested crash injected *during recovery*,
//! and verifies acked-operation durability, structural invariants, and
//! recovery idempotence at every state. Failing states print a one-line
//! `(crash_after, seed, policy)` repro tuple after minimization.
//!
//! ```text
//! crash_sweep --smoke                      # CI preset: ≥200 states, fixed seeds
//! crash_sweep --points 24 --seeds 4 \
//!             --residue-seeds 4 --ops 64   # deeper local run
//! crash_sweep --structures upskiplist,pmwcas --no-nested
//! crash_sweep --smoke --pmcheck          # + dynamic persist-ordering detector
//! crash_sweep --smoke --crash-in-epoch   # + epoch-boundary points (PreSweep /
//!                                        #   PostSweep: die mid-prepare and
//!                                        #   between sweep and publish CAS)
//! crash_sweep --smoke --structures upskiplist --keys-per-node 64
//!                                        # the skip list with in-node tags:
//!                                        #   inserts on the single-stream path
//! ```
//!
//! A grid fails when its crash never fired, or when the registry counter
//! its subject names as proof of reaching the path under test stayed 0
//! (`list.node_purges` for the skip list's churn phase, `alloc.leases` for
//! both allocator subjects).

use bench::args::Args;
use bench::sweep::{
    standard_plans, sweep, AllocSubject, PmwcasSubject, SkipListSubject, SweepConfig, SweepOutcome,
    TxSubject,
};

fn main() {
    pmem::crash::silence_crash_panics();
    let args = Args::parse();
    let smoke = args.flag("smoke");

    let points = args.usize("points", if smoke { 12 } else { 16 });
    let num_seeds = args.u64("seeds", if smoke { 1 } else { 2 });
    let residue_seeds = args.u64("residue-seeds", 2);
    let ops = args.u64("ops", if smoke { 32 } else { 48 });
    let nested = !args.flag("no-nested");
    let pmcheck = args.flag("pmcheck");
    let keys_per_node = args.usize("keys-per-node", 8);
    let structures = args.list("structures", "upskiplist,pmalloc,pmalloc-mag,pmwcas,pmemtx");

    let mut cfg = SweepConfig {
        points,
        seeds: (1..=num_seeds).collect(),
        plans: standard_plans(residue_seeds),
        nested,
        ops,
        pmcheck,
        epoch: false,
    };
    println!(
        "crash_sweep: {} structures x {} points x {} seeds x {} policies \
         (nested crash-during-recovery: {}, pmcheck: {})",
        structures.len(),
        cfg.points,
        cfg.seeds.len(),
        cfg.plans.len(),
        if nested { "on" } else { "off" },
        if pmcheck { "track" } else { "off" }
    );

    let skiplist = |seed| SkipListSubject::with_node_size(seed, ops, keys_per_node);
    let mut outcomes: Vec<SweepOutcome> = Vec::new();
    for s in &structures {
        outcomes.push(match s.as_str() {
            "upskiplist" => sweep("upskiplist", &skiplist, &cfg),
            // One-block leases: the thesis's per-pop protocol.
            "pmalloc" => sweep("pmalloc", &|seed| AllocSubject::new(seed, ops), &cfg),
            // 8-block leases: crash points land inside lease acquisition,
            // mid-magazine runs, and outbox flushes.
            "pmalloc-mag" => sweep(
                "pmalloc-mag",
                &|seed| AllocSubject::with_magazine(seed, ops),
                &cfg,
            ),
            "pmwcas" => sweep("pmwcas", &|seed| PmwcasSubject::new(seed, ops / 2), &cfg),
            "pmemtx" => sweep("pmemtx", &|seed| TxSubject::new(seed, ops / 2), &cfg),
            other => {
                eprintln!("unknown structure: {other}");
                std::process::exit(2);
            }
        });
    }
    if args.flag("crash-in-epoch") {
        // Epoch-boundary states: the victim op dies mid-prepare (PreSweep)
        // or with its node durable but unpublished (PostSweep); recovery
        // must show no trace of it and still serve allocations.
        cfg.epoch = true;
        outcomes.push(sweep("upskiplist-epoch", &skiplist, &cfg));
    }

    let advisories = |n| {
        let shown = pmcheck.then(|| format!(", {n} pmcheck advisories"));
        shown.unwrap_or_default()
    };
    let mut failed = false;
    for o in &outcomes {
        let counted = (o.coverage).map_or(String::new(), |(counter, n)| format!(", {n} {counter}"));
        println!(
            "  {:<16} {:>5} states, {:>3} failures, {:>5} fired{}{counted}",
            o.name,
            o.states,
            o.failures.len(),
            o.fired,
            advisories(o.advisories)
        );
        failed |= !o.failures.is_empty() || o.fired == 0 || o.coverage.is_some_and(|c| c.1 == 0);
    }
    let states: u64 = outcomes.iter().map(|o| o.states).sum();
    let failures: usize = outcomes.iter().map(|o| o.failures.len()).sum();
    let all_advisories = advisories(outcomes.iter().map(|o| o.advisories).sum());
    println!("crash_sweep: {states} states explored, {failures} failures{all_advisories}");
    for o in &outcomes {
        for f in &o.failures {
            println!("  {f}");
        }
        if o.fired == 0 {
            eprintln!(
                "crash_sweep: no {} state fired its crash — grid too sparse",
                o.name
            );
        }
        if let Some((counter, 0)) = o.coverage {
            eprintln!(
                "crash_sweep: {counter} stayed 0 over the {} grid — no state reached that path",
                o.name
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
