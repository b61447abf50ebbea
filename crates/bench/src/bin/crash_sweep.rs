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
//! The skip-list rows also count node purges (full nodes that reclaimed
//! their removed keys' slots instead of splitting); a sweep of the
//! `upskiplist` subject that ran none exits non-zero, since no crash point
//! can then have landed inside one. The allocator rows count leases the
//! same way: `pmalloc` (one-block leases) or `pmalloc-mag` (8-block
//! leases) finishing with none exits non-zero.

use bench::args::Args;
use bench::sweep::{
    standard_plans, sweep, sweep_epoch_points, AllocSubject, PmwcasSubject, SkipListSubject,
    SweepConfig, SweepOutcome, TxSubject,
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
    let crash_in_epoch = args.flag("crash-in-epoch");
    let keys_per_node = args.usize("keys-per-node", 8);
    let structures = args.list("structures", "upskiplist,pmalloc,pmalloc-mag,pmwcas,pmemtx");

    let cfg = SweepConfig {
        points,
        seeds: (1..=num_seeds).collect(),
        plans: standard_plans(residue_seeds),
        nested,
        ops,
        pmcheck,
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

    let mut outcomes: Vec<SweepOutcome> = Vec::new();
    for s in &structures {
        let out = match s.as_str() {
            "upskiplist" => sweep(
                "upskiplist",
                &|seed| SkipListSubject::with_node_size(seed, ops, keys_per_node),
                &cfg,
            ),
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
        };
        let purges = match out.name {
            "upskiplist" => format!("  {:>4} node purges", out.purges),
            "pmalloc" | "pmalloc-mag" => format!("  {:>4} leases", out.leases),
            _ => String::new(),
        };
        if pmcheck {
            println!(
                "  {:<12} {:>5} states  {:>3} failures  {:>4} pmcheck advisories{purges}",
                out.name,
                out.states,
                out.failures.len(),
                out.advisories
            );
        } else {
            println!(
                "  {:<12} {:>5} states  {:>3} failures{purges}",
                out.name,
                out.states,
                out.failures.len()
            );
        }
        outcomes.push(out);
    }

    if crash_in_epoch {
        // Epoch-boundary states: the victim op dies mid-prepare (PreSweep)
        // or with its node durable but unpublished (PostSweep); recovery
        // must show no trace of it and still serve allocations.
        let out = sweep_epoch_points(&cfg, keys_per_node);
        println!(
            "  {:<12} {:>5} states  {:>3} failures  ({} fired an epoch point, {} node purges)",
            out.name,
            out.states,
            out.failures.len(),
            out.fired,
            out.purges
        );
        if out.fired == 0 {
            eprintln!("crash_sweep: --crash-in-epoch never fired — grid too sparse");
            std::process::exit(1);
        }
        outcomes.push(out);
    }

    let states: u64 = outcomes.iter().map(|o| o.states).sum();
    let failures: usize = outcomes.iter().map(|o| o.failures.len()).sum();
    if pmcheck {
        let advisories: u64 = outcomes.iter().map(|o| o.advisories).sum();
        println!(
            "crash_sweep: {states} states explored, {failures} failures, \
             {advisories} pmcheck advisories"
        );
    } else {
        println!("crash_sweep: {states} states explored, {failures} failures");
    }
    if failures > 0 {
        for o in &outcomes {
            for f in &o.failures {
                println!("  {f}");
            }
        }
        std::process::exit(1);
    }
    if outcomes
        .iter()
        .any(|o| o.name == "upskiplist" && o.purges == 0)
    {
        eprintln!(
            "crash_sweep: the upskiplist subject never purged a node — no crash point reached one"
        );
        std::process::exit(1);
    }
    if let Some(o) = outcomes
        .iter()
        .find(|o| matches!(o.name, "pmalloc" | "pmalloc-mag") && o.leases == 0)
    {
        eprintln!(
            "crash_sweep: the {} subject never completed a lease — no crash point reached one",
            o.name
        );
        std::process::exit(1);
    }
}
