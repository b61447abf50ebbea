//! Summary-level static rules PMS03/04/07 and PMS08–PMS12.
//!
//! These run over the [`summary`](crate::summary) events and file-level
//! sites plus the [`callgraph`](crate::callgraph) reachability facts:
//!
//! * **PMS03** — a `compare_exchange*` whose success ordering is `Relaxed`,
//!   anywhere outside test functions.
//! * **PMS04** — arithmetic on a raw RIV word (`.raw() +`, `from_raw(a +
//!   b)`) in a pmem-touching file outside `crates/riv`, whose helpers are
//!   the one place that arithmetic belongs.
//! * **PMS07** — an `exempt_scope("tag")` outside test functions whose tag
//!   `pmcheck.toml` does not sanction.
//! * **PMS08** — an atomic field published with `Release`/`SeqCst`
//!   somewhere in a file is loaded with `Relaxed` inside a function that
//!   also writes or publishes pmem: the load needs `Acquire` to pair with
//!   the publish, or the data behind the guard may be read stale before
//!   being persisted.
//! * **PMS09** — a tombstoning `update(.., TOMBSTONE)` reaches an unlock
//!   with no `StructureEpoch` bump in between, directly or through a
//!   callee every definition of which bumps: concurrent readers may keep
//!   navigating shadow regions imaged before the key died. Splits and
//!   purges are not markers: a split writes its links into the image
//!   after its unlock, and a purge moves no link and no `keys[0]`.
//!   Scope: `crates/core`.
//! * **PMS10** — lock-hierarchy lint over the `service` crate: the
//!   per-function order of distinct `.lock()` acquisitions must form an
//!   acyclic global graph.
//! * **PMS11** — a volatile-cache write (allocator magazine refill)
//!   positioned before a publish CAS in the same function: the DRAM cache
//!   would claim state the persistent structure has not committed yet. Intra-procedural on purpose — propagating the
//!   marker through callees would poison every `traverse()` caller.
//! * **PMS12** — a fence (`.persist(`/`sfence(`/`.commit(`, or a call that
//!   transitively reaches one) inside an open `FlushEpoch` prepare window
//!   (between `FlushEpoch::open(` and the next `.sweep(`): the whole point
//!   of the epoch is that prepare-phase CLWBs queue in the pending set and
//!   the sweep issues the *single* pre-publish fence, so an individual
//!   fence inside the window both wastes the latency the epoch saved and
//!   hints that a write path was not converted to `flush_deferred`/
//!   `flush_range`. The one sanctioned case — the leased allocator
//!   persisting a fresh lease-log entry mid-prepare — is carried by the
//!   workspace allowlist, not by the rule. Scope: `crates/core` and
//!   `crates/pmalloc`.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::Analysis;
use crate::summary::{EventKind, SiteKind};
use crate::{Allowlist, Finding};

pub fn check(a: &Analysis<'_>, allow: &Allowlist) -> Vec<Finding> {
    let mut out = Vec::new();
    file_sites(a, allow, &mut out);
    pms08(a, &mut out);
    pms09(a, &mut out);
    pms10(a, &mut out);
    pms11(a, &mut out);
    pms12(a, &mut out);
    out
}

/// PMS03, PMS04 and PMS07 over the file-level sites.
fn file_sites(a: &Analysis<'_>, allow: &Allowlist, out: &mut Vec<Finding>) {
    for info in a.infos() {
        let raw_rule = info.touches_pmem && !info.rel.starts_with("crates/riv/");
        for s in &info.sites {
            let (rule, message) = match &s.kind {
                SiteKind::RelaxedCas => (
                    "PMS03",
                    "compare_exchange with Relaxed success ordering on what may be a \
                     publish word"
                        .to_string(),
                ),
                SiteKind::RawArith if raw_rule => (
                    "PMS04",
                    "arithmetic on RivPtr::raw() — use RivPtr::add / riv helpers so \
                     fat-pointer invariants hold"
                        .to_string(),
                ),
                SiteKind::FromRawArith if raw_rule => (
                    "PMS04",
                    "RivPtr::from_raw over computed offsets — use RivPtr::add / riv helpers"
                        .to_string(),
                ),
                SiteKind::ExemptTag(tag) if allow.exempt_tag(tag).is_none() => (
                    "PMS07",
                    format!("exemption tag \"{tag}\" is not sanctioned in pmcheck.toml"),
                ),
                _ => continue,
            };
            out.push(Finding {
                rule,
                file: info.rel.clone(),
                line: info.lines.line(s.at),
                function: s.function.clone(),
                message,
            });
        }
    }
}

/// PMS08: Release-published atomic loaded Relaxed in a persist-affecting
/// function of the same file.
fn pms08(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    // file idx -> fields release-published by some non-test fn.
    let mut published: BTreeMap<usize, BTreeSet<&str>> = BTreeMap::new();
    for f in a.fns() {
        if f.is_test {
            continue;
        }
        for e in &f.events {
            if let EventKind::AtomicReleaseStore(name) = &e.kind {
                published.entry(f.file).or_default().insert(name);
            }
        }
    }
    for (i, f) in a.fns().iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some(fields) = published.get(&f.file) else {
            continue;
        };
        let persisty = f
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Write | EventKind::PublishCas));
        if !persisty {
            continue;
        }
        let info = &a.infos()[f.file];
        for e in a.events(i) {
            if let EventKind::AtomicRelaxedLoad(name) = &e.kind {
                if fields.contains(name.as_str()) {
                    out.push(Finding {
                        rule: "PMS08",
                        file: info.rel.clone(),
                        line: info.lines.line(e.at),
                        function: f.name.clone(),
                        message: format!(
                            "atomic `{name}` is published with Release in this file but \
                             loaded Relaxed in a function that writes/publishes pmem — \
                             pair the publish with an Acquire load"
                        ),
                    });
                }
            }
        }
    }
}

/// PMS09: tombstoning update with no StructureEpoch bump before the next
/// unlock (crates/core only).
fn pms09(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    for (i, f) in a.fns().iter().enumerate() {
        let info = &a.infos()[f.file];
        if f.is_test || !info.rel.contains("crates/core/") {
            continue;
        }
        let unlocks: Vec<usize> = a.events_of(i, EventKind::Unlock).collect();
        if unlocks.is_empty() {
            continue;
        }
        let bumps: Vec<usize> = f
            .events
            .iter()
            .filter(|e| match &e.kind {
                EventKind::EpochBump => true,
                EventKind::Call(g) => a.bumps_epoch_name(g),
                _ => false,
            })
            .map(|e| e.at)
            .collect();
        let mut seen_lines = BTreeSet::new();
        for m in a.events_of(i, EventKind::StructMutation) {
            let Some(&u) = unlocks.iter().find(|&&u| u > m) else {
                continue; // mutation after the last unlock: lock-free path
            };
            if bumps.iter().any(|&b| m < b && b < u) {
                continue;
            }
            let line = info.lines.line(m);
            if seen_lines.insert(line) {
                out.push(Finding {
                    rule: "PMS09",
                    file: info.rel.clone(),
                    line,
                    function: f.name.clone(),
                    message: format!(
                        "tombstoning update reaches the unlock on line {} with no \
                         StructureEpoch bump in between — stale shadow hints stay \
                         licensed for concurrent readers",
                        info.lines.line(u)
                    ),
                });
            }
        }
    }
}

/// PMS10: lock-acquisition-order consistency in `crates/service`.
///
/// Edges come from *direct* same-function acquisition order only. Bare-name
/// call resolution cannot tell `Option::take`/`Vec::push` apart from service
/// functions of the same name, so propagating held-lock sets through callees
/// manufactures edges between unrelated mutexes — the rule stays honest by
/// flagging only orders it can actually see.
fn pms10(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    // Ordered pairs: lock L acquired earlier in the function when M is
    // acquired. First witness site wins.
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (i, f) in a.fns().iter().enumerate() {
        if f.is_test {
            continue;
        }
        let acquisitions: Vec<(usize, String)> = f
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::LockAcquire(l) => Some((e.at, l.clone())),
                _ => None,
            })
            .collect();
        for (p, l) in &acquisitions {
            for (q, m) in &acquisitions {
                if q > p && m != l {
                    edges.entry((l.clone(), m.clone())).or_insert((i, *q));
                }
            }
        }
    }
    // Cycle detection: an edge is reported when its reverse direction is
    // also reachable (L →* M and M → L means inconsistent order).
    let reachable = |from: &String, to: &String| -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n.clone()) {
                continue;
            }
            for (l, m) in edges.keys() {
                if l == n {
                    stack.push(m);
                }
            }
        }
        false
    };
    for ((l, m), &(i, at)) in &edges {
        if reachable(m, l) {
            let f = &a.fns()[i];
            let info = &a.infos()[f.file];
            out.push(Finding {
                rule: "PMS10",
                file: info.rel.clone(),
                line: info.lines.line(at),
                function: f.name.clone(),
                message: format!(
                    "lock order `{l}` → `{m}` here conflicts with the reverse order \
                     elsewhere in crates/service — pick one hierarchy"
                ),
            });
        }
    }
}

/// PMS12: fence inside an open flush epoch's prepare window
/// (crates/core and crates/pmalloc).
///
/// The window runs from each `EpochOpen` to the first `EpochSweep` after
/// it — or to the end of the function if none follows (the epoch guard's
/// Drop sweeps, so everything up to the return is still prepare phase).
/// Inside it, a direct fence token or a call whose definition transitively
/// fences is a finding: prepare-phase durability must queue (`flush_range`
/// / `flush_deferred`) and let the sweep pay the single SFENCE.
fn pms12(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    for (i, f) in a.fns().iter().enumerate() {
        let info = &a.infos()[f.file];
        if f.is_test || !(info.rel.contains("crates/core/") || info.rel.contains("crates/pmalloc/"))
        {
            continue;
        }
        let sweeps: Vec<usize> = a.events_of(i, EventKind::EpochSweep).collect();
        for o in a.events_of(i, EventKind::EpochOpen) {
            let end = sweeps
                .iter()
                .find(|&&s| s > o)
                .copied()
                .unwrap_or(f.body.end);
            for e in a.events(i) {
                if e.at <= o || e.at >= end {
                    continue;
                }
                let message = match &e.kind {
                    EventKind::Fence => "explicit fence inside an open flush epoch — queue the \
                                         write-back (flush_range/flush_deferred) and let the \
                                         sweep issue the single pre-publish fence"
                        .to_string(),
                    EventKind::Call(g) if a.fences_name(g) => format!(
                        "call to `{g}` may issue a fence inside an open flush epoch — fold \
                         the callee's persist into the epoch, or allowlist the site if the \
                         fence is sanctioned (e.g. a fresh lease-log entry)"
                    ),
                    _ => continue,
                };
                out.push(Finding {
                    rule: "PMS12",
                    file: info.rel.clone(),
                    line: info.lines.line(e.at),
                    function: f.name.clone(),
                    message,
                });
            }
        }
    }
}

/// PMS11: volatile-cache write positioned before a publish CAS in the
/// same function (crates/core and crates/pmalloc).
fn pms11(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    for (i, f) in a.fns().iter().enumerate() {
        let info = &a.infos()[f.file];
        if f.is_test || !(info.rel.contains("crates/core/") || info.rel.contains("crates/pmalloc/"))
        {
            continue;
        }
        let cas: Vec<usize> = a.events_of(i, EventKind::PublishCas).collect();
        for e in &f.events {
            if e.kind == EventKind::CacheWrite {
                if let Some(&q) = cas.iter().find(|&&q| q > e.at) {
                    out.push(Finding {
                        rule: "PMS11",
                        file: info.rel.clone(),
                        line: info.lines.line(e.at),
                        function: f.name.clone(),
                        message: format!(
                            "volatile cache written before the persistent commit point \
                             (publish CAS on line {}) — a failed/raced publish leaves the \
                             DRAM cache claiming state pmem never committed",
                            info.lines.line(q)
                        ),
                    });
                }
            }
        }
    }
}
