//! Call-graph fixpoint over [`summary`](crate::summary) events.
//!
//! Calls are resolved by bare name: every function named `g` anywhere in
//! the scanned set is a possible target of a `Call("g")` event. Facts are
//! merged across same-name definitions in the conservative direction per
//! use — a call *dirties* its caller if **any** definition may leave
//! unflushed writes, and *cleans* it only if **all** definitions end
//! flushed. The pmem delegation wrappers (`write`/`write_slice`/
//! `fetch_add`) are re-unified with the `.write(`-style token sites: a
//! `Write` event in any function counts as a call site of those names, so
//! "every caller persists after the call" is exactly "every write site is
//! followed by a flush point" — the whole-program PMS01 obligation.
//!
//! Three fact families come out of the fixpoint:
//!
//! * `writes_any` / `terminal_flush` / `leaves_unflushed` — the PMS01/02
//!   dataflow ("may this call dirty pmem?", "does this call end at a
//!   flush point?", "can writes escape this function unflushed?").
//! * `covered` / `crash_covered` — greatest-fixpoint *caller proofs*: a
//!   function whose every non-test call site is followed by a flush point
//!   (or sits in a function that is itself covered) is **caller-persisted**
//!   and its PMS01 finding is discharged; a crash helper whose every test
//!   call site is followed by a recovery assertion is **caller-asserted**
//!   and its PMS05 finding is discharged.
//! * `bumps_epoch` / `crashes` — reachability facts the PMS09/PMS05
//!   rules consume.
//!
//! A test call site of a crash helper is *covered* when a recovery
//! assertion follows on or after the call line, **or** any later call to
//! a non-crashing function follows — in this codebase the first pmem
//! touch after a simulated crash runs recovery validation, so exercising
//! the API after the crash *is* the recovery test.

use std::collections::{HashMap, HashSet};

use crate::summary::{Event, EventKind, FileInfo, FnSummary};
use crate::Finding;

/// Names whose call sites are the pmem write tokens themselves.
const WRITE_WRAPPER_NAMES: &[&str] = &["write", "write_slice", "fetch_add"];

pub struct Analysis<'a> {
    infos: &'a [FileInfo],
    fns: &'a [FnSummary],
    by_name: HashMap<&'a str, Vec<usize>>,
    /// Position of the first `exempt_scope(` per function (or `usize::MAX`).
    first_exempt: Vec<usize>,
    pub writes_any: Vec<bool>,
    pub terminal_flush: Vec<bool>,
    pub leaves_unflushed: Vec<bool>,
    pub bumps_epoch: Vec<bool>,
    pub crashes: Vec<bool>,
    /// Does this function issue a fence — a `.persist(`, `sfence(` or log
    /// `.commit(` token, directly or through a callee every one of whose
    /// same-name definitions fences (see [`Self::fences_name`])? PMS12
    /// consumes this to flag fencing calls inside an open flush epoch's
    /// prepare window.
    pub fences: Vec<bool>,
    covered: HashMap<String, usize>,
    crash_covered: HashMap<String, usize>,
}

impl<'a> Analysis<'a> {
    pub fn build(infos: &'a [FileInfo], fns: &'a [FnSummary]) -> Self {
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }
        let first_exempt: Vec<usize> = fns
            .iter()
            .map(|f| {
                f.events
                    .iter()
                    .find(|e| e.kind == EventKind::ExemptScope)
                    .map_or(usize::MAX, |e| e.at)
            })
            .collect();
        let mut a = Analysis {
            infos,
            fns,
            by_name,
            first_exempt,
            writes_any: vec![false; fns.len()],
            terminal_flush: vec![false; fns.len()],
            leaves_unflushed: vec![false; fns.len()],
            bumps_epoch: vec![false; fns.len()],
            crashes: vec![false; fns.len()],
            fences: vec![false; fns.len()],
            covered: HashMap::new(),
            crash_covered: HashMap::new(),
        };
        a.fixpoint();
        a
    }

    // ---- event views ------------------------------------------------------

    /// Non-exempt pmem write positions of `i`.
    fn writes(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let cut = self.first_exempt[i];
        self.fns[i]
            .events
            .iter()
            .filter(move |e| e.kind == EventKind::Write && e.at < cut)
            .map(|e| e.at)
    }

    fn calls(&self, i: usize) -> impl Iterator<Item = (usize, &str)> + '_ {
        self.fns[i].events.iter().filter_map(|e| match &e.kind {
            EventKind::Call(name) => Some((e.at, name.as_str())),
            _ => None,
        })
    }

    pub(crate) fn events_of(&self, i: usize, kind: EventKind) -> impl Iterator<Item = usize> + '_ {
        self.fns[i]
            .events
            .iter()
            .filter(move |e| e.kind == kind)
            .map(|e| e.at)
    }

    // ---- name-merged facts ------------------------------------------------

    fn defs(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// A call to `name` may dirty pmem (ANY definition).
    pub fn writes_any_name(&self, name: &str) -> bool {
        self.defs(name).iter().any(|&i| self.writes_any[i])
    }

    /// A call to `name` ends at a flush point (ALL definitions, ≥ 1 def).
    pub fn terminal_flush_name(&self, name: &str) -> bool {
        let defs = self.defs(name);
        !defs.is_empty() && defs.iter().all(|&i| self.terminal_flush[i])
    }

    /// A call from `caller` to `name` may leave pmem writes unflushed (ANY
    /// definition it can reach). `#[cfg(test)]` code is compiled only into
    /// test builds, so a non-test caller reaches no test definition: a test
    /// fixture that writes unflushed on purpose must not dirty every
    /// production call of its name.
    pub fn leaves_unflushed_name(&self, caller: usize, name: &str) -> bool {
        let test_caller = self.fns[caller].is_test;
        self.defs(name)
            .iter()
            .any(|&i| (test_caller || !self.fns[i].is_test) && self.leaves_unflushed[i])
    }

    /// A call to `name` bumps the `StructureEpoch` under every resolution
    /// (ALL definitions, ≥ 1 def). PMS09 reads a bump as *discharging* an
    /// obligation, so ANY-def would let one bumping definition of a common
    /// name (`persist`, `space`, `fill`) clear every mutation that calls it.
    pub fn bumps_epoch_name(&self, name: &str) -> bool {
        let defs = self.defs(name);
        !defs.is_empty() && defs.iter().all(|&i| self.bumps_epoch[i])
    }

    pub fn crashes_name(&self, name: &str) -> bool {
        self.defs(name).iter().any(|&i| self.crashes[i])
    }

    /// A call to `name` issues a fence under every resolution (ALL
    /// definitions, ≥ 1 def). The ALL direction mirrors
    /// [`Self::terminal_flush_name`]: with bare-name resolution, ANY-def
    /// would let one fencing definition of a ubiquitous name (`new`,
    /// `read`, `get`) poison every accessor in the workspace, and PMS12
    /// would flag every call inside every epoch window.
    pub fn fences_name(&self, name: &str) -> bool {
        let defs = self.defs(name);
        !defs.is_empty() && defs.iter().all(|&i| self.fences[i])
    }

    /// Positions in `i` that end a persist obligation: direct flush tokens
    /// plus calls to functions that end flushed.
    fn flush_points(&self, i: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self.events_of(i, EventKind::Flush).collect();
        v.extend(
            self.calls(i)
                .filter(|(_, g)| self.terminal_flush_name(g))
                .map(|(at, _)| at),
        );
        v.sort_unstable();
        v
    }

    /// Positions in `i` that open (or renew) a persist obligation: direct
    /// non-exempt writes (callee `None`) plus calls that may leave writes
    /// unflushed (callee `Some(name)`).
    fn dirty_points(&self, i: usize) -> Vec<(usize, Option<&str>)> {
        let cut = self.first_exempt[i];
        let mut v: Vec<(usize, Option<&str>)> = self.writes(i).map(|at| (at, None)).collect();
        v.extend(
            self.calls(i)
                .filter(|&(at, g)| at < cut && self.leaves_unflushed_name(i, g))
                .map(|(at, g)| (at, Some(g))),
        );
        v.sort_unstable_by_key(|&(at, _)| at);
        v
    }

    // ---- the fixpoint -----------------------------------------------------

    fn fixpoint(&mut self) {
        let n = self.fns.len();
        // Phase 0 (monotone ↑): may this function (transitively) write pmem?
        loop {
            let mut changed = false;
            for i in 0..n {
                if self.writes_any[i] {
                    continue;
                }
                let hit = self.writes(i).next().is_some()
                    || self.fns[i]
                        .events
                        .iter()
                        .any(|e| e.kind == EventKind::PublishCas)
                    || self.calls(i).any(|(_, g)| self.writes_any_name(g));
                if hit {
                    self.writes_any[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Phase 1 (monotone ↑): does this function end at a flush point —
        // i.e. is its last dirty-capable token followed by a flush?
        loop {
            let mut changed = false;
            for i in 0..n {
                if self.terminal_flush[i] {
                    continue;
                }
                let mut flushes: Vec<usize> = self.events_of(i, EventKind::Flush).collect();
                let mut dirties: Vec<usize> = self.writes(i).collect();
                for (at, g) in self.calls(i) {
                    if self.terminal_flush_name(g) {
                        flushes.push(at);
                    } else if self.writes_any_name(g) {
                        dirties.push(at);
                    }
                }
                let ok = match (flushes.iter().max(), dirties.iter().max()) {
                    (Some(f), Some(d)) => f > d,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if ok {
                    self.terminal_flush[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Phase 2 (monotone ↑): can a write escape this function unflushed?
        loop {
            let mut changed = false;
            for i in 0..n {
                if self.leaves_unflushed[i] {
                    continue;
                }
                let flushes = self.flush_points(i);
                let escapes = self
                    .dirty_points(i)
                    .iter()
                    .any(|&(at, _)| !flushes.iter().any(|&fl| fl > at));
                if escapes {
                    self.leaves_unflushed[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Reachability facts (monotone ↑).
        loop {
            let mut changed = false;
            for i in 0..n {
                if !self.bumps_epoch[i] {
                    let hit = self.events_of(i, EventKind::EpochBump).next().is_some()
                        || self.calls(i).any(|(_, g)| self.bumps_epoch_name(g));
                    if hit {
                        self.bumps_epoch[i] = true;
                        changed = true;
                    }
                }
                if !self.crashes[i] {
                    let hit = self.events_of(i, EventKind::SimCrash).next().is_some()
                        || self.calls(i).any(|(_, g)| self.crashes_name(g));
                    if hit {
                        self.crashes[i] = true;
                        changed = true;
                    }
                }
                if !self.fences[i] {
                    let hit = self.events_of(i, EventKind::Fence).next().is_some()
                        || self.calls(i).any(|(_, g)| self.fences_name(g));
                    if hit {
                        self.fences[i] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.compute_covered();
        self.compute_crash_covered();
    }

    /// All call sites of `name` in non-test functions — `Call` events,
    /// plus every pmem write token for the delegation-wrapper names.
    fn persist_sites(&self, name: &str) -> Vec<(usize, usize)> {
        let mut sites = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for (at, g) in self.calls(i) {
                if g == name {
                    sites.push((i, at));
                }
            }
            if WRITE_WRAPPER_NAMES.contains(&name) {
                sites.extend(self.writes(i).map(|at| (i, at)));
            }
        }
        sites
    }

    /// Greatest fixpoint: `covered[name]` = every non-test call site of
    /// `name` is followed by a flush point in its caller, or the caller is
    /// itself covered. Seeded optimistically with every name that has at
    /// least one non-test site, then refuted until stable.
    fn compute_covered(&mut self) {
        let names: HashSet<String> = self
            .fns
            .iter()
            .filter(|f| self.defs(&f.name).iter().any(|&i| self.leaves_unflushed[i]))
            .map(|f| f.name.clone())
            .collect();
        let mut sites: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for name in &names {
            sites.insert(name.clone(), self.persist_sites(name));
        }
        let mut covered: HashMap<String, usize> = sites
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(n, s)| (n.clone(), s.len()))
            .collect();
        loop {
            let mut remove: Vec<String> = Vec::new();
            for name in covered.keys() {
                let refuted = sites[name].iter().any(|&(i, at)| {
                    let flushed = self.flush_points(i).iter().any(|&fl| fl > at);
                    !flushed && !covered.contains_key(&self.fns[i].name)
                });
                if refuted {
                    remove.push(name.clone());
                }
            }
            if remove.is_empty() {
                break;
            }
            for name in remove {
                covered.remove(&name);
            }
        }
        self.covered = covered;
    }

    /// Does the test function `i` demonstrate recovery after the crash
    /// point at byte `at`? Either a recovery assertion on/after the call
    /// line (line start matters so `assert!(tear_slot(..))` counts), or
    /// any later call to a non-crashing function — the first pmem touch
    /// after a simulated crash runs recovery validation, so exercising
    /// the API afterwards is itself the recovery test.
    fn site_recovers(&self, i: usize, at: usize) -> bool {
        let from = self.infos[self.fns[i].file].lines.line_start(at);
        self.events_of(i, EventKind::RecoveryAssert)
            .any(|p| p >= from)
            || self.calls(i).any(|(p, g)| p > at && !self.crashes_name(g))
    }

    /// Greatest fixpoint over *test* call sites: a crash helper is covered
    /// when every test that calls it asserts or exercises recovery after
    /// the call (see [`Self::site_recovers`]).
    fn compute_crash_covered(&mut self) {
        let names: HashSet<String> = self
            .fns
            .iter()
            .filter(|f| self.defs(&f.name).iter().any(|&i| self.crashes[i]))
            .map(|f| f.name.clone())
            .collect();
        let mut sites: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for name in &names {
            let mut v = Vec::new();
            for (i, f) in self.fns.iter().enumerate() {
                if !f.is_test {
                    continue;
                }
                for (at, g) in self.calls(i) {
                    if g == *name {
                        v.push((i, at));
                    }
                }
            }
            sites.insert(name.clone(), v);
        }
        let mut covered: HashMap<String, usize> = sites
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(n, s)| (n.clone(), s.len()))
            .collect();
        loop {
            let mut remove: Vec<String> = Vec::new();
            for name in covered.keys() {
                let refuted = sites[name].iter().any(|&(i, at)| {
                    !self.site_recovers(i, at) && !covered.contains_key(&self.fns[i].name)
                });
                if refuted {
                    remove.push(name.clone());
                }
            }
            if remove.is_empty() {
                break;
            }
            for name in remove {
                covered.remove(&name);
            }
        }
        self.crash_covered = covered;
    }

    // ---- PMS01/PMS02/PMS05 ------------------------------------------------

    /// The persist-ordering findings, with those a caller proof discharges
    /// split off and paired with the proof text. A direct pmem write and a
    /// call that may leave writes unflushed are both dirty points. Only a
    /// flush token of the same function closes a direct write: a callee
    /// that ends flushed has flushed its own range, not the caller's. A
    /// dirty call is closed by a flush token or a call that ends flushed.
    ///
    /// * **PMS01** — the last direct write has no flush token after it
    ///   (pmem-touching files only), or else the last dirty point is a call
    ///   with no flush point after it. Discharged when every caller
    ///   persists after the call.
    /// * **PMS02** — before a publish CAS, the nearest direct write has no
    ///   flush token in between (pmem-touching files only), or the nearest
    ///   dirty point is a call with no flush point in between.
    /// * **PMS05** (test code) — the last `simulate_crash*` token has no
    ///   recovery assertion on or after it (discharged when every test
    ///   caller asserts recovery after the call), or the last crash point
    ///   is a crash-helper call that no recovery assertion or later API
    ///   call follows.
    pub(crate) fn persist_findings(&self) -> (Vec<Finding>, Vec<(Finding, String)>) {
        let mut findings = Vec::new();
        let mut proven = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            let info = &self.infos[f.file];
            let mut push = |rule, at, message, proof: Option<String>| {
                let finding = Finding {
                    rule,
                    file: info.rel.clone(),
                    line: info.lines.line(at),
                    function: f.name.clone(),
                    message,
                };
                match proof {
                    Some(p) => proven.push((finding, p)),
                    None => findings.push(finding),
                }
            };
            if f.is_test {
                let last_crash = self.events_of(i, EventKind::SimCrash).last();
                if let Some(at) = last_crash {
                    if !self
                        .events_of(i, EventKind::RecoveryAssert)
                        .any(|p| p >= at)
                    {
                        push(
                            "PMS05",
                            at,
                            "simulate_crash with no recovery/assertion afterwards — the test \
                             proves nothing about durability"
                                .to_string(),
                            self.caller_asserts(&f.name),
                        );
                    }
                }
                let helper = self.calls(i).filter(|(_, g)| self.crashes_name(g)).last();
                if let Some((at, g)) = helper {
                    if last_crash.is_none_or(|c| c <= at) && !self.site_recovers(i, at) {
                        push(
                            "PMS05",
                            at,
                            format!(
                                "test calls crash helper `{g}` but never recovers or asserts \
                                 afterwards (interprocedural)"
                            ),
                            None,
                        );
                    }
                }
                continue;
            }
            let writes: Vec<usize> = if info.touches_pmem {
                self.writes(i).collect()
            } else {
                Vec::new()
            };
            let tokens: Vec<usize> = self.events_of(i, EventKind::Flush).collect();
            let dirty = self.dirty_points(i);
            let flushes = self.flush_points(i);
            let flushed = |pts: &[usize], from: usize, until: usize| {
                pts.iter().any(|&fl| from < fl && fl < until)
            };
            // The direct write, else the dirty call, still open at `until`.
            let open_at = |until: usize| match writes.iter().rev().find(|&&w| w < until) {
                Some(&w) if !flushed(&tokens, w, until) => Some((w, None)),
                _ => match dirty.iter().rev().find(|&&(at, _)| at < until) {
                    Some(&(at, Some(g))) if !flushed(&flushes, at, until) => Some((at, Some(g))),
                    _ => None,
                },
            };
            if let Some((at, callee)) = open_at(usize::MAX) {
                let message = match callee {
                    None => "pmem write with no flush/persist/fence before function exit \
                             (if the caller persists, allowlist this site with that reason)"
                        .to_string(),
                    Some(g) => format!(
                        "call to `{g}` may leave pmem writes unflushed and no flush/persist \
                         follows before function exit (interprocedural)"
                    ),
                };
                push("PMS01", at, message, self.caller_persists(&f.name));
            }
            let cut = self.first_exempt[i];
            for q in self
                .events_of(i, EventKind::PublishCas)
                .filter(|&q| q < cut)
            {
                let Some((_, callee)) = open_at(q) else {
                    continue;
                };
                let message = match callee {
                    None => "publish CAS with an unflushed pmem write earlier in this function \
                             (insert persist/sfence, or exempt_scope a volatile word)"
                        .to_string(),
                    Some(g) => format!(
                        "publish CAS while the earlier call to `{g}` may have left pmem writes \
                         unflushed (interprocedural)"
                    ),
                };
                push("PMS02", q, message, None);
            }
        }
        (findings, proven)
    }

    /// If `function`'s PMS01 finding is discharged by the caller proof,
    /// the human-readable proof text.
    fn caller_persists(&self, function: &str) -> Option<String> {
        self.covered.get(function).map(|n| {
            format!(
                "call-graph proof: all {n} non-test call sites of `{function}` \
                 reach a flush/persist point afterwards"
            )
        })
    }

    /// If `function`'s PMS05 finding is discharged by the caller proof,
    /// the human-readable proof text.
    fn caller_asserts(&self, function: &str) -> Option<String> {
        self.crash_covered.get(function).map(|n| {
            format!(
                "call-graph proof: all {n} test call sites of `{function}` \
                 assert or exercise recovery after the call"
            )
        })
    }

    pub fn infos(&self) -> &[FileInfo] {
        self.infos
    }

    pub fn fns(&self) -> &[FnSummary] {
        self.fns
    }

    pub(crate) fn events(&self, i: usize) -> &[Event] {
        &self.fns[i].events
    }
}
