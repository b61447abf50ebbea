//! Per-function event summaries — the parse layer of the interprocedural
//! pass.
//!
//! [`summarize_all`] reduces every source file to an ordered list of
//! [`Event`]s per function: pmem writes, flushes/persists/fences, publish
//! CASes, calls (by bare callee name), lock acquire/release tokens,
//! `StructureEpoch` bumps, volatile-cache writes, crash simulations and
//! recovery assertions, plus the atomic store/load orderings PMS08 pairs
//! up. The summaries deliberately stay at the same token level as
//! [`lint_file`](crate::lint_file) — no types, no control flow — so the
//! call-graph fixpoint in [`callgraph`](crate::callgraph) inherits the
//! same conservative reading of the source: an event's position is its
//! byte offset, and "A before B" means "A's token appears earlier".

use std::ops::Range;

use crate::{
    call_args, occurrences, split_functions, strip_source, LineMap, CAS_TOKENS, FLUSH_TOKENS,
    RECOVERY_TOKENS, WRITE_TOKENS,
};

/// One summarized action inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A pmem-shaped write (`.write(`/`.write_slice(`/`.fetch_add(` with
    /// ≥ 2 non-`Ordering` args), outside any `exempt_scope`.
    Write,
    /// A flush/persist/fence token (`FLUSH_TOKENS`).
    Flush,
    /// A publish CAS (`.cas(` / `.pmwcas(`).
    PublishCas,
    /// A call to a workspace function, by bare (last-segment) name.
    Call(String),
    /// `exempt_scope(` — writes after this point in the function are
    /// volatile-intent.
    ExemptScope,
    /// Any `simulate_crash*` token.
    SimCrash,
    /// A recovery/assertion token (`RECOVERY_TOKENS`).
    RecoveryAssert,
    /// `invalidate_structure(` or `.bump()` — a `StructureEpoch` bump.
    EpochBump,
    /// A `*unlock(` token (the core rwlock release helpers).
    Unlock,
    /// A persistent-structure mutation marker for PMS09: `update(...,
    /// TOMBSTONE)` or a pmem `fetch_add` over the node split counter.
    StructMutation,
    /// A volatile-cache write marker for PMS11 (allocator magazine
    /// refill).
    CacheWrite,
    /// `<field>.lock()` on a std mutex (emitted for `crates/service/`
    /// files only — the PMS10 lock-hierarchy scope).
    LockAcquire(String),
    /// `<field>.store(.., Release/SeqCst)` or a `compare_exchange` whose
    /// success ordering publishes (Release/AcqRel/SeqCst).
    AtomicReleaseStore(String),
    /// `<field>.load(Ordering::Relaxed)`.
    AtomicRelaxedLoad(String),
    /// `FlushEpoch::open(` — the start of a prepare-then-publish window.
    EpochOpen,
    /// `.sweep(` — the single coalesced fence that closes a flush epoch.
    EpochSweep,
    /// A token that *fences* (`.persist(`, `sfence(`, `.commit(`), as
    /// opposed to a mere CLWB. Emitted in addition to [`EventKind::Flush`]
    /// so PMS01–07 see the same flush points they always did while PMS12
    /// can tell "queued a write-back" apart from "drained the queue".
    Fence,
}

/// An event at a byte offset of the original (length-preserving stripped)
/// source.
#[derive(Debug, Clone)]
pub struct Event {
    pub at: usize,
    pub kind: EventKind,
}

/// One function's summary. `file` indexes into the [`FileInfo`] list
/// returned alongside.
#[derive(Debug)]
pub struct FnSummary {
    pub file: usize,
    pub name: String,
    pub is_test: bool,
    pub sig_start: usize,
    pub body: Range<usize>,
    /// Events sorted by position.
    pub events: Vec<Event>,
}

/// Per-file context for turning event offsets back into `file:line`.
pub struct FileInfo {
    pub rel: String,
    pub lines: LineMap,
}

impl FileInfo {
    /// Byte offset of the start of the line containing `byte` (used to
    /// let `assert!(helper_that_crashes(..))` count as an assertion *at*
    /// the call, not before it).
    pub fn line_start(&self, byte: usize) -> usize {
        self.lines.line_start(byte)
    }
}

/// Call-shaped names the dedicated token scans already classify; they must
/// not double as `Call` events (a `.write(` site is a `Write`, not a call
/// to some fn named `write` — the call graph re-unifies the two for the
/// pmem delegation wrappers explicitly).
const NON_CALL_NAMES: &[&str] = &[
    "write",
    "write_slice",
    "fetch_add",
    "cas",
    "pmwcas",
    "persist",
    "flush",
    "flush_range",
    "flush_deferred",
    "sfence",
    "commit",
    "persist_line",
    "mark_all_persisted",
    "exempt_scope",
    "invalidate_structure",
    "bump",
    "lock",
    "unlock",
    "read_unlock",
    "write_unlock",
    "compare_exchange",
    "compare_exchange_weak",
    "sweep",
];

/// Flush tokens that also *fence*: a `.persist(` drains the pending set
/// with an SFENCE, `sfence(` is the fence itself, and a log `.commit(`
/// persists its entry before returning. `.flush(`/`.flush_range(` are
/// CLWB-only and deliberately absent — queueing write-backs is exactly
/// what a flush epoch's prepare phase is for.
const FENCE_TOKENS: &[&str] = &[".persist(", "sfence(", ".commit("];

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "let", "else", "move", "ref",
    "break", "continue", "where", "impl", "dyn", "fn", "unsafe",
];

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Walk back from `end` (exclusive) over one field/receiver path segment:
/// skips one or more trailing `[..]` index groups, then takes the
/// identifier. Returns `None` if there is none.
fn ident_before(stripped: &str, mut end: usize) -> Option<String> {
    let b = stripped.as_bytes();
    while end > 0 && b[end - 1] == b']' {
        let mut depth = 0usize;
        while end > 0 {
            end -= 1;
            match b[end] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let stop = end;
    let mut start = end;
    while start > 0 && is_ident(b[start - 1]) {
        start -= 1;
    }
    (start < stop).then(|| stripped[start..stop].to_string())
}

fn args_are_atomic(args: &[&str]) -> bool {
    args.iter().any(|a| {
        a.contains("Ordering")
            || a.contains("Relaxed")
            || a.contains("SeqCst")
            || a.contains("Acquire")
            || a.contains("Release")
    })
}

/// Summarize one file into per-function event lists. `file_idx` is the
/// index the produced summaries carry.
pub fn summarize_file(file_idx: usize, rel: &str, src: &str) -> (FileInfo, Vec<FnSummary>) {
    let stripped = strip_source(src, false);
    let file_is_test = rel.contains("/tests/") || rel.contains("/benches/");
    let in_service = rel.starts_with("crates/service/") || rel.contains("/crates/service/");
    let fns = split_functions(&stripped, file_is_test);
    let mut out = Vec::with_capacity(fns.len());
    for f in &fns {
        let mut events: Vec<Event> = Vec::new();
        let body = f.body.clone();

        // Writes (pmem-shaped) — and the PMS09 split-counter marker.
        for t in WRITE_TOKENS {
            for w in occurrences(&stripped, body.clone(), t) {
                let open = w + stripped[w..].find('(').unwrap_or(0);
                let Some(args) = call_args(&stripped, open) else {
                    continue;
                };
                if args.len() < 2 || args_are_atomic(&args) {
                    continue;
                }
                events.push(Event {
                    at: w,
                    kind: EventKind::Write,
                });
                if *t == ".fetch_add(" && args.iter().any(|a| a.contains("N_SPLIT_COUNT")) {
                    events.push(Event {
                        at: w,
                        kind: EventKind::StructMutation,
                    });
                }
            }
        }
        for t in FLUSH_TOKENS {
            for p in occurrences(&stripped, body.clone(), t) {
                events.push(Event {
                    at: p,
                    kind: EventKind::Flush,
                });
            }
        }
        for t in FENCE_TOKENS {
            for p in occurrences(&stripped, body.clone(), t) {
                events.push(Event {
                    at: p,
                    kind: EventKind::Fence,
                });
            }
        }
        for p in occurrences(&stripped, body.clone(), "FlushEpoch::open(") {
            events.push(Event {
                at: p,
                kind: EventKind::EpochOpen,
            });
        }
        for p in occurrences(&stripped, body.clone(), ".sweep(") {
            events.push(Event {
                at: p,
                kind: EventKind::EpochSweep,
            });
        }
        for t in CAS_TOKENS {
            for p in occurrences(&stripped, body.clone(), t) {
                events.push(Event {
                    at: p,
                    kind: EventKind::PublishCas,
                });
            }
        }
        for p in occurrences(&stripped, body.clone(), "exempt_scope(") {
            events.push(Event {
                at: p,
                kind: EventKind::ExemptScope,
            });
        }
        for p in occurrences(&stripped, body.clone(), "simulate_crash") {
            events.push(Event {
                at: p,
                kind: EventKind::SimCrash,
            });
        }
        for t in RECOVERY_TOKENS {
            for p in occurrences(&stripped, body.clone(), t) {
                events.push(Event {
                    at: p,
                    kind: EventKind::RecoveryAssert,
                });
            }
        }
        for p in occurrences(&stripped, body.clone(), "invalidate_structure(") {
            events.push(Event {
                at: p,
                kind: EventKind::EpochBump,
            });
        }
        for p in occurrences(&stripped, body.clone(), ".bump()") {
            events.push(Event {
                at: p,
                kind: EventKind::EpochBump,
            });
        }
        for p in occurrences(&stripped, body.clone(), "unlock(") {
            events.push(Event {
                at: p,
                kind: EventKind::Unlock,
            });
        }
        // Volatile-cache write markers (PMS11): DRAM state that mirrors
        // persistent structure — allocator magazines.
        for t in ["magazine.push(", "magazine.extend("] {
            for p in occurrences(&stripped, body.clone(), t) {
                events.push(Event {
                    at: p,
                    kind: EventKind::CacheWrite,
                });
            }
        }
        if in_service {
            for p in occurrences(&stripped, body.clone(), ".lock()") {
                if let Some(name) = ident_before(&stripped, p) {
                    events.push(Event {
                        at: p,
                        kind: EventKind::LockAcquire(name),
                    });
                }
            }
        }
        // Atomic publishes and their relaxed readers (PMS08).
        for p in occurrences(&stripped, body.clone(), ".store(") {
            if let Some(args) = call_args(&stripped, p + ".store(".len() - 1) {
                if args_are_atomic(&args) {
                    if args
                        .iter()
                        .any(|a| a.contains("Release") || a.contains("SeqCst"))
                    {
                        if let Some(name) = ident_before(&stripped, p) {
                            events.push(Event {
                                at: p,
                                kind: EventKind::AtomicReleaseStore(name),
                            });
                        }
                    }
                    continue;
                }
                // Non-atomic `.store(` is a plain call (e.g. FatPtr::store).
                events.push(Event {
                    at: p,
                    kind: EventKind::Call("store".into()),
                });
            }
        }
        for p in occurrences(&stripped, body.clone(), ".load(") {
            if let Some(args) = call_args(&stripped, p + ".load(".len() - 1) {
                if args_are_atomic(&args) {
                    if args.iter().any(|a| a.contains("Relaxed")) {
                        if let Some(name) = ident_before(&stripped, p) {
                            events.push(Event {
                                at: p,
                                kind: EventKind::AtomicRelaxedLoad(name),
                            });
                        }
                    }
                    continue;
                }
                events.push(Event {
                    at: p,
                    kind: EventKind::Call("load".into()),
                });
            }
        }
        for t in ["compare_exchange(", "compare_exchange_weak("] {
            for p in occurrences(&stripped, body.clone(), t) {
                if let Some(args) = call_args(&stripped, p + t.len() - 1) {
                    if args.len() >= 3 {
                        let success = args[args.len() - 2];
                        if success.contains("Release")
                            || success.contains("AcqRel")
                            || success.contains("SeqCst")
                        {
                            if let Some(name) = ident_before(&stripped, p) {
                                events.push(Event {
                                    at: p,
                                    kind: EventKind::AtomicReleaseStore(name),
                                });
                            }
                        }
                    }
                }
            }
        }

        // Generic calls: every `ident(` that is not a keyword, a macro, a
        // definition, a type/variant constructor, an atomic op, or one of
        // the names the token scans above already classify.
        let bytes = stripped.as_bytes();
        let mut i = body.start;
        while let Some(j) = stripped[i..body.end].find('(') {
            let open = i + j;
            i = open + 1;
            let mut start = open;
            while start > body.start && is_ident(bytes[start - 1]) {
                start -= 1;
            }
            if start == open {
                continue; // `!(`, `)(`, `> (` …
            }
            let name = &stripped[start..open];
            if name.as_bytes()[0].is_ascii_uppercase() || name.as_bytes()[0].is_ascii_digit() {
                continue; // type / enum-variant constructor
            }
            if KEYWORDS.contains(&name) || NON_CALL_NAMES.contains(&name) {
                continue;
            }
            // Definition site: `fn name(` — the preceding token is `fn`.
            let before = stripped[..start].trim_end();
            if before.ends_with("fn") {
                continue;
            }
            // `FlushEpoch::open(` is the dedicated EpochOpen event above,
            // not a call to the (fence-heavy) `UpSkipList::open` recovery
            // path of the same bare name.
            if name == "open" && stripped[..start].ends_with("FlushEpoch::") {
                continue;
            }
            let Some(args) = call_args(&stripped, open) else {
                continue;
            };
            if args_are_atomic(&args) {
                continue; // fetch_or / swap / … on a std atomic
            }
            events.push(Event {
                at: start,
                kind: EventKind::Call(name.to_string()),
            });
            // The PMS09 tombstoning marker: `update(.., TOMBSTONE)`.
            if name == "update" && args.iter().any(|a| a.contains("TOMBSTONE")) {
                events.push(Event {
                    at: start,
                    kind: EventKind::StructMutation,
                });
            }
        }

        events.sort_by_key(|e| e.at);
        out.push(FnSummary {
            file: file_idx,
            name: f.name.clone(),
            is_test: f.is_test,
            sig_start: f.sig_start,
            body: f.body.clone(),
            events,
        });
    }
    (
        FileInfo {
            rel: rel.to_string(),
            lines: LineMap::new(src),
        },
        out,
    )
}

/// Summarize every `(rel, src)` pair. Returns per-file info plus the flat
/// function list the call graph indexes by position.
pub fn summarize_all(files: &[(String, String)]) -> (Vec<FileInfo>, Vec<FnSummary>) {
    let mut infos = Vec::with_capacity(files.len());
    let mut fns = Vec::new();
    for (idx, (rel, src)) in files.iter().enumerate() {
        let (info, mut f) = summarize_file(idx, rel, src);
        infos.push(info);
        fns.append(&mut f);
    }
    (infos, fns)
}
