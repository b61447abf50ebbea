//! Per-function event summaries — the one parse of the lint.
//!
//! [`summarize_all`] strips and splits every source file once and reduces
//! it to an ordered list of [`Event`]s per function: pmem writes,
//! flushes/persists/fences, publish CASes, calls (by bare callee name),
//! lock acquire/release tokens, `StructureEpoch` bumps, volatile-cache
//! writes, crash simulations and recovery assertions, plus the atomic
//! store/load orderings PMS08 pairs up. The file-level rules PMS03/04/07
//! get sites instead, scanned over the whole file so one outside any `fn`
//! body (a `static` initializer, a macro body) is still seen. A nested
//! `fn` item is a function of its own: its events are not its enclosing
//! function's. The summaries stay at the token level — no types, no
//! control flow — so an event's position is its byte offset, and "A
//! before B" means "A's token appears earlier".

use std::ops::Range;

use crate::{is_ident, split_functions, strip_source, FnSpan, LineMap};

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
    /// A tombstoning marker for PMS09: `update(.., TOMBSTONE)`.
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

/// Per-file context: `file:line` lookup, the rule gates that depend on the
/// whole file, and the file-level rule sites.
pub struct FileInfo {
    pub rel: String,
    pub lines: LineMap,
    /// The file mentions `pmem`, `RivPtr` or `RivSpace`: only then do
    /// direct writes raise PMS01/PMS02 and raw RIV arithmetic PMS04.
    pub(crate) touches_pmem: bool,
    /// PMS03/04/07 candidates outside test functions.
    pub(crate) sites: Vec<Site>,
}

/// A token a file-level rule judges on its own, owned by the innermost
/// enclosing function (`<top-level>` outside any `fn` body).
#[derive(Debug)]
pub(crate) struct Site {
    pub(crate) at: usize,
    pub(crate) function: String,
    pub(crate) kind: SiteKind,
}

#[derive(Debug)]
pub(crate) enum SiteKind {
    /// `compare_exchange*` with `Relaxed` success ordering (PMS03).
    RelaxedCas,
    /// `.raw()` followed by `+`, `-`, `<<` or `>>` (PMS04).
    RawArith,
    /// `from_raw(..)` whose argument is computed offset arithmetic (PMS04).
    FromRawArith,
    /// `exempt_scope("tag")`, with the tag read from the original source
    /// (PMS07).
    ExemptTag(String),
}

/// Byte offsets of every occurrence of `needle` in `hay[range]`.
fn occurrences(hay: &str, range: Range<usize>, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = range.start;
    while let Some(j) = hay[i..range.end].find(needle) {
        out.push(i + j);
        i = i + j + needle.len();
    }
    out
}

const WRITE_TOKENS: &[&str] = &[".write(", ".write_slice(", ".fetch_add("];
const FLUSH_TOKENS: &[&str] = &[
    ".persist(",
    ".flush(",
    ".flush_range(",
    // CLWB with declared-deferred durability (`Pool::flush_deferred`): a
    // write-back like `.flush_range(`, whatever fence it ends up riding.
    ".flush_deferred(",
    "sfence(",
    "persist_line",
    "mark_all_persisted",
    ".commit(",
    ".sweep(",
];
const CAS_TOKENS: &[&str] = &[".cas(", ".pmwcas("];
const RECOVERY_TOKENS: &[&str] = &[
    "recover",
    "assert",
    "verify",
    "check_invariants",
    "read_persisted",
];

/// The argument list of the call opening at `open` (the `(`), split at
/// top-level commas. Returns `None` if the parens never close.
fn call_args(stripped: &str, open: usize) -> Option<Vec<&str>> {
    let b = stripped.as_bytes();
    debug_assert_eq!(b[open], b'(');
    let mut depth = 0usize;
    let mut args = Vec::new();
    let mut arg_start = open + 1;
    for (off, c) in stripped[open..].bytes().enumerate() {
        let at = open + off;
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    args.push(&stripped[arg_start..at]);
                    return Some(args);
                }
            }
            b',' if depth == 1 => {
                args.push(&stripped[arg_start..at]);
                arg_start = at + 1;
            }
            _ => {}
        }
    }
    None
}

/// True if `expr` contains offset arithmetic at paren depth 0 (nested
/// calls like `pool.read(slot + 2)` don't count — the arithmetic there is
/// on a plain `u64`, not on the RIV word itself).
fn top_level_arith(expr: &str) -> bool {
    let mut depth = 0usize;
    let b = expr.as_bytes();
    for (i, c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'+' | b'-' if depth == 0 => {
                // Skip `->` (can't appear in an expression) and unary minus
                // on a literal start.
                if *c == b'-' && b.get(i + 1) == Some(&b'>') {
                    continue;
                }
                return true;
            }
            b'<' | b'>' if depth == 0 && b.get(i + 1) == Some(c) => return true, // << >>
            _ => {}
        }
    }
    false
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

        // Writes (pmem-shaped).
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
            }
        }
        // Plain token markers: every occurrence is one event.
        let markers: [(&[&str], EventKind); 11] = [
            (FLUSH_TOKENS, EventKind::Flush),
            (FENCE_TOKENS, EventKind::Fence),
            (&["FlushEpoch::open("], EventKind::EpochOpen),
            (&[".sweep("], EventKind::EpochSweep),
            (CAS_TOKENS, EventKind::PublishCas),
            (&["exempt_scope("], EventKind::ExemptScope),
            (&["simulate_crash"], EventKind::SimCrash),
            (RECOVERY_TOKENS, EventKind::RecoveryAssert),
            (&["invalidate_structure(", ".bump()"], EventKind::EpochBump),
            (&["unlock("], EventKind::Unlock),
            // Volatile-cache write markers (PMS11): DRAM state that mirrors
            // persistent structure — allocator magazines.
            (
                &["magazine.push(", "magazine.extend("],
                EventKind::CacheWrite,
            ),
        ];
        for (tokens, kind) in markers {
            for t in tokens {
                for at in occurrences(&stripped, body.clone(), t) {
                    events.push(Event {
                        at,
                        kind: kind.clone(),
                    });
                }
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

        // A nested `fn` item has its own summary: its span's events are not
        // the enclosing function's.
        let nested: Vec<Range<usize>> = fns
            .iter()
            .filter(|g| g.sig_start > body.start && g.body.end <= body.end)
            .map(|g| g.sig_start..g.body.end)
            .collect();
        events.retain(|e| !nested.iter().any(|r| r.contains(&e.at)));
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
    let info = FileInfo {
        rel: rel.to_string(),
        lines: LineMap::new(src),
        touches_pmem: src.contains("pmem") || src.contains("RivPtr") || src.contains("RivSpace"),
        sites: file_sites(&stripped, src, &fns),
    };
    (info, out)
}

/// The PMS03/04/07 candidates of one file, each owned by its innermost
/// enclosing function; sites inside test functions are dropped.
fn file_sites(stripped: &str, src: &str, fns: &[FnSpan]) -> Vec<Site> {
    let whole = 0..stripped.len();
    let mut found: Vec<(usize, SiteKind)> = Vec::new();
    for t in ["compare_exchange(", "compare_exchange_weak("] {
        for c in occurrences(stripped, whole.clone(), t) {
            if call_args(stripped, c + t.len() - 1)
                .is_some_and(|a| a.len() >= 3 && a[a.len() - 2].contains("Relaxed"))
            {
                found.push((c, SiteKind::RelaxedCas));
            }
        }
    }
    for r in occurrences(stripped, whole.clone(), ".raw()") {
        let after = stripped[r + ".raw()".len()..].trim_start();
        if after.starts_with('+')
            || (after.starts_with('-') && !after.starts_with("->"))
            || after.starts_with("<<")
            || after.starts_with(">>")
        {
            found.push((r, SiteKind::RawArith));
        }
    }
    for r in occurrences(stripped, whole.clone(), "from_raw(") {
        if call_args(stripped, r + "from_raw".len())
            .is_some_and(|a| a.first().is_some_and(|a| top_level_arith(a)))
        {
            found.push((r, SiteKind::FromRawArith));
        }
    }
    // The call is located in the stripped source (so a mention inside a
    // string or doc comment cannot fire) and the tag text is read back
    // from the original bytes at the same offsets.
    for e in occurrences(stripped, whole, "exempt_scope(\"") {
        let tag_start = e + "exempt_scope(\"".len();
        if let Some(len) = stripped[tag_start..].find('"') {
            let tag = src[tag_start..tag_start + len].to_string();
            found.push((e, SiteKind::ExemptTag(tag)));
        }
    }
    found
        .into_iter()
        .filter_map(|(at, kind)| {
            let owner = fns
                .iter()
                .filter(|f| f.body.contains(&at))
                .min_by_key(|f| f.body.len());
            match owner {
                Some(f) if f.is_test => None,
                _ => Some(Site {
                    at,
                    function: owner.map_or_else(|| "<top-level>".into(), |f| f.name.clone()),
                    kind,
                }),
            }
        })
        .collect()
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
