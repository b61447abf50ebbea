//! pmcheck — static persist-ordering lint for the pmem workspace.
//!
//! The dynamic detector in `pmem::check` (PMD rules) watches persist
//! ordering at runtime; this crate is its static companion: a
//! dependency-free token pass over comment/string-stripped Rust source that
//! flags the anti-patterns the thesis's durability argument forbids,
//! *before* any test runs. It is deliberately not a type-aware analysis —
//! `syn` is unavailable in the offline build — so every rule is a
//! conservative textual pattern with a checked-in allowlist
//! ([`Allowlist`], `pmcheck.toml` at the workspace root) for the sites
//! that are correct for reasons the scanner cannot see.
//!
//! Rules (`PMS` = persist-ordering, static):
//!
//! | id    | pattern |
//! |-------|---------|
//! | PMS01 | pmem `write`/`write_slice`/`fetch_add` with no reachable flush/persist/fence before function exit |
//! | PMS02 | publish CAS (`.cas(` / `.pmwcas(`) with an unflushed preceding write in the same function |
//! | PMS03 | `compare_exchange*` whose *success* ordering is `Relaxed` |
//! | PMS04 | raw RIV offset arithmetic (`.raw() +`, `from_raw(a + b)`) outside the `riv` crate |
//! | PMS05 | test calls `simulate_crash*` but never recovers/asserts afterwards |
//! | PMS07 | `exempt_scope("tag")` with a tag not sanctioned in `pmcheck.toml` |
//! | PMS08 | Release-published atomic loaded `Relaxed` in a persist-affecting function |
//! | PMS09 | tombstoning `update` with no reachable `StructureEpoch` bump before unlock |
//! | PMS10 | inconsistent lock-acquisition order across `crates/service` |
//! | PMS11 | volatile cache (allocator magazine) written before the publish CAS |
//! | PMS12 | explicit fence inside an open `FlushEpoch` (the prepare phase must defer to the sweep) |
//!
//! PMS01/02/03/04 apply to non-test code only (crash tests legitimately
//! leave writes unflushed); PMS05 applies to test code only; PMS07
//! applies everywhere except inside test functions (test files, `#[test]`
//! functions and the file's test module).
//!
//! One pass: [`lint_sources`] strips and splits each file once into
//! per-function event summaries plus the file-level PMS03/04/07 sites
//! ([`summary`]), runs a call-graph fixpoint over them ([`callgraph`]) and
//! derives every rule from that. PMS01/02/05 are *interprocedural*: a
//! direct write and a call that may leave writes unflushed are both dirty
//! points, a finding whose persist/assert obligation every caller provably
//! meets is printed as "proven" instead of allowlisted, and obligations
//! that escape through call boundaries are reported at the call.
//! PMS03/04/07 and PMS08–12 live in [`rules`]; PMS12 consumes the call
//! graph's `fences` reachability fact, so a fence buried two calls deep
//! inside an open epoch is still caught.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod rules;
pub mod summary;

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// One static-lint hit. `file` is workspace-relative with `/` separators.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub function: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [fn {}] {}",
            self.file, self.line, self.rule, self.function, self.message
        )
    }
}

/// `(id, summary)` for every static rule, in id order.
pub const RULES: &[(&str, &str)] = &[
    (
        "PMS01",
        "pmem write with no reachable flush/persist before function exit",
    ),
    (
        "PMS02",
        "publish CAS with an unflushed preceding write in the same function",
    ),
    ("PMS03", "compare_exchange with Relaxed success ordering"),
    ("PMS04", "raw RIV offset arithmetic outside riv helpers"),
    (
        "PMS05",
        "simulate_crash in a test without a recovery assertion",
    ),
    ("PMS07", "exempt_scope tag not sanctioned in pmcheck.toml"),
    (
        "PMS08",
        "Release-published atomic loaded Relaxed in a persist-affecting function",
    ),
    (
        "PMS09",
        "tombstoning update with no StructureEpoch bump before unlock",
    ),
    (
        "PMS10",
        "inconsistent lock-acquisition order in crates/service",
    ),
    (
        "PMS11",
        "volatile cache written before the persistent commit point",
    ),
    (
        "PMS12",
        "explicit fence inside an open flush epoch (defer to the sweep)",
    ),
];

// ---------------------------------------------------------------------------
// Allowlist (pmcheck.toml, hand-parsed TOML subset)
// ---------------------------------------------------------------------------

/// One `[[allow]]` entry: suppresses `rule` findings in files whose
/// workspace-relative path ends with `path` (optionally restricted to one
/// function). Every entry must carry a human-readable `reason`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub function: Option<String>,
    pub reason: String,
}

/// One `[[exempt]]` entry: a sanctioned dynamic-detector exemption tag
/// (the string passed to `pmem::exempt_scope`). The static lint (PMS07)
/// and the runtime tag audit both validate against this set.
#[derive(Debug, Clone)]
pub struct ExemptTag {
    pub tag: String,
    pub reason: String,
}

/// Parsed `pmcheck.toml`.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    pub allows: Vec<AllowEntry>,
    pub exempts: Vec<ExemptTag>,
}

impl Allowlist {
    /// Parse the TOML subset used by `pmcheck.toml`: `[[allow]]` /
    /// `[[exempt]]` tables with `key = "value"` string pairs and `#`
    /// comments. Anything else is an error — the file is checked in and
    /// small, so strictness beats leniency.
    pub fn parse(text: &str) -> Result<Self, String> {
        enum Section {
            None,
            Allow(AllowEntry),
            Exempt(ExemptTag),
        }
        let mut out = Allowlist::default();
        let mut cur = Section::None;
        let flush = |cur: &mut Section, out: &mut Allowlist| -> Result<(), String> {
            match std::mem::replace(cur, Section::None) {
                Section::None => Ok(()),
                Section::Allow(a) => {
                    if a.rule.is_empty() || a.path.is_empty() || a.reason.is_empty() {
                        return Err(format!(
                            "[[allow]] entry needs rule, path and reason (got {a:?})"
                        ));
                    }
                    out.allows.push(a);
                    Ok(())
                }
                Section::Exempt(e) => {
                    if e.tag.is_empty() || e.reason.is_empty() {
                        return Err(format!("[[exempt]] entry needs tag and reason (got {e:?})"));
                    }
                    out.exempts.push(e);
                    Ok(())
                }
            }
        };
        for (n, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                // `#` only starts a comment outside strings; keys/values in
                // this file never contain `#` inside quotes except reasons —
                // strip comments only when the `#` is not inside quotes.
                Some(i) if raw[..i].matches('"').count() % 2 == 0 => &raw[..i],
                _ => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                flush(&mut cur, &mut out)?;
                cur = Section::Allow(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    function: None,
                    reason: String::new(),
                });
                continue;
            }
            if line == "[[exempt]]" {
                flush(&mut cur, &mut out)?;
                cur = Section::Exempt(ExemptTag {
                    tag: String::new(),
                    reason: String::new(),
                });
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("pmcheck.toml line {}: expected `key = \"value\"`", n + 1)
            })?;
            let key = key.trim();
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| {
                    format!(
                        "pmcheck.toml line {}: value must be a double-quoted string",
                        n + 1
                    )
                })?
                .to_string();
            match (&mut cur, key) {
                (Section::Allow(a), "rule") => a.rule = value,
                (Section::Allow(a), "path") => a.path = value,
                (Section::Allow(a), "function") => a.function = Some(value),
                (Section::Allow(a), "reason") => a.reason = value,
                (Section::Exempt(e), "tag") => e.tag = value,
                (Section::Exempt(e), "reason") => e.reason = value,
                _ => {
                    return Err(format!(
                        "pmcheck.toml line {}: unexpected key `{key}` here",
                        n + 1
                    ))
                }
            }
        }
        flush(&mut cur, &mut out)?;
        Ok(out)
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Walk up from `start` looking for `pmcheck.toml`.
    pub fn find_near(start: &Path) -> Option<PathBuf> {
        let mut dir = Some(start);
        while let Some(d) = dir {
            let cand = d.join("pmcheck.toml");
            if cand.is_file() {
                return Some(cand);
            }
            dir = d.parent();
        }
        None
    }

    /// Load the workspace allowlist by walking up from this crate's
    /// manifest dir (works from any test binary in the workspace). Panics
    /// if `pmcheck.toml` is missing or malformed — tests that consult the
    /// allowlist must fail loudly, not silently run unexempted.
    pub fn workspace() -> Self {
        let start = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let path = Self::find_near(&start).expect("pmcheck.toml not found above pmcheck crate");
        Self::load(&path).expect("pmcheck.toml must parse")
    }

    /// The entry permitting `f`, if any. Paths match by suffix so entries
    /// stay stable regardless of where the workspace is checked out.
    pub fn permits(&self, f: &Finding) -> Option<&AllowEntry> {
        self.allows.iter().find(|a| {
            a.rule == f.rule
                && f.file.ends_with(&a.path)
                && a.function.as_deref().is_none_or(|func| func == f.function)
        })
    }

    pub fn exempt_tag(&self, tag: &str) -> Option<&ExemptTag> {
        self.exempts.iter().find(|e| e.tag == tag)
    }

    pub fn exempt_tags(&self) -> Vec<&str> {
        self.exempts.iter().map(|e| e.tag.as_str()).collect()
    }
}

// ---------------------------------------------------------------------------
// Source preparation
// ---------------------------------------------------------------------------

/// Blank out comments (and, unless `keep_strings`, string/char literals)
/// with spaces, preserving byte length and newlines so byte offsets map
/// 1:1 to the original source. Handles nested block comments, raw strings
/// (`r"..."`, `r#"..."#`), escapes, and lifetimes-vs-char-literals.
pub fn strip_source(src: &str, keep_strings: bool) -> String {
    let b = src.as_bytes();
    let mut out = src.as_bytes().to_vec();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for c in &mut out[from..to] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(b.len(), |j| i + j);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                // A trailing `"\` can step past the end; clamp before
                // blanking so malformed input cannot panic the lint.
                i = i.min(b.len());
                if !keep_strings {
                    blank(&mut out, start + 1, i.saturating_sub(1).max(start + 1));
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Possible raw string: r", r#", r##"... (also matches the
                // identifier `r` followed by `#`, which doesn't occur).
                let mut hashes = 0;
                let mut j = i + 1;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    let start = i;
                    let mut close = String::from("\"");
                    close.push_str(&"#".repeat(hashes));
                    let body_from = j + 1;
                    let end = src[body_from..]
                        .find(&close)
                        .map_or(b.len(), |k| body_from + k + close.len());
                    if !keep_strings {
                        blank(&mut out, start, end);
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a char literal closes within a
                // few bytes (`'x'`, `'\n'`, `'\u{1F4A9}'`); a lifetime never
                // has a closing quote before a non-ident char.
                let rest = &b[i + 1..];
                let close = if rest.first() == Some(&b'\\') {
                    // The escaped character sits at i + 2, so the closing
                    // quote search must start at i + 3 — searching from
                    // i + 2 would let `'\''` "close" on its own escaped
                    // quote and leave the real terminator to poison the
                    // rest of the scan as a bogus literal/lifetime.
                    if i + 3 <= b.len() {
                        src[i + 3..].find('\'').map(|j| i + 3 + j)
                    } else {
                        None
                    }
                } else if rest.len() >= 2 && rest[1] == b'\'' {
                    Some(i + 2)
                } else {
                    None
                };
                match close {
                    Some(c) if c < i + 16 => {
                        if !keep_strings {
                            blank(&mut out, i + 1, c);
                        }
                        i = c + 1;
                    }
                    _ => i += 1, // lifetime
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking ASCII bytes preserves UTF-8")
}

/// Precomputed newline offsets for byte → 1-based line lookup.
pub struct LineMap(Vec<usize>);

impl LineMap {
    pub fn new(src: &str) -> Self {
        LineMap(
            src.bytes()
                .enumerate()
                .filter_map(|(i, c)| (c == b'\n').then_some(i))
                .collect(),
        )
    }
    pub fn line(&self, byte: usize) -> usize {
        self.0.partition_point(|&n| n < byte) + 1
    }

    /// Byte offset where the line containing `byte` starts.
    pub fn line_start(&self, byte: usize) -> usize {
        let i = self.0.partition_point(|&n| n < byte);
        if i == 0 {
            0
        } else {
            self.0[i - 1] + 1
        }
    }
}

/// One `fn` item found in stripped source. `body` is the byte span of the
/// braces (inclusive of `{`, exclusive past `}`).
#[derive(Debug)]
pub struct FnSpan {
    pub name: String,
    pub sig_start: usize,
    pub body: std::ops::Range<usize>,
    pub is_test: bool,
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Split stripped source into functions by brace matching. `file_is_test`
/// marks every function as test code (files under `tests/`); otherwise a
/// function is test code if it follows a `#[test]`-ish attribute or sits
/// after the attribute that opens the file's test module (the workspace
/// convention puts the test module last).
pub fn split_functions(stripped: &str, file_is_test: bool) -> Vec<FnSpan> {
    let b = stripped.as_bytes();
    let cfg_test_at = stripped.find("#[cfg(test)]").unwrap_or(usize::MAX);
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(j) = stripped[i..].find("fn ") {
        let at = i + j;
        i = at + 3;
        if at > 0 && is_ident(b[at - 1]) {
            continue; // `often `, `scan_fn ` etc.
        }
        let name_start = at + 3;
        let mut k = name_start;
        while k < b.len() && is_ident(b[k]) {
            k += 1;
        }
        let name: String = stripped[name_start..k].to_string();
        if name.is_empty() {
            continue;
        }
        // Body = first `{` after the signature *at bracket depth 0*,
        // brace-matched. A depth-0 `;` before any `{` means a bodyless
        // decl (trait method, extern); a `;` inside brackets is an array
        // type like `[RivPtr; MAX_HEIGHT]` and must not end the scan —
        // treating it as one made every function with an array parameter
        // invisible to the whole lint.
        let mut open = usize::MAX;
        let mut depth = 0usize;
        for (off, c) in stripped[k..].bytes().enumerate() {
            match c {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => {
                    open = k + off;
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
        }
        if open == usize::MAX {
            continue;
        }
        let mut depth = 0usize;
        let mut end = open;
        for (off, c) in stripped[open..].bytes().enumerate() {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + off + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let attr_window = &stripped[at.saturating_sub(200)..at];
        let is_test = file_is_test
            || at > cfg_test_at
            || attr_window.contains("#[test]")
            || attr_window.contains("#[should_panic");
        out.push(FnSpan {
            name,
            sig_start: at,
            body: open..end,
            is_test,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// Result of the interprocedural lint over a set of sources.
pub struct SourceLint {
    /// Findings that survived the call-graph pass (pre-allowlist).
    pub findings: Vec<Finding>,
    /// Findings *discharged* by a call-graph proof, paired with the proof
    /// text.
    pub proven: Vec<(Finding, String)>,
}

/// Lint a set of `(workspace-relative path, source)` pairs as one program:
/// summarize every file once, run the call-graph fixpoint, then derive
/// PMS01/02/05 (discharging those a caller proof covers) and the
/// summary-level rules PMS03/04/07–12 from it. Findings are deduplicated
/// by `(rule, file, line)` and sorted.
pub fn lint_sources(files: &[(String, String)], allow: &Allowlist) -> SourceLint {
    let (infos, fns) = summary::summarize_all(files);
    let analysis = callgraph::Analysis::build(&infos, &fns);
    let (mut findings, proven) = analysis.persist_findings();
    findings.extend(rules::check(&analysis, allow));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    SourceLint { findings, proven }
}

/// Result of linting the whole workspace.
pub struct LintReport {
    /// Findings not covered by the allowlist — these fail the build.
    pub violations: Vec<Finding>,
    /// Findings suppressed by an allowlist entry.
    pub allowed: Vec<(Finding, String)>,
    /// Findings discharged by the interprocedural pass (with proof text).
    pub proven: Vec<(Finding, String)>,
    /// Allowlist entries that matched nothing (stale; `--deny-stale`
    /// promotes these to hard errors).
    pub stale_allows: Vec<AllowEntry>,
    /// Files scanned.
    pub files: usize,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rust_files(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Lint every `.rs` file under `root/crates`, filtered through the
/// allowlist at `root/pmcheck.toml` (empty allowlist if absent).
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let allow = match Allowlist::find_near(root) {
        Some(p) if p.parent() == Some(root) || p.starts_with(root) => Allowlist::load(&p)?,
        _ => {
            let local = root.join("pmcheck.toml");
            if local.is_file() {
                Allowlist::load(&local)?
            } else {
                Allowlist::default()
            }
        }
    };
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        sources.push((rel, src));
    }
    let lint = lint_sources(&sources, &allow);
    let mut report = LintReport {
        violations: Vec::new(),
        allowed: Vec::new(),
        proven: lint.proven,
        stale_allows: Vec::new(),
        files: sources.len(),
    };
    let mut used = vec![false; allow.allows.len()];
    for f in lint.findings {
        match allow.permits(&f) {
            Some(entry) => {
                let idx = allow
                    .allows
                    .iter()
                    .position(|a| std::ptr::eq(a, entry))
                    .unwrap();
                used[idx] = true;
                report.allowed.push((f, entry.reason.clone()));
            }
            None => report.violations.push(f),
        }
    }
    for (i, entry) in allow.allows.iter().enumerate() {
        if !used[i] {
            report.stale_allows.push(entry.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_preserves_length_and_newlines() {
        let src = "fn a() { // c\n  let s = \"x\\\"y\"; /* b\n b */ 'q'; 'a: loop {} }\n";
        let out = strip_source(src, false);
        assert_eq!(out.len(), src.len());
        assert_eq!(
            out.matches('\n').count(),
            src.matches('\n').count(),
            "newlines preserved"
        );
        assert!(!out.contains("c\n  "), "line comment blanked");
        assert!(!out.contains("x\\"), "string body blanked");
        assert!(out.contains("'a: loop"), "lifetime untouched");
    }

    #[test]
    fn allowlist_roundtrip() {
        let toml = r#"
# header comment
[[allow]]
rule = "PMS01"
path = "crates/x/src/a.rs"
function = "helper"
reason = "caller persists"

[[exempt]]
tag = "node-lock-word"
reason = "volatile lock word"
"#;
        let a = Allowlist::parse(toml).unwrap();
        assert_eq!(a.allows.len(), 1);
        assert_eq!(a.exempts.len(), 1);
        assert!(a.exempt_tag("node-lock-word").is_some());
        let f = Finding {
            rule: "PMS01",
            file: "crates/x/src/a.rs".into(),
            line: 3,
            function: "helper".into(),
            message: String::new(),
        };
        assert!(a.permits(&f).is_some());
        let other = Finding {
            function: "other".into(),
            ..f
        };
        assert!(a.permits(&other).is_none());
    }

    #[test]
    fn allowlist_rejects_incomplete_entries() {
        assert!(Allowlist::parse("[[allow]]\nrule = \"PMS01\"\n").is_err());
        assert!(Allowlist::parse("[[exempt]]\ntag = \"x\"\n").is_err());
        assert!(Allowlist::parse("rule = unquoted\n").is_err());
    }
}
