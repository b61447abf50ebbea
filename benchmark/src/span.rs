//! In-memory spans recorded by the harness around its calls into each
//! layer (the program itself is not instrumented). Kept in a `Vec` per
//! thread and written out when the run ends.

use std::sync::OnceLock;
use std::time::Instant;

use crate::json::{obj, Json};

/// Nanoseconds since the first call in this process: one clock for every
/// span, sample and due time.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request (or one list operation) share this.
    pub request: u64,
}

#[derive(Debug, Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Record a finished span and return its index for children to name.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children of one parent are calls made one
/// after another on one thread, so they do not overlap each other; each
/// is clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let start = s.start_ns.max(p.start_ns);
        let end = s.end_ns.min(p.end_ns);
        covered[s.parent as usize] += end.saturating_sub(start);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Self times of every span called `name`, unsorted.
pub fn self_times_of(spans: &[Span], name: &str) -> Vec<u64> {
    self_times(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t)
        .collect()
}

/// Median self time, in nanoseconds, of the spans called `name`.
pub fn median_self_ns(spans: &[Span], name: &str) -> Option<f64> {
    let ns: Vec<f64> = self_times_of(spans, name)
        .into_iter()
        .map(|n| n as f64)
        .collect();
    crate::stats::median(&ns)
}

/// The trace file keeps the first spans of a run: enough to read a
/// request's anatomy, small enough to open.
const MAX_SPANS_WRITTEN: usize = 20_000;

pub fn to_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .take(MAX_SPANS_WRITTEN)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(s.parent as f64)
                        },
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::default();
        let req = r.push("request", 100, 1100, NO_PARENT, 7);
        r.push("service.submit", 100, 300, req, 7);
        let wait = r.push("service.wait", 600, 1000, req, 7);
        // A grandchild is charged to its own parent only.
        r.push("inner", 700, 800, wait, 7);
        assert_eq!(self_times(&r.spans), vec![1000 - 200 - 400, 200, 300, 100]);
        assert_eq!(self_times_of(&r.spans, "service.wait"), vec![300]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let mut r = Recorder::default();
        let p = r.push("op", 100, 200, NO_PARENT, 0);
        // Started before and ended after the parent: covers all of it.
        r.push("call", 50, 400, p, 0);
        assert_eq!(self_times(&r.spans)[0], 0);
        // Entirely outside: covers none of it.
        let q = r.push("op", 500, 600, NO_PARENT, 1);
        r.push("call", 700, 800, q, 1);
        assert_eq!(self_times(&r.spans)[2], 100);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Recorder::default();
        a.push("op", 0, 10, NO_PARENT, 0);
        let mut b = Recorder::default();
        let p = b.push("op", 0, 10, NO_PARENT, 1);
        b.push("call", 2, 5, p, 1);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[1].parent, NO_PARENT);
        assert_eq!(self_times(&a.spans), vec![10, 7, 3]);
    }
}
