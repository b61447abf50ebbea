//! The request/response surface of the serving layer.
//!
//! Clients speak [`Request`]/[`Response`]; every submission returns a
//! [`Ticket`] the client waits on (closed-loop) or drops (open-loop — the
//! service still records completion latency and bumps the completion
//! counter when the shard worker fills the ticket).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use obs::{Counter, Histogram, Registry};

use crate::YIELD_BUDGET;

/// One client request. Multi-key requests may span shards; each shard's
/// slice executes atomically on that shard, because the shard's one
/// worker runs it with no other request in between (see the `shard`
/// module). Across shards there is no atomicity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get(u64),
    /// Upsert; responds with the previous value.
    Put(u64, u64),
    /// Tombstone delete; responds with the removed value.
    Delete(u64),
    /// Ordered range scan over the whole key space: up to `limit` live
    /// pairs with keys ≥ `from` (broadcast to every shard and merged).
    Scan { from: u64, limit: usize },
    /// Batched lookup; values come back in input order.
    MultiGet(Vec<u64>),
    /// Batched upsert; previous values come back in input order.
    MultiPut(Vec<(u64, u64)>),
}

/// The reply to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `Get`/`Put`/`Delete`: the (previous) value, if any.
    Value(Option<u64>),
    /// `MultiGet`/`MultiPut`: per-key values in input order.
    Values(Vec<Option<u64>>),
    /// `Scan`: merged `(key, value)` pairs, ascending.
    Entries(Vec<(u64, u64)>),
}

/// The two service-wide metrics every completion records into:
/// `svc.lat.request` (submit → complete latency) and `svc.completed`.
/// Each shard holds one clone and the service one more; the registry
/// hands out one instance per name, so all of them count into the same
/// metric, and no ticket carries a handle.
pub(crate) struct CompletionMetrics {
    pub lat: Arc<Histogram>,
    pub completed: Arc<Counter>,
}

impl CompletionMetrics {
    pub fn new(reg: &Registry) -> Self {
        Self {
            lat: reg.histogram("svc.lat.request"),
            completed: reg.counter("svc.completed"),
        }
    }
}

struct Slot {
    response: Option<Response>,
    /// Set by a waiter, under the slot lock, just before it waits on the
    /// condvar; `complete` signals only when it is set.
    sleeping: bool,
}

pub(crate) struct TicketInner {
    slot: Mutex<Slot>,
    cv: Condvar,
    filled: AtomicBool,
    submitted: Instant,
}

/// The client half of a submitted request.
pub struct Ticket {
    inner: Arc<TicketInner>,
}

/// The service half: fills the ticket exactly once. Cloned across shard
/// sub-tasks by the multi-key aggregators; only the final `complete` call
/// fills the slot.
#[derive(Clone)]
pub(crate) struct Completion {
    inner: Arc<TicketInner>,
}

pub(crate) fn ticket() -> (Ticket, Completion) {
    let inner = Arc::new(TicketInner {
        slot: Mutex::new(Slot {
            response: None,
            sleeping: false,
        }),
        cv: Condvar::new(),
        filled: AtomicBool::new(false),
        submitted: Instant::now(),
    });
    (
        Ticket {
            inner: Arc::clone(&inner),
        },
        Completion { inner },
    )
}

impl Ticket {
    /// Block until the response arrives and take it. Yields a few times
    /// (`YIELD_BUDGET`), polling `filled` without the lock, before it
    /// parks on the ticket's condvar.
    pub fn wait(self) -> Response {
        for _ in 0..YIELD_BUDGET {
            if self.inner.filled.load(Ordering::Acquire) {
                break;
            }
            std::thread::yield_now();
        }
        let mut slot = self.inner.slot.lock().unwrap();
        loop {
            if let Some(r) = slot.response.take() {
                return r;
            }
            slot.sleeping = true;
            slot = self.inner.cv.wait(slot).unwrap();
        }
    }

    /// Non-blocking completion poll (closed-loop load generators multiplex
    /// many logical clients over one thread with this). Returns the
    /// response at most once.
    pub fn try_take(&self) -> Option<Response> {
        if !self.inner.filled.load(Ordering::Acquire) {
            return None;
        }
        self.inner.slot.lock().unwrap().response.take()
    }
}

impl Completion {
    /// Fill the ticket, record its completion latency and count it in
    /// `m`, and wake the waiter if it sleeps. Idempotent: later calls on a
    /// filled ticket are ignored.
    pub(crate) fn complete(&self, r: Response, m: &CompletionMetrics) {
        let mut slot = self.inner.slot.lock().unwrap();
        if self.inner.filled.swap(true, Ordering::AcqRel) {
            return;
        }
        m.lat
            .record(self.inner.submitted.elapsed().as_nanos() as u64);
        m.completed.inc();
        slot.response = Some(r);
        // The waiter sets `sleeping` under this lock and waits without
        // releasing it in between, so a waiter that has not set it yet
        // takes the lock after this fill and finds the response: skipping
        // the signal cannot lose a wake-up.
        let wake = slot.sleeping;
        drop(slot);
        if wake {
            self.inner.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> CompletionMetrics {
        CompletionMetrics::new(&Registry::new())
    }

    #[test]
    fn ticket_waits_for_completion() {
        let (t, c) = ticket();
        assert_eq!(t.try_take(), None);
        c.complete(Response::Value(Some(7)), &metrics());
        assert_eq!(t.try_take(), Some(Response::Value(Some(7))));
        assert_eq!(t.try_take(), None, "a response is taken at most once");
    }

    #[test]
    fn completion_is_idempotent_and_counts() {
        let m = metrics();
        let (t, c) = ticket();
        c.complete(Response::Value(None), &m);
        c.complete(Response::Value(Some(1)), &m); // ignored
        assert_eq!(t.wait(), Response::Value(None));
        assert_eq!(m.lat.count(), 1);
        assert_eq!(m.completed.value(), 1);
    }

    #[test]
    fn a_completion_during_the_yield_window_returns() {
        // Completed while the waiter is still yielding (or before it
        // starts): it must take the response whether or not it parked.
        for _ in 0..200 {
            let (t, c) = ticket();
            let h = std::thread::spawn(move || t.wait());
            c.complete(Response::Value(Some(3)), &metrics());
            assert_eq!(h.join().unwrap(), Response::Value(Some(3)));
        }
    }

    #[test]
    fn wait_blocks_until_another_thread_completes() {
        let m = metrics();
        let (t, c) = ticket();
        let h = std::thread::spawn(move || t.wait());
        while !c.inner.slot.lock().unwrap().sleeping {
            std::thread::yield_now();
        }
        c.complete(Response::Values(vec![Some(1), None]), &m);
        c.complete(Response::Value(None), &m); // ignored
        assert_eq!(h.join().unwrap(), Response::Values(vec![Some(1), None]));
        assert_eq!(m.lat.count(), 1);
        assert_eq!(m.completed.value(), 1);
    }
}
