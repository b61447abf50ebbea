//! Per-shard admission queue: a bounded MPSC-ish queue the router pushes
//! [`Task`]s into and shard workers drain in batches.
//!
//! The bound is the admission-control knob: an open-loop load generator
//! pushing past a shard's service rate blocks here instead of growing an
//! unbounded backlog, so tail latency measures queueing up to `cap`, not
//! memory exhaustion.
//!
//! Hand-off: a side signals a condvar only when the state it keeps under
//! the mutex says somebody sleeps on it (`parked` workers, `blocked`
//! pushers), so the common push/pop pair makes no futex call. A worker
//! that finds the queue empty first yields [`YIELD_BUDGET`] times,
//! re-reading `len` without the lock, before it parks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use obs::Counter;

use crate::shard::Task;
use crate::YIELD_BUDGET;

struct State {
    q: VecDeque<Task>,
    closed: bool,
    /// Workers waiting on `nonempty`.
    parked: usize,
    /// Pushers waiting on `space`.
    blocked: usize,
}

pub(crate) struct AdmissionQueue {
    state: Mutex<State>,
    nonempty: Condvar,
    space: Condvar,
    cap: usize,
    /// `q.len()` as of the last push or pop, for the lock-free poll of a
    /// worker about to park. A hint only: every decision is re-made under
    /// `state`.
    len: AtomicUsize,
}

impl AdmissionQueue {
    pub fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(State {
                q: VecDeque::new(),
                closed: false,
                parked: 0,
                blocked: 0,
            }),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            cap: cap.max(1),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueue a task, blocking while the queue is at capacity. Returns
    /// `false` (dropping the task) when the queue is closed.
    pub fn push(&self, task: Task) -> bool {
        let mut s = self.state.lock().unwrap();
        while s.q.len() >= self.cap && !s.closed {
            s.blocked += 1;
            s = self.space.wait(s).unwrap();
            s.blocked -= 1;
        }
        if s.closed {
            return false;
        }
        s.q.push_back(task);
        self.len.store(s.q.len(), Ordering::Relaxed);
        // A worker bumps `parked` under this lock before it waits and
        // waits without releasing it in between, so a worker not counted
        // here re-checks the queue after this push and finds the task:
        // skipping the signal cannot lose a wake-up.
        let wake = s.parked > 0;
        drop(s);
        if wake {
            self.nonempty.notify_one();
        }
        true
    }

    /// Pop up to `max` tasks into `out`, blocking while empty (each time
    /// the worker parks it bumps `parks`). Returns the queue depth
    /// *before* the pop (the worker's queue-depth sample); `out` left
    /// empty means the queue is closed and fully drained.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<Task>, parks: &Counter) -> usize {
        debug_assert!(out.is_empty());
        for _ in 0..YIELD_BUDGET {
            if self.len.load(Ordering::Relaxed) != 0 {
                break;
            }
            std::thread::yield_now();
        }
        let mut s = self.state.lock().unwrap();
        while s.q.is_empty() && !s.closed {
            s.parked += 1;
            parks.inc();
            s = self.nonempty.wait(s).unwrap();
            s.parked -= 1;
        }
        let depth = s.q.len();
        out.extend(s.q.drain(..max.max(1).min(depth)));
        self.len.store(s.q.len(), Ordering::Relaxed);
        // Same argument as in `push`: a pusher counts itself in `blocked`
        // under this lock before it waits, so an uncounted one sees the
        // space made here.
        let wake = !out.is_empty() && s.blocked > 0;
        drop(s);
        if wake {
            self.space.notify_all();
        }
        depth
    }

    /// Close the queue: pending tasks still drain, new pushes fail.
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap();
        s.closed = true;
        self.nonempty.notify_all();
        self.space.notify_all();
    }

    /// `(parked workers, blocked pushers)`, for tests that need a thread
    /// to be asleep before they act.
    #[cfg(test)]
    fn sleepers(&self) -> (usize, usize) {
        let s = self.state.lock().unwrap();
        (s.parked, s.blocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ticket;
    use std::sync::Arc;

    fn task(key: u64) -> Task {
        Task::Get {
            key,
            done: ticket().1,
        }
    }

    fn key(t: &Task) -> u64 {
        match t {
            Task::Get { key, .. } => *key,
            _ => unreachable!(),
        }
    }

    /// Spin until `cond` holds on the queue's sleeper counts.
    fn until(q: &AdmissionQueue, cond: impl Fn((usize, usize)) -> bool) {
        while !cond(q.sleepers()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn one_push_wakes_a_parked_worker() {
        let q = Arc::new(AdmissionQueue::new(8));
        let parks = Arc::new(Counter::new());
        let worker = {
            let (q, parks) = (Arc::clone(&q), Arc::clone(&parks));
            std::thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_batch(4, &mut out, &parks);
                out.iter().map(key).collect::<Vec<_>>()
            })
        };
        until(&q, |(parked, _)| parked == 1);
        assert_eq!(parks.value(), 1, "the worker parked past its yield budget");
        assert!(q.push(task(7)));
        assert_eq!(worker.join().unwrap(), vec![7]);
        assert_eq!(q.sleepers(), (0, 0));
    }

    #[test]
    fn a_pop_releases_a_blocked_pusher() {
        let q = Arc::new(AdmissionQueue::new(1));
        let parks = Counter::new();
        assert!(q.push(task(1)));
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(task(2)))
        };
        until(&q, |(_, blocked)| blocked == 1);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(4, &mut out, &parks), 1);
        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), vec![1]);
        assert!(pusher.join().unwrap());
        out.clear();
        q.pop_batch(4, &mut out, &parks);
        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), vec![2]);
        assert_eq!(parks.value(), 0, "no pop found the queue empty");
    }

    #[test]
    fn close_releases_parked_workers_and_blocked_pushers() {
        let idle = Arc::new(AdmissionQueue::new(4));
        let full = Arc::new(AdmissionQueue::new(1));
        assert!(full.push(task(1)));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&idle);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    q.pop_batch(4, &mut out, &Counter::new());
                    out.len()
                })
            })
            .collect();
        let pushers: Vec<_> = (0..2)
            .map(|k| {
                let q = Arc::clone(&full);
                std::thread::spawn(move || q.push(task(k + 2)))
            })
            .collect();
        until(&idle, |(parked, _)| parked == 2);
        until(&full, |(_, blocked)| blocked == 2);
        idle.close();
        full.close();
        for w in workers {
            assert_eq!(w.join().unwrap(), 0, "a closed, empty queue pops nothing");
        }
        for p in pushers {
            assert!(!p.join().unwrap(), "a push into a closed queue fails");
        }
        // The task admitted before the close still drains.
        let mut out = Vec::new();
        full.pop_batch(4, &mut out, &Counter::new());
        assert_eq!(out.iter().map(key).collect::<Vec<_>>(), vec![1]);
    }
}
