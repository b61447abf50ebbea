//! Load generators for the serving layer.
//!
//! Two standard shapes:
//!
//! * **Closed loop** ([`run_closed`]): N logical clients, each with at
//!   most one request outstanding, multiplexed over a bounded number of
//!   driver threads (millions of clients don't need millions of OS
//!   threads — a driver thread polls its clients' tickets with
//!   [`Ticket::try_take`] and refills free slots). Throughput is
//!   demand-limited by N; latency excludes client think time (there is
//!   none).
//! * **Open loop** ([`run_open`]): requests are injected at a fixed
//!   offered rate regardless of completions, the shape that exposes
//!   queueing delay — tail latency grows without bound as the offered
//!   rate approaches the service rate. Tickets are dropped at submit;
//!   the service still records completion latency worker-side.
//!
//! Both consume a pre-generated request trace (see [`requests_from_ops`],
//! which adapts a YCSB op stream) so key choice stays in the `ycsb`
//! crate and runs are reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{KvService, Request, Response, Ticket};

/// Adapt a YCSB op stream into a request trace. Point ops map 1:1
/// (`Read`→`Get`, `Update`/`Insert`→`Put`, `Scan`→`Scan`, `Rmw`→`Get`
/// then `Put`). When `multi_every > 0`, every `multi_every`-th op
/// consumes up to `multi_size` ops and folds their keys into one
/// `MultiGet` (read op) or `MultiPut` (write op) — the multi-key
/// requests that exercise the cross-shard gather paths.
pub fn requests_from_ops(ops: &[ycsb::Op], multi_every: usize, multi_size: usize) -> Vec<Request> {
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0usize;
    let mut n = 0usize;
    while i < ops.len() {
        n += 1;
        let fold = multi_every > 0 && multi_size > 1 && n.is_multiple_of(multi_every);
        if fold {
            let span = &ops[i..(i + multi_size).min(ops.len())];
            match span[0] {
                ycsb::Op::Read(_) | ycsb::Op::Scan(_, _) => {
                    out.push(Request::MultiGet(span.iter().map(|o| o.key()).collect()));
                }
                ycsb::Op::Update(_, v) | ycsb::Op::Insert(_, v) | ycsb::Op::Rmw(_, v) => {
                    out.push(Request::MultiPut(
                        span.iter().map(|o| (o.key(), v)).collect(),
                    ));
                }
            }
            i += span.len();
            continue;
        }
        match ops[i] {
            ycsb::Op::Read(k) => out.push(Request::Get(k)),
            ycsb::Op::Update(k, v) | ycsb::Op::Insert(k, v) => out.push(Request::Put(k, v)),
            ycsb::Op::Scan(k, cnt) => out.push(Request::Scan {
                from: k,
                limit: cnt as usize,
            }),
            ycsb::Op::Rmw(k, v) => {
                out.push(Request::Get(k));
                out.push(Request::Put(k, v));
            }
        }
        i += 1;
    }
    out
}

/// What a load-generation run did. Latency percentiles live in the
/// service registry (`svc.lat.request`); snapshot it around the run.
#[derive(Debug, Clone, Copy)]
pub struct LoadResult {
    pub submitted: u64,
    pub completed: u64,
    pub seconds: f64,
}

impl LoadResult {
    /// Completed requests per microsecond (Mops/s).
    pub fn mops(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.seconds / 1.0e6
    }
}

/// Closed-loop run: `clients` logical clients (each ≤1 outstanding
/// request) multiplexed over `threads` driver threads, consuming
/// `trace` round-robin until it is exhausted.
pub fn run_closed(
    svc: &Arc<KvService>,
    trace: &[Request],
    clients: usize,
    threads: usize,
) -> LoadResult {
    assert!(clients >= 1 && threads >= 1);
    let threads = threads.min(clients);
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let completed = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            // Spread clients over driver threads.
            let my_clients = clients / threads + usize::from(t < clients % threads);
            let next = Arc::clone(&next);
            let svc = Arc::clone(svc);
            handles.push(s.spawn(move || {
                let mut outstanding: Vec<Option<Ticket>> = Vec::new();
                outstanding.resize_with(my_clients, || None);
                let mut done = 0u64;
                let mut live = 0usize;
                loop {
                    let mut progressed = false;
                    for slot in outstanding.iter_mut() {
                        match slot {
                            Some(tkt) => {
                                if tkt.try_take().is_some() {
                                    *slot = None;
                                    live -= 1;
                                    done += 1;
                                    progressed = true;
                                }
                            }
                            None => {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i < trace.len() {
                                    *slot = Some(svc.submit(trace[i].clone()));
                                    live += 1;
                                    progressed = true;
                                }
                            }
                        }
                    }
                    if live == 0 && next.load(Ordering::Relaxed) >= trace.len() {
                        return done;
                    }
                    if !progressed {
                        // Park briefly instead of yield-spinning: on a host
                        // with fewer cores than driver threads, a spinning
                        // poller steals whole scheduler timeslices from the
                        // shard workers doing the actual work.
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    LoadResult {
        submitted: completed,
        completed,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Open-loop run: `threads` injector threads each pace their share of
/// `trace` at `rate_per_sec / threads` requests per second, dropping
/// tickets at submit, then the run waits for the service to drain.
/// `rate_per_sec == 0` means "as fast as possible" (no pacing — measures
/// the admission-control path: submitters block on full queues).
pub fn run_open(
    svc: &Arc<KvService>,
    trace: &[Request],
    rate_per_sec: u64,
    threads: usize,
) -> LoadResult {
    assert!(threads >= 1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let svc = Arc::clone(svc);
            s.spawn(move || {
                let my: Vec<&Request> = trace.iter().skip(t).step_by(threads).collect();
                let interval = if rate_per_sec == 0 {
                    Duration::ZERO
                } else {
                    Duration::from_secs_f64(threads as f64 / rate_per_sec as f64)
                };
                let t0 = Instant::now();
                let mut next_at = Duration::ZERO;
                for req in my {
                    if !interval.is_zero() {
                        // Fixed schedule (not "sleep after submit"): a slow
                        // submit doesn't stretch the offered rate, it eats
                        // into the next slot — the open-loop contract.
                        next_at += interval;
                        let now = t0.elapsed();
                        if now < next_at {
                            std::thread::sleep(next_at - now);
                        }
                    }
                    drop(svc.submit(req.clone()));
                }
            });
        }
    });
    // Injection done; wait for the queues to drain.
    while svc.pending() > 0 {
        std::thread::sleep(Duration::from_micros(100));
    }
    let seconds = start.elapsed().as_secs_f64();
    LoadResult {
        submitted: trace.len() as u64,
        completed: trace.len() as u64,
        seconds,
    }
}

/// Convenience for callers that want responses inline (tests, warmup):
/// submit everything closed-loop with one client and collect responses.
pub fn run_sequential(svc: &Arc<KvService>, trace: &[Request]) -> Vec<Response> {
    trace.iter().map(|r| svc.submit(r.clone()).wait()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_adapts_point_ops() {
        let ops = vec![
            ycsb::Op::Read(1),
            ycsb::Op::Update(2, 20),
            ycsb::Op::Rmw(3, 30),
            ycsb::Op::Scan(4, 10),
        ];
        let trace = requests_from_ops(&ops, 0, 0);
        assert_eq!(
            trace,
            vec![
                Request::Get(1),
                Request::Put(2, 20),
                Request::Get(3),
                Request::Put(3, 30),
                Request::Scan { from: 4, limit: 10 },
            ]
        );
    }

    #[test]
    fn trace_folds_multikey_requests() {
        let ops: Vec<ycsb::Op> = (0..8).map(ycsb::Op::Read).collect();
        let trace = requests_from_ops(&ops, 4, 3);
        // Ops 1..=3 pass through; the 4th folds ops [3..6); then 6,7.
        assert_eq!(trace.len(), 6);
        assert_eq!(trace[3], Request::MultiGet(vec![3, 4, 5]));
        assert!(matches!(trace[0], Request::Get(0)));
        let writes: Vec<ycsb::Op> = (0..4).map(|k| ycsb::Op::Update(k, 9)).collect();
        let wt = requests_from_ops(&writes, 2, 2);
        assert_eq!(wt[1], Request::MultiPut(vec![(1, 9), (2, 9)]));
    }
}
