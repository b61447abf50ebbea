//! Stress of the serving layer's hand-off: workers and waiters that
//! yield, then park, and are woken only when somebody counted them as
//! asleep. A lost wake-up there is a rare interleaving that would hang a
//! client, so nothing here blocks without a deadline:
//!
//! * half of the clients poll their tickets with `try_take` and fail on
//!   a per-ticket deadline (this catches a worker left parked over a
//!   non-empty queue);
//! * the other half block in `Ticket::wait`, and the test thread fails
//!   when a client has not reported done by the run deadline (this also
//!   catches a waiter left parked over a filled ticket).
//!
//! More client threads than CPUs, with think times of zero (the workers
//! rarely find their queue empty), a few µs (inside the yield window) and
//! ~200 µs (past it, so workers and waiters park).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use service::{KvService, Request, Response, ServiceConfig, ShardSpec, Ticket};
use upskiplist::{ListBuilder, UpSkipList};

const SHARDS: u16 = 2;
const DEADLINE: Duration = Duration::from_secs(60);

fn mini_list(node: u16) -> Arc<UpSkipList> {
    ListBuilder {
        pool_words: 1 << 20,
        home_node: node,
        ..ListBuilder::default()
    }
    .create()
}

fn think(t: Duration) {
    if t >= Duration::from_micros(100) {
        std::thread::sleep(t);
    } else {
        let end = Instant::now() + t;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }
}

fn take_by(ticket: Ticket, deadline: Instant, what: &str) -> Response {
    loop {
        if let Some(r) = ticket.try_take() {
            return r;
        }
        assert!(
            Instant::now() < deadline,
            "lost wake-up: {what} never completed"
        );
        std::thread::yield_now();
    }
}

/// Reports a client's end, and whether it failed, even when it panics.
struct Finished(usize, mpsc::Sender<(usize, bool)>);

impl Drop for Finished {
    fn drop(&mut self) {
        let _ = self.1.send((self.0, std::thread::panicking()));
    }
}

#[test]
fn every_ticket_completes_with_one_worker_per_shard() {
    let specs = (0..SHARDS)
        .map(|i| ShardSpec {
            list: mini_list(i),
            node: i,
        })
        .collect();
    let svc = KvService::start(
        specs,
        ServiceConfig {
            max_batch: 16,
            queue_cap: 64,
            ..ServiceConfig::default()
        },
    );
    let cpus = std::thread::available_parallelism().map_or(2, |n| n.get());
    let thinks = [
        Duration::ZERO,
        Duration::from_micros(3),
        Duration::from_micros(200),
    ];
    let clients = (2 * cpus + 1).max(thinks.len() * 2);
    let deadline = Instant::now() + DEADLINE;
    let (tx, rx) = mpsc::channel();
    for c in 0..clients {
        let (svc, tx) = (Arc::clone(&svc), tx.clone());
        let pause = thinks[c % thinks.len()];
        let poll = (c / thinks.len()).is_multiple_of(2);
        let rounds: u64 = if pause.is_zero() { 4000 } else { 500 };
        // `spawn`, not `scope`: a client hung in `wait` must not hang the
        // test, which fails on the deadline below instead.
        std::thread::spawn(move || {
            let _finished = Finished(c, tx);
            let base = (c as u64 + 1) << 32;
            for i in 0..rounds {
                let k = base + i % 64;
                let reqs = [
                    (
                        Request::Put(k, i),
                        Response::Value((i >= 64).then(|| i - 64)),
                    ),
                    (Request::Get(k), Response::Value(Some(i))),
                ];
                for (req, want) in reqs {
                    let what = format!("client {c} round {i} {req:?}");
                    let t = svc.submit(req);
                    let got = if poll {
                        take_by(t, deadline, &what)
                    } else {
                        t.wait()
                    };
                    assert_eq!(got, want, "{what}");
                    think(pause);
                }
            }
        });
    }
    drop(tx);
    for _ in 0..clients {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((c, failed)) => assert!(!failed, "client {c} failed"),
            Err(e) => panic!("a client is still blocked at the deadline ({e:?}): lost wake-up"),
        }
    }
    svc.shutdown();
    assert_eq!(svc.pending(), 0);
    let snap = svc.registry().snapshot();
    assert_eq!(snap.counter("svc.completed"), snap.counter("svc.submitted"));
    let parks: u64 = (0..SHARDS)
        .map(|i| snap.counter(&format!("svc.shard{i}.parks")))
        .sum();
    assert!(
        parks > 0,
        "the 200 µs clients leave workers idle long enough to park"
    );
}
