//! Open-loop injection: requests leave on a fixed schedule whether or not
//! earlier ones have completed, and every latency is timed from the
//! instant the request was *due*. If the system stalls the injector (a
//! full admission queue blocks `submit`), the requests that came due
//! meanwhile are sent late, and that lateness is part of *their* latency —
//! the wait a stall imposes on later arrivals is counted, not hidden.

use std::time::Duration;

pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return no earlier than `t_ns` (immediately if it has passed).
    fn wait_until(&self, t_ns: u64);
}

/// The process clock. Sleeps through a gap rather than spinning: on a
/// small machine a spinning injector takes a core from the shard workers
/// and the benchmark would measure its own interference. The price is
/// waking some tens of microseconds late, which [`inject`] reports and
/// which is part of each latency, as it would be for a real client.
/// (Waiting out short gaps with `yield_now` instead halves the median
/// latency `svc_open` reads and makes it bimodal, 65-75 or 110-145 us from
/// one run to the next; sleeping, ten runs stay within 9-16 %.)
pub struct RealClock;

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        crate::span::now_ns()
    }

    fn wait_until(&self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub rate_per_s: u64,
}

impl Schedule {
    /// When request `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + (i as u128 * 1_000_000_000 / self.rate_per_s as u128) as u64
    }
}

/// Send every request that comes due before `end_ns`, each no earlier
/// than its due time; `send(i, due_ns)` may block. Returns how late each
/// request was handed to `send` (sent − due).
pub fn inject(
    clock: &impl Clock,
    schedule: Schedule,
    end_ns: u64,
    mut send: impl FnMut(u64, u64),
) -> Vec<u64> {
    let due_in_window =
        end_ns.saturating_sub(schedule.start_ns) as u128 * schedule.rate_per_s as u128;
    let mut lateness = Vec::with_capacity((due_in_window / 1_000_000_000) as usize + 1);
    for i in 0.. {
        let due = schedule.due_ns(i);
        if due >= end_ns {
            break;
        }
        clock.wait_until(due);
        lateness.push(clock.now_ns() - due);
        send(i, due);
    }
    lateness
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Time moves only when someone waits or the sink takes time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_is_charged_to_the_requests_that_came_due_during_it() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 0,
            rate_per_s: 1000, // one request per millisecond
        };
        // A sink that completes every request the instant it is sent,
        // except that sending request 5 blocks for 20 ms.
        let mut latency_from_due = Vec::new();
        let lateness = inject(&clock, schedule, 50 * MS, |i, due| {
            if i == 5 {
                clock.0.set(clock.0.get() + 20 * MS);
            }
            latency_from_due.push(clock.now_ns() - due);
        });
        assert_eq!(
            lateness.len(),
            50,
            "no request is skipped because the injector fell behind"
        );
        // On time before the stall; request 5 itself was sent on time and
        // took the 20 ms.
        assert!(lateness[..=5].iter().all(|&l| l == 0));
        assert_eq!(latency_from_due[5], 20 * MS);
        // Request 6 was due at 6 ms but left at 25 ms; each later one was
        // due 1 ms later and left at once, until the backlog is gone.
        for i in 6..25 {
            assert_eq!(lateness[i], (25 - i as u64) * MS, "request {i}");
            assert_eq!(
                latency_from_due[i], lateness[i],
                "the wait counts although service took no time"
            );
        }
        assert!(lateness[25..].iter().all(|&l| l == 0));
    }

    #[test]
    fn schedule_is_exact_over_long_runs() {
        let s = Schedule {
            start_ns: 7,
            rate_per_s: 4000,
        };
        assert_eq!(s.due_ns(0), 7);
        assert_eq!(s.due_ns(1), 7 + 250_000);
        assert_eq!(s.due_ns(4000 * 3600), 7 + 3600 * 1_000_000_000);
        // A rate that does not divide a second does not drift.
        let s = Schedule {
            start_ns: 0,
            rate_per_s: 6000,
        };
        assert_eq!(s.due_ns(6000 * 60), 60 * 1_000_000_000);
    }
}
