//! Stall watchdog for the long experiment sweeps.
//!
//! A sweep cell that stops making progress (a livelocked retry loop, a
//! deadlocked latch) would otherwise hang a multi-hour run with nothing on
//! the screen. The driver loops count operations per thread; a watchdog
//! thread samples the counts once a second and, once none has moved for
//! [`STALL_LIMIT`] while a driver phase runs, reports and ends the process
//! with exit code 2.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use pmem::MAX_THREADS;

/// How long no operation may complete before the run is declared stalled.
pub const STALL_LIMIT: Duration = Duration::from_secs(120);

/// One thread's operation count, on a cache line of its own so
/// the counting threads never share one.
#[repr(align(64))]
struct Slot(AtomicU64);

static PROGRESS: [Slot; MAX_THREADS] = [const { Slot(AtomicU64::new(0)) }; MAX_THREADS];

/// Driver threads of the phase now running; 0 between phases (trace
/// generation, building a structure), when no count is expected to move.
static RUNNING: AtomicUsize = AtomicUsize::new(0);

/// A driver phase (load, warm-up, measured run) in progress; ends on drop.
pub struct Phase(());

impl Drop for Phase {
    fn drop(&mut self) {
        RUNNING.store(0, Ordering::Release);
    }
}

/// Start a phase of `threads` driver threads, their counts at zero.
pub fn phase(threads: usize) -> Phase {
    let threads = threads.min(MAX_THREADS);
    for slot in &PROGRESS[..threads] {
        slot.0.store(0, Ordering::Relaxed);
    }
    RUNNING.store(threads, Ordering::Release);
    Phase(())
}

/// Count one operation of driver thread `t`, as the thread begins it: a
/// thread whose count stops is stuck in the operation it began last. Each
/// thread writes only its own slot, so a load and a store suffice.
#[inline]
pub fn tick(t: usize) {
    let slot = &PROGRESS[t % MAX_THREADS].0;
    slot.store(slot.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Operations per thread of the running phase (empty between phases).
pub fn op_counts() -> Vec<u64> {
    let threads = RUNNING.load(Ordering::Acquire);
    PROGRESS[..threads]
        .iter()
        .map(|s| s.0.load(Ordering::Relaxed))
        .collect()
}

/// The stall check: how long no thread has begun an operation (so none has
/// completed one), given the time `idle` it had been so at the previous
/// sample and a new sample taken `dt` later. Idle time accrues only while
/// a phase runs (`now` is not empty) and no thread's count moved between
/// `before` and `now`.
pub fn idle_after(idle: Duration, dt: Duration, before: &[u64], now: &[u64]) -> Duration {
    if !now.is_empty() && before == now {
        idle + dt
    } else {
        Duration::ZERO
    }
}

/// Start the watchdog. On a stall it calls `report` with the per-thread
/// counts, then exits the process with code 2 (the stuck threads cannot
/// be joined).
pub fn spawn(report: impl Fn(&[u64]) + Send + 'static) {
    const TICK: Duration = Duration::from_secs(1);
    std::thread::spawn(move || {
        let mut before = Vec::new();
        let mut idle = Duration::ZERO;
        loop {
            std::thread::sleep(TICK);
            let now = op_counts();
            idle = idle_after(idle, TICK, &before, &now);
            if idle >= STALL_LIMIT {
                report(&now);
                std::process::exit(2);
            }
            before = now;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Duration = Duration::from_secs(1);

    #[test]
    fn idle_time_accrues_only_while_no_count_moves() {
        let mut idle = Duration::ZERO;
        idle = idle_after(idle, S, &[3, 5], &[3, 5]);
        idle = idle_after(idle, S, &[3, 5], &[3, 5]);
        assert_eq!(idle, 2 * S);
        // One thread completing one operation resets the clock.
        assert_eq!(idle_after(idle, S, &[3, 5], &[3, 6]), Duration::ZERO);
    }

    #[test]
    fn no_phase_running_is_never_a_stall() {
        let idle = idle_after(STALL_LIMIT, S, &[], &[]);
        assert_eq!(idle, Duration::ZERO);
    }

    #[test]
    fn a_new_phase_is_progress() {
        // The counts restart at zero with another thread count.
        assert_eq!(idle_after(10 * S, S, &[7], &[0, 0]), Duration::ZERO);
    }

    #[test]
    fn the_limit_is_reached_after_limit_seconds_without_progress() {
        let mut idle = Duration::ZERO;
        let mut samples = 0;
        while idle < STALL_LIMIT {
            idle = idle_after(idle, S, &[1], &[1]);
            samples += 1;
        }
        assert_eq!(samples, STALL_LIMIT.as_secs());
    }
}
