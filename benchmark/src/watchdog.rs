//! `Ticket::wait` blocks without a timeout, so a request the service never
//! completes would hang the run. The thread that waits on tickets marks
//! each wait here; a watchdog thread ends the run with a failed result
//! once one wait has lasted longer than [`TICKET_TIMEOUT`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::span::now_ns;

pub const TICKET_TIMEOUT: Duration = Duration::from_secs(10);

/// When the wait in progress began (0: nobody is waiting). One slot: every
/// workload has a single thread waiting on tickets.
static WAITING_SINCE_NS: AtomicU64 = AtomicU64::new(0);

/// Run one blocking wait under the watchdog.
pub fn waiting<T>(wait: impl FnOnce() -> T) -> T {
    WAITING_SINCE_NS.store(now_ns().max(1), Ordering::Relaxed);
    let out = wait();
    WAITING_SINCE_NS.store(0, Ordering::Relaxed);
    out
}

/// Start the watchdog. `on_timeout` reports the failure; the process then
/// exits non-zero (the stuck thread cannot be joined).
pub fn spawn(on_timeout: impl FnOnce() + Send + 'static) {
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(250));
        let since = WAITING_SINCE_NS.load(Ordering::Relaxed);
        if since != 0 && now_ns().saturating_sub(since) > TICKET_TIMEOUT.as_nanos() as u64 {
            on_timeout();
            std::process::exit(2);
        }
    });
}
