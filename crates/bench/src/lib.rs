//! # bench — the experiment harness
//!
//! One binary per table/figure of the thesis's evaluation (Chapter 5) and
//! correctness study (Chapter 6); see DESIGN.md's experiment index:
//!
//! * `throughput` — Figs 5.1 & 5.2 (YCSB A–D thread sweeps, 3 structures)
//! * `pointer_compare` — Fig 5.3 (RIV vs fat pointers, read-only, K = 1)
//! * `numa_compare` — Fig 5.4 & Table 5.2 (striped pool vs per-node pools)
//! * `latency` — Figs 5.5/5.6 & Table 5.3 (per-op latency percentiles)
//! * `recovery` — Table 5.4 (post-crash reconnection time)
//! * `crash_test` — Chapter 6 (crash injection + strict-linearizability
//!   analysis)
//! * `traversal` — E-series extension: shadowed/batched descents vs the
//!   seed head-descent (throughput and pmem reads per op)
//!
//! Every binary that plays a YCSB trace plays it through [`driver::run`],
//! the one playback loop: each call runs under its per-op pmem tag,
//! `batch > 1` groups reads and writes, and latency capture times the same
//! calls, so a throughput number and its per-op breakdown come from one
//! program. [`Target::build`] builds any structure under test by name.

pub mod args;
pub mod driver;
pub mod index;
pub mod metrics;
pub mod sweep;
pub mod watchdog;

pub use args::{default_thread_sweep, Args};
pub use driver::{load, percentile, run, Call, RunResult};
pub use index::{
    build_bztree, build_hybridskip, build_pmdkskip, build_pool, build_upskiplist,
    build_upskiplist_at, build_upskiplist_shards, Deployment, KvIndex, Target, UpSkipListOpts,
};
