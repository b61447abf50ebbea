//! The fixed vocabulary of the benchmark: workload names with their
//! reasons, end-to-end metrics with their regression bounds, and the
//! per-layer metric names. `/BENCHMARK.json` repeats these tables for the
//! driver; the test at the bottom fails when the two drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before `diff`
    /// and `repeat` print FAIL. `None` for per-layer metrics: they explain
    /// a change, they do not gate it.
    pub bound: Option<f64>,
}

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 10;

/// What the restarted two-shard deployment completes per second under an
/// open loop that offers more than it can take, measured at the seed on
/// the box the workloads were sized on (the backlog grows from about this
/// rate on).
pub const OPEN_CAPACITY_REQ_S: u64 = 225_000;

/// Fixed offered rate of `svc_open`: 40 % of that capacity, where requests
/// queue behind each other but the backlog does not grow. Frozen here so a
/// faster service shows as lower latency, not as a different experiment.
pub const OPEN_RATE_REQ_S: u64 = OPEN_CAPACITY_REQ_S * 2 / 5;

/// The workloads `/BENCHMARK.json` lists and `diff` and `repeat` compare.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "list_read",
        why: "bare list, 256 keys/node, zipfian get + 5% scan, no writes: in-node key scan and pmem reads do all the work; allocator, fences and service do none",
    },
    WorkloadSpec {
        name: "list_churn",
        why: "bare list, 16 keys/node, insert/remove/update/get on disjoint partitions, sync every 64 writes: splits, allocation, flush epochs, tombstones and space growth",
    },
    WorkloadSpec {
        name: "svc_closed",
        why: "KvService restarted over loaded pools, 2 shards, one driver with 32 tickets in flight: queue hand-off, batching and ticket wake-up on top of the shards' list work",
    },
    WorkloadSpec {
        name: "crash_recover",
        why: "tracked persistence, sync before every ack, seeded crash and residue, reopen and read back every key: the only workload running crash and recovery code",
    },
];

/// Runs, is verified and reports like the others (a wrong response fails
/// the run), but nothing compares its timings. At 40 % utilisation a
/// request's latency is two or three thread wake-ups out of idle, and on a
/// virtual machine how long those take is the host's business: ten runs
/// stay within 9-16 % of each other, but the medians of three such sets,
/// an hour apart on the box the workloads were sized on, were 126, 137 and
/// 158 us with no change to the program. A gate on that would reject
/// changes, or pass them, by the time of day.
pub const REPORTED_ONLY: WorkloadSpec = WorkloadSpec {
    name: "svc_open",
    why: "same deployment, open loop at a fixed 90000 req/s (40% of its open-loop capacity), timed from each request's due time: the queueing and batching delay a closed loop hides",
};

/// Every workload `run` runs, in the order it runs them.
pub fn all_workloads() -> impl Iterator<Item = &'static WorkloadSpec> {
    WORKLOADS.iter().chain([&REPORTED_ONLY])
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// End-to-end metrics: what a user of the list or the service sees.
/// Every workload reports every one (see README "What each metric means
/// on each workload").
pub const END_TO_END: [MetricSpec; 6] = [
    // Everything completed in a window over the whole window (not the
    // typical slice of it), so periodic stalls and tail latency move it.
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25),
    e2e("read_p50_us", "us", Better::Lower, 0.25),
    e2e("write_p50_us", "us", Better::Lower, 0.25),
    // Chunk-granular: one chunk is ~1 % of the smallest deployment.
    e2e("pmem_bytes_per_live_key", "bytes", Better::Lower, 0.05),
    e2e("restart_ms", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics (layer = crate), produced by the traced run. A value
/// of 0 on a workload means the layer does no such work there.
pub const PER_LAYER: [MetricSpec; 61] = [
    // Correctness totals; both must stay 0 (`run` exits non-zero otherwise).
    layer("failed_share", "share", Lower),
    layer("lost_acked_writes", "count", Lower),
    // Defined end to end and meant to be gated at 10-15 %. Moved here
    // because on the small shared machine the benchmark was sized on they
    // do not hold any bound the driver accepts (it caps a bound at 25 %):
    // over sets of ten runs `read_p99_us` spread 10-18 % when the machine
    // was quiet and 66-120 % on the service and churn workloads when a set
    // met a disturbed minute, `write_p99_us` 28-41 % even when quiet, and
    // `scan_p50_us` differed by 31 % on `crash_recover` between the two
    // sets of a same-seed repeat. Every run, traced or not,
    // still reports them; the gated number that a stall or a fatter tail
    // moves is `throughput_ops_s`.
    layer("read_p99_us", "us", Lower),
    layer("write_p99_us", "us", Lower),
    layer("scan_p50_us", "us", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("ycsb.generate_s", "s", Lower),
    // pmem: one-thread micro-probe on a 64 MiB pool.
    layer("pmem.read_ns", "ns", Lower),
    layer("pmem.read_slice_line_ns", "ns", Lower),
    layer("pmem.write_ns", "ns", Lower),
    layer("pmem.cas_ns", "ns", Lower),
    layer("pmem.flush_ns", "ns", Lower),
    layer("pmem.fence_ns", "ns", Lower),
    layer("pmem.persist_ns", "ns", Lower),
    layer("pmem.read0_ns", "ns", Lower),
    layer("pmem.persist0_ns", "ns", Lower),
    layer("riv.read_ns", "ns", Lower),
    // pmalloc: micro-probe plus counters of the workload's own lists.
    layer("pmalloc.alloc_ns", "ns", Lower),
    layer("pmalloc.free_ns", "ns", Lower),
    layer("pmalloc.fences_per_alloc", "count", Lower),
    layer("pmalloc.flushes_per_alloc", "count", Lower),
    layer("pmalloc.magazine_hit_share", "share", Higher),
    layer("pmalloc.chunks_provisioned", "count", Lower),
    // core: spans and per-op-tag pool counters around the list calls.
    layer("core.get.ns", "ns", Lower),
    layer("core.get.pmem_reads", "count", Lower),
    layer("core.get.l0_hops", "count", Lower),
    layer("core.get.l0_hops_max", "count", Lower),
    layer("core.get.shadow_hit_share", "share", Higher),
    layer("core.slow_build_share", "share", Lower),
    layer("core.scan.ns_per_key", "ns", Lower),
    layer("core.scan.pmem_reads_per_key", "count", Lower),
    layer("core.get_batch.ns_per_key", "ns", Lower),
    layer("core.insert.ns", "ns", Lower),
    layer("core.insert.pmem_reads", "count", Lower),
    layer("core.insert.flushes", "count", Lower),
    layer("core.insert.fences", "count", Lower),
    layer("core.update.ns", "ns", Lower),
    layer("core.update.flushes", "count", Lower),
    layer("core.update.fences", "count", Lower),
    layer("core.remove.ns", "ns", Lower),
    layer("core.remove.fences", "count", Lower),
    layer("core.splits_per_kinsert", "count", Lower),
    layer("core.cas_retries_per_kop", "count", Lower),
    layer("core.lock_waits_per_kop", "count", Lower),
    layer("core.reconnect_us", "us", Lower),
    layer("core.first_pass_ms", "ms", Lower),
    // service: spans around submit()/wait(), the registry, a direct replay.
    layer("service.submit_ns", "ns", Lower),
    layer("service.wait_us", "us", Lower),
    layer("service.direct_us_per_req", "us", Lower),
    layer("service.overhead_x", "x", Lower),
    layer("service.batch_occupancy_mean", "count", Higher),
    layer("service.queue_depth_p50", "count", Lower),
    layer("service.latch_waits_per_kreq", "count", Lower),
    layer("service.backpressure_share", "share", Lower),
    layer("service.gen_lateness_p99_us", "us", Lower),
    layer("service.slo_rate_req_s", "1/s", Higher),
    // harness: what the benchmark itself costs, and the ungated tails.
    layer("harness.op_self_ns", "ns", Lower),
    layer("harness.read_tail_us", "us", Lower),
    layer("harness.read_tail_pct", "%", Higher),
    layer("harness.write_tail_us", "us", Lower),
    layer("harness.write_tail_pct", "%", Higher),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    all_workloads().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `/BENCHMARK.json` is what the driver reads; this table is what the
    /// harness prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::num),
            Some(RUN_SECONDS as f64)
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::arr)
                .expect(key)
                .iter()
                .map(|e| e.get("name").and_then(Json::str).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name));
        for (spec, entry) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::arr).unwrap())
        {
            assert_eq!(entry.get("unit").and_then(Json::str), Some(spec.unit));
            let better = match spec.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(entry.get("better").and_then(Json::str), Some(better));
            assert_eq!(
                entry.get("bound").and_then(Json::num),
                spec.bound,
                "{}",
                spec.name
            );
        }
        for (spec, entry) in WORKLOADS
            .iter()
            .zip(doc.get("workloads").and_then(Json::arr).unwrap())
        {
            assert_eq!(entry.get("why").and_then(Json::str), Some(spec.why));
            assert!(spec.why.len() <= 200, "{} why too long", spec.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
