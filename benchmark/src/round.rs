//! What every workload produces — a handful of independent *rounds*, each
//! with its own set-up, a timed window and a restart — and how rounds
//! become the reported metrics: the median over rounds, so one disturbed
//! round (a noisy neighbour, a slow build) does not move the result.

use crate::span::Span;
use crate::spec::{self, MetricSpec};
use crate::stats::{median, percentile, summarize, supported_tail, LatSummary};

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Total length of the timed windows of the run.
    pub seconds: f64,
    pub traced: bool,
    /// A tenth of the records and two rounds: a smoke test, not a result.
    pub quick: bool,
}

impl Ctx {
    pub fn records(&self, full: u64) -> u64 {
        if self.quick {
            full / 10
        } else {
            full
        }
    }

    /// How many rounds to run. A traced run alternates untraced and traced
    /// rounds (their throughput ratio is the tracing overhead), so it runs
    /// an even number.
    pub fn rounds(&self, full: usize) -> usize {
        let n = if self.quick { 2 } else { full };
        if self.traced {
            n.max(2).next_multiple_of(2)
        } else {
            n
        }
    }

    /// Whether round `i` records spans and counters.
    pub fn round_is_traced(&self, i: usize) -> bool {
        self.traced && i % 2 == 1
    }

    pub fn window_ns(&self, rounds: usize) -> u64 {
        (self.seconds * 1e9 / rounds as f64) as u64
    }
}

/// Raw latency samples in nanoseconds, by operation class.
#[derive(Debug, Default)]
pub struct Samples {
    pub read: Vec<u64>,
    pub write: Vec<u64>,
    pub scan: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            read: Vec::with_capacity(n),
            write: Vec::with_capacity(n),
            scan: Vec::with_capacity(n / 16),
        }
    }

    pub fn absorb(&mut self, other: Samples) {
        self.read.extend(other.read);
        self.write.extend(other.write);
        self.scan.extend(other.scan);
    }
}

#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    /// Trace generation + build + load + warm-up.
    pub setup_s: f64,
    pub window_s: f64,
    /// Operations (or requests) completed inside the window.
    pub ops: u64,
    pub samples: Samples,
    pub pmem_bytes: u64,
    pub live_keys: u64,
    /// `open()` call → last key verified.
    pub restart_ms: f64,
    /// Responses checked, and those that were wrong, missing or refused.
    pub attempted: u64,
    pub failed: u64,
    pub lost_acked: u64,
    /// Per-layer values this round measured (traced rounds only).
    pub layer: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

impl Round {
    /// A round whose set-up began at `setup_start_ns` and whose generator
    /// threads ran their windows over `windows` (start, end): the set-up
    /// ends when the first window starts, the window with the last.
    pub fn timed(
        traced: bool,
        setup_start_ns: u64,
        windows: impl IntoIterator<Item = (u64, u64)>,
    ) -> Round {
        let (start_ns, end_ns) = windows
            .into_iter()
            .reduce(|(s, e), (start, end)| (s.min(start), e.max(end)))
            .expect("at least one generator thread");
        Round {
            traced,
            setup_s: (start_ns - setup_start_ns) as f64 / 1e9,
            window_s: (end_ns - start_ns) as f64 / 1e9,
            ..Round::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    /// Samples (latencies) or rounds (everything else) behind the value.
    pub n: usize,
}

pub struct WorkloadResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub lost_acked: u64,
    /// In `spec` order: every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run).
    pub metrics: Vec<(&'static MetricSpec, Metric)>,
    /// Untraced runs only: the per-layer metrics such a run can still
    /// tell (p99s, tails). Printed and saved; not in the driver's line.
    pub ungated: Vec<(&'static MetricSpec, Metric)>,
    pub spans: Vec<Span>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.lost_acked == 0
    }
}

const CLASSES: [&str; 3] = ["read", "write", "scan"];

fn class_samples(samples: &mut Samples, class: usize) -> &mut Vec<u64> {
    match class {
        0 => &mut samples.read,
        1 => &mut samples.write,
        _ => &mut samples.scan,
    }
}

fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> Option<f64>) -> Option<f64> {
    median(&rounds.iter().filter_map(|r| f(r)).collect::<Vec<_>>())
}

/// Everything completed in the window over the whole window, so a stall
/// anywhere inside it counts.
fn throughput(r: &Round) -> Option<f64> {
    (r.window_s > 0.0).then(|| r.ops as f64 / r.window_s)
}

/// Turn rounds into the run's metrics. `extra` carries per-layer values
/// that are not per-round medians (micro-probes, maxima over builds).
pub fn aggregate(
    workload: &'static str,
    cx: &Ctx,
    mut rounds: Vec<Round>,
    extra: Vec<(&'static str, f64)>,
) -> WorkloadResult {
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let lost_acked: u64 = rounds.iter().map(|r| r.lost_acked).sum();
    let spans = rounds
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.spans))
        .collect();

    // Per-round percentiles of each class; a latency metric is their
    // median over the rounds that count (the traced ones in a traced run).
    let measured = |r: &Round| r.traced == cx.traced;
    let mut sums: Vec<[Option<LatSummary>; 3]> = Vec::new();
    let mut pooled: [Vec<u64>; 3] = Default::default();
    for r in rounds.iter_mut().filter(|r| measured(r)) {
        sums.push(std::array::from_fn(|class| {
            let samples = class_samples(&mut r.samples, class);
            let sum = summarize(samples);
            pooled[class].append(samples);
            sum
        }));
    }
    let latency = |name: &str| -> Option<Metric> {
        let (class, which) = name.split_once('_')?;
        let class = CLASSES.iter().position(|c| *c == class)?;
        let pick: fn(&LatSummary) -> u64 = match which {
            "p50_us" => |s| s.p50_ns,
            "p99_us" => |s| s.p99_ns,
            _ => return None,
        };
        let per_round: Vec<&LatSummary> = sums.iter().filter_map(|s| s[class].as_ref()).collect();
        let us: Vec<f64> = per_round.iter().map(|s| pick(s) as f64 / 1e3).collect();
        median(&us).map(|value| Metric {
            value,
            n: per_round.iter().map(|s| s.n).sum(),
        })
    };
    // The ungated tail: the highest percentile the pooled samples of a
    // class support, reported with the percentile it is.
    let mut tails: Vec<(&'static str, Metric)> = Vec::new();
    for (class, us, pct_name) in [
        (0, "harness.read_tail_us", "harness.read_tail_pct"),
        (1, "harness.write_tail_us", "harness.write_tail_pct"),
    ] {
        pooled[class].sort_unstable();
        let n = pooled[class].len();
        if let Some(pct) = supported_tail(n) {
            let value = percentile(&pooled[class], pct) as f64 / 1e3;
            tails.push((us, Metric { value, n }));
            tails.push((
                pct_name,
                Metric {
                    value: pct.as_percent(),
                    n,
                },
            ));
        }
    }

    for (i, r) in rounds.iter().enumerate() {
        eprintln!(
            "# {workload} round {i}{}: {:.0} ops/s, set-up {:.3} s, restart {:.1} ms",
            if r.traced { " (traced)" } else { "" },
            r.ops as f64 / r.window_s,
            r.setup_s,
            r.restart_ms
        );
    }
    let on: Vec<&Round> = rounds.iter().filter(|r| measured(r)).collect();
    let off: Vec<&Round> = rounds.iter().filter(|r| !measured(r)).collect();
    let per_round = |value: Option<f64>| value.map(|value| Metric { value, n: on.len() });
    let end_to_end = |name: &str| match name {
        "throughput_ops_s" => per_round(median_of(&on, throughput)),
        "pmem_bytes_per_live_key" => per_round(median_of(&on, |r| {
            Some(r.pmem_bytes as f64 / r.live_keys as f64)
        })),
        "restart_ms" => per_round(median_of(&on, |r| Some(r.restart_ms))),
        "setup_s" => per_round(median_of(&on, |r| Some(r.setup_s))),
        name => latency(name),
    };
    // What any run can tell from its latency samples alone.
    let from_samples = |name: &str| {
        latency(name).or_else(|| tails.iter().find(|(n, _)| *n == name).map(|&(_, m)| m))
    };
    let layer_value =
        |r: &Round, name: &str| r.layer.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    let per_layer = |name: &str| match name {
        "failed_share" => per_round(Some(failed as f64 / attempted.max(1) as f64)),
        "lost_acked_writes" => per_round(Some(lost_acked as f64)),
        "trace.overhead_share" => per_round(
            median_of(&on, throughput)
                .zip(median_of(&off, throughput))
                .map(|(traced, untraced)| 1.0 - traced / untraced),
        ),
        name => from_samples(name)
            .or_else(|| per_round(extra.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)))
            .or_else(|| per_round(median_of(&on, |r| layer_value(r, name)))),
    };

    let (metrics, ungated) = if cx.traced {
        // A layer metric nothing measured: the layer does no such work
        // on this workload.
        let zero = Metric { value: 0.0, n: 0 };
        let all = spec::PER_LAYER
            .iter()
            .map(|m| (m, per_layer(m.name).unwrap_or(zero)))
            .collect();
        (all, Vec::new())
    } else {
        let gated = spec::END_TO_END
            .iter()
            .map(|m| {
                let found = end_to_end(m.name);
                (
                    m,
                    found.unwrap_or_else(|| panic!("{workload} measured nothing for {}", m.name)),
                )
            })
            .collect();
        // Whatever of the per-layer set an untraced run can tell: the
        // ungated latencies and the supported tails.
        let ungated = spec::PER_LAYER
            .iter()
            .filter_map(|m| from_samples(m.name).map(|v| (m, v)))
            .collect();
        (gated, ungated)
    };

    WorkloadResult {
        workload,
        attempted,
        failed,
        lost_acked,
        metrics,
        ungated,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ops: u64, read_ns: u64) -> Round {
        Round {
            window_s: 1.0,
            ops,
            samples: Samples {
                read: vec![read_ns; 100],
                write: vec![2_000; 100],
                scan: vec![9_000; 20],
            },
            pmem_bytes: 3_200,
            live_keys: 100,
            restart_ms: 4.0,
            setup_s: 0.5,
            attempted: 220,
            ..Round::default()
        }
    }

    #[test]
    fn reports_the_median_round_not_the_mean() {
        let cx = Ctx {
            seed: 1,
            seconds: 3.0,
            traced: false,
            quick: false,
        };
        // One slow build among three must not move any reported value.
        let rounds = vec![
            round(500_000, 1_000),
            round(50_000, 30_000),
            round(510_000, 1_100),
        ];
        let res = aggregate("list_read", &cx, rounds, Vec::new());
        let get = |name: &str| res.metrics.iter().find(|(m, _)| m.name == name).unwrap().1;
        assert_eq!(get("throughput_ops_s").value, 500_000.0);
        assert_eq!(get("read_p50_us").value, 1.1);
        assert_eq!(get("read_p50_us").n, 300);
        let p99 = res.ungated.iter().find(|(m, _)| m.name == "read_p99_us");
        assert_eq!(p99.unwrap().1.value, 1.1);
        assert_eq!(get("pmem_bytes_per_live_key").value, 32.0);
        assert_eq!(res.metrics.len(), spec::END_TO_END.len());
        assert!(res.correct() && res.attempted == 660);
    }

    #[test]
    fn traced_run_reports_every_layer_metric_and_the_overhead() {
        let cx = Ctx {
            seed: 1,
            seconds: 2.0,
            traced: true,
            quick: false,
        };
        let mut traced = round(90_000, 1_000);
        traced.traced = true;
        traced.layer = vec![("core.get.pmem_reads", 40.0)];
        let res = aggregate(
            "list_read",
            &cx,
            vec![round(100_000, 1_000), traced],
            vec![("pmem.read_ns", 12.5)],
        );
        let get = |name: &str| {
            res.metrics
                .iter()
                .find(|(m, _)| m.name == name)
                .unwrap()
                .1
                .value
        };
        assert_eq!(res.metrics.len(), spec::PER_LAYER.len());
        assert!((get("trace.overhead_share") - 0.1).abs() < 1e-12);
        assert_eq!(get("core.get.pmem_reads"), 40.0);
        assert_eq!(get("pmem.read_ns"), 12.5);
        assert_eq!(get("service.submit_ns"), 0.0);
        assert_eq!(get("harness.read_tail_pct"), 90.0);
    }
}
