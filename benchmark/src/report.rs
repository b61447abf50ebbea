//! Printing results, saving them under `benchmark/out/`, and comparing two
//! saved runs against the end-to-end bounds (`diff`, and `repeat` through
//! it).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{obj, Json};
use crate::round::{Ctx, WorkloadResult};
use crate::span;
use crate::spec::{self, Better};

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `workload metric value unit n_samples`, one line per metric.
pub fn print_rows(res: &WorkloadResult) {
    for (spec, m) in res.metrics.iter().chain(&res.ungated) {
        println!(
            "{} {} {} {} {}",
            res.workload, spec.name, m.value, spec.unit, m.n
        );
    }
    let share = res.failed as f64 / res.attempted.max(1) as f64;
    println!(
        "{} failed_share {share} share {}",
        res.workload, res.attempted
    );
    println!(
        "{} lost_acked_writes {} count {}",
        res.workload, res.lost_acked, res.attempted
    );
}

/// The driver's line: one JSON object, last on stdout.
pub fn contract_line(results: &[WorkloadResult]) -> String {
    let single = results.len() == 1;
    let metrics: BTreeMap<String, Json> = results
        .iter()
        .flat_map(|res| {
            res.metrics.iter().map(move |(spec, m)| {
                let name = if single {
                    spec.name.to_string()
                } else {
                    format!("{}/{}", res.workload, spec.name)
                };
                let value = obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(spec.unit.into())),
                ]);
                (name, value)
            })
        })
        .collect();
    obj([
        (
            "correct",
            Json::Bool(results.iter().all(WorkloadResult::correct)),
        ),
        (
            "attempted",
            Json::Num(results.iter().map(|r| r.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(results.iter().map(|r| r.failed + r.lost_acked).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn run_doc(cx: &Ctx, results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|res| {
            let metrics = res
                .metrics
                .iter()
                .chain(&res.ungated)
                .map(|(spec, m)| {
                    let entry = obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(spec.unit.into())),
                        ("n", Json::Num(m.n as f64)),
                    ]);
                    (spec.name.to_string(), entry)
                })
                .collect();
            let doc = obj([
                ("attempted", Json::Num(res.attempted as f64)),
                ("failed", Json::Num(res.failed as f64)),
                ("lost_acked_writes", Json::Num(res.lost_acked as f64)),
                ("metrics", Json::Obj(metrics)),
            ]);
            (res.workload.to_string(), doc)
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("quick", Json::Bool(cx.quick)),
        ("traced", Json::Bool(cx.traced)),
        ("seed", Json::Num(cx.seed as f64)),
        ("seconds", Json::Num(cx.seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// Write `out/<run>.json` (and, traced, `out/trace-<workload>.json`).
pub fn save(cx: &Ctx, results: &[WorkloadResult], run: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{run}.json"));
    std::fs::write(&path, run_doc(cx, results).render())?;
    for res in results.iter().filter(|r| !r.spans.is_empty()) {
        let doc = obj([
            ("workload", Json::Str(res.workload.into())),
            ("seed", Json::Num(cx.seed as f64)),
            ("spans_recorded", Json::Num(res.spans.len() as f64)),
            ("spans", span::to_json(&res.spans)),
        ]);
        std::fs::write(
            dir.join(format!("trace-{}.json", res.workload)),
            doc.render(),
        )?;
    }
    Ok(path)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// How two runs are held against the bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// `b` is a change measured against its parent `a`: only getting worse
    /// can fail.
    AgainstBaseline,
    /// `a` and `b` are the same commit run twice (`repeat`): neither is
    /// the baseline, so the gap counts in both directions.
    SameCommit,
}

/// How much worse `new` is than `base`, as a share of `base` (negative:
/// better).
fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// The distance between two values of one metric as a share of the
/// smaller, whichever run it came from.
fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

/// Compare run `b` with run `a` on every workload × end-to-end metric.
/// Prints one line each; returns how many FAIL. A workload or metric that
/// `a` holds and `b` lacks (or holds as `null`: not a finite number) is a
/// FAIL, so a partial or broken run cannot pass by omission.
pub fn diff_docs(a: &Json, b: &Json, how: Compare) -> Result<usize, String> {
    for key in ["quick", "traced"] {
        if a.get(key).and_then(Json::bool) != b.get(key).and_then(Json::bool) {
            return Err(format!("refusing to compare runs whose \"{key}\" differs"));
        }
    }
    for key in ["seed", "seconds", "nproc"] {
        if a.get(key).and_then(Json::num) != b.get(key).and_then(Json::num) {
            return Err(format!("refusing to compare runs whose \"{key}\" differs"));
        }
    }
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::obj)
            .cloned()
            .ok_or("not a run file: no \"workloads\"")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut fails = 0;
    for w in spec::WORKLOADS.iter().map(|w| w.name) {
        let Some(ra) = wa.get(w) else { continue };
        let Some(rb) = wb.get(w) else {
            println!("{w} missing from the second run FAIL");
            fails += 1;
            continue;
        };
        let value = |run: &Json, metric: &str| run.get("metrics")?.get(metric)?.get("value")?.num();
        for m in &spec::END_TO_END {
            let Some(va) = value(ra, m.name) else {
                continue;
            };
            let Some(vb) = value(rb, m.name) else {
                println!("{w} {} {va} missing {} FAIL", m.name, m.unit);
                fails += 1;
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let (gap, label) = match how {
                Compare::AgainstBaseline => (worsening(m.better, va, vb), "worse by"),
                Compare::SameCommit => (relative_gap(va, vb), "gap"),
            };
            let verdict = if gap <= bound { "PASS" } else { "FAIL" };
            fails += (gap > bound) as usize;
            println!(
                "{w} {} {va} {vb} {} {label} {:+.2}% (bound {:.0}%) {verdict}",
                m.name,
                m.unit,
                gap * 100.0,
                bound * 100.0
            );
        }
        // Any failure at all is a regression, whatever the baseline had.
        for key in ["failed", "lost_acked_writes"] {
            let count = rb.get(key).and_then(Json::num);
            let verdict = if count == Some(0.0) { "PASS" } else { "FAIL" };
            fails += (count != Some(0.0)) as usize;
            println!(
                "{w} {key} {} {} count {verdict}",
                ra.get(key).and_then(Json::num).unwrap_or(0.0),
                count.map_or("missing".to_string(), |c| c.to_string())
            );
        }
    }
    Ok(fails)
}

pub fn diff_files(a: &str, b: &str, how: Compare) -> Result<usize, String> {
    diff_docs(&load(a)?, &load(b)?, how)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Compare::{AgainstBaseline, SameCommit};

    fn doc_with(metrics: Json, quick: bool, seed: f64, failed: f64) -> Json {
        obj([
            ("quick", Json::Bool(quick)),
            ("traced", Json::Bool(false)),
            ("seed", Json::Num(seed)),
            ("seconds", Json::Num(10.0)),
            ("nproc", Json::Num(2.0)),
            (
                "workloads",
                obj([(
                    "list_read",
                    obj([
                        ("failed", Json::Num(failed)),
                        ("lost_acked_writes", Json::Num(0.0)),
                        ("metrics", metrics),
                    ]),
                )]),
            ),
        ])
    }

    fn doc(quick: bool, throughput: f64, p50: f64, failed: f64) -> Json {
        let metric = |v: f64| obj([("value", Json::Num(v))]);
        let metrics = obj([
            ("throughput_ops_s", metric(throughput)),
            ("read_p50_us", metric(p50)),
        ]);
        doc_with(metrics, quick, 1.0, failed)
    }

    fn bound(name: &str) -> f64 {
        let m = spec::END_TO_END.iter().find(|m| m.name == name).unwrap();
        m.bound.unwrap()
    }

    #[test]
    fn bounds_apply_in_the_metric_s_own_direction() {
        let (less, more) = (bound("throughput_ops_s"), bound("read_p50_us"));
        let base = doc(false, 1000.0, 10.0, 0.0);
        // Just inside both bounds: less throughput, more latency.
        let inside = doc(
            false,
            1000.0 * (1.0 - 0.9 * less),
            10.0 * (1.0 + 0.9 * more),
            0.0,
        );
        assert_eq!(diff_docs(&base, &inside, AgainstBaseline), Ok(0));
        // Just outside, one at a time.
        let slower = doc(false, 1000.0 * (1.0 - 1.1 * less), 10.0, 0.0);
        assert_eq!(diff_docs(&base, &slower, AgainstBaseline), Ok(1));
        let later = doc(false, 1000.0, 10.0 * (1.0 + 1.1 * more), 0.0);
        assert_eq!(diff_docs(&base, &later, AgainstBaseline), Ok(1));
        // Getting better never fails, however far.
        let better = doc(false, 5000.0, 1.0, 0.0);
        assert_eq!(diff_docs(&base, &better, AgainstBaseline), Ok(0));
        // A failed operation fails the comparison on its own.
        let wrong = doc(false, 1000.0, 10.0, 1.0);
        assert_eq!(diff_docs(&base, &wrong, AgainstBaseline), Ok(1));
    }

    #[test]
    fn two_runs_of_one_commit_must_agree_whichever_came_first() {
        let gap = 1.0 + 1.2 * bound("throughput_ops_s");
        let (slow, fast) = (
            doc(false, 1000.0, 10.0, 0.0),
            doc(false, 1000.0 * gap, 10.0, 0.0),
        );
        // Against a baseline the faster second run passes...
        assert_eq!(diff_docs(&slow, &fast, AgainstBaseline), Ok(0));
        // ...but as two runs of one commit the pair disagrees, either way round.
        assert_eq!(diff_docs(&slow, &fast, SameCommit), Ok(1));
        assert_eq!(diff_docs(&fast, &slow, SameCommit), Ok(1));
        let near = doc(
            false,
            1000.0 * (1.0 + 0.8 * bound("throughput_ops_s")),
            10.0,
            0.0,
        );
        assert_eq!(diff_docs(&slow, &near, SameCommit), Ok(0));
        assert_eq!(diff_docs(&near, &slow, SameCommit), Ok(0));
    }

    #[test]
    fn what_the_baseline_has_and_the_new_run_lacks_fails() {
        let base = doc(false, 1000.0, 10.0, 0.0);
        // A metric the new run did not produce.
        let only_throughput = obj([("throughput_ops_s", obj([("value", Json::Num(1000.0))]))]);
        let partial = doc_with(only_throughput, false, 1.0, 0.0);
        assert_eq!(diff_docs(&base, &partial, AgainstBaseline), Ok(1));
        // A value that was not finite is saved as null.
        let broken = obj([
            ("throughput_ops_s", obj([("value", Json::Num(f64::NAN))])),
            ("read_p50_us", obj([("value", Json::Num(10.0))])),
        ]);
        let reloaded = Json::parse(&doc_with(broken, false, 1.0, 0.0).render()).unwrap();
        assert_eq!(diff_docs(&base, &reloaded, AgainstBaseline), Ok(1));
        // A workload the new run did not run at all.
        let mut empty = doc(false, 1000.0, 10.0, 0.0);
        if let Json::Obj(top) = &mut empty {
            top.insert("workloads".into(), obj([]));
        }
        assert_eq!(diff_docs(&base, &empty, AgainstBaseline), Ok(1));
    }

    #[test]
    fn only_like_runs_are_compared() {
        let full = doc(false, 1.0, 1.0, 0.0);
        assert!(diff_docs(&doc(true, 1.0, 1.0, 0.0), &full, AgainstBaseline).is_err());
        assert_eq!(
            diff_docs(
                &doc(true, 1.0, 1.0, 0.0),
                &doc(true, 1.0, 1.0, 0.0),
                AgainstBaseline
            ),
            Ok(0)
        );
        let metrics = || obj([("throughput_ops_s", obj([("value", Json::Num(1.0))]))]);
        let other_seed = doc_with(metrics(), false, 2.0, 0.0);
        assert!(diff_docs(&full, &other_seed, AgainstBaseline).is_err());
    }
}
