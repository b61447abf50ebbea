//! The repo's benchmark: five workloads, the end-to-end metrics a user of
//! the list or the service sees, and a per-crate cost stack, all measured
//! from outside through the public surface of the crates. See README.md.
//!
//! ```text
//! benchmark run    [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--quick]
//! benchmark repeat [--sets N] [--seed S] [--seconds T] [--quick]
//! benchmark diff   A.json B.json
//! ```

mod churn;
mod deploy;
mod gen;
mod json;
mod list_read;
mod openloop;
mod probes;
mod report;
mod round;
mod span;
mod spec;
mod stats;
mod svc;
mod watchdog;

use std::process::ExitCode;

use round::{aggregate, Ctx, WorkloadResult};

/// The main thread loads, drives the closed loop and reads back; the
/// generator threads are 0 and 1 and the shard workers start at 64.
const MAIN_THREAD_ID: usize = 2;

const USAGE: &str = "usage:
  benchmark run    [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--quick]
  benchmark repeat [--sets N] [--seed S] [--seconds T] [--quick]
  benchmark diff   A.json B.json";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = spec::workload(name).ok_or(format!("unknown workload {name}"))?;
                out.workload = Some(spec.name);
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed: not a whole number")?,
            "--seconds" => {
                let s = number(value()?)?;
                if !(0.1..=600.0).contains(&s) {
                    return Err(format!("--seconds {s}: out of range"));
                }
                out.seconds = Some(s);
            }
            "--trace" => out.traced = number(value()?)? != 0.0,
            "--quick" => out.quick = true,
            "--sets" => out.sets = value()?.parse().map_err(|_| "--sets: not a whole number")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

impl Args {
    fn ctx(&self) -> Ctx {
        Ctx {
            seed: self.seed,
            // A quick run is a smoke test of all five workloads in ~20 s.
            seconds: self.seconds.unwrap_or(if self.quick {
                2.0
            } else {
                spec::RUN_SECONDS as f64
            }),
            traced: self.traced,
            quick: self.quick,
        }
    }
}

fn run_workload(name: &'static str, cx: &Ctx, probes: &[(&'static str, f64)]) -> WorkloadResult {
    let (rounds, mut extra) = match name {
        "list_read" => list_read::run(cx),
        "list_churn" => (churn::list_churn::run(cx), Vec::new()),
        "svc_closed" => (svc::run(cx, svc::Loop::Closed), Vec::new()),
        "svc_open" => (svc::run(cx, svc::Loop::Open), Vec::new()),
        "crash_recover" => (churn::crash_recover::run(cx), Vec::new()),
        other => unreachable!("{other} is not in spec::all_workloads()"),
    };
    extra.extend_from_slice(probes);
    aggregate(name, cx, rounds, extra)
}

/// Run the selected workloads (all five by default), print every metric,
/// save the run, and return the results.
fn run_set(args: &Args, run_name: &str) -> Vec<WorkloadResult> {
    let cx = args.ctx();
    let probes = if cx.traced {
        probes::run(cx.quick)
    } else {
        Vec::new()
    };
    let results: Vec<WorkloadResult> = spec::all_workloads()
        .filter(|w| args.workload.is_none_or(|only| only == w.name))
        .map(|w| {
            eprintln!("# {}: {}", w.name, w.why);
            let res = run_workload(w.name, &cx, &probes);
            report::print_rows(&res);
            res
        })
        .collect();
    match report::save(&cx, &results, run_name) {
        Ok(path) => eprintln!("saved {}", path.display()),
        Err(e) => eprintln!("could not save the run: {e}"),
    }
    results
}

fn run_name(args: &Args, set: usize) -> String {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let kind = if args.traced { "traced" } else { "run" };
    format!("{kind}-seed{}-{stamp}-{set}", args.seed)
}

fn main() -> ExitCode {
    pmem::thread::register(MAIN_THREAD_ID, 0);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "diff" {
        let [a, b] = rest else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match report::diff_files(a, b, report::Compare::AgainstBaseline) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(fails) => {
                eprintln!("{fails} metric(s) outside their bound");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(rest) {
        Ok(args) if matches!(command.as_str(), "run" | "repeat") => args,
        Ok(_) => {
            eprintln!("unknown command {command}\n{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    watchdog::spawn(|| {
        eprintln!(
            "a ticket was not completed within {:?}",
            watchdog::TICKET_TIMEOUT
        );
        println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
    });

    if command == "run" {
        let results = run_set(&args, &run_name(&args, 0));
        println!("{}", report::contract_line(&results));
        return if results.iter().all(WorkloadResult::correct) {
            ExitCode::SUCCESS
        } else {
            eprintln!("failed_share or lost_acked_writes is above 0");
            ExitCode::FAILURE
        };
    }

    // repeat: the same seed several times; every later set is compared
    // with the first under the end-to-end bounds.
    let names: Vec<String> = (0..args.sets.max(2))
        .map(|set| run_name(&args, set))
        .collect();
    let mut correct = true;
    for (set, name) in names.iter().enumerate() {
        println!("# set {set}");
        correct &= run_set(&args, name).iter().all(WorkloadResult::correct);
    }
    let path = |name: &String| {
        report::out_dir()
            .join(format!("{name}.json"))
            .display()
            .to_string()
    };
    let mut fails = 0;
    for (set, name) in names.iter().enumerate().skip(1) {
        println!("# set {set} against set 0: workload metric set0 set{set} unit gap verdict");
        match report::diff_files(&path(&names[0]), &path(name), report::Compare::SameCommit) {
            Ok(n) => fails += n,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    if correct && fails == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{fails} metric(s) outside their bound; all responses correct: {correct}");
        ExitCode::FAILURE
    }
}
