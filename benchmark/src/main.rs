//! The repository's one repeatable benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--tamper]
//!     one run in this process; the last stdout line is the result JSON
//! run.sh [--seed N] [--seconds S] [--runs K] [--traced] [--smoke] [--out FILE]
//!     every workload, each run in a fresh child process; writes a set
//! run.sh --compare A.json B.json
//!     judges set B against set A with the bounds of BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod layers;
mod measure;
mod micro;
mod procfs;
mod report;
mod stats;
mod suite;
mod tracefold;
mod verify;
mod workloads;

use measure::{Counts, Stat};
use report::{out_dir, RunRecord, RunResult};
use sss_obs::JsonValue as J;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Ctx, WORKLOADS};

/// Window length when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 10;
/// Warm-up is this share of the window, at most [`MAX_WARMUP`]. On the
/// reference host a thread wake-up costs two to three times more for
/// some 4 s after the processors were busy (a build, the previous run)
/// than after they idled; the warm-up outlasts that, so the window sees
/// the state the workload's own load produces.
const WARMUP_SHARE: f64 = 0.4;
const MAX_WARMUP: Duration = Duration::from_secs(4);

const HEADER: &str = "\
# All traffic is host loopback or in-process and no delay is injected:
# latency is processor + scheduler + (sockets) kernel time only.
# Load comes from this one process with at most 2 threads issuing
# operations (service-open: one, plus a collector per shard that sleeps
# until a flush resolves); node and batcher threads belong to the system
# under test.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    tamper: bool,
    runs: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        tamper: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} takes {what}"));
        let number = |s: String| s.parse::<u64>().map_err(|_| format!("not a number: {s}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => args.seconds = number(value("a number")?)?.max(1),
            "--runs" => args.runs = number(value("a number")?)?.max(1),
            "--trace" => args.trace = number(value("0 or 1")?)? != 0,
            "--traced" => args.trace = true,
            "--tamper" => args.tamper = true,
            "--smoke" => {
                args.seconds = 1;
                args.trace = true;
            }
            "--out" => args.out = Some(value("a file")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare(a, b),
        // `--runs` or `--out` with a workload name mean a set of that
        // workload; a bare `--workload` is the single in-process run.
        (None, Some(w)) if args.runs == 1 && args.out.is_none() => single(w, &args),
        (None, _) => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn read_json(path: &str) -> Result<J, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    J::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        suite::Set::from_json(&read_json(p)?).ok_or(format!("{p}: not a set written by run.sh"))
    };
    let declared = suite::declared_end_to_end(&read_json("BENCHMARK.json")?)
        .ok_or("BENCHMARK.json: malformed end_to_end")?;
    Ok(suite::compare(&load(a)?, &load(b)?, &declared))
}

fn suite(args: &Args) -> Result<bool, String> {
    println!("{HEADER}");
    let set = suite::run(&suite::SuiteArgs {
        seed: args.seed,
        seconds: args.seconds,
        runs: args.runs,
        traced: args.trace,
        only: args.workload.clone(),
    })?;
    suite::print_summary(&set);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("set.json").to_string_lossy().into_owned());
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(&path, set.to_json().render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(true)
}

/// One run of one workload in this process.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let Some(why) = WORKLOADS.iter().find(|w| w.name == name).map(|w| w.why) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {name}; one of {names:?}"));
    };
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let mut record = RunRecord::start(name, args.seed, args.seconds, args.trace);
    println!("{HEADER}");
    println!("# {name} — {why}");
    println!(
        "# seed {}, {} s, trace {}, commit {}, nproc {}, kernel {}, load {:.2}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        record.commit,
        record.nproc,
        record.kernel,
        record.load_average
    );
    let window = Duration::from_secs(args.seconds);
    let pass = |window: Duration, traced: bool| {
        let ctx = Ctx {
            seed: args.seed,
            warmup: window.mul_f64(WARMUP_SHARE).min(MAX_WARMUP),
            window,
            traced,
            tamper: args.tamper,
        };
        workloads::run(name, &ctx).expect("name checked above")
    };

    let (base, metrics) = if !args.trace {
        let base = pass(window, false);
        let metrics = measure::end_to_end(&base);
        (base, metrics)
    } else {
        // A traced run spends its time in thirds: an untraced window for
        // the counts, a traced window for the trace fold and the spans,
        // and the microbenchmarks.
        let third = window / 3;
        let base = pass(third, false);
        let traced = pass(third, true);
        let mut micro = Counts::new();
        micro::run_all(third, args.seed, &mut micro);
        let values = layers::per_layer(&base, &traced, &micro, name == "threads-snap");
        let metrics: Vec<(&str, &str, Stat)> = layers::PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(n, u), s)| (n, u, s))
            .collect();
        let spans = out_dir().join(format!("{name}.spans.jsonl"));
        std::fs::write(&spans, report::spans_jsonl(&traced))
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("# spans of the traced pass: {}", spans.display());
        let mut base = base;
        base.violations.extend(traced.violations);
        (base, metrics)
    };

    for (metric, unit, stat) in &metrics {
        println!(
            "{metric:<32} {:>16.6} {unit:<7} (n={})",
            stat.value, stat.samples
        );
    }
    for v in &base.violations {
        println!("VIOLATION {v}");
    }
    let result = RunResult::new(&base, base.violations.is_empty(), &metrics);
    record.finish(layers::interfered(&base));
    println!(
        "# attempted {} failed {} interfered {} steal_ticks {}",
        result.attempted, result.failed, record.interfered, record.steal_ticks
    );
    let file = J::Obj(vec![
        ("record".into(), record.to_json()),
        ("result".into(), result.to_json()),
    ]);
    let path = out_dir().join(format!("{name}.trace{}.json", u8::from(args.trace)));
    std::fs::write(&path, file.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result.to_json().render());
    Ok(result.correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measured;

    /// `BENCHMARK.json` and the code agree on every name and unit: the
    /// workloads with their reasons, the end-to-end metrics a run
    /// prints with `--trace 0`, and the per-layer ones with `--trace 1`.
    #[test]
    fn manifest_matches_what_a_run_prints() {
        let manifest = J::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let pairs = |key: &str, a: &str, b: &str| -> Vec<(String, String)> {
            manifest
                .get(key)
                .and_then(J::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(J::as_str).expect(f).to_string();
                    (field(a), field(b))
                })
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(
            pairs("workloads", "name", "why"),
            own(WORKLOADS.iter().map(|w| (w.name, w.why)).collect())
        );
        let e2e = measure::end_to_end(&Measured {
            window: (0, 1),
            ..Measured::default()
        });
        assert_eq!(
            pairs("end_to_end", "name", "unit"),
            own(e2e.iter().map(|&(n, u, _)| (n, u)).collect())
        );
        assert_eq!(
            pairs("per_layer", "name", "unit"),
            own(layers::PER_LAYER.to_vec())
        );
        assert_eq!(
            manifest.get("run_seconds").and_then(J::as_u64),
            Some(DEFAULT_SECONDS)
        );
        let declared = suite::declared_end_to_end(&manifest).expect("end_to_end parses");
        assert!(declared.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
