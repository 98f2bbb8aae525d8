//! What a run leaves behind: the result line the caller parses, the run
//! record that says where and when it was measured, and the spans file
//! of a traced run.

use crate::measure::{Measured, Stat};
use crate::procfs;
use sss_obs::JsonValue as J;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Where a run writes its files, relative to the repository root (the
/// directory `run.sh` changes into).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// The machine and moment a run was measured on. Nothing here is
/// judged: a disturbed run is flagged (`interfered`), never dropped or
/// retried.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `git rev-parse --short HEAD` as `run.sh` saw it (`unknown`
    /// outside a git checkout).
    pub commit: String,
    pub nproc: usize,
    pub kernel: String,
    /// 1-minute load average when the run started.
    pub load_average: f64,
    /// Hypervisor steal ticks (1/100 s) that elapsed during the run.
    pub steal_ticks: u64,
    /// A node loop was starved of rounds or the generator stalled.
    pub interfered: bool,
}

impl RunRecord {
    /// Captures the start-of-run state; `steal_ticks` holds the
    /// cumulative counter until [`RunRecord::finish`] turns it into the
    /// run's delta.
    pub fn start(workload: &str, seed: u64, seconds: u64, trace: bool) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            commit: std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            kernel: procfs::kernel_release(),
            load_average: procfs::load_average(),
            steal_ticks: procfs::steal_ticks(),
            interfered: false,
        }
    }

    /// Closes the record at the end of the run.
    pub fn finish(&mut self, interfered: bool) {
        self.steal_ticks = procfs::steal_ticks().saturating_sub(self.steal_ticks);
        self.interfered = interfered;
    }

    pub fn to_json(&self) -> J {
        J::Obj(vec![
            ("workload".into(), J::Str(self.workload.clone())),
            ("seed".into(), J::UInt(self.seed)),
            ("seconds".into(), J::UInt(self.seconds)),
            ("trace".into(), J::Bool(self.trace)),
            ("commit".into(), J::Str(self.commit.clone())),
            ("nproc".into(), J::UInt(self.nproc as u64)),
            ("kernel".into(), J::Str(self.kernel.clone())),
            ("load_average".into(), J::Num(self.load_average)),
            ("steal_ticks".into(), J::UInt(self.steal_ticks)),
            ("interfered".into(), J::Bool(self.interfered)),
        ])
    }

    pub fn from_json(v: &J) -> Option<RunRecord> {
        Some(RunRecord {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            seconds: v.get("seconds")?.as_u64()?,
            trace: v.get("trace")?.as_bool()?,
            commit: v.get("commit")?.as_str()?.to_string(),
            nproc: v.get("nproc")?.as_u64()? as usize,
            kernel: v.get("kernel")?.as_str()?.to_string(),
            load_average: v.get("load_average")?.as_f64()?,
            steal_ticks: v.get("steal_ticks")?.as_u64()?,
            interfered: v.get("interfered")?.as_bool()?,
        })
    }
}

/// One named metric value as printed and parsed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// The result of one run: the object printed as the last stdout line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Builds the result from the pass the counts come from and the
    /// derived metrics.
    pub fn new(m: &Measured, correct: bool, metrics: &[(&str, &str, Stat)]) -> RunResult {
        let (attempted, failed) = m.attempted_failed();
        RunResult {
            correct,
            // A run that completed nothing still "attempted" its window.
            attempted: attempted.max(1),
            failed,
            metrics: metrics
                .iter()
                .map(|(name, unit, stat)| Metric {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    value: if stat.value.is_finite() {
                        stat.value
                    } else {
                        0.0
                    },
                })
                .collect(),
        }
    }

    pub fn to_json(&self) -> J {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = J::Obj(vec![
                    ("value".into(), J::Num(m.value)),
                    ("unit".into(), J::Str(m.unit.clone())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        J::Obj(vec![
            ("correct".into(), J::Bool(self.correct)),
            ("attempted".into(), J::UInt(self.attempted)),
            ("failed".into(), J::UInt(self.failed)),
            ("metrics".into(), J::Obj(metrics)),
        ])
    }

    pub fn from_json(v: &J) -> Option<RunResult> {
        let J::Obj(pairs) = v.get("metrics")? else {
            return None;
        };
        let metrics = pairs
            .iter()
            .map(|(name, body)| {
                Some(Metric {
                    name: name.clone(),
                    unit: body.get("unit")?.as_str()?.to_string(),
                    value: body.get("value")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunResult {
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

/// The benchmark's own spans of a traced pass, as JSON lines
/// `{name, start_ns, end_ns, parent, op}`: one span per harness phase,
/// and per operation an `op` span (due → completion observed) with two
/// children — `admit` (the call into the program until it returned) and
/// `await` (return → completion observed). `parent` is the line number
/// (from 0) of the enclosing span; the spans of one operation share
/// `op`. Spans *inside* the program are a later change.
pub fn spans_jsonl(m: &Measured) -> String {
    let mut out = String::new();
    let mut line = |name: &str, start: u64, end: u64, parent: Option<usize>, op: Option<usize>| {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}, \
             \"parent\": {}, \"op\": {}}}",
            opt(parent),
            opt(op)
        );
    };
    // Phases first, so their line numbers are known to the op spans.
    let mut phases = m.phases.clone();
    // The pass's own set-up; the repeated ones come after the window.
    let last_setup_end = phases
        .iter()
        .filter(|p| p.0 == "setup" && p.2 <= m.window.0)
        .map(|p| p.2)
        .max()
        .unwrap_or(0);
    phases.push(("warmup", last_setup_end, m.window.0));
    phases.push(("measure", m.window.0, m.window.1));
    phases.sort_by_key(|p| p.1);
    for &(name, start, end) in &phases {
        line(name, start, end, None, None);
    }
    let enclosing = |at: u64| phases.iter().rposition(|p| p.1 <= at && at < p.2);
    let mut next = phases.len();
    for (i, o) in m.ops.iter().enumerate() {
        line("op", o.due_ns, o.done_ns, enclosing(o.call_ns), Some(i));
        line("admit", o.call_ns, o.ret_ns, Some(next), Some(i));
        line("await", o.ret_ns, o.done_ns, Some(next), Some(i));
        next += 3;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::OpSample;
    use sss_types::OpClass;

    #[test]
    fn result_round_trips_through_its_own_json() {
        let r = RunResult {
            correct: true,
            attempted: 180_321,
            failed: 2,
            metrics: vec![
                Metric {
                    name: "op_p50_us".into(),
                    unit: "us".into(),
                    value: 104.337,
                },
                Metric {
                    name: "ops_per_s".into(),
                    unit: "1/s".into(),
                    value: 18_032.099_999_999_9,
                },
                Metric {
                    name: "setup_s".into(),
                    unit: "s".into(),
                    value: 0.000_031_25,
                },
            ],
        };
        let text = r.to_json().render();
        assert!(!text.contains('\n'), "the result is one line");
        let back = RunResult::from_json(&J::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r, "every digit survives");
    }

    #[test]
    fn record_round_trips_through_its_own_json() {
        let mut rec = RunRecord::start("threads-closed", u64::MAX, 10, true);
        rec.finish(true);
        let back = RunRecord::from_json(&J::parse(&rec.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert!(back.nproc >= 1);
    }

    #[test]
    fn spans_nest_ops_under_their_phase_and_children_under_their_op() {
        let m = Measured {
            window: (1_000, 2_000),
            phases: vec![("setup", 0, 400), ("verify", 2_000, 2_100)],
            ops: vec![OpSample {
                class: OpClass::Write,
                lane: 0,
                due_ns: 1_100,
                call_ns: 1_150,
                ret_ns: 1_160,
                done_ns: 1_500,
                ok: true,
            }],
            ..Measured::default()
        };
        let text = spans_jsonl(&m);
        let lines: Vec<J> = text.lines().map(|l| J::parse(l).unwrap()).collect();
        let names: Vec<&str> = lines
            .iter()
            .map(|l| l.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            ["setup", "warmup", "measure", "verify", "op", "admit", "await"]
        );
        assert_eq!(
            lines[4].get("parent").unwrap().as_u64(),
            Some(2),
            "op is under measure"
        );
        assert_eq!(
            lines[5].get("parent").unwrap().as_u64(),
            Some(4),
            "admit is under op"
        );
        assert_eq!(lines[6].get("start_ns").unwrap().as_u64(), Some(1_160));
        assert_eq!(lines[1].get("parent"), Some(&J::Null));
        assert_eq!(lines[5].get("op").unwrap().as_u64(), Some(0));
    }
}
