//! Running every workload (each run in a fresh child process), storing
//! the values as a *set*, and comparing two sets against the bounds of
//! `BENCHMARK.json`.

use crate::layers::EXACT;
use crate::report::{out_dir, RunRecord, RunResult};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use sss_obs::JsonValue as J;
use std::collections::BTreeMap;
use std::process::Command;

/// The values a set holds for one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadValues {
    /// End-to-end metric → one value per untraced run.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → the traced run's value (empty without one).
    pub per_layer: BTreeMap<String, f64>,
    /// Operations attempted / failed, summed over the untraced runs.
    pub attempted: u64,
    pub failed: u64,
    /// Untraced runs flagged `interfered`.
    pub interfered: u64,
}

/// A complete set of runs of one commit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Set {
    pub seed: u64,
    pub seconds: u64,
    pub runs: u64,
    pub commit: String,
    pub workloads: BTreeMap<String, WorkloadValues>,
}

impl Set {
    pub fn to_json(&self) -> J {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let e2e = w
                    .end_to_end
                    .iter()
                    .map(|(k, vs)| (k.clone(), J::Arr(vs.iter().map(|v| J::Num(*v)).collect())))
                    .collect();
                let layer = w
                    .per_layer
                    .iter()
                    .map(|(k, v)| (k.clone(), J::Num(*v)))
                    .collect();
                let body = J::Obj(vec![
                    ("end_to_end".into(), J::Obj(e2e)),
                    ("per_layer".into(), J::Obj(layer)),
                    ("attempted".into(), J::UInt(w.attempted)),
                    ("failed".into(), J::UInt(w.failed)),
                    ("interfered".into(), J::UInt(w.interfered)),
                ]);
                (name.clone(), body)
            })
            .collect();
        J::Obj(vec![
            ("seed".into(), J::UInt(self.seed)),
            ("seconds".into(), J::UInt(self.seconds)),
            ("runs".into(), J::UInt(self.runs)),
            ("commit".into(), J::Str(self.commit.clone())),
            ("workloads".into(), J::Obj(workloads)),
        ])
    }

    pub fn from_json(v: &J) -> Option<Set> {
        let J::Obj(pairs) = v.get("workloads")? else {
            return None;
        };
        let mut workloads = BTreeMap::new();
        for (name, body) in pairs {
            let (J::Obj(e2e), J::Obj(layer)) = (body.get("end_to_end")?, body.get("per_layer")?)
            else {
                return None;
            };
            let mut w = WorkloadValues {
                attempted: body.get("attempted")?.as_u64()?,
                failed: body.get("failed")?.as_u64()?,
                interfered: body.get("interfered")?.as_u64()?,
                ..WorkloadValues::default()
            };
            for (k, vs) in e2e {
                let vs = vs.as_arr()?.iter().map(J::as_f64).collect::<Option<_>>()?;
                w.end_to_end.insert(k.clone(), vs);
            }
            for (k, v) in layer {
                w.per_layer.insert(k.clone(), v.as_f64()?);
            }
            workloads.insert(name.clone(), w);
        }
        Some(Set {
            seed: v.get("seed")?.as_u64()?,
            seconds: v.get("seconds")?.as_u64()?,
            runs: v.get("runs")?.as_u64()?,
            commit: v.get("commit")?.as_str()?.to_string(),
            workloads,
        })
    }
}

/// What a full run should do.
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    /// Untraced runs per workload, with seeds `seed .. seed + runs`.
    pub runs: u64,
    /// Also make one traced run per workload (seed `seed`).
    pub traced: bool,
    /// Only this workload.
    pub only: Option<String>,
}

/// Runs one child process on one workload; its output passes through,
/// its last stdout line is the result.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = J::parse(last)
        .ok()
        .and_then(|v| RunResult::from_json(&v))
        .ok_or_else(|| format!("{workload}: no result line (exit {:?})", out.status.code()))?;
    if !out.status.success() || !result.correct {
        return Err(format!("{workload}: correctness gate failed (seed {seed})"));
    }
    Ok(result)
}

/// Whether the run that just finished flagged itself `interfered`.
fn last_run_interfered(workload: &str, trace: bool) -> bool {
    let path = out_dir().join(format!("{workload}.trace{}.json", u8::from(trace)));
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| J::parse(&s).ok())
        .and_then(|v| RunRecord::from_json(v.get("record")?))
        .is_some_and(|r| r.interfered)
}

/// Runs the workloads and returns the set; `Err` on the first run whose
/// correctness gate fails.
pub fn run(args: &SuiteArgs) -> Result<Set, String> {
    let mut set = Set {
        seed: args.seed,
        seconds: args.seconds,
        runs: args.runs,
        commit: std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        workloads: BTreeMap::new(),
    };
    for w in WORKLOADS
        .iter()
        .filter(|w| args.only.as_deref().is_none_or(|o| o == w.name))
    {
        let mut values = WorkloadValues::default();
        for i in 0..args.runs {
            let r = child(w.name, args.seed + i, args.seconds, false)?;
            values.attempted += r.attempted;
            values.failed += r.failed;
            values.interfered += u64::from(last_run_interfered(w.name, false));
            for m in r.metrics {
                values.end_to_end.entry(m.name).or_default().push(m.value);
            }
        }
        if args.traced {
            let r = child(w.name, args.seed, args.seconds, true)?;
            values.per_layer = r.metrics.into_iter().map(|m| (m.name, m.value)).collect();
        }
        set.workloads.insert(w.name.to_string(), values);
    }
    Ok(set)
}

/// One line per (workload, end-to-end metric): median, spread when the
/// set has enough runs for one, and the failed share.
pub fn print_summary(set: &Set) {
    println!(
        "\n== summary: seed {}, {} s windows, {} run(s) per workload, commit {} ==",
        set.seed, set.seconds, set.runs, set.commit
    );
    for (name, w) in &set.workloads {
        println!(
            "{name}: attempted {} failed {} interfered-runs {}",
            w.attempted, w.failed, w.interfered
        );
        for (metric, values) in &w.end_to_end {
            let med = median(&mut values.clone());
            match spread(values) {
                Some(s) => println!(
                    "  {metric:<16} median {med:>14.4}  spread {:>6.2} %",
                    s * 100.0
                ),
                None => println!("  {metric:<16} {med:>14.4}"),
            }
        }
    }
}

/// An end-to-end metric's declaration in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` declarations of a `BENCHMARK.json` document.
pub fn declared_end_to_end(manifest: &J) -> Option<Vec<Declared>> {
    manifest
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// How one (metric, workload) pair of set B stands against set A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own run-to-run spread exceeds the bound: the pair cannot
    /// be called either way.
    Unresolved,
}

/// Judges B against A for one metric: the share by which B's median is
/// worse (negative = better) and the verdict.
pub fn judge(a: &[f64], b: &[f64], d: &Declared) -> (f64, Verdict) {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse_by = if ma == 0.0 {
        0.0
    } else if d.lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let noisy = [a, b].iter().filter_map(|v| spread(v)).any(|s| s > d.bound);
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > d.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Prints the comparison table of two sets; returns whether B is
/// acceptable (no pair `worse`, every exact metric identical).
pub fn compare(a: &Set, b: &Set, declared: &[Declared]) -> bool {
    let mut acceptable = true;
    println!(
        "{:<15} {:<14} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A sprd%", "B median", "B sprd%", "worse%", "bound%"
    );
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            println!("{name}: missing from B");
            acceptable = false;
            continue;
        };
        for d in declared {
            let (Some(va), Some(vb)) = (wa.end_to_end.get(&d.name), wb.end_to_end.get(&d.name))
            else {
                println!("{name:<15} {:<14} missing", d.name);
                acceptable = false;
                continue;
            };
            let (worse_by, verdict) = judge(va, vb, d);
            acceptable &= verdict != Verdict::Worse;
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}", s * 100.0));
            println!(
                "{name:<15} {:<14} {:>14.4} {:>8} {:>14.4} {:>8} {:>8.2} {:>6.1}  {}",
                d.name,
                median(&mut va.clone()),
                pct(spread(va)),
                median(&mut vb.clone()),
                pct(spread(vb)),
                worse_by * 100.0,
                d.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if wb.failed > wa.failed {
            println!(
                "{name:<15} failed operations rose from {} to {}",
                wa.failed, wb.failed
            );
            acceptable = false;
        }
        // Seed-determined counts must agree to the last bit.
        for metric in EXACT {
            if let (Some(x), Some(y)) = (wa.per_layer.get(metric), wb.per_layer.get(metric)) {
                let same = x.to_bits() == y.to_bits();
                acceptable &= same;
                // Shown where the metric is the workload's own, and
                // wherever it differs.
                let own = metric.starts_with("fault.") == (name == "fault-recovery")
                    && matches!(name.as_str(), "sim-storm" | "fault-recovery");
                if !same || own {
                    let verdict = if same { "identical" } else { "DIFFERENT" };
                    println!("{name:<15} {metric:<28} {x:>18} {y:>18}  {verdict}");
                }
            }
        }
    }
    acceptable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "op_p50_us".into(),
            unit: "us".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn set_round_trips_through_its_own_json() {
        let mut set = Set {
            seed: 7,
            seconds: 10,
            runs: 2,
            commit: "abc1234".into(),
            workloads: BTreeMap::new(),
        };
        let mut w = WorkloadValues {
            attempted: 1_000,
            failed: 1,
            interfered: 1,
            ..WorkloadValues::default()
        };
        w.end_to_end
            .insert("ops_per_s".into(), vec![18_000.25, 17_950.0]);
        w.per_layer.insert("core.msgs_per_op".into(), 14.062_5);
        set.workloads.insert("threads-closed".into(), w);
        let back = Set::from_json(&J::parse(&set.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 101.1, 99.3, 100.0, 99.9];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let wild = [60.0, 140.0, 100.0, 180.0, 20.0];
        assert_eq!(judge(&a, &same, &lower(0.1)).1, Verdict::Ok);
        let (by, verdict) = judge(&a, &slow, &lower(0.1));
        assert_eq!(verdict, Verdict::Worse);
        assert!((by - 0.2).abs() < 1e-9);
        assert_eq!(judge(&a, &wild, &lower(0.1)).1, Verdict::Unresolved);
        // Faster is never worse, whatever the bound.
        assert_eq!(judge(&slow, &a, &lower(0.05)).1, Verdict::Ok);
        // Higher-is-better flips the direction.
        let higher = Declared {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(judge(&a, &slow, &higher).1, Verdict::Ok);
        assert_eq!(judge(&slow, &a, &higher).1, Verdict::Worse);
        // Single runs have no spread and are judged on the medians alone.
        assert_eq!(judge(&[100.0], &[105.0], &lower(0.1)).1, Verdict::Ok);
    }

    #[test]
    fn manifest_declarations_parse() {
        let manifest = J::parse(
            r#"{"end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let d = declared_end_to_end(&manifest).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d[0].lower_is_better && !d[1].lower_is_better);
        assert_eq!(d[1].bound, 0.1);
    }
}
