//! What one pass over one workload yields, and how the end-to-end
//! metrics are read off it.

use crate::procfs::CpuTime;
use crate::stats::{percentile_sorted, sliced_percentile};
use crate::tracefold::TraceFold;
use sss_types::OpClass;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One client operation as the load generator saw it. All times are
/// nanoseconds since the pass's [`Clock`] started.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    /// Write or snapshot.
    pub class: OpClass,
    /// The generator-side lane (client thread, or 0 for a single
    /// generator) that issued it.
    pub lane: u16,
    /// When the schedule said to send it; equals `call_ns` in a closed
    /// loop, which has no schedule.
    pub due_ns: u64,
    /// When the harness entered the program (`Client::write`,
    /// `Client::submit`, `Service::write`, …).
    pub call_ns: u64,
    /// When that call returned.
    pub ret_ns: u64,
    /// When the harness observed the completion.
    pub done_ns: u64,
    /// Whether it completed successfully.
    pub ok: bool,
}

/// The pass's time base.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// Starts the clock.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// `at` on this clock (0 for instants before it started).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.0).as_nanos() as u64
    }

    /// The instant `ns` nanoseconds after the clock started.
    pub fn instant(&self, ns: u64) -> Instant {
        self.0 + Duration::from_nanos(ns)
    }
}

/// Named counts a pass collected from the program's public statistics.
pub type Counts = BTreeMap<&'static str, f64>;

/// Everything one pass (warm-up + measured window + verification) over
/// one workload produced.
#[derive(Debug)]
pub struct Measured {
    /// Construction → first operation done, one sample per construction.
    pub setup_s: Vec<f64>,
    /// The measured window on the pass clock, `[start, end)` ns.
    pub window: (u64, u64),
    /// Every operation of the pass, warm-up included.
    pub ops: Vec<OpSample>,
    /// Process CPU time spent inside the window.
    pub cpu: CpuTime,
    /// Counter deltas over the window plus workload-specific figures,
    /// keyed by per-layer metric name.
    pub counts: Counts,
    /// Correctness violations; any entry fails the run.
    pub violations: Vec<String>,
    /// The harness's own phases: `(name, start_ns, end_ns)`.
    pub phases: Vec<(&'static str, u64, u64)>,
    /// The program's trace events inside the window, folded (traced
    /// pass only).
    pub trace: TraceFold,
    /// Every reported time of this pass is multiplied by this: 1 for
    /// wall-clock workloads; `sim-storm` scales to a reference
    /// processor speed (see its `Yardstick`).
    pub time_scale: f64,
}

impl Default for Measured {
    fn default() -> Self {
        Measured {
            setup_s: Vec::new(),
            window: (0, 0),
            ops: Vec::new(),
            cpu: CpuTime::default(),
            counts: Counts::new(),
            violations: Vec::new(),
            phases: Vec::new(),
            trace: TraceFold::default(),
            time_scale: 1.0,
        }
    }
}

/// A derived metric value with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// The value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

impl Measured {
    /// Window length in (scaled) seconds.
    pub fn window_s(&self) -> f64 {
        (self.window.1 - self.window.0) as f64 / 1e9 * self.time_scale
    }

    /// Process CPU time inside the window, (scaled) µs: user, system.
    pub fn cpu_us(&self) -> (f64, f64) {
        (
            self.cpu.user_us as f64 * self.time_scale,
            self.cpu.sys_us as f64 * self.time_scale,
        )
    }

    /// Operations whose completion (or failure) fell inside the window.
    pub fn in_window(&self) -> impl Iterator<Item = &OpSample> {
        let (t0, t1) = self.window;
        self.ops
            .iter()
            .filter(move |o| o.done_ns >= t0 && o.done_ns < t1)
    }

    /// Operations attempted and failed inside the window.
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.in_window()
            .fold((0, 0), |(a, f), o| (a + 1, f + u64::from(!o.ok)))
    }

    /// Successfully completed operations inside the window.
    pub fn completed(&self) -> u64 {
        let (a, f) = self.attempted_failed();
        a - f
    }

    /// Whole-window median and 90th percentile, and slice-median 99th
    /// percentile, of the due → done latency of successful `class`
    /// operations (`None`: of every class), in (scaled) µs.
    pub fn latency_us(&self, class: Option<OpClass>) -> [Stat; 3] {
        let t0 = self.window.0;
        let samples: Vec<(u64, u64)> = self
            .in_window()
            .filter(|o| o.ok && class.is_none_or(|c| o.class == c))
            .map(|o| (o.done_ns - t0, o.done_ns.saturating_sub(o.due_ns)))
            .collect();
        let mut lat: Vec<u64> = samples.iter().map(|s| s.1).collect();
        lat.sort_unstable();
        let window_ns = self.window.1 - t0;
        let (p99, _) = sliced_percentile(&samples, window_ns, slice_ns(window_ns), 99.0);
        let whole = |p: f64| percentile_sorted(&lat, p) as f64 / 1e3;
        [whole(50.0), whole(90.0), p99 / 1e3].map(|us| Stat {
            value: us * self.time_scale,
            samples: lat.len(),
        })
    }

    /// A named count (0 when the workload does not produce it).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// `numerator / completed ops`, 0 when nothing completed.
    pub fn per_op(&self, numerator: f64) -> f64 {
        match self.completed() {
            0 => 0.0,
            ops => numerator / ops as f64,
        }
    }
}

/// Tail slices are 2 s long, or a fifth of a window shorter than 10 s.
fn slice_ns(window_ns: u64) -> u64 {
    (window_ns / 5).clamp(1, 2_000_000_000)
}

/// The end-to-end metrics of an untraced pass, in `BENCHMARK.json`
/// order. Every workload reports every one of them.
pub fn end_to_end(m: &Measured) -> Vec<(&'static str, &'static str, Stat)> {
    let ops = m.completed();
    let stat = |value: f64, samples: usize| Stat { value, samples };
    let mut setup = m.setup_s.clone();
    let [op50, _, _] = m.latency_us(None);
    let [_, w90, _] = m.latency_us(Some(OpClass::Write));
    let [s50, s90, _] = m.latency_us(Some(OpClass::Snapshot));
    vec![
        (
            "setup_s",
            "s",
            stat(crate::stats::median(&mut setup) * m.time_scale, setup.len()),
        ),
        (
            "ops_per_s",
            "1/s",
            stat(ops as f64 / m.window_s(), ops as usize),
        ),
        ("op_p50_us", "us", op50),
        ("write_p90_us", "us", w90),
        ("snap_p50_us", "us", s50),
        ("snap_p90_us", "us", s90),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(class: OpClass, due: u64, done: u64, ok: bool) -> OpSample {
        OpSample {
            class,
            lane: 0,
            due_ns: due,
            call_ns: due,
            ret_ns: done,
            done_ns: done,
            ok,
        }
    }

    #[test]
    fn only_ops_completing_inside_the_window_count() {
        let m = Measured {
            window: (1_000, 2_000),
            ops: vec![
                op(OpClass::Write, 100, 900, true),      // warm-up
                op(OpClass::Write, 950, 1_050, true),    // straddles the start: counts
                op(OpClass::Write, 1_100, 1_200, false), // failed inside
                op(OpClass::Snapshot, 1_300, 1_900, true),
                op(OpClass::Write, 1_950, 2_000, true), // completes at the end: out
            ],
            ..Measured::default()
        };
        assert_eq!(m.attempted_failed(), (3, 1));
        assert_eq!(m.completed(), 2);
        let [w50, ..] = m.latency_us(Some(OpClass::Write));
        assert_eq!(w50.samples, 1, "failed ops carry no latency");
        assert_eq!(w50.value, 0.1);
        let [s50, s90, s99] = m.latency_us(Some(OpClass::Snapshot));
        assert_eq!((s50.value, s90.value, s99.value), (0.6, 0.6, 0.6));
        let [op50, ..] = m.latency_us(None);
        assert_eq!((op50.samples, op50.value), (2, 0.1), "both classes");
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let mut late = op(OpClass::Write, 1_000, 5_000, true);
        late.call_ns = 3_000; // the generator ran 2 µs late
        let m = Measured {
            window: (0, 10_000),
            ops: vec![late],
            ..Measured::default()
        };
        assert_eq!(m.latency_us(Some(OpClass::Write))[0].value, 4.0);
    }
}
