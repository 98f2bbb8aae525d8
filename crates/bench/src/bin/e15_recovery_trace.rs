//! E15 — Recovery traces: per-node stabilization latency after
//! plan-injected corruption, measured from the trace plane on both
//! backends.
//!
//! A fault plan corrupts individual nodes mid-run while a mixed
//! workload executes. Every backend emits the same structured trace
//! schema, so recovery is read off the events alone: a node's recovery
//! latency is the number of `CycleEnd` boundaries between its
//! `Fault{Corrupt}` and its `Stabilized` probe (the moment its local
//! invariants hold again). Theorems 1 and 2 predict an `O(1)`-cycle
//! shape — a small constant, independent of when or where the
//! corruption lands.
//!
//! Modes:
//! * default — per-node recovery table on the chosen backends;
//! * `--smoke` — CI gate: runs both backends and exits 1 if either
//!   emits **zero** `Stabilized` events (a dead probe would silently
//!   void the recovery claims);
//! * `--backend {sim,threads,both}` — restrict the full run;
//! * `--trace <path>` — additionally stream each backend's full event
//!   trace to a file (`.json` → Chrome `trace_event` for Perfetto,
//!   else JSONL).

use sss_bench::{Table, TraceArgs};
use sss_chaos::BackendChoice;
use sss_core::Alg1;
use sss_net::{Backend, FaultEvent, FaultPlan, WorkloadSpec};
use sss_runtime::{ClusterConfig, ThreadBackend};
use sss_sim::{FaultKind, MemorySink, SimBackend, SimConfig, TraceEvent, TraceRecord, Tracer};
use sss_types::NodeId;

/// One observed corruption → stabilization episode.
struct Episode {
    node: NodeId,
    cycles: u64,
    model_us: u64,
}

/// Reads recovery episodes off a trace: for each node, the span from
/// its `Fault{Corrupt}` to its next `Stabilized`, measured in completed
/// asynchronous cycles and in model time.
fn episodes(records: &[TraceRecord]) -> Vec<Episode> {
    let mut out = Vec::new();
    let mut cycles_done = 0u64;
    let mut pending: Vec<(NodeId, u64, u64)> = Vec::new(); // (node, cycle, at)
    for r in records {
        match r.event {
            TraceEvent::CycleEnd { .. } => cycles_done += 1,
            TraceEvent::Fault {
                kind: FaultKind::Corrupt,
                node: Some(node),
                ..
            } => pending.push((node, cycles_done, r.at)),
            TraceEvent::Stabilized { node } => {
                if let Some(pos) = pending.iter().position(|(p, _, _)| *p == node) {
                    let (_, c0, t0) = pending.swap_remove(pos);
                    out.push(Episode {
                        node,
                        cycles: cycles_done - c0,
                        model_us: r.at - t0,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

fn scenario() -> (FaultPlan, WorkloadSpec) {
    let plan = FaultPlan::new()
        .at(2_000, FaultEvent::Corrupt(NodeId(1)))
        .at(4_000, FaultEvent::Corrupt(NodeId(2)))
        .at(6_000, FaultEvent::Corrupt(NodeId(0)));
    let workload = WorkloadSpec {
        ops_per_node: 6,
        think: (200, 1_500),
        op_timeout: 20_000,
        ..WorkloadSpec::default()
    };
    (plan, workload)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let choice = if smoke {
        BackendChoice::Both // the gate covers both backends by definition
    } else {
        match args.iter().position(|a| a == "--backend") {
            None => BackendChoice::Sim,
            Some(i) => args
                .get(i + 1)
                .and_then(|name| BackendChoice::from_name(name))
                .unwrap_or_else(|| panic!("--backend takes sim|threads|both")),
        }
    };
    let trace = TraceArgs::from_args();
    let n = 4;
    let (plan, workload) = scenario();
    println!("E15: stabilization latency after corruption, from the trace plane (n = {n})\n");

    let mut backends: Vec<Box<dyn Backend>> = Vec::new();
    if choice.runs_sim() {
        backends.push(Box::new(SimBackend::new(
            SimConfig::small(n).with_seed(0xE15),
            move |id| Alg1::new(id, n),
        )));
    }
    if choice.runs_threads() {
        backends.push(Box::new(ThreadBackend::new(
            ClusterConfig::new(n),
            move |id| Alg1::new(id, n),
        )));
    }

    let mut t = Table::new(&[
        "backend",
        "node",
        "recovery (cycles)",
        "recovery (model µs)",
    ]);
    let mut gate_failed = false;
    for mut b in backends {
        let label = b.label();
        let (sink, buf) = MemorySink::new();
        let tracer = trace.attach(Tracer::new(n).with_sink(sink), label);
        let _report = b.run_traced(&plan, &workload, &tracer);
        drop(tracer); // flush file sinks
        let records = buf.records();
        let stabilized = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Stabilized { .. }))
            .count();
        if stabilized == 0 {
            eprintln!("GATE FAIL: backend '{label}' emitted zero Stabilized events");
            gate_failed = true;
            continue;
        }
        for e in episodes(&records) {
            t.row(vec![
                label.to_string(),
                e.node.to_string(),
                e.cycles.to_string(),
                e.model_us.to_string(),
            ]);
        }
    }
    t.print();
    println!();
    println!("expected shape: every corrupted node stabilizes within a small");
    println!("constant number of asynchronous cycles (Theorems 1 and 2's O(1)),");
    println!("on the simulator and on real threads alike.");
    if gate_failed {
        std::process::exit(1);
    }
    if smoke {
        println!("\nsmoke: OK (both backends emitted Stabilized events)");
    }
}
