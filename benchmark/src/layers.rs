//! The per-layer metrics of a traced run: counts from the program's
//! public statistics over an untraced window, the trace fold of a
//! traced window, the microbenchmarks, and the CPU budget built from
//! all three.
//!
//! A layer metric carries a time unit only when every workload measures
//! it; figures that exist on one workload only (generator lag, recovery
//! gap, the budget rows) are expressed in rounds, periods or shares, so
//! that no workload reports a constant zero as a time.

use crate::measure::{Counts, Measured, Stat};
use crate::stats::percentile_sorted;
use sss_types::OpClass;

/// The nominal `do forever` round interval of both cluster runtimes
/// (`ClusterConfig::new`, `ShardConfig::default`), ms.
const ROUND_MS: f64 = 2.0;
/// The simulator's round interval (`SimConfig::small`), virtual µs.
const SIM_ROUND_US: f64 = 100.0;
/// A node loop that completes fewer rounds per second than this (90 %
/// of the nominal 500) was starved of processor time. `sockets-window`
/// saturates 8 node loops on 2 processors by design and runs at 455–470,
/// and `fault-recovery` keeps one node of five down 30 % of the time.
pub const STARVED_ROUNDS_PER_S: f64 = 450.0;
/// A generator that ran later than this (µs) was itself stalled.
pub const STALLED_LAG_US: f64 = 50_000.0;

/// `(name, unit)` of every per-layer metric, in the order they print.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("types.wire.encode_ns", "ns"),
    ("types.wire.decode_ns", "ns"),
    ("types.wire.frame_bytes", "B"),
    ("types.reg.merge_ns", "ns"),
    ("types.outbox.push_drain_ns", "ns"),
    ("types.deep_clones_per_op", "count"),
    ("types.cells_copied_per_op", "count"),
    ("core.alg1.on_message_ns", "ns"),
    ("core.alg1.on_round_ns", "ns"),
    ("core.alg3.on_message_ns", "ns"),
    ("core.alg3.on_round_ns", "ns"),
    ("core.msgs_per_op", "count"),
    ("core.bytes_per_op", "B"),
    ("core.write_msgs_per_op", "count"),
    ("core.snapshot_msgs_per_op", "count"),
    ("core.gossip_msgs_per_op", "count"),
    ("core.bits_per_msg", "bit"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.virt_write_p50_rounds", "rounds"),
    ("sim.virt_snap_p50_rounds", "rounds"),
    ("runtime.delivered_per_op", "count"),
    ("runtime.batch_mean", "count"),
    ("runtime.coalesced_share", "share"),
    ("runtime.dropped", "count"),
    ("runtime.rounds_per_node_s", "1/s"),
    ("runtime.submit_full", "count"),
    ("runtime.inbox.push_drain_ns", "ns"),
    ("socket.frames_per_op", "count"),
    ("socket.frames_per_syscall", "count"),
    ("socket.send_syscalls_per_op", "count"),
    ("socket.recv_syscalls_per_op", "count"),
    ("socket.frames_rejected", "count"),
    ("socket.frames_unreceived", "count"),
    ("proc.cpu_us_per_op", "us"),
    ("proc.sys_share", "share"),
    ("proc.peak_rss_mb", "MB"),
    ("service.collapse_factor", "ratio"),
    ("service.protocol_ops_per_s", "1/s"),
    ("service.queue_depth_max", "count"),
    ("service.overloaded", "count"),
    ("service.late_share", "share"),
    ("service.ring.lookup_ns", "ns"),
    ("gen.write_p50_us", "us"),
    ("gen.write_p99_us", "us"),
    ("gen.snap_p99_us", "us"),
    ("gen.admit_mean_ns", "ns"),
    ("gen.failed_share", "share"),
    ("gen.lag_p99_periods", "count"),
    ("gen.lag_max_periods", "count"),
    ("gen.stamp_error_share", "share"),
    ("net.dropped_by_link", "count"),
    ("net.faults_applied", "count"),
    ("fault.recovery_cycles", "cycles"),
    ("fault.recover_p50_rounds", "rounds"),
    ("fault.recoveries", "count"),
    ("checker.ops_verified", "count"),
    ("checker.ops_per_s", "1/s"),
    ("obs.traced_ops_ratio", "ratio"),
    ("obs.events_per_op", "count"),
    ("obs.send_request_per_op", "count"),
    ("obs.send_ack_per_op", "count"),
    ("obs.send_gossip_per_op", "count"),
    ("obs.batch_drain_mean", "count"),
    ("budget.codec_share", "share"),
    ("budget.protocol_share", "share"),
    ("budget.inbox_share", "share"),
    ("budget.kernel_share", "share"),
    ("budget.unattributed_share", "share"),
];

/// Per-layer metrics whose value is a pure function of the seed; two
/// runs of one commit must agree on them bit for bit.
pub const EXACT: [&str; 10] = [
    "core.msgs_per_op",
    "core.bytes_per_op",
    "core.write_msgs_per_op",
    "core.snapshot_msgs_per_op",
    "core.gossip_msgs_per_op",
    "core.bits_per_msg",
    "sim.events_per_op",
    "sim.virt_write_p50_rounds",
    "sim.virt_snap_p50_rounds",
    "fault.recovery_cycles",
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Whether the untraced pass `base` was disturbed from outside: a node
/// loop starved of rounds, or the open-loop generator stalled.
pub fn interfered(base: &Measured) -> bool {
    let nodes = base.count("net.nodes");
    let rounds_per_node_s = ratio(base.count("net.rounds"), nodes * base.window_s());
    (nodes > 0.0 && rounds_per_node_s < STARVED_ROUNDS_PER_S)
        || base.count("gen.lag_max_us") > STALLED_LAG_US
}

/// Derives every per-layer metric from the untraced pass `base`, the
/// traced pass `traced`, and the microbenchmark results `micro`.
/// `alg3` says the workload's protocol is Algorithm 3 (picks the
/// protocol costs the budget uses).
pub fn per_layer(base: &Measured, traced: &Measured, micro: &Counts, alg3: bool) -> Vec<Stat> {
    let ops = base.completed();
    let c = |k: &str| base.count(k);
    let mc = |k: &str| micro.get(k).copied().unwrap_or(0.0);
    let per_op = |x: f64| base.per_op(x);
    let (attempted, failed) = base.attempted_failed();
    let (user_us, kernel_us) = base.cpu_us();
    let cpu_us = user_us + kernel_us;

    let admit_ns: u64 = base.in_window().map(|o| o.ret_ns - o.call_ns).sum();
    let mut latency: Vec<u64> = base
        .in_window()
        .filter(|o| o.ok)
        .map(|o| o.done_ns - o.due_ns)
        .collect();
    latency.sort_unstable();
    let p50_us = percentile_sorted(&latency, 50.0) as f64 / 1e3;
    let period_us = ratio(1e6, c("gen.rate"));

    // The CPU budget: what the layers' unit costs, multiplied by how
    // often the window called them, explain of the CPU time per op.
    let (round_ns, msg_ns) = if alg3 {
        (mc("core.alg3.on_round_ns"), mc("core.alg3.on_message_ns"))
    } else {
        (mc("core.alg1.on_round_ns"), mc("core.alg1.on_message_ns"))
    };
    let codec_us = (c("net.frames_sent") * mc("types.wire.encode_ns")
        + c("net.frames_recv") * mc("types.wire.decode_ns"))
        / 1e3;
    let protocol_us = (c("net.rounds") * round_ns + c("net.delivered") * msg_ns) / 1e3;
    let inbox_us = c("net.delivered") * mc("runtime.inbox.push_drain_ns") / 1e3;
    let share = |us: f64| ratio(us, cpu_us);
    let attributed = share(codec_us) + share(protocol_us) + share(inbox_us) + share(kernel_us);

    let [write_p50, _, write_p99] = base.latency_us(Some(OpClass::Write));
    let [_, _, snap_p99] = base.latency_us(Some(OpClass::Snapshot));
    let t = &traced.trace;
    let t_per_op = |x: u64| traced.per_op(x as f64);

    let value = |name: &str| -> f64 {
        match name {
            "types.deep_clones_per_op" => c("types.deep_clones_per_op"),
            "types.cells_copied_per_op" => c("types.cells_copied_per_op"),
            "core.msgs_per_op" => mc("sim.exact.msgs_per_op"),
            "core.bytes_per_op" => mc("sim.exact.bytes_per_op"),
            "core.write_msgs_per_op" => mc("sim.exact.write_msgs_per_op"),
            "core.snapshot_msgs_per_op" => mc("sim.exact.snapshot_msgs_per_op"),
            "core.gossip_msgs_per_op" => mc("sim.exact.gossip_msgs_per_op"),
            "core.bits_per_msg" => mc("sim.exact.bits_per_msg"),
            "sim.events_per_op" => mc("sim.exact.events_per_op"),
            "sim.virt_write_p50_rounds" => mc("sim.exact.virt_write_p50") / SIM_ROUND_US,
            "sim.virt_snap_p50_rounds" => mc("sim.exact.virt_snap_p50") / SIM_ROUND_US,
            "runtime.delivered_per_op" => per_op(c("net.delivered")),
            "runtime.batch_mean" => ratio(c("net.delivered"), c("net.batches")),
            "runtime.coalesced_share" => {
                ratio(c("net.coalesced"), c("net.coalesced") + c("net.delivered"))
            }
            "runtime.dropped" => c("net.dropped"),
            "runtime.rounds_per_node_s" => ratio(c("net.rounds"), c("net.nodes") * base.window_s()),
            "runtime.submit_full" => c("runtime.submit_full"),
            "socket.frames_per_op" => per_op(c("net.frames_sent")),
            "socket.frames_per_syscall" => ratio(c("net.frames_sent"), c("net.send_syscalls")),
            "socket.send_syscalls_per_op" => per_op(c("net.send_syscalls")),
            "socket.recv_syscalls_per_op" => per_op(c("net.recv_syscalls")),
            "socket.frames_rejected" => c("net.frames_rejected"),
            "socket.frames_unreceived" => (c("net.frames_sent") - c("net.frames_recv")).max(0.0),
            "proc.cpu_us_per_op" => per_op(cpu_us),
            "proc.peak_rss_mb" => crate::procfs::peak_rss_mb(),
            "proc.sys_share" => share(kernel_us),
            "service.collapse_factor" => ratio(c("service.absorbed"), c("service.protocol_ops")),
            "service.protocol_ops_per_s" => c("service.protocol_ops") / base.window_s(),
            "service.queue_depth_max" => c("service.queue_depth_max"),
            "service.overloaded" => c("service.overloaded"),
            "service.late_share" => ratio(c("service.late"), attempted as f64),
            "gen.write_p50_us" => write_p50.value,
            "gen.write_p99_us" => write_p99.value,
            "gen.snap_p99_us" => snap_p99.value,
            "gen.admit_mean_ns" => ratio(admit_ns as f64, attempted as f64) * base.time_scale,
            "gen.failed_share" => ratio(failed as f64, attempted as f64),
            "gen.lag_p99_periods" => ratio(c("gen.lag_p99_us"), period_us),
            "gen.lag_max_periods" => ratio(c("gen.lag_max_us"), period_us),
            "gen.stamp_error_share" => ratio(c("gen.stamp_error_us"), p50_us),
            "net.dropped_by_link" => t.dropped_by_link as f64,
            "net.faults_applied" => c("net.faults_applied"),
            "fault.recovery_cycles" => c("fault.recovery_cycles"),
            "fault.recover_p50_rounds" => c("fault.recover_p50_ms") / ROUND_MS,
            "fault.recoveries" => c("fault.recoveries"),
            "checker.ops_verified" => c("checker.ops_verified"),
            "checker.ops_per_s" => ratio(c("checker.ops_verified") * 1e6, c("checker.check_us")),
            "obs.traced_ops_ratio" => ratio(
                traced.completed() as f64 / traced.window_s(),
                ops as f64 / base.window_s(),
            ),
            "obs.events_per_op" => t_per_op(t.events),
            "obs.send_request_per_op" => t_per_op(t.send_request),
            "obs.send_ack_per_op" => t_per_op(t.send_ack),
            "obs.send_gossip_per_op" => t_per_op(t.send_gossip),
            "obs.batch_drain_mean" => ratio(t.drained as f64, t.drains as f64),
            "budget.codec_share" => share(codec_us),
            "budget.protocol_share" => share(protocol_us),
            "budget.inbox_share" => share(inbox_us),
            "budget.kernel_share" => share(kernel_us),
            "budget.unattributed_share" => 1.0 - attributed,
            // Everything else is a microbenchmark result under its own name.
            other => mc(other),
        }
    };
    PER_LAYER
        .iter()
        .map(|(name, _)| Stat {
            value: value(name),
            samples: ops as usize,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::OpSample;
    use crate::procfs::CpuTime;

    fn pass(ops: u64, counts: &[(&'static str, f64)]) -> Measured {
        Measured {
            window: (0, 1_000_000_000),
            ops: (0..ops)
                .map(|i| OpSample {
                    class: OpClass::Write,
                    lane: 0,
                    due_ns: i,
                    call_ns: i,
                    ret_ns: i + 10,
                    done_ns: i + 1_000,
                    ok: true,
                })
                .collect(),
            cpu: CpuTime {
                user_us: 600,
                sys_us: 400,
            },
            counts: counts.iter().copied().collect(),
            ..Measured::default()
        }
    }

    fn get(stats: &[Stat], name: &str) -> f64 {
        let i = PER_LAYER.iter().position(|(n, _)| *n == name).expect(name);
        stats[i].value
    }

    #[test]
    fn names_are_unique_and_exact_ones_exist() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for e in EXACT {
            assert!(names.contains(&e), "{e} is not a per-layer metric");
        }
    }

    #[test]
    fn budget_shares_sum_to_one_and_ratios_use_the_window() {
        let base = pass(
            100,
            &[
                ("net.nodes", 2.0),
                ("net.rounds", 1_000.0),
                ("net.delivered", 2_000.0),
                ("net.batches", 500.0),
                ("net.frames_sent", 400.0),
                ("net.frames_recv", 400.0),
                ("net.send_syscalls", 100.0),
            ],
        );
        let traced = pass(50, &[]);
        let micro: Counts = [
            ("types.wire.encode_ns", 100.0),
            ("types.wire.decode_ns", 50.0),
            ("core.alg1.on_round_ns", 40.0),
            ("core.alg1.on_message_ns", 30.0),
            ("runtime.inbox.push_drain_ns", 20.0),
        ]
        .into_iter()
        .collect();
        let stats = per_layer(&base, &traced, &micro, false);
        assert_eq!(stats.len(), PER_LAYER.len());
        assert_eq!(get(&stats, "runtime.batch_mean"), 4.0);
        assert_eq!(get(&stats, "runtime.rounds_per_node_s"), 500.0);
        assert_eq!(get(&stats, "socket.frames_per_syscall"), 4.0);
        assert_eq!(get(&stats, "socket.frames_per_op"), 4.0);
        assert_eq!(get(&stats, "gen.admit_mean_ns"), 10.0);
        assert_eq!(get(&stats, "obs.traced_ops_ratio"), 0.5);
        // codec 60 µs, protocol 100 µs, inbox 40 µs, kernel 400 µs of 1000 µs.
        assert_eq!(get(&stats, "budget.codec_share"), 0.06);
        assert_eq!(get(&stats, "budget.protocol_share"), 0.1);
        assert_eq!(get(&stats, "budget.inbox_share"), 0.04);
        assert_eq!(get(&stats, "budget.kernel_share"), 0.4);
        let sum: f64 = [
            "budget.codec_share",
            "budget.protocol_share",
            "budget.inbox_share",
            "budget.kernel_share",
            "budget.unattributed_share",
        ]
        .iter()
        .map(|n| get(&stats, n))
        .sum();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        assert!(!interfered(&base));
        let starved = pass(1, &[("net.nodes", 2.0), ("net.rounds", 800.0)]);
        assert!(interfered(&starved));
        let stalled = pass(1, &[("gen.lag_max_us", 60_000.0)]);
        assert!(interfered(&stalled));
    }
}
