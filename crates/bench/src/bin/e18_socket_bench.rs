//! E18 — the real-socket UDP backend: throughput, loss accounting and
//! syscall efficiency over loopback, plus a checker-verified parity run
//! against the simulator.
//!
//! Three measurements, written to `BENCH_socket.json` at the repo root:
//!
//! * **session** — a closed-loop write storm (the E14 workload: every
//!   client writes back-to-back, with a snapshot sprinkled in every
//!   64th op) over real UDP datagrams at n = 8, several clients per
//!   node, for a fixed op count. The run must be *loss-free*: no
//!   link-model drops, no checksum rejects, and every frame that left a
//!   socket arrived (a small in-flight allowance at the measurement
//!   instant — gossip never quiesces);
//! * **ablation** — the same storm under [`SyscallMode::Plain`]: no
//!   `sendmmsg`/`recvmmsg` and no frame packing, i.e. one syscall per
//!   message. The batched plane must move ≥ 2× as many frames per
//!   syscall, which is the whole point of batching the message plane;
//! * **parity** — the canonical crash → partition → heal → resume
//!   fault plan replayed through the shared [`Backend`] trait on the
//!   simulator and on real sockets, both histories checker-verified
//!   (the socket fault shim sits at the datagram send hook, so a
//!   `FaultPlan` means the same thing on all three backends).
//!
//! Modes:
//! * default — full run (100k-op session), rewrites `BENCH_socket.json`;
//! * `--smoke` — CI gate: a smaller session (16k ops) with the same
//!   three checks, exit 1 on any failure;
//! * `--procs` — multi-process demo: this process hosts nodes 0..n/2
//!   and a spawned child process hosts the rest, one cluster over
//!   fixed loopback ports.
//!
//! On platforms without `sendmmsg`/`recvmmsg` the ablation gate is
//! skipped (there is nothing to compare against) and the session runs
//! on the portable plain-syscall plane.

use sss_bench::{jsonio, run_cross_backend, Table};
use sss_core::Alg1;
use sss_net::Backend;
use sss_runtime::{SocketBackend, SocketCluster, SocketConfig, SyscallMode};
use sss_sim::{SimBackend, SimConfig};
use sss_types::NodeId;
use sss_workload::{unique_value, FaultEvent, FaultPlan, WorkloadSpec};
use std::time::Instant;

const RESULT_PATH: &str = "BENCH_socket.json";
const N: usize = 8;
const CLIENTS_PER_NODE: usize = 4;
/// Ops in the default (committed) session — the acceptance floor.
const FULL_OPS: u64 = 100_000;
/// Ops in the `--smoke` session and the ablation leg.
const SMOKE_OPS: u64 = 16_000;
/// Batched frames-per-syscall must beat plain by at least this factor.
const ABLATION_GATE: f64 = 2.0;
/// In-flight allowance for the loss-free check: gossip frames still on
/// the wire between reading the send and receive counters.
fn in_flight_allowance(frames_sent: u64) -> u64 {
    (frames_sent / 1_000).max(64)
}

/// One measured socket session.
struct Session {
    mode: &'static str,
    n: usize,
    ops: u64,
    wall_secs: f64,
    ops_per_sec: f64,
    frames_sent: u64,
    frames_recv: u64,
    send_syscalls: u64,
    recv_syscalls: u64,
    frames_per_syscall: f64,
    dropped: u64,
    rejected: u64,
    coalesced: u64,
}

impl Session {
    fn loss_free(&self) -> bool {
        self.dropped == 0
            && self.rejected == 0
            && self.frames_sent.saturating_sub(self.frames_recv)
                <= in_flight_allowance(self.frames_sent)
    }
}

/// Runs the closed-loop storm: `CLIENTS_PER_NODE` clients per node,
/// writes back-to-back (unique values), every 64th op a snapshot,
/// until `total_ops` ops completed across all clients.
fn measure_session(n: usize, total_ops: u64, mode: SyscallMode) -> Session {
    let cluster = SocketCluster::new(SocketConfig::new(n).with_mode(mode), move |id| {
        Alg1::new(id, n)
    });
    let clients_total = (n * CLIENTS_PER_NODE) as u64;
    let ops_per_client = total_ops.div_ceil(clients_total);
    let start = Instant::now();
    let mut joins = Vec::new();
    for k in 0..n {
        for c in 0..CLIENTS_PER_NODE {
            let client = cluster.client(NodeId(k));
            joins.push(std::thread::spawn(move || {
                let mut done = 0u64;
                for i in 0..ops_per_client {
                    // Sequence numbers must be unique per *node*, so
                    // interleave the node's clients.
                    let seq = (c as u64) * ops_per_client + i + 1;
                    let ok = if i % 64 == 63 {
                        client.snapshot().map(|_| ()).is_ok()
                    } else {
                        client.write(unique_value(NodeId(k), seq)).is_ok()
                    };
                    done += ok as u64;
                }
                done
            }));
        }
    }
    let ops: u64 = joins
        .into_iter()
        .map(|j| j.join().expect("client thread panicked"))
        .sum();
    let wall = start.elapsed().as_secs_f64();
    let stats = cluster.net_stats();
    let dropped = cluster.messages_dropped();
    cluster.shutdown();
    let syscalls = stats.send_syscalls + stats.recv_syscalls;
    Session {
        mode: if mode.batched() { "batched" } else { "plain" },
        n,
        ops,
        wall_secs: wall,
        ops_per_sec: ops as f64 / wall.max(1e-9),
        frames_sent: stats.frames_sent,
        frames_recv: stats.frames_recv,
        send_syscalls: stats.send_syscalls,
        recv_syscalls: stats.recv_syscalls,
        frames_per_syscall: (stats.frames_sent + stats.frames_recv) as f64
            / (syscalls as f64).max(1.0),
        dropped,
        rejected: stats.frames_rejected,
        coalesced: stats.coalesced,
    }
}

fn print_sessions(rows: &[&Session]) {
    let mut t = Table::new(&[
        "mode",
        "n",
        "ops",
        "wall (s)",
        "ops/sec",
        "frames sent",
        "frames recv",
        "send syscalls",
        "recv syscalls",
        "frames/syscall",
        "dropped",
        "rejected",
    ]);
    for r in rows {
        t.row(vec![
            r.mode.into(),
            r.n.to_string(),
            r.ops.to_string(),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.ops_per_sec),
            r.frames_sent.to_string(),
            r.frames_recv.to_string(),
            r.send_syscalls.to_string(),
            r.recv_syscalls.to_string(),
            format!("{:.1}", r.frames_per_syscall),
            r.dropped.to_string(),
            r.rejected.to_string(),
        ]);
    }
    t.print();
}

/// The canonical recovery arc from the fault-plane parity suite,
/// replayed on the simulator and on real sockets; both histories must
/// check out linearizable.
fn parity() -> bool {
    let n = 4;
    let plan = FaultPlan::new()
        .at(2_000, FaultEvent::Crash(NodeId(3)))
        .at(
            3_000,
            FaultEvent::Partition(vec![vec![NodeId(0), NodeId(1), NodeId(2)], vec![NodeId(3)]]),
        )
        .at(7_000, FaultEvent::Heal)
        .at(9_000, FaultEvent::Resume(NodeId(3)));
    let workload = WorkloadSpec {
        ops_per_node: 6,
        think: (200, 2_000),
        op_timeout: 20_000,
        ..WorkloadSpec::default()
    };
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(SimBackend::new(SimConfig::small(n), move |id| {
            Alg1::new(id, n)
        })),
        Box::new(SocketBackend::new(SocketConfig::new(n), move |id| {
            Alg1::new(id, n)
        })),
    ];
    run_cross_backend(n, backends, &plan, &workload)
}

// ----- BENCH_socket.json (shared sss_bench::jsonio plumbing) ----------

fn render(sessions: &[&Session], speedup: f64, parity_ok: bool) -> String {
    let rows: Vec<String> = sessions
        .iter()
        .map(|r| {
            jsonio::object(&[
                ("mode", format!("\"{}\"", r.mode)),
                ("n", r.n.to_string()),
                ("ops", r.ops.to_string()),
                ("wall_secs", format!("{:.4}", r.wall_secs)),
                ("ops_per_sec", format!("{:.1}", r.ops_per_sec)),
                ("frames_sent", r.frames_sent.to_string()),
                ("frames_recv", r.frames_recv.to_string()),
                ("send_syscalls", r.send_syscalls.to_string()),
                ("recv_syscalls", r.recv_syscalls.to_string()),
                ("frames_per_syscall", format!("{:.2}", r.frames_per_syscall)),
                ("dropped", r.dropped.to_string()),
                ("rejected", r.rejected.to_string()),
                ("coalesced", r.coalesced.to_string()),
                ("loss_free", r.loss_free().to_string()),
            ])
        })
        .collect();
    jsonio::document(
        "e18_socket_bench",
        &format!(
            "closed-loop write storm over loopback UDP (Alg1, {CLIENTS_PER_NODE} clients/node, \
             1/64 snapshots)"
        ),
        &[
            ("sessions", jsonio::array(&rows)),
            ("syscall_batching_speedup", format!("{speedup:.2}")),
            (
                "parity_with_sim",
                format!(
                    "\"{}\"",
                    if parity_ok {
                        "linearizable"
                    } else {
                        "VIOLATION"
                    }
                ),
            ),
        ],
    )
}

/// `--procs`: one cluster, two OS processes. The parent hosts nodes
/// 0..n/2, a spawned copy of this binary hosts n/2..n; fixed loopback
/// ports connect them. The parent writes at node 0, the child writes at
/// node n-1, and the parent's snapshot must see both. Neither half has a
/// majority alone, so the child stays up until the parent closes its
/// stdin: a child that left as soon as it saw the parent's value (which
/// the parent's own nodes can show it before any child node acked) would
/// strand the parent's write.
fn procs_demo(n: usize) -> ! {
    let base_port = 47_100u16;
    let mut cfg = SocketConfig::new(n);
    cfg.base_port = base_port;
    let mut child = std::process::Command::new(std::env::current_exe().expect("current exe"))
        .args(["--procs-child", &n.to_string(), &base_port.to_string()])
        .stdin(std::process::Stdio::piped())
        .spawn()
        .expect("spawn the child half");
    let lo = SocketCluster::new_hosted(cfg, 0..n / 2, move |id| Alg1::new(id, n));
    lo.client(NodeId(0))
        .write(unique_value(NodeId(0), 1))
        .unwrap();
    // The child acks readiness by completing its own write; poll for it.
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let remote = NodeId(n - 1);
    let seen = loop {
        let view = lo.client(NodeId(1)).snapshot().unwrap();
        if view.value_of(remote).is_some() {
            break view.value_of(remote);
        }
        if Instant::now() > deadline {
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    drop(child.stdin.take());
    let status = child.wait_with_output().expect("child exit");
    let stats = lo.net_stats();
    lo.shutdown();
    assert!(status.status.success(), "child process failed");
    assert_eq!(
        seen,
        Some(unique_value(remote, 1)),
        "the remote process's write must be visible here"
    );
    println!(
        "--procs: 2 processes x {} nodes over 127.0.0.1:{base_port}+ — parent saw the child's \
         write; parent frames sent/recv = {}/{}",
        n / 2,
        stats.frames_sent,
        stats.frames_recv
    );
    std::process::exit(0);
}

/// The child half of `--procs`: host nodes n/2..n, write once at the
/// last node, wait until the parent's write is visible, then serve the
/// parent until it closes stdin and exit 0.
fn procs_child(n: usize, base_port: u16) -> ! {
    let mut cfg = SocketConfig::new(n);
    cfg.base_port = base_port;
    let hi = SocketCluster::new_hosted(cfg, n / 2..n, move |id| Alg1::new(id, n));
    let me = NodeId(n - 1);
    hi.client(me).write(unique_value(me, 1)).unwrap();
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let view = hi.client(me).snapshot().unwrap();
        if view.value_of(NodeId(0)) == Some(unique_value(NodeId(0), 1)) {
            let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut Vec::new());
            hi.shutdown();
            std::process::exit(0);
        }
        assert!(Instant::now() < deadline, "never saw the parent's write");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--procs-child") {
        let n: usize = args[i + 1].parse().expect("--procs-child <n> <base_port>");
        let port: u16 = args[i + 2].parse().expect("--procs-child <n> <base_port>");
        procs_child(n, port);
    }
    if args.iter().any(|a| a == "--procs") {
        procs_demo(N);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let session_ops = if smoke { SMOKE_OPS } else { FULL_OPS };
    println!(
        "E18: real-socket UDP backend — n = {N}, {CLIENTS_PER_NODE} clients/node, \
         {session_ops} ops over loopback\n"
    );

    let session = measure_session(N, session_ops, SyscallMode::Auto);
    let plain = measure_session(N, SMOKE_OPS, SyscallMode::Plain);
    let rows = [&session, &plain];
    print_sessions(&rows);

    let mut failed = false;
    if session.loss_free() {
        println!(
            "\nsession: loss-free ({} ops at {:.0} ops/sec)",
            session.ops, session.ops_per_sec
        );
    } else {
        eprintln!(
            "FAIL: session lost traffic (dropped {}, rejected {}, sent {} vs recv {})",
            session.dropped, session.rejected, session.frames_sent, session.frames_recv
        );
        failed = true;
    }
    if session.ops < session_ops {
        eprintln!("FAIL: only {} of {session_ops} ops completed", session.ops);
        failed = true;
    }
    let speedup = session.frames_per_syscall / plain.frames_per_syscall.max(1e-9);
    println!(
        "syscall batching: {:.1} frames/syscall batched vs {:.1} plain = {speedup:.1}x",
        session.frames_per_syscall, plain.frames_per_syscall
    );
    if speedup < ABLATION_GATE {
        eprintln!(
            "FAIL: batching gained only {speedup:.2}x (< {ABLATION_GATE}x) over syscall-per-message"
        );
        failed = true;
    }

    println!("\nparity: same fault plan, sim vs sockets, checker-verified:");
    let parity_ok = parity();
    if !parity_ok {
        eprintln!("FAIL: parity run not linearizable");
        failed = true;
    }

    std::fs::write(RESULT_PATH, render(&rows, speedup, parity_ok))
        .expect("write BENCH_socket.json");
    println!("wrote {RESULT_PATH}");
    if failed {
        std::process::exit(1);
    }
    println!("{}", if smoke { "smoke: OK" } else { "OK" });
}
