//! Live cluster monitoring: the ops plane end-to-end. A five-node
//! cluster runs a load + fault scenario on the backend of your choice
//! while an [`OpsPlane`] folds the live trace stream into rolling
//! per-node metrics — health, taint/stabilization status, quorum
//! reachability, latency sparklines, drop counters — rendered as a
//! dependency-free ANSI dashboard and served over HTTP.
//!
//! Run with:
//! ```sh
//! cargo run -p sss-examples --bin cluster_monitor                       # plain demo
//! cargo run -p sss-examples --bin cluster_monitor -- --dashboard        # live TUI
//! cargo run -p sss-examples --bin cluster_monitor -- --backend sockets --http 8080
//! ```
//!
//! Flags:
//! * `--backend {sim,threads,sockets}` — execution backend (default
//!   `threads`); the monitor is identical across all three — same
//!   fault plan, same aggregator, same frame;
//! * `--dashboard` — repaint a live ANSI dashboard in place;
//! * `--headless` — plain-text frames only (no ANSI; the CI preset);
//! * `--once` — print exactly one final frame (quiet run; pairs with
//!   `--headless` for grep-able CI output);
//! * `--http PORT` — serve `/node_info`, `/metrics` (Prometheus text)
//!   and `/shards` off the same aggregator (`0` = ephemeral port);
//! * `--shards K` — additionally attach a K-shard [`Service`] and show
//!   its queue-depth / group-commit-collapse panel;
//! * `--duration-ms MS` — run length (default 1500);
//! * `--out PATH` — write the final aggregator state as a JSON artifact.
//!
//! The scenario injects a crash + resume on one node and a transient
//! state corruption on another, so every run exercises the paper's
//! self-stabilization story live: the corrupted node shows `TAINT`
//! until its `Stabilized` probe fires, and the event feed carries the
//! whole arc. In headless mode the binary self-verifies: the final
//! frame and the `/node_info` JSON must both show the injected faults
//! and the subsequent stabilization, and the HTTP body must be
//! byte-identical to the aggregator state the frame was rendered from.

use sss_core::{Alg1, Alg3, Alg3Config};
use sss_obs::dash::{render, DashStyle, CLEAR, HOME};
use sss_obs::{JsonValue, OpsHttpServer, OpsPlane};
use sss_runtime::{
    Client, Cluster, ClusterConfig, FaultEvent, FaultPlan, SocketCluster, SocketConfig,
};
use sss_service::{Service, ServiceConfig};
use sss_sim::Sim;
use sss_types::NodeId;
use sss_workload::{MixedConfig, MixedDriver};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Cluster size: one monitor (p0) plus four workers.
const N: usize = 5;
/// Algorithm 3's termination knob: writes deferred after δ concurrent
/// ones so the monitor's snapshot always completes.
const DELTA: u64 = 4;
/// The crash victim (later resumed).
const CRASH_VICTIM: NodeId = NodeId(4);
/// The transient-fault victim (must re-converge and emit `Stabilized`).
const CORRUPT_VICTIM: NodeId = NodeId(2);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Sim,
    Threads,
    Sockets,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threads => "threads",
            Backend::Sockets => "sockets",
        }
    }
}

struct Opts {
    backend: Backend,
    dashboard: bool,
    once: bool,
    http: Option<u16>,
    shards: usize,
    duration_ms: u64,
    out: Option<String>,
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{name} takes a value"))
            .clone()
    })
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().collect();
    let headless = args.iter().any(|a| a == "--headless");
    let dashboard = args.iter().any(|a| a == "--dashboard") && !headless;
    Opts {
        backend: match flag_value(&args, "--backend").as_deref() {
            None | Some("threads") => Backend::Threads,
            Some("sim") => Backend::Sim,
            Some("sockets") => Backend::Sockets,
            Some(other) => panic!("--backend takes sim|threads|sockets, not '{other}'"),
        },
        dashboard,
        once: args.iter().any(|a| a == "--once"),
        http: flag_value(&args, "--http").map(|v| v.parse().expect("--http takes a port")),
        shards: flag_value(&args, "--shards")
            .map_or(0, |v| v.parse().expect("--shards takes a count")),
        duration_ms: flag_value(&args, "--duration-ms").map_or(1_500, |v| {
            v.parse().expect("--duration-ms takes milliseconds")
        }),
        out: flag_value(&args, "--out"),
    }
}

/// The scenario every backend replays: a crash + resume on one worker
/// and a transient corruption on another, declared up front through the
/// shared fault plane (times are model-µs).
fn scenario() -> FaultPlan {
    FaultPlan::new()
        .at(500, FaultEvent::Crash(CRASH_VICTIM))
        .at(1_500, FaultEvent::Corrupt(CORRUPT_VICTIM))
        .at(2_500, FaultEvent::Resume(CRASH_VICTIM))
}

/// Encode a worker's load report: high bits heartbeat, low bits load %.
fn encode(seq: u64, load_pct: u64) -> u64 {
    (seq << 8) | (load_pct & 0xFF)
}

/// Either live message plane behind one handle; both hand out the same
/// [`Client`] type, so the demo body is backend-agnostic.
enum AnyCluster {
    Threads(Cluster<Alg3>),
    Sockets(Box<SocketCluster<Alg3>>),
}

impl AnyCluster {
    fn client(&self, node: NodeId) -> Client<Alg3> {
        match self {
            AnyCluster::Threads(c) => c.client(node),
            AnyCluster::Sockets(c) => c.client(node),
        }
    }
    fn apply_plan(&self, plan: &FaultPlan) {
        match self {
            AnyCluster::Threads(c) => c.apply_plan(plan),
            AnyCluster::Sockets(c) => c.apply_plan(plan),
        }
    }
    fn shutdown(self) {
        match self {
            AnyCluster::Threads(c) => {
                c.shutdown();
            }
            AnyCluster::Sockets(c) => {
                c.shutdown();
            }
        }
    }
}

/// One monitor tick: drive the attached service (if any), push its
/// gauges into the aggregator, and repaint/report per the display mode.
fn tick(opts: &Opts, ops: &OpsPlane, svc: Option<&Service<Alg1>>, frame_no: &mut u64) {
    if let Some(svc) = svc {
        drive_service(svc, *frame_no);
        ops.metrics().lock().set_shards(svc.gauges());
    }
    if opts.dashboard {
        let style = DashStyle {
            color: true,
            live: true,
            title: opts.backend.name().into(),
        };
        print!("{HOME}{}", render(&ops.snapshot(), &style));
        let _ = std::io::stdout().flush();
    } else if !opts.once && (*frame_no).is_multiple_of(5) {
        let m = ops.snapshot();
        println!(
            "  [monitor] t={}µs · folded {} · {} tainted · shed {}",
            m.now(),
            m.records(),
            m.tainted_count(),
            m.shed()
        );
    }
    *frame_no += 1;
}

/// A burst of keyed writes plus one snapshot against the attached
/// service — enough load that the shard panel shows a real queue depth
/// and group-commit collapse factor.
fn drive_service(svc: &Service<Alg1>, tick: u64) {
    for k in 0..32 {
        let key = tick * 32 + k;
        // Fire-and-forget: the ticket resolves on the batcher's flush.
        let _ = svc.write(key, key + 1);
    }
    if let Ok(t) = svc.snapshot(tick) {
        let _ = t.wait_timeout(Duration::from_millis(50));
    }
}

/// The sim backend: the same scenario on virtual time, stepped in
/// slices so the dashboard still animates (the trace stream and the
/// aggregator are identical to the live backends).
fn run_sim(opts: &Opts, ops: &OpsPlane, svc: Option<&Service<Alg1>>) {
    let n = N;
    let cfg = sss_sim::SimConfig::small(n).with_seed(0x0B5_CA7);
    let mut sim = Sim::new(cfg, move |id| Alg3::new(id, n, Alg3Config { delta: DELTA }));
    sim.set_tracer(ops.tracer());
    sim.apply_plan(&scenario());
    let mut driver = MixedDriver::new(
        n,
        MixedConfig {
            ops_per_node: 300,
            write_ratio: 0.8,
            think: (0, 400),
            seed: 0xBEEF,
            nodes: None,
        },
    );
    // Keep simulating rounds after the workload drains so the corrupted
    // node's convergence (and its `Stabilized` probe) lands in-horizon.
    driver.stop_when_done = false;
    let horizon = opts.duration_ms.max(10) * 1_000;
    let slices = 20;
    let mut frame_no = 0u64;
    for s in 1..=slices {
        sim.run_with_driver(&mut driver, horizon * s / slices);
        tick(opts, ops, svc, &mut frame_no);
        if opts.dashboard {
            std::thread::sleep(Duration::from_millis(40));
        }
    }
}

/// The live backends: workers publish load reports at full tilt, a
/// monitor client snapshots continuously, and the fault plan replays on
/// its own thread while the main thread paints.
fn run_live(opts: &Opts, ops: &OpsPlane, svc: Option<&Service<Alg1>>, cluster: &AnyCluster) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 1..N {
            let client = cluster.client(NodeId(w));
            let stop = &stop;
            s.spawn(move || {
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let load = (37 * (seq + 1) + 13 * w as u64) % 100;
                    // A publish can time out while this worker is
                    // crashed by the plan; it retries on the next beat.
                    if client.write(encode(seq + 1, load)).is_ok() {
                        seq += 1;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        let monitor = cluster.client(NodeId(0));
        {
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = monitor.snapshot();
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
        // Blocking replay: sleeps to each event's wall-clock offset.
        s.spawn(|| cluster.apply_plan(&scenario()));

        let deadline = Duration::from_millis(opts.duration_ms);
        let t0 = Instant::now();
        let mut frame_no = 0u64;
        while t0.elapsed() < deadline {
            tick(opts, ops, svc, &mut frame_no);
            std::thread::sleep(Duration::from_millis(100));
        }
        stop.store(true, Ordering::Relaxed);
    });
}

/// One `GET` against the ops server; returns the body, asserting 200.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("malformed response");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "unexpected status: {head}"
    );
    body.to_string()
}

fn main() {
    let opts = parse_opts();
    let name = opts.backend.name();
    if !opts.once && !opts.dashboard {
        println!(
            "cluster_monitor: backend = {name}, duration = {}ms",
            opts.duration_ms
        );
    }

    // Layer 1: the aggregator. Every backend emits through this plane.
    let ops = OpsPlane::start(N);
    // Layer 3: the HTTP endpoints, live for the whole run.
    let server = opts.http.map(|port| {
        let srv = OpsHttpServer::serve(ops.metrics(), port).expect("bind ops HTTP server");
        println!(
            "ops plane: http://{} (/node_info, /metrics, /shards)",
            srv.addr()
        );
        srv
    });
    // The optional sharded service rides along on any backend: its
    // gauges are polled into the aggregator, not traced through it.
    let svc = (opts.shards > 0).then(|| {
        let shard_nodes = 3;
        let cfg = ServiceConfig {
            shards: opts.shards,
            vnodes: 16,
            seed: 0xD15C,
            ..ServiceConfig::default()
        };
        Service::start(cfg, move |_, id| Alg1::new(id, shard_nodes))
    });

    if opts.dashboard {
        print!("{CLEAR}{HOME}");
    }
    match opts.backend {
        Backend::Sim => run_sim(&opts, &ops, svc.as_ref()),
        Backend::Threads | Backend::Sockets => {
            let mut ccfg = ClusterConfig::new(N);
            // Short op timeout so a worker caught by the crash window
            // retries quickly instead of stalling the demo.
            ccfg.op_timeout = Duration::from_millis(150);
            let cluster = if opts.backend == Backend::Sockets {
                let mut scfg = SocketConfig::new(N);
                scfg.cluster = ccfg;
                AnyCluster::Sockets(Box::new(SocketCluster::new_traced(
                    scfg,
                    ops.tracer(),
                    move |id| Alg3::new(id, N, Alg3Config { delta: DELTA }),
                )))
            } else {
                AnyCluster::Threads(Cluster::new_traced(ccfg, ops.tracer(), move |id| {
                    Alg3::new(id, N, Alg3Config { delta: DELTA })
                }))
            };
            run_live(&opts, &ops, svc.as_ref(), &cluster);
            cluster.shutdown();
        }
    }

    // Final gauge push, then freeze the aggregator: `stop` drains what
    // the backends already emitted, so the frame, the JSON artifact and
    // the HTTP endpoints below all describe the same final state.
    if let Some(svc) = &svc {
        ops.metrics().lock().set_shards(svc.gauges());
    }
    let finale = ops.stop();

    let mut style = DashStyle::headless();
    style.title = name.into();
    let frame = render(&finale, &style);
    if opts.dashboard {
        print!("{CLEAR}{HOME}");
    }
    println!("{frame}");

    // Self-verification (all modes): the scenario's whole arc — crash,
    // corruption, resume, stabilization — must be visible in the frame
    // and in the structured state.
    let crash = CRASH_VICTIM.index();
    let corrupt = CORRUPT_VICTIM.index();
    assert!(frame.contains(&format!("crash p{crash}")), "crash in feed");
    assert!(
        frame.contains(&format!("resume p{crash}")),
        "resume in feed"
    );
    assert!(
        frame.contains(&format!("corrupt p{corrupt}")),
        "corruption in feed"
    );
    assert!(
        frame.contains(&format!("stabilized p{corrupt}")),
        "stabilization probe in feed"
    );
    assert!(finale.node(corrupt).corruptions >= 1);
    assert!(
        finale.node(corrupt).stabilizations >= 1,
        "corrupted node re-converged"
    );
    assert!(finale.records() > 0, "aggregator folded the run");
    if opts.shards > 0 {
        assert!(!finale.shards().is_empty(), "shard gauges were pushed");
    }

    let info = finale.to_node_info_json();
    if let Some(server) = &server {
        // The endpoint must serve byte-identically the state the frame
        // was rendered from — one aggregator, three views.
        let got = http_get(server.addr(), "/node_info");
        assert_eq!(got, info.render(), "/node_info serves the aggregator state");
        let prom = http_get(server.addr(), "/metrics");
        assert!(prom.contains("sss_node_stabilized_total"));
        assert!(prom.contains(&format!("sss_node_up{{node=\"p{crash}\"}} 1")));
    }

    if let Some(path) = &opts.out {
        let artifact = JsonValue::Obj(vec![
            ("backend".into(), JsonValue::Str(name.into())),
            ("duration_ms".into(), JsonValue::UInt(opts.duration_ms)),
            ("node_info".into(), info),
            ("shards".into(), finale.shards_json()),
        ]);
        std::fs::write(path, artifact.render()).expect("write --out artifact");
        println!("artifact -> {path}");
    }
    println!("ok");
}
