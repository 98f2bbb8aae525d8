//! The simulator workloads: `sim-storm` (a write storm on `Sim<Alg1>`,
//! single-threaded and deterministic) and the simulator leg of
//! `fault-recovery` (asynchronous cycles until the invariants hold
//! again after corrupting every node).

use super::{clone_counts, CloneCounts, Ctx};
use crate::measure::{Clock, Counts, Measured, OpSample};
use crate::procfs::CpuTime;
use crate::verify;
use sss_core::Alg1;
use sss_net::mix64;
use sss_obs::{MemorySink, Tracer};
use sss_sim::{Ctl, Driver, Metrics, Sim, SimConfig};
use sss_types::{MsgKind, NodeId, OpClass, OpId, OpResponse, Protocol, SnapshotOp};
use sss_workload::unique_value;
use std::time::Instant;

const N: usize = 8;
/// Virtual µs each simulation covers (1250 rounds per node).
const HORIZON: u64 = 125_000;
/// Every `SNAP_EVERY`-th operation of a node is a snapshot.
const SNAP_EVERY: u64 = 16;
/// The simulations every pass runs first, whatever the window: their
/// counts are a pure function of the seed and must repeat exactly.
pub const EXACT_RUNS: u64 = 2;

/// A fixed piece of single-threaded processor work (hash, dependent
/// table access, unpredictable branch), timed after every simulation.
///
/// `sim-storm` is pure computation, so the only thing that moves its
/// timings between runs of one binary is the speed of the processor it
/// happens to get — and on the shared 2-vCPU reference host that speed
/// flips by 30–40 % for minutes at a time (same binary, same seed:
/// 117k–193k ops/s). The yardstick slows down with it, so every time of
/// a `sim-storm` run is reported **scaled to a processor on which one
/// yardstick call takes [`YARDSTICK_REF_NS`]**; on 14 back-to-back runs
/// that shrank the range of `ops_per_s` from 26 % to 10 %.
struct Yardstick {
    table: Vec<u64>,
    x: u64,
    spent_ns: u64,
    calls: u64,
}

/// Table steps per yardstick call (≈ 0.5 ms, 0.3 % of a simulation).
const YARDSTICK_STEPS: u64 = 100_000;
/// What one call takes on the reference host in its fast state, ns.
const YARDSTICK_REF_NS: f64 = 500_000.0;

impl Yardstick {
    fn new(seed: u64) -> Self {
        Yardstick {
            table: vec![0; 1 << 15],
            x: seed,
            spent_ns: 0,
            calls: 0,
        }
    }

    fn measure(&mut self) {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        for i in 0..YARDSTICK_STEPS {
            self.x = mix64(self.x, i);
            let slot = &mut self.table[self.x as usize & mask];
            if *slot & 1 == 0 {
                *slot = slot.wrapping_add(self.x);
            } else {
                *slot ^= self.x >> 7;
            }
        }
        std::hint::black_box(&self.table);
        self.spent_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    /// Reference-processor seconds per second of this run.
    fn time_scale(&self) -> f64 {
        YARDSTICK_REF_NS * self.calls as f64 / self.spent_ns.max(1) as f64
    }
}

/// Every node invokes its next operation the moment the previous one
/// completes, and stamps both ends with the wall clock: the latency a
/// caller embedded in the simulation would wait in real time.
struct Storm<'a> {
    clock: &'a Clock,
    /// Per node: operations invoked, writes invoked, and the class and
    /// wall times (invoke entered, invoke returned) of the operation in
    /// flight.
    invoked: Vec<u64>,
    written: Vec<u64>,
    in_flight: Vec<(OpClass, u64, u64)>,
    samples: &'a mut Vec<OpSample>,
}

impl Storm<'_> {
    fn invoke_next<M>(&mut self, node: NodeId, ctl: &mut Ctl<'_, M>) {
        let k = node.index();
        self.invoked[k] += 1;
        let (class, op) = if self.invoked[k].is_multiple_of(SNAP_EVERY) {
            (OpClass::Snapshot, SnapshotOp::Snapshot)
        } else {
            self.written[k] += 1;
            let v = unique_value(node, self.written[k]);
            (OpClass::Write, SnapshotOp::Write(v))
        };
        let call_ns = self.clock.ns();
        ctl.invoke(node, op);
        self.in_flight[k] = (class, call_ns, self.clock.ns());
    }
}

impl<P: Protocol> Driver<P> for Storm<'_> {
    fn init(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        for k in 0..ctl.n() {
            self.invoke_next(NodeId(k), ctl);
        }
    }

    fn on_completion(
        &mut self,
        node: NodeId,
        _id: OpId,
        _resp: &OpResponse,
        ctl: &mut Ctl<'_, P::Msg>,
    ) {
        let (class, call_ns, ret_ns) = self.in_flight[node.index()];
        let done_ns = self.clock.ns();
        self.samples.push(OpSample {
            class,
            lane: node.index() as u16,
            due_ns: call_ns,
            call_ns,
            ret_ns,
            done_ns,
            ok: true,
        });
        self.invoke_next(node, ctl);
    }
}

/// One storm simulation with seed `mix64(seed, index)`; returns the
/// finished simulator.
fn storm_run(
    seed: u64,
    index: u64,
    tracer: &Tracer,
    clock: &Clock,
    samples: &mut Vec<OpSample>,
) -> Sim<Alg1> {
    let cfg = SimConfig::small(N).with_seed(mix64(seed, index));
    let mut sim = Sim::new(cfg, |id| Alg1::new(id, N));
    sim.set_tracer(tracer.clone());
    let mut storm = Storm {
        clock,
        invoked: vec![0; N],
        written: vec![0; N],
        in_flight: vec![(OpClass::Write, 0, 0); N],
        samples,
    };
    sim.run_with_driver(&mut storm, HORIZON);
    sim
}

/// Sums of the simulator's own (virtual-time, deterministic) accounting
/// over a set of runs.
#[derive(Default)]
struct Tally {
    ops: u64,
    rounds: u64,
    delivered: u64,
    sent: u64,
    bits: u64,
    sent_write: u64,
    sent_gossip: u64,
    sent_snapshot: u64,
    virt_write: Vec<u64>,
    virt_snap: Vec<u64>,
}

impl Tally {
    fn add(&mut self, m: &Metrics) {
        self.ops += m.ops_completed;
        self.rounds += m.rounds;
        self.delivered += m.kinds().map(|(_, c)| c.delivered).sum::<u64>();
        self.sent += m.total_sent();
        self.bits += m.total_bits();
        self.sent_write += m.kind(MsgKind::Write).sent + m.kind(MsgKind::WriteAck).sent;
        self.sent_snapshot += m.kind(MsgKind::Snapshot).sent + m.kind(MsgKind::SnapshotAck).sent;
        self.sent_gossip += m.gossip_sent();
        self.virt_write
            .extend_from_slice(m.latency_samples(OpClass::Write));
        self.virt_snap
            .extend_from_slice(m.latency_samples(OpClass::Snapshot));
    }

    fn events(&self) -> u64 {
        self.rounds + self.delivered
    }
}

/// The exact block: per-layer counts of the first [`EXACT_RUNS`] storm
/// simulations, every one a pure function of `seed`.
fn exact_counts(tally: &mut Tally, clones: CloneCounts, out: &mut Counts) {
    let per_op = |x: u64| x as f64 / tally.ops.max(1) as f64;
    out.insert("sim.exact.msgs_per_op", per_op(tally.sent));
    out.insert("sim.exact.bytes_per_op", per_op(tally.bits) / 8.0);
    out.insert("sim.exact.events_per_op", per_op(tally.events()));
    out.insert("sim.exact.write_msgs_per_op", per_op(tally.sent_write));
    out.insert(
        "sim.exact.snapshot_msgs_per_op",
        per_op(tally.sent_snapshot),
    );
    out.insert("sim.exact.gossip_msgs_per_op", per_op(tally.sent_gossip));
    out.insert(
        "sim.exact.bits_per_msg",
        tally.bits as f64 / tally.sent.max(1) as f64,
    );
    // On `sim-storm` these are the workload's own clone rates.
    out.insert("types.deep_clones_per_op", per_op(clones.deep_clones));
    out.insert("types.cells_copied_per_op", per_op(clones.cells_copied));
    tally.virt_write.sort_unstable();
    tally.virt_snap.sort_unstable();
    let p50 = |v: &[u64]| crate::stats::percentile_sorted(v, 50.0) as f64;
    out.insert("sim.exact.virt_write_p50", p50(&tally.virt_write));
    out.insert("sim.exact.virt_snap_p50", p50(&tally.virt_snap));
}

/// `sim-storm`: warm-up simulations, then back-to-back simulations with
/// seeds `mix64(seed, i)` until the window has passed (always at least
/// [`EXACT_RUNS`]). Throughput and wall latency cover every simulation
/// of the window; the exact counts cover the first [`EXACT_RUNS`].
pub fn storm(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let clock = Clock::start();
    let fresh = || {
        Sim::new(SimConfig::small(N).with_seed(ctx.seed), |id| {
            Alg1::new(id, N)
        })
    };
    let first_write = |sim: &mut Sim<Alg1>| {
        sim.invoke_at(0, NodeId(0), SnapshotOp::Write(unique_value(NodeId(0), 1)));
        assert!(sim.run_until_idle(HORIZON), "first write on a fresh sim");
    };
    drop(super::timed_setup(&mut m, &clock, fresh, first_write));

    let mut discard = Vec::new();
    let warm_until = Instant::now() + ctx.warmup;
    let mut warm = 0;
    while Instant::now() < warm_until {
        storm_run(
            ctx.seed,
            1 << 32 | warm,
            &Tracer::off(),
            &clock,
            &mut discard,
        );
        warm += 1;
    }
    drop(discard);

    let (sink, trace) = MemorySink::new();
    let tracer = if ctx.traced {
        Tracer::new(N).with_sink(sink)
    } else {
        Tracer::off()
    };
    let t0 = clock.ns();
    let t1 = t0 + ctx.window.as_nanos() as u64;
    let (cpu0, clones0) = (CpuTime::now(), clone_counts());
    let mut exact = Tally::default();
    let mut exact_clones = CloneCounts::default();
    let mut exact_sims = Vec::new();
    let mut yardstick = Yardstick::new(ctx.seed);
    let mut runs = 0u64;
    // The traced pass stops at the exact runs: a storm emits ~1M trace
    // records per simulation.
    while runs < EXACT_RUNS || (!ctx.traced && clock.ns() < t1) {
        let sim = storm_run(ctx.seed, runs, &tracer, &clock, &mut m.ops);
        runs += 1;
        yardstick.measure();
        m.trace.absorb(&trace.records());
        trace.clear();
        if runs <= EXACT_RUNS {
            exact.add(sim.metrics());
            exact_clones = clone_counts().since(clones0);
            exact_sims.push(sim);
        }
    }
    m.window = (t0, clock.ns());
    m.time_scale = yardstick.time_scale();
    m.cpu = CpuTime::now().since(cpu0);
    super::repeat_setups(ctx, &mut m, &clock, fresh, drop, first_write);
    exact_counts(&mut exact, exact_clones, &mut m.counts);

    // Sanity on every exact simulation, the checker on the first.
    let verify_start = clock.ns();
    let mut history = exact_sims[0].history().clone();
    if ctx.tamper {
        history = verify::tamper(&history);
    }
    let histories = std::iter::once(&history).chain(exact_sims[1..].iter().map(Sim::history));
    for h in histories {
        m.violations.extend(verify::history_sanity(h, N, 0));
    }
    verify::check(&verify::time_prefix(&history, verify::PREFIX_OPS), N).record(&mut m);
    super::close_phases(&mut m, &clock, verify_start, std::time::Duration::ZERO);
    m
}

/// The per-layer probe every traced run takes, whatever its workload:
/// the exact block of [`EXACT_RUNS`] storm simulations plus the wall
/// time per simulator event.
pub fn probe(seed: u64, out: &mut Counts) {
    let clock = Clock::start();
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let clones0 = clone_counts();
    let start = Instant::now();
    for i in 0..EXACT_RUNS {
        let sim = storm_run(seed, i, &Tracer::off(), &clock, &mut samples);
        tally.add(sim.metrics());
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    out.insert("sim.ns_per_event", wall_ns / tally.events().max(1) as f64);
    exact_counts(&mut tally, clone_counts().since(clones0), out);
}

/// Simulator leg of `fault-recovery`, at the threads leg's size: after
/// some ordinary traffic corrupt **every** node, then advance one
/// asynchronous cycle at a time until each node's local invariants hold
/// again. Ten derived seeds; the worst count is the paper's O(1)
/// recovery bound as this implementation meets it.
pub fn recovery_leg(seed: u64, m: &mut Measured) {
    const N: usize = 5;
    const SEEDS: u64 = 10;
    const CYCLE_CAP: u64 = 64;
    let mut worst = 0u64;
    for i in 0..SEEDS {
        let cfg = SimConfig::small(N).with_seed(mix64(seed, 0xFA00 + i));
        let mut sim = Sim::new(cfg, |id| Alg1::new(id, N));
        for k in 0..N {
            let node = NodeId(k);
            sim.invoke_at(0, node, SnapshotOp::Write(unique_value(node, 1)));
            sim.invoke_at(1, node, SnapshotOp::Snapshot);
        }
        let idle = sim.run_until_idle(HORIZON);
        for k in 0..N {
            sim.corrupt_node_now(NodeId(k));
        }
        let healthy = |sim: &Sim<Alg1>| (0..N).all(|k| sim.node(NodeId(k)).local_invariants_hold());
        let mut cycles = 0;
        while cycles < CYCLE_CAP && !healthy(&sim) {
            let limit = sim.now() + HORIZON;
            sim.run_for_cycles(1, limit);
            cycles += 1;
        }
        if !idle || !healthy(&sim) {
            m.violations.push(format!(
                "sim leg, seed {i}: no recovery in {CYCLE_CAP} cycles"
            ));
        }
        worst = worst.max(cycles);
    }
    m.counts.insert("fault.recovery_cycles", worst as f64);
}
