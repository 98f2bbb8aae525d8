//! Protocol-level benchmarks: per-operation simulation cost of every
//! protocol, the simulator's raw event loop, and payload fan-out.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sss_baselines::{Dgfr1, Dgfr2, Stacked};
use sss_core::{Alg1, Alg1Msg, Alg3, Alg3Config};
use sss_sim::{Driver, Sim, SimConfig};
use sss_types::{Effects, NodeId, Payload, Protocol, RegArray, SnapshotOp, Tagged};

fn one_round_trip<P: Protocol>(mk: impl FnMut(NodeId) -> P) {
    let mut sim = Sim::new(SimConfig::small(5).with_seed(6), mk);
    sim.invoke_at(0, NodeId(0), SnapshotOp::Write(1));
    assert!(sim.run_until_idle(200_000_000));
    let t = sim.now();
    sim.invoke_at(t, NodeId(1), SnapshotOp::Snapshot);
    assert!(sim.run_until_idle(400_000_000));
}

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocols_write_plus_snapshot");
    g.sample_size(30);
    let n = 5;
    g.bench_function("alg1_ss", |b| {
        b.iter(|| one_round_trip(move |id| Alg1::new(id, n)))
    });
    g.bench_function("alg3_ss_d0", |b| {
        b.iter(|| one_round_trip(move |id| Alg3::new(id, n, Alg3Config { delta: 0 })))
    });
    g.bench_function("alg3_ss_d8", |b| {
        b.iter(|| one_round_trip(move |id| Alg3::new(id, n, Alg3Config { delta: 8 })))
    });
    g.bench_function("dgfr1", |b| {
        b.iter(|| one_round_trip(move |id| Dgfr1::init(id, n)))
    });
    g.bench_function("dgfr2", |b| {
        b.iter(|| one_round_trip(move |id| Dgfr2::new(id, n)))
    });
    g.bench_function("stacked", |b| {
        b.iter(|| one_round_trip(move |id| Stacked::new(id, n)))
    });
    g.finish();
}

/// A driver that invokes nothing: the sim runs on gossip and rounds
/// alone, so the measurement isolates the event queue, link model, and
/// message plane from client-side operation logic.
struct Idle;
impl<P: Protocol> Driver<P> for Idle {}

/// The simulator's hot loop: schedule → pop → deliver, with Algorithm
/// 1's O(n²)-per-cycle gossip as the workload. Tracks the calendar
/// event queue and the `Effects` recycling on the runner.
fn bench_sim_event_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_event_loop");
    g.sample_size(30);
    for n in [8usize, 32] {
        g.bench_function(&format!("gossip_n{n}"), |b| {
            b.iter(|| {
                let cfg = SimConfig::small(n).with_seed(7);
                let mut sim = Sim::new(cfg, move |id| Alg1::new(id, n));
                sim.run_with_driver(&mut Idle, 2_000);
                black_box(sim.metrics().total_sent());
            })
        });
    }
    g.finish();
}

/// Fan-out cost of one `WRITE(lReg)` broadcast: with `Payload` sharing
/// this is n refcount bumps; a deep-copy message plane would clone
/// O(ν·n) bits per recipient.
fn bench_broadcast_payload(c: &mut Criterion) {
    let mut g = c.benchmark_group("broadcast_payload");
    for n in [8usize, 64] {
        let mut reg = RegArray::bottom(n);
        for k in 0..n {
            reg.set(NodeId(k), Tagged::new(k as u64, 1 + k as u64));
        }
        let msg = Alg1Msg::Write {
            reg: Payload::new(reg),
        };
        g.bench_function(&format!("write_n{n}"), |b| {
            let mut fx = Effects::new();
            b.iter(|| {
                fx.broadcast(n, black_box(&msg));
                black_box(fx.drain_sends().count());
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_protocols,
    bench_sim_event_loop,
    bench_broadcast_payload
);
criterion_main!(benches);
