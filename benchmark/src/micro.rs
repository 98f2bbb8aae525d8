//! Single-thread microbenchmarks of each layer's public functions —
//! the `*_ns` per-layer metrics. They say what one call costs with
//! nothing else running; the workloads say what the calls add up to.

use crate::measure::Counts;
use crate::stats::median;
use sss_core::{Alg1, Alg1Msg, Alg3, Alg3Config, Alg3Msg};
use sss_runtime::NodeInbox;
use sss_service::Ring;
use sss_types::{decode_frames, encode_frame, Effects, NodeId, Outbox, Protocol, RegArray, Tagged};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cluster size the microbenchmarks model (that of the capacity
/// workloads).
const N: usize = 8;
/// Repetitions per microbenchmark; the median is reported.
const REPS: usize = 5;
/// Calls per clock reading.
const BATCH: u64 = 256;

/// Median over [`REPS`] repetitions of the mean ns per call of `f`,
/// each repetition running for `rep` wall time.
fn ns_per_call(rep: Duration, mut f: impl FnMut()) -> f64 {
    let mut per_rep: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..BATCH {
                    f();
                }
                calls += BATCH;
                let spent = start.elapsed();
                if spent >= rep {
                    return spent.as_nanos() as f64 / calls as f64;
                }
            }
        })
        .collect();
    median(&mut per_rep)
}

fn gossip(i: u64) -> Alg1Msg {
    Alg1Msg::Gossip {
        cell: Tagged { ts: i + 1, val: i },
    }
}

/// Runs every microbenchmark within roughly `budget` and stores the
/// results under their per-layer metric names.
pub fn run_all(budget: Duration, seed: u64, out: &mut Counts) {
    const BENCHES: u32 = 10;
    let rep = budget / (BENCHES * REPS as u32);

    // types: the wire codec on the frame that dominates socket traffic.
    let mut buf = Vec::with_capacity(256);
    let msg = gossip(seed);
    out.insert(
        "types.wire.encode_ns",
        ns_per_call(rep, || {
            buf.clear();
            encode_frame(NodeId(2), black_box(&msg), &mut buf).expect("gossip frame encodes");
        }),
    );
    out.insert("types.wire.frame_bytes", buf.len() as f64);
    out.insert(
        "types.wire.decode_ns",
        ns_per_call(rep, || {
            let frames = decode_frames::<Alg1Msg>(black_box(&buf), N).count();
            assert_eq!(frames, 1);
        }),
    );

    // types: a register-array merge that advances half the cells, then
    // puts them back so every call does the same work.
    let old: RegArray = (0..N as u64).map(|k| Tagged { ts: 10, val: k }).collect();
    let new: RegArray = (0..N as u64)
        .map(|k| Tagged {
            ts: 10 + (k % 2),
            val: seed ^ k,
        })
        .collect();
    let mut reg = old.clone();
    out.insert(
        "types.reg.merge_ns",
        ns_per_call(rep, || {
            assert!(reg.merge_from_changed(black_box(&new)));
            for k in (1..N).step_by(2) {
                reg.set(NodeId(k), old.get(NodeId(k)));
            }
        }),
    );

    // types: one step's sends through the coalescing outbox — two
    // gossip cells per destination, the second absorbed by the first.
    let mut outbox: Outbox<Alg1Msg> = Outbox::new(N);
    let mut tick = 0u64;
    out.insert(
        "types.outbox.push_drain_ns",
        ns_per_call(rep, || {
            tick += 2;
            for k in 0..N {
                outbox.push(NodeId(k), gossip(tick));
                outbox.push(NodeId(k), gossip(tick + 1));
            }
            black_box(outbox.drain().count());
        }) / (2 * N) as f64,
    );

    // sss-core: the protocol state machines driven directly.
    let mut fx = Effects::new();
    let mut alg1 = Alg1::new(NodeId(0), N);
    out.insert(
        "core.alg1.on_round_ns",
        ns_per_call(rep, || {
            alg1.on_round(&mut fx);
            black_box(fx.drain_sends().count());
        }),
    );
    let mut ts = 0u64;
    out.insert(
        "core.alg1.on_message_ns",
        ns_per_call(rep, || {
            ts += 1;
            alg1.on_message(NodeId(1 + (ts as usize % (N - 1))), gossip(ts), &mut fx);
            black_box(fx.drain_sends().count());
        }),
    );
    let mut fx3 = Effects::new();
    let mut alg3 = Alg3::new(NodeId(0), N, Alg3Config::default());
    out.insert(
        "core.alg3.on_round_ns",
        ns_per_call(rep, || {
            alg3.on_round(&mut fx3);
            black_box(fx3.drain_sends().count());
        }),
    );
    out.insert(
        "core.alg3.on_message_ns",
        ns_per_call(rep, || {
            ts += 1;
            let msg = Alg3Msg::Gossip {
                cell: Tagged { ts, val: ts },
                pnd_sns: 0,
            };
            alg3.on_message(NodeId(1 + (ts as usize % (N - 1))), msg, &mut fx3);
            black_box(fx3.drain_sends().count());
        }),
    );

    // runtime: the two-lane inbox, 16 messages in, one drain out.
    let inbox: NodeInbox<Alg1Msg> = NodeInbox::new();
    let (mut ctl, mut data) = (Vec::new(), Vec::new());
    const DRAIN: usize = 16;
    out.insert(
        "runtime.inbox.push_drain_ns",
        ns_per_call(rep, || {
            for i in 0..DRAIN {
                inbox.push_data(NodeId(i % N), gossip(i as u64));
            }
            inbox.drain(&mut ctl, &mut data, 0, Instant::now());
            black_box(data.len());
            data.clear();
        }) / DRAIN as f64,
    );

    // service: one key → shard lookup on the ring the service builds.
    let ring = Ring::new(2, 64, seed);
    let mut key = seed;
    out.insert(
        "service.ring.lookup_ns",
        ns_per_call(rep, || {
            key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            black_box(ring.shard_for(key));
        }),
    );

    // sim: a few storm simulations — wall time per event plus the exact
    // (virtual-time, seed-determined) counts.
    crate::workloads::sim::probe(seed, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_microbenchmark_reports_a_positive_time() {
        let mut out = Counts::new();
        run_all(Duration::from_millis(60), 7, &mut out);
        for name in [
            "types.wire.encode_ns",
            "types.wire.decode_ns",
            "types.reg.merge_ns",
            "types.outbox.push_drain_ns",
            "core.alg1.on_round_ns",
            "core.alg1.on_message_ns",
            "core.alg3.on_round_ns",
            "core.alg3.on_message_ns",
            "runtime.inbox.push_drain_ns",
            "service.ring.lookup_ns",
            "sim.ns_per_event",
        ] {
            assert!(out[name] > 0.0, "{name} = {}", out[name]);
        }
        assert_eq!(out["types.wire.frame_bytes"], 29.0);
    }
}
