//! `sockets-window`: one generator thread keeps a fixed number of
//! operations in flight through the fire-and-forget `Client::submit`
//! path with one shared completion channel — the capacity regime, where
//! drain batching, coalescing and frame packing do their work.

use super::closed::{repeat_cluster_setups, timed_cluster, Sut};
use super::{clone_counts, put_clone_rates, window_counters, Ctx};
use crate::measure::{Clock, Measured, OpSample};
use crate::procfs::CpuTime;
use crate::verify::{tamper_view, ViewSanity};
use sss_obs::Tracer;
use sss_runtime::SubmitError;
use sss_types::{NodeId, OpClass, OpResponse, Protocol, SnapshotOp};
use sss_workload::unique_value;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Operations kept in flight (initially `IN_FLIGHT / n` per node).
const IN_FLIGHT: usize = 32;
/// Every `SNAP_EVERY`-th operation submitted to a node is a snapshot.
const SNAP_EVERY: u64 = 16;
/// A completion that takes this long means the run is broken.
const STALL: Duration = Duration::from_secs(5);

/// A submission awaiting its completion.
struct Pending {
    call_ns: u64,
    ret_ns: u64,
}

pub fn run<P, S>(ctx: &Ctx, n: usize, make: impl Fn(Tracer) -> S) -> Measured
where
    P: Protocol,
    S: Sut<P>,
{
    let mut m = Measured::default();
    let clock = Clock::start();
    let (sut, trace) = timed_cluster(ctx, n, &mut m, &clock, &make);

    let clients: Vec<_> = (0..n).map(|k| sut.client(NodeId(k))).collect();
    let (done_tx, done_rx) = crossbeam::channel::unbounded::<OpResponse>();
    // Completions carry no operation id, so each is matched to the
    // oldest outstanding submission of its class. Per node the program
    // completes in submission order; across nodes the match is a FIFO
    // approximation whose mean is exact (Little's law) — see the README.
    let mut outstanding: [VecDeque<Pending>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut submitted = vec![1u64; n]; // seq 1 of node 0: the set-up write
    let mut per_node_ops = vec![0u64; n];
    let mut next_node = 0usize;
    let mut submit_full = 0u64;
    let mut views = ViewSanity::concurrent(n);
    let mut tamper = ctx.tamper;
    let mut submit = |outstanding: &mut [VecDeque<Pending>; 2], submitted: &mut [u64]| {
        let k = next_node;
        next_node = (next_node + 1) % n;
        per_node_ops[k] += 1;
        let (class, op) = if per_node_ops[k].is_multiple_of(SNAP_EVERY) {
            (OpClass::Snapshot, SnapshotOp::Snapshot)
        } else {
            submitted[k] += 1;
            let v = unique_value(NodeId(k), submitted[k]);
            (OpClass::Write, SnapshotOp::Write(v))
        };
        let call_ns = clock.ns();
        match clients[k].submit(op, done_tx.clone()) {
            Ok(_) => outstanding[class as usize].push_back(Pending {
                call_ns,
                ret_ns: clock.ns(),
            }),
            Err(SubmitError::Full) => submit_full += 1,
            Err(SubmitError::Shutdown) => panic!("cluster shut down mid-run"),
        }
    };
    for _ in 0..IN_FLIGHT {
        submit(&mut outstanding, &mut submitted);
    }

    let (t0, t1) = ctx.window_on(&clock);
    let net = || (sut.net_stats(), sut.dropped());
    let mut before = None;
    loop {
        let resp = done_rx
            .recv_timeout(STALL)
            .expect("no completion within the stall limit");
        let done_ns = clock.ns();
        let class = match &resp {
            OpResponse::WriteDone => OpClass::Write,
            OpResponse::Snapshot(view) => {
                let edited = std::mem::take(&mut tamper).then(|| tamper_view(view));
                let check = views.observe(edited.as_ref().unwrap_or(view), |k, v| {
                    v > unique_value(k, 0) && v <= unique_value(k, submitted[k.index()])
                });
                if let Err(e) = check {
                    m.violations.push(format!("sanity: {e}"));
                }
                OpClass::Snapshot
            }
        };
        let p = outstanding[class as usize]
            .pop_front()
            .expect("a completion without a submission");
        m.ops.push(OpSample {
            class,
            lane: 0,
            due_ns: p.call_ns,
            call_ns: p.call_ns,
            ret_ns: p.ret_ns,
            done_ns,
            ok: true,
        });
        if before.is_none() && done_ns >= t0 {
            before = Some((net(), CpuTime::now(), clone_counts()));
            trace.clear();
        }
        if done_ns >= t1 {
            break;
        }
        submit(&mut outstanding, &mut submitted);
    }
    let (net0, cpu0, clones0) = before.expect("window opened");
    m.cpu = CpuTime::now().since(cpu0);
    window_counters(&mut m, net0, net(), n);
    let clones = clone_counts().since(clones0);
    m.counts.insert("runtime.submit_full", submit_full as f64);
    m.window = (t0, clock.ns());
    m.trace.absorb(&trace.records());
    put_clone_rates(&mut m, clones);

    // Drain what is still in flight so teardown is clean, then stop.
    let verify_start = clock.ns();
    drop(done_tx);
    let in_flight: usize = outstanding.iter().map(VecDeque::len).sum();
    for _ in 0..in_flight {
        if done_rx.recv_timeout(STALL).is_err() {
            m.violations
                .push("an in-flight operation never completed".into());
            break;
        }
    }
    let teardown = Instant::now();
    drop(clients);
    sut.stop();
    super::close_phases(&mut m, &clock, verify_start, teardown.elapsed());
    repeat_cluster_setups(ctx, &mut m, &clock, &make);
    m
}
