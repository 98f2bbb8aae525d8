//! The threaded runtime as a [`Backend`]: replay a shared fault plan
//! under the spec-derived workload on real threads and wall-clock time.

use crate::engine::{Engines, Wire};
use crate::{Cluster, ClusterConfig, ClusterError};
use sss_net::{Backend, FaultPlan, NodeProbe, RunReport, RunStats, WorkloadSpec, MODEL_ROUND_US};
use sss_obs::Tracer;
use sss_types::{NodeId, Protocol, SnapshotOp};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The real-threads backend. Each node gets one client thread executing
/// the spec's operation sequence closed-loop (think times and the
/// per-operation timeout scale from model onto wall-clock time via
/// [`ClusterConfig::wall_offset`]); the fault plan replays concurrently
/// on the calling thread. Unlike the simulator, a timed-out operation
/// never gets a late completion recorded — the client has abandoned its
/// reply channel — so such operations stay pending in the history on
/// this backend, which the checker accepts either way.
pub struct ThreadBackend<P, F> {
    cfg: ClusterConfig,
    mk: F,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> ThreadBackend<P, F>
where
    P: Protocol + 'static,
    F: FnMut(NodeId) -> P,
{
    /// A backend running `cfg` with protocol instances built by `mk`.
    pub fn new(cfg: ClusterConfig, mk: F) -> Self {
        ThreadBackend {
            cfg,
            mk,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P, F> Backend for ThreadBackend<P, F>
where
    P: Protocol + 'static,
    F: FnMut(NodeId) -> P,
{
    fn label(&self) -> &'static str {
        "threads"
    }

    fn run_traced(
        &mut self,
        plan: &FaultPlan,
        workload: &WorkloadSpec,
        tracer: &Tracer,
    ) -> RunReport {
        let cluster = Cluster::new_traced(self.cfg.clone(), tracer.clone(), &mut self.mk);
        let core = Arc::clone(&cluster.core);
        run_workload("threads", &core, plan, workload, || cluster.shutdown())
    }
}

/// Runs `workload` — one closed-loop client thread per node — while
/// `plan` replays on the calling thread, then stops the cluster
/// (`shutdown` hands back the final protocol states in node order, which
/// the end-of-run probes sample) and reports. Both runtime backends are
/// this function over their own engines.
pub(crate) fn run_workload<P: Protocol + 'static, W: Wire<P>>(
    backend: &'static str,
    core: &Arc<Engines<P, W>>,
    plan: &FaultPlan,
    workload: &WorkloadSpec,
    shutdown: impl FnOnce() -> Vec<P>,
) -> RunReport {
    let cfg = &core.cfg;
    let op_timeout = cfg.wall_offset(workload.op_timeout);
    let joins: Vec<_> = (0..cfg.n)
        .map(|i| {
            let node = NodeId(i);
            let ops = workload.ops_for(node);
            let client = core.client(node).with_timeout(op_timeout);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut timed_out = 0u64;
                let mut unavailable = 0u64;
                for (think, op) in ops {
                    std::thread::sleep(cfg.wall_offset(think));
                    let result = match op {
                        SnapshotOp::Write(v) => client.write(v),
                        SnapshotOp::Snapshot => client.snapshot().map(|_| ()),
                    };
                    match result {
                        Ok(()) => {}
                        Err(ClusterError::Timeout) => timed_out += 1,
                        Err(ClusterError::Unavailable(_)) => unavailable += 1,
                        // Reset-aborted op: recorded as aborted in the
                        // history (the checker excuses it); the workload
                        // client just moves on.
                        Err(ClusterError::Aborted { .. }) => {}
                        Err(ClusterError::Shutdown) => break,
                    }
                }
                (timed_out, unavailable)
            })
        })
        .collect();
    // Replay the plan concurrently with the workload, then wait for
    // every client to drain its sequence.
    core.apply_plan(plan);
    let (mut ops_timed_out, mut ops_unavailable) = (0u64, 0u64);
    for j in joins {
        let (t, u) = j.join().expect("client thread panicked");
        ops_timed_out += t;
        ops_unavailable += u;
    }
    let shared = &core.shared;
    let history = shared.history.lock().clone();
    let elapsed_us = shared.now_us();
    let messages_dropped = shared.dropped.load(Ordering::Relaxed);
    let probes = shutdown().iter().map(NodeProbe::of).collect();
    RunReport {
        backend,
        stats: RunStats {
            ops_completed: history.completed().count() as u64,
            ops_timed_out,
            ops_unavailable,
            messages_dropped,
            // Report wall time mapped back into model microseconds,
            // comparable with the simulator's virtual clock.
            model_time: elapsed_us * MODEL_ROUND_US / shared.round_us,
        },
        history,
        probes,
    }
}
