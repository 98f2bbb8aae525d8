//! The simulator as a [`Backend`]: replay a shared fault plan under a
//! deterministic closed-loop workload and return a checkable history.

use crate::config::SimConfig;
use crate::runner::{Ctl, Driver, Sim};
use crate::SimTime;
use sss_net::{Backend, FaultPlan, NodeProbe, RunReport, RunStats, WorkloadSpec, CYCLES_TO_JUDGE};
use sss_obs::Tracer;
use sss_types::{NodeId, OpId, OpResponse, Protocol, SnapshotOp};
use std::collections::VecDeque;

/// How long (model µs) a backend run may take before it is cut off even
/// with operations still pending.
const HORIZON: SimTime = 60_000_000;

/// A closed-loop driver executing a [`WorkloadSpec`]: each node runs its
/// spec-derived operation sequence, thinking between operations and
/// abandoning (but not forgetting — the op stays pending) any operation
/// that outlives the spec's client timeout.
struct SpecDriver {
    /// Remaining `(think, op)` pairs per node.
    queues: Vec<VecDeque<(u64, SnapshotOp)>>,
    /// The operation each node is currently blocked on, if any.
    current: Vec<Option<OpId>>,
    timeout: SimTime,
    timed_out: u64,
}

fn token(node: NodeId, id: OpId) -> u64 {
    ((node.index() as u64) << 48) | id.0
}

impl SpecDriver {
    fn new(n: usize, spec: &WorkloadSpec) -> Self {
        SpecDriver {
            queues: (0..n)
                .map(|i| spec.ops_for(NodeId(i)).into_iter().collect())
                .collect(),
            current: vec![None; n],
            timeout: spec.op_timeout,
            timed_out: 0,
        }
    }

    /// Issues `node`'s next operation (after its think time), or ends
    /// the workload once every node has drained its queue (the run goes
    /// on to the plan's end).
    fn issue_next<M>(&mut self, node: NodeId, ctl: &mut Ctl<'_, M>) {
        if let Some((think, op)) = self.queues[node.index()].pop_front() {
            let at = ctl.now() + think;
            let id = ctl.invoke_at(at, node, op);
            self.current[node.index()] = Some(id);
            ctl.wake_at(at + self.timeout, token(node, id));
        } else if self.current.iter().all(Option::is_none)
            && self.queues.iter().all(VecDeque::is_empty)
        {
            ctl.stop();
        }
    }
}

impl<P: Protocol> Driver<P> for SpecDriver {
    fn init(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        for i in 0..ctl.n() {
            self.issue_next(NodeId(i), ctl);
        }
    }

    fn on_completion(
        &mut self,
        node: NodeId,
        id: OpId,
        _resp: &OpResponse,
        ctl: &mut Ctl<'_, P::Msg>,
    ) {
        // Late completions of timed-out operations no longer match
        // `current` and are ignored (the client has moved on).
        if self.current[node.index()] == Some(id) {
            self.current[node.index()] = None;
            self.issue_next(node, ctl);
        }
    }

    fn on_abort(&mut self, node: NodeId, id: OpId, ctl: &mut Ctl<'_, P::Msg>) {
        if self.current[node.index()] == Some(id) {
            self.current[node.index()] = None;
            self.issue_next(node, ctl);
        }
    }

    fn on_wake(&mut self, token_: u64, ctl: &mut Ctl<'_, P::Msg>) {
        let node = NodeId((token_ >> 48) as usize);
        let id = OpId(token_ & 0xFFFF_FFFF_FFFF);
        if self.current[node.index()] == Some(id) {
            // Client timeout: abandon the op (it stays pending in the
            // history; the checker knows how to handle pending ops).
            self.timed_out += 1;
            self.current[node.index()] = None;
            self.issue_next(node, ctl);
        }
    }
}

/// The deterministic-simulator backend: a [`FaultPlan`] is scheduled as
/// virtual-time events and a [`WorkloadSpec`] runs closed-loop on top.
/// Same config + plan + workload ⇒ bit-identical history.
pub struct SimBackend<P, F> {
    cfg: SimConfig,
    mk: F,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P: Protocol, F: FnMut(NodeId) -> P> SimBackend<P, F> {
    /// A backend simulating `cfg` with protocol instances built by `mk`.
    pub fn new(cfg: SimConfig, mk: F) -> Self {
        SimBackend {
            cfg,
            mk,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P: Protocol, F: FnMut(NodeId) -> P> Backend for SimBackend<P, F> {
    fn label(&self) -> &'static str {
        "sim"
    }

    fn run_traced(
        &mut self,
        plan: &FaultPlan,
        workload: &WorkloadSpec,
        tracer: &Tracer,
    ) -> RunReport {
        let mut sim = Sim::new(self.cfg, &mut self.mk);
        sim.set_tracer(tracer.clone());
        sim.apply_plan(plan);
        let mut driver = SpecDriver::new(self.cfg.n, workload);
        sim.run_with_driver(&mut driver, HORIZON);
        // The workload may resolve before the plan ends. Replay the whole
        // plan, as the runtimes do, then leave its last event enough
        // cycles to be judged.
        sim.run_until(plan.last_event_time().min(HORIZON));
        sim.run_for_cycles(CYCLES_TO_JUDGE, HORIZON);
        let m = sim.metrics();
        let probes = (0..self.cfg.n)
            .map(|i| NodeProbe::of(sim.node(NodeId(i))))
            .collect();
        RunReport {
            backend: "sim",
            history: sim.history().clone(),
            stats: RunStats {
                ops_completed: m.ops_completed,
                ops_timed_out: driver.timed_out,
                // Virtual-time clients have no failure detector; they
                // wait out their full timeout.
                ops_unavailable: 0,
                messages_dropped: m.kinds().map(|(_, c)| c.dropped).sum(),
                model_time: sim.now(),
            },
            probes,
        }
    }
}
