//! The sharded service over the deterministic simulator: one [`Sim`]
//! per shard, each driven by the service's demand-driven batcher in
//! virtual time.
//!
//! The composition mirrors [`crate::Service`] — same [`Ring`], same
//! [group-commit rule](crate::commit), and the same policy for *when* a
//! flush happens. A shard flushes as soon as a buffered request is due
//! and no flush is in flight, and again the moment the last protocol
//! operation of the flush in flight completes or aborts: whatever came
//! due meanwhile is the next batch. While idle, the batcher sleeps until
//! the next buffered submission time (a [`Ctl::wake_at`] on its own
//! `Sim`). Clients submit ahead of the run, each request stamped with
//! its virtual submission time.
//!
//! The twin leaves out what needs a wall clock: there is no failure
//! detector, so no quorum probe or fail-fast admission, and no flush
//! timeout — a flush whose operation waits on a crashed node stays in
//! flight until the node resumes.
//!
//! Each shard's batcher drives only its own `Sim`, so shard `s`'s trace
//! is a pure function of `(seed, s, its own submissions)` by
//! construction — the determinism the golden test pins via
//! [`SimService::shard_hashes`]. Simulated shards cost no threads, so
//! hundreds of groups run in one process.

use crate::commit::{self, MAX_PER_FLUSH};
use crate::Ring;
use sss_net::mix64;
use sss_sim::{Ctl, Driver, Sim, SimConfig, SimTime};
use sss_types::{NodeId, OpId, OpResponse, Protocol, SnapshotOp, Value};
use std::collections::VecDeque;

/// Configuration of a [`SimService`].
#[derive(Clone, Debug)]
pub struct SimServiceConfig {
    /// Number of shard groups.
    pub shards: usize,
    /// Processes (and registers) per group.
    pub nodes: usize,
    /// Virtual nodes per shard on the [`Ring`].
    pub vnodes: usize,
    /// Master seed (ring, per-shard cluster seeds, key → register).
    pub seed: u64,
}

impl Default for SimServiceConfig {
    fn default() -> Self {
        SimServiceConfig {
            shards: 64,
            nodes: 3,
            vnodes: 64,
            seed: 0x51AD,
        }
    }
}

/// The simulated sharded service: one [`Sim`] per shard group, each run
/// by its own demand-driven batcher in virtual time.
pub struct SimService<P: Protocol> {
    ring: Ring,
    shards: Vec<(Sim<P>, Batcher)>,
    admitted: u64,
}

/// One shard's demand-driven batcher in virtual time: the [`Driver`] of
/// the shard's `Sim`.
#[derive(Default)]
struct Batcher {
    /// Key → register stream (the service seed).
    seed: u64,
    /// Buffered `(submission time, key, op)`, time-ordered.
    buf: VecDeque<(SimTime, u64, SnapshotOp)>,
    /// Snapshot contact of the next flush.
    contact: usize,
    /// Protocol operations of the flush in flight still unresolved.
    in_flight: usize,
    /// Whether a wake-up at the buffer's front is scheduled; each
    /// `run_until` re-enters [`Driver::init`], and a second wake-up would
    /// fold into the trace hash.
    armed: bool,
    /// Whether to stop the run once nothing is buffered or in flight.
    draining: bool,
    flushes: u64,
    protocol_ops: u64,
}

impl Batcher {
    /// Flushes if a request is due and no flush is in flight; while
    /// idle, wakes at the next submission time instead.
    fn pump<M>(&mut self, ctl: &mut Ctl<'_, M>) {
        if self.in_flight > 0 {
            return;
        }
        let now = ctl.now();
        let due = self.buf.iter().take(MAX_PER_FLUSH);
        let due = due.take_while(|r| r.0 <= now).count();
        if due > 0 {
            let n = ctl.n();
            let batch = self.buf.drain(..due).map(|(_, key, op)| (key, op, ()));
            for planned in commit::collapse(self.seed, n, self.contact, batch) {
                ctl.invoke(planned.node, planned.op);
                self.in_flight += 1;
            }
            self.protocol_ops += self.in_flight as u64;
            self.flushes += 1;
            self.contact = (self.contact + 1) % n;
        } else if let Some(&(t, ..)) = self.buf.front() {
            if !std::mem::replace(&mut self.armed, true) {
                ctl.wake_at(t, 0);
            }
        } else if self.draining {
            ctl.stop();
        }
    }

    fn resolved<M>(&mut self, ctl: &mut Ctl<'_, M>) {
        self.in_flight -= 1;
        self.pump(ctl);
    }
}

impl<P: Protocol> Driver<P> for Batcher {
    fn init(&mut self, ctl: &mut Ctl<'_, P::Msg>) {
        self.pump(ctl);
    }

    fn on_completion(&mut self, _: NodeId, _: OpId, _: &OpResponse, ctl: &mut Ctl<'_, P::Msg>) {
        self.resolved(ctl);
    }

    fn on_abort(&mut self, _: NodeId, _: OpId, ctl: &mut Ctl<'_, P::Msg>) {
        self.resolved(ctl);
    }

    fn on_wake(&mut self, _: u64, ctl: &mut Ctl<'_, P::Msg>) {
        self.armed = false;
        self.pump(ctl);
    }
}

impl<P: Protocol + 'static> SimService<P> {
    /// Builds `cfg.shards` independent simulations; shard `s` is seeded
    /// with `mix64(cfg.seed, s)`.
    pub fn new(cfg: SimServiceConfig, mut mk: impl FnMut(usize, NodeId) -> P) -> SimService<P> {
        assert!(cfg.shards > 0, "a service needs at least one shard");
        let shards = (0..cfg.shards)
            .map(|s| {
                let scfg = SimConfig::small(cfg.nodes).with_seed(mix64(cfg.seed, s as u64));
                let batcher = Batcher {
                    seed: cfg.seed,
                    ..Batcher::default()
                };
                (Sim::new(scfg, |id| mk(s, id)), batcher)
            })
            .collect();
        SimService {
            ring: Ring::new(cfg.shards, cfg.vnodes, cfg.seed),
            shards,
            admitted: 0,
        }
    }

    /// The shard serving `key`.
    pub fn shard_for(&self, key: u64) -> usize {
        self.ring.shard_for(key) as usize
    }

    /// Buffers a keyed write submitted at virtual time `t`. Submissions
    /// must be fed in non-decreasing `t` order per shard (the generators
    /// are time-sorted); a time the shard has already passed is due at
    /// once.
    pub fn submit_write(&mut self, t: SimTime, key: u64, value: Value) {
        self.submit(t, key, SnapshotOp::Write(value));
    }

    /// Buffers a snapshot request against `key`'s shard at virtual
    /// time `t`.
    pub fn submit_snapshot(&mut self, t: SimTime, key: u64) {
        self.submit(t, key, SnapshotOp::Snapshot);
    }

    fn submit(&mut self, t: SimTime, key: u64, op: SnapshotOp) {
        let buf = &mut self.shards[self.ring.shard_for(key) as usize].1.buf;
        debug_assert!(
            buf.back().is_none_or(|&(prev, _, _)| prev <= t),
            "per-shard submissions must be time-ordered"
        );
        buf.push_back((t, key, op));
        self.admitted += 1;
    }

    /// Runs every shard, under its batcher, to virtual time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        for (sim, batcher) in &mut self.shards {
            sim.run_with_driver(batcher, t);
        }
    }

    /// Runs every shard until each buffered request has been flushed
    /// and each protocol operation resolved, or until `max_t`. Returns
    /// whether *all* shards got there.
    pub fn drain(&mut self, max_t: SimTime) -> bool {
        let mut all_idle = true;
        for (sim, batcher) in &mut self.shards {
            batcher.draining = true;
            sim.run_with_driver(batcher, max_t);
            batcher.draining = false;
            all_idle &= batcher.buf.is_empty() && batcher.in_flight == 0;
        }
        all_idle
    }

    /// Client requests buffered so far (each counts once, however many
    /// collapse into one protocol op).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Protocol operations actually invoked after collapsing.
    pub fn collapsed_ops(&self) -> u64 {
        self.shards.iter().map(|(_, b)| b.protocol_ops).sum()
    }

    /// Completed protocol operations across all shards.
    pub fn completed_ops(&self) -> usize {
        let completed = |sim: &Sim<P>| sim.history().completed().count();
        self.shards.iter().map(|(sim, _)| completed(sim)).sum()
    }

    /// Per-shard deterministic trace hashes ([`Sim::trace_hash`]): the
    /// golden fingerprint of each group's entire execution.
    pub fn shard_hashes(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|(sim, _)| sim.trace_hash())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::register_for;
    use sss_core::Alg1;

    /// The key written by the flush the test holds open.
    const HELD_KEY: u64 = 0;

    /// The virtual-time twin of the threaded shard test of the same
    /// name: with the home node's peers crashed, the flush carrying the
    /// held write cannot complete, so everything submitted meanwhile
    /// waits and forms the next batch once they resume.
    #[test]
    fn writes_queued_behind_a_flush_in_flight_collapse_into_one_protocol_op() {
        const PARKED: u64 = 200;
        const RESUME_AT: SimTime = 50_000;
        let cfg = SimServiceConfig {
            shards: 1,
            ..SimServiceConfig::default()
        };
        let (n, seed) = (cfg.nodes, cfg.seed);
        let mut svc = SimService::new(cfg, |_, id| Alg1::new(id, n));
        let home = register_for(seed, HELD_KEY, n);
        let peers = || (0..n).filter(|&k| k != home).map(NodeId);
        peers().for_each(|k| svc.shards[0].0.crash_at(0, k));

        svc.submit_write(1, HELD_KEY, 1);
        svc.run_until(100);
        let batcher = &svc.shards[0].1;
        assert_eq!((batcher.flushes, batcher.in_flight), (1, 1));

        // Same key, so same register: the burst waits for the held
        // flush, one in flight per shard.
        for i in 0..PARKED {
            svc.submit_write(200 + i, HELD_KEY, 2 + i);
        }
        svc.run_until(RESUME_AT);
        let batcher = &svc.shards[0].1;
        assert_eq!(batcher.buf.len() as u64, PARKED, "the burst is parked");
        assert_eq!((batcher.flushes, batcher.protocol_ops), (1, 1));

        peers().for_each(|k| svc.shards[0].0.resume_at(RESUME_AT, k));
        assert!(svc.drain(RESUME_AT + 10_000_000), "the shard did not drain");
        assert_eq!(svc.shards[0].1.flushes, 2, "the backlog formed one batch");
        assert_eq!(svc.collapsed_ops(), 2, "one protocol write per flush");
        assert_eq!(svc.completed_ops(), 2);
        assert_eq!(svc.admitted(), 1 + PARKED);
    }
}
