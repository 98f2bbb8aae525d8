//! The sharded service over the deterministic simulator: many
//! independent [`Sim`] instances multiplexed round-robin in fixed
//! virtual-time slices.
//!
//! The composition mirrors [`crate::Service`] — same [`Ring`], same
//! key → register stream, same group-commit collapse (one write per
//! register per flush, one snapshot per flush) — but every shard runs
//! in virtual time, and *when* a flush happens differs: the threaded
//! batcher is demand-driven (it flushes on arrival, and a batch is
//! whatever arrived during the previous flush), whereas here
//! `flush_interval` is the multiplexer's slice quantum and a batch is
//! whatever was submitted within one slice. No client observes that
//! interval as a wait — submissions are buffered with their virtual
//! times ahead of the run — so it sets the collapse granularity and the
//! cost of multiplexing, not a latency. The multiplexer advances all
//! shards through the same boundaries `flush_interval` apart: at each
//! boundary it first injects every shard's collapsed batch, then steps
//! the shards one after another to the boundary. Because the groups
//! share no state, the round-robin order is immaterial to any single
//! shard's execution: shard `s`'s trace remains a pure function of
//! `(seed, s, its injected operations)`. That is the determinism the
//! golden test pins via [`SimService::shard_hashes`].
//!
//! Scale: simulated shards cost no threads, so hundreds of groups (the
//! E17 configuration sweeps 64–256) multiplex in one process, serving
//! millions of buffered client sessions per run.

use crate::shard::register_for;
use crate::Ring;
use sss_net::mix64;
use sss_sim::{Sim, SimConfig, SimTime};
use sss_types::{NodeId, Protocol, SnapshotOp, Value};
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
    /// The multiplexer's slice quantum in virtual microseconds: the
    /// requests submitted within one slice collapse at its boundary.
    pub flush_interval: SimTime,
    /// Master seed (ring, per-shard cluster seeds, key → register).
    pub seed: u64,
}

impl Default for SimServiceConfig {
    fn default() -> Self {
        SimServiceConfig {
            shards: 64,
            nodes: 3,
            vnodes: 64,
            flush_interval: 1_000,
            seed: 0x51AD,
        }
    }
}

/// One buffered client request (virtual submission time, key, op).
type Buffered = (SimTime, u64, SnapshotOp);

/// The simulated sharded service. See the [module docs](self).
pub struct SimService<P: Protocol> {
    cfg: SimServiceConfig,
    ring: Ring,
    sims: Vec<Sim<P>>,
    buf: Vec<VecDeque<Buffered>>,
    /// Rotating snapshot contact per shard.
    contact: Vec<usize>,
    /// The boundary every shard has been stepped to.
    now: SimTime,
    admitted: u64,
    collapsed: u64,
}

impl<P: Protocol + 'static> SimService<P> {
    /// Builds `cfg.shards` independent simulations; shard `s` is seeded
    /// with `mix64(cfg.seed, s)`.
    pub fn new(cfg: SimServiceConfig, mut mk: impl FnMut(usize, NodeId) -> P) -> SimService<P> {
        assert!(cfg.shards > 0, "a service needs at least one shard");
        assert!(cfg.flush_interval > 0, "flush interval must be positive");
        let ring = Ring::new(cfg.shards, cfg.vnodes, cfg.seed);
        let sims = (0..cfg.shards)
            .map(|s| {
                let scfg = SimConfig::small(cfg.nodes).with_seed(mix64(cfg.seed, s as u64));
                Sim::new(scfg, |id| mk(s, id))
            })
            .collect();
        SimService {
            buf: (0..cfg.shards).map(|_| VecDeque::new()).collect(),
            contact: vec![0; cfg.shards],
            ring,
            sims,
            now: 0,
            admitted: 0,
            collapsed: 0,
            cfg,
        }
    }

    /// The shard serving `key`.
    pub fn shard_for(&self, key: u64) -> usize {
        self.ring.shard_for(key) as usize
    }

    /// The virtual boundary all shards have reached.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Buffers a keyed write submitted at virtual time `t`; it joins
    /// its shard's collapsed batch at the first flush boundary ≥ `t`.
    /// Submissions must be fed in non-decreasing `t` order per shard
    /// (the generators are time-sorted); times already passed are
    /// folded into the next boundary.
    pub fn submit_write(&mut self, t: SimTime, key: u64, value: Value) {
        self.submit(t, key, SnapshotOp::Write(value));
    }

    /// Buffers a snapshot request against `key`'s shard at virtual
    /// time `t`.
    pub fn submit_snapshot(&mut self, t: SimTime, key: u64) {
        self.submit(t, key, SnapshotOp::Snapshot);
    }

    fn submit(&mut self, t: SimTime, key: u64, op: SnapshotOp) {
        let s = self.shard_for(key);
        debug_assert!(
            self.buf[s].back().is_none_or(|&(prev, _, _)| prev <= t),
            "per-shard submissions must be time-ordered"
        );
        self.buf[s].push_back((t, key, op));
        self.admitted += 1;
    }

    /// Advances every shard to `t` in `flush_interval` slices: at each
    /// boundary, inject the due collapsed batches, then step the shards
    /// round-robin to the boundary.
    pub fn run_until(&mut self, t: SimTime) {
        while self.now < t {
            let boundary = (self.now + self.cfg.flush_interval).min(t);
            for s in 0..self.cfg.shards {
                self.flush_shard(s, boundary);
            }
            for sim in &mut self.sims {
                sim.run_until(boundary);
            }
            self.now = boundary;
        }
    }

    /// Flushes everything still buffered (regardless of submission
    /// time) and runs every shard until it is idle or `max_t` is hit.
    /// Returns whether *all* shards went idle.
    pub fn drain(&mut self, max_t: SimTime) -> bool {
        for s in 0..self.cfg.shards {
            while !self.buf[s].is_empty() {
                self.flush_shard(s, SimTime::MAX);
            }
        }
        let mut all_idle = true;
        for sim in &mut self.sims {
            all_idle &= sim.run_until_idle(max_t);
        }
        if let Some(t) = self.sims.iter().map(|s| s.now()).max() {
            self.now = self.now.max(t);
        }
        all_idle
    }

    /// Collapses shard `s`'s requests due by `boundary` into at most
    /// `nodes + 1` protocol invocations at the boundary.
    fn flush_shard(&mut self, s: usize, boundary: SimTime) {
        let n = self.cfg.nodes;
        let at = self.now.max(self.sims[s].now());
        let mut write_vals: Vec<Option<Value>> = vec![None; n];
        let mut snap = false;
        while let Some(&(t, key, ref op)) = self.buf[s].front() {
            if t > boundary {
                break;
            }
            match op {
                SnapshotOp::Write(v) => {
                    write_vals[register_for(self.cfg.seed, key, n)] = Some(*v);
                }
                SnapshotOp::Snapshot => snap = true,
            }
            self.buf[s].pop_front();
        }
        for (reg, v) in write_vals.into_iter().enumerate() {
            let Some(v) = v else { continue };
            self.sims[s].invoke_at(at, NodeId(reg), SnapshotOp::Write(v));
            self.collapsed += 1;
        }
        if snap {
            let c = self.contact[s];
            self.sims[s].invoke_at(at, NodeId(c), SnapshotOp::Snapshot);
            self.contact[s] = (c + 1) % n;
            self.collapsed += 1;
        }
    }

    /// Client requests buffered so far (each counts once, however many
    /// collapse into one protocol op).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Protocol operations actually invoked after collapsing.
    pub fn collapsed_ops(&self) -> u64 {
        self.collapsed
    }

    /// Completed protocol operations across all shards.
    pub fn completed_ops(&self) -> usize {
        self.sims
            .iter()
            .map(|s| s.history().completed().count())
            .sum()
    }

    /// Per-shard deterministic trace hashes ([`Sim::trace_hash`]): the
    /// golden fingerprint of each group's entire execution.
    pub fn shard_hashes(&self) -> Vec<u64> {
        self.sims.iter().map(|s| s.trace_hash()).collect()
    }

    /// Direct access to one shard's simulation (inspection in tests).
    pub fn sim(&self, shard: usize) -> &Sim<P> {
        &self.sims[shard]
    }
}
