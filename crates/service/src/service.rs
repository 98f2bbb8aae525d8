//! The threaded service front end: [`Ring`] routing over per-shard
//! [`crate::shard::Shard`]s, an async-style client API, and cross-shard
//! stats aggregation.

use crate::shard::{Request, Shard, ShardConfig, ShardStats};
use crate::{Ring, ServiceError, ServiceResult};
use crossbeam::channel::{bounded, Receiver, Sender};
use sss_net::FaultPlan;
use sss_obs::{ShardGauge, Tracer};
use sss_sim::LatencySummary;
use sss_types::{NodeId, Protocol, SnapshotOp, Value};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service-wide configuration: shard fan-out plus the per-shard tuning.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of shard groups.
    pub shards: usize,
    /// Virtual nodes per shard on the [`Ring`].
    pub vnodes: usize,
    /// Master seed: the ring's hash streams, each shard's cluster seed
    /// and each shard's key → register stream all derive from it, so a
    /// service is reproducible from `(config, seed)`.
    pub seed: u64,
    /// Applied to every shard.
    pub shard: ShardConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 8,
            vnodes: 64,
            seed: 0x5EA1,
            shard: ShardConfig::default(),
        }
    }
}

/// A pending service operation: resolves to the reply once the request's
/// flush completes (async in style — submission never blocks on the
/// protocol; the ticket is where a caller chooses to wait).
pub struct Ticket {
    rx: Receiver<ServiceResult>,
}

impl Ticket {
    /// Blocks until the operation resolves. A dropped shard (shutdown
    /// race) resolves to [`ServiceError::Shutdown`].
    pub fn wait(self) -> ServiceResult {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }

    /// [`Ticket::wait`] with a deadline; `None` on timeout (the
    /// operation stays in flight — the ticket can be waited again).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServiceResult> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// The sharded snapshot service over the threaded runtime. See the
/// [crate docs](crate).
pub struct Service<P: Protocol> {
    ring: Ring,
    shards: Vec<Shard<P>>,
}

impl<P: Protocol + 'static> Service<P> {
    /// Boots `cfg.shards` independent groups (each its own
    /// [`sss_runtime::Cluster`] and batcher thread). `mk` builds the
    /// protocol instance for `(shard, node)` — e.g.
    /// `|_, id| Alg1::new(id, nodes)`.
    pub fn start(cfg: ServiceConfig, mk: impl FnMut(usize, NodeId) -> P) -> Service<P> {
        Self::start_traced(cfg, |_| Tracer::off(), mk)
    }

    /// [`Service::start`] with the trace plane attached: `tracer_for`
    /// picks the [`Tracer`] each shard's cluster emits through (node ids
    /// in the events are group-local, `0..nodes`). A monitor typically
    /// traces one shard of interest and hands the rest [`Tracer::off`];
    /// handing every shard the same tracer works but interleaves
    /// same-numbered nodes from different groups into one stream.
    pub fn start_traced(
        cfg: ServiceConfig,
        mut tracer_for: impl FnMut(usize) -> Tracer,
        mut mk: impl FnMut(usize, NodeId) -> P,
    ) -> Service<P> {
        assert!(cfg.shards > 0, "a service needs at least one shard");
        let ring = Ring::new(cfg.shards, cfg.vnodes, cfg.seed);
        let shards = (0..cfg.shards)
            .map(|s| {
                Shard::start_traced(s, cfg.shard.clone(), cfg.seed, tracer_for(s), |id| {
                    mk(s, id)
                })
            })
            .collect();
        Service { ring, shards }
    }

    /// The shard serving `key`.
    pub fn shard_for(&self, key: u64) -> usize {
        self.ring.shard_for(key) as usize
    }

    /// Admits `op` to `key`'s shard, stamped with its admission time.
    fn submit(
        &self,
        key: u64,
        op: SnapshotOp,
        done: Option<Sender<ServiceResult>>,
    ) -> Result<(), ServiceError> {
        let t0 = Instant::now();
        self.shards[self.shard_for(key)].submit(Request { key, op, t0, done })
    }

    /// [`Service::submit`] with a [`Ticket`] to wait on.
    fn ticket(&self, key: u64, op: SnapshotOp) -> Result<Ticket, ServiceError> {
        let (tx, rx) = bounded(1);
        self.submit(key, op, Some(tx))?;
        Ok(Ticket { rx })
    }

    /// Queues a write of `value` under `key`; the [`Ticket`] resolves
    /// when the write's flush completes.
    pub fn write(&self, key: u64, value: Value) -> Result<Ticket, ServiceError> {
        self.ticket(key, SnapshotOp::Write(value))
    }

    /// Fire-and-forget write: admission control still applies (the
    /// `Err` cases are identical to [`Service::write`]) but completion
    /// is only recorded in the shard's stats. The open-loop load
    /// generator's path.
    pub fn write_nowait(&self, key: u64, value: Value) -> Result<(), ServiceError> {
        self.submit(key, SnapshotOp::Write(value), None)
    }

    /// Queues a snapshot of `key`'s shard (the whole group's register
    /// array — keys on other shards are *not* covered; see the crate
    /// docs on cross-shard semantics).
    pub fn snapshot(&self, key: u64) -> Result<Ticket, ServiceError> {
        self.ticket(key, SnapshotOp::Snapshot)
    }

    /// Whether the failure detector sees no node of `shard`'s group
    /// reach a majority (admission to it fails fast).
    pub fn shard_down(&self, shard: usize) -> bool {
        self.shards[shard].is_down()
    }

    /// Counters and latency distribution of one shard.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        self.shards[shard].stats()
    }

    /// Counters and latency distributions of every shard.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Every shard's live gauges in the ops-plane's shape — what a
    /// monitor pushes into `ClusterMetrics::set_shards` each refresh.
    pub fn gauges(&self) -> Vec<ShardGauge> {
        self.shards.iter().map(|s| s.stats().gauge()).collect()
    }

    /// Cross-shard aggregate latency: the per-shard summaries merged
    /// via [`LatencySummary::merge`] (exact counts and mean,
    /// bucket-resolution percentiles).
    pub fn merged_latency(&self) -> LatencySummary {
        let stats = self.stats();
        LatencySummary::merge(stats.iter().map(|s| &s.latency))
    }

    /// Admitted requests not yet resolved, across all shards (reads
    /// the counters only, so it is cheap enough to spin on).
    pub fn pending(&self) -> u64 {
        self.shards.iter().map(Shard::pending).sum()
    }

    /// Replays `plan` against one shard's group on a background thread;
    /// the other shards' groups are untouched (separate clusters,
    /// separate link models).
    pub fn apply_plan(&self, shard: usize, plan: FaultPlan) -> JoinHandle<()> {
        self.shards[shard].apply_plan(plan)
    }

    /// Closes admission everywhere and joins every batcher after it
    /// resolves its queued requests, then tears down the clusters.
    pub fn shutdown(mut self) {
        for shard in &mut self.shards {
            shard.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::register_for;
    use crate::shard::testing::wait_until;
    use sss_core::Alg1;

    /// The S1 gauges: a burst admitted while a flush is in flight is
    /// visible as queue depth, and the next flush collapses it to far
    /// fewer protocol operations than requests.
    #[test]
    fn gauges_expose_queue_depth_and_group_commit_collapse() {
        let mut cfg = ServiceConfig {
            shards: 1,
            vnodes: 8,
            seed: 0xD00D,
            shard: ShardConfig::default(),
        };
        // The held flush below must not read as a quorum loss.
        cfg.shard.suspect_after = Duration::from_secs(600);
        let (n, seed) = (cfg.shard.nodes, cfg.seed);
        let svc = Service::start(cfg, move |_, id| Alg1::new(id, n));

        // Hold one flush open: with its peers crashed, key 0's home node
        // cannot complete the protocol write until they resume.
        let home = register_for(seed, 0, n);
        svc.shards[0].crash_all_but(home, true);
        let held = svc.write(0, 1).unwrap();
        wait_until("the held flush to issue its write", || {
            svc.shard_stats(0).protocol_ops == 1
        });

        // The whole burst parks behind it, measurable before any of its
        // protocol operations is issued.
        let mut tickets = vec![held];
        for key in 0..64u64 {
            tickets.push(svc.write(key, key + 1).unwrap());
        }
        tickets.push(svc.snapshot(0).unwrap());
        let parked = svc.gauges()[0].clone();
        assert_eq!(parked.queue_depth, 65, "the burst is the queue depth");
        assert_eq!(parked.protocol_ops, 1, "only the held write was issued");

        svc.shards[0].crash_all_but(home, false);
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = svc.shard_stats(0);
        assert_eq!(stats.accepted, 66);
        assert_eq!(stats.absorbed, 66, "every request flows through a flush");
        assert_eq!(stats.flushes, 2, "the parked burst formed one batch");
        let burst_ops = stats.protocol_ops - parked.protocol_ops;
        assert!(
            (1..=n as u64 + 1).contains(&burst_ops),
            "one flush issues at most nodes+1 ops, issued {burst_ops}"
        );
        assert!(
            stats.collapse_factor() > 10.0,
            "66 requests over ≤{} ops must collapse hard, got {:.1}",
            n + 2,
            stats.collapse_factor()
        );
        assert_eq!(stats.queue_depth, 0, "drained after the flush");
        assert!(!stats.down);

        // The gauge conversion carries the same numbers.
        let g = stats.gauge();
        assert_eq!(g.absorbed, stats.absorbed);
        assert_eq!(g.protocol_ops, stats.protocol_ops);
        assert_eq!(g.collapse_factor(), stats.collapse_factor());
        svc.shutdown();
    }
}
