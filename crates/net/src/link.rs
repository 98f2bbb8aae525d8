//! The per-link channel model shared by both backends.

use crate::ModelTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_types::NodeId;

/// The channel model for every directed link.
///
/// Channels are the paper's: bounded capacity, no delay guarantees, and
/// packets "may be lost, duplicated and reordered". Reordering emerges
/// from independent per-message delays; loss and duplication are
/// independent Bernoulli trials. Self-delivery (a node's `broadcast`
/// reaching itself) never passes through the link model — it is
/// reliable and immediate, modelling an internal step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Minimum one-way delay, in model microseconds.
    pub delay_min: ModelTime,
    /// Maximum one-way delay, in model microseconds.
    pub delay_max: ModelTime,
    /// Probability that a packet is lost.
    pub loss: f64,
    /// Probability that a packet is duplicated (delivered twice with
    /// independent delays).
    pub dup: f64,
    /// Per-link in-flight capacity; a send that would exceed it is
    /// dropped (the paper's *bounded capacity communication channel*).
    /// `0` means unbounded.
    pub capacity: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            delay_min: 1,
            delay_max: 10,
            loss: 0.0,
            dup: 0.0,
            capacity: 128,
        }
    }
}

impl LinkConfig {
    /// A lossy, duplicating network — the adversarial end of the paper's
    /// channel model.
    pub fn harsh() -> Self {
        LinkConfig {
            delay_min: 1,
            delay_max: 50,
            loss: 0.2,
            dup: 0.1,
            capacity: 64,
        }
    }

    /// A reliable unbounded configuration (wall-clock backends, where
    /// delay comes from the OS scheduler rather than the model).
    pub fn reliable() -> Self {
        LinkConfig {
            delay_min: 0,
            delay_max: 0,
            loss: 0.0,
            dup: 0.0,
            capacity: 0,
        }
    }
}

/// Why the link model dropped a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The directed link is cut (partition or explicit link-down).
    LinkDown,
    /// The loss coin came up.
    Loss,
    /// The link's in-flight capacity is exhausted.
    Capacity,
}

impl From<DropReason> for sss_obs::DropCause {
    /// Maps a link-model drop verdict onto the trace-plane cause (the
    /// trace plane adds one more cause, `Crashed`, for receiver-side
    /// drops the link model never sees).
    fn from(r: DropReason) -> Self {
        match r {
            DropReason::LinkDown => sss_obs::DropCause::LinkDown,
            DropReason::Loss => sss_obs::DropCause::Loss,
            DropReason::Capacity => sss_obs::DropCause::Capacity,
        }
    }
}

/// The link model's decision for one send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver after `delay`; if `duplicate` is set, deliver a second
    /// copy after that independent delay too.
    Deliver {
        /// One-way delay of the primary copy, in model microseconds.
        delay: ModelTime,
        /// Independent delay of the duplicate copy, if any.
        duplicate: Option<ModelTime>,
    },
    /// Drop the message (and account it) for the given reason.
    Drop(DropReason),
}

/// Computes the directed link-down matrix (`from * n + to`) for a
/// group-based partition spec: links between different groups are cut in
/// both directions, links within a group restored, and nodes in **no**
/// group are isolated entirely. This is the single partition semantics
/// both backends share.
pub fn cut_matrix(n: usize, groups: &[Vec<NodeId>]) -> Vec<bool> {
    let mut group_of = vec![usize::MAX; n];
    for (g, members) in groups.iter().enumerate() {
        for m in members {
            group_of[m.index()] = g;
        }
    }
    let mut down = vec![false; n * n];
    for a in 0..n {
        for b in 0..n {
            let cut = group_of[a] != group_of[b]
                || group_of[a] == usize::MAX
                || group_of[b] == usize::MAX;
            down[a * n + b] = a != b && cut;
        }
    }
    down
}

/// Per-link fault decisions from seeded RNG streams, plus the link-down
/// matrix and in-flight load accounting.
///
/// Each directed link has its **own** RNG stream seeded from
/// `(seed, from, to)`, so the coin sequence a link sees depends only on
/// the traffic *on that link* — two backends replaying the same per-link
/// traffic draw the same coins even if their global event interleavings
/// differ.
#[derive(Clone, Debug)]
pub struct LinkModel {
    cfg: LinkConfig,
    n: usize,
    streams: Vec<StdRng>,
    load: Vec<usize>,
    down: Vec<bool>,
}

impl LinkModel {
    /// A model for `n` nodes with per-link streams derived from `seed`.
    pub fn new(n: usize, cfg: LinkConfig, seed: u64) -> Self {
        let streams = (0..n * n)
            .map(|l| StdRng::seed_from_u64(mix(seed, l as u64)))
            .collect();
        LinkModel {
            cfg,
            n,
            streams,
            load: vec![0; n * n],
            down: vec![false; n * n],
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    fn idx(&self, from: NodeId, to: NodeId) -> usize {
        from.index() * self.n + to.index()
    }

    /// Whether the directed link `from → to` is currently cut.
    pub fn is_down(&self, from: NodeId, to: NodeId) -> bool {
        self.down[self.idx(from, to)]
    }

    /// Whether any link is currently cut.
    pub fn any_down(&self) -> bool {
        self.down.contains(&true)
    }

    /// Cuts (`up = false`) or restores the directed link `from → to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, up: bool) {
        let l = self.idx(from, to);
        self.down[l] = !up;
    }

    /// Applies a group-based partition (see [`cut_matrix`]).
    pub fn partition(&mut self, groups: &[Vec<NodeId>]) {
        self.down = cut_matrix(self.n, groups);
    }

    /// Restores every link.
    pub fn heal(&mut self) {
        self.down.iter_mut().for_each(|d| *d = false);
    }

    /// Decides the fate of one message sent on `from → to`, consuming
    /// that link's coins and charging its in-flight load for each copy
    /// to be delivered. Checks run in the fixed order *link-down → loss
    /// → capacity → duplication*, so drop accounting is identical on
    /// every backend.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`: self-delivery bypasses the link model.
    pub fn on_send(&mut self, from: NodeId, to: NodeId) -> LinkVerdict {
        assert_ne!(from, to, "self-delivery bypasses the link model");
        let l = self.idx(from, to);
        if self.down[l] {
            return LinkVerdict::Drop(DropReason::LinkDown);
        }
        let cfg = self.cfg;
        let rng = &mut self.streams[l];
        if cfg.loss > 0.0 && rng.gen_bool(cfg.loss) {
            return LinkVerdict::Drop(DropReason::Loss);
        }
        if cfg.capacity > 0 && self.load[l] >= cfg.capacity {
            return LinkVerdict::Drop(DropReason::Capacity);
        }
        let dup = cfg.dup > 0.0 && rng.gen_bool(cfg.dup);
        let delay = rng.gen_range(cfg.delay_min..=cfg.delay_max);
        self.load[l] += 1;
        let duplicate = if dup && (cfg.capacity == 0 || self.load[l] < cfg.capacity) {
            let d2 = self.streams[l].gen_range(cfg.delay_min..=cfg.delay_max);
            self.load[l] += 1;
            Some(d2)
        } else {
            None
        };
        LinkVerdict::Deliver { delay, duplicate }
    }

    /// Releases one unit of in-flight load on `from → to`; call when a
    /// copy leaves the link (delivered or discarded at the receiver).
    pub fn on_delivered(&mut self, from: NodeId, to: NodeId) {
        let l = self.idx(from, to);
        self.load[l] = self.load[l].saturating_sub(1);
    }

    /// Current in-flight load on `from → to` (tests/diagnostics).
    pub fn load(&self, from: NodeId, to: NodeId) -> usize {
        self.load[self.idx(from, to)]
    }
}

/// SplitMix-style seed mixing for per-link streams (the shared
/// [`crate::mix64`]).
use crate::mix64 as mix;

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn reliable_link_always_delivers() {
        let mut m = LinkModel::new(3, LinkConfig::default(), 1);
        for _ in 0..100 {
            match m.on_send(NodeId(0), NodeId(1)) {
                LinkVerdict::Deliver { delay, duplicate } => {
                    assert!((1..=10).contains(&delay));
                    assert!(duplicate.is_none());
                }
                v => panic!("unexpected {v:?}"),
            }
            m.on_delivered(NodeId(0), NodeId(1));
        }
    }

    #[test]
    fn same_seed_same_coins_per_link() {
        let run = |seed| {
            let mut m = LinkModel::new(3, LinkConfig::harsh(), seed);
            (0..200)
                .map(|_| {
                    let v = m.on_send(NodeId(0), NodeId(2));
                    if matches!(v, LinkVerdict::Deliver { .. }) {
                        m.on_delivered(NodeId(0), NodeId(2));
                    }
                    v
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn links_have_independent_streams() {
        // Interleaving traffic on link A must not perturb link B's coins.
        let solo = {
            let mut m = LinkModel::new(3, LinkConfig::harsh(), 9);
            (0..50)
                .map(|_| m.on_send(NodeId(1), NodeId(2)))
                .collect::<Vec<_>>()
        };
        let interleaved = {
            let mut m = LinkModel::new(3, LinkConfig::harsh(), 9);
            (0..50)
                .map(|_| {
                    let _ = m.on_send(NodeId(0), NodeId(1));
                    m.on_send(NodeId(1), NodeId(2))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn capacity_bounds_in_flight_load() {
        let cfg = LinkConfig {
            capacity: 2,
            ..LinkConfig::default()
        };
        let mut m = LinkModel::new(2, cfg, 3);
        assert!(matches!(
            m.on_send(NodeId(0), NodeId(1)),
            LinkVerdict::Deliver { .. }
        ));
        assert!(matches!(
            m.on_send(NodeId(0), NodeId(1)),
            LinkVerdict::Deliver { .. }
        ));
        assert_eq!(
            m.on_send(NodeId(0), NodeId(1)),
            LinkVerdict::Drop(DropReason::Capacity)
        );
        m.on_delivered(NodeId(0), NodeId(1));
        assert!(matches!(
            m.on_send(NodeId(0), NodeId(1)),
            LinkVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn partition_cuts_across_groups_only() {
        let mut m = LinkModel::new(4, LinkConfig::default(), 0);
        m.partition(&[ids(&[0, 1]), ids(&[2])]);
        assert!(!m.is_down(NodeId(0), NodeId(1)));
        assert!(m.is_down(NodeId(0), NodeId(2)));
        assert!(m.is_down(NodeId(2), NodeId(1)));
        // Node 3 is in no group: fully isolated.
        assert!(m.is_down(NodeId(3), NodeId(0)));
        assert!(m.is_down(NodeId(0), NodeId(3)));
        assert_eq!(
            m.on_send(NodeId(0), NodeId(2)),
            LinkVerdict::Drop(DropReason::LinkDown)
        );
        m.heal();
        assert!(!m.is_down(NodeId(0), NodeId(2)));
    }

    #[test]
    fn cut_matrix_matches_model_partition() {
        let groups = [ids(&[0, 2]), ids(&[1, 3])];
        let mut m = LinkModel::new(4, LinkConfig::default(), 0);
        m.partition(&groups);
        let mat = cut_matrix(4, &groups);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(m.is_down(NodeId(a), NodeId(b)), mat[a * 4 + b]);
            }
        }
    }

    #[test]
    fn directed_cut_is_one_way() {
        let mut m = LinkModel::new(2, LinkConfig::default(), 0);
        m.set_link(NodeId(0), NodeId(1), false);
        assert!(m.is_down(NodeId(0), NodeId(1)));
        assert!(!m.is_down(NodeId(1), NodeId(0)));
        m.set_link(NodeId(0), NodeId(1), true);
        assert!(!m.is_down(NodeId(0), NodeId(1)));
    }

    #[test]
    fn harsh_config_actually_drops_and_duplicates() {
        let mut m = LinkModel::new(2, LinkConfig::harsh(), 7);
        let mut drops = 0;
        let mut dups = 0;
        for _ in 0..1000 {
            match m.on_send(NodeId(0), NodeId(1)) {
                LinkVerdict::Drop(DropReason::Loss) => drops += 1,
                LinkVerdict::Deliver { duplicate, .. } => {
                    if duplicate.is_some() {
                        dups += 1;
                        m.on_delivered(NodeId(0), NodeId(1));
                    }
                    m.on_delivered(NodeId(0), NodeId(1));
                }
                _ => {
                    m.on_delivered(NodeId(0), NodeId(1));
                }
            }
        }
        assert!(drops > 100, "loss ~20%: {drops}");
        assert!(dups > 30, "dup ~10%: {dups}");
    }
}
