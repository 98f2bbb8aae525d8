//! Simulation configuration. The channel model itself now lives in the
//! shared fault plane (`sss-net`); [`NetConfig`] is an alias kept for
//! source compatibility.

use crate::SimTime;

/// The channel model for every directed link — the shared
/// [`sss_net::LinkConfig`], re-exported under its historical simulator
/// name. Both the simulator and the threaded runtime interpret it
/// through the same [`sss_net::LinkModel`].
pub use sss_net::LinkConfig as NetConfig;

/// Top-level simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of processes `n`.
    pub n: usize,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Interval between `do forever` iterations at each node, in virtual
    /// microseconds. Must comfortably exceed `net.delay_max` so that a
    /// round's round-trips usually complete before the next round.
    pub round_interval: SimTime,
    /// The channel model.
    pub net: NetConfig,
}

impl SimConfig {
    /// A small reliable-network configuration for `n` nodes, suitable for
    /// unit tests and quickstart examples.
    pub fn small(n: usize) -> Self {
        SimConfig {
            n,
            seed: 0xC0FFEE,
            round_interval: 100,
            net: NetConfig::default(),
        }
    }

    /// Like [`SimConfig::small`] but over a lossy, duplicating network.
    pub fn harsh(n: usize) -> Self {
        SimConfig {
            net: NetConfig::harsh(),
            round_interval: 200,
            ..Self::small(n)
        }
    }

    /// Replaces the seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::small(5);
        assert_eq!(c.n, 5);
        assert!(c.round_interval > c.net.delay_max);
        assert_eq!(c.net.loss, 0.0);
    }

    #[test]
    fn harsh_network_is_lossy() {
        let c = SimConfig::harsh(5);
        assert!(c.net.loss > 0.0);
        assert!(c.net.dup > 0.0);
        assert!(c.round_interval > c.net.delay_max);
    }

    #[test]
    fn with_seed_builder() {
        assert_eq!(SimConfig::small(3).with_seed(7).seed, 7);
    }

    #[test]
    fn net_config_is_the_shared_link_config() {
        // The alias must stay the same nominal type as sss-net's, so a
        // SimConfig's channel model can seed a shared LinkModel directly.
        let cfg: sss_net::LinkConfig = SimConfig::small(3).net;
        assert_eq!(cfg, NetConfig::default());
    }
}
