//! Consistent-hash ring: maps a large client keyspace onto shard ids.
//!
//! Each shard contributes `vnodes` pseudo-random points on a `u64` ring;
//! a key belongs to the shard owning the first point at or clockwise
//! after the key's hash. Virtual nodes smooth the load (the relative
//! spread of shard ownership shrinks like `1/√vnodes`), and the scheme
//! has the classic minimal-remapping property: adding a shard only moves
//! keys *to* the new shard, removing one only moves keys that the
//! departed shard owned. Both properties are pinned by the property
//! tests in `tests/ring_props.rs`.
//!
//! Everything is a pure function of `(seed, shard id, vnode index)` via
//! [`mix64`], so two ring instances built from the same parameters agree
//! on every key — the front end and any external router can be
//! reconstructed independently.

use sss_net::mix64;

/// Salt separating key hashes from ring-point hashes.
const KEY_SALT: u64 = 0x4B45_59AA;
/// Salt for a shard's vnode point stream.
const POINT_SALT: u64 = 0x5649_5254;

/// A consistent-hash ring over shard ids: each shard owns `vnodes`
/// pseudo-random points, and a key belongs to the shard owning the first
/// point at or clockwise after the key's hash.
#[derive(Clone, Debug)]
pub struct Ring {
    seed: u64,
    vnodes: usize,
    /// `(point, shard)` sorted by point (ties broken by shard id, so
    /// iteration order never depends on insertion order).
    points: Vec<(u64, u32)>,
    /// Live shard ids, sorted.
    shards: Vec<u32>,
}

impl Ring {
    /// A ring over shards `0..shards`, each with `vnodes` points.
    ///
    /// # Panics
    ///
    /// If `shards == 0` or `vnodes == 0`.
    pub fn new(shards: usize, vnodes: usize, seed: u64) -> Ring {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a shard needs at least one virtual node");
        let mut ring = Ring {
            seed,
            vnodes,
            points: Vec::with_capacity(shards * vnodes),
            shards: Vec::with_capacity(shards),
        };
        for s in 0..shards {
            ring.add_shard(s as u32);
        }
        ring
    }

    /// The point stream for one shard.
    fn points_of(&self, shard: u32) -> impl Iterator<Item = (u64, u32)> + '_ {
        let base = mix64(self.seed ^ POINT_SALT, shard as u64);
        (0..self.vnodes as u64).map(move |v| (mix64(base, v), shard))
    }

    /// Adds a shard's virtual nodes to the ring.
    ///
    /// # Panics
    ///
    /// If `shard` is already present.
    pub fn add_shard(&mut self, shard: u32) {
        assert!(
            !self.shards.contains(&shard),
            "shard {shard} already on the ring"
        );
        let added: Vec<(u64, u32)> = self.points_of(shard).collect();
        self.points.extend(added);
        self.points.sort_unstable();
        self.shards.push(shard);
        self.shards.sort_unstable();
    }

    /// Removes a shard's virtual nodes; its keys fall to the clockwise
    /// successors.
    ///
    /// # Panics
    ///
    /// If `shard` is not on the ring, or it is the last one (an empty
    /// ring maps nothing).
    pub fn remove_shard(&mut self, shard: u32) {
        assert!(
            self.shards.contains(&shard),
            "shard {shard} not on the ring"
        );
        assert!(self.shards.len() > 1, "cannot remove the last shard");
        self.points.retain(|&(_, s)| s != shard);
        self.shards.retain(|&s| s != shard);
    }

    /// The shard owning `key`.
    pub fn shard_for(&self, key: u64) -> u32 {
        let h = mix64(self.seed ^ KEY_SALT, key);
        // First point at or clockwise after the key's hash, wrapping.
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }

    /// Live shard ids, sorted.
    pub fn shards(&self) -> &[u32] {
        &self.shards
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no shards (never true for a constructed
    /// ring; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_parameters_build_the_same_ring() {
        let a = Ring::new(8, 32, 42);
        let b = Ring::new(8, 32, 42);
        for key in 0..1000 {
            assert_eq!(a.shard_for(key), b.shard_for(key));
        }
    }

    #[test]
    fn every_shard_owns_some_keys() {
        let ring = Ring::new(8, 64, 7);
        let mut owned = vec![false; 8];
        for key in 0..10_000u64 {
            owned[ring.shard_for(key) as usize] = true;
        }
        assert!(owned.iter().all(|&o| o), "ownership: {owned:?}");
    }

    #[test]
    fn incremental_build_matches_batch_build() {
        let batch = Ring::new(6, 16, 9);
        let mut inc = Ring::new(1, 16, 9);
        for s in 1..6 {
            inc.add_shard(s);
        }
        for key in 0..5_000u64 {
            assert_eq!(batch.shard_for(key), inc.shard_for(key));
        }
    }

    #[test]
    #[should_panic(expected = "already on the ring")]
    fn duplicate_shard_panics() {
        let mut ring = Ring::new(2, 8, 1);
        ring.add_shard(1);
    }
}
