//! Latency distribution summaries shared by every layer that reports
//! timing: the simulator's metrics, the sharded service's per-shard
//! stats, the bench emitters, and the live ops plane's HTTP endpoint.
//!
//! These types used to live in `sss-sim`; they moved down here so the
//! [`crate::metrics`] aggregator (which `sss-sim` itself depends on) can
//! fold trace streams into the same summaries without a dependency
//! cycle. `sss-sim` re-exports them, so `sss_sim::LatencySummary` keeps
//! working.

use crate::jsonv::JsonValue;

/// A fixed log₂-bucket histogram of latency samples: bucket `i` counts
/// samples whose value (in model microseconds) lies in
/// `[2^i, 2^(i+1))`, with `0` and `1` both landing in bucket 0 and the
/// top bucket absorbing everything ≥ `2^31`. Thirty-two buckets cover
/// half a second of model time at the top end, far beyond any
/// experiment's horizon, while the fixed shape keeps the summary `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LatencyHistogram::BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LatencyHistogram::BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Number of log₂ buckets.
    pub const BUCKETS: usize = 32;

    fn bucket_index(sample: u64) -> usize {
        (63 - sample.max(1).leading_zeros() as usize).min(Self::BUCKETS - 1)
    }

    pub(crate) fn add(&mut self, sample: u64) {
        self.buckets[Self::bucket_index(sample)] += 1;
    }

    /// The count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Total samples across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The bucket index a sample lands in (`[2^i, 2^(i+1))`, with `0`
    /// and `1` sharing bucket 0) — public so cross-shard aggregation
    /// tests can compare percentiles at bucket resolution.
    pub fn bucket_of(sample: u64) -> usize {
        Self::bucket_index(sample)
    }

    /// The lower bound of bucket `i` (the representative value merged
    /// percentiles report).
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Adds every count of `other` into `self` (bucket-wise; exact,
    /// since both histograms share the fixed log₂ shape).
    pub fn merge_from(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// The value at 1-based `rank` of the multiset this histogram
    /// summarizes, at bucket resolution: walks the buckets in order and
    /// returns the lower bound of the bucket containing that rank. The
    /// true sample at that rank lies in the same bucket, so the result
    /// is exact whenever samples sit on bucket boundaries and within a
    /// factor of 2 otherwise.
    pub fn value_at_rank(&self, rank: u64) -> u64 {
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lo(i);
            }
        }
        Self::bucket_lo(Self::BUCKETS - 1)
    }

    /// Iterates over non-empty buckets as `(lo, hi, count)`, where the
    /// bucket spans `lo..hi` microseconds (the top bucket reports
    /// `hi = u64::MAX`).
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i + 1 >= Self::BUCKETS {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                (lo, hi, c)
            })
    }
}

/// Summary statistics over one class's completed-operation latencies,
/// in model microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of completed operations sampled.
    pub count: usize,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean (rounded down).
    pub mean: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// 99.9th percentile (nearest-rank).
    pub p999: u64,
    /// Sum of all samples (exact mean reconstruction across merges).
    pub sum: u64,
    /// Log₂-bucket distribution of all samples.
    pub histogram: LatencyHistogram,
}

impl LatencySummary {
    /// Builds the summary from raw samples. Percentiles use the
    /// **nearest-rank** definition: the p-th percentile is the sample at
    /// rank `⌈p/100 · count⌉` (1-based) of the sorted list — an actual
    /// sample, never an interpolated midpoint.
    pub fn from_samples(samples: &[u64]) -> Self {
        Self::from_vec(samples.to_vec())
    }

    /// [`LatencySummary::from_samples`] over an owned buffer, sorted in
    /// place — for callers that already hold a private copy.
    pub fn from_vec(mut sorted: Vec<u64>) -> Self {
        if sorted.is_empty() {
            return Self::default();
        }
        sorted.sort_unstable();
        let len = sorted.len() as u64;
        // Nearest-rank with p in per-mille: rank = ⌈p·len/1000⌉ ≥ 1.
        let pct = |p_mille: u64| {
            let rank = (p_mille * len).div_ceil(1000).max(1);
            sorted[(rank - 1) as usize]
        };
        let mut histogram = LatencyHistogram::default();
        for &s in &sorted {
            histogram.add(s);
        }
        let sum = sorted.iter().sum::<u64>();
        LatencySummary {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().unwrap(),
            mean: sum / len,
            p50: pct(500),
            p95: pct(950),
            p99: pct(990),
            p999: pct(999),
            sum,
            histogram,
        }
    }

    /// Merges per-recorder summaries into one cross-recorder summary —
    /// the aggregation the sharded service layer needs, where each shard
    /// records its own latencies and percentiles must be reported over
    /// the union.
    ///
    /// `count`, `min`, `max`, `sum` and `mean` are exact. Percentiles
    /// are computed by nearest-rank over the **merged log₂ histograms**:
    /// the reported value is the lower bound of the bucket holding the
    /// percentile's rank. The true pooled percentile always lands in
    /// that same bucket (the histogram is the sorted multiset at bucket
    /// granularity), so merged percentiles are exact for bucket-aligned
    /// samples and within a factor of 2 otherwise — `count`-weighted
    /// aggregation of raw percentile values has no such bound.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a LatencySummary>) -> LatencySummary {
        let mut out = LatencySummary::default();
        for part in parts {
            if part.count == 0 {
                continue;
            }
            if out.count == 0 {
                out.min = part.min;
                out.max = part.max;
            } else {
                out.min = out.min.min(part.min);
                out.max = out.max.max(part.max);
            }
            out.count += part.count;
            out.sum += part.sum;
            out.histogram.merge_from(&part.histogram);
        }
        if out.count == 0 {
            return out;
        }
        let len = out.count as u64;
        out.mean = out.sum / len;
        let pct = |p_mille: u64| {
            let rank = (p_mille * len).div_ceil(1000).max(1);
            out.histogram.value_at_rank(rank)
        };
        out.p50 = pct(500);
        out.p95 = pct(950);
        out.p99 = pct(990);
        out.p999 = pct(999);
        out
    }

    /// The summary as a JSON object — one render path shared by the
    /// live-ops HTTP endpoint and the bench emitters, so every artifact
    /// reports latency in the same schema:
    /// `{count, min_us, max_us, mean_us, p50_us, p95_us, p99_us, p999_us}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("count".into(), JsonValue::UInt(self.count as u64)),
            ("min_us".into(), JsonValue::UInt(self.min)),
            ("max_us".into(), JsonValue::UInt(self.max)),
            ("mean_us".into(), JsonValue::UInt(self.mean)),
            ("p50_us".into(), JsonValue::UInt(self.p50)),
            ("p95_us".into(), JsonValue::UInt(self.p95)),
            ("p99_us".into(), JsonValue::UInt(self.p99)),
            ("p999_us".into(), JsonValue::UInt(self.p999)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_small_vectors() {
        // Pinned against the textbook nearest-rank definition
        // (rank = ⌈p/100 · N⌉, 1-based), the spec this summary documents.
        let s = LatencySummary::from_samples(&[15, 20, 35, 40, 50]);
        assert_eq!(s.p50, 35, "⌈0.5·5⌉ = rank 3");
        assert_eq!(s.p95, 50, "⌈0.95·5⌉ = rank 5");
        assert_eq!(s.p99, 50);

        let s = LatencySummary::from_samples(&[3, 6, 7, 8, 8, 10, 13, 15, 16, 20]);
        assert_eq!(s.p50, 8, "⌈0.5·10⌉ = rank 5");
        assert_eq!(s.p95, 20, "⌈0.95·10⌉ = rank 10");

        let s = LatencySummary::from_samples(&[1, 2]);
        assert_eq!(s.p50, 1, "⌈0.5·2⌉ = rank 1, not the 1.5 midpoint");

        let s = LatencySummary::from_samples(&[9]);
        assert_eq!((s.p50, s.p95, s.p99, s.p999), (9, 9, 9, 9));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let s = LatencySummary::from_samples(&[0, 1, 2, 3, 4, 1000, 1 << 40]);
        let h = s.histogram;
        assert_eq!(h.total(), 7);
        assert_eq!(h.count(0), 2, "0 and 1 share bucket 0");
        assert_eq!(h.count(1), 2, "2 and 3");
        assert_eq!(h.count(2), 1, "4");
        assert_eq!(h.count(9), 1, "1000 ∈ [512, 1024)");
        assert_eq!(h.count(31), 1, "top bucket absorbs the tail");
        let spans: Vec<_> = h.nonzero().collect();
        assert_eq!(spans[0], (0, 2, 2));
        assert_eq!(spans[1], (2, 4, 2));
        assert_eq!(spans.last().unwrap(), &(1 << 31, u64::MAX, 1));
        assert_eq!(LatencyHistogram::default().total(), 0);
    }

    #[test]
    fn merge_matches_pooled_recorder_on_bucket_aligned_samples() {
        // Samples on log₂ bucket boundaries: merged percentiles must
        // equal a pooled recorder's *exactly* (the bucket lower bound IS
        // the sample). Shards get deliberately skewed slices so the
        // merged ranks cross shard boundaries.
        let shard_a: Vec<u64> = (0..60).map(|i| 1u64 << (2 + (i % 3))).collect(); // 4,8,16
        let shard_b: Vec<u64> = (0..30).map(|_| 1u64 << 8).collect(); // 256
        let shard_c: Vec<u64> = (0..10).map(|_| 1u64 << 12).collect(); // 4096
        let pooled: Vec<u64> = shard_a
            .iter()
            .chain(&shard_b)
            .chain(&shard_c)
            .copied()
            .collect();
        let pooled = LatencySummary::from_samples(&pooled);
        let parts = [
            LatencySummary::from_samples(&shard_a),
            LatencySummary::from_samples(&shard_b),
            LatencySummary::from_samples(&shard_c),
        ];
        let merged = LatencySummary::merge(&parts);
        assert_eq!(merged.count, pooled.count);
        assert_eq!(merged.min, pooled.min);
        assert_eq!(merged.max, pooled.max);
        assert_eq!(merged.sum, pooled.sum);
        assert_eq!(merged.mean, pooled.mean);
        assert_eq!(merged.p50, pooled.p50);
        assert_eq!(merged.p95, pooled.p95);
        assert_eq!(merged.p99, pooled.p99);
        assert_eq!(merged.p999, pooled.p999);
        assert_eq!(merged.histogram, pooled.histogram);
    }

    #[test]
    fn merge_matches_pooled_recorder_at_bucket_resolution_on_arbitrary_samples() {
        // Arbitrary (non-aligned) samples: the merged percentile must
        // land in the same log₂ bucket as the pooled recorder's — the
        // invariant that makes cross-shard p99s comparable.
        let mut pooled_samples = Vec::new();
        let mut parts = Vec::new();
        let mut x = 12345u64;
        for shard in 0..7u64 {
            let mut samples = Vec::new();
            for i in 0..(40 + shard * 17) {
                // Cheap LCG spread over ~4 decades.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                samples.push(1 + (x >> 33) % 50_000);
            }
            pooled_samples.extend_from_slice(&samples);
            parts.push(LatencySummary::from_samples(&samples));
        }
        let pooled = LatencySummary::from_samples(&pooled_samples);
        let merged = LatencySummary::merge(&parts);
        assert_eq!(merged.count, pooled.count);
        assert_eq!(merged.min, pooled.min);
        assert_eq!(merged.max, pooled.max);
        assert_eq!(merged.mean, pooled.mean, "sum-carrying mean is exact");
        for (m, p, name) in [
            (merged.p50, pooled.p50, "p50"),
            (merged.p95, pooled.p95, "p95"),
            (merged.p99, pooled.p99, "p99"),
            (merged.p999, pooled.p999, "p999"),
        ] {
            assert_eq!(
                LatencyHistogram::bucket_of(m),
                LatencyHistogram::bucket_of(p),
                "{name}: merged {m} vs pooled {p} land in different buckets"
            );
            assert!(m <= p, "the bucket lower bound never exceeds the sample");
        }
    }

    #[test]
    fn merge_skips_empty_summaries() {
        let a = LatencySummary::from_samples(&[8, 16, 32]);
        let merged = LatencySummary::merge([&LatencySummary::default(), &a, &a]);
        assert_eq!(merged.count, 6);
        assert_eq!(merged.min, 8);
        assert_eq!(merged.max, 32);
        assert_eq!(
            LatencySummary::merge(std::iter::empty()),
            LatencySummary::default()
        );
    }

    #[test]
    fn to_json_schema_is_stable() {
        let s = LatencySummary::from_samples(&[10, 20, 30]);
        let j = s.to_json();
        assert_eq!(j.get("count").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(j.get("min_us").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(j.get("max_us").and_then(JsonValue::as_u64), Some(30));
        assert_eq!(j.get("p50_us").and_then(JsonValue::as_u64), Some(20));
        // Round-trips through the parser.
        let back = JsonValue::parse(&j.render()).unwrap();
        assert_eq!(back.get("mean_us").and_then(JsonValue::as_u64), Some(20));
    }
}
