//! Estimators: nearest-rank percentiles, the slice-median tail
//! estimator, and the quartile spread the acceptance rule is stated in.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice;
/// `0` for an empty one.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle ones for an even count);
/// `0.0` for an empty slice. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The tail estimator: cut `[0, window_ns)` into slices of `slice_ns`,
/// take percentile `p` of the latencies *completing* in each slice, and
/// return the median of those per-slice percentiles with the number of
/// non-empty slices. One host hiccup then spoils one slice, not the
/// metric. `samples` are `(completion offset, latency)` pairs in ns.
pub fn sliced_percentile(
    samples: &[(u64, u64)],
    window_ns: u64,
    slice_ns: u64,
    p: f64,
) -> (f64, usize) {
    let slices = (window_ns / slice_ns.max(1)).max(1) as usize;
    let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for &(at, lat) in samples {
        // The window's ragged tail joins the last full slice.
        let i = ((at / slice_ns.max(1)) as usize).min(slices - 1);
        per_slice[i].push(lat);
    }
    let mut tails: Vec<f64> = per_slice
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.sort_unstable();
            percentile_sorted(s, p) as f64
        })
        .collect();
    let used = tails.len();
    (median(&mut tails), used)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method) — the acceptance rule is
/// stated in those terms, so the arithmetic is mirrored exactly.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: `(Q3 − Q1) / median`, as a share of the median.
/// `None` below two values or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn one_bad_slice_does_not_move_the_sliced_tail() {
        // Five slices of 100 samples at latency 10; slice 2 also holds a
        // 10-sample stall at 10_000. The whole-window p99 would be 10_000.
        let mut samples = Vec::new();
        for s in 0..5u64 {
            for k in 0..100u64 {
                samples.push((s * 1_000 + k, 10));
            }
        }
        for k in 0..10 {
            samples.push((2_500 + k, 10_000));
        }
        let (p99, used) = sliced_percentile(&samples, 5_000, 1_000, 99.0);
        assert_eq!(used, 5);
        assert_eq!(p99, 10.0);
        let mut all: Vec<u64> = samples.iter().map(|s| s.1).collect();
        all.sort_unstable();
        assert_eq!(percentile_sorted(&all, 99.0), 10_000);
    }

    #[test]
    fn sliced_tail_skips_empty_slices_and_folds_the_ragged_end() {
        let samples = [(10, 5), (20, 7), (4_900, 9)];
        let (p, used) = sliced_percentile(&samples, 4_950, 1_000, 100.0);
        assert_eq!(used, 2, "slices 0 and 3 (the ragged end joins slice 3)");
        assert_eq!(p, 8.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some([2.5, 4.0, 5.5]));
        assert_eq!(quartiles(&[3.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
