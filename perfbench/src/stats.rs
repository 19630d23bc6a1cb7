//! The benchmark's own arithmetic: order statistics, the tail rule,
//! the quality ratio and the layer-accounting formulas. Kept free of
//! I/O so every formula is unit-tested.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest whole percentile that still has at least `beyond`
/// samples above it among `n` samples, or `None` when `n <= beyond`.
pub fn highest_tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    if n <= beyond {
        return None;
    }
    // p/100 * n + beyond <= n  <=>  p <= 100 * (n - beyond) / n
    Some((100 * (n - beyond) / n) as u32)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`: the value at
/// rank `ceil(p/100 * n)`, so exactly `n - rank` samples lie beyond it.
pub fn percentile_sorted(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty() && p > 0 && p <= 100);
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - (p as usize * n).div_ceil(100)
}

/// Geometric mean of `num / den` over `pairs` — the paper's Table 2
/// comparison of SA against HLF, averaged so that a 10 % win and a
/// 10 % loss cancel. `NaN` for an empty input or a zero denominator.
pub fn geomean_ratio(pairs: &[(u64, u64)]) -> f64 {
    if pairs.is_empty() || pairs.iter().any(|&(_, d)| d == 0) {
        return f64::NAN;
    }
    let sum: f64 = pairs.iter().map(|&(n, d)| (n as f64 / d as f64).ln()).sum();
    (sum / pairs.len() as f64).exp()
}

/// Thread time spent waiting in a shard fan-out: each shard holds
/// `threads` workers for its whole wall time, and only the summed cell
/// time is work. Negative only if cells overlapped more than `threads`
/// at once, which would be a measurement error.
pub fn idle_ns(shard_walls_ns: &[u64], threads: u64, cell_ns_sum: u64) -> i64 {
    let held: u64 = shard_walls_ns.iter().sum::<u64>() * threads;
    held as i64 - cell_ns_sum as i64
}

/// Fleet time not spent inside shard runners: leases, heartbeats,
/// attempt files and artifact commits.
pub fn fleet_overhead_ns(worker_ns: u64, runner_ns: &[u64]) -> i64 {
    worker_ns as i64 - runner_ns.iter().sum::<u64>() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail_percentile(10, 10), None);
        assert_eq!(highest_tail_percentile(11, 10), Some(9));
        assert_eq!(highest_tail_percentile(199, 10), Some(94));
        assert_eq!(highest_tail_percentile(200, 10), Some(95));
        assert_eq!(highest_tail_percentile(1000, 10), Some(99));
        for n in 11..3000 {
            let p = highest_tail_percentile(n, 10).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            assert!(
                samples_beyond(n, p + 1) < 10,
                "n={n} p={p} is not the highest"
            );
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 95), 190.0);
        assert_eq!(samples_beyond(200, 95), 10);
        assert_eq!(percentile_sorted(&v, 50), 100.0);
        assert_eq!(percentile_sorted(&v, 100), 200.0);
        assert_eq!(percentile_sorted(&[7.0], 95), 7.0);
    }

    #[test]
    fn geomean_ratio_cancels_symmetric_wins_and_losses() {
        assert!((geomean_ratio(&[(110, 100), (100, 110)]) - 1.0).abs() < 1e-12);
        assert!((geomean_ratio(&[(1, 2), (1, 8)]) - 0.25).abs() < 1e-12);
        assert!(geomean_ratio(&[]).is_nan());
        assert!(geomean_ratio(&[(1, 0)]).is_nan());
    }

    #[test]
    fn idle_is_held_thread_time_minus_cell_time() {
        // two shards of 100 and 50 ns on 2 threads hold 300 ns
        assert_eq!(idle_ns(&[100, 50], 2, 260), 40);
        assert_eq!(idle_ns(&[100], 1, 100), 0);
        assert_eq!(idle_ns(&[], 2, 0), 0);
    }

    #[test]
    fn fleet_overhead_is_worker_minus_runner_time() {
        assert_eq!(fleet_overhead_ns(1_000, &[300, 400]), 300);
        assert_eq!(fleet_overhead_ns(500, &[]), 500);
    }
}
