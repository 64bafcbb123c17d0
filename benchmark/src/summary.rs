//! Order statistics over timing samples, and the `stats_digest`.

use sb_sim::Stats;

/// How many samples must lie beyond a percentile before it is reported
/// (choosing-metrics §1): with fewer, the figure is one outlier's value.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
/// Returns 0.0 for an empty slice, which callers report as "not exercised".
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Smallest and largest sample (0.0, 0.0 when empty).
pub fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold(None, |acc: Option<(f64, f64)>, &s| match acc {
            None => Some((s, s)),
            Some((lo, hi)) => Some((lo.min(s), hi.max(s))),
        })
        .unwrap_or((0.0, 0.0))
}

/// FNV-1a over `bytes`, continuing from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every field of one `Stats`, folded into `state`. Uses the
/// derived `Debug` rendering, which names every field, so a new counter
/// changes the digest without this crate knowing about it.
pub fn stats_digest(state: u64, stats: &Stats) -> u64 {
    fnv1a(state, format!("{stats:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        // 999 of 1000: one sample beyond p99.9.
        assert_eq!(percentile(&samples, 99.9), None);
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&few, 99.0), None);
        assert_eq!(percentile(&few, 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
    }

    #[test]
    fn min_max_spans_samples() {
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
        assert_eq!(min_max(&[]), (0.0, 0.0));
    }

    #[test]
    fn stats_digest_is_stable_and_sensitive() {
        let mut a = Stats {
            delivered_packets: 7,
            ..Stats::default()
        };
        a.special_link_flits[2] = 3;
        let b = a.clone();
        assert_eq!(
            stats_digest(FNV_OFFSET, &a),
            stats_digest(FNV_OFFSET, &b),
            "equal Stats must digest equally"
        );
        // Pinned value: the digest may only change when Stats itself does.
        assert_eq!(
            stats_digest(FNV_OFFSET, &Stats::default()),
            stats_digest(FNV_OFFSET, &Stats::new())
        );
        let mut c = a.clone();
        c.probes_dropped += 1;
        assert_ne!(stats_digest(FNV_OFFSET, &a), stats_digest(FNV_OFFSET, &c));
        // Order of folding matters (a digest of a sequence, not a set).
        let ab = stats_digest(stats_digest(FNV_OFFSET, &a), &c);
        let ba = stats_digest(stats_digest(FNV_OFFSET, &c), &a);
        assert_ne!(ab, ba);
    }
}
