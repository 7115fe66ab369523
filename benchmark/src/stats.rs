//! Order statistics used by the metrics: plain percentiles, and the
//! segment-median construction (over the best of several sessions) that
//! makes them repeat.

/// The `p`-quantile (0 ≤ p ≤ 1) of `sorted` by linear interpolation
/// between closest ranks. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The `p`-quantile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The better end of `values`. Only ever taken over sessions that
/// replayed the same stretch of the same stream: whatever runs beside
/// the program — a neighbour on the same physical core, the hypervisor,
/// the generator's own threads — makes a stretch slower and never
/// faster, so of several replays the best is the closest to what the
/// program does on an idle machine. A change in the program moves every
/// replay, the best one included.
pub fn best(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => values.iter().copied().fold(f64::INFINITY, f64::min),
        Better::Higher => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// The median over a phase's segments, each segment taken from the
/// session that ran it best. `sessions[s][i]` is the value of segment `i`
/// in session `s`; every session replays the same stream, so segment `i`
/// is the same stretch of it everywhere. The best is taken across
/// sessions and never across segments: the streams are not stationary,
/// and the best stretch of a drifting stream is merely the easiest one.
pub fn median_of_best(sessions: &[Vec<f64>], better: Better) -> f64 {
    let segments = sessions[0].len();
    assert!(
        sessions.iter().all(|s| s.len() == segments),
        "sessions cut their phases alike"
    );
    let per_segment: Vec<f64> = (0..segments)
        .map(|i| {
            let across: Vec<f64> = sessions.iter().map(|s| s[i]).collect();
            best(&across, better)
        })
        .collect();
    median(&per_segment)
}

/// `len` samples in arrival order cut into `segments` equal runs; the
/// remainder goes to the last run.
pub fn segment_ranges(len: usize, segments: usize) -> Vec<std::ops::Range<usize>> {
    assert!(segments > 0 && len >= segments, "too few samples");
    let per = len / segments;
    (0..segments)
        .map(|s| {
            s * per..if s + 1 == segments {
                len
            } else {
                (s + 1) * per
            }
        })
        .collect()
}

/// The `p`-quantile of each of `segments` equal runs of `samples`.
pub fn segment_percentiles(samples: &[f64], segments: usize, p: f64) -> Vec<f64> {
    segment_ranges(samples.len(), segments)
        .into_iter()
        .map(|r| percentile(&samples[r], p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // order of the input does not matter
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn a_disturbed_session_does_not_move_the_segment_median() {
        // A stream that gets harder: segment values drift upwards. One
        // session has a burst in its third segment, another in its first.
        let quiet = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut burst_mid = quiet.clone();
        burst_mid[2] = 90.0;
        let mut burst_first = quiet.clone();
        burst_first[0] = 40.0;
        let sessions = [burst_mid.clone(), quiet.clone(), burst_first];
        assert_eq!(median_of_best(&sessions, Better::Lower), 3.0);
        // The best is never taken across segments: with every session
        // disturbed in the middle stretch the estimate moves, and it is
        // not the easiest stretch (1.0) that is reported.
        let all_disturbed = [burst_mid.clone(), burst_mid.clone()];
        assert_eq!(median_of_best(&all_disturbed, Better::Lower), 4.0);
        // one session alone is the plain median of its segments
        assert_eq!(median_of_best(&[burst_mid], Better::Lower), 4.0);
    }

    #[test]
    fn best_follows_the_direction_of_the_metric() {
        let rates = [vec![10.0, 8.0, 6.0], vec![9.0, 9.0, 7.0]];
        assert_eq!(median_of_best(&rates, Better::Higher), 9.0);
        assert_eq!(median_of_best(&rates, Better::Lower), 8.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], Better::Higher), 3.0);
    }

    #[test]
    fn a_change_in_every_segment_moves_the_estimate() {
        let v: Vec<f64> = (0..50).map(|i| 2.0 + (i % 10) as f64 * 0.1).collect();
        let p50 = segment_percentiles(&v, 5, 0.5);
        let got = median_of_best(&[p50.clone(), p50], Better::Lower);
        assert!((got - 2.45).abs() < 1e-12, "{got}");
    }

    #[test]
    fn remainder_goes_to_last_segment() {
        // 11 samples in 5 segments: 2,2,2,2,3
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(
            segment_percentiles(&v, 5, 0.5),
            vec![1.5, 3.5, 5.5, 7.5, 10.0]
        );
    }
}
