//! Weighted choice among a generator's label or event classes, at exactly
//! one `f64` draw per event.

/// Cumulative thresholds for [`pick_index`]: `cum[i] = w_0 + … + w_i`.
pub(crate) fn cumulative(weights: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// Maps one uniform draw `r ∈ [0,1)` to an index via cumulative
/// thresholds. The last bucket absorbs floating-point slack.
pub(crate) fn pick_index(r: f64, cum: &[f64]) -> usize {
    cum.iter().position(|&t| r < t).unwrap_or(cum.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_covers_all_buckets() {
        let cum = cumulative(&[0.5, 0.3, 0.2]);
        assert_eq!(pick_index(0.0, &cum), 0);
        assert_eq!(pick_index(0.9999, &cum), 2);
        // Out-of-range slack lands in the last bucket, never panics.
        assert_eq!(pick_index(1.0, &cum), 2);
    }
}
