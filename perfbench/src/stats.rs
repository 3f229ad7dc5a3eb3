//! Summary statistics: percentiles and the SLA-rate interpolation.

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    secemb::stats::percentile(&sorted, p)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Distance between the first and third quartile.
pub fn iqr(samples: &[f64]) -> f64 {
    percentile(samples, 75.0) - percentile(samples, 25.0)
}

/// The highest offered rate that still meets the SLA, from a rate
/// ladder's `(rate, miss share)` steps in ascending rate order.
///
/// A step passes when its miss share is at most `max_miss`. The result
/// interpolates linearly in miss share between the highest step that
/// passes and the step above it, which fails, so it moves smoothly as
/// the miss share of either step moves. Zero load counts as a passing
/// step with no misses, so a ladder whose every step fails still yields
/// a rate below its first step. When the top step passes the result is
/// the top rate, a lower bound.
pub fn sla_rps(steps: &[(f64, f64)], max_miss: f64) -> f64 {
    let pass = steps.iter().rposition(|&(_, miss)| miss <= max_miss);
    let (r0, m0) = pass.map_or((0.0, 0.0), |i| steps[i]);
    match steps.get(pass.map_or(0, |i| i + 1)) {
        Some(&(r1, m1)) => r0 + (r1 - r0) * (max_miss - m0) / (m1 - m0),
        None => r0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_last_pass_and_first_fail() {
        let steps = [(100.0, 0.0), (200.0, 0.004), (300.0, 0.034), (400.0, 0.5)];
        // 0.01 lies a fifth of the way from 0.004 to 0.034.
        assert!((sla_rps(&steps, 0.01) - 220.0).abs() < 1e-9);
    }

    #[test]
    fn top_step_passing_reports_the_top_rate() {
        let steps = [(25.0, 0.0), (50.0, 0.001), (100.0, 0.01)];
        assert_eq!(sla_rps(&steps, 0.01), 100.0);
    }

    #[test]
    fn no_step_passing_interpolates_from_zero_load() {
        let steps = [(50.0, 0.04), (100.0, 0.2)];
        assert!((sla_rps(&steps, 0.01) - 12.5).abs() < 1e-9);
    }

    #[test]
    fn the_highest_passing_step_counts_even_above_a_failure() {
        let steps = [(100.0, 0.0), (200.0, 0.02), (300.0, 0.0), (400.0, 0.05)];
        assert!((sla_rps(&steps, 0.01) - 320.0).abs() < 1e-9);
    }

    #[test]
    fn moves_continuously_as_a_step_crosses_the_limit() {
        let at = |m: f64| sla_rps(&[(100.0, 0.0), (200.0, m), (300.0, 0.2)], 0.01);
        assert!((at(0.01) - at(0.010_001)).abs() < 0.05);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(iqr(&xs), 50.0);
        assert_eq!(median(&[]), 0.0);
    }
}
