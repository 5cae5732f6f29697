//! Sample statistics the metrics are built from. Copied in rather than
//! taken from `crates/bench/src/lib.rs`, which ROADMAP item 2 will rework.

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted population.
/// `None` on an empty population.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median, averaging the two middle samples of an even population.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The tail percentiles the benchmark will name, lowest first.
const TAIL_CANDIDATES: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even p75 has fewer (under 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .fold(None, |_, p| Some(p))
}

/// Harmonic mean (the Graph500 TEPS statistic). A zero, negative or
/// non-finite sample is an error, never skipped: the caller counts the op
/// as failed.
pub fn harmonic_mean(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("harmonic mean of no samples".to_string());
    }
    let mut inv = 0.0;
    for (i, &s) in samples.iter().enumerate() {
        if !s.is_finite() || s <= 0.0 {
            return Err(format!("sample {i} is {s}: not a positive finite rate"));
        }
        inv += 1.0 / s;
    }
    Ok(samples.len() as f64 / inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(300), Some(95.0));
        assert_eq!(tail_percentile(1500), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn harmonic_mean_rejects_zero_and_non_finite() {
        assert_eq!(harmonic_mean(&[2.0, 2.0]).unwrap(), 2.0);
        assert!((harmonic_mean(&[1.0, 3.0]).unwrap() - 1.5).abs() < 1e-12);
        assert!(harmonic_mean(&[1.0, 0.0]).is_err());
        assert!(harmonic_mean(&[1.0, f64::INFINITY]).is_err());
        assert!(harmonic_mean(&[f64::NAN]).is_err());
        assert!(harmonic_mean(&[]).is_err());
    }
}
