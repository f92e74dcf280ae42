//! Order statistics over measured samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_GRID: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest grid percentile with at least ten samples beyond it
/// (the median when there are too few samples for any), and its value.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let pct = TAIL_GRID
        .iter()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, quantile(sorted, pct / 100.0))
}

/// Sample count, quartiles and tail of a latency sample, for the
/// detail line printed next to every result.
pub fn summary(values: &[f64]) -> rmrls_obs::Json {
    use rmrls_obs::Json;
    let s = sorted(values);
    let (pct, value) = tail(&s);
    Json::Obj(vec![
        ("n".to_string(), Json::uint(s.len() as u64)),
        ("p25".to_string(), Json::Num(quantile(&s, 0.25))),
        ("p50".to_string(), Json::Num(quantile(&s, 0.5))),
        ("p75".to_string(), Json::Num(quantile(&s, 0.75))),
        ("tail_percentile".to_string(), Json::Num(pct)),
        ("tail".to_string(), Json::Num(value)),
        (
            "beyond_tail".to_string(),
            Json::uint((s.len() as f64 * (1.0 - pct / 100.0)).floor() as u64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        let v: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        assert_eq!(tail(&[1.0, 2.0]).0, 50.0);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[0.0, 10.0], 0.5), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
