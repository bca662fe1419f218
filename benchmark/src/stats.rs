//! Summary statistics the benchmark reports: medians, quartiles, the
//! tail-percentile rule, pair wins, and ratios printed with their base.

/// Percentiles the tail rule may pick, ascending.
const TAIL_GRID: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9];

/// Samples that must lie strictly beyond a percentile for it to count as
/// measured.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let n = 4i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[j as usize - 1] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
fn rank(sorted: &[f64], p: f64) -> (usize, f64) {
    let idx = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    (idx, sorted[idx])
}

/// The tail: the highest percentile of [`TAIL_GRID`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank. Returns
/// `(percentile, value)`, or `None` when even the median lacks ten
/// samples beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    TAIL_GRID
        .iter()
        .rev()
        .map(|&p| (p, rank(&v, p)))
        .find(|&(_, (idx, _))| v.len() - 1 - idx >= TAIL_MIN_BEYOND)
        .map(|(p, (_, x))| (p, x))
}

/// Wins of side `a` and side `b` over index-aligned pairs, where
/// `lower_wins` says a smaller value is better. Equal values are ties
/// and count for neither side.
pub fn pair_wins(a: &[f64], b: &[f64], lower_wins: bool) -> (usize, usize) {
    let mut wins = (0, 0);
    for (&x, &y) in a.iter().zip(b) {
        let (better, worse) = if lower_wins {
            (x < y, y < x)
        } else {
            (x > y, y > x)
        };
        if better {
            wins.0 += 1;
        } else if worse {
            wins.1 += 1;
        }
    }
    wins
}

/// `value` as a ratio of `base`, printed with the base so the reader
/// never has to guess what the ratio is relative to.
pub fn ratio_with_base(value: f64, base: f64, unit: &str, base_name: &str) -> String {
    if base == 0.0 {
        return format!("{value:.4} {unit} (base {base_name} = 0 {unit}, ratio undefined)");
    }
    format!(
        "{value:.4} {unit} = {:.3}x of {base_name} ({base:.4} {unit})",
        value / base
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 20 samples: p50 has 10 beyond, p75 only 5.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // 1000 samples: p99 (rank 990) leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        // 1999 samples: p99.5 rank 1990 leaves 9, so p99 stays.
        let v: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.0));
        // Too few samples for any tail.
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn pair_wins_count_ties_for_neither_side() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 2.0, 1.0, 5.0];
        assert_eq!(pair_wins(&a, &b, true), (2, 1));
        assert_eq!(pair_wins(&a, &b, false), (1, 2));
        assert_eq!(pair_wins(&a, &a, true), (0, 0));
    }

    #[test]
    fn ratios_name_their_base() {
        let s = ratio_with_base(3.0, 2.0, "ms", "untraced");
        assert_eq!(s, "3.0000 ms = 1.500x of untraced (2.0000 ms)");
        assert!(ratio_with_base(1.0, 0.0, "ms", "x").contains("undefined"));
    }
}
