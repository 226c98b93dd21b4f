//! Order statistics over a workload's repetitions.

/// Which repetition's value a run reports for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The largest value: a rate, from the rep the machine disturbed least.
    Max,
    /// The smallest value: a time, from the rep the machine disturbed least.
    Min,
    /// The median: for a kernel's batches.
    Median,
    /// The first value: a count that the simulator repeats exactly for a
    /// seed, taken where run length cannot touch it.
    First,
}

/// The reported value of a sample, with its median, quartiles and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the run reports, picked by the metric's [`Estimator`].
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single measurement: no spread to report.
    pub fn single(value: f64) -> Self {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Summarise `values` (at least one). Quartiles follow the exclusive
    /// method of Python's `statistics.quantiles(values, n=4)`, so numbers
    /// computed here and by a reviewer's script agree.
    pub fn of(values: &[f64], estimator: Estimator) -> Self {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Summary::single(v[0]);
        }
        let quantile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = quantile(2);
        Summary {
            value: match estimator {
                Estimator::Max => v[n - 1],
                Estimator::Min => v[0],
                Estimator::Median => median,
                Estimator::First => values[0],
            },
            median,
            q1: quantile(1),
            q3: quantile(3),
            n,
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values, Estimator::Median).value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let sample = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let s = Summary::of(&sample, Estimator::Median);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        let value = |estimator| Summary::of(&sample, estimator).value;
        assert_eq!(
            [
                Estimator::Min,
                Estimator::Max,
                Estimator::Median,
                Estimator::First
            ]
            .map(value),
            [1.0, 10.0, 5.5, 10.0]
        );
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[1.0, 2.0, 4.0], Estimator::Median);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0], Estimator::Median);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        assert_eq!(Summary::of(&[7.0], Estimator::Max), Summary::single(7.0));
    }
}
