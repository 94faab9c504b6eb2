//! Sample statistics for the benchmark's timings.
//!
//! Every timing is reported as a median plus tail percentiles, always
//! with the number of samples it rests on. A percentile is refused when
//! fewer than [`MIN_TAIL`] samples lie beyond it: a p90 over 40 samples
//! is four data points wide and says nothing about the tail.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// A set of measurements, sorted once on construction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are not expected; `total_cmp` orders them
    /// last if they appear).
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The median: the middle sample, or the mean of the two middle
    /// samples for an even count. `None` when empty.
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        Some(if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        })
    }

    /// Samples strictly on the far side of percentile `pct`: above it
    /// for `pct >= 50`, below it otherwise.
    #[must_use]
    pub fn beyond(&self, pct: u32) -> usize {
        let pct = pct.min(100) as usize;
        let tail = if pct >= 50 { 100 - pct } else { pct };
        self.sorted.len() * tail / 100
    }

    /// The nearest-rank percentile `pct` (0..=100): the smallest sample
    /// with at least `pct`% of the samples at or below it. Refused
    /// (`None`) when fewer than [`MIN_TAIL`] samples lie beyond it.
    #[must_use]
    pub fn percentile(&self, pct: u32) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 || pct > 100 || self.beyond(pct) < MIN_TAIL {
            return None;
        }
        let rank = (n * pct as usize).div_ceil(100).max(1);
        Some(self.sorted[rank - 1])
    }

    /// Median, quartiles and p90 in one value, for reporting.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.len(),
            median: self.median(),
            q1: self.percentile(25),
            q3: self.percentile(75),
            p90: self.percentile(90),
        }
    }
}

/// The reported shape of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median, if any samples.
    pub median: Option<f64>,
    /// Lower quartile, if at least 40 samples.
    pub q1: Option<f64>,
    /// Upper quartile, if at least 40 samples.
    pub q3: Option<f64>,
    /// 90th percentile, if at least 100 samples.
    pub p90: Option<f64>,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let show = |v: Option<f64>| v.map_or_else(|| "refused".to_string(), |v| format!("{v:.4}"));
        write!(
            f,
            "n={} median={} q1={} q3={} p90={}",
            self.n,
            show(self.median),
            show(self.q1),
            show(self.q3),
            show(self.p90)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        // Shuffled on purpose: construction must sort.
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(Samples::new(vec![]).median(), None);
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Samples::new(vec![4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
        assert_eq!(Samples::new(vec![7.0]).median(), Some(7.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(s.percentile(90), Some(90.0));
        assert_eq!(s.percentile(25), Some(25.0));
        assert_eq!(s.percentile(75), Some(75.0));
        assert_eq!(s.percentile(50), Some(50.0));
        let s = ramp(200);
        assert_eq!(s.percentile(90), Some(180.0));
        assert_eq!(s.percentile(95), Some(190.0));
    }

    #[test]
    fn thin_tails_are_refused() {
        // p90 needs ten samples above it: 100 samples is the minimum.
        assert_eq!(ramp(99).percentile(90), None);
        assert_eq!(ramp(100).beyond(90), 10);
        assert!(ramp(100).percentile(90).is_some());
        // p99 needs 1000 samples.
        assert_eq!(ramp(999).percentile(99), None);
        assert!(ramp(1000).percentile(99).is_some());
        // Lower tails count the samples below.
        assert_eq!(ramp(39).percentile(25), None);
        assert!(ramp(40).percentile(25).is_some());
        assert_eq!(Samples::new(vec![]).percentile(50), None);
    }

    #[test]
    fn summary_reports_counts_and_refusals() {
        let s = ramp(50).summary();
        assert_eq!(s.n, 50);
        assert_eq!(s.median, Some(25.5));
        assert_eq!(s.q1, Some(13.0));
        assert_eq!(s.q3, Some(38.0));
        assert_eq!(s.p90, None);
        let text = s.to_string();
        assert!(text.contains("n=50"), "{text}");
        assert!(text.contains("p90=refused"), "{text}");
    }
}
