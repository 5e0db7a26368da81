//! Streaming scalar statistics.
//!
//! [`Summary`] accumulates count / sum / min / max / mean / variance in
//! one pass using Welford's algorithm — used for per-experiment latency
//! and traffic summaries throughout the workspace. [`Fold`] is how a
//! summable field merges with another share of itself.

use std::fmt;
use std::ops::Add;

/// How two shares of a summable field merge — the rule every field
/// table in the workspace states its rows with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// Add the shares.
    Sum,
    /// Keep the larger share.
    Max,
    /// Keep the smaller share.
    Min,
}

impl Fold {
    /// `a` and `b` merged by this rule.
    pub fn apply<T: Add<Output = T> + PartialOrd>(self, a: T, b: T) -> T {
        match self {
            Fold::Sum => a + b,
            Fold::Max if b > a => b,
            Fold::Min if b < a => b,
            Fold::Max | Fold::Min => a,
        }
    }
}

/// One-pass summary statistics over `f64`-convertible samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Record an integer sample.
    #[inline]
    pub fn record_u64(&mut self, x: u64) {
        self.record(x as f64);
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` if empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance (`None` if empty).
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation (`None` if empty).
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merge another summary into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.0} max={:.0}",
            self.count,
            self.mean,
            self.stddev().unwrap_or(0.0),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn known_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.variance(), Some(4.0)); // classic textbook set
        assert_eq!(s.stddev(), Some(2.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 11) as f64).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &xs[..33] {
            left.record(x);
        }
        for &x in &xs[33..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        b.record(3.0);
        a.merge(&b); // empty ← non-empty
        assert_eq!(a.mean(), Some(3.0));
        let empty = Summary::new();
        a.merge(&empty); // non-empty ← empty
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn record_u64_works() {
        let mut s = Summary::new();
        s.record_u64(10);
        s.record_u64(20);
        assert_eq!(s.mean(), Some(15.0));
    }
}
