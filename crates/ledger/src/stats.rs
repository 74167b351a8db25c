//! Sample sets and the two order statistics the ledger reports.

/// Timing samples of one kind of op.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the middle pair for even counts); 0 when empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// The highest order statistic that still has at least ten samples
    /// beyond it, never below the median: with fewer than ~20 samples no
    /// tail percentile is supported and this is the median itself.
    pub fn hi(&self) -> f64 {
        let v = self.sorted();
        match v.len().checked_sub(11) {
            Some(idx) => v[idx].max(self.median()),
            None => self.median(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_hi() {
        let mut s = Samples::default();
        assert_eq!(s.median(), 0.0);
        for i in 1..=40 {
            s.push(i as f64);
        }
        assert_eq!(s.median(), 20.5);
        assert_eq!(s.mean(), 20.5);
        // 10 samples (31..=40) lie beyond the 30th.
        assert_eq!(s.hi(), 30.0);
        let mut few = Samples::default();
        for i in 1..=5 {
            few.push(i as f64);
        }
        assert_eq!(few.hi(), 3.0);
    }
}
