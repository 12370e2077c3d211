//! Derived statistics used throughout the simulator.
//!
//! Hardware utilization and energy accounting both reduce to ratios of
//! event counts (MACs performed over MAC slots, issue slots used over
//! cycles, ...).

use std::fmt;

/// A ratio of two event counts, typically "useful work / capacity".
///
/// Used for MAC utilization (Table 3 of the paper) and issue-slot utilization.
///
/// # Example
///
/// ```
/// use virgo_sim::Ratio;
///
/// let util = Ratio::new(661, 1000);
/// assert!((util.as_fraction() - 0.661).abs() < 1e-12);
/// assert_eq!(format!("{util}"), "66.1%");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    numerator: f64,
    denominator: f64,
}

impl Ratio {
    /// Creates a ratio from a numerator and denominator.
    ///
    /// A zero denominator yields a ratio of zero rather than NaN, which is the
    /// convenient convention for "utilization of hardware that never ran".
    pub fn new(numerator: impl Into<f64>, denominator: impl Into<f64>) -> Self {
        Ratio {
            numerator: numerator.into(),
            denominator: denominator.into(),
        }
    }

    /// Returns the ratio as a fraction in `[0, inf)`; zero if the denominator
    /// is zero.
    pub fn as_fraction(self) -> f64 {
        if self.denominator == 0.0 {
            0.0
        } else {
            self.numerator / self.denominator
        }
    }

    /// Returns the ratio as a percentage.
    pub fn as_percent(self) -> f64 {
        self.as_fraction() * 100.0
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.as_percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(Ratio::new(5.0, 0.0).as_fraction(), 0.0);
        assert_eq!(Ratio::new(0.0, 0.0).as_percent(), 0.0);
    }

    #[test]
    fn ratio_percent_formatting() {
        let r = Ratio::new(1.0, 3.0);
        assert_eq!(format!("{r}"), "33.3%");
    }
}
