//! Event counters and the statistics derived from them.
//!
//! Hardware utilization and energy accounting both reduce to ratios of
//! event counts (MACs performed over MAC slots, issue slots used over
//! cycles, ...). Every counter struct implements [`Counters`] from one
//! field list given to [`counters!`](crate::counters): adding clusters
//! together, per-job windows and the report-snapshot JSON all come from
//! that list.

use std::fmt;

use crate::json::{self, write_array, Value};

/// A set of `u64` event counters: the sum of two sets, the difference
/// from an earlier capture, and a JSON object keyed by field name.
///
/// `u64` is the leaf; `Vec<T>` is a per-channel or per-link breakdown;
/// structs implement it through [`counters!`](crate::counters).
pub trait Counters: Sized {
    /// Adds the counts of `other` into `self` (aggregating clusters,
    /// channels or cores). A shorter vector grows to the longer one.
    fn merge(&mut self, other: &Self);

    /// The counts accumulated since `base` was captured. Saturating, so a
    /// mismatched base degrades to the absolute counts instead of
    /// panicking; vectors are paired element by element.
    #[must_use]
    fn since(&self, base: &Self) -> Self;

    /// The counters as compact JSON: a number, an array or an object
    /// keyed by field name in declaration order.
    fn to_json(&self) -> String;

    /// Reads back what [`Counters::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Fails on a missing field or a value of the wrong kind.
    fn from_json(v: &Value) -> Result<Self, json::Error>;
}

impl Counters for u64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }

    fn since(&self, base: &Self) -> Self {
        self.saturating_sub(*base)
    }

    fn to_json(&self) -> String {
        self.to_string()
    }

    fn from_json(v: &Value) -> Result<Self, json::Error> {
        v.as_u64()
    }
}

impl<T: Counters + Default> Counters for Vec<T> {
    fn merge(&mut self, other: &Self) {
        if self.len() < other.len() {
            self.resize_with(other.len(), T::default);
        }
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }

    fn since(&self, base: &Self) -> Self {
        self.iter()
            .zip(base)
            .map(|(now, then)| now.since(then))
            .collect()
    }

    fn to_json(&self) -> String {
        write_array(self, T::to_json)
    }

    fn from_json(v: &Value) -> Result<Self, json::Error> {
        v.as_array()?.iter().map(T::from_json).collect()
    }
}

/// Implements [`Counters`](crate::stats::Counters) for a struct from its
/// field list, written once beside the declaration:
///
/// ```
/// use virgo_sim::{counters, Counters};
///
/// #[derive(Debug, Default, PartialEq)]
/// pub struct Hits {
///     pub reads: u64,
///     pub per_bank: Vec<u64>,
/// }
/// counters!(Hits { reads, per_bank });
///
/// let mut total = Hits { reads: 1, per_bank: vec![2] };
/// total.merge(&Hits { reads: 3, per_bank: vec![4, 5] });
/// assert_eq!(total, Hits { reads: 4, per_bank: vec![6, 5] });
/// assert_eq!(total.to_json(), r#"{"reads":4,"per_bank":[6,5]}"#);
/// ```
///
/// `merge` and `since` go field by field and the JSON object lists the
/// fields in the given order. `since` and `from_json` build the struct with
/// a full literal, so a list that misses a field does not compile.
#[macro_export]
macro_rules! counters {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::stats::Counters for $ty {
            fn merge(&mut self, other: &Self) {
                $($crate::stats::Counters::merge(&mut self.$field, &other.$field);)+
            }

            fn since(&self, base: &Self) -> Self {
                $ty {
                    $($field: $crate::stats::Counters::since(&self.$field, &base.$field),)+
                }
            }

            fn to_json(&self) -> String {
                let mut w = $crate::json::ObjWriter::new();
                $(w.raw(
                    stringify!($field),
                    &$crate::stats::Counters::to_json(&self.$field),
                );)+
                w.finish()
            }

            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::Error> {
                Ok($ty {
                    $($field: $crate::stats::Counters::from_json(v.get(stringify!($field))?)?,)+
                })
            }
        }
    };
}

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
