//! Finite discrete distributions — the value type of the probabilistic
//! layer (PR 6).
//!
//! A [`Dist<T>`] is a finite list of `(outcome, weight)` pairs with
//! non-negative weights. It is deliberately *not* normalised on
//! construction: the probabilistic simulator accumulates sub-stochastic
//! distributions (bounded-depth enumeration prunes mass, and the pruned
//! remainder is reported separately), so `total_mass() ≤ 1` is a state
//! the callers care about, not an error.
//!
//! Serialisation is a [`crate::record`] document (`bpi-dist/v1`): a
//! header line followed by one `o\t<weight>\t<value>` record per
//! outcome, with the value rendered through `Display` and recovered
//! through `FromStr`. Weights use Rust's shortest-round-trip `f64`
//! formatting, so decode∘encode is the identity bit-for-bit.

use crate::record::{fields, parse, Reader, Writer};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A finite weighted set of outcomes.
#[derive(Clone, Debug, PartialEq)]
pub struct Dist<T> {
    outcomes: Vec<(T, f64)>,
}

impl<T> Default for Dist<T> {
    fn default() -> Self {
        Dist {
            outcomes: Vec::new(),
        }
    }
}

impl<T> Dist<T> {
    /// The empty (zero-mass) distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// The point distribution assigning mass 1 to `t`.
    pub fn unit(t: T) -> Self {
        Dist {
            outcomes: vec![(t, 1.0)],
        }
    }

    /// Appends an outcome. Negative and NaN weights are a caller bug;
    /// they are rejected loudly rather than poisoning every later sum.
    pub fn push(&mut self, t: T, w: f64) {
        assert!(w >= 0.0, "Dist::push: weight {w} is negative or NaN");
        self.outcomes.push((t, w));
    }

    /// Number of recorded outcomes (not deduplicated).
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Sum of all weights; 1.0 for a proper distribution, less for a
    /// sub-stochastic one (pruned enumeration).
    pub fn total_mass(&self) -> f64 {
        self.outcomes.iter().map(|(_, w)| w).sum()
    }

    /// Iterates over `(outcome, weight)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, f64)> {
        self.outcomes.iter().map(|(t, w)| (t, *w))
    }

    /// Rescales every weight so the total mass becomes 1. No-op on an
    /// empty or zero-mass distribution (there is nothing to scale *to*).
    pub fn normalize(&mut self) {
        let m = self.total_mass();
        if m > 0.0 {
            for (_, w) in &mut self.outcomes {
                *w /= m;
            }
        }
    }

    /// Maps outcomes, keeping weights.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> Dist<U> {
        let mut f = f;
        Dist {
            outcomes: self.outcomes.into_iter().map(|(t, w)| (f(t), w)).collect(),
        }
    }
}

impl<T: Ord + Clone> Dist<T> {
    /// Collapses duplicate outcomes, summing their weights, and returns
    /// the result keyed for comparison.
    fn grouped(&self) -> BTreeMap<T, f64> {
        let mut m = BTreeMap::new();
        for (t, w) in &self.outcomes {
            *m.entry(t.clone()).or_insert(0.0) += *w;
        }
        m
    }

    /// Merges duplicate outcomes in place (sums weights, sorts by
    /// outcome). After this, `len()` counts *distinct* outcomes.
    pub fn dedup(&mut self) {
        self.outcomes = self.grouped().into_iter().collect();
    }

    /// Total-variation distance `½·Σ|p(x) − q(x)|` over the union of
    /// supports — the metric the ε-equivalence layer quotes.
    pub fn total_variation(&self, other: &Dist<T>) -> f64 {
        let (a, b) = (self.grouped(), other.grouped());
        let mut d = 0.0;
        for (t, w) in &a {
            d += (w - b.get(t).copied().unwrap_or(0.0)).abs();
        }
        for (t, w) in &b {
            if !a.contains_key(t) {
                d += w.abs();
            }
        }
        d / 2.0
    }
}

/// Typed decode failure for the `bpi-dist/v1` codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistParseError(pub String);

impl fmt::Display for DistParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bpi-dist/v1: {}", self.0)
    }
}

impl std::error::Error for DistParseError {}

const DIST_HEADER: &str = "bpi-dist/v1";

/// The `bpi-dist/v1` text format:
///
/// ```text
/// bpi-dist/v1
/// o<TAB><weight><TAB><value>                 (one per outcome, in order)
/// ```
impl<T: fmt::Display> fmt::Display for Dist<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::new(f, DIST_HEADER)?;
        for (t, wt) in &self.outcomes {
            w.field("o", format_args!("{wt}\t{t}"))?;
        }
        Ok(())
    }
}

impl<T: FromStr<Err: fmt::Display>> FromStr for Dist<T> {
    type Err = DistParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let decode = || -> Result<Self, String> {
            let mut r = Reader::new(s, DIST_HEADER)?;
            let mut outcomes = Vec::new();
            for rec in r.records() {
                let (tag, rest) = rec?;
                if tag != "o" {
                    return Err(format!("unknown record {tag:?}"));
                }
                let [w, t] = fields(rest)?;
                let w: f64 = parse(w, "weight")?;
                if w.is_nan() || w < 0.0 {
                    return Err(format!("weight {w} out of range"));
                }
                outcomes.push((parse(t, "value")?, w));
            }
            Ok(Dist { outcomes })
        };
        decode().map_err(DistParseError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_and_mass() {
        let mut d = Dist::unit("a".to_string());
        d.push("b".to_string(), 0.5);
        assert_eq!(d.len(), 2);
        assert!((d.total_mass() - 1.5).abs() < 1e-12);
        d.normalize();
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dedup_merges_weights() {
        let mut d = Dist::new();
        d.push(3u64, 0.25);
        d.push(1u64, 0.25);
        d.push(3u64, 0.5);
        d.dedup();
        assert_eq!(d.len(), 2);
        let m: Vec<_> = d.iter().map(|(t, w)| (*t, w)).collect();
        assert_eq!(m, vec![(1, 0.25), (3, 0.75)]);
    }

    #[test]
    fn total_variation_examples() {
        let mut p = Dist::new();
        p.push(0u8, 0.5);
        p.push(1u8, 0.5);
        let q = Dist::unit(0u8);
        assert!((p.total_variation(&q) - 0.5).abs() < 1e-12);
        assert_eq!(p.total_variation(&p), 0.0);
    }

    #[test]
    fn text_codec_round_trips_exactly() {
        let mut d = Dist::new();
        d.push("x".to_string(), 0.1);
        d.push("y z".to_string(), 1.0 / 3.0);
        let text = d.to_string();
        let back: Dist<String> = text.parse().expect("decode");
        assert_eq!(back, d, "decode∘encode must be the identity");
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!("nope".parse::<Dist<String>>().is_err());
        assert!("bpi-dist/v1\nq\t1.0\tx".parse::<Dist<String>>().is_err());
        assert!("bpi-dist/v1\no\t-1.0\tx".parse::<Dist<String>>().is_err());
        assert!("bpi-dist/v1\no\tNaN\tx".parse::<Dist<String>>().is_err());
    }

    #[test]
    fn numeric_outcomes_round_trip() {
        let mut d = Dist::new();
        d.push(7u64, 0.125);
        d.push(9u64, 0.875);
        let back: Dist<u64> = d.to_string().parse().expect("decode");
        assert_eq!(back, d);
        assert!("junk".parse::<Dist<u64>>().is_err());
    }
}
