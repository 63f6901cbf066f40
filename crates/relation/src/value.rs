//! Dynamically typed cell values with the paper's comparison semantics.
//!
//! §4.3 of the paper fixes the semantics for real-world data: `NULL` compares
//! equal to `NULL` (`SET ANSI_NULLS ON`) and sorts before every non-NULL
//! value (`NULLS FIRST`). Numeric columns use the natural numeric order;
//! string columns use lexicographic (byte-wise UTF-8) order.

use std::cmp::Ordering;
use std::fmt;

/// A single typed cell value.
///
/// A [`Value`] forms a **total order** within its own type. Heterogeneous
/// comparisons rank by type (`Null < Int/Float < Str`) so that a column that
/// failed strict type inference still has a deterministic total order; in
/// practice columns are homogenised by type inference before comparisons
/// happen (see [`crate::datatype`]).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Equal to itself, smaller than everything else.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalised to [`Value::Null`] at parse time, so
    /// stored floats are always comparable.
    Float(f64),
    /// UTF-8 string, compared lexicographically.
    Str(String),
}

impl Value {
    /// True if this value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric rank of the type used to order heterogeneous values.
    #[inline]
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }

    /// Parse a raw text token into a value, trying `Int`, then `Float`,
    /// then falling back to `Str`. `null_tokens` (e.g. `""`, `"?"`,
    /// `"NULL"`) map to [`Value::Null`]. Float NaN parses to NULL to keep
    /// the total-order invariant.
    pub fn parse(token: &str, null_tokens: &[&str]) -> Value {
        if null_tokens.contains(&token) {
            return Value::Null;
        }
        if let Ok(i) = token.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = token.parse::<f64>() {
            if f.is_nan() {
                return Value::Null;
            }
            return Value::Float(f);
        }
        Value::Str(token.to_owned())
    }
}

impl PartialEq for Value {
    /// Equality consistent with [`Ord`]: `Int(2) == Float(2.0)`.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Int(a), Value::Float(b)) => cmp_int_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_int_float(*b, *a).reverse(),
            // Stored floats are never NaN, so partial_cmp cannot fail.
            // lint: allow(no-panic, proven invariant: Value construction rejects NaN, so partial_cmp of stored floats is total)
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b).expect("no NaN stored in Value"),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

/// 2^63, the smallest float above every `i64`; `-TWO_POW_63` is `i64::MIN`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Exact order of an integer against a (non-NaN) float: integral part
/// first, then the fraction. Going through `f64` instead would merge
/// distinct integers above 2^53.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f >= TWO_POW_63 {
        return Ordering::Less;
    }
    if f < -TWO_POW_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    // lint: allow(lossy-cast, whole is integral and within [-2^63, 2^63) by the two guards above, so the cast is exact)
    let whole_int = whole as i64;
    // `f - whole` is exact: the fraction keeps the sign of `f`.
    i.cmp(&whole_int)
        .then_with(|| 0.0f64.partial_cmp(&(f - whole)).unwrap_or(Ordering::Equal))
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                // Hash consistent with Ord/Eq: an integral float hashes like
                // the equal Int (Int(2) == Float(2.0) under our Ord).
                if f.fract() == 0.0 && *f >= -TWO_POW_63 && *f < TWO_POW_63 {
                    1u8.hash(state);
                    // lint: allow(lossy-cast, the branch guard pins f to an integral value within [i64::MIN, i64::MAX])
                    (*f as i64).hash(state);
                } else {
                    2u8.hash(state);
                    f.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_equals_null_and_sorts_first() {
        assert_eq!(Value::Null, Value::Null);
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Float(f64::NEG_INFINITY));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn numeric_order_is_natural_not_lexicographic() {
        assert!(Value::Int(9) < Value::Int(10)); // "10" < "9" lexicographically
        assert!(Value::Float(2.5) < Value::Int(3));
        assert!(Value::Int(2) < Value::Float(2.5));
    }

    #[test]
    fn mixed_int_float_compare_numerically() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert!(Value::Float(1.999) < Value::Int(2));
    }

    #[test]
    fn integers_above_2_pow_53_stay_distinct() {
        let (a, b) = (
            Value::Int(9_007_199_254_740_993),
            Value::Int(9_007_199_254_740_992),
        );
        assert!(
            b < a,
            "2^53 + 1 and 2^53 share one f64 but are distinct integers"
        );
        assert!(Value::Int(i64::MAX - 1) < Value::Int(i64::MAX));
    }

    #[test]
    fn int_float_comparison_is_exact() {
        let two_53 = 9_007_199_254_740_992i64;
        // 2^53 + 1 is not a float: it lies strictly between two of them.
        assert!(Value::Float(two_53 as f64) < Value::Int(two_53 + 1));
        assert!(Value::Int(two_53 + 1) < Value::Float((two_53 + 2) as f64));
        assert_eq!(Value::Int(two_53), Value::Float(two_53 as f64));
        // i64::MAX rounds up to 2^63 as a float, which is above every i64.
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Float(-9.3e18) < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Int(i64::MIN));
        // The fraction decides between equal integral parts, either sign.
        assert!(Value::Int(-3) < Value::Float(-2.5));
        assert!(Value::Float(-2.5) < Value::Int(-2));
        assert_eq!(Value::Int(0), Value::Float(-0.0));
        assert!(Value::Null < Value::Float(-0.5));
    }

    #[test]
    fn hash_consistent_with_eq_at_the_i64_edges() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        for (i, f) in [
            (i64::MIN, i64::MIN as f64),
            (0, -0.0),
            (1 << 60, (1i64 << 60) as f64),
        ] {
            assert_eq!(Value::Int(i), Value::Float(f));
            assert_eq!(h(&Value::Int(i)), h(&Value::Float(f)));
        }
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
    }

    #[test]
    fn string_order_is_lexicographic() {
        assert!(Value::Str("10".into()) < Value::Str("9".into()));
        assert!(Value::Str("abc".into()) < Value::Str("abd".into()));
    }

    #[test]
    fn numbers_sort_before_strings() {
        assert!(Value::Int(999) < Value::Str("0".into()));
    }

    #[test]
    fn parse_infers_int_then_float_then_str() {
        assert_eq!(Value::parse("42", &[]), Value::Int(42));
        assert_eq!(Value::parse("-7", &[]), Value::Int(-7));
        assert_eq!(Value::parse("2.75", &[]), Value::Float(2.75));
        assert_eq!(Value::parse("1e3", &[]), Value::Float(1000.0));
        assert_eq!(Value::parse("abc", &[]), Value::Str("abc".into()));
    }

    #[test]
    fn parse_null_tokens() {
        assert_eq!(Value::parse("", &[""]), Value::Null);
        assert_eq!(Value::parse("?", &["", "?"]), Value::Null);
        assert_eq!(Value::parse("NULL", &["NULL"]), Value::Null);
        // Not a null token -> string.
        assert_eq!(Value::parse("?", &[""]), Value::Str("?".into()));
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(Value::parse("NaN", &[]), Value::Null);
        assert_eq!(Value::from(f64::NAN), Value::Null);
    }

    #[test]
    fn ord_is_total_on_samples() {
        let vals = [
            Value::Null,
            Value::Int(-5),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(1),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                match i.cmp(&j) {
                    Ordering::Less => assert!(a < b, "{a:?} < {b:?}"),
                    Ordering::Equal => assert_eq!(a, b),
                    Ordering::Greater => assert!(a > b, "{a:?} > {b:?}"),
                }
            }
        }
    }

    #[test]
    fn hash_consistent_with_eq_for_int_float() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }

    #[test]
    fn display_round_trip_for_common_values() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }
}
