//! One-dimensional value intervals.
//!
//! A variable-free attribute test `attr op constant` denotes an interval
//! of the value domain. Intervals are what R/R+-trees index (§2.3 /
//! §4.1.2 of the paper): a rule condition becomes a hyper-rectangle, one
//! interval per attribute, and finding the conditions a tuple satisfies is
//! a point-stabbing query.

use std::fmt;

use relstore::{CompOp, Selection, Value};

/// An endpoint: a value plus openness, or unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// No bound on this side.
    Unbounded,
    /// Closed endpoint (value included).
    Closed(Value),
    /// Open endpoint (value excluded).
    Open(Value),
}

/// An interval of the total [`Value`] order.
///
/// `Ne` tests are *not* representable as one interval; they widen to the
/// full domain here, producing false drops that the engine filters with an
/// exact test — exactly the "false drop" behaviour §2.3 attributes to
/// rule-indexing schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Lower bounds per dimension.
    pub lo: Endpoint,
    /// Upper bounds per dimension.
    pub hi: Endpoint,
}

impl Interval {
    /// The whole domain.
    pub fn full() -> Self {
        Interval {
            lo: Endpoint::Unbounded,
            hi: Endpoint::Unbounded,
        }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: Value) -> Self {
        Interval {
            lo: Endpoint::Closed(v.clone()),
            hi: Endpoint::Closed(v),
        }
    }

    /// Interval denoted by `attr op value` (the attribute is the caller's
    /// concern). `Ne` returns the full domain (conservative).
    pub fn from_op(op: CompOp, value: Value) -> Self {
        match op {
            CompOp::Eq => Interval::point(value),
            CompOp::Ne => Interval::full(),
            CompOp::Lt => Interval {
                lo: Endpoint::Unbounded,
                hi: Endpoint::Open(value),
            },
            CompOp::Le => Interval {
                lo: Endpoint::Unbounded,
                hi: Endpoint::Closed(value),
            },
            CompOp::Gt => Interval {
                lo: Endpoint::Open(value),
                hi: Endpoint::Unbounded,
            },
            CompOp::Ge => Interval {
                lo: Endpoint::Closed(value),
                hi: Endpoint::Unbounded,
            },
        }
    }

    /// Interval for a [`Selection`], ignoring its attribute index.
    pub fn from_selection(sel: &Selection) -> Self {
        Interval::from_op(sel.op, sel.value.clone())
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: &Value) -> bool {
        let lo_ok = match &self.lo {
            Endpoint::Unbounded => true,
            Endpoint::Closed(l) => v >= l,
            Endpoint::Open(l) => v > l,
        };
        let hi_ok = match &self.hi {
            Endpoint::Unbounded => true,
            Endpoint::Closed(h) => v <= h,
            Endpoint::Open(h) => v < h,
        };
        lo_ok && hi_ok
    }

    /// Do two intervals share at least one point?
    ///
    /// Conservative for non-dense subdomains (e.g. `(3,4)` over integers
    /// reports overlap with `(3,4)`), which is acceptable: index answers
    /// may be supersets.
    pub fn intersects(&self, other: &Interval) -> bool {
        // self.lo must not exceed other.hi and vice versa.
        fn lo_le_hi(lo: &Endpoint, hi: &Endpoint) -> bool {
            match (lo, hi) {
                (Endpoint::Unbounded, _) | (_, Endpoint::Unbounded) => true,
                (Endpoint::Closed(l), Endpoint::Closed(h)) => l <= h,
                (Endpoint::Closed(l), Endpoint::Open(h))
                | (Endpoint::Open(l), Endpoint::Closed(h))
                | (Endpoint::Open(l), Endpoint::Open(h)) => l < h,
            }
        }
        lo_le_hi(&self.lo, &other.hi) && lo_le_hi(&other.lo, &self.hi)
    }

    /// Intersection of two intervals, `None` when disjoint.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        if !self.intersects(other) {
            return None;
        }
        fn max_lo(a: &Endpoint, b: &Endpoint) -> Endpoint {
            match (a, b) {
                (Endpoint::Unbounded, x) | (x, Endpoint::Unbounded) => x.clone(),
                (
                    Endpoint::Closed(va) | Endpoint::Open(va),
                    Endpoint::Closed(vb) | Endpoint::Open(vb),
                ) => {
                    if va > vb {
                        a.clone()
                    } else if vb > va {
                        b.clone()
                    } else if matches!(a, Endpoint::Open(_)) {
                        a.clone()
                    } else {
                        b.clone()
                    }
                }
            }
        }
        fn min_hi(a: &Endpoint, b: &Endpoint) -> Endpoint {
            match (a, b) {
                (Endpoint::Unbounded, x) | (x, Endpoint::Unbounded) => x.clone(),
                (
                    Endpoint::Closed(va) | Endpoint::Open(va),
                    Endpoint::Closed(vb) | Endpoint::Open(vb),
                ) => {
                    if va < vb {
                        a.clone()
                    } else if vb < va {
                        b.clone()
                    } else if matches!(a, Endpoint::Open(_)) {
                        a.clone()
                    } else {
                        b.clone()
                    }
                }
            }
        }
        Some(Interval {
            lo: max_lo(&self.lo, &other.lo),
            hi: min_hi(&self.hi, &other.hi),
        })
    }

    /// Order-preserving numeric key of a value, used for tree geometry
    /// (areas, split choices). Monotone non-strict: `a <= b` implies
    /// `key(a) <= key(b)`. Exact containment is always re-checked against
    /// the real interval, so precision loss here only costs pruning power.
    ///
    /// The key line follows [`Value`]'s order: `Null` at -∞, then the
    /// two booleans, then every number (an `i64` is at most 2^63 in
    /// magnitude; floats clamp just past that), then NaN, then strings.
    pub fn value_key(v: &Value) -> f64 {
        const STR_OFFSET: f64 = 1e19;
        const NUM_CLAMP: f64 = 9.5e18; // past ±2^63 ≈ ±9.22e18
        match v {
            Value::Null => f64::NEG_INFINITY,
            Value::Bool(b) => {
                if *b {
                    -9.7e18
                } else {
                    -9.8e18
                }
            }
            Value::Int(i) => *i as f64,
            Value::Float(f) => {
                if f.is_nan() {
                    9.6e18 // NaN sorts above all numbers in Value's order
                } else {
                    f.clamp(-NUM_CLAMP, NUM_CLAMP)
                }
            }
            Value::Str(s) => {
                let mut bytes = [0u8; 8];
                for (i, b) in s.as_bytes().iter().take(8).enumerate() {
                    bytes[i] = *b;
                }
                STR_OFFSET + u64::from_be_bytes(bytes) as f64
            }
        }
    }

    /// Numeric [lo, hi] key range for tree geometry.
    pub fn key_range(&self) -> (f64, f64) {
        let lo = match &self.lo {
            Endpoint::Unbounded => f64::NEG_INFINITY,
            Endpoint::Closed(v) | Endpoint::Open(v) => Self::value_key(v),
        };
        let hi = match &self.hi {
            Endpoint::Unbounded => f64::INFINITY,
            Endpoint::Closed(v) | Endpoint::Open(v) => Self::value_key(v),
        };
        (lo, hi)
    }

    /// Is this the full domain?
    pub fn is_full(&self) -> bool {
        self.lo == Endpoint::Unbounded && self.hi == Endpoint::Unbounded
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Endpoint::Unbounded => write!(f, "(-∞")?,
            Endpoint::Closed(v) => write!(f, "[{v}")?,
            Endpoint::Open(v) => write!(f, "({v}")?,
        }
        write!(f, ", ")?;
        match &self.hi {
            Endpoint::Unbounded => write!(f, "∞)"),
            Endpoint::Closed(v) => write!(f, "{v}]"),
            Endpoint::Open(v) => write!(f, "{v})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(op: CompOp, v: i64) -> Interval {
        Interval::from_op(op, Value::Int(v))
    }

    #[test]
    fn from_op_contains_matches_op_semantics() {
        for op in [CompOp::Eq, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge] {
            let i = iv(op, 10);
            for x in 0..20 {
                let v = Value::Int(x);
                assert_eq!(
                    i.contains(&v),
                    op.eval(&v, &Value::Int(10)),
                    "op {op:?} at {x}"
                );
            }
        }
        // Ne widens to full domain (false drops allowed).
        assert!(iv(CompOp::Ne, 10).contains(&Value::Int(10)));
    }

    #[test]
    fn intersects_cases() {
        assert!(iv(CompOp::Le, 5).intersects(&iv(CompOp::Ge, 5)));
        assert!(!iv(CompOp::Lt, 5).intersects(&iv(CompOp::Gt, 5)));
        assert!(!iv(CompOp::Lt, 5).intersects(&iv(CompOp::Ge, 5)));
        assert!(!iv(CompOp::Le, 5).intersects(&iv(CompOp::Gt, 5)));
        assert!(Interval::full().intersects(&Interval::point(Value::str("x"))));
        assert!(iv(CompOp::Ge, 3).intersects(&iv(CompOp::Le, 9)));
    }

    #[test]
    fn intersection_endpoint_tightness() {
        let a = iv(CompOp::Ge, 3); // [3, inf)
        let b = iv(CompOp::Gt, 3); // (3, inf)
        let c = a.intersection(&b).unwrap();
        assert_eq!(c.lo, Endpoint::Open(Value::Int(3)));
        let d = iv(CompOp::Le, 7).intersection(&iv(CompOp::Lt, 7)).unwrap();
        assert_eq!(d.hi, Endpoint::Open(Value::Int(7)));
        assert_eq!(iv(CompOp::Lt, 2).intersection(&iv(CompOp::Gt, 5)), None);
    }

    #[test]
    fn point_interval() {
        let p = Interval::point(Value::str("Toy"));
        assert!(p.contains(&Value::str("Toy")));
        assert!(!p.contains(&Value::str("Shoe")));
    }

    #[test]
    fn value_key_is_monotone_across_samples() {
        let samples = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-1e19),
            Value::Int(i64::MIN),
            Value::Int(-2_000_000_000_000_000_000),
            Value::Int(-5),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(3),
            Value::Int(9_000_000_000_000_000_000),
            Value::Int(i64::MAX),
            Value::Float(1e19),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("abc"),
            Value::str("abd"),
            Value::str("b"),
        ];
        for a in &samples {
            for b in &samples {
                if a <= b {
                    assert!(
                        Interval::value_key(a) <= Interval::value_key(b),
                        "key monotone for {a:?} <= {b:?}"
                    );
                }
            }
        }
        assert!(samples.windows(2).all(|w| w[0] < w[1]), "samples ascend");
    }

    /// Values of magnitude below 8.9e18, and all strings, keep the keys
    /// they always had, so the trees built over them keep their shapes.
    #[test]
    fn value_key_is_unchanged_inside_the_old_clamp() {
        assert_eq!(Interval::value_key(&Value::Int(-7)), -7.0);
        assert_eq!(Interval::value_key(&Value::Float(8.8e18)), 8.8e18);
        assert_eq!(Interval::value_key(&Value::Float(-2.5)), -2.5);
        assert_eq!(Interval::value_key(&Value::str("")), 1e19);
    }

    #[test]
    fn display() {
        assert_eq!(iv(CompOp::Ge, 3).to_string(), "[3, ∞)");
        assert_eq!(iv(CompOp::Lt, 7).to_string(), "(-∞, 7)");
        assert_eq!(Interval::point(Value::Int(4)).to_string(), "[4, 4]");
    }
}
