//! Predicate rectangles: one interval per attribute.

use std::fmt;

use relstore::{Restriction, Tuple};

use crate::interval::Interval;

/// A k-dimensional box over the value domain; dimension `i` constrains
/// attribute `i` of the relation the condition is defined on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rect {
    dims: Vec<Interval>,
}

impl Rect {
    /// The full space in `arity` dimensions.
    pub fn full(arity: usize) -> Self {
        Rect {
            dims: (0..arity).map(|_| Interval::full()).collect(),
        }
    }

    /// Create a new, empty instance.
    pub fn new(dims: Vec<Interval>) -> Self {
        Rect { dims }
    }

    /// Build from a variable-free restriction on a relation of `arity`
    /// attributes. Multiple tests on one attribute intersect; contradictory
    /// tests yield `None` (the condition can never match).
    pub fn from_restriction(arity: usize, restriction: &Restriction) -> Option<Self> {
        let mut dims: Vec<Interval> = (0..arity).map(|_| Interval::full()).collect();
        for sel in &restriction.tests {
            if sel.attr >= arity {
                return None;
            }
            let iv = Interval::from_selection(sel);
            dims[sel.attr] = dims[sel.attr].intersection(&iv)?;
        }
        Some(Rect { dims })
    }

    /// Number of dimensions (attributes).
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// The per-attribute intervals.
    pub fn dims(&self) -> &[Interval] {
        &self.dims
    }

    /// Point-stabbing: does the tuple lie inside the box?
    pub fn contains_tuple(&self, tuple: &Tuple) -> bool {
        self.dims.len() == tuple.arity()
            && self
                .dims
                .iter()
                .zip(tuple.values())
                .all(|(iv, v)| iv.contains(v))
    }

    /// Do two boxes overlap (in every dimension)?
    pub fn intersects(&self, other: &Rect) -> bool {
        self.dims.len() == other.dims.len()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|(a, b)| a.intersects(b))
    }

    /// Numeric bounding box for tree geometry.
    pub fn num_bbox(&self) -> NumRect {
        let mut lo = Vec::with_capacity(self.dims.len());
        let mut hi = Vec::with_capacity(self.dims.len());
        for d in &self.dims {
            let (l, h) = d.key_range();
            lo.push(l);
            hi.push(h);
        }
        NumRect { lo, hi }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Numeric (f64) rectangle used for tree navigation: the key range of
/// each interval ([`Interval::key_range`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NumRect {
    /// Lower bounds per dimension.
    pub lo: Vec<f64>,
    /// Upper bounds per dimension.
    pub hi: Vec<f64>,
}

impl NumRect {
    /// The empty rectangle (inverted bounds) in `arity` dimensions.
    pub fn empty(arity: usize) -> Self {
        NumRect {
            lo: vec![f64::INFINITY; arity],
            hi: vec![f64::NEG_INFINITY; arity],
        }
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.lo.len()
    }

    /// Grow to cover `other`.
    pub fn enlarge(&mut self, other: &NumRect) {
        for i in 0..self.lo.len() {
            self.lo[i] = self.lo[i].min(other.lo[i]);
            self.hi[i] = self.hi[i].max(other.hi[i]);
        }
    }

    /// Do the rectangles overlap in every dimension? A point is the
    /// rectangle whose bounds coincide.
    pub fn intersects(&self, other: &NumRect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((alo, ahi), (blo, bhi))| alo <= bhi && blo <= ahi)
    }
}

/// Map a tuple to its numeric key point.
pub fn key_point(tuple: &Tuple) -> Vec<f64> {
    tuple.values().iter().map(Interval::value_key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{tuple, CompOp, Selection};

    #[test]
    fn rect_from_restriction_and_stabbing() {
        // (Dept ^dname Toy ^floor 1) over arity-4 Dept(dno,dname,floor,mgr)
        let r = Restriction::new(vec![Selection::eq(1, "Toy"), Selection::eq(2, 1)]);
        let rect = Rect::from_restriction(4, &r).unwrap();
        assert!(rect.contains_tuple(&tuple![7, "Toy", 1, "Sam"]));
        assert!(!rect.contains_tuple(&tuple![7, "Shoe", 1, "Sam"]));
        assert!(!rect.contains_tuple(&tuple![7, "Toy", 2, "Sam"]));
    }

    #[test]
    fn contradictory_restriction_is_none() {
        let r = Restriction::new(vec![
            Selection::new(0, CompOp::Lt, 3),
            Selection::new(0, CompOp::Gt, 5),
        ]);
        assert!(Rect::from_restriction(2, &r).is_none());
    }

    #[test]
    fn multiple_tests_same_attr_intersect() {
        let r = Restriction::new(vec![
            Selection::new(0, CompOp::Ge, 3),
            Selection::new(0, CompOp::Lt, 7),
        ]);
        let rect = Rect::from_restriction(1, &r).unwrap();
        assert!(rect.contains_tuple(&tuple![3]));
        assert!(rect.contains_tuple(&tuple![6]));
        assert!(!rect.contains_tuple(&tuple![7]));
    }

    #[test]
    fn rect_intersection() {
        let a =
            Rect::from_restriction(2, &Restriction::new(vec![Selection::new(0, CompOp::Le, 5)]))
                .unwrap();
        let b =
            Rect::from_restriction(2, &Restriction::new(vec![Selection::new(0, CompOp::Ge, 5)]))
                .unwrap();
        let c =
            Rect::from_restriction(2, &Restriction::new(vec![Selection::new(0, CompOp::Gt, 5)]))
                .unwrap();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn out_of_range_attr_is_none() {
        let r = Restriction::new(vec![Selection::eq(5, 1)]);
        assert!(Rect::from_restriction(2, &r).is_none());
    }

    #[test]
    fn numrect_geometry() {
        let a = NumRect {
            lo: vec![0.0, 0.0],
            hi: vec![2.0, 2.0],
        };
        let b = NumRect {
            lo: vec![1.0, 1.0],
            hi: vec![3.0, 3.0],
        };
        let point = NumRect {
            lo: vec![2.5, 0.5],
            hi: vec![2.5, 0.5],
        };
        assert!(a.intersects(&b));
        assert!(!a.intersects(&point));
        let mut e = NumRect::empty(2);
        assert!(!e.intersects(&point));
        e.enlarge(&a);
        assert_eq!(e, a);
        e.enlarge(&b);
        assert!(e.intersects(&point));
    }
}
