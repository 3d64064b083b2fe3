//! # predindex — predicate indexing for rule conditions
//!
//! "In Predicate Indexing, a data structure similar to a discrimination
//! network is built. Such a structure allows for the efficient search and
//! detection of conditions (LHS's) affected by the insertion of a specific
//! tuple in the database." (§2.3, citing \[STON86a\]). The paper proposes
//! R-trees \[GUTT84\] and R+-trees \[SELL87\] over the *predicate space*: each
//! variable-free condition element becomes a hyper-rectangle (one interval
//! per attribute), and two query shapes matter:
//!
//! * **point stabbing** — which conditions does this inserted/deleted
//!   tuple satisfy? (the matching fast path, §4.1.2);
//! * **box queries** — rule-base introspection such as *"give me all the
//!   rules that apply on employees older than 55"* (§4.2.3).
//!
//! The condition set is static: a rule base is compiled once, its
//! condition elements are inserted once, and nothing is ever removed
//! (the COND relations of §4.1 hold one entry per condition element for
//! the life of the program). The indexes therefore support insertion and
//! the two queries only.
//!
//! Three interchangeable implementations share the [`ConditionIndex`]
//! trait: [`LinearIndex`] (scan baseline), [`RTree`] (Guttman, quadratic
//! split), and [`RPlusTree`] (non-overlapping, clipped). Experiment E9
//! compares them.
//!
//! ```
//! use predindex::{ConditionIndex, RTree, Rect};
//! use relstore::{tuple, CompOp, Restriction, Selection};
//!
//! // Conditions over Emp(name, age): "age >= 65" and "age < 30".
//! let mut idx: RTree<&str> = RTree::new(2);
//! let retire = Rect::from_restriction(2, &Restriction::new(vec![
//!     Selection::new(1, CompOp::Ge, 65),
//! ])).unwrap();
//! let junior = Rect::from_restriction(2, &Restriction::new(vec![
//!     Selection::new(1, CompOp::Lt, 30),
//! ])).unwrap();
//! idx.insert(retire, "retire");
//! idx.insert(junior, "junior");
//!
//! // Which conditions does a concrete employee satisfy?
//! assert_eq!(idx.stab(&tuple!["Ann", 70]), vec!["retire"]);
//! assert_eq!(idx.stab(&tuple!["Bob", 40]), Vec::<&str>::new());
//! ```

pub mod interval;
pub mod linear;
pub mod rect;
pub mod rplus;
pub mod rtree;

pub use interval::{Endpoint, Interval};
pub use linear::LinearIndex;
pub use rect::{key_point, NumRect, Rect};
pub use rplus::RPlusTree;
pub use rtree::RTree;

use relstore::Tuple;

/// A set of predicate rectangles, built by insertion, supporting
/// stabbing and overlap queries. Payloads identify conditions, e.g.
/// `(RuleId, cond#)`.
pub trait ConditionIndex<T: Clone> {
    /// Add a condition rectangle.
    fn insert(&mut self, rect: Rect, payload: T);

    /// All conditions satisfied by this tuple (exact, no false drops).
    fn stab(&self, tuple: &Tuple) -> Vec<T>;

    /// All conditions whose rectangle overlaps `rect` (rule-base query).
    fn query(&self, rect: &Rect) -> Vec<T>;

    /// Number of stored conditions (not counting clipped copies).
    fn len(&self) -> usize;

    /// True when no conditions are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nodes (or, for the linear baseline, items) inspected since the last
    /// [`ConditionIndex::reset_visits`] — the E9 cost metric.
    fn node_visits(&self) -> u64;

    /// Zero the visit counter.
    fn reset_visits(&self);
}

/// Which index implementation to instantiate (experiment configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Scan every condition (baseline).
    Linear,
    /// Guttman R-tree (quadratic split).
    RTree,
    /// R+-tree (non-overlapping, clipped).
    RPlus,
}

/// Construct a boxed index of the requested kind.
pub fn make_index<T: Clone + Send + Sync + 'static>(
    kind: IndexKind,
    arity: usize,
) -> Box<dyn ConditionIndex<T> + Send + Sync> {
    match kind {
        IndexKind::Linear => Box::new(LinearIndex::new()),
        IndexKind::RTree => Box::new(RTree::new(arity)),
        IndexKind::RPlus => Box::new(RPlusTree::new(arity)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{tuple, CompOp, Restriction, Selection, Value};

    fn cond(arity: usize, tests: Vec<Selection>) -> Rect {
        Rect::from_restriction(arity, &Restriction::new(tests)).unwrap()
    }

    /// All three implementations must agree with each other.
    #[test]
    fn implementations_agree_on_random_workload() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut linear = LinearIndex::new();
        let mut rtree = RTree::new(2);
        let mut rplus = RPlusTree::new(2);
        for id in 0..300u32 {
            let lo = rng.gen_range(0..100i64);
            let hi = lo + rng.gen_range(0..20i64);
            let d2 = rng.gen_range(0..10i64);
            let rect = cond(
                2,
                vec![
                    Selection::new(0, CompOp::Ge, lo),
                    Selection::new(0, CompOp::Le, hi),
                    Selection::eq(1, d2),
                ],
            );
            linear.insert(rect.clone(), id);
            rtree.insert(rect.clone(), id);
            rplus.insert(rect, id);
        }
        // Conditions bounded by, and points at, the edges of the key map.
        let mut id = 300;
        for bound in extremes() {
            for op in [CompOp::Eq, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge] {
                let rect = cond(2, vec![Selection::new(0, op, bound.clone())]);
                linear.insert(rect.clone(), id);
                rtree.insert(rect.clone(), id);
                rplus.insert(rect, id);
                id += 1;
            }
        }
        let random = (0..200).map(|_| tuple![rng.gen_range(0..120i64), rng.gen_range(0..12i64)]);
        let edges = extremes().into_iter().map(|v| tuple![v, 5]);
        for p in random.chain(edges) {
            let mut a = linear.stab(&p);
            let mut b = rtree.stab(&p);
            let mut c = rplus.stab(&p);
            a.sort_unstable();
            b.sort_unstable();
            c.sort_unstable();
            assert_eq!(a, b, "rtree disagrees at {p}");
            assert_eq!(a, c, "rplus disagrees at {p}");
        }
    }

    /// Values at the edges of the key map: infinities, NaN, the i64
    /// limits, floats past them, and both booleans.
    fn extremes() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-1e19),
            Value::Int(i64::MIN),
            Value::Int(-2_000_000_000_000_000_000),
            Value::Int(0),
            Value::Int(9_000_000_000_000_000_000),
            Value::Int(i64::MAX),
            Value::Float(1e19),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::str("a"),
        ]
    }

    #[test]
    fn make_index_dispatch() {
        for kind in [IndexKind::Linear, IndexKind::RTree, IndexKind::RPlus] {
            let mut idx = make_index::<u32>(kind, 1);
            idx.insert(cond(1, vec![Selection::new(1 - 1, CompOp::Ge, 55)]), 1);
            assert_eq!(idx.stab(&tuple![60]), vec![1]);
            assert!(idx.stab(&tuple![50]).is_empty());
            assert_eq!(idx.len(), 1);
            assert!(!idx.is_empty());
        }
    }

    #[test]
    fn rulebase_query_older_than_55() {
        // The paper's example: "Give me all the rules that apply on
        // employees older than 55". Conditions over Emp(name, age).
        let mut idx: RTree<&'static str> = RTree::new(2);
        idx.insert(cond(2, vec![Selection::new(1, CompOp::Ge, 65)]), "retire");
        idx.insert(
            cond(
                2,
                vec![
                    Selection::new(1, CompOp::Ge, 40),
                    Selection::new(1, CompOp::Lt, 50),
                ],
            ),
            "midcareer",
        );
        idx.insert(cond(2, vec![Selection::eq(0, "Mike")]), "mike-rule");
        let q = Rect::from_restriction(
            2,
            &Restriction::new(vec![Selection::new(1, CompOp::Gt, 55)]),
        )
        .unwrap();
        let mut hits = idx.query(&q);
        hits.sort_unstable();
        assert_eq!(hits, vec!["mike-rule", "retire"]);
    }
}
