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
//! The condition set is static: a rule base is compiled once and nothing
//! is ever removed (the COND relations of §4.1 hold one entry per
//! condition element for the life of the program). So an index is built
//! once, from the whole set, by [`build`], and answers the two queries
//! only.
//!
//! [`IndexKind`] picks the structure: a linear scan (the reference every
//! tree must agree with), a Sort-Tile-Recursive packed R-tree, or a
//! top-down R+-tree (disjoint regions, clipped entries). The trees only
//! navigate numeric bounding boxes; every candidate then gets the exact
//! interval check, so every kind returns the same hits, in build order.
//! Experiment E9 compares them.
//!
//! ```
//! use predindex::{build, IndexKind, Rect};
//! use relstore::{tuple, CompOp, Restriction, Selection};
//!
//! // Conditions over Emp(name, age): "age >= 65" and "age < 30".
//! let retire = Rect::from_restriction(2, &Restriction::new(vec![
//!     Selection::new(1, CompOp::Ge, 65),
//! ])).unwrap();
//! let junior = Rect::from_restriction(2, &Restriction::new(vec![
//!     Selection::new(1, CompOp::Lt, 30),
//! ])).unwrap();
//! let idx = build(IndexKind::RTree, 2, vec![(retire, "retire"), (junior, "junior")]);
//!
//! // Which conditions does a concrete employee satisfy?
//! assert_eq!(idx.stab(&tuple!["Ann", 70]), vec!["retire"]);
//! assert_eq!(idx.stab(&tuple!["Bob", 40]), Vec::<&str>::new());
//! ```

pub mod interval;
pub mod rect;
mod rplus;
mod rtree;

pub use interval::{Endpoint, Interval};
pub use rect::{key_point, NumRect, Rect};

use std::sync::atomic::{AtomicU64, Ordering};

use relstore::Tuple;

/// Which index structure to build (experiment configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Test every condition (the reference; what a DBMS without predicate
    /// indexing does, compare \[BLAK86a\], §3.1).
    Linear,
    /// R-tree, Sort-Tile-Recursive packed.
    RTree,
    /// R+-tree: disjoint regions, entries clipped into every region they
    /// cross.
    RPlus,
}

enum Tree {
    R(rtree::RTree),
    RPlus(rplus::RPlusTree),
}

impl Tree {
    /// Report every entry whose box meets `near`; returns the nodes
    /// visited.
    fn search(&self, boxes: &[NumRect], near: &NumRect, mut hit: impl FnMut(u32)) -> u64 {
        match self {
            Tree::R(t) => t.search(boxes, near, &mut hit),
            Tree::RPlus(t) => t.search(boxes, near, &mut hit),
        }
    }
}

/// A static set of predicate rectangles with payloads (e.g. `(rule,
/// cen)`), answering stabbing and overlap queries.
pub struct ConditionIndex<T> {
    arity: usize,
    /// The conditions in build order; the trees refer to them by position.
    items: Vec<(Rect, T)>,
    boxes: Vec<NumRect>,
    /// `None` for the linear kind, which tests every condition exactly
    /// and reads no numeric box.
    tree: Option<Tree>,
    visits: AtomicU64,
}

/// Build an index of `kind` over conditions of `arity` attributes. Hits
/// come back in the order of `conditions`.
pub fn build<T: Clone>(
    kind: IndexKind,
    arity: usize,
    conditions: Vec<(Rect, T)>,
) -> ConditionIndex<T> {
    debug_assert!(conditions.iter().all(|(r, _)| r.arity() == arity));
    assert!(conditions.len() <= u32::MAX as usize, "positions are u32");
    let boxes: Vec<NumRect> = conditions.iter().map(|(r, _)| r.num_bbox()).collect();
    let tree = match kind {
        IndexKind::Linear => None,
        IndexKind::RTree => Some(Tree::R(rtree::RTree::pack(&boxes))),
        IndexKind::RPlus => Some(Tree::RPlus(rplus::RPlusTree::split(&boxes))),
    };
    ConditionIndex {
        arity,
        items: conditions,
        boxes,
        tree,
        visits: AtomicU64::new(0),
    }
}

impl<T: Clone> ConditionIndex<T> {
    /// All conditions satisfied by this tuple (exact, no false drops), in
    /// build order. A tuple of another arity satisfies none.
    pub fn stab(&self, tuple: &Tuple) -> Vec<T> {
        if tuple.arity() != self.arity {
            return Vec::new();
        }
        let exact = |r: &Rect| r.contains_tuple(tuple);
        let Some(tree) = &self.tree else {
            return self.scan(exact);
        };
        let point = key_point(tuple);
        let near = NumRect {
            lo: point.clone(),
            hi: point,
        };
        // A point reaches each entry through one leaf at most. A stab's
        // few hits sort faster than a bit set over every entry would be
        // built, and allocate by the hits, not by the index size.
        let mut found = Vec::new();
        self.count(tree.search(&self.boxes, &near, |e| found.push(e)));
        found.sort_unstable();
        self.payloads(found, exact)
    }

    /// All conditions whose rectangle overlaps `rect` (rule-base query),
    /// in build order. A rectangle of another arity overlaps none.
    pub fn query(&self, rect: &Rect) -> Vec<T> {
        if rect.arity() != self.arity {
            return Vec::new();
        }
        let exact = |r: &Rect| r.intersects(rect);
        let Some(tree) = &self.tree else {
            return self.scan(exact);
        };
        // A region may reach a clipped entry through several leaves and
        // hit a large share of the set: collect into a bit set.
        let mut bits = vec![0u64; self.items.len().div_ceil(64)];
        let near = rect.num_bbox();
        self.count(tree.search(&self.boxes, &near, |e| {
            bits[e as usize / 64] |= 1 << (e % 64)
        }));
        let mut found = Vec::new();
        for (word, mut b) in (0u32..).zip(bits) {
            while b != 0 {
                found.push(word * 64 + b.trailing_zeros());
                b &= b - 1;
            }
        }
        self.payloads(found, exact)
    }

    /// The linear kind: every condition that passes `exact`.
    fn scan(&self, exact: impl Fn(&Rect) -> bool) -> Vec<T> {
        self.count(self.items.len() as u64);
        let hits = self.items.iter().filter(|(rect, _)| exact(rect));
        hits.map(|(_, payload)| payload.clone()).collect()
    }

    /// The payloads of the `found` positions whose rectangle passes `exact`.
    fn payloads(&self, found: Vec<u32>, exact: impl Fn(&Rect) -> bool) -> Vec<T> {
        let mut out = Vec::with_capacity(found.len());
        for e in found {
            let (rect, payload) = &self.items[e as usize];
            if exact(rect) {
                out.push(payload.clone());
            }
        }
        out
    }

    fn count(&self, visits: u64) {
        self.visits.fetch_add(visits, Ordering::Relaxed);
    }

    /// Number of stored conditions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no conditions are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Nodes (for the linear kind, conditions) inspected since the last
    /// [`ConditionIndex::reset_visits`] — the E9 cost metric.
    pub fn node_visits(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    /// Zero the visit counter.
    pub fn reset_visits(&self) {
        self.visits.store(0, Ordering::Relaxed);
    }
}

/// Report entry `e` when its box meets `near`: the check at a leaf.
fn leaf_hit(boxes: &[NumRect], e: u32, near: &NumRect, hit: &mut impl FnMut(u32)) {
    if boxes[e as usize].intersects(near) {
        hit(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{tuple, CompOp, Restriction, Selection, Value};

    const KINDS: [IndexKind; 3] = [IndexKind::Linear, IndexKind::RTree, IndexKind::RPlus];

    fn cond(arity: usize, tests: Vec<Selection>) -> Rect {
        Rect::from_restriction(arity, &Restriction::new(tests)).unwrap()
    }

    /// All three kinds must return the same hits in the same order.
    #[test]
    fn implementations_agree_on_random_workload() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut conds = Vec::new();
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
            conds.push((rect, id));
        }
        // Conditions bounded by, and points at, the edges of the key map.
        for bound in extremes() {
            for op in [CompOp::Eq, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge] {
                let rect = cond(2, vec![Selection::new(0, op, bound.clone())]);
                conds.push((rect, conds.len() as u32));
            }
        }
        let [linear, rtree, rplus] = KINDS.map(|k| build(k, 2, conds.clone()));
        let random = (0..200).map(|_| tuple![rng.gen_range(0..120i64), rng.gen_range(0..12i64)]);
        let edges = extremes().into_iter().map(|v| tuple![v, 5]);
        // Tuples of the wrong arity satisfy nothing, on every kind.
        let odd = [tuple![5], tuple![5, 5, 5]];
        for p in random.chain(edges).chain(odd) {
            let a = linear.stab(&p);
            assert_eq!(a, rtree.stab(&p), "rtree disagrees at {p}");
            assert_eq!(a, rplus.stab(&p), "rplus disagrees at {p}");
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
    fn build_dispatch() {
        for kind in KINDS {
            let idx = build(
                kind,
                1,
                vec![(cond(1, vec![Selection::new(0, CompOp::Ge, 55)]), 1)],
            );
            assert_eq!(idx.stab(&tuple![60]), vec![1]);
            assert!(idx.stab(&tuple![50]).is_empty());
            assert_eq!(idx.len(), 1);
            assert!(!idx.is_empty());
        }
    }

    #[test]
    fn empty_index_behaviour() {
        for kind in KINDS {
            let idx = build::<u32>(kind, 3, Vec::new());
            assert!(idx.stab(&tuple![1, 2, 3]).is_empty());
            assert!(idx.query(&Rect::full(3)).is_empty());
            assert!(idx.is_empty());
        }
    }

    #[test]
    fn wrong_arity_rectangle_overlaps_nothing() {
        let conds = (0..40)
            .map(|i| (cond(3, vec![Selection::eq(2, i)]), i))
            .collect::<Vec<_>>();
        for kind in KINDS {
            let idx = build(kind, 3, conds.clone());
            assert!(idx.stab(&tuple![1]).is_empty(), "{kind:?}");
            assert!(idx.query(&Rect::full(1)).is_empty(), "{kind:?}");
            assert_eq!(idx.query(&Rect::full(3)).len(), 40, "{kind:?}");
        }
    }

    #[test]
    fn linear_stab_counts_every_condition() {
        let conds = (0..10).map(|i| (cond(1, vec![Selection::new(0, CompOp::Ge, i)]), i));
        let idx = build(IndexKind::Linear, 1, conds.collect());
        assert_eq!(idx.stab(&tuple![5]), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(idx.node_visits(), 10);
    }

    #[test]
    fn exact_check_filters_key_collisions() {
        // Strings sharing an 8-byte prefix have colliding numeric keys.
        let conds = vec![
            (cond(1, vec![Selection::eq(0, "prefix-aaaa")]), "a"),
            (cond(1, vec![Selection::eq(0, "prefix-aaab")]), "b"),
        ];
        for kind in KINDS {
            let idx = build(kind, 1, conds.clone());
            assert_eq!(idx.stab(&tuple!["prefix-aaab"]), vec!["b"]);
        }
    }

    #[test]
    fn query_box_overlap() {
        let conds = (0..20i64).map(|i| {
            let tests = vec![
                Selection::new(0, CompOp::Ge, i),
                Selection::new(0, CompOp::Le, i + 4),
            ];
            (cond(1, tests), i as u32)
        });
        let conds: Vec<_> = conds.collect();
        // Rule-base query: which conditions overlap [10, 12]?
        let q = cond(
            1,
            vec![
                Selection::new(0, CompOp::Ge, 10),
                Selection::new(0, CompOp::Le, 12),
            ],
        );
        for kind in KINDS {
            let idx = build(kind, 1, conds.clone());
            assert_eq!(idx.query(&q), (6..=12).collect::<Vec<u32>>(), "{kind:?}");
        }
    }

    #[test]
    fn rulebase_query_older_than_55() {
        // The paper's example: "Give me all the rules that apply on
        // employees older than 55". Conditions over Emp(name, age).
        let midcareer = vec![
            Selection::new(1, CompOp::Ge, 40),
            Selection::new(1, CompOp::Lt, 50),
        ];
        let conds = vec![
            (cond(2, vec![Selection::new(1, CompOp::Ge, 65)]), "retire"),
            (cond(2, midcareer), "midcareer"),
            (cond(2, vec![Selection::eq(0, "Mike")]), "mike-rule"),
        ];
        let q = cond(2, vec![Selection::new(1, CompOp::Gt, 55)]);
        for kind in KINDS {
            let idx = build(kind, 2, conds.clone());
            assert_eq!(idx.query(&q), vec!["retire", "mike-rule"]);
        }
    }
}
