//! R+-tree: a non-overlapping condition index.
//!
//! §4.2.3 and \[SELL87\] advocate R+-trees on COND relations "as fast
//! matching devices". The defining property — internal regions never
//! overlap, objects crossing a region boundary are *clipped* into both
//! sides — means a point-stabbing query descends exactly one path. This
//! implementation realizes that property with recursive binary space
//! splits (a kd-flavored variant of the published packing algorithm):
//! each overflowing leaf is split by a cut plane, entries crossing the cut
//! are duplicated, and sibling regions stay disjoint by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use relstore::Tuple;

use crate::rect::{key_point, NumRect, Rect};
use crate::ConditionIndex;

const MAX_ENTRIES: usize = 8;

#[derive(Debug)]
struct Entry<T> {
    rect: Rect,
    bbox: NumRect,
    payload: T,
}

#[derive(Debug)]
enum Node<T> {
    Leaf {
        entries: Vec<Arc<Entry<T>>>,
    },
    Inner {
        dim: usize,
        cut: f64,
        left: Box<Node<T>>,
        right: Box<Node<T>>,
    },
}

/// An R+-tree mapping predicate rectangles to payloads.
#[derive(Debug)]
pub struct RPlusTree<T> {
    arity: usize,
    root: Node<T>,
    len: usize,
    visits: AtomicU64,
}

impl<T: Clone> RPlusTree<T> {
    /// Create a new, empty instance.
    pub fn new(arity: usize) -> Self {
        RPlusTree {
            arity,
            root: Node::Leaf {
                entries: Vec::new(),
            },
            len: 0,
            visits: AtomicU64::new(0),
        }
    }

    /// Choose a cut for an overflowing set of entries: the dimension with
    /// the most distinct finite lower keys, cutting at the median.
    /// Returns `None` when no cut separates anything (all entries
    /// identical in key space) — the leaf then stays oversized.
    fn choose_cut(entries: &[Arc<Entry<T>>], arity: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, usize)> = None; // (dim, cut, distinct)
        for d in 0..arity {
            let mut los: Vec<f64> = entries
                .iter()
                .map(|e| e.bbox.lo[d])
                .filter(|x| x.is_finite())
                .collect();
            los.sort_by(f64::total_cmp);
            los.dedup();
            if los.len() < 2 {
                continue;
            }
            let cut = los[los.len() / 2];
            let distinct = los.len();
            if best.is_none_or(|(_, _, bd)| distinct > bd) {
                best = Some((d, cut, distinct));
            }
        }
        best.map(|(d, c, _)| (d, c))
    }

    /// Does an entry belong to the left side of a cut? (strictly below)
    /// An entry crossing the cut belongs to both (clipping).
    fn sides(e: &Entry<T>, dim: usize, cut: f64) -> (bool, bool) {
        let left = e.bbox.lo[dim] < cut;
        let right = e.bbox.hi[dim] >= cut;
        (left, right)
    }

    fn insert_rec(node: &mut Node<T>, entry: &Arc<Entry<T>>, arity: usize) {
        match node {
            Node::Leaf { entries } => {
                entries.push(entry.clone());
                if entries.len() > MAX_ENTRIES {
                    if let Some((dim, cut)) = Self::choose_cut(entries, arity) {
                        let n = entries.len();
                        let mut left = Vec::new();
                        let mut right = Vec::new();
                        for e in entries.drain(..) {
                            let (l, r) = Self::sides(&e, dim, cut);
                            if l {
                                left.push(e.clone());
                            }
                            if r {
                                right.push(e);
                            }
                        }
                        // The cut must make strict progress on BOTH sides;
                        // otherwise a child identical to its parent keeps
                        // splitting forever and clipping duplicates every
                        // spanning entry exponentially. Degenerate cuts
                        // keep the oversized leaf instead.
                        if left.len() >= n || right.len() >= n {
                            let mut seen: Vec<*const Entry<T>> = Vec::with_capacity(n);
                            let mut all = Vec::with_capacity(n);
                            for e in left.into_iter().chain(right) {
                                let p = Arc::as_ptr(&e);
                                if !seen.contains(&p) {
                                    seen.push(p);
                                    all.push(e);
                                }
                            }
                            *entries = all;
                            return;
                        }
                        *node = Node::Inner {
                            dim,
                            cut,
                            left: Box::new(Node::Leaf { entries: left }),
                            right: Box::new(Node::Leaf { entries: right }),
                        };
                    }
                }
            }
            Node::Inner {
                dim,
                cut,
                left,
                right,
            } => {
                let (l, r) = Self::sides(entry, *dim, *cut);
                if l {
                    Self::insert_rec(left, entry, arity);
                }
                if r {
                    Self::insert_rec(right, entry, arity);
                }
            }
        }
    }

    fn stab_rec<'a>(
        &self,
        node: &'a Node<T>,
        point: &[f64],
        tuple: &Tuple,
        out: &mut Vec<&'a Arc<Entry<T>>>,
    ) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        match node {
            Node::Leaf { entries } => {
                for e in entries {
                    if e.bbox.contains_key_point(point) && e.rect.contains_tuple(tuple) {
                        out.push(e);
                    }
                }
            }
            Node::Inner {
                dim,
                cut,
                left,
                right,
            } => {
                // Disjoint regions: exactly one side owns the point.
                if point[*dim] < *cut {
                    self.stab_rec(left, point, tuple, out);
                } else {
                    self.stab_rec(right, point, tuple, out);
                }
            }
        }
    }

    fn query_rec<'a>(
        &self,
        node: &'a Node<T>,
        rect: &Rect,
        nbox: &NumRect,
        out: &mut Vec<&'a Arc<Entry<T>>>,
    ) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        match node {
            Node::Leaf { entries } => {
                for e in entries {
                    if e.bbox.intersects(nbox) && e.rect.intersects(rect) {
                        out.push(e);
                    }
                }
            }
            Node::Inner {
                dim,
                cut,
                left,
                right,
            } => {
                if nbox.lo[*dim] < *cut {
                    self.query_rec(left, rect, nbox, out);
                }
                if nbox.hi[*dim] >= *cut {
                    self.query_rec(right, rect, nbox, out);
                }
            }
        }
    }

    /// Total stored entry copies, counting clipped duplicates — the space
    /// overhead R+-trees pay for single-path stabbing.
    pub fn stored_copies(&self) -> usize {
        fn go<T>(n: &Node<T>) -> usize {
            match n {
                Node::Leaf { entries } => entries.len(),
                Node::Inner { left, right, .. } => go(left) + go(right),
            }
        }
        go(&self.root)
    }

    /// Maximum depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn go<T>(n: &Node<T>) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Inner { left, right, .. } => 1 + go(left).max(go(right)),
            }
        }
        go(&self.root)
    }
}

/// Deduplicate clipped copies by identity, preserving order.
fn dedup_by_ptr<T: Clone>(hits: Vec<&Arc<Entry<T>>>) -> Vec<T> {
    let mut seen: std::collections::HashSet<*const Entry<T>> =
        std::collections::HashSet::with_capacity(hits.len());
    let mut out = Vec::with_capacity(hits.len());
    for e in hits {
        if seen.insert(Arc::as_ptr(e)) {
            out.push(e.payload.clone());
        }
    }
    out
}

impl<T: Clone> ConditionIndex<T> for RPlusTree<T> {
    fn insert(&mut self, rect: Rect, payload: T) {
        debug_assert_eq!(rect.arity(), self.arity);
        let bbox = rect.num_bbox();
        let entry = Arc::new(Entry {
            rect,
            bbox,
            payload,
        });
        Self::insert_rec(&mut self.root, &entry, self.arity);
        self.len += 1;
    }

    fn stab(&self, tuple: &Tuple) -> Vec<T> {
        let point = key_point(tuple);
        let mut hits = Vec::new();
        self.stab_rec(&self.root, &point, tuple, &mut hits);
        dedup_by_ptr(hits)
    }

    fn query(&self, rect: &Rect) -> Vec<T> {
        let nbox = rect.num_bbox();
        let mut hits = Vec::new();
        self.query_rec(&self.root, rect, &nbox, &mut hits);
        dedup_by_ptr(hits)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn node_visits(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    fn reset_visits(&self) {
        self.visits.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{tuple, CompOp, Restriction, Selection};

    fn cond(arity: usize, tests: Vec<Selection>) -> Rect {
        Rect::from_restriction(arity, &Restriction::new(tests)).unwrap()
    }

    #[test]
    fn stab_visits_single_path() {
        let mut t: RPlusTree<u32> = RPlusTree::new(1);
        for i in 0..500 {
            t.insert(cond(1, vec![Selection::eq(0, i)]), i as u32);
        }
        assert!(t.depth() > 1);
        t.reset_visits();
        assert_eq!(t.stab(&tuple![123]), vec![123]);
        assert_eq!(
            t.node_visits() as usize,
            t.depth().min(t.node_visits() as usize)
        );
        assert!(t.node_visits() <= t.depth() as u64);
    }

    #[test]
    fn overlapping_ranges_are_clipped_and_deduped() {
        let mut t: RPlusTree<u32> = RPlusTree::new(1);
        // Wide overlapping ranges force clipping.
        for i in 0..40i64 {
            t.insert(
                cond(
                    1,
                    vec![
                        Selection::new(0, CompOp::Ge, i),
                        Selection::new(0, CompOp::Le, i + 10),
                    ],
                ),
                i as u32,
            );
        }
        assert!(t.stored_copies() >= t.len(), "clipping duplicates entries");
        let mut hits = t.stab(&tuple![20]);
        hits.sort_unstable();
        assert_eq!(hits, (10..=20).collect::<Vec<u32>>());
        // Query dedups clipped copies.
        let q = cond(
            1,
            vec![
                Selection::new(0, CompOp::Ge, 0),
                Selection::new(0, CompOp::Le, 50),
            ],
        );
        assert_eq!(t.query(&q).len(), 40);
    }

    #[test]
    fn identical_rects_keep_oversized_leaf() {
        let mut t: RPlusTree<u32> = RPlusTree::new(1);
        for i in 0..20 {
            t.insert(cond(1, vec![Selection::eq(0, 7)]), i);
        }
        assert_eq!(t.stab(&tuple![7]).len(), 20);
        assert_eq!(t.depth(), 1, "no useful cut exists");
    }

    #[test]
    fn multidimensional_conditions() {
        let mut t: RPlusTree<&'static str> = RPlusTree::new(3);
        t.insert(
            cond(
                3,
                vec![Selection::eq(0, "Goal"), Selection::eq(1, "Simplify")],
            ),
            "PlusOX",
        );
        t.insert(
            cond(
                3,
                vec![Selection::eq(0, "Expr"), Selection::new(2, CompOp::Gt, 0)],
            ),
            "TimesOX",
        );
        assert_eq!(t.stab(&tuple!["Goal", "Simplify", 0]), vec!["PlusOX"]);
        assert_eq!(t.stab(&tuple!["Expr", "x", 3]), vec!["TimesOX"]);
        assert!(t.stab(&tuple!["Expr", "x", 0]).is_empty());
    }
}
