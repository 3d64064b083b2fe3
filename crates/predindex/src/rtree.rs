//! Guttman R-tree over predicate rectangles (quadratic split).
//!
//! \[STON86a\] (§2.3) proposes indexing rule conditions with spatial trees so
//! that "the efficient search and detection of conditions (LHS's) affected
//! by the insertion of a specific tuple" becomes a point query. Node
//! navigation uses numeric bounding boxes; exact interval checks run at the
//! leaves, so answers are exact even though navigation keys are lossy.

use std::sync::atomic::{AtomicU64, Ordering};

use relstore::Tuple;

use crate::rect::{key_point, NumRect, Rect};
use crate::ConditionIndex;

const MAX_ENTRIES: usize = 8;
const MIN_ENTRIES: usize = 3;

#[derive(Debug)]
struct Entry<T> {
    rect: Rect,
    bbox: NumRect,
    payload: T,
}

#[derive(Debug)]
enum NodeKind {
    Leaf(Vec<usize>),  // entry ids
    Inner(Vec<usize>), // node ids
}

#[derive(Debug)]
struct Node {
    bbox: NumRect,
    kind: NodeKind,
}

/// An R-tree mapping predicate rectangles to payloads.
#[derive(Debug)]
pub struct RTree<T> {
    arity: usize,
    nodes: Vec<Node>,
    entries: Vec<Entry<T>>,
    root: usize,
    visits: AtomicU64,
}

impl<T: Clone> RTree<T> {
    /// Create a new, empty instance.
    pub fn new(arity: usize) -> Self {
        RTree {
            arity,
            nodes: vec![Node {
                bbox: NumRect::empty(arity),
                kind: NodeKind::Leaf(Vec::new()),
            }],
            entries: Vec::new(),
            root: 0,
            visits: AtomicU64::new(0),
        }
    }

    fn alloc_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn recompute_bbox(&mut self, id: usize) {
        let bbox = match &self.nodes[id].kind {
            NodeKind::Leaf(es) => {
                let mut b = NumRect::empty(self.arity);
                for &e in es {
                    b.enlarge(&self.entries[e].bbox);
                }
                b
            }
            NodeKind::Inner(cs) => {
                let mut b = NumRect::empty(self.arity);
                for &c in cs {
                    b.enlarge(&self.nodes[c].bbox);
                }
                b
            }
        };
        self.nodes[id].bbox = bbox;
    }

    /// Quadratic split of a set of (id, bbox) items into two groups.
    fn quadratic_split(items: Vec<(usize, NumRect)>) -> (Vec<usize>, Vec<usize>) {
        debug_assert!(items.len() > MAX_ENTRIES);
        // PickSeeds: the pair wasting the most area.
        let mut seed = (0, 1);
        let mut worst = f64::NEG_INFINITY;
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                let waste =
                    items[i].1.union(&items[j].1).area() - items[i].1.area() - items[j].1.area();
                if waste > worst {
                    worst = waste;
                    seed = (i, j);
                }
            }
        }
        let mut g1 = vec![items[seed.0].0];
        let mut b1 = items[seed.0].1.clone();
        let mut g2 = vec![items[seed.1].0];
        let mut b2 = items[seed.1].1.clone();
        let mut rest: Vec<(usize, NumRect)> = items
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != seed.0 && *i != seed.1)
            .map(|(_, it)| it)
            .collect();
        while let Some((id, bbox)) = rest.pop() {
            // Force assignment when a group must absorb the remainder to
            // reach minimum fill.
            let remaining = rest.len() + 1;
            if g1.len() + remaining <= MIN_ENTRIES {
                b1.enlarge(&bbox);
                g1.push(id);
                continue;
            }
            if g2.len() + remaining <= MIN_ENTRIES {
                b2.enlarge(&bbox);
                g2.push(id);
                continue;
            }
            let e1 = b1.enlargement(&bbox);
            let e2 = b2.enlargement(&bbox);
            if e1 < e2 || (e1 == e2 && g1.len() <= g2.len()) {
                b1.enlarge(&bbox);
                g1.push(id);
            } else {
                b2.enlarge(&bbox);
                g2.push(id);
            }
        }
        (g1, g2)
    }

    /// Recursive insert. Returns the id of a new sibling when `node` split.
    fn insert_rec(&mut self, node_id: usize, eid: usize) -> Option<usize> {
        let ebbox = self.entries[eid].bbox.clone();
        let split = match &self.nodes[node_id].kind {
            NodeKind::Leaf(_) => {
                if let NodeKind::Leaf(es) = &mut self.nodes[node_id].kind {
                    es.push(eid);
                }
                self.maybe_split_leaf(node_id)
            }
            NodeKind::Inner(children) => {
                // ChooseSubtree: least enlargement, ties by smaller area.
                let mut best = children[0];
                let mut best_cost = (f64::INFINITY, f64::INFINITY);
                for &c in children {
                    let b = &self.nodes[c].bbox;
                    let cost = (b.enlargement(&ebbox), b.area());
                    if cost.0 < best_cost.0 || (cost.0 == best_cost.0 && cost.1 < best_cost.1) {
                        best_cost = cost;
                        best = c;
                    }
                }
                let new_sib = self.insert_rec(best, eid);
                if let Some(sib) = new_sib {
                    if let NodeKind::Inner(cs) = &mut self.nodes[node_id].kind {
                        cs.push(sib);
                    }
                }
                self.maybe_split_inner(node_id)
            }
        };
        self.recompute_bbox(node_id);
        split
    }

    fn maybe_split_leaf(&mut self, node_id: usize) -> Option<usize> {
        let needs =
            matches!(&self.nodes[node_id].kind, NodeKind::Leaf(es) if es.len() > MAX_ENTRIES);
        if !needs {
            return None;
        }
        let NodeKind::Leaf(es) =
            std::mem::replace(&mut self.nodes[node_id].kind, NodeKind::Leaf(Vec::new()))
        else {
            unreachable!()
        };
        let items: Vec<(usize, NumRect)> = es
            .into_iter()
            .map(|e| (e, self.entries[e].bbox.clone()))
            .collect();
        let (g1, g2) = Self::quadratic_split(items);
        self.nodes[node_id].kind = NodeKind::Leaf(g1);
        self.recompute_bbox(node_id);
        let sib = self.alloc_node(Node {
            bbox: NumRect::empty(self.arity),
            kind: NodeKind::Leaf(g2),
        });
        self.recompute_bbox(sib);
        Some(sib)
    }

    fn maybe_split_inner(&mut self, node_id: usize) -> Option<usize> {
        let needs =
            matches!(&self.nodes[node_id].kind, NodeKind::Inner(cs) if cs.len() > MAX_ENTRIES);
        if !needs {
            return None;
        }
        let NodeKind::Inner(cs) =
            std::mem::replace(&mut self.nodes[node_id].kind, NodeKind::Inner(Vec::new()))
        else {
            unreachable!()
        };
        let items: Vec<(usize, NumRect)> = cs
            .into_iter()
            .map(|c| (c, self.nodes[c].bbox.clone()))
            .collect();
        let (g1, g2) = Self::quadratic_split(items);
        self.nodes[node_id].kind = NodeKind::Inner(g1);
        self.recompute_bbox(node_id);
        let sib = self.alloc_node(Node {
            bbox: NumRect::empty(self.arity),
            kind: NodeKind::Inner(g2),
        });
        self.recompute_bbox(sib);
        Some(sib)
    }

    fn stab_rec(&self, node_id: usize, point: &[f64], tuple: &Tuple, out: &mut Vec<T>) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        match &self.nodes[node_id].kind {
            NodeKind::Leaf(es) => {
                for &e in es {
                    let en = &self.entries[e];
                    if en.bbox.contains_key_point(point) && en.rect.contains_tuple(tuple) {
                        out.push(en.payload.clone());
                    }
                }
            }
            NodeKind::Inner(cs) => {
                for &c in cs {
                    if self.nodes[c].bbox.contains_key_point(point) {
                        self.stab_rec(c, point, tuple, out);
                    }
                }
            }
        }
    }

    fn query_rec(&self, node_id: usize, nbox: &NumRect, rect: &Rect, out: &mut Vec<T>) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        match &self.nodes[node_id].kind {
            NodeKind::Leaf(es) => {
                for &e in es {
                    let en = &self.entries[e];
                    if en.bbox.intersects(nbox) && en.rect.intersects(rect) {
                        out.push(en.payload.clone());
                    }
                }
            }
            NodeKind::Inner(cs) => {
                for &c in cs {
                    if self.nodes[c].bbox.intersects(nbox) {
                        self.query_rec(c, nbox, rect, out);
                    }
                }
            }
        }
    }

    /// Maximum leaf depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn go(t: &[Node], id: usize) -> usize {
            match &t[id].kind {
                NodeKind::Leaf(_) => 1,
                NodeKind::Inner(cs) => 1 + cs.iter().map(|&c| go(t, c)).max().unwrap_or(0),
            }
        }
        go(&self.nodes, self.root)
    }
}

impl<T: Clone> ConditionIndex<T> for RTree<T> {
    fn insert(&mut self, rect: Rect, payload: T) {
        debug_assert_eq!(rect.arity(), self.arity);
        let bbox = rect.num_bbox();
        self.entries.push(Entry {
            rect,
            bbox,
            payload,
        });
        if let Some(sib) = self.insert_rec(self.root, self.entries.len() - 1) {
            let old_root = self.root;
            let new_root = self.alloc_node(Node {
                bbox: NumRect::empty(self.arity),
                kind: NodeKind::Inner(vec![old_root, sib]),
            });
            self.root = new_root;
            self.recompute_bbox(new_root);
        }
    }

    fn stab(&self, tuple: &Tuple) -> Vec<T> {
        let point = key_point(tuple);
        let mut out = Vec::new();
        self.stab_rec(self.root, &point, tuple, &mut out);
        out
    }

    fn query(&self, rect: &Rect) -> Vec<T> {
        let nbox = rect.num_bbox();
        let mut out = Vec::new();
        self.query_rec(self.root, &nbox, rect, &mut out);
        out
    }

    fn len(&self) -> usize {
        self.entries.len()
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
    fn stab_finds_matching_conditions() {
        let mut t: RTree<u32> = RTree::new(2);
        // "age >= 55" style conditions over (name-ish int, age).
        for i in 0..100 {
            t.insert(cond(2, vec![Selection::new(1, CompOp::Ge, i)]), i as u32);
        }
        let hits = t.stab(&tuple![0, 40]);
        // conditions with threshold <= 40 match: 0..=40 → 41 conditions.
        assert_eq!(hits.len(), 41);
        assert_eq!(t.len(), 100);
        assert!(t.depth() > 1, "tree must have split");
    }

    #[test]
    fn exact_check_filters_key_collisions() {
        let mut t: RTree<&'static str> = RTree::new(1);
        // Strings sharing an 8-byte prefix have colliding numeric keys.
        t.insert(cond(1, vec![Selection::eq(0, "prefix-aaaa")]), "a");
        t.insert(cond(1, vec![Selection::eq(0, "prefix-aaab")]), "b");
        assert_eq!(t.stab(&tuple!["prefix-aaab"]), vec!["b"]);
    }

    #[test]
    fn query_box_overlap() {
        let mut t: RTree<u32> = RTree::new(1);
        for i in 0..20i64 {
            t.insert(
                cond(
                    1,
                    vec![
                        Selection::new(0, CompOp::Ge, i),
                        Selection::new(0, CompOp::Le, i + 4),
                    ],
                ),
                i as u32,
            );
        }
        // Rule-base query: which conditions overlap [10, 12]?
        let q = cond(
            1,
            vec![
                Selection::new(0, CompOp::Ge, 10),
                Selection::new(0, CompOp::Le, 12),
            ],
        );
        let mut hits = t.query(&q);
        hits.sort_unstable();
        assert_eq!(hits, (6..=12).collect::<Vec<u32>>());
    }

    #[test]
    fn visits_grow_sublinearly() {
        let mut t: RTree<u32> = RTree::new(1);
        for i in 0..1000 {
            t.insert(cond(1, vec![Selection::eq(0, i)]), i as u32);
        }
        t.reset_visits();
        t.stab(&tuple![500]);
        assert!(
            t.node_visits() < 200,
            "point stab should prune most nodes, visited {}",
            t.node_visits()
        );
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: RTree<u32> = RTree::new(3);
        assert!(t.stab(&tuple![1, 2, 3]).is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
    }
}
