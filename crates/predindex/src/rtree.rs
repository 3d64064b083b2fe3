//! R-tree over predicate rectangles, packed by Sort-Tile-Recursive.
//!
//! \[STON86a\] (§2.3) proposes indexing rule conditions with spatial trees so
//! that "the efficient search and detection of conditions (LHS's) affected
//! by the insertion of a specific tuple" becomes a point query. The
//! condition set is static, so the tree is packed bottom-up once
//! (Leutenegger, Lopez & Edgington, ICDE 1997) instead of grown by
//! insertion: each level sorts its items on one dimension, cuts them into
//! slabs, sorts each slab on the next dimension, and so on, then fills
//! nodes in that order. Node navigation uses numeric bounding boxes; the
//! caller runs the exact interval checks, so answers are exact even
//! though navigation keys are lossy.

use crate::leaf_hit;
use crate::rect::NumRect;

const MAX_ENTRIES: usize = 8;

/// One node: the box around its children, which are entry positions on
/// the leaf level and node positions on the level below otherwise.
#[derive(Debug)]
struct Node {
    bbox: NumRect,
    children: Vec<u32>,
}

/// A packed R-tree; `levels[0]` holds the leaves, the last level the root.
#[derive(Debug)]
pub(crate) struct RTree {
    levels: Vec<Vec<Node>>,
}

impl RTree {
    /// Pack the entry boxes, level by level, until one node is left.
    pub(crate) fn pack(boxes: &[NumRect]) -> Self {
        let mut levels = Vec::new();
        let mut level = pack_level(boxes);
        while level.len() > 1 {
            let next = pack_level(&level.iter().map(|n| n.bbox.clone()).collect::<Vec<_>>());
            levels.push(level);
            level = next;
        }
        if !level.is_empty() {
            levels.push(level);
        }
        RTree { levels }
    }

    /// Report the entries whose box meets `near`; returns the nodes
    /// visited.
    pub(crate) fn search(
        &self,
        boxes: &[NumRect],
        near: &NumRect,
        hit: &mut impl FnMut(u32),
    ) -> u64 {
        match self.levels.len() {
            0 => 0,
            top => self.search_node(top - 1, 0, boxes, near, hit),
        }
    }

    fn search_node(
        &self,
        level: usize,
        node: u32,
        boxes: &[NumRect],
        near: &NumRect,
        hit: &mut impl FnMut(u32),
    ) -> u64 {
        let children = &self.levels[level][node as usize].children;
        if level == 0 {
            children.iter().for_each(|&e| leaf_hit(boxes, e, near, hit));
            return 1;
        }
        let below = &self.levels[level - 1];
        let mut visits = 1;
        for &c in children {
            if below[c as usize].bbox.intersects(near) {
                visits += self.search_node(level - 1, c, boxes, near, hit);
            }
        }
        visits
    }

    /// Number of levels (diagnostics).
    #[cfg(test)]
    fn depth(&self) -> usize {
        self.levels.len()
    }
}

/// One STR level over `items`: nodes of at most [`MAX_ENTRIES`] items.
fn pack_level(items: &[NumRect]) -> Vec<Node> {
    // Slicing on a dimension every item spans alike (say, one no
    // condition restricts) only scatters neighbours, so tile the others.
    let dims: Vec<usize> = (0..items.first().map_or(0, NumRect::arity))
        .filter(|&d| {
            items
                .iter()
                .any(|b| (b.lo[d], b.hi[d]) != (items[0].lo[d], items[0].hi[d]))
        })
        .collect();
    let mut order: Vec<u32> = (0..items.len() as u32).collect();
    let mut nodes = Vec::with_capacity(items.len().div_ceil(MAX_ENTRIES));
    tile(items, &dims, &mut order, &mut nodes);
    nodes
}

/// Sort `order` on the first of `dims` by (lower, upper) bound — not by
/// centre, which collapses for half-open boxes — cut it into slabs and
/// tile each slab on the remaining dimensions; with no dimension left,
/// cut it into nodes.
fn tile(items: &[NumRect], dims: &[usize], order: &mut [u32], nodes: &mut Vec<Node>) {
    let Some((&d, rest)) = dims.split_first() else {
        for children in order.chunks(MAX_ENTRIES) {
            let mut bbox = NumRect::empty(items[0].arity());
            for &c in children {
                bbox.enlarge(&items[c as usize]);
            }
            let children = children.to_vec();
            nodes.push(Node { bbox, children });
        }
        return;
    };
    order.sort_by(|&a, &b| {
        let (a, b) = (&items[a as usize], &items[b as usize]);
        a.lo[d]
            .total_cmp(&b.lo[d])
            .then(a.hi[d].total_cmp(&b.hi[d]))
    });
    let count = order.len().div_ceil(MAX_ENTRIES);
    let slabs = (count as f64).powf(1.0 / dims.len() as f64).ceil() as usize;
    let slab_len = MAX_ENTRIES * count.div_ceil(slabs.max(1));
    for slab in order.chunks_mut(slab_len) {
        tile(items, rest, slab, nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, IndexKind, Rect};
    use relstore::{tuple, CompOp, Restriction, Selection};

    fn cond(arity: usize, tests: Vec<Selection>) -> Rect {
        Rect::from_restriction(arity, &Restriction::new(tests)).unwrap()
    }

    fn tree(rects: &[Rect]) -> RTree {
        RTree::pack(&rects.iter().map(Rect::num_bbox).collect::<Vec<_>>())
    }

    #[test]
    fn stab_finds_matching_conditions() {
        // "age >= i" style conditions over (name-ish int, age).
        let rects: Vec<Rect> = (0..100)
            .map(|i| cond(2, vec![Selection::new(1, CompOp::Ge, i)]))
            .collect();
        assert!(
            tree(&rects).depth() > 1,
            "100 entries need more than one node"
        );
        let idx = build(IndexKind::RTree, 2, rects.into_iter().zip(0u32..).collect());
        // Conditions with threshold <= 40 match: 0..=40.
        assert_eq!(idx.stab(&tuple![0, 40]), (0..=40).collect::<Vec<u32>>());
    }

    #[test]
    fn packed_levels_are_full() {
        let rects: Vec<Rect> = (0..1000)
            .map(|i| cond(1, vec![Selection::eq(0, i)]))
            .collect();
        // 1000 → 125 → 16 → 2 → 1 nodes.
        assert_eq!(tree(&rects).depth(), 4);
    }

    #[test]
    fn visits_grow_sublinearly() {
        let conds = (0..1000).map(|i| (cond(1, vec![Selection::eq(0, i)]), i as u32));
        let idx = build(IndexKind::RTree, 1, conds.collect());
        assert_eq!(idx.stab(&tuple![500]), vec![500]);
        assert!(
            idx.node_visits() <= 8,
            "point stab should follow about one path, visited {}",
            idx.node_visits()
        );
    }

    #[test]
    fn unrestricted_dimension_is_not_tiled() {
        // Attribute 0 is unbounded on every condition: a tiling on it
        // would put neighbouring ages in different slabs.
        let conds = (0..512).map(|i| (cond(2, vec![Selection::eq(1, i)]), i as u32));
        let idx = build(IndexKind::RTree, 2, conds.collect());
        assert_eq!(idx.stab(&tuple![7, 300]), vec![300]);
        assert!(idx.node_visits() <= 4, "visited {}", idx.node_visits());
    }
}
