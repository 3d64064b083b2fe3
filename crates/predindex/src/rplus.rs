//! R+-tree: a non-overlapping condition index.
//!
//! §4.2.3 and \[SELL87\] advocate R+-trees on COND relations "as fast
//! matching devices". The defining property — sibling regions never
//! overlap, objects crossing a region boundary are *clipped* into both
//! sides — means a point-stabbing query descends exactly one path. The
//! condition set is static, so the tree is built top-down once, by
//! recursive binary space splits (a kd-flavoured variant of the published
//! packing algorithm): a node that holds too many entries is cut at the
//! median of their distinct lower bounds on one dimension, and entries
//! crossing the cut go to both sides.

use crate::leaf_hit;
use crate::rect::NumRect;

const MAX_ENTRIES: usize = 8;

/// A region of the key space: a leaf of entry positions, or a cut whose
/// `left` side holds keys below `cut` on `dim` and `right` the rest.
#[derive(Debug)]
pub(crate) enum RPlusTree {
    Leaf(Vec<u32>),
    Cut {
        dim: usize,
        cut: f64,
        left: Box<RPlusTree>,
        right: Box<RPlusTree>,
    },
}

impl RPlusTree {
    /// Split the whole entry set top-down.
    pub(crate) fn split(boxes: &[NumRect]) -> Self {
        Self::split_rec(boxes, (0..boxes.len() as u32).collect())
    }

    /// Cut `entries` until a side fits a leaf, or until a cut would leave
    /// a side as large as its parent: that side would be cut the same way
    /// forever, and clipping would copy every spanning entry each time.
    fn split_rec(boxes: &[NumRect], entries: Vec<u32>) -> Self {
        if entries.len() <= MAX_ENTRIES {
            return RPlusTree::Leaf(entries);
        }
        let Some((dim, cut)) = choose_cut(boxes, &entries) else {
            return RPlusTree::Leaf(entries);
        };
        // The entry whose lower bound is the cut stays off the left side,
        // so only the right side can keep every entry.
        let mut right = entries.clone();
        right.retain(|&e| boxes[e as usize].hi[dim] >= cut);
        if right.len() == entries.len() {
            return RPlusTree::Leaf(entries);
        }
        let mut left = entries;
        left.retain(|&e| boxes[e as usize].lo[dim] < cut);
        RPlusTree::Cut {
            dim,
            cut,
            left: Box::new(Self::split_rec(boxes, left)),
            right: Box::new(Self::split_rec(boxes, right)),
        }
    }

    /// Report the entries whose box meets `near`, a clipped entry once
    /// per leaf holding it; returns the nodes visited. A point descends
    /// one path.
    pub(crate) fn search(
        &self,
        boxes: &[NumRect],
        near: &NumRect,
        hit: &mut impl FnMut(u32),
    ) -> u64 {
        match self {
            RPlusTree::Leaf(entries) => {
                entries.iter().for_each(|&e| leaf_hit(boxes, e, near, hit));
                1
            }
            RPlusTree::Cut {
                dim,
                cut,
                left,
                right,
            } => {
                let mut visits = 1;
                if near.lo[*dim] < *cut {
                    visits += left.search(boxes, near, hit);
                }
                if near.hi[*dim] >= *cut {
                    visits += right.search(boxes, near, hit);
                }
                visits
            }
        }
    }

    /// Total stored entry copies, counting clipped duplicates — the space
    /// overhead R+-trees pay for single-path stabbing.
    #[cfg(test)]
    fn stored_copies(&self) -> usize {
        match self {
            RPlusTree::Leaf(entries) => entries.len(),
            RPlusTree::Cut { left, right, .. } => left.stored_copies() + right.stored_copies(),
        }
    }

    /// Maximum depth (diagnostics).
    #[cfg(test)]
    fn depth(&self) -> usize {
        match self {
            RPlusTree::Leaf(_) => 1,
            RPlusTree::Cut { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

/// The cut for an overflowing node: the dimension with the most distinct
/// finite lower keys, at their median. `None` when no dimension has two.
fn choose_cut(boxes: &[NumRect], entries: &[u32]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, usize)> = None; // (dim, cut, distinct)
    for d in 0..boxes[entries[0] as usize].arity() {
        let mut los: Vec<f64> = entries
            .iter()
            .map(|&e| boxes[e as usize].lo[d])
            .filter(|x| x.is_finite())
            .collect();
        los.sort_by(f64::total_cmp);
        los.dedup();
        if los.len() >= 2 && best.is_none_or(|(_, _, distinct)| los.len() > distinct) {
            best = Some((d, los[los.len() / 2], los.len()));
        }
    }
    best.map(|(d, cut, _)| (d, cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, IndexKind, Rect};
    use relstore::{tuple, CompOp, Restriction, Selection};

    fn cond(arity: usize, tests: Vec<Selection>) -> Rect {
        Rect::from_restriction(arity, &Restriction::new(tests)).unwrap()
    }

    fn tree(rects: &[Rect]) -> RPlusTree {
        RPlusTree::split(&rects.iter().map(Rect::num_bbox).collect::<Vec<_>>())
    }

    #[test]
    fn stab_visits_single_path() {
        let rects: Vec<Rect> = (0..500)
            .map(|i| cond(1, vec![Selection::eq(0, i)]))
            .collect();
        let depth = tree(&rects).depth();
        assert!(
            (2..=8).contains(&depth),
            "500 sequential keys split to depth {depth}"
        );
        let idx = build(IndexKind::RPlus, 1, rects.into_iter().zip(0u32..).collect());
        assert_eq!(idx.stab(&tuple![123]), vec![123]);
        assert!(idx.node_visits() <= depth as u64);
    }

    #[test]
    fn overlapping_ranges_are_clipped_and_deduped() {
        // Wide overlapping ranges force clipping.
        let rects: Vec<Rect> = (0..40i64)
            .map(|i| {
                let tests = vec![
                    Selection::new(0, CompOp::Ge, i),
                    Selection::new(0, CompOp::Le, i + 10),
                ];
                cond(1, tests)
            })
            .collect();
        assert!(
            tree(&rects).stored_copies() > rects.len(),
            "clipping duplicates entries"
        );
        let idx = build(IndexKind::RPlus, 1, rects.into_iter().zip(0u32..).collect());
        assert_eq!(idx.stab(&tuple![20]), (10..=20).collect::<Vec<u32>>());
        // Query dedups clipped copies.
        let q = cond(
            1,
            vec![
                Selection::new(0, CompOp::Ge, 0),
                Selection::new(0, CompOp::Le, 50),
            ],
        );
        assert_eq!(idx.query(&q), (0..40).collect::<Vec<u32>>());
    }

    #[test]
    fn identical_rects_keep_oversized_leaf() {
        let rects = vec![cond(1, vec![Selection::eq(0, 7)]); 20];
        assert_eq!(tree(&rects).depth(), 1, "no useful cut exists");
        let idx = build(IndexKind::RPlus, 1, rects.into_iter().zip(0u32..).collect());
        assert_eq!(idx.stab(&tuple![7]).len(), 20);
    }

    #[test]
    fn multidimensional_conditions() {
        let conds = vec![
            (
                cond(
                    3,
                    vec![Selection::eq(0, "Goal"), Selection::eq(1, "Simplify")],
                ),
                "PlusOX",
            ),
            (
                cond(
                    3,
                    vec![Selection::eq(0, "Expr"), Selection::new(2, CompOp::Gt, 0)],
                ),
                "TimesOX",
            ),
        ];
        let t = build(IndexKind::RPlus, 3, conds);
        assert_eq!(t.stab(&tuple!["Goal", "Simplify", 0]), vec!["PlusOX"]);
        assert_eq!(t.stab(&tuple!["Expr", "x", 3]), vec!["TimesOX"]);
        assert!(t.stab(&tuple!["Expr", "x", 0]).is_empty());
    }
}
