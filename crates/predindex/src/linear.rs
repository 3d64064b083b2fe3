//! Linear-scan condition "index" — the baseline every tree must beat.
//!
//! This is what a DBMS without predicate indexing does: test the inserted
//! tuple against every stored condition (compare \[BLAK86a\] which "checks
//! all materialized view results" on every update, §3.1).

use std::sync::atomic::{AtomicU64, Ordering};

use relstore::Tuple;

use crate::rect::Rect;
use crate::ConditionIndex;

/// A flat list of (rectangle, payload) pairs.
#[derive(Debug, Default)]
pub struct LinearIndex<T> {
    items: Vec<(Rect, T)>,
    visits: AtomicU64,
}

impl<T> LinearIndex<T> {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        LinearIndex {
            items: Vec::new(),
            visits: AtomicU64::new(0),
        }
    }
}

impl<T: Clone> ConditionIndex<T> for LinearIndex<T> {
    fn insert(&mut self, rect: Rect, payload: T) {
        self.items.push((rect, payload));
    }

    fn stab(&self, tuple: &Tuple) -> Vec<T> {
        self.visits
            .fetch_add(self.items.len() as u64, Ordering::Relaxed);
        self.items
            .iter()
            .filter(|(r, _)| r.contains_tuple(tuple))
            .map(|(_, p)| p.clone())
            .collect()
    }

    fn query(&self, rect: &Rect) -> Vec<T> {
        self.visits
            .fetch_add(self.items.len() as u64, Ordering::Relaxed);
        self.items
            .iter()
            .filter(|(r, _)| r.intersects(rect))
            .map(|(_, p)| p.clone())
            .collect()
    }

    fn len(&self) -> usize {
        self.items.len()
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

    #[test]
    fn linear_stab_counts_every_condition() {
        let mut idx: LinearIndex<u32> = LinearIndex::new();
        for i in 0..10 {
            let rect = Rect::from_restriction(
                1,
                &Restriction::new(vec![Selection::new(0, CompOp::Ge, i)]),
            )
            .unwrap();
            idx.insert(rect, i as u32);
        }
        assert_eq!(idx.stab(&tuple![5]).len(), 6);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx.node_visits(), 10);
    }
}
