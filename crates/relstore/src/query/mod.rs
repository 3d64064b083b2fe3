//! Conjunctive queries over several relations.
//!
//! A production LHS is "equivalent to a retrieval operation in a DBMS
//! context" (§2.2). This module gives those retrievals a first-class
//! representation: a set of terms (one per condition element), each with a
//! variable-free [`Restriction`], plus inter-term
//! join predicates. Terms may be *negated* (OPS5 `-` condition elements):
//! a binding qualifies only if no tuple satisfies the negated term.
//!
//! The planner (`plan`) picks a join order greedily and a join algorithm
//! per step; the executor (`exec`) carries the set of partial bindings
//! through that plan and can be *seeded* with specific tuples for one
//! term — exactly what the simplified algorithm of §4.1.2 needs when
//! newly inserted WM elements fill one condition element.

mod exec;
mod plan;

pub use exec::{Binding, ExecProfile, QueryExecutor};
pub(crate) use plan::HASH_THRESHOLD;
pub use plan::{JoinAlgo, Plan, Planner};

use crate::pred::{CompOp, Restriction};
use crate::schema::{AttrIdx, RelId};

/// One condition element: a relation plus its variable-free tests.
#[derive(Debug, Clone)]
pub struct QueryTerm {
    /// The relation involved.
    pub rel: RelId,
    /// The variable-free tests on this term.
    pub restriction: Restriction,
    /// OPS5 negated condition element: satisfied by *absence* of matches.
    pub negated: bool,
}

impl QueryTerm {
    /// Create a new, empty instance.
    pub fn new(rel: RelId, restriction: Restriction) -> Self {
        QueryTerm {
            rel,
            restriction,
            negated: false,
        }
    }

    /// A negated term: the binding survives only if nothing matches.
    pub fn negated(rel: RelId, restriction: Restriction) -> Self {
        QueryTerm {
            rel,
            restriction,
            negated: true,
        }
    }
}

/// An inter-term join predicate `terms[left].left_attr op terms[right].right_attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPred {
    /// Index of the left term.
    pub left_term: usize,
    /// Attribute of the left term.
    pub left_attr: AttrIdx,
    /// The comparison operator.
    pub op: CompOp,
    /// Index of the right term.
    pub right_term: usize,
    /// Attribute of the right term.
    pub right_attr: AttrIdx,
}

impl JoinPred {
    /// Equi-join between two terms' attributes.
    pub fn eq(
        left_term: usize,
        left_attr: AttrIdx,
        right_term: usize,
        right_attr: AttrIdx,
    ) -> Self {
        JoinPred {
            left_term,
            left_attr,
            op: CompOp::Eq,
            right_term,
            right_attr,
        }
    }

    /// Does this predicate touch term `t`?
    pub fn touches(&self, t: usize) -> bool {
        self.left_term == t || self.right_term == t
    }

    /// The other endpoint, if this predicate touches `t`.
    pub fn other(&self, t: usize) -> Option<usize> {
        if self.left_term == t {
            Some(self.right_term)
        } else if self.right_term == t {
            Some(self.left_term)
        } else {
            None
        }
    }

    /// View the predicate from `t`'s side: returns (attr of t, op oriented
    /// so that `t.attr op other.attr`, other term, other attr).
    pub fn oriented(&self, t: usize) -> Option<(AttrIdx, CompOp, usize, AttrIdx)> {
        if self.left_term == t {
            Some((self.left_attr, self.op, self.right_term, self.right_attr))
        } else if self.right_term == t {
            Some((
                self.right_attr,
                self.op.flip(),
                self.left_term,
                self.left_attr,
            ))
        } else {
            None
        }
    }
}

/// A conjunctive (possibly partially negated) query.
#[derive(Debug, Clone, Default)]
pub struct ConjunctiveQuery {
    /// One term per condition element.
    pub terms: Vec<QueryTerm>,
    /// Join tests to other condition elements.
    pub joins: Vec<JoinPred>,
}

impl ConjunctiveQuery {
    /// Create a new, empty instance.
    pub fn new(terms: Vec<QueryTerm>, joins: Vec<JoinPred>) -> Self {
        ConjunctiveQuery { terms, joins }
    }

    /// Indexes of the positive (non-negated) terms.
    pub fn positive_terms(&self) -> Vec<usize> {
        (0..self.terms.len())
            .filter(|&i| !self.terms[i].negated)
            .collect()
    }

    /// Indexes of the negated terms.
    pub fn negated_terms(&self) -> Vec<usize> {
        (0..self.terms.len())
            .filter(|&i| self.terms[i].negated)
            .collect()
    }

    /// Join predicates touching term `t`.
    pub fn joins_of(&self, t: usize) -> impl Iterator<Item = &JoinPred> {
        self.joins.iter().filter(move |j| j.touches(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::Selection;

    #[test]
    fn oriented_flips_ops() {
        let j = JoinPred {
            left_term: 0,
            left_attr: 2,
            op: CompOp::Lt,
            right_term: 1,
            right_attr: 3,
        };
        assert_eq!(j.oriented(0), Some((2, CompOp::Lt, 1, 3)));
        assert_eq!(j.oriented(1), Some((3, CompOp::Gt, 0, 2)));
        assert_eq!(j.oriented(2), None);
        assert_eq!(j.other(0), Some(1));
        assert_eq!(j.other(5), None);
    }

    #[test]
    fn term_partition() {
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(RelId(0), Restriction::default()),
                QueryTerm::negated(RelId(1), Restriction::new(vec![Selection::eq(0, 1)])),
                QueryTerm::new(RelId(2), Restriction::default()),
            ],
            vec![JoinPred::eq(0, 0, 1, 0)],
        );
        assert_eq!(q.positive_terms(), vec![0, 2]);
        assert_eq!(q.negated_terms(), vec![1]);
        assert_eq!(q.joins_of(1).count(), 1);
        assert_eq!(q.joins_of(2).count(), 0);
    }
}
