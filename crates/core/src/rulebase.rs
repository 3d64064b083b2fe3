//! The COND-relation index (§4.1, §4.2.3).
//!
//! §4.1 keeps one COND relation per WM class, holding the condition
//! elements that refer to it, and notes that "one can use intelligent
//! indexing techniques such as R-trees or R+-trees … to check if a given
//! tuple satisfies conditions stored in the COND relations". §4.2.3 adds
//! that the same index answers queries on the rule base itself:
//!
//! "Another significant advantage of such indices is their use in
//! answering queries on the rulebase itself. For example, questions of
//! the form *Give me all the rules that apply on employees older than 55*
//! can be easily answered using such an index. … Notice that this is not
//! possible in systems, such as POSTGRES, where rule information is
//! stored together with the actual data."
//!
//! [`CondIndex`] is that one index. It puts every condition element's
//! variable-free restriction into a per-class predicate index (payload
//! `(rule, cen)`) once, when the rule base is compiled; the entries never
//! change afterwards. The query engine wakes rules with it, the COND
//! engine prunes its pattern groups with it, and it answers:
//!
//! * [`CondIndex::stab`] — which condition elements' rectangles contain a
//!   concrete tuple? (point stabbing, exact on the rectangle);
//! * [`CondIndex::rules_for_tuple`] — which rules could a concrete tuple
//!   trigger? (the stab plus the intra-tuple attribute tests);
//! * [`CondIndex::rules_overlapping`] — which rules could apply to *any*
//!   tuple in a region, whether or not such data exists yet? (box query —
//!   the "employees older than 55" form).

use std::sync::Arc;

use ops5::{ClassId, RuleId, RuleSet};
use predindex::{ConditionIndex, IndexKind, Rect};
use relstore::{Restriction, Tuple};

use crate::error::{Error, Result};

/// Payload of a COND entry: (rule, condition element number).
pub type CondRef = (usize, usize);

/// The per-class index over the rule base's condition elements.
pub struct CondIndex {
    rules: Arc<RuleSet>,
    /// One predicate index per class.
    per_class: Vec<ConditionIndex<CondRef>>,
}

impl CondIndex {
    /// Index every condition element of `rules` with the `kind` of
    /// predicate index. Entries go in rule-then-CE order, so every answer
    /// is ascending in `(rule, cen)`.
    pub fn new(rules: impl Into<Arc<RuleSet>>, kind: IndexKind) -> Self {
        let rules = rules.into();
        let mut conds = vec![Vec::new(); rules.classes.len()];
        for rule in &rules.rules {
            for (cen, ce) in rule.ces.iter().enumerate() {
                let arity = rules.class(ce.class).arity();
                // A contradictory alpha restriction can never match: the
                // CE (and for positive CEs the whole rule) is dead.
                if let Some(rect) = Rect::from_restriction(arity, &ce.alpha) {
                    conds[ce.class.0].push((rect, (rule.id.0, cen)));
                }
            }
        }
        let per_class = (rules.classes.iter().zip(conds))
            .map(|(c, conds)| predindex::build(kind, c.arity(), conds))
            .collect();
        CondIndex { rules, per_class }
    }

    /// The condition elements of `class` whose variable-free rectangle
    /// contains the tuple, ascending. Exact on the rectangle; the
    /// intra-tuple attribute tests it cannot encode are not checked.
    pub fn stab(&self, class: ClassId, tuple: &Tuple) -> Vec<CondRef> {
        self.per_class[class.0].stab(tuple)
    }

    /// Rules with a condition element whose one-input tests this concrete
    /// tuple satisfies, ascending: the rules its insertion or deletion
    /// can affect.
    pub fn rules_for_tuple(&self, class: ClassId, tuple: &Tuple) -> Vec<RuleId> {
        let mut rules: Vec<RuleId> = (self.stab(class, tuple).into_iter())
            .filter(|&(rid, cen)| {
                self.rules.rule(RuleId(rid)).ces[cen]
                    .alpha
                    .attr_tests
                    .iter()
                    .all(|t| t.matches(tuple))
            })
            .map(|(rid, _)| RuleId(rid))
            .collect();
        rules.dedup();
        rules
    }

    /// Rules whose conditions overlap a region of a class's value space —
    /// answerable "even if data that satisfy the conditions of the rules
    /// has not already been stored in the database" (§4.2.3). A
    /// contradictory region matches nothing; an unknown class or an
    /// attribute the class lacks is an error.
    pub fn rules_overlapping(&self, class: ClassId, region: &Restriction) -> Result<Vec<RuleId>> {
        let def = (self.rules.classes.get(class.0))
            .ok_or_else(|| Error::UnknownClass(format!("#{}", class.0)))?;
        if let Some(sel) = region.tests.iter().find(|s| s.attr >= def.arity()) {
            let (relation, index) = (def.name.clone(), sel.attr);
            return Err(relstore::Error::BadAttrIndex { relation, index }.into());
        }
        let Some(rect) = Rect::from_restriction(def.arity(), region) else {
            return Ok(Vec::new());
        };
        let hits = self.per_class[class.0].query(&rect);
        let mut rules: Vec<RuleId> = hits.into_iter().map(|(rid, _)| RuleId(rid)).collect();
        rules.dedup();
        Ok(rules)
    }

    /// Stored entries: one per satisfiable condition element.
    pub fn entries(&self) -> usize {
        self.per_class.iter().map(|i| i.len()).sum()
    }

    /// Index nodes (for the linear kind, entries) visited so far.
    pub fn node_visits(&self) -> u64 {
        self.per_class.iter().map(|i| i.node_visits()).sum()
    }

    /// Names instead of ids, for display.
    pub fn rule_names(&self, ids: &[RuleId]) -> Vec<String> {
        ids.iter()
            .map(|r| self.rules.rule(*r).name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{tuple, CompOp, Selection};

    fn index() -> CondIndex {
        let rules = ops5::compile(
            r#"
            (literalize Emp name age salary)
            (literalize Dept dno)
            (p Retire (Emp ^age {>= 65}) --> (remove 1))
            (p Senior (Emp ^age {>= 50} ^salary {>= 9000}) --> (remove 1))
            (p Junior (Emp ^age {< 30}) --> (remove 1))
            (p Mike (Emp ^name Mike ^age <A>) --> (remove 1))
            (p DeptRule (Dept ^dno 7) --> (remove 1))
            "#,
        )
        .unwrap();
        CondIndex::new(rules, IndexKind::RTree)
    }

    #[test]
    fn paper_query_older_than_55() {
        let idx = index();
        // "Give me all the rules that apply on employees older than 55."
        let region = Restriction::new(vec![Selection::new(1, CompOp::Gt, 55)]);
        let hits = idx.rules_overlapping(ClassId(0), &region).unwrap();
        let names = idx.rule_names(&hits);
        assert_eq!(names, vec!["Retire", "Senior", "Mike"]);
    }

    #[test]
    fn point_stabbing_a_concrete_employee() {
        let idx = index();
        let hits = idx.rules_for_tuple(ClassId(0), &tuple!["Ann", 70, 5000]);
        assert_eq!(idx.rule_names(&hits), vec!["Retire"]);
        let hits = idx.rules_for_tuple(ClassId(0), &tuple!["Mike", 25, 5000]);
        assert_eq!(idx.rule_names(&hits), vec!["Junior", "Mike"]);
    }

    #[test]
    fn queries_work_without_any_data() {
        // The defining §4.2.3 property: answers need no WM contents.
        let idx = index();
        let region = Restriction::new(vec![Selection::new(1, CompOp::Lt, 20)]);
        assert_eq!(
            idx.rule_names(&idx.rules_overlapping(ClassId(0), &region).unwrap()),
            vec!["Junior", "Mike"]
        );
    }

    #[test]
    fn classes_are_separated() {
        let idx = index();
        let hits = idx.rules_for_tuple(ClassId(1), &tuple![7]);
        assert_eq!(idx.rule_names(&hits), vec!["DeptRule"]);
        assert!(idx.rules_for_tuple(ClassId(1), &tuple![8]).is_empty());
    }

    #[test]
    fn contradictory_region_is_empty() {
        let idx = index();
        let region = Restriction::new(vec![
            Selection::new(1, CompOp::Lt, 10),
            Selection::new(1, CompOp::Gt, 90),
        ]);
        assert!(idx
            .rules_overlapping(ClassId(0), &region)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn region_on_a_missing_attribute_is_an_error() {
        let idx = index();
        // Dept has one attribute; a test on its fourth is not a region.
        let region = Restriction::new(vec![Selection::new(3, CompOp::Gt, 55)]);
        let err = idx.rules_overlapping(ClassId(1), &region).unwrap_err();
        assert_eq!(
            err,
            Error::Store(relstore::Error::BadAttrIndex {
                relation: "Dept".into(),
                index: 3
            })
        );
    }

    #[test]
    fn region_of_an_unknown_class_is_an_error() {
        let idx = index();
        let region = Restriction::new(vec![Selection::new(0, CompOp::Gt, 55)]);
        let err = idx.rules_overlapping(ClassId(2), &region).unwrap_err();
        assert_eq!(err, Error::UnknownClass("#2".into()));
    }

    #[test]
    fn all_index_kinds_agree() {
        let rules = ops5::compile(
            r#"
            (literalize Emp name age salary)
            (p A (Emp ^age {>= 65}) --> (remove 1))
            (p B (Emp ^age {>= 50} ^salary {>= 9000}) --> (remove 1))
            (p C (Emp ^age {< 30}) --> (remove 1))
            (p D (Emp ^name <N> ^salary <N>) --> (remove 1))
            "#,
        )
        .unwrap();
        let region = Restriction::new(vec![Selection::new(1, CompOp::Ge, 40)]);
        let emps = [
            tuple!["Ann", 70, 9500],
            tuple![20, 25, 20],
            tuple!["Bo", 55, 10],
        ];
        let mut results = Vec::new();
        for kind in [IndexKind::Linear, IndexKind::RTree, IndexKind::RPlus] {
            let idx = CondIndex::new(rules.clone(), kind);
            let mut stabs = Vec::new();
            let mut woken = Vec::new();
            for t in &emps {
                stabs.push(idx.stab(ClassId(0), t));
                woken.push(idx.rules_for_tuple(ClassId(0), t));
            }
            let overlap = idx.rules_overlapping(ClassId(0), &region).unwrap();
            results.push((overlap, stabs, woken));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
        // D's attr test (name = salary) is checked by rules_for_tuple only.
        assert!(results[0].1[1].contains(&(3, 0)));
        assert!(results[0].2[1].contains(&RuleId(3)));
        assert!(!results[0].2[0].contains(&RuleId(3)));
    }

    #[test]
    fn tuple_of_another_arity_wakes_nothing() {
        let rules: String = (0..40)
            .map(|i| format!("(p R{i} (T ^c {i}) --> (remove 1))"))
            .collect();
        let rules = ops5::compile(&format!("(literalize T a b c) {rules}")).unwrap();
        for kind in [IndexKind::Linear, IndexKind::RTree, IndexKind::RPlus] {
            let idx = CondIndex::new(rules.clone(), kind);
            assert_eq!(
                idx.rules_for_tuple(ClassId(0), &tuple![0, 0, 7]),
                vec![RuleId(7)]
            );
            assert!(
                idx.rules_for_tuple(ClassId(0), &tuple![7]).is_empty(),
                "{kind:?}"
            );
        }
    }
}
