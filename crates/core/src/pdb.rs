//! Working-memory relations inside the DBMS.
//!
//! "All classes can be simulated by relations … the working memory can
//! reside on secondary storage and be persistent" (§3.2). `ProductionDb`
//! creates one WM relation per `literalize` class, indexes the attributes
//! that rule conditions test with equality, and pre-lowers every rule's
//! LHS to a conjunctive query.

use std::sync::Arc;

use ops5::{ClassId, RuleId, RuleSet};
use relstore::{CompOp, ConjunctiveQuery, Database, RelId, Result, Schema, Tuple, TupleId};

/// Shared handle to the rule set, the database, and the WM relations.
#[derive(Clone)]
pub struct ProductionDb {
    db: Arc<Database>,
    rules: Arc<RuleSet>,
    class_rel: Arc<Vec<RelId>>,
    queries: Arc<Vec<ConjunctiveQuery>>,
}

impl ProductionDb {
    /// Create WM relations for every class in a fresh database.
    pub fn new(rules: RuleSet) -> Result<Self> {
        Self::with_db(Arc::new(Database::new()), rules)
    }

    /// Create WM relations inside an existing database.
    pub fn with_db(db: Arc<Database>, rules: RuleSet) -> Result<Self> {
        let mut class_rel = Vec::with_capacity(rules.classes.len());
        for class in &rules.classes {
            let rid = db.create_relation(Schema::new(&class.name, class.attrs.clone()))?;
            class_rel.push(rid);
        }
        // Index attributes used in equality tests (constants or joins).
        let mut want_hash: Vec<Vec<bool>> = rules
            .classes
            .iter()
            .map(|c| vec![false; c.arity()])
            .collect();
        let mut want_ord: Vec<Vec<bool>> = rules
            .classes
            .iter()
            .map(|c| vec![false; c.arity()])
            .collect();
        for rule in &rules.rules {
            for ce in &rule.ces {
                for sel in &ce.alpha.tests {
                    if sel.op == CompOp::Eq {
                        want_hash[ce.class.0][sel.attr] = true;
                    } else if sel.op != CompOp::Ne {
                        want_ord[ce.class.0][sel.attr] = true;
                    }
                }
                for j in &ce.joins {
                    if j.op == CompOp::Eq {
                        want_hash[ce.class.0][j.my_attr] = true;
                        want_hash[rule.ces[j.other_ce].class.0][j.other_attr] = true;
                    }
                }
            }
        }
        for (c, rid) in class_rel.iter().enumerate() {
            for attr in 0..rules.classes[c].arity() {
                if want_hash[c][attr] {
                    db.create_hash_index(*rid, attr)?;
                } else if want_ord[c][attr] {
                    db.create_ord_index(*rid, attr)?;
                }
            }
        }
        let queries = rules.rules.iter().map(|r| r.to_query(&class_rel)).collect();
        Ok(ProductionDb {
            db,
            rules: Arc::new(rules),
            class_rel: Arc::new(class_rel),
            queries: Arc::new(queries),
        })
    }

    /// Attach to a database that already contains the WM relations (e.g.
    /// one restored from a [`relstore::snapshot`]). Relations are resolved
    /// by class name instead of being created.
    pub fn attach(db: Arc<Database>, rules: RuleSet) -> Result<Self> {
        let mut class_rel = Vec::with_capacity(rules.classes.len());
        for class in &rules.classes {
            class_rel.push(db.rel_id(&class.name)?);
        }
        let queries = rules.rules.iter().map(|r| r.to_query(&class_rel)).collect();
        Ok(ProductionDb {
            db,
            rules: Arc::new(rules),
            class_rel: Arc::new(class_rel),
            queries: Arc::new(queries),
        })
    }

    /// All live WM tuples of a class, with ids.
    pub fn wm_scan(&self, class: ClassId) -> Result<Vec<(TupleId, Tuple)>> {
        self.db.read(self.class_rel(class), |r| r.scan())?
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The compiled rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The compiled rule set, shared (e.g. by a [`crate::CondIndex`]).
    pub fn shared_rules(&self) -> Arc<RuleSet> {
        Arc::clone(&self.rules)
    }

    /// The WM relation storing this class.
    pub fn class_rel(&self, class: ClassId) -> RelId {
        self.class_rel[class.0]
    }

    /// Number of WM classes.
    pub fn class_count(&self) -> usize {
        self.class_rel.len()
    }

    /// The pre-lowered conjunctive query of a rule's LHS.
    pub fn query(&self, rule: RuleId) -> &ConjunctiveQuery {
        &self.queries[rule.0]
    }

    /// Insert a WM element.
    pub fn insert_wm(&self, class: ClassId, tuple: Tuple) -> Result<TupleId> {
        self.db.insert(self.class_rel(class), tuple)
    }

    /// Delete one WM element equal to `tuple` (OPS5 `remove` semantics).
    pub fn remove_wm_equal(&self, class: ClassId, tuple: &Tuple) -> Result<Option<TupleId>> {
        self.db.delete_equal(self.class_rel(class), tuple)
    }

    /// Delete WM element `tid`; `false` when it is not live (at its
    /// generation).
    pub fn remove_wm(&self, class: ClassId, tid: TupleId) -> Result<bool> {
        match self.db.delete(self.class_rel(class), tid) {
            Ok(_) => Ok(true),
            Err(relstore::Error::NoSuchTuple(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Live WM size of a class.
    pub fn wm_len(&self, class: ClassId) -> usize {
        self.db.relation_len(self.class_rel(class))
    }

    /// Total WM tuples across classes.
    pub fn wm_total(&self) -> usize {
        self.class_rel
            .iter()
            .map(|&r| self.db.relation_len(r))
            .sum()
    }

    /// Approximate WM bytes across classes.
    pub fn wm_bytes(&self) -> usize {
        self.class_rel
            .iter()
            .map(|&r| {
                self.db
                    .read(r, |rel| rel.approx_bytes().unwrap_or(0))
                    .unwrap_or(0)
            })
            .sum()
    }
}

impl std::fmt::Debug for ProductionDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProductionDb")
            .field("classes", &self.class_rel.len())
            .field("rules", &self.rules.rules.len())
            .field("wm_total", &self.wm_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::tuple;

    fn pdb() -> ProductionDb {
        let rs = ops5::compile(
            r#"
            (literalize Emp name salary manager dno)
            (literalize Dept dno dname floor manager)
            (p R2
                (Emp ^dno <D>)
                (Dept ^dno <D> ^dname Toy ^floor 1)
                -->
                (remove 1))
            "#,
        )
        .unwrap();
        ProductionDb::new(rs).unwrap()
    }

    #[test]
    fn wm_relations_created_with_indexes() {
        let p = pdb();
        assert_eq!(p.class_count(), 2);
        let emp = p.class_rel(ClassId(0));
        // dno is an equality-join attribute → hash indexed.
        assert!(p.db().read(emp, |r| r.has_hash_index(3)).unwrap());
        let dept = p.class_rel(ClassId(1));
        assert!(p.db().read(dept, |r| r.has_hash_index(0)).unwrap());
        assert!(
            p.db().read(dept, |r| r.has_hash_index(1)).unwrap(),
            "dname Toy eq test"
        );
    }

    #[test]
    fn insert_and_remove_wm() {
        let p = pdb();
        let c = ClassId(0);
        p.insert_wm(c, tuple!["Ann", 1000, "Sam", 7]).unwrap();
        assert_eq!(p.wm_len(c), 1);
        assert!(p
            .remove_wm_equal(c, &tuple!["Ann", 1000, "Sam", 7])
            .unwrap()
            .is_some());
        assert!(p
            .remove_wm_equal(c, &tuple!["Ann", 1000, "Sam", 7])
            .unwrap()
            .is_none());
        assert_eq!(p.wm_total(), 0);
    }

    #[test]
    fn queries_prelowered() {
        let p = pdb();
        let q = p.query(RuleId(0));
        assert_eq!(q.terms.len(), 2);
        assert_eq!(q.joins.len(), 1);
    }
}
