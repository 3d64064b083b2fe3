//! The paper's straightforward DBMS token memory (§3.2): "the only place
//! where tokens have to be stored is two-input merge nodes … We will
//! denote the two relations used to store the tokens that correspond to
//! the left and right input of a two-input merge node by LEFT and RIGHT
//! respectively."
//!
//! Concretely: each alpha memory becomes a RIGHT relation (the filtered
//! copy of a class), each two-input node's output token memory becomes a
//! LEFT relation, and every memory operation runs as selections,
//! insertions and deletions against a [`relstore::Database`] — so the
//! logical I/O this design costs shows up in [`Database::stats`]. Join
//! tests are pushed into the selections rather than evaluated per token.

use std::collections::HashSet;
use std::sync::Arc;

use ops5::{ClassId, RuleId, RuleSet};
use relstore::{Database, RelId, Restriction, Schema, Selection, Tuple, TupleId, Value};

use crate::compile::{BJoinTest, BetaKind, NetworkPlan};
use crate::network::{Network, TokenMemory};
use crate::wme::{ConflictDelta, Instantiation, Wme};

type WmeId = i64;

/// Column layout of a beta node's LEFT relation: `wids` id columns, then
/// the concatenated attribute values of each token WME, then (negative
/// nodes only) a trailing match-count column.
#[derive(Debug, Clone, Default)]
struct Layout {
    classes: Vec<ClassId>,
    offsets: Vec<usize>,
    width: usize,
}

impl Layout {
    fn extended(&self, class: ClassId, arity: usize) -> Layout {
        let mut l = self.clone();
        l.offsets.push(l.width);
        l.classes.push(class);
        l.width += arity;
        l
    }

    fn wids(&self) -> usize {
        self.classes.len()
    }

    /// Column of token position `pos`, attribute `attr`.
    fn col(&self, pos: usize, attr: usize) -> usize {
        self.wids() + self.offsets[pos] + attr
    }

    /// Columns of the value block of position `pos`.
    fn value_range(&self, pos: usize) -> std::ops::Range<usize> {
        let end = self.offsets.get(pos + 1).copied().unwrap_or(self.width);
        self.wids() + self.offsets[pos]..self.wids() + end
    }
}

/// One beta node's LEFT relation.
struct Left {
    /// `None` for the root, whose single empty token is virtual.
    rel: Option<RelId>,
    layout: Layout,
    /// Negative nodes: the trailing match-count column.
    count_col: Option<usize>,
}

impl Left {
    fn rel(&self) -> RelId {
        self.rel.expect("the root stores no tokens")
    }

    /// The stored row as the node's children see it: nothing while it is
    /// suspended, else the plain token.
    fn passed(&self, row: Tuple) -> Option<Tuple> {
        let Some(col) = self.count_col else {
            return Some(row);
        };
        (row[col] == Value::Int(0)).then(|| Tuple::new(row.values()[..col].to_vec()))
    }
}

/// Token memories held in LEFT/RIGHT relations of a database.
pub struct RelMemory {
    plan: Arc<NetworkPlan>,
    db: Arc<Database>,
    alpha_rel: Vec<RelId>,
    left: Vec<Left>,
    next_wid: WmeId,
}

/// DB-backed Rete network.
pub type DbReteNetwork = Network<RelMemory>;

impl Network<RelMemory> {
    /// Build the LEFT/RIGHT relations for a rule set inside `db`.
    ///
    /// Relation names are prefixed `__rete_` to stay clear of WM classes.
    pub fn new(db: Arc<Database>, rules: &RuleSet) -> relstore::Result<Self> {
        let plan = Arc::new(NetworkPlan::compile(rules));
        let mem = RelMemory::open(db, rules, plan.clone(), |db, schema, probed| {
            let rid = db.create_relation(schema)?;
            if let Some(col) = probed {
                db.create_hash_index(rid, col)?;
            }
            Ok(rid)
        })?;
        Ok(Network::over(plan, mem))
    }

    /// Attach to a database that already contains this rule set's
    /// LEFT/RIGHT relations (e.g. restored from a snapshot). All network
    /// state lives in the database, so the conflict set, WME identity map
    /// and id counter are reconstructed from the stored rows.
    pub fn attach(db: Arc<Database>, rules: &RuleSet) -> relstore::Result<Self> {
        let plan = Arc::new(NetworkPlan::compile(rules));
        let find = |db: &Database, schema: Schema, _| db.rel_id(schema.name());
        let mem = RelMemory::open(db, rules, plan.clone(), find)?;
        let mut net = Network::over(plan, mem);
        // WME identities from the alpha (RIGHT) relations.
        let mut seen = HashSet::new();
        for (spec, &rid) in net.plan.alphas.iter().zip(&net.mem.alpha_rel) {
            for (_, row) in net.mem.db.select(rid, &Restriction::default())? {
                let Value::Int(wid) = row[0] else { continue };
                net.mem.next_wid = net.mem.next_wid.max(wid + 1);
                if seen.insert(wid) {
                    let wme = Wme::new(spec.class, Tuple::new(row.values()[1..].to_vec()));
                    net.by_content.entry(wme).or_default().push(wid);
                }
            }
        }
        // The conflict set from the production-node relations.
        for (b, spec) in net.plan.betas.iter().enumerate() {
            if let BetaKind::Production { rule, .. } = spec.kind {
                let rid = net.mem.left[b].rel();
                for (_, row) in net.mem.db.select(rid, &Restriction::default())? {
                    let inst = net.mem.instantiation(b, rule, &row);
                    net.conflict.apply(&ConflictDelta::Add(inst));
                }
            }
        }
        Ok(net)
    }
}

impl RelMemory {
    /// Lay a plan's memories out as relations of `db`: one RIGHT relation
    /// per alpha memory, one LEFT relation per non-root beta node.
    /// `relation` creates or finds each, given its schema and the column
    /// WME-driven retraction probes.
    fn open(
        db: Arc<Database>,
        rules: &RuleSet,
        plan: Arc<NetworkPlan>,
        relation: impl Fn(&Database, Schema, Option<usize>) -> relstore::Result<RelId>,
    ) -> relstore::Result<Self> {
        let arity = |class: ClassId| rules.class(class).arity();
        let mut alpha_rel = Vec::with_capacity(plan.alphas.len());
        for (i, a) in plan.alphas.iter().enumerate() {
            let mut cols = vec!["wid".to_string()];
            cols.extend((0..arity(a.class)).map(|k| format!("v{k}")));
            let schema = Schema::new(format!("__rete_alpha{i}"), cols);
            alpha_rel.push(relation(&db, schema, Some(0))?);
        }
        // Children come after parents in the plan's vector by
        // construction, so layouts build top-down.
        let mut left: Vec<Left> = Vec::with_capacity(plan.betas.len());
        for (b, spec) in plan.betas.iter().enumerate() {
            let layout = match spec.kind {
                BetaKind::Root => Layout::default(),
                BetaKind::Join { parent, alpha, .. } => {
                    let class = plan.alphas[alpha].class;
                    left[parent].layout.extended(class, arity(class))
                }
                BetaKind::Negative { parent, .. } | BetaKind::Production { parent, .. } => {
                    left[parent].layout.clone()
                }
            };
            let negative = matches!(spec.kind, BetaKind::Negative { .. });
            let count_col = negative.then_some(layout.wids() + layout.width);
            let rel = if matches!(spec.kind, BetaKind::Root) {
                None
            } else {
                let mut cols: Vec<String> = (0..layout.wids()).map(|k| format!("wid{k}")).collect();
                cols.extend((0..layout.width).map(|k| format!("v{k}")));
                if negative {
                    cols.push("negcount".into());
                }
                let schema = Schema::new(format!("__rete_beta{b}"), cols);
                Some(relation(&db, schema, layout.wids().checked_sub(1))?)
            };
            left.push(Left {
                rel,
                layout,
                count_col,
            });
        }
        Ok(RelMemory {
            plan,
            db,
            alpha_rel,
            left,
            next_wid: 0,
        })
    }

    /// Selections on a LEFT relation induced by join tests against a
    /// right WME: `token[token_attr] op.flip() wme[my_attr]`.
    fn token_selections(layout: &Layout, tests: &[BJoinTest], wme: &Wme) -> Vec<Selection> {
        tests
            .iter()
            .map(|t| {
                Selection::new(
                    layout.col(t.token_pos, t.token_attr),
                    t.op.flip(),
                    wme.tuple[t.my_attr].clone(),
                )
            })
            .collect()
    }

    /// Rows of two-input node `node`'s alpha (RIGHT) relation matching a
    /// token row of its parent: `alpha[1 + my_attr] op token_value`.
    fn right_rows(&self, node: usize, token: &Tuple) -> Vec<(TupleId, Tuple)> {
        let (parent, alpha, tests) = self.plan.two_input(node);
        let layout = &self.left[parent].layout;
        let sels = tests
            .iter()
            .map(|t| {
                Selection::new(
                    1 + t.my_attr,
                    t.op,
                    token[layout.col(t.token_pos, t.token_attr)].clone(),
                )
            })
            .collect();
        self.db
            .select(self.alpha_rel[alpha], &Restriction::new(sels))
            .expect("alpha select")
    }

    /// Extend a token row of `parent` with a right WME.
    fn extend_row(&self, parent: usize, row: &Tuple, wid: WmeId, values: &[Value]) -> Tuple {
        let layout = &self.left[parent].layout;
        let pw = layout.wids();
        let mut v: Vec<Value> = Vec::with_capacity(pw + 1 + layout.width + values.len());
        v.extend_from_slice(&row.values()[..pw]);
        v.push(Value::Int(wid));
        v.extend_from_slice(&row.values()[pw..pw + layout.width]);
        v.extend_from_slice(values);
        Tuple::new(v)
    }

    fn relations(&self) -> impl Iterator<Item = RelId> + '_ {
        let left = self.left.iter().filter_map(|l| l.rel);
        self.alpha_rel.iter().copied().chain(left)
    }

    /// Delete the rows of `node` satisfying `sels`; return the passing ones.
    fn take(&self, node: usize, sels: Vec<Selection>) -> Vec<Tuple> {
        let left = &self.left[node];
        let rid = left.rel();
        let rows = self
            .db
            .select(rid, &Restriction::new(sels))
            .expect("token select");
        rows.into_iter()
            .filter_map(|(tid, row)| {
                self.db.delete(rid, tid).expect("token delete");
                left.passed(row)
            })
            .collect()
    }
}

impl TokenMemory for RelMemory {
    type Wid = WmeId;
    type Token = Tuple;

    fn intern(&mut self, _wme: &Wme) -> WmeId {
        self.next_wid += 1;
        self.next_wid - 1
    }

    fn release(&mut self, _wid: WmeId) {}

    fn add_right(&mut self, alpha: usize, wid: WmeId, wme: &Wme) {
        let mut v = Vec::with_capacity(1 + wme.tuple.arity());
        v.push(Value::Int(wid));
        v.extend_from_slice(wme.tuple.values());
        self.db
            .insert(self.alpha_rel[alpha], Tuple::new(v))
            .expect("alpha insert");
    }

    fn remove_right(&mut self, alpha: usize, wid: WmeId) {
        let rid = self.alpha_rel[alpha];
        let rows = self
            .db
            .select(rid, &Restriction::new(vec![Selection::eq(0, wid)]))
            .expect("alpha select");
        for (tid, _) in rows {
            self.db.delete(rid, tid).expect("alpha delete");
        }
    }

    fn join_left(&self, node: usize, wid: WmeId, wme: &Wme) -> Vec<Tuple> {
        let (parent, _, tests) = self.plan.two_input(node);
        let left = &self.left[parent];
        let rows = match left.rel {
            // The root "relation" is virtual: the single empty token,
            // which no join test can refer to.
            None => vec![Tuple::new(Vec::new())],
            Some(rid) => {
                let mut sels = Self::token_selections(&left.layout, tests, wme);
                if let Some(col) = left.count_col {
                    sels.push(Selection::eq(col, 0));
                }
                self.db
                    .select(rid, &Restriction::new(sels))
                    .expect("token select")
                    .into_iter()
                    .filter_map(|(_, row)| left.passed(row))
                    .collect()
            }
        };
        rows.iter()
            .map(|row| self.extend_row(parent, row, wid, wme.tuple.values()))
            .collect()
    }

    fn join_right(&self, node: usize, token: &Tuple) -> Vec<Tuple> {
        let (parent, ..) = self.plan.two_input(node);
        self.right_rows(node, token)
            .iter()
            .map(|(_, arow)| {
                let Value::Int(wid) = arow[0] else {
                    unreachable!("wid column")
                };
                self.extend_row(parent, token, wid, &arow.values()[1..])
            })
            .collect()
    }

    fn count_right(&self, node: usize, token: &Tuple) -> usize {
        self.right_rows(node, token).len()
    }

    fn store(&mut self, node: usize, token: &Tuple, blockers: usize) {
        let left = &self.left[node];
        let row = if left.count_col.is_some() {
            let mut v = token.values().to_vec();
            v.push(Value::Int(blockers as i64));
            Tuple::new(v)
        } else {
            token.clone()
        };
        self.db.insert(left.rel(), row).expect("token insert");
    }

    fn take_with_last(&mut self, node: usize, wid: WmeId) -> Vec<Tuple> {
        let last = self.left[node].layout.wids() - 1;
        self.take(node, vec![Selection::eq(last, wid)])
    }

    fn take_prefix(&mut self, node: usize, prefix: &Tuple) -> Vec<Tuple> {
        // Prefix match on the parent's wid columns identifies descendants
        // uniquely; a join node's own rows carry one more.
        let wids = self.left[node].layout.wids();
        let join = matches!(self.plan.betas[node].kind, BetaKind::Join { .. });
        let sels = (0..wids - usize::from(join))
            .map(|k| Selection::eq(k, prefix[k].clone()))
            .collect();
        self.take(node, sels)
    }

    fn adjust_count(&mut self, node: usize, wme: &Wme, delta: i32) -> Vec<Tuple> {
        let (_, _, tests) = self.plan.two_input(node);
        let left = &self.left[node];
        let (rid, count_col) = (left.rel(), left.count_col.expect("negative node"));
        let sels = Self::token_selections(&left.layout, tests, wme);
        let hits = self
            .db
            .select(rid, &Restriction::new(sels))
            .expect("neg select");
        let mut crossed = Vec::new();
        for (tid, row) in hits {
            let Value::Int(was) = row[count_col] else {
                unreachable!("count column")
            };
            let now = was + i64::from(delta);
            assert!(now >= 0, "count underflow");
            self.db.delete(rid, tid).expect("neg delete");
            self.db
                .insert(rid, row.with_value(count_col, Value::Int(now)))
                .expect("neg reinsert");
            if was == 0 || now == 0 {
                crossed.push(Tuple::new(row.values()[..count_col].to_vec()));
            }
        }
        crossed
    }

    fn instantiation(&self, node: usize, rule: RuleId, row: &Tuple) -> Instantiation {
        let layout = &self.left[node].layout;
        let wmes = (0..layout.wids())
            .map(|pos| {
                let values = row.values()[layout.value_range(pos)].to_vec();
                Wme::new(layout.classes[pos], Tuple::new(values))
            })
            .collect();
        Instantiation::new(rule, wmes)
    }

    fn stored_entries(&self) -> usize {
        self.relations().map(|r| self.db.relation_len(r)).sum()
    }

    fn approx_bytes(&self) -> usize {
        self.relations()
            .map(|r| {
                self.db
                    .read(r, |rel| rel.approx_bytes().unwrap_or(0))
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::ReteNetwork;
    use relstore::tuple;

    /// Run a trace of (is-insert, WME) steps through both backends,
    /// requiring equal deltas and conflict sets after every step. Returns
    /// DB-Rete's storage cost for the whole trace as `[tuples read,
    /// inserted, deleted, index probes, scans, predicate evaluations]`.
    fn parity_cost(rules: &RuleSet, ops: Vec<(bool, Wme)>) -> [u64; 6] {
        let db = Arc::new(Database::new());
        let mut dbnet = DbReteNetwork::new(db.clone(), rules).unwrap();
        let mut memnet = ReteNetwork::new(rules);
        let before = db.stats().snapshot();
        for (is_insert, w) in ops {
            let (a, b) = if is_insert {
                (dbnet.insert(w.clone()), memnet.insert(w))
            } else {
                (dbnet.remove(&w), memnet.remove(&w))
            };
            let mut a: Vec<_> = a.iter().map(|d| format!("{d:?}")).collect();
            let mut b: Vec<_> = b.iter().map(|d| format!("{d:?}")).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
            assert_eq!(
                dbnet.conflict_set().sorted(),
                memnet.conflict_set().sorted()
            );
        }
        let c = db.stats().snapshot().since(&before);
        [
            c.tuples_read,
            c.tuples_inserted,
            c.tuples_deleted,
            c.index_probes,
            c.scans,
            c.pred_evals,
        ]
    }

    // The asserted costs below were recorded from the hand-written DB-Rete
    // runtime this backend replaced: they pin the sequence of selects,
    // inserts and deletes §3.2's design issues (the unit-test form of the
    // harness `db-rete` row's `logical_io`).

    #[test]
    fn matches_in_memory_rete_on_example_3() {
        let rules = ops5::compile(
            r#"
            (literalize Emp name salary manager dno)
            (literalize Dept dno dname floor manager)
            (p R1
                (Emp ^name Mike ^salary <S> ^manager <M>)
                (Emp ^name <M> ^salary {<S1> < <S>})
                -->
                (remove 1))
            (p R2
                (Emp ^dno <D>)
                (Dept ^dno <D> ^dname Toy ^floor 1)
                -->
                (remove 1))
            "#,
        )
        .unwrap();
        let (emp, dept) = (ClassId(0), ClassId(1));
        let ops = vec![
            (true, Wme::new(emp, tuple!["Sam", 5000, "Root", 1])),
            (true, Wme::new(emp, tuple!["Mike", 6000, "Sam", 1])),
            (true, Wme::new(dept, tuple![1, "Toy", 1, "Sam"])),
            (true, Wme::new(emp, tuple!["Ann", 1000, "Sam", 1])),
            (false, Wme::new(emp, tuple!["Mike", 6000, "Sam", 1])),
            (false, Wme::new(dept, tuple![1, "Toy", 1, "Sam"])),
        ];
        assert_eq!(parity_cost(&rules, ops), [24, 17, 13, 11, 10, 34]);
    }

    #[test]
    fn negation_parity_with_memory_rete() {
        let rules = ops5::compile(
            r#"
            (literalize Emp dno)
            (literalize Dept dno)
            (p NoDept (Emp ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let (emp, dept) = (ClassId(0), ClassId(1));
        let ops = vec![
            (true, Wme::new(emp, tuple![7])),
            (true, Wme::new(dept, tuple![7])),
            (true, Wme::new(dept, tuple![7])),
            (false, Wme::new(dept, tuple![7])),
            (false, Wme::new(dept, tuple![7])),
            (true, Wme::new(emp, tuple![8])),
            (false, Wme::new(emp, tuple![7])),
        ];
        assert_eq!(parity_cost(&rules, ops), [11, 15, 11, 7, 6, 11]);
    }
}
