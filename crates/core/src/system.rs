//! High-level facade: compile a program, pick an engine and a strategy,
//! load working memory, run.

use ops5::{ClassId, RuleSet};
use relstore::{Restriction, Tuple};

use crate::engine::{make_engine, EngineKind, MatchEngine};
use crate::error::{Error, Result};
use crate::exec::{ConcurrentExecutor, ConcurrentStats, RunOutcome, SequentialExecutor};
use crate::pdb::ProductionDb;
use crate::strategy::Strategy;

/// A ready-to-run production system.
pub struct ProductionSystem {
    exec: SequentialExecutor,
}

impl ProductionSystem {
    /// Compile OPS5 source and build the system.
    pub fn from_source(src: &str, kind: EngineKind, strategy: Strategy) -> Result<Self> {
        let rules = ops5::compile(src)?;
        Self::from_rules(rules, kind, strategy)
    }

    /// Build the system from an already-compiled rule set.
    pub fn from_rules(rules: RuleSet, kind: EngineKind, strategy: Strategy) -> Result<Self> {
        let pdb = ProductionDb::new(rules)?;
        Ok(ProductionSystem {
            exec: SequentialExecutor::new(make_engine(kind, pdb), strategy),
        })
    }

    fn rules(&self) -> &RuleSet {
        self.exec.engine().pdb().rules()
    }

    fn class(&self, name: &str) -> Result<ClassId> {
        class_id(self.rules(), name)
    }

    /// Insert a WM element by class name. A tuple whose arity is not the
    /// class's is refused before anything is applied.
    pub fn insert(&mut self, class: &str, tuple: Tuple) -> Result<()> {
        let c = self.class(class)?;
        check_arity(self.rules(), c, &tuple)?;
        self.exec.insert(c, tuple);
        Ok(())
    }

    /// Remove a WM element (by content) by class name.
    pub fn remove(&mut self, class: &str, tuple: &Tuple) -> Result<()> {
        let c = self.class(class)?;
        self.exec.remove(c, tuple);
        Ok(())
    }

    /// Insert many WM elements of one class as a single delta set (one
    /// set-oriented maintenance pass; see
    /// [`SequentialExecutor::insert_batch`]). One wrong-arity tuple
    /// refuses the whole batch: working memory stays unchanged.
    pub fn insert_batch(&mut self, class: &str, tuples: Vec<Tuple>) -> Result<()> {
        let c = self.class(class)?;
        for t in &tuples {
            check_arity(self.rules(), c, t)?;
        }
        self.exec.insert_batch(c, tuples);
        Ok(())
    }

    /// Run the recognize-act cycle.
    pub fn run(&mut self, max_cycles: usize) -> RunOutcome {
        self.exec.run(max_cycles)
    }

    /// One cycle; `None` at quiescence.
    pub fn step(&mut self) -> Option<(rete::Instantiation, bool, Vec<String>)> {
        self.exec.step()
    }

    /// Current conflict-set size.
    pub fn conflict_len(&self) -> usize {
        self.exec.engine().conflict_set().len()
    }

    /// Dump a class's working memory (sorted for stable comparison).
    pub fn wm(&self, class: &str) -> Result<Vec<Tuple>> {
        let c = self.class(class)?;
        let pdb = self.exec.engine().pdb();
        let mut rows: Vec<Tuple> = pdb
            .db()
            .select(pdb.class_rel(c), &Restriction::default())?
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        rows.sort();
        Ok(rows)
    }

    /// The matching engine in use.
    pub fn engine(&self) -> &dyn MatchEngine {
        self.exec.engine()
    }

    /// Install a tracing/metrics handle. The matching engine, the
    /// executor, and the storage layer's lock manager all share it, so a
    /// single sink sees the whole recognize-act lifecycle. Pass
    /// [`obs::Tracer::disabled`] to turn tracing back off.
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.exec
            .engine()
            .pdb()
            .db()
            .lock_manager()
            .set_tracer(tracer.clone());
        self.exec.engine_mut().set_tracer(tracer);
    }

    /// The installed tracing handle (disabled by default).
    pub fn tracer(&self) -> &obs::Tracer {
        self.exec.engine().tracer()
    }

    /// Direct access to the sequential executor.
    pub fn executor_mut(&mut self) -> &mut SequentialExecutor {
        &mut self.exec
    }

    /// Convert into a concurrent executor (§5) with `workers` threads.
    pub fn into_concurrent(self, workers: usize) -> ConcurrentExecutor {
        ConcurrentExecutor::new(self.exec.into_engine(), workers)
    }

    /// Snapshot the persistent working memory (§3.2: "the working memory
    /// can reside on secondary storage and be persistent").
    pub fn save(&self) -> Result<bytes::Bytes> {
        Ok(relstore::snapshot::save(self.exec.engine().pdb().db())?)
    }

    /// Restore a system from a snapshot produced by [`ProductionSystem::save`]
    /// with the same program: the working memory, match structures and
    /// conflict set come back exactly.
    pub fn load(
        snapshot: bytes::Bytes,
        src: &str,
        kind: EngineKind,
        strategy: Strategy,
    ) -> Result<Self> {
        let rules = ops5::compile(src)?;
        let db = std::sync::Arc::new(relstore::snapshot::load(snapshot)?);
        let pdb = ProductionDb::attach(db, rules)?;
        let mut engine = make_engine(kind, pdb);
        crate::engine::bootstrap(engine.as_mut());
        Ok(ProductionSystem {
            exec: SequentialExecutor::new(engine, strategy),
        })
    }
}

/// The class declared as `name`.
fn class_id(rules: &RuleSet, name: &str) -> Result<ClassId> {
    rules
        .class_id(name)
        .ok_or_else(|| Error::UnknownClass(name.to_string()))
}

/// Refuse `tuple` unless it has exactly as many attributes as `class`
/// (the store would reject it after earlier changes had been applied).
fn check_arity(rules: &RuleSet, class: ClassId, tuple: &Tuple) -> Result<()> {
    let class = rules.class(class);
    if tuple.arity() == class.arity() {
        return Ok(());
    }
    Err(Error::Store(relstore::Error::ArityMismatch {
        relation: class.name.clone(),
        expected: class.arity(),
        got: tuple.arity(),
    }))
}

/// Convenience: build, load, and run concurrently in one call. An
/// unknown class or a wrong-arity tuple in `wm` is an error.
pub fn run_concurrent(
    src: &str,
    kind: EngineKind,
    workers: usize,
    wm: Vec<(String, Tuple)>,
    max_fired: usize,
) -> Result<ConcurrentStats> {
    let rules = ops5::compile(src)?;
    let pdb = ProductionDb::new(rules)?;
    let mut engine = make_engine(kind, pdb);
    for (class, tuple) in wm {
        let c = class_id(engine.pdb().rules(), &class)?;
        check_arity(engine.pdb().rules(), c, &tuple)?;
        engine.insert(c, tuple);
    }
    let mut ex = ConcurrentExecutor::new(engine, workers);
    Ok(ex.run(max_fired))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::tuple;

    const SRC: &str = r#"
        (literalize Emp name salary manager)
        (p R1
            (Emp ^name Mike ^salary <S> ^manager <M>)
            (Emp ^name <M> ^salary {<S1> < <S>})
            -->
            (remove 1)
            (write removed Mike))
    "#;

    #[test]
    fn facade_end_to_end() {
        let mut sys = ProductionSystem::from_source(SRC, EngineKind::Cond, Strategy::Fifo).unwrap();
        sys.insert("Emp", tuple!["Sam", 5000, "Root"]).unwrap();
        sys.insert("Emp", tuple!["Mike", 6000, "Sam"]).unwrap();
        assert_eq!(sys.conflict_len(), 1);
        let out = sys.run(10);
        assert_eq!(out.fired, 1);
        assert_eq!(out.writes, vec!["removed Mike"]);
        assert_eq!(sys.wm("Emp").unwrap(), vec![tuple!["Sam", 5000, "Root"]]);
    }

    #[test]
    fn unknown_class_is_an_error() {
        let mut sys = ProductionSystem::from_source(SRC, EngineKind::Rete, Strategy::Fifo).unwrap();
        assert!(sys.insert("Ghost", tuple![1]).is_err());
        assert!(sys.wm("Ghost").is_err());
    }

    #[test]
    fn wrong_arity_is_an_error_and_applies_nothing() {
        let arity_err = |got| {
            Some(Error::Store(relstore::Error::ArityMismatch {
                relation: "Emp".into(),
                expected: 3,
                got,
            }))
        };
        let mut sys = ProductionSystem::from_source(SRC, EngineKind::Cond, Strategy::Fifo).unwrap();
        assert_eq!(sys.insert("Emp", tuple![1]).err(), arity_err(1));
        let batch = vec![tuple!["Sam", 5000, "Root"], tuple!["Mike", 6000]];
        assert_eq!(sys.insert_batch("Emp", batch).err(), arity_err(2));
        assert!(
            sys.wm("Emp").unwrap().is_empty(),
            "nothing of the batch applied"
        );
        assert_eq!(sys.conflict_len(), 0);
        let wm = vec![("Emp".to_string(), tuple!["Sam", 5000, "Root", 1])];
        assert_eq!(
            run_concurrent(SRC, EngineKind::Rete, 2, wm, 10).err(),
            arity_err(4)
        );
    }

    #[test]
    fn save_load_roundtrip_resumes_matching() {
        let mut sys = ProductionSystem::from_source(SRC, EngineKind::Cond, Strategy::Fifo).unwrap();
        sys.insert("Emp", tuple!["Sam", 5000, "Root"]).unwrap();
        sys.insert("Emp", tuple!["Mike", 6000, "Sam"]).unwrap();
        let image = sys.save().unwrap();
        drop(sys);

        let mut back =
            ProductionSystem::load(image, SRC, EngineKind::Cond, Strategy::Fifo).unwrap();
        assert_eq!(back.conflict_len(), 1, "conflict set restored");
        let out = back.run(10);
        assert_eq!(out.fired, 1);
        assert_eq!(back.wm("Emp").unwrap(), vec![tuple!["Sam", 5000, "Root"]]);
    }

    #[test]
    fn run_concurrent_helper() {
        let stats = run_concurrent(
            r#"
            (literalize Item n)
            (literalize Done n)
            (p Mark (Item ^n <N>) -(Done ^n <N>) --> (make Done ^n <N>))
            "#,
            EngineKind::Rete,
            4,
            (0..6i64).map(|i| ("Item".to_string(), tuple![i])).collect(),
            100,
        )
        .unwrap();
        assert_eq!(stats.committed, 6);
    }
}
