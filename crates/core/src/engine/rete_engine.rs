//! The Rete family as one engine: the network of `rete` over either token
//! memory, with WM mirrored into the DBMS relations (so executors and
//! other tooling see one WM).
//!
//! * [`ReteEngine`] — the AI baseline, classic in-memory Rete (§3.1).
//! * [`DbReteEngine`] — the paper's §3.2 design: LEFT/RIGHT relations
//!   stored in the same database as working memory.

use std::time::Instant;

use ops5::ClassId;
use relstore::{Tuple, TupleId};
use rete::{
    ConflictDelta, ConflictSet, DbReteNetwork, Network, OpMetrics, RelMemory, ReteNetwork,
    TokenMemory, VecMemory, Wme,
};

use crate::engine::{MatchEngine, SpaceStats};
use crate::pdb::ProductionDb;

/// What the engine needs to know about a token memory beyond the
/// algorithm's [`TokenMemory`] contract.
pub trait ReteBackend: TokenMemory<Wid: Send> + Send + Sized {
    /// Engine label ([`MatchEngine::name`]).
    const NAME: &'static str;
    /// Profile span of one maintenance entry point.
    const SPAN: &'static str;

    /// The network for a production database's rule set.
    fn network(pdb: &ProductionDb) -> Network<Self>;

    /// Did `network` find its match state already in the database? Such a
    /// network must not be bootstrapped: replaying WM would double-count.
    fn restored(_net: &Network<Self>) -> bool {
        false
    }
}

impl ReteBackend for VecMemory {
    const NAME: &'static str = "rete";
    const SPAN: &'static str = "rete.maintain";

    fn network(pdb: &ProductionDb) -> ReteNetwork {
        ReteNetwork::new(pdb.rules())
    }
}

impl ReteBackend for RelMemory {
    const NAME: &'static str = "db-rete";
    const SPAN: &'static str = "dbrete.maintain";

    fn network(pdb: &ProductionDb) -> DbReteNetwork {
        match DbReteNetwork::new(pdb.db().clone(), pdb.rules()) {
            Ok(net) => net,
            // The database already holds this rule set's LEFT/RIGHT
            // relations (restored snapshot): re-attach to them — the whole
            // network state is DB-resident.
            Err(relstore::Error::DuplicateRelation(_)) => {
                DbReteNetwork::attach(pdb.db().clone(), pdb.rules())
                    .expect("attach to restored LEFT/RIGHT relations")
            }
            Err(e) => panic!("LEFT/RIGHT relation creation: {e}"),
        }
    }

    fn restored(net: &DbReteNetwork) -> bool {
        !net.conflict_set().is_empty() || net.stored_entries() > 0
    }
}

/// Rete matching over DBMS-resident working memory.
pub struct NetworkEngine<M: ReteBackend> {
    pdb: ProductionDb,
    net: Network<M>,
    last_total: u64,
    tracer: obs::Tracer,
}

/// In-memory Rete (§3.1).
pub type ReteEngine = NetworkEngine<VecMemory>;
/// DBMS-backed Rete (§3.2).
pub type DbReteEngine = NetworkEngine<RelMemory>;

impl<M: ReteBackend> NetworkEngine<M> {
    /// Create a new instance, empty unless the backend's memories were
    /// restored with the database.
    pub fn new(pdb: ProductionDb) -> Self {
        let net = M::network(&pdb);
        NetworkEngine {
            pdb,
            net,
            last_total: 0,
            tracer: obs::Tracer::disabled(),
        }
    }

    /// Propagation metrics of the last operation (E3).
    pub fn last_metrics(&self) -> OpMetrics {
        self.net.last_metrics()
    }
}

impl<M: ReteBackend> MatchEngine for NetworkEngine<M> {
    fn name(&self) -> &'static str {
        M::NAME
    }

    fn match_plan(&self) -> Vec<crate::engine::MatchPlan> {
        // The network compiles CEs in textual order (§3.2's frozen access
        // plan); LEFT/RIGHT relations mirror the same compile-time shape.
        crate::engine::explain::match_plans(
            self.pdb(),
            self.name(),
            crate::engine::OrderPolicy::Textual,
        )
    }

    fn pdb(&self) -> &ProductionDb {
        &self.pdb
    }

    fn maintain_insert(
        &mut self,
        class: ClassId,
        _tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!(M::SPAN);
        let start = Instant::now();
        let deltas = self.net.insert(Wme::new(class, tuple.clone()));
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    fn maintain_remove(
        &mut self,
        class: ClassId,
        _tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!(M::SPAN);
        let start = Instant::now();
        let deltas = self.net.remove(&Wme::new(class, tuple.clone()));
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    fn conflict_set(&self) -> &ConflictSet {
        self.net.conflict_set()
    }

    fn space(&self) -> SpaceStats {
        SpaceStats {
            match_entries: self.net.stored_entries(),
            match_bytes: self.net.approx_bytes(),
            wm_tuples: self.pdb.wm_total(),
        }
    }

    fn needs_bootstrap(&self) -> bool {
        !M::restored(&self.net)
    }

    fn last_detect_split(&self) -> Option<(u64, u64)> {
        // Rete updates the conflict set only after full propagation —
        // for the DB-resident network, after the LEFT/RIGHT relations are
        // maintained: detection time equals total time (§4.2.3's
        // contrast).
        Some((self.last_total, self.last_total))
    }

    fn tracer(&self) -> &obs::Tracer {
        &self.tracer
    }

    fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::tuple;

    fn mirrors_wm_and_stores_tokens<M: ReteBackend>() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let pdb = ProductionDb::new(rs).unwrap();
        let mut e = NetworkEngine::<M>::new(pdb.clone());
        assert!(e.needs_bootstrap());
        e.insert(ClassId(0), tuple!["Ann", 7]);
        let deltas = e.insert(ClassId(1), tuple![7]);
        assert_eq!(deltas.len(), 1);
        assert_eq!(e.conflict_set().len(), 1);
        assert_eq!(pdb.wm_total(), 2, "WM relations updated too");
        // The memories hold redundant copies (the §3.2 critique).
        assert!(e.space().match_entries >= 2);
        let (d, t) = e.last_detect_split().unwrap();
        assert_eq!(d, t);

        e.remove(ClassId(1), &tuple![7]);
        assert!(e.conflict_set().is_empty());
        assert_eq!(pdb.wm_total(), 1);
        // Removing a non-existent tuple is a no-op.
        assert!(e.remove(ClassId(1), &tuple![99]).is_empty());
    }

    #[test]
    fn engine_mirrors_wm_into_db() {
        mirrors_wm_and_stores_tokens::<VecMemory>();
        mirrors_wm_and_stores_tokens::<RelMemory>();
    }
}
