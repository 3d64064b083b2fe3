//! # prodsys — production systems in a DBMS environment
//!
//! A full implementation of *Sellis, Lin, Raschid: "Implementing Large
//! Production Systems in a DBMS Environment: Concepts and Algorithms"*
//! (SIGMOD 1988): OPS5-style rules over DBMS-resident working memory,
//! with five interchangeable matching engines and two execution models.
//!
//! ```
//! use prodsys::{EngineKind, ProductionSystem, Strategy};
//! use relstore::tuple;
//!
//! let mut sys = ProductionSystem::from_source(r#"
//!     (literalize Emp name salary manager)
//!     (p R1
//!         (Emp ^name Mike ^salary <S> ^manager <M>)
//!         (Emp ^name <M> ^salary {<S1> < <S>})
//!         -->
//!         (remove 1))
//! "#, EngineKind::Cond, Strategy::Fifo).unwrap();
//! sys.insert("Emp", tuple!["Sam", 5000, "Root"]).unwrap();
//! sys.insert("Emp", tuple!["Mike", 6000, "Sam"]).unwrap();
//! let out = sys.run(10);
//! assert_eq!(out.fired, 1); // Mike out-earned his manager and is gone
//! ```
//!
//! See the crate-level modules:
//! * [`engine`] — the five matching engines (§3–§4 of the paper);
//! * [`exec`] — sequential (OPS5) and concurrent (§5) execution;
//! * [`strategy`] — conflict-resolution strategies;
//! * [`pdb`] — working-memory relations inside the DBMS.

pub mod engine;
pub mod error;
pub mod exec;
pub mod pdb;
pub mod rulebase;
pub mod strategy;
pub mod system;

pub use engine::{
    bootstrap, make_engine, plans_to_json, CondEngine, DbReteEngine, EngineKind, MarkerEngine,
    MatchEngine, MatchPlan, OrderPolicy, PlanStep, QueryEngine, ReteEngine, SpaceStats,
};
pub use error::{Error, Result};
pub use exec::{
    count_equivalent_schedules, critical_path, interleaving_upper_bound, ops_of_instantiation,
    ConcurrentExecutor, ConcurrentStats, Refraction, RunOutcome, ScheduleOracle,
    SequentialExecutor, TxnOps, WmChange,
};
pub use pdb::ProductionDb;
pub use rulebase::RulebaseIndex;
pub use strategy::Strategy;
pub use system::{run_concurrent, ProductionSystem};

// Re-export the shared runtime vocabulary so downstream users need only
// this crate.
pub use ops5::{ClassId, RuleId, RuleSet};
pub use rete::{AbsentPattern, ConflictDelta, ConflictSet, Instantiation, Provenance, Wme};
