//! # relstore — relational storage substrate
//!
//! An in-memory relational engine with the features the Sellis/Lin/Raschid
//! SIGMOD '88 paper assumes of its host DBMS:
//!
//! * relations with slotted tuple storage and secondary (hash + ordered)
//!   indexes ([`Relation`]);
//! * conjunctive-query evaluation with greedy join ordering, seeded
//!   execution and negated terms ([`query`]);
//! * strict two-phase locking with shared/exclusive modes at tuple and
//!   relation granularity, deadlock detection, and undo-based aborts
//!   ([`txn`]);
//! * logical I/O accounting ([`Stats`]) so experiments can report
//!   device-independent costs;
//! * snapshot persistence ([`snapshot`]) for in-memory databases, and for
//!   paged ones a log of committed transactions ([`wal`]) with
//!   checkpoints and one recovery path ([`Database::open_paged`]).
//!
//! ```
//! use relstore::{Database, Schema, Restriction, Selection, tuple};
//!
//! let db = Database::new();
//! let emp = db.create_relation(Schema::new("Emp", ["name", "salary"])).unwrap();
//! db.insert(emp, tuple!["Mike", 6000]).unwrap();
//! db.insert(emp, tuple!["Sam", 5000]).unwrap();
//! let rich = db.select(emp, &Restriction::new(vec![
//!     Selection::new(1, relstore::CompOp::Gt, 5500),
//! ])).unwrap();
//! assert_eq!(rich.len(), 1);
//! ```

pub mod analyze;
pub mod codec;
pub mod database;
pub mod error;
pub mod index;
pub mod journal;
pub mod page;
pub mod pool;
pub mod pred;
pub mod query;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod tuple;
pub mod txn;
pub mod value;
pub mod wal;

pub use analyze::{
    analyze, AnalyzeRegistry, AnalyzeSnapshot, AttrStats, ObservedCounts, RelationProfile,
};
pub use database::{Database, RecoveryReport};
pub use error::{Error, Result};
pub use journal::{ingest, wm_as_of, JournalRels};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pool::{BufferPool, PageManager};
pub use pred::{AttrTest, CompOp, Restriction, Selection};
pub use query::{
    Binding, ConjunctiveQuery, ExecProfile, JoinAlgo, JoinPred, Plan, Planner, QueryExecutor,
    QueryTerm,
};
pub use relation::Relation;
pub use schema::{AttrIdx, Attribute, RelId, Schema};
pub use stats::{OpSnapshot, Stats};
pub use tuple::{Tuple, TupleId};
pub use txn::{LockManager, LockMode, LockTarget, Txn, TxnId};
pub use value::{Value, ValueType};
pub use wal::{TornTail, Wal, WalRecord};
