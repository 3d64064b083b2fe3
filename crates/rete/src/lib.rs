//! # rete — Rete match networks
//!
//! One runtime over one compiled topology ([`NetworkPlan`]): [`Network`]
//! is the algorithm of OPS5 (§3.1 of Sellis/Lin/Raschid, SIGMOD '88) —
//! shared alpha nodes, two-input join nodes with token memories, negative
//! nodes with match counts, and incremental conflict-set deltas — written
//! once. Only where the tokens are kept varies, behind the [`TokenMemory`]
//! contract (stated once, on the trait), with two backends:
//!
//! * [`VecMemory`] ([`ReteNetwork`]) — the classic in-memory memories:
//!   vectors of WME ids, hashed on each two-input node's first `=` join
//!   test.
//! * [`RelMemory`] ([`DbReteNetwork`]) — the paper's §3.2 "straightforward
//!   implementation … in a DBMS environment": every memory is a LEFT/RIGHT
//!   relation in a [`relstore::Database`], so the approach's logical I/O
//!   is measurable.
//!
//! Both produce identical [`ConflictDelta`] streams for identical inputs
//! (unit-tested here, property-tested in the workspace integration suite).
//!
//! ```
//! use ops5::ClassId;
//! use rete::{ReteNetwork, Wme};
//! use relstore::{tuple, TupleId};
//!
//! let rules = ops5::compile(r#"
//!     (literalize Emp name dno)
//!     (literalize Dept dno)
//!     (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
//! "#).unwrap();
//! let mut net = ReteNetwork::new(&rules);
//! // The Emp token queues at the join, waiting for a matching Dept.
//! // A WME is named by the tuple id storage gave it.
//! assert!(net.insert(TupleId::new(0, 0), Wme::new(ClassId(0), tuple!["Ann", 7])).is_empty());
//! let deltas = net.insert(TupleId::new(0, 0), Wme::new(ClassId(1), tuple![7]));
//! assert_eq!(deltas.len(), 1);       // rule R enters the conflict set
//! assert_eq!(net.conflict_set().len(), 1);
//! ```

pub mod compile;
pub mod dbrete;
pub mod memory;
pub mod network;
pub mod wme;

pub use compile::{AlphaSpec, BJoinTest, BetaKind, BetaSpec, NetworkPlan};
pub use dbrete::{DbReteNetwork, RelMemory};
pub use memory::{ReteNetwork, VecMemory};
pub use network::{Network, OpMetrics, TokenMemory, Wmes};
pub use wme::{AbsentPattern, ConflictDelta, ConflictSet, InstKey, Instantiation, KeyMap, Wme};
