//! Error type shared by every storage-layer operation.

use std::fmt;

use crate::schema::RelId;
use crate::txn::TxnId;

/// Errors produced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A relation name was not found in the catalog.
    UnknownRelation(String),
    /// A relation id was out of range for this database.
    BadRelId(RelId),
    /// An attribute name was not found in a schema.
    UnknownAttribute { relation: String, attribute: String },
    /// An attribute index was out of range for a schema.
    BadAttrIndex { relation: String, index: usize },
    /// A tuple had the wrong arity for its target relation.
    ArityMismatch {
        relation: String,
        expected: usize,
        got: usize,
    },
    /// A tuple id did not name a live tuple.
    NoSuchTuple(RelId, u64),
    /// A relation with this name already exists.
    DuplicateRelation(String),
    /// A logged relation was created after a derived one in a database
    /// with a log. Replay skips derived relations, so it would come back
    /// under another id.
    LoggedAfterDerived(String),
    /// The transaction was chosen as a deadlock victim and must abort.
    Deadlock(TxnId),
    /// The transaction has already committed or aborted.
    TxnFinished(TxnId),
    /// A lock request conflicted with the 2PL protocol (e.g. acquiring
    /// after the shrink phase started).
    LockProtocol(&'static str),
    /// Snapshot, WAL, or page bytes were malformed.
    Corrupt(&'static str),
    /// A value exceeded an encode-time size limit (e.g. a string longer
    /// than [`crate::codec::MAX_STR_BYTES`]); rejected up front rather
    /// than written as an undecodable record.
    TooLarge(&'static str),
    /// An operating-system I/O failure from the page file or log file.
    Io(String),
    /// A query referenced a term index that does not exist.
    BadQueryTerm(usize),
    /// A fault armed via [`crate::Database::inject_fault_after`] fired —
    /// only ever produced by the test hook, never by real storage.
    Injected(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            Error::BadRelId(rid) => write!(f, "relation id {} out of range", rid.0),
            Error::UnknownAttribute {
                relation,
                attribute,
            } => {
                write!(f, "relation `{relation}` has no attribute `{attribute}`")
            }
            Error::BadAttrIndex { relation, index } => {
                write!(
                    f,
                    "attribute index {index} out of range for relation `{relation}`"
                )
            }
            Error::ArityMismatch {
                relation,
                expected,
                got,
            } => {
                write!(
                    f,
                    "relation `{relation}` expects {expected} attributes, tuple has {got}"
                )
            }
            Error::NoSuchTuple(rid, tid) => {
                write!(f, "no live tuple {tid} in relation {}", rid.0)
            }
            Error::DuplicateRelation(name) => write!(f, "relation `{name}` already exists"),
            Error::LoggedAfterDerived(name) => write!(f, "`{name}` follows a derived relation"),
            Error::Deadlock(txn) => write!(f, "transaction {} aborted: deadlock victim", txn.0),
            Error::TxnFinished(txn) => write!(f, "transaction {} already finished", txn.0),
            Error::LockProtocol(msg) => write!(f, "lock protocol violation: {msg}"),
            Error::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            Error::TooLarge(msg) => write!(f, "value too large to encode: {msg}"),
            Error::Io(msg) => write!(f, "storage i/o error: {msg}"),
            Error::BadQueryTerm(i) => write!(f, "query references unknown term {i}"),
            Error::Injected(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
