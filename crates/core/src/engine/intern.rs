//! Pattern-identity interning for the COND engine (§4.2).
//!
//! A matching pattern's identity is its specialized σ-binding vector plus
//! any derived range constraints. The original representation carried that
//! identity around by value — `(Vec<Option<Value>>, Vec<(usize, CompOp,
//! Value)>)` — so every `by_identity` lookup, proposal key, and log entry
//! cloned and deep-hashed Values. The interner maps each distinct
//! `(sigma, extra)` to a dense [`PatId`] once, at pattern-creation time;
//! everywhere else the engine compares and hashes a `u32`.
//!
//! Lookups take *slices*, not owned keys: the table is keyed by a
//! precomputed content hash, so probing for an identity allocates nothing.
//! Canonical storage is only written on a miss — which coincides with a
//! new pattern being materialized, the one moment an allocation is
//! genuinely owed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use relstore::{CompOp, Value};

/// Dense interned identity of a matching pattern: index into the
/// interner's canonical table. Integer equality ⇔ deep identity equality.
pub type PatId = u32;

/// A derived range constraint carried by a pattern: `(attr, op, value)`.
pub type Extra = (usize, CompOp, Value);

/// What a value holds on the heap, beyond its own cell.
pub fn owned_bytes(v: &Value) -> usize {
    v.approx_bytes() - std::mem::size_of::<Value>()
}

/// FNV-1a. The engine's hot maps are keyed by small integers ([`PatId`],
/// packed `u64` proposal keys, tuple slots); SipHash's DoS resistance buys
/// nothing there and costs a measurable fraction of the probe path.
pub struct FnvHasher {
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Default for FnvHasher {
    fn default() -> Self {
        Self { hash: FNV_OFFSET }
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` with the cheap integer hasher — for maps keyed by ids.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Content hash of an identity, computed from borrowed slices so a probe
/// never has to materialize an owned key.
pub fn identity_hash(sigma: &[Option<Value>], extra: &[Extra]) -> u64 {
    let mut h = FnvHasher::default();
    sigma.hash(&mut h);
    extra.hash(&mut h);
    h.finish()
}

/// Append-only table of distinct pattern identities. Ids are stable for
/// the lifetime of the engine — a pattern removed from one group and
/// re-derived later resolves to the same id, which is what keeps
/// `by_identity` and the contribution log comparable across deltas.
#[derive(Debug, Default)]
pub struct IdentityInterner {
    idents: Vec<(Vec<Option<Value>>, Vec<Extra>)>,
    /// Content hash → candidate ids (collision chains are near-empty).
    table: FastMap<u64, Vec<PatId>>,
}

impl IdentityInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct identities seen so far.
    pub fn len(&self) -> usize {
        self.idents.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idents.is_empty()
    }

    /// Intern `(sigma, extra)`, returning its dense id. Only a miss
    /// clones the slices into canonical storage.
    pub fn intern(&mut self, sigma: &[Option<Value>], extra: &[Extra]) -> PatId {
        let h = identity_hash(sigma, extra);
        if let Some(ids) = self.table.get(&h) {
            for &id in ids {
                let (s, e) = &self.idents[id as usize];
                if s.as_slice() == sigma && e.as_slice() == extra {
                    return id;
                }
            }
        }
        let id = u32::try_from(self.idents.len()).expect("pattern identity space exhausted");
        self.idents.push((sigma.to_vec(), extra.to_vec()));
        self.table.entry(h).or_default().push(id);
        id
    }

    /// Bytes held: the canonical rows with what they own on the heap, and
    /// a table entry per identity.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let row = |(sigma, extra): &(Vec<Option<Value>>, Vec<Extra>)| {
            size_of::<(Vec<Option<Value>>, Vec<Extra>)>()
                + sigma.len() * size_of::<Option<Value>>()
                + sigma.iter().flatten().map(owned_bytes).sum::<usize>()
                + extra.len() * size_of::<Extra>()
                + extra.iter().map(|e| owned_bytes(&e.2)).sum::<usize>()
        };
        self.idents.iter().map(row).sum::<usize>()
            + self.table.len() * (size_of::<(u64, Vec<PatId>)>() + 1)
            + self.idents.len() * size_of::<PatId>()
    }

    /// Borrow the canonical `(sigma, extra)` for an id.
    pub fn resolve(&self, id: PatId) -> (&[Option<Value>], &[Extra]) {
        let (s, e) = &self.idents[id as usize];
        (s.as_slice(), e.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: i64) -> Option<Value> {
        Some(Value::Int(n))
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut it = IdentityInterner::new();
        let a = it.intern(&[None, v(1)], &[]);
        let b = it.intern(&[None, v(2)], &[]);
        let a2 = it.intern(&[None, v(1)], &[]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(b).0, &[None, v(2)]);
    }

    #[test]
    fn extra_distinguishes_identities() {
        let mut it = IdentityInterner::new();
        let plain = it.intern(&[v(3)], &[]);
        let ranged = it.intern(&[v(3)], &[(1, CompOp::Gt, Value::Int(7))]);
        assert_ne!(plain, ranged);
        let (s, e) = it.resolve(ranged);
        assert_eq!(s, &[v(3)]);
        assert_eq!(e, &[(1, CompOp::Gt, Value::Int(7))]);
    }

    #[test]
    fn slice_lookup_matches_vec_derived_hash() {
        // The probe hashes borrowed slices; storage hashes the owned
        // vectors. They must land in the same bucket.
        let sigma = vec![v(9), None];
        let extra = vec![(0, CompOp::Le, Value::Int(4))];
        assert_eq!(
            identity_hash(&sigma, &extra),
            identity_hash(sigma.as_slice(), extra.as_slice())
        );
    }
}
