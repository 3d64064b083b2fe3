//! The refraction policy of the Select step (§2.1): "an instantiation
//! never fires twice while it stays in the conflict set".
//!
//! The conflict set is a multiset (duplicate WMEs yield equal
//! instantiations, each entitled to one firing), so refraction memory is
//! a counted multiset too: `n` charges against an instantiation make the
//! first `n` equal copies in [`ConflictSet::iter`] order ineligible. Both
//! executors select through [`Refraction::eligible`] and charge through
//! [`Refraction::record`]; they differ only in how charges are returned
//! when instantiations leave the conflict set — see
//! [`Refraction::release`] and [`Refraction::trim_to`].

use std::collections::HashMap;

use rete::{ConflictDelta, ConflictSet, Instantiation};

use crate::exec::WmChange;

/// Refraction memory: how many firings each instantiation has been
/// charged while it stayed in the conflict set.
#[derive(Debug, Default)]
pub struct Refraction {
    fired: HashMap<Instantiation, usize>,
}

impl Refraction {
    /// The eligible candidates, in conflict-set order: every
    /// instantiation except the first `n` copies of one charged `n`
    /// firings. One walk over the conflict set, lent to the caller: a
    /// consumer that copies the candidates reads each entry once.
    pub fn eligible<'a>(
        &'a self,
        conflict_set: &'a ConflictSet,
    ) -> impl Iterator<Item = &'a Instantiation> + 'a {
        let mut skipped: HashMap<&Instantiation, usize> = HashMap::new();
        conflict_set.iter().filter(move |inst| {
            if self.fired.is_empty() {
                return true;
            }
            match self.fired.get(*inst) {
                Some(&charged) => {
                    let seen = skipped.entry(*inst).or_insert(0);
                    *seen += 1;
                    *seen > charged
                }
                None => true,
            }
        })
    }

    /// Charge one firing to `inst`.
    pub fn record(&mut self, inst: Instantiation) {
        *self.fired.entry(inst).or_insert(0) += 1;
    }

    /// Delta-driven reconcile (the sequential executor) after one pass
    /// of `changes`: every conflict-set removal the engine reports
    /// returns one charge of that instantiation, unless the pass adds it
    /// back and removed none of its WMEs. An engine that maintains a pass
    /// change by change (Rete, COND) retracts and re-adds an
    /// instantiation when a tuple the pass inserts and removes blocks it
    /// in between, where a set-oriented engine reports nothing; a
    /// released charge would let it fire again on one engine only. A
    /// `modify` that rewrites a matched WME to equal contents still
    /// releases: that is a new WME. The executor sees every delta of its
    /// own engine, so this is exact for what it removed itself; when
    /// duplicate WMEs leave equal copies and somebody else removes one,
    /// the removed copy is taken to be the fired one and the survivor may
    /// fire again.
    pub fn release(&mut self, deltas: &[ConflictDelta], changes: &[WmChange]) {
        let mut released: HashMap<&Instantiation, usize> = HashMap::new();
        for delta in deltas {
            if let ConflictDelta::Remove(inst) = delta {
                if self.fired.contains_key(inst) {
                    *released.entry(inst).or_insert(0) += 1;
                }
            }
        }
        if released.is_empty() {
            return;
        }
        let untouched = |inst: &Instantiation| {
            !changes.iter().any(|change| match change {
                WmChange::Remove(class, tuple) => inst
                    .wmes
                    .iter()
                    .any(|w| w.class == *class && w.tuple == *tuple),
                WmChange::Insert(..) => false,
            })
        };
        for delta in deltas {
            if let ConflictDelta::Add(inst) = delta {
                match released.get_mut(inst) {
                    Some(n) if untouched(inst) => *n = n.saturating_sub(1),
                    _ => {}
                }
            }
        }
        for (inst, n) in released {
            if let Some(charged) = self.fired.get_mut(inst) {
                *charged = charged.saturating_sub(n);
                if *charged == 0 {
                    self.fired.remove(inst);
                }
            }
        }
    }

    /// State-driven reconcile (the concurrent executor): cap every charge
    /// at the number of copies still in the conflict set. Under
    /// concurrency a removal can surface in a racing transaction's
    /// maintenance delta, so deltas cannot be attributed and only the
    /// state after the round is trusted. A third party removing one of two
    /// equal copies therefore leaves the charge on the survivor, which
    /// stays ineligible; a transaction that consumed its *own* support is
    /// simply never charged (`self_removed`).
    pub fn trim_to(&mut self, conflict_set: &ConflictSet) {
        if self.fired.is_empty() {
            return;
        }
        let mut present: HashMap<&Instantiation, usize> = HashMap::new();
        for inst in conflict_set.iter() {
            *present.entry(inst).or_insert(0) += 1;
        }
        self.fired.retain(|inst, charged| {
            *charged = (*charged).min(present.get(inst).copied().unwrap_or(0));
            *charged > 0
        });
    }
}
