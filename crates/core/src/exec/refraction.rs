//! The refraction policy of the Select step (§2.1): "an instantiation
//! never fires twice while it stays in the conflict set".
//!
//! Refraction memory is the set of fired instantiations' keys
//! ([`Instantiation::key`]: rule and support ids). Two WMEs of equal
//! contents are two tuples, so their instantiations are two keys, and a
//! charge belongs to the one that fired. A charge lasts exactly as long
//! as its key is in the conflict set: when the key leaves, the charge
//! goes, and an instantiation that comes back later (its blocker came and
//! went) may fire again. Both executors select through
//! [`Refraction::eligible`] and charge through [`Refraction::record`]. The
//! sequential executor drops charges after every maintenance pass, from
//! the pass's removals ([`Refraction::release`]); the concurrent one at the
//! start of every run and after every round, from the conflict set
//! ([`Refraction::trim_to`]), since a removal may surface in a racing
//! transaction's pass or come through its `engine()` between runs. Either way a key
//! removed and added back inside one pass or round keeps its charge.

use rete::{ConflictDelta, ConflictSet, Instantiation, KeyMap};

/// Refraction memory: the keys fired while they stayed in the conflict
/// set.
#[derive(Debug, Default)]
pub struct Refraction {
    fired: KeyMap<()>,
}

impl Refraction {
    /// The eligible candidates, in conflict-set order: every
    /// instantiation whose key has not fired. One walk over the conflict
    /// set, lent to the caller: a consumer that copies the candidates
    /// reads each entry once.
    pub fn eligible<'a>(
        &'a self,
        conflict_set: &'a ConflictSet,
    ) -> impl Iterator<Item = &'a Instantiation> + 'a {
        (conflict_set.iter())
            .filter(|inst| self.fired.is_empty() || self.fired.get(inst.key()).is_none())
    }

    /// Charge one firing to `inst`.
    pub fn record(&mut self, inst: &Instantiation) {
        self.fired.insert(inst, ());
    }

    /// Drop the charges of the keys a maintenance pass removed that are
    /// not in `conflict_set` after it.
    pub fn release(&mut self, conflict_set: &ConflictSet, deltas: &[ConflictDelta]) {
        if self.fired.is_empty() {
            return;
        }
        for delta in deltas {
            if let ConflictDelta::Remove(inst) = delta {
                if !conflict_set.contains_key(inst.key()) {
                    self.fired.remove(inst.key());
                }
            }
        }
    }

    /// Drop the charges of the keys not in `conflict_set`.
    pub fn trim_to(&mut self, conflict_set: &ConflictSet) {
        if !self.fired.is_empty() {
            self.fired.retain(|key| conflict_set.contains_key(key));
        }
    }
}
