//! Conflict-resolution strategies — the *Select* step of the
//! recognize-act cycle (§2.1: "One may use user-defined priorities or, in
//! general, order rules according to some static or dynamic criteria and
//! then fire the rules in that order").

use std::collections::HashMap;

use ops5::{RuleId, RuleSet};
use rete::Instantiation;

/// How the sequential executor picks one instantiation from the conflict
/// set.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Oldest instantiation first (stable queue order).
    Fifo,
    /// Newest instantiation first (recency, LEX-flavored).
    Lifo,
    /// User-defined rule priorities; higher fires first, ties broken by
    /// arrival order.
    Priority(HashMap<RuleId, i32>),
    /// More specific rules (more tests on their LHS) first.
    Specificity,
    /// Deterministic pseudo-random choice from a seed.
    Random(u64),
    /// Smallest instantiation in content order. Unlike `Fifo`/`Lifo`
    /// (which depend on the engine's internal conflict-set ordering, a
    /// freedom §2.1 leaves "arbitrary"), this makes whole runs
    /// reproducible across *different matching engines*.
    Canonical,
}

impl Strategy {
    /// Pick an index into `candidates` (non-empty).
    pub fn pick(&mut self, rules: &RuleSet, candidates: &[&Instantiation]) -> usize {
        debug_assert!(!candidates.is_empty());
        match self {
            Strategy::Fifo => 0,
            Strategy::Lifo => candidates.len() - 1,
            Strategy::Priority(pri) => {
                let mut best = 0;
                let mut best_p = i32::MIN;
                for (i, inst) in candidates.iter().enumerate() {
                    let p = pri.get(&inst.rule).copied().unwrap_or(0);
                    if p > best_p {
                        best_p = p;
                        best = i;
                    }
                }
                best
            }
            Strategy::Specificity => {
                let mut best = 0;
                let mut best_s = 0;
                for (i, inst) in candidates.iter().enumerate() {
                    let s = rules.rule(inst.rule).specificity();
                    if s > best_s {
                        best_s = s;
                        best = i;
                    }
                }
                best
            }
            Strategy::Canonical => {
                let mut best = 0;
                for (i, inst) in candidates.iter().enumerate() {
                    if *inst < candidates[best] {
                        best = i;
                    }
                }
                best
            }
            Strategy::Random(state) => {
                // xorshift64*, deterministic given the seed.
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % candidates.len() as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::ClassId;
    use relstore::tuple;
    use rete::Wme;

    fn rules() -> RuleSet {
        ops5::compile(
            r#"
            (literalize A x y)
            (p Simple (A ^x 1) --> (remove 1))
            (p Specific (A ^x 1 ^y 2) --> (remove 1))
            "#,
        )
        .unwrap()
    }

    fn inst(rule: usize) -> Instantiation {
        let support = std::sync::Arc::from([relstore::TupleId::new(0, 0)]);
        Instantiation::new(
            RuleId(rule),
            vec![Wme::new(ClassId(0), tuple![1, 2])],
            support,
        )
    }

    #[test]
    fn fifo_lifo() {
        let rs = rules();
        let a = inst(0);
        let b = inst(1);
        let cands = vec![&a, &b];
        assert_eq!(Strategy::Fifo.pick(&rs, &cands), 0);
        assert_eq!(Strategy::Lifo.pick(&rs, &cands), 1);
    }

    #[test]
    fn priority_and_specificity() {
        let rs = rules();
        let a = inst(0);
        let b = inst(1);
        let cands = vec![&a, &b];
        let mut pri = Strategy::Priority(HashMap::from([(RuleId(0), 5), (RuleId(1), 1)]));
        assert_eq!(pri.pick(&rs, &cands), 0);
        assert_eq!(
            Strategy::Specificity.pick(&rs, &cands),
            1,
            "Specific has more tests"
        );
    }

    #[test]
    fn canonical_picks_content_minimum() {
        let rs = rules();
        let a = inst(1);
        let b = inst(0);
        // Regardless of arrival order, the content-smallest wins.
        assert_eq!(Strategy::Canonical.pick(&rs, &[&a, &b]), 1);
        assert_eq!(Strategy::Canonical.pick(&rs, &[&b, &a]), 0);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let rs = rules();
        let a = inst(0);
        let b = inst(1);
        let cands = vec![&a, &b];
        let mut s1 = Strategy::Random(42);
        let mut s2 = Strategy::Random(42);
        for _ in 0..20 {
            let p1 = s1.pick(&rs, &cands);
            assert_eq!(p1, s2.pick(&rs, &cands));
            assert!(p1 < 2);
        }
    }
}
