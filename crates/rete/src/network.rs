//! The Rete algorithm (§3.1), written once.
//!
//! Tokens flow from the root through one-input (alpha) tests into
//! two-input nodes whose memories hold partial joins; tokens reaching a
//! production node enter the conflict set. Insertions are `+` tokens,
//! deletions `-` tokens; modifications are a deletion followed by an
//! insertion (§3.1). Negated condition elements are negative nodes with
//! per-token match counts.
//!
//! [`Network`] owns the compiled plan, the WME identity map, the conflict
//! set and the whole activation/retraction control flow. Where the tokens
//! live is the only thing that varies (§3.2 moves them into LEFT/RIGHT
//! relations and changes nothing else), so storage sits behind the
//! [`TokenMemory`] contract.

use std::collections::HashMap;
use std::sync::Arc;

use ops5::RuleId;

use crate::compile::{BetaKind, NetworkPlan};
use crate::wme::{ConflictDelta, ConflictSet, Instantiation, Wme};

/// Per-operation cost metrics (reset on every insert/remove).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Beta-node activations (left or right).
    pub activations: u64,
    /// Alpha restrictions evaluated.
    pub alpha_tests: u64,
    /// New tokens created.
    pub tokens_created: u64,
    /// Deepest beta node touched — the sequential propagation delay the
    /// paper's Figure 1 argument concerns.
    pub max_depth: usize,
}

/// Where a [`Network`] keeps its alpha (RIGHT) and beta (LEFT) memories.
///
/// A memory is built for one [`NetworkPlan`], shares it with the network,
/// and is addressed by that plan's node and alpha indexes. The contract,
/// stated once for both backends:
///
/// * A *token* is one WME per positive condition element matched so far;
///   the root's memory is the single empty token and is never stored.
/// * A join node's memory holds its parent's tokens extended by one WME of
///   its alpha memory; negative and production nodes hold their parent's
///   tokens unextended, a negative node with the number of WMEs of its
///   alpha memory currently matching each one.
/// * A node *passes* a token to its children while that number is zero
///   (always, for join and production nodes). Every primitive that
///   returns tokens of a node returns them as its children see them, and
///   only passing ones.
/// * A token and a WME *match at* a two-input node when the node's join
///   tests ([`NetworkPlan::two_input`]) hold between them.
pub trait TokenMemory {
    /// Identity of a stored WME (duplicates get distinct ids).
    type Wid: Copy;
    /// A partial join.
    type Token;

    /// Give a new WME an identity.
    fn intern(&mut self, wme: &Wme) -> Self::Wid;
    /// Forget an identity once every memory has dropped it.
    fn release(&mut self, wid: Self::Wid);

    /// Add a WME to an alpha memory.
    fn add_right(&mut self, alpha: usize, wid: Self::Wid, wme: &Wme);
    /// Remove a WME from an alpha memory.
    fn remove_right(&mut self, alpha: usize, wid: Self::Wid);

    /// Tokens the parent of join node `node` passes that match the WME at
    /// `node`, each extended by it.
    fn join_left(&self, node: usize, wid: Self::Wid, wme: &Wme) -> Vec<Self::Token>;
    /// `token`, one of the parent's, extended by each WME of join node
    /// `node`'s alpha memory that matches it.
    fn join_right(&self, node: usize, token: &Self::Token) -> Vec<Self::Token>;
    /// How many WMEs of negative node `node`'s alpha memory match `token`,
    /// one of the parent's.
    fn count_right(&self, node: usize, token: &Self::Token) -> usize;

    /// Store a token in `node`'s memory; `blockers` is its match count
    /// (zero except at negative nodes).
    fn store(&mut self, node: usize, token: &Self::Token, blockers: usize);
    /// Remove and return the tokens of join node `node` that end in `wid`.
    fn take_with_last(&mut self, node: usize, wid: Self::Wid) -> Vec<Self::Token>;
    /// Remove the tokens of `node` that descend from `prefix`, one of the
    /// parent's tokens; return those `node` was passing.
    fn take_prefix(&mut self, node: usize, prefix: &Self::Token) -> Vec<Self::Token>;
    /// Add `delta` (±1) to the match count of every token of negative node
    /// `node` that matches the WME; return the tokens whose count left or
    /// reached zero.
    fn adjust_count(&mut self, node: usize, wme: &Wme, delta: i32) -> Vec<Self::Token>;

    /// The instantiation of `rule` a token of production node `node` is.
    fn instantiation(&self, node: usize, rule: RuleId, token: &Self::Token) -> Instantiation;

    /// Stored tokens plus alpha-memory postings — the Rete space metric
    /// for E2 ("an inherently redundant storage structure", §2.2).
    fn stored_entries(&self) -> usize;
    /// Approximate bytes held in the memories.
    fn approx_bytes(&self) -> usize;
}

/// A Rete network over token memory `M`.
pub struct Network<M: TokenMemory> {
    pub(crate) plan: Arc<NetworkPlan>,
    pub(crate) mem: M,
    /// WME identities by content (`remove` takes a WME, not an id).
    pub(crate) by_content: HashMap<Wme, Vec<M::Wid>>,
    pub(crate) conflict: ConflictSet,
    metrics: OpMetrics,
}

/// Alpha memories a WME belongs to.
fn alphas_of<'a>(plan: &'a NetworkPlan, wme: &'a Wme) -> impl Iterator<Item = usize> + 'a {
    plan.alphas
        .iter()
        .enumerate()
        .filter(|(_, spec)| spec.class == wme.class && spec.restriction.matches(&wme.tuple))
        .map(|(a, _)| a)
}

impl<M: TokenMemory> Network<M> {
    /// An empty network: `mem` must be empty and built for `plan`.
    pub(crate) fn over(plan: Arc<NetworkPlan>, mem: M) -> Self {
        Network {
            plan,
            mem,
            by_content: HashMap::new(),
            conflict: ConflictSet::new(),
            metrics: OpMetrics::default(),
        }
    }

    /// The compiled network topology.
    pub fn plan(&self) -> &NetworkPlan {
        &self.plan
    }

    /// The maintained conflict set.
    pub fn conflict_set(&self) -> &ConflictSet {
        &self.conflict
    }

    /// Metrics of the most recent insert/remove.
    pub fn last_metrics(&self) -> OpMetrics {
        self.metrics
    }

    /// Number of live WMEs.
    pub fn wme_count(&self) -> usize {
        self.by_content.values().map(Vec::len).sum()
    }

    /// See [`TokenMemory::stored_entries`].
    pub fn stored_entries(&self) -> usize {
        self.mem.stored_entries()
    }

    /// See [`TokenMemory::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        self.mem.approx_bytes()
    }

    /// One operation's propagation: the plan stays borrowed while the
    /// memories change, so no activation copies plan data.
    fn propagation(&mut self) -> Propagation<'_, M> {
        Propagation {
            plan: &self.plan,
            mem: &mut self.mem,
            metrics: &mut self.metrics,
            deltas: Vec::new(),
        }
    }

    /// Insert a WME, returning conflict-set deltas.
    pub fn insert(&mut self, wme: Wme) -> Vec<ConflictDelta> {
        self.metrics = OpMetrics {
            alpha_tests: self.plan.alphas.len() as u64,
            ..OpMetrics::default()
        };
        let wid = self.mem.intern(&wme);
        self.by_content.entry(wme.clone()).or_default().push(wid);
        let mut run = self.propagation();
        for a in alphas_of(run.plan, &wme) {
            run.mem.add_right(a, wid, &wme);
            for &s in &run.plan.alpha_successors[a] {
                run.right_activate(s, wid, &wme);
            }
        }
        let deltas = run.deltas;
        self.conflict.apply_all(&deltas);
        deltas
    }

    /// Remove one WME equal to `wme` (multiset semantics). Returns the
    /// conflict-set deltas, empty when no such WME exists.
    pub fn remove(&mut self, wme: &Wme) -> Vec<ConflictDelta> {
        self.metrics = OpMetrics::default();
        let Some(ids) = self.by_content.get_mut(wme) else {
            return Vec::new();
        };
        let wid = ids.pop().expect("content map entries are non-empty");
        if ids.is_empty() {
            self.by_content.remove(wme);
        }
        let mut run = self.propagation();
        // Pass 1: retract tokens that contain this WME (it was appended at
        // the join nodes fed by its alpha memories).
        for a in alphas_of(run.plan, wme) {
            run.mem.remove_right(a, wid);
            for &s in &run.plan.alpha_successors[a] {
                if matches!(run.plan.betas[s].kind, BetaKind::Join { .. }) {
                    run.retract_with_last(s, wid);
                }
            }
        }
        // Pass 2, once no alpha memory holds the WME: negative nodes lose
        // a matching right WME; suspended tokens may come back to life.
        // Deepest node first: a token revived at one negative node reaches
        // the negative nodes below it counted without the WME already, so
        // those must have given the WME up before it arrives.
        let mut negatives: Vec<usize> = alphas_of(run.plan, wme)
            .flat_map(|a| &run.plan.alpha_successors[a])
            .copied()
            .filter(|&s| matches!(run.plan.betas[s].kind, BetaKind::Negative { .. }))
            .collect();
        negatives.sort_by_key(|&s| std::cmp::Reverse(run.plan.betas[s].depth));
        for s in negatives {
            run.adjust_negative(s, wme, -1);
        }
        let deltas = run.deltas;
        self.mem.release(wid);
        self.conflict.apply_all(&deltas);
        deltas
    }
}

struct Propagation<'a, M: TokenMemory> {
    plan: &'a NetworkPlan,
    mem: &'a mut M,
    metrics: &'a mut OpMetrics,
    deltas: Vec<ConflictDelta>,
}

impl<M: TokenMemory> Propagation<'_, M> {
    fn touch(&mut self, node: usize) {
        self.metrics.activations += 1;
        self.metrics.max_depth = self.metrics.max_depth.max(self.plan.betas[node].depth);
    }

    /// A new WME arrived in the alpha memory feeding `node`.
    fn right_activate(&mut self, node: usize, wid: M::Wid, wme: &Wme) {
        match self.plan.betas[node].kind {
            BetaKind::Join { .. } => {
                self.touch(node);
                for token in self.mem.join_left(node, wid, wme) {
                    self.emit(node, &token);
                }
            }
            BetaKind::Negative { .. } => self.adjust_negative(node, wme, 1),
            BetaKind::Root | BetaKind::Production { .. } => {
                unreachable!("alpha memories feed only two-input nodes")
            }
        }
    }

    /// A WME entered (`+1`) or left (`-1`) the alpha memory of negative
    /// node `node`: tokens it newly contradicts are retracted below the
    /// node, tokens it was the last to contradict flow on again.
    fn adjust_negative(&mut self, node: usize, wme: &Wme, delta: i32) {
        self.touch(node);
        for token in self.mem.adjust_count(node, wme, delta) {
            for &c in &self.plan.betas[node].children {
                if delta > 0 {
                    self.retract_exact(c, &token);
                } else {
                    self.token_arrived(c, &token);
                }
            }
        }
    }

    /// A token arrives at `node` from its parent.
    fn token_arrived(&mut self, node: usize, token: &M::Token) {
        self.touch(node);
        match self.plan.betas[node].kind {
            BetaKind::Join { .. } => {
                for out in self.mem.join_right(node, token) {
                    self.emit(node, &out);
                }
            }
            BetaKind::Negative { .. } => {
                let blockers = self.mem.count_right(node, token);
                self.mem.store(node, token, blockers);
                self.metrics.tokens_created += 1;
                if blockers == 0 {
                    for &c in &self.plan.betas[node].children {
                        self.token_arrived(c, token);
                    }
                }
            }
            BetaKind::Production { rule, .. } => {
                self.mem.store(node, token, 0);
                let inst = self.mem.instantiation(node, rule, token);
                self.deltas.push(ConflictDelta::Add(inst));
            }
            BetaKind::Root => unreachable!("root receives no tokens"),
        }
    }

    /// Store a token produced by join node `node` and propagate it.
    fn emit(&mut self, node: usize, token: &M::Token) {
        self.metrics.tokens_created += 1;
        self.mem.store(node, token, 0);
        for &c in &self.plan.betas[node].children {
            self.token_arrived(c, token);
        }
    }

    /// Remove tokens of join node `node` whose last element is `wid`.
    fn retract_with_last(&mut self, node: usize, wid: M::Wid) {
        self.touch(node);
        for token in self.mem.take_with_last(node, wid) {
            for &c in &self.plan.betas[node].children {
                self.retract_exact(c, &token);
            }
        }
    }

    /// Retract the descendants of `token`, one of the parent's, at `node`
    /// and below.
    fn retract_exact(&mut self, node: usize, token: &M::Token) {
        self.touch(node);
        let spec = &self.plan.betas[node];
        let gone = self.mem.take_prefix(node, token);
        if let BetaKind::Production { rule, .. } = spec.kind {
            for t in &gone {
                let inst = self.mem.instantiation(node, rule, t);
                self.deltas.push(ConflictDelta::Remove(inst));
            }
        } else {
            for t in &gone {
                for &c in &spec.children {
                    self.retract_exact(c, t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ops5::{ClassId, RuleId};
    use relstore::{tuple, Database};

    use crate::wme::Wme;
    use crate::{DbReteNetwork, ReteNetwork};

    const EXAMPLE_3: &str = r#"
        (literalize Emp name salary manager dno)
        (literalize Dept dno dname floor manager)
        (p R1
            (Emp ^name Mike ^salary <S> ^manager <M>)
            (Emp ^name <M> ^salary {<S1> < <S>})
            -->
            (remove 1))
        (p R2
            (Emp ^dno <D>)
            (Dept ^dno <D> ^dname Toy ^floor 1)
            -->
            (remove 1))
    "#;

    const NO_DEPT: &str = r#"
        (literalize Emp dno)
        (literalize Dept dno)
        (p NoDept (Emp ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
    "#;

    const EMP: ClassId = ClassId(0);
    const DEPT: ClassId = ClassId(1);

    /// Run the body once per token-memory backend.
    macro_rules! on_both_backends {
        ($src:expr, |$net:ident| $body:block) => {{
            let rules = ops5::compile($src).unwrap();
            {
                let mut $net = ReteNetwork::new(&rules);
                $body
            }
            {
                let mut $net = DbReteNetwork::new(Arc::new(Database::new()), &rules).unwrap();
                $body
            }
        }};
    }

    #[test]
    fn r1_fires_when_mike_outearns_manager() {
        on_both_backends!(EXAMPLE_3, |net| {
            assert!(net
                .insert(Wme::new(EMP, tuple!["Sam", 5000, "Root", 1]))
                .is_empty());
            let deltas = net.insert(Wme::new(EMP, tuple!["Mike", 6000, "Sam", 1]));
            assert_eq!(deltas.len(), 1);
            assert!(deltas[0].is_add());
            assert_eq!(deltas[0].instantiation().rule, RuleId(0));
            assert_eq!(net.conflict_set().len(), 1);
        });
    }

    #[test]
    fn r1_does_not_fire_when_manager_earns_more() {
        on_both_backends!(EXAMPLE_3, |net| {
            net.insert(Wme::new(EMP, tuple!["Sam", 9000, "Root", 1]));
            let deltas = net.insert(Wme::new(EMP, tuple!["Mike", 6000, "Sam", 1]));
            assert!(deltas.is_empty());
        });
    }

    #[test]
    fn out_of_order_arrival_matches_eventually() {
        // Tuples "queue up at the network waiting for a future arrival of
        // a matching tuple" (§3.1).
        on_both_backends!(EXAMPLE_3, |net| {
            assert!(net
                .insert(Wme::new(EMP, tuple!["Ann", 1000, "Sam", 7]))
                .is_empty());
            let deltas = net.insert(Wme::new(DEPT, tuple![7, "Toy", 1, "Sam"]));
            assert_eq!(deltas.len(), 1, "R2 fires once the Dept tuple arrives");
            assert_eq!(deltas[0].instantiation().rule, RuleId(1));
        });
    }

    #[test]
    fn removal_retracts_instantiations() {
        on_both_backends!(EXAMPLE_3, |net| {
            net.insert(Wme::new(EMP, tuple!["Ann", 1000, "Sam", 7]));
            net.insert(Wme::new(DEPT, tuple![7, "Toy", 1, "Sam"]));
            assert_eq!(net.conflict_set().len(), 1);
            let deltas = net.remove(&Wme::new(DEPT, tuple![7, "Toy", 1, "Sam"]));
            assert_eq!(deltas.len(), 1);
            assert!(!deltas[0].is_add());
            assert!(net.conflict_set().is_empty());
            assert_eq!(net.wme_count(), 1);
        });
    }

    #[test]
    fn remove_unknown_wme_is_noop() {
        on_both_backends!(EXAMPLE_3, |net| {
            assert!(net
                .remove(&Wme::new(EMP, tuple!["Ghost", 0, "X", 0]))
                .is_empty());
        });
    }

    #[test]
    fn duplicate_wmes_are_multiset() {
        on_both_backends!(EXAMPLE_3, |net| {
            net.insert(Wme::new(DEPT, tuple![7, "Toy", 1, "Sam"]));
            net.insert(Wme::new(EMP, tuple!["Ann", 1000, "Sam", 7]));
            net.insert(Wme::new(EMP, tuple!["Ann", 1000, "Sam", 7]));
            assert_eq!(
                net.conflict_set().len(),
                2,
                "two identical emps, two instantiations"
            );
            net.remove(&Wme::new(EMP, tuple!["Ann", 1000, "Sam", 7]));
            assert_eq!(net.conflict_set().len(), 1);
        });
    }

    #[test]
    fn negation_suspends_and_revives() {
        on_both_backends!(NO_DEPT, |net| {
            // Emp with no dept → fires.
            let d1 = net.insert(Wme::new(EMP, tuple![7]));
            assert_eq!(d1.len(), 1);
            assert!(d1[0].is_add());
            // Matching dept arrives → retracts.
            let d2 = net.insert(Wme::new(DEPT, tuple![7]));
            assert_eq!(d2.len(), 1);
            assert!(!d2[0].is_add());
            assert!(net.conflict_set().is_empty());
            // Dept removed again → revives.
            let d3 = net.remove(&Wme::new(DEPT, tuple![7]));
            assert_eq!(d3.len(), 1);
            assert!(d3[0].is_add());
            assert_eq!(net.conflict_set().len(), 1);
            // Unrelated dept does nothing.
            assert!(net.insert(Wme::new(DEPT, tuple![8])).is_empty());
        });
    }

    #[test]
    fn negation_counts_multiple_blockers() {
        on_both_backends!(NO_DEPT, |net| {
            net.insert(Wme::new(EMP, tuple![7]));
            net.insert(Wme::new(DEPT, tuple![7]));
            net.insert(Wme::new(DEPT, tuple![7]));
            assert!(net.conflict_set().is_empty());
            net.remove(&Wme::new(DEPT, tuple![7]));
            assert!(net.conflict_set().is_empty(), "one blocker remains");
            net.remove(&Wme::new(DEPT, tuple![7]));
            assert_eq!(net.conflict_set().len(), 1, "all blockers gone");
        });
    }

    /// Two negated CEs over one class: a WME leaving both alpha memories
    /// must be given up by the lower negative node before the upper one
    /// revives a token into it, or the revived token — already counted
    /// without the WME — is decremented a second time and fires.
    #[test]
    fn removal_through_chained_negative_nodes_counts_once() {
        const CHAIN: &str = r#"
            (literalize Emp dno grade)
            (literalize Dept dno grade)
            (p Lost (Emp ^dno <D> ^grade <G>) -(Dept ^dno <D>) -(Dept ^grade {<> <G>})
                --> (remove 1))
        "#;
        on_both_backends!(CHAIN, |net| {
            net.insert(Wme::new(EMP, tuple![1, 2]));
            net.insert(Wme::new(DEPT, tuple![1, 0]));
            net.insert(Wme::new(DEPT, tuple![2, 0]));
            assert!(net.conflict_set().is_empty());
            net.remove(&Wme::new(DEPT, tuple![1, 0]));
            assert!(
                net.conflict_set().is_empty(),
                "Dept(2,0) still contradicts the second negated CE"
            );
            net.remove(&Wme::new(DEPT, tuple![2, 0]));
            assert_eq!(net.conflict_set().len(), 1);
        });
    }

    /// Two positive CEs of one rule over one alpha memory: the WME reaches
    /// the second join from the right and, inside the first join's token,
    /// from the left. `[t, t]` must come out once.
    #[test]
    fn one_wme_on_both_sides_of_a_join_pairs_with_itself_once() {
        const PAIR: &str = r#"
            (literalize C a b)
            (p Pair (C ^a <X>) (C ^b <Y>) --> (remove 1))
        "#;
        on_both_backends!(PAIR, |net| {
            assert_eq!(net.insert(Wme::new(ClassId(0), tuple![1, 2])).len(), 1);
            assert_eq!(net.insert(Wme::new(ClassId(0), tuple![3, 4])).len(), 3);
            assert_eq!(net.conflict_set().len(), 4);
            assert_eq!(net.remove(&Wme::new(ClassId(0), tuple![1, 2])).len(), 3);
            assert_eq!(net.conflict_set().len(), 1);
        });
    }

    #[test]
    fn metrics_track_depth() {
        on_both_backends!(EXAMPLE_3, |net| {
            net.insert(Wme::new(EMP, tuple!["Sam", 5000, "Root", 1]));
            net.insert(Wme::new(EMP, tuple!["Mike", 6000, "Sam", 1]));
            let m = net.last_metrics();
            assert!(m.max_depth >= 3, "token reached a production node");
            assert!(m.activations > 0);
            assert!(m.alpha_tests > 0);
            // "RIGHT1 will contain all tuples inserted in the Emp relation,
            // as all of them are potential matches" (§3.2).
            assert!(net.stored_entries() > 0);
            assert!(net.approx_bytes() > 0);
        });
    }

    #[test]
    fn insert_remove_inverse_restores_state() {
        on_both_backends!(EXAMPLE_3, |net| {
            net.insert(Wme::new(DEPT, tuple![7, "Toy", 1, "Sam"]));
            let baseline_entries = net.stored_entries();
            let baseline_cs = net.conflict_set().sorted();
            let w = Wme::new(EMP, tuple!["Ann", 1000, "Sam", 7]);
            net.insert(w.clone());
            net.remove(&w);
            assert_eq!(net.stored_entries(), baseline_entries);
            assert_eq!(net.conflict_set().sorted(), baseline_cs);
        });
    }
}
