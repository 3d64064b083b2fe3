//! The Rete algorithm (§3.1), written once.
//!
//! Tokens flow from the root through one-input (alpha) tests into
//! two-input nodes whose memories hold partial joins; tokens reaching a
//! production node enter the conflict set. Insertions are `+` tokens,
//! deletions `-` tokens; modifications are a deletion followed by an
//! insertion (§3.1). Negated condition elements are negative nodes with
//! per-token match counts.
//!
//! [`Network`] owns the compiled plan, the conflict set and the whole
//! activation/retraction control flow. A WME is named by the tuple id
//! storage gave it (OPS5's time tag): [`Network::insert`] takes the id
//! with the WME, [`Network::remove`] the class and the id. Where the
//! tokens live is the only thing that varies (§3.2 moves them into
//! LEFT/RIGHT relations and changes nothing else), so storage sits behind
//! the [`TokenMemory`] contract.

use std::sync::Arc;

use ops5::{ClassId, RuleId};
use relstore::TupleId;

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

/// The live WMEs by class and tuple slot, each with its generation. A
/// slot is unique among the live tuples of a relation, and a position of
/// a token has one class, so a token names its WMEs by slot.
#[derive(Debug, Default)]
pub struct Wmes {
    by_class: Vec<Vec<Option<(u32, Wme)>>>,
    live: usize,
}

impl Wmes {
    fn insert(&mut self, tid: TupleId, wme: Wme) {
        let class = wme.class.0;
        if self.by_class.len() <= class {
            self.by_class.resize_with(class + 1, Vec::new);
        }
        let slots = &mut self.by_class[class];
        let slot = tid.slot as usize;
        if slots.len() <= slot {
            slots.resize(slot + 1, None);
        }
        assert!(slots[slot].is_none(), "{tid} is live already");
        slots[slot] = Some((tid.gen, wme));
        self.live += 1;
    }

    /// The live WME `tid` of `class`, at its generation.
    pub fn find(&self, class: ClassId, tid: TupleId) -> Option<&Wme> {
        match self.by_class.get(class.0)?.get(tid.slot as usize)? {
            Some((gen, wme)) if *gen == tid.gen => Some(wme),
            _ => None,
        }
    }

    fn remove(&mut self, class: ClassId, tid: TupleId) {
        self.by_class[class.0][tid.slot as usize] = None;
        self.live -= 1;
    }

    /// The live WME in slot `slot` of `class`, and its tuple id.
    pub fn get(&self, class: ClassId, slot: u32) -> (TupleId, &Wme) {
        let (gen, wme) = self.by_class[class.0][slot as usize]
            .as_ref()
            .expect("live wme");
        (TupleId::new(slot, *gen), wme)
    }

    /// Approximate bytes of the live WMEs.
    pub fn approx_bytes(&self) -> usize {
        (self.by_class.iter().flatten().flatten())
            .map(|(_, w)| w.tuple.approx_bytes() + 8)
            .sum()
    }
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
    /// A partial join.
    type Token;

    /// The live WMEs: the network adds a WME before its first primitive
    /// call and drops it after its last.
    fn wmes(&self) -> &Wmes;
    /// See [`TokenMemory::wmes`].
    fn wmes_mut(&mut self) -> &mut Wmes;

    /// Add WME `tid` to an alpha memory.
    fn add_right(&mut self, alpha: usize, tid: TupleId, wme: &Wme);
    /// Remove WME `tid` from an alpha memory.
    fn remove_right(&mut self, alpha: usize, tid: TupleId);

    /// Tokens the parent of join node `node` passes that match the WME at
    /// `node`, each extended by it.
    fn join_left(&self, node: usize, tid: TupleId, wme: &Wme) -> Vec<Self::Token>;
    /// `token`, one of the parent's, extended by each WME of join node
    /// `node`'s alpha memory that matches it.
    fn join_right(&self, node: usize, token: &Self::Token) -> Vec<Self::Token>;
    /// How many WMEs of negative node `node`'s alpha memory match `token`,
    /// one of the parent's.
    fn count_right(&self, node: usize, token: &Self::Token) -> usize;

    /// Store a token in `node`'s memory; `blockers` is its match count
    /// (zero except at negative nodes).
    fn store(&mut self, node: usize, token: &Self::Token, blockers: usize);
    /// Remove and return the tokens of join node `node` that end in WME
    /// `tid`.
    fn take_with_last(&mut self, node: usize, tid: TupleId) -> Vec<Self::Token>;
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
        self.mem.wmes().live
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

    /// Insert WME `tid`, returning conflict-set deltas.
    pub fn insert(&mut self, tid: TupleId, wme: Wme) -> Vec<ConflictDelta> {
        self.metrics = OpMetrics {
            alpha_tests: self.plan.alphas.len() as u64,
            ..OpMetrics::default()
        };
        self.mem.wmes_mut().insert(tid, wme.clone());
        let mut run = self.propagation();
        for a in alphas_of(run.plan, &wme) {
            run.mem.add_right(a, tid, &wme);
            for &s in &run.plan.alpha_successors[a] {
                run.right_activate(s, tid, &wme);
            }
        }
        let deltas = net(run.deltas);
        self.conflict.apply_all(&deltas);
        deltas
    }

    /// Remove WME `tid` of `class`. Returns the conflict-set deltas, empty
    /// when no such WME is live.
    pub fn remove(&mut self, class: ClassId, tid: TupleId) -> Vec<ConflictDelta> {
        self.metrics = OpMetrics::default();
        let Some(wme) = self.mem.wmes().find(class, tid).cloned() else {
            return Vec::new();
        };
        let mut run = self.propagation();
        // Pass 1: retract tokens that contain this WME (it was appended at
        // the join nodes fed by its alpha memories).
        for a in alphas_of(run.plan, &wme) {
            run.mem.remove_right(a, tid);
            for &s in &run.plan.alpha_successors[a] {
                if matches!(run.plan.betas[s].kind, BetaKind::Join { .. }) {
                    run.retract_with_last(s, tid);
                }
            }
        }
        // Pass 2, once no alpha memory holds the WME: negative nodes lose
        // a matching right WME; suspended tokens may come back to life.
        // Deepest node first: a token revived at one negative node reaches
        // the negative nodes below it counted without the WME already, so
        // those must have given the WME up before it arrives.
        let mut negatives: Vec<usize> = alphas_of(run.plan, &wme)
            .flat_map(|a| &run.plan.alpha_successors[a])
            .copied()
            .filter(|&s| matches!(run.plan.betas[s].kind, BetaKind::Negative { .. }))
            .collect();
        negatives.sort_by_key(|&s| std::cmp::Reverse(run.plan.betas[s].depth));
        for s in negatives {
            run.adjust_negative(s, &wme, -1);
        }
        let deltas = net(run.deltas);
        self.mem.wmes_mut().remove(class, tid);
        self.conflict.apply_all(&deltas);
        deltas
    }
}

/// One change's deltas with each `Add` cancelled against a later `Remove`
/// of its key. A WME that fills a positive CE below a
/// negated CE it also blocks is joined before the negative node retracts
/// the new token; the conflict set never sees that instantiation.
fn net(deltas: Vec<ConflictDelta>) -> Vec<ConflictDelta> {
    // Nothing cancels unless a `Remove` follows an `Add`.
    if !(deltas.iter().skip_while(|d| !d.is_add())).any(|d| !d.is_add()) {
        return deltas;
    }
    let mut out: Vec<ConflictDelta> = Vec::with_capacity(deltas.len());
    for delta in deltas {
        if let ConflictDelta::Remove(gone) = &delta {
            let added = out
                .iter()
                .rposition(|d| d.is_add() && d.instantiation().key() == gone.key());
            if let Some(a) = added {
                out.remove(a);
                continue;
            }
        }
        out.push(delta);
    }
    out
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
    fn right_activate(&mut self, node: usize, tid: TupleId, wme: &Wme) {
        match self.plan.betas[node].kind {
            BetaKind::Join { .. } => {
                self.touch(node);
                for token in self.mem.join_left(node, tid, wme) {
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

    /// Remove tokens of join node `node` whose last element is `tid`.
    fn retract_with_last(&mut self, node: usize, tid: TupleId) {
        self.touch(node);
        for token in self.mem.take_with_last(node, tid) {
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
    use std::ops::{Deref, DerefMut};
    use std::sync::Arc;

    use ops5::{ClassId, RuleId};
    use relstore::{tuple, Database, TupleId};

    use crate::network::{Network, TokenMemory};
    use crate::wme::{ConflictDelta, Wme};
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

    /// A network whose WMEs get ids the way storage gives them: each
    /// insert takes the next slot of its class. `remove` names the oldest
    /// live WME of the given contents.
    pub(crate) struct Fed<M: TokenMemory> {
        net: Network<M>,
        live: Vec<(TupleId, Wme)>,
        next: Vec<u32>,
    }

    impl<M: TokenMemory> Fed<M> {
        pub(crate) fn new(net: Network<M>) -> Self {
            Fed {
                net,
                live: Vec::new(),
                next: Vec::new(),
            }
        }

        pub(crate) fn insert(&mut self, wme: Wme) -> Vec<ConflictDelta> {
            let class = wme.class.0;
            if self.next.len() <= class {
                self.next.resize(class + 1, 0);
            }
            let tid = TupleId::new(self.next[class], 0);
            self.next[class] += 1;
            self.live.push((tid, wme.clone()));
            self.net.insert(tid, wme)
        }

        pub(crate) fn remove(&mut self, wme: &Wme) -> Vec<ConflictDelta> {
            match self.live.iter().position(|(_, w)| w == wme) {
                Some(at) => {
                    let (tid, _) = self.live.remove(at);
                    self.net.remove(wme.class, tid)
                }
                None => Vec::new(),
            }
        }

        /// The id of the oldest live WME of these contents.
        pub(crate) fn tid(&self, wme: &Wme) -> TupleId {
            let live = self.live.iter().find(|(_, w)| w == wme);
            live.expect("a live wme").0
        }
    }

    impl<M: TokenMemory> Deref for Fed<M> {
        type Target = Network<M>;
        fn deref(&self) -> &Network<M> {
            &self.net
        }
    }

    impl<M: TokenMemory> DerefMut for Fed<M> {
        fn deref_mut(&mut self) -> &mut Network<M> {
            &mut self.net
        }
    }

    /// Run the body once per token-memory backend.
    macro_rules! on_both_backends {
        ($src:expr, |$net:ident| $body:block) => {{
            let rules = ops5::compile($src).unwrap();
            {
                let mut $net = Fed::new(ReteNetwork::new(&rules));
                $body
            }
            {
                let db = Arc::new(Database::new());
                let mut $net = Fed::new(DbReteNetwork::new(db, &rules).unwrap());
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

    /// Two WMEs of equal contents are two WMEs, and a removal takes the
    /// one its id names.
    #[test]
    fn equal_wmes_are_told_apart_by_id() {
        on_both_backends!(EXAMPLE_3, |net| {
            let ann = Wme::new(EMP, tuple!["Ann", 1000, "Sam", 7]);
            net.insert(Wme::new(DEPT, tuple![7, "Toy", 1, "Sam"]));
            net.insert(ann.clone());
            let first = net.tid(&ann);
            net.insert(ann.clone());
            assert_eq!(
                net.conflict_set().len(),
                2,
                "two identical emps, two instantiations"
            );
            let second = TupleId::new(first.slot + 1, 0);
            let deltas = net.net.remove(EMP, second);
            assert_eq!(deltas.len(), 1);
            assert_eq!(deltas[0].instantiation().support[0], second);
            let left = net.conflict_set().iter().next().unwrap();
            assert_eq!(left.support[0], first, "the other copy stays");
            assert!(net.net.remove(EMP, second).is_empty(), "gone already");
            assert!(
                net.net.remove(EMP, TupleId::new(first.slot, 1)).is_empty(),
                "another generation of the slot is another tuple"
            );
            assert_eq!(net.wme_count(), 2);
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

    /// A WME that fills a positive CE through an alpha memory met before
    /// the one feeding the negated CE it also blocks: the network joins
    /// it and then retracts the new token, and the change must net to
    /// nothing for that rule.
    #[test]
    fn an_add_retracted_in_the_same_change_is_netted_away() {
        const SELF_BLOCKING: &str = r#"
            (literalize C1 x)
            (literalize C2 y z k)
            (p First (C2 ^k 1) --> (remove 1))
            (p Later (C1 ^x <X>) -(C2 ^y <X>) (C2 ^z <X> ^k 1) --> (remove 1))
        "#;
        on_both_backends!(SELF_BLOCKING, |net| {
            net.insert(Wme::new(EMP, tuple![1]));
            let deltas = net.insert(Wme::new(DEPT, tuple![1, 1, 1]));
            assert_eq!(deltas.len(), 1, "{deltas:?}");
            assert_eq!(deltas[0].instantiation().rule, RuleId(0));
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
