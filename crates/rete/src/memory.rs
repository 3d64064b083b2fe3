//! The classic in-memory token memory (§3.1): alpha memories are vectors
//! of WME ids, beta memories vectors of id tuples.
//!
//! The memories are hashed, as in Doorenbos's Rete: a two-input node
//! with an `=` join test probes the opposite memory through an index on
//! the value its first `=` test compares; only a node without one scans.
//! One index (`Chains`) serves every node that probes a memory on the
//! same key. Retraction finds its tokens through indexes on WME ids.
//!
//! A WME id is its tuple's slot: a token position has one class, and a
//! slot is unique among a relation's live tuples. The WMEs themselves sit
//! in the network's [`Wmes`] table, by class and slot.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use ops5::{ClassId, RuleId, RuleSet};
use relstore::{CompOp, TupleId, Value};

use crate::compile::{BJoinTest, BetaKind, NetworkPlan};
use crate::network::{Network, TokenMemory, Wmes};
use crate::wme::{Instantiation, KeyHasher, Wme};

/// A WME's tuple slot.
type WmeId = u32;

/// A token suspended at (or output by) a beta node.
#[derive(Debug)]
struct TokenEntry {
    wmes: Vec<WmeId>,
    /// For negative nodes: number of alpha WMEs currently matching.
    negcount: u32,
    /// For negative nodes: arrival number, the order the node reports its
    /// tokens in (a removal moves the last token into the gap).
    seq: u32,
}

/// What an entry of a memory is keyed by in one of its indexes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Key {
    /// The id of the entry's WME at this position: a token's last WME
    /// (the entry point of WME-driven retraction) or its parent token's
    /// last.
    Id(usize),
    /// The value of attribute `attr` of the entry's WME at `pos`, of
    /// class `class` (alpha entries are one-WME tokens, so `pos` is 0
    /// there).
    Attr {
        pos: usize,
        class: ClassId,
        attr: usize,
    },
}

/// "No slot".
const NIL: u32 = u32::MAX;

/// One index over a memory's slots: `heads` maps a key to the newest slot
/// holding it and `next` links every slot to the next older one with the
/// same key, so a key with a single entry costs one map cell and no heap
/// bucket. A value key is a hash of the value: a chain may also hold
/// entries of another value, and a probe still checks every join test.
struct Chains {
    key: Key,
    heads: HashMap<u32, u32, BuildHasherDefault<KeyHasher>>,
    next: Vec<u32>,
}

impl Chains {
    /// Make the link that reaches slot `from` on the chain of `key` reach
    /// `to` instead (`NIL`: unlink `from`, whose successor `to` then is).
    fn relink(&mut self, key: u32, from: u32, to: u32) {
        let head = self.heads.get_mut(&key).expect("a stored slot is chained");
        if *head == from {
            if to == NIL {
                self.heads.remove(&key);
            } else {
                *head = to;
            }
            return;
        }
        let mut at = *head;
        while self.next[at as usize] != from {
            at = self.next[at as usize];
        }
        self.next[at as usize] = to;
    }
}

/// The key of a value: `Value`'s hash agrees with its `==` across `Int`
/// and `Float`, so equal values share a chain. The high half is taken
/// because the multiply leaves the low bits of small integers' float
/// images all zero.
fn value_key(v: Option<&Value>) -> u32 {
    let mut h = KeyHasher::default();
    v.hash(&mut h);
    (h.finish() >> 32) as u32
}

fn key_of(key: Key, wmes: &Wmes, token: &[WmeId]) -> u32 {
    match key {
        Key::Id(pos) => token[pos],
        Key::Attr { pos, class, attr } => value_key(wmes.get(class, token[pos]).1.tuple.get(attr)),
    }
}

/// An entry of a memory: a token, or a WME id in an alpha memory.
trait Entry {
    fn wmes(&self) -> &[WmeId];
}

impl Entry for WmeId {
    fn wmes(&self) -> &[WmeId] {
        std::slice::from_ref(self)
    }
}

impl Entry for TokenEntry {
    fn wmes(&self) -> &[WmeId] {
        &self.wmes
    }
}

/// One memory: its entries and the indexes over them. A removal moves the
/// last entry into the gap, so a slot number is only stable until then.
struct Slots<E> {
    entries: Vec<E>,
    chains: Vec<Chains>,
}

impl<E: Entry> Slots<E> {
    fn new() -> Self {
        Slots {
            entries: Vec::new(),
            chains: Vec::new(),
        }
    }

    /// The index keyed by `key`, made on first use (while empty).
    fn index(&mut self, key: Key) -> usize {
        debug_assert!(self.entries.is_empty(), "indexes are made before use");
        match self.chains.iter().position(|c| c.key == key) {
            Some(c) => c,
            None => {
                self.chains.push(Chains {
                    key,
                    heads: HashMap::default(),
                    next: Vec::new(),
                });
                self.chains.len() - 1
            }
        }
    }

    fn push(&mut self, wmes: &Wmes, entry: E) {
        let slot = self.entries.len() as u32;
        assert!(slot < NIL, "slot numbers fit below NIL");
        for c in &mut self.chains {
            let head = c.heads.insert(key_of(c.key, wmes, entry.wmes()), slot);
            c.next.push(head.unwrap_or(NIL));
        }
        self.entries.push(entry);
    }

    /// Remove the entry at `slot`; the last entry takes its place.
    fn swap_remove(&mut self, wmes: &Wmes, slot: usize) -> E {
        let tail = self.entries.len() - 1;
        for c in &mut self.chains {
            let gone = key_of(c.key, wmes, self.entries[slot].wmes());
            c.relink(gone, slot as u32, c.next[slot]);
            if tail != slot {
                let moved = key_of(c.key, wmes, self.entries[tail].wmes());
                c.relink(moved, tail as u32, slot as u32);
                c.next[slot] = c.next[tail];
            }
            c.next.pop();
        }
        self.entries.swap_remove(slot)
    }

    /// Remove the entries at `slots` (distinct), highest first: each move
    /// then comes from above every slot still to go.
    fn take(&mut self, wmes: &Wmes, mut slots: Vec<usize>) -> Vec<E> {
        slots.sort_unstable_by(|a, b| b.cmp(a));
        (slots.into_iter())
            .map(|s| self.swap_remove(wmes, s))
            .collect()
    }

    fn candidates(&self, probe: Option<(usize, u32)>) -> Candidates<'_> {
        Candidates::new(&self.chains, self.entries.len(), probe)
    }

    fn approx_bytes(&self) -> usize {
        // A map cell is a key and a slot.
        (self.chains.iter())
            .map(|c| c.next.len() * 4 + c.heads.len() * 8)
            .sum()
    }
}

/// The slots a probe visits: the chain of one key of one index, or every
/// slot when the node has no `=` test to key on.
enum Candidates<'a> {
    Chain { next: &'a [u32], at: u32 },
    All(Range<usize>),
}

impl<'a> Candidates<'a> {
    /// `probe` is an index of `chains` and a key.
    fn new(chains: &'a [Chains], len: usize, probe: Option<(usize, u32)>) -> Self {
        match probe {
            Some((c, key)) => Candidates::Chain {
                next: &chains[c].next,
                at: chains[c].heads.get(&key).copied().unwrap_or(NIL),
            },
            None => Candidates::All(0..len),
        }
    }
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Candidates::Chain { next, at } => (*at != NIL).then(|| {
                let slot = *at as usize;
                *at = next[slot];
                slot
            }),
            Candidates::All(slots) => slots.next(),
        }
    }
}

/// The probes of a two-input node with an `=` join test, on its first one.
#[derive(Clone, Copy)]
struct Keyed {
    /// The test's side on the node's own WME.
    my_attr: usize,
    /// The test's side on a token.
    theirs: Key,
    /// Index of the alpha memory keyed by `my_attr`.
    right: usize,
    /// Index keyed by `theirs` of the token memory the node probes: its
    /// parent's for a join node, its own for a negative node.
    left: usize,
}

/// Token memories held in vectors.
pub struct VecMemory {
    plan: Arc<NetworkPlan>,
    wmes: Wmes,
    /// Per beta node: the class of each position of its tokens.
    classes: Vec<Vec<ClassId>>,
    /// Every alpha memory has an index, which finds a WME to remove: a
    /// value index if a node probes the memory, else one keyed by id.
    alpha_mem: Vec<Slots<WmeId>>,
    beta_mem: Vec<Slots<TokenEntry>>,
    /// Per two-input node with an `=` test.
    keyed: Vec<Option<Keyed>>,
    /// Join nodes only: the index of the node's memory keyed by the
    /// token's last WME.
    by_last: Vec<Option<usize>>,
    /// Below the root's children: the index of the node's memory keyed by
    /// the parent token's last WME, which finds a parent token's
    /// descendants.
    by_prefix: Vec<Option<usize>>,
    /// Arrival number of the next negative-node token.
    seq: u32,
}

/// The in-memory Rete network.
pub type ReteNetwork = Network<VecMemory>;

impl Network<VecMemory> {
    /// Compile and instantiate a network for a rule set.
    pub fn new(rules: &RuleSet) -> Self {
        let plan = Arc::new(NetworkPlan::compile(rules));
        Network::over(plan.clone(), VecMemory::for_plan(plan))
    }
}

fn extended(token: &[WmeId], wid: WmeId) -> Vec<WmeId> {
    let mut out = Vec::with_capacity(token.len() + 1);
    out.extend_from_slice(token);
    out.push(wid);
    out
}

/// Do `tests` hold between `token`, whose positions have classes
/// `classes`, and the right WME?
fn passes(
    wmes: &Wmes,
    tests: &[BJoinTest],
    classes: &[ClassId],
    token: &[WmeId],
    right: &Wme,
) -> bool {
    tests.iter().all(|t| {
        let (_, left) = wmes.get(classes[t.token_pos], token[t.token_pos]);
        match (right.tuple.get(t.my_attr), left.tuple.get(t.token_attr)) {
            (Some(rv), Some(lv)) => t.op.eval(rv, lv),
            _ => false,
        }
    })
}

impl VecMemory {
    fn for_plan(plan: Arc<NetworkPlan>) -> Self {
        let mut alpha_mem: Vec<_> = plan.alphas.iter().map(|_| Slots::new()).collect();
        let mut beta_mem: Vec<_> = plan.betas.iter().map(|_| Slots::new()).collect();
        let mut keyed = vec![None; plan.betas.len()];
        let mut by_last = vec![None; plan.betas.len()];
        let mut by_prefix = vec![None; plan.betas.len()];
        // Token classes per node; a parent comes before its children.
        let mut classes: Vec<Vec<ClassId>> = vec![Vec::new(); plan.betas.len()];
        for (node, spec) in plan.betas.iter().enumerate() {
            let (parent, two_input) = match &spec.kind {
                BetaKind::Root => continue,
                BetaKind::Join {
                    parent,
                    alpha,
                    tests,
                } => {
                    classes[node] = classes[*parent].clone();
                    classes[node].push(plan.alphas[*alpha].class);
                    by_last[node] = Some(beta_mem[node].index(Key::Id(classes[node].len() - 1)));
                    (*parent, Some((*parent, *alpha, tests)))
                }
                BetaKind::Negative {
                    parent,
                    alpha,
                    tests,
                } => {
                    classes[node] = classes[*parent].clone();
                    (*parent, Some((node, *alpha, tests)))
                }
                BetaKind::Production { parent, .. } => {
                    classes[node] = classes[*parent].clone();
                    (*parent, None)
                }
            };
            let parent_len = classes[parent].len();
            if parent_len > 0 {
                by_prefix[node] = Some(beta_mem[node].index(Key::Id(parent_len - 1)));
            }
            let Some((probed, alpha, tests)) = two_input else {
                continue;
            };
            let Some(eq) = tests.iter().find(|t| t.op == CompOp::Eq) else {
                continue;
            };
            let mine = Key::Attr {
                pos: 0,
                class: plan.alphas[alpha].class,
                attr: eq.my_attr,
            };
            let theirs = Key::Attr {
                pos: eq.token_pos,
                class: classes[probed][eq.token_pos],
                attr: eq.token_attr,
            };
            keyed[node] = Some(Keyed {
                my_attr: eq.my_attr,
                theirs,
                right: alpha_mem[alpha].index(mine),
                left: beta_mem[probed].index(theirs),
            });
        }
        for mem in alpha_mem.iter_mut().filter(|m| m.chains.is_empty()) {
            mem.index(Key::Id(0));
        }
        let mut mem = VecMemory {
            wmes: Wmes::default(),
            classes,
            alpha_mem,
            beta_mem,
            keyed,
            by_last,
            by_prefix,
            seq: 0,
            plan,
        };
        // The root holds the single empty token (no join test reads it).
        let root = mem.plan.root();
        mem.beta_mem[root].push(
            &mem.wmes,
            TokenEntry {
                wmes: Vec::new(),
                negcount: 0,
                seq: 0,
            },
        );
        mem
    }

    /// Where slot `slot` of `node`'s memory comes in the order the node
    /// reports its tokens: arrival at negative nodes, slot elsewhere.
    fn rank(&self, node: usize, slot: usize) -> u32 {
        match self.plan.betas[node].kind {
            BetaKind::Negative { .. } => self.beta_mem[node].entries[slot].seq,
            _ => slot as u32,
        }
    }

    /// Slots of two-input node `node`'s alpha memory a probe for `token`
    /// visits.
    fn right_candidates(&self, node: usize, token: &[WmeId]) -> Candidates<'_> {
        let (_, alpha, _) = self.plan.two_input(node);
        let probe = self.keyed[node].map(|k| (k.right, key_of(k.theirs, &self.wmes, token)));
        self.alpha_mem[alpha].candidates(probe)
    }

    /// Slots of two-input node `node`'s alpha memory whose WME matches
    /// `token`, unordered.
    fn right_matches<'a>(
        &'a self,
        node: usize,
        token: &'a [WmeId],
    ) -> impl Iterator<Item = usize> + 'a {
        let (parent, alpha, tests) = self.plan.two_input(node);
        let (mem, class) = (&self.alpha_mem[alpha], self.plan.alphas[alpha].class);
        let classes = &self.classes[parent];
        (self.right_candidates(node, token)).filter(move |&s| {
            let (_, right) = self.wmes.get(class, mem.entries[s]);
            passes(&self.wmes, tests, classes, token, right)
        })
    }

    /// Slots of join node `node`'s parent memory a probe for the WME
    /// visits.
    fn left_candidates(&self, node: usize, wme: &Wme) -> Candidates<'_> {
        let (parent, _, _) = self.plan.two_input(node);
        let probe = self.keyed[node].map(|k| (k.left, value_key(wme.tuple.get(k.my_attr))));
        self.beta_mem[parent].candidates(probe)
    }

    /// Number the live negative-node tokens afresh, keeping their order,
    /// once the arrival counter runs out.
    fn renumber(&mut self) -> u32 {
        let mut next = 0;
        for (node, spec) in self.plan.betas.iter().enumerate() {
            if matches!(spec.kind, BetaKind::Negative { .. }) {
                let entries = &mut self.beta_mem[node].entries;
                let mut order: Vec<usize> = (0..entries.len()).collect();
                order.sort_unstable_by_key(|&s| entries[s].seq);
                for (seq, s) in order.into_iter().enumerate() {
                    entries[s].seq = seq as u32;
                }
                next = next.max(entries.len() as u32);
            }
        }
        next
    }
}

impl TokenMemory for VecMemory {
    type Token = Vec<WmeId>;

    fn wmes(&self) -> &Wmes {
        &self.wmes
    }

    fn wmes_mut(&mut self) -> &mut Wmes {
        &mut self.wmes
    }

    fn add_right(&mut self, alpha: usize, tid: TupleId, _wme: &Wme) {
        self.alpha_mem[alpha].push(&self.wmes, tid.slot);
    }

    fn remove_right(&mut self, alpha: usize, tid: TupleId) {
        let mem = &mut self.alpha_mem[alpha];
        let probe = (0, key_of(mem.chains[0].key, &self.wmes, &[tid.slot]));
        if let Some(slot) = (mem.candidates(Some(probe))).find(|&s| mem.entries[s] == tid.slot) {
            mem.swap_remove(&self.wmes, slot);
        }
    }

    fn join_left(&self, node: usize, tid: TupleId, wme: &Wme) -> Vec<Vec<WmeId>> {
        let (parent, _, tests) = self.plan.two_input(node);
        let (mem, classes) = (&self.beta_mem[parent], &self.classes[parent]);
        let mut hits: Vec<(u32, usize)> = (self.left_candidates(node, wme))
            .filter(|&s| {
                let e = &mem.entries[s];
                e.negcount == 0 && passes(&self.wmes, tests, classes, &e.wmes, wme)
            })
            .map(|s| (self.rank(parent, s), s))
            .collect();
        hits.sort_unstable();
        (hits.into_iter())
            .map(|(_, s)| extended(&mem.entries[s].wmes, tid.slot))
            .collect()
    }

    fn join_right(&self, node: usize, token: &Vec<WmeId>) -> Vec<Vec<WmeId>> {
        let (_, alpha, _) = self.plan.two_input(node);
        let mut slots: Vec<usize> = self.right_matches(node, token).collect();
        slots.sort_unstable();
        (slots.into_iter())
            .map(|s| extended(token, self.alpha_mem[alpha].entries[s]))
            .collect()
    }

    fn count_right(&self, node: usize, token: &Vec<WmeId>) -> usize {
        self.right_matches(node, token).count()
    }

    fn store(&mut self, node: usize, token: &Vec<WmeId>, blockers: usize) {
        let mut seq = 0;
        if matches!(self.plan.betas[node].kind, BetaKind::Negative { .. }) {
            if self.seq == u32::MAX {
                self.seq = self.renumber();
            }
            seq = self.seq;
            self.seq += 1;
        }
        let entry = TokenEntry {
            wmes: token.clone(),
            negcount: blockers as u32,
            seq,
        };
        self.beta_mem[node].push(&self.wmes, entry);
    }

    fn take_with_last(&mut self, node: usize, tid: TupleId) -> Vec<Vec<WmeId>> {
        let chain = self.by_last[node].expect("join node");
        let mem = &mut self.beta_mem[node];
        let slots = mem.candidates(Some((chain, tid.slot))).collect();
        let gone = mem.take(&self.wmes, slots);
        gone.into_iter().map(|e| e.wmes).collect()
    }

    fn take_prefix(&mut self, node: usize, prefix: &Vec<WmeId>) -> Vec<Vec<WmeId>> {
        let mem = &mut self.beta_mem[node];
        let probe = (self.by_prefix[node]).map(|c| (c, *prefix.last().expect("a stored prefix")));
        // Join tokens extend the prefix by one; negative and production
        // nodes store the prefix itself.
        let join = matches!(self.plan.betas[node].kind, BetaKind::Join { .. });
        let slots = (mem.candidates(probe))
            .filter(|&s| match join {
                true => mem.entries[s].wmes.starts_with(prefix),
                false => mem.entries[s].wmes == *prefix,
            })
            .collect();
        let gone = mem.take(&self.wmes, slots);
        (gone.into_iter())
            .filter(|e| e.negcount == 0)
            .map(|e| e.wmes)
            .collect()
    }

    fn adjust_count(&mut self, node: usize, wme: &Wme, delta: i32) -> Vec<Vec<WmeId>> {
        let (_, _, tests) = self.plan.two_input(node);
        let probe = self.keyed[node].map(|k| (k.left, value_key(wme.tuple.get(k.my_attr))));
        let Slots { entries, chains } = &mut self.beta_mem[node];
        let classes = &self.classes[node];
        let mut crossed = Vec::new();
        for s in Candidates::new(chains, entries.len(), probe) {
            let e = &mut entries[s];
            if passes(&self.wmes, tests, classes, &e.wmes, wme) {
                let was = e.negcount;
                e.negcount = was.checked_add_signed(delta).expect("count underflow");
                if was == 0 || e.negcount == 0 {
                    crossed.push((e.seq, s));
                }
            }
        }
        crossed.sort_unstable();
        (crossed.into_iter())
            .map(|(_, s)| entries[s].wmes.clone())
            .collect()
    }

    fn instantiation(&self, node: usize, rule: RuleId, token: &Vec<WmeId>) -> Instantiation {
        let live = || (token.iter().zip(&self.classes[node])).map(|(&s, &c)| self.wmes.get(c, s));
        let wmes = live().map(|(_, wme)| wme.clone()).collect();
        Instantiation::new(rule, wmes, live().map(|(tid, _)| tid).collect())
    }

    fn stored_entries(&self) -> usize {
        let alpha: usize = self.alpha_mem.iter().map(|m| m.entries.len()).sum();
        let beta: usize = self.beta_mem.iter().map(|m| m.entries.len()).sum();
        alpha + beta
    }

    fn approx_bytes(&self) -> usize {
        let alpha: usize = (self.alpha_mem.iter())
            .map(|m| m.entries.len() * 4 + m.approx_bytes())
            .sum();
        let beta: usize = (self.beta_mem.iter())
            .map(|m| {
                m.entries
                    .iter()
                    .map(|t| 16 + t.wmes.len() * 4)
                    .sum::<usize>()
                    + m.approx_bytes()
            })
            .sum();
        alpha + beta + self.wmes.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use ops5::ClassId;
    use relstore::{Tuple, Value};

    use super::*;

    const JOIN: &str = r#"
        (literalize A v)
        (literalize B v)
        (p Join (A ^v <X>) (B ^v <X>) --> (remove 1))
    "#;

    const UNLESS: &str = r#"
        (literalize A v)
        (literalize B v)
        (p Unless (A ^v <X>) -(B ^v <X>) --> (remove 1))
    "#;

    const A: ClassId = ClassId(0);
    const B: ClassId = ClassId(1);

    fn wme(class: ClassId, v: &Value) -> Wme {
        Wme::new(class, Tuple::new(vec![v.clone()]))
    }

    /// The one two-input node over `B`, which must be keyed.
    fn keyed_node(net: &ReteNetwork) -> usize {
        let node = (net.plan.betas.iter())
            .rposition(|b| matches!(b.kind, BetaKind::Join { .. } | BetaKind::Negative { .. }))
            .expect("a two-input node");
        assert!(net.mem.keyed[node].is_some(), "an `=` test is keyed");
        node
    }

    /// Does `a` (an `A`) join `b` (a `B`) when `first` arrives first?
    /// `A` first: `B` right-activates and probes the tokens; `B` first:
    /// `A`'s token left-activates and probes the alpha memory.
    fn joins(src: &str, a: &Value, b: &Value, a_first: bool) -> bool {
        let mut net = ReteNetwork::new(&ops5::compile(src).unwrap());
        keyed_node(&net);
        let (a, b) = (wme(A, a), wme(B, b));
        let [first, second] = if a_first { [a, b] } else { [b, a] };
        net.insert(TupleId::new(0, 0), first);
        net.insert(TupleId::new(0, 0), second);
        let matched = net.conflict_set().len() == 1;
        // Unless fires exactly when the two do not match.
        matched == (src == JOIN)
    }

    #[test]
    fn the_index_joins_exactly_what_value_equality_joins() {
        let two53 = 1i64 << 53;
        let cases = [
            (Value::Int(1), Value::Float(1.0), true),
            (Value::Int(0), Value::Float(-0.0), true),
            (Value::Float(f64::NAN), Value::Float(f64::NAN), true),
            (Value::Int(i64::MAX), Value::Float(2f64.powi(63)), false),
            (Value::Int(two53 + 1), Value::Float(two53 as f64), false),
        ];
        for (a, b, equal) in cases {
            assert_eq!(a == b, equal, "{a:?} == {b:?}");
            for src in [JOIN, UNLESS] {
                for a_first in [true, false] {
                    assert_eq!(
                        joins(src, &a, &b, a_first),
                        equal,
                        "{a:?} vs {b:?}, A first: {a_first}\n{src}"
                    );
                    assert_eq!(joins(src, &b, &a, a_first), equal, "{b:?} vs {a:?}");
                }
            }
        }
    }

    /// A negative node reports tokens in arrival order, also after its
    /// arrival counter runs out and is numbered afresh.
    #[test]
    fn arrival_order_survives_renumbering() {
        let mut net = ReteNetwork::new(&ops5::compile(UNLESS).unwrap());
        let node = keyed_node(&net);
        let seqs = |net: &ReteNetwork| {
            let entries = &net.mem.beta_mem[node].entries;
            entries.iter().map(|e| e.seq).collect::<Vec<_>>()
        };
        for v in [1, 2, 3] {
            net.insert(TupleId::new(v, 0), wme(A, &Value::Int(v.into())));
        }
        // A removal moves the last token into the gap.
        net.remove(A, TupleId::new(1, 0));
        assert_eq!(seqs(&net), [2, 1]);
        net.mem.seq = u32::MAX;
        net.insert(TupleId::new(4, 0), wme(A, &Value::Int(4)));
        assert_eq!(seqs(&net), [1, 0, 2]);
        assert_eq!(net.mem.seq, 3);
    }

    /// A probe walks the chain of its own value and nothing else, from
    /// either side of the join.
    #[test]
    fn a_keyed_probe_visits_only_its_own_bucket() {
        let mut net = ReteNetwork::new(&ops5::compile(JOIN).unwrap());
        let node = keyed_node(&net);
        for v in 0..10_000 {
            net.insert(TupleId::new(v, 0), wme(B, &Value::Int(v.into())));
        }
        net.insert(TupleId::new(0, 0), wme(A, &Value::Int(20_000)));
        assert!(net.conflict_set().is_empty());
        assert_eq!(net.mem.right_candidates(node, &[0]).count(), 0);

        net.insert(TupleId::new(1, 0), wme(A, &Value::Int(7)));
        assert_eq!(net.conflict_set().len(), 1);
        assert_eq!(net.mem.right_candidates(node, &[1]).count(), 1);

        // From the other side: a B probes a parent memory of 10 002 A
        // tokens.
        for v in 0..10_000 {
            let tid = TupleId::new(2 + v, 0);
            net.insert(tid, wme(A, &Value::Int(30_000 + i64::from(v))));
        }
        let probe = |v| {
            net.mem
                .left_candidates(node, &wme(B, &Value::Int(v)))
                .count()
        };
        assert_eq!(probe(30_005), 1);
        assert_eq!(probe(-1), 0);
    }
}
