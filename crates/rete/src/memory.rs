//! The classic in-memory token memory (§3.1): alpha memories are vectors
//! of WME ids, beta memories vectors of id tuples.

use std::collections::HashMap;
use std::sync::Arc;

use ops5::{RuleId, RuleSet};

use crate::compile::{BJoinTest, BetaKind, NetworkPlan};
use crate::network::{Network, TokenMemory};
use crate::wme::{Instantiation, Wme};

type WmeId = u32;

/// A token suspended at (or output by) a beta node.
#[derive(Debug, Clone)]
struct TokenEntry {
    wmes: Vec<WmeId>,
    /// For negative nodes: number of alpha WMEs currently matching.
    negcount: u32,
}

/// Token memories held in vectors.
pub struct VecMemory {
    plan: Arc<NetworkPlan>,
    wmes: Vec<Option<Wme>>,
    free: Vec<WmeId>,
    alpha_mem: Vec<Vec<WmeId>>,
    /// Position of each WME inside its alpha memory, so a removal is a
    /// swap_remove instead of an O(|alpha|) retain scan.
    alpha_pos: Vec<HashMap<WmeId, usize>>,
    beta_mem: Vec<Vec<TokenEntry>>,
    /// Join nodes only (`None` elsewhere): token indexes keyed by the
    /// token's last WME — the entry point of WME-driven retraction.
    /// Without it, every retraction partitions the node's whole memory,
    /// and a workload that fires deletes against a large WM pays O(WM)
    /// per firing.
    by_last: Vec<Option<HashMap<WmeId, Vec<usize>>>>,
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

/// Do `tests` hold between `token` and the right WME?
fn passes(wmes: &[Option<Wme>], tests: &[BJoinTest], token: &[WmeId], right: &Wme) -> bool {
    tests.iter().all(|t| {
        let left = wmes[token[t.token_pos] as usize]
            .as_ref()
            .expect("live wme");
        match (right.tuple.get(t.my_attr), left.tuple.get(t.token_attr)) {
            (Some(rv), Some(lv)) => t.op.eval(rv, lv),
            _ => false,
        }
    })
}

impl VecMemory {
    fn for_plan(plan: Arc<NetworkPlan>) -> Self {
        let mut beta_mem = vec![Vec::new(); plan.betas.len()];
        // The root holds the single empty token.
        beta_mem[plan.root()] = vec![TokenEntry {
            wmes: Vec::new(),
            negcount: 0,
        }];
        let by_last = plan.betas.iter().map(|b| {
            let join = matches!(b.kind, BetaKind::Join { .. });
            join.then(HashMap::new)
        });
        VecMemory {
            wmes: Vec::new(),
            free: Vec::new(),
            alpha_mem: vec![Vec::new(); plan.alphas.len()],
            alpha_pos: vec![HashMap::new(); plan.alphas.len()],
            beta_mem,
            by_last: by_last.collect(),
            plan,
        }
    }

    fn wme(&self, id: WmeId) -> &Wme {
        self.wmes[id as usize].as_ref().expect("live wme")
    }

    /// WMEs of two-input node `node`'s alpha memory that match `token`.
    fn right_matches<'a>(
        &'a self,
        node: usize,
        token: &'a [WmeId],
    ) -> impl Iterator<Item = WmeId> + 'a {
        let (_, alpha, tests) = self.plan.two_input(node);
        self.alpha_mem[alpha]
            .iter()
            .copied()
            .filter(move |&w| passes(&self.wmes, tests, token, self.wme(w)))
    }

    /// Remove one token of join node `node` by index, keeping the
    /// last-WME index consistent across the swap_remove.
    fn remove_token_at(&mut self, node: usize, idx: usize) -> Vec<WmeId> {
        let by_last = self.by_last[node].as_mut().expect("join node");
        let entry = self.beta_mem[node].swap_remove(idx);
        let last = *entry.wmes.last().expect("join tokens are non-empty");
        if let Some(slots) = by_last.get_mut(&last) {
            if let Some(p) = slots.iter().position(|&x| x == idx) {
                slots.swap_remove(p);
            }
            if slots.is_empty() {
                by_last.remove(&last);
            }
        }
        // The former tail now lives at `idx`: repoint its index entry.
        let old_tail = self.beta_mem[node].len();
        if idx < old_tail {
            let moved_last = *self.beta_mem[node][idx]
                .wmes
                .last()
                .expect("join tokens are non-empty");
            if let Some(slots) = by_last.get_mut(&moved_last) {
                if let Some(p) = slots.iter().position(|&x| x == old_tail) {
                    slots[p] = idx;
                }
            }
        }
        entry.wmes
    }

    /// Remove the tokens of join node `node` at `idxs`, highest first so
    /// each swap_remove only disturbs indexes we either already handled
    /// or retarget on the spot.
    fn take_tokens_at(&mut self, node: usize, mut idxs: Vec<usize>) -> Vec<Vec<WmeId>> {
        idxs.sort_unstable_by(|a, b| b.cmp(a));
        let mut out = Vec::with_capacity(idxs.len());
        for i in 0..idxs.len() {
            let t = idxs[i];
            let tail = self.beta_mem[node].len() - 1;
            if t != tail {
                // The tail element moves into `t`; if it is itself a
                // pending removal target, chase it to its new position.
                if let Some(p) = idxs[i + 1..].iter().position(|&x| x == tail) {
                    idxs[i + 1 + p] = t;
                }
            }
            out.push(self.remove_token_at(node, t));
        }
        out
    }
}

impl TokenMemory for VecMemory {
    type Wid = WmeId;
    type Token = Vec<WmeId>;

    fn intern(&mut self, wme: &Wme) -> WmeId {
        match self.free.pop() {
            Some(id) => {
                self.wmes[id as usize] = Some(wme.clone());
                id
            }
            None => {
                self.wmes.push(Some(wme.clone()));
                (self.wmes.len() - 1) as WmeId
            }
        }
    }

    fn release(&mut self, wid: WmeId) {
        self.wmes[wid as usize] = None;
        self.free.push(wid);
    }

    fn add_right(&mut self, alpha: usize, wid: WmeId, _wme: &Wme) {
        self.alpha_pos[alpha].insert(wid, self.alpha_mem[alpha].len());
        self.alpha_mem[alpha].push(wid);
    }

    fn remove_right(&mut self, alpha: usize, wid: WmeId) {
        if let Some(pos) = self.alpha_pos[alpha].remove(&wid) {
            self.alpha_mem[alpha].swap_remove(pos);
            if let Some(&moved) = self.alpha_mem[alpha].get(pos) {
                self.alpha_pos[alpha].insert(moved, pos);
            }
        }
    }

    fn join_left(&self, node: usize, wid: WmeId, wme: &Wme) -> Vec<Vec<WmeId>> {
        let (parent, _, tests) = self.plan.two_input(node);
        self.beta_mem[parent]
            .iter()
            .filter(|e| e.negcount == 0 && passes(&self.wmes, tests, &e.wmes, wme))
            .map(|e| extended(&e.wmes, wid))
            .collect()
    }

    fn join_right(&self, node: usize, token: &Vec<WmeId>) -> Vec<Vec<WmeId>> {
        self.right_matches(node, token)
            .map(|w| extended(token, w))
            .collect()
    }

    fn count_right(&self, node: usize, token: &Vec<WmeId>) -> usize {
        self.right_matches(node, token).count()
    }

    fn store(&mut self, node: usize, token: &Vec<WmeId>, blockers: usize) {
        if let Some(by_last) = &mut self.by_last[node] {
            let last = *token.last().expect("join tokens are non-empty");
            by_last
                .entry(last)
                .or_default()
                .push(self.beta_mem[node].len());
        }
        self.beta_mem[node].push(TokenEntry {
            wmes: token.clone(),
            negcount: blockers as u32,
        });
    }

    fn take_with_last(&mut self, node: usize, wid: WmeId) -> Vec<Vec<WmeId>> {
        let by_last = self.by_last[node].as_ref().expect("join node");
        match by_last.get(&wid).cloned() {
            Some(idxs) => self.take_tokens_at(node, idxs),
            None => Vec::new(),
        }
    }

    fn take_prefix(&mut self, node: usize, prefix: &Vec<WmeId>) -> Vec<Vec<WmeId>> {
        if self.by_last[node].is_some() {
            // Join tokens extend the prefix by one.
            let idxs = self.beta_mem[node]
                .iter()
                .enumerate()
                .filter(|(_, e)| e.wmes.starts_with(prefix))
                .map(|(i, _)| i)
                .collect();
            return self.take_tokens_at(node, idxs);
        }
        // Negative and production nodes store the prefix itself, and keep
        // their memories in arrival order.
        let mut gone = Vec::new();
        self.beta_mem[node].retain_mut(|e| {
            if e.wmes != *prefix {
                return true;
            }
            if e.negcount == 0 {
                gone.push(std::mem::take(&mut e.wmes));
            }
            false
        });
        gone
    }

    fn adjust_count(&mut self, node: usize, wme: &Wme, delta: i32) -> Vec<Vec<WmeId>> {
        let (_, _, tests) = self.plan.two_input(node);
        let mut crossed = Vec::new();
        for e in &mut self.beta_mem[node] {
            if passes(&self.wmes, tests, &e.wmes, wme) {
                let was = e.negcount;
                e.negcount = was.checked_add_signed(delta).expect("count underflow");
                if was == 0 || e.negcount == 0 {
                    crossed.push(e.wmes.clone());
                }
            }
        }
        crossed
    }

    fn instantiation(&self, _node: usize, rule: RuleId, token: &Vec<WmeId>) -> Instantiation {
        // WMEs are interned by content here; storage-level provenance
        // (tuple ids) is only available to the recompute-based engines.
        Instantiation::new(rule, token.iter().map(|&id| self.wme(id).clone()).collect())
    }

    fn stored_entries(&self) -> usize {
        let alpha: usize = self.alpha_mem.iter().map(Vec::len).sum();
        let beta: usize = self.beta_mem.iter().map(Vec::len).sum();
        alpha + beta
    }

    fn approx_bytes(&self) -> usize {
        let alpha = self.alpha_mem.iter().map(Vec::len).sum::<usize>() * 4;
        let beta: usize = self
            .beta_mem
            .iter()
            .flatten()
            .map(|t| 16 + t.wmes.len() * 4)
            .sum();
        let wmes: usize = self
            .wmes
            .iter()
            .flatten()
            .map(|w| w.tuple.approx_bytes() + 8)
            .sum();
        alpha + beta + wmes
    }
}
