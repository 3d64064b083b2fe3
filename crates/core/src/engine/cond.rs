//! The paper's new approach (§4.2): **matching patterns** in COND
//! relations.
//!
//! Each class has a COND store holding, per `(rule, condition element)`,
//! the original condition template plus *matching patterns* — copies of
//! the template with variables progressively bound by tuples that arrived
//! in *related* condition elements (the RCE list), with one mark per RCE.
//! "A matching pattern in a COND relation indicates that there is some
//! tuple in another (related) WM relation having the property of the
//! matching pattern and therefore is joinable with tuples in the current
//! WM relation. Hence, when a tuple is inserted later … we know
//! immediately that there is a match." (§4.2.1)
//!
//! Key faithful details:
//!
//! * **detection first**: the conflict set is updated before the
//!   maintenance (propagation) phase — the reverse of Rete (§4.2.3);
//! * **counters, not bits** (§4.2.2): "because a matching pattern tuple
//!   may have been created by more than one WM element … Mark bits can be
//!   easily replaced by counters to record the number of contributing
//!   tuples." We realize the counters as *support sets* (the tuple ids of
//!   the contributing WM elements; the paper's counter is the set's
//!   size), plus a per-tuple contribution log, so that the deletion
//!   algorithm undoes exactly what the insertion algorithm did — the
//!   mirrored re-derivation the paper sketches is not self-consistent
//!   once the COND state has evolved between insert and delete;
//! * **mark-compatibility** during unification ("each Mark bit must be
//!   set in T if the corresponding Mark bit is set in the matching tuple
//!   M", §4.2.2), restricted to marks of CEs that share a variable with
//!   the target CE — for variable-disjoint CEs the mark carries no
//!   binding information inside the target COND relation and the paper's
//!   unrestricted check would lose real matches;
//! * **negated condition elements** invert the mark default (§4.2.2):
//!   their support sets count *blockers* and the element is satisfied
//!   when empty;
//! * **parallelizable propagation**: COND stores are partitioned by class
//!   and the maintenance phase can fan out one thread per affected class
//!   ("propagation of changes can be performed in parallel to all the
//!   COND relations", §4.2.3).
//!
//! Non-equality join tests (e.g. R1's `salary {< <S>}`) propagate as
//! *range* specializations: the pattern created by `Mike ^salary 6000`
//! in the manager's COND entry carries `salary < 6000`. Where a
//! composition of inequalities is not representable the pattern stays
//! conservative; the conflict set remains exact because detection expands
//! fire candidates through a seeded LHS query.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ops5::{ClassId, Rule, RuleId};
use predindex::{make_index, ConditionIndex, IndexKind, Rect};
use relstore::{CompOp, Tuple, TupleId, Value};
use rete::{ConflictDelta, ConflictSet};

use crate::engine::arena::{Chain, PatRef, PatternArena, SlotChains, SupportSet, TupKey, NIL};
use crate::engine::intern::{Extra, FastMap, FnvHasher, IdentityInterner, PatId};
use crate::engine::recompute::{eval_rule_seeded_batch, eval_rule_via, InstStore};
use crate::engine::{MatchEngine, SpaceStats, WmDelta};
use crate::pdb::ProductionDb;

/// A variable occurrence: condition element, attribute, operator.
type Occurrence = (usize, usize, CompOp);

/// Address of a pattern: (rule, cen, interned identity). The store class
/// follows from (rule, cen). Three integers — hashing and comparing a
/// pattern address never touches Values.
type PatKey = (u32, u32, PatId);

/// Canonical order for derived range constraints: attribute, then
/// operator, then value. Every path that builds an `extra` list sorts
/// with this, so structural identity is order-insensitive.
fn sort_extra(extra: &mut [Extra]) {
    extra.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
}

/// Static per-rule pattern structure derived from the IR.
#[derive(Debug, Clone)]
struct RuleInfo {
    /// Binding sites, one per variable: (ce, attr).
    var_sites: Vec<(usize, usize)>,
    /// Per CE: constraints referencing variables: (attr, op, var).
    var_constraints: Vec<Vec<(usize, CompOp, usize)>>,
    /// Per CE: the related condition elements (all other CEs, in order).
    rce: Vec<Vec<usize>>,
    /// `share_masks[a]` bit `b`: do CEs `a` and `b` share a variable?
    /// Marks and share sets live in `u64` bitmasks (CE count ≤ 64,
    /// asserted at build), so mark-compatibility is two ANDs.
    share_masks: Vec<u64>,
    /// Positions of positive CEs (original index → positive position).
    positive_pos: Vec<Option<usize>>,
    /// Per CE: its Eq-constrained variables as `(vid, attr)` hash sites
    /// (one per variable), the keys of the σ-binding pattern index.
    hash_sites: Vec<Vec<(usize, usize)>>,
    /// Per CE: is it positive with another positive CE of the rule on the
    /// same class? One inserted tuple can then fill both, and no pattern
    /// can say so: the tuple's own mark is not set when it is searched.
    shares_class: Vec<bool>,
}

impl RuleInfo {
    fn build(rule: &Rule) -> Self {
        let n = rule.ces.len();
        assert!(
            n <= 64,
            "rule {} has {n} CEs; COND mark bitmasks cap rules at 64",
            rule.name
        );
        let mut var_sites: Vec<(usize, usize)> = Vec::new();
        let mut site_index: HashMap<(usize, usize), usize> = HashMap::new();
        for (ci, ce) in rule.ces.iter().enumerate() {
            for (attr, _) in &ce.bindings {
                let site = (ci, *attr);
                site_index.entry(site).or_insert_with(|| {
                    var_sites.push(site);
                    var_sites.len() - 1
                });
            }
        }
        let mut occurrences: Vec<Vec<Occurrence>> = var_sites
            .iter()
            .map(|&(ce, attr)| vec![(ce, attr, CompOp::Eq)])
            .collect();
        for (ci, ce) in rule.ces.iter().enumerate() {
            for j in &ce.joins {
                if let Some(&vid) = site_index.get(&(j.other_ce, j.other_attr)) {
                    occurrences[vid].push((ci, j.my_attr, j.op));
                }
            }
        }
        let mut var_constraints: Vec<Vec<(usize, CompOp, usize)>> = vec![Vec::new(); n];
        for (vid, occs) in occurrences.iter().enumerate() {
            for &(ce, attr, op) in occs {
                var_constraints[ce].push((attr, op, vid));
            }
        }
        // Which variables occur in each CE, and which CE pairs share one.
        let mut vars_of_ce: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (vid, occs) in occurrences.iter().enumerate() {
            for &(ce, _, _) in occs {
                vars_of_ce[ce].insert(vid);
            }
        }
        let share_masks: Vec<u64> = (0..n)
            .map(|a| {
                (0..n)
                    .filter(|&b| !vars_of_ce[a].is_disjoint(&vars_of_ce[b]))
                    .fold(0u64, |m, b| m | (1 << b))
            })
            .collect();
        let rce: Vec<Vec<usize>> = (0..n)
            .map(|k| (0..n).filter(|&j| j != k).collect())
            .collect();
        let mut positive_pos = vec![None; n];
        let mut pos = 0;
        for (i, ce) in rule.ces.iter().enumerate() {
            if !ce.negated {
                positive_pos[i] = Some(pos);
                pos += 1;
            }
        }
        let mut hash_sites: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (ce, constraints) in var_constraints.iter().enumerate() {
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for &(attr, op, vid) in constraints {
                if op == CompOp::Eq && seen.insert(vid) {
                    hash_sites[ce].push((vid, attr));
                }
            }
        }
        let shares_class = (0..n)
            .map(|a| {
                let positive_on =
                    |b: usize| !rule.ces[b].negated && rule.ces[b].class == rule.ces[a].class;
                positive_on(a) && (0..n).any(|b| b != a && positive_on(b))
            })
            .collect();
        RuleInfo {
            var_sites,
            var_constraints,
            rce,
            share_masks,
            positive_pos,
            hash_sites,
            shares_class,
        }
    }

    /// Index of CE `j` within CE `k`'s RCE list.
    fn rce_index(&self, k: usize, j: usize) -> usize {
        self.rce[k]
            .iter()
            .position(|&x| x == j)
            .expect("j is a related CE")
    }
}

/// A contribution extracted from a tuple matching a pattern of CE `k`:
/// the combined substitution and derived ranges to propagate to the RCEs.
/// Built once per match; the fan-out to related CEs shares it by index
/// instead of cloning it per target.
#[derive(Debug)]
struct Contribution {
    rule: usize,
    k: usize,
    /// σ' = pattern σ ∪ bindings from the tuple's eq occurrences, as a
    /// range of [`Contributions::sigmas`].
    sigma: std::ops::Range<usize>,
    /// Range info from the tuple's non-eq occurrences: `(vid, op, value)`
    /// meaning `vid op value`. Flat because almost always empty.
    ranges: Vec<(usize, CompOp, Value)>,
    /// Positive CEs marked in the extended view (T's marks + k), as a
    /// bitmask over rule CE indices.
    marks: u64,
}

/// The contributions of one inserted tuple, their σ' rows back to back in
/// one reused buffer.
#[derive(Debug, Default)]
struct Contributions {
    list: Vec<Contribution>,
    sigmas: Vec<Option<Value>>,
}

impl Contributions {
    fn sigma(&self, c: &Contribution) -> &[Option<Value>] {
        &self.sigmas[c.sigma.clone()]
    }
}

/// One `(rule, cen)` pattern group: tombstoned pattern slots plus the
/// σ-binding hash index (§4.2.3's "indices … on COND relations" applied
/// to the matching patterns themselves). For each *hash site* — an
/// Eq-constrained variable of the CE — every live pattern is posted on
/// the chain of its bound value's hash, or on the site's unbound chain.
/// Any single site therefore partitions the group, so a probe on one site
/// yields a sound candidate superset (two values whose hashes collide
/// share a chain; every caller re-checks the binding); lookups pick the
/// narrowest available site. The index is always maintained; whether
/// lookups probe it or scan every slot is the engine's `pattern_index`
/// switch.
#[derive(Debug)]
struct PatternGroup {
    rule: usize,
    cen: usize,
    /// The CE's hash sites, `(vid, attr)` — see [`RuleInfo::hash_sites`].
    hash_sites: Vec<(usize, usize)>,
    /// Arena-backed pattern rows: flat σ, inline support sets.
    arena: PatternArena,
    /// The group's original (all-unbound, no-extra) template identity —
    /// `id == original_id` replaces the old all-None σ scan.
    original_id: PatId,
    /// Interned identity → slot (integer-keyed apply/withdraw lookup).
    by_identity: FastMap<PatId, u32>,
    /// Per site: the patterns chained by the hash of the value their σ
    /// binds the site's variable to, unbound ones on the keyless chain.
    /// σ never changes on a live pattern, so a slot stays on the chains
    /// [`PatternGroup::insert`] put it on until [`PatternGroup::remove`].
    by_binding: Vec<SlotChains>,
}

fn value_hash(v: &Value) -> u64 {
    let mut h = FnvHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Candidate slots of one group lookup, walked straight off the index
/// chains (or the arena's live bitmap) — no intermediate `Vec` is
/// collected on any probe or scan path.
enum Cands<'a> {
    /// A site's unbound chain then one of its bound chains.
    Chains(&'a SlotChains, Chain, Chain),
    /// Every live slot (full scan).
    All(&'a PatternArena),
    /// The index rules every pattern out.
    Empty,
}

impl<'a> Cands<'a> {
    fn len(&self) -> usize {
        match self {
            Cands::Chains(_, a, b) => a.len() + b.len(),
            Cands::All(arena) => arena.len(),
            Cands::Empty => 0,
        }
    }

    fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let (chained, all) = match *self {
            Cands::Chains(chains, a, b) => (Some(chains.walk(a).chain(chains.walk(b))), None),
            Cands::All(arena) => (None, Some(arena.iter_live())),
            Cands::Empty => (None, None),
        };
        chained
            .into_iter()
            .flatten()
            .chain(all.into_iter().flatten())
    }
}

impl PatternGroup {
    fn new(rule: usize, cen: usize, info: &RuleInfo, original_id: PatId) -> Self {
        let hash_sites = info.hash_sites[cen].clone();
        PatternGroup {
            rule,
            cen,
            by_binding: hash_sites.iter().map(|_| SlotChains::default()).collect(),
            hash_sites,
            arena: PatternArena::new(info.var_sites.len(), info.rce[cen].len()),
            original_id,
            by_identity: FastMap::default(),
        }
    }

    /// Live patterns in the group.
    fn len(&self) -> usize {
        self.arena.len()
    }

    fn pat(&self, slot: u32) -> PatRef<'_> {
        self.arena.pat(slot)
    }

    fn support_mut(&mut self, slot: u32) -> &mut [SupportSet] {
        self.arena.support_mut(slot)
    }

    fn is_original_slot(&self, slot: u32) -> bool {
        self.arena.id(slot) == self.original_id
    }

    fn slot_of(&self, id: PatId) -> Option<u32> {
        self.by_identity.get(&id).copied()
    }

    /// The hash-site position of variable `vid`, if it is one.
    fn site_of(&self, vid: usize) -> Option<usize> {
        self.hash_sites.iter().position(|&(v, _)| v == vid)
    }

    /// The narrowest of the `(site, value)` lookups offered: the site's
    /// unbound chain plus its chain for the value. `None` = none offered,
    /// caller scans.
    fn narrowest<'v>(
        &self,
        lookups: impl Iterator<Item = (usize, &'v Value)>,
    ) -> Option<Cands<'_>> {
        lookups
            .map(|(site, v)| {
                let chains = &self.by_binding[site];
                (
                    chains,
                    chains.chain(None),
                    chains.chain(Some(value_hash(v))),
                )
            })
            .min_by_key(|(_, unbound, bound)| unbound.len() + bound.len())
            .map(|(chains, unbound, bound)| Cands::Chains(chains, unbound, bound))
    }

    /// Index probe for a WM tuple: the narrowest site whose attribute
    /// the tuple carries.
    fn probe_tuple(&self, tuple: &Tuple) -> Option<Cands<'_>> {
        self.narrowest(
            (self.hash_sites.iter().enumerate())
                .filter_map(|(site, &(_, attr))| Some((site, tuple.get(attr)?))),
        )
    }

    /// Index probe for a desired pattern's bound variables (each is
    /// Eq-constrained in this CE, hence a hash site).
    fn probe_bound(&self, bound: &[(usize, Value)]) -> Option<Cands<'_>> {
        self.narrowest(
            bound
                .iter()
                .filter_map(|(vid, v)| Some((self.site_of(*vid)?, v))),
        )
    }

    /// Store a pattern under interned identity `id` and post it to every
    /// index.
    fn insert(&mut self, id: PatId, sigma: &[Option<Value>], extra: &[Extra]) -> u32 {
        let slot = self.arena.insert(id, sigma, extra);
        self.by_identity.insert(id, slot);
        for (chains, &(vid, _)) in self.by_binding.iter_mut().zip(&self.hash_sites) {
            chains.post(sigma[vid].as_ref().map(value_hash), slot);
        }
        slot
    }

    /// Drop a pattern and all its postings; the slot is reused.
    fn remove(&mut self, slot: u32) {
        self.by_identity.remove(&self.arena.id(slot));
        let sigma = self.arena.sigma(slot);
        for (chains, &(vid, _)) in self.by_binding.iter_mut().zip(&self.hash_sites) {
            chains.unpost(sigma[vid].as_ref().map(value_hash), slot);
        }
        self.arena.remove(slot);
    }
}

/// Per-class COND store: the pattern groups of the class's condition
/// elements in `(rule, cen)` order, addressed by position
/// ([`CondEngine::group_at`]).
#[derive(Debug, Default)]
struct CondStore {
    groups: Vec<PatternGroup>,
}

/// What the propagation of one insertion did to one pattern, recorded so
/// deletion can undo it exactly.
type LogEntry = (TupKey, PatKey);

/// tuple → the patterns whose support mentions it (the contribution log),
/// one chain per tuple through a shared node arena whose freed nodes are
/// reused: recording and withdrawing allocate nothing per tuple. A node is
/// a 12-byte integer triple plus its link; dedup is integer compares.
#[derive(Debug, Default)]
struct SupportLog {
    /// Tuple → its newest node.
    heads: FastMap<TupKey, u32>,
    /// `(pattern, next-older node of the same tuple)`.
    nodes: Vec<(PatKey, u32)>,
    free: Vec<u32>,
}

impl SupportLog {
    /// Record that `tup` supports `pat`. A tuple supporting one pattern
    /// at two RCE positions is recorded twice; withdrawing it twice from
    /// the pattern is harmless, and checking for the repeat would walk a
    /// hot tuple's whole chain on every record.
    fn record(&mut self, tup: TupKey, pat: PatKey) {
        let head = self.heads.entry(tup).or_insert(NIL);
        let fresh = (pat, *head);
        *head = match self.free.pop() {
            Some(reused) => {
                self.nodes[reused as usize] = fresh;
                reused
            }
            None => {
                self.nodes.push(fresh);
                u32::try_from(self.nodes.len() - 1).expect("support log node space exhausted")
            }
        };
    }

    /// Forget `tup`, handing each pattern it supported to `f`.
    fn take(&mut self, tup: TupKey, mut f: impl FnMut(PatKey)) {
        let mut node = self.heads.remove(&tup).unwrap_or(NIL);
        while node != NIL {
            let (pat, next) = self.nodes[node as usize];
            self.free.push(node);
            f(pat);
            node = next;
        }
    }

    /// Bytes held: a map entry per tuple, a node per recorded pair.
    fn bytes(&self) -> usize {
        self.heads.len() * (std::mem::size_of::<(TupKey, u32)>() + 1)
            + self.nodes.len() * std::mem::size_of::<(PatKey, u32)>()
            + self.free.len() * std::mem::size_of::<u32>()
    }
}

/// A per-class predicate index over condition elements (payload = the
/// group's position in the class store).
type AlphaIndex = Vec<Box<dyn ConditionIndex<u32> + Send + Sync>>;

/// One planned support-set change, keyed by `(rule, n, k_idx, id)`
/// packed into a u64. Distinct derivation paths reaching the same target
/// union into one proposal. Plain integers: what a proposal carries lives
/// in the flat buffers of [`ApplyScratch`].
struct Proposal {
    rule: u32,
    n: u32,
    k_idx: u32,
    id: PatId,
    /// The `(σ, extra)` to materialize if the identity has no live slot
    /// yet: where σ starts in `fresh_sigmas`, and the range of
    /// `fresh_extras`. `None` when the target pattern already existed at
    /// collection time (then only marks/support change).
    fresh: Option<(usize, std::ops::Range<usize>)>,
    /// Support inherited from source patterns: where its row (one set per
    /// RCE position) starts in `inherits`. `None` = nothing inherited —
    /// the proposal only records the inserted tuple's own mark at `k_idx`.
    /// The old representation unioned a pattern's *own* support into its
    /// no-new-info proposal and back — a pure self-union that copied the
    /// whole support set per contribution and dominated the profile;
    /// carrying no inherited support in that case is behavior-identical
    /// and O(1).
    inherit: Option<usize>,
}

/// Reusable buffers for one `apply_to_store` call. Living on the engine
/// (serial path) or per propagation thread, they turn the per-tuple
/// `HashMap`/`Vec` rebuilds of the hot path into `clear()`s.
#[derive(Default)]
struct ApplyScratch {
    /// Packed proposal key → index into `props`.
    keys: FastMap<u64, u32>,
    props: Vec<Proposal>,
    /// σ rows, derived constraints and inherited support rows of the
    /// proposals, back to back.
    fresh_sigmas: Vec<Option<Value>>,
    fresh_extras: Vec<Extra>,
    inherits: Vec<SupportSet>,
    /// Desired-pattern buffers (see `desired_into`).
    bound: Vec<(usize, Value)>,
    extra: Vec<Extra>,
    /// Merged-identity buffers.
    sigma: Vec<Option<Value>>,
    merged_extra: Vec<Extra>,
}

/// Per-insert scratch: what detection matched, the contributions built
/// from it, class fan-out lists, collected log entries, per-partition
/// span stats, and the serial-path apply buffers.
#[derive(Default)]
struct PropScratch {
    /// `(group, slot)` of every pattern the inserted tuple matched, in
    /// its class store, recorded by the one search of `detect_insert`.
    hits: Vec<(u32, u32)>,
    contribs: Contributions,
    per_class: Vec<Vec<(u32, u32)>>,
    entries: Vec<LogEntry>,
    spans: Vec<(usize, u64, u64, u64)>,
    apply: ApplyScratch,
}

fn pack_key(rule: usize, n: usize, k_idx: usize, id: PatId) -> u64 {
    debug_assert!(rule < (1 << 16) && n < (1 << 8) && k_idx < (1 << 8));
    ((rule as u64) << 48) | ((n as u64) << 40) | ((k_idx as u64) << 32) | u64::from(id)
}

/// The WM rows of one positive CE that join `tuple` taken as a tuple of
/// `rule`'s negated CE `cen`: that CE's own tests plus every join test
/// between the two with its operator flipped, served by the WM relation's
/// indexes. An equality join is preferred — its probe reads one hash
/// bucket. Returns the positive CE with the rows, or `None` when the
/// negated CE joins no positive CE.
fn joined_rows(
    pdb: &ProductionDb,
    rule: &Rule,
    cen: usize,
    tuple: &Tuple,
) -> Option<(usize, Vec<(TupleId, Tuple)>)> {
    let joins = &rule.ces[cen].joins;
    let target = joins
        .iter()
        .find(|j| j.op == CompOp::Eq)
        .or(joins.first())?
        .other_ce;
    let bound: Vec<(usize, CompOp, &Value)> = joins
        .iter()
        .filter(|j| j.other_ce == target)
        .map(|j| (j.other_attr, j.op.flip(), &tuple[j.my_attr]))
        .collect();
    let ce = &rule.ces[target];
    let rows = pdb
        .db()
        .read(pdb.class_rel(ce.class), |r| {
            r.select_with(&ce.alpha, &bound)
        })
        .expect("wm relation")
        .expect("wm select");
    Some((target, rows))
}

/// The §4.2 matching engine.
pub struct CondEngine {
    pdb: ProductionDb,
    infos: Vec<RuleInfo>,
    stores: Vec<CondStore>,
    /// `group_at[rule][cen]`: the group's position in its class store.
    group_at: Vec<Vec<u32>>,
    /// Interned pattern identities, shared across all groups. Append-only
    /// (ids stay stable across pattern remove/re-add); behind a mutex
    /// because the parallel propagation path interns through `&self`, but
    /// locked only when a derivation actually merges new bindings.
    interner: Mutex<IdentityInterner>,
    /// Reused propagation buffers (serial path).
    scratch: PropScratch,
    /// Per-class predicate index over the condition elements' alpha
    /// rectangles: only groups whose one-input tests match the tuple are
    /// searched ("building indices such as R-trees or R+-trees on COND
    /// relations can help in speeding up this process", §4.2.3). `None`
    /// disables the index (the E10 ablation).
    alpha_index: Option<AlphaIndex>,
    /// Simulated secondary-storage latency per COND tuple examined, in
    /// nanoseconds. The paper assumes disk-resident COND relations; this
    /// knob restores the I/O-bound regime its parallelism argument
    /// (§4.2.3) lives in. Zero (default) = pure in-memory.
    io_cost_ns: u64,
    log: SupportLog,
    inst: InstStore,
    conflict: ConflictSet,
    parallel: bool,
    /// Probe-vs-scan selector for pattern-group lookups. The σ-binding
    /// hash index is always maintained; `false` restores the full group
    /// scan (the historical `cond` bench row, and the E10-style
    /// ablation baseline).
    pattern_index: bool,
    /// Index probes served (atomic: parallel propagation counts through
    /// `&self`).
    pat_probes: AtomicU64,
    /// Patterns examined across all lookups, probed or scanned.
    pat_scanned: AtomicU64,
    /// Set-oriented evaluation: hash-join executor for the seeded fire
    /// expansions and unblock re-evaluations, plus whole-delta batching
    /// of those expansions per (rule, seeded-term) in `maintain_delta`.
    batch: bool,
    last_detect_ns: u64,
    last_total_ns: u64,
    tracer: obs::Tracer,
}

impl CondEngine {
    /// Create a new, empty instance.
    pub fn new(pdb: ProductionDb) -> Self {
        Self::with_index(pdb, Some(IndexKind::RTree))
    }

    /// Build with an explicit COND-relation index choice (`None` scans
    /// every group — the unindexed §4.1-style search).
    pub fn with_index(pdb: ProductionDb, index: Option<IndexKind>) -> Self {
        let infos: Vec<RuleInfo> = pdb.rules().rules.iter().map(RuleInfo::build).collect();
        let mut stores: Vec<CondStore> = pdb
            .rules()
            .classes
            .iter()
            .map(|_| CondStore::default())
            .collect();
        let mut alpha_index = index.map(|kind| -> AlphaIndex {
            pdb.rules()
                .classes
                .iter()
                .map(|c| make_index(kind, c.arity()))
                .collect()
        });
        let mut interner = IdentityInterner::new();
        let mut group_at = Vec::with_capacity(infos.len());
        for (rule, info) in pdb.rules().rules.iter().zip(&infos) {
            let none_sigma = vec![None; info.var_sites.len()];
            let original_id = interner.intern(&none_sigma, &[]);
            let mut at = Vec::with_capacity(rule.ces.len());
            for (cen, ce) in rule.ces.iter().enumerate() {
                let groups = &mut stores[ce.class.0].groups;
                let position = u32::try_from(groups.len()).expect("group positions fit u32");
                let mut group = PatternGroup::new(rule.id.0, cen, info, original_id);
                group.insert(original_id, &none_sigma, &[]);
                groups.push(group);
                at.push(position);
                let arity = pdb.rules().class(ce.class).arity();
                if let (Some(idx), Some(rect)) =
                    (&mut alpha_index, Rect::from_restriction(arity, &ce.alpha))
                {
                    idx[ce.class.0].insert(rect, position);
                }
            }
            group_at.push(at);
        }
        CondEngine {
            pdb,
            infos,
            stores,
            group_at,
            interner: Mutex::new(interner),
            scratch: PropScratch::default(),
            alpha_index,
            io_cost_ns: 0,
            log: SupportLog::default(),
            inst: InstStore::new(),
            conflict: ConflictSet::new(),
            parallel: false,
            pattern_index: true,
            pat_probes: AtomicU64::new(0),
            pat_scanned: AtomicU64::new(0),
            batch: true,
            last_detect_ns: 0,
            last_total_ns: 0,
            tracer: obs::Tracer::disabled(),
        }
    }

    /// Simulate secondary-storage latency per COND tuple examined
    /// (busy-wait; deterministic enough for the E5 experiment).
    pub fn set_io_cost_ns(&mut self, ns: u64) {
        self.io_cost_ns = ns;
    }

    /// Burn the simulated I/O budget for `tuples` COND reads. Long waits
    /// sleep (like real I/O they release the CPU, so parallel propagation
    /// threads genuinely overlap); short ones spin for accuracy.
    fn charge_io(&self, tuples: u64) {
        if self.io_cost_ns == 0 || tuples == 0 {
            return;
        }
        let dur = std::time::Duration::from_nanos(self.io_cost_ns * tuples);
        if dur > std::time::Duration::from_micros(200) {
            std::thread::sleep(dur);
        } else {
            let deadline = Instant::now() + dur;
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }

    /// The groups of `class` (positions in its store) whose alpha tests
    /// can match the tuple — one stab of the COND index when present,
    /// else every group, each one's condition template read to be tested.
    fn candidate_groups(&self, class: ClassId, tuple: &Tuple) -> Vec<u32> {
        obs::prof_span!("stab");
        match &self.alpha_index {
            Some(idx) => idx[class.0].stab(tuple),
            None => {
                let groups = self.stores[class.0].groups.len() as u32;
                self.pdb.db().stats().read_tuples(u64::from(groups));
                (0..groups).collect()
            }
        }
    }

    /// The pattern group of `(rule, cen)` within its class's `store`.
    fn group_at<'s>(&self, store: &'s CondStore, rid: usize, cen: usize) -> &'s PatternGroup {
        &store.groups[self.group_at[rid][cen] as usize]
    }

    /// Enable parallel propagation of matching patterns across COND
    /// stores (E5).
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
    }

    /// Account one pattern-group lookup: `examined` candidates
    /// surfaced, via an index probe (`indexed`) or a full scan.
    fn note_pattern_lookup(&self, examined: u64, indexed: bool) {
        self.pat_scanned.fetch_add(examined, Ordering::Relaxed);
        if indexed {
            self.pat_probes.fetch_add(1, Ordering::Relaxed);
            self.pdb.db().stats().index_probe();
        }
        if let Some(m) = self.tracer.metrics() {
            m.record_pattern_io(indexed as u64, examined);
        }
    }

    /// Candidate pattern slots of a group for a WM tuple: an index
    /// probe on the narrowest hash site when enabled, else every live
    /// slot. The second value says whether the index served it.
    ///
    /// Scan-fallback audit (the `pattern_scanned` remainder with the
    /// index on): `probe_tuple` returns `None` only for CEs with no
    /// Eq-constrained variable at all — their groups hold just the
    /// original template plus range-specialized patterns, which no hash
    /// site can partition. Indexing those would need a range structure
    /// over `extra`; the groups are tiny, so the scan is irreducible.
    fn tuple_candidates<'g>(&self, group: &'g PatternGroup, tuple: &Tuple) -> (Cands<'g>, bool) {
        if self.pattern_index {
            obs::prof_span!("probe");
            if let Some(c) = group.probe_tuple(tuple) {
                return (c, true);
            }
        }
        obs::prof_span!("scan");
        (Cands::All(&group.arena), false)
    }

    /// Candidate slots for a positive contribution: patterns whose σ is
    /// compatible with every bound variable of the desired pattern.
    ///
    /// Scan-fallback audit: an empty `bound` means the contribution
    /// shares no bound variable with the target CE, so its existence
    /// mark applies to *every* pattern of the group (the
    /// variable-disjoint broadcast case — see `disconnected_ce_pairs_fire`).
    /// That scan is semantically a broadcast, not a missed index route.
    fn bound_candidates<'g>(
        &self,
        group: &'g PatternGroup,
        bound: &[(usize, Value)],
    ) -> (Cands<'g>, bool) {
        if self.pattern_index {
            obs::prof_span!("probe");
            if let Some(c) = group.probe_bound(bound) {
                return (c, true);
            }
        }
        obs::prof_span!("scan");
        (Cands::All(&group.arena), false)
    }

    /// Candidate slots for a negated-source contribution (§4.2.2
    /// blocker accounting): a pattern gains the blocker mark only when
    /// every variable of the negated CE is bound identically in both
    /// σs, so probe the strict postings of one such variable; an
    /// unbound blocker variable means no pattern can qualify at all.
    /// Likewise, a blocker variable that is not a hash site of the
    /// target CE can never be bound by its patterns (σ is restricted to
    /// the CE's own Eq variables), so the lookup is empty — the old
    /// representation fell back to a full scan there. The only remaining
    /// scan is the constraint-free unconditional blocker, which really
    /// does mark every pattern.
    fn blocker_candidates<'g>(
        &self,
        c: &Contribution,
        sigma: &[Option<Value>],
        group: &'g PatternGroup,
    ) -> (Cands<'g>, bool) {
        let constraints = &self.infos[c.rule].var_constraints[c.k];
        if !self.pattern_index || constraints.is_empty() {
            obs::prof_span!("scan");
            return (Cands::All(&group.arena), false);
        }
        obs::prof_span!("probe");
        let mut narrowest: Option<(&SlotChains, Chain)> = None;
        for &(_, _, vid) in constraints {
            let (Some(site), Some(v)) = (group.site_of(vid), &sigma[vid]) else {
                return (Cands::Empty, true);
            };
            let chains = &group.by_binding[site];
            let bound = chains.chain(Some(value_hash(v)));
            if narrowest.is_none_or(|(_, b)| bound.len() < b.len()) {
                narrowest = Some((chains, bound));
            }
        }
        let (chains, bound) = narrowest.expect("at least one constraint");
        (Cands::Chains(chains, Chain::EMPTY, bound), true)
    }

    /// All stored patterns (space metric).
    pub fn pattern_count(&self) -> usize {
        self.stores
            .iter()
            .flat_map(|s| &s.groups)
            .map(PatternGroup::len)
            .sum()
    }

    /// Canonical dump of every live pattern — σ, derived constraints,
    /// and the full support multiset (supporter keys sorted within each
    /// RCE counter), one sorted line per pattern. The exact-equality
    /// oracle the property tests compare across access paths (indexed
    /// vs scanned) and representations: two engines agree iff their
    /// pattern stores are identical down to individual supporters.
    pub fn support_snapshot(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (class, store) in self.stores.iter().enumerate() {
            for g in &store.groups {
                let (rid, cen) = (g.rule, g.cen);
                for s in g.arena.iter_live() {
                    let p = g.pat(s);
                    let sup: Vec<Vec<String>> = p
                        .support
                        .iter()
                        .map(|ss| {
                            let mut v: Vec<String> = ss.iter().map(|k| format!("{k:?}")).collect();
                            v.sort();
                            v
                        })
                        .collect();
                    out.push(format!(
                        "class={class} rule={rid} cen={cen} sigma={:?} extra={:?} support={sup:?}",
                        p.sigma, p.extra
                    ));
                }
            }
        }
        out.sort();
        out
    }

    /// Render a class's COND relation as the paper prints it (§4.2.1 /
    /// Example 5): one row per pattern with Rule-ID, CEN, a cell per
    /// attribute (bound value, `<var>`, or a derived range), the RCE
    /// list, and the mark counters.
    pub fn render_cond(&self, class: ClassId) -> Vec<Vec<String>> {
        let rules = self.pdb.rules();
        let mut rows = Vec::new();
        for g in &self.stores[class.0].groups {
            let (rid, cen) = (g.rule, g.cen);
            let rule = rules.rule(RuleId(rid));
            let info = &self.infos[rid];
            let arity = rules.class(class).arity();
            let mut slots: Vec<u32> = g.arena.iter_live().collect();
            // Originals first, then by specialization (stable textual
            // order; slices render identically to the old owned vectors).
            slots.sort_by_cached_key(|&s| {
                let p = g.pat(s);
                (!g.is_original_slot(s), format!("{:?}", (p.sigma, p.extra)))
            });
            for s in slots {
                let p = g.pat(s);
                let mut cells = vec![rule.name.clone(), (cen + 1).to_string()];
                for attr in 0..arity {
                    cells.push(self.render_cell(rid, cen, p, attr));
                }
                let rce = info.rce[cen]
                    .iter()
                    .map(|j| format!("({},{})", rule.name, j + 1))
                    .collect::<Vec<_>>()
                    .join(",");
                cells.push(rce);
                cells.push(
                    p.support
                        .iter()
                        .map(|s| s.len().to_string())
                        .collect::<Vec<_>>()
                        .join(""),
                );
                rows.push(cells);
            }
        }
        rows
    }

    /// One attribute cell of a pattern row.
    fn render_cell(&self, rid: usize, cen: usize, p: PatRef<'_>, attr: usize) -> String {
        let rule = self.rule(rid);
        let info = &self.infos[rid];
        // Constant test from the alpha restriction?
        if let Some(sel) = rule.ces[cen].alpha.tests.iter().find(|s| s.attr == attr) {
            return if sel.op == CompOp::Eq {
                sel.value.to_string()
            } else {
                format!("{}{}", sel.op, sel.value)
            };
        }
        // Derived range constraint?
        if let Some((_, op, v)) = p.extra.iter().find(|(a, _, _)| *a == attr) {
            return format!("{op}{v}");
        }
        // Variable constraint: bound or free?
        for &(a, op, vid) in &info.var_constraints[cen] {
            if a != attr || op != CompOp::Eq {
                continue;
            }
            return match &p.sigma[vid] {
                Some(v) => v.to_string(),
                None => {
                    let (bce, battr) = info.var_sites[vid];
                    rule.ces[bce]
                        .bindings
                        .iter()
                        .find(|(ba, _)| *ba == battr)
                        .map(|(_, n)| format!("<{n}>"))
                        .unwrap_or_else(|| format!("<v{vid}>"))
                }
            };
        }
        "*".to_string()
    }

    fn rule(&self, rid: usize) -> &Rule {
        self.pdb.rules().rule(RuleId(rid))
    }

    /// Does `tuple`, which passes the alpha tests of `(rule, cen)`, match
    /// its pattern `p`? Every evaluable specialized constraint must hold.
    fn pattern_matches(&self, rid: usize, cen: usize, p: PatRef<'_>, tuple: &Tuple) -> bool {
        self.pdb.db().stats().read_tuples(1); // COND tuple examined
        let holds =
            |attr: usize, op: CompOp, x: &Value| tuple.get(attr).is_some_and(|v| op.eval(v, x));
        self.infos[rid].var_constraints[cen]
            .iter()
            .all(|&(attr, op, vid)| p.sigma[vid].as_ref().is_none_or(|x| holds(attr, op, x)))
            && p.extra.iter().all(|(attr, op, x)| holds(*attr, *op, x))
    }

    /// Are all marks of a pattern (for CE `cen` of rule `rid`) set?
    /// Positive RCEs need support; negated RCEs need no blockers
    /// (§4.2.2).
    fn fully_marked(&self, rid: usize, cen: usize, support: &[SupportSet]) -> bool {
        let rule = self.rule(rid);
        let info = &self.infos[rid];
        info.rce[cen].iter().enumerate().all(|(i, &j)| {
            if rule.ces[j].negated {
                support[i].is_empty()
            } else {
                !support[i].is_empty()
            }
        })
    }

    /// Positive marks of a pattern as a bitmask over rule CE indices
    /// (for mark compatibility). No allocation — support emptiness
    /// flags folded into a u64.
    fn positive_marks(&self, rid: usize, cen: usize, support: &[SupportSet]) -> u64 {
        let rule = self.rule(rid);
        let info = &self.infos[rid];
        let mut marks = 0u64;
        for (i, &j) in info.rce[cen].iter().enumerate() {
            if !rule.ces[j].negated && !support[i].is_empty() {
                marks |= 1 << j;
            }
        }
        marks
    }

    /// Append the contribution of `tuple` matching pattern `p` at CE `k`.
    fn contribution(
        &self,
        out: &mut Contributions,
        rid: usize,
        k: usize,
        p: PatRef<'_>,
        tuple: &Tuple,
    ) {
        let start = out.sigmas.len();
        out.sigmas.extend_from_slice(p.sigma);
        let mut ranges: Vec<(usize, CompOp, Value)> = Vec::new();
        for &(attr, op, vid) in &self.infos[rid].var_constraints[k] {
            if op == CompOp::Eq {
                // The tuple fixes this variable's value.
                out.sigmas[start + vid] = Some(tuple[attr].clone());
            } else {
                // The tuple bounds the variable: v op.flip() t[attr].
                ranges.push((vid, op.flip(), tuple[attr].clone()));
            }
        }
        let mut marks = self.positive_marks(rid, k, p.support);
        if !self.rule(rid).ces[k].negated {
            marks |= 1 << k;
        }
        out.list.push(Contribution {
            rule: rid,
            k,
            sigma: start..out.sigmas.len(),
            ranges,
            marks,
        });
    }

    /// The desired pattern for target CE `n` under a contribution:
    /// substitution restricted to `n`'s variables plus derived ranges,
    /// written into reused scratch buffers.
    fn desired_into(
        &self,
        c: &Contribution,
        sigma: &[Option<Value>],
        n: usize,
        bound: &mut Vec<(usize, Value)>,
        extra: &mut Vec<Extra>,
    ) {
        bound.clear();
        extra.clear();
        let info = &self.infos[c.rule];
        for &(attr, op, vid) in &info.var_constraints[n] {
            if let Some(v) = &sigma[vid] {
                if op == CompOp::Eq {
                    bound.push((vid, v.clone()));
                } else {
                    // Non-eq constraint with a known value: specialize.
                    extra.push((attr, op, v.clone()));
                }
            } else if op == CompOp::Eq {
                for (rvid, rop, rv) in &c.ranges {
                    if *rvid == vid {
                        extra.push((attr, *rop, rv.clone()));
                    }
                }
            }
        }
        bound.sort_by_key(|(vid, _)| *vid);
        bound.dedup();
        sort_extra(extra);
        extra.dedup();
    }

    /// Maintenance after an insertion: propagate matching patterns of the
    /// inserted tuple to all related COND stores (§4.2.2's insertion
    /// algorithm). The patterns the tuple matched are the ones
    /// [`CondEngine::detect_insert`] recorded; their slots still name them
    /// because only `inst` and `conflict` changed in between.
    fn propagate(&mut self, class: ClassId, tid: TupleId, tuple: &Tuple) {
        obs::prof_span!("propagate");
        if self.scratch.hits.is_empty() {
            return;
        }
        let tup: TupKey = (class.0, tid);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.contribs.list.clear();
        scratch.contribs.sigmas.clear();
        for &(g, slot) in &scratch.hits {
            let group = &self.stores[class.0].groups[g as usize];
            self.contribution(
                &mut scratch.contribs,
                group.rule,
                group.cen,
                group.pat(slot),
                tuple,
            );
        }
        // Group planned work by target class so stores can be updated in
        // parallel (each class store is owned by exactly one task). The
        // fan-out shares each contribution by index — no Rule or
        // Contribution clones per related CE — and all buffers are
        // engine-owned scratch reused across `maintain_delta` calls.
        let nclasses = self.stores.len();
        if scratch.per_class.len() < nclasses {
            scratch.per_class.resize_with(nclasses, Vec::new);
        }
        for list in &mut scratch.per_class {
            list.clear();
        }
        for (ci, c) in scratch.contribs.list.iter().enumerate() {
            let ces = &self.rule(c.rule).ces;
            for &n in &self.infos[c.rule].rce[c.k] {
                scratch.per_class[ces[n].class.0].push((ci as u32, n as u32));
            }
        }
        scratch.entries.clear();
        scratch.spans.clear();
        let parallel = self.parallel;
        if parallel {
            // Real fan-out, partitioned like the working memory: classes
            // are grouped by the lock shard their relation hashes to, and
            // one scoped thread is spawned per *non-empty* shard group
            // (classes within a group run sequentially on that thread).
            // COND propagation parallelism thereby mirrors the storage
            // layer's sharding — a shard's match maintenance stays on one
            // thread, co-located with the lock traffic its transactions
            // generate — and empty groups pay no thread overhead. Each
            // thread gets its own apply scratch; the serial path below
            // reuses the engine's. Results are flattened and sorted by
            // class, so the merge order (and every downstream journal
            // line) is independent of shard count and thread timing.
            let lm = self.pdb.db().lock_manager();
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); lm.shard_count()];
            for (class, work) in scratch.per_class.iter().enumerate() {
                if !work.is_empty() {
                    groups[lm.shard_of(self.pdb.class_rel(ClassId(class)))].push(class);
                }
            }
            let stores = std::mem::take(&mut self.stores);
            let mut slots: Vec<Option<CondStore>> = stores.into_iter().map(Some).collect();
            let this: &CondEngine = self;
            let contribs = &scratch.contribs;
            let per_class = &scratch.per_class;
            let collected = crossbeam::thread::scope(|scope| {
                let mut handles = Vec::new();
                for classes in groups.iter().filter(|g| !g.is_empty()) {
                    let assigned: Vec<(usize, CondStore)> = classes
                        .iter()
                        .map(|&class| (class, slots[class].take().expect("store present")))
                        .collect();
                    let handle = scope.spawn(move |_| {
                        let mut apply = ApplyScratch::default();
                        let mut out = Vec::new();
                        for (class, mut store) in assigned {
                            let started = Instant::now();
                            let mut log = Vec::new();
                            let (scanned, probes) = this.apply_to_store(
                                &mut store,
                                contribs,
                                &per_class[class],
                                tup,
                                &mut apply,
                                &mut log,
                            );
                            let span_ns = started.elapsed().as_nanos() as u64;
                            out.push((class, store, log, scanned, probes, span_ns));
                        }
                        out
                    });
                    handles.push(handle);
                }
                let mut returned: Vec<(usize, CondStore, Vec<LogEntry>, u64, u64, u64)> = handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("propagation thread"))
                    .collect();
                returned.sort_by_key(|(c, ..)| *c);
                returned
            })
            .expect("propagation scope");
            for (class, store, log, scanned, probes, span_ns) in collected {
                slots[class] = Some(store);
                scratch.entries.extend(log);
                scratch.spans.push((class, scanned, probes, span_ns));
            }
            self.stores = slots
                .into_iter()
                .map(|s| s.expect("store returned"))
                .collect();
        } else {
            let mut stores = std::mem::take(&mut self.stores);
            for (class, work) in scratch.per_class.iter().enumerate() {
                if work.is_empty() {
                    continue;
                }
                let started = Instant::now();
                let (scanned, probes) = self.apply_to_store(
                    &mut stores[class],
                    &scratch.contribs,
                    work,
                    tup,
                    &mut scratch.apply,
                    &mut scratch.entries,
                );
                scratch
                    .spans
                    .push((class, scanned, probes, started.elapsed().as_nanos() as u64));
            }
            self.stores = stores;
        }
        for &(class, scanned, probes, span_ns) in &scratch.spans {
            self.tracer.emit(|| obs::Event::PropagateSpan {
                class: class as u32,
                class_name: self.pdb.rules().class(ClassId(class)).name.clone(),
                scanned,
                probes,
                span_ns,
                parallel,
            });
            if let Some(m) = self.tracer.metrics() {
                m.record_propagate(span_ns);
            }
        }
        for (supporter, pat) in scratch.entries.drain(..) {
            self.log.record(supporter, pat);
        }
        self.scratch = scratch;
    }

    /// Apply contributions (shared by index in `work`) targeting one
    /// class store. Log entries (supporter tuple → pattern) for every
    /// support-set insertion are appended to `entries`; returns the
    /// number of COND tuples examined and the index probes that narrowed
    /// them (the partition's span work, reported per-partition by
    /// `propagate`).
    ///
    /// The hot path allocates nothing once its buffers have grown:
    /// proposal keys are packed u64s in a reused map, desired/merged
    /// identities and what a proposal carries live in scratch buffers,
    /// and a no-new-info mark on an existing pattern carries no inherited
    /// support at all (see [`Proposal::inherit`]).
    fn apply_to_store(
        &self,
        store: &mut CondStore,
        contribs: &Contributions,
        work: &[(u32, u32)],
        tup: TupKey,
        scratch: &mut ApplyScratch,
        entries: &mut Vec<LogEntry>,
    ) -> (u64, u64) {
        obs::prof_span!("apply");
        scratch.keys.clear();
        scratch.props.clear();
        scratch.fresh_sigmas.clear();
        scratch.fresh_extras.clear();
        scratch.inherits.clear();
        let mut scanned: u64 = 0;
        let mut probes: u64 = 0;
        for &(ci, n) in work {
            let c = &contribs.list[ci as usize];
            let c_sigma = contribs.sigma(c);
            let n = n as usize;
            let rule = self.rule(c.rule);
            let info = &self.infos[c.rule];
            let k_idx = info.rce_index(n, c.k);
            let negated_k = rule.ces[c.k].negated;
            self.desired_into(c, c_sigma, n, &mut scratch.bound, &mut scratch.extra);
            let group = self.group_at(store, c.rule, n);
            let (cands, indexed) = if negated_k {
                self.blocker_candidates(c, c_sigma, group)
            } else {
                self.bound_candidates(group, &scratch.bound)
            };
            let ncands = cands.len() as u64;
            self.pdb.db().stats().read_tuples(ncands);
            self.note_pattern_lookup(ncands, indexed);
            scanned += ncands;
            probes += indexed as u64;
            // The proposal marking `id` at `k_idx`, and whether it is new.
            let propose = |scratch: &mut ApplyScratch, id: PatId| -> (usize, bool) {
                let next = scratch.props.len();
                match scratch.keys.entry(pack_key(c.rule, n, k_idx, id)) {
                    Entry::Occupied(planned) => (*planned.get() as usize, false),
                    Entry::Vacant(key) => {
                        key.insert(next as u32);
                        scratch.props.push(Proposal {
                            rule: c.rule as u32,
                            n: n as u32,
                            k_idx: k_idx as u32,
                            id,
                            fresh: None,
                            inherit: None,
                        });
                        (next, true)
                    }
                }
            };
            for slot in cands.iter() {
                let m = group.pat(slot);
                // Mark compatibility (§4.2.2): every mark set in M must be
                // set in T's extended view — restricted to marks of CEs
                // sharing a variable with the target CE (see module docs).
                let m_marks = self.positive_marks(c.rule, n, m.support);
                if (m_marks & info.share_masks[n]) & !c.marks != 0 {
                    continue;
                }
                if negated_k {
                    // Blocker accounting: the tuple definitely blocks M
                    // only when every join of the negated CE is evaluable
                    // against M's substitution and holds. `c_sigma` holds
                    // the tuple's view; check agreement on shared vars.
                    let all_evaluable_and_true =
                        info.var_constraints[c.k].iter().all(|&(_, _, vid)| {
                            match (&c_sigma[vid], &m.sigma[vid]) {
                                (Some(a), Some(b)) => a == b,
                                _ => false,
                            }
                        });
                    if all_evaluable_and_true {
                        propose(scratch, m.id);
                    }
                    continue;
                }
                // Unify: shared bound variables must agree.
                let compatible = scratch.bound.iter().all(|(vid, v)| match &m.sigma[*vid] {
                    Some(x) => x == v,
                    None => true,
                });
                if !compatible {
                    continue;
                }
                let adds_binding = scratch.bound.iter().any(|(vid, _)| m.sigma[*vid].is_none());
                let adds_extra = scratch.extra.iter().any(|e| !m.extra.contains(e));
                if !adds_binding && !adds_extra {
                    // No new binding: set the mark on M itself. Only the
                    // inserted tuple's own mark is new — M's support is
                    // already M's, no self-union.
                    propose(scratch, m.id);
                    continue;
                }
                // "Create a new tuple with the new binding and set the
                // Mark bit of C" — the created pattern inherits M's
                // support and gains this tuple's. Build the merged
                // identity in scratch and intern it; the canonical clone
                // happens only the first time the identity is ever seen.
                scratch.sigma.clear();
                scratch.sigma.extend_from_slice(m.sigma);
                for (vid, v) in &scratch.bound {
                    if scratch.sigma[*vid].is_none() {
                        scratch.sigma[*vid] = Some(v.clone());
                    }
                }
                scratch.merged_extra.clear();
                scratch.merged_extra.extend_from_slice(m.extra);
                for e in &scratch.extra {
                    if !scratch.merged_extra.contains(e) {
                        scratch.merged_extra.push(e.clone());
                    }
                }
                sort_extra(&mut scratch.merged_extra);
                let id = self
                    .interner
                    .lock()
                    .expect("interner")
                    .intern(&scratch.sigma, &scratch.merged_extra);
                let (pi, new) = propose(scratch, id);
                // A merged identity can collide with a *different* live
                // pattern's identity; then the proposal unions into that
                // pattern instead of creating.
                if new && group.slot_of(id).is_none() {
                    let at = (scratch.fresh_sigmas.len(), scratch.fresh_extras.len());
                    scratch.fresh_sigmas.extend_from_slice(&scratch.sigma);
                    scratch
                        .fresh_extras
                        .extend_from_slice(&scratch.merged_extra);
                    scratch.props[pi].fresh = Some((at.0, at.1..scratch.fresh_extras.len()));
                }
                let nrce = info.rce[n].len();
                let at = *scratch.props[pi].inherit.get_or_insert_with(|| {
                    let at = scratch.inherits.len();
                    scratch.inherits.resize_with(at + nrce, SupportSet::new);
                    at
                });
                for (dst, src) in scratch.inherits[at..at + nrce].iter_mut().zip(m.support) {
                    for s in src.iter() {
                        if !dst.contains(s) {
                            dst.push(*s);
                        }
                    }
                }
            }
        }
        // One aggregate I/O charge for everything this store task read —
        // a sleeping wait overlaps across class threads like disk I/O.
        self.charge_io(scanned);
        // Apply: union each proposal's inherited support (plus the
        // inserted tuple's own mark) into the target pattern, creating it
        // if absent. Every supporter newly recorded on a pattern gets a
        // log entry so its deletion withdraws exactly this support.
        for p in &scratch.props {
            let (rid, n) = (p.rule as usize, p.n as usize);
            let nrce = self.infos[rid].rce[n].len();
            let group = &mut store.groups[self.group_at[rid][n] as usize];
            let key: PatKey = (p.rule, p.n, p.id);
            let slot = match group.slot_of(p.id) {
                Some(slot) => slot,
                None => {
                    let (sigma_at, extra) = p.fresh.clone().expect("new identity carries its σ");
                    let nvars = self.infos[rid].var_sites.len();
                    self.pdb.db().stats().inserted();
                    group.insert(
                        p.id,
                        &scratch.fresh_sigmas[sigma_at..sigma_at + nvars],
                        &scratch.fresh_extras[extra],
                    )
                }
            };
            let support = group.support_mut(slot);
            let inherited = p
                .inherit
                .map_or(&[][..], |at| &scratch.inherits[at..at + nrce]);
            for (i, src) in inherited.iter().enumerate() {
                for s in src.iter() {
                    if !support[i].contains(s) {
                        support[i].push(*s);
                        entries.push((*s, key));
                    }
                }
            }
            let ki = p.k_idx as usize;
            if !support[ki].contains(&tup) {
                support[ki].push(tup);
                entries.push((tup, key));
            }
        }
        (scanned, probes)
    }

    /// Withdraw a deleted tuple's support from every pattern it
    /// contributed to (the deletion algorithm: reset marks / decrement
    /// counters, §4.2.2), dropping patterns left with no support.
    fn withdraw(&mut self, tup: TupKey) {
        obs::prof_span!("withdraw");
        self.log.take(tup, |(rid, cen, id)| {
            let (rid, cen) = (rid as usize, cen as usize);
            let class = self.pdb.rules().rule(RuleId(rid)).ces[cen].class.0;
            let group = &mut self.stores[class].groups[self.group_at[rid][cen] as usize];
            let Some(slot) = group.slot_of(id) else {
                return;
            };
            let support = group.support_mut(slot);
            for s in support.iter_mut() {
                s.retain(|x| *x != tup);
            }
            if support.iter().all(SupportSet::is_empty) && !group.is_original_slot(slot) {
                // Subsumed by the original template once unsupported.
                self.pdb.db().stats().deleted();
                group.remove(slot);
            }
        });
    }

    /// Detection phase for an insertion (conflict set first! §4.2.3), and
    /// the one search of the tuple's COND relation: one stab for the
    /// groups, one alpha test and one probe per group. Every pattern the
    /// tuple matches is recorded in `scratch.hits` for
    /// [`CondEngine::propagate`], so maintenance searches nothing again.
    /// Returns the retraction deltas caused by new blockers, plus the
    /// `(rule, cen)` fire triggers whose seeded expansion the caller runs
    /// — inline per change, or deferred and batched per (rule,
    /// seeded-term) by `maintain_delta`.
    fn detect_insert(
        &mut self,
        class: ClassId,
        tuple: &Tuple,
    ) -> (Vec<ConflictDelta>, Vec<(usize, usize)>) {
        obs::prof_span!("detect");
        let mut hits = std::mem::take(&mut self.scratch.hits);
        hits.clear();
        // (a) fully marked patterns → fire triggers (expanded into new
        // instantiations by a seeded query).
        let mut fire: Vec<(usize, usize)> = Vec::new();
        let mut blockers: Vec<(usize, usize)> = Vec::new();
        for g in self.candidate_groups(class, tuple) {
            let group = &self.stores[class.0].groups[g as usize];
            let (rid, cen) = (group.rule, group.cen);
            let ce = &self.rule(rid).ces[cen];
            if !ce.alpha.matches(tuple) {
                continue;
            }
            let (cands, indexed) = self.tuple_candidates(group, tuple);
            self.note_pattern_lookup(cands.len() as u64, indexed);
            // A blocker is told by the alpha template alone.
            self.charge_io(if ce.negated && self.pattern_index {
                1
            } else {
                cands.len() as u64
            });
            // A sibling CE on the same class may be filled by this very
            // tuple, whose mark no pattern carries yet: always expand.
            let mut fires = self.infos[rid].shares_class[cen];
            for slot in cands.iter() {
                let p = group.pat(slot);
                if self.pattern_matches(rid, cen, p, tuple) {
                    hits.push((g, slot));
                    fires = fires || self.fully_marked(rid, cen, p.support);
                }
            }
            if ce.negated {
                blockers.push((rid, cen));
            } else if fires {
                fire.push((rid, cen));
            }
        }
        self.scratch.hits = hits;
        // (b) the tuple blocks negated CEs: retract newly blocked
        // instantiations.
        let mut deltas = Vec::new();
        for (rid, cen) in blockers {
            let rule = self.pdb.rules().rule(RuleId(rid));
            let positive_pos = &self.infos[rid].positive_pos;
            let d = self.inst.remove_where(rule, |m| {
                rule.ces[cen].joins.iter().all(|j| {
                    let Some(pos) = positive_pos[j.other_ce] else {
                        return false;
                    };
                    let other = &m.tuples[pos];
                    match (tuple.get(j.my_attr), other.get(j.other_attr)) {
                        (Some(a), Some(b)) => j.op.eval(a, b),
                        _ => false,
                    }
                })
            });
            deltas.extend(d);
        }
        (deltas, fire)
    }

    /// Expand fire triggers through seeded LHS queries — one batched
    /// evaluation per (rule, seeded-term) pair, in that order. Distinct
    /// seeded terms of one rule can derive the same match in the same
    /// cycle; the store's tid-vector index drops the repeat, as it drops
    /// matches already stored.
    fn expand_fires(&mut self, fires: Vec<(usize, usize, TupleId, Tuple)>) -> Vec<ConflictDelta> {
        obs::prof_span!("expand");
        let mut groups: BTreeMap<(usize, usize), Vec<(TupleId, Tuple)>> = BTreeMap::new();
        for (rid, cen, tid, tuple) in fires {
            groups.entry((rid, cen)).or_default().push((tid, tuple));
        }
        let mut deltas = Vec::new();
        for ((rid, cen), seeds) in groups {
            let rule = self.pdb.rules().rule(RuleId(rid));
            let matches = eval_rule_seeded_batch(&self.pdb, rule, cen, &seeds, self.batch);
            deltas.extend(self.inst.add_missing(rule, matches));
        }
        deltas
    }

    /// Detection retractions for a deletion: instantiations containing
    /// the tuple leave the conflict store.
    fn retract_containing(&mut self, class: ClassId, tid: TupleId) -> Vec<ConflictDelta> {
        obs::prof_span!("retract");
        self.inst.remove_containing(self.pdb.rules(), class, tid)
    }

    /// Deletion maintenance: withdraw the tuple's support from every
    /// pattern it contributed to (§4.2.2), then revive what it was
    /// blocking. A departed blocker is bound the way an arriving one is,
    /// in the other direction: the rows of a positive CE it joins seed the
    /// LHS query, whose anti-join still sees the remaining blockers. Only
    /// a negated CE joined to no positive CE re-evaluates the whole rule.
    fn remove_maintenance(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!("remove");
        self.withdraw((class.0, tid));
        let rules = self.pdb.rules();
        let mut unblocked: Vec<(usize, usize)> = self
            .candidate_groups(class, tuple)
            .into_iter()
            .map(|g| {
                let group = &self.stores[class.0].groups[g as usize];
                (group.rule, group.cen)
            })
            .filter(|&(rid, cen)| {
                let ce = &rules.rule(RuleId(rid)).ces[cen];
                ce.negated && ce.alpha.matches(tuple)
            })
            .collect();
        unblocked.sort_unstable();
        let mut enable_deltas = Vec::new();
        for (rid, cen) in unblocked {
            let rule = rules.rule(RuleId(rid));
            let matches = match joined_rows(&self.pdb, rule, cen, tuple) {
                Some((ce, rows)) => eval_rule_seeded_batch(&self.pdb, rule, ce, &rows, self.batch),
                None => eval_rule_via(&self.pdb, rule, self.batch),
            };
            enable_deltas.extend(self.inst.add_missing(rule, matches));
        }
        enable_deltas
    }
}

impl MatchEngine for CondEngine {
    fn name(&self) -> &'static str {
        "cond"
    }

    fn match_plan(&self) -> Vec<crate::engine::MatchPlan> {
        // COND patterns are stored per textual CE; maintenance walks them
        // in that order rather than re-planning per WM change.
        let mut plans = crate::engine::explain::match_plans(
            self.pdb(),
            self.name(),
            crate::engine::OrderPolicy::Textual,
        );
        let mode = if self.pattern_index {
            "indexed"
        } else {
            "scan"
        };
        for plan in &mut plans {
            plan.pattern_store = Some(mode);
        }
        plans
    }

    fn set_pattern_index(&mut self, on: bool) {
        self.pattern_index = on;
    }

    fn pattern_io(&self) -> Option<(u64, u64)> {
        Some((
            self.pat_probes.load(Ordering::Relaxed),
            self.pat_scanned.load(Ordering::Relaxed),
        ))
    }

    fn pdb(&self) -> &ProductionDb {
        &self.pdb
    }

    fn maintain_insert(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!("cond.maintain");
        let start = Instant::now();
        let (mut deltas, fire) = self.detect_insert(class, tuple);
        let fires: Vec<(usize, usize, TupleId, Tuple)> = fire
            .into_iter()
            .map(|(rid, cen)| (rid, cen, tid, tuple.clone()))
            .collect();
        deltas.extend(self.expand_fires(fires));
        self.conflict.apply_all(&deltas);
        self.last_detect_ns = start.elapsed().as_nanos() as u64;
        // Maintenance follows detection.
        self.propagate(class, tid, tuple);
        self.last_total_ns = start.elapsed().as_nanos() as u64;
        deltas
    }

    fn maintain_remove(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        obs::prof_span!("cond.maintain");
        let start = Instant::now();
        // Detection: retract instantiations containing the tuple.
        let mut deltas = self.retract_containing(class, tid);
        self.conflict.apply_all(&deltas);
        self.last_detect_ns = start.elapsed().as_nanos() as u64;

        // Maintenance: withdraw support; a deleted blocker may enable
        // negated rules.
        let enable_deltas = self.remove_maintenance(class, tid, tuple);
        self.conflict.apply_all(&enable_deltas);
        deltas.extend(enable_deltas);
        self.last_total_ns = start.elapsed().as_nanos() as u64;
        deltas
    }

    /// Batched maintenance (§4.2 set-at-a-time): the whole WM delta is
    /// already applied, so walk the changes in action order — detection
    /// triggers and COND propagation stay per-tuple sequential because
    /// contributions read the evolving pattern store — but *defer* the
    /// seeded fire expansions, then run one hash-join evaluation per
    /// (rule, seeded-term) pair over all collected seeds. Seeds of tuples
    /// deleted later in the same cycle are dropped (their matches no
    /// longer exist against the final WM); seeds are keyed by (class,
    /// tuple id) because [`TupleId`] is a per-relation (slot, gen) pair
    /// that collides across classes.
    fn maintain_delta(&mut self, deltas: &[WmDelta]) -> Vec<ConflictDelta> {
        if !self.batch {
            let mut out = Vec::new();
            for d in deltas {
                if d.insert {
                    out.extend(self.maintain_insert(d.class, d.tid, &d.tuple));
                } else {
                    out.extend(self.maintain_remove(d.class, d.tid, &d.tuple));
                }
            }
            return out;
        }
        obs::prof_span!("cond.maintain");
        let start = Instant::now();
        let mut detect_ns: u64 = 0;
        let mut out = Vec::new();
        let mut pending: Vec<(usize, usize, ClassId, TupleId, Tuple)> = Vec::new();
        for d in deltas {
            if d.insert {
                let t0 = Instant::now();
                let (dd, fire) = self.detect_insert(d.class, &d.tuple);
                self.conflict.apply_all(&dd);
                out.extend(dd);
                pending.extend(
                    fire.into_iter()
                        .map(|(rid, cen)| (rid, cen, d.class, d.tid, d.tuple.clone())),
                );
                detect_ns += t0.elapsed().as_nanos() as u64;
                self.propagate(d.class, d.tid, &d.tuple);
            } else {
                let t0 = Instant::now();
                pending.retain(|(_, _, class, tid, _)| !(*class == d.class && *tid == d.tid));
                let dd = self.retract_containing(d.class, d.tid);
                self.conflict.apply_all(&dd);
                out.extend(dd);
                detect_ns += t0.elapsed().as_nanos() as u64;
                let dd = self.remove_maintenance(d.class, d.tid, &d.tuple);
                self.conflict.apply_all(&dd);
                out.extend(dd);
            }
        }
        let t0 = Instant::now();
        let dd = self.expand_fires(
            pending
                .into_iter()
                .map(|(rid, cen, _, tid, tuple)| (rid, cen, tid, tuple))
                .collect(),
        );
        self.conflict.apply_all(&dd);
        out.extend(dd);
        detect_ns += t0.elapsed().as_nanos() as u64;
        self.last_detect_ns = detect_ns;
        self.last_total_ns = start.elapsed().as_nanos() as u64;
        out
    }

    fn set_batching(&mut self, on: bool) {
        self.batch = on;
    }

    fn conflict_set(&self) -> &ConflictSet {
        &self.conflict
    }

    /// Everything the engine holds beside working memory: the pattern
    /// rows (σ, support and derived-constraint cells, slot bookkeeping),
    /// their identity map and σ-binding chains, the contribution log and
    /// the identity interner.
    fn space(&self) -> SpaceStats {
        let groups = self.stores.iter().flat_map(|s| &s.groups);
        let patterns: usize = groups
            .map(|g| {
                g.arena.bytes()
                    + g.by_identity.len() * (std::mem::size_of::<(PatId, u32)>() + 1)
                    + g.by_binding.iter().map(SlotChains::bytes).sum::<usize>()
            })
            .sum();
        let interner = self.interner.lock().expect("interner").bytes();
        SpaceStats {
            match_entries: self.pattern_count(),
            match_bytes: patterns + self.log.bytes() + interner,
            wm_tuples: self.pdb.wm_total(),
        }
    }

    fn last_detect_split(&self) -> Option<(u64, u64)> {
        Some((self.last_detect_ns, self.last_total_ns))
    }

    fn tracer(&self) -> &obs::Tracer {
        &self.tracer
    }

    fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::WmChange;
    use relstore::tuple;

    /// Example 4's Rule-1 over classes A, B, C.
    fn example4() -> CondEngine {
        let rs = ops5::compile(
            r#"
            (literalize A a1 a2 a3)
            (literalize B b1 b2 b3)
            (literalize C c1 c2 c3)
            (p Rule-1
                (A ^a1 <x> ^a2 a ^a3 <z>)
                (B ^b1 <x> ^b2 <y> ^b3 b)
                (C ^c1 c ^c2 <y> ^c3 <z>)
                -->
                (remove 1))
            "#,
        )
        .unwrap();
        CondEngine::new(ProductionDb::new(rs).unwrap())
    }

    /// A readable snapshot of COND patterns for a (rule, cen) group.
    fn patterns(e: &CondEngine, class: usize, cen: usize) -> Vec<(Vec<Option<Value>>, Vec<u32>)> {
        let g = e.group_at(&e.stores[class], 0, cen);
        let mut v: Vec<_> = g
            .arena
            .iter_live()
            .map(|s| {
                let p = g.pat(s);
                (
                    p.sigma.to_vec(),
                    p.support.iter().map(|s| s.len() as u32).collect::<Vec<_>>(),
                )
            })
            .collect();
        v.sort_by_key(|(s, _)| format!("{s:?}"));
        v
    }

    /// Example 5's trace: insert B(4,5,b), C(c,7,8), A(4,a,8), B(4,7,b);
    /// Rule-1 enters the conflict set only on the last insertion.
    #[test]
    fn example_5_trace() {
        let mut e = example4();
        let (a, b, c) = (ClassId(0), ClassId(1), ClassId(2));
        assert!(e.insert(b, tuple![4, 5, "b"]).is_empty());
        assert!(e.insert(c, tuple!["c", 7, 8]).is_empty());
        assert!(e.insert(a, tuple![4, "a", 8]).is_empty());

        // COND-A now holds: original, (4,a,<z>) by B(4,5,b), (<x>,a,8) by
        // C(c,7,8) — the paper's first three non-header rows (the fourth,
        // (4,a,8), appears only after B(4,7,b)).
        let ca = patterns(&e, 0, 0);
        assert_eq!(ca.len(), 3, "COND-A: original + two matching patterns");

        let deltas = e.insert(b, tuple![4, 7, "b"]);
        assert_eq!(deltas.len(), 1, "Rule-1 fires on B(4,7,b)");
        assert!(deltas[0].is_add());
        assert_eq!(e.conflict_set().len(), 1);

        // Now COND-A holds the fully bound (4,'a',8) with both marks set.
        let ca = patterns(&e, 0, 0);
        assert_eq!(ca.len(), 4);
        let full = ca
            .iter()
            .find(|(s, _)| s.iter().filter(|x| x.is_some()).count() == 2)
            .expect("fully bound pattern");
        assert_eq!(full.1, vec![1, 1], "marks BC = 11");

        // COND-B gained (4,7,'b') with marks A and C (the paper's fourth
        // row, created by A(4,a,8)).
        let cb = patterns(&e, 1, 1);
        assert!(cb.iter().any(|(s, counts)| {
            s.iter().filter(|x| x.is_some()).count() == 2 && counts.iter().all(|&c| c > 0)
        }));
    }

    /// The rendered COND-A table after the full Example 5 trace matches
    /// the paper's rows cell for cell (with counters where the paper
    /// prints bits).
    #[test]
    fn example_5_rendered_cond_a_table() {
        let mut e = example4();
        let (a, b, c) = (ClassId(0), ClassId(1), ClassId(2));
        e.insert(b, tuple![4, 5, "b"]);
        e.insert(c, tuple!["c", 7, 8]);
        e.insert(a, tuple![4, "a", 8]);
        e.insert(b, tuple![4, 7, "b"]);
        let rows: Vec<String> = e.render_cond(a).iter().map(|r| r.join("|")).collect();
        assert_eq!(
            rows,
            vec![
                "Rule-1|1|<x>|a|<z>|(Rule-1,2),(Rule-1,3)|00",
                "Rule-1|1|<x>|a|8|(Rule-1,2),(Rule-1,3)|01",
                "Rule-1|1|4|a|<z>|(Rule-1,2),(Rule-1,3)|20",
                "Rule-1|1|4|a|8|(Rule-1,2),(Rule-1,3)|11",
            ]
        );
        // And COND-B contains the paper's (4,7,'b') row with both marks.
        let rows: Vec<String> = e.render_cond(b).iter().map(|r| r.join("|")).collect();
        assert!(
            rows.contains(&"Rule-1|2|4|7|b|(Rule-1,1),(Rule-1,3)|11".to_string()),
            "{rows:?}"
        );
    }

    #[test]
    fn deletion_mirrors_insertion() {
        let mut e = example4();
        let (a, b, c) = (ClassId(0), ClassId(1), ClassId(2));
        let baseline = e.pattern_count();
        e.insert(b, tuple![4, 5, "b"]);
        e.insert(c, tuple!["c", 7, 8]);
        e.insert(a, tuple![4, "a", 8]);
        e.insert(b, tuple![4, 7, "b"]);
        assert_eq!(e.conflict_set().len(), 1);
        // Delete everything in a different order; patterns must return to
        // the originals only.
        let d = e.remove(b, &tuple![4, 7, "b"]);
        assert_eq!(d.len(), 1);
        assert!(!d[0].is_add());
        assert!(e.conflict_set().is_empty());
        e.remove(a, &tuple![4, "a", 8]);
        e.remove(c, &tuple!["c", 7, 8]);
        e.remove(b, &tuple![4, 5, "b"]);
        assert_eq!(
            e.pattern_count(),
            baseline,
            "all matching patterns retracted"
        );
        assert!(e.log.heads.is_empty(), "contribution log fully drained");
    }

    #[test]
    fn counter_not_bits_survives_duplicate_support() {
        // Two B tuples contribute the same binding; deleting one must not
        // destroy the pattern (§4.2.2's counter argument).
        let mut e = example4();
        let (a, b, c) = (ClassId(0), ClassId(1), ClassId(2));
        e.insert(b, tuple![4, 7, "b"]);
        e.insert(b, tuple![4, 7, "b"]);
        e.insert(c, tuple!["c", 7, 8]);
        let deltas = e.insert(a, tuple![4, "a", 8]);
        assert_eq!(deltas.len(), 2, "two instantiations, one per duplicate B");
        e.remove(b, &tuple![4, 7, "b"]);
        assert_eq!(e.conflict_set().len(), 1, "one instantiation survives");
        // The supporting pattern in COND-A must still have its B mark.
        let ca = patterns(&e, 0, 0);
        assert!(
            ca.iter()
                .any(|(s, counts)| s.iter().any(Option::is_some) && counts[0] > 0),
            "pattern still supported by the second B tuple"
        );
    }

    #[test]
    fn detection_is_single_search_fast_path() {
        let mut e = example4();
        let (a, b, c) = (ClassId(0), ClassId(1), ClassId(2));
        e.insert(b, tuple![4, 7, "b"]);
        e.insert(c, tuple!["c", 7, 8]);
        e.insert(a, tuple![4, "a", 8]);
        let (detect, total) = e.last_detect_split().unwrap();
        assert!(detect <= total);
        assert!(total > 0);
    }

    #[test]
    fn range_patterns_from_non_eq_joins() {
        // Example 3's R1: salary {< <S>}. Inserting Mike(6000) must
        // create a range pattern salary < 6000 on the manager CE.
        let rs = ops5::compile(
            r#"
            (literalize Emp name salary manager)
            (p R1
                (Emp ^name Mike ^salary <S> ^manager <M>)
                (Emp ^name <M> ^salary {<S1> < <S>})
                -->
                (remove 1))
            "#,
        )
        .unwrap();
        let mut e = CondEngine::new(ProductionDb::new(rs).unwrap());
        let emp = ClassId(0);
        assert!(e.insert(emp, tuple!["Mike", 6000, "Sam"]).is_empty());
        // A pattern specialized with Sam + salary<6000 now exists.
        let group = e.group_at(&e.stores[0], 0, 1);
        assert!(
            group
                .arena
                .iter_live()
                .any(|s| !group.pat(s).extra.is_empty()),
            "range constraint stored"
        );
        let d = e.insert(emp, tuple!["Sam", 5000, "Root"]);
        assert_eq!(d.len(), 1, "Sam earns less than Mike → R1 fires");
        // And a manager who earns more does not fire.
        let mut e2 = CondEngine::new(
            ProductionDb::new(
                ops5::compile(
                    r#"
            (literalize Emp name salary manager)
            (p R1
                (Emp ^name Mike ^salary <S> ^manager <M>)
                (Emp ^name <M> ^salary {<S1> < <S>})
                -->
                (remove 1))
            "#,
                )
                .unwrap(),
            )
            .unwrap(),
        );
        e2.insert(emp, tuple!["Mike", 6000, "Sam"]);
        assert!(e2.insert(emp, tuple!["Sam", 9000, "Root"]).is_empty());
    }

    #[test]
    fn negated_ce_inverted_marks() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p Orphan (Emp ^name <N> ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut e = CondEngine::new(ProductionDb::new(rs).unwrap());
        let emp = ClassId(0);
        let dept = ClassId(1);
        let d = e.insert(emp, tuple!["Ann", 7]);
        assert_eq!(d.len(), 1, "no dept → fires immediately");
        let d = e.insert(dept, tuple![7]);
        assert_eq!(d.len(), 1);
        assert!(!d[0].is_add(), "blocker retracts the instantiation");
        let d = e.insert(dept, tuple![8]);
        assert!(d.is_empty(), "unrelated dept does nothing");
        let d = e.remove(dept, &tuple![7]);
        assert_eq!(d.len(), 1);
        assert!(d[0].is_add(), "blocker removal revives the match");
        assert_eq!(e.conflict_set().len(), 1);
    }

    /// A cycle that makes a WME of one class and removes a WME of
    /// another must not cancel the insert's deferred fire seed when the
    /// two tuple ids collide: TupleId is a per-relation (slot, gen) pair,
    /// and both tuples here occupy slot 0 generation 0 of their
    /// relations. Regression test for seed cancellation keyed by tid
    /// alone instead of (class, tid).
    #[test]
    fn batched_delta_keeps_seeds_across_class_tid_collision() {
        let rs = ops5::compile(
            r#"
            (literalize A a1)
            (literalize B b1)
            (literalize C c1)
            (p Pair (A ^a1 <x>) (B ^b1 <x>) --> (remove 1))
            (p Never (C ^c1 99) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut e = CondEngine::new(ProductionDb::new(rs).unwrap());
        let (a, b, c) = (ClassId(0), ClassId(1), ClassId(2));
        // C(1) takes slot 0 gen 0 of the C relation; B(5) arms Pair.
        assert!(e.insert(c, tuple![1]).is_empty());
        assert!(e.insert(b, tuple![5]).is_empty());
        // One cycle: make A(5) — slot 0 gen 0 of the A relation,
        // colliding with C(1)'s tid — and remove the unrelated C(1).
        let deltas = e.apply_delta(&[
            WmChange::Insert(a, tuple![5]),
            WmChange::Remove(c, tuple![1]),
        ]);
        assert!(
            deltas.iter().any(rete::ConflictDelta::is_add),
            "A(5) seed of the same cycle must survive the C remove"
        );
        assert_eq!(e.conflict_set().len(), 1, "Pair(A5,B5) instantiated");
        // The same-class case still cancels: A(6) would fire against the
        // B(6) made in the same cycle, but A(6) is removed again before
        // the cycle ends, so no Pair(A6,B6) may survive.
        let deltas = e.apply_delta(&[
            WmChange::Insert(a, tuple![6]),
            WmChange::Insert(b, tuple![6]),
            WmChange::Remove(a, tuple![6]),
        ]);
        assert!(
            !deltas.iter().any(rete::ConflictDelta::is_add),
            "made-then-removed tuple yields no match"
        );
        assert_eq!(e.conflict_set().len(), 1);
    }

    /// The σ-binding index is a pure access-path change: probing and
    /// scanning the same trace must agree on conflict sets, pattern
    /// counts, and the rendered COND tables — including negated CEs and
    /// removals.
    #[test]
    fn pattern_index_matches_scan_on_example_trace() {
        let mut indexed = example4();
        let mut scan = example4();
        scan.set_pattern_index(false);
        let (a, b, c) = (ClassId(0), ClassId(1), ClassId(2));
        let ops: Vec<(bool, ClassId, Tuple)> = vec![
            (true, b, tuple![4, 5, "b"]),
            (true, c, tuple!["c", 7, 8]),
            (true, a, tuple![4, "a", 8]),
            (true, b, tuple![4, 7, "b"]),
            (false, c, tuple!["c", 7, 8]),
            (true, c, tuple!["c", 7, 8]),
            (false, b, tuple![4, 7, "b"]),
        ];
        for (ins, cl, t) in ops {
            if ins {
                indexed.insert(cl, t.clone());
                scan.insert(cl, t);
            } else {
                indexed.remove(cl, &t);
                scan.remove(cl, &t);
            }
        }
        assert_eq!(
            indexed.conflict_set().sorted(),
            scan.conflict_set().sorted()
        );
        assert_eq!(indexed.pattern_count(), scan.pattern_count());
        for class in [a, b, c] {
            assert_eq!(indexed.render_cond(class), scan.render_cond(class));
        }
        let (probes, _) = indexed.pattern_io().unwrap();
        assert!(probes > 0, "indexed run actually probed");
        assert_eq!(scan.pattern_io().unwrap().0, 0, "scan run never probes");
    }

    #[test]
    fn parallel_propagation_equivalent() {
        let mut serial = example4();
        let mut parallel = example4();
        parallel.set_parallel(true);
        let ops: Vec<(ClassId, Tuple)> = vec![
            (ClassId(1), tuple![4, 5, "b"]),
            (ClassId(2), tuple!["c", 7, 8]),
            (ClassId(0), tuple![4, "a", 8]),
            (ClassId(1), tuple![4, 7, "b"]),
            (ClassId(2), tuple!["c", 5, 8]),
        ];
        for (c, t) in ops {
            serial.insert(c, t.clone());
            parallel.insert(c, t);
        }
        assert_eq!(
            serial.conflict_set().sorted(),
            parallel.conflict_set().sorted()
        );
        assert_eq!(serial.pattern_count(), parallel.pattern_count());
    }

    #[test]
    fn single_ce_rules_fire_from_original_pattern() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name age)
            (p Old (Emp ^age {>= 55}) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut e = CondEngine::new(ProductionDb::new(rs).unwrap());
        assert!(e.insert(ClassId(0), tuple!["Young", 30]).is_empty());
        let d = e.insert(ClassId(0), tuple!["Old", 60]);
        assert_eq!(d.len(), 1);
    }

    /// Variable-disjoint CE pairs (cross-product-flavored rules): the
    /// existence marks must still accumulate (the case the paper's strict
    /// mark-subset check would miss).
    #[test]
    fn disconnected_ce_pairs_fire() {
        let rs = ops5::compile(
            r#"
            (literalize C0 a0 a1)
            (literalize C1 a0 a1)
            (literalize C2 a0 a1)
            (p ThreeWay (C0 ^a0 <X>) (C1 ^a0 <X> ^a1 <Y>) (C2 ^a1 <Y>) --> (remove 1))
            "#,
        )
        .unwrap();
        let mut e = CondEngine::new(ProductionDb::new(rs).unwrap());
        // The order that exposed the gap: C2 first (disconnected from C0).
        assert!(e.insert(ClassId(2), tuple![0, 1]).is_empty());
        assert!(e.insert(ClassId(1), tuple![0, 0]).is_empty());
        assert!(e.insert(ClassId(0), tuple![0, 0]).is_empty());
        assert!(e.insert(ClassId(0), tuple![0, 0]).is_empty());
        let d = e.insert(ClassId(2), tuple![0, 0]);
        assert_eq!(d.len(), 2, "both C0 duplicates instantiate");
    }
}
