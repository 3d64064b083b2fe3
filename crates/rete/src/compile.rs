//! Rule-set → Rete network compilation.
//!
//! "Rule definitions are compiled and the discrimination network is
//! produced" (§3.1). The compiler builds:
//!
//! * a shared **alpha network**: one node per distinct `(class,
//!   one-input tests)` pair — identical condition elements across rules
//!   share a single alpha memory (Figure 3 shows the two Example 2 rules
//!   sharing their `Goal` tests);
//! * a **beta network** of two-input nodes: join nodes for positive CEs,
//!   negative nodes for `-` CEs, and a production node per rule. Beta
//!   prefixes are hash-consed, so rules with a common LHS prefix share
//!   join nodes.
//!
//! Negative nodes are emitted after all positive CEs of their rule (NOT
//! EXISTS is commutative, so this reordering preserves semantics while
//! letting negated CEs reference any positive binding).

use std::collections::HashMap;

use ops5::{ClassId, CondElem, Rule, RuleId, RuleSet};
use relstore::{CompOp, Restriction};

/// One alpha node: class filter plus one-input tests. Its memory holds
/// every WME passing the tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlphaSpec {
    /// The class (relation) involved.
    pub class: ClassId,
    /// The variable-free tests on this term.
    pub restriction: Restriction,
}

/// A two-input-node test: `right_wme[my_attr] op token[token_pos][token_attr]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BJoinTest {
    /// Attribute of this condition element.
    pub my_attr: usize,
    /// The comparison operator.
    pub op: CompOp,
    /// Position of the referenced WME within the token.
    pub token_pos: usize,
    /// Attribute of the referenced token WME.
    pub token_attr: usize,
}

/// Kind of a beta node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BetaKind {
    /// The dummy top node holding the single empty token.
    Root,
    /// Two-input join: extend parent tokens with WMEs from `alpha`.
    Join {
        parent: usize,
        alpha: usize,
        tests: Vec<BJoinTest>,
    },
    /// Negated CE: pass parent tokens through only while no WME in
    /// `alpha` matches the tests.
    Negative {
        parent: usize,
        alpha: usize,
        tests: Vec<BJoinTest>,
    },
    /// Terminal: tokens reaching here are instantiations of `rule`.
    Production { parent: usize, rule: RuleId },
}

/// A beta node with its children and distance from the root.
#[derive(Debug, Clone)]
pub struct BetaSpec {
    /// Which variant of behaviour applies.
    pub kind: BetaKind,
    /// Child node indexes.
    pub children: Vec<usize>,
    /// Distance from the root.
    pub depth: usize,
}

/// The compiled network, shared by the runtime and its token memory.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    /// The shared alpha nodes.
    pub alphas: Vec<AlphaSpec>,
    /// Beta nodes fed by each alpha node, in right-activation order:
    /// creation order, except that where one WME can reach a node by left
    /// and by right activation — an alpha memory feeding both a node and
    /// one of its ancestors, two CEs of a rule over one class — the list
    /// runs deepest first. The descendant is then right-activated while
    /// its parent holds no token with the new WME yet, and meets it once,
    /// from the left, when the ancestor emits.
    pub alpha_successors: Vec<Vec<usize>>,
    /// Beta nodes; index 0 is the root.
    pub betas: Vec<BetaSpec>,
    /// `rule_token_pos[rule][orig_ce]` = position of that CE's WME in a
    /// token (`None` for negated CEs, which contribute no WME).
    pub rule_token_pos: Vec<Vec<Option<usize>>>,
    /// Production beta node of each rule.
    pub rule_production: Vec<usize>,
}

impl NetworkPlan {
    /// Compile a rule set.
    pub fn compile(rules: &RuleSet) -> Self {
        Compiler::default().run(rules)
    }

    /// Index of the dummy root node (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Parent, alpha memory and join tests of two-input node `node`.
    pub fn two_input(&self, node: usize) -> (usize, usize, &[BJoinTest]) {
        match &self.betas[node].kind {
            BetaKind::Join {
                parent,
                alpha,
                tests,
            }
            | BetaKind::Negative {
                parent,
                alpha,
                tests,
            } => (*parent, *alpha, tests),
            _ => panic!("beta node {node} has one input"),
        }
    }

    /// Number of two-input (join + negative) nodes — a Figure 3 metric.
    pub fn two_input_nodes(&self) -> usize {
        self.betas
            .iter()
            .filter(|b| matches!(b.kind, BetaKind::Join { .. } | BetaKind::Negative { .. }))
            .count()
    }

    /// Number of production (terminal) nodes.
    pub fn production_nodes(&self) -> usize {
        self.betas
            .iter()
            .filter(|b| matches!(b.kind, BetaKind::Production { .. }))
            .count()
    }

    /// Longest root→production path — the propagation depth the paper's
    /// Figure 1 argument is about.
    pub fn max_depth(&self) -> usize {
        self.betas.iter().map(|b| b.depth).max().unwrap_or(0)
    }
}

fn parent_of(kind: &BetaKind) -> Option<usize> {
    match kind {
        BetaKind::Root => None,
        BetaKind::Join { parent, .. }
        | BetaKind::Negative { parent, .. }
        | BetaKind::Production { parent, .. } => Some(*parent),
    }
}

#[derive(Default)]
struct Compiler {
    alphas: Vec<AlphaSpec>,
    alpha_successors: Vec<Vec<usize>>,
    betas: Vec<BetaSpec>,
    /// Hash-consing for alpha nodes.
    alpha_index: HashMap<(ClassId, String), usize>,
    /// Hash-consing for beta nodes keyed on (kind)-shape.
    beta_index: HashMap<BetaKind, usize>,
}

impl Compiler {
    fn run(mut self, rules: &RuleSet) -> NetworkPlan {
        // Root node.
        self.betas.push(BetaSpec {
            kind: BetaKind::Root,
            children: Vec::new(),
            depth: 0,
        });
        let mut rule_token_pos = Vec::with_capacity(rules.rules.len());
        let mut rule_production = Vec::with_capacity(rules.rules.len());
        for rule in &rules.rules {
            let (pos_map, prod) = self.compile_rule(rule);
            rule_token_pos.push(pos_map);
            rule_production.push(prod);
        }
        for successors in &mut self.alpha_successors {
            let fed_on_both_sides = successors.iter().any(|&s| {
                std::iter::successors(parent_of(&self.betas[s].kind), |&p| {
                    parent_of(&self.betas[p].kind)
                })
                .any(|ancestor| successors.contains(&ancestor))
            });
            if fed_on_both_sides {
                successors.sort_by_key(|&s| std::cmp::Reverse(self.betas[s].depth));
            }
        }
        NetworkPlan {
            alphas: self.alphas,
            alpha_successors: self.alpha_successors,
            betas: self.betas,
            rule_token_pos,
            rule_production,
        }
    }

    fn intern_alpha(&mut self, class: ClassId, restriction: &Restriction) -> usize {
        // Restrictions hash via their display form (stable and canonical
        // enough: resolution emits tests in source order).
        let key = (class, format!("{restriction}"));
        if let Some(&id) = self.alpha_index.get(&key) {
            return id;
        }
        let id = self.alphas.len();
        self.alphas.push(AlphaSpec {
            class,
            restriction: restriction.clone(),
        });
        self.alpha_successors.push(Vec::new());
        self.alpha_index.insert(key, id);
        id
    }

    fn intern_beta(&mut self, kind: BetaKind) -> usize {
        // Production nodes are never shared.
        if let Some(&id) = self.beta_index.get(&kind) {
            return id;
        }
        let id = self.betas.len();
        let (parent, alpha) = match &kind {
            BetaKind::Join { parent, alpha, .. } | BetaKind::Negative { parent, alpha, .. } => {
                (*parent, Some(*alpha))
            }
            BetaKind::Production { parent, .. } => (*parent, None),
            BetaKind::Root => unreachable!("root is pre-allocated"),
        };
        let depth = self.betas[parent].depth + 1;
        self.betas.push(BetaSpec {
            kind: kind.clone(),
            children: Vec::new(),
            depth,
        });
        self.betas[parent].children.push(id);
        if let Some(a) = alpha {
            self.alpha_successors[a].push(id);
        }
        if !matches!(kind, BetaKind::Production { .. }) {
            self.beta_index.insert(kind, id);
        }
        id
    }

    fn tests_for(ce: &CondElem, pos_of: &[Option<usize>]) -> Vec<BJoinTest> {
        ce.joins
            .iter()
            .map(|j| BJoinTest {
                my_attr: j.my_attr,
                op: j.op,
                token_pos: pos_of[j.other_ce].expect("joins reference positive CEs"),
                token_attr: j.other_attr,
            })
            .collect()
    }

    fn compile_rule(&mut self, rule: &Rule) -> (Vec<Option<usize>>, usize) {
        let mut pos_of: Vec<Option<usize>> = vec![None; rule.ces.len()];
        let mut next_pos = 0usize;
        for (i, ce) in rule.ces.iter().enumerate() {
            if !ce.negated {
                pos_of[i] = Some(next_pos);
                next_pos += 1;
            }
        }
        let mut current = 0; // root
                             // Positive CEs first, in order.
        for ce in rule.ces.iter().filter(|ce| !ce.negated) {
            let alpha = self.intern_alpha(ce.class, &ce.alpha);
            let tests = Self::tests_for(ce, &pos_of);
            current = self.intern_beta(BetaKind::Join {
                parent: current,
                alpha,
                tests,
            });
        }
        // Then negative nodes.
        for ce in rule.ces.iter().filter(|ce| ce.negated) {
            let alpha = self.intern_alpha(ce.class, &ce.alpha);
            let tests = Self::tests_for(ce, &pos_of);
            current = self.intern_beta(BetaKind::Negative {
                parent: current,
                alpha,
                tests,
            });
        }
        let prod = self.intern_beta(BetaKind::Production {
            parent: current,
            rule: rule.id,
        });
        (pos_of, prod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3: the compiled network for the two Example 2 rules.
    #[test]
    fn figure_3_topology_with_sharing() {
        let rs = ops5::compile(
            r#"
            (literalize Goal Type Object)
            (literalize Expression Name Arg1 Op Arg2)
            (p PlusOX
                (Goal ^Type Simplify ^Object <N>)
                (Expression ^Name <N> ^Arg1 0 ^Op + ^Arg2 <X>)
                -->
                (modify 2 ^Op nil ^Arg1 nil))
            (p TimesOX
                (Goal ^Type Simplify ^Object <N>)
                (Expression ^Name <N> ^Arg1 0 ^Op '*' ^Arg2 <X>)
                -->
                (modify 2 ^Op nil ^Arg2 nil))
            "#,
        )
        .unwrap();
        let plan = NetworkPlan::compile(&rs);
        // Alpha sharing: the identical Goal CE is interned once; the two
        // Expression CEs differ in their Op constant → 3 alpha nodes.
        assert_eq!(plan.alphas.len(), 3);
        // Beta sharing: the Goal join is shared; one Expression join per
        // rule → 3 two-input nodes, plus 2 production nodes.
        assert_eq!(plan.two_input_nodes(), 3);
        assert_eq!(plan.production_nodes(), 2);
        // Depth: root(0) → goal join(1) → expr join(2) → production(3).
        assert_eq!(plan.max_depth(), 3);
        assert_eq!(plan.rule_production.len(), 2);
        assert_ne!(plan.rule_production[0], plan.rule_production[1]);
    }

    #[test]
    fn chain_depth_grows_linearly() {
        // C1 ∧ C2 ∧ ... ∧ Cn (Figure 1): depth must be n + 1.
        for n in [1usize, 4, 16] {
            let mut src = String::from("(literalize C x)\n(p Chain ");
            for i in 0..n {
                if i == 0 {
                    src.push_str("(C ^x <V0>)");
                } else {
                    src.push_str(&format!("(C ^x {{> <V{}> <V{}>}})", i - 1, i));
                }
            }
            src.push_str(" --> (halt))");
            let rs = ops5::compile(&src).unwrap();
            let plan = NetworkPlan::compile(&rs);
            assert_eq!(plan.max_depth(), n + 1, "n = {n}");
            assert_eq!(plan.two_input_nodes(), n);
        }
    }

    #[test]
    fn negative_nodes_follow_positives() {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p Orphan (Emp ^name <N> ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#,
        )
        .unwrap();
        let plan = NetworkPlan::compile(&rs);
        let neg = plan
            .betas
            .iter()
            .find(|b| matches!(b.kind, BetaKind::Negative { .. }))
            .expect("has negative node");
        assert_eq!(neg.depth, 2, "negative node sits after the positive join");
        // Its test references token position 0 (the Emp CE).
        if let BetaKind::Negative { tests, .. } = &neg.kind {
            assert_eq!(tests[0].token_pos, 0);
            assert_eq!(tests[0].token_attr, 1);
        }
        assert_eq!(plan.rule_token_pos[0], vec![Some(0), None]);
    }

    #[test]
    fn no_sharing_between_different_restrictions() {
        let rs = ops5::compile(
            r#"
            (literalize A x)
            (p R1 (A ^x 1) --> (remove 1))
            (p R2 (A ^x 2) --> (remove 1))
            (p R3 (A ^x 1) --> (halt))
            "#,
        )
        .unwrap();
        let plan = NetworkPlan::compile(&rs);
        assert_eq!(plan.alphas.len(), 2, "R1 and R3 share an alpha node");
        assert_eq!(plan.two_input_nodes(), 2, "R1 and R3 share their join node");
        assert_eq!(plan.production_nodes(), 3, "production nodes never shared");
    }
}
