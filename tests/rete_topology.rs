//! F1/F3: compiled network topology — Figure 3's shared nodes for the
//! Example 2 rules and Figure 1's linear chain depth.

use relstore::TupleId;
use rete::{BetaKind, NetworkPlan, ReteNetwork, Wme};
use workload::{paper, ChainWorkload};

#[test]
fn f3_example2_network_shape() {
    let plan = NetworkPlan::compile(&paper::example2_rules());
    // Shared Goal alpha + two distinct Expression alphas.
    assert_eq!(plan.alphas.len(), 3);
    // Shared Goal join + one Expression join per rule.
    assert_eq!(plan.two_input_nodes(), 3);
    assert_eq!(plan.production_nodes(), 2);
    assert_eq!(plan.max_depth(), 3);
    // The Goal join node is a child of the root and feeds both
    // Expression joins.
    let root_children = &plan.betas[plan.root()].children;
    assert_eq!(root_children.len(), 1, "one shared first join");
    let goal_join = root_children[0];
    assert_eq!(plan.betas[goal_join].children.len(), 2);
    assert!(matches!(plan.betas[goal_join].kind, BetaKind::Join { .. }));
}

#[test]
fn f1_chain_depth_linear_in_n() {
    for n in [1usize, 2, 8, 32] {
        let w = ChainWorkload::new(n);
        let plan = NetworkPlan::compile(&w.rules());
        assert_eq!(plan.max_depth(), n + 1, "depth = n joins + production");
        assert_eq!(plan.two_input_nodes(), n);
    }
}

#[test]
fn f1_propagation_depth_observed_at_runtime() {
    // "The propagation delay of inserting a token … will be significant
    // if the number of single input nodes n is large" (§4): the final
    // link's insertion must touch nodes at every level.
    for n in [2usize, 8, 24] {
        let w = ChainWorkload::new(n);
        let mut net = ReteNetwork::new(&w.rules());
        let links = w.links();
        let class = ops5::ClassId(0);
        // Link `k` is tuple `k` of its relation.
        for (k, t) in links[..n - 1].iter().enumerate() {
            net.insert(TupleId::new(k as u32, 0), Wme::new(class, t.clone()));
        }
        let last = TupleId::new(n as u32 - 1, 0);
        let deltas = net.insert(last, Wme::new(class, links[n - 1].clone()));
        assert_eq!(deltas.len(), 1, "chain of {n} completes");
        let m = net.last_metrics();
        assert!(
            m.max_depth >= n,
            "n={n}: deepest node touched {} < {n}",
            m.max_depth
        );
    }
}

#[test]
fn chain_metrics_grow_with_n() {
    // The cost of the final insertion grows with chain length — the
    // hierarchical-propagation overhead the paper's §4 criticizes.
    let mut costs = Vec::new();
    for n in [2usize, 8, 24] {
        let w = ChainWorkload::new(n);
        let mut net = ReteNetwork::new(&w.rules());
        let links = w.links();
        let class = ops5::ClassId(0);
        for (k, t) in links.iter().enumerate() {
            net.insert(TupleId::new(k as u32, 0), Wme::new(class, t.clone()));
        }
        costs.push(net.last_metrics().activations);
    }
    assert!(
        costs.windows(2).all(|w| w[0] < w[1]),
        "activations grow: {costs:?}"
    );
}
