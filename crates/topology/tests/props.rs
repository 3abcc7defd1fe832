//! Property tests: distance-matrix invariants over random hierarchies.

use proptest::prelude::*;
use vc_topology::{generate, DistanceMatrix, DistanceTiers, NodeId, Topology, TopologyBuilder};

fn tiers() -> impl Strategy<Value = DistanceTiers> {
    (1u32..10, 1u32..10, 1u32..10).prop_map(|(a, b, c)| {
        let d1 = a;
        let d2 = a + b;
        let d3 = a + b + c;
        DistanceTiers::new(d1, d2, d3).expect("strictly increasing by construction")
    })
}

/// A random hierarchy: singleton racks, single-rack clouds and one-node
/// clouds all occur.
#[derive(Debug, Clone)]
enum Shape {
    Heterogeneous(Vec<usize>),
    MultiCloud(usize, usize, usize),
    /// Clouds of differently sized racks, e.g. a one-node cloud beside a
    /// multi-rack one.
    Ragged(Vec<Vec<usize>>),
}

fn shape() -> impl Strategy<Value = Shape> {
    (
        0u8..3,
        proptest::collection::vec(1usize..5, 1..5),
        (1usize..4, 1usize..4, 1usize..4),
        proptest::collection::vec(proptest::collection::vec(1usize..4, 1..4), 1..4),
    )
        .prop_map(|(kind, sizes, (c, r, n), ragged)| match kind {
            0 => Shape::Heterogeneous(sizes),
            1 => Shape::MultiCloud(c, r, n),
            _ => Shape::Ragged(ragged),
        })
}

/// Build `shape`, tiered, or dense over `matrix` when one is given.
fn build(shape: &Shape, t: DistanceTiers, matrix: Option<DistanceMatrix>) -> Topology {
    let clouds = match shape {
        Shape::Heterogeneous(sizes) if matrix.is_none() => {
            return generate::heterogeneous(sizes, t)
        }
        Shape::MultiCloud(c, r, n) if matrix.is_none() => {
            return generate::multi_cloud(*c, *r, *n, t)
        }
        Shape::Heterogeneous(sizes) => vec![sizes.clone()],
        Shape::MultiCloud(c, r, n) => vec![vec![*n; *r]; *c],
        Shape::Ragged(clouds) => clouds.clone(),
    };
    let mut b = TopologyBuilder::new(t);
    for (i, racks) in clouds.iter().enumerate() {
        let cloud = b.add_cloud(format!("cloud{i}"));
        for &size in racks {
            let rack = b.add_rack(cloud);
            for _ in 0..size {
                b.add_node(rack);
            }
        }
    }
    if let Some(m) = matrix {
        b.with_distance_matrix(m);
    }
    b.build()
}

proptest! {
    /// The implicit tier lookup equals the tier rule on every pair, its
    /// O(1) minima equal brute-force minima over the peer lists, and a
    /// dense topology over the same rule answers identically.
    #[test]
    fn tiered_lookup_matches_rule_and_dense_twin(t in tiers(), shape in shape()) {
        let tiered = build(&shape, t, None);
        let n = tiered.num_nodes();
        let rule = |a: NodeId, b: NodeId| {
            if a == b {
                0
            } else if !tiered.same_cloud(a, b) {
                t.cross_cloud
            } else if !tiered.same_rack(a, b) {
                t.cross_rack
            } else {
                t.same_rack
            }
        };
        let matrix = DistanceMatrix::from_fn(n, |i, j| rule(NodeId(i as u32), NodeId(j as u32)));
        let dense = build(&shape, t, Some(matrix));
        prop_assert_eq!(dense.nodes(), tiered.nodes());
        prop_assert_eq!(dense.racks(), tiered.racks());
        for a in tiered.node_ids() {
            for b in tiered.node_ids() {
                prop_assert_eq!(tiered.distance(a, b), rule(a, b), "{:?} {:?}", a, b);
                prop_assert_eq!(dense.distance(a, b), rule(a, b), "{:?} {:?}", a, b);
            }
            let same = tiered.rack_peers(a).into_iter().map(|b| rule(a, b)).min();
            let cross = tiered.non_rack_peers(a).into_iter().map(|b| rule(a, b)).min();
            prop_assert_eq!(tiered.min_same_rack_distance(a), same, "{:?}", a);
            prop_assert_eq!(tiered.min_cross_rack_distance(a), cross, "{:?}", a);
            prop_assert_eq!(dense.min_same_rack_distance(a), same, "{:?}", a);
            prop_assert_eq!(dense.min_cross_rack_distance(a), cross, "{:?}", a);
        }
        prop_assert!(tiered.is_metric());
        prop_assert!(dense.is_metric());
    }

    #[test]
    fn tier_matrices_symmetric_zero_diag_metric(
        t in tiers(),
        clouds in 1usize..3,
        racks in 1usize..3,
        nodes in 1usize..4,
    ) {
        let topo = generate::multi_cloud(clouds, racks, nodes, t);
        let n = topo.num_nodes();
        for i in 0..n {
            let a = NodeId(i as u32);
            prop_assert_eq!(topo.distance(a, a), 0);
            for j in 0..n {
                let b = NodeId(j as u32);
                prop_assert_eq!(topo.distance(a, b), topo.distance(b, a));
                // Values come from the tier set.
                if i != j {
                    let d = topo.distance(a, b);
                    prop_assert!(
                        d == t.same_rack || d == t.cross_rack || d == t.cross_cloud
                    );
                }
            }
        }
        prop_assert!(topo.is_metric());
    }

    #[test]
    fn nodes_by_distance_is_sorted(
        t in tiers(),
        racks in 1usize..4,
        nodes in 1usize..4,
        seed in 0usize..16,
    ) {
        let topo = generate::uniform(racks, nodes, t);
        let k = NodeId((seed % topo.num_nodes()) as u32);
        let order = topo.nodes_by_distance(k);
        prop_assert_eq!(order.len(), topo.num_nodes());
        prop_assert_eq!(order[0], k);
        for w in order.windows(2) {
            prop_assert!(topo.distance(k, w[0]) <= topo.distance(k, w[1]));
        }
    }

    #[test]
    fn rack_peer_partition(
        t in tiers(),
        racks in 1usize..4,
        nodes in 1usize..4,
        seed in 0usize..16,
    ) {
        let topo = generate::uniform(racks, nodes, t);
        let x = NodeId((seed % topo.num_nodes()) as u32);
        let same = topo.rack_peers(x);
        let other = topo.non_rack_peers(x);
        // Together with x itself they partition the node set.
        prop_assert_eq!(same.len() + other.len() + 1, topo.num_nodes());
        for &p in &same {
            prop_assert!(topo.same_rack(p, x) && p != x);
            prop_assert_eq!(topo.distance(p, x), t.same_rack);
        }
        for &q in &other {
            prop_assert!(!topo.same_rack(q, x));
        }
    }

    #[test]
    fn from_fn_matrix_valid(n in 1usize..8, base in 1u32..5) {
        let m = DistanceMatrix::from_fn(n, |i, j| base + (i + j) as u32);
        for i in 0..n {
            prop_assert_eq!(m.get(NodeId(i as u32), NodeId(i as u32)), 0);
            for j in 0..n {
                prop_assert_eq!(
                    m.get(NodeId(i as u32), NodeId(j as u32)),
                    m.get(NodeId(j as u32), NodeId(i as u32))
                );
            }
        }
        prop_assert!(m.max_distance() <= base + (2 * n) as u32);
    }
}
