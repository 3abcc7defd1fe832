//! Property tests at paper scale (30 nodes): solver dominance, exchange
//! soundness, migration invariants.

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vc_model::workload::{random_capacity, RequestProfile};
use vc_model::{ClusterState, Request, VmCatalog};
use vc_placement::distance::{cluster_distance, distance_with_center};
use vc_placement::online::ScanConfig;
use vc_placement::{baselines, exact, global, migration, online, PlacementPolicy};
use vc_topology::{generate, DistanceMatrix, DistanceTiers, Topology, TopologyBuilder};

fn paper_state(seed: u64) -> ClusterState {
    let topo = Arc::new(generate::paper_simulation());
    let catalog = Arc::new(VmCatalog::ec2_table1());
    let mut rng = StdRng::seed_from_u64(seed);
    let capacity = random_capacity(&topo, &catalog, 3, &mut rng);
    ClusterState::new(topo, catalog, capacity)
}

fn request() -> impl Strategy<Value = Request> {
    proptest::collection::vec(0u32..7, 3).prop_map(Request::from_counts)
}

/// A cloud over an arbitrary (possibly lopsided) rack layout with random
/// per-cell capacities — exercises the seed scan's pruning bounds on
/// shapes the paper topology never produces.
fn random_state(rack_sizes: &[usize], cap_seed: u64) -> ClusterState {
    state_on(
        generate::heterogeneous(rack_sizes, DistanceTiers::paper_experiment()),
        cap_seed,
    )
}

/// Random per-cell capacities on `topo`.
fn state_on(topo: Topology, cap_seed: u64) -> ClusterState {
    let topo = Arc::new(topo);
    let catalog = Arc::new(VmCatalog::ec2_table1());
    let mut rng = StdRng::seed_from_u64(cap_seed);
    let capacity = random_capacity(&topo, &catalog, 3, &mut rng);
    ClusterState::new(topo, catalog, capacity)
}

/// One cloud over `rack_sizes` with an explicit random symmetric distance
/// matrix. Same-rack hops are drawn from 2..12 and cross-rack hops from
/// 1..8, so a node's cheapest same-rack hop often exceeds its cheapest
/// cross-rack hop — a shape no tier generator produces.
fn dense_random_topology(rack_sizes: &[usize], dist_seed: u64) -> Topology {
    let mut b = TopologyBuilder::new(DistanceTiers::paper_experiment());
    let cloud = b.add_cloud("cloud0");
    let mut rack_of = Vec::new();
    for &size in rack_sizes {
        let rack = b.add_rack(cloud);
        for _ in 0..size {
            b.add_node(rack);
            rack_of.push(rack);
        }
    }
    let mut rng = StdRng::seed_from_u64(dist_seed);
    b.with_distance_matrix(DistanceMatrix::from_fn(rack_of.len(), |i, j| {
        if rack_of[i] == rack_of[j] {
            rng.gen_range(2u32..12)
        } else {
            rng.gen_range(1u32..8)
        }
    }));
    b.build()
}

/// Every [`ScanConfig`] returns the *bit-identical* allocation (matrix,
/// centre, distance) — or the same error — as the exhaustive sequential
/// scan.
fn scan_configs_agree(req: &Request, state: &ClusterState) -> Result<(), TestCaseError> {
    let baseline = online::place_with(req, state, ScanConfig::sequential_baseline());
    for scan in [
        ScanConfig::pruned(),
        ScanConfig::pruned_parallel(2),
        ScanConfig::pruned_parallel(0),
        ScanConfig {
            prune: false,
            parallelism: online::Parallelism::Threads(3),
        },
    ] {
        let got = online::place_with(req, state, scan);
        match (&baseline, &got) {
            (Ok((a, _)), Ok((b, _))) => {
                prop_assert_eq!(a.center(), b.center(), "centre differs under {:?}", scan);
                prop_assert!(a.matrix() == b.matrix(), "matrix differs under {:?}", scan);
                let topo = state.topology();
                prop_assert_eq!(
                    distance_with_center(a.matrix(), topo, a.center()),
                    distance_with_center(b.matrix(), topo, b.center()),
                );
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            _ => prop_assert!(false, "ok/err disagreement under {:?}", scan),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// At paper scale: heuristic ≥ exact, all baselines ≥ exact, and every
    /// produced allocation is feasible and complete.
    #[test]
    fn exact_lower_bounds_everything(seed in 0u64..500, req in request()) {
        prop_assume!(!req.is_zero());
        let state = paper_state(seed);
        prop_assume!(state.can_satisfy(&req));
        let opt = exact::solve(&req, &state).unwrap();
        let (d_opt, _) = cluster_distance(opt.matrix(), state.topology());
        let mut rng = StdRng::seed_from_u64(seed);
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(online::OnlineHeuristic),
            Box::new(baselines::FirstFit),
            Box::new(baselines::BestFit),
            Box::new(baselines::Spread),
            Box::new(baselines::RandomPlacement),
        ];
        for p in policies {
            let a = p.place(&req, &state, &mut rng).unwrap();
            prop_assert!(a.satisfies(&req), "{}", p.name());
            prop_assert!(a.matrix().le(state.remaining()), "{}", p.name());
            let (d, _) = cluster_distance(a.matrix(), state.topology());
            prop_assert!(d >= d_opt, "{} beat the optimum: {d} < {d_opt}", p.name());
        }
    }

    /// Serving a queue then repairing a random failure keeps the cloud's
    /// books balanced.
    #[test]
    fn failure_repair_conserves_accounting(seed in 0u64..200, failed_node in 0u32..30) {
        let mut state = paper_state(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 77);
        let req = RequestProfile::standard().sample(3, &mut rng);
        prop_assume!(state.can_satisfy(&req));
        let mut alloc = online::place(&req, &state).unwrap();
        state.allocate(&alloc).unwrap();

        let failed = vc_topology::NodeId(failed_node);
        let _aggregate_lost = state.fail_node(failed);
        match migration::repair(&mut alloc, failed, &mut state) {
            Ok(report) => {
                prop_assert!(alloc.satisfies(&req));
                prop_assert_eq!(alloc.matrix().node_total(failed), 0);
                prop_assert_eq!(
                    report.distance_after,
                    distance_with_center(alloc.matrix(), state.topology(), alloc.center())
                );
                // Releasing the repaired allocation empties the cloud.
                state.release(&alloc).unwrap();
                prop_assert!(state.used().is_zero());
            }
            Err(_) => {
                // No capacity: allocation is degraded but consistent, and
                // the surviving VMs can still be released.
                prop_assert_eq!(alloc.matrix().node_total(failed), 0);
                state.release(&alloc).unwrap();
                prop_assert!(state.used().is_zero());
            }
        }
    }

    /// The Theorem-2 pass is idempotent: running `place_queue` and then
    /// re-applying `suboptimize` to the result finds nothing further.
    #[test]
    fn exchange_pass_reaches_fixpoint(seed in 0u64..200) {
        let state = paper_state(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let queue = RequestProfile::small().sample_many(3, 6, &mut rng);
        let mut placed =
            global::place_queue(&queue, &state, global::Admission::FifoBlocking).unwrap();
        let topo = state.topology();
        let mut allocations: Vec<&mut vc_model::Allocation> =
            placed.served.iter_mut().map(|(_, a)| a).collect();
        let extra = global::suboptimize(&mut allocations, topo);
        prop_assert_eq!(extra, 0, "place_queue must already be at the exchange fixpoint");
    }

    /// Pruning and parallelism are pure accelerations: on arbitrary
    /// topologies, every [`ScanConfig`] agrees with the exhaustive
    /// sequential scan.
    #[test]
    fn scan_configs_bit_identical(
        rack_sizes in proptest::collection::vec(1usize..6, 1..5),
        cap_seed in 0u64..500,
        req in request(),
    ) {
        prop_assume!(!req.is_zero());
        scan_configs_agree(&req, &random_state(&rack_sizes, cap_seed))?;
    }

    /// The same bar on explicit dense matrices, whose precomputed minima
    /// drive the scan's lower bound, including the arm where same-rack
    /// hops cost more than cross-rack ones.
    #[test]
    fn scan_configs_bit_identical_dense(
        rack_sizes in proptest::collection::vec(1usize..6, 1..5),
        cap_seed in 0u64..500,
        dist_seed in 0u64..500,
        req in request(),
    ) {
        prop_assume!(!req.is_zero());
        let state = state_on(dense_random_topology(&rack_sizes, dist_seed), cap_seed);
        scan_configs_agree(&req, &state)?;
    }

    /// `place_queue` outcomes — who is served (and how), who is deferred,
    /// who is rejected — never depend on the scan configuration.
    #[test]
    fn queue_outcome_invariant_under_scan_config(seed in 0u64..200, batch in 2usize..8) {
        let state = paper_state(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        let queue = RequestProfile::standard().sample_many(3, batch, &mut rng);
        for admission in [global::Admission::FifoBlocking, global::Admission::FifoSkipping] {
            let base = global::place_queue_with(
                &queue, &state, admission, ScanConfig::sequential_baseline(),
            ).unwrap();
            for scan in [ScanConfig::pruned(), ScanConfig::pruned_parallel(2)] {
                let got = global::place_queue_with(&queue, &state, admission, scan).unwrap();
                prop_assert_eq!(&base.deferred, &got.deferred, "{:?}", scan);
                prop_assert_eq!(&base.rejected, &got.rejected, "{:?}", scan);
                prop_assert_eq!(base.served.len(), got.served.len(), "{:?}", scan);
                for ((bi, ba), (gi, ga)) in base.served.iter().zip(got.served.iter()) {
                    prop_assert_eq!(bi, gi);
                    prop_assert_eq!(ba.center(), ga.center());
                    prop_assert!(ba.matrix() == ga.matrix(), "served matrix differs under {:?}", scan);
                }
                prop_assert_eq!(base.online_distance, got.online_distance);
                prop_assert_eq!(base.optimized_distance, got.optimized_distance);
            }
        }
    }

    /// Rebalancing with a huge budget is idempotent and never hurts.
    #[test]
    fn rebalance_monotone_and_idempotent(seed in 0u64..200) {
        let mut state = paper_state(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 9);
        let blocker_req = RequestProfile::standard().sample(3, &mut rng);
        prop_assume!(state.can_satisfy(&blocker_req));
        let blocker = online::place(&blocker_req, &state).unwrap();
        state.allocate(&blocker).unwrap();
        let req = RequestProfile::standard().sample(3, &mut rng);
        prop_assume!(state.can_satisfy(&req));
        let mut alloc = online::place(&req, &state).unwrap();
        state.allocate(&alloc).unwrap();
        state.release(&blocker).unwrap();

        let first = migration::rebalance(&mut alloc, &mut state, 64);
        prop_assert!(first.distance_after <= first.distance_before);
        prop_assert!(alloc.satisfies(&req));
        let second = migration::rebalance(&mut alloc, &mut state, 64);
        prop_assert_eq!(second.moves.len(), 0, "second pass must be a no-op");
    }
}
