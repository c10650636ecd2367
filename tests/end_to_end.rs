//! Cross-crate integration tests: topology → perm → routing → circuit →
//! sim pipelines.

use qroute::circuit::{builders, Gate};
use qroute::perm::{generators, metrics, Permutation};
use qroute::prelude::*;
use qroute::routing::product_route::{product_route, CycleFactor, PathFactor, ProductRouteOptions};
use qroute::sim::{equiv, permsim};
use qroute::topology::{Cycle, Path, Product, Topology};
use qroute::transpiler::InitialLayout;

/// Turn a routing schedule into a SWAP circuit on `n` wires.
fn schedule_to_circuit(n: usize, schedule: &RoutingSchedule) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in &schedule.layers {
        for &(u, v) in &layer.swaps {
            c.push(Gate::Swap(u, v));
        }
    }
    c
}

#[test]
fn routing_schedule_matches_permutation_tracker() {
    // The schedule's claimed permutation must agree with the classical
    // SWAP tracker from the sim crate.
    let grid = Grid::new(4, 4);
    for seed in 0..5 {
        let pi = generators::random(16, seed);
        let schedule = RouterKind::locality_aware().route(grid, &pi);
        let circuit = schedule_to_circuit(16, &schedule);
        let tracked = permsim::track_permutation(&circuit).unwrap();
        for (v, &tok) in tracked.iter().enumerate() {
            assert_eq!(tok, pi.apply(v), "token {v} seed {seed}");
        }
    }
}

#[test]
fn routing_schedule_statevector_equivalence() {
    // A routed SWAP network, run on a statevector, must equal relabeling
    // the qubits by π.
    let grid = Grid::new(2, 3);
    let pi = generators::random(6, 3);
    let schedule = RouterKind::hybrid().route(grid, &pi);
    let circuit = schedule_to_circuit(6, &schedule);
    let map: Vec<usize> = (0..6).map(|v| pi.apply(v)).collect();
    for seed in 0..3 {
        let input = qroute::sim::State::random(6, seed);
        let routed = qroute::sim::run(&circuit, input.clone());
        let relabeled = input.relabel_qubits(&map);
        assert!(routed.fidelity(&relabeled) > 1.0 - 1e-9, "seed {seed}");
    }
}

#[test]
fn transpiled_qft_is_statevector_equivalent_for_every_router() {
    let grid = Grid::new(2, 3);
    let logical = builders::qft(6);
    for router in [
        RouterKind::locality_aware(),
        RouterKind::naive(),
        RouterKind::hybrid(),
        RouterKind::Ats,
        RouterKind::pathfinder(),
    ] {
        let t = Transpiler::new(
            grid,
            TranspileOptions { router, initial_layout: InitialLayout::Identity },
        );
        let res = t.run(&logical);
        assert!(res.physical.is_feasible(|a, b| grid.dist(a, b) == 1));
        assert!(
            equiv::transpiled_equivalent(
                &logical,
                &res.physical,
                &res.initial_layout,
                &res.final_layout
            ),
            "router produced an inequivalent transpilation"
        );
    }
}

#[test]
fn transpiled_trotter_with_random_layout() {
    let grid = Grid::new(3, 3);
    let logical = builders::trotter_diagonal_step(3, 3, 0.29, 1);
    let t = Transpiler::new(
        grid,
        TranspileOptions {
            router: RouterKind::locality_aware(),
            initial_layout: InitialLayout::Random(13),
        },
    );
    let res = t.run(&logical);
    assert!(equiv::transpiled_equivalent(
        &logical,
        &res.physical,
        &res.initial_layout,
        &res.final_layout
    ));
}

#[test]
fn decomposed_swaps_stay_equivalent_and_feasible() {
    let grid = Grid::new(2, 3);
    let logical = builders::random_two_qubit_circuit(6, 15, 4);
    let t = Transpiler::new(grid, TranspileOptions::default());
    let res = t.run(&logical);
    let decomposed = res.physical.decompose_swaps();
    assert!(decomposed.is_feasible(|a, b| grid.dist(a, b) == 1));
    assert!(equiv::circuits_equivalent(&res.physical, &decomposed));
}

#[test]
fn product_route_agrees_with_grid_router_on_path_products() {
    let (m, n) = (4, 4);
    let product = Product::new(Path::new(m).to_graph(), Path::new(n).to_graph());
    let grid = Grid::new(m, n);
    for seed in 0..3 {
        let pi = generators::random(m * n, seed);
        let via_product = product_route(
            &product,
            &PathFactor(Path::new(m)),
            &PathFactor(Path::new(n)),
            &pi,
            &ProductRouteOptions::default(),
        );
        let via_grid = RouterKind::locality_aware().route(grid, &pi);
        assert!(via_product.realizes(&pi));
        assert!(via_grid.realizes(&pi));
        // Same algorithm family: depths within the 3-phase envelope.
        assert!(via_product.depth() <= 3 * m.max(n));
        assert!(via_grid.depth() <= 3 * m.max(n));
    }
}

#[test]
fn torus_routing_beats_grid_lower_bound_consistency() {
    let c1 = Cycle::new(5);
    let c2 = Cycle::new(5);
    let torus = Product::new(c1.to_graph(), c2.to_graph());
    let graph = torus.to_graph();
    let pi = generators::random(25, 11);
    let s = product_route(
        &torus,
        &CycleFactor(c1),
        &CycleFactor(c2),
        &pi,
        &ProductRouteOptions::default(),
    );
    assert!(s.realizes(&pi));
    s.validate_on(&graph).unwrap();
    assert!(s.depth() >= metrics::depth_lower_bound_graph(&graph, &pi));
}

#[test]
fn product_route_is_shallower_than_ats_on_the_torus() {
    // The evidence for keeping `product_route` beside the service's
    // torus router: on a random permutation of C12 × C12 it needs far
    // fewer layers than ATS (at the cost of more swaps).
    let (rows, cols) = (12, 12);
    let torus = Topology::torus(rows, cols).expect("valid torus");
    let product = Product::new(Cycle::new(rows).to_graph(), Cycle::new(cols).to_graph());
    let pi = generators::random(rows * cols, 3);
    let via_product = product_route(
        &product,
        &CycleFactor(Cycle::new(rows)),
        &CycleFactor(Cycle::new(cols)),
        &pi,
        &ProductRouteOptions::default(),
    );
    assert!(via_product.realizes(&pi));
    via_product.validate_on(&torus.graph()).unwrap();
    let via_ats = RouterKind::Ats
        .route_on(&torus, &pi)
        .expect("ats routes tori");
    assert!(
        via_product.depth() < via_ats.depth(),
        "product_route depth {} vs ats depth {}",
        via_product.depth(),
        via_ats.depth()
    );
}

#[test]
fn qasm_emission_of_transpiled_circuit_parses_structurally() {
    let grid = Grid::new(2, 2);
    let t = Transpiler::new(grid, TranspileOptions::default());
    let res = t.run(&builders::ghz(4));
    let qasm = qroute::circuit::qasm::to_qasm(&res.physical);
    assert!(qasm.starts_with("OPENQASM 2.0;"));
    assert!(qasm.contains("qreg q[4];"));
    // Every gate line ends with a semicolon.
    for line in qasm.lines().skip(3) {
        assert!(line.ends_with(';'), "bad line: {line}");
    }
}

#[test]
fn partial_permutation_to_routing_pipeline() {
    // Pin two tokens, complete locally, route, and verify only the pinned
    // tokens' destinations are constrained.
    let grid = Grid::new(4, 4);
    let mut pp = PartialPermutation::new(16);
    pp.pin(0, 15).unwrap();
    pp.pin(15, 0).unwrap();
    let pi = pp.complete(&qroute::perm::partial::Completion::NearestFree(grid));
    assert_eq!(pi.apply(0), 15);
    assert_eq!(pi.apply(15), 0);
    let s = RouterKind::locality_aware().route(grid, &pi);
    assert!(s.realizes(&pi));
    assert!(s.depth() >= 6); // corner-to-corner distance
}

#[test]
fn identity_permutation_costs_nothing_everywhere() {
    let grid = Grid::new(5, 5);
    let pi = Permutation::identity(25);
    for router in [
        RouterKind::locality_aware(),
        RouterKind::naive(),
        RouterKind::Ats,
    ] {
        assert_eq!(router.route(grid, &pi).depth(), 0);
    }
}
