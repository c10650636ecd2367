//! Workspace smoke test: every router realizes random permutations on a
//! 4x4 grid with schedules whose layers are valid matchings of the
//! coupling graph, across 10 seeds.

use qroute::perm::generators;
use qroute::prelude::*;
use qroute::routing::grid_route::NaiveOptions;
use qroute::routing::local_grid::LocalRouteOptions;

/// One representative of every `RouterKind` variant.
fn all_router_kinds() -> Vec<RouterKind> {
    vec![
        RouterKind::locality_aware(),
        RouterKind::LocalityAware(LocalRouteOptions::paper()),
        RouterKind::naive(),
        RouterKind::NaiveGrid(NaiveOptions::plain()),
        RouterKind::hybrid(),
        RouterKind::Ats,
        RouterKind::pathfinder(),
    ]
}

#[test]
fn every_router_kind_realizes_and_produces_valid_matchings() {
    let grid = Grid::new(4, 4);
    let graph = grid.to_graph();
    for seed in 0..10 {
        let pi = generators::random(grid.len(), seed);
        for router in all_router_kinds() {
            let schedule = router.route(grid, &pi);
            assert!(
                schedule.realizes(&pi),
                "{} does not realize π (seed {seed})",
                router.name()
            );
            schedule.validate_on(&graph).unwrap_or_else(|e| {
                panic!(
                    "{} produced an invalid layer (seed {seed}): {e:?}",
                    router.name()
                )
            });
        }
    }
}

#[test]
fn every_router_kind_handles_identity_and_reversal() {
    let grid = Grid::new(4, 4);
    let graph = grid.to_graph();
    let identity = qroute::perm::Permutation::identity(grid.len());
    let reversal = generators::reversal(grid.len());
    for router in all_router_kinds() {
        for pi in [&identity, &reversal] {
            let schedule = router.route(grid, pi);
            assert!(schedule.realizes(pi), "{} failed", router.name());
            schedule.validate_on(&graph).unwrap();
        }
    }
}
