//! Side-64 (4096-qubit) smoke test: the scale the distance-oracle
//! overhaul unlocked. Every `RouterKind` must terminate and realize π on
//! a 64×64 grid — before the overhaul the ATS router alone would
//! materialize a 64 MiB APSP table per call here.
//!
//! The workload is block-local (the paper's own regime) so the whole
//! sweep stays fast in debug builds; `repro bench --sides 64 --no-time`
//! exercises the uniform-random regime in release.

use qroute::perm::{generators, metrics};
use qroute::prelude::*;
use qroute::routing::grid_route::NaiveOptions;
use qroute::routing::local_grid::LocalRouteOptions;

fn all_router_kinds() -> Vec<RouterKind> {
    vec![
        RouterKind::locality_aware(),
        RouterKind::LocalityAware(LocalRouteOptions::paper()),
        RouterKind::naive(),
        RouterKind::NaiveGrid(NaiveOptions::plain()),
        RouterKind::hybrid(),
        RouterKind::Ats,
    ]
}

#[test]
fn side_64_every_router_kind_terminates_and_realizes() {
    let grid = Grid::new(64, 64);
    let pi = generators::block_local(grid, 4, 4, 1);
    let lower = metrics::max_displacement(grid, &pi);
    for router in all_router_kinds() {
        let schedule = router.route(grid, &pi);
        assert!(
            schedule.realizes(&pi),
            "{} does not realize π at side 64",
            router.name()
        );
        assert!(
            schedule.depth() >= lower,
            "{} beat the displacement lower bound",
            router.name()
        );
    }
}
