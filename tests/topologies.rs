//! Cross-layer properties of the topology-generic routing stack:
//! distance-oracle differentials on every non-grid coupling family, and
//! feasibility of approximate token swapping on defective grids.

use proptest::prelude::*;
use qroute::perm::{generators, Permutation};
use qroute::prelude::*;
use qroute::topology::{
    gridlike, ApspOracle, DistanceOracle, LazyBfsOracle, Topology, TopologyOracle,
};

/// Assert `LazyBfsOracle` agrees with the exact all-pairs reference on
/// every vertex pair of `graph` (including unreachable ones).
fn assert_oracles_agree(graph: &Graph, label: &str) {
    let apsp = ApspOracle::new(graph);
    let lazy = LazyBfsOracle::new(graph);
    for u in 0..graph.len() {
        for v in 0..graph.len() {
            assert_eq!(
                lazy.dist(u, v),
                apsp.dist(u, v),
                "{label}: dist({u}, {v}) disagrees"
            );
        }
    }
}

/// A uniform permutation of the alive vertices, fixing the dead ones.
fn alive_random(topology: &Topology, seed: u64) -> Permutation {
    let alive: Vec<usize> = (0..topology.len())
        .filter(|&v| topology.is_alive(v))
        .collect();
    let shuffled = generators::random(alive.len(), seed);
    let mut map: Vec<usize> = (0..topology.len()).collect();
    for (k, &v) in alive.iter().enumerate() {
        map[v] = alive[shuffled.apply(k)];
    }
    Permutation::from_vec(map).expect("permutation of the alive vertices")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The lazy BFS oracle matches exact APSP on defective grids,
    /// including disconnected residuals (unreachable pairs included).
    #[test]
    fn lazy_bfs_matches_apsp_on_defective_grids(
        rows in 1usize..6,
        cols in 1usize..6,
        defect_bits in 0u32..(1 << 12),
    ) {
        let grid = Grid::new(rows, cols);
        let defects: Vec<usize> = (0..grid.len().min(12))
            .filter(|b| defect_bits & (1 << b) != 0)
            .collect();
        let (graph, _old_ids) = gridlike::grid_with_defects(grid, &defects);
        assert_oracles_agree(&graph, &format!("{rows}x{cols} defects {defects:?}"));
    }

    /// ... and on the heavy-hex and brick-wall lattices.
    #[test]
    fn lazy_bfs_matches_apsp_on_heavy_hex_and_brick(
        rows in 1usize..5,
        cols in 1usize..7,
    ) {
        assert_oracles_agree(&gridlike::heavy_hex(rows, cols), &format!("heavy-hex {rows}x{cols}"));
        assert_oracles_agree(&gridlike::brick_wall(rows, cols), &format!("brick {rows}x{cols}"));
    }

    /// The `Topology`-provided oracle agrees with exact APSP on the
    /// topology's own graph, for every variant (closed-form oracles for
    /// grids and tori, BFS for the rest).
    #[test]
    fn topology_oracles_match_apsp(
        rows in 3usize..5,
        cols in 3usize..6,
        variant in 0usize..5,
    ) {
        let topology = match variant {
            0 => Topology::grid(rows, cols),
            1 => Topology::grid_with_defects(Grid::new(rows, cols), &[1, rows * cols - 2], &[])
                .expect("interior defects are valid"),
            2 => Topology::heavy_hex(rows, cols),
            3 => Topology::brick_wall(rows, cols),
            _ => Topology::torus(rows, cols).expect("factors of size >= 3"),
        };
        let graph = topology.graph();
        let oracle: TopologyOracle<'_> = topology.oracle(&graph);
        let apsp = ApspOracle::new(&graph);
        for u in 0..graph.len() {
            for v in 0..graph.len() {
                assert_eq!(oracle.dist(u, v), apsp.dist(u, v), "{topology}: ({u}, {v})");
            }
        }
    }

    /// Approximate token swapping on defective grids: the schedule is
    /// feasible on the defective topology (never using a dead vertex or
    /// edge) and realizes the permutation exactly.
    #[test]
    fn ats_routes_defective_grids(
        side in 3usize..7,
        d1 in 0usize..49,
        d2 in 0usize..49,
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(side, side);
        let defects: Vec<usize> = std::collections::BTreeSet::from([d1 % grid.len(), d2 % grid.len()])
            .into_iter()
            .collect();
        let topology = Topology::grid_with_defects(grid, &defects, &[]).expect("deduped, in range");
        if topology.validate_routable().is_err() {
            return Ok(()); // the pattern cut the grid
        }
        let pi = alive_random(&topology, seed);
        let schedule = RouterKind::Ats
            .route_on(&topology, &pi)
            .expect("token swapping accepts any connected topology");
        prop_assert!(schedule.validate_on(&topology.graph()).is_ok());
        prop_assert!(schedule.realizes(&pi));
    }
}
