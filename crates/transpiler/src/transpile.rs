//! The main transpilation loop.

use crate::layout::{InitialLayout, Layout};
use crate::planner::plan_targets;
use qroute_circuit::{Circuit, DependencyQueue, Gate};
use qroute_core::{GridRouter, RouterKind};
use qroute_topology::Grid;

/// Transpiler configuration.
#[derive(Debug, Clone)]
pub struct TranspileOptions {
    /// The permutation router used whenever the front layer blocks — the
    /// paper's algorithm, ATS, or any other [`RouterKind`].
    pub router: RouterKind,
    /// Initial placement of logical qubits.
    pub initial_layout: InitialLayout,
}

impl Default for TranspileOptions {
    fn default() -> TranspileOptions {
        TranspileOptions {
            router: RouterKind::locality_aware(),
            initial_layout: InitialLayout::Identity,
        }
    }
}

/// Per-round routing statistics: one entry per router invocation, in
/// order. The sums reconcile with the aggregate counters on
/// [`TranspileResult`], which lets verification harnesses recount the
/// reported metrics from the emitted circuit and per-round record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// 2-qubit gates blocked when the round was planned.
    pub blocked_gates: usize,
    /// Blocked pairs the planner managed to pin this round.
    pub pinned_pairs: usize,
    /// SWAP gates the round's schedule inserted.
    pub swaps: usize,
    /// Depth (SWAP layers) of the round's schedule.
    pub depth: usize,
}

/// Result of transpilation.
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The physical circuit over `grid.len()` wires (contains `SWAP`s).
    pub physical: Circuit,
    /// `initial_layout[l]` = physical wire of logical `l` before the
    /// circuit (length `grid.len()`; indices `≥ logical.num_qubits()` are
    /// dummies).
    pub initial_layout: Vec<usize>,
    /// Final wire of each logical index after the circuit.
    pub final_layout: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
    /// Total routing depth added (sum of schedule depths across routing
    /// rounds).
    pub routing_depth_added: usize,
    /// Number of routing rounds (router invocations).
    pub routing_invocations: usize,
    /// Per-round statistics (`rounds.len() == routing_invocations`;
    /// per-round `swaps`/`depth` sum to `swap_count` /
    /// `routing_depth_added`).
    pub rounds: Vec<RoundStats>,
}

/// A mapping+routing transpiler for a fixed grid.
#[derive(Debug, Clone)]
pub struct Transpiler {
    grid: Grid,
    options: TranspileOptions,
}

impl Transpiler {
    /// Create a transpiler for `grid` with the given options.
    pub fn new(grid: Grid, options: TranspileOptions) -> Transpiler {
        Transpiler { grid, options }
    }

    /// The target grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Transpile `logical` onto the grid: the output circuit uses only
    /// grid-adjacent 2-qubit gates and is equivalent to `logical` up to
    /// the reported initial/final layouts.
    ///
    /// # Panics
    /// Panics when the circuit needs more qubits than the grid offers.
    pub fn run(&self, logical: &Circuit) -> TranspileResult {
        let n = self.grid.len();
        assert!(
            logical.num_qubits() <= n,
            "circuit needs {} qubits but the grid has {n}",
            logical.num_qubits()
        );

        let mut layout: Layout = self.options.initial_layout.build(n);
        let initial_layout = layout.as_phys_of().to_vec();
        let mut queue = DependencyQueue::new(logical);
        let mut physical = Circuit::new(n);
        let mut swap_count = 0usize;
        let mut routing_depth_added = 0usize;
        let mut routing_invocations = 0usize;
        let mut rounds: Vec<RoundStats> = Vec::new();

        let adjacent = |a: usize, b: usize| self.grid.dist(a, b) == 1;

        while !queue.is_done() {
            // One cooperative cancellation probe per routing round.
            qroute_core::budget::checkpoint();
            // Drain every executable ready gate.
            loop {
                let front = queue.ready_front();
                let mut progressed = false;
                for g in front {
                    let gate = logical.gates()[g];
                    let feasible = match gate.qubits() {
                        (_, None) => true,
                        (a, Some(b)) => adjacent(layout.phys_of(a), layout.phys_of(b)),
                    };
                    if feasible {
                        physical.push(gate.relabel(|q| layout.phys_of(q)));
                        queue.execute(g);
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            if queue.is_done() {
                break;
            }

            // Fully blocked front: plan a meeting permutation and route it.
            let blocked: Vec<(usize, usize)> = queue
                .ready_front()
                .into_iter()
                .filter_map(|g| match logical.gates()[g].qubits() {
                    (a, Some(b)) => Some((layout.phys_of(a), layout.phys_of(b))),
                    _ => None,
                })
                .collect();
            assert!(!blocked.is_empty(), "blocked round with no 2-qubit gates");

            let (pi, pinned) = plan_targets(self.grid, &blocked);
            let schedule = self.options.router.route(self.grid, &pi);
            debug_assert!(schedule.realizes(&pi), "router returned a wrong schedule");
            routing_invocations += 1;
            routing_depth_added += schedule.depth();
            let mut round_swaps = 0usize;
            for layer in &schedule.layers {
                for &(u, v) in &layer.swaps {
                    physical.push(Gate::Swap(u, v));
                    layout.apply_swap(u, v);
                    swap_count += 1;
                    round_swaps += 1;
                }
            }
            rounds.push(RoundStats {
                blocked_gates: blocked.len(),
                pinned_pairs: pinned,
                swaps: round_swaps,
                depth: schedule.depth(),
            });
        }

        TranspileResult {
            physical,
            initial_layout,
            final_layout: layout.as_phys_of().to_vec(),
            swap_count,
            routing_depth_added,
            routing_invocations,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_circuit::builders;

    fn feasible_on(grid: Grid, c: &Circuit) -> bool {
        c.is_feasible(|a, b| grid.dist(a, b) == 1)
    }

    fn transpile(grid: Grid, c: &Circuit, router: RouterKind) -> TranspileResult {
        let t = Transpiler::new(
            grid,
            TranspileOptions { router, initial_layout: InitialLayout::Identity },
        );
        let res = t.run(c);
        assert!(feasible_on(grid, &res.physical), "output infeasible");
        res
    }

    #[test]
    fn feasible_circuit_passes_through() {
        let grid = Grid::new(2, 3);
        let c = builders::trotter_grid_step(2, 3, 0.1, 1);
        let res = transpile(grid, &c, RouterKind::locality_aware());
        assert_eq!(res.swap_count, 0);
        assert_eq!(res.routing_invocations, 0);
        assert_eq!(res.physical.size(), c.size());
    }

    #[test]
    fn ghz_on_grid_identity_layout_needs_no_swaps_on_row() {
        // GHZ chain 0-1-2 on a 1x3 grid is already nearest-neighbor.
        let grid = Grid::new(1, 3);
        let res = transpile(grid, &builders::ghz(3), RouterKind::locality_aware());
        assert_eq!(res.swap_count, 0);
    }

    #[test]
    fn qft_gets_routed() {
        let grid = Grid::new(2, 3);
        let c = builders::qft(6);
        let res = transpile(grid, &c, RouterKind::locality_aware());
        assert!(res.swap_count > 0, "QFT on a grid must need swaps");
        assert!(res.routing_invocations > 0);
        // Every logical gate made it into the physical circuit.
        assert_eq!(res.physical.size(), c.size() + res.swap_count);
    }

    #[test]
    fn all_routers_produce_feasible_output() {
        let grid = Grid::new(3, 3);
        let c = builders::random_two_qubit_circuit(9, 25, 5);
        for router in [
            RouterKind::locality_aware(),
            RouterKind::naive(),
            RouterKind::hybrid(),
            RouterKind::Ats,
            RouterKind::pathfinder(),
        ] {
            let res = transpile(grid, &c, router);
            assert_eq!(res.physical.size(), c.size() + res.swap_count);
        }
    }

    #[test]
    fn smaller_circuit_than_grid() {
        let grid = Grid::new(3, 3);
        let c = builders::qft(5); // 5 logical qubits on 9 wires
        let res = transpile(grid, &c, RouterKind::locality_aware());
        assert!(feasible_on(grid, &res.physical));
        assert_eq!(res.initial_layout.len(), 9);
        assert_eq!(res.final_layout.len(), 9);
    }

    #[test]
    fn random_initial_layout() {
        let grid = Grid::new(2, 4);
        let c = builders::ghz(8);
        let t = Transpiler::new(
            grid,
            TranspileOptions {
                router: RouterKind::locality_aware(),
                initial_layout: InitialLayout::Random(7),
            },
        );
        let res = t.run(&c);
        assert!(feasible_on(grid, &res.physical));
        // The initial layout the result reports matches the strategy.
        assert_eq!(res.initial_layout, Layout::random(8, 7).as_phys_of());
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn oversize_circuit_panics() {
        let grid = Grid::new(2, 2);
        let _ = Transpiler::new(grid, TranspileOptions::default()).run(&builders::ghz(5));
    }

    #[test]
    fn empty_circuit_transpiles_to_nothing() {
        for n_logical in [0usize, 4] {
            let grid = Grid::new(2, 2);
            let res = transpile(grid, &Circuit::new(n_logical), RouterKind::locality_aware());
            assert!(res.physical.is_empty());
            assert_eq!(res.swap_count, 0);
            assert_eq!(res.routing_invocations, 0);
            assert!(res.rounds.is_empty());
            assert_eq!(res.initial_layout, res.final_layout);
        }
    }

    #[test]
    fn single_qubit_only_circuit_never_routes() {
        let grid = Grid::new(2, 3);
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.push(Gate::H(q)).push(Gate::T(q));
        }
        for router in [RouterKind::locality_aware(), RouterKind::Ats] {
            let res = transpile(grid, &c, router);
            assert_eq!(res.swap_count, 0);
            assert_eq!(res.routing_invocations, 0);
            assert_eq!(res.physical.size(), c.size());
        }
    }

    #[test]
    fn full_occupancy_circuit_transpiles_on_every_shape() {
        // Logical qubit count exactly equal to grid.len(), including the
        // degenerate 1x1 and path-shaped grids.
        let one = Grid::new(1, 1);
        let mut c1 = Circuit::new(1);
        c1.push(Gate::H(0));
        let res = transpile(one, &c1, RouterKind::locality_aware());
        assert_eq!(res.swap_count, 0);

        let path = Grid::new(1, 4);
        let res = transpile(path, &builders::qft(4), RouterKind::hybrid());
        assert_eq!(
            res.physical.size(),
            builders::qft(4).size() + res.swap_count
        );

        let grid = Grid::new(3, 3);
        let feasible = builders::trotter_grid_step(3, 3, 0.2, 1);
        let res = transpile(grid, &feasible, RouterKind::naive());
        assert_eq!(res.swap_count, 0, "grid-local circuit needs no routing");
    }

    #[test]
    fn round_stats_reconcile_with_aggregates() {
        let grid = Grid::new(3, 3);
        let c = builders::qaoa_random_graph(9, 2, 3);
        for router in [
            RouterKind::locality_aware(),
            RouterKind::naive(),
            RouterKind::Ats,
        ] {
            let res = transpile(grid, &c, router);
            assert_eq!(res.rounds.len(), res.routing_invocations);
            assert_eq!(
                res.rounds.iter().map(|r| r.swaps).sum::<usize>(),
                res.swap_count
            );
            assert_eq!(
                res.rounds.iter().map(|r| r.depth).sum::<usize>(),
                res.routing_depth_added
            );
            for r in &res.rounds {
                assert!(r.pinned_pairs >= 1, "every round must make progress");
                assert!(r.pinned_pairs <= r.blocked_gates);
            }
        }
    }

    #[test]
    fn layout_consistency_invariant() {
        // After transpilation, replaying the physical SWAPs over the
        // initial layout must give the final layout. (Valid only for
        // logical circuits without SWAP gates of their own: a logical
        // SWAP is executed as a gate, not absorbed into the layout.)
        let grid = Grid::new(2, 3);
        let c = builders::random_two_qubit_circuit(6, 30, 2);
        let res = transpile(grid, &c, RouterKind::naive());
        let mut layout = Layout::from_phys_of(res.initial_layout.clone());
        for g in res.physical.gates() {
            if let Gate::Swap(a, b) = *g {
                layout.apply_swap(a, b);
            }
        }
        assert_eq!(layout.as_phys_of(), res.final_layout);
    }
}
