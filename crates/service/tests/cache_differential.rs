//! Differential proof that the canonical cache is safe: a cache-served
//! schedule, replayed through any grid symmetry and translation, is
//! feasible, realizes the job's permutation, and matches a cold route's
//! depth and size *exactly*.
//!
//! The engine routes the canonical representative for hits and misses
//! alike, so "cold" and "cached" answers are the same schedule modulo a
//! vertex relabeling — these tests pin that equivalence end to end, from
//! the canonicalization algebra up through the engine's outcome lines.

use proptest::prelude::*;
use qroute_core::{GridRouter, RouterKind};
use qroute_perm::{generators, Permutation};
use qroute_service::{
    canonicalize, canonicalize_topology, Engine, EngineConfig, RouteJob, RouterSpec,
};
use qroute_topology::{Grid, GridSymmetry, Topology};

/// The seeded workload used across cases: varied enough to hit every
/// canonicalization branch (identity, thin boxes, full-support boxes).
fn workload(grid: Grid, kind: usize, seed: u64) -> Permutation {
    match kind % 5 {
        0 => generators::random(grid.len(), seed),
        1 => generators::block_local(grid, 2, 2, seed),
        2 => generators::sparse_random(grid.len(), (grid.len() / 4).max(2).min(grid.len()), seed),
        3 => generators::skinny_cycles(grid, seed),
        _ => Permutation::identity(grid.len()),
    }
}

/// Transform `(grid, pi)` by a dihedral symmetry: the conjugated
/// permutation on the target grid.
fn conjugate(grid: Grid, pi: &Permutation, sym: GridSymmetry) -> (Grid, Permutation) {
    let target = sym.target(grid);
    let mut map = vec![0usize; pi.len()];
    for v in 0..pi.len() {
        map[sym.apply(grid, v)] = sym.apply(grid, pi.apply(v));
    }
    (
        target,
        Permutation::from_vec(map).expect("conjugate of a permutation"),
    )
}

/// Embed `(grid, pi)` into a larger `big` grid at offset `(dr, dc)`
/// (identity outside the embedded block).
fn translate_into(grid: Grid, pi: &Permutation, big: Grid, dr: usize, dc: usize) -> Permutation {
    assert!(grid.rows() + dr <= big.rows() && grid.cols() + dc <= big.cols());
    let mut map: Vec<usize> = (0..big.len()).collect();
    for v in 0..pi.len() {
        let (i, j) = grid.coords(v);
        let (ti, tj) = grid.coords(pi.apply(v));
        map[big.index(i + dr, j + dc)] = big.index(ti + dr, tj + dc);
    }
    Permutation::from_vec(map).expect("translated permutation")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random (grid, permutation, router) triples: routing the same
    /// job twice through the engine yields a miss then a hit, and the
    /// cache-served outcome matches the cold one exactly.
    #[test]
    fn cache_hit_matches_cold_route(
        side in 2usize..7,
        kind in 0usize..5,
        router_idx in 0..RouterKind::all_default().len(),
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(side, side);
        let pi = workload(grid, kind, seed);
        let router = RouterKind::all_default()[router_idx].clone();
        let job = RouteJob::explicit(side, RouterSpec::Fixed(router), &pi);
        let mut engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        let out = engine.run(vec![job.clone(), job]);
        prop_assert_eq!(out[0].cache.as_deref(), Some("miss"));
        prop_assert_eq!(out[1].cache.as_deref(), Some("hit"));
        prop_assert_eq!(out[0].depth, out[1].depth);
        prop_assert_eq!(out[0].size, out[1].size);
        prop_assert_eq!(out[0].lower_bound, out[1].lower_bound);
        prop_assert!(out[0].depth.unwrap() >= out[0].lower_bound.unwrap());
    }

    /// For random triples and *every* dihedral symmetry: the symmetric
    /// instance shares the cache entry, and the replayed schedule is
    /// feasible on its own grid, realizes its own permutation, and has
    /// the cold route's exact depth and size.
    #[test]
    fn symmetric_instances_replay_feasibly(
        side in 2usize..7,
        kind in 0usize..5,
        router_idx in 0..RouterKind::all_default().len(),
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(side, side);
        let pi = workload(grid, kind, seed);
        let router = RouterKind::all_default()[router_idx].clone();
        let mut engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });

        let mut jobs = vec![RouteJob::explicit(side, RouterSpec::Fixed(router.clone()), &pi)];
        let mut instances = vec![(grid, pi.clone())];
        for sym in GridSymmetry::all() {
            let (tgrid, tpi) = conjugate(grid, &pi, sym);
            jobs.push(RouteJob::explicit(side, RouterSpec::Fixed(router.clone()), &tpi));
            instances.push((tgrid, tpi));
        }
        let results = engine.run_detailed(jobs);
        let cold = &results[0].outcome;
        prop_assert_eq!(cold.cache.as_deref(), Some("miss"));
        for (result, (igrid, ipi)) in results.iter().zip(&instances).skip(1) {
            prop_assert_eq!(result.outcome.cache.as_deref(), Some("hit"));
            prop_assert_eq!(result.outcome.depth, cold.depth);
            prop_assert_eq!(result.outcome.size, cold.size);
            let schedule = result.schedule.as_ref().expect("routed");
            prop_assert!(schedule.validate_on(&igrid.to_graph()).is_ok());
            prop_assert!(schedule.realizes(ipi));
            prop_assert_eq!(schedule.depth(), cold.depth.unwrap());
            prop_assert_eq!(schedule.size(), cold.size.unwrap());
        }
    }

    /// Translating the support block across a larger grid — and even
    /// onto a different grid size — still hits the cache, and the replay
    /// stays feasible at the new position.
    #[test]
    fn translated_instances_replay_feasibly(
        side in 2usize..5,
        kind in 0usize..4,
        seed in 0u64..1000,
        dr in 0usize..4,
        dc in 0usize..4,
        big_extra in 0usize..3,
    ) {
        let grid = Grid::new(side, side);
        let pi = workload(grid, kind, seed);
        let big_side = side + 4 + big_extra;
        let big = Grid::new(big_side, big_side);
        let shifted = translate_into(grid, &pi, big, dr, dc);

        let router = RouterKind::Ats;
        let mut engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        let results = engine.run_detailed(vec![
            RouteJob::explicit(side, RouterSpec::Fixed(router.clone()), &pi),
            RouteJob::explicit(big_side, RouterSpec::Fixed(router), &shifted),
        ]);
        prop_assert_eq!(results[0].outcome.cache.as_deref(), Some("miss"));
        prop_assert_eq!(results[1].outcome.cache.as_deref(), Some("hit"));
        prop_assert_eq!(results[1].outcome.depth, results[0].outcome.depth);
        prop_assert_eq!(results[1].outcome.size, results[0].outcome.size);
        let schedule = results[1].schedule.as_ref().expect("routed");
        prop_assert!(schedule.validate_on(&big.to_graph()).is_ok());
        prop_assert!(schedule.realizes(&shifted));
    }

    /// Canonicalization is a true invariant map: every element of an
    /// instance's orbit produces the identical canonical key.
    #[test]
    fn canonical_key_is_orbit_invariant(
        side in 2usize..7,
        kind in 0usize..5,
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(side, side);
        let pi = workload(grid, kind, seed);
        let reference = canonicalize(grid, &pi).key("x");
        for sym in GridSymmetry::all() {
            let (tgrid, tpi) = conjugate(grid, &pi, sym);
            prop_assert_eq!(canonicalize(tgrid, &tpi).key("x"), reference.clone());
        }
        // The canonical form is itself a fixed point of canonicalization.
        let form = canonicalize(grid, &pi);
        let canonical_grid = form.topology.as_grid().expect("clean canonical grid");
        let again = canonicalize(canonical_grid, &form.pi);
        prop_assert_eq!(again.key("x"), reference);
    }

    /// Routing the canonical representative directly (a "cold route" in
    /// the engine's semantics) matches the engine's reported numbers.
    #[test]
    fn engine_numbers_match_direct_canonical_route(
        side in 2usize..7,
        kind in 0usize..5,
        router_idx in 0..RouterKind::all_default().len(),
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(side, side);
        let pi = workload(grid, kind, seed);
        let router = RouterKind::all_default()[router_idx].clone();
        let form = canonicalize(grid, &pi);
        let cold = router.route(form.topology.as_grid().expect("clean canonical"), &form.pi);
        let mut engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let out = engine.run(vec![RouteJob::explicit(side, RouterSpec::Fixed(router), &pi)]);
        prop_assert_eq!(out[0].depth, Some(cold.depth()));
        prop_assert_eq!(out[0].size, Some(cold.size()));
    }
}

/// A uniform permutation of the alive vertices of `topology`, fixing the
/// dead ones (so it is a valid defective-grid job permutation).
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

/// Conjugate a defective square-grid instance by a dihedral symmetry:
/// the same physical pattern viewed in a mirror.
fn conjugate_defective(
    grid: Grid,
    defects: &[usize],
    pi: &Permutation,
    sym: GridSymmetry,
) -> (Vec<usize>, Permutation) {
    let mut map = vec![0usize; pi.len()];
    for v in 0..pi.len() {
        map[sym.apply(grid, v)] = sym.apply(grid, pi.apply(v));
    }
    let defects = defects.iter().map(|&v| sym.apply(grid, v)).collect();
    (
        defects,
        Permutation::from_vec(map).expect("conjugated permutation"),
    )
}

/// A defective-grid JSONL job line (router pinned to ats, the
/// topology-generic router).
fn defect_job(side: usize, defects: &[usize], pi: &Permutation) -> RouteJob {
    RouteJob::from_json_line(&format!(
        r#"{{"side": {side}, "router": "ats", "perm": {:?}, "topology": {{"kind": "defect", "defects": {:?}}}}}"#,
        pi.as_slice(),
        defects,
    ))
    .expect("well-formed defect job line")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random defective grids: every dihedral conjugate of an
    /// instance shares one cache entry, and each replayed schedule is
    /// feasible on its *own* defective topology (never crossing a dead
    /// vertex or edge) and realizes its own permutation.
    #[test]
    fn defective_orbits_share_entries_and_replay_feasibly(
        side in 3usize..6,
        d1 in 0usize..36,
        d2 in 0usize..36,
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(side, side);
        let defects: Vec<usize> = std::collections::BTreeSet::from([d1 % grid.len(), d2 % grid.len()])
            .into_iter()
            .collect();
        let topology = Topology::grid_with_defects(grid, &defects, &[]).expect("deduped, in range");
        if topology.validate_routable().is_err() {
            // The defect pattern cut the grid: not a routable instance.
            return Ok(());
        }
        let pi = alive_random(&topology, seed);

        let mut jobs = vec![defect_job(side, &defects, &pi)];
        let mut instances = vec![(defects.clone(), pi.clone())];
        for sym in GridSymmetry::all() {
            let (tdefects, tpi) = conjugate_defective(grid, &defects, &pi, sym);
            jobs.push(defect_job(side, &tdefects, &tpi));
            instances.push((tdefects, tpi));
        }
        let mut engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        let results = engine.run_detailed(jobs);
        let cold = &results[0].outcome;
        prop_assert_eq!(cold.cache.as_deref(), Some("miss"));
        for (result, (idefects, ipi)) in results.iter().zip(&instances) {
            prop_assert_eq!(result.outcome.error.as_deref(), None);
            prop_assert_eq!(result.outcome.depth, cold.depth);
            prop_assert_eq!(result.outcome.size, cold.size);
            let itopology = Topology::grid_with_defects(grid, idefects, &[]).unwrap();
            let schedule = result.schedule.as_ref().expect("routed");
            prop_assert!(schedule.validate_on(&itopology.graph()).is_ok());
            prop_assert!(schedule.realizes(ipi));
        }
        for result in &results[1..] {
            prop_assert_eq!(result.outcome.cache.as_deref(), Some("hit"));
        }
    }

    /// The canonical key of a defective instance is invariant over its
    /// dihedral orbit — directly on `canonicalize_topology`, independent
    /// of the engine.
    #[test]
    fn defective_canonical_key_is_orbit_invariant(
        side in 3usize..6,
        d1 in 0usize..36,
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(side, side);
        let defects = vec![d1 % grid.len()];
        let topology = Topology::grid_with_defects(grid, &defects, &[]).expect("in range");
        if topology.validate_routable().is_err() {
            return Ok(());
        }
        let pi = alive_random(&topology, seed);
        let reference = canonicalize_topology(&topology, &pi).key("x");
        for sym in GridSymmetry::all() {
            let (tdefects, tpi) = conjugate_defective(grid, &defects, &pi, sym);
            let ttopology = Topology::grid_with_defects(grid, &tdefects, &[]).unwrap();
            prop_assert_eq!(canonicalize_topology(&ttopology, &tpi).key("x"), reference.clone());
        }
    }
}
