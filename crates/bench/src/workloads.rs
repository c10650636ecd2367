//! The permutation classes evaluated in §V.

use qroute_perm::{generators, Permutation};
use qroute_topology::Grid;

/// A named permutation workload class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Uniform random permutation of all vertices (the "global" mapping
    /// scheme; green-vs-brown regime of Fig. 4).
    Random,
    /// Cycles confined to disjoint `b × b` blocks (blue-vs-red regime).
    Block {
        /// Block side length.
        b: usize,
    },
    /// Random permutations composed across overlapping `b × b` windows
    /// with stride `s < b` (the regime where ATS wins).
    Overlap {
        /// Window side length.
        b: usize,
        /// Stride between windows.
        s: usize,
    },
    /// Long, skinny cycles in orthogonal directions (the adversarial case
    /// §V singles out for the locality-aware router).
    Skinny,
    /// A sparse partial permutation: `n/16` disjoint 2-cycles between
    /// vertices at most a quarter side apart, everything else a fixed
    /// point. Per-token search (pathfinder) pays per moved token here,
    /// while the matching-based routers sweep the whole grid.
    SparsePairs,
}

impl WorkloadClass {
    /// Stable label for tables.
    pub fn label(&self) -> String {
        match self {
            WorkloadClass::Random => "random".into(),
            WorkloadClass::Block { b } => format!("block{b}"),
            WorkloadClass::Overlap { b, s } => format!("overlap{b}s{s}"),
            WorkloadClass::Skinny => "skinny".into(),
            // NOTE: not "sparse" — that label belongs to the
            // `CircuitClass::SparseRandom` circuit class.
            WorkloadClass::SparsePairs => "sparse-pairs".into(),
        }
    }

    /// Generate the seeded instance on a grid.
    pub fn generate(&self, grid: Grid, seed: u64) -> Permutation {
        match *self {
            WorkloadClass::Random => generators::random(grid.len(), seed),
            WorkloadClass::Block { b } => generators::block_local(grid, b, b, seed),
            WorkloadClass::Overlap { b, s } => {
                generators::overlapping_blocks(grid, b, b, s, s, seed)
            }
            WorkloadClass::Skinny => generators::skinny_cycles(grid, seed),
            WorkloadClass::SparsePairs => generators::sparse_pairs(
                grid,
                (grid.len() / 16).max(1),
                (grid.rows().max(grid.cols()) / 4).max(2),
                seed,
            ),
        }
    }

    /// The classes shown in Figure 4 / Figure 5.
    pub fn paper_classes() -> Vec<WorkloadClass> {
        vec![
            WorkloadClass::Random,
            WorkloadClass::Block { b: 4 },
            WorkloadClass::Overlap { b: 8, s: 4 },
        ]
    }

    /// Every *full-permutation* workload class, with the default
    /// parameterizations: the paper classes plus the skinny-cycle
    /// adversarial case. The permutation matrix benches
    /// [`WorkloadClass::bench_classes`], which extends this pool.
    pub fn all_classes() -> Vec<WorkloadClass> {
        let mut classes = WorkloadClass::paper_classes();
        classes.push(WorkloadClass::Skinny);
        classes
    }

    /// The class axis of the permutation benchmark matrix
    /// (`repro bench`): [`WorkloadClass::all_classes`] plus the sparse
    /// partial-permutation class the pathfinder router targets.
    pub fn bench_classes() -> Vec<WorkloadClass> {
        let mut classes = WorkloadClass::all_classes();
        classes.push(WorkloadClass::SparsePairs);
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<String> = WorkloadClass::bench_classes()
            .iter()
            .map(|c| c.label())
            .collect();
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn bench_classes_extend_all_classes_with_sparse_pairs() {
        let all = WorkloadClass::all_classes();
        let bench = WorkloadClass::bench_classes();
        assert_eq!(&bench[..all.len()], &all[..]);
        assert_eq!(bench.len(), all.len() + 1);
        assert_eq!(bench.last().unwrap().label(), "sparse-pairs");
        // `all_classes` is the full-permutation pool; the partial
        // sparse class must not leak into it.
        assert!(all.iter().all(|c| *c != WorkloadClass::SparsePairs));
    }

    #[test]
    fn sparse_pairs_instances_are_sparse_and_local() {
        let grid = Grid::new(16, 16);
        let p = WorkloadClass::SparsePairs.generate(grid, 0);
        assert_eq!(p.support_size(), 2 * (256 / 16));
        for v in 0..p.len() {
            assert!(grid.dist(v, p.apply(v)) <= 4);
        }
    }

    #[test]
    fn generation_is_seeded() {
        let grid = Grid::new(8, 8);
        for class in WorkloadClass::paper_classes() {
            assert_eq!(class.generate(grid, 3), class.generate(grid, 3));
            assert_ne!(
                class.generate(grid, 3),
                class.generate(grid, 4),
                "{class:?}"
            );
        }
    }

    #[test]
    fn all_classes_generate_valid_permutations() {
        let grid = Grid::new(9, 9);
        for class in [
            WorkloadClass::Random,
            WorkloadClass::Block { b: 3 },
            WorkloadClass::Overlap { b: 4, s: 2 },
            WorkloadClass::Skinny,
        ] {
            let p = class.generate(grid, 0);
            assert_eq!(p.len(), 81);
        }
    }
}
