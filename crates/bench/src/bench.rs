//! Machine-readable benchmark reports with baseline regression gating.
//!
//! The figure sweeps in [`crate::experiments`] produce human-oriented
//! tables; this module produces the *canonical performance record* the
//! project is judged against over time:
//!
//! * [`BenchReport`] — a schema-versioned, serde-serialized report: build
//!   environment metadata, the run configuration, one [`BenchCell`] per
//!   router × permutation class × grid side, and one [`CircuitBenchCell`]
//!   per router × circuit class × grid side, each with full
//!   [`SampleSummary`] percentiles (mean/min/p50/p90/max over seeds);
//! * [`run_bench`] — drives both cell matrices in parallel via rayon
//!   and returns a deterministically ordered report whose JSON encoding
//!   ([`BenchReport::to_json`]) is byte-stable: with timing capture
//!   disabled ([`BenchConfig::timing`] = `false`), two runs with the same
//!   seeds produce *identical* `BENCH.json` bytes;
//! * [`BenchReport::from_json`] — reads a committed baseline back;
//! * [`check_against_baseline`] — diffs a fresh report against a
//!   baseline and reports per-cell regressions: mean depth (and, for
//!   circuit cells, mean swap count) beyond the per-class tolerance
//!   ([`depth_tolerance`] / [`circuit_tolerance`]), or mean time more
//!   than [`TIME_TOLERANCE`] (25%) slower when both reports captured
//!   timing. The `repro bench --baseline <file> --check` subcommand turns
//!   a failed check into exit code 1 plus a markdown delta table
//!   ([`delta_table_markdown`]).
//!
//! Depth, size and lower bound are exactly reproducible (seeded
//! workloads, deterministic routers and transpiler), so any delta is a
//! real algorithmic change; the tolerance only leaves headroom for
//! intentional small trade-offs. Wall-clock time is the one
//! machine-dependent metric, which is why it is separately tolerated and
//! optional.
//!
//! Every circuit cell is verified before its numbers are recorded — see
//! [`crate::verify`] for the tiered differential harness (grid
//! feasibility, metric recounts, structural unembedding, and statevector
//! equivalence for logical registers within the simulator cutoff).

use crate::circuits::CircuitClass;
use crate::verify::verify_transpile;
use crate::workloads::WorkloadClass;
use qroute_core::stats::{route_timed, SampleSummary};
use qroute_core::{GridRouter, RouterKind};
use qroute_topology::{Grid, Topology};
use qroute_transpiler::{TranspileOptions, Transpiler};
use rayon::prelude::*;
use serde::Serialize;
use std::fmt::Write as _;

/// Version of the `BENCH.json` schema. Bump on any breaking change to
/// [`BenchReport`]'s serialized shape; [`BenchReport::from_json`] refuses
/// mismatched versions so a stale baseline fails loudly.
///
/// History: v1 — permutation cells only; v2 — adds the circuit-cell
/// matrix (`circuit_cells`) and the `circuit_sides` / `circuit_seeds`
/// run-configuration fields; v3 — adds the routing-service throughput
/// matrix (`service_cells`: jobs/sec and cache hit rate per side ×
/// worker count) and the `service_sides` / `service_seeds`
/// run-configuration fields; v4 — adds the non-grid topology matrix
/// (`defect_cells`: router × topology kind × side on defective grids and
/// heavy-hex lattices) and the `defect_sides` / `defect_seeds`
/// run-configuration fields; v5 — adds the routing-daemon throughput
/// matrix (`daemon_cells`: jobs and shared-cache counters per
/// concurrent-client count, replaying `examples/jobs.jsonl` through a
/// live TCP daemon) and the `daemon_clients` run-configuration field;
/// v6 — drops the ungated service and daemon matrices (`service_cells`,
/// `daemon_cells` and the `service_sides` / `service_seeds` /
/// `daemon_clients` fields; the separate `routebench` benchmark measures
/// the engine and the daemon end to end) and the retired `ats-serial`,
/// `tree` and `snake` permutation cells.
pub const SCHEMA_VERSION: u64 = 6;

/// Relative mean-runtime regression tolerated by the baseline check
/// (`0.25` = 25% slower), applied only when both reports captured timing.
pub const TIME_TOLERANCE: f64 = 0.25;

/// Per-class relative mean-depth regression tolerance.
///
/// Depth is deterministic for a fixed seed set, so these are headroom for
/// intentional trade-offs, not noise margins. The overlap and skinny
/// classes get more room: they are the regimes where router heuristics
/// legitimately trade depth between classes (§V — ATS wins on overlap;
/// skinny cycles are adversarial for the locality-aware router).
pub fn depth_tolerance(class: &str) -> f64 {
    if class.starts_with("overlap")
        || class.starts_with("skinny")
        || class.starts_with("sparse-pairs")
    {
        0.05
    } else {
        0.02
    }
}

/// Router-aware variant of [`depth_tolerance`], applied to permutation
/// cells by the baseline check. The pathfinder router's negotiation loop
/// redistributes depth between contested paths, so every change to its
/// cost schedule legitimately shifts cell depth a little on *all*
/// classes — its cells get the 5% headroom regardless of class.
pub fn cell_depth_tolerance(router: &str, class: &str) -> f64 {
    if router == "pathfinder" {
        0.05
    } else {
        depth_tolerance(class)
    }
}

/// Per-class relative regression tolerance for circuit-cell metrics
/// (mean routing depth added and mean swap count).
///
/// Transpile-loop metrics are deterministic but more sensitive than
/// isolated-permutation depth: a small planner or router change shifts
/// *which* rounds block, and the effect compounds across hundreds of
/// rounds. Structured local workloads (brickwork) get the tight 2%;
/// everything that routes globally gets 5%.
pub fn circuit_tolerance(class: &str) -> f64 {
    if class.starts_with("brickwork") {
        0.02
    } else {
        0.05
    }
}

/// Build/environment metadata recorded in every report.
#[derive(Debug, Clone, Serialize)]
pub struct BenchEnv {
    /// Crate version of the harness that produced the report.
    pub version: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Whether the harness was compiled with debug assertions (a `true`
    /// here means timings are not representative of release builds).
    pub debug_assertions: bool,
}

impl BenchEnv {
    /// Capture the current build environment.
    pub fn capture() -> BenchEnv {
        BenchEnv {
            version: env!("CARGO_PKG_VERSION").to_string(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            debug_assertions: cfg!(debug_assertions),
        }
    }
}

/// Configuration of a benchmark run.
#[derive(Debug, Clone, Serialize)]
pub struct BenchConfig {
    /// Square-grid sides in the permutation matrix.
    pub sides: Vec<usize>,
    /// Seeds per permutation cell (`0..seeds`).
    pub seeds: u64,
    /// Whether wall-clock time was captured. `false` zeroes the
    /// `time_ms` summaries, making the report byte-stable across runs —
    /// timing is the only nondeterministic input to the schema.
    pub timing: bool,
    /// Square-grid sides in the circuit matrix (must all fit the QASM
    /// replay fixture's 10 qubits, i.e. side ≥ 4).
    pub circuit_sides: Vec<usize>,
    /// Seeds per circuit cell (`0..circuit_seeds`).
    pub circuit_seeds: u64,
    /// Base sides in the non-grid topology matrix (a side-`s` entry means
    /// an `s × s` defective grid and an `s × s` heavy-hex lattice).
    pub defect_sides: Vec<usize>,
    /// Seeds per defect cell (`0..defect_seeds`).
    pub defect_seeds: u64,
}

impl BenchConfig {
    /// The canonical full matrix: permutation sides {4, 8, 16, 32} at 5
    /// seeds, circuit sides {4, 8} at 3 seeds, with timing. Side 32
    /// became tractable for every router once the distance-oracle
    /// overhaul removed the per-call `O(n²)` APSP tables; a side-64
    /// permutation matrix works too (`--sides 64 --circuit-sides 8
    /// --seeds 1 --no-time` — `--sides` alone would also point the
    /// *circuit* matrix at side 64, and a full-occupancy 4096-qubit QFT
    /// through the transpile loop is not a bounded-time proposition).
    /// Circuit cells stop at side 8 because a full-occupancy QFT already
    /// drives thousands of routing rounds there.
    pub fn full() -> BenchConfig {
        BenchConfig {
            sides: vec![4, 8, 16, 32],
            seeds: 5,
            timing: true,
            circuit_sides: vec![4, 8],
            circuit_seeds: 3,
            defect_sides: vec![8, 16],
            defect_seeds: 3,
        }
    }

    /// The CI gate configuration: the same sides, fewer seeds, and no
    /// timing — so the committed baseline compares byte-for-byte across
    /// machines.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            sides: vec![4, 8, 16, 32],
            seeds: 2,
            timing: false,
            circuit_sides: vec![4, 8],
            circuit_seeds: 2,
            defect_sides: vec![8, 16],
            defect_seeds: 2,
        }
    }
}

/// One measured cell: a router × workload class × grid side aggregate
/// with full sample summaries over the seed set.
#[derive(Debug, Clone, Serialize)]
pub struct BenchCell {
    /// Router label ([`RouterKind::label`]).
    pub router: String,
    /// Workload class label ([`WorkloadClass::label`]).
    pub class: String,
    /// Grid side (square grids).
    pub side: usize,
    /// Number of qubits (`side * side`).
    pub qubits: usize,
    /// Schedule depth summary over seeds.
    pub depth: SampleSummary,
    /// Swap-count summary over seeds.
    pub size: SampleSummary,
    /// Depth lower bound (max displacement) summary over seeds.
    pub lower_bound: SampleSummary,
    /// Wall-clock routing time summary in milliseconds (all-zero with
    /// `n = 0` when timing capture was disabled).
    pub time_ms: SampleSummary,
}

impl BenchCell {
    /// The cell's identity within a report's matrix.
    pub fn key(&self) -> (&str, &str, usize) {
        (self.router.as_str(), self.class.as_str(), self.side)
    }
}

/// One measured circuit cell: a router × circuit class × grid side
/// aggregate over a seed set of *verified* transpiles (see
/// [`crate::verify`]).
#[derive(Debug, Clone, Serialize)]
pub struct CircuitBenchCell {
    /// Router label ([`RouterKind::label`]).
    pub router: String,
    /// Circuit class label ([`CircuitClass::label`]).
    pub class: String,
    /// Grid side (square grids).
    pub side: usize,
    /// Number of physical wires (`side * side`).
    pub qubits: usize,
    /// Logical register width of the class instance.
    pub logical_qubits: usize,
    /// Gate count of the logical circuit (seed-independent for every
    /// class: generated circuits have fixed structure per size).
    pub logical_gates: usize,
    /// 2-qubit gate count of the logical circuit.
    pub logical_two_qubit: usize,
    /// Whether the statevector equivalence tier ran on every seed
    /// (logical register within the simulator cutoff); the structural
    /// verification tiers always run.
    pub statevector_checked: bool,
    /// SWAP-count summary over seeds.
    pub swaps: SampleSummary,
    /// Routing-depth-added summary over seeds (sum of schedule depths
    /// across routing rounds).
    pub routing_depth: SampleSummary,
    /// Router-invocation (routing round) summary over seeds.
    pub invocations: SampleSummary,
    /// Output-circuit depth summary over seeds (all gates unit cost).
    pub output_depth: SampleSummary,
    /// Wall-clock transpile time summary in milliseconds (all-zero with
    /// `n = 0` when timing capture was disabled).
    pub time_ms: SampleSummary,
}

impl CircuitBenchCell {
    /// The cell's identity within a report's circuit matrix.
    pub fn key(&self) -> (&str, &str, usize) {
        (self.router.as_str(), self.class.as_str(), self.side)
    }
}

/// One measured non-grid topology cell: a router × topology kind × base
/// side aggregate over seeded random permutations of the alive vertices.
///
/// This matrix pins the topology-generic routing path (defective grids
/// and heavy-hex lattices routed through [`qroute_core::GridRouter::route_on`])
/// the same way `cells` pins the square-grid routers.
#[derive(Debug, Clone, Serialize)]
pub struct DefectBenchCell {
    /// Topology kind label: `"defect"` or `"heavy-hex"`.
    pub topology: String,
    /// Router label as given on the axis (`"auto"` stays `"auto"`; the
    /// dispatch policy resolves it per instance).
    pub router: String,
    /// Base side (the defective grid is `side × side`; heavy-hex is the
    /// `side × side` data lattice plus its bridge vertices).
    pub side: usize,
    /// Total vertex count of the topology (for defective grids this
    /// includes the dead vertices — ids are stable).
    pub qubits: usize,
    /// Schedule depth summary over seeds.
    pub depth: SampleSummary,
    /// Swap-count summary over seeds.
    pub size: SampleSummary,
    /// Oracle depth lower bound (max live-graph distance) summary.
    pub lower_bound: SampleSummary,
    /// Wall-clock routing time summary in milliseconds (all-zero with
    /// `n = 0` when timing capture was disabled).
    pub time_ms: SampleSummary,
}

impl DefectBenchCell {
    /// The cell's identity within a report's defect matrix.
    pub fn key(&self) -> (&str, &str, usize) {
        (self.topology.as_str(), self.router.as_str(), self.side)
    }
}

/// Relative mean-depth regression tolerance for defect cells. The
/// token-swapping heuristics on irregular topologies legitimately trade
/// depth as tie-breaking changes, so they get the looser 5%.
pub const DEFECT_DEPTH_TOLERANCE: f64 = 0.05;

/// The topology-kind axis of the defect matrix.
pub const DEFECT_TOPOLOGY_AXIS: [&str; 2] = ["defect", "heavy-hex"];

/// The router axis of the defect matrix: `ats` (the topology-generic
/// router) and `auto` (pinning the dispatch fallback on non-grid
/// topologies).
pub const DEFECT_ROUTER_AXIS: [&str; 2] = ["ats", "auto"];

/// The deterministic defect pattern for a `side × side` grid: interior
/// vertices at `(r, c)` for `r, c ∈ {1, 5, 9, …}`. Scattered isolated
/// holes — the residual grid always stays connected.
pub fn defect_pattern(side: usize) -> Vec<usize> {
    let grid = Grid::new(side, side);
    let mut defects = Vec::new();
    for r in (1..side).step_by(4) {
        for c in (1..side).step_by(4) {
            defects.push(grid.index(r, c));
        }
    }
    defects
}

/// Build the benchmark topology for one kind label and base side.
pub fn defect_topology(kind: &str, side: usize) -> Topology {
    match kind {
        "defect" => Topology::grid_with_defects(Grid::new(side, side), &defect_pattern(side), &[])
            .expect("the scattered interior pattern is always valid"),
        "heavy-hex" => Topology::heavy_hex(side, side),
        other => panic!("unknown defect-matrix topology kind {other:?}"),
    }
}

/// A seeded uniform permutation of the alive vertices of `topology`
/// (fixing the dead ones).
fn alive_random(topology: &Topology, seed: u64) -> qroute_perm::Permutation {
    let alive: Vec<usize> = (0..topology.len())
        .filter(|&v| topology.is_alive(v))
        .collect();
    let shuffled = qroute_perm::generators::random(alive.len(), seed);
    let mut map: Vec<usize> = (0..topology.len()).collect();
    for (k, &v) in alive.iter().enumerate() {
        map[v] = alive[shuffled.apply(k)];
    }
    qroute_perm::Permutation::from_vec(map).expect("permutation of the alive vertices")
}

/// Measure one defect cell: route `seeds` random alive-vertex
/// permutations of the topology, verify every schedule, and summarize.
pub fn measure_defect_cell(
    side: usize,
    kind: &str,
    router_label: &str,
    seeds: u64,
    timing: bool,
) -> DefectBenchCell {
    let topology = defect_topology(kind, side);
    let graph = topology.graph();
    let mut depths = Vec::with_capacity(seeds as usize);
    let mut sizes = Vec::with_capacity(seeds as usize);
    let mut lbs = Vec::with_capacity(seeds as usize);
    let mut times = Vec::with_capacity(seeds as usize);
    for seed in 0..seeds {
        let pi = alive_random(&topology, seed);
        let router = match router_label {
            "auto" => qroute_service::select_router_on(&topology, &pi),
            label => label.parse::<RouterKind>().expect("valid router label"),
        };
        let t0 = std::time::Instant::now();
        let schedule = router
            .route_on(&topology, &pi)
            .expect("the defect-matrix routers accept any connected topology");
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            schedule.realizes(&pi),
            "{router_label} produced a wrong schedule on {topology}"
        );
        schedule
            .validate_on(&graph)
            .unwrap_or_else(|e| panic!("{router_label} infeasible on {topology}: {e:?}"));
        let oracle = topology.oracle(&graph);
        depths.push(schedule.depth() as f64);
        sizes.push(schedule.size() as f64);
        lbs.push(qroute_perm::metrics::depth_lower_bound_oracle(&oracle, &pi) as f64);
        if timing {
            times.push(elapsed_ms);
        }
    }
    DefectBenchCell {
        topology: kind.to_string(),
        router: router_label.to_string(),
        side,
        qubits: topology.len(),
        depth: SampleSummary::from_samples(&depths),
        size: SampleSummary::from_samples(&sizes),
        lower_bound: SampleSummary::from_samples(&lbs),
        time_ms: SampleSummary::from_samples(&times),
    }
}

/// A complete benchmark report — the `BENCH.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Build environment metadata.
    pub env: BenchEnv,
    /// Run configuration.
    pub config: BenchConfig,
    /// The permutation cell matrix, sorted by (router, class, side).
    pub cells: Vec<BenchCell>,
    /// The circuit cell matrix, sorted by (router, class, side).
    pub circuit_cells: Vec<CircuitBenchCell>,
    /// The non-grid topology matrix, sorted by (topology, router, side).
    /// Gated like the permutation matrix (mean depth, 5% tolerance).
    pub defect_cells: Vec<DefectBenchCell>,
}

/// The router axis of the permutation benchmark matrix: every
/// [`RouterKind`] in its default configuration.
pub fn bench_routers() -> Vec<RouterKind> {
    RouterKind::all_default()
}

/// The router axis of the circuit benchmark matrix: the routers that
/// matter inside the transpile loop (§V compares exactly these — the
/// paper router, the naive baseline, the hybrid clamp, and ATS). The
/// remaining kinds are permutation-level reference implementations.
pub fn circuit_routers() -> Vec<RouterKind> {
    vec![
        RouterKind::locality_aware(),
        RouterKind::naive(),
        RouterKind::hybrid(),
        RouterKind::Ats,
    ]
}

/// Measure one circuit cell: transpile `seeds` seeded instances, verify
/// every transpile through the differential harness (panicking on any
/// verification failure — a benchmark must not record wrong answers),
/// and summarize each metric's per-seed samples.
pub fn measure_circuit_cell(
    side: usize,
    class: CircuitClass,
    router: &RouterKind,
    seeds: u64,
    timing: bool,
) -> CircuitBenchCell {
    let grid = Grid::new(side, side);
    let mut swaps = Vec::with_capacity(seeds as usize);
    let mut routing_depth = Vec::with_capacity(seeds as usize);
    let mut invocations = Vec::with_capacity(seeds as usize);
    let mut output_depth = Vec::with_capacity(seeds as usize);
    let mut times = Vec::with_capacity(seeds as usize);
    let mut logical_shape = (0usize, 0usize, 0usize);
    let mut statevector_checked = true;
    for seed in 0..seeds {
        let (logical, layout) = class.generate(grid, seed);
        logical_shape = (
            logical.num_qubits(),
            logical.size(),
            logical.two_qubit_count(),
        );
        let transpiler = Transpiler::new(
            grid,
            TranspileOptions { router: router.clone(), initial_layout: layout },
        );
        let t0 = std::time::Instant::now();
        let res = transpiler.run(&logical);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let summary = verify_transpile(grid, &logical, &res).unwrap_or_else(|e| {
            panic!(
                "{} failed verification on {}/{side}x{side}/seed {seed}: {e}",
                router.label(),
                class.label()
            )
        });
        statevector_checked &= summary.statevector_checked;
        swaps.push(res.swap_count as f64);
        routing_depth.push(res.routing_depth_added as f64);
        invocations.push(res.routing_invocations as f64);
        output_depth.push(res.physical.depth() as f64);
        if timing {
            times.push(elapsed_ms);
        }
    }
    CircuitBenchCell {
        router: router.label().to_string(),
        class: class.label(),
        side,
        qubits: grid.len(),
        logical_qubits: logical_shape.0,
        logical_gates: logical_shape.1,
        logical_two_qubit: logical_shape.2,
        statevector_checked,
        swaps: SampleSummary::from_samples(&swaps),
        routing_depth: SampleSummary::from_samples(&routing_depth),
        invocations: SampleSummary::from_samples(&invocations),
        output_depth: SampleSummary::from_samples(&output_depth),
        time_ms: SampleSummary::from_samples(&times),
    }
}

/// Measure one benchmark cell: route `seeds` instances, verify every
/// schedule, and summarize each metric's per-seed samples.
pub fn measure_bench_cell(
    side: usize,
    class: WorkloadClass,
    router: &RouterKind,
    seeds: u64,
    timing: bool,
) -> BenchCell {
    let grid = Grid::new(side, side);
    let mut depths = Vec::with_capacity(seeds as usize);
    let mut sizes = Vec::with_capacity(seeds as usize);
    let mut lbs = Vec::with_capacity(seeds as usize);
    let mut times = Vec::with_capacity(seeds as usize);
    for seed in 0..seeds {
        let pi = class.generate(grid, seed);
        let timed = route_timed(grid, &pi, router);
        assert!(
            timed.schedule.realizes(&pi),
            "{} produced a wrong schedule",
            router.label()
        );
        depths.push(timed.stats.depth as f64);
        sizes.push(timed.stats.size as f64);
        lbs.push(timed.stats.lower_bound as f64);
        if timing {
            times.push(timed.route_ms);
        }
    }
    BenchCell {
        router: router.label().to_string(),
        class: class.label(),
        side,
        qubits: grid.len(),
        depth: SampleSummary::from_samples(&depths),
        size: SampleSummary::from_samples(&sizes),
        lower_bound: SampleSummary::from_samples(&lbs),
        time_ms: SampleSummary::from_samples(&times),
    }
}

fn canonical_key_order<T, F>(cells: &mut [T], key: F)
where
    F: Fn(&T) -> (&str, &str, usize),
{
    cells.sort_by(|a, b| key(a).cmp(&key(b)));
}

/// Run the full benchmark matrix — permutation cells (all
/// [`bench_routers`] × [`WorkloadClass::bench_classes`] × `config.sides`)
/// and circuit cells (all [`circuit_routers`] ×
/// [`CircuitClass::all_classes`] × `config.circuit_sides`) — and return
/// the report with both matrices in canonical (router, class, side)
/// order.
///
/// Untimed runs measure cells in parallel via rayon (depth, size and
/// swap counts do not depend on wall-clock); timed runs measure serially
/// so time samples are not distorted by core contention — the same
/// discipline [`crate::experiments::figure5`] applies.
pub fn run_bench(config: &BenchConfig) -> BenchReport {
    let timing = config.timing;
    let seeds = config.seeds;
    let circuit_seeds = config.circuit_seeds;

    let mut jobs: Vec<(usize, WorkloadClass, RouterKind)> = Vec::new();
    for &side in &config.sides {
        for class in WorkloadClass::bench_classes() {
            for router in bench_routers() {
                jobs.push((side, class, router));
            }
        }
    }
    let measure = |(side, class, router): (usize, WorkloadClass, RouterKind)| -> BenchCell {
        measure_bench_cell(side, class, &router, seeds, timing)
    };

    let mut circuit_jobs: Vec<(usize, CircuitClass, RouterKind)> = Vec::new();
    for &side in &config.circuit_sides {
        for class in CircuitClass::all_classes() {
            for router in circuit_routers() {
                circuit_jobs.push((side, class, router));
            }
        }
    }
    let measure_circuit =
        |(side, class, router): (usize, CircuitClass, RouterKind)| -> CircuitBenchCell {
            measure_circuit_cell(side, class, &router, circuit_seeds, timing)
        };

    let defect_seeds = config.defect_seeds;
    let mut defect_jobs: Vec<(usize, &'static str, &'static str)> = Vec::new();
    for &side in &config.defect_sides {
        for kind in DEFECT_TOPOLOGY_AXIS {
            for router in DEFECT_ROUTER_AXIS {
                defect_jobs.push((side, kind, router));
            }
        }
    }
    let measure_defect = |(side, kind, router): (usize, &str, &str)| -> DefectBenchCell {
        measure_defect_cell(side, kind, router, defect_seeds, timing)
    };

    let (mut cells, mut circuit_cells, mut defect_cells): (
        Vec<BenchCell>,
        Vec<CircuitBenchCell>,
        Vec<DefectBenchCell>,
    ) = if timing {
        (
            jobs.into_iter().map(measure).collect(),
            circuit_jobs.into_iter().map(measure_circuit).collect(),
            defect_jobs.into_iter().map(measure_defect).collect(),
        )
    } else {
        (
            jobs.into_par_iter().map(measure).collect(),
            circuit_jobs.into_par_iter().map(measure_circuit).collect(),
            defect_jobs.into_par_iter().map(measure_defect).collect(),
        )
    };
    canonical_key_order(&mut cells, BenchCell::key);
    canonical_key_order(&mut circuit_cells, CircuitBenchCell::key);
    canonical_key_order(&mut defect_cells, DefectBenchCell::key);
    BenchReport {
        schema_version: SCHEMA_VERSION,
        env: BenchEnv::capture(),
        config: config.clone(),
        cells,
        circuit_cells,
        defect_cells,
    }
}

/// A focused permutation-only run for router smoke checks (`repro bench
/// --routers`): the permutation matrix restricted to `routers`, every
/// other matrix skipped. Reuses the run configuration (sides, seeds,
/// timing) and the report schema, so the output is a valid `BENCH.json`
/// whose circuit and defect matrices are empty.
pub fn run_router_smoke(config: &BenchConfig, routers: &[RouterKind]) -> BenchReport {
    let timing = config.timing;
    let seeds = config.seeds;
    let mut jobs: Vec<(usize, WorkloadClass, RouterKind)> = Vec::new();
    for &side in &config.sides {
        for class in WorkloadClass::bench_classes() {
            for router in routers {
                jobs.push((side, class, router.clone()));
            }
        }
    }
    let measure = |(side, class, router): (usize, WorkloadClass, RouterKind)| -> BenchCell {
        measure_bench_cell(side, class, &router, seeds, timing)
    };
    let mut cells: Vec<BenchCell> = if timing {
        jobs.into_iter().map(measure).collect()
    } else {
        jobs.into_par_iter().map(measure).collect()
    };
    canonical_key_order(&mut cells, BenchCell::key);
    BenchReport {
        schema_version: SCHEMA_VERSION,
        env: BenchEnv::capture(),
        config: config.clone(),
        cells,
        circuit_cells: Vec::new(),
        defect_cells: Vec::new(),
    }
}

impl BenchReport {
    /// Serialize to the canonical `BENCH.json` encoding: pretty-printed
    /// JSON with declaration-ordered keys and a trailing newline. For a
    /// fixed configuration with timing disabled, the output is
    /// byte-identical across runs and machines.
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("serialize bench report");
        json.push('\n');
        json
    }

    /// Parse a report back from its JSON encoding (e.g. a committed
    /// baseline). Rejects schema-version mismatches and malformed cells.
    pub fn from_json(input: &str) -> Result<BenchReport, String> {
        let doc = serde_json::from_str(input).map_err(|e| e.to_string())?;
        let version = doc
            .get("schema_version")
            .and_then(|v| v.as_u64())
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} != supported {SCHEMA_VERSION}; regenerate the baseline"
            ));
        }
        let str_field = |v: &serde_json::Value, key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(|x| x.as_str())
                .ok_or_else(|| format!("missing string field {key:?}"))?
                .to_string())
        };
        let num_field = |v: &serde_json::Value, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        // Strict: fractional or negative values are malformed, not
        // truncatable — a hand-edited "side": 4.5 must not silently
        // collide with the real side-4 cell.
        let uint_field = |v: &serde_json::Value, key: &str| -> Result<usize, String> {
            v.get(key)
                .and_then(|x| x.as_u64())
                .map(|x| x as usize)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };
        let summary_field = |v: &serde_json::Value, key: &str| -> Result<SampleSummary, String> {
            let s = v
                .get(key)
                .ok_or_else(|| format!("missing summary {key:?}"))?;
            Ok(SampleSummary {
                n: uint_field(s, "n")?,
                mean: num_field(s, "mean")?,
                min: num_field(s, "min")?,
                p50: num_field(s, "p50")?,
                p90: num_field(s, "p90")?,
                max: num_field(s, "max")?,
            })
        };
        let bool_field = |v: &serde_json::Value, key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(|x| x.as_bool())
                .ok_or_else(|| format!("missing boolean field {key:?}"))
        };
        let side_list = |v: &serde_json::Value, key: &str| -> Result<Vec<usize>, String> {
            v.get(key)
                .and_then(|x| x.as_array())
                .ok_or_else(|| format!("missing config.{key}"))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .map(|s| s as usize)
                        .ok_or_else(|| "bad side".to_string())
                })
                .collect()
        };
        let env_v = doc.get("env").ok_or("missing env")?;
        let config_v = doc.get("config").ok_or("missing config")?;
        let cells_v = doc
            .get("cells")
            .and_then(|v| v.as_array())
            .ok_or("missing cells array")?;
        let mut cells = Vec::with_capacity(cells_v.len());
        for c in cells_v {
            cells.push(BenchCell {
                router: str_field(c, "router")?,
                class: str_field(c, "class")?,
                side: uint_field(c, "side")?,
                qubits: uint_field(c, "qubits")?,
                depth: summary_field(c, "depth")?,
                size: summary_field(c, "size")?,
                lower_bound: summary_field(c, "lower_bound")?,
                time_ms: summary_field(c, "time_ms")?,
            });
        }
        let circuit_cells_v = doc
            .get("circuit_cells")
            .and_then(|v| v.as_array())
            .ok_or("missing circuit_cells array")?;
        let mut circuit_cells = Vec::with_capacity(circuit_cells_v.len());
        for c in circuit_cells_v {
            circuit_cells.push(CircuitBenchCell {
                router: str_field(c, "router")?,
                class: str_field(c, "class")?,
                side: uint_field(c, "side")?,
                qubits: uint_field(c, "qubits")?,
                logical_qubits: uint_field(c, "logical_qubits")?,
                logical_gates: uint_field(c, "logical_gates")?,
                logical_two_qubit: uint_field(c, "logical_two_qubit")?,
                statevector_checked: bool_field(c, "statevector_checked")?,
                swaps: summary_field(c, "swaps")?,
                routing_depth: summary_field(c, "routing_depth")?,
                invocations: summary_field(c, "invocations")?,
                output_depth: summary_field(c, "output_depth")?,
                time_ms: summary_field(c, "time_ms")?,
            });
        }
        let defect_cells_v = doc
            .get("defect_cells")
            .and_then(|v| v.as_array())
            .ok_or("missing defect_cells array")?;
        let mut defect_cells = Vec::with_capacity(defect_cells_v.len());
        for c in defect_cells_v {
            defect_cells.push(DefectBenchCell {
                topology: str_field(c, "topology")?,
                router: str_field(c, "router")?,
                side: uint_field(c, "side")?,
                qubits: uint_field(c, "qubits")?,
                depth: summary_field(c, "depth")?,
                size: summary_field(c, "size")?,
                lower_bound: summary_field(c, "lower_bound")?,
                time_ms: summary_field(c, "time_ms")?,
            });
        }
        Ok(BenchReport {
            schema_version: version,
            env: BenchEnv {
                version: str_field(env_v, "version")?,
                os: str_field(env_v, "os")?,
                arch: str_field(env_v, "arch")?,
                debug_assertions: bool_field(env_v, "debug_assertions")?,
            },
            config: BenchConfig {
                sides: side_list(config_v, "sides")?,
                seeds: config_v
                    .get("seeds")
                    .and_then(|v| v.as_u64())
                    .ok_or("missing config.seeds")?,
                timing: bool_field(config_v, "timing")?,
                circuit_sides: side_list(config_v, "circuit_sides")?,
                circuit_seeds: config_v
                    .get("circuit_seeds")
                    .and_then(|v| v.as_u64())
                    .ok_or("missing config.circuit_seeds")?,
                defect_sides: side_list(config_v, "defect_sides")?,
                defect_seeds: config_v
                    .get("defect_seeds")
                    .and_then(|v| v.as_u64())
                    .ok_or("missing config.defect_seeds")?,
            },
            cells,
            circuit_cells,
            defect_cells,
        })
    }
}

/// One metric comparison between a current cell and its baseline cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellDelta {
    /// Router label.
    pub router: String,
    /// Class label.
    pub class: String,
    /// Grid side.
    pub side: usize,
    /// Which metric regressed-or-not: `"depth"` or `"time_ms"`.
    pub metric: String,
    /// Baseline mean.
    pub baseline_mean: f64,
    /// Current mean.
    pub current_mean: f64,
    /// Relative change (`0.10` = 10% worse than baseline).
    pub delta: f64,
    /// Tolerance the delta was judged against.
    pub tolerance: f64,
    /// `true` when `delta > tolerance`.
    pub regressed: bool,
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Every metric comparison made (depth always; time when both
    /// reports captured timing).
    pub deltas: Vec<CellDelta>,
    /// Baseline cell keys absent from the current report. A non-empty
    /// list fails the check: a gate that silently drops cells is no gate.
    pub missing_in_current: Vec<String>,
    /// Current cell keys absent from the baseline (informational — new
    /// routers/classes/sides are expected to appear before the baseline
    /// is refreshed).
    pub new_in_current: Vec<String>,
    /// Cells whose seed counts differ between the reports. Means over
    /// different sample sets are not comparable (a delta could come
    /// purely from the extra seeds), so these fail the check instead of
    /// being diffed.
    pub seed_mismatches: Vec<String>,
}

impl CheckOutcome {
    /// The comparisons that exceeded tolerance.
    pub fn regressions(&self) -> Vec<&CellDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// `true` when no metric regressed, no baseline cell went missing,
    /// and every compared cell used the same seed count.
    pub fn passed(&self) -> bool {
        self.missing_in_current.is_empty()
            && self.seed_mismatches.is_empty()
            && self.regressions().is_empty()
    }
}

/// Compare `current` against `baseline` cell-by-cell, over both the
/// permutation and the circuit matrices.
///
/// Permutation cells: mean depth is gated per class by
/// [`depth_tolerance`]. Circuit cells: mean routing depth added *and*
/// mean swap count are gated per class by [`circuit_tolerance`] (inside
/// the transpile loop the two trade off differently than in isolated
/// permutations, so both are pinned). Mean time is gated by
/// [`TIME_TOLERANCE`] when both cells captured timing (`n > 0`).
/// Size/lower bound (permutation) and invocations/output depth (circuit)
/// are recorded but not gated.
pub fn check_against_baseline(current: &BenchReport, baseline: &BenchReport) -> CheckOutcome {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    let mut seed_mismatches = Vec::new();
    for base in &baseline.cells {
        let Some(cur) = current.cells.iter().find(|c| c.key() == base.key()) else {
            missing.push(format!(
                "{}/{}/{side}x{side}",
                base.router,
                base.class,
                side = base.side
            ));
            continue;
        };
        if cur.depth.n != base.depth.n {
            seed_mismatches.push(format!(
                "{}/{}/{side}x{side}: {} seeds vs baseline {}",
                base.router,
                base.class,
                cur.depth.n,
                base.depth.n,
                side = base.side
            ));
            continue;
        }
        let depth_tol = cell_depth_tolerance(&base.router, &base.class);
        let depth_delta = cur.depth.mean_delta(&base.depth);
        deltas.push(CellDelta {
            router: base.router.clone(),
            class: base.class.clone(),
            side: base.side,
            metric: "depth".to_string(),
            baseline_mean: base.depth.mean,
            current_mean: cur.depth.mean,
            delta: depth_delta,
            tolerance: depth_tol,
            regressed: depth_delta > depth_tol,
        });
        if base.time_ms.n > 0 && cur.time_ms.n > 0 {
            let time_delta = cur.time_ms.mean_delta(&base.time_ms);
            deltas.push(CellDelta {
                router: base.router.clone(),
                class: base.class.clone(),
                side: base.side,
                metric: "time_ms".to_string(),
                baseline_mean: base.time_ms.mean,
                current_mean: cur.time_ms.mean,
                delta: time_delta,
                tolerance: TIME_TOLERANCE,
                regressed: time_delta > TIME_TOLERANCE,
            });
        }
    }
    for base in &baseline.circuit_cells {
        let Some(cur) = current.circuit_cells.iter().find(|c| c.key() == base.key()) else {
            missing.push(format!(
                "circuit:{}/{}/{side}x{side}",
                base.router,
                base.class,
                side = base.side
            ));
            continue;
        };
        if cur.swaps.n != base.swaps.n {
            seed_mismatches.push(format!(
                "circuit:{}/{}/{side}x{side}: {} seeds vs baseline {}",
                base.router,
                base.class,
                cur.swaps.n,
                base.swaps.n,
                side = base.side
            ));
            continue;
        }
        let tol = circuit_tolerance(&base.class);
        for (metric, cur_s, base_s) in [
            ("routing_depth", &cur.routing_depth, &base.routing_depth),
            ("swaps", &cur.swaps, &base.swaps),
        ] {
            let delta = cur_s.mean_delta(base_s);
            deltas.push(CellDelta {
                router: base.router.clone(),
                class: base.class.clone(),
                side: base.side,
                metric: metric.to_string(),
                baseline_mean: base_s.mean,
                current_mean: cur_s.mean,
                delta,
                tolerance: tol,
                regressed: delta > tol,
            });
        }
        if base.time_ms.n > 0 && cur.time_ms.n > 0 {
            let time_delta = cur.time_ms.mean_delta(&base.time_ms);
            deltas.push(CellDelta {
                router: base.router.clone(),
                class: base.class.clone(),
                side: base.side,
                metric: "time_ms".to_string(),
                baseline_mean: base.time_ms.mean,
                current_mean: cur.time_ms.mean,
                delta: time_delta,
                tolerance: TIME_TOLERANCE,
                regressed: time_delta > TIME_TOLERANCE,
            });
        }
    }
    for base in &baseline.defect_cells {
        let Some(cur) = current.defect_cells.iter().find(|c| c.key() == base.key()) else {
            missing.push(format!(
                "defect:{}/{}/side{}",
                base.topology, base.router, base.side
            ));
            continue;
        };
        if cur.depth.n != base.depth.n {
            seed_mismatches.push(format!(
                "defect:{}/{}/side{}: {} seeds vs baseline {}",
                base.topology, base.router, base.side, cur.depth.n, base.depth.n
            ));
            continue;
        }
        let depth_delta = cur.depth.mean_delta(&base.depth);
        deltas.push(CellDelta {
            router: base.router.clone(),
            class: base.topology.clone(),
            side: base.side,
            metric: "depth".to_string(),
            baseline_mean: base.depth.mean,
            current_mean: cur.depth.mean,
            delta: depth_delta,
            tolerance: DEFECT_DEPTH_TOLERANCE,
            regressed: depth_delta > DEFECT_DEPTH_TOLERANCE,
        });
        if base.time_ms.n > 0 && cur.time_ms.n > 0 {
            let time_delta = cur.time_ms.mean_delta(&base.time_ms);
            deltas.push(CellDelta {
                router: base.router.clone(),
                class: base.topology.clone(),
                side: base.side,
                metric: "time_ms".to_string(),
                baseline_mean: base.time_ms.mean,
                current_mean: cur.time_ms.mean,
                delta: time_delta,
                tolerance: TIME_TOLERANCE,
                regressed: time_delta > TIME_TOLERANCE,
            });
        }
    }
    let mut new_in_current: Vec<String> = current
        .cells
        .iter()
        .filter(|c| !baseline.cells.iter().any(|b| b.key() == c.key()))
        .map(|c| format!("{}/{}/{side}x{side}", c.router, c.class, side = c.side))
        .collect();
    new_in_current.extend(
        current
            .circuit_cells
            .iter()
            .filter(|c| !baseline.circuit_cells.iter().any(|b| b.key() == c.key()))
            .map(|c| {
                format!(
                    "circuit:{}/{}/{side}x{side}",
                    c.router,
                    c.class,
                    side = c.side
                )
            }),
    );
    new_in_current.extend(
        current
            .defect_cells
            .iter()
            .filter(|c| !baseline.defect_cells.iter().any(|b| b.key() == c.key()))
            .map(|c| format!("defect:{}/{}/side{}", c.topology, c.router, c.side)),
    );
    CheckOutcome { deltas, missing_in_current: missing, new_in_current, seed_mismatches }
}

/// Render a markdown delta table for the given comparisons (typically
/// [`CheckOutcome::regressions`], worst first).
pub fn delta_table_markdown(deltas: &[&CellDelta]) -> String {
    let mut out = String::from(
        "| router | class | n×n | metric | baseline | current | delta | tolerance |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let mut sorted: Vec<&&CellDelta> = deltas.iter().collect();
    sorted.sort_by(|a, b| {
        b.delta
            .partial_cmp(&a.delta)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for d in sorted {
        let _ = writeln!(
            out,
            "| {} | {} | {side}×{side} | {} | {:.3} | {:.3} | {:+.1}% | {:.1}% |",
            d.router,
            d.class,
            d.metric,
            d.baseline_mean,
            d.current_mean,
            d.delta * 100.0,
            d.tolerance * 100.0,
            side = d.side,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            sides: vec![4],
            seeds: 2,
            timing: false,
            circuit_sides: vec![4],
            circuit_seeds: 1,
            defect_sides: vec![5],
            defect_seeds: 1,
        }
    }

    #[test]
    fn report_covers_full_matrix() {
        let report = run_bench(&tiny_config());
        let routers = bench_routers().len();
        let classes = WorkloadClass::bench_classes().len();
        assert_eq!(report.cells.len(), routers * classes);
        assert_eq!(
            report.circuit_cells.len(),
            circuit_routers().len() * CircuitClass::all_classes().len()
        );
        assert_eq!(
            report.defect_cells.len(),
            DEFECT_TOPOLOGY_AXIS.len() * DEFECT_ROUTER_AXIS.len()
        );
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        // Canonical order: sorted by (router, class, side), both matrices.
        let keys: Vec<_> = report
            .cells
            .iter()
            .map(|c| (c.router.clone(), c.class.clone(), c.side))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let ckeys: Vec<_> = report
            .circuit_cells
            .iter()
            .map(|c| (c.router.clone(), c.class.clone(), c.side))
            .collect();
        let mut csorted = ckeys.clone();
        csorted.sort();
        assert_eq!(ckeys, csorted);
    }

    #[test]
    fn circuit_cells_record_verified_metrics() {
        let cell = measure_circuit_cell(
            4,
            CircuitClass::QasmReplay,
            &RouterKind::locality_aware(),
            2,
            false,
        );
        assert_eq!(cell.qubits, 16);
        assert_eq!(cell.logical_qubits, 10);
        assert!(cell.logical_two_qubit > 0);
        // 10 logical qubits is within the simulator cutoff: every seed
        // was statevector-verified against the logical circuit.
        assert!(cell.statevector_checked);
        assert!(cell.swaps.mean > 0.0, "scattered replay must route");
        assert_eq!(cell.swaps.n, 2);
        assert_eq!(cell.time_ms.n, 0, "untimed cell records no samples");

        // Full-occupancy classes exceed the cutoff but still pass the
        // structural verification tiers.
        let wide = measure_circuit_cell(4, CircuitClass::SparseRandom, &RouterKind::Ats, 1, false);
        assert!(!wide.statevector_checked);
        assert_eq!(wide.logical_qubits, 16);
    }

    #[test]
    fn untimed_reports_are_byte_identical() {
        let a = run_bench(&tiny_config()).to_json();
        let b = run_bench(&tiny_config()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let report = run_bench(&tiny_config());
        let parsed = BenchReport::from_json(&report.to_json()).expect("parse own output");
        assert_eq!(parsed.to_json(), report.to_json());
    }

    #[test]
    fn from_json_rejects_fractional_integer_fields() {
        let report = run_bench(&tiny_config());
        let tampered = report.to_json().replacen("\"side\": 4", "\"side\": 4.5", 1);
        let err = BenchReport::from_json(&tampered).unwrap_err();
        assert!(err.contains("side"), "{err}");
    }

    #[test]
    fn from_json_rejects_wrong_schema_version() {
        let mut report = run_bench(&tiny_config());
        report.schema_version = SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn identical_reports_pass_the_check() {
        let report = run_bench(&tiny_config());
        let outcome = check_against_baseline(&report, &report);
        assert!(outcome.passed());
        assert!(outcome.missing_in_current.is_empty());
        assert!(outcome.new_in_current.is_empty());
        // One depth comparison per permutation cell, two gated metrics
        // per circuit cell, one depth comparison per defect cell; no
        // timing comparisons.
        assert_eq!(
            outcome.deltas.len(),
            report.cells.len() + 2 * report.circuit_cells.len() + report.defect_cells.len()
        );
    }

    #[test]
    fn injected_circuit_regression_fails_the_check() {
        let current = run_bench(&tiny_config());
        let mut baseline = current.clone();
        // Pretend the baseline needed 20% fewer swaps than we do now.
        let cell = baseline
            .circuit_cells
            .iter_mut()
            .find(|c| c.swaps.mean > 1.0)
            .expect("some circuit cell routes");
        cell.swaps.mean /= 1.2;
        let outcome = check_against_baseline(&current, &baseline);
        assert!(!outcome.passed());
        let regs = outcome.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "swaps");
    }

    #[test]
    fn missing_circuit_cell_fails_the_check() {
        let full = run_bench(&tiny_config());
        let mut truncated = full.clone();
        truncated.circuit_cells.pop();
        let outcome = check_against_baseline(&truncated, &full);
        assert!(!outcome.passed());
        assert_eq!(outcome.missing_in_current.len(), 1);
        assert!(outcome.missing_in_current[0].starts_with("circuit:"));
        // The reverse direction: an extra circuit cell passes.
        let outcome = check_against_baseline(&full, &truncated);
        assert!(outcome.passed());
        assert_eq!(outcome.new_in_current.len(), 1);
    }

    #[test]
    fn injected_depth_regression_fails_the_check() {
        let current = run_bench(&tiny_config());
        let mut baseline = current.clone();
        // Pretend the baseline was 20% shallower than what we measure now.
        baseline.cells[0].depth.mean = (current.cells[0].depth.mean / 1.2).max(0.1);
        let outcome = check_against_baseline(&current, &baseline);
        assert!(!outcome.passed());
        let regs = outcome.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "depth");
        let table = delta_table_markdown(&regs);
        assert!(table.contains("depth"), "{table}");
        assert!(table.contains('%'), "{table}");
    }

    #[test]
    fn runtime_regression_beyond_25_percent_fails() {
        let mut current = run_bench(&tiny_config());
        let mut baseline = current.clone();
        baseline.cells[0].time_ms = SampleSummary::from_samples(&[1.0, 1.0]);
        current.cells[0].time_ms = SampleSummary::from_samples(&[1.3, 1.3]);
        let outcome = check_against_baseline(&current, &baseline);
        let regs = outcome.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "time_ms");
        // 20% slower stays within tolerance.
        current.cells[0].time_ms = SampleSummary::from_samples(&[1.2, 1.2]);
        assert!(check_against_baseline(&current, &baseline).passed());
    }

    #[test]
    fn missing_baseline_cells_fail_new_cells_do_not() {
        let full = run_bench(&tiny_config());
        let mut truncated = full.clone();
        truncated.cells.pop();
        // Current is missing a baseline cell → fail.
        let outcome = check_against_baseline(&truncated, &full);
        assert!(!outcome.passed());
        assert_eq!(outcome.missing_in_current.len(), 1);
        // Current has an extra cell the baseline lacks → pass.
        let outcome = check_against_baseline(&full, &truncated);
        assert!(outcome.passed());
        assert_eq!(outcome.new_in_current.len(), 1);
    }

    #[test]
    fn differing_seed_counts_fail_instead_of_comparing_means() {
        let current = run_bench(&tiny_config());
        let more_seeds = run_bench(&BenchConfig {
            seeds: 3,
            circuit_seeds: 2,
            defect_seeds: 2,
            ..tiny_config()
        });
        let outcome = check_against_baseline(&more_seeds, &current);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.seed_mismatches.len(),
            current.cells.len() + current.circuit_cells.len() + current.defect_cells.len()
        );
        // No means were diffed for mismatched cells.
        assert!(outcome.deltas.is_empty());
    }

    #[test]
    fn defect_cells_measure_real_routes() {
        for kind in DEFECT_TOPOLOGY_AXIS {
            for router in DEFECT_ROUTER_AXIS {
                let cell = measure_defect_cell(5, kind, router, 2, false);
                assert_eq!(cell.topology, kind);
                assert_eq!(cell.router, router);
                assert_eq!(cell.qubits, defect_topology(kind, 5).len());
                assert_eq!(cell.depth.n, 2);
                assert!(
                    cell.depth.mean >= cell.lower_bound.mean,
                    "{kind}/{router}: {cell:?}"
                );
                assert!(cell.size.mean > 0.0, "random workloads must move tokens");
                assert_eq!(cell.time_ms.n, 0, "untimed cell records no samples");
            }
        }
    }

    #[test]
    fn injected_defect_regression_fails_the_check() {
        let current = run_bench(&tiny_config());
        let mut baseline = current.clone();
        baseline.defect_cells[0].depth.mean /= 1.2;
        let outcome = check_against_baseline(&current, &baseline);
        assert!(!outcome.passed());
        let regs = outcome.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "depth");
        assert_eq!(regs[0].class, current.defect_cells[0].topology);
    }

    #[test]
    fn missing_defect_cell_fails_the_check() {
        let full = run_bench(&tiny_config());
        let mut truncated = full.clone();
        truncated.defect_cells.pop();
        let outcome = check_against_baseline(&truncated, &full);
        assert!(!outcome.passed());
        assert!(outcome.missing_in_current[0].starts_with("defect:"));
        let outcome = check_against_baseline(&full, &truncated);
        assert!(outcome.passed());
        assert_eq!(outcome.new_in_current.len(), 1);
    }

    #[test]
    fn defect_patterns_stay_connected_and_interior() {
        for side in [4, 5, 8, 16] {
            let pattern = defect_pattern(side);
            assert!(!pattern.is_empty(), "side {side}");
            let topology = defect_topology("defect", side);
            topology
                .validate_routable()
                .unwrap_or_else(|e| panic!("side {side}: {e}"));
            assert_eq!(topology.dead_vertices(), &pattern[..]);
        }
    }

    #[test]
    fn depth_tolerances_are_class_aware() {
        assert_eq!(depth_tolerance("random"), 0.02);
        assert_eq!(depth_tolerance("block4"), 0.02);
        assert_eq!(depth_tolerance("overlap8s4"), 0.05);
        assert_eq!(depth_tolerance("skinny"), 0.05);
        assert_eq!(depth_tolerance("sparse-pairs"), 0.05);
        assert_eq!(circuit_tolerance("brickwork4"), 0.02);
        assert_eq!(circuit_tolerance("qft"), 0.05);
        assert_eq!(circuit_tolerance("qaoa2"), 0.05);
        assert_eq!(circuit_tolerance("qasm-replay10"), 0.05);
    }

    #[test]
    fn depth_tolerances_are_router_aware() {
        // Pathfinder cells get congestion-schedule headroom on every
        // class; every other router keeps the class-based tolerance.
        assert_eq!(cell_depth_tolerance("pathfinder", "random"), 0.05);
        assert_eq!(cell_depth_tolerance("pathfinder", "sparse-pairs"), 0.05);
        assert_eq!(cell_depth_tolerance("ats", "random"), 0.02);
        assert_eq!(cell_depth_tolerance("ats", "skinny"), 0.05);
        assert_eq!(cell_depth_tolerance("locality-aware", "sparse-pairs"), 0.05);
    }

    #[test]
    fn pathfinder_wins_the_sparse_class_at_side_16() {
        // The acceptance regime for the pathfinder router: on sparse
        // partial permutations at side >= 16 its per-token negotiated
        // search beats the full-grid matching sweeps. The seed count
        // matches `BenchConfig::quick`, so this is exactly the
        // comparison the committed BENCH baseline records.
        let class = WorkloadClass::SparsePairs;
        let seeds = BenchConfig::quick().seeds;
        for side in [16, 32] {
            let pf = measure_bench_cell(side, class, &RouterKind::pathfinder(), seeds, false);
            for rival in [
                RouterKind::locality_aware(),
                RouterKind::naive(),
                RouterKind::hybrid(),
            ] {
                let cell = measure_bench_cell(side, class, &rival, seeds, false);
                assert!(
                    pf.depth.mean < cell.depth.mean,
                    "side {side}: pathfinder mean depth {} vs {} mean depth {}",
                    pf.depth.mean,
                    rival.label(),
                    cell.depth.mean
                );
            }
        }
    }
}
