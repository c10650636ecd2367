//! Seeded job-line generators for the three workloads.
//!
//! Every job line carries an explicit `"perm"` array, so the service sees
//! only the generated lines. Job `i` of a stream depends on the seed and
//! `i` alone, never on how fast the stream is consumed.

use qroute_perm::{generators, metrics, Permutation};
use qroute_topology::{Grid, GridOracle, GridSymmetry, Topology};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct `auto` jobs on full side-32/64 grids through the engine.
    GridCold,
    /// Jobs that end in token swapping, through the engine.
    SwapHeavy,
    /// A Zipf-skewed, symmetry-scrambled stream through a live daemon.
    DaemonHot,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::GridCold, Workload::SwapHeavy, Workload::DaemonHot];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid-cold",
            Workload::SwapHeavy => "swap-heavy",
            Workload::DaemonHot => "daemon-hot",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a tiny seeded generator, so the benchmark's streams do not
/// depend on any RNG the program itself ships.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent sub-seed for item `index` of stream `stream`.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    let a = rng.next_u64();
    Rng::new(a ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db)).next_u64()
}

/// The architecture of a generated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Full square grid.
    Grid,
    /// Square grid with the scattered interior defect pattern.
    Defect,
    /// Heavy-hex lattice.
    HeavyHex,
    /// Brick-wall lattice.
    Brick,
    /// Torus.
    Torus,
}

impl Arch {
    fn label(self) -> &'static str {
        match self {
            Arch::Grid => "grid",
            Arch::Defect => "defect",
            Arch::HeavyHex => "heavy-hex",
            Arch::Brick => "brick",
            Arch::Torus => "torus",
        }
    }

    /// Build the topology on a `side × side` base.
    pub fn topology(self, side: usize) -> Topology {
        let grid = Grid::new(side, side);
        match self {
            Arch::Grid => Topology::Grid(grid),
            Arch::Defect => Topology::grid_with_defects(grid, &defect_pattern(side), &[])
                .expect("the scattered interior pattern keeps the grid connected"),
            Arch::HeavyHex => Topology::heavy_hex(side, side),
            Arch::Brick => Topology::brick_wall(side, side),
            Arch::Torus => Topology::torus(side, side).expect("side >= 3"),
        }
    }

    fn json(self, side: usize) -> String {
        match self {
            Arch::Grid => String::new(),
            Arch::Defect => {
                let ids: Vec<String> = defect_pattern(side).iter().map(usize::to_string).collect();
                format!(
                    r#","topology":{{"kind":"defect","defects":[{}]}}"#,
                    ids.join(",")
                )
            }
            other => format!(r#","topology":{{"kind":"{}"}}"#, other.label()),
        }
    }
}

/// Dead vertices at `(r, c)` for `r, c ∈ {1, 5, 9, …}`: isolated interior
/// holes that never disconnect the grid.
pub fn defect_pattern(side: usize) -> Vec<usize> {
    let grid = Grid::new(side, side);
    let mut dead = Vec::new();
    for r in (1..side).step_by(4) {
        for c in (1..side).step_by(4) {
            dead.push(grid.index(r, c));
        }
    }
    dead
}

/// One kind of job in a workload mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobClass {
    /// Short label naming the class in failure reports (`"hh32"`, `"g64-random"`).
    pub label: &'static str,
    /// Base side.
    pub side: usize,
    /// Architecture.
    pub arch: Arch,
    /// Permutation class: a generator label, or `"alive-random"`.
    pub perm: &'static str,
    /// Router field of the job line (`"auto"` or a pinned label).
    pub router: &'static str,
}

const fn class(
    label: &'static str,
    side: usize,
    arch: Arch,
    perm: &'static str,
    router: &'static str,
) -> JobClass {
    JobClass { label, side, arch, perm, router }
}

/// `grid-cold`: one pass through this table per cycle.
pub const GRID_COLD: [JobClass; 10] = [
    class("g64-random", 64, Arch::Grid, "random", "auto"),
    class("g32-block4", 32, Arch::Grid, "block4", "auto"),
    class("g64-block8", 64, Arch::Grid, "block8", "auto"),
    class("g32-skinny", 32, Arch::Grid, "skinny", "auto"),
    class("g64-sparse", 64, Arch::Grid, "sparse-pairs", "auto"),
    class("g32-random", 32, Arch::Grid, "random", "auto"),
    class("g64-block4", 64, Arch::Grid, "block4", "auto"),
    class("g32-block8", 32, Arch::Grid, "block8", "auto"),
    class("g64-skinny", 64, Arch::Grid, "skinny", "auto"),
    class("g32-sparse", 32, Arch::Grid, "sparse-pairs", "auto"),
];

/// `swap-heavy`: one pass through this list per cycle of 52 jobs. Every
/// job ends in token swapping: `auto` on heavy-hex, brick-wall, torus and
/// defective grids, pinned `ats` and `pathfinder` on side-24 grids, and
/// `auto` on side-64 `overlap8s4`, which dispatches to `ats` for most
/// seeds. Weights keep every class well under half of the routing time
/// and the overlap class at about 4% of the jobs (see README.md).
pub fn swap_heavy_cycle() -> Vec<JobClass> {
    let alive = |label, side, arch| class(label, side, arch, "alive-random", "auto");
    let small = [
        alive("torus16", 16, Arch::Torus),
        alive("brick16", 16, Arch::Brick),
        alive("defect16", 16, Arch::Defect),
        alive("hh16", 16, Arch::HeavyHex),
        class("ats24", 24, Arch::Grid, "random", "ats"),
    ];
    let mid = [
        alive("torus24", 24, Arch::Torus),
        alive("brick24", 24, Arch::Brick),
        alive("defect24", 24, Arch::Defect),
        alive("hh24", 24, Arch::HeavyHex),
        alive("torus28", 28, Arch::Torus),
        alive("defect28", 28, Arch::Defect),
        alive("hh20", 20, Arch::HeavyHex),
        alive("brick20", 20, Arch::Brick),
        alive("torus20", 20, Arch::Torus),
        alive("defect20", 20, Arch::Defect),
    ];
    let heavy = [
        alive("hh28", 28, Arch::HeavyHex),
        class("overlap64", 64, Arch::Grid, "overlap8s4", "auto"),
        class("pathfinder24", 24, Arch::Grid, "random", "pathfinder"),
        alive("brick28", 28, Arch::Brick),
    ];
    let mut cycle = Vec::new();
    for half in 0..2 {
        cycle.extend(small);
        cycle.extend(small);
        cycle.extend(mid);
        cycle.extend(heavy);
        if half == 0 {
            cycle.extend([
                alive("torus32", 32, Arch::Torus),
                alive("defect28", 28, Arch::Defect),
            ]);
        } else {
            cycle.extend([
                alive("hh32", 32, Arch::HeavyHex),
                alive("brick32", 32, Arch::Brick),
            ]);
        }
    }
    cycle
}

/// `daemon-hot`: universe entry `u` has class `DAEMON_HOT[u % len]`.
pub const DAEMON_HOT: [JobClass; 6] = [
    class("g16-random", 16, Arch::Grid, "random", "auto"),
    class("g16-block2", 16, Arch::Grid, "block2", "auto"),
    class("g16-block4", 16, Arch::Grid, "block4", "auto"),
    class("g16-block8", 16, Arch::Grid, "block8", "auto"),
    class("g32-block4", 32, Arch::Grid, "block4", "auto"),
    class("g32-block8", 32, Arch::Grid, "block8", "auto"),
];

/// Universe size of `daemon-hot`: 683 instances of each class, four
/// times the default cache capacity.
pub const UNIVERSE: usize = 683 * DAEMON_HOT.len();

/// Zipf exponent of `daemon-hot` request popularity.
pub const ZIPF_S: f64 = 1.2;

/// A generated instance with the reference quantities the benchmark
/// checks outcomes against.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The job class.
    pub class: JobClass,
    /// The permutation (topology vertex ids).
    pub pi: Permutation,
    /// Depth lower bound, computed independently of the service.
    pub lower_bound: usize,
    /// Total shortest-path distance of all tokens.
    pub total_distance: usize,
}

impl Instance {
    /// Generate `class` with permutation seed `seed`.
    pub fn generate(class: JobClass, seed: u64) -> Instance {
        let topology = class.arch.topology(class.side);
        let pi = match (class.arch, class.perm) {
            (Arch::Grid, label) => grid_perm(Grid::new(class.side, class.side), label, seed),
            (_, "alive-random") => alive_random(&topology, seed),
            (arch, label) => panic!("no generator for {label} on {arch:?}"),
        };
        let (lower_bound, total_distance) = match topology.as_grid() {
            Some(grid) => (
                metrics::depth_lower_bound(grid, &pi),
                metrics::total_distance_oracle(&GridOracle::new(grid), &pi),
            ),
            None => {
                let graph = topology.graph();
                let oracle = topology.oracle(&graph);
                (
                    metrics::depth_lower_bound_oracle(&oracle, &pi),
                    metrics::total_distance_oracle(&oracle, &pi),
                )
            }
        };
        Instance { class, pi, lower_bound, total_distance }
    }

    /// The JSONL job line.
    pub fn line(&self) -> String {
        job_line(self.class, &self.pi)
    }
}

/// The JSONL job line for permutation `pi` of `class`'s topology.
pub fn job_line(class: JobClass, pi: &Permutation) -> String {
    let mut line = String::with_capacity(64 + 6 * pi.len());
    line.push_str(&format!(
        r#"{{"side":{},"router":"{}"{},"perm":["#,
        class.side,
        class.router,
        class.arch.json(class.side)
    ));
    for (k, v) in pi.as_slice().iter().enumerate() {
        if k > 0 {
            line.push(',');
        }
        line.push_str(&v.to_string());
    }
    line.push_str("]}");
    line
}

fn grid_perm(grid: Grid, label: &str, seed: u64) -> Permutation {
    match label {
        "random" => generators::random(grid.len(), seed),
        "skinny" => skinny(grid, seed),
        "sparse-pairs" => generators::sparse_pairs(
            grid,
            (grid.len() / 16).max(1),
            (grid.rows().max(grid.cols()) / 4).max(2),
            seed,
        ),
        "overlap8s4" => generators::overlapping_blocks(grid, 8, 8, 4, 4, seed),
        block => {
            let b: usize = block
                .strip_prefix("block")
                .and_then(|b| b.parse().ok())
                .unwrap_or_else(|| panic!("unknown grid class {block}"));
            generators::block_local(grid, b, b, seed)
        }
    }
}

/// The skinny-cycles class (`generators::skinny_cycles`' row and column
/// cycles) with a seeded direction per cycle. `skinny_cycles` itself
/// yields the same permutation for every seed — it rotates each cycle's
/// vertex list, which leaves the cycle unchanged — so `grid-cold` would
/// otherwise repeat one instance per side and hit the cache.
pub fn skinny(grid: Grid, seed: u64) -> Permutation {
    let mut rng = Rng::new(seed);
    let mut cycles: Vec<Vec<usize>> = (0..grid.rows()).step_by(2).map(|i| grid.row(i)).collect();
    for j in (1..grid.cols()).step_by(2) {
        cycles.push(
            (1..grid.rows())
                .step_by(2)
                .map(|i| grid.index(i, j))
                .collect(),
        );
    }
    for cycle in &mut cycles {
        if rng.next_u64() & 1 == 1 {
            cycle.reverse();
        }
    }
    cycles.retain(|c| c.len() >= 2);
    Permutation::from_cycles(grid.len(), &cycles)
}

/// A uniform permutation of the alive vertices that fixes the dead ones.
/// Defective grids need this: the service's `"class":"random"` projection
/// fixes every cycle through a dead vertex, which leaves almost every
/// token in place.
pub fn alive_random(topology: &Topology, seed: u64) -> Permutation {
    let alive: Vec<usize> = (0..topology.len())
        .filter(|&v| topology.is_alive(v))
        .collect();
    let shuffle = generators::random(alive.len(), seed);
    let mut table: Vec<usize> = (0..topology.len()).collect();
    for (k, &v) in alive.iter().enumerate() {
        table[v] = alive[shuffle.apply(k)];
    }
    Permutation::from_vec(table).expect("a permutation of the alive vertices")
}

/// Conjugate `pi` on a square grid by dihedral symmetry `sym` (0..8): the
/// token at `g(v)` goes to `g(π(v))`.
pub fn conjugate(side: usize, pi: &Permutation, sym: usize) -> Permutation {
    let grid = Grid::new(side, side);
    let g = GridSymmetry::all()[sym];
    let mut table = vec![0; pi.len()];
    for v in 0..pi.len() {
        table[g.apply(grid, v)] = g.apply(grid, pi.apply(v));
    }
    Permutation::from_vec_unchecked(table)
}

/// Job `index` of a batch workload's stream.
pub fn batch_instance(workload: Workload, seed: u64, index: u64) -> Instance {
    let swap_heavy;
    let table: &[JobClass] = match workload {
        Workload::GridCold => &GRID_COLD,
        Workload::SwapHeavy => {
            swap_heavy = swap_heavy_cycle();
            &swap_heavy
        }
        Workload::DaemonHot => panic!("daemon-hot is not a batch stream"),
    };
    let class = table[(index % table.len() as u64) as usize];
    Instance::generate(class, sub_seed(seed, workload as u64, index))
}

/// The `daemon-hot` universe entry `u`, in its base orientation.
pub fn universe_instance(seed: u64, u: usize) -> Instance {
    let class = DAEMON_HOT[u % DAEMON_HOT.len()];
    Instance::generate(class, sub_seed(seed, 7, u as u64))
}

/// The `daemon-hot` request stream: Zipf popularity over the universe,
/// each request under a random dihedral symmetry.
#[derive(Debug, Clone)]
pub struct ZipfStream {
    cdf: Vec<f64>,
    rank_to_entry: Vec<usize>,
    rng: Rng,
}

impl ZipfStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> ZipfStream {
        let mut cdf = Vec::with_capacity(UNIVERSE);
        let mut acc = 0.0;
        for rank in 1..=UNIVERSE {
            acc += (rank as f64).powf(-ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // Popularity ranks cycle through the classes, so every seed's hot
        // set has the same class mix; the seed picks which instance of a
        // class holds each rank.
        let classes = DAEMON_HOT.len();
        let per_class = UNIVERSE / classes;
        let mut rng = Rng::new(sub_seed(seed, 11, 0));
        let mut order: Vec<usize> = (0..per_class).collect();
        let mut rank_to_entry = vec![0; UNIVERSE];
        for c in 0..classes {
            for i in (1..per_class).rev() {
                order.swap(i, rng.below(i + 1));
            }
            for (k, &slot) in order.iter().enumerate() {
                rank_to_entry[c + classes * k] = c + classes * slot;
            }
        }
        ZipfStream { cdf, rank_to_entry, rng: Rng::new(sub_seed(seed, 13, 0)) }
    }

    /// The next request: `(universe entry, symmetry)`.
    pub fn next_request(&mut self) -> (usize, usize) {
        let x = self.rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= x).min(UNIVERSE - 1);
        (self.rank_to_entry[rank], self.rng.below(8))
    }
}
