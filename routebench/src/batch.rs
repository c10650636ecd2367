//! Closed-loop runs through the in-process `Engine` (`grid-cold`,
//! `swap-heavy`): one generator thread feeds job lines, the main thread
//! parses, submits, collects, serializes and verifies, keeping one job in
//! flight per worker.

use crate::report::{median, GeoMean, Quality};
use crate::workloads::{batch_instance, Arch, Instance, Workload};
use qroute_service::{Engine, EngineConfig, RouteJob, RouteResult};
use qroute_topology::Graph;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads of every engine and daemon the benchmark starts.
pub const WORKERS: usize = 2;

/// An engine configured the way the benchmark runs it.
pub fn engine_config() -> EngineConfig {
    EngineConfig::builder()
        .workers(WORKERS)
        .build()
        .expect("a valid engine configuration")
}

/// One generated job: the line the service sees plus the reference data
/// the benchmark checks the outcome against.
pub struct GenJob {
    /// The JSONL job line.
    pub line: String,
    /// The instance behind it.
    pub instance: Instance,
}

/// A seeded job-line generator on its own thread.
pub struct Generator {
    rx: Option<Receiver<GenJob>>,
    handle: Option<JoinHandle<()>>,
}

impl Generator {
    /// Start generating `workload`'s stream from job 0.
    pub fn spawn(workload: Workload, seed: u64) -> Generator {
        let (tx, rx) = sync_channel::<GenJob>(16);
        let handle = std::thread::spawn(move || {
            for index in 0.. {
                let instance = batch_instance(workload, seed, index);
                let job = GenJob { line: instance.line(), instance };
                if tx.send(job).is_err() {
                    return;
                }
            }
        });
        Generator { rx: Some(rx), handle: Some(handle) }
    }

    /// The next job.
    pub fn next(&self) -> GenJob {
        self.rx
            .as_ref()
            .expect("generator running")
            .recv()
            .expect("the generator thread never stops first")
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        // Closing the channel ends the generator's loop at its next send.
        self.rx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Coupling graphs by architecture and side, for schedule checks.
#[derive(Default)]
pub struct Graphs(HashMap<(Arch, usize), Graph>);

impl Graphs {
    /// The coupling graph of `instance`'s topology.
    pub fn of(&mut self, instance: &Instance) -> &Graph {
        let class = instance.class;
        self.0
            .entry((class.arch, class.side))
            .or_insert_with(|| class.arch.topology(class.side).graph())
    }
}

/// Check one collected result against its instance. Returns the problem,
/// if any.
pub fn verify_result(
    result: &RouteResult,
    instance: &Instance,
    graphs: &mut Graphs,
) -> Option<String> {
    let o = &result.outcome;
    let class = instance.class.label;
    if let Some(error) = &o.error {
        return Some(format!(
            "{class} job {} errored: {} ({error})",
            o.id,
            o.code.unwrap_or("?")
        ));
    }
    let Some(schedule) = &result.schedule else {
        return Some(format!("{class} job {} has no schedule", o.id));
    };
    if !schedule.realizes(&instance.pi) {
        return Some(format!(
            "{class} job {} schedule does not realize its permutation",
            o.id
        ));
    }
    if let Err(e) = schedule.validate_on(graphs.of(instance)) {
        return Some(format!(
            "{class} job {} schedule is not a matching sequence: {e}",
            o.id
        ));
    }
    if o.depth != Some(schedule.depth()) || o.size != Some(schedule.size()) {
        return Some(format!(
            "{class} job {} outcome depth/size disagree with its schedule",
            o.id
        ));
    }
    if o.lower_bound != Some(instance.lower_bound) {
        return Some(format!(
            "{class} job {} lower bound {:?} != independent {}",
            o.id, o.lower_bound, instance.lower_bound
        ));
    }
    let router = instance.class.router;
    if router != "auto" && o.router.as_deref() != Some(router) {
        return Some(format!(
            "{class} job {} pinned to {router} came back as {:?}",
            o.id, o.router
        ));
    }
    None
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that errored or failed verification.
    pub failed: u64,
    /// Jobs collected and verified.
    pub completed: u64,
    /// Phase wall time, seconds (first submit to last collect).
    pub elapsed: f64,
    /// Per-job latency, submit to serialized outcome, ms.
    pub latencies_ms: Vec<f64>,
    /// Quality over every verified job.
    pub quality: Quality,
    /// Jobs and depth quality per resolved router.
    pub routers: BTreeMap<String, (u64, GeoMean)>,
    /// Summed time in `from_json_line` + `Engine::submit`, seconds.
    pub submit_s: f64,
    /// Summed time blocked in `Engine::collect_next`, seconds.
    pub collect_wait_s: f64,
    /// Time the loop waited on the generator per job, ms.
    pub generator_wait_ms: Vec<f64>,
    /// Failure descriptions (first few).
    pub problems: Vec<String>,
}

impl PhaseStats {
    /// Completed jobs per second.
    pub fn jobs_per_s(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.completed as f64 / self.elapsed
        } else {
            0.0
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// Warm-up jobs each engine start-up routes before it counts as ready.
const WARMUP_JOBS: u64 = 8;

/// Engine start plus [`WARMUP_JOBS`] side-16 random jobs, each routed
/// and collected before the next is submitted: one job at a time, so
/// the time does not hinge on how many cores the host lends the run.
/// Returns the engine and the seconds it took.
pub fn start_engine() -> (Engine, f64) {
    let t0 = Instant::now();
    let mut engine = Engine::new(engine_config());
    for seed in 0..WARMUP_JOBS {
        let job = RouteJob::from_json_line(&format!(
            r#"{{"side":16,"router":"auto","class":"random","seed":{seed}}}"#
        ))
        .expect("a valid warm-up job");
        engine.submit(&job);
        let result = engine.collect_next().expect("a warm-up outcome");
        assert!(
            result.outcome.error.is_none(),
            "warm-up job failed: {:?}",
            result.outcome
        );
    }
    (engine, t0.elapsed().as_secs_f64())
}

/// Median of `repeats` engine start-ups; returns the last engine.
pub fn setup_engine(repeats: usize) -> (Engine, f64) {
    let mut times = Vec::new();
    let mut engine = None;
    for _ in 0..repeats {
        drop(engine.take());
        let (e, secs) = start_engine();
        times.push(secs);
        engine = Some(e);
    }
    (engine.expect("at least one start-up"), median(&times))
}

/// Run the closed loop, keeping one job in flight per worker, until
/// `seconds` pass (`None`: until `next` runs dry), then drain.
pub fn closed_loop(
    engine: &mut Engine,
    mut next: impl FnMut() -> Option<GenJob>,
    seconds: Option<f64>,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let mut graphs = Graphs::default();
    let mut in_flight: VecDeque<(Instant, Instance)> = VecDeque::new();
    let start = Instant::now();
    let deadline = seconds.map(|s| start + Duration::from_secs_f64(s));
    let mut dry = false;
    loop {
        while in_flight.len() < WORKERS && !dry && deadline.is_none_or(|d| Instant::now() < d) {
            let waited = Instant::now();
            let Some(gen) = next() else {
                dry = true;
                break;
            };
            stats
                .generator_wait_ms
                .push(waited.elapsed().as_secs_f64() * 1e3);
            let submitted = Instant::now();
            match RouteJob::from_json_line(&gen.line) {
                Ok(job) => engine.submit(&job),
                Err(e) => engine.submit_error(e),
            };
            stats.submit_s += submitted.elapsed().as_secs_f64();
            stats.attempted += 1;
            in_flight.push_back((submitted, gen.instance));
        }
        let Some((submitted, instance)) = in_flight.pop_front() else {
            break;
        };
        let waited = Instant::now();
        let collected = engine.collect_next();
        stats.collect_wait_s += waited.elapsed().as_secs_f64();
        let Some(result) = collected else {
            stats.fail("engine lost a submitted job".to_string());
            continue;
        };
        std::hint::black_box(result.outcome.to_json_line());
        stats
            .latencies_ms
            .push(submitted.elapsed().as_secs_f64() * 1e3);
        match verify_result(&result, &instance, &mut graphs) {
            Some(problem) => stats.fail(problem),
            None => {
                let o = &result.outcome;
                let (depth, size) = (o.depth.unwrap_or(0), o.size.unwrap_or(0));
                stats
                    .quality
                    .add(depth, instance.lower_bound, size, instance.total_distance);
                let entry = stats
                    .routers
                    .entry(o.router.clone().unwrap_or_default())
                    .or_default();
                entry.0 += 1;
                entry.1.add(depth, instance.lower_bound);
                stats.completed += 1;
            }
        }
    }
    stats.elapsed = start.elapsed().as_secs_f64();
    stats
}
