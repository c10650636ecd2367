//! The single-thread layer walk: replay job lines through the service's
//! public calls in the order the engine plans a job, timing every call,
//! then re-route the routed instances under a thread-local subscriber to
//! read deterministic work counters.

use crate::alloc::thread_allocated_bytes;
use crate::trace::{FoldingSubscriber, TraceTotals};
use qroute_core::token_swap::parallel_token_swapping_with;
use qroute_core::{GridRouter, RouterKind, RoutingSchedule, SwapLayer};
use qroute_perm::{metrics, Permutation};
use qroute_service::{
    canonicalize_topology, select_router_on, RouteJob, RouteOutcome, RouterSpec, ShardedLru,
};
use qroute_topology::{DistanceOracle, GridOracle, Topology};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Summed wall time of each public call, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTimes {
    /// `RouteJob::from_json_line`.
    pub parse: f64,
    /// `RouteJob::resolve`.
    pub resolve: f64,
    /// `select_router_on` (skipped for pinned routers).
    pub select: f64,
    /// `metrics::depth_lower_bound{,_oracle}`.
    pub lower_bound: f64,
    /// `canonicalize_topology`.
    pub canonicalize: f64,
    /// `CanonicalForm::key` plus the cache lookup and insert.
    pub lookup: f64,
    /// `RouterKind::route_on` on cache misses.
    pub route: f64,
    /// `CanonicalForm::replay`.
    pub replay: f64,
    /// `RoutingSchedule::{realizes, validate_on}` (graph build included).
    pub verify: f64,
    /// `RouteOutcome::to_json_line`.
    pub serialize: f64,
}

impl CallTimes {
    fn total(&self) -> f64 {
        self.parse
            + self.resolve
            + self.select
            + self.lower_bound
            + self.canonicalize
            + self.lookup
            + self.route
            + self.replay
            + self.verify
            + self.serialize
    }
}

/// What one walk measured.
#[derive(Debug, Clone, Default)]
pub struct WalkResult {
    /// Lines walked.
    pub jobs: u64,
    /// Canonical instances routed (cache misses).
    pub routed: u64,
    /// Per-call time totals.
    pub times: CallTimes,
    /// Wall time of the whole walk loop, seconds.
    pub wall: f64,
    /// Bytes allocated inside `route_on`, summed.
    pub route_alloc_bytes: u64,
    /// Bytes held by the replayed schedules (swap pairs plus layer
    /// headers), summed.
    pub schedule_bytes: u64,
    /// Oracle `dist` calls of the ATS routes.
    pub dist_calls: u64,
    /// Counters folded from the re-routes' trace records.
    pub counters: TraceTotals,
    /// Failed checks.
    pub problems: Vec<String>,
}

impl WalkResult {
    /// Share of the walk's wall time that the timed calls cover.
    pub fn coverage(&self) -> f64 {
        if self.wall > 0.0 {
            self.times.total() / self.wall
        } else {
            0.0
        }
    }
}

/// A [`DistanceOracle`] that counts `dist` calls.
pub struct CountingOracle<'a, O> {
    inner: &'a O,
    calls: Cell<u64>,
}

impl<'a, O: DistanceOracle> CountingOracle<'a, O> {
    /// Wrap `inner`.
    pub fn new(inner: &'a O) -> Self {
        CountingOracle { inner, calls: Cell::new(0) }
    }

    /// `dist` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

impl<O: DistanceOracle> DistanceOracle for CountingOracle<'_, O> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dist(&self, u: usize, v: usize) -> u32 {
        self.calls.set(self.calls.get() + 1);
        self.inner.dist(u, v)
    }
}

/// Route `pi` with parallel ATS the way `RouterKind::Ats` does on
/// `topology`, through a counting oracle. Returns `(dist calls, depth)`.
pub fn counted_ats(topology: &Topology, pi: &Permutation) -> (u64, usize) {
    if let Some(grid) = topology.as_grid() {
        let oracle = GridOracle::new(grid);
        let counting = CountingOracle::new(&oracle);
        let schedule = parallel_token_swapping_with(&grid.to_graph(), &counting, pi);
        return (counting.calls(), schedule.depth());
    }
    let frame = topology.routing_frame();
    let frame_pi = match &frame.to_topology {
        None => pi.clone(),
        Some(to_topology) => {
            let mut frame_id = vec![usize::MAX; topology.len()];
            for (f, &t) in to_topology.iter().enumerate() {
                frame_id[t] = f;
            }
            Permutation::from_vec_unchecked(
                to_topology.iter().map(|&t| frame_id[pi.apply(t)]).collect(),
            )
        }
    };
    let oracle = topology.oracle(&frame.graph);
    let counting = CountingOracle::new(&oracle);
    let schedule = parallel_token_swapping_with(&frame.graph, &counting, &frame_pi);
    (counting.calls(), schedule.depth())
}

/// Heap bytes a schedule holds.
pub fn schedule_bytes(schedule: &RoutingSchedule) -> u64 {
    (schedule.size() * std::mem::size_of::<(usize, usize)>()
        + schedule.depth() * std::mem::size_of::<SwapLayer>()) as u64
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// Walk `lines` single-threaded. Each line must parse, resolve and route.
pub fn walk(lines: &[String]) -> WalkResult {
    let mut out = WalkResult::default();
    let cache: ShardedLru<Arc<RoutingSchedule>> = ShardedLru::new(1024, 8);
    let mut routed: Vec<(RouterKind, Topology, Permutation, usize)> = Vec::new();
    let t_start = Instant::now();
    for (id, line) in lines.iter().enumerate() {
        let t = &mut out.times;
        let job = match timed(&mut t.parse, || RouteJob::from_json_line(line)) {
            Ok(job) => job,
            Err(e) => {
                out.problems.push(format!("walk line {id}: parse: {e}"));
                continue;
            }
        };
        let (topology, pi) = match timed(&mut t.resolve, || job.resolve()) {
            Ok(resolved) => resolved,
            Err(e) => {
                out.problems.push(format!("walk line {id}: resolve: {e}"));
                continue;
            }
        };
        let router = match &job.router {
            Some(RouterSpec::Fixed(kind)) => kind.clone(),
            _ => timed(&mut t.select, || select_router_on(&topology, &pi)),
        };
        let lower_bound = timed(&mut t.lower_bound, || match topology.as_grid() {
            Some(grid) => metrics::depth_lower_bound(grid, &pi),
            None => {
                let graph = topology.graph();
                metrics::depth_lower_bound_oracle(&topology.oracle(&graph), &pi)
            }
        });
        let canonical = timed(&mut t.canonicalize, || {
            canonicalize_topology(&topology, &pi)
        });
        let (key, cached) = timed(&mut t.lookup, || {
            let key = canonical.key(format!("{router:?}"));
            let cached = cache.get(&key);
            (key, cached)
        });
        let (schedule, hit) = match cached {
            Some(schedule) => (schedule, true),
            None => {
                let before = thread_allocated_bytes();
                let routed_schedule = timed(&mut t.route, || {
                    router.route_on(&canonical.topology, &canonical.pi)
                });
                out.route_alloc_bytes += thread_allocated_bytes() - before;
                let Ok(schedule) = routed_schedule else {
                    out.problems
                        .push(format!("walk line {id}: {} unsupported", router.label()));
                    continue;
                };
                let schedule = Arc::new(schedule);
                timed(&mut t.lookup, || cache.insert(key, Arc::clone(&schedule)));
                routed.push((
                    router.clone(),
                    canonical.topology.clone(),
                    canonical.pi.clone(),
                    schedule.depth(),
                ));
                (schedule, false)
            }
        };
        let replayed = timed(&mut t.replay, || canonical.replay(&schedule));
        let ok = timed(&mut t.verify, || {
            replayed.realizes(&pi) && replayed.validate_on(&topology.graph()).is_ok()
        });
        if !ok {
            out.problems.push(format!(
                "walk line {id}: {} schedule fails verification",
                router.label()
            ));
        }
        out.schedule_bytes += schedule_bytes(&replayed);
        let outcome = RouteOutcome {
            v: job.v,
            id: id as u64,
            side: Some(job.side),
            router: Some(router.label().to_string()),
            cache: Some(if hit { "hit" } else { "miss" }.to_string()),
            depth: Some(schedule.depth()),
            size: Some(schedule.size()),
            lower_bound: Some(lower_bound),
            time_ms: None,
            code: None,
            error: None,
        };
        let text = timed(&mut t.serialize, || outcome.to_json_line());
        std::hint::black_box(text);
        out.jobs += 1;
    }
    out.wall = t_start.elapsed().as_secs_f64();
    out.routed = routed.len() as u64;

    // Counter pass: re-route every routed instance that has work
    // counters under a thread-local subscriber.
    let subscriber = Arc::new(FoldingSubscriber::new());
    qroute_obs::trace::with_subscriber(subscriber.clone(), || {
        for (router, topology, pi, depth) in &routed {
            match router {
                RouterKind::Ats => {
                    let (calls, counted_depth) = counted_ats(topology, pi);
                    out.dist_calls += calls;
                    if counted_depth != *depth {
                        out.problems.push(format!(
                            "counting-oracle ATS depth {counted_depth} != route_on depth {depth} on {topology}"
                        ));
                    }
                }
                RouterKind::Pathfinder(_) => {
                    let again = router.route_on(topology, pi).expect("routed once already");
                    if again.depth() != *depth {
                        out.problems
                            .push(format!("pathfinder is not deterministic on {topology}"));
                    }
                }
                _ => {}
            }
        }
    });
    out.counters = subscriber.totals();
    out
}
