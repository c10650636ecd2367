//! One benchmark run of one workload: set up, measure, verify, report.

use crate::batch::{self, closed_loop, setup_engine, GenJob, Generator, PhaseStats};
use crate::daemon::{
    self, cache_counters, histogram_p50_ms, latency_histogram, load_phase, setup_daemon, LoadPhase,
    Pacing, Universe, LATENCY_WINDOW, LATE_LIMIT_MS, OPEN_RATE, WARMUP_REQUESTS,
};
use crate::report::{median, peak_rss_mb, quantile, GeoMean, Metrics, Quality, RunResult};
use crate::trace::{FoldingSubscriber, TraceTotals};
use crate::walk::{walk, WalkResult};
use crate::workloads::{batch_instance, conjugate, Instance, Workload, ZipfStream};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Engine start-ups per run; `setup_s` is their median.
const ENGINE_SETUPS: usize = 9;

/// Daemon start-ups (bind, connect, warm-up pass) per run.
const DAEMON_SETUPS: usize = 3;

/// Closed/open block pairs of an untraced `daemon-hot` run.
const DAEMON_BLOCKS: usize = 3;

/// Routers whose dispatch share and depth quality are reported.
const ROUTERS: [&str; 4] = ["locality-aware", "hybrid", "ats", "pathfinder"];

/// Routers whose mean route time is reported: the ones every workload
/// exercises.
const TIMED_ROUTERS: [&str; 2] = ["hybrid", "ats"];

/// Layer-walk lines per workload.
fn walk_len(workload: Workload) -> usize {
    match workload {
        Workload::GridCold => 20,
        Workload::SwapHeavy => 26,
        Workload::DaemonHot => 1000,
    }
}

/// Everything a traced run adds on top of the end-to-end numbers.
struct LayerInputs {
    base_jobs_per_s: f64,
    traced_jobs_per_s: f64,
    trace: TraceTotals,
    walk: WalkResult,
    cache_hit_ratio: f64,
    cache_evictions: u64,
    submit_us: f64,
    collect_wait_ms: f64,
    server_p50_ms: f64,
    backpressure: u64,
    late_p99_ms: f64,
    p99_ms: f64,
    routers: BTreeMap<String, (u64, GeoMean)>,
    completed: u64,
}

/// Run `workload` once.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let mut result = RunResult { correct: true, ..RunResult::default() };
    match workload {
        Workload::GridCold | Workload::SwapHeavy => {
            run_batch(workload, seed, seconds, traced, &mut result)
        }
        Workload::DaemonHot => {
            if let Err(e) = run_daemon(seed, seconds, traced, &mut result) {
                result.problem(format!("daemon run failed: {e}"));
            }
        }
    }
    if result.failed > 0 {
        result.correct = false;
    }
    result
}

fn end_to_end(
    metrics: &mut Metrics,
    jobs_per_s: f64,
    latencies_ms: &[f64],
    quality: &Quality,
    setup_s: f64,
) {
    metrics.push("jobs_per_s", jobs_per_s, "jobs/s");
    metrics.push("p50_ms", quantile(latencies_ms, 0.50), "ms");
    push_quality(metrics, quality, setup_s);
}

fn push_quality(metrics: &mut Metrics, quality: &Quality, setup_s: f64) {
    metrics.push("depth_ratio", quality.depth.value(), "ratio");
    metrics.push("size_ratio", quality.size.value(), "ratio");
    metrics.push("setup_s", setup_s, "s");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MB");
}

fn merge_phase(into: &mut PhaseStats, from: PhaseStats) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.completed += from.completed;
    into.problems.extend(from.problems);
    for (router, (jobs, geo)) in from.routers {
        let entry = into.routers.entry(router).or_default();
        entry.0 += jobs;
        entry.1.merge(&geo);
    }
}

fn run_batch(workload: Workload, seed: u64, seconds: f64, traced: bool, result: &mut RunResult) {
    let (mut engine, setup_s) = setup_engine(ENGINE_SETUPS);
    let generator = Generator::spawn(workload, seed);
    let next = || Some(generator.next());
    if !traced {
        let phase = closed_loop(&mut engine, next, Some(seconds));
        end_to_end(
            &mut result.metrics,
            phase.jobs_per_s(),
            &phase.latencies_ms,
            &phase.quality,
            setup_s,
        );
        result.attempted = phase.attempted;
        result.failed = phase.failed;
        result.problems.extend(phase.problems);
        return;
    }
    let cache_before = engine.cache_stats();
    let mut base = closed_loop(&mut engine, next, Some(seconds / 2.0));
    let subscriber = Arc::new(FoldingSubscriber::new());
    qroute_obs::trace::install_global(Some(subscriber.clone()));
    let traced_phase = closed_loop(&mut engine, next, Some(seconds / 2.0));
    qroute_obs::trace::install_global(None);
    let cache = engine.cache_stats().since(&cache_before);
    drop(engine);
    drop(generator);

    let lines: Vec<String> = (0..walk_len(workload) as u64)
        .map(|i| batch_instance(workload, seed, i).line())
        .collect();
    let walk = walk(&lines);
    let inputs = LayerInputs {
        base_jobs_per_s: base.jobs_per_s(),
        traced_jobs_per_s: traced_phase.jobs_per_s(),
        trace: subscriber.totals(),
        walk,
        cache_hit_ratio: cache.hit_rate(),
        cache_evictions: cache.evictions,
        submit_us: base.submit_s / base.attempted.max(1) as f64 * 1e6,
        collect_wait_ms: base.collect_wait_s / base.attempted.max(1) as f64 * 1e3,
        // No daemon serves the batch workloads.
        server_p50_ms: 0.0,
        backpressure: 0,
        late_p99_ms: quantile(&base.generator_wait_ms, 0.99),
        p99_ms: quantile(&base.latencies_ms, 0.99),
        routers: BTreeMap::new(),
        completed: 0,
    };
    merge_phase(&mut base, traced_phase);
    let inputs = LayerInputs { routers: base.routers, completed: base.completed, ..inputs };
    result.attempted = base.attempted;
    result.failed = base.failed;
    result.problems.extend(base.problems);
    per_layer(result, inputs);
}

fn request_instance(universe: &Universe, u: usize, sym: usize) -> Instance {
    let base = &universe.0[u];
    // Bounds and distances are invariant under grid symmetries.
    Instance { pi: conjugate(base.class.side, &base.pi, sym), ..base.clone() }
}

fn run_daemon(seed: u64, seconds: f64, traced: bool, result: &mut RunResult) -> Result<(), String> {
    let universe = Universe::new(seed);
    let mut zipf = ZipfStream::new(seed);
    let requests: Vec<(usize, usize)> = (0..WARMUP_REQUESTS).map(|_| zipf.next_request()).collect();
    let warmup: Vec<String> = requests
        .iter()
        .map(|&(u, sym)| universe.line(u, sym))
        .collect();
    let (mut live, setup_s) = setup_daemon(&warmup, DAEMON_SETUPS)?;
    let hist_before = latency_histogram(&mut live.control)?;
    let cache_before = cache_counters(&mut live.control)?;
    let io = |e: std::io::Error| e.to_string();
    let phase =
        |zipf: &mut ZipfStream, pacing, secs| load_phase(&live.load, &universe, zipf, pacing, secs);
    // Untraced runs alternate closed and open blocks, so a short slow
    // spell of the host lands in one block and the medians over blocks and
    // one-second windows stay put.
    let mut closed_blocks = Vec::new();
    let mut open_blocks = Vec::new();
    let mut traced_parts = None;
    if traced {
        closed_blocks.push(phase(&mut zipf, Pacing::Closed, seconds / 4.0).map_err(io)?);
        open_blocks.push(phase(&mut zipf, Pacing::Open(OPEN_RATE), seconds / 4.0).map_err(io)?);
        let subscriber = Arc::new(FoldingSubscriber::new());
        qroute_obs::trace::install_global(Some(subscriber.clone()));
        let closed_t = phase(&mut zipf, Pacing::Closed, seconds / 4.0);
        let open_t = phase(&mut zipf, Pacing::Open(OPEN_RATE), seconds / 4.0);
        qroute_obs::trace::install_global(None);
        traced_parts = Some((
            closed_t.map_err(io)?,
            open_t.map_err(io)?,
            subscriber.totals(),
        ));
    } else {
        for _ in 0..DAEMON_BLOCKS {
            let block = seconds / (2 * DAEMON_BLOCKS) as f64;
            closed_blocks.push(phase(&mut zipf, Pacing::Closed, block).map_err(io)?);
            open_blocks.push(phase(&mut zipf, Pacing::Open(OPEN_RATE), block).map_err(io)?);
        }
    }
    let hist_after = latency_histogram(&mut live.control)?;
    let cache_after = cache_counters(&mut live.control)?;
    drop(live);

    let mut phases: Vec<&LoadPhase> = closed_blocks.iter().chain(&open_blocks).collect();
    if let Some((c, o, _)) = &traced_parts {
        phases.extend([c, o]);
    }
    let responses: Vec<daemon::Response> = phases
        .iter()
        .flat_map(|p| p.responses.iter().cloned())
        .collect();
    let verdict = daemon::verify(&universe, &responses);
    result.attempted = phases.iter().map(|p| p.attempted).sum();
    let missing: u64 = phases.iter().map(|p| p.attempted - p.completed).sum();
    result.failed = verdict.failed + missing;
    result.problems.extend(verdict.problems.iter().cloned());
    if missing > 0 {
        result
            .problems
            .push(format!("{missing} requests got no outcome"));
    }
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    let late_p99_ms = quantile(&late, 0.99);
    if late_p99_ms > LATE_LIMIT_MS {
        result.problem(format!(
            "invalid run: the open-loop generator sent its p99 request {late_p99_ms:.2} ms late (limit {LATE_LIMIT_MS} ms)"
        ));
    }
    let Some((closed_t, _, trace)) = traced_parts else {
        let rates: Vec<f64> = closed_blocks.iter().map(LoadPhase::jobs_per_s).collect();
        let p50: Vec<f64> = open_blocks
            .iter()
            .flat_map(|b| b.window_quantiles(LATENCY_WINDOW, 0.50))
            .collect();
        let m = &mut result.metrics;
        m.push("jobs_per_s", median(&rates), "jobs/s");
        m.push("p50_ms", median(&p50), "ms");
        push_quality(m, &verdict.quality, setup_s);
        return Ok(());
    };

    let lines = &warmup[..walk_len(Workload::DaemonHot)];
    let walk = walk(lines);
    // The engine front end on the same lines, for its per-call costs.
    let mut engine = batch::start_engine().0;
    let mut jobs = requests.iter().zip(lines).map(|(&(u, sym), line)| GenJob {
        line: line.clone(),
        instance: request_instance(&universe, u, sym),
    });
    let replay = closed_loop(&mut engine, || jobs.next(), None);
    drop(engine);
    if replay.failed > 0 {
        result.problem(format!(
            "engine replay of daemon-hot lines failed: {:?}",
            replay.problems
        ));
    }
    let (hits, misses, evictions) = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
        cache_after.2 - cache_before.2,
    );
    let inputs = LayerInputs {
        base_jobs_per_s: closed_blocks[0].jobs_per_s(),
        traced_jobs_per_s: closed_t.jobs_per_s(),
        trace,
        walk,
        cache_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        cache_evictions: evictions,
        submit_us: replay.submit_s / replay.attempted.max(1) as f64 * 1e6,
        collect_wait_ms: replay.collect_wait_s / replay.attempted.max(1) as f64 * 1e3,
        server_p50_ms: histogram_p50_ms(&hist_before, &hist_after),
        backpressure: responses
            .iter()
            .filter(|r| r.code.as_deref() == Some("backpressure"))
            .count() as u64,
        late_p99_ms,
        p99_ms: median(&open_blocks[0].window_quantiles(LATENCY_WINDOW, 0.99)),
        routers: verdict.routers,
        completed: responses.len() as u64,
    };
    per_layer(result, inputs);
    Ok(())
}

fn per_layer(result: &mut RunResult, x: LayerInputs) {
    let m = &mut result.metrics;
    let w = &x.walk;
    let per_job_us = |secs: f64| secs / w.jobs.max(1) as f64 * 1e6;
    m.push("job.parse_us", per_job_us(w.times.parse), "us");
    m.push("job.resolve_us", per_job_us(w.times.resolve), "us");
    m.push("job.serialize_us", per_job_us(w.times.serialize), "us");
    m.push("perm.lower_bound_us", per_job_us(w.times.lower_bound), "us");
    m.push("dispatch.select_us", per_job_us(w.times.select), "us");
    m.push(
        "cache.canonicalize_us",
        per_job_us(w.times.canonicalize),
        "us",
    );
    m.push("cache.lookup_us", per_job_us(w.times.lookup), "us");
    m.push("cache.replay_us", per_job_us(w.times.replay), "us");
    m.push("cache.hit_ratio", x.cache_hit_ratio, "ratio");
    m.push("cache.evictions", x.cache_evictions as f64, "count");
    m.push("schedule.verify_us", per_job_us(w.times.verify), "us");
    m.push(
        "schedule.bytes_per_job",
        w.schedule_bytes as f64 / w.jobs.max(1) as f64,
        "bytes",
    );
    m.push("router.alloc_bytes", w.route_alloc_bytes as f64, "bytes");
    m.push("engine.submit_us", x.submit_us, "us");
    m.push("engine.collect_wait_ms", x.collect_wait_ms, "ms");
    m.push("daemon.server_p50_ms", x.server_p50_ms, "ms");
    m.push("daemon.backpressure", x.backpressure as f64, "count");
    m.push("loadgen.late_p99_ms", x.late_p99_ms, "ms");
    m.push("latency.p99_ms", x.p99_ms, "ms");
    for router in ROUTERS {
        let (jobs, geo) = x.routers.get(router).copied().unwrap_or_default();
        m.push(
            format!("dispatch.share.{router}"),
            jobs as f64 / x.completed.max(1) as f64,
            "ratio",
        );
        m.push(format!("router.depth_ratio.{router}"), geo.value(), "ratio");
    }
    let t = &x.trace;
    for router in TIMED_ROUTERS {
        let time = t.routes.get(router).cloned().unwrap_or_default();
        m.push(
            format!("router.route_ms.{router}"),
            time.total_us as f64 / time.routes.max(1) as f64 / 1e3,
            "ms",
        );
    }
    let routes: u64 = t.routes.values().map(|r| r.routes).sum();
    let per_route_ms = |us: u64| us as f64 / routes.max(1) as f64 / 1e3;
    m.push(
        "local_grid.matchings_ms",
        per_route_ms(t.matchings_us),
        "ms",
    );
    m.push(
        "local_grid.line_routing_ms",
        per_route_ms(t.line_routing_us),
        "ms",
    );
    m.push(
        "grid_route.naive_clamp_ms",
        per_route_ms(t.naive_clamp_us),
        "ms",
    );
    let ats_routes = t.routes.get("ats").map_or(0, |r| r.routes);
    m.push(
        "token_swap.stuck_ms",
        t.stuck_us as f64 / ats_routes.max(1) as f64 / 1e3,
        "ms",
    );
    m.push(
        "token_swap.stuck_share",
        t.stuck_us as f64 / t.ats_route_us.max(1) as f64,
        "ratio",
    );
    let c = &w.counters;
    m.push("token_swap.happy_rounds", c.happy_rounds as f64, "count");
    m.push("token_swap.stuck_rounds", c.stuck_rounds as f64, "count");
    m.push("token_swap.dist_calls", w.dist_calls as f64, "count");
    m.push("token_swap.fallbacks", c.ats_fallbacks as f64, "count");
    m.push("pathfinder.rounds", c.pathfinder_rounds as f64, "count");
    m.push("pathfinder.astar_pops", c.astar_pops as f64, "count");
    m.push(
        "pathfinder.ripup_ratio",
        c.ripups as f64 / c.pending.max(1) as f64,
        "ratio",
    );
    m.push(
        "pathfinder.fallbacks",
        c.pathfinder_fallbacks as f64,
        "count",
    );
    m.push(
        "trace.overhead_frac",
        1.0 - x.traced_jobs_per_s / x.base_jobs_per_s.max(f64::MIN_POSITIVE),
        "ratio",
    );
    m.push("walk.coverage", w.coverage(), "ratio");
    for problem in &w.problems {
        result.problems.push(problem.clone());
        result.correct = false;
    }
    if w.coverage() < 0.9 {
        result.problem(format!(
            "layer walk covers only {:.3} of per-job wall time",
            w.coverage()
        ));
    }
}
