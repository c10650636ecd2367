//! `daemon-hot`: a live daemon on loopback, fed over one connection by a
//! sender thread and a receiver thread. Requests are Zipf-skewed over a
//! universe of instances larger than the daemon's cache, each sent under
//! a random dihedral symmetry, so repeats hit only through
//! canonicalization.

use crate::batch::{engine_config, WORKERS};
use crate::report::{median, quantile, GeoMean, Quality};
use crate::workloads::{conjugate, job_line, universe_instance, Instance, ZipfStream, UNIVERSE};
use qroute_core::{GridRouter, RoutingSchedule};
use qroute_perm::metrics;
use qroute_service::{canonicalize_topology, select_router_on, CanonicalKey, Client, Daemon};
use qroute_topology::{Grid, Topology};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, sync_channel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests of the warm-up pass that precedes every timed phase.
pub const WARMUP_REQUESTS: usize = 4096;

/// Requests the closed-loop phase keeps in flight (well under the
/// daemon's 256-job admission limit).
pub const WINDOW: usize = 64;

/// Offered rate of the open-loop phase, jobs/s: about a fifth of the
/// closed-loop capacity measured on 2 cores (see README.md for why not
/// half).
pub const OPEN_RATE: f64 = 650.0;

/// Requests per latency window of the open-loop phase: enough that each
/// window's p99 has 10 samples beyond it.
pub const LATENCY_WINDOW: usize = 1000;

/// A run whose generator sent its p99 request later than this after the
/// request was due is invalid: the numbers would measure the generator.
pub const LATE_LIMIT_MS: f64 = 20.0;

/// The instances requests are drawn from, in base orientation.
pub struct Universe(pub Vec<Instance>);

impl Universe {
    /// Generate the universe of `seed`.
    pub fn new(seed: u64) -> Universe {
        Universe((0..UNIVERSE).map(|u| universe_instance(seed, u)).collect())
    }

    /// The job line for entry `u` under symmetry `sym`.
    pub fn line(&self, u: usize, sym: usize) -> String {
        let instance = &self.0[u];
        job_line(
            instance.class,
            &conjugate(instance.class.side, &instance.pi, sym),
        )
    }
}

/// One daemon outcome line, reduced to what the checks need.
#[derive(Debug, Clone)]
pub struct Response {
    /// Universe entry requested.
    pub u: usize,
    /// Symmetry it was sent under.
    pub sym: usize,
    /// Resolved router label.
    pub router: String,
    /// Schedule depth.
    pub depth: u64,
    /// Schedule size.
    pub size: u64,
    /// Reported lower bound.
    pub lower_bound: u64,
    /// Error code, when the outcome is an error.
    pub code: Option<String>,
}

fn parse_response(line: &str, u: usize, sym: usize) -> Response {
    let doc = serde_json::from_str(line).ok();
    let get = |k: &str| {
        doc.as_ref()
            .and_then(|d: &serde_json::Value| d.get(k).cloned())
    };
    let num = |k: &str| get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let code = match get("code") {
        Some(v) if v.as_str().is_some() => v.as_str().map(str::to_string),
        Some(_) => None,
        None => Some("unparsable".to_string()),
    };
    Response {
        u,
        sym,
        router: get("router")
            .and_then(|v| v.as_str().map(str::to_string))
            .unwrap_or_default(),
        depth: num("depth"),
        size: num("size"),
        lower_bound: num("lower_bound"),
        code,
    }
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct LoadPhase {
    /// Requests sent.
    pub attempted: u64,
    /// Outcome lines received.
    pub completed: u64,
    /// Phase wall time, seconds (first send to last receive).
    pub elapsed: f64,
    /// Latency from each request's due time (open loop) or send time
    /// (closed loop) to its outcome line, ms.
    pub latencies_ms: Vec<f64>,
    /// How late each open-loop request was sent, ms.
    pub late_ms: Vec<f64>,
    /// Every outcome, for verification after the timed phases.
    pub responses: Vec<Response>,
}

impl LoadPhase {
    /// Quantile `q` of the latencies in each full window of `per_window`
    /// consecutive requests (for the open loop, one window per second
    /// of schedule); of all of them when a short phase fills no window.
    pub fn window_quantiles(&self, per_window: usize, q: f64) -> Vec<f64> {
        if self.latencies_ms.len() < per_window {
            return vec![quantile(&self.latencies_ms, q)];
        }
        self.latencies_ms
            .chunks(per_window)
            .filter(|w| w.len() == per_window)
            .map(|w| quantile(w, q))
            .collect()
    }

    /// Outcome lines per second.
    pub fn jobs_per_s(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.completed as f64 / self.elapsed
        } else {
            0.0
        }
    }
}

/// How a load phase paces its sender.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Closed loop: at most [`WINDOW`] requests outstanding.
    Closed,
    /// Open loop at a fixed rate, jobs/s.
    Open(f64),
}

/// Drive one phase over `conn` for `seconds`.
pub fn load_phase(
    conn: &TcpStream,
    universe: &Universe,
    zipf: &mut ZipfStream,
    pacing: Pacing,
    seconds: f64,
) -> std::io::Result<LoadPhase> {
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let (meta_tx, meta_rx) = channel::<(usize, usize, Instant)>();
    let (slot_tx, slot_rx) = sync_channel::<()>(WINDOW);
    for _ in 0..WINDOW {
        slot_tx
            .send(())
            .expect("the window channel holds WINDOW tokens");
    }
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut phase = LoadPhase::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<f64>> {
            let mut late_ms = Vec::new();
            for k in 0u64.. {
                let due = match pacing {
                    Pacing::Closed => {
                        if Instant::now() >= end {
                            break;
                        }
                        let _ = slot_rx.recv();
                        None
                    }
                    Pacing::Open(rate) => {
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        if due >= end {
                            break;
                        }
                        Some(due)
                    }
                };
                let (u, sym) = zipf.next_request();
                let mut line = universe.line(u, sym);
                line.push('\n');
                let sent_at = match due {
                    None => Instant::now(),
                    Some(due) => {
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        due
                    }
                };
                writer.write_all(line.as_bytes())?;
                if meta_tx.send((u, sym, sent_at)).is_err() {
                    break;
                }
            }
            Ok(late_ms)
        });
        let mut text = String::new();
        let mut connected = true;
        for (u, sym, sent_at) in meta_rx {
            phase.attempted += 1;
            if connected {
                text.clear();
                connected =
                    matches!(reader.read_line(&mut text), Ok(n) if n > 0 && text.ends_with('\n'));
            }
            if connected {
                phase
                    .latencies_ms
                    .push(sent_at.elapsed().as_secs_f64() * 1e3);
                phase.completed += 1;
                phase
                    .responses
                    .push(parse_response(text.trim_end(), u, sym));
                phase.elapsed = start.elapsed().as_secs_f64();
            }
            // After a dropped connection the sender keeps its pace until
            // a write fails; every request it sent counts as attempted.
            let _ = slot_tx.try_send(());
        }
        drop(slot_tx);
        match sender.join().expect("the sender thread does not panic") {
            Ok(late) => phase.late_ms = late,
            Err(e) => eprintln!("routebench: sender stopped: {e}"),
        }
    });
    Ok(phase)
}

/// A live daemon plus its control connection and load connection.
/// Fields drop in order: both connections close before the daemon
/// drains and joins, so no connection thread outlives it.
pub struct LiveDaemon {
    /// Control connection (`stats`, `metrics`).
    pub control: Client,
    /// Load connection.
    pub load: TcpStream,
    /// The daemon (dropping it drains and joins).
    pub daemon: Daemon,
}

/// Bind a daemon, connect, and replay `warmup` through it. Returns the
/// daemon and the seconds all of that took.
fn start_daemon(warmup: &[String]) -> Result<(LiveDaemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::bind("127.0.0.1:0", engine_config()).map_err(|e| e.to_string())?;
    let mut control = Client::connect(daemon.local_addr()).map_err(|e| e.to_string())?;
    let outcomes = control
        .route_lines(warmup.iter().map(String::as_str))
        .map_err(|e| e.to_string())?;
    if let Some(bad) = outcomes.iter().find(|o| !o.contains(r#""code":null"#)) {
        return Err(format!("warm-up outcome failed: {bad}"));
    }
    let secs = t0.elapsed().as_secs_f64();
    let load = TcpStream::connect(daemon.local_addr()).map_err(|e| e.to_string())?;
    load.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok((LiveDaemon { control, load, daemon }, secs))
}

/// Median of `repeats` daemon start-ups; returns the last daemon.
pub fn setup_daemon(warmup: &[String], repeats: usize) -> Result<(LiveDaemon, f64), String> {
    let mut times = Vec::new();
    let mut live = None;
    for _ in 0..repeats {
        drop(live.take());
        let (d, secs) = start_daemon(warmup)?;
        times.push(secs);
        live = Some(d);
    }
    Ok((live.expect("at least one start-up"), median(&times)))
}

/// The daemon's service-latency histogram: cumulative counts by upper
/// bucket bound in µs, from a `{"req": "metrics"}` response.
pub fn latency_histogram(control: &mut Client) -> Result<Vec<(f64, u64)>, String> {
    let line = control.metrics().map_err(|e| e.to_string())?;
    let doc: serde_json::Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
    let text = doc
        .get("metrics")
        .and_then(|m| m.as_str())
        .ok_or("metrics response without a \"metrics\" string")?;
    let mut buckets = Vec::new();
    for l in text.lines() {
        let Some(rest) = l.strip_prefix("qroute_service_latency_us_bucket{le=\"") else {
            continue;
        };
        let Some((le, count)) = rest.split_once("\"} ") else {
            continue;
        };
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().map_err(|_| l.to_string())?
        };
        buckets.push((le, count.trim().parse().map_err(|_| l.to_string())?));
    }
    Ok(buckets)
}

/// Median of the samples recorded between two cumulative histograms, ms,
/// interpolated linearly inside the log2 bucket that holds it.
pub fn histogram_p50_ms(before: &[(f64, u64)], after: &[(f64, u64)]) -> f64 {
    let count_before = |le: f64| {
        before
            .iter()
            .filter(|(b, _)| *b <= le)
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    };
    let diffs: Vec<(f64, u64)> = after
        .iter()
        .map(|&(le, c)| (le, c.saturating_sub(count_before(le))))
        .collect();
    let total = diffs.last().map_or(0, |&(_, c)| c);
    if total == 0 {
        return 0.0;
    }
    let rank = total as f64 / 2.0;
    let mut prev = (0.0, 0u64);
    for &(le, cum) in &diffs {
        if cum as f64 >= rank {
            let hi = if le.is_finite() { le } else { prev.0 * 2.0 };
            let lo = if prev.0 > 0.0 { prev.0 } else { hi / 2.0 };
            let frac = (rank - prev.1 as f64) / (cum - prev.1).max(1) as f64;
            return (lo + frac * (hi - lo)) / 1e3;
        }
        prev = (le, cum);
    }
    0.0
}

/// Shared-cache counters `(hits, misses, evictions)` from a `stats`
/// request.
pub fn cache_counters(control: &mut Client) -> Result<(u64, u64, u64), String> {
    let line = control.stats().map_err(|e| e.to_string())?;
    let doc: serde_json::Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
    let stats = doc.get("stats").ok_or("stats response without \"stats\"")?;
    let n = |k: &str| stats.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    Ok((n("cache_hits"), n("cache_misses"), n("cache_evictions")))
}

/// The outcome every request for one `(entry, symmetry)` must match.
#[derive(Debug, Clone)]
struct Reference {
    router: &'static str,
    depth: u64,
    size: u64,
    lower_bound: u64,
}

/// What verification of a daemon run found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests that errored or disagreed with their reference.
    pub failed: u64,
    /// Failure descriptions (first few).
    pub problems: Vec<String>,
    /// Quality over distinct canonical instances.
    pub quality: Quality,
    /// Responses and distinct-instance depth quality per router.
    pub routers: BTreeMap<String, (u64, GeoMean)>,
}

/// A distinct canonical instance a verifier routed.
struct Routed {
    key: CanonicalKey,
    router: &'static str,
    depth: usize,
    size: usize,
    lower_bound: usize,
    total_distance: usize,
}

/// The checked reference outcome of each `(entry, symmetry)` pair.
type References = HashMap<(usize, usize), Result<Reference, String>>;

/// Route every distinct canonical instance in `pairs` (those with
/// `u % WORKERS == part`) once and check its replayed schedules.
fn references(
    universe: &Universe,
    pairs: &[(usize, usize)],
    part: usize,
) -> (References, Vec<Routed>) {
    // Pairs come sorted by entry, so only the current entry's schedules
    // need to stay in memory.
    let mut schedules: HashMap<CanonicalKey, Arc<RoutingSchedule>> = HashMap::new();
    let mut entry = usize::MAX;
    let mut refs = HashMap::new();
    let mut routed = Vec::new();
    for &(u, sym) in pairs.iter().filter(|(u, _)| u % WORKERS == part) {
        if u != entry {
            schedules.clear();
            entry = u;
        }
        let instance = &universe.0[u];
        let side = instance.class.side;
        let grid = Grid::new(side, side);
        let topology = Topology::Grid(grid);
        let pi = conjugate(side, &instance.pi, sym);
        let router = select_router_on(&topology, &pi);
        let lower_bound = metrics::depth_lower_bound(grid, &pi);
        let canonical = canonicalize_topology(&topology, &pi);
        let key = canonical.key(format!("{router:?}"));
        let schedule = match schedules.get(&key) {
            Some(s) => Arc::clone(s),
            None => {
                let s = Arc::new(
                    router
                        .route_on(&canonical.topology, &canonical.pi)
                        .expect("auto picks a router that supports grids"),
                );
                routed.push(Routed {
                    key: key.clone(),
                    router: router.label(),
                    depth: s.depth(),
                    size: s.size(),
                    lower_bound,
                    // Distances are invariant under grid symmetries.
                    total_distance: instance.total_distance,
                });
                schedules.insert(key, Arc::clone(&s));
                s
            }
        };
        let replayed = canonical.replay(&schedule);
        let checked = if !replayed.realizes(&pi) {
            Err(format!(
                "reference for entry {u} sym {sym} does not realize its permutation"
            ))
        } else if let Err(e) = replayed.validate_on(&topology.graph()) {
            Err(format!("reference for entry {u} sym {sym}: {e}"))
        } else {
            Ok(Reference {
                router: router.label(),
                depth: schedule.depth() as u64,
                size: schedule.size() as u64,
                lower_bound: lower_bound as u64,
            })
        };
        refs.insert((u, sym), checked);
    }
    (refs, routed)
}

/// Route every distinct canonical instance the responses touched once,
/// check its schedule, and compare every response against it. Runs
/// outside the timed phases, on [`WORKERS`] threads.
pub fn verify(universe: &Universe, responses: &[Response]) -> Verdict {
    let pairs: BTreeSet<(usize, usize)> = responses.iter().map(|r| (r.u, r.sym)).collect();
    let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
    let parts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|part| {
                let pairs = &pairs;
                scope.spawn(move || references(universe, pairs, part))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    let mut verdict = Verdict::default();
    let mut refs = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    for (part_refs, routed) in parts {
        refs.extend(part_refs);
        for r in routed {
            if seen.insert(r.key) {
                verdict
                    .quality
                    .add(r.depth, r.lower_bound, r.size, r.total_distance);
                verdict
                    .routers
                    .entry(r.router.to_string())
                    .or_default()
                    .1
                    .add(r.depth, r.lower_bound);
            }
        }
    }
    let fail = |verdict: &mut Verdict, problem: String| {
        verdict.failed += 1;
        if verdict.problems.len() < 8 {
            verdict.problems.push(problem);
        }
    };
    for r in responses {
        verdict.routers.entry(r.router.clone()).or_default().0 += 1;
        if let Some(code) = &r.code {
            fail(
                &mut verdict,
                format!("entry {} sym {} errored: {code}", r.u, r.sym),
            );
            continue;
        }
        match &refs[&(r.u, r.sym)] {
            Err(problem) => fail(&mut verdict, problem.clone()),
            Ok(want) => {
                if (want.router, want.depth, want.size, want.lower_bound)
                    != (r.router.as_str(), r.depth, r.size, r.lower_bound)
                {
                    fail(
                        &mut verdict,
                        format!(
                            "entry {} sym {}: daemon said {} depth {} size {} bound {}, reference {} {} {} {}",
                            r.u, r.sym, r.router, r.depth, r.size, r.lower_bound,
                            want.router, want.depth, want.size, want.lower_bound
                        ),
                    );
                }
            }
        }
    }
    verdict
}
