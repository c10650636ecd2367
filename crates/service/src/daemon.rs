//! The persistent routing daemon: a long-lived TCP server speaking the
//! JSONL job wire format, one request line in → one outcome line out.
//!
//! Each connection is one ordered session over the daemon's shared core
//! (cache and worker pool; the `session` module holds the job path it
//! shares with the in-process engine): a reader thread admits lines in
//! order, and a writer thread finishes them in the same order and
//! writes the outcome lines. Connections plan and consult the shared
//! cache on their own reader threads, synchronized only by its
//! per-shard mutexes, so nothing serializes on a global submit thread.
//! The determinism guarantee is scoped *per connection*: a connection's
//! outcome bytes are identical to an untimed `repro batch` of the same
//! job list, no matter how many other clients are connected.
//!
//! **Admission control.** Each connection may have at most
//! `client_queue_depth` jobs in flight (submitted, outcome not yet
//! written). Excess job lines are rejected immediately with an in-order
//! error outcome (code `backpressure`) — never a hang — and do not count
//! against the limit. A client that floods without reading outcomes
//! eventually blocks in TCP flow control, which bounds daemon memory; it
//! cannot wedge the server.
//!
//! **Control requests.** A line that is a JSON object with a `"req"`
//! field is a control request, answered in stream order like any job:
//! `{"req": "stats"}` returns `{"stats": {...}}` (a serialized
//! [`StatsSnapshot`]); `{"req": "metrics"}` returns
//! `{"metrics": "..."}` — the registry's Prometheus text exposition as
//! one JSON-escaped string; `{"req": "shutdown"}` acknowledges with
//! `{"ok": "shutdown"}` and begins a graceful drain: the listener stops
//! accepting, open connections finish every accepted job, then the
//! daemon exits; `{"req": "retried", "n": K}` lets a reconnecting client
//! report K resubmissions for the `retries_observed` counter. Control
//! requests consume no job id.
//!
//! **Deadlines.** A job line may carry `"deadline_ms"`; jobs without one
//! inherit the daemon's `default_deadline_ms` (when set). The clock
//! starts when the line is read, before admission control; a job whose
//! deadline passes gets a `timeout` error outcome (see the session
//! docs). Later jobs on the same connection are unaffected.
//!
//! The daemon always runs with timing capture off (`time_ms` is `null`),
//! keeping outcome bytes deterministic and batch-identical.

use crate::engine::EngineConfig;
use crate::errors::ServiceError;
use crate::job::RouteJob;
use crate::session::{Core, Pending, Session};
use qroute_obs::{Counter, Gauge, Log2Histogram, Registry};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Jobs routed per router kind, one row of [`StatsSnapshot::routers`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RouterJobs {
    /// The router's stable label.
    pub router: String,
    /// Jobs dispatched to it (cache hits included — the job was
    /// *answered* by this router's schedule).
    pub jobs: u64,
}

/// A point-in-time view of daemon counters, returned by
/// [`Daemon::stats`] and the wire `{"req": "stats"}` request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatsSnapshot {
    /// Successfully routed job outcomes written.
    pub jobs_routed: u64,
    /// Error outcomes written (parse, validation, version, backpressure,
    /// shutdown, panic).
    pub jobs_errored: u64,
    /// Connections accepted since the daemon started.
    pub connections: u64,
    /// Jobs currently in flight across all connections (admitted,
    /// outcome not yet written).
    pub queue_depth: u64,
    /// Shared-cache hits (see [`crate::CacheStats`]).
    pub cache_hits: u64,
    /// Shared-cache misses.
    pub cache_misses: u64,
    /// Shared-cache evictions.
    pub cache_evictions: u64,
    /// Shared-cache hit rate in `[0, 1]`.
    pub hit_rate: f64,
    /// Jobs per router kind, sorted by label.
    pub routers: Vec<RouterJobs>,
    /// Median service latency (admission → outcome written) in
    /// milliseconds, at the geometric midpoint of the histogram bucket
    /// holding the median sample.
    pub latency_p50_ms: f64,
    /// 99th-percentile service latency in milliseconds.
    pub latency_p99_ms: f64,
    /// `timeout` error outcomes written (jobs whose deadline passed
    /// before their route finished). Appended field: absent in snapshots
    /// from older daemons.
    pub timeouts: u64,
    /// Crashed routing workers the pool's supervisor has respawned.
    /// Appended field.
    pub worker_restarts: u64,
    /// Client-side retries reported over the wire via
    /// `{"req": "retried", "n": K}` (see
    /// [`RetryingClient`](crate::RetryingClient)). Appended field.
    pub retries_observed: u64,
}

/// Cumulative daemon counters (all monotone except the `in_flight`
/// gauge), held as handles into a [`Registry`] so the same atomics feed
/// both [`StatsSnapshot`] (the versioned JSON wire format, unchanged)
/// and the Prometheus exposition served by `{"req": "metrics"}`.
struct DaemonStats {
    registry: Registry,
    jobs_routed: Counter,
    jobs_errored: Counter,
    connections: Counter,
    in_flight: Gauge,
    timeouts: Counter,
    retries: Counter,
    /// Per-router handle cache; each entry is also registered as
    /// `qroute_router_jobs_total{router="..."}`, so the snapshot and the
    /// exposition read the same atomic.
    dispatch: Mutex<BTreeMap<String, Counter>>,
    latency_us: Arc<Log2Histogram>,
    /// Mirrors of counters owned elsewhere ([`ShardedLru`], the worker
    /// pool supervisor), overwritten at scrape/snapshot time.
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    worker_restarts: Gauge,
}

impl DaemonStats {
    fn new() -> DaemonStats {
        let registry = Registry::new();
        DaemonStats {
            jobs_routed: registry.counter("qroute_jobs_total", "Successfully routed job outcomes"),
            jobs_errored: registry.counter(
                "qroute_job_errors_total",
                "Error outcomes (parse, validation, backpressure, shutdown, timeout, panic)",
            ),
            connections: registry.counter(
                "qroute_connections_total",
                "Connections accepted since start",
            ),
            in_flight: registry.gauge(
                "qroute_queue_depth",
                "Jobs in flight across all connections (admitted, outcome not yet written)",
            ),
            timeouts: registry.counter(
                "qroute_timeouts_total",
                "Jobs whose deadline passed before their route finished",
            ),
            retries: registry.counter(
                "qroute_retries_observed_total",
                "Client-side retries reported via {\"req\": \"retried\"}",
            ),
            dispatch: Mutex::new(BTreeMap::new()),
            latency_us: registry.histogram(
                "qroute_service_latency_us",
                "Service latency (admission to outcome written) in microseconds",
            ),
            cache_hits: registry.counter("qroute_cache_hits_total", "Shared-cache hits"),
            cache_misses: registry.counter("qroute_cache_misses_total", "Shared-cache misses"),
            cache_evictions: registry
                .counter("qroute_cache_evictions_total", "Shared-cache evictions"),
            worker_restarts: registry.gauge(
                "qroute_worker_restarts",
                "Crashed routing workers respawned by the pool supervisor",
            ),
            registry,
        }
    }

    /// The per-router dispatch counter for `label`, registering the
    /// labeled Prometheus series on first use. Monotone counters stay
    /// meaningful after a panic poisoned the lock, so handle lookup
    /// recovers from poison like every other stats path.
    fn dispatch_counter(&self, label: &str) -> Counter {
        self.dispatch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(label.to_string())
            .or_insert_with(|| {
                self.registry.labeled_counter(
                    "qroute_router_jobs_total",
                    "Jobs dispatched per router kind (cache hits included)",
                    &[("router", label)],
                )
            })
            .clone()
    }

    fn record_latency(&self, since: Instant) {
        let us = since.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.latency_us.record(us);
    }

    /// Quantile over the latency histogram in milliseconds: the
    /// [`Log2Histogram`] geometric-midpoint/ceil-rank contract (see
    /// `qroute_obs::metrics`), scaled from the recorded microseconds.
    fn latency_quantile_ms(&self, q: f64) -> f64 {
        self.latency_us.quantile(q) / 1e3
    }
}

/// State shared by the accept loop, every connection thread, and the
/// [`Daemon`] handle.
struct DaemonShared {
    core: Arc<Core>,
    stats: DaemonStats,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Read-half clones of open connections, for shutdown wakeup.
    conns: Mutex<Vec<TcpStream>>,
}

impl DaemonShared {
    /// Idempotently begin the graceful drain: stop admitting new work,
    /// wake blocked connection readers, and wake the accept loop.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // A connection thread that panicked while holding the lock must
        // not take shutdown down with it: the registry is a plain list
        // of read-half clones, safe to use after a poison.
        for conn in self
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // A throwaway self-connection unblocks the accept loop so it can
        // observe the flag (std's TcpListener has no native cancel).
        let _ = TcpStream::connect(self.addr);
    }

    fn snapshot(&self) -> StatsSnapshot {
        let cache = self.core.cache.stats();
        StatsSnapshot {
            jobs_routed: self.stats.jobs_routed.get(),
            jobs_errored: self.stats.jobs_errored.get(),
            connections: self.stats.connections.get(),
            queue_depth: self.stats.in_flight.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            hit_rate: cache.hit_rate(),
            // Plain monotone counters: still meaningful after a panic
            // poisoned the lock, so stats must keep answering.
            routers: self
                .stats
                .dispatch
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(router, jobs)| RouterJobs { router: router.clone(), jobs: jobs.get() })
                .collect(),
            latency_p50_ms: self.stats.latency_quantile_ms(0.50),
            latency_p99_ms: self.stats.latency_quantile_ms(0.99),
            timeouts: self.stats.timeouts.get(),
            worker_restarts: self.core.pool.restarts(),
            retries_observed: self.stats.retries.get(),
        }
    }

    /// Prometheus text exposition of the registry, with the counters
    /// owned outside [`DaemonStats`] (shared cache, pool supervisor)
    /// mirrored in first. Served by `{"req": "metrics"}`.
    fn prometheus(&self) -> String {
        let cache = self.core.cache.stats();
        self.stats.cache_hits.set(cache.hits);
        self.stats.cache_misses.set(cache.misses);
        self.stats.cache_evictions.set(cache.evictions);
        self.stats.worker_restarts.set(self.core.pool.restarts());
        self.stats.registry.to_prometheus()
    }
}

/// One entry of a connection's ordered reader → writer channel.
enum ConnItem {
    /// A job to finish. `counted` marks whether it holds an admission
    /// slot (backpressure rejections do not); `start` is when its line
    /// was read.
    Job {
        pending: Pending,
        counted: bool,
        start: Instant,
    },
    /// A control response line, written verbatim.
    Control(String),
}

/// A running routing daemon. Bind with [`Daemon::bind`], stop with
/// [`Daemon::shutdown`] (or a wire `{"req": "shutdown"}`), and
/// [`Daemon::join`] to wait for the drain; dropping the handle shuts
/// down and joins implicitly.
pub struct Daemon {
    shared: Arc<DaemonShared>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Bind a listener on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// test port) and start serving. Timing capture is forced off so
    /// outcome bytes stay deterministic and batch-identical.
    pub fn bind(addr: impl ToSocketAddrs, config: EngineConfig) -> Result<Daemon, ServiceError> {
        let config = EngineConfig { timing: false, ..config };
        let listener = TcpListener::bind(addr).map_err(|e| ServiceError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        let shared = Arc::new(DaemonShared {
            core: Arc::new(Core::new(config)),
            stats: DaemonStats::new(),
            shutdown: AtomicBool::new(false),
            addr,
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Daemon { shared, accept: Some(accept) })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A point-in-time counter snapshot (also served on the wire as
    /// `{"req": "stats"}`).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Begin the graceful drain: stop accepting connections, let every
    /// open connection finish its admitted jobs. Idempotent; returns
    /// immediately (use [`Daemon::join`] to wait).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the daemon has fully drained — every connection's
    /// admitted jobs routed and written, all threads exited — and return
    /// the final counter snapshot.
    pub fn join(mut self) -> StatsSnapshot {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.snapshot()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<DaemonShared>) {
    let mut handles = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.stats.connections.inc();
        if let Ok(read_half) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(read_half);
        }
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || serve_connection(stream, shared)));
    }
    // Graceful drain: every connection finishes its admitted jobs
    // before the daemon (and with it the worker pool) goes away.
    for handle in handles {
        let _ = handle.join();
    }
}

/// Reader side of one connection (the writer runs on its own thread,
/// joined before this returns).
fn serve_connection(stream: TcpStream, shared: Arc<DaemonShared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // ×2: admitted jobs can occupy at most `client_queue_depth` entries,
    // and rejections/control responses need room to flow out without
    // stalling the reader ahead of the admission check.
    let limit = shared.core.config.client_queue_depth;
    let (sender, receiver) = sync_channel::<ConnItem>(limit.max(1) * 2);
    // The per-connection admission gauge: reader increments on admit,
    // writer decrements as outcomes leave.
    let in_flight = Arc::new(AtomicUsize::new(0));
    let writer = {
        let shared = Arc::clone(&shared);
        let in_flight = Arc::clone(&in_flight);
        std::thread::spawn(move || write_outcomes(write_half, receiver, in_flight, shared))
    };

    let mut session = Session::new(Arc::clone(&shared.core));

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        // A torn final line (bytes with no trailing newline at EOF —
        // e.g. a client that died mid-write) is dropped silently: the
        // sender never finished the request, and answering a fragment
        // would desynchronize ids for a resubmitting client.
        if !line.ends_with('\n') {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue; // blank lines consume no id, exactly like batch
        }
        if let Some(response) = control_response(trimmed, &shared) {
            if sender.send(ConnItem::Control(response)).is_err() {
                break;
            }
            continue;
        }

        let start = Instant::now();
        // Admission control *before* parsing: a flooding client is
        // rejected at O(1) cost, in order, never hung.
        let counted = in_flight.load(Ordering::SeqCst) < limit;
        let pending = if counted {
            match RouteJob::from_json_line(trimmed) {
                Err(e) => session.reject(e),
                Ok(job) => session.admit(&job, start),
            }
        } else {
            session.reject(ServiceError::Backpressure { limit })
        };
        if let Some(router) = pending.router() {
            shared.stats.dispatch_counter(router).inc();
        }
        if counted {
            // Increment *before* the send so the writer's decrement can
            // never race the gauge below zero.
            in_flight.fetch_add(1, Ordering::SeqCst);
            shared.stats.in_flight.inc();
        }
        if sender
            .send(ConnItem::Job { pending, counted, start })
            .is_err()
        {
            break;
        }
    }
    // EOF (or shutdown): close the channel so the writer drains what
    // was admitted and exits.
    drop(sender);
    let _ = writer.join();
    // The accept loop holds a read-half clone of this socket (for
    // shutdown wakeup), so dropping our handles alone would never send
    // FIN; shut the connection itself down so the peer sees EOF.
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// Handle `{"req": ...}` control lines; `None` means the line is a job.
fn control_response(line: &str, shared: &Arc<DaemonShared>) -> Option<String> {
    let doc = serde_json::from_str(line).ok()?;
    let req = doc.get("req")?;
    Some(match req.as_str() {
        Some("stats") => {
            let mut out = String::from("{\"stats\":");
            shared.snapshot().write_json(&mut out);
            out.push('}');
            out
        }
        Some("metrics") => {
            // Prometheus text exposition is multi-line; the JSONL wire
            // carries it as one escaped string field.
            let mut out = String::from("{\"metrics\":");
            shared.prometheus().write_json(&mut out);
            out.push('}');
            out
        }
        Some("shutdown") => {
            shared.begin_shutdown();
            "{\"ok\":\"shutdown\"}".to_string()
        }
        Some("retried") => {
            // A retrying client reporting how many resubmissions its
            // last reconnect cycle cost (observability only).
            let n = doc.get("n").and_then(|n| n.as_u64()).unwrap_or(1);
            shared.stats.retries.add(n);
            "{\"ok\":\"retried\"}".to_string()
        }
        other => {
            let err = ServiceError::Parse(format!(
                "unknown control request {:?} (expected \"stats\", \"metrics\", \"shutdown\", or \"retried\")",
                other.unwrap_or("<non-string>")
            ));
            let mut out = String::from("{\"code\":");
            err.code().write_json(&mut out);
            out.push_str(",\"error\":");
            err.to_string().write_json(&mut out);
            out.push('}');
            out
        }
    })
}

/// The outgoing half of one connection, with optional injected faults:
/// after `drop_plan.0` written bytes the socket is severed (first
/// flushing half of the next line when `drop_plan.1` asks for a torn
/// write). Once broken — organically or by injection — lines are
/// discarded but the channel keeps draining for the gauges' sake.
struct ConnWriter {
    out: std::io::BufWriter<TcpStream>,
    broken: bool,
    written: u64,
    drop_plan: Option<(u64, bool)>,
}

impl ConnWriter {
    fn emit(&mut self, line: String) {
        if self.broken {
            return;
        }
        if let Some((after, torn)) = self.drop_plan {
            if self.written >= after {
                if torn {
                    let half = &line.as_bytes()[..line.len() / 2];
                    let _ = self.out.write_all(half);
                    let _ = self.out.flush();
                }
                let _ = self.out.get_ref().shutdown(Shutdown::Both);
                self.drop_plan = None;
                self.broken = true;
                return;
            }
        }
        self.written += line.len() as u64 + 1;
        self.broken = writeln!(self.out, "{line}")
            .and_then(|_| self.out.flush())
            .is_err();
    }
}

/// Writer side of one connection: preserves channel (= submission)
/// order, decrements the admission gauges as outcomes leave. Keeps
/// draining (for the gauges' sake) even after the socket breaks.
fn write_outcomes(
    stream: TcpStream,
    receiver: Receiver<ConnItem>,
    in_flight: Arc<AtomicUsize>,
    shared: Arc<DaemonShared>,
) {
    let mut writer = ConnWriter {
        out: std::io::BufWriter::new(stream),
        broken: false,
        written: 0,
        drop_plan: shared.core.pool.chaos().take_connection_drop(),
    };
    for item in receiver.iter() {
        let (pending, counted, start) = match item {
            ConnItem::Control(line) => {
                writer.emit(line);
                continue;
            }
            ConnItem::Job { pending, counted, start } => (pending, counted, start),
        };
        let (outcome, _) = pending.finish();
        match outcome.code {
            None => shared.stats.jobs_routed.inc(),
            Some(code) => {
                if code == "timeout" {
                    shared.stats.timeouts.inc();
                }
                shared.stats.jobs_errored.inc();
            }
        }
        writer.emit(outcome.to_json_line());
        if counted {
            in_flight.fetch_sub(1, Ordering::SeqCst);
            shared.stats.in_flight.dec();
        }
        shared.stats.record_latency(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_buckets(buckets: &[(usize, u64)]) -> DaemonStats {
        let stats = DaemonStats::new();
        for &(bucket, count) in buckets {
            // Record a representative value of the bucket: 0 for the
            // sub-microsecond bucket, the lower bound 2^(b−1) otherwise.
            let value = if bucket == 0 { 0 } else { 1u64 << (bucket - 1) };
            for _ in 0..count {
                stats.latency_us.record(value);
            }
        }
        stats
    }

    fn midpoint_ms(bucket: usize) -> f64 {
        if bucket == 0 {
            0.5 / 1e3
        } else {
            (1u64 << bucket) as f64 / std::f64::consts::SQRT_2 / 1e3
        }
    }

    /// Empty-state audit: every derived field of a fresh daemon's
    /// snapshot (ratios, quantiles) must be a finite literal zero — not
    /// NaN from 0/0, not Inf, not `null` on the wire.
    #[test]
    fn fresh_daemon_snapshot_has_finite_zero_derived_fields() {
        let daemon = Daemon::bind("127.0.0.1:0", EngineConfig::default()).unwrap();
        let stats = daemon.stats();
        assert_eq!(stats.hit_rate, 0.0);
        assert_eq!(stats.latency_p50_ms, 0.0);
        assert_eq!(stats.latency_p99_ms, 0.0);
        assert!(stats.hit_rate.is_finite());
        assert!(stats.latency_p50_ms.is_finite());
        assert!(stats.latency_p99_ms.is_finite());
        assert!(stats.routers.is_empty());
        let mut line = String::new();
        stats.write_json(&mut line);
        // The serde shim writes non-finite floats as `null`; a fresh
        // snapshot must never contain one.
        assert!(!line.contains("null"), "{line}");
        assert!(line.contains("\"hit_rate\":0.0"), "{line}");
        assert!(line.contains("\"latency_p50_ms\":0.0"), "{line}");
        assert!(line.contains("\"latency_p99_ms\":0.0"), "{line}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let stats = stats_with_buckets(&[]);
        assert_eq!(stats.latency_quantile_ms(0.50), 0.0);
        assert_eq!(stats.latency_quantile_ms(0.99), 0.0);
    }

    #[test]
    fn single_sample_reports_the_bucket_geometric_midpoint() {
        // One sample in bucket 3, i.e. [4, 8) µs: every quantile must be
        // the geometric midpoint 8/√2 ≈ 5.66 µs — not the 8 µs upper
        // bound, which overstates the true latency by up to 2×.
        let stats = stats_with_buckets(&[(3, 1)]);
        for q in [0.01, 0.50, 0.99] {
            let got = stats.latency_quantile_ms(q);
            assert!((got - midpoint_ms(3)).abs() < 1e-12, "q={q}: {got}");
        }
        // Sub-microsecond bucket reports half a microsecond.
        let zero = stats_with_buckets(&[(0, 5)]);
        assert!((zero.latency_quantile_ms(0.5) - midpoint_ms(0)).abs() < 1e-12);
    }

    #[test]
    fn boundary_rank_selects_the_upper_median() {
        // Two samples in bucket 2, two in bucket 5: with an even count,
        // q=0.5 lands exactly on a bucket boundary. The inverse-CDF rank
        // ⌊0.5·4⌋+1 = 3 selects the *upper* median bucket; the pre-fix
        // ⌈0.5·4⌉ = 2 rounded down into bucket 2.
        let stats = stats_with_buckets(&[(2, 2), (5, 2)]);
        let p50 = stats.latency_quantile_ms(0.50);
        assert!((p50 - midpoint_ms(5)).abs() < 1e-12, "p50={p50}");
        // Below the boundary the lower bucket still answers…
        let p25 = stats.latency_quantile_ms(0.25);
        assert!((p25 - midpoint_ms(2)).abs() < 1e-12, "p25={p25}");
        // …and the top rank clamps to the last sample.
        let p99 = stats.latency_quantile_ms(0.99);
        assert!((p99 - midpoint_ms(5)).abs() < 1e-12, "p99={p99}");
    }

    #[test]
    fn quantile_rank_never_exceeds_total() {
        let stats = stats_with_buckets(&[(1, 1), (7, 1)]);
        assert!((stats.latency_quantile_ms(1.0) - midpoint_ms(7)).abs() < 1e-12);
        assert!((stats.latency_quantile_ms(0.0) - midpoint_ms(1)).abs() < 1e-12);
    }

    /// Chaos: a connection thread that panics while holding a shared
    /// mutex poisons it. Stats served over the wire and the graceful
    /// drain must both survive (pre-fix, the `expect("… poisoned")`
    /// calls turned one crashed connection into a daemon-wide outage).
    #[test]
    fn poisoned_shared_locks_still_answer_stats_and_drain() {
        let daemon = Daemon::bind("127.0.0.1:0", EngineConfig::default()).unwrap();
        let addr = daemon.local_addr();

        // Route one job first so the dispatch map is non-empty.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"side\": 4, \"router\": \"ats\", \"class\": \"random\", \"seed\": 1}\n")
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"depth\""), "{line}");

        // Panic a thread mid-update while it holds each shared lock.
        for _ in 0..2 {
            let shared = Arc::clone(&daemon.shared);
            let _ = std::thread::spawn(move || {
                let _conns = shared.conns.lock().unwrap();
                let _dispatch = shared.stats.dispatch.lock().unwrap();
                panic!("injected chaos: poison the shared daemon locks");
            })
            .join();
        }

        // `ctl --stats` over the wire must still answer, with the
        // dispatch counters intact.
        conn.write_all(b"{\"req\": \"stats\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"jobs_routed\":1"), "{line}");
        assert!(line.contains("\"ats\""), "{line}");

        // And the graceful drain must still complete.
        drop(conn);
        daemon.shutdown();
        let final_stats = daemon.join();
        assert_eq!(final_stats.jobs_routed, 1);
        assert_eq!(
            final_stats.routers,
            vec![RouterJobs { router: "ats".into(), jobs: 1 }]
        );
    }
}
