//! The in-process routing engine, its configuration, and the worker
//! pool every engine and daemon routes on.
//!
//! An [`Engine`] is one ordered session over a core it owns (the
//! `session` module holds the job path it shares with the daemon):
//! `submit` admits jobs in input order, `collect_next` finishes them in
//! job-id order and replays each canonical schedule into the job's own
//! frame. Every cache decision happens on the submitting thread, in
//! input order, so `--workers 1` and `--workers 8` produce identical
//! output bytes (proved by `tests/engine_stress.rs`); workers only ever
//! compute.
//!
//! Shutdown: dropping the engine drops its pool, which closes the queue
//! and sets a shutdown flag; workers drain remaining items without
//! routing them and exit, so dropping mid-queue cannot deadlock.

use crate::cache::{CacheStats, CanonicalKey, ShardedLru};
use crate::chaos::{self, ChaosConfig, ChaosState, ComputeFault};
use crate::errors::ServiceError;
use crate::job::{RouteJob, RouteOutcome, RouterSpec};
use crate::session::{Core, Pending, Session};
use qroute_core::budget::{self, BudgetExceeded, CancelToken, QuietUnwind, RouteBudget};
use qroute_core::{GridRouter, RouterKind, RoutingSchedule};
use qroute_perm::Permutation;
use qroute_topology::Topology;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine configuration. Construct via [`EngineConfig::builder`] (which
/// validates at [`EngineConfigBuilder::build`]) or [`Default`] and
/// struct update syntax; the daemon and `repro batch` both go through
/// the builder.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (clamped to at least 1). Output bytes do not
    /// depend on this.
    pub workers: usize,
    /// Total canonical-schedule cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shards (see [`ShardedLru`]).
    pub cache_shards: usize,
    /// Bounded work-queue depth: how many routed-but-not-yet-started
    /// canonical instances may be in flight before `submit` blocks
    /// (backpressure; clamped to at least 1).
    pub queue_depth: usize,
    /// Per-connection in-flight job limit in the daemon: a connection
    /// with this many uncollected jobs gets `backpressure` error
    /// outcomes instead of queueing more (never a hang). Unused by the
    /// in-process [`Engine`], whose `submit` blocks instead.
    pub client_queue_depth: usize,
    /// Router policy for jobs that do not name one (`"router"` absent
    /// from the JSONL line).
    pub default_router: RouterSpec,
    /// Capture per-job wall-clock routing time. Off by default so
    /// outcome lines are byte-deterministic.
    pub timing: bool,
    /// Deadline in milliseconds applied to every job that does not carry
    /// its own `deadline_ms`. `None` (the default) means jobs without a
    /// wire deadline run unbounded.
    pub default_deadline_ms: Option<u64>,
    /// How many crashed workers the supervisor may respawn over the
    /// pool's lifetime. Once exhausted (and every worker is dead), the
    /// pool stops routing and answers queued jobs with `shutdown`
    /// errors instead of hanging.
    pub max_worker_restarts: u64,
    /// Base of the supervisor's exponential respawn backoff, in
    /// milliseconds (doubles per restart, capped at 100 ms).
    pub restart_backoff_ms: u64,
    /// Fault injection. Disarmed by default; see [`ChaosConfig`].
    pub chaos: ChaosConfig,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 4,
            cache_capacity: 1024,
            cache_shards: 8,
            queue_depth: 32,
            client_queue_depth: 256,
            default_router: RouterSpec::Auto,
            timing: false,
            default_deadline_ms: None,
            max_worker_restarts: 64,
            restart_backoff_ms: 1,
            chaos: ChaosConfig::off(),
        }
    }
}

impl EngineConfig {
    /// Start a validated configuration build from the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { config: EngineConfig::default() }
    }
}

/// Builder for [`EngineConfig`]: setters stage values, [`Self::build`]
/// validates the combination and returns a typed
/// [`ServiceError::Config`] on nonsense (zero workers, zero queue
/// depth, ...) instead of silently clamping.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker thread count (must be ≥ 1 at build time).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Total canonical-schedule cache capacity. `0` is valid: it
    /// disables caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Cache shard count (must be ≥ 1 at build time).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.config.cache_shards = shards;
        self
    }

    /// Bounded work-queue depth (must be ≥ 1 at build time).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Per-connection in-flight limit for the daemon (must be ≥ 1 at
    /// build time).
    pub fn client_queue_depth(mut self, depth: usize) -> Self {
        self.config.client_queue_depth = depth;
        self
    }

    /// Router policy for jobs that do not name a router.
    pub fn default_router(mut self, router: RouterSpec) -> Self {
        self.config.default_router = router;
        self
    }

    /// Capture per-job wall-clock routing time (costs byte-determinism).
    pub fn timing(mut self, timing: bool) -> Self {
        self.config.timing = timing;
        self
    }

    /// Deadline (milliseconds, must be ≥ 1 at build time) for jobs that
    /// carry no `deadline_ms` of their own.
    pub fn default_deadline_ms(mut self, ms: u64) -> Self {
        self.config.default_deadline_ms = Some(ms);
        self
    }

    /// Lifetime cap on supervisor worker respawns (0 disables respawn).
    pub fn max_worker_restarts(mut self, restarts: u64) -> Self {
        self.config.max_worker_restarts = restarts;
        self
    }

    /// Base of the supervisor's exponential respawn backoff, in ms.
    pub fn restart_backoff_ms(mut self, ms: u64) -> Self {
        self.config.restart_backoff_ms = ms;
        self
    }

    /// Arm fault injection. The only way chaos turns on — there is no
    /// ambient (env-var) switch.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.config.chaos = chaos;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<EngineConfig, ServiceError> {
        let c = &self.config;
        for (value, what) in [
            (c.workers, "workers"),
            (c.queue_depth, "queue_depth"),
            (c.client_queue_depth, "client_queue_depth"),
            (c.cache_shards, "cache_shards"),
        ] {
            if value == 0 {
                return Err(ServiceError::Config(format!("{what} must be at least 1")));
            }
        }
        if c.default_deadline_ms == Some(0) {
            return Err(ServiceError::Config(
                "default_deadline_ms must be at least 1".to_string(),
            ));
        }
        Ok(self.config)
    }
}

/// A routed canonical instance as produced by a worker.
#[derive(Debug, Clone)]
pub(crate) struct RoutedEntry {
    pub(crate) schedule: Arc<RoutingSchedule>,
    /// Wall-clock routing time, when [`EngineConfig::timing`] is on.
    pub(crate) route_ms: Option<f64>,
}

/// A write-once slot a worker fills and any number of jobs wait on.
#[derive(Debug, Default)]
pub(crate) struct RouteSlot {
    filled: Mutex<Option<Result<RoutedEntry, ServiceError>>>,
    ready: Condvar,
    cancel: CancelToken,
}

impl RouteSlot {
    fn fill(&self, value: Result<RoutedEntry, ServiceError>) {
        let mut slot = self.filled.lock().expect("slot poisoned");
        debug_assert!(slot.is_none(), "slot filled twice");
        *slot = Some(value);
        self.ready.notify_all();
    }

    /// The token the deadline-armed compute of this slot watches.
    pub(crate) fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Ask the compute filling this slot to give up at its next
    /// cooperative checkpoint.
    pub(crate) fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Wait until the slot is filled, or until `deadline` if one is
    /// given. `None` means the deadline passed with the slot still empty;
    /// the slot itself stays valid — its compute may still fill it for
    /// later waiters.
    pub(crate) fn wait(
        &self,
        deadline: Option<Instant>,
    ) -> Option<Result<RoutedEntry, ServiceError>> {
        let mut slot = self.filled.lock().expect("slot poisoned");
        loop {
            if let Some(value) = slot.as_ref() {
                return Some(value.clone());
            }
            slot = match deadline {
                None => self.ready.wait(slot).expect("slot poisoned"),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return None;
                    }
                    self.ready
                        .wait_timeout(slot, at - now)
                        .expect("slot poisoned")
                        .0
                }
            };
        }
    }
}

/// One unit of worker work: route a canonical instance into its slot.
pub(crate) struct WorkItem {
    pub(crate) topology: Topology,
    pub(crate) pi: Permutation,
    pub(crate) router: RouterKind,
    pub(crate) slot: Arc<RouteSlot>,
    /// The slot's cache key, so fault paths can evict the error-bound
    /// entry (a later duplicate then recomputes instead of replaying the
    /// fault).
    pub(crate) key: CanonicalKey,
    /// The deadline/cancellation this compute must respect.
    pub(crate) budget: RouteBudget,
    /// The effective deadline in milliseconds, for the `timeout` error
    /// payload (`None` = unbounded; then only cancellation can expire
    /// the budget).
    pub(crate) deadline_ms: Option<u64>,
}

impl WorkItem {
    fn timeout_error(&self) -> ServiceError {
        ServiceError::Timeout { deadline_ms: self.deadline_ms.unwrap_or(0) }
    }

    fn panic_error(&self) -> ServiceError {
        ServiceError::RouterPanic {
            router: self.router.label().to_string(),
            topology: self.topology.to_string(),
        }
    }
}

/// Messages to the pool's supervisor thread.
enum SupervisorMsg {
    /// A worker thread died unwinding (sent from its [`DeathGuard`]).
    WorkerDied,
    /// The pool is shutting down: stop respawning, let the channel close.
    Stop,
}

/// Dropped at the end of every worker thread; reports the death to the
/// supervisor only when the thread is unwinding from a panic.
struct DeathGuard {
    deaths: mpsc::Sender<SupervisorMsg>,
}

impl Drop for DeathGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.deaths.send(SupervisorMsg::WorkerDied);
        }
    }
}

/// Everything a worker thread needs, cloneable so the supervisor can
/// respawn replacements. Holds a death-channel sender, so the channel
/// only closes once every worker (and the supervisor's template) is
/// gone.
#[derive(Clone)]
struct WorkerContext {
    receiver: Arc<Mutex<Receiver<WorkItem>>>,
    shutdown: Arc<AtomicBool>,
    cache: Arc<ShardedLru<Arc<RouteSlot>>>,
    chaos: Arc<ChaosState>,
    deaths: mpsc::Sender<SupervisorMsg>,
    /// [`EngineConfig::timing`].
    timing: bool,
}

fn spawn_worker(ctx: WorkerContext) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Injected crashes and budget unwinds are expected control flow;
        // keep them off stderr (real router panics still print).
        budget::suppress_quiet_panics();
        let _guard = DeathGuard { deaths: ctx.deaths.clone() };
        worker_main(&ctx);
    })
}

fn worker_main(ctx: &WorkerContext) {
    loop {
        // Hold the lock only while popping, never while routing.
        let item = match ctx.receiver.lock().expect("queue poisoned").recv() {
            Ok(item) => item,
            Err(_) => return, // queue closed: all work done
        };
        if ctx.shutdown.load(Ordering::SeqCst) {
            item.slot.fill(Err(ServiceError::Shutdown));
            continue; // drain remaining items without routing
        }
        if item.budget.is_exceeded() {
            // Expired while queued: answer without routing at all.
            ctx.cache.remove(&item.key);
            item.slot.fill(Err(item.timeout_error()));
            continue;
        }
        match ctx.chaos.on_compute() {
            ComputeFault::None => {}
            ComputeFault::Delay(delay) => {
                if !chaos::sleep_within_budget(delay, &item.budget) {
                    ctx.cache.remove(&item.key);
                    item.slot.fill(Err(item.timeout_error()));
                    continue;
                }
            }
            ComputeFault::Panic => {
                // Record the outcome for the poisoned job first, then
                // crash the thread to exercise the supervisor.
                ctx.cache.remove(&item.key);
                item.slot.fill(Err(item.panic_error()));
                std::panic::panic_any(QuietUnwind("chaos-injected worker crash"));
            }
        }
        let t0 = Instant::now();
        let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            budget::with_budget(&item.budget, || {
                item.router.route_on(&item.topology, &item.pi)
            })
        }));
        let route_ms = ctx.timing.then(|| t0.elapsed().as_secs_f64() * 1e3);
        match routed {
            Ok(Ok(Ok(schedule))) => {
                item.slot
                    .fill(Ok(RoutedEntry { schedule: Arc::new(schedule), route_ms }));
            }
            // Unsupported topologies are normally rejected on the submit
            // thread; this arm is a backstop.
            Ok(Ok(Err(unsupported))) => {
                item.slot.fill(Err(ServiceError::Unsupported(unsupported)));
            }
            Ok(Err(BudgetExceeded)) => {
                ctx.cache.remove(&item.key);
                item.slot.fill(Err(item.timeout_error()));
            }
            Err(payload) => {
                // A real router bug: contain it to this job, evict the
                // poisoned key, then let the thread die so the supervisor
                // decides whether to respawn.
                ctx.cache.remove(&item.key);
                item.slot.fill(Err(item.panic_error()));
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The supervisor loop: respawn dead workers within the restart budget,
/// and once every worker is gone for good, keep the queue drained (with
/// `shutdown` errors) so no submitter can ever hang on a dead pool.
fn supervise(
    msgs: mpsc::Receiver<SupervisorMsg>,
    mut workers: Vec<JoinHandle<()>>,
    template: WorkerContext,
    restarts: Arc<AtomicU64>,
    max_restarts: u64,
    backoff_base_ms: u64,
) {
    let drain_receiver = Arc::clone(&template.receiver);
    let mut template = Some(template);
    let mut alive = workers.len();
    let mut used: u64 = 0;
    loop {
        match msgs.recv() {
            // Every death sender is gone: all workers exited cleanly.
            Err(_) => break,
            Ok(SupervisorMsg::Stop) => {
                // Drop the template (and its death sender) so the channel
                // closes once the remaining workers exit.
                template = None;
            }
            Ok(SupervisorMsg::WorkerDied) => {
                alive = alive.saturating_sub(1);
                let respawn = template
                    .as_ref()
                    .filter(|ctx| !ctx.shutdown.load(Ordering::SeqCst) && used < max_restarts)
                    .cloned();
                match respawn {
                    Some(ctx) => {
                        used += 1;
                        // Count before the backoff sleep so stats polled
                        // during the backoff already see the restart.
                        restarts.fetch_add(1, Ordering::SeqCst);
                        let backoff = backoff_base_ms
                            .saturating_mul(1u64 << (used - 1).min(6))
                            .min(100);
                        if backoff > 0 {
                            std::thread::sleep(Duration::from_millis(backoff));
                        }
                        workers.push(spawn_worker(ctx));
                        alive += 1;
                    }
                    None if alive == 0 => {
                        // Restart budget exhausted (or shutting down) with
                        // no routing capacity left: answer everything
                        // still queued with `shutdown` errors rather than
                        // leaving waiters to hang.
                        let receiver = Arc::clone(&drain_receiver);
                        workers.push(std::thread::spawn(move || loop {
                            let item = match receiver.lock().expect("queue poisoned").recv() {
                                Ok(item) => item,
                                Err(_) => return,
                            };
                            item.slot.fill(Err(ServiceError::Shutdown));
                        }));
                        alive = 1;
                    }
                    None => {}
                }
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// The routing worker threads behind an [`Engine`] or a daemon: a
/// bounded work queue drained by `std` threads that route canonical
/// instances into their slots, watched by a supervisor thread that
/// respawns crashed workers (within `max_worker_restarts`, with
/// exponential backoff). Shared so the daemon reuses the exact
/// routing/panic-containment/drain semantics the engine's tests pin
/// down.
pub(crate) struct WorkerPool {
    sender: Option<SyncSender<WorkItem>>,
    supervisor: Option<JoinHandle<()>>,
    control: Option<mpsc::Sender<SupervisorMsg>>,
    shutdown: Arc<AtomicBool>,
    restarts: Arc<AtomicU64>,
    chaos: Arc<ChaosState>,
}

impl WorkerPool {
    /// Spawn the configured number of routing threads (plus the
    /// supervisor) over a bounded queue, all sharing `cache` for
    /// fault-path evictions.
    pub(crate) fn spawn(
        config: &EngineConfig,
        cache: Arc<ShardedLru<Arc<RouteSlot>>>,
    ) -> WorkerPool {
        let (sender, receiver) = sync_channel::<WorkItem>(config.queue_depth.max(1));
        let shutdown = Arc::new(AtomicBool::new(false));
        let chaos = Arc::new(ChaosState::new(config.chaos.clone()));
        let restarts = Arc::new(AtomicU64::new(0));
        let (deaths, death_rx) = mpsc::channel::<SupervisorMsg>();
        let ctx = WorkerContext {
            receiver: Arc::new(Mutex::new(receiver)),
            shutdown: Arc::clone(&shutdown),
            cache,
            chaos: Arc::clone(&chaos),
            deaths: deaths.clone(),
            timing: config.timing,
        };
        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| spawn_worker(ctx.clone()))
            .collect();
        let (max_restarts, backoff_ms) = (config.max_worker_restarts, config.restart_backoff_ms);
        let counter = Arc::clone(&restarts);
        let supervisor = std::thread::spawn(move || {
            supervise(death_rx, workers, ctx, counter, max_restarts, backoff_ms)
        });
        WorkerPool {
            sender: Some(sender),
            supervisor: Some(supervisor),
            control: Some(deaths),
            shutdown,
            restarts,
            chaos,
        }
    }

    /// Queue one canonical instance, blocking when the queue is full
    /// (backpressure).
    pub(crate) fn dispatch(&self, item: WorkItem) {
        self.sender
            .as_ref()
            .expect("pool alive while dispatching")
            .send(item)
            .expect("workers outlive the pool");
    }

    /// Make workers fill every still-queued slot with
    /// [`ServiceError::Shutdown`] instead of routing it.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// How many crashed workers the supervisor has respawned.
    pub(crate) fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// The pool's live fault-injection state (disarmed ⇒ all zeros).
    pub(crate) fn chaos(&self) -> &Arc<ChaosState> {
        &self.chaos
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes idle workers; the flag makes busy
        // ones drain queued items without routing them. The supervisor
        // joins every worker (original, respawned, or drainer) before
        // exiting itself.
        self.begin_shutdown();
        self.sender.take();
        if let Some(control) = self.control.take() {
            let _ = control.send(SupervisorMsg::Stop);
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

/// A collected result: the outcome line plus (for routed jobs) the
/// replayed schedule in the job's original frame.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// The JSONL outcome.
    pub outcome: RouteOutcome,
    /// The feasible schedule on the job's own grid (`None` for errored
    /// jobs).
    pub schedule: Option<RoutingSchedule>,
}

/// The routing engine: one ordered session over a core it owns, plus
/// the jobs submitted but not yet collected.
pub struct Engine {
    session: Session,
    pending: VecDeque<Pending>,
}

impl Engine {
    /// Spawn the worker pool.
    pub fn new(config: EngineConfig) -> Engine {
        Engine { session: Session::new(Arc::new(Core::new(config))), pending: VecDeque::new() }
    }

    /// Submit one job; returns its id (0-based submission index). Blocks
    /// when the work queue is full (backpressure). All cache and
    /// dispatch decisions happen here, in submission order; the job's
    /// deadline clock starts on entry, before planning.
    pub fn submit(&mut self, job: &RouteJob) -> u64 {
        let pending = self.session.admit(job, Instant::now());
        let id = pending.id();
        self.pending.push_back(pending);
        qroute_obs::trace::event(
            "engine.submit",
            &[
                ("job", qroute_obs::FieldValue::U64(id)),
                (
                    "pending",
                    qroute_obs::FieldValue::U64(self.pending.len() as u64),
                ),
            ],
        );
        id
    }

    /// Record a job that failed before it could even be constructed
    /// (e.g. an unparseable JSONL line), consuming the next id so output
    /// ids keep matching input line numbers.
    pub fn submit_error(&mut self, error: ServiceError) -> u64 {
        let pending = self.session.reject(error);
        let id = pending.id();
        self.pending.push_back(pending);
        id
    }

    /// Collect the oldest uncollected job, blocking until its result is
    /// ready. Returns `None` when everything submitted has been
    /// collected. Results always come back in job-id order.
    pub fn collect_next(&mut self) -> Option<RouteResult> {
        let (outcome, routed) = self.pending.pop_front()?.finish();
        Some(RouteResult { outcome, schedule: routed.map(|routed| routed.replay()) })
    }

    /// Collect and discard every submitted-but-uncollected job, leaving
    /// the engine empty and reusable. Blocks until in-flight canonical
    /// routes finish (workers never abandon a slot).
    pub fn drain(&mut self) {
        while self.collect_next().is_some() {}
    }

    /// Route a batch: submit everything in order, collect everything in
    /// job-id order, return the outcomes.
    pub fn run(&mut self, jobs: impl IntoIterator<Item = RouteJob>) -> Vec<RouteOutcome> {
        self.run_detailed(jobs)
            .into_iter()
            .map(|r| r.outcome)
            .collect()
    }

    /// [`Engine::run`], but also returning each job's replayed schedule.
    ///
    /// Panic-safe: if the `jobs` iterator panics mid-stream, every job
    /// it already yielded is drained before the panic resumes, so the
    /// engine is left empty (not half-drained) and stays usable — and a
    /// later `run` cannot return a stale predecessor's outcomes.
    pub fn run_detailed(&mut self, jobs: impl IntoIterator<Item = RouteJob>) -> Vec<RouteResult> {
        let submitted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for job in jobs {
                self.submit(&job);
            }
        }));
        if let Err(panic) = submitted {
            self.drain();
            std::panic::resume_unwind(panic);
        }
        let mut out = Vec::new();
        while let Some(result) = self.collect_next() {
            out.push(result);
        }
        out
    }

    /// Number of submitted-but-not-yet-collected jobs. Long job streams
    /// should interleave submission with collection once this exceeds a
    /// window (results arrive in id order either way), keeping resident
    /// schedules bounded instead of proportional to the stream length.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Cache counters since engine construction (snapshot-diff with
    /// [`CacheStats::since`] for per-batch numbers).
    pub fn cache_stats(&self) -> CacheStats {
        self.session.core.cache.stats()
    }

    /// How many crashed workers the pool's supervisor has respawned.
    pub fn worker_restarts(&self) -> u64 {
        self.session.core.pool.restarts()
    }

    /// Live fault-injection counters (all zero when chaos is disarmed).
    pub fn chaos(&self) -> &ChaosState {
        self.session.core.pool.chaos()
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.session.core.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RouterSpec;
    use qroute_perm::generators;
    use qroute_topology::Grid;

    fn tiny_engine(workers: usize, cache_capacity: usize) -> Engine {
        Engine::new(EngineConfig { workers, cache_capacity, ..EngineConfig::default() })
    }

    #[test]
    fn identical_jobs_hit_the_cache() {
        let mut engine = tiny_engine(2, 64);
        let job = RouteJob::from_class(6, "ats", "random", 1).unwrap();
        let out = engine.run(vec![job.clone(), job.clone(), job]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].cache.as_deref(), Some("miss"));
        assert_eq!(out[1].cache.as_deref(), Some("hit"));
        assert_eq!(out[2].cache.as_deref(), Some("hit"));
        assert_eq!(out[0].depth, out[1].depth);
        assert_eq!(out[0].size, out[2].size);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn outcomes_come_back_in_submission_order() {
        let mut engine = tiny_engine(4, 0);
        let jobs: Vec<RouteJob> = (0..20)
            .map(|seed| RouteJob::from_class(5, "auto", "random", seed).unwrap())
            .collect();
        let out = engine.run(jobs);
        let ids: Vec<u64> = out.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
        // Capacity 0: nothing is ever served from cache.
        assert!(out.iter().all(|o| o.cache.as_deref() == Some("miss")));
    }

    #[test]
    fn error_jobs_yield_error_outcomes_in_place() {
        let mut engine = tiny_engine(2, 16);
        engine.submit(&RouteJob::from_class(4, "ats", "random", 0).unwrap());
        engine.submit_error(ServiceError::Parse("line 2 was garbage".to_string()));
        engine.submit(&RouteJob {
            side: 3,
            router: None,
            perm: crate::job::PermSpec::Explicit(vec![0; 9]),
            topology: crate::job::TopologySpec::Grid,
            v: None,
            deadline_ms: None,
        });
        let a = engine.collect_next().unwrap();
        let b = engine.collect_next().unwrap();
        let c = engine.collect_next().unwrap();
        assert!(engine.collect_next().is_none());
        assert_eq!(a.outcome.error, None);
        assert_eq!(a.outcome.code, None);
        assert_eq!(b.outcome.error.as_deref(), Some("line 2 was garbage"));
        assert_eq!(b.outcome.code, Some("parse"));
        assert_eq!(b.outcome.id, 1);
        assert!(c.outcome.error.is_some(), "duplicate images must fail");
        assert_eq!(c.outcome.side, Some(3));
    }

    #[test]
    fn detailed_results_carry_feasible_schedules() {
        let mut engine = tiny_engine(3, 64);
        let grid = Grid::new(6, 6);
        let jobs: Vec<RouteJob> = (0..4)
            .map(|seed| {
                RouteJob::explicit(
                    6,
                    RouterSpec::Fixed(RouterKind::locality_aware()),
                    &generators::block_local(grid, 2, 2, seed),
                )
            })
            .collect();
        let graph = grid.to_graph();
        for result in engine.run_detailed(jobs) {
            let schedule = result.schedule.expect("routed job has a schedule");
            schedule.validate_on(&graph).unwrap();
            assert_eq!(Some(schedule.depth()), result.outcome.depth);
            assert!(result.outcome.depth.unwrap() >= result.outcome.lower_bound.unwrap());
        }
    }

    #[test]
    fn symmetric_instances_share_cache_entries() {
        // The same block pattern translated across the grid: first job
        // misses, every translated copy hits and reports identical
        // depth/size.
        let grid = Grid::new(8, 8);
        let mut jobs = Vec::new();
        for (r, c) in [(0, 0), (0, 5), (5, 0), (5, 5)] {
            let mut map: Vec<usize> = (0..64).collect();
            let a = grid.index(r, c);
            let b = grid.index(r, c + 1);
            let d = grid.index(r + 1, c);
            map.swap(a, b);
            map.swap(b, d);
            jobs.push(RouteJob::explicit(
                8,
                RouterSpec::Fixed(RouterKind::Ats),
                &Permutation::from_vec(map).unwrap(),
            ));
        }
        let mut engine = tiny_engine(2, 64);
        let out = engine.run(jobs);
        assert_eq!(out[0].cache.as_deref(), Some("miss"));
        for o in &out[1..] {
            assert_eq!(o.cache.as_deref(), Some("hit"));
            assert_eq!(o.depth, out[0].depth);
            assert_eq!(o.size, out[0].size);
        }
    }

    #[test]
    fn differently_configured_routers_never_share_cache_entries() {
        use qroute_core::LocalRouteOptions;
        // Same label ("locality-aware"), different option sets: the
        // second job must be a cache miss routed with its own config.
        let pi = generators::random(36, 3);
        let default_opts = RouterKind::locality_aware();
        let tuned = RouterKind::LocalityAware(LocalRouteOptions {
            try_transpose: !LocalRouteOptions::default().try_transpose,
            ..LocalRouteOptions::default()
        });
        let mut engine = tiny_engine(2, 64);
        let out = engine.run(vec![
            RouteJob::explicit(6, RouterSpec::Fixed(default_opts), &pi),
            RouteJob::explicit(6, RouterSpec::Fixed(tuned.clone()), &pi),
            RouteJob::explicit(6, RouterSpec::Fixed(tuned), &pi),
        ]);
        assert_eq!(out[0].cache.as_deref(), Some("miss"));
        assert_eq!(
            out[1].cache.as_deref(),
            Some("miss"),
            "same label, different config must not hit"
        );
        assert_eq!(out[2].cache.as_deref(), Some("hit"), "same config does hit");
        assert_eq!(out[1].depth, out[2].depth);
    }

    #[test]
    fn oversized_side_becomes_a_per_job_error() {
        let mut engine = tiny_engine(1, 4);
        let out = engine.run(vec![
            RouteJob::from_class(crate::job::MAX_SIDE + 1, "ats", "random", 0).unwrap(),
            RouteJob::from_class(4, "ats", "random", 0).unwrap(),
        ]);
        let err = out[0].error.as_deref().expect("oversized side errors");
        assert!(err.contains("out of range"), "{err}");
        assert_eq!(out[1].error, None, "the rest of the batch still routes");
    }

    #[test]
    fn timing_capture_is_opt_in() {
        let mut engine =
            Engine::new(EngineConfig { workers: 1, timing: true, ..EngineConfig::default() });
        let job = RouteJob::from_class(5, "ats", "random", 0).unwrap();
        let out = engine.run(vec![job.clone(), job]);
        assert!(out[0].time_ms.is_some());
        assert_eq!(out[1].time_ms, Some(0.0), "hits report zero routing time");

        let mut untimed = tiny_engine(1, 16);
        let job = RouteJob::from_class(5, "ats", "random", 0).unwrap();
        assert!(untimed.run(vec![job])[0].time_ms.is_none());
    }

    #[test]
    fn defective_and_heavy_hex_jobs_route_and_duplicates_hit() {
        let defect = RouteJob::from_json_line(
            r#"{"side": 5, "router": "ats", "class": "random", "seed": 7,
                "topology": {"kind": "defect", "defects": [12]}}"#,
        )
        .unwrap();
        let hex = RouteJob::from_json_line(
            r#"{"side": 4, "router": "ats", "class": "random", "seed": 7,
                "topology": {"kind": "heavy-hex"}}"#,
        )
        .unwrap();
        let mut engine = tiny_engine(2, 64);
        let out = engine.run(vec![defect.clone(), defect, hex.clone(), hex]);
        for o in &out {
            assert_eq!(o.error, None, "job {} must route: {:?}", o.id, o.error);
            assert_eq!(o.router.as_deref(), Some("ats"));
            assert!(o.depth.unwrap() >= o.lower_bound.unwrap());
        }
        assert_eq!(out[0].cache.as_deref(), Some("miss"));
        assert_eq!(out[1].cache.as_deref(), Some("hit"));
        assert_eq!(out[2].cache.as_deref(), Some("miss"));
        assert_eq!(out[3].cache.as_deref(), Some("hit"));
    }

    #[test]
    fn reflected_defect_patterns_share_a_cache_entry() {
        // The same dead-center 4-cycle, and its horizontal mirror: one
        // canonical entry, so the second job is a hit.
        let grid = Grid::new(5, 5);
        let ring = [
            grid.index(1, 1),
            grid.index(1, 3),
            grid.index(3, 3),
            grid.index(3, 1),
        ];
        let mut forward: Vec<usize> = (0..25).collect();
        let mut mirrored: Vec<usize> = (0..25).collect();
        for w in 0..4 {
            forward[ring[w]] = ring[(w + 1) % 4];
            mirrored[ring[(w + 1) % 4]] = ring[w];
        }
        let jobs: Vec<RouteJob> = [forward, mirrored]
            .into_iter()
            .map(|map| {
                RouteJob::from_json_line(&format!(
                    r#"{{"side": 5, "router": "ats", "perm": {map:?},
                        "topology": {{"kind": "defect", "defects": [12]}}}}"#
                ))
                .unwrap()
            })
            .collect();
        let mut engine = tiny_engine(2, 64);
        let out = engine.run(jobs);
        assert_eq!(out[0].cache.as_deref(), Some("miss"));
        assert_eq!(out[1].cache.as_deref(), Some("hit"));
        assert_eq!(out[0].depth, out[1].depth);
    }

    #[test]
    fn grid_only_router_on_a_non_grid_topology_is_a_typed_error_outcome() {
        let bad = RouteJob::from_json_line(
            r#"{"side": 4, "router": "locality-aware", "class": "random", "seed": 0,
                "topology": {"kind": "heavy-hex"}}"#,
        )
        .unwrap();
        let good = RouteJob::from_class(4, "ats", "random", 0).unwrap();
        let mut engine = tiny_engine(2, 16);
        let out = engine.run(vec![bad, good]);
        let err = out[0].error.as_deref().expect("unsupported pairing errors");
        assert!(err.contains("full grids"), "{err}");
        assert!(err.contains("heavy-hex"), "{err}");
        assert_eq!(out[1].error, None, "the rest of the batch still routes");
        assert_eq!(out[0].code, Some("unsupported-router"));
        // The rejection never consulted the cache.
        assert_eq!(engine.cache_stats().misses, 1);
    }

    #[test]
    fn builder_validates_and_default_matches_default_impl() {
        let built = EngineConfig::builder()
            .workers(2)
            .cache_capacity(64)
            .queue_depth(8)
            .client_queue_depth(4)
            .default_router(RouterSpec::Fixed(RouterKind::Ats))
            .build()
            .unwrap();
        assert_eq!(built.workers, 2);
        assert_eq!(built.cache_capacity, 64);
        assert_eq!(built.queue_depth, 8);
        assert_eq!(built.client_queue_depth, 4);
        assert!(matches!(
            built.default_router,
            RouterSpec::Fixed(RouterKind::Ats)
        ));

        // A bare build() reproduces Default exactly.
        let (built, default) = (
            EngineConfig::builder().build().unwrap(),
            EngineConfig::default(),
        );
        assert_eq!(built.workers, default.workers);
        assert_eq!(built.cache_capacity, default.cache_capacity);
        assert_eq!(built.cache_shards, default.cache_shards);
        assert_eq!(built.queue_depth, default.queue_depth);
        assert_eq!(built.client_queue_depth, default.client_queue_depth);
        assert_eq!(built.timing, default.timing);

        for (builder, what) in [
            (EngineConfig::builder().workers(0), "workers"),
            (EngineConfig::builder().queue_depth(0), "queue_depth"),
            (
                EngineConfig::builder().client_queue_depth(0),
                "client_queue_depth",
            ),
            (EngineConfig::builder().cache_shards(0), "cache_shards"),
        ] {
            let err = builder.build().unwrap_err();
            assert_eq!(err.code(), "config", "{what}");
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn routerless_jobs_follow_the_engine_default_policy() {
        let line = r#"{"side": 4, "class": "random", "seed": 0}"#;
        let job = RouteJob::from_json_line(line).unwrap();
        assert!(job.router.is_none());
        let mut pinned = Engine::new(
            EngineConfig::builder()
                .workers(1)
                .default_router(RouterSpec::Fixed(RouterKind::Ats))
                .build()
                .unwrap(),
        );
        let out = pinned.run(vec![job.clone()]);
        assert_eq!(out[0].router.as_deref(), Some("ats"));
        // ... while a job naming its own router overrides the default.
        let named = RouteJob::from_json_line(
            r#"{"side": 4, "router": "tree", "class": "random", "seed": 0}"#,
        )
        .unwrap();
        assert_eq!(pinned.run(vec![named])[0].router.as_deref(), Some("tree"));
    }

    #[test]
    fn panicking_job_iterator_leaves_the_engine_drained_and_usable() {
        let mut engine = tiny_engine(2, 16);
        let jobs = (0..6).map(|seed| {
            if seed == 4 {
                panic!("iterator exploded mid-stream");
            }
            RouteJob::from_class(4, "ats", "random", seed).unwrap()
        });
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(jobs);
        }));
        assert!(unwound.is_err(), "the panic must propagate");
        // The four submitted jobs were drained, not left half-collected...
        assert_eq!(engine.pending_len(), 0);
        // ...and the engine still works, with fresh ids after the
        // consumed ones.
        let out = engine.run(vec![RouteJob::from_class(4, "ats", "random", 9).unwrap()]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 4);
        assert_eq!(out[0].error, None);
    }
}
