//! Ordered job sessions over a shared routing core: the one path from a
//! job line to an outcome, whether the line came from a file
//! ([`Engine`](crate::Engine)) or a socket ([`Daemon`](crate::Daemon)).
//!
//! ```text
//!  Core (shared): config · canonical cache ShardedLru<Arc<RouteSlot>> · worker pool
//!
//!  Session (one ordered job stream: the engine, or one daemon connection)
//!    admit(job, start)    plan (resolve, auto-dispatch, lower bound,
//!                         canonicalize) → mirror hit/miss → shared-cache
//!                         get-or-insert → on insert: arm budget, dispatch
//!    reject(error)        parse/backpressure error, same id sequence
//!        │
//!        ▼  Pending, kept in stream order by the caller
//!  workers (shared)       route canonical instances into their slots
//!        │
//!        ▼
//!  Pending::finish        wait on the slot until the deadline → cancel the
//!                         compute only if this session dispatched it →
//!                         RouteOutcome + the canonical entry
//! ```
//!
//! The engine is one session over a core it owns and replays each
//! canonical entry into the job's frame ([`Routed::replay`]); each daemon
//! connection is one session over the daemon's core and answers depth
//! and size from the canonical schedule without replaying. Workers pack
//! each schedule once ([`PackedSchedule`]); entries stay packed in the
//! cache and in every slot.
//!
//! **Determinism.** A job's `cache` status is the answer of its
//! session's private *mirror* (same entry and byte budgets, sharding and
//! entry charges as the shared cache, keys only), which sees exactly
//! that session's stream in order. So outcome bytes depend only on the
//! session's job sequence — not on worker scheduling, the worker count,
//! or other sessions sharing the core — and batch output and wire output
//! agree by construction. The shared cache only dedups *compute*: a
//! mirror miss may be served from another session's slot (routers are
//! deterministic, so depth and size are identical either way). Hits
//! share the slot, not the cache entry, so an eviction between insert
//! and use never strands a job.
//!
//! **Deadlines** are measured from `start`, which the caller takes when
//! the job arrives, before planning. A compute that times out or panics
//! evicts its shared-cache key so a later duplicate recomputes; the
//! mirror still holds the key, so that duplicate reports `hit`.

use crate::cache::{canonicalize_topology, CanonicalForm, CanonicalKey, ShardedLru};
use crate::dispatch::select_router_on;
use crate::engine::{EngineConfig, RouteSlot, WorkItem, WorkerPool};
use crate::errors::ServiceError;
use crate::job::{CacheStatus, RouteJob, RouteOutcome, RouterSpec};
use qroute_core::budget::RouteBudget;
use qroute_core::{PackedSchedule, RouterKind, RoutingSchedule, UnsupportedTopology};
use qroute_perm::{metrics, Permutation};
use qroute_topology::Topology;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Byte budget of the canonical-schedule cache, split evenly over its
/// shards. Each entry is charged at admission: the key's bytes plus
/// 8 B × ⌈Φ/2⌉, where Φ is the total distance of the job's permutation.
/// A swap lowers Φ by at most 2, so this is a lower bound on the packed
/// schedule's swap bytes. An entry heavier than its shard's budget is
/// routed but not stored.
pub(crate) const CACHE_BYTES: usize = 32 << 20;

/// What every session over one engine or daemon shares.
pub(crate) struct Core {
    pub(crate) config: EngineConfig,
    cache_bytes: usize,
    pub(crate) cache: Arc<ShardedLru<Arc<RouteSlot>>>,
    pub(crate) pool: WorkerPool,
}

impl Core {
    /// Build the shared cache, bounded by `cache_bytes` charged bytes
    /// ([`CACHE_BYTES`] outside tests), and spawn the worker pool.
    pub(crate) fn new(config: EngineConfig, cache_bytes: usize) -> Core {
        let cache = Arc::new(configured_cache(&config, cache_bytes));
        Core { pool: WorkerPool::spawn(&config, Arc::clone(&cache)), cache, cache_bytes, config }
    }
}

/// A cache with `config`'s entry budget and shards and `cache_bytes` —
/// the shared cache and every session's mirror are built alike.
fn configured_cache<V: Clone>(config: &EngineConfig, cache_bytes: usize) -> ShardedLru<V> {
    ShardedLru::new(config.cache_capacity, config.cache_shards).with_byte_budget(cache_bytes)
}

/// Everything decided about a resolvable job *before* the cache is
/// consulted: the resolved router, the instance, its canonical form and
/// cache key, the depth lower bound, and the bytes its cache entry is
/// charged.
struct RoutePlan {
    router: RouterKind,
    lower_bound: usize,
    canonical: Box<CanonicalForm>,
    key: CanonicalKey,
    weight: usize,
    topology: Topology,
    pi: Permutation,
}

/// Resolve and plan one job: materialize the instance, pick the router
/// (job's own, else `default_router`), reject unsupported pairings
/// before they touch any cache, bound the depth, canonicalize, and
/// charge the cache entry (see [`CACHE_BYTES`]).
fn plan_route(job: &RouteJob, default_router: &RouterSpec) -> Result<RoutePlan, ServiceError> {
    let (topology, pi) = job.resolve()?;
    let router = match job.router.as_ref().unwrap_or(default_router) {
        RouterSpec::Auto => select_router_on(&topology, &pi),
        RouterSpec::Fixed(kind) => kind.clone(),
    };
    if !router.supports(&topology) {
        // Reject before touching the cache: an unsupported pairing must
        // neither pollute the key space nor reach a worker.
        return Err(ServiceError::Unsupported(UnsupportedTopology {
            router: router.label(),
            topology: topology.to_string(),
        }));
    }
    // One pass gives the depth bound and the total distance Φ.
    let (lower_bound, total_distance) = match topology.as_grid() {
        Some(grid) => metrics::depth_lower_bound_and_total(grid, &pi),
        None => {
            let graph = topology.graph();
            let oracle = topology.oracle(&graph);
            metrics::depth_lower_bound_and_total_oracle(&oracle, &pi)
        }
    };
    let canonical = Box::new(canonicalize_topology(&topology, &pi));
    // Key on the router's full Debug rendering, not its label:
    // differently-configured routers with the same label must not share
    // cached schedules.
    let key = canonical.key(format!("{router:?}"));
    // A swap lowers Φ by at most 2, so any schedule has ≥ ⌈Φ/2⌉ swaps of
    // 8 packed bytes each.
    let weight = key.bytes() + 8 * total_distance.div_ceil(2);
    Ok(RoutePlan { router, lower_bound, canonical, key, weight, topology, pi })
}

/// One ordered stream of jobs over a shared [`Core`]. Each call to
/// [`Session::admit`] or [`Session::reject`] consumes the next job id.
pub(crate) struct Session {
    pub(crate) core: Arc<Core>,
    mirror: ShardedLru<()>,
    next_id: u64,
}

impl Session {
    pub(crate) fn new(core: Arc<Core>) -> Session {
        Session { mirror: configured_cache(&core.config, core.cache_bytes), core, next_id: 0 }
    }

    fn take_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Plan `job`, decide its cache status, and dispatch its canonical
    /// instance unless some session already did. Blocks while the work
    /// queue is full (backpressure). The job's deadline runs from
    /// `start`.
    pub(crate) fn admit(&mut self, job: &RouteJob, start: Instant) -> Pending {
        let id = self.take_id();
        let (side, v) = (Some(job.side), job.v);
        let plan = match plan_route(job, &self.core.config.default_router) {
            Ok(plan) => plan,
            Err(error) => return Pending { id, side, v, job: Err(error) },
        };
        let deadline = job
            .deadline_ms
            .or(self.core.config.default_deadline_ms)
            .map(|ms| (start + Duration::from_millis(ms), ms));
        let (key, weight) = (&plan.key, plan.weight);
        let cache = if self.mirror.get_or_insert_with(key.clone(), weight, || ()).1 {
            CacheStatus::Miss
        } else {
            CacheStatus::Hit
        };
        let shared = &self.core.cache;
        let (slot, dispatched) = shared.get_or_insert_with(key.clone(), weight, Default::default);
        if dispatched {
            // Unbounded jobs keep the zero-overhead routing path: no
            // deadline means nobody ever cancels, so the budget stays
            // unarmed.
            let unlimited = RouteBudget::unlimited();
            let budget = match deadline {
                None => unlimited,
                Some((at, _)) => unlimited.deadline(at).cancel_token(slot.cancel_token()),
            };
            self.core.pool.dispatch(WorkItem {
                topology: plan.canonical.topology.clone(),
                pi: plan.canonical.pi.clone(),
                router: plan.router.clone(),
                slot: Arc::clone(&slot),
                key: plan.key,
                budget,
                deadline_ms: deadline.map(|(_, ms)| ms),
            });
        }
        let admitted = Admitted {
            router: plan.router.label(),
            cache,
            lower_bound: plan.lower_bound,
            slot,
            dispatched,
            deadline,
            canonical: plan.canonical,
            topology: plan.topology,
            pi: plan.pi,
        };
        Pending { id, side, v, job: Ok(admitted) }
    }

    /// Record a job that failed before it could be planned (an
    /// unparseable line, a backpressure rejection), keeping ids in step
    /// with input lines.
    pub(crate) fn reject(&mut self, error: ServiceError) -> Pending {
        Pending { id: self.take_id(), side: None, v: None, job: Err(error) }
    }
}

/// An admitted or rejected job whose outcome is not yet built.
pub(crate) struct Pending {
    id: u64,
    side: Option<usize>,
    v: Option<u64>,
    job: Result<Admitted, ServiceError>,
}

struct Admitted {
    router: &'static str,
    cache: CacheStatus,
    lower_bound: usize,
    slot: Arc<RouteSlot>,
    /// Whether *this session* dispatched the slot's compute: a wait-side
    /// timeout may only cancel a compute it owns.
    dispatched: bool,
    /// When to stop waiting, and the same deadline in milliseconds for
    /// the `timeout` payload.
    deadline: Option<(Instant, u64)>,
    canonical: Box<CanonicalForm>,
    topology: Topology,
    pi: Permutation,
}

/// A routed job's canonical schedule and what it takes to replay it
/// into the job's own frame.
pub(crate) struct Routed {
    job: Admitted,
    schedule: Arc<PackedSchedule>,
}

impl Routed {
    /// The schedule in the job's original frame.
    pub(crate) fn replay(&self) -> RoutingSchedule {
        let schedule = self.job.canonical.replay_packed(&self.schedule);
        debug_assert!(
            schedule.realizes(&self.job.pi),
            "replayed schedule must realize the job's permutation"
        );
        debug_assert!(schedule.validate_on(&self.job.topology.graph()).is_ok());
        schedule
    }
}

impl Pending {
    /// The resolved router label of an admitted job.
    pub(crate) fn router(&self) -> Option<&'static str> {
        self.job.as_ref().ok().map(|job| job.router)
    }

    /// The job id this pending job consumed.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Wait for the job's route (up to its deadline) and build its
    /// outcome; routed jobs also hand back their canonical entry.
    pub(crate) fn finish(self) -> (RouteOutcome, Option<Routed>) {
        let Pending { id, side, v, job } = self;
        let waited = job.and_then(|job| {
            let entry = match job.slot.wait(job.deadline.map(|(at, _)| at)) {
                Some(entry) => entry?,
                None => {
                    // The deadline passed mid-compute. A hit's waiter
                    // must not poison a compute it merely shares.
                    if job.dispatched {
                        job.slot.cancel();
                    }
                    let deadline_ms = job.deadline.map_or(0, |(_, ms)| ms);
                    return Err(ServiceError::Timeout { deadline_ms });
                }
            };
            Ok((job, entry))
        });
        match waited {
            Err(error) => (RouteOutcome::from_error(id, side, v, &error), None),
            Ok((job, entry)) => {
                let outcome = RouteOutcome {
                    v,
                    id,
                    side,
                    router: Some(job.router.to_string()),
                    cache: Some(job.cache.as_str().to_string()),
                    // Depth and size are replay-invariant, so the
                    // canonical schedule answers without replaying.
                    depth: Some(entry.schedule.depth()),
                    size: Some(entry.schedule.size()),
                    lower_bound: Some(job.lower_bound),
                    time_ms: entry.route_ms.map(|ms| match job.cache {
                        CacheStatus::Miss => ms,
                        CacheStatus::Hit => 0.0,
                    }),
                    code: None,
                    error: None,
                };
                (outcome, Some(Routed { job, schedule: entry.schedule }))
            }
        }
    }
}
