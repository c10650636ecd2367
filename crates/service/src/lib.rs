//! # qroute-service
//!
//! A batched, cached, multi-worker **routing engine** over the
//! single-call routers in [`qroute_core`] — the throughput layer the
//! ROADMAP's "heavy traffic" north star asks for. Transpilation
//! campaigns invoke routing thousands of times with highly repetitive
//! permutation structure; this crate turns those calls into JSONL jobs
//! that are batched, dispatched across a worker pool, and served from a
//! symmetry-aware cache.
//!
//! * [`job`] — [`RouteJob`]/[`RouteOutcome`]: the serde request/response
//!   types and their JSONL wire format (`repro batch` speaks this).
//! * `session` — the one path from a job line to an outcome: ordered
//!   sessions over a shared core (config, canonical cache, worker pool).
//!   A session plans each job, takes its `cache` status from a private
//!   mirror of its own stream, dispatches misses, and finishes jobs in
//!   order, under their deadlines. Output bytes are independent of the
//!   worker count and of other sessions sharing the core.
//! * [`engine`] — [`Engine`]: one session over a core it owns, with a
//!   bounded work queue (backpressure), std-thread worker pool, and
//!   graceful shutdown; `repro batch` runs on it.
//! * [`cache`] — the sharded LRU keyed on a **canonical form** of
//!   `(topology, π)`: translation of the support bounding box plus the
//!   eight dihedral grid symmetries (defect patterns included — dead
//!   vertices/edges inside the box are carried through the
//!   minimization), with cached schedules replayed back through the
//!   inverse symmetry. Symmetry makes the cache far more effective than
//!   naive `(topology, π)` memoization.
//! * [`dispatch`] — the `auto` router-selection policy, driven by cheap
//!   [`qroute_perm::metrics`] features (total L1 distance, max
//!   displacement, block-locality score); non-grid topologies resolve to
//!   approximate token swapping, the topology-generic router.
//! * [`daemon`] / [`client`] — a long-lived TCP server speaking the same
//!   JSONL wire format, one session per connection over a shared core:
//!   a connection's outcome bytes match `repro batch` for the same job
//!   list, the shared cache dedups compute across connections, and the
//!   daemon adds bounded per-client admission control, graceful drain on
//!   shutdown, and a `stats` request returning a [`StatsSnapshot`]. The
//!   blocking [`Client`] drives it from tests, `repro ctl`, and
//!   benchmarks.
//! * [`errors`] — [`ServiceError`], the one error type of the service
//!   layer, with a stable machine-readable [`ServiceError::code`]
//!   carried in the `"code"` field of error outcomes.
//! * [`chaos`] — deterministic fault injection (worker crashes, injected
//!   latency, dropped/torn connections), compiled always but armed only
//!   through [`EngineConfigBuilder::chaos`]. Together with per-job
//!   deadlines (`deadline_ms`), supervised worker respawn, and the
//!   retrying [`RetryingClient`], it forms the resilience layer — see
//!   the README's "Resilience" section.
//!
//! Jobs default to square grids (`"side"` alone), but an optional
//! `"topology"` object selects defective grids, heavy-hex, brick-wall,
//! or torus couplings — see [`job::TopologySpec`] and the `job` module
//! docs for the wire format.
//!
//! ```
//! use qroute_service::{Engine, EngineConfig, RouteJob};
//!
//! let mut engine = Engine::new(EngineConfig::builder().workers(2).build().unwrap());
//! let job = RouteJob::from_json_line(
//!     r#"{"side": 6, "router": "auto", "class": "block2", "seed": 1}"#,
//! ).unwrap();
//! let outcomes = engine.run(vec![job.clone(), job]);
//! assert_eq!(outcomes[0].cache.as_deref(), Some("miss"));
//! assert_eq!(outcomes[1].cache.as_deref(), Some("hit"));
//! assert_eq!(outcomes[0].depth, outcomes[1].depth);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod daemon;
pub mod dispatch;
pub mod engine;
pub mod errors;
pub mod job;
pub mod pretty;
mod session;

pub use cache::{
    canonicalize, canonicalize_topology, CacheStats, CanonicalForm, CanonicalKey, ShardedLru,
};
pub use chaos::{ChaosConfig, ChaosState};
pub use client::{Client, RetryPolicy, RetryingClient};
pub use daemon::{Daemon, RouterJobs, StatsSnapshot};
pub use dispatch::{features, select_router, select_router_on, InstanceFeatures};
pub use engine::{Engine, EngineConfig, EngineConfigBuilder, RouteResult};
pub use errors::ServiceError;
pub use job::{
    CacheStatus, PermSpec, RouteJob, RouteOutcome, RouterSpec, TopologySpec, MAX_SIDE, WIRE_VERSION,
};
pub use pretty::render_stats_table;
