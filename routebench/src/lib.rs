//! # routebench
//!
//! The routing service's benchmark: three workloads (`grid-cold`,
//! `swap-heavy`, `daemon-hot`) driven through the service's public API,
//! reporting end-to-end metrics untraced and per-layer metrics from a
//! traced run plus a single-thread layer walk. See `README.md` for why
//! each workload exists and what each metric should move.

pub mod alloc;
pub mod batch;
pub mod daemon;
pub mod report;
pub mod run;
pub mod trace;
pub mod walk;
pub mod workloads;

/// Counts the bytes every thread allocates (see [`alloc`]).
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
