//! The benchmark's own trace subscriber. It folds the program's existing
//! spans and events online into per-layer totals, so a long traced run
//! keeps no record list in memory.

use qroute_obs::{FieldValue, Subscriber, TraceRecord};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};

/// Per-router totals from `route` spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterTime {
    /// Routes observed.
    pub routes: u64,
    /// Summed route span time, µs.
    pub total_us: u64,
}

/// Everything the subscriber has folded so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceTotals {
    /// `route` spans by router label.
    pub routes: BTreeMap<String, RouterTime>,
    /// `locality.matchings` span time, µs.
    pub matchings_us: u64,
    /// `locality.line_routing` span time, µs.
    pub line_routing_us: u64,
    /// `hybrid` route time outside its locality spans, µs.
    pub naive_clamp_us: u64,
    /// `ats.round` events with `kind = happy`.
    pub happy_rounds: u64,
    /// `ats.round` events with `kind = stuck`.
    pub stuck_rounds: u64,
    /// Time attributed to stuck rounds (the gap to the previous round,
    /// or to the route's start for a first round), µs.
    pub stuck_us: u64,
    /// Total time of `ats` route spans, µs.
    pub ats_route_us: u64,
    /// `ats.fallback` events.
    pub ats_fallbacks: u64,
    /// `pathfinder.round` events.
    pub pathfinder_rounds: u64,
    /// Summed `pops` of `pathfinder.round` events.
    pub astar_pops: u64,
    /// Summed `ripups` of `pathfinder.round` events.
    pub ripups: u64,
    /// Summed `pending` of `pathfinder.round` events (searches started
    /// fresh each round).
    pub pending: u64,
    /// `pathfinder.fallback` events.
    pub pathfinder_fallbacks: u64,
}

/// Per-thread state needed to turn event timestamps into durations.
#[derive(Debug, Default)]
struct ThreadState {
    /// Timestamp of the previous `ats.round` in the open route.
    last_round_ts: Option<u64>,
    /// The open route's first round, when it is stuck: its start is
    /// known only when the enclosing `route` span closes.
    first_stuck_round: Option<u64>,
    /// Locality span time inside the open route.
    locality_us: u64,
}

#[derive(Debug, Default)]
struct State {
    totals: TraceTotals,
    threads: HashMap<u64, ThreadState>,
}

/// A [`Subscriber`] that folds records into [`TraceTotals`].
#[derive(Debug, Default)]
pub struct FoldingSubscriber {
    state: Mutex<State>,
}

fn field_u64(record: &TraceRecord<'_>, name: &str) -> u64 {
    record
        .fields
        .iter()
        .find_map(|(k, v)| match v {
            FieldValue::U64(x) if *k == name => Some(*x),
            _ => None,
        })
        .unwrap_or(0)
}

fn field_str<'a>(record: &'a TraceRecord<'a>, name: &str) -> &'a str {
    record
        .fields
        .iter()
        .find_map(|(k, v)| match v {
            FieldValue::Str(s) if *k == name => Some(*s),
            _ => None,
        })
        .unwrap_or("")
}

impl FoldingSubscriber {
    /// A subscriber with empty totals.
    pub fn new() -> FoldingSubscriber {
        FoldingSubscriber::default()
    }

    /// A copy of the totals folded so far.
    pub fn totals(&self) -> TraceTotals {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .totals
            .clone()
    }
}

impl Subscriber for FoldingSubscriber {
    fn on_record(&self, record: &TraceRecord<'_>) {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let State { totals, threads } = &mut *guard;
        let thread = threads.entry(record.thread).or_default();
        let dur = record.dur_us.unwrap_or(0);
        match record.name {
            "route" => {
                let router = field_str(record, "router");
                let entry = totals.routes.entry(router.to_string()).or_default();
                entry.routes += 1;
                entry.total_us += dur;
                if router == "hybrid" {
                    totals.naive_clamp_us += dur.saturating_sub(thread.locality_us);
                }
                if router == "ats" {
                    totals.ats_route_us += dur;
                    if let Some(ts) = thread.first_stuck_round.take() {
                        totals.stuck_us += ts.saturating_sub(record.ts_us);
                    }
                }
                *thread = ThreadState::default();
            }
            "locality.matchings" => {
                totals.matchings_us += dur;
                thread.locality_us += dur;
            }
            "locality.line_routing" => {
                totals.line_routing_us += dur;
                thread.locality_us += dur;
            }
            "ats.round" => {
                let stuck = field_str(record, "kind") == "stuck";
                if stuck {
                    totals.stuck_rounds += 1;
                } else {
                    totals.happy_rounds += 1;
                }
                match thread.last_round_ts {
                    Some(last) if stuck => totals.stuck_us += record.ts_us.saturating_sub(last),
                    None if stuck => thread.first_stuck_round = Some(record.ts_us),
                    _ => {}
                }
                thread.last_round_ts = Some(record.ts_us);
            }
            "ats.fallback" => totals.ats_fallbacks += 1,
            "pathfinder.round" => {
                totals.pathfinder_rounds += 1;
                totals.astar_pops += field_u64(record, "pops");
                totals.ripups += field_u64(record, "ripups");
                totals.pending += field_u64(record, "pending");
            }
            "pathfinder.fallback" => totals.pathfinder_fallbacks += 1,
            _ => {}
        }
    }
}
