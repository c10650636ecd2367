//! The layer walk's work counters must repeat exactly: they are the
//! numbers a change can be judged on without timing noise.

use routebench::walk::walk;
use routebench::workloads::{batch_instance, universe_instance, Workload};

fn counters(lines: &[String]) -> Vec<u64> {
    let w = walk(lines);
    assert!(w.problems.is_empty(), "{:?}", w.problems);
    let c = &w.counters;
    vec![
        w.jobs,
        w.routed,
        w.dist_calls,
        w.route_alloc_bytes,
        w.schedule_bytes,
        c.happy_rounds,
        c.stuck_rounds,
        c.ats_fallbacks,
        c.pathfinder_rounds,
        c.astar_pops,
        c.ripups,
        c.pathfinder_fallbacks,
    ]
}

#[test]
fn walk_counters_repeat_exactly() {
    // Cheap lines from every workload: side-32 grid-cold classes
    // (locality-aware, hybrid, ats, pathfinder), small off-grid and
    // pinned swap-heavy jobs, and daemon-hot universe entries.
    let mut lines: Vec<String> = [1, 3, 5, 7, 9]
        .iter()
        .map(|&i| batch_instance(Workload::GridCold, 5, i).line())
        .collect();
    lines.extend((0..5).map(|i| batch_instance(Workload::SwapHeavy, 5, i).line()));
    lines.extend((0..12).map(|u| universe_instance(5, u).line()));
    // The first walk absorbs one-time lazy initialization.
    let _ = counters(&lines);
    let first = counters(&lines);
    let second = counters(&lines);
    assert_eq!(first, second);
    assert!(first[2] > 0, "ATS lines must count oracle calls");
    assert!(first[9] > 0, "pathfinder lines must count A* pops");
    assert!(first[3] > 0, "routes must allocate");
}
