//! Regenerate every figure/table of the paper's evaluation, and produce
//! the machine-readable benchmark record.
//!
//! ```text
//! repro [fig4|fig5|hybrid|skinny|ablations|optgap|transpile|bench|all]
//!       [--sides 4,8,16,32] [--seeds N] [--out DIR]
//!       [--quick] [--no-time] [--baseline BENCH.json] [--check]
//! repro batch --input jobs.jsonl [--output results.jsonl]
//!       [--workers N] [--cache-capacity K] [--time]
//!       [--trace out.jsonl [--trace-format jsonl|chrome]]
//! repro batch --input jobs.jsonl --connect HOST:PORT [--output F]
//! repro serve --addr HOST:PORT [--workers N] [--cache-capacity K]
//!       [--queue-depth N] [--client-queue N]
//! repro ctl --connect HOST:PORT (--stats [--pretty] | --metrics | --shutdown)
//! repro topo --kind <grid|defect|heavy-hex|brick|torus>
//!       [--rows R] [--cols C] [--defects 6,12] [--dot]
//! ```
//!
//! Markdown tables print to stdout; CSV/JSON/SVG files land in `--out`
//! (default `results/`). The `bench` subcommand writes `BENCH.json` and,
//! with `--baseline <file> --check`, exits 1 when a gated metric
//! regressed past tolerance. The `batch` subcommand routes a JSONL job
//! stream through the `qroute_service` engine with deterministic,
//! input-ordered output — in-process by default, or through a running
//! `repro serve` daemon with `--connect`. The `serve` subcommand runs
//! the long-lived routing daemon; `ctl` queries or drains it. The
//! `topo` subcommand materializes a coupling topology and prints a
//! summary or Graphviz DOT. Run `repro --help` for the authoritative
//! usage (the `USAGE` string below).

use qroute_bench::bench::{self, BenchConfig, BenchReport};
use qroute_bench::experiments;
use qroute_bench::plot::{cells_to_chart, Scale};
use qroute_bench::report;
use qroute_service::{
    render_stats_table, ChaosConfig, Client, Daemon, Engine, EngineConfig, RetryPolicy,
    RetryingClient, RouteJob,
};
use qroute_topology::{gridlike, Grid, Topology};
use std::path::PathBuf;

struct Args {
    command: String,
    sides: Option<Vec<usize>>,
    seeds: Option<u64>,
    out: PathBuf,
    quick: bool,
    no_time: bool,
    baseline: Option<PathBuf>,
    check: bool,
    circuit_sides: Option<Vec<usize>>,
    routers: Option<Vec<String>>,
    input: Option<PathBuf>,
    output: Option<PathBuf>,
    workers: Option<usize>,
    cache_capacity: Option<usize>,
    time: bool,
    addr: Option<String>,
    queue_depth: Option<usize>,
    client_queue: Option<usize>,
    default_deadline_ms: Option<u64>,
    max_worker_restarts: Option<u64>,
    chaos_panic_every: Option<u64>,
    chaos_latency_ms: Option<u64>,
    chaos_latency_every: Option<u64>,
    chaos_drop_after_bytes: Option<u64>,
    chaos_drop_conns: Option<u32>,
    chaos_torn_writes: bool,
    retries: Option<u32>,
    retry_base_ms: Option<u64>,
    connect: Option<String>,
    stats: bool,
    metrics: bool,
    pretty: bool,
    shutdown: bool,
    trace: Option<PathBuf>,
    trace_format: Option<String>,
    kind: Option<String>,
    rows: Option<usize>,
    cols: Option<usize>,
    defects: Option<Vec<usize>>,
    dot: bool,
}

const USAGE: &str = "\
repro — regenerate the paper's figures and tables, and drive the
routing service

USAGE:
    repro [fig4|fig5|hybrid|skinny|ablations|optgap|transpile|bench|all]
          [--sides 4,8,16,32] [--seeds N] [--out DIR]
          [--quick] [--no-time] [--circuit-sides 4,8]
          [--routers pathfinder,ats]
          [--baseline BENCH.json] [--check]
    repro batch --input jobs.jsonl [--output results.jsonl]
          [--workers N] [--cache-capacity K] [--time]
          [--trace out.jsonl [--trace-format jsonl|chrome]]
    repro batch --input jobs.jsonl --connect HOST:PORT [--output F]
          [--retries N] [--retry-base-ms MS]
    repro serve --addr HOST:PORT [--workers N] [--cache-capacity K]
          [--queue-depth N] [--client-queue N]
          [--default-deadline-ms MS] [--max-worker-restarts N]
          [--chaos-panic-every N] [--chaos-latency-ms MS]
          [--chaos-latency-every N] [--chaos-drop-after-bytes B]
          [--chaos-drop-conns N] [--chaos-torn-writes]
    repro ctl --connect HOST:PORT (--stats [--pretty] | --metrics | --shutdown)
    repro topo --kind <grid|defect|heavy-hex|brick|torus>
          [--rows R] [--cols C] [--defects 6,12] [--dot]

Markdown tables print to stdout; CSV/JSON/SVG files land in --out
(default results/).

bench writes the machine-readable BENCH.json (schema v6: env metadata +
per router×class×side permutation cells with depth/size/lower-bound/time
percentiles over seeds, circuit cells with swap/routing-depth/
invocation/time percentiles over verified transpiles, and defect cells
routing non-grid topologies per topology×router×side) to --out. Engine
and daemon throughput is measured end to end by routebench (see
routebench/README.md).
Bench-only flags:
    --quick           CI gate config: 2 seeds, timing off (deterministic)
    --no-time         skip wall-clock capture (byte-stable output)
    --circuit-sides S circuit-matrix sides (default: same as --sides
                      when given, else the config's {4,8}; every side
                      must fit the 10-qubit QASM replay fixture)
    --routers R,S     smoke mode: run only the permutation matrix,
                      restricted to the named routers (labels as in the
                      support matrix, e.g. pathfinder,ats); skips the
                      circuit and defect matrices and cannot
                      combine with --baseline
    --baseline F      compare against a committed BENCH.json
    --check           with --baseline: exit 1 on regression
                      (per-class depth/swap tolerance; mean time +25%;
                      pathfinder permutation cells always get 5%)

batch routes a JSONL job stream through the multi-worker service engine
(one {\"side\", \"router\", \"perm\"|\"class\"+\"seed\"} object per line;
router is a label or \"auto\") and writes one outcome line per job, in
input order. Output bytes are deterministic for fixed inputs regardless
of --workers unless --time is given. Malformed jobs become per-job error
outcomes and set exit code 1. With --connect, the same job stream is
replayed through a running `repro serve` daemon instead of an in-process
engine; the outcome bytes are identical to the in-process (untimed) run.
Batch flags:
    --input F         JSONL jobs file (required)
    --output F        results file (default: stdout)
    --workers N       engine worker threads (default 4; local mode only)
    --cache-capacity K  canonical-cache entries (default 1024, 0 = off;
                      local mode only)
                      The cache is also bounded by 32 MiB of charged
                      bytes, split evenly over its 8 shards: each entry
                      is charged its key bytes plus 8 B per ⌈Φ/2⌉
                      (Φ = total distance of π), a lower bound on its
                      schedule bytes; an entry heavier than its shard's
                      share is routed but not stored
    --time            record per-job routing time (non-deterministic;
                      local mode only)
    --trace F         write a structured trace of router internals
                      (phase spans, per-round counters, cache and
                      dispatch events) to F; local mode only. Routing
                      output bytes are unchanged by tracing.
    --trace-format X  trace encoding: jsonl (default; one record per
                      line) or chrome (trace_event array for
                      chrome://tracing / Perfetto)
    --connect A       route through the daemon at A (host:port)
    --retries N       with --connect: reconnect and resubmit unanswered
                      jobs up to N times per job on retry-safe errors
                      (backpressure, io, shutdown); default 0 = one
                      connection, fail fast
    --retry-base-ms MS  with --retries: first backoff step (must be
                      >= 1; doubles per attempt, clamped to the policy
                      cap of 1000 ms before jitter; default 10)

serve runs the long-lived routing daemon: a TCP server speaking the
same JSONL wire format, one request line in, one outcome line out, any
number of concurrent client connections (TCP_NODELAY on every socket,
so each outcome line leaves as soon as it is written). Outcome order
and bytes per connection match an untimed `repro batch` of the same
lines. Stops on a `repro ctl --shutdown` (graceful drain: admitted
jobs finish first).
Serve flags:
    --addr A          listen address, e.g. 127.0.0.1:7878 (required;
                      port 0 picks an ephemeral port)
    --workers N       routing worker threads (default 4)
    --cache-capacity K  shared canonical-cache entries (default 1024)
                      (and 32 MiB of charged bytes, as for batch)
    --queue-depth N   routing work-queue bound (default 32)
    --client-queue N  per-connection in-flight job limit; jobs past it
                      are rejected with a backpressure error outcome
                      (default 256)
    --default-deadline-ms MS  deadline for jobs that carry none; a job
                      past its deadline answers with a timeout outcome
                      (default: unbounded)
    --max-worker-restarts N  supervised respawn budget for crashed
                      routing workers (default 64)
Chaos flags (fault injection for resilience testing; off by default):
    --chaos-panic-every N     panic the worker on every Nth compute
    --chaos-latency-ms MS     injected latency per targeted compute
    --chaos-latency-every N   target every Nth compute with the latency
                              (default 1 when --chaos-latency-ms is set)
    --chaos-drop-after-bytes B  sever each of the first --chaos-drop-conns
                              connections after ~B outcome bytes
    --chaos-drop-conns N      how many connections to sever (default 1
                              when --chaos-drop-after-bytes is set)
    --chaos-torn-writes       tear the final line in half when severing

ctl sends one control request to a running daemon and prints the
response line on stdout.
Ctl flags:
    --connect A       daemon address (required)
    --stats           request the counter snapshot (one JSON line)
    --pretty          with --stats: render the snapshot as an aligned
                      text table instead of raw JSON
    --metrics         request the Prometheus text exposition of the
                      daemon's metrics registry (counters, gauges,
                      latency histogram) and print it verbatim
    --shutdown        request a graceful drain-and-exit

topo materializes one coupling topology and prints a one-line summary
(vertex/edge counts), or its Graphviz DOT with --dot.
Topo-only flags:
    --kind K          grid | defect | heavy-hex | brick | torus (required)
    --rows R          row count (default 4)
    --cols C          column count (default 4)
    --defects LIST    comma-separated dead vertex ids (defect kind only)
    --dot             emit Graphviz DOT on stdout instead of the summary";

fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut command: Option<String> = None;
    let mut sides: Option<Vec<usize>> = None;
    let mut seeds: Option<u64> = None;
    let mut out = PathBuf::from("results");
    let mut quick = false;
    let mut no_time = false;
    let mut baseline: Option<PathBuf> = None;
    let mut check = false;
    let mut circuit_sides: Option<Vec<usize>> = None;
    let mut routers: Option<Vec<String>> = None;
    let mut input: Option<PathBuf> = None;
    let mut output: Option<PathBuf> = None;
    let mut workers: Option<usize> = None;
    let mut cache_capacity: Option<usize> = None;
    let mut time = false;
    let mut addr: Option<String> = None;
    let mut queue_depth: Option<usize> = None;
    let mut client_queue: Option<usize> = None;
    let mut default_deadline_ms: Option<u64> = None;
    let mut max_worker_restarts: Option<u64> = None;
    let mut chaos_panic_every: Option<u64> = None;
    let mut chaos_latency_ms: Option<u64> = None;
    let mut chaos_latency_every: Option<u64> = None;
    let mut chaos_drop_after_bytes: Option<u64> = None;
    let mut chaos_drop_conns: Option<u32> = None;
    let mut chaos_torn_writes = false;
    let mut retries: Option<u32> = None;
    let mut retry_base_ms: Option<u64> = None;
    let mut connect: Option<String> = None;
    let mut stats = false;
    let mut metrics = false;
    let mut pretty = false;
    let mut shutdown = false;
    let mut trace: Option<PathBuf> = None;
    let mut trace_format: Option<String> = None;
    let mut kind: Option<String> = None;
    let mut rows: Option<usize> = None;
    let mut cols: Option<usize> = None;
    let mut defects: Option<Vec<usize>> = None;
    let mut dot = false;
    let mut out_set = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        match argv.get(*i) {
            // A following flag token is a missing value, not a value —
            // otherwise `--out --check` silently eats the next flag.
            Some(v) if !v.starts_with('-') => v.clone(),
            _ => usage_error(format!("{flag} requires a value")),
        }
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--sides" => {
                sides = Some(
                    flag_value(&mut i, "--sides")
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                usage_error(format!("--sides wants integers, got {s:?}"))
                            })
                        })
                        .collect(),
                );
            }
            "--circuit-sides" => {
                circuit_sides = Some(
                    flag_value(&mut i, "--circuit-sides")
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                usage_error(format!("--circuit-sides wants integers, got {s:?}"))
                            })
                        })
                        .collect(),
                );
            }
            "--seeds" => {
                let v = flag_value(&mut i, "--seeds");
                seeds = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!("--seeds wants an integer, got {v:?}"))
                }));
            }
            "--out" => {
                out = PathBuf::from(flag_value(&mut i, "--out"));
                out_set = true;
            }
            "--quick" => quick = true,
            "--no-time" => no_time = true,
            "--routers" => {
                routers = Some(
                    flag_value(&mut i, "--routers")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--baseline" => baseline = Some(PathBuf::from(flag_value(&mut i, "--baseline"))),
            "--check" => check = true,
            "--input" => input = Some(PathBuf::from(flag_value(&mut i, "--input"))),
            "--output" => output = Some(PathBuf::from(flag_value(&mut i, "--output"))),
            "--workers" => {
                let v = flag_value(&mut i, "--workers");
                let parsed = v
                    .parse()
                    .ok()
                    .filter(|&w: &usize| w >= 1)
                    .unwrap_or_else(|| {
                        usage_error(format!("--workers wants a positive integer, got {v:?}"))
                    });
                workers = Some(parsed);
            }
            "--cache-capacity" => {
                let v = flag_value(&mut i, "--cache-capacity");
                cache_capacity = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!("--cache-capacity wants an integer, got {v:?}"))
                }));
            }
            "--time" => time = true,
            "--addr" => addr = Some(flag_value(&mut i, "--addr")),
            "--queue-depth" => {
                let v = flag_value(&mut i, "--queue-depth");
                queue_depth = Some(v.parse().ok().filter(|&d: &usize| d >= 1).unwrap_or_else(
                    || usage_error(format!("--queue-depth wants a positive integer, got {v:?}")),
                ));
            }
            "--client-queue" => {
                let v = flag_value(&mut i, "--client-queue");
                client_queue = Some(v.parse().ok().filter(|&d: &usize| d >= 1).unwrap_or_else(
                    || {
                        usage_error(format!(
                            "--client-queue wants a positive integer, got {v:?}"
                        ))
                    },
                ));
            }
            "--default-deadline-ms" => {
                let v = flag_value(&mut i, "--default-deadline-ms");
                default_deadline_ms = Some(
                    v.parse()
                        .ok()
                        .filter(|&ms: &u64| ms >= 1)
                        .unwrap_or_else(|| {
                            usage_error(format!(
                                "--default-deadline-ms wants a positive integer, got {v:?}"
                            ))
                        }),
                );
            }
            "--max-worker-restarts" => {
                let v = flag_value(&mut i, "--max-worker-restarts");
                max_worker_restarts = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!("--max-worker-restarts wants an integer, got {v:?}"))
                }));
            }
            "--chaos-panic-every" => {
                let v = flag_value(&mut i, "--chaos-panic-every");
                chaos_panic_every = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!("--chaos-panic-every wants an integer, got {v:?}"))
                }));
            }
            "--chaos-latency-ms" => {
                let v = flag_value(&mut i, "--chaos-latency-ms");
                chaos_latency_ms = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!("--chaos-latency-ms wants an integer, got {v:?}"))
                }));
            }
            "--chaos-latency-every" => {
                let v = flag_value(&mut i, "--chaos-latency-every");
                chaos_latency_every = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!("--chaos-latency-every wants an integer, got {v:?}"))
                }));
            }
            "--chaos-drop-after-bytes" => {
                let v = flag_value(&mut i, "--chaos-drop-after-bytes");
                chaos_drop_after_bytes = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!(
                        "--chaos-drop-after-bytes wants an integer, got {v:?}"
                    ))
                }));
            }
            "--chaos-drop-conns" => {
                let v = flag_value(&mut i, "--chaos-drop-conns");
                chaos_drop_conns = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!("--chaos-drop-conns wants an integer, got {v:?}"))
                }));
            }
            "--chaos-torn-writes" => chaos_torn_writes = true,
            "--retries" => {
                let v = flag_value(&mut i, "--retries");
                retries = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(format!("--retries wants an integer, got {v:?}"))
                }));
            }
            "--retry-base-ms" => {
                let v = flag_value(&mut i, "--retry-base-ms");
                retry_base_ms = Some(v.parse().ok().filter(|&ms: &u64| ms >= 1).unwrap_or_else(
                    || {
                        usage_error(format!(
                            "--retry-base-ms wants a positive integer, got {v:?}"
                        ))
                    },
                ));
            }
            "--connect" => connect = Some(flag_value(&mut i, "--connect")),
            "--stats" => stats = true,
            "--metrics" => metrics = true,
            "--pretty" => pretty = true,
            "--shutdown" => shutdown = true,
            "--trace" => trace = Some(PathBuf::from(flag_value(&mut i, "--trace"))),
            "--trace-format" => {
                let v = flag_value(&mut i, "--trace-format");
                if v != "jsonl" && v != "chrome" {
                    usage_error(format!("--trace-format wants jsonl or chrome, got {v:?}"));
                }
                trace_format = Some(v);
            }
            "--kind" => kind = Some(flag_value(&mut i, "--kind")),
            "--rows" => {
                let v = flag_value(&mut i, "--rows");
                rows = Some(
                    v.parse()
                        .ok()
                        .filter(|&r: &usize| r >= 1)
                        .unwrap_or_else(|| {
                            usage_error(format!("--rows wants a positive integer, got {v:?}"))
                        }),
                );
            }
            "--cols" => {
                let v = flag_value(&mut i, "--cols");
                cols = Some(
                    v.parse()
                        .ok()
                        .filter(|&c: &usize| c >= 1)
                        .unwrap_or_else(|| {
                            usage_error(format!("--cols wants a positive integer, got {v:?}"))
                        }),
                );
            }
            "--defects" => {
                defects = Some(
                    flag_value(&mut i, "--defects")
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                usage_error(format!("--defects wants integers, got {s:?}"))
                            })
                        })
                        .collect(),
                );
            }
            "--dot" => dot = true,
            c if !c.starts_with('-') => match &command {
                None => command = Some(c.to_string()),
                Some(first) => usage_error(format!(
                    "unexpected second command {c:?} (already got {first:?})"
                )),
            },
            other => usage_error(format!("unknown flag {other}")),
        }
        i += 1;
    }
    let command = command.unwrap_or_else(|| "all".to_string());
    if command != "bench" {
        for (given, flag) in [
            (quick, "--quick"),
            (no_time, "--no-time"),
            (baseline.is_some(), "--baseline"),
            (check, "--check"),
            (circuit_sides.is_some(), "--circuit-sides"),
            (routers.is_some(), "--routers"),
        ] {
            if given {
                usage_error(format!("{flag} only applies to the bench command"));
            }
        }
    }
    if let Some(routers) = &routers {
        if routers.is_empty() {
            usage_error("--routers wants a non-empty router list".to_string());
        }
        if baseline.is_some() {
            usage_error(
                "--routers runs a partial matrix and cannot be checked against a \
                 full --baseline"
                    .to_string(),
            );
        }
    }
    if command != "batch" {
        for (given, flag) in [
            (input.is_some(), "--input"),
            (output.is_some(), "--output"),
            (time, "--time"),
        ] {
            if given {
                usage_error(format!("{flag} only applies to the batch command"));
            }
        }
    }
    if command != "batch" && command != "serve" {
        for (given, flag) in [
            (workers.is_some(), "--workers"),
            (cache_capacity.is_some(), "--cache-capacity"),
        ] {
            if given {
                usage_error(format!(
                    "{flag} only applies to the batch and serve commands"
                ));
            }
        }
    }
    if command != "serve" {
        for (given, flag) in [
            (addr.is_some(), "--addr"),
            (queue_depth.is_some(), "--queue-depth"),
            (client_queue.is_some(), "--client-queue"),
            (default_deadline_ms.is_some(), "--default-deadline-ms"),
            (max_worker_restarts.is_some(), "--max-worker-restarts"),
            (chaos_panic_every.is_some(), "--chaos-panic-every"),
            (chaos_latency_ms.is_some(), "--chaos-latency-ms"),
            (chaos_latency_every.is_some(), "--chaos-latency-every"),
            (chaos_drop_after_bytes.is_some(), "--chaos-drop-after-bytes"),
            (chaos_drop_conns.is_some(), "--chaos-drop-conns"),
            (chaos_torn_writes, "--chaos-torn-writes"),
        ] {
            if given {
                usage_error(format!("{flag} only applies to the serve command"));
            }
        }
    } else if addr.is_none() {
        usage_error("serve requires --addr <host:port>".to_string());
    }
    if command != "batch" && command != "ctl" && connect.is_some() {
        usage_error("--connect only applies to the batch and ctl commands".to_string());
    }
    if command != "ctl" {
        for (given, flag) in [
            (stats, "--stats"),
            (metrics, "--metrics"),
            (pretty, "--pretty"),
            (shutdown, "--shutdown"),
        ] {
            if given {
                usage_error(format!("{flag} only applies to the ctl command"));
            }
        }
    } else {
        if connect.is_none() {
            usage_error("ctl requires --connect <host:port>".to_string());
        }
        if [stats, metrics, shutdown].iter().filter(|&&b| b).count() != 1 {
            usage_error(
                "ctl requires exactly one of --stats, --metrics, or --shutdown".to_string(),
            );
        }
        if pretty && !stats {
            usage_error("--pretty only applies to ctl --stats".to_string());
        }
    }
    if matches!(command.as_str(), "batch" | "serve" | "ctl") {
        // The sweep/bench flags mean nothing to the service layer.
        for (given, flag) in [
            (sides.is_some(), "--sides"),
            (seeds.is_some(), "--seeds"),
            (out_set, "--out"),
        ] {
            if given {
                usage_error(format!("{flag} does not apply to the {command} command"));
            }
        }
    }
    if command != "batch" {
        for (given, flag) in [
            (retries.is_some(), "--retries"),
            (retry_base_ms.is_some(), "--retry-base-ms"),
        ] {
            if given {
                usage_error(format!("{flag} only applies to the batch command"));
            }
        }
    }
    if command != "batch" {
        for (given, flag) in [
            (trace.is_some(), "--trace"),
            (trace_format.is_some(), "--trace-format"),
        ] {
            if given {
                usage_error(format!("{flag} only applies to the batch command"));
            }
        }
    }
    if trace_format.is_some() && trace.is_none() {
        usage_error("--trace-format requires --trace".to_string());
    }
    if command == "batch" {
        if input.is_none() {
            usage_error("batch requires --input <jobs.jsonl>".to_string());
        }
        if connect.is_none() {
            for (given, flag) in [
                (retries.is_some(), "--retries"),
                (retry_base_ms.is_some(), "--retry-base-ms"),
            ] {
                if given {
                    usage_error(format!(
                        "{flag} only applies when batch routes through --connect \
                         (an in-process engine has no connection to retry)"
                    ));
                }
            }
        }
        if retry_base_ms.is_some() && retries.is_none() {
            usage_error("--retry-base-ms requires --retries".to_string());
        }
        if connect.is_some() {
            // The daemon owns the engine configuration; timing is off by
            // design so daemon outcomes stay batch-identical.
            for (given, flag) in [
                (workers.is_some(), "--workers"),
                (cache_capacity.is_some(), "--cache-capacity"),
                (time, "--time"),
                (trace.is_some(), "--trace"),
            ] {
                if given {
                    usage_error(format!(
                        "{flag} does not apply when batch routes through --connect \
                         (the daemon owns its engine configuration)"
                    ));
                }
            }
        }
    }
    if command != "topo" {
        for (given, flag) in [
            (kind.is_some(), "--kind"),
            (rows.is_some(), "--rows"),
            (cols.is_some(), "--cols"),
            (defects.is_some(), "--defects"),
            (dot, "--dot"),
        ] {
            if given {
                usage_error(format!("{flag} only applies to the topo command"));
            }
        }
    } else if kind.is_none() {
        usage_error("topo requires --kind <grid|defect|heavy-hex|brick|torus>".to_string());
    }
    if check && baseline.is_none() {
        usage_error("--check requires --baseline".to_string());
    }
    Args {
        command,
        sides,
        seeds,
        out,
        quick,
        no_time,
        baseline,
        check,
        circuit_sides,
        routers,
        input,
        output,
        workers,
        cache_capacity,
        time,
        addr,
        queue_depth,
        client_queue,
        default_deadline_ms,
        max_worker_restarts,
        chaos_panic_every,
        chaos_latency_ms,
        chaos_latency_every,
        chaos_drop_after_bytes,
        chaos_drop_conns,
        chaos_torn_writes,
        retries,
        retry_base_ms,
        connect,
        stats,
        metrics,
        pretty,
        shutdown,
        trace,
        trace_format,
        kind,
        rows,
        cols,
        defects,
        dot,
    }
}

impl Args {
    /// Sweep sides: `--sides` override or the experiment defaults.
    fn sweep_sides(&self) -> Vec<usize> {
        self.sides
            .clone()
            .unwrap_or_else(experiments::default_sides)
    }

    /// Seeds per cell: `--seeds` override or 5.
    fn sweep_seeds(&self) -> u64 {
        self.seeds.unwrap_or(5)
    }

    /// The bench-matrix configuration implied by the flags. `--sides`
    /// scopes both matrices (so `--sides 4` runs a genuinely tiny bench)
    /// unless `--circuit-sides` picks the circuit sides explicitly;
    /// `--seeds` likewise sets both seed counts.
    fn bench_config(&self) -> BenchConfig {
        let mut config = if self.quick {
            BenchConfig::quick()
        } else {
            BenchConfig::full()
        };
        if let Some(sides) = &self.sides {
            config.sides = sides.clone();
            config.circuit_sides = sides.clone();
            config.defect_sides = sides.clone();
        }
        if let Some(circuit_sides) = &self.circuit_sides {
            config.circuit_sides = circuit_sides.clone();
        }
        if let Some(seeds) = self.seeds {
            config.seeds = seeds;
            config.circuit_seeds = seeds;
            config.defect_seeds = seeds;
        }
        if self.no_time {
            config.timing = false;
        }
        // The replay fixture needs 10 qubits: fail fast on sides < 4
        // instead of panicking mid-measurement.
        if let Some(&side) = config.circuit_sides.iter().find(|&&s| s * s < 10) {
            usage_error(format!(
                "circuit side {side} cannot hold the 10-qubit replay fixture (need side >= 4)"
            ));
        }
        config
    }
}

fn write_file(dir: &PathBuf, name: &str, contents: &str) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write output file");
    eprintln!("wrote {}", path.display());
}

fn run_fig4(args: &Args) {
    eprintln!("== Figure 4: depth of computed swap networks ==");
    let cells = experiments::figure4(&args.sweep_sides(), args.sweep_seeds());
    println!("\n## Figure 4 — depth of computed swap networks\n");
    println!("{}", report::depth_table_markdown(&cells));
    write_file(&args.out, "fig4_depth.csv", &report::cells_to_csv(&cells));
    let chart = cells_to_chart(
        &cells,
        "Figure 4: depth of computed swap networks",
        "mean depth (layers, log scale)",
        Scale::Log,
        |c| c.mean_depth.max(1e-3),
    );
    write_file(&args.out, "fig4_depth.svg", &chart.to_svg());
}

fn run_fig5(args: &Args) {
    eprintln!("== Figure 5: time spent finding swap networks ==");
    let cells = experiments::figure5(&args.sweep_sides(), args.sweep_seeds());
    println!("\n## Figure 5 — time spent on finding swap networks\n");
    println!("{}", report::time_table_markdown(&cells));
    write_file(&args.out, "fig5_time.csv", &report::cells_to_csv(&cells));
    let chart = cells_to_chart(
        &cells,
        "Figure 5: time spent on finding swap networks",
        "mean time (ms, log scale)",
        Scale::Log,
        |c| c.mean_time_ms.max(1e-4),
    );
    write_file(&args.out, "fig5_time.svg", &chart.to_svg());
}

fn run_hybrid(args: &Args) {
    eprintln!("== Hybrid clamp check (§V) ==");
    let rows = experiments::hybrid_check(&args.sweep_sides(), args.sweep_seeds());
    println!("\n## Hybrid clamp (locality-aware ⊓ naive)\n");
    println!("{}", report::hybrid_markdown(&rows));
    let json = serde_json::to_string_pretty(&rows).expect("serialize hybrid rows");
    write_file(&args.out, "hybrid.json", &json);
}

fn run_skinny(args: &Args) {
    eprintln!("== Skinny orthogonal cycles (§V adversarial case) ==");
    let cells = experiments::skinny_sweep(&args.sweep_sides(), args.sweep_seeds());
    println!("\n## Skinny orthogonal cycles — depth\n");
    println!("{}", report::depth_table_markdown(&cells));
    println!("\n## Skinny orthogonal cycles — time\n");
    println!("{}", report::time_table_markdown(&cells));
    write_file(&args.out, "skinny.csv", &report::cells_to_csv(&cells));
}

fn run_ablations(args: &Args) {
    eprintln!("== Ablations of the locality-aware router ==");
    let side = args
        .sweep_sides()
        .iter()
        .copied()
        .max()
        .unwrap_or(16)
        .min(16);
    let rows = experiments::ablations(side, args.sweep_seeds());
    println!("\n## Ablations ({side}×{side})\n");
    println!("{}", report::ablation_markdown(&rows));
    let json = serde_json::to_string_pretty(&rows).expect("serialize ablation rows");
    write_file(&args.out, "ablations.json", &json);
}

fn run_optgap(args: &Args) {
    eprintln!("== Optimality gap vs exact BFS optimum (tiny grids) ==");
    let rows = experiments::optimality_gap(args.sweep_seeds().max(5));
    println!("\n## Optimality gap on tiny grids\n");
    println!("{}", report::optgap_markdown(&rows));
    let json = serde_json::to_string_pretty(&rows).expect("serialize optgap rows");
    write_file(&args.out, "optgap.json", &json);
}

fn run_transpile(args: &Args) {
    eprintln!("== End-to-end transpilation (extension) ==");
    let rows = experiments::transpile_comparison();
    println!("\n## End-to-end transpilation\n");
    println!("{}", report::transpile_markdown(&rows));
    let json = serde_json::to_string_pretty(&rows).expect("serialize transpile rows");
    write_file(&args.out, "transpile.json", &json);
}

/// Resolve `--routers` labels against the bench router axis, failing
/// fast on a label the matrix does not know.
fn resolve_router_labels(labels: &[String]) -> Vec<qroute_core::RouterKind> {
    let axis = bench::bench_routers();
    labels
        .iter()
        .map(|label| {
            axis.iter()
                .find(|r| r.label() == label)
                .cloned()
                .unwrap_or_else(|| {
                    let known: Vec<&str> = axis.iter().map(|r| r.label()).collect();
                    usage_error(format!(
                        "--routers got unknown router {label:?} (known: {})",
                        known.join(", ")
                    ))
                })
        })
        .collect()
}

fn run_bench_cmd(args: &Args) {
    let config = args.bench_config();
    if let Some(labels) = &args.routers {
        let routers = resolve_router_labels(labels);
        eprintln!(
            "== Router smoke: {} routers × {} permutation classes × sides {:?}, {} seeds; \
             timing {} ==",
            routers.len(),
            qroute_bench::workloads::WorkloadClass::bench_classes().len(),
            config.sides,
            config.seeds,
            if config.timing { "on" } else { "off" },
        );
        let report = bench::run_router_smoke(&config, &routers);
        write_file(&args.out, "BENCH.json", &report.to_json());
        eprintln!(
            "{} permutation cells measured (schema v{}); every schedule verified",
            report.cells.len(),
            report.schema_version
        );
        return;
    }
    // Load and validate the baseline up front: a typo'd path or stale
    // schema should fail instantly, not after minutes of measurement.
    let baseline = args.baseline.as_ref().map(|baseline_path| {
        let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!(
                "error: cannot read baseline {}: {e}",
                baseline_path.display()
            );
            std::process::exit(2);
        });
        BenchReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("error: malformed baseline {}: {e}", baseline_path.display());
            std::process::exit(2);
        })
    });
    eprintln!(
        "== Benchmark matrix: {} routers × {} permutation classes × sides {:?}, {} seeds; \
         {} routers × {} circuit classes × sides {:?}, {} seeds; \
         {} topologies × {} routers × sides {:?}, {} seeds; timing {} ==",
        bench::bench_routers().len(),
        qroute_bench::workloads::WorkloadClass::bench_classes().len(),
        config.sides,
        config.seeds,
        bench::circuit_routers().len(),
        qroute_bench::circuits::CircuitClass::all_classes().len(),
        config.circuit_sides,
        config.circuit_seeds,
        bench::DEFECT_TOPOLOGY_AXIS.len(),
        bench::DEFECT_ROUTER_AXIS.len(),
        config.defect_sides,
        config.defect_seeds,
        if config.timing { "on" } else { "off" },
    );
    let current = bench::run_bench(&config);
    write_file(&args.out, "BENCH.json", &current.to_json());
    let statevector_cells = current
        .circuit_cells
        .iter()
        .filter(|c| c.statevector_checked)
        .count();
    eprintln!(
        "{} permutation cells + {} circuit cells + {} defect cells measured (schema v{}); \
         every transpile verified, {statevector_cells} circuit cells statevector-checked",
        current.cells.len(),
        current.circuit_cells.len(),
        current.defect_cells.len(),
        current.schema_version
    );

    let (Some(baseline), Some(baseline_path)) = (baseline, &args.baseline) else {
        return;
    };
    let outcome = bench::check_against_baseline(&current, &baseline);
    let regressions = outcome.regressions();
    eprintln!(
        "baseline {}: {} comparisons, {} regressions, {} baseline cells missing, \
         {} new cells, {} seed mismatches",
        baseline_path.display(),
        outcome.deltas.len(),
        regressions.len(),
        outcome.missing_in_current.len(),
        outcome.new_in_current.len(),
        outcome.seed_mismatches.len(),
    );
    if outcome.passed() {
        println!(
            "\n## Bench check: OK ({} comparisons within tolerance)\n",
            outcome.deltas.len()
        );
        return;
    }
    println!("\n## Bench check: REGRESSED\n");
    if !regressions.is_empty() {
        println!("{}", bench::delta_table_markdown(&regressions));
    }
    for key in &outcome.missing_in_current {
        println!("- baseline cell `{key}` missing from this run");
    }
    for key in &outcome.seed_mismatches {
        println!("- seed-count mismatch `{key}` (rerun with the baseline's --seeds)");
    }
    if args.check {
        std::process::exit(1);
    }
}

/// Route a JSONL job stream through the service engine: one outcome
/// line per job, in input order. Exit 1 when any job errored (after
/// writing every outcome), 2 on I/O problems. With `--connect`, the
/// stream is replayed through a running daemon instead; the outcome
/// bytes are identical to the in-process (untimed) run.
/// The installed `--trace` subscriber for a local batch run. Installed
/// globally (the engine routes jobs on its own worker threads, which a
/// thread-local subscriber would never arm); [`BatchTracer::finish`]
/// disarms and closes the output.
enum BatchTracer {
    Jsonl(std::sync::Arc<qroute_obs::trace::JsonlSubscriber>),
    Chrome(std::sync::Arc<qroute_obs::trace::ChromeSubscriber>),
}

impl BatchTracer {
    fn install(path: &std::path::Path, format: Option<&str>) -> BatchTracer {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create {}: {e}", path.display());
            std::process::exit(2);
        });
        let writer: Box<dyn std::io::Write + Send> = Box::new(std::io::BufWriter::new(file));
        let (tracer, sub): (
            BatchTracer,
            std::sync::Arc<dyn qroute_obs::trace::Subscriber>,
        ) = match format {
            Some("chrome") => {
                let sub = std::sync::Arc::new(qroute_obs::trace::ChromeSubscriber::new(writer));
                (BatchTracer::Chrome(std::sync::Arc::clone(&sub)), sub)
            }
            _ => {
                let sub = std::sync::Arc::new(qroute_obs::trace::JsonlSubscriber::new(writer));
                (BatchTracer::Jsonl(std::sync::Arc::clone(&sub)), sub)
            }
        };
        qroute_obs::trace::install_global(Some(sub));
        tracer
    }

    fn finish(self) {
        qroute_obs::trace::install_global(None);
        match self {
            BatchTracer::Jsonl(sub) => sub.finish(),
            BatchTracer::Chrome(sub) => sub.finish(),
        }
    }
}

fn run_batch_cmd(args: &Args) {
    let input_path = args.input.as_ref().expect("parse_args enforced --input");
    let text = std::fs::read_to_string(input_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", input_path.display());
        std::process::exit(2);
    });
    let mut sink: Box<dyn std::io::Write> = match &args.output {
        Some(path) => {
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("error: cannot create {}: {e}", path.display());
                std::process::exit(2);
            });
            Box::new(std::io::BufWriter::new(file))
        }
        None => Box::new(std::io::stdout().lock()),
    };
    if let Some(connect) = &args.connect {
        run_batch_via_daemon(connect, args, &text, &mut *sink);
        return;
    }
    let tracer = args
        .trace
        .as_ref()
        .map(|path| BatchTracer::install(path, args.trace_format.as_deref()));
    let config = EngineConfig::builder()
        .workers(args.workers.unwrap_or(4))
        .cache_capacity(args.cache_capacity.unwrap_or(1024))
        .timing(args.time)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let mut engine = Engine::new(config);
    // Interleave submission and (id-ordered) collection so resident
    // results stay bounded by the window, not the stream length.
    const PENDING_WINDOW: usize = 1024;
    let mut errors = 0usize;
    let mut collect_one = |engine: &mut Engine, sink: &mut dyn std::io::Write| {
        if let Some(result) = engine.collect_next() {
            if result.outcome.error.is_some() {
                errors += 1;
            }
            writeln!(sink, "{}", result.outcome.to_json_line()).expect("write outcome line");
        }
    };
    let t0 = std::time::Instant::now();
    let mut submitted = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue; // blank lines separate sections, they are not jobs
        }
        match RouteJob::from_json_line(line) {
            Ok(job) => engine.submit(&job),
            Err(e) => engine.submit_error(e),
        };
        submitted += 1;
        while engine.pending_len() > PENDING_WINDOW {
            collect_one(&mut engine, &mut *sink);
        }
    }
    while engine.pending_len() > 0 {
        collect_one(&mut engine, &mut *sink);
    }
    sink.flush().expect("flush outcomes");
    drop(sink);
    if let Some(tracer) = tracer {
        tracer.finish();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = engine.cache_stats();
    eprintln!(
        "batch summary: jobs={submitted} errors={errors} hits={} misses={} evictions={} \
         hit_rate={:.3} workers={} jobs_per_sec={:.1}",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate(),
        engine.config().workers,
        if elapsed > 0.0 {
            submitted as f64 / elapsed
        } else {
            0.0
        },
    );
    if errors > 0 {
        std::process::exit(1);
    }
}

/// Replay a job stream through a running daemon: same per-line
/// protocol, same outcome bytes as the in-process engine. With
/// `--retries`, a [`RetryingClient`] reconnects and resubmits
/// unanswered jobs on retry-safe errors instead of failing fast.
fn run_batch_via_daemon(addr: &str, args: &Args, text: &str, sink: &mut dyn std::io::Write) {
    let (outcomes, resubmissions) = match args.retries {
        Some(max_retries) if max_retries > 0 => {
            let base_ms = args.retry_base_ms.unwrap_or(10);
            let policy = RetryPolicy {
                max_retries,
                base_ms,
                // A base above the default cap would clamp to the cap on
                // the very first attempt; grow the cap with the base.
                max_ms: base_ms.max(RetryPolicy::default().max_ms),
            };
            let mut client = RetryingClient::new(addr, policy).unwrap_or_else(|e| {
                eprintln!("error: cannot set up retrying client for {addr}: {e}");
                std::process::exit(2);
            });
            let outcomes = client.route_lines(text.lines()).unwrap_or_else(|e| {
                eprintln!("error: daemon connection to {addr} failed: {e}");
                std::process::exit(2);
            });
            (outcomes, client.retries())
        }
        _ => {
            let mut client = Client::connect(addr).unwrap_or_else(|e| {
                eprintln!("error: cannot connect to {addr}: {e}");
                std::process::exit(2);
            });
            let outcomes = client.route_lines(text.lines()).unwrap_or_else(|e| {
                eprintln!("error: daemon connection to {addr} failed: {e}");
                std::process::exit(2);
            });
            (outcomes, 0)
        }
    };
    let mut errors = 0usize;
    for line in &outcomes {
        if !line.ends_with("\"error\":null}") {
            errors += 1;
        }
        writeln!(sink, "{line}").expect("write outcome line");
    }
    sink.flush().expect("flush outcomes");
    eprintln!(
        "batch summary: jobs={} errors={errors} daemon={addr} resubmissions={resubmissions}",
        outcomes.len()
    );
    if errors > 0 {
        std::process::exit(1);
    }
}

/// Run the routing daemon until a `repro ctl --shutdown` (or SIGKILL)
/// stops it; print the listen address up front and the drained counter
/// summary on exit, both on stderr.
fn run_serve_cmd(args: &Args) {
    let addr = args.addr.as_deref().expect("parse_args enforced --addr");
    let mut builder = EngineConfig::builder();
    if let Some(workers) = args.workers {
        builder = builder.workers(workers);
    }
    if let Some(capacity) = args.cache_capacity {
        builder = builder.cache_capacity(capacity);
    }
    if let Some(depth) = args.queue_depth {
        builder = builder.queue_depth(depth);
    }
    if let Some(depth) = args.client_queue {
        builder = builder.client_queue_depth(depth);
    }
    if let Some(ms) = args.default_deadline_ms {
        builder = builder.default_deadline_ms(ms);
    }
    if let Some(n) = args.max_worker_restarts {
        builder = builder.max_worker_restarts(n);
    }
    let chaos = ChaosConfig {
        worker_panic_every: args.chaos_panic_every.unwrap_or(0),
        latency_ms: args.chaos_latency_ms.unwrap_or(0),
        // --chaos-latency-ms alone means "every compute".
        latency_every: args
            .chaos_latency_every
            .unwrap_or(u64::from(args.chaos_latency_ms.is_some())),
        drop_connection_after_bytes: args.chaos_drop_after_bytes,
        // --chaos-drop-after-bytes alone means "the first connection".
        drop_connections: args
            .chaos_drop_conns
            .unwrap_or(u32::from(args.chaos_drop_after_bytes.is_some())),
        torn_writes: args.chaos_torn_writes,
    };
    if chaos.is_armed() {
        eprintln!("warning: chaos armed — this daemon will inject faults on purpose");
        builder = builder.chaos(chaos);
    }
    let config = builder.build().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let daemon = Daemon::bind(addr, config).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    eprintln!("listening on {}", daemon.local_addr());
    let stats = daemon.join();
    eprintln!(
        "daemon summary: jobs={} errors={} connections={} hits={} misses={} evictions={} \
         hit_rate={:.3} timeouts={} worker_restarts={} retries_observed={}",
        stats.jobs_routed,
        stats.jobs_errored,
        stats.connections,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.hit_rate,
        stats.timeouts,
        stats.worker_restarts,
        stats.retries_observed,
    );
}

/// Send one control request to a running daemon and print the response
/// line on stdout. Exit 2 when the daemon is unreachable.
fn run_ctl_cmd(args: &Args) {
    let addr = args
        .connect
        .as_deref()
        .expect("parse_args enforced --connect");
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(2);
    });
    let response = if args.stats {
        client.stats()
    } else if args.metrics {
        client.metrics()
    } else {
        assert!(
            args.shutdown,
            "parse_args enforced exactly one ctl request flag"
        );
        client.shutdown_server()
    };
    let line = match response {
        Ok(line) => line,
        Err(e) => {
            eprintln!("error: daemon connection to {addr} failed: {e}");
            std::process::exit(2);
        }
    };
    if args.metrics {
        // The wire carries the Prometheus text as one JSON-escaped
        // string ({"metrics": "..."}); unwrap it back to raw exposition.
        let value: serde_json::Value = serde_json::from_str(&line).unwrap_or_else(|e| {
            eprintln!("error: malformed metrics response {line:?}: {e}");
            std::process::exit(2);
        });
        match value.get("metrics").and_then(serde_json::Value::as_str) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("error: daemon answered without a metrics payload: {line}");
                std::process::exit(2);
            }
        }
    } else if args.pretty {
        let value: serde_json::Value = serde_json::from_str(&line).unwrap_or_else(|e| {
            eprintln!("error: malformed stats response {line:?}: {e}");
            std::process::exit(2);
        });
        match value.get("stats") {
            Some(stats) => print!("{}", render_stats_table(stats)),
            None => {
                eprintln!("error: daemon answered without a stats payload: {line}");
                std::process::exit(2);
            }
        }
    } else {
        println!("{line}");
    }
}

/// Materialize the topology `--kind` describes and print either its
/// Graphviz DOT (`--dot`) or a one-line summary. Exit 2 on parameters
/// the topology constructors reject (out-of-range defects, too-small
/// torus factors, ...).
fn run_topo_cmd(args: &Args) {
    let kind = args.kind.as_deref().expect("parse_args enforced --kind");
    let rows = args.rows.unwrap_or(4);
    let cols = args.cols.unwrap_or(4);
    let defects = args.defects.clone().unwrap_or_default();
    if !defects.is_empty() && kind != "defect" {
        usage_error(format!(
            "--defects only applies to --kind defect, not {kind:?}"
        ));
    }
    let topology = match kind {
        "grid" => Topology::grid(rows, cols),
        "defect" => Topology::grid_with_defects(Grid::new(rows, cols), &defects, &[])
            .unwrap_or_else(|e| usage_error(format!("invalid defect pattern: {e}"))),
        "heavy-hex" => Topology::heavy_hex(rows, cols),
        "brick" => Topology::brick_wall(rows, cols),
        "torus" => Topology::torus(rows, cols)
            .unwrap_or_else(|e| usage_error(format!("invalid torus: {e}"))),
        other => usage_error(format!(
            "unknown topology kind {other:?}; expected grid|defect|heavy-hex|brick|torus"
        )),
    };
    let graph = topology.graph();
    if args.dot {
        // DOT identifiers cannot contain '-'.
        print!("{}", gridlike::to_dot(&graph, &kind.replace('-', "_")));
    } else {
        let alive = (0..topology.len())
            .filter(|&v| topology.is_alive(v))
            .count();
        println!(
            "{topology}: {} vertices ({alive} alive), {} edges",
            graph.len(),
            graph.num_edges(),
        );
    }
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "fig4" => run_fig4(&args),
        "fig5" => run_fig5(&args),
        "hybrid" => run_hybrid(&args),
        "skinny" => run_skinny(&args),
        "ablations" => run_ablations(&args),
        "optgap" => run_optgap(&args),
        "transpile" => run_transpile(&args),
        "bench" => run_bench_cmd(&args),
        "batch" => run_batch_cmd(&args),
        "serve" => run_serve_cmd(&args),
        "ctl" => run_ctl_cmd(&args),
        "topo" => run_topo_cmd(&args),
        "all" => {
            run_fig4(&args);
            run_fig5(&args);
            run_hybrid(&args);
            run_skinny(&args);
            run_ablations(&args);
            run_optgap(&args);
            run_transpile(&args);
        }
        other => usage_error(format!(
            "unknown command {other:?}; expected fig4|fig5|hybrid|skinny|ablations|optgap|transpile|bench|batch|serve|ctl|topo|all"
        )),
    }
}
