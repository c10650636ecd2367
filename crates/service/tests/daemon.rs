//! Daemon integration: concurrent clients must each see exactly the
//! bytes a single-threaded in-process batch produces for their stream,
//! the shared cache must dedup compute across connections without
//! touching those bytes, admission control must reject (never hang) a
//! flooding client, and `stats`/`shutdown` control requests must work
//! over the wire with a full graceful drain.

use qroute_service::{Client, Daemon, Engine, EngineConfig, RouteJob, StatsSnapshot};

/// The reference bytes: the same lines through an in-process engine
/// with the daemon's (untimed) configuration — what `repro batch` would
/// emit.
fn engine_reference(config: &EngineConfig, lines: &[String]) -> String {
    let mut engine = Engine::new(config.clone());
    for line in lines {
        match RouteJob::from_json_line(line) {
            Ok(job) => engine.submit(&job),
            Err(e) => engine.submit_error(e),
        };
    }
    let mut out = String::new();
    while let Some(result) = engine.collect_next() {
        out.push_str(&result.outcome.to_json_line());
        out.push('\n');
    }
    out
}

/// A per-client job stream: every router and class, seed reuse for
/// cache hits, versioned and unversioned lines, plus malformed and
/// wrong-version lines that must become in-order error outcomes.
fn job_lines(client: usize, count: usize) -> Vec<String> {
    let classes = ["random", "block2", "overlap4s2", "skinny"];
    let routers = ["auto", "ats", "locality-aware", "hybrid"];
    (0..count)
        .map(|k| {
            if k % 11 == 5 {
                return "this is not json".to_string();
            }
            if k % 13 == 7 {
                return format!("{{\"v\": 7, \"side\": 4, \"class\": \"random\", \"seed\": {k}}}");
            }
            let side = 4 + (client + k) % 3;
            let class = classes[(client + k) % classes.len()];
            let seed = k / 5 % 3;
            let router = routers[k % routers.len()];
            let v = if k % 2 == 0 { "\"v\": 1, " } else { "" };
            format!(
                "{{{v}\"side\": {side}, \"router\": {router:?}, \"class\": {class:?}, \
                 \"seed\": {seed}}}"
            )
        })
        .collect()
}

fn daemon_bytes(client: &mut Client, lines: &[String]) -> String {
    let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let outcomes = client.route_lines(line_refs).expect("replay the stream");
    let mut out = String::new();
    for line in outcomes {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Every connection gets its own stream, replayed concurrently against
/// one daemon built from `config`; each must match the in-process
/// bytes. Returns each connection's bytes and the daemon's stats after
/// all streams finished.
fn assert_each_connection_matches_batch(
    case: &str,
    config: EngineConfig,
    streams: Vec<Vec<String>>,
) -> (Vec<String>, StatsSnapshot) {
    let daemon = Daemon::bind("127.0.0.1:0", config.clone()).expect("bind an ephemeral port");
    let addr = daemon.local_addr();
    let clients = streams.len() as u64;
    let handles: Vec<_> = streams
        .into_iter()
        .map(|lines| {
            let config = config.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                (
                    daemon_bytes(&mut client, &lines),
                    engine_reference(&config, &lines),
                )
            })
        })
        .collect();
    let mut outputs = Vec::new();
    for (c, handle) in handles.into_iter().enumerate() {
        let (daemon_out, reference) = handle.join().expect("client thread");
        assert_eq!(
            daemon_out, reference,
            "{case}, client {c}: daemon bytes diverged from the in-process batch"
        );
        assert!(
            daemon_out.contains("\"cache\":\"hit\""),
            "{case}, client {c}"
        );
        outputs.push(daemon_out);
    }
    let stats = daemon.stats();
    assert_eq!(stats.connections, clients, "{case}");
    assert!(stats.jobs_routed > 0, "{case}");
    (outputs, stats)
}

#[test]
fn concurrent_clients_each_match_the_single_threaded_batch_bytes() {
    const CLIENTS: usize = 4;
    const JOBS: usize = 60;
    let streams = || -> Vec<Vec<String>> { (0..CLIENTS).map(|c| job_lines(c, JOBS)).collect() };
    let (outputs, stats) = assert_each_connection_matches_batch(
        "default config",
        EngineConfig::builder().build().unwrap(),
        streams(),
    );
    for (c, daemon_out) in outputs.iter().enumerate() {
        assert!(daemon_out.contains("\"code\":\"parse\""), "client {c}");
        assert!(daemon_out.contains("\"code\":\"version\""), "client {c}");
    }
    assert!(stats.jobs_errored > 0);

    // A cache small enough that every stream evicts: each connection's
    // mirror must evict exactly like the in-process engine's. Each line
    // is sent twice in a row so the stream also hits.
    let doubled = streams()
        .into_iter()
        .map(|lines| {
            lines
                .into_iter()
                .flat_map(|line| [line.clone(), line])
                .collect()
        })
        .collect();
    let (_, stats) = assert_each_connection_matches_batch(
        "evicting cache",
        EngineConfig::builder()
            .cache_capacity(4)
            .cache_shards(2)
            .build()
            .unwrap(),
        doubled,
    );
    assert!(stats.cache_evictions > 0, "{stats:?}");

    // Every topology kind: defective grids, heavy-hex, brick, torus.
    let defects: Vec<String> = include_str!("../../../examples/jobs_defects.jsonl")
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(String::from)
        .collect();
    assert_each_connection_matches_batch(
        "jobs_defects.jsonl",
        EngineConfig::builder().build().unwrap(),
        vec![defects.clone(), defects],
    );
}

#[test]
fn shared_cache_dedups_across_connections_without_changing_bytes() {
    // Same stream from one client, then from two concurrent clients on a
    // fresh daemon: the distinct canonical keys (= shared-cache misses)
    // must not depend on the client count — the shard-locked
    // get-or-insert admits exactly one compute per key.
    let lines = job_lines(0, 48);
    let single = Daemon::bind("127.0.0.1:0", EngineConfig::builder().build().unwrap()).unwrap();
    let mut client = Client::connect(single.local_addr()).expect("connect");
    let reference = daemon_bytes(&mut client, &lines);
    let solo = single.stats();
    drop(client);

    let daemon = Daemon::bind("127.0.0.1:0", EngineConfig::builder().build().unwrap()).unwrap();
    let addr = daemon.local_addr();
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let lines = lines.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                daemon_bytes(&mut client, &lines)
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(
            handle.join().expect("client thread"),
            reference,
            "a concurrent replay changed a connection's bytes"
        );
    }
    let stats = daemon.stats();
    assert_eq!(stats.cache_misses, solo.cache_misses, "one compute per key");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        2 * (solo.cache_hits + solo.cache_misses),
        "every planned job makes exactly one shared-cache lookup"
    );
}

#[test]
fn flooding_past_the_client_queue_is_rejected_in_order_not_hung() {
    let config = EngineConfig::builder()
        .workers(1)
        .queue_depth(1)
        .client_queue_depth(1)
        .build()
        .unwrap();
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    // Blast a burst of slow jobs without reading a single outcome: with
    // one admission slot, everything behind the in-flight job must come
    // back as a backpressure error outcome, in submission order.
    const BURST: usize = 16;
    for seed in 0..BURST {
        client
            .send_line(&format!(
                "{{\"side\": 16, \"router\": \"ats\", \"class\": \"random\", \"seed\": {seed}}}"
            ))
            .expect("send burst line");
    }
    let mut rejected = 0;
    let mut routed = 0;
    for k in 0..BURST {
        let line = client
            .recv_line()
            .expect("burst outcomes")
            .expect("one outcome per job");
        assert!(
            line.starts_with(&format!("{{\"id\":{k},")),
            "outcome {k} out of order: {line}"
        );
        if line.contains("\"code\":\"backpressure\"") {
            assert!(line.contains("client queue full"), "{line}");
            rejected += 1;
        } else {
            assert!(line.ends_with("\"error\":null}"), "{line}");
            routed += 1;
        }
    }
    assert!(routed >= 1, "the first job was admitted");
    assert!(
        rejected >= 1,
        "a burst past one slot must reject: {routed} routed"
    );
    let stats = daemon.stats();
    assert_eq!(stats.jobs_routed, routed);
    assert_eq!(stats.jobs_errored, rejected);
    // The writer decrements the gauge *after* emitting an outcome, so
    // the last job's slot can linger for a scheduling instant.
    let mut depth = stats.queue_depth;
    for _ in 0..100 {
        if depth == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        depth = daemon.stats().queue_depth;
    }
    assert_eq!(depth, 0, "everything drained");
}

#[test]
fn stats_and_shutdown_control_requests_work_over_the_wire() {
    let daemon = Daemon::bind("127.0.0.1:0", EngineConfig::builder().build().unwrap()).unwrap();
    let addr = daemon.local_addr();
    let lines = job_lines(1, 30);
    let mut client = Client::connect(addr).expect("connect");
    let out = daemon_bytes(&mut client, &lines);
    assert_eq!(out.lines().count(), 30);

    let stats_line = client.stats().expect("stats response");
    let doc: serde_json::Value = serde_json::from_str(&stats_line).expect("stats is JSON");
    let stats = doc.get("stats").expect("stats envelope");
    let field = |key: &str| {
        stats
            .get(key)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("missing {key} in {stats_line}"))
    };
    assert!(field("jobs_routed") > 0.0);
    assert!(field("jobs_errored") > 0.0);
    assert_eq!(field("connections"), 1.0);
    // ≤ 1: the writer decrements the gauge just after emitting, so the
    // last outcome's slot can linger for a scheduling instant.
    assert!(field("queue_depth") <= 1.0, "{stats_line}");
    assert!(field("cache_hits") > 0.0);
    assert!(field("cache_misses") > 0.0);
    assert!(field("hit_rate") > 0.0 && field("hit_rate") < 1.0);
    assert!(field("latency_p50_ms") > 0.0);
    assert!(field("latency_p99_ms") >= field("latency_p50_ms"));
    let routers = stats
        .get("routers")
        .and_then(|v| v.as_array())
        .expect("per-router dispatch counts");
    assert!(!routers.is_empty());

    // Unknown control requests error without consuming a job id.
    client
        .send_line("{\"req\": \"make-coffee\"}")
        .expect("send unknown control");
    let err_line = client.recv_line().expect("control error").unwrap();
    assert!(err_line.contains("\"code\":\"parse\""), "{err_line}");
    assert!(err_line.contains("make-coffee"), "{err_line}");

    // Graceful shutdown: acknowledged on this connection, then the
    // daemon drains fully and join() returns.
    let ack = client.shutdown_server().expect("shutdown ack");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    daemon.join();
    assert!(
        Client::connect(addr).is_err(),
        "the listener must be gone after join"
    );
}

#[test]
fn a_client_dying_mid_stream_leaves_the_daemon_healthy() {
    let daemon = Daemon::bind("127.0.0.1:0", EngineConfig::builder().build().unwrap()).unwrap();
    let addr = daemon.local_addr();
    let lines = job_lines(2, 10);
    {
        // Send ten jobs, read three outcomes, then drop the socket with
        // seven answers still in flight.
        let mut dying = Client::connect(addr).expect("connect");
        for line in &lines {
            dying.send_line(line).expect("send");
        }
        for k in 0..3 {
            dying
                .recv_line()
                .expect("read outcome")
                .unwrap_or_else(|| panic!("outcome {k} before the kill"));
        }
    }
    // The daemon must absorb the abandoned work: the writer drains what
    // was admitted (discarding lines into the dead socket), the gauges
    // come back to zero, and nothing wedges.
    let mut depth = daemon.stats().queue_depth;
    for _ in 0..500 {
        if depth == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        depth = daemon.stats().queue_depth;
    }
    assert_eq!(depth, 0, "abandoned jobs must drain");
    let after_kill = daemon.stats();

    // A later connection sees correct shared-cache state: the killed
    // client's stream was fully computed, so replaying it adds no new
    // misses — and the bytes still match the single-threaded batch.
    let mut client = Client::connect(addr).expect("connect after the kill");
    assert_eq!(
        daemon_bytes(&mut client, &lines),
        engine_reference(&EngineConfig::builder().build().unwrap(), &lines)
    );
    let stats = daemon.stats();
    assert_eq!(
        stats.cache_misses, after_kill.cache_misses,
        "every canonical key was already computed before the kill"
    );
    assert_eq!(stats.connections, 2);
}

#[test]
fn a_torn_final_job_line_is_dropped_silently() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpStream};

    let daemon = Daemon::bind("127.0.0.1:0", EngineConfig::builder().build().unwrap()).unwrap();
    let addr = daemon.local_addr();
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    // One whole job line, then a fragment with no newline — a client
    // that died mid-write.
    raw.write_all(b"{\"side\": 4, \"router\": \"ats\", \"class\": \"random\", \"seed\": 0}\n")
        .expect("whole line");
    raw.write_all(b"{\"side\": 4, \"rout")
        .expect("torn fragment");
    raw.shutdown(Shutdown::Write).expect("half-close");

    let mut reader = BufReader::new(raw.try_clone().expect("read half"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("first outcome");
    assert!(line.starts_with("{\"id\":0,"), "{line}");
    // The fragment produces nothing — not even an error outcome: the
    // next read is EOF.
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("EOF"),
        0,
        "the torn line must be dropped, got: {line}"
    );

    // And the daemon is untouched: no error was counted for the
    // fragment, and it still serves new connections.
    let stats = daemon.stats();
    assert_eq!(stats.jobs_errored, 0, "a torn line is not a parse error");
    assert_eq!(stats.jobs_routed, 1);
    let mut client = Client::connect(addr).expect("connect after torn line");
    let out = daemon_bytes(
        &mut client,
        &["{\"side\": 4, \"router\": \"ats\", \"class\": \"random\", \"seed\": 1}".to_string()],
    );
    assert!(out.ends_with("\"error\":null}\n"), "{out}");
}

#[test]
fn blank_lines_consume_no_job_id_on_the_wire() {
    let daemon = Daemon::bind("127.0.0.1:0", EngineConfig::builder().build().unwrap()).unwrap();
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    client.send_line("").expect("blank line");
    client
        .send_line("{\"side\": 4, \"router\": \"ats\", \"class\": \"random\", \"seed\": 0}")
        .expect("job line");
    let line = client.recv_line().expect("outcome").unwrap();
    assert!(
        line.starts_with("{\"id\":0,"),
        "blank line took an id: {line}"
    );
}
