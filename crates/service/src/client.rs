//! A small blocking client for the routing daemon.
//!
//! One [`Client`] is one connection — one submit stream with the
//! daemon's per-connection determinism guarantee. [`Client::route_lines`]
//! pipelines a whole job list with a bounded in-flight window (staying
//! under the daemon's admission limit), so replaying a jobs file takes
//! one round trip per window rather than per job. Tests, `repro batch
//! --connect`, `repro ctl`, and the `service_daemon` bench cells all
//! drive the daemon through this type.
//!
//! [`RetryingClient`] wraps the same wire protocol with a
//! [`RetryPolicy`]: on a dropped connection (or a retry-safe error
//! outcome — codes `backpressure`, `io`, `shutdown`, where the job was
//! definitely not routed or its answer was lost with the socket) it
//! reconnects with exponential, deterministically-jittered backoff and
//! resubmits exactly the unanswered jobs, reassembling results under the
//! *caller's* job indices. Codes like `parse` or `timeout` are final:
//! resubmitting them would just repeat the failure.

use crate::errors::ServiceError;
use crate::job::RouteOutcome;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Job lines a client keeps in flight before reading an outcome back.
/// Well under the default `client_queue_depth` (256), so a pipelined
/// replay never triggers the daemon's backpressure rejections.
const PIPELINE_WINDOW: usize = 32;

/// A blocking JSONL connection to a routing daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a daemon at `addr`. Nagle's algorithm is turned off:
    /// pipelined job lines leave as they are written instead of waiting
    /// on the daemon's ACK of the previous one.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(|e| ServiceError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ServiceError::Io(e.to_string()))?,
        );
        Ok(Client { reader, writer: BufWriter::new(stream) })
    }

    /// Send one raw request line (job or control), as one write.
    pub fn send_line(&mut self, line: &str) -> Result<(), ServiceError> {
        writeln!(self.writer, "{line}")
            .and_then(|_| self.writer.flush())
            .map_err(|e| ServiceError::Io(e.to_string()))
    }

    /// Receive one response line; `None` when the daemon closed the
    /// connection. A torn final line (bytes with no trailing newline —
    /// the daemon died mid-write) is dropped and reported as a closed
    /// connection, never surfaced as data: a fragment is not a valid
    /// outcome and a retrying caller will get the full line on
    /// resubmission.
    pub fn recv_line(&mut self) -> Result<Option<String>, ServiceError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) if !line.ends_with('\n') => Ok(None),
            Ok(_) => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Ok(Some(line))
            }
            Err(e) => Err(ServiceError::Io(e.to_string())),
        }
    }

    /// Replay a stream of job lines, pipelined; returns one outcome line
    /// per non-blank job line, in submission order. Blank lines are
    /// skipped (they produce no outcome — same as `repro batch`).
    pub fn route_lines<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<String>, ServiceError> {
        let mut outcomes = Vec::new();
        let mut in_flight = 0usize;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            self.send_line(line)?;
            in_flight += 1;
            if in_flight >= PIPELINE_WINDOW {
                outcomes.push(self.expect_line()?);
                in_flight -= 1;
            }
        }
        for _ in 0..in_flight {
            outcomes.push(self.expect_line()?);
        }
        Ok(outcomes)
    }

    /// Request a [`crate::StatsSnapshot`]; returns the raw
    /// `{"stats": {...}}` response line. Call with no outcomes pending
    /// (responses share the connection's ordered stream).
    pub fn stats(&mut self) -> Result<String, ServiceError> {
        self.send_line("{\"req\": \"stats\"}")?;
        self.expect_line()
    }

    /// Request the daemon's Prometheus text exposition; returns the raw
    /// `{"metrics": "..."}` response line (the exposition rides as one
    /// JSON-escaped string). Call with no outcomes pending.
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        self.send_line("{\"req\": \"metrics\"}")?;
        self.expect_line()
    }

    /// Ask the daemon to drain and exit; returns its acknowledgement
    /// line (`{"ok":"shutdown"}`).
    pub fn shutdown_server(&mut self) -> Result<String, ServiceError> {
        self.send_line("{\"req\": \"shutdown\"}")?;
        self.expect_line()
    }

    fn expect_line(&mut self) -> Result<String, ServiceError> {
        self.recv_line()?
            .ok_or_else(|| ServiceError::Io("daemon closed the connection mid-stream".to_string()))
    }
}

/// Reconnect/resubmit policy for [`RetryingClient`]: exponential backoff
/// from [`RetryPolicy::base_ms`] (doubling per retry, capped at
/// [`RetryPolicy::max_ms`]) with *deterministic* jitter — the jitter is
/// a hash of the attempt number and a caller salt, not a clock or RNG,
/// so a retry schedule is reproducible run to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect/resubmit cycles allowed beyond the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_retries: 3, base_ms: 10, max_ms: 1000 }
    }
}

impl RetryPolicy {
    /// Reject configurations that defeat the backoff: a zero `base_ms`
    /// (or a zero `max_ms` ceiling) makes every wait zero, turning the
    /// retry loop into a zero-delay hot loop against a daemon that is
    /// already struggling. Checked at [`RetryingClient::new`] so a bad
    /// `--retry-base-ms` becomes a typed config error up front.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.base_ms == 0 {
            return Err(ServiceError::Config(
                "retry base_ms must be at least 1 ms (zero-delay retries hot-loop)".to_string(),
            ));
        }
        if self.max_ms == 0 {
            return Err(ServiceError::Config(
                "retry max_ms must be at least 1 ms".to_string(),
            ));
        }
        Ok(())
    }

    /// The backoff before retry `attempt` (1-based), jittered into the
    /// upper half of the exponential step: `[step/2, step]` where
    /// `step = clamp(base_ms << (attempt-1), 1, max_ms)`, never 0.
    pub fn backoff_ms(&self, attempt: u32, salt: u64) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        // Clamp to the ceiling *before* jitter and floor at 1, so a
        // saturated `base_ms << shift` waits `max_ms`, not forever, and
        // even a hand-built zero policy cannot hot-loop.
        let step = self
            .base_ms
            .saturating_mul(1u64 << shift)
            .clamp(1, self.max_ms.max(1));
        // splitmix64 of (attempt, salt): deterministic, well-mixed.
        let mut z = salt ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let half = step / 2;
        (half + z % (step - half + 1)).max(1)
    }
}

/// Whether an outcome line carries a retry-safe error code: the daemon
/// either never routed the job (`backpressure`, `shutdown` during drain)
/// or the failure was transport-level (`io`), so resubmitting cannot
/// produce a second answer for a job that already has one.
fn is_retryable_outcome(line: &str) -> bool {
    let Ok(doc) = serde_json::from_str(line) else {
        return false;
    };
    doc.get("code")
        .and_then(|c| c.as_str())
        .is_some_and(|code| matches!(code, "backpressure" | "io" | "shutdown"))
}

/// Rewrite the first `"id":N` in an outcome line to the caller's job
/// index. Connection-local ids restart at 0 after every reconnect; the
/// caller wants stable indices into the job list it submitted.
fn rewrite_id(line: &str, id: usize) -> String {
    match line.find("\"id\":") {
        None => line.to_string(),
        Some(pos) => {
            let start = pos + "\"id\":".len();
            let end = line[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |off| start + off);
            format!("{}{}{}", &line[..start], id, &line[end..])
        }
    }
}

/// A daemon client that survives dropped connections: it replays job
/// lines like [`Client::route_lines`], but on a severed socket (or a
/// retry-safe error outcome) it reconnects per its [`RetryPolicy`] and
/// resubmits exactly the jobs that have no answer yet. Results come back
/// in the caller's submission order with the caller's indices in `"id"`.
/// When its retry budget runs out, unanswered jobs get synthetic `io`
/// error outcomes — never a hang, never a missing line.
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    retries: u64,
}

impl RetryingClient {
    /// Resolve `addr` and set up the client (dialing happens lazily in
    /// [`RetryingClient::route_lines`], so constructing against a
    /// not-yet-started daemon is fine).
    pub fn new(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<RetryingClient, ServiceError> {
        policy.validate()?;
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ServiceError::Io(e.to_string()))?
            .next()
            .ok_or_else(|| ServiceError::Io("address resolved to nothing".to_string()))?;
        Ok(RetryingClient { addr, policy, retries: 0 })
    }

    /// Total retries performed so far: reconnect attempts plus
    /// resubmitted jobs, accumulated across calls.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Replay a stream of job lines with retries; returns one outcome
    /// line per non-blank job line, in submission order, with `"id"`
    /// rewritten to the line's index among them. With a healthy daemon
    /// and no faults this is byte-identical to [`Client::route_lines`].
    pub fn route_lines<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<String>, ServiceError> {
        let jobs: Vec<&str> = lines
            .into_iter()
            .filter(|line| !line.trim().is_empty())
            .collect();
        let mut results: Vec<Option<String>> = vec![None; jobs.len()];
        // Job indices still without an answer, always kept ascending so
        // every round resubmits in the caller's original order.
        let mut todo: Vec<usize> = (0..jobs.len()).collect();
        let salt = jobs.len() as u64;
        let mut attempt: u32 = 0;
        let mut resubmissions: u64 = 0;
        let mut last_client: Option<Client> = None;

        while !todo.is_empty() {
            let mut client = match Client::connect(self.addr) {
                Ok(client) => client,
                Err(e) => {
                    if attempt >= self.policy.max_retries {
                        for &j in &todo {
                            results[j] = Some(
                                RouteOutcome::from_error(j as u64, None, None, &e).to_json_line(),
                            );
                        }
                        todo.clear();
                        break;
                    }
                    attempt += 1;
                    self.retries += 1;
                    std::thread::sleep(Duration::from_millis(
                        self.policy.backoff_ms(attempt, salt),
                    ));
                    continue;
                }
            };

            // One pipelined round over everything unanswered. `pending`
            // doubles as the conn-local id → job index map: the daemon
            // answers in submission order, so the k-th outcome received
            // belongs to job `pending[k]`.
            let pending = std::mem::take(&mut todo);
            let mut sent = 0usize;
            let mut received = 0usize;
            let mut dropped = false;
            while received < pending.len() {
                while sent < pending.len() && sent - received < PIPELINE_WINDOW && !dropped {
                    if client.send_line(jobs[pending[sent]]).is_err() {
                        dropped = true;
                        break;
                    }
                    sent += 1;
                }
                if received == sent {
                    break; // nothing in flight and nothing sendable
                }
                match client.recv_line() {
                    Ok(Some(line)) => {
                        let j = pending[received];
                        received += 1;
                        if is_retryable_outcome(&line) {
                            todo.push(j);
                        } else {
                            results[j] = Some(rewrite_id(&line, j));
                        }
                    }
                    Ok(None) | Err(_) => break, // connection gone; retry
                }
            }
            // Sent-but-unanswered and never-sent jobs both go to the
            // next round (both slices are ascending, and past `todo`
            // entries all precede them, so order is preserved).
            todo.extend_from_slice(&pending[received..]);

            if todo.is_empty() {
                last_client = Some(client);
                break;
            }
            if attempt >= self.policy.max_retries {
                let err =
                    ServiceError::Io("retries exhausted before the daemon answered".to_string());
                for &j in &todo {
                    results[j] =
                        Some(RouteOutcome::from_error(j as u64, None, None, &err).to_json_line());
                }
                todo.clear();
                last_client = Some(client);
                break;
            }
            attempt += 1;
            let round = todo.len() as u64;
            self.retries += round;
            resubmissions += round;
            std::thread::sleep(Duration::from_millis(self.policy.backoff_ms(attempt, salt)));
        }

        // Best-effort observability: tell the daemon how many
        // resubmissions this call cost (shows up as `retries_observed`).
        if resubmissions > 0 {
            let report = format!("{{\"req\": \"retried\", \"n\": {resubmissions}}}");
            let reported = last_client.as_mut().is_some_and(|c| {
                c.send_line(&report).is_ok() && matches!(c.recv_line(), Ok(Some(_)))
            });
            if !reported {
                if let Ok(mut fresh) = Client::connect(self.addr) {
                    let _ = fresh.send_line(&report);
                    let _ = fresh.recv_line();
                }
            }
        }

        Ok(results
            .into_iter()
            .map(|r| r.expect("every job answered or synthesized"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_first_attempt_jitters_in_the_upper_half_of_base() {
        let policy = RetryPolicy::default();
        for salt in 0..64 {
            let ms = policy.backoff_ms(1, salt);
            assert!((5..=10).contains(&ms), "salt {salt}: {ms}");
        }
        // Distinct salts actually spread (jitter is not constant).
        let spread: std::collections::BTreeSet<u64> =
            (0..64).map(|salt| policy.backoff_ms(1, salt)).collect();
        assert!(spread.len() > 1, "{spread:?}");
        // Deterministic per (attempt, salt).
        assert_eq!(policy.backoff_ms(1, 7), policy.backoff_ms(1, 7));
    }

    #[test]
    fn backoff_attempt_17_with_huge_base_is_clamped_before_jitter() {
        // `base_ms << 16` saturates for these bases; the step must land
        // on the ceiling, never on a saturated u64 wait.
        for base in [1u64 << 50, u64::MAX / 2, u64::MAX] {
            let policy = RetryPolicy { max_retries: 20, base_ms: base, max_ms: 1000 };
            for attempt in [1, 17, 40, u32::MAX] {
                for salt in 0..8 {
                    let ms = policy.backoff_ms(attempt, salt);
                    assert!(
                        (500..=1000).contains(&ms),
                        "base {base} attempt {attempt}: {ms}"
                    );
                }
            }
        }
    }

    #[test]
    fn backoff_is_never_zero_even_for_degenerate_policies() {
        // A hand-built zero policy must still wait ≥ 1 ms per retry —
        // the pre-fix code returned 0 and hot-looped.
        let zero = RetryPolicy { max_retries: 3, base_ms: 0, max_ms: 0 };
        for attempt in [1, 2, 17] {
            for salt in 0..8 {
                assert!(zero.backoff_ms(attempt, salt) >= 1, "attempt {attempt}");
            }
        }
        let tiny = RetryPolicy { max_retries: 3, base_ms: 1, max_ms: 1 };
        for salt in 0..8 {
            assert_eq!(tiny.backoff_ms(1, salt), 1);
        }
    }

    #[test]
    fn zero_base_is_rejected_at_construction() {
        let policy = RetryPolicy { base_ms: 0, ..RetryPolicy::default() };
        let err = RetryingClient::new("127.0.0.1:1", policy).unwrap_err();
        assert_eq!(err.code(), "config");
        assert!(err.to_string().contains("base_ms"), "{err}");
        let policy = RetryPolicy { max_ms: 0, ..RetryPolicy::default() };
        let err = RetryingClient::new("127.0.0.1:1", policy).unwrap_err();
        assert_eq!(err.code(), "config");
        // The default policy stays constructible.
        assert!(RetryingClient::new("127.0.0.1:1", RetryPolicy::default()).is_ok());
    }
}
