//! Structured tracing hooks with a thread-local (plus optional
//! process-global) subscriber.
//!
//! The design mirrors `qroute_core::budget`: a `thread_local!`
//! `RefCell<Option<...>>` armed via an RAII restore guard, so the
//! **disarmed** fast path — the one every router round crosses in
//! production — is one TLS read plus one relaxed atomic load, with zero
//! allocations and no clock reads. Only when a subscriber is installed
//! do [`span`]/[`event`] take timestamps and build records.
//!
//! Two installation scopes:
//!
//! * [`with_subscriber`] arms the *current thread* for the duration of a
//!   closure (tests, single-threaded tools). Nested calls shadow and
//!   restore, like `budget::with_budget`.
//! * [`install_global`] arms *every* thread (an `ArcSwap`-style slot
//!   guarded by an atomic flag). The engine's worker pool routes jobs on
//!   its own threads, so `repro batch --trace` installs globally — a
//!   thread-local subscriber on the CLI thread would never see router
//!   internals. A thread-local subscriber, when present, shadows the
//!   global one.
//!
//! Records carry a name, a monotonic microsecond timestamp (since the
//! first armed use in the process), a small per-thread id, an optional
//! duration (spans), and a borrowed field slice — no heap allocation on
//! the emitting side. Subscribers that persist records (JSONL, Chrome
//! `trace_event`) serialize under their own lock.

use serde::write_json_string;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One field value of a trace record. Borrowed where possible so that
/// emitting a record allocates nothing.
#[derive(Debug, Clone, Copy)]
pub enum FieldValue<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Borrowed string.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl FieldValue<'_> {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            FieldValue::Str(s) => write_json_string(s, out),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// A borrowed trace record, passed to [`Subscriber::on_record`].
#[derive(Debug)]
pub struct TraceRecord<'a> {
    /// Static record name, dot-namespaced (`"pathfinder.round"`).
    pub name: &'static str,
    /// Microseconds since the process trace epoch, at the record's
    /// start (spans) or emission (events).
    pub ts_us: u64,
    /// Span duration in microseconds; `None` for point events.
    pub dur_us: Option<u64>,
    /// Small sequential id of the emitting thread.
    pub thread: u64,
    /// Borrowed field slice.
    pub fields: &'a [(&'static str, FieldValue<'a>)],
}

/// A sink for trace records. Implementations must be cheap to call or
/// buffer internally; routers emit records from their hot loops.
pub trait Subscriber: Send + Sync {
    /// Observe one record. The record (and its field slice) is only
    /// valid for the duration of the call.
    fn on_record(&self, record: &TraceRecord<'_>);
}

thread_local! {
    /// The thread-local subscriber, `None` when this thread is unarmed.
    static ACTIVE: RefCell<Option<Arc<dyn Subscriber>>> = const { RefCell::new(None) };
}

/// Whether any global subscriber is installed (fast gate in front of the
/// global slot's mutex).
static GLOBAL_ARMED: AtomicBool = AtomicBool::new(false);

/// The global subscriber slot.
static GLOBAL: Mutex<Option<Arc<dyn Subscriber>>> = Mutex::new(None);

/// The process trace epoch: timestamps count from the first armed use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Per-thread sequential ids (stable, small — unlike
/// `std::thread::ThreadId`, which has no stable integer accessor).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Whether a subscriber (thread-local or global) would observe records
/// emitted by this thread right now. One TLS read plus one relaxed load
/// — call sites use it to skip building expensive fields when disarmed.
#[inline]
pub fn armed() -> bool {
    ACTIVE.with(|s| s.borrow().is_some()) || GLOBAL_ARMED.load(Ordering::Relaxed)
}

/// Run `f` against the armed subscriber, if any (thread-local shadows
/// global). The global Arc is cloned per dispatch — records are emitted
/// at phase/round granularity, not per instruction, so one refcount bump
/// is noise; the disarmed path never gets here.
fn with_active<T>(f: impl FnOnce(&dyn Subscriber) -> T) -> Option<T> {
    let local = ACTIVE.with(|s| s.borrow().clone());
    let sub = match local {
        Some(sub) => sub,
        None => {
            if !GLOBAL_ARMED.load(Ordering::Relaxed) {
                return None;
            }
            GLOBAL
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()?
        }
    };
    Some(f(&*sub))
}

fn now_us() -> u64 {
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u64::MAX as u128) as u64
}

/// Arm the current thread with `subscriber` for the duration of `f`,
/// restoring the previous state on exit (including unwinds) — the
/// `budget::with_budget` shape.
pub fn with_subscriber<T>(subscriber: Arc<dyn Subscriber>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn Subscriber>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|s| *s.borrow_mut() = prev);
        }
    }
    let _restore = Restore(ACTIVE.with(|s| s.borrow_mut().replace(subscriber)));
    f()
}

/// Install (or replace) the process-global subscriber, arming every
/// thread that has no thread-local one. Returns the previous global
/// subscriber. `install_global(None)` disarms.
pub fn install_global(subscriber: Option<Arc<dyn Subscriber>>) -> Option<Arc<dyn Subscriber>> {
    let mut slot = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    GLOBAL_ARMED.store(subscriber.is_some(), Ordering::Relaxed);
    std::mem::replace(&mut *slot, subscriber)
}

/// Emit a point event. Disarmed: one TLS read + one relaxed load, then
/// returns — the field slice lives on the caller's stack either way.
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue<'_>)]) {
    if !armed() {
        return;
    }
    let ts_us = now_us();
    let thread = THREAD_ID.with(|&t| t);
    with_active(|sub| {
        sub.on_record(&TraceRecord { name, ts_us, dur_us: None, thread, fields });
    });
}

/// Time `f` as a span named `name` with no fields. Disarmed: one TLS
/// read + one relaxed load, then straight into `f` — no clock read.
#[inline]
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_with(name, &[], f)
}

/// Time `f` as a span carrying `fields` (recorded at span close, with
/// the start timestamp). Build expensive fields under an [`armed`]
/// check; cheap ones (static strings, integers already at hand) cost a
/// few stack writes when disarmed.
#[inline]
pub fn span_with<T>(
    name: &'static str,
    fields: &[(&'static str, FieldValue<'_>)],
    f: impl FnOnce() -> T,
) -> T {
    if !armed() {
        return f();
    }
    let ts_us = now_us();
    let result = f();
    let dur_us = now_us().saturating_sub(ts_us);
    let thread = THREAD_ID.with(|&t| t);
    with_active(|sub| {
        sub.on_record(&TraceRecord { name, ts_us, dur_us: Some(dur_us), thread, fields });
    });
    result
}

/// Serialize a record as one JSON object (the JSONL trace schema):
/// `{"name":...,"ts_us":...,"dur_us":...|null,"tid":...,"fields":{...}}`.
fn record_to_json(record: &TraceRecord<'_>, out: &mut String) {
    out.push_str("{\"name\":");
    write_json_string(record.name, out);
    out.push_str(",\"ts_us\":");
    out.push_str(&record.ts_us.to_string());
    out.push_str(",\"dur_us\":");
    match record.dur_us {
        Some(d) => out.push_str(&d.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"tid\":");
    out.push_str(&record.thread.to_string());
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in record.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(key, out);
        out.push(':');
        value.write_json(out);
    }
    out.push_str("}}");
}

/// A subscriber writing one JSON object per record (JSONL) to a shared
/// writer. Lines are whole (the writer lock covers a full record), so
/// concurrent worker threads interleave records, never bytes.
pub struct JsonlSubscriber {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSubscriber {
    /// Wrap a writer (a `BufWriter<File>` in the CLI).
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSubscriber {
        JsonlSubscriber { out: Mutex::new(out) }
    }

    /// Flush buffered records.
    pub fn finish(&self) {
        let _ = self
            .out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush();
    }
}

impl Subscriber for JsonlSubscriber {
    fn on_record(&self, record: &TraceRecord<'_>) {
        let mut line = String::with_capacity(128);
        record_to_json(record, &mut line);
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = out.write_all(line.as_bytes());
    }
}

/// A subscriber writing the Chrome `trace_event` JSON array format
/// (load the file in `chrome://tracing` or Perfetto): spans become
/// complete `"ph":"X"` events with `ts`/`dur` in microseconds, point
/// events become thread-scoped instants (`"ph":"i"`). Call
/// [`ChromeSubscriber::finish`] to close the array.
pub struct ChromeSubscriber {
    out: Mutex<ChromeState>,
}

struct ChromeState {
    writer: Box<dyn Write + Send>,
    wrote_any: bool,
    finished: bool,
}

impl ChromeSubscriber {
    /// Wrap a writer.
    pub fn new(out: Box<dyn Write + Send>) -> ChromeSubscriber {
        ChromeSubscriber {
            out: Mutex::new(ChromeState { writer: out, wrote_any: false, finished: false }),
        }
    }

    /// Close the JSON array and flush. Idempotent.
    pub fn finish(&self) {
        let mut state = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if state.finished {
            return;
        }
        state.finished = true;
        let tail: &[u8] = if state.wrote_any { b"\n]\n" } else { b"[]\n" };
        let _ = state.writer.write_all(tail);
        let _ = state.writer.flush();
    }
}

impl Drop for ChromeSubscriber {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Subscriber for ChromeSubscriber {
    fn on_record(&self, record: &TraceRecord<'_>) {
        let mut obj = String::with_capacity(160);
        obj.push_str("{\"name\":");
        write_json_string(record.name, &mut obj);
        match record.dur_us {
            Some(dur) => {
                obj.push_str(",\"ph\":\"X\",\"dur\":");
                obj.push_str(&dur.to_string());
            }
            None => obj.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        obj.push_str(",\"ts\":");
        obj.push_str(&record.ts_us.to_string());
        obj.push_str(",\"pid\":1,\"tid\":");
        obj.push_str(&record.thread.to_string());
        obj.push_str(",\"args\":{");
        for (i, (key, value)) in record.fields.iter().enumerate() {
            if i > 0 {
                obj.push(',');
            }
            write_json_string(key, &mut obj);
            obj.push(':');
            value.write_json(&mut obj);
        }
        obj.push_str("}}");
        let mut state = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if state.finished {
            return;
        }
        let head: &[u8] = if state.wrote_any { b",\n" } else { b"[\n" };
        state.wrote_any = true;
        let _ = state.writer.write_all(head);
        let _ = state.writer.write_all(obj.as_bytes());
    }
}

/// A subscriber that only counts calls — the instrument behind the
/// "tracing disarmed performs zero subscriber calls" guard test and any
/// other hot-path cost assertion.
#[derive(Default)]
pub struct CountingSubscriber {
    calls: AtomicU64,
}

impl CountingSubscriber {
    /// A fresh counter at zero.
    pub fn new() -> CountingSubscriber {
        CountingSubscriber::default()
    }

    /// Records observed so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Subscriber for CountingSubscriber {
    fn on_record(&self, _record: &TraceRecord<'_>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// A subscriber buffering JSONL-rendered records in memory (tests).
#[derive(Default)]
pub struct MemorySubscriber {
    lines: Mutex<Vec<String>>,
}

impl MemorySubscriber {
    /// An empty buffer.
    pub fn new() -> MemorySubscriber {
        MemorySubscriber::default()
    }

    /// The JSONL lines recorded so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Subscriber for MemorySubscriber {
    fn on_record(&self, record: &TraceRecord<'_>) {
        let mut line = String::with_capacity(128);
        record_to_json(record, &mut line);
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that arms the global subscriber or needs it
    /// disarmed: the test harness runs tests on parallel threads, and
    /// the global slot is shared by all of them.
    static GLOBAL_SLOT: Mutex<()> = Mutex::new(());

    fn global_slot() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_SLOT.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_emits_nothing_and_returns_the_value() {
        let _slot = global_slot();
        let got = span("outer", || {
            event("inner", &[("k", FieldValue::U64(1))]);
            41 + 1
        });
        assert_eq!(got, 42);
    }

    #[test]
    fn thread_local_subscriber_sees_spans_and_events_then_restores() {
        let _slot = global_slot();
        let sub = Arc::new(MemorySubscriber::new());
        let got = with_subscriber(Arc::clone(&sub) as Arc<dyn Subscriber>, || {
            span_with("phase", &[("router", FieldValue::Str("ats"))], || {
                event(
                    "round",
                    &[
                        ("round", FieldValue::U64(3)),
                        ("score", FieldValue::F64(0.5)),
                    ],
                );
                7
            })
        });
        assert_eq!(got, 7);
        assert!(!armed(), "restored after the closure");
        let lines = sub.lines();
        assert_eq!(lines.len(), 2);
        // Events inside a span are emitted first (span closes after).
        assert!(lines[0].contains("\"name\":\"round\""), "{}", lines[0]);
        assert!(lines[0].contains("\"dur_us\":null"), "{}", lines[0]);
        assert!(lines[0].contains("\"round\":3"), "{}", lines[0]);
        assert!(lines[0].contains("\"score\":0.5"), "{}", lines[0]);
        assert!(lines[1].contains("\"name\":\"phase\""), "{}", lines[1]);
        assert!(lines[1].contains("\"router\":\"ats\""), "{}", lines[1]);
        assert!(!lines[1].contains("\"dur_us\":null"), "{}", lines[1]);
    }

    #[test]
    fn nested_subscribers_shadow_and_restore() {
        let outer = Arc::new(CountingSubscriber::new());
        let inner = Arc::new(CountingSubscriber::new());
        with_subscriber(Arc::clone(&outer) as Arc<dyn Subscriber>, || {
            event("a", &[]);
            with_subscriber(Arc::clone(&inner) as Arc<dyn Subscriber>, || {
                event("b", &[]);
            });
            event("c", &[]);
        });
        assert_eq!(outer.calls(), 2);
        assert_eq!(inner.calls(), 1);
    }

    #[test]
    fn global_subscriber_arms_spawned_threads() {
        let _slot = global_slot();
        let sub = Arc::new(CountingSubscriber::new());
        let prev = install_global(Some(Arc::clone(&sub) as Arc<dyn Subscriber>));
        std::thread::spawn(|| span("worker", || event("tick", &[])))
            .join()
            .unwrap();
        install_global(prev);
        assert_eq!(sub.calls(), 2);
        assert!(!armed(), "global uninstalled");
    }

    #[test]
    fn chrome_subscriber_writes_a_closed_event_array() {
        use std::sync::mpsc::channel;
        struct Tee(std::sync::mpsc::Sender<Vec<u8>>);
        impl Write for Tee {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.send(buf.to_vec()).unwrap();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = channel();
        let sub = Arc::new(ChromeSubscriber::new(Box::new(Tee(tx))));
        with_subscriber(Arc::clone(&sub) as Arc<dyn Subscriber>, || {
            span("phase", || event("mark", &[("n", FieldValue::U64(2))]));
        });
        sub.finish();
        let text: String = rx
            .try_iter()
            .map(|chunk| String::from_utf8(chunk).unwrap())
            .collect();
        assert!(text.starts_with("[\n"), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert!(text.contains("\"ph\":\"i\""), "{text}");
        assert!(text.contains("\"ph\":\"X\""), "{text}");
        assert!(text.contains("\"n\":2"), "{text}");
    }
}
