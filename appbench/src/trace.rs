//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around every call it makes into a layer
//! (the client calls into `core`, the engine's calls into storage).  Spans
//! go to a striped in-memory buffer while the traced window runs and are
//! written out as CSV when the run ends; nothing is aggregated on the hot
//! path.  With tracing off, [`Tracer::start`] is one relaxed atomic load.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One `execute` call: a business transaction attempt, body and commit.
    CoreAttempt,
    /// One `KvTransaction::read`.
    CoreRead,
    /// One `KvTransaction::write`.
    CoreWrite,
    /// From the end of the transaction body to the commit acknowledgement.
    CoreCommitWait,
    /// `UntrustedStore::read_slot`.
    StoreReadSlot,
    /// `UntrustedStore::write_bucket`.
    StoreWriteBucket,
    /// `UntrustedStore::append_log` (write-ahead log and checkpoints).
    StoreLogAppend,
    /// Any other storage call (metadata, log scans, versions).
    StoreOther,
}

impl Op {
    /// Span name as written to the CSV.
    pub fn name(self) -> &'static str {
        match self {
            Op::CoreAttempt => "core.attempt",
            Op::CoreRead => "core.read",
            Op::CoreWrite => "core.write",
            Op::CoreCommitWait => "core.commit_wait",
            Op::StoreReadSlot => "storage.read_slot",
            Op::StoreWriteBucket => "storage.write_bucket",
            Op::StoreLogAppend => "storage.log_append",
            Op::StoreOther => "storage.other",
        }
    }
}

/// One recorded span.  `txn` identifies the business-transaction attempt
/// that caused it (0 for engine-driven storage calls, which serve whole
/// epochs rather than one transaction).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary crossed.
    pub op: Op,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
    /// Causing transaction attempt, or 0.
    pub txn: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

const STRIPES: usize = 16;
/// Upper bound on buffered spans per stripe; later spans are counted as
/// dropped instead of growing memory without bound.
const STRIPE_CAP: usize = 1 << 18;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Striped span buffer, switched on and off around the traced window.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    stripes: Vec<Mutex<Vec<Span>>>,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            stripes: (0..STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
            dropped: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    /// Starts or stops recording.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// The start instant of a span, or `None` while tracing is off.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.on.load(Ordering::Relaxed).then(Instant::now)
    }

    /// Records a span that began at `started` (from [`Tracer::start`]).
    pub fn record(&self, op: Op, txn: u64, started: Option<Instant>) {
        let Some(started) = started else {
            return;
        };
        let dur_ns = started.elapsed().as_nanos() as u64;
        let start_ns = started.saturating_duration_since(self.origin).as_nanos() as u64;
        let thread = THREAD.with(|t| *t);
        let mut stripe = self.stripes[thread as usize % STRIPES]
            .lock()
            .expect("span stripe poisoned by a panicking recorder");
        if stripe.len() >= STRIPE_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        stripe.push(Span {
            op,
            thread,
            txn,
            start_ns,
            dur_ns,
        });
    }

    /// Removes and returns every buffered span, sorted by start time, with
    /// the number dropped for lack of buffer space.
    pub fn drain(&self) -> (Vec<Span>, u64) {
        let mut spans = Vec::new();
        for stripe in &self.stripes {
            spans.append(&mut stripe.lock().expect("span stripe poisoned"));
        }
        spans.sort_by_key(|span| span.start_ns);
        (spans, self.dropped.swap(0, Ordering::Relaxed))
    }
}

/// Writes spans as CSV (`op,thread,txn,start_ns,dur_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op,thread,txn,start_ns,dur_ns")?;
    for span in spans {
        writeln!(
            out,
            "{},{},{},{},{}",
            span.op.name(),
            span.thread,
            span.txn,
            span.start_ns,
            span.dur_ns
        )?;
    }
    out.flush()
}

/// Mean duration (µs) of the spans of one op, 0 when there are none.
pub fn op_mean_us(spans: &[Span], op: Op) -> f64 {
    let (count, total_ns) = spans
        .iter()
        .filter(|span| span.op == op)
        .fold((0u64, 0u64), |(n, ns), span| (n + 1, ns + span.dur_ns));
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64 / 1000.0
    }
}
