//! The benchmark's `KvDatabase`/`KvTransaction` wrapper around the engine.
//!
//! Each client thread owns one [`Client`].  The workload code calls
//! `execute` on it exactly as it would on the engine; the wrapper forwards
//! to the engine's own `execute` and keeps, per attempt, what the client
//! observed: the engine's error (before the workload folds a retryable one
//! into `Ok(false)`), the reads and their latency, the values read and
//! written (for the ledger check) and the commit wait.

use crate::trace::{Op, Tracer};
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{Key, Value};
use obladi_core::{KvDatabase, KvTransaction};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one attempt of a business transaction did, as the client saw it.
#[derive(Debug, Default)]
pub struct Attempt {
    /// Span identifier shared by every span of this attempt.
    pub txn: u64,
    /// `execute` calls made (the workloads make exactly one).
    pub executes: u32,
    /// The error the engine's `execute` returned, if any.
    pub error: Option<ObladiError>,
    /// Reads issued.
    pub reads: u32,
    /// Time from the end of the transaction body to the commit
    /// acknowledgement (zero unless the body succeeded).
    pub commit_wait: Duration,
    /// First value read for each key, in read order (recorded only when
    /// values are kept).
    pub first_reads: Vec<(Key, Option<Value>)>,
    /// Last value written to each key (recorded only when values are kept).
    pub writes: Vec<(Key, Value)>,
}

/// One client's view of the engine.
pub struct Client<'a, D> {
    db: &'a D,
    tracer: &'a Tracer,
    keep_values: bool,
    attempt: Mutex<Attempt>,
}

impl<'a, D: KvDatabase> Client<'a, D> {
    /// A client of `db`; `keep_values` records read and written values.
    pub fn new(db: &'a D, tracer: &'a Tracer, keep_values: bool) -> Self {
        Client {
            db,
            tracer,
            keep_values,
            attempt: Mutex::new(Attempt::default()),
        }
    }

    /// Starts a new attempt, discarding the previous attempt's record.
    pub fn begin_attempt(&self, txn: u64) {
        *self.lock() = Attempt {
            txn,
            ..Attempt::default()
        };
    }

    /// Takes the record of the attempt that just ended.
    pub fn take_attempt(&self) -> Attempt {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Attempt> {
        self.attempt
            .lock()
            .expect("attempt record poisoned by a panicking transaction body")
    }
}

impl<D: KvDatabase> KvDatabase for Client<'_, D> {
    fn execute<T>(&self, body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>) -> Result<T> {
        let txn_id = {
            let mut attempt = self.lock();
            attempt.executes += 1;
            attempt.txn
        };
        let started = self.tracer.start();
        let mut body_done = None;
        let result = self.db.execute(&mut |txn: &mut dyn KvTransaction| {
            let mut attempt = self.lock();
            attempt.reads = 0;
            attempt.first_reads.clear();
            attempt.writes.clear();
            let mut traced = TracedTxn {
                inner: txn,
                attempt: &mut attempt,
                tracer: self.tracer,
                keep_values: self.keep_values,
            };
            let out = body(&mut traced);
            body_done = Some(Instant::now());
            out
        });
        let finished = Instant::now();
        self.tracer.record(Op::CoreAttempt, txn_id, started);
        let mut attempt = self.lock();
        match &result {
            Ok(_) => {
                if let Some(done) = body_done {
                    attempt.commit_wait = finished.saturating_duration_since(done);
                    if started.is_some() {
                        self.tracer.record(Op::CoreCommitWait, txn_id, Some(done));
                    }
                }
            }
            Err(err) => attempt.error = Some(err.clone()),
        }
        result
    }

    fn engine_name(&self) -> &'static str {
        self.db.engine_name()
    }
}

struct TracedTxn<'t, 'a> {
    inner: &'t mut dyn KvTransaction,
    attempt: &'t mut Attempt,
    tracer: &'a Tracer,
    keep_values: bool,
}

impl KvTransaction for TracedTxn<'_, '_> {
    fn read(&mut self, key: Key) -> Result<Option<Value>> {
        let started = self.tracer.start();
        let result = self.inner.read(key);
        self.tracer.record(Op::CoreRead, self.attempt.txn, started);
        self.attempt.reads += 1;
        if self.keep_values {
            if let Ok(value) = &result {
                if !self.attempt.first_reads.iter().any(|(k, _)| *k == key) {
                    self.attempt.first_reads.push((key, value.clone()));
                }
            }
        }
        result
    }

    fn write(&mut self, key: Key, value: Value) -> Result<()> {
        if self.keep_values {
            self.attempt.writes.retain(|(k, _)| *k != key);
            self.attempt.writes.push((key, value.clone()));
        }
        let started = self.tracer.start();
        let result = self.inner.write(key, value);
        self.tracer.record(Op::CoreWrite, self.attempt.txn, started);
        result
    }

    fn id(&self) -> u64 {
        self.inner.id()
    }
}
