//! The closed-loop driver with outcome accounting.
//!
//! [`CLIENTS`] threads each run business transactions back to back until
//! the stop instant.  A business transaction is retried, with the same
//! parameters, after every retryable abort, with a short random pause so
//! that retries de-phase from the epoch cycle, until it commits or has used
//! [`MAX_ATTEMPTS`] attempts; then it counts as failed.  Every abort is
//! classified by the cause in the engine's error, taken from the client
//! wrapper before the workload folds it into `Ok(false)`.  A non-retryable
//! error ends the run with that error, and so does a crashed proxy or
//! storage that failed integrity verification, which the engine reports as
//! retryable ([`ends_run`]).

use crate::client::Client;
use crate::spec::App;
use crate::trace::Tracer;
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_common::types::AbortReason;
use obladi_core::KvDatabase;
use std::time::{Duration, Instant};

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;

/// Attempts a business transaction gets before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 32;

/// Pause before a retry: uniform in `1..=RETRY_PAUSE_MAX_MS` milliseconds.
pub const RETRY_PAUSE_MAX_MS: u64 = 4;

/// Abort causes, by the metric suffix `core.abort.<cause>`.
pub const CAUSES: [&str; 7] = [
    "write_too_late",
    "cascading",
    "epoch_end",
    "batch_full",
    "pipeline_incompatible",
    "barrier_stalled",
    "other",
];

/// Whether an error the engine calls retryable still ends the run: a
/// crashed proxy (`Aborted(Crash)`, then `ProxyUnavailable` for every later
/// attempt) or storage that failed integrity verification.  Retrying would
/// only turn a broken engine into failed transactions.
pub fn ends_run(err: &ObladiError) -> bool {
    match err {
        ObladiError::TxnAborted(msg) => {
            msg.contains(&AbortReason::Crash.to_string())
                || msg.contains(&AbortReason::IntegrityViolation.to_string())
        }
        ObladiError::ProxyUnavailable => true,
        _ => false,
    }
}

/// Index into [`CAUSES`] of a retryable engine error.
pub fn cause_of(err: &ObladiError) -> usize {
    let name = match err {
        // The engine reports MVTSO and epoch aborts as text; the phrases
        // are those of `AbortReason`'s display and the proxy's messages.
        ObladiError::TxnAborted(msg) => {
            if msg.contains("rejected") {
                "write_too_late"
            } else if msg.contains("cascading") {
                "cascading"
            } else if msg.contains("epoch ended") || msg.contains("raced the next epoch") {
                "epoch_end"
            } else if msg.contains("batches were full") {
                "batch_full"
            } else {
                "other"
            }
        }
        ObladiError::BatchFull(_) => "batch_full",
        ObladiError::PipelineIncompatible { .. } => "pipeline_incompatible",
        ObladiError::BarrierStalled { .. } => "barrier_stalled",
        _ => "other",
    };
    CAUSES
        .iter()
        .position(|c| *c == name)
        .expect("every cause name is listed in CAUSES")
}

/// One business transaction, from its first attempt to its last.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// Transaction type index within the application's mix.
    pub kind: usize,
    /// Start of the first attempt.
    pub start: Instant,
    /// Commit acknowledgement, or the end of the last failed attempt.
    pub end: Instant,
    /// Attempts made.
    pub attempts: u32,
    /// Whether it committed.
    pub committed: bool,
    /// Aborted attempts by cause.
    pub aborts: [u32; CAUSES.len()],
    /// Reads issued by the committed attempt.
    pub reads: u32,
    /// Commit wait of the committed attempt.
    pub commit_wait: Duration,
}

/// Everything one client did.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Business transactions in the order the client ran them.
    pub records: Vec<TxnRecord>,
    /// Net balance change of the committed transactions (SmallBank).
    pub balance_delta: i128,
    /// Committed NewOrders (TPC-C).
    pub new_orders: u64,
}

/// Runs [`CLIENTS`] closed-loop clients against `db` until `stop`.
pub fn run_clients<D: KvDatabase>(
    app: &App,
    db: &D,
    tracer: &Tracer,
    seed: u64,
    stop: Instant,
) -> Result<Vec<ClientLog>> {
    let streams = DetRng::new(seed);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let params = streams.derive(1 + index as u64);
                let pauses = streams.derive(1_000 + index as u64);
                scope.spawn(move || run_client(app, db, tracer, index, params, pauses, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn run_client<D: KvDatabase>(
    app: &App,
    db: &D,
    tracer: &Tracer,
    index: usize,
    mut params: DetRng,
    mut pauses: DetRng,
    stop: Instant,
) -> Result<ClientLog> {
    let client = Client::new(db, tracer, app.keeps_values());
    let mut log = ClientLog::default();
    let mut seq = 0u64;
    while Instant::now() < stop {
        let drawn = params.clone();
        let mut record = TxnRecord {
            kind: 0,
            start: Instant::now(),
            end: Instant::now(),
            attempts: 0,
            committed: false,
            aborts: [0; CAUSES.len()],
            reads: 0,
            commit_wait: Duration::ZERO,
        };
        loop {
            record.attempts += 1;
            seq += 1;
            let mut replay = drawn.clone();
            client.begin_attempt(((index as u64 + 1) << 48) | seq);
            let (kind, verdict) = app.run_one(&client, &mut replay);
            let attempt = client.take_attempt();
            record.kind = kind;
            if attempt.executes != 1 {
                return Err(ObladiError::Internal(format!(
                    "a business transaction made {} execute calls; the driver expects one",
                    attempt.executes
                )));
            }
            let abort = match (verdict, attempt.error.clone()) {
                (Ok(true), None) => None,
                (Ok(false), Some(err)) | (Err(err), _) if err.is_retryable() && !ends_run(&err) => {
                    Some(err)
                }
                (Err(err), _) | (Ok(_), Some(err)) => return Err(err),
                (Ok(false), None) => {
                    return Err(ObladiError::Internal(
                        "the workload reported an abort the engine did not raise".into(),
                    ))
                }
            };
            match abort {
                None => {
                    record.committed = true;
                    record.reads = attempt.reads;
                    record.commit_wait = attempt.commit_wait;
                    log.balance_delta += app.balance_delta(&attempt)?;
                    log.new_orders += u64::from(app.is_new_order(kind));
                }
                Some(err) => {
                    record.aborts[cause_of(&err)] += 1;
                    if record.attempts < MAX_ATTEMPTS {
                        let pause = 1 + pauses.below(RETRY_PAUSE_MAX_MS);
                        std::thread::sleep(Duration::from_millis(pause));
                        continue;
                    }
                }
            }
            params = replay;
            break;
        }
        record.end = Instant::now();
        log.records.push(record);
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_causes_come_from_the_engine_error() {
        let cause = |err: ObladiError| CAUSES[cause_of(&err)];
        let aborted = |reason: AbortReason| ObladiError::TxnAborted(reason.to_string());
        assert_eq!(cause(aborted(AbortReason::WriteTooLate)), "write_too_late");
        assert_eq!(
            cause(ObladiError::TxnAborted(
                "write to key 7 rejected: version 3 already read by txn 9".into()
            )),
            "write_too_late"
        );
        assert_eq!(cause(aborted(AbortReason::Cascading)), "cascading");
        assert_eq!(cause(aborted(AbortReason::EpochEnd)), "epoch_end");
        assert_eq!(
            cause(ObladiError::TxnAborted(format!(
                "shard 1: {}",
                AbortReason::BatchFull
            ))),
            "batch_full"
        );
        assert_eq!(cause(ObladiError::BatchFull("read".into())), "batch_full");
    }

    #[test]
    fn a_crashed_proxy_or_failed_integrity_ends_the_run() {
        let aborted = |reason: AbortReason| ObladiError::TxnAborted(reason.to_string());
        assert!(ends_run(&aborted(AbortReason::Crash)));
        assert!(ends_run(&ObladiError::TxnAborted(format!(
            "shard 0: {}",
            AbortReason::IntegrityViolation
        ))));
        assert!(ends_run(&ObladiError::ProxyUnavailable));
        assert!(!ends_run(&aborted(AbortReason::Cascading)));
        assert!(!ends_run(&ObladiError::BatchFull("read".into())));
    }
}
