//! Correctness checks, judged from values the clients observed.
//!
//! * SmallBank ledger: the final total balance equals the initial total
//!   plus the net balance change of every committed transaction, as the
//!   client wrapper saw it read and write.
//! * TPC-C: the summed advance of every district's `NEXT_O_ID` equals the
//!   number of committed NewOrders.
//! * FreeHealth: the summed episode counters of the loaded patients advance
//!   by the number of committed CreateEpisodes.
//!
//! [`ledger_self_test`] gives the ledger check teeth: it runs SmallBank on a
//! fake engine that loses one committed write and requires the check to
//! fail, and on the same engine without the fault, requires it to pass.

use crate::driver::{self, ClientLog};
use crate::spec::App;
use crate::trace::Tracer;
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{Key, Value};
use obladi_core::{KvDatabase, KvTransaction};
use obladi_workloads::{pack_key, FreeHealthTxn, Row, SmallBankConfig, SmallBankWorkload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// Table identifiers of the rows the checks read, as `obladi-workloads`
// lays them out (`smallbank.rs`, `freehealth.rs`).  A drift shows up as a
// missing row, which fails the check.
const SMALLBANK_CHECKING: u8 = 2;
const SMALLBANK_SAVINGS: u8 = 3;
const FREEHEALTH_PATIENT_COUNTERS: u8 = 37;

/// Reads per scan transaction: within every workload's read batches per
/// epoch, since each read of a scan is one dependent read.
const SCAN_CHUNK: usize = 2;
/// Concurrent scan transactions, so one epoch's batches carry many.
const SCAN_THREADS: usize = 8;
/// Attempts per scan transaction before the check gives up.
const SCAN_ATTEMPTS: u32 = 64;

/// State read before the clients start.
pub struct Baseline {
    counter_sum: u128,
}

impl Baseline {
    /// Reads the counters the checks compare against.
    pub fn take<D: KvDatabase>(app: &App, db: &D) -> Result<Baseline> {
        Ok(Baseline {
            counter_sum: counter_sum(app, db)?,
        })
    }
}

/// The verdict of a workload's check.
pub struct CheckReport {
    /// Whether the check passed.
    pub passed: bool,
    /// Human-readable verdict.
    pub line: String,
}

/// The summed counter the TPC-C and FreeHealth checks track (zero for
/// SmallBank).
fn counter_sum<D: KvDatabase>(app: &App, db: &D) -> Result<u128> {
    match app {
        App::Tpcc(w) => {
            let c = w.config();
            let mut sum = 0u128;
            for wh in 0..c.warehouses {
                for d in 0..c.districts_per_warehouse {
                    sum += u128::from(retry(|| w.district_next_order(db, wh, d))?);
                }
            }
            Ok(sum)
        }
        App::FreeHealth(w) => {
            let keys = (0..w.config().patients)
                .map(|p| pack_key(FREEHEALTH_PATIENT_COUNTERS, p, 0, 0))
                .collect();
            scan_sum(db, keys)
        }
        App::SmallBank(_) => Ok(0),
    }
}

/// Runs the check that applies to `app`.
pub fn verify<D: KvDatabase>(
    app: &App,
    db: &D,
    before: &Baseline,
    logs: &[ClientLog],
) -> Result<CheckReport> {
    let (label, expected, actual) = match app {
        App::SmallBank(w) => {
            let accounts = w.config().num_accounts;
            let keys = (0..accounts)
                .flat_map(|a| {
                    [
                        pack_key(SMALLBANK_CHECKING, a, 0, 0),
                        pack_key(SMALLBANK_SAVINGS, a, 0, 0),
                    ]
                })
                .collect();
            let delta: i128 = logs.iter().map(|l| l.balance_delta).sum();
            let expected = app.initial_balance_total() + delta;
            (
                "ledger: total balance = initial total + committed deltas",
                expected,
                scan_sum(db, keys)? as i128,
            )
        }
        App::Tpcc(_) => {
            let new_orders: u64 = logs.iter().map(|l| l.new_orders).sum();
            (
                "tpcc: NEXT_O_ID advance = committed NewOrders",
                i128::from(new_orders),
                counter_sum(app, db)? as i128 - before.counter_sum as i128,
            )
        }
        App::FreeHealth(_) => {
            let created = logs
                .iter()
                .flat_map(|l| &l.records)
                .filter(|r| r.committed && r.kind == FreeHealthTxn::CreateEpisode as usize)
                .count();
            (
                "freehealth: episode counter advance = committed CreateEpisodes",
                created as i128,
                counter_sum(app, db)? as i128 - before.counter_sum as i128,
            )
        }
    };
    let passed = expected == actual;
    Ok(CheckReport {
        passed,
        line: format!(
            "{label}: expected {expected}, found {actual} -> {}",
            if passed { "ok" } else { "MISMATCH" }
        ),
    })
}

/// Runs `op`, retrying retryable aborts.
fn retry<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match op() {
            Err(err) if err.is_retryable() && attempts < SCAN_ATTEMPTS => {
                std::thread::sleep(Duration::from_millis(1 + u64::from(attempts % 4)));
            }
            other => return other,
        }
    }
}

/// Sums field 0 of the rows at `keys`, reading them in small transactions
/// from several threads.  A missing row is an error.
fn scan_sum<D: KvDatabase>(db: &D, keys: Vec<Key>) -> Result<u128> {
    let chunks: Vec<&[Key]> = keys.chunks(SCAN_CHUNK).collect();
    let next = AtomicUsize::new(0);
    let partials = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SCAN_THREADS)
            .map(|_| {
                scope.spawn(|| -> Result<u128> {
                    let mut sum = 0u128;
                    while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        sum += retry(|| {
                            db.execute(&mut |txn: &mut dyn KvTransaction| {
                                let mut part = 0u128;
                                for &key in chunk.iter() {
                                    let row =
                                        txn.read(key)?.ok_or(ObladiError::KeyNotFound(key))?;
                                    part += u128::from(Row::decode(&row)?.num(0)?);
                                }
                                Ok(part)
                            })
                        })?;
                    }
                    Ok(sum)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan thread panicked"))
            .collect::<Vec<_>>()
    });
    partials.into_iter().sum()
}

/// A serializable in-memory engine for the self-test: each transaction
/// holds the lock for its whole body and applies its writes at commit.
/// When armed, it silently loses the first committed write that would
/// change a value, and still reports the commit.
#[derive(Default)]
struct FakeDb {
    rows: Mutex<BTreeMap<Key, Value>>,
    lose_one_write: AtomicBool,
}

struct FakeTxn<'a> {
    rows: &'a BTreeMap<Key, Value>,
    writes: BTreeMap<Key, Value>,
}

impl KvTransaction for FakeTxn<'_> {
    fn read(&mut self, key: Key) -> Result<Option<Value>> {
        Ok(self
            .writes
            .get(&key)
            .or_else(|| self.rows.get(&key))
            .cloned())
    }

    fn write(&mut self, key: Key, value: Value) -> Result<()> {
        self.writes.insert(key, value);
        Ok(())
    }

    fn id(&self) -> u64 {
        0
    }
}

impl KvDatabase for FakeDb {
    fn execute<T>(&self, body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>) -> Result<T> {
        let mut rows = self.rows.lock().expect("fake engine lock poisoned");
        let mut txn = FakeTxn {
            rows: &rows,
            writes: BTreeMap::new(),
        };
        let out = body(&mut txn)?;
        let writes = txn.writes;
        for (key, value) in writes {
            if rows.get(&key) != Some(&value) && self.lose_one_write.swap(false, Ordering::SeqCst) {
                continue;
            }
            rows.insert(key, value);
        }
        Ok(out)
    }

    fn engine_name(&self) -> &'static str {
        "fake"
    }
}

/// Runs SmallBank briefly on the fake engine, once faithful and once losing
/// one committed write, and requires the ledger check to pass and to fail
/// respectively.
pub fn ledger_self_test() -> std::result::Result<(), String> {
    for lossy in [false, true] {
        let app = App::SmallBank(SmallBankWorkload::new(SmallBankConfig {
            num_accounts: 40,
            hotspot_fraction: 0.1,
            hotspot_probability: 0.25,
        }));
        let db = FakeDb::default();
        app.setup(&db).map_err(|err| err.to_string())?;
        db.lose_one_write.store(lossy, Ordering::SeqCst);
        let stop = Instant::now() + Duration::from_millis(50);
        let logs = driver::run_clients(&app, &db, &Tracer::default(), 7, stop)
            .map_err(|err| err.to_string())?;
        if lossy && db.lose_one_write.load(Ordering::SeqCst) {
            return Err("the fake engine never lost a write".into());
        }
        let before = Baseline::take(&app, &db).map_err(|err| err.to_string())?;
        let report = verify(&app, &db, &before, &logs).map_err(|err| err.to_string())?;
        if report.passed == lossy {
            return Err(format!(
                "the ledger check {} on a {} engine: {}",
                if report.passed { "passed" } else { "failed" },
                if lossy { "write-losing" } else { "faithful" },
                report.line
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_check_catches_a_lost_committed_write() {
        ledger_self_test().unwrap();
    }
}
