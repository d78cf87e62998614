//! A metering wrapper around every store handed to the engine.
//!
//! It counts calls and payload bytes across the proxy↔untrusted-storage
//! boundary in every run (the `storage_bytes_per_txn` end-to-end metric
//! needs them) and records one span per call while the tracer is on.

use crate::trace::{Op, Tracer};
use bytes::Bytes;
use obladi_common::error::Result;
use obladi_common::types::{BucketId, Version};
use obladi_storage::{BucketSnapshot, StoreStats, UntrustedStore, WireMetrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative counters shared by every metered store of one deployment.
#[derive(Debug, Default)]
pub struct StoreCounters {
    read_slot: AtomicU64,
    write_bucket: AtomicU64,
    log_append: AtomicU64,
    log_bytes: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time copy of [`StoreCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTotals {
    /// `read_slot` calls.
    pub read_slot: u64,
    /// `write_bucket` calls.
    pub write_bucket: u64,
    /// `append_log` calls (write-ahead log records and checkpoints).
    pub log_append: u64,
    /// Payload bytes appended to the log.
    pub log_bytes: u64,
    /// Payload bytes moved in either direction, all calls.
    pub bytes: u64,
}

impl StoreTotals {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &StoreTotals) -> StoreTotals {
        StoreTotals {
            read_slot: self.read_slot - earlier.read_slot,
            write_bucket: self.write_bucket - earlier.write_bucket,
            log_append: self.log_append - earlier.log_append,
            log_bytes: self.log_bytes - earlier.log_bytes,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl StoreCounters {
    /// Current totals.
    pub fn totals(&self) -> StoreTotals {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StoreTotals {
            read_slot: get(&self.read_slot),
            write_bucket: get(&self.write_bucket),
            log_append: get(&self.log_append),
            log_bytes: get(&self.log_bytes),
            bytes: get(&self.bytes),
        }
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Forwards every call to `inner`, counting it and tracing it.
pub struct MeteredStore {
    inner: Arc<dyn UntrustedStore>,
    counters: Arc<StoreCounters>,
    tracer: Arc<Tracer>,
}

impl MeteredStore {
    /// Wraps `inner`.
    pub fn wrap(
        inner: Arc<dyn UntrustedStore>,
        counters: Arc<StoreCounters>,
        tracer: Arc<Tracer>,
    ) -> Arc<dyn UntrustedStore> {
        Arc::new(MeteredStore {
            inner,
            counters,
            tracer,
        })
    }

    fn other<T>(&self, call: impl FnOnce() -> Result<T>) -> Result<T> {
        let started = self.tracer.start();
        let result = call();
        self.tracer.record(Op::StoreOther, 0, started);
        result
    }

    fn moved(&self, n: usize) {
        StoreCounters::add(&self.counters.bytes, n as u64);
    }
}

fn slot_bytes(slots: &[Bytes]) -> usize {
    slots.iter().map(Bytes::len).sum()
}

impl UntrustedStore for MeteredStore {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        let started = self.tracer.start();
        let result = self.inner.read_slot(bucket, slot);
        self.tracer.record(Op::StoreReadSlot, 0, started);
        StoreCounters::add(&self.counters.read_slot, 1);
        if let Ok(bytes) = &result {
            self.moved(bytes.len());
        }
        result
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        let result = self.other(|| self.inner.read_bucket(bucket));
        if let Ok(snapshot) = &result {
            self.moved(slot_bytes(&snapshot.slots));
        }
        result
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        let bytes = slot_bytes(&slots);
        let started = self.tracer.start();
        let result = self.inner.write_bucket(bucket, slots);
        self.tracer.record(Op::StoreWriteBucket, 0, started);
        StoreCounters::add(&self.counters.write_bucket, 1);
        self.moved(bytes);
        result
    }

    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        self.other(|| self.inner.bucket_version(bucket))
    }

    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        self.other(|| self.inner.revert_bucket(bucket, version))
    }

    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        self.moved(value.len());
        self.other(|| self.inner.put_meta(key, value))
    }

    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        let result = self.other(|| self.inner.get_meta(key));
        if let Ok(Some(value)) = &result {
            self.moved(value.len());
        }
        result
    }

    fn append_log(&self, record: Bytes) -> Result<u64> {
        let bytes = record.len() as u64;
        let started = self.tracer.start();
        let result = self.inner.append_log(record);
        self.tracer.record(Op::StoreLogAppend, 0, started);
        StoreCounters::add(&self.counters.log_append, 1);
        StoreCounters::add(&self.counters.log_bytes, bytes);
        StoreCounters::add(&self.counters.bytes, bytes);
        result
    }

    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        let result = self.other(|| self.inner.read_log_from(from));
        if let Ok(records) = &result {
            self.moved(records.iter().map(|(_, r)| r.len()).sum());
        }
        result
    }

    fn read_log_page(&self, from: u64, max_bytes: usize) -> Result<(Vec<(u64, Bytes)>, bool)> {
        let result = self.other(|| self.inner.read_log_page(from, max_bytes));
        if let Ok((records, _)) = &result {
            self.moved(records.iter().map(|(_, r)| r.len()).sum());
        }
        result
    }

    fn truncate_log(&self, up_to: u64) -> Result<()> {
        self.other(|| self.inner.truncate_log(up_to))
    }

    fn truncate_log_tail(&self, from: u64) -> Result<()> {
        self.other(|| self.inner.truncate_log_tail(from))
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn daemon_metrics(&self) -> Option<WireMetrics> {
        self.inner.daemon_metrics()
    }
}
