//! One workload run: set-up, timed windows, metrics and the result line.

use crate::checks;
use crate::driver::{self, ClientLog, TxnRecord, CAUSES};
use crate::spec::{Deployment, EngineSnapshot, WorkloadName};
use crate::store::StoreTotals;
use crate::sys::{self, CpuTicks};
use crate::trace::{self, Op, Span, Tracer};
use obladi_common::error::{ObladiError, Result};
use obladi_crypto::{Envelope, KeyMaterial};
use obladi_obs::RegistrySnapshot;
use obladi_oram::Block;
use obladi_transport::TransportStats;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Unmeasured time between the clients' start and the timed window.
const WARMUP: Duration = Duration::from_secs(1);

/// Directory, relative to the working directory, for daemon data, sockets
/// and span files.
const RUN_DIR: &str = ".bench_run";

/// The `proxy.phase.*` histograms reported per epoch, by metric stem.
const PHASES: [&str; 6] = [
    "read_fetch",
    "write_back",
    "checkpoint",
    "decision_log",
    "slot_wait",
    "gate_wait",
];

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one workload run.
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Business transactions that finished inside the timed window.
    pub attempted: u64,
    /// Of those, the ones that used up their attempts.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

/// Counters read at one instant of the run.
struct Snapshot {
    at: Instant,
    cpu: Duration,
    ticks: CpuTicks,
    store: StoreTotals,
    engine: EngineSnapshot,
    transport: TransportStats,
    registry: RegistrySnapshot,
}

impl Snapshot {
    fn take(deployment: &Deployment) -> Result<Snapshot> {
        let sys_err = |err: String| ObladiError::Internal(err);
        Ok(Snapshot {
            at: Instant::now(),
            cpu: sys::process_cpu().map_err(sys_err)?,
            ticks: CpuTicks::now().map_err(sys_err)?,
            store: deployment.counters.totals(),
            engine: deployment.engine.snapshot(),
            transport: deployment.transport(),
            registry: obladi_obs::global().snapshot(),
        })
    }
}

/// Business-transaction outcomes of one window.
struct WindowTxns {
    committed: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    attempts: u64,
    aborts: [u64; CAUSES.len()],
    reads: u64,
    max_reads: u64,
    commit_wait: Duration,
}

impl WindowTxns {
    /// Transactions that finished in `[from, to)`.
    fn collect(logs: &[ClientLog], from: Instant, to: Instant) -> WindowTxns {
        let mut w = WindowTxns {
            committed: 0,
            failed: 0,
            latencies_ms: Vec::new(),
            attempts: 0,
            aborts: [0; CAUSES.len()],
            reads: 0,
            max_reads: 0,
            commit_wait: Duration::ZERO,
        };
        let records = logs.iter().flat_map(|log| &log.records);
        for r in records.filter(|r: &&TxnRecord| r.end >= from && r.end < to) {
            w.attempts += u64::from(r.attempts);
            for (total, n) in w.aborts.iter_mut().zip(r.aborts) {
                *total += u64::from(n);
            }
            if r.committed {
                w.committed += 1;
                w.latencies_ms
                    .push(r.end.duration_since(r.start).as_secs_f64() * 1000.0);
                w.reads += u64::from(r.reads);
                w.max_reads = w.max_reads.max(u64::from(r.reads));
                w.commit_wait += r.commit_wait;
            } else {
                w.failed += 1;
            }
        }
        w.latencies_ms.sort_by(f64::total_cmp);
        w
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        let n = self.latencies_ms.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.latencies_ms[rank.clamp(1, n) - 1]
    }

    fn per_commit(&self, total: f64) -> f64 {
        total / self.committed.max(1) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn histogram_sum_us(registry: &RegistrySnapshot, name: &str) -> u64 {
    registry.histogram(name).map_or(0, |h| h.sum)
}

/// Runs one workload: set-up, warm-up, the timed window(s), the
/// correctness checks and teardown.
pub fn run_workload(
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<WorkloadResult> {
    let name = workload.name();
    let app = workload.app();
    let tracer = Arc::new(Tracer::default());
    let run_root = PathBuf::from(RUN_DIR);
    let run_dir = |index: usize| run_root.join(format!("{name}-{}-{index}", std::process::id()));

    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut opened = None;
    for index in 0..repeats {
        let started = Instant::now();
        let deployment = Deployment::open(workload, seed, &tracer, &run_dir(index))?;
        app.setup(&deployment.engine)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if index + 1 < repeats {
            deployment.shutdown();
            remove_dir(&run_dir(index));
        } else {
            opened = Some(deployment);
        }
    }
    let deployment = opened.expect("at least one set-up ran");
    let engine = &deployment.engine;
    let before = checks::Baseline::take(&app, engine)?;

    // The untraced run measures one window.  The traced run measures an
    // untraced window, a traced one and another untraced one, so that the
    // tracing overhead is taken against both neighbours and a drift of the
    // engine over the run cancels out.
    let window = Duration::from_secs(seconds);
    let traced_windows: &[bool] = if traced {
        &[false, true, false]
    } else {
        &[false]
    };
    let t0 = Instant::now() + WARMUP;
    let bounds: Vec<Instant> = (0..=traced_windows.len() as u32)
        .map(|k| t0 + window * k)
        .collect();
    let stop = *bounds.last().expect("bounds are never empty");
    let mut snapshots = Vec::new();
    let logs = std::thread::scope(|scope| -> Result<Vec<ClientLog>> {
        let clients = scope.spawn(|| driver::run_clients(&app, engine, &tracer, seed, stop));
        let timeline = (|| -> Result<()> {
            let sleep_until =
                |at: Instant| std::thread::sleep(at.saturating_duration_since(Instant::now()));
            sleep_until(t0);
            snapshots.push(Snapshot::take(&deployment)?);
            for (&trace_on, &end) in traced_windows.iter().zip(&bounds[1..]) {
                tracer.set_on(trace_on);
                sleep_until(end);
                tracer.set_on(false);
                snapshots.push(Snapshot::take(&deployment)?);
            }
            Ok(())
        })();
        let logs = clients.join().expect("client driver panicked")?;
        timeline?;
        Ok(logs)
    })?;
    let peak_rss_mb = sys::peak_rss_mib().map_err(ObladiError::Internal)?;
    let check = checks::verify(&app, engine, &before, &logs)?;

    let windows: Vec<WindowTxns> = bounds
        .windows(2)
        .map(|w| WindowTxns::collect(&logs, w[0], w[1]))
        .collect();
    let base = &windows[0];
    let last = snapshots.last().expect("the timeline takes snapshots");
    let steal = last.ticks.steal_share_since(&snapshots[0].ticks);
    println!(
        "# health workload={name} seed={seed} clients={} steal={:.2}% config: {}",
        driver::CLIENTS,
        steal * 100.0,
        describe_config(workload, seed)
    );
    println!("# check {name}: {}", check.line);
    if workload.shards() == 1 {
        // Kept visible on every run: see `spec::Engine::execute`.
        let acked = engine.snapshot().acked_aborts;
        println!(
            "# check {name}: execute outcome: {acked} attempts aborted by their epoch after the \
             body succeeded, which ObladiDb's KvDatabase::execute would have acknowledged as \
             commits -> {}",
            if acked > 0 {
                "KNOWN PROGRAM DEFECT (the benchmark commits through the transaction handle)"
            } else {
                "none this run"
            }
        );
    }
    if windows.iter().any(|w| w.committed == 0) {
        return Err(ObladiError::Internal(
            "no business transaction committed in a timed window".into(),
        ));
    }

    let (attempted, failed, metrics) = if traced {
        let (spans, dropped) = tracer.drain();
        std::fs::create_dir_all(&run_root)
            .and_then(|()| trace::write_csv(&run_root.join(format!("spans-{name}.csv")), &spans))
            .map_err(|err| ObladiError::Internal(format!("cannot write spans: {err}")))?;
        let traced_txns = &windows[1];
        let mut metrics = layer_metrics(
            &snapshots[1],
            &snapshots[2],
            traced_txns,
            &spans,
            engine.block_size(),
            seed,
        );
        let untraced = (windows[0].committed + windows[2].committed) as f64 / 2.0;
        metrics.push(metric(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(traced_txns.committed as f64, untraced)),
            "%",
        ));
        metrics.push(metric("trace.spans", spans.len() as f64, "count"));
        metrics.push(metric("trace.spans_dropped", dropped as f64, "count"));
        let attempted = traced_txns.committed + traced_txns.failed;
        (attempted, traced_txns.failed, metrics)
    } else {
        let (s0, s1) = (&snapshots[0], &snapshots[1]);
        let secs = s1.at.duration_since(s0.at).as_secs_f64();
        let committed = base.committed as f64;
        let metrics = vec![
            metric("txn_per_s", committed / secs, "1/s"),
            metric("txn_p50_ms", base.percentile_ms(50.0), "ms"),
            metric("txn_p90_ms", base.percentile_ms(90.0), "ms"),
            metric(
                "cpu_ms_per_txn",
                s1.cpu.saturating_sub(s0.cpu).as_secs_f64() * 1000.0 / committed,
                "ms",
            ),
            metric(
                "storage_bytes_per_txn",
                s1.store.since(&s0.store).bytes as f64 / committed,
                "B",
            ),
            metric("setup_s", median(&mut setup_s), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
        (base.committed + base.failed, base.failed, metrics)
    };

    println!(
        "# result workload={name} trace={} committed={} failed={} failed_share={:.4} \
         txn_per_s_untraced={:.3} reads_per_txn_max={} \
         latency_ms p50={:.1} p90={:.1} p95={:.1} p99={:.1} max={:.1} n={}",
        u8::from(traced),
        base.committed,
        base.failed,
        ratio(base.failed as f64, (base.committed + base.failed) as f64),
        base.committed as f64 / window.as_secs_f64(),
        base.max_reads,
        base.percentile_ms(50.0),
        base.percentile_ms(90.0),
        base.percentile_ms(95.0),
        base.percentile_ms(99.0),
        base.percentile_ms(100.0),
        base.latencies_ms.len(),
    );
    for m in &metrics {
        println!("#   {:<42} {:>14.4} {}", m.name, m.value, m.unit);
    }

    deployment.shutdown();
    remove_dir(&run_dir(repeats - 1));
    Ok(WorkloadResult {
        workload: name,
        correct: check.passed,
        attempted,
        failed,
        metrics,
    })
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn describe_config(workload: WorkloadName, seed: u64) -> String {
    let c = workload.engine_config(seed);
    let e = &c.epoch;
    format!(
        "shards={} storage={} R={} b_read={} b_write={} interval_ms={} depth={} \
         reads_in_flight={} executors={} durability={} checkpoint_every={} \
         objects={} Z={} levels={} block={} max_attempts={} retry_pause_ms=1-{}",
        workload.shards(),
        if workload.shards() > 1 {
            "obladi-stored"
        } else {
            "in-process"
        },
        e.read_batches,
        e.read_batch_size,
        e.write_batch_size,
        e.batch_interval.as_millis(),
        e.pipeline_depth,
        e.read_batches_in_flight,
        e.executor_threads,
        e.durability,
        e.checkpoint_every,
        c.oram.num_objects,
        c.oram.z,
        c.oram.levels,
        c.oram.block_size,
        driver::MAX_ATTEMPTS,
        driver::RETRY_PAUSE_MAX_MS,
    )
}

/// The per-layer metrics of the traced window `[s0, s1]`.
fn layer_metrics(
    s0: &Snapshot,
    s1: &Snapshot,
    txns: &WindowTxns,
    spans: &[Span],
    block_size: usize,
    seed: u64,
) -> Vec<Metric> {
    let window_ms = s1.at.duration_since(s0.at).as_secs_f64() * 1000.0;
    let proxies = s1.engine.proxies.len();
    let delta = |f: fn(&obladi_core::ProxyStats) -> u64| -> f64 {
        s1.engine
            .proxies
            .iter()
            .zip(&s0.engine.proxies)
            .map(|(a, b)| (f(a) - f(b)) as f64)
            .sum()
    };
    let oram_delta = |f: fn(&obladi_oram::OramStats) -> u64| -> f64 {
        s1.engine
            .oram
            .iter()
            .zip(&s0.engine.oram)
            .map(|(a, b)| (f(a) - f(b)) as f64)
            .sum()
    };
    // Epochs summed over proxies: the per-epoch rates below are per proxy
    // epoch.
    let epochs = delta(|p| p.epochs);
    let per_epoch = |total: f64| ratio(total, epochs);
    let committed = txns.committed as f64;
    let mut m = Vec::new();

    m.push(metric(
        "failed_share",
        ratio(txns.failed as f64, (txns.committed + txns.failed) as f64),
        "ratio",
    ));
    m.push(metric(
        "core.attempts_per_txn",
        ratio(txns.attempts as f64, (txns.committed + txns.failed) as f64),
        "count",
    ));
    for (cause, n) in CAUSES.iter().zip(txns.aborts) {
        m.push(metric(
            format!("core.abort.{cause}"),
            txns.per_commit(n as f64),
            "1/txn",
        ));
    }
    m.push(metric(
        "core.execute_acked_aborts",
        txns.per_commit((s1.engine.acked_aborts - s0.engine.acked_aborts) as f64),
        "1/txn",
    ));
    m.push(metric(
        "core.read_us_mean",
        trace::op_mean_us(spans, Op::CoreRead),
        "us",
    ));
    m.push(metric(
        "core.reads_per_txn",
        txns.per_commit(txns.reads as f64),
        "count",
    ));
    m.push(metric(
        "core.commit_wait_us_mean",
        txns.per_commit(txns.commit_wait.as_secs_f64() * 1e6),
        "us",
    ));

    m.push(metric(
        "proxy.epoch_period_ms",
        ratio(window_ms * proxies as f64, epochs),
        "ms",
    ));
    m.push(metric(
        "proxy.commits_per_epoch",
        ratio(committed * proxies as f64, epochs),
        "count",
    ));
    let real = delta(|p| p.real_reads);
    m.push(metric(
        "proxy.read_slot_use",
        ratio(real, real + delta(|p| p.padded_reads)),
        "ratio",
    ));
    for phase in PHASES {
        let name = format!("proxy.phase.{phase}_us");
        let us = histogram_sum_us(&s1.registry, &name) - histogram_sum_us(&s0.registry, &name);
        m.push(metric(
            format!("proxy.phase.{phase}_ms_per_epoch"),
            per_epoch(us as f64 / 1000.0),
            "ms",
        ));
    }

    m.push(metric(
        "oram.slot_reads_per_epoch",
        per_epoch(oram_delta(|o| o.physical_reads)),
        "count",
    ));
    m.push(metric(
        "oram.bucket_writes_per_epoch",
        per_epoch(oram_delta(|o| o.physical_writes)),
        "count",
    ));
    m.push(metric(
        "oram.evictions_per_epoch",
        per_epoch(oram_delta(|o| o.evictions)),
        "count",
    ));
    m.push(metric(
        "oram.early_reshuffles_per_epoch",
        per_epoch(oram_delta(|o| o.early_reshuffles)),
        "count",
    ));
    m.push(metric(
        "oram.stash_peak",
        s1.engine
            .oram
            .iter()
            .map(|o| o.stash_peak)
            .max()
            .unwrap_or(0) as f64,
        "count",
    ));

    let (seal, open) = crypto_mib_s(block_size, seed);
    m.push(metric("crypto.seal_mib_s", seal, "MiB/s"));
    m.push(metric("crypto.open_mib_s", open, "MiB/s"));

    let store = s1.store.since(&s0.store);
    for (stem, calls, op) in [
        ("read_slot", store.read_slot, Op::StoreReadSlot),
        ("write_bucket", store.write_bucket, Op::StoreWriteBucket),
        ("log_append", store.log_append, Op::StoreLogAppend),
    ] {
        m.push(metric(
            format!("storage.{stem}.calls_per_epoch"),
            per_epoch(calls as f64),
            "count",
        ));
        m.push(metric(
            format!("storage.{stem}.mean_us"),
            trace::op_mean_us(spans, op),
            "us",
        ));
    }
    m.push(metric(
        "storage.log_append.bytes_per_epoch",
        per_epoch(store.log_bytes as f64),
        "B",
    ));

    let requests = (s1.transport.requests - s0.transport.requests) as f64;
    let flushes = (s1.transport.flushes - s0.transport.flushes) as f64;
    m.push(metric(
        "transport.requests_per_flush",
        ratio(requests, flushes),
        "count",
    ));
    m.push(metric(
        "transport.requests_per_s",
        requests * 1000.0 / window_ms,
        "1/s",
    ));

    let global = (s1.engine.global_epochs - s0.engine.global_epochs) as f64;
    m.push(metric(
        "shard.global_epoch_period_ms",
        ratio(window_ms, global),
        "ms",
    ));
    let front = (s1.engine.front_committed - s0.engine.front_committed) as f64;
    let cross = (s1.engine.cross_shard_committed - s0.engine.cross_shard_committed) as f64;
    m.push(metric(
        "shard.cross_shard_share",
        ratio(cross, front),
        "ratio",
    ));
    m
}

/// Seal and open throughput of the public envelope at the workload's slot
/// size, in MiB of padded plaintext per second.
fn crypto_mib_s(block_size: usize, seed: u64) -> (f64, f64) {
    const OPS: u64 = 20_000;
    let envelope = Envelope::new(&KeyMaterial::for_tests(seed));
    let capacity = Block::padded_capacity(block_size);
    let plain = vec![0xA5u8; capacity];
    let started = Instant::now();
    let mut sealed = Vec::with_capacity(OPS as usize);
    for i in 0..OPS {
        sealed.push(
            envelope
                .seal(i, i, std::hint::black_box(&plain), capacity)
                .expect("plaintext fits its own capacity"),
        );
    }
    let seal_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    for (i, block) in sealed.iter().enumerate() {
        let opened = envelope
            .open(i as u64, i as u64, std::hint::black_box(block))
            .expect("a block sealed here opens");
        std::hint::black_box(opened);
    }
    let open_s = started.elapsed().as_secs_f64();
    let mib = (OPS as usize * capacity) as f64 / (1024.0 * 1024.0);
    (mib / seal_s, mib / open_s)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
