//! One benchmark for the three applications of the Obladi evaluation,
//! measured end to end and layer by layer.
//!
//! ```text
//! bash appbench/run.sh --workload <tpcc|freehealth|smallbank-2shard-remote|all>
//!                      --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run is closed loop, from one process, with two client threads
//! (`driver::CLIENTS`).  Each client draws business transactions from the
//! application's standard mix with its own stream derived from `--seed`,
//! and retries a transaction with the same parameters after a retryable
//! abort (`driver::MAX_ATTEMPTS` = 32 attempts, a 1–4 ms de-phasing pause
//! before each retry).  A non-retryable engine error ends the run with a
//! non-zero exit code.  After a one-second warm-up, the run measures for
//! `--seconds`.
//!
//! # Workloads
//!
//! Sizes are `fig09_apps`' quick-mode tables, about 1k rows, in a
//! 2048-object Ring ORAM tree (Z = 16, 160-byte blocks) per proxy, so rows
//! are well above clients everywhere.  Each workload pins its own engine
//! configuration in `spec.rs`, starting from fig09's per-app settings:
//! durability on, a full checkpoint every 16 epochs, pipeline depth 2, two
//! read batches in flight and 32 executor threads per proxy.
//!
//! * `tpcc` — the standard TPC-C mix (2 warehouses, 4 districts each, 30
//!   customers per district, 200 items) on one `ObladiDb` over the
//!   in-process `InMemoryStore`.  R = 40 read batches of 32, write batch
//!   256, 2 ms batch interval.  Write-heavy with long read chains, so the
//!   epoch tail, ORAM eviction, crypto and the abort path do most of the
//!   work.  fig09 uses R = 20, under which Delivery and StockLevel (up to
//!   36 and 40 dependent reads) abort on every attempt once orders
//!   accumulate; see `spec::TPCC_READ_BATCHES`.
//! * `freehealth` — FreeHealth's 21 transaction types (8 users, 150
//!   patients, 50 drugs) on one `ObladiDb` over the in-process store.
//!   R = 10 read batches of 48, write batch 48.  Read-dominated (480 read
//!   slots against 48 write slots per epoch) and almost abort-free: a
//!   capacity or write-back change should move `tpcc` and leave this flat,
//!   a read-path or crypto change should move both.
//! * `smallbank-2shard-remote` — SmallBank (600 accounts, hotspot 5% of
//!   accounts taking 25% of accesses) through `ShardedDb` with two shards.
//!   Each shard's storage is a spawned `obladi-stored` daemon behind its
//!   own Unix socket; the workload refuses to run without the daemon
//!   binary rather than fall back to in-thread servers.  R = 4 read batches
//!   of 64, write batch 96, 3 ms batch interval.  The only workload that
//!   crosses `transport` and the `shard` coordinator; round-trip bound.
//!
//! The sleep-based `LatencyStore` is left out: at small latency scales it
//! measures the scheduler, not the program.
//!
//! # Flush policy
//!
//! Every epoch ends with a write-ahead-log record of its decision and its
//! write-back, and every 16th epoch writes a full checkpoint (deltas in
//! between), all through `append_log` on the untrusted store.  The
//! in-process store keeps everything in memory.  The daemons run with their
//! defaults: every mutation is appended to an op-log in their data
//! directory under `.bench_run`, without `fsync`, and every 4096 mutations
//! the op-log is compacted into a snapshot.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Measured over the timed window only, tracing off: `txn_per_s`
//! (committed business transactions per second), `txn_p50_ms` and
//! `txn_p90_ms` (first attempt to commit acknowledgement, retries
//! included, over committed transactions), `cpu_ms_per_txn` (user+sys CPU
//! of this process per commit; for the remote workload that is the proxy
//! side only), `storage_bytes_per_txn` (payload bytes across the
//! proxy↔storage boundary per commit), `setup_s` (open the engine and load
//! the tables, median of three set-ups) and `peak_rss_mb` (peak resident
//! memory of the process from the start of the workload's set-up; with
//! `--workload all` a later workload's peak also holds what the earlier
//! ones left resident after their freed heap was returned, 15–20 MiB).
//! The failed share (transactions that used up their attempts, over
//! transactions attempted) is printed with them and is the
//! `failed`/`attempted` pair of the result line; it is zero on all three
//! workloads, so it is reported with the per-layer metrics rather than
//! bounded.
//!
//! The tail percentile is p90, not p95: on `smallbank-2shard-remote` about
//! 5% of commits wait out an extra epoch or a daemon's op-log compaction
//! (0.1–0.5 s), so the latency distribution has a gap at p95 and p95 jumps
//! between the two sides of it from run to run.  p95, p99 and the maximum
//! are printed with the sample count on the `# result` line.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run measures three windows of `--seconds` on the same engine:
//! untraced, traced, untraced.  The layer metrics come from the traced
//! window; `trace.overhead_pct` is its drop in committed transactions
//! against the mean of the two untraced windows.  Spans are recorded by the benchmark around every call into a
//! layer, kept in memory and written to `.bench_run/spans-<workload>.csv`
//! at the end.  What each layer metric should move:
//!
//! * `core.attempts_per_txn`, `core.abort.<cause>` (aborts per commit),
//!   `failed_share` — `txn_per_s` and the failed share on `tpcc`; ≈ 1.0 and ≈ 0 on
//!   `freehealth`.  `core.execute_acked_aborts` (per commit) counts the
//!   epoch-decided aborts `ObladiDb::execute` would have acknowledged; it
//!   should read 0 once that defect is fixed.  `core.read_us_mean`, `core.reads_per_txn`,
//!   `core.commit_wait_us_mean` — `txn_p50_ms` on all three.
//! * `proxy.epoch_period_ms`, `proxy.commits_per_epoch` — `txn_per_s`
//!   everywhere; `proxy.read_slot_use` (real / all read slots) —
//!   `storage_bytes_per_txn`; `proxy.phase.*_ms_per_epoch` (from the
//!   engine's own `proxy.phase.*` histograms) — `cpu_ms_per_txn` and
//!   `txn_per_s`, write-back and checkpoint dominating on `tpcc`.
//! * `oram.*_per_epoch`, `oram.stash_peak` — `cpu_ms_per_txn` and
//!   `storage_bytes_per_txn` on `tpcc` and `freehealth`.
//! * `crypto.seal_mib_s`, `crypto.open_mib_s` (the public envelope at the
//!   workload's slot size) — `cpu_ms_per_txn` on the in-process workloads.
//! * `storage.{read_slot,write_bucket,log_append}.{calls_per_epoch,mean_us}`
//!   and `storage.log_append.bytes_per_epoch` (WAL plus checkpoints) —
//!   `cpu_ms_per_txn` and `txn_per_s`.
//! * `transport.requests_per_flush`, `transport.requests_per_s` —
//!   `txn_p50_ms` on `smallbank-2shard-remote` only (zero elsewhere).
//! * `shard.global_epoch_period_ms`, `shard.cross_shard_share`,
//!   `proxy.phase.gate_wait_ms_per_epoch` — `txn_per_s` and `txn_p50_ms` on
//!   `smallbank-2shard-remote` only.
//!
//! # Correctness
//!
//! Every run checks the engine from values its clients observed: on
//! SmallBank the final total balance must equal the initial total plus the
//! net balance change of every committed transaction; on TPC-C the summed
//! advance of every district's `NEXT_O_ID` must equal the committed
//! NewOrders; on FreeHealth the summed episode counters must advance by the
//! committed CreateEpisodes.  Before any of that, a self-test runs
//! SmallBank on a fake engine that loses one committed write and requires
//! the ledger check to catch it.  A failed check prints `"correct": false`
//! and exits non-zero.
//!
//! The sharded engine is driven through its own `KvDatabase::execute`.  A
//! single proxy is driven the same way through its transaction handle
//! (`spec::Engine::execute`), because `ObladiDb`'s `KvDatabase::execute`
//! drops the commit outcome and acknowledges an attempt its epoch aborted
//! as a commit, a program defect the TPC-C check catches in about one run
//! in ten.  The benchmark counts every such attempt and prints the count on
//! a `# check` line of every single-proxy run (`KNOWN PROGRAM DEFECT` when
//! it is not zero) and as `core.execute_acked_aborts`, so the defect stays
//! visible until `ObladiDb::execute` maps the outcome.
//!
//! Each run also prints a health line: CPU steal over the window (from
//! `/proc/stat`), the pinned engine configuration and the seed.

mod checks;
mod client;
mod driver;
mod report;
mod spec;
mod store;
mod sys;
mod trace;

use report::Metric;
use spec::WorkloadName;

/// Parsed command line.
struct Args {
    workloads: Vec<WorkloadName>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WorkloadName::ALL.to_vec()
    } else {
        vec![WorkloadName::parse(&workload).ok_or_else(|| {
            format!("unknown workload {workload:?}; expected tpcc, freehealth, smallbank-2shard-remote or all")
        })?]
    };
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workloads,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("appbench: {err}");
            std::process::exit(2);
        }
    };
    if let Err(err) = checks::ledger_self_test() {
        eprintln!("appbench: ledger self-test failed: {err}");
        std::process::exit(1);
    }
    let mut results = Vec::new();
    for (index, &workload) in args.workloads.iter().enumerate() {
        // A later workload in the same process reports its own memory peak.
        if index > 0 {
            if let Err(err) = sys::reset_peak_rss() {
                eprintln!("appbench: {err}");
                std::process::exit(1);
            }
        }
        match report::run_workload(workload, args.seed, args.seconds, args.trace) {
            Ok(result) => results.push(result),
            Err(err) => {
                eprintln!("appbench: {}: {err}", workload.name());
                std::process::exit(1);
            }
        }
    }
    let correct = results.iter().all(|r| r.correct);
    let single = results.len() == 1;
    let mut metrics: Vec<Metric> = Vec::new();
    for result in &results {
        for metric in &result.metrics {
            let mut metric = metric.clone();
            if !single {
                metric.name = format!("{}/{}", result.workload, metric.name);
            }
            metrics.push(metric);
        }
    }
    let line = report::result_line(
        correct,
        results.iter().map(|r| r.attempted).sum(),
        results.iter().map(|r| r.failed).sum(),
        &metrics,
    );
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
