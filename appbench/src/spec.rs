//! The three workloads: their tables, their pinned engine configurations
//! and the deployments they run on.

use crate::client::Attempt;
use crate::store::{MeteredStore, StoreCounters};
use crate::trace::Tracer;
use obladi_common::config::{
    BackendKind, EpochConfig, ObladiConfig, OramConfig, ShardConfig, StorageBackend,
};
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_common::types::TxnOutcome;
use obladi_core::api::outcome_to_result;
use obladi_core::{KvDatabase, KvTransaction, ObladiDb, ProxyStats};
use obladi_crypto::KeyMaterial;
use obladi_oram::OramStats;
use obladi_shard::ShardedDb;
use obladi_storage::{InMemoryStore, TrustedCounter, UntrustedStore};
use obladi_transport::{locate_stored_binary, RemoteStore, StorageSupervisor, TransportStats};
use obladi_workloads::smallbank::INITIAL_BALANCE;
use obladi_workloads::{
    FreeHealthConfig, FreeHealthTxn, FreeHealthWorkload, Row, SmallBankConfig, SmallBankTxn,
    SmallBankWorkload, TpccConfig, TpccTxn, TpccWorkload, Workload,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// TPC-C on one proxy over the in-process store.
    Tpcc,
    /// FreeHealth on one proxy over the in-process store.
    FreeHealth,
    /// SmallBank on two shards, each over its own `obladi-stored` daemon.
    SmallBankRemote,
}

impl WorkloadName {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::Tpcc,
        WorkloadName::FreeHealth,
        WorkloadName::SmallBankRemote,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::Tpcc => "tpcc",
            WorkloadName::FreeHealth => "freehealth",
            WorkloadName::SmallBankRemote => "smallbank-2shard-remote",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of shards (proxies) of the deployment.
    pub fn shards(self) -> usize {
        match self {
            WorkloadName::SmallBankRemote => 2,
            _ => 1,
        }
    }

    /// The application and its tables (fig09's quick-mode sizes).
    pub fn app(self) -> App {
        match self {
            WorkloadName::Tpcc => App::Tpcc(TpccWorkload::new(TpccConfig {
                warehouses: 2,
                districts_per_warehouse: 4,
                customers_per_district: 30,
                items: 200,
                last_names: 8,
                stock_level_orders: 3,
                max_order_lines: 6,
            })),
            WorkloadName::FreeHealth => {
                App::FreeHealth(FreeHealthWorkload::new(FreeHealthConfig {
                    users: 8,
                    patients: 150,
                    drugs: 50,
                    episodes_per_patient: 2,
                    list_limit: 3,
                }))
            }
            WorkloadName::SmallBankRemote => {
                App::SmallBank(SmallBankWorkload::new(SmallBankConfig {
                    num_accounts: 600,
                    hotspot_fraction: 0.05,
                    hotspot_probability: 0.25,
                }))
            }
        }
    }

    /// The pinned per-proxy engine configuration.
    ///
    /// These are the values `fig09_apps` used for Obladi in quick mode
    /// (durability on, checkpoint every 16 epochs, pipeline depth 2, two
    /// read batches in flight, 32 executor threads), copied here so that a
    /// change to the figure harness cannot move this benchmark.  The ORAM
    /// tree is sized from the rows each proxy holds.  The one departure is
    /// TPC-C's `R`, see [`TPCC_READ_BATCHES`].
    pub fn engine_config(self, seed: u64) -> ObladiConfig {
        let base = EpochConfig::default()
            .with_executor_threads(32)
            .with_checkpoint_every(16)
            .with_durability(true)
            .with_pipeline_depth(2)
            .with_read_batches_in_flight(2)
            .with_batch_interval(Duration::from_millis(2));
        let epoch = match self {
            WorkloadName::Tpcc => base
                .with_read_batches(TPCC_READ_BATCHES)
                .with_read_batch_size(32)
                .with_write_batch_size(256),
            WorkloadName::FreeHealth => base
                .with_read_batches(10)
                .with_read_batch_size(48)
                .with_write_batch_size(48),
            WorkloadName::SmallBankRemote => base
                .with_read_batches(4)
                .with_read_batch_size(64)
                .with_write_batch_size(96)
                .with_batch_interval(Duration::from_millis(3)),
        };
        let rows_per_proxy = self.app().rows() / self.shards() as u64;
        let z = 16;
        ObladiConfig {
            oram: OramConfig::for_capacity(rows_per_proxy.max(1024) * 2, z)
                .with_block_size(160)
                .with_max_stash(4 * z as usize + 256),
            epoch,
            // Unused: every store is handed to the engine explicitly.
            backend: BackendKind::Server,
            latency_scale: 1.0,
            seed,
        }
    }
}

/// TPC-C's read batches per epoch.  fig09 uses `R = 20`, but Delivery and
/// StockLevel chain up to 36 and 40 dependent reads at these table sizes,
/// and a transaction issues at most one dependent read per batch.  At
/// `R = 20` they abort with a full batch or at the epoch end on every
/// attempt once orders accumulate, and run out of attempts (5 of 108
/// business transactions failed in an 8-second probe).  `R = 40` lets every
/// transaction type commit, so no business transaction fails.
pub const TPCC_READ_BATCHES: u32 = 40;

/// One application: the workload generator of `obladi-workloads`.
pub enum App {
    /// TPC-C.
    Tpcc(TpccWorkload),
    /// FreeHealth.
    FreeHealth(FreeHealthWorkload),
    /// SmallBank.
    SmallBank(SmallBankWorkload),
}

impl App {
    /// Rows loaded by `setup`.
    pub fn rows(&self) -> u64 {
        match self {
            App::Tpcc(w) => {
                let c = w.config();
                c.items
                    + c.warehouses
                        * (1 + c.items
                            + c.districts_per_warehouse
                                * (1 + c.customers_per_district + c.last_names))
            }
            App::FreeHealth(w) => {
                let c = w.config();
                c.users + c.drugs + c.patients * (2 + c.episodes_per_patient * 2)
            }
            App::SmallBank(w) => w.config().num_accounts * 2,
        }
    }

    /// Loads the tables.
    pub fn setup<D: KvDatabase>(&self, db: &D) -> Result<()> {
        match self {
            App::Tpcc(w) => w.setup(db),
            App::FreeHealth(w) => w.setup(db),
            App::SmallBank(w) => w.setup(db),
        }
    }

    /// Draws one business transaction from the mix with `rng` and runs one
    /// attempt of it, returning its type index and the workload's verdict
    /// (`Ok(false)` = retryable abort).  Running again from a clone of the
    /// same `rng` state replays the same transaction with the same
    /// parameters.
    pub fn run_one<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> (usize, Result<bool>) {
        match self {
            App::Tpcc(w) => {
                let kind = TpccTxn::sample(rng);
                (kind as usize, w.run_txn(db, kind, rng))
            }
            App::FreeHealth(w) => {
                let kind = FreeHealthTxn::sample(rng);
                (kind as usize, w.run_txn(db, kind, rng))
            }
            App::SmallBank(w) => {
                let kind = SmallBankTxn::sample(rng);
                (kind as usize, w.run_txn(db, kind, rng))
            }
        }
    }

    /// Whether the checks need the values each transaction read and wrote.
    pub fn keeps_values(&self) -> bool {
        matches!(self, App::SmallBank(_))
    }

    /// Whether transaction type `kind` is a TPC-C NewOrder.
    pub fn is_new_order(&self, kind: usize) -> bool {
        matches!(self, App::Tpcc(_)) && kind == TpccTxn::NewOrder as usize
    }

    /// Net change in total SmallBank balance made by a committed attempt,
    /// from the values the client read and wrote: every balance a SmallBank
    /// transaction writes, it has read first.
    pub fn balance_delta(&self, attempt: &Attempt) -> Result<i128> {
        if !matches!(self, App::SmallBank(_)) {
            return Ok(0);
        }
        let balance = |bytes: &[u8]| -> Result<i128> { Ok(Row::decode(bytes)?.num(0)? as i128) };
        let mut delta = 0i128;
        for (key, written) in &attempt.writes {
            let before = attempt
                .first_reads
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_deref())
                .ok_or_else(|| {
                    ObladiError::Internal(format!("balance {key} written without being read"))
                })?;
            delta += balance(written)? - balance(before)?;
        }
        Ok(delta)
    }

    /// Total balance right after `setup`.
    pub fn initial_balance_total(&self) -> i128 {
        match self {
            App::SmallBank(w) => w.config().num_accounts as i128 * 2 * INITIAL_BALANCE as i128,
            _ => 0,
        }
    }
}

/// The engine a workload runs on.
pub enum Engine {
    /// One proxy.
    Single {
        /// The proxy.
        db: ObladiDb,
        /// Attempts whose body succeeded but whose commit the epoch
        /// aborted: `ObladiDb`'s own `KvDatabase::execute` acknowledges
        /// these as commits (see [`Engine::execute`]).
        acked_aborts: AtomicU64,
    },
    /// A sharded front door.
    Sharded(Box<ShardedDb>),
}

impl KvDatabase for Engine {
    /// Runs one attempt the way `ShardedDb::execute` does: the commit
    /// outcome is mapped to an error, so an epoch-decided abort is an abort.
    /// `ObladiDb`'s own `KvDatabase::execute` drops that outcome (its
    /// `txn.commit()?`) and acknowledges such an attempt as committed, which
    /// the correctness checks catch as a phantom commit.  The single-proxy
    /// path therefore commits through the transaction handle, as
    /// `ObladiTxn::commit_or_err` does, and counts every attempt that
    /// `execute` would have acknowledged; the count is printed as a
    /// `# check` line on every run and as `core.execute_acked_aborts`.
    fn execute<T>(&self, body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>) -> Result<T> {
        match self {
            Engine::Single { db, acked_aborts } => {
                let mut txn = db.begin()?;
                match body(&mut txn) {
                    Ok(value) => {
                        let commit_started = Instant::now();
                        let outcome = txn.commit()?;
                        obladi_common::stats::record_commit_latency(commit_started.elapsed());
                        if matches!(outcome, TxnOutcome::Aborted(_)) {
                            acked_aborts.fetch_add(1, Ordering::Relaxed);
                        }
                        outcome_to_result(outcome)?;
                        Ok(value)
                    }
                    Err(err) => {
                        txn.rollback();
                        Err(err)
                    }
                }
            }
            Engine::Sharded(db) => db.execute(body),
        }
    }

    fn engine_name(&self) -> &'static str {
        match self {
            Engine::Single { db, .. } => db.engine_name(),
            Engine::Sharded(db) => db.engine_name(),
        }
    }
}

/// Counters read from the engine at one instant.
#[derive(Debug, Clone, Default)]
pub struct EngineSnapshot {
    /// Per-proxy statistics.
    pub proxies: Vec<ProxyStats>,
    /// Per-proxy ORAM statistics.
    pub oram: Vec<OramStats>,
    /// Completed global epochs (sharded only).
    pub global_epochs: u64,
    /// Cross-shard commits through the front door (sharded only).
    pub cross_shard_committed: u64,
    /// Commits through the front door (sharded only).
    pub front_committed: u64,
    /// Attempts `ObladiDb::execute` would have acknowledged although the
    /// epoch aborted them (single proxy only).
    pub acked_aborts: u64,
}

impl Engine {
    fn proxies(&self) -> Vec<&ObladiDb> {
        match self {
            Engine::Single { db, .. } => vec![db],
            Engine::Sharded(db) => (0..db.shards()).map(|i| db.shard(i)).collect(),
        }
    }

    /// Reads every counter the per-layer metrics need.
    pub fn snapshot(&self) -> EngineSnapshot {
        let proxies = self.proxies();
        let mut snapshot = EngineSnapshot {
            proxies: proxies.iter().map(|p| p.stats()).collect(),
            oram: proxies
                .iter()
                .map(|p| p.oram_stats().unwrap_or_default())
                .collect(),
            ..EngineSnapshot::default()
        };
        match self {
            Engine::Single { acked_aborts, .. } => {
                snapshot.acked_aborts = acked_aborts.load(Ordering::Relaxed);
            }
            Engine::Sharded(db) => {
                let stats = db.stats();
                snapshot.global_epochs = stats.global_epochs;
                snapshot.cross_shard_committed = stats.cross_shard_committed;
                snapshot.front_committed = stats.committed;
            }
        }
        snapshot
    }

    /// The engine's ORAM block size.
    pub fn block_size(&self) -> usize {
        self.proxies()[0].config().oram.block_size
    }

    fn shutdown(&self) {
        match self {
            Engine::Single { db, .. } => db.shutdown(),
            Engine::Sharded(db) => db.shutdown(),
        }
    }
}

/// Spawned storage daemons and the connections to them.
struct Daemons {
    supervisor: StorageSupervisor,
    remotes: Vec<Arc<RemoteStore>>,
}

/// An opened engine plus everything backing it.  Fields drop in order, so
/// the engine stops before its daemons do.
pub struct Deployment {
    /// The engine.
    pub engine: Engine,
    /// Call and byte counters of every store handed to the engine.
    pub counters: Arc<StoreCounters>,
    daemons: Option<Daemons>,
}

impl Deployment {
    /// Opens the workload's engine over fresh, empty storage.  Daemon run
    /// files go under `run_dir`.
    pub fn open(
        workload: WorkloadName,
        seed: u64,
        tracer: &Arc<Tracer>,
        run_dir: &Path,
    ) -> Result<Deployment> {
        let counters = Arc::new(StoreCounters::default());
        let metered = |store: Arc<dyn UntrustedStore>| {
            MeteredStore::wrap(store, counters.clone(), tracer.clone())
        };
        let config = workload.engine_config(seed);
        match workload {
            WorkloadName::Tpcc | WorkloadName::FreeHealth => {
                let db = ObladiDb::open_with(
                    config,
                    metered(Arc::new(InMemoryStore::new())),
                    TrustedCounter::new(),
                    KeyMaterial::for_tests(seed),
                )?;
                Ok(Deployment {
                    engine: Engine::Single {
                        db,
                        acked_aborts: AtomicU64::new(0),
                    },
                    counters,
                    daemons: None,
                })
            }
            WorkloadName::SmallBankRemote => {
                let shards = workload.shards();
                let daemons = spawn_daemons(run_dir, shards)?;
                let stores = daemons
                    .remotes
                    .iter()
                    .map(|remote| metered(remote.clone() as Arc<dyn UntrustedStore>))
                    .collect();
                let shard_config = ShardConfig {
                    shards,
                    shard: config,
                    storage: StorageBackend::RemoteSpawned,
                    executor_threads_per_shard: Vec::new(),
                    barrier_watchdog: Duration::from_secs(15),
                };
                let db = ShardedDb::open_with_stores(shard_config, stores)?;
                Ok(Deployment {
                    engine: Engine::Sharded(Box::new(db)),
                    counters,
                    daemons: Some(daemons),
                })
            }
        }
    }

    /// Summed transport counters of the daemon connections (zero when the
    /// storage is in-process).
    pub fn transport(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for remote in self.daemons.iter().flat_map(|d| &d.remotes) {
            let stats = remote.transport_stats();
            total.requests += stats.requests;
            total.flushes += stats.flushes;
        }
        total
    }

    /// Stops the engine, then its daemons, and waits for both.
    pub fn shutdown(self) {
        self.engine.shutdown();
        if let Some(daemons) = &self.daemons {
            daemons.supervisor.stop_all();
        }
    }
}

/// Spawns one `obladi-stored` daemon per shard, each behind its own Unix
/// socket under `run_dir`.  Refuses to run without the daemon binary:
/// this workload measures the process boundary and must not fall back to
/// in-thread socket servers.
fn spawn_daemons(run_dir: &Path, shards: usize) -> Result<Daemons> {
    locate_stored_binary().map_err(|err| {
        ObladiError::Config(format!(
            "smallbank-2shard-remote needs spawned obladi-stored daemons and will not fall \
             back to in-thread servers: {err}"
        ))
    })?;
    let base: PathBuf = run_dir.join("stored");
    let supervisor = StorageSupervisor::spawn_in(&base, shards, true)?;
    let mut remotes = Vec::with_capacity(shards);
    for index in 0..shards {
        if supervisor.pid(index).is_none() {
            return Err(ObladiError::Config(format!(
                "storage daemon {index} is not a running process"
            )));
        }
        remotes.push(Arc::new(RemoteStore::connect(
            supervisor.addr(index),
            Duration::from_secs(10),
        )?));
    }
    Ok(Daemons {
        supervisor,
        remotes,
    })
}
