//! The sweep daemon: a bounded job queue and a worker pool over the
//! persistent [`ResultStore`], with request coalescing.
//!
//! Submission path for one cell:
//!
//! 1. digest the `(cell, campaign)` pair — [`config_digest`];
//! 2. **store hit** → the result is delivered immediately (LRU or log);
//! 3. **in-flight elsewhere** → the request *coalesces*: its waiter is
//!    appended to the digest's waiter list and the cell is **not**
//!    enqueued again — two concurrent requests for the same digest
//!    simulate once;
//! 4. otherwise → a job enters the bounded queue (submission blocks
//!    when the queue is full — backpressure instead of unbounded
//!    memory) and a worker simulates it with
//!    [`run_cell`], whose per-thread `ExecContext` keeps the simulator
//!    and decode cache warm across jobs on the same worker.
//!
//! All daemon state — the store, the in-flight waiter table, the queue,
//! the shutdown flag, the counters and the worker handles — sits behind
//! one mutex. A submission decides hit, coalesce or enqueue under one
//! hold of it, and a worker persists a result and deregisters its
//! digest under one hold, so no digest can fall between the store and
//! the in-flight table and simulate twice. The lock is never held
//! across a simulation.
//!
//! A panicking cell is contained: its worker catches the panic,
//! deregisters the digest, sends every waiter an error and takes the
//! next job. The lock is taken through one poison-tolerant helper.
//!
//! Shutdown is a graceful drain: workers finish every queued job and
//! deliver every waiter before joining, so no submitted request is ever
//! dropped.

use crate::store::{ResultStore, StoreStats};
use indexmac::digest::{config_digest, Digest};
use indexmac::experiment::{ExperimentConfig, ExperimentError};
use indexmac::sweep::{run_cell, CellResult, SweepCell, SweepGrid, SweepResult};
use std::collections::{HashMap, VecDeque};
use std::panic::catch_unwind;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// How a submitted cell was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Served from the store without simulating.
    Hit,
    /// Enqueued for simulation (first request for this digest).
    Miss,
    /// Attached to an already-in-flight simulation of the same digest.
    Coalesced,
}

impl CellStatus {
    /// Stable JSON tag: `hit`, `computed` or `coalesced`.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Hit => "hit",
            CellStatus::Miss => "computed",
            CellStatus::Coalesced => "coalesced",
        }
    }
}

/// A pending submission: how it was routed plus the channel the result
/// arrives on (already-delivered for hits).
pub struct Pending {
    /// Routing outcome of the submission.
    pub status: CellStatus,
    /// The cell's content digest (the store key).
    pub digest: Digest,
    rx: mpsc::Receiver<Result<CellResult, String>>,
}

impl Pending {
    /// Blocks until the result is available.
    ///
    /// # Errors
    ///
    /// Simulation errors and panics are stringified (they carry no
    /// results). A worker always delivers before it drops a waiter's
    /// sender; should a sender still vanish, that maps to an error
    /// rather than a panic.
    pub fn wait(self) -> Result<CellResult, String> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err("worker dropped without delivering a result".into()))
    }
}

/// Monotonic counters across the daemon's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonStats {
    /// Submissions served straight from the store.
    pub hits: u64,
    /// Submissions that enqueued a simulation.
    pub misses: u64,
    /// Submissions that attached to an in-flight simulation.
    pub coalesced: u64,
    /// Simulations actually executed by workers (the invariant under
    /// coalescing: `computed <= misses`, and `computed` counts each
    /// distinct digest once however many clients asked for it).
    pub computed: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Store counters at the same instant.
    pub store: StoreStats,
}

/// The channel a waiter holds while a worker computes its digest.
type ResultSender = mpsc::Sender<Result<CellResult, String>>;

/// What a worker runs for one job: [`run_cell`] outside the tests.
type CellRunner = fn(SweepCell, &ExperimentConfig) -> Result<CellResult, ExperimentError>;

/// Everything behind the daemon's one lock.
struct State {
    store: ResultStore,
    inflight: HashMap<Digest, Vec<ResultSender>>,
    queue: VecDeque<(Digest, SweepCell)>,
    shutdown: bool,
    workers: Vec<JoinHandle<()>>,
    /// The four counters; `queue_depth` and `store` are filled in by
    /// [`SweepService::stats`].
    counts: DaemonStats,
}

struct Shared {
    cfg: ExperimentConfig,
    run: CellRunner,
    state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl Shared {
    /// Locks the daemon state, tolerating poison. Simulations run and
    /// panic outside the lock; a panic inside one of the short critical
    /// sections fails its own request, never every later one.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The long-lived sweep service: owns the store, the queue and the
/// worker pool. Cheap to share (`Arc` internally).
pub struct SweepService {
    shared: Arc<Shared>,
    threads: usize,
}

/// Bound of the work queue.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

impl SweepService {
    /// Starts `threads` workers over `store`, simulating under `cfg`.
    pub fn start(cfg: ExperimentConfig, store: ResultStore, threads: usize) -> Arc<Self> {
        Self::start_with_runner(cfg, store, threads, run_cell)
    }

    fn start_with_runner(
        cfg: ExperimentConfig,
        store: ResultStore,
        threads: usize,
        run: CellRunner,
    ) -> Arc<Self> {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            cfg,
            run,
            state: Mutex::new(State {
                store,
                inflight: HashMap::new(),
                queue: VecDeque::new(),
                shutdown: false,
                workers: Vec::new(),
                counts: DaemonStats::default(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        shared.lock().workers = workers;
        Arc::new(Self { shared, threads })
    }

    /// The campaign configuration every cell runs under.
    pub fn config(&self) -> &ExperimentConfig {
        &self.shared.cfg
    }

    /// Submits one cell. Never blocks on simulation — only (briefly) on
    /// the state lock, and on the queue bound when the daemon is
    /// saturated.
    pub fn submit(&self, cell: SweepCell) -> Pending {
        let digest = config_digest(&cell, &self.shared.cfg);
        let (tx, rx) = mpsc::channel();
        let mut state = self.shared.lock();
        let status = if let Some(result) = state.store.get(digest) {
            state.counts.hits += 1;
            let _ = tx.send(Ok(result));
            CellStatus::Hit
        } else if let Some(waiters) = state.inflight.get_mut(&digest) {
            waiters.push(tx);
            state.counts.coalesced += 1;
            CellStatus::Coalesced
        } else {
            state.inflight.insert(digest, vec![tx]);
            state.counts.misses += 1;
            let mut state = self
                .shared
                .not_full
                .wait_while(state, |s| s.queue.len() >= DEFAULT_QUEUE_DEPTH)
                .unwrap_or_else(PoisonError::into_inner);
            state.queue.push_back((digest, cell));
            self.shared.not_empty.notify_one();
            CellStatus::Miss
        };
        Pending { status, digest, rx }
    }

    /// Runs a whole grid through the daemon: submits every cell, then
    /// waits for all of them in grid order. Equivalent to
    /// [`indexmac::sweep::run_grid`] on a cold store; bit-identical and
    /// near-instant on a warm one. Beside the result it returns each
    /// cell's digest and routing, in grid order.
    ///
    /// # Errors
    ///
    /// The first failing cell's stringified error, in grid order.
    pub fn sweep_grid(
        &self,
        grid: &SweepGrid,
    ) -> Result<(SweepResult, Vec<(Digest, CellStatus)>), String> {
        let pending: Vec<Pending> = grid.cells().into_iter().map(|c| self.submit(c)).collect();
        let routed = pending.iter().map(|p| (p.digest, p.status)).collect();
        let cells = pending
            .into_iter()
            .map(Pending::wait)
            .collect::<Result<_, _>>()?;
        Ok((
            SweepResult {
                base_seed: grid.base_seed,
                threads: self.threads,
                precision: self.shared.cfg.precision,
                timing: self.shared.cfg.sim.timing,
                cells,
            },
            routed,
        ))
    }

    /// Looks a digest up in the store without simulating anything
    /// (the `GET /cell/<digest>` route).
    pub fn lookup(&self, digest: Digest) -> Option<CellResult> {
        self.shared.lock().store.get(digest)
    }

    /// One consistent snapshot of the counters (the `GET /stats` route).
    pub fn stats(&self) -> DaemonStats {
        let state = self.shared.lock();
        DaemonStats {
            queue_depth: state.queue.len(),
            store: state.store.stats(),
            ..state.counts
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.lock().shutdown
    }

    /// Flags shutdown without joining anything — the `POST /shutdown`
    /// handler runs on a connection thread the accept loop owns, so it
    /// must not block on worker joins itself. The accept loop notices
    /// the flag and performs the actual [`Self::shutdown`] drain.
    pub fn request_shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.not_empty.notify_all();
    }

    /// Graceful drain: workers finish every queued job, deliver every
    /// waiter, then exit; the store is flushed. Idempotent.
    ///
    /// # Errors
    ///
    /// The final store flush's I/O error.
    pub fn shutdown(&self) -> std::io::Result<()> {
        let workers = {
            let mut state = self.shared.lock();
            state.shutdown = true;
            std::mem::take(&mut state.workers)
        };
        self.shared.not_empty.notify_all();
        for w in workers {
            let _ = w.join();
        }
        self.shared.lock().store.flush()
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let mut state = shared
            .not_empty
            .wait_while(shared.lock(), |s| s.queue.is_empty() && !s.shutdown)
            .unwrap_or_else(PoisonError::into_inner);
        let Some((digest, cell)) = state.queue.pop_front() else {
            return; // shut down and drained
        };
        drop(state);
        shared.not_full.notify_one();

        // Simulate on this worker's warm per-thread context (reused
        // simulator + decode-once program cache in `indexmac::experiment`).
        // A panic fails this cell only.
        let (run, cfg) = (shared.run, shared.cfg);
        let outcome = match catch_unwind(move || run(cell, &cfg)) {
            Ok(outcome) => outcome.map_err(|e| e.to_string()),
            Err(_) => Err(format!("simulating cell {digest} panicked")),
        };

        let waiters = {
            let mut state = shared.lock();
            state.counts.computed += 1;
            if let Ok(result) = &outcome {
                // Persisted before waking waiters, so a follow-up
                // request from a woken client is a store hit.
                let _ = state.store.put(digest, result);
            }
            state.inflight.remove(&digest).unwrap_or_default()
        };
        for tx in waiters {
            let _ = tx.send(outcome.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac::kernels::GemmDims;
    use indexmac::sparse::NmPattern;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("indexmac-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_grid() -> SweepGrid {
        SweepGrid::new(
            NmPattern::EVALUATED.to_vec(),
            vec![GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            }],
        )
    }

    #[test]
    fn cold_then_warm_sweep_matches_run_grid() {
        let dir = temp_dir("coldwarm");
        let cfg = ExperimentConfig::fast();
        let reference = indexmac::sweep::run_grid_serial(&small_grid(), &cfg).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        let service = SweepService::start(cfg, store, 2);
        let (cold, cold_status) = service.sweep_grid(&small_grid()).unwrap();
        assert_eq!(cold.cells, reference.cells, "cold sweep = fresh run_grid");
        assert!(cold_status.iter().all(|(_, s)| *s != CellStatus::Hit));
        for ((digest, _), cell) in cold_status.iter().zip(small_grid().cells()) {
            assert_eq!(*digest, config_digest(&cell, &cfg), "digests in grid order");
        }

        let (warm, warm_status) = service.sweep_grid(&small_grid()).unwrap();
        assert_eq!(warm.cells, reference.cells, "warm sweep is bit-identical");
        assert!(
            warm_status.iter().all(|(_, s)| *s == CellStatus::Hit),
            "every warm cell is a store hit: {warm_status:?}"
        );
        let stats = service.stats();
        assert_eq!(stats.computed, 2, "each digest simulated exactly once");
        assert_eq!(stats.hits, 2);
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_backed_sweep_is_bit_identical_and_reuses_results() {
        let dir = temp_dir("grid");
        let cfg = ExperimentConfig::fast();
        let dims = |rows| GemmDims {
            rows,
            inner: 32,
            cols: 16,
        };
        let grid = SweepGrid::new(vec![NmPattern::P1_4], vec![dims(4), dims(8)]);
        let reference = indexmac::sweep::run_grid(&grid, &cfg).unwrap();
        let service = SweepService::start(cfg, ResultStore::open(&dir).unwrap(), 2);
        let statuses = |routed: Vec<(Digest, CellStatus)>| -> Vec<CellStatus> {
            routed.into_iter().map(|(_, status)| status).collect()
        };

        // Cold: every cell simulates, bit-identical to a fresh run_grid.
        let (cold, routed) = service.sweep_grid(&grid).unwrap();
        assert_eq!(cold.cells, reference.cells);
        assert_eq!(statuses(routed), [CellStatus::Miss; 2]);

        // Warm: all hits, still identical, nothing simulated.
        let (warm, routed) = service.sweep_grid(&grid).unwrap();
        assert_eq!(warm.cells, reference.cells);
        assert_eq!(statuses(routed), [CellStatus::Hit; 2]);

        // Widening the grid simulates only the new cell.
        let mut wider = grid.clone();
        wider.dims.push(dims(16));
        let (_, routed) = service.sweep_grid(&wider).unwrap();
        assert_eq!(
            statuses(routed),
            [CellStatus::Hit, CellStatus::Hit, CellStatus::Miss]
        );
        assert_eq!(service.stats().computed, 3);
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A runner whose 4-row cells panic; every other cell runs normally.
    fn panics_on_four_rows(
        cell: SweepCell,
        cfg: &ExperimentConfig,
    ) -> Result<CellResult, ExperimentError> {
        assert_ne!(cell.dims.rows, 4, "injected cell panic");
        run_cell(cell, cfg)
    }

    #[test]
    fn a_panicking_cell_fails_its_waiters_and_spares_the_pool() {
        let dir = temp_dir("panic");
        let cfg = ExperimentConfig::fast();
        let service = SweepService::start_with_runner(
            cfg,
            ResultStore::open(&dir).unwrap(),
            1,
            panics_on_four_rows,
        );
        let cells = small_grid().cells();
        // Two waiters on the panicking digest: the miss and a coalesced
        // request (or a second miss, should the first fail in between).
        let first = service.submit(cells[0]);
        let second = service.submit(cells[0]);
        assert!(first.wait().unwrap_err().contains("panicked"));
        assert!(second.wait().unwrap_err().contains("panicked"));

        // The lock is usable, nothing was stored, and the lone worker
        // still takes the next cell.
        let stats = service.stats();
        assert_eq!(stats.store.entries, 0);
        assert_eq!(stats.queue_depth, 0);
        let mut healthy = cells[0];
        healthy.dims.rows = 8;
        let result = service.submit(healthy).wait().unwrap();
        assert_eq!(result, run_cell(healthy, &cfg).unwrap());
        assert_eq!(service.stats().store.entries, 1);
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn results_survive_service_restart() {
        let dir = temp_dir("restart");
        let cfg = ExperimentConfig::fast();
        {
            let service = SweepService::start(cfg, ResultStore::open(&dir).unwrap(), 1);
            service.sweep_grid(&small_grid()).unwrap();
            service.shutdown().unwrap();
        }
        let service = SweepService::start(cfg, ResultStore::open(&dir).unwrap(), 1);
        let (warm, statuses) = service.sweep_grid(&small_grid()).unwrap();
        assert!(statuses.iter().all(|(_, s)| *s == CellStatus::Hit));
        let reference = indexmac::sweep::run_grid_serial(&small_grid(), &cfg).unwrap();
        assert_eq!(warm.cells, reference.cells);
        assert_eq!(service.stats().computed, 0, "nothing re-simulated");
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookup_finds_stored_digests_only() {
        let dir = temp_dir("lookup");
        let cfg = ExperimentConfig::fast();
        let service = SweepService::start(cfg, ResultStore::open(&dir).unwrap(), 1);
        let cell = small_grid().cells()[0];
        let digest = config_digest(&cell, &cfg);
        assert!(service.lookup(digest).is_none());
        let result = service.submit(cell).wait().unwrap();
        assert_eq!(service.lookup(digest), Some(result));
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let dir = temp_dir("drain");
        let cfg = ExperimentConfig::fast();
        let service = SweepService::start(cfg, ResultStore::open(&dir).unwrap(), 1);
        let pending: Vec<Pending> = small_grid()
            .cells()
            .into_iter()
            .map(|c| service.submit(c))
            .collect();
        service.shutdown().unwrap();
        for p in pending {
            assert!(p.wait().is_ok(), "drained jobs still deliver results");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
