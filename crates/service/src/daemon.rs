//! The sweep daemon: the one cell executor ([`indexmac::sweep::Executor`])
//! over the persistent [`ResultStore`].
//!
//! The executor owns the job queue, the long-lived workers, coalescing
//! on the cell digest and panic containment; this module plugs the
//! store in through the executor's [`CellStore`] hook, so a submission
//! checks the store, the in-flight table and the queue under one hold
//! of the executor's lock, and a worker persists a result and
//! deregisters its digest under one hold. [`SweepService`] adds the
//! store's own operations: lookup by digest, its statistics, and the
//! final flush after the drain.

use crate::store::{ResultStore, StoreStats};
use indexmac::digest::Digest;
use indexmac::experiment::ExperimentConfig;
use indexmac::sweep::{
    CellResult, CellStore, Executor, SweepCell, SweepGrid, SweepResult, SweepStats,
};
use std::sync::Arc;

pub use indexmac::sweep::{CellStatus, Pending};

/// Executor counters with the store's statistics at the same instant.
pub type DaemonStats = SweepStats<StoreStats>;

impl CellStore for ResultStore {
    fn lookup(&mut self, digest: Digest) -> Option<CellResult> {
        self.get(digest)
    }

    /// A failed write degrades only the persistence of this result: the
    /// waiters still get it, and a later request simulates it again.
    fn persist(&mut self, digest: Digest, result: &CellResult) {
        let _ = self.put(digest, result);
    }
}

/// The long-lived sweep service: the cell executor over a
/// [`ResultStore`]. Cheap to share (`Arc`).
pub struct SweepService {
    executor: Executor<ResultStore>,
}

impl SweepService {
    /// Starts `threads` workers over `store`, simulating under `cfg`.
    pub fn start(cfg: ExperimentConfig, store: ResultStore, threads: usize) -> Arc<Self> {
        Arc::new(Self {
            executor: Executor::start(cfg, store, threads),
        })
    }

    /// The campaign configuration every cell runs under.
    pub fn config(&self) -> &ExperimentConfig {
        self.executor.config()
    }

    /// Submits one cell; see [`Executor::submit`].
    pub fn submit(&self, cell: SweepCell) -> Pending {
        self.executor.submit(cell)
    }

    /// Runs a whole grid through the daemon; see
    /// [`Executor::sweep_grid`]. Equivalent to
    /// [`indexmac::sweep::run_grid`] on a cold store; bit-identical and
    /// near-instant on a warm one.
    ///
    /// # Errors
    ///
    /// The first failing cell's stringified error, in grid order.
    pub fn sweep_grid(
        &self,
        grid: &SweepGrid,
    ) -> Result<(SweepResult, Vec<(Digest, CellStatus)>), String> {
        self.executor.sweep_grid(grid)
    }

    /// Looks a digest up in the store without simulating anything
    /// (the `GET /cell/<digest>` route).
    pub fn lookup(&self, digest: Digest) -> Option<CellResult> {
        self.executor.with_store(|store| store.get(digest))
    }

    /// One consistent snapshot of the counters (the `GET /stats` route).
    pub fn stats(&self) -> DaemonStats {
        self.executor.stats(ResultStore::stats)
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.executor.is_shutting_down()
    }

    /// Flags shutdown without joining anything — the `POST /shutdown`
    /// handler runs on one of the HTTP front end's handler threads,
    /// which `serve` joins before it performs the actual
    /// [`Self::shutdown`] drain. Later submissions are rejected at once.
    pub fn request_shutdown(&self) {
        self.executor.request_shutdown();
    }

    /// Graceful drain: workers finish every queued job, deliver every
    /// waiter, then exit; the store is flushed. Idempotent.
    ///
    /// # Errors
    ///
    /// The final store flush's I/O error.
    pub fn shutdown(&self) -> std::io::Result<()> {
        self.executor.shutdown();
        self.executor.with_store(ResultStore::flush)
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac::digest::config_digest;
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
        let reference = indexmac::sweep::run_grid(&grid, &cfg, 2).unwrap();
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

    #[test]
    fn a_submission_after_shutdown_gets_an_error_at_once() {
        let dir = temp_dir("late");
        let service = SweepService::start(
            ExperimentConfig::fast(),
            ResultStore::open(&dir).unwrap(),
            1,
        );
        service.request_shutdown();
        // The workers exit once the queue is empty; a late submission
        // must still answer, not wait forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let late = Arc::clone(&service);
        std::thread::spawn(move || {
            let _ = tx.send(late.submit(small_grid().cells()[0]).wait());
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a submission after shutdown answers within 5 s");
        assert!(outcome.unwrap_err().contains("shutting down"));
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
