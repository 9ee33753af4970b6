//! Experiment sweeps: fan [`compare_gemm`]-style comparisons out over a
//! (pattern × dims × dataflow) grid on the one cell [`Executor`].
//!
//! Every figure of the paper is a loop of independent simulations, and
//! the follow-up evaluations (arXiv:2501.10189, arXiv:2305.05559) are
//! sweep-heavy in exactly the same way. This module is the batching
//! substrate for all of them:
//!
//! * a [`SweepGrid`] names the cartesian product to cover and derives a
//!   **deterministic per-cell seed** from its `base_seed`, so a sweep's
//!   operands do not depend on scheduling, thread count or cell order;
//! * the [`Executor`] runs cells from one job queue on long-lived
//!   workers, coalesces equal cells on their [`config_digest`], contains
//!   a panicking cell to its own waiters, and consults an optional
//!   [`CellStore`] (the sweep service's persistent store; `()` for
//!   in-memory runs);
//! * [`run_cells`] / [`run_grid`] run cells on a store-less executor of
//!   an explicit width (with [`run_grid_serial`] as the reference
//!   implementation — same seeds in, same reports out);
//! * every worker runs **warm**: cells flow through the per-thread
//!   context of [`crate::experiment`], which reuses one `Simulator` via
//!   in-place reset and caches built kernels in a decode-once
//!   `ProgramCache`, so a worker decodes each distinct kernel once
//!   across its jobs (see [`crate::experiment::decode_cache_stats`]);
//! * [`SweepResult`] serializes to JSON through the workspace's `serde`
//!   shim for downstream tooling.
//!
//! ```
//! use indexmac::experiment::ExperimentConfig;
//! use indexmac::kernels::GemmDims;
//! use indexmac::sparse::NmPattern;
//! use indexmac::sweep::{run_grid, SweepGrid};
//!
//! let grid = SweepGrid::new(
//!     NmPattern::EVALUATED.to_vec(),
//!     vec![GemmDims { rows: 8, inner: 64, cols: 32 }],
//! );
//! let result = run_grid(&grid, &ExperimentConfig::fast(), 2)?;
//! assert_eq!(result.cells.len(), 2);
//! assert_eq!(result.threads, 2);
//! assert!(result.cells.iter().all(|c| c.speedup() > 1.0));
//! # Ok::<(), String>(())
//! ```

use crate::digest::{config_digest, Digest};
use crate::experiment::{compare_gemm, ExperimentConfig, ExperimentError, GemmComparison};
use indexmac_kernels::{Dataflow, GemmDims};
use indexmac_sparse::NmPattern;
use serde::{Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::panic::catch_unwind;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One point of a sweep: a fully specified comparison run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// Uncapped GEMM shape (the configured caps still apply).
    pub dims: GemmDims,
    /// Structured-sparsity pattern of A.
    pub pattern: NmPattern,
    /// Loop order of the Row-Wise-SpMM baseline.
    pub dataflow: Dataflow,
    /// Seed for operand generation in this cell.
    pub seed: u64,
}

/// A cartesian (pattern × dims × dataflow) product with deterministic
/// per-cell seeds.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Sparsity patterns to sweep.
    pub patterns: Vec<NmPattern>,
    /// GEMM shapes to sweep.
    pub dims: Vec<GemmDims>,
    /// Baseline dataflows to sweep (defaults to B-stationary only,
    /// the paper's choice).
    pub dataflows: Vec<Dataflow>,
    /// Root seed every per-cell seed derives from.
    pub base_seed: u64,
}

/// SplitMix64 finalizer: decorrelates structured coordinate values into
/// independent-looking seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SweepGrid {
    /// A grid over `patterns` × `dims` with the default B-stationary
    /// dataflow and the paper's default seed.
    pub fn new(patterns: Vec<NmPattern>, dims: Vec<GemmDims>) -> Self {
        Self {
            patterns,
            dims,
            dataflows: vec![Dataflow::BStationary],
            base_seed: ExperimentConfig::paper().seed,
        }
    }

    /// A grid over a model's heaviest **distinct** GEMM shapes (up to
    /// `top` of them) × the evaluated patterns — the standard
    /// per-workload sweep preset. Transformer stacks repeat one block
    /// geometry, so the distinct shapes cover the whole network with a
    /// handful of cells.
    pub fn for_model(model: &indexmac_models::Model, top: usize) -> Self {
        let mut dims: Vec<GemmDims> = Vec::new();
        for layer in model.heaviest_layers(model.layers.len()) {
            if dims.len() == top {
                break;
            }
            if !dims.contains(&layer.gemm) {
                dims.push(layer.gemm);
            }
        }
        Self::new(NmPattern::EVALUATED.to_vec(), dims)
    }

    /// Replaces the dataflow axis (e.g. [`Dataflow::ALL`] for the
    /// Section IV-A ablation).
    #[must_use]
    pub fn with_dataflows(mut self, dataflows: Vec<Dataflow>) -> Self {
        self.dataflows = dataflows;
        self
    }

    /// Replaces the root seed.
    #[must_use]
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Number of cells in the product.
    pub fn len(&self) -> usize {
        self.patterns.len() * self.dims.len() * self.dataflows.len()
    }

    /// Whether any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises the product in deterministic order
    /// (pattern-major, then dims, then dataflow), deriving each cell's
    /// seed from `base_seed` and the cell's coordinates — independent
    /// of scheduling and stable under re-runs.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.len());
        for (pi, &pattern) in self.patterns.iter().enumerate() {
            for (di, &dims) in self.dims.iter().enumerate() {
                for (fi, &dataflow) in self.dataflows.iter().enumerate() {
                    let coord = ((pi as u64) << 42) | ((di as u64) << 21) | fi as u64;
                    cells.push(SweepCell {
                        dims,
                        pattern,
                        dataflow,
                        seed: mix(self.base_seed ^ mix(coord)),
                    });
                }
            }
        }
        cells
    }
}

/// Result of one sweep cell: the cell's coordinates plus the full
/// baseline/proposed comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: SweepCell,
    /// The GEMM shape actually simulated (after caps).
    pub capped: GemmDims,
    /// Full measurements of both kernels.
    pub comparison: GemmComparison,
}

impl CellResult {
    /// Baseline cycles / proposed cycles (Fig. 4/5 metric).
    pub fn speedup(&self) -> f64 {
        self.comparison.speedup()
    }

    /// Proposed memory accesses / baseline's (Fig. 6 metric).
    pub fn mem_ratio(&self) -> f64 {
        self.comparison.mem_ratio()
    }
}

impl Serialize for SweepCell {
    fn to_value(&self) -> Value {
        Value::object([
            ("rows", self.dims.rows.to_value()),
            ("inner", self.dims.inner.to_value()),
            ("cols", self.dims.cols.to_value()),
            ("pattern", self.pattern.to_string().to_value()),
            ("dataflow", self.dataflow.to_string().to_value()),
            ("seed", self.seed.to_value()),
        ])
    }
}

impl Serialize for CellResult {
    fn to_value(&self) -> Value {
        let base = &self.comparison.baseline.report;
        let prop = &self.comparison.proposed.report;
        Value::object([
            ("cell", self.cell.to_value()),
            (
                "capped",
                Value::object([
                    ("rows", self.capped.rows.to_value()),
                    ("inner", self.capped.inner.to_value()),
                    ("cols", self.capped.cols.to_value()),
                ]),
            ),
            ("baseline_cycles", base.cycles.to_value()),
            ("proposed_cycles", prop.cycles.to_value()),
            ("baseline_instructions", base.instructions.to_value()),
            ("proposed_instructions", prop.instructions.to_value()),
            (
                "baseline_mem_accesses",
                base.mem.total_accesses().to_value(),
            ),
            (
                "proposed_mem_accesses",
                prop.mem.total_accesses().to_value(),
            ),
            ("speedup", self.speedup().to_value()),
            ("mem_ratio", self.mem_ratio().to_value()),
        ])
    }
}

/// A completed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Root seed the per-cell seeds derived from.
    pub base_seed: u64,
    /// Worker count of the executor that ran the sweep (1 for the
    /// serial reference runner).
    pub threads: usize,
    /// Element precision every cell ran at (from the campaign
    /// configuration): `f32`, `i16` or `i8`.
    pub precision: crate::experiment::Precision,
    /// Timing backend every cell ran under (from the campaign
    /// configuration's [`indexmac_vpu::SimConfig`]).
    pub timing: indexmac_vpu::TimingKind,
    /// Per-cell results, in [`SweepGrid::cells`] order.
    pub cells: Vec<CellResult>,
}

impl SweepResult {
    /// `(min, max)` speedup across cells, or `None` for empty sweeps.
    pub fn speedup_range(&self) -> Option<(f64, f64)> {
        let mut it = self.cells.iter().map(CellResult::speedup);
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), s| (lo.min(s), hi.max(s))))
    }

    /// Geometric-mean speedup across cells (the usual cross-shape
    /// summary), or `None` for empty sweeps.
    pub fn geomean_speedup(&self) -> Option<f64> {
        if self.cells.is_empty() {
            return None;
        }
        let log_sum: f64 = self.cells.iter().map(|c| c.speedup().ln()).sum();
        Some((log_sum / self.cells.len() as f64).exp())
    }

    /// Compact JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("shim serialization is total")
    }

    /// Pretty-printed JSON rendering.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("shim serialization is total")
    }
}

impl Serialize for SweepResult {
    fn to_value(&self) -> Value {
        Value::object([
            ("base_seed", self.base_seed.to_value()),
            ("threads", self.threads.to_value()),
            ("precision", self.precision.to_string().to_value()),
            ("timing", self.timing.name().to_value()),
            ("geomean_speedup", self.geomean_speedup().to_value()),
            ("cells", self.cells.to_value()),
        ])
    }
}

/// Runs one cell: [`compare_gemm`] with the cell's seed and dataflow
/// overriding the campaign configuration.
///
/// # Errors
///
/// See [`compare_gemm`].
pub fn run_cell(cell: SweepCell, cfg: &ExperimentConfig) -> Result<CellResult, ExperimentError> {
    let cell_cfg = ExperimentConfig {
        seed: cell.seed,
        params: indexmac_kernels::KernelParams {
            dataflow: cell.dataflow,
            ..cfg.params
        },
        ..*cfg
    };
    let comparison = compare_gemm(cell.dims, cell.pattern, &cell_cfg)?;
    Ok(CellResult {
        cell,
        capped: cfg.caps.apply(cell.dims),
        comparison,
    })
}

/// Storage an [`Executor`] consults before it queues a cell and hands
/// every result a worker computes. `()` stores nothing: every cell not
/// already in flight simulates.
pub trait CellStore: Send + 'static {
    /// The stored result for `digest`, if any.
    fn lookup(&mut self, digest: Digest) -> Option<CellResult>;
    /// Records a freshly computed result under its digest.
    fn persist(&mut self, digest: Digest, result: &CellResult);
}

impl CellStore for () {
    fn lookup(&mut self, _: Digest) -> Option<CellResult> {
        None
    }

    fn persist(&mut self, _: Digest, _: &CellResult) {}
}

/// How a submitted cell was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Served from the store without simulating.
    Hit,
    /// Enqueued for simulation (first request for this digest).
    Miss,
    /// Attached to an already-in-flight simulation of the same digest.
    Coalesced,
    /// Refused because the executor is shutting down; the result is
    /// the [`SHUTTING_DOWN`] error.
    Rejected,
}

impl CellStatus {
    /// Stable JSON tag: `hit`, `computed`, `coalesced` or `rejected`.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Hit => "hit",
            CellStatus::Miss => "computed",
            CellStatus::Coalesced => "coalesced",
            CellStatus::Rejected => "rejected",
        }
    }
}

/// The error a submission made after shutdown was requested gets.
pub const SHUTTING_DOWN: &str = "the sweep executor is shutting down";

/// Bound of the job queue: a submission blocks while it is full.
const QUEUE_DEPTH: usize = 1024;

/// A pending submission: how it was routed plus the channel the result
/// arrives on (already delivered for hits and rejections).
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

/// Monotonic counters across an executor's lifetime, with a snapshot
/// of its store's own statistics taken at the same instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats<T = ()> {
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
    /// The store's statistics.
    pub store: T,
}

/// The channel a waiter holds while a worker computes its digest.
type ResultSender = mpsc::Sender<Result<CellResult, String>>;

/// What a worker runs for one job: [`run_cell`] outside the tests.
type CellRunner = fn(SweepCell, &ExperimentConfig) -> Result<CellResult, ExperimentError>;

/// Everything behind the executor's one lock.
struct State<S> {
    store: S,
    inflight: HashMap<Digest, Vec<ResultSender>>,
    queue: VecDeque<(Digest, SweepCell)>,
    shutdown: bool,
    workers: Vec<JoinHandle<()>>,
    /// The four counters; `queue_depth` is filled in by
    /// [`Executor::stats`].
    counts: SweepStats,
}

struct Shared<S> {
    cfg: ExperimentConfig,
    run: CellRunner,
    state: Mutex<State<S>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<S> Shared<S> {
    /// Locks the executor state, tolerating poison. Simulations run and
    /// panic outside the lock; a panic inside one of the short critical
    /// sections fails its own request, never every later one.
    fn lock(&self) -> MutexGuard<'_, State<S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The cell executor behind every sweep: a bounded job queue drained by
/// long-lived workers, with request coalescing over a [`CellStore`].
///
/// Submission path for one cell:
///
/// 1. digest the `(cell, campaign)` pair ([`config_digest`]);
/// 2. **store hit**: the result is delivered immediately;
/// 3. **in flight elsewhere**: the request *coalesces* onto that
///    simulation, so two concurrent requests for one digest simulate
///    once;
/// 4. otherwise a job enters the queue (blocking while it is full) and
///    a worker simulates it with [`run_cell`], whose per-thread context
///    keeps the simulator and decode cache warm across its jobs.
///
/// All state (the store, the in-flight waiter table, the queue, the
/// shutdown flag, the counters and the worker handles) sits behind one
/// mutex. A submission routes under one hold of it, and a worker
/// persists a result and deregisters its digest under one hold, so no
/// digest can fall between the store and the in-flight table. The lock
/// is never held across a simulation.
///
/// A panicking cell is contained: its worker catches the panic, sends
/// every waiter an error and takes the next job. Shutdown is a graceful
/// drain: workers finish every queued job and deliver every waiter
/// before they exit; a submission made after it was requested is
/// rejected at once.
pub struct Executor<S: CellStore = ()> {
    shared: Arc<Shared<S>>,
    threads: usize,
}

impl<S: CellStore> Executor<S> {
    /// Starts `threads` workers (at least one) over `store`, simulating
    /// under `cfg`. These are the only sweep worker threads.
    pub fn start(cfg: ExperimentConfig, store: S, threads: usize) -> Self {
        Self::start_with_runner(cfg, store, threads, run_cell)
    }

    fn start_with_runner(cfg: ExperimentConfig, store: S, threads: usize, run: CellRunner) -> Self {
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
                counts: SweepStats::default(),
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
                    .expect("spawn sweep worker thread")
            })
            .collect();
        shared.lock().workers = workers;
        Self { shared, threads }
    }

    /// The campaign configuration every cell runs under.
    pub fn config(&self) -> &ExperimentConfig {
        &self.shared.cfg
    }

    /// Submits one cell. Never blocks on simulation: only (briefly) on
    /// the state lock, and on the queue bound when the executor is
    /// saturated.
    pub fn submit(&self, cell: SweepCell) -> Pending {
        let digest = config_digest(&cell, &self.shared.cfg);
        let (tx, rx) = mpsc::channel();
        let mut state = self.shared.lock();
        let status = loop {
            if state.shutdown {
                let _ = tx.send(Err(SHUTTING_DOWN.into()));
                break CellStatus::Rejected;
            } else if let Some(result) = state.store.lookup(digest) {
                state.counts.hits += 1;
                let _ = tx.send(Ok(result));
                break CellStatus::Hit;
            } else if let Some(waiters) = state.inflight.get_mut(&digest) {
                waiters.push(tx);
                state.counts.coalesced += 1;
                break CellStatus::Coalesced;
            } else if state.queue.len() < QUEUE_DEPTH {
                state.inflight.insert(digest, vec![tx]);
                state.counts.misses += 1;
                state.queue.push_back((digest, cell));
                self.shared.not_empty.notify_one();
                break CellStatus::Miss;
            }
            // Full: wait for a worker to take a job, then route afresh.
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        };
        Pending { status, digest, rx }
    }

    /// Runs a whole grid: submits every cell, then waits for all of them
    /// in grid order. Beside the result it returns each cell's digest
    /// and routing, in grid order.
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

    /// Runs `f` on the store under the executor's lock.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.shared.lock().store)
    }

    /// One consistent snapshot of the counters, with `store_stats` read
    /// from the store under the same hold of the lock.
    pub fn stats<T>(&self, store_stats: impl FnOnce(&S) -> T) -> SweepStats<T> {
        let state = self.shared.lock();
        let counts = state.counts;
        SweepStats {
            hits: counts.hits,
            misses: counts.misses,
            coalesced: counts.coalesced,
            computed: counts.computed,
            queue_depth: state.queue.len(),
            store: store_stats(&state.store),
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.lock().shutdown
    }

    /// Flags shutdown without joining anything (for a caller that must
    /// not block on the drain, such as an HTTP handler). Later
    /// submissions are rejected; queued jobs still run.
    pub fn request_shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Graceful drain: workers finish every queued job, deliver every
    /// waiter, then exit and are joined. Idempotent.
    pub fn shutdown(&self) {
        self.request_shutdown();
        let workers = std::mem::take(&mut self.shared.lock().workers);
        for w in workers {
            let _ = w.join();
        }
    }
}

impl<S: CellStore> Drop for Executor<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<S: CellStore>(shared: &Shared<S>) {
    loop {
        let mut state = shared
            .not_empty
            .wait_while(shared.lock(), |s| s.queue.is_empty() && !s.shutdown)
            .unwrap_or_else(PoisonError::into_inner);
        let Some((digest, cell)) = state.queue.pop_front() else {
            return; // shut down and drained
        };
        drop(state);
        shared.not_full.notify_all();

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
                state.store.persist(digest, result);
            }
            state.inflight.remove(&digest).unwrap_or_default()
        };
        for tx in waiters {
            let _ = tx.send(outcome.clone());
        }
    }
}

/// One worker per available core: the default executor width.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Runs `cells` on a store-less [`Executor`] of `threads` workers,
/// preserving input order. Equal cells in one call simulate once.
///
/// # Errors
///
/// The first failing cell's stringified error, in input order.
pub fn run_cells(
    cells: Vec<SweepCell>,
    cfg: &ExperimentConfig,
    threads: usize,
) -> Result<Vec<CellResult>, String> {
    let executor = Executor::start(*cfg, (), threads);
    let pending: Vec<Pending> = cells.into_iter().map(|c| executor.submit(c)).collect();
    pending.into_iter().map(Pending::wait).collect()
}

/// Runs the whole grid on a store-less [`Executor`] of `threads`
/// workers; [`SweepResult::threads`] reports that width.
///
/// # Errors
///
/// See [`run_cells`].
pub fn run_grid(
    grid: &SweepGrid,
    cfg: &ExperimentConfig,
    threads: usize,
) -> Result<SweepResult, String> {
    Executor::start(*cfg, (), threads)
        .sweep_grid(grid)
        .map(|(result, _)| result)
}

/// Serial reference implementation of [`run_grid`]: a plain
/// [`compare_gemm`] loop. Same seeds ⇒ same reports; the unit tests
/// assert the two runners agree cell-for-cell.
///
/// # Errors
///
/// The first failing cell's error; see [`compare_gemm`].
pub fn run_grid_serial(
    grid: &SweepGrid,
    cfg: &ExperimentConfig,
) -> Result<SweepResult, ExperimentError> {
    let mut cells = Vec::with_capacity(grid.len());
    for cell in grid.cells() {
        cells.push(run_cell(cell, cfg)?);
    }
    Ok(SweepResult {
        base_seed: grid.base_seed,
        threads: 1,
        precision: cfg.precision,
        timing: cfg.sim.timing,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_grid() -> SweepGrid {
        SweepGrid::new(
            NmPattern::EVALUATED.to_vec(),
            vec![
                GemmDims {
                    rows: 4,
                    inner: 32,
                    cols: 16,
                },
                GemmDims {
                    rows: 8,
                    inner: 64,
                    cols: 32,
                },
            ],
        )
    }

    fn fast_cfg() -> ExperimentConfig {
        ExperimentConfig::fast()
    }

    #[test]
    fn grid_product_order_and_seeds_are_deterministic() {
        let grid = small_grid().with_dataflows(Dataflow::ALL.to_vec());
        let cells = grid.cells();
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(cells, grid.cells(), "cells() must be reproducible");
        let seeds: HashSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), cells.len(), "per-cell seeds must be distinct");
        // Pattern-major order: the first dataflow-count × dims-count
        // cells all use the first pattern.
        assert!(cells[..6].iter().all(|c| c.pattern == NmPattern::P1_4));
    }

    #[test]
    fn different_base_seeds_give_different_cell_seeds() {
        let a = small_grid().with_base_seed(1).cells();
        let b = small_grid().with_base_seed(2).cells();
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn parallel_equals_serial_reference() {
        let grid = small_grid();
        let cfg = fast_cfg();
        let par = run_grid(&grid, &cfg, 2).unwrap();
        let ser = run_grid_serial(&grid, &cfg).unwrap();
        assert_eq!(
            par.cells, ser.cells,
            "parallel runner must match the serial loop"
        );
    }

    #[test]
    fn parallel_equals_manual_compare_gemm_loop() {
        // The acceptance criterion verbatim: same seeds ⇒ the same
        // reports as a hand-written serial compare_gemm loop.
        let grid = small_grid();
        let cfg = fast_cfg();
        let par = run_grid(&grid, &cfg, 2).unwrap();
        for (result, cell) in par.cells.iter().zip(grid.cells()) {
            let cell_cfg = ExperimentConfig {
                seed: cell.seed,
                ..cfg
            };
            let manual = compare_gemm(cell.dims, cell.pattern, &cell_cfg).unwrap();
            assert_eq!(result.comparison.baseline.report, manual.baseline.report);
            assert_eq!(result.comparison.proposed.report, manual.proposed.report);
        }
    }

    #[test]
    fn run_grid_equals_serial_at_every_width() {
        // Every width reproduces the serial reference cell for cell and
        // reports the width it ran at; the reference reports one thread.
        let grid = small_grid().with_dataflows(Dataflow::ALL.to_vec());
        let cfg = fast_cfg();
        let serial = run_grid_serial(&grid, &cfg).unwrap();
        assert_eq!(serial.threads, 1);
        for threads in [1usize, 2, 3] {
            let result = run_grid(&grid, &cfg, threads).unwrap();
            assert_eq!(result.threads, threads);
            assert_eq!(result.cells, serial.cells, "{threads} threads");
        }
    }

    /// Distinct worker threads that have entered [`meets_a_second_worker`].
    static SEEN: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());

    /// A runner that holds its worker until a second worker has entered
    /// it too (or 10 s pass), then simulates normally.
    fn meets_a_second_worker(
        cell: SweepCell,
        cfg: &ExperimentConfig,
    ) -> Result<CellResult, ExperimentError> {
        let me = std::thread::current().id();
        let start = std::time::Instant::now();
        loop {
            let mut seen = SEEN.lock().unwrap();
            if !seen.contains(&me) {
                seen.push(me);
            }
            if seen.len() > 1 || start.elapsed().as_secs() >= 10 {
                break;
            }
            drop(seen);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run_cell(cell, cfg)
    }

    #[test]
    fn cells_run_concurrently_on_distinct_workers() {
        let executor = Executor::start_with_runner(fast_cfg(), (), 2, meets_a_second_worker);
        let (result, routed) = executor.sweep_grid(&small_grid()).unwrap();
        assert_eq!(result.cells.len(), 4);
        assert!(routed.iter().all(|(_, s)| *s == CellStatus::Miss));
        assert!(
            SEEN.lock().unwrap().len() > 1,
            "grid cells should spread across worker threads"
        );
    }

    /// A store that keeps every persisted result in memory.
    #[derive(Default)]
    struct MapStore(HashMap<Digest, CellResult>);

    impl CellStore for MapStore {
        fn lookup(&mut self, digest: Digest) -> Option<CellResult> {
            self.0.get(&digest).cloned()
        }

        fn persist(&mut self, digest: Digest, result: &CellResult) {
            self.0.insert(digest, result.clone());
        }
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
        let cfg = fast_cfg();
        let executor =
            Executor::start_with_runner(cfg, MapStore::default(), 1, panics_on_four_rows);
        let cells = small_grid().cells();
        // Two waiters on the panicking digest: the miss and a coalesced
        // request (or a second miss, should the first fail in between).
        let first = executor.submit(cells[0]);
        let second = executor.submit(cells[0]);
        assert!(first.wait().unwrap_err().contains("panicked"));
        assert!(second.wait().unwrap_err().contains("panicked"));

        // The lock is usable, nothing was stored, and the lone worker
        // still takes the next cell.
        let stats = executor.stats(|s| s.0.len());
        assert_eq!((stats.store, stats.queue_depth), (0, 0));
        let mut healthy = cells[0];
        healthy.dims.rows = 8;
        let result = executor.submit(healthy).wait().unwrap();
        assert_eq!(result, run_cell(healthy, &cfg).unwrap());
        assert_eq!(executor.with_store(|s| s.0.len()), 1);
    }

    #[test]
    fn dataflow_axis_reaches_the_baseline_kernel() {
        // A- vs B-stationary must change the baseline measurements
        // (same operands, different loop order).
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        let grid = SweepGrid::new(vec![NmPattern::P1_4], vec![dims])
            .with_dataflows(vec![Dataflow::AStationary, Dataflow::BStationary]);
        let result = run_grid(&grid, &fast_cfg(), 2).unwrap();
        let by_flow: Vec<u64> = result
            .cells
            .iter()
            .map(|c| c.comparison.baseline.report.cycles)
            .collect();
        assert_eq!(by_flow.len(), 2);
        // Seeds differ per cell, so compare against a same-seed rerun
        // rather than across cells: pin the seed and flip only dataflow.
        let mut cells = grid.cells();
        for c in &mut cells {
            c.seed = 7;
        }
        let pinned = run_cells(cells, &fast_cfg(), 2).unwrap();
        assert_ne!(
            pinned[0].comparison.baseline.report.cycles,
            pinned[1].comparison.baseline.report.cycles,
            "dataflow override must reach the baseline kernel"
        );
    }

    #[test]
    fn indexmac2_sweep_beats_indexmac_on_cycles_and_instret() {
        // Acceptance shape of the second-generation comparison: sweep
        // the evaluated patterns with IndexMac as baseline and the vvi
        // kernel proposed; every cell must win on both dynamic metrics.
        use crate::experiment::Algorithm;
        let grid = SweepGrid::new(
            NmPattern::EVALUATED.to_vec(),
            vec![GemmDims {
                rows: 16,
                inner: 128,
                cols: 32,
            }],
        );
        let cfg = ExperimentConfig {
            baseline: Algorithm::IndexMac,
            proposed: Algorithm::IndexMac2,
            ..fast_cfg()
        };
        let result = run_grid(&grid, &cfg, 2).unwrap();
        assert_eq!(result.cells.len(), 2);
        for cell in &result.cells {
            let base = &cell.comparison.baseline.report;
            let prop = &cell.comparison.proposed.report;
            assert_eq!(cell.comparison.baseline.algorithm, Algorithm::IndexMac);
            assert_eq!(cell.comparison.proposed.algorithm, Algorithm::IndexMac2);
            assert!(
                prop.cycles < base.cycles,
                "{}: vvi {} cycles vs vx {}",
                cell.cell.pattern,
                prop.cycles,
                base.cycles
            );
            assert!(
                prop.instructions < base.instructions,
                "{}: vvi {} instret vs vx {}",
                cell.cell.pattern,
                prop.instructions,
                base.instructions
            );
        }
        let json = result.to_json();
        assert!(json.contains("\"baseline_instructions\""));
        assert!(json.contains("\"proposed_instructions\""));
    }

    #[test]
    fn json_round_through_shim_contains_cells() {
        let grid = SweepGrid::new(
            vec![NmPattern::P1_4],
            vec![GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            }],
        );
        let result = run_grid(&grid, &fast_cfg(), 2).unwrap();
        let json = result.to_json();
        assert!(json.contains("\"cells\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"pattern\":\"1:4\""), "json was: {json}");
        assert!(json.contains("\"precision\":\"f32\""), "json was: {json}");
        assert!(json.contains("\"timing\":\"inorder\""), "json was: {json}");
        let pretty = result.to_json_pretty();
        assert!(pretty.contains("\n  \"cells\""));
    }

    #[test]
    fn timing_backend_reaches_every_cell_and_the_json() {
        // The same grid under each backend: instret is backend-invariant,
        // the JSON records which backend produced the cycles, and the
        // pipelined front end is never faster than the scoreboard.
        use indexmac_vpu::TimingKind;
        let grid = SweepGrid::new(
            vec![NmPattern::P1_4],
            vec![GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            }],
        );
        let mut results = Vec::new();
        for kind in TimingKind::ALL {
            let result = run_grid(&grid, &fast_cfg().with_timing(kind), 2).unwrap();
            assert_eq!(result.timing, kind);
            let json = result.to_json();
            assert!(
                json.contains(&format!("\"timing\":\"{kind}\"")),
                "json was: {json}"
            );
            results.push(result);
        }
        let base = &results[0].cells[0];
        for r in &results[1..] {
            let cell = &r.cells[0];
            assert_eq!(
                cell.comparison.baseline.report.instructions,
                base.comparison.baseline.report.instructions,
                "{}: baseline instret is backend-invariant",
                r.timing
            );
            assert_eq!(
                cell.comparison.proposed.report.instructions,
                base.comparison.proposed.report.instructions,
                "{}: proposed instret is backend-invariant",
                r.timing
            );
        }
        let (inorder, pipelined) = (&results[0], &results[1]);
        assert!(
            pipelined.cells[0].comparison.proposed.report.cycles
                >= inorder.cells[0].comparison.proposed.report.cycles,
            "pipelined adds front-end depth, never removes cycles"
        );
    }

    #[test]
    fn quantized_sweep_records_precision_and_wins_on_both_metrics() {
        use crate::experiment::{Algorithm, Precision};
        let grid = SweepGrid::new(
            NmPattern::EVALUATED.to_vec(),
            vec![GemmDims {
                rows: 16,
                inner: 128,
                cols: 32,
            }],
        );
        let cfg = ExperimentConfig {
            caps: indexmac_models::GemmCaps::smoke(),
            ..ExperimentConfig::quantized(Precision::I8)
        };
        let result = run_grid(&grid, &cfg, 2).unwrap();
        assert_eq!(result.precision, Precision::I8);
        assert!(result.to_json().contains("\"precision\":\"i8\""));
        for cell in &result.cells {
            assert_eq!(cell.comparison.baseline.algorithm, Algorithm::IndexMac);
            assert_eq!(cell.comparison.proposed.algorithm, Algorithm::IndexMac2);
            assert!(
                cell.comparison.proposed.report.instructions
                    < cell.comparison.baseline.report.instructions,
                "{}: vvi must beat vx on instret at e8",
                cell.cell.pattern
            );
        }
        // The serial reference runner agrees at the quantized precision.
        let ser = run_grid_serial(&grid, &cfg).unwrap();
        assert_eq!(ser.cells, result.cells);
        assert_eq!(ser.precision, Precision::I8);
    }

    #[test]
    fn for_model_takes_heaviest_distinct_shapes() {
        let bert = indexmac_models::bert_base();
        let grid = SweepGrid::for_model(&bert, 2);
        // The two heaviest distinct shapes of any block: FFN up & down.
        assert_eq!(grid.dims.len(), 2);
        assert_eq!(grid.patterns, NmPattern::EVALUATED.to_vec());
        for d in &grid.dims {
            assert_eq!(d.rows * d.inner, 768 * 3072);
        }
        assert_ne!(grid.dims[0], grid.dims[1]);
        // Asking for more shapes than exist returns all distinct ones.
        let all = SweepGrid::for_model(&bert, 100);
        assert_eq!(all.dims.len(), 3);
        // A CNN model works identically.
        let cnn = SweepGrid::for_model(&indexmac_models::resnet50(), 4);
        assert_eq!(cnn.dims.len(), 4);
        // top = 0 means no shapes, not all of them.
        assert!(SweepGrid::for_model(&bert, 0).is_empty());
    }

    #[test]
    fn serial_sweep_runs_warm_through_the_decode_cache() {
        // A grid of one shape × two patterns, swept twice on this
        // thread: the second sweep must be all decode-cache hits (the
        // per-cell seeds differ, but the kernels do not), and its
        // results bit-identical to the first.
        crate::experiment::reset_decode_cache();
        let grid = SweepGrid::new(
            NmPattern::EVALUATED.to_vec(),
            vec![GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            }],
        );
        let cfg = fast_cfg();
        let first = run_grid_serial(&grid, &cfg).unwrap();
        let after_first = crate::experiment::decode_cache_stats();
        // 2 patterns × (baseline + proposed kernels) = 4 distinct programs.
        assert_eq!(after_first.misses, 4);
        let second = run_grid_serial(&grid.clone().with_base_seed(99), &cfg).unwrap();
        let after_second = crate::experiment::decode_cache_stats();
        assert_eq!(after_second.misses, 4, "re-sweeping decodes nothing new");
        assert_eq!(after_second.hits, after_first.hits + 4);
        // Warm reuse must not perturb the measurements: same cells,
        // same seeds, same reports.
        let rerun = run_grid_serial(&grid, &cfg).unwrap();
        assert_eq!(first.cells, rerun.cells);
        assert_ne!(first.cells, second.cells, "different base seed, data");
    }

    #[test]
    fn empty_grid_is_empty_not_an_error() {
        let grid = SweepGrid::new(
            vec![],
            vec![GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            }],
        );
        assert!(grid.is_empty());
        let result = run_grid(&grid, &fast_cfg(), 2).unwrap();
        assert!(result.cells.is_empty());
        assert_eq!(result.speedup_range(), None);
        assert_eq!(result.geomean_speedup(), None);
    }
}
