//! Sweep service of the IndexMAC reproduction: a persistent
//! content-addressed result store, an asynchronous job-queue daemon
//! with request coalescing, and a dependency-free HTTP/1.1 API.
//!
//! Sweep campaigns over the simulator are embarrassingly cacheable:
//! every cell is a pure function of `(SweepCell, ExperimentConfig)`,
//! and real campaigns (widening a grid axis, re-plotting, CI re-runs)
//! re-request mostly cells that have already been simulated. This
//! crate makes that reuse automatic:
//!
//! - [`store::ResultStore`] — an append-only log + index under a
//!   `--store-dir`, keyed by [`indexmac::config_digest`], with an
//!   in-memory LRU front. Crash-safe: a torn or corrupt log tail is
//!   truncated on open and the affected digests degrade to misses.
//! - [`daemon::SweepService`] — the core's one cell executor
//!   ([`indexmac::sweep::Executor`]: a bounded job queue drained by
//!   long-lived workers, where concurrent requests for the same digest
//!   coalesce onto one simulation) over the store. It is the one
//!   store-backed sweep path:
//!   `indexmac-cli sweep --store-dir` runs its grid through
//!   [`SweepService::sweep_grid`] exactly as `serve` does, so only the
//!   cells whose digest the store lacks simulate.
//! - [`http`] — `GET /cell/<digest>`, `POST /sweep`, `GET /stats`
//!   over `std::net::TcpListener` (std only: no hyper/tokio).
//!
//! The `indexmac-cli` binary lives in this crate (it grew `serve` and
//! `--store-dir`, which need the store and daemon; the core crate must
//! not depend back on this one).

pub mod daemon;
pub mod http;
pub mod store;

pub use daemon::{CellStatus, DaemonStats, SweepService};
pub use store::{ResultStore, StoreStats};
