//! # IndexMAC
//!
//! A full-system reproduction of *"IndexMAC: A Custom RISC-V Vector
//! Instruction to Accelerate Structured-Sparse Matrix Multiplications"*
//! (DATE 2024): the custom `vindexmac.vx` instruction, the decoupled
//! vector-processor model it was evaluated on, the three kernels of the
//! paper, and the CNN workloads of its evaluation.
//!
//! This crate is the top-level public API. It re-exports the substrate
//! crates and provides the experiment drivers behind the paper's
//! figures:
//!
//! * [`experiment`] — run one (layer, sparsity, algorithm) simulation,
//!   or a whole CNN comparison (Fig. 4/5/6 building blocks);
//! * [`sweep`] — fan comparisons out over (pattern × dims × dataflow)
//!   grids with deterministic per-cell seeds, on the one cell executor
//!   (a job queue, long-lived workers, coalescing on the cell digest and
//!   an optional result-store hook) that every sweep runs through;
//! * [`seqlen`] — sequence-length scaling analysis for the transformer
//!   workload family;
//! * [`table`] — plain-text table rendering used by the bench harnesses.
//!
//! # Quickstart
//!
//! ```
//! use indexmac::experiment::{compare_gemm, ExperimentConfig};
//! use indexmac::kernels::GemmDims;
//! use indexmac::sparse::NmPattern;
//!
//! let cfg = ExperimentConfig::fast();
//! let dims = GemmDims { rows: 16, inner: 64, cols: 32 };
//! let cmp = compare_gemm(dims, NmPattern::P1_4, &cfg)?;
//! assert!(cmp.speedup() > 1.0, "vindexmac must outperform Row-Wise-SpMM");
//! assert!(cmp.mem_ratio() < 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod digest;
pub mod experiment;
pub mod record;
pub mod seqlen;
pub mod sweep;
pub mod table;

pub use analysis::{analyze, Bottleneck, BoundKind};
pub use digest::{config_digest, Digest, CONFIG_DIGEST_VERSION};
pub use experiment::{
    compare_gemm, compare_layer, compare_model, decode_cache_stats, reset_decode_cache, run_gemm,
    Algorithm, DecodeCacheStats, ExperimentConfig, GemmComparison, LayerResult, ModelComparison,
};
pub use seqlen::{seqlen_scaling, SeqLenPoint, SeqLenScaling};
pub use sweep::{run_grid, SweepCell, SweepGrid, SweepResult};

pub use indexmac_isa as isa;
pub use indexmac_kernels as kernels;
pub use indexmac_mem as mem;
pub use indexmac_models as models;
pub use indexmac_sparse as sparse;
pub use indexmac_vpu as vpu;
