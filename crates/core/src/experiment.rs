//! Experiment drivers: the building blocks of the paper's Figures 4-6.

use indexmac_kernels::{
    dense, indexmac, indexmac2, rowwise, scalar_idx, verify, GemmDims, GemmLayout, KernelParams,
};
use indexmac_models::{GemmCaps, Model, ModelLayer};
use indexmac_sparse::{prune, quant, DenseMatrix, NmPattern, StructuredSparseMatrix};
use indexmac_vpu::{DecodedProgram, RunReport, SimConfig, Simulator};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// The element precision of an experiment's operands (re-exported from
/// `indexmac-sparse`): `f32` is the paper's configuration; `i8`/`i16`
/// run the widening-MAC quantized datapath with bit-exact verification.
pub use indexmac_sparse::ElemType as Precision;

/// Which kernel to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Paper Algorithm 1: dense row-wise baseline.
    Dense,
    /// Paper Algorithm 2: "Row-Wise-SpMM" (the evaluated baseline).
    RowWiseSpmm,
    /// Paper Algorithm 3: the proposed `vindexmac` kernel.
    IndexMac,
    /// The second-generation `vindexmac.vvi` kernel (arXiv 2501.10189):
    /// index consumed in the vector register file, optional register
    /// grouping via [`ExperimentConfig::lmul`].
    IndexMac2,
    /// Extension: `vindexmac` with scalar-loaded metadata (ablation).
    ScalarIndexed,
}

impl Algorithm {
    /// Every simulatable kernel, for exhaustive sweeps and tests.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Dense,
        Algorithm::RowWiseSpmm,
        Algorithm::IndexMac,
        Algorithm::IndexMac2,
        Algorithm::ScalarIndexed,
    ];

    /// Stable short token: the CLI's `--algorithm` vocabulary and the
    /// persisted record tag.
    pub fn tag(self) -> &'static str {
        match self {
            Algorithm::Dense => "dense",
            Algorithm::RowWiseSpmm => "rowwise",
            Algorithm::IndexMac => "indexmac",
            Algorithm::IndexMac2 => "indexmac2",
            Algorithm::ScalarIndexed => "scalar",
        }
    }
}

/// Parses an [`Algorithm::tag`].
impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.tag() == s)
            .ok_or_else(|| {
                format!("unknown algorithm `{s}` (dense|rowwise|indexmac|indexmac2|scalar)")
            })
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Dense => write!(f, "Dense"),
            Algorithm::RowWiseSpmm => write!(f, "Row-Wise-SpMM"),
            Algorithm::IndexMac => write!(f, "Proposed (vindexmac)"),
            Algorithm::IndexMac2 => write!(f, "Proposed-2 (vindexmac.vvi)"),
            Algorithm::ScalarIndexed => write!(f, "Scalar-indexed vindexmac"),
        }
    }
}

/// Shared configuration of one experimental campaign.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Processor model (Table I by default).
    pub sim: SimConfig,
    /// GEMM size caps (see EXPERIMENTS.md for why capping is sound).
    pub caps: GemmCaps,
    /// B-tile rows kept resident (`L`; the paper uses 16). For
    /// [`Algorithm::IndexMac2`] with `lmul > 1` the value is re-fitted
    /// to the grouped register budget via
    /// [`GemmLayout::fit_tile_rows`].
    pub tile_rows: usize,
    /// Register grouping for [`Algorithm::IndexMac2`] (`1`, `2` or
    /// `4`; every other kernel always runs ungrouped).
    pub lmul: usize,
    /// Element precision of A and B ([`Precision::F32`] by default).
    /// The quantized precisions select SEW e8/e16 (`vl = LMUL·VLEN/SEW`),
    /// run only the `vindexmac` kernels, and verify bit-exactly against
    /// the i32 reference.
    pub precision: Precision,
    /// Kernel tunables (unroll x4, B-stationary by default). The unroll
    /// factor is clamped to the grouped register budget for
    /// [`Algorithm::IndexMac2`].
    pub params: KernelParams,
    /// Seed for operand generation.
    pub seed: u64,
    /// Runaway-program guard: the largest dynamic instruction count a
    /// single simulation may retire before failing with
    /// `SimError::InstructionLimit`. Tunable from the CLI via
    /// `--max-instructions`; the default is the simulator's own
    /// [`indexmac_vpu::sim::DEFAULT_MAX_INSTRUCTIONS`].
    pub max_instructions: u64,
    /// Whether to verify every simulated product against the reference
    /// (cheap insurance; on by default).
    pub verify: bool,
    /// The kernel measured as the comparison baseline
    /// ([`Algorithm::RowWiseSpmm`] by default, as in the paper).
    pub baseline: Algorithm,
    /// The kernel measured as the proposed side
    /// ([`Algorithm::IndexMac`] by default; set
    /// [`Algorithm::IndexMac2`] to reproduce the follow-up numbers).
    pub proposed: Algorithm,
}

impl ExperimentConfig {
    /// The paper's evaluation configuration with the default caps.
    pub fn paper() -> Self {
        Self {
            sim: SimConfig::table_i(),
            caps: GemmCaps::default_eval(),
            tile_rows: 16,
            lmul: 1,
            precision: Precision::F32,
            params: KernelParams::default(),
            seed: 0xD47E_2024,
            max_instructions: indexmac_vpu::sim::DEFAULT_MAX_INSTRUCTIONS,
            verify: true,
            baseline: Algorithm::RowWiseSpmm,
            proposed: Algorithm::IndexMac,
        }
    }

    /// The transformer-campaign defaults: the second-generation
    /// `vindexmac.vvi` kernel under `m2` register grouping against the
    /// first generation — the configuration of the follow-up work
    /// (arXiv 2501.10189) on DNN GEMM shapes, and what the CLI `model`
    /// command runs for transformer presets. Quantized presets clamp
    /// the grouping to the widening budget (see [`compare_model`]).
    pub fn transformer() -> Self {
        Self::second_generation(2)
    }

    /// A quantized campaign at `precision`: both comparison sides run
    /// the `vindexmac` kernels (the walk-based baselines are f32-only),
    /// with `vindexmac.vx` as the baseline and `vindexmac.vvi` proposed.
    pub fn quantized(precision: Precision) -> Self {
        Self {
            precision,
            baseline: Algorithm::IndexMac,
            proposed: Algorithm::IndexMac2,
            ..Self::paper()
        }
    }

    /// Small caps for unit tests and doc examples.
    pub fn fast() -> Self {
        Self {
            caps: GemmCaps::smoke(),
            ..Self::paper()
        }
    }

    /// Paper config comparing the second-generation kernel against
    /// Algorithm 3 under `lmul` register grouping.
    pub fn second_generation(lmul: usize) -> Self {
        Self {
            lmul,
            baseline: Algorithm::IndexMac,
            proposed: Algorithm::IndexMac2,
            ..Self::paper()
        }
    }

    /// Same campaign under a different timing backend — both comparison
    /// sides (and every sweep cell) run on `timing`; the architectural
    /// results and instret are backend-invariant by construction.
    #[must_use]
    pub fn with_timing(mut self, timing: indexmac_vpu::TimingKind) -> Self {
        self.sim = self.sim.with_timing(timing);
        self
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Result of simulating one kernel on one (possibly capped) GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// The kernel simulated.
    pub algorithm: Algorithm,
    /// Sparsity pattern of A.
    pub pattern: NmPattern,
    /// The simulated (capped) GEMM shape.
    pub gemm: GemmDims,
    /// The uncapped shape this stands for.
    pub full_gemm: GemmDims,
    /// Timing and traffic measurements.
    pub report: RunReport,
}

/// Experiment-level errors.
#[derive(Debug)]
pub enum ExperimentError {
    /// Kernel construction failed.
    Kernel(indexmac_kernels::KernelError),
    /// Simulation or verification failed.
    Verify(verify::VerifyError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Kernel(e) => write!(f, "kernel construction failed: {e}"),
            ExperimentError::Verify(e) => write!(f, "kernel execution failed: {e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Kernel(e) => Some(e),
            ExperimentError::Verify(e) => Some(e),
        }
    }
}

impl From<indexmac_kernels::KernelError> for ExperimentError {
    fn from(e: indexmac_kernels::KernelError) -> Self {
        ExperimentError::Kernel(e)
    }
}

impl From<verify::VerifyError> for ExperimentError {
    fn from(e: verify::VerifyError) -> Self {
        ExperimentError::Verify(e)
    }
}

/// Generates the seeded operands for a GEMM shape at the campaign
/// precision: uniform f32, or full-range exact integers for i8/i16.
fn operands(
    dims: GemmDims,
    pattern: NmPattern,
    seed: u64,
    precision: Precision,
) -> (StructuredSparseMatrix, DenseMatrix) {
    if precision.is_int() {
        let a = quant::random_structured_int(dims.rows, dims.inner, pattern, seed, precision);
        let b = quant::random_dense_int(dims.inner, dims.cols, seed.wrapping_add(1), precision);
        (a, b)
    } else {
        let a = prune::random_structured(dims.rows, dims.inner, pattern, seed);
        let b = DenseMatrix::random(dims.inner, dims.cols, seed.wrapping_add(1));
        (a, b)
    }
}

/// Plans the layout and the *effective* kernel parameters for one
/// `(algorithm, shape)` pair: the grouped second-generation layout
/// shrinks `L` to the grouped register budget, and both `vindexmac`
/// kernels clamp a too-large unroll to their accumulator budget (zero
/// still flows through so it is rejected as `BadUnroll`).
fn plan_kernel(
    algorithm: Algorithm,
    a: &StructuredSparseMatrix,
    cols: usize,
    cfg: &ExperimentConfig,
) -> Result<(GemmLayout, KernelParams), ExperimentError> {
    if algorithm == Algorithm::IndexMac2 {
        let pattern = a.pattern();
        let tile_rows = GemmLayout::fit_tile_rows(cfg.tile_rows, cfg.lmul, pattern);
        let layout = GemmLayout::plan_elem(a, cols, &cfg.sim, tile_rows, cfg.lmul, cfg.precision)?;
        let params = KernelParams {
            unroll: cfg.params.unroll.min(indexmac2::max_unroll(&layout)),
            ..cfg.params
        };
        Ok((layout, params))
    } else {
        let layout = GemmLayout::plan_elem(a, cols, &cfg.sim, cfg.tile_rows, 1, cfg.precision)?;
        let params = if algorithm == Algorithm::IndexMac {
            // The widening accumulator shrinks Algorithm 3's unroll
            // budget; the f32 budget is unchanged.
            KernelParams {
                unroll: cfg.params.unroll.min(indexmac::max_unroll(&layout)),
                ..cfg.params
            }
        } else {
            cfg.params
        };
        Ok((layout, params))
    }
}

/// Builds the kernel program for a planned layout (cache-miss path of
/// the [`ProgramCache`]).
fn build_kernel(
    algorithm: Algorithm,
    layout: &GemmLayout,
    params: &KernelParams,
) -> Result<indexmac_isa::Program, ExperimentError> {
    Ok(match algorithm {
        Algorithm::Dense => dense::build(layout, params)?,
        Algorithm::RowWiseSpmm => rowwise::build(layout, params)?,
        Algorithm::IndexMac => indexmac::build(layout, params)?,
        Algorithm::IndexMac2 => indexmac2::build(layout, params)?,
        Algorithm::ScalarIndexed => scalar_idx::build(layout, params)?,
    })
}

/// Hit/miss statistics of the per-thread decode-once kernel cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups served from an already-built, already-decoded kernel.
    pub hits: u64,
    /// Lookups that had to build + decode a kernel.
    pub misses: u64,
    /// Cached programs evicted to respect the size budget.
    pub evictions: u64,
    /// Decoded programs currently resident.
    pub entries: usize,
}

impl fmt::Display for DecodeCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} resident programs ({} evicted)",
            self.hits, self.misses, self.entries, self.evictions
        )
    }
}

/// Decode-once kernel cache: maps `(algorithm, layout, params)` — which
/// fully determine a kernel program, since builders are pure functions
/// of the layout geometry — to a predecoded [`DecodedProgram`]. Sweeps
/// repeat one shape across many seeds, and transformer stacks repeat
/// one block geometry across layers; both now decode each distinct
/// kernel exactly once per worker thread.
struct ProgramCache {
    entries: VecDeque<(Algorithm, GemmLayout, KernelParams, Rc<DecodedProgram>)>,
    resident_uops: usize,
    max_uops: usize,
    stats: DecodeCacheStats,
}

/// Bound on the total static instructions the cache may keep resident
/// **per worker thread** (each entry holds a µop and an instruction
/// per slot, ~32 bytes). Fully-unrolled full-scale kernels run to
/// millions of instructions, so the bound is on µops, not entry
/// count: evaluation-cap-sized kernels (tens of thousands of µops)
/// effectively never evict, ~64 MiB of them can accumulate per
/// thread, and an oversized full-profile kernel is retained only
/// until the next insertion evicts it (the entry just inserted is
/// never evicted — it is needed for the run in flight).
const PROGRAM_CACHE_MAX_UOPS: usize = 2 << 20;

impl ProgramCache {
    fn new() -> Self {
        Self {
            entries: VecDeque::new(),
            resident_uops: 0,
            max_uops: PROGRAM_CACHE_MAX_UOPS,
            stats: DecodeCacheStats::default(),
        }
    }

    fn get_or_build(
        &mut self,
        algorithm: Algorithm,
        layout: &GemmLayout,
        params: &KernelParams,
    ) -> Result<Rc<DecodedProgram>, ExperimentError> {
        if let Some((.., cached)) = self
            .entries
            .iter()
            .find(|(alg, l, p, _)| *alg == algorithm && l == layout && p == params)
        {
            self.stats.hits += 1;
            self.stats.entries = self.entries.len();
            return Ok(Rc::clone(cached));
        }
        self.stats.misses += 1;
        let program = Rc::new(DecodedProgram::decode_owned(build_kernel(
            algorithm, layout, params,
        )?));
        self.resident_uops += program.len();
        self.entries
            .push_back((algorithm, layout.clone(), *params, Rc::clone(&program)));
        // FIFO eviction down to the µop budget (never evicting the
        // entry just inserted).
        while self.resident_uops > self.max_uops && self.entries.len() > 1 {
            let (.., evicted) = self.entries.pop_front().expect("len > 1");
            self.resident_uops -= evicted.len();
            self.stats.evictions += 1;
        }
        self.stats.entries = self.entries.len();
        Ok(program)
    }
}

/// Per-thread warm-execution context: one reusable [`Simulator`] (reset
/// in place between runs — no fresh `ArchState`/`MainMemory` allocation
/// per cell) plus the decode-once [`ProgramCache`]. Every worker of the
/// sweep executor gets its own and keeps it across its jobs.
struct ExecContext {
    sim: Option<Simulator>,
    cache: ProgramCache,
}

impl ExecContext {
    /// The reusable simulator, reset and configured for this run. A
    /// changed `SimConfig` (e.g. the VLEN ablation) rebuilds it.
    fn simulator(&mut self, cfg: &SimConfig, max_instructions: u64) -> &mut Simulator {
        let rebuild = !matches!(&self.sim, Some(s) if s.config() == cfg);
        if rebuild {
            self.sim = Some(Simulator::new(*cfg));
        }
        let sim = self.sim.as_mut().expect("simulator just ensured");
        sim.set_max_instructions(max_instructions);
        sim
    }
}

thread_local! {
    static EXEC_CTX: RefCell<ExecContext> = RefCell::new(ExecContext {
        sim: None,
        cache: ProgramCache::new(),
    });
}

/// This thread's decode-once kernel-cache statistics (each sweep
/// executor worker accumulates its own; the CLI `model` command runs on
/// one thread, so its printout covers the whole command).
pub fn decode_cache_stats() -> DecodeCacheStats {
    EXEC_CTX.with(|ctx| ctx.borrow().cache.stats)
}

/// Drops this thread's cached programs and zeroes the statistics
/// (mainly for tests that assert on hit counts).
pub fn reset_decode_cache() {
    EXEC_CTX.with(|ctx| ctx.borrow_mut().cache = ProgramCache::new());
}

/// Simulates `algorithm` on a GEMM of shape `dims` (caps applied).
///
/// Runs through the per-thread warm context: the kernel program is
/// built and predecoded at most once per `(algorithm, layout, params)`
/// and the simulator is reused across calls via in-place reset, so
/// sweeping one shape over many seeds pays the decode cost once.
/// Results are bit-identical to a cold per-call simulator.
///
/// # Errors
///
/// Returns [`ExperimentError`] on kernel-construction or simulation
/// failures (both indicate configuration bugs, not data conditions).
pub fn run_gemm(
    dims: GemmDims,
    pattern: NmPattern,
    algorithm: Algorithm,
    cfg: &ExperimentConfig,
) -> Result<LayerResult, ExperimentError> {
    let capped = cfg.caps.apply(dims);
    let (a, b) = operands(capped, pattern, cfg.seed, cfg.precision);
    let (layout, params) = plan_kernel(algorithm, &a, capped.cols, cfg)?;
    let run = EXEC_CTX.with(|ctx| {
        let ctx = &mut *ctx.borrow_mut();
        let program = ctx.cache.get_or_build(algorithm, &layout, &params)?;
        let sim = ctx.simulator(&cfg.sim, cfg.max_instructions);
        let run = verify::run_decoded_kernel(sim, &program, &a, &b, &layout)?;
        if cfg.verify && algorithm != Algorithm::Dense {
            if layout.elem.is_int() {
                verify::check_int_exact(&run, &a, &b)?;
            } else {
                verify::check_against_reference(
                    &run,
                    &a,
                    &b,
                    verify::default_tolerance(layout.dims.inner),
                )?;
            }
        }
        Ok::<_, ExperimentError>(run)
    })?;
    Ok(LayerResult {
        algorithm,
        pattern,
        gemm: capped,
        full_gemm: dims,
        report: run.report,
    })
}

/// One statically linted kernel configuration: the planned geometry
/// plus every diagnostic the µop-program analyzer produced for it.
#[derive(Debug, Clone)]
pub struct LintResult {
    /// The kernel linted.
    pub algorithm: Algorithm,
    /// Sparsity pattern the layout was planned for.
    pub pattern: NmPattern,
    /// The (capped) GEMM shape the kernel was built for.
    pub gemm: GemmDims,
    /// Element precision of the layout.
    pub precision: Precision,
    /// Register grouping of the layout.
    pub lmul: usize,
    /// Static program length in instructions.
    pub static_instructions: usize,
    /// Whether the kernel analyzed clean (zero error-class diagnostics).
    pub verified: bool,
    /// Every finding, ordered by pc.
    pub diagnostics: Vec<indexmac_vpu::Diagnostic>,
}

/// Builds the kernel for `(algorithm, shape, cfg)` exactly as
/// [`run_gemm`] would and runs the static µop-program analyzer over it
/// against the layout's memory contract — without simulating anything.
/// This is the CLI `lint` subcommand's engine and what the CI lint job
/// sweeps over every shipped kernel configuration.
///
/// # Errors
///
/// Returns [`ExperimentError::Kernel`] when the configuration cannot be
/// planned or built (the lint target must exist to be linted).
pub fn lint_gemm(
    dims: GemmDims,
    pattern: NmPattern,
    algorithm: Algorithm,
    cfg: &ExperimentConfig,
) -> Result<LintResult, ExperimentError> {
    let capped = cfg.caps.apply(dims);
    let (a, _) = operands(capped, pattern, cfg.seed, cfg.precision);
    let (layout, params) = plan_kernel(algorithm, &a, capped.cols, cfg)?;
    let decoded = DecodedProgram::decode_owned(build_kernel(algorithm, &layout, &params)?);
    let analysis = verify::analyze_kernel(&decoded, &layout, &cfg.sim);
    Ok(LintResult {
        algorithm,
        pattern,
        gemm: capped,
        precision: cfg.precision,
        lmul: layout.lmul,
        static_instructions: decoded.len(),
        verified: analysis.verified().is_some(),
        diagnostics: analysis.diagnostics().to_vec(),
    })
}

/// Baseline-vs-proposed comparison on one GEMM shape. Which kernels the
/// two sides run comes from [`ExperimentConfig::baseline`] /
/// [`ExperimentConfig::proposed`] (Row-Wise-SpMM vs `vindexmac.vx` by
/// default, as in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct GemmComparison {
    /// Baseline-kernel measurements.
    pub baseline: LayerResult,
    /// Proposed-kernel measurements.
    pub proposed: LayerResult,
}

impl GemmComparison {
    /// Fig. 4/5 metric: baseline cycles / proposed cycles.
    pub fn speedup(&self) -> f64 {
        self.proposed.report.speedup_over(&self.baseline.report)
    }

    /// Fig. 6 metric: proposed memory accesses / baseline's.
    pub fn mem_ratio(&self) -> f64 {
        self.proposed
            .report
            .normalized_mem_accesses(&self.baseline.report)
    }
}

/// Runs both kernels on the same operands (paper Fig. 4 per-layer bar).
///
/// # Errors
///
/// See [`run_gemm`].
pub fn compare_gemm(
    dims: GemmDims,
    pattern: NmPattern,
    cfg: &ExperimentConfig,
) -> Result<GemmComparison, ExperimentError> {
    Ok(GemmComparison {
        baseline: run_gemm(dims, pattern, cfg.baseline, cfg)?,
        proposed: run_gemm(dims, pattern, cfg.proposed, cfg)?,
    })
}

/// Per-layer comparison (adds the layer name).
#[derive(Debug, Clone)]
pub struct LayerComparison {
    /// The layer's name in the network.
    pub name: String,
    /// The two-kernel comparison on its (capped) GEMM.
    pub comparison: GemmComparison,
}

/// Runs both kernels on a model layer's lowered GEMM (a CNN layer's
/// im2col product, a transformer projection, ...).
///
/// # Errors
///
/// See [`run_gemm`].
pub fn compare_layer(
    layer: &ModelLayer,
    pattern: NmPattern,
    cfg: &ExperimentConfig,
) -> Result<LayerComparison, ExperimentError> {
    Ok(LayerComparison {
        name: layer.name.clone(),
        comparison: compare_gemm(layer.gemm, pattern, cfg)?,
    })
}

/// Whole-network comparison: every GEMM layer of a model.
#[derive(Debug, Clone)]
pub struct ModelComparison {
    /// Model name.
    pub model: String,
    /// Sparsity pattern of the weights.
    pub pattern: NmPattern,
    /// Element precision every layer actually simulated at (the model's
    /// own precision — quantized presets run the e8/e16 datapath even
    /// under an f32-configured campaign).
    pub precision: Precision,
    /// Per-layer results, in network order.
    pub layers: Vec<LayerComparison>,
}

impl ModelComparison {
    /// Total-network speedup (paper Fig. 5): summed baseline cycles over
    /// summed proposed cycles.
    pub fn total_speedup(&self) -> f64 {
        let base: u64 = self
            .layers
            .iter()
            .map(|l| l.comparison.baseline.report.cycles)
            .sum();
        let prop: u64 = self
            .layers
            .iter()
            .map(|l| l.comparison.proposed.report.cycles)
            .sum();
        base as f64 / prop as f64
    }

    /// Total normalized memory accesses (paper Fig. 6).
    pub fn total_mem_ratio(&self) -> f64 {
        let base: u64 = self
            .layers
            .iter()
            .map(|l| l.comparison.baseline.report.mem.total_accesses())
            .sum();
        let prop: u64 = self
            .layers
            .iter()
            .map(|l| l.comparison.proposed.report.mem.total_accesses())
            .sum();
        prop as f64 / base as f64
    }

    /// Range of per-layer speedups `(min, max)`.
    pub fn speedup_range(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = 0.0_f64;
        for l in &self.layers {
            let s = l.comparison.speedup();
            min = min.min(s);
            max = max.max(s);
        }
        (min, max)
    }
}

/// Reconciles a campaign configuration with a model's own precision:
/// quantized presets must simulate the quantized datapath even when the
/// caller passes an f32-default configuration, integer precisions force
/// the comparison onto the `vindexmac` kernel pair (the walk-based
/// baselines have no quantized emission path), and register grouping is
/// clamped to the widening budget (`lmul · 32/SEW ≤ 4`, so e8 runs
/// ungrouped and e16 at most `m2` — the accumulator group would
/// otherwise exceed `m4`).
fn config_for_model(model: &Model, cfg: &ExperimentConfig) -> ExperimentConfig {
    let mut out = ExperimentConfig {
        precision: model.precision,
        ..*cfg
    };
    if model.precision.is_int() {
        out.lmul = out.lmul.min(4 / model.precision.widen()).max(1);
        let int_capable = |a: Algorithm| matches!(a, Algorithm::IndexMac | Algorithm::IndexMac2);
        if !(int_capable(out.baseline) && int_capable(out.proposed) && out.baseline != out.proposed)
        {
            // The configured pair cannot run (or degenerates) at an
            // integer precision: use the standard quantized comparison,
            // vx vs vvi.
            out.baseline = Algorithm::IndexMac;
            out.proposed = Algorithm::IndexMac2;
        }
    }
    out
}

/// Runs the full per-layer comparison for one model (paper Fig. 4 for
/// ResNet50; summed for Fig. 5/6; per-block tables for the transformer
/// presets). The model's own precision wins over `cfg.precision` — an
/// int8 preset always runs the e8 datapath, with the comparison sides
/// moved onto the `vindexmac` pair if the configured kernels have no
/// quantized path and the register grouping clamped to the widening
/// budget.
///
/// Identical GEMM shapes (every block of a transformer stack repeats
/// one geometry) are simulated **once** and their results replicated:
/// operand generation is seeded purely by the campaign seed and shape,
/// so the per-layer reports are bit-identical to the naive loop.
///
/// # Errors
///
/// See [`run_gemm`]. Fails on the first failing layer.
pub fn compare_model(
    model: &Model,
    pattern: NmPattern,
    cfg: &ExperimentConfig,
) -> Result<ModelComparison, ExperimentError> {
    let cfg = config_for_model(model, cfg);
    let mut cache: Vec<(GemmDims, GemmComparison)> = Vec::new();
    let mut layers = Vec::with_capacity(model.layers.len());
    for layer in &model.layers {
        let hit = cache.iter().find(|(g, _)| *g == layer.gemm);
        let comparison = match hit {
            Some((_, c)) => c.clone(),
            None => {
                let c = compare_gemm(layer.gemm, pattern, &cfg)?;
                cache.push((layer.gemm, c.clone()));
                c
            }
        };
        layers.push(LayerComparison {
            name: layer.name.clone(),
            comparison,
        });
    }
    Ok(ModelComparison {
        model: model.name.clone(),
        pattern,
        precision: cfg.precision,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::fast()
    }

    #[test]
    fn run_gemm_all_algorithms() {
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        for alg in Algorithm::ALL {
            let r = run_gemm(dims, NmPattern::P1_4, alg, &cfg()).unwrap();
            assert!(r.report.cycles > 0, "{alg}");
            assert_eq!(r.gemm.rows, 8);
        }
    }

    #[test]
    fn indexmac2_beats_indexmac_on_cycles_and_instructions() {
        let dims = GemmDims {
            rows: 16,
            inner: 128,
            cols: 32,
        };
        let v1 = run_gemm(dims, NmPattern::P2_4, Algorithm::IndexMac, &cfg()).unwrap();
        let v2 = run_gemm(dims, NmPattern::P2_4, Algorithm::IndexMac2, &cfg()).unwrap();
        assert!(
            v2.report.cycles < v1.report.cycles,
            "vvi {} vs vx {}",
            v2.report.cycles,
            v1.report.cycles
        );
        assert!(v2.report.instructions < v1.report.instructions);
    }

    #[test]
    fn second_generation_config_compares_the_two_indexmacs() {
        let dims = GemmDims {
            rows: 16,
            inner: 128,
            cols: 32,
        };
        let cfg = ExperimentConfig {
            caps: indexmac_models::GemmCaps::smoke(),
            ..ExperimentConfig::second_generation(1)
        };
        let c = compare_gemm(dims, NmPattern::P1_4, &cfg).unwrap();
        assert_eq!(c.baseline.algorithm, Algorithm::IndexMac);
        assert_eq!(c.proposed.algorithm, Algorithm::IndexMac2);
        assert!(c.speedup() > 1.0, "speedup {}", c.speedup());
    }

    #[test]
    fn grouped_indexmac2_runs_and_verifies() {
        let dims = GemmDims {
            rows: 16,
            inner: 64,
            cols: 64,
        };
        for lmul in [2, 4] {
            let cfg = ExperimentConfig {
                lmul,
                caps: indexmac_models::GemmCaps::smoke(),
                ..ExperimentConfig::paper()
            };
            let r = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac2, &cfg).unwrap();
            assert!(r.report.cycles > 0, "lmul {lmul}");
        }
    }

    #[test]
    fn caps_are_applied_and_recorded() {
        let dims = GemmDims {
            rows: 100,
            inner: 1000,
            cols: 1000,
        };
        let r = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac, &cfg()).unwrap();
        assert_eq!(r.full_gemm, dims);
        assert_eq!(r.gemm.rows, 16);
        assert_eq!(r.gemm.inner, 128);
        assert_eq!(r.gemm.cols, 32);
    }

    #[test]
    fn comparison_shows_speedup_and_traffic_cut() {
        let dims = GemmDims {
            rows: 16,
            inner: 128,
            cols: 32,
        };
        let c = compare_gemm(dims, NmPattern::P1_4, &cfg()).unwrap();
        assert!(c.speedup() > 1.2, "speedup {}", c.speedup());
        assert!(c.mem_ratio() < 0.8, "mem ratio {}", c.mem_ratio());
    }

    #[test]
    fn sparse_beats_dense_by_mac_reduction() {
        let dims = GemmDims {
            rows: 16,
            inner: 128,
            cols: 32,
        };
        let dense_r = run_gemm(dims, NmPattern::P1_4, Algorithm::Dense, &cfg()).unwrap();
        let sparse_r = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac, &cfg()).unwrap();
        // 1:4 structured sparsity skips 3/4 of the MACs; expect a clear win.
        assert!(
            sparse_r.report.cycles * 2 < dense_r.report.cycles,
            "sparse {} vs dense {}",
            sparse_r.report.cycles,
            dense_r.report.cycles
        );
    }

    #[test]
    fn model_comparison_on_a_few_layers() {
        let tiny = indexmac_models::resnet50().head(3);
        let c = compare_model(&tiny, NmPattern::P2_4, &cfg()).unwrap();
        assert_eq!(c.layers.len(), 3);
        assert!(c.total_speedup() > 1.0);
        assert!(c.total_mem_ratio() < 1.0);
        let (lo, hi) = c.speedup_range();
        assert!(lo <= hi);
    }

    #[test]
    fn quantized_run_gemm_is_bit_exact_and_runs_both_kernels() {
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        for precision in [Precision::I8, Precision::I16] {
            let cfg = ExperimentConfig {
                caps: indexmac_models::GemmCaps::smoke(),
                ..ExperimentConfig::quantized(precision)
            };
            // verify=true routes through the exact integer checker.
            assert!(cfg.verify);
            let c = compare_gemm(dims, NmPattern::P1_4, &cfg).unwrap();
            assert_eq!(c.baseline.algorithm, Algorithm::IndexMac);
            assert_eq!(c.proposed.algorithm, Algorithm::IndexMac2);
            assert!(c.proposed.report.cycles > 0, "{precision}");
        }
    }

    #[test]
    fn quantized_rejects_float_only_kernels() {
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        let cfg = ExperimentConfig {
            caps: indexmac_models::GemmCaps::smoke(),
            ..ExperimentConfig::quantized(Precision::I8)
        };
        for alg in [
            Algorithm::Dense,
            Algorithm::RowWiseSpmm,
            Algorithm::ScalarIndexed,
        ] {
            let err = run_gemm(dims, NmPattern::P1_4, alg, &cfg).unwrap_err();
            assert!(matches!(err, ExperimentError::Kernel(_)), "{alg}: {err}");
        }
    }

    #[test]
    fn e8_beats_e32_at_the_acceptance_shape() {
        // Acceptance criterion: at 64x256x128 / 1:4, e8 IndexMAC2
        // reports fewer cycles and fewer dynamic vector instructions
        // than e32 with the same algorithm, with >= 2x fewer vector
        // instructions in steady state.
        let dims = GemmDims {
            rows: 64,
            inner: 256,
            cols: 128,
        };
        let e32_cfg = ExperimentConfig::paper();
        assert!(
            !e32_cfg.caps.clips(dims),
            "acceptance shape must run uncapped"
        );
        let e32 = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac2, &e32_cfg).unwrap();
        let e8_cfg = ExperimentConfig::quantized(Precision::I8);
        let e8 = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac2, &e8_cfg).unwrap();
        assert!(
            e8.report.cycles < e32.report.cycles,
            "e8 {} cycles vs e32 {}",
            e8.report.cycles,
            e32.report.cycles
        );
        assert!(
            e8.report.counts.vector_total() * 2 <= e32.report.counts.vector_total(),
            "e8 {} vector instructions vs e32 {}",
            e8.report.counts.vector_total(),
            e32.report.counts.vector_total()
        );
        assert!(e8.report.instructions < e32.report.instructions);
    }

    #[test]
    fn quantized_grouped_e16_runs() {
        // e16 supports m2 (widen 2 x lmul 2 = the m4 accumulator cap).
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 64,
        };
        let cfg = ExperimentConfig {
            lmul: 2,
            caps: indexmac_models::GemmCaps::smoke(),
            ..ExperimentConfig::quantized(Precision::I16)
        };
        let r = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac2, &cfg).unwrap();
        assert!(r.report.cycles > 0);
        // e8 with grouping exceeds the accumulator cap and is rejected.
        let bad = ExperimentConfig {
            lmul: 2,
            ..ExperimentConfig::quantized(Precision::I8)
        };
        assert!(run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac2, &bad).is_err());
    }

    #[test]
    fn compare_model_honours_the_models_precision() {
        // An int8 preset under a default f32 campaign must simulate the
        // e8 datapath with the vindexmac kernel pair — not silently run
        // f32 under an "-int8" label.
        let full = indexmac_models::resnet50_int8();
        let tiny = full.head(2);
        let c = compare_model(&tiny, NmPattern::P1_4, &cfg()).unwrap();
        assert_eq!(c.precision, Precision::I8);
        for l in &c.layers {
            assert_eq!(l.comparison.baseline.algorithm, Algorithm::IndexMac);
            assert_eq!(l.comparison.proposed.algorithm, Algorithm::IndexMac2);
        }
        // And an f32 model under an f32 campaign is untouched.
        let f = compare_model(
            &indexmac_models::resnet50().head(1),
            NmPattern::P1_4,
            &cfg(),
        )
        .unwrap();
        assert_eq!(f.precision, Precision::F32);
        assert_eq!(
            f.layers[0].comparison.baseline.algorithm,
            Algorithm::RowWiseSpmm
        );
    }

    #[test]
    fn transformer_config_pairs_the_two_generations_under_m2() {
        let cfg = ExperimentConfig::transformer();
        assert_eq!(cfg.baseline, Algorithm::IndexMac);
        assert_eq!(cfg.proposed, Algorithm::IndexMac2);
        assert_eq!(cfg.lmul, 2);
        assert_eq!(cfg.precision, Precision::F32);
    }

    #[test]
    fn compare_model_clamps_grouping_for_quantized_presets() {
        // The transformer campaign runs m2, but e8 widens 4×: grouping
        // must clamp to m1 instead of erroring (and e16 may keep m2).
        let bert = indexmac_models::bert_base_int8().head(1);
        let cfg = ExperimentConfig {
            caps: indexmac_models::GemmCaps::smoke(),
            ..ExperimentConfig::transformer()
        };
        let c = compare_model(&bert, NmPattern::P2_4, &cfg).unwrap();
        assert_eq!(c.precision, Precision::I8);
        assert!(c.layers[0].comparison.proposed.report.cycles > 0);
        let i16_model = indexmac_models::bert_base()
            .head(1)
            .with_precision("BERT-base-i16-head", Precision::I16);
        assert!(compare_model(&i16_model, NmPattern::P2_4, &cfg).is_ok());
    }

    #[test]
    fn compare_model_dedupes_repeated_shapes_bit_identically() {
        // Transformer blocks repeat one geometry; the deduped driver
        // must return exactly what a naive per-layer loop returns.
        let model = indexmac_models::bert_base().head(8); // spans 2 blocks
        let cfg = cfg();
        let c = compare_model(&model, NmPattern::P1_4, &cfg).unwrap();
        assert_eq!(c.layers.len(), 8);
        for (layer, result) in model.layers.iter().zip(&c.layers) {
            let manual = compare_gemm(layer.gemm, NmPattern::P1_4, &cfg).unwrap();
            assert_eq!(result.comparison.baseline.report, manual.baseline.report);
            assert_eq!(result.comparison.proposed.report, manual.proposed.report);
        }
        // Layers 0 (block0.attn.q) and 6 (block1.attn.q) share a shape.
        assert_eq!(
            c.layers[0].comparison.proposed.report,
            c.layers[6].comparison.proposed.report
        );
    }

    #[test]
    fn decode_cache_hits_repeated_shapes_across_seeds() {
        // The transformer/sweep pattern: one shape, many seeds. The
        // program depends only on (algorithm, layout, params), so every
        // run after the first must be a decode-cache hit — with results
        // identical to what a cold simulator produces.
        reset_decode_cache();
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        let mut reports = Vec::new();
        for seed in 0..4u64 {
            let cfg = ExperimentConfig {
                seed,
                ..ExperimentConfig::fast()
            };
            reports.push(
                run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac2, &cfg)
                    .unwrap()
                    .report,
            );
        }
        let stats = decode_cache_stats();
        assert_eq!(stats.misses, 1, "one build+decode for four runs");
        assert_eq!(stats.hits, 3, "seeds 1..3 reuse the decoded kernel");
        assert_eq!(stats.entries, 1);
        // Different seeds still produce different dynamics? No — the
        // program (and instruction count) is seed-independent; only the
        // data changes. Cycles may coincide, but the run must be real:
        assert!(reports.iter().all(|r| r.cycles > 0));
        // A different pattern is a different layout -> new entry.
        run_gemm(
            dims,
            NmPattern::P2_4,
            Algorithm::IndexMac2,
            &ExperimentConfig::fast(),
        )
        .unwrap();
        assert_eq!(decode_cache_stats().misses, 2);
    }

    #[test]
    fn warm_context_is_bit_identical_across_config_switches() {
        // Alternating configurations through the shared thread-local
        // simulator must not leak state between runs.
        reset_decode_cache();
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        let f32_cfg = ExperimentConfig::fast();
        let e8_cfg = ExperimentConfig {
            caps: indexmac_models::GemmCaps::smoke(),
            ..ExperimentConfig::quantized(Precision::I8)
        };
        let first_f32 = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac, &f32_cfg).unwrap();
        let first_e8 = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac2, &e8_cfg).unwrap();
        let again_f32 = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac, &f32_cfg).unwrap();
        let again_e8 = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac2, &e8_cfg).unwrap();
        assert_eq!(first_f32.report, again_f32.report);
        assert_eq!(first_e8.report, again_e8.report);
    }

    #[test]
    fn max_instructions_guard_is_tunable() {
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        let tight = ExperimentConfig {
            max_instructions: 10,
            ..ExperimentConfig::fast()
        };
        let err = run_gemm(dims, NmPattern::P1_4, Algorithm::IndexMac, &tight).unwrap_err();
        assert!(
            err.to_string().contains("instruction limit"),
            "tight guard must trip: {err}"
        );
        // The default guard is untouched by the tight run before it.
        assert!(run_gemm(
            dims,
            NmPattern::P1_4,
            Algorithm::IndexMac,
            &ExperimentConfig::fast()
        )
        .is_ok());
    }

    #[test]
    fn results_are_deterministic() {
        let dims = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        let a = run_gemm(dims, NmPattern::P2_4, Algorithm::IndexMac, &cfg()).unwrap();
        let b = run_gemm(dims, NmPattern::P2_4, Algorithm::IndexMac, &cfg()).unwrap();
        assert_eq!(a.report.cycles, b.report.cycles);
        assert_eq!(a.report.mem.total_accesses(), b.report.mem.total_accesses());
    }

    #[test]
    fn program_cache_fifo_eviction_survives_a_full_budget_cycle() {
        // Regression for the O(n) `Vec::remove(0)` eviction: drive a
        // deliberately tiny µop budget through a full insert-evict-
        // reinsert cycle and check the stats and resident set stay
        // consistent under the VecDeque FIFO.
        let cfg = ExperimentConfig::fast();
        let mut cache = ProgramCache::new();
        let mut keys = Vec::new();
        for rows in [4usize, 5, 6] {
            let dims = GemmDims {
                rows,
                inner: 32,
                cols: 16,
            };
            let (a, _) = operands(dims, NmPattern::P1_4, cfg.seed, cfg.precision);
            let (layout, params) = plan_kernel(Algorithm::IndexMac2, &a, dims.cols, &cfg).unwrap();
            keys.push((layout, params));
        }
        let first = cache
            .get_or_build(Algorithm::IndexMac2, &keys[0].0, &keys[0].1)
            .unwrap();
        assert_eq!((cache.stats.misses, cache.stats.evictions), (1, 0));
        // Budget = exactly the first entry: every later insertion must
        // evict the oldest resident entry, oldest-first.
        cache.max_uops = first.len();
        for (layout, params) in &keys[1..] {
            cache
                .get_or_build(Algorithm::IndexMac2, layout, params)
                .unwrap();
            assert_eq!(cache.stats.entries, 1);
        }
        assert_eq!((cache.stats.misses, cache.stats.evictions), (3, 2));
        // Cycling back to the first key: it was evicted, so this is a
        // miss that in turn evicts the current resident...
        cache
            .get_or_build(Algorithm::IndexMac2, &keys[0].0, &keys[0].1)
            .unwrap();
        assert_eq!((cache.stats.misses, cache.stats.evictions), (4, 3));
        // ...and re-requesting the now-resident entry is a pure hit.
        cache
            .get_or_build(Algorithm::IndexMac2, &keys[0].0, &keys[0].1)
            .unwrap();
        assert_eq!((cache.stats.hits, cache.stats.evictions), (1, 3));
        let resident: usize = cache.entries.iter().map(|(.., k)| k.len()).sum();
        assert_eq!(cache.resident_uops, resident, "accounting stays exact");
        // The entry just inserted is never evicted, even over budget.
        cache.max_uops = 0;
        cache
            .get_or_build(Algorithm::IndexMac2, &keys[1].0, &keys[1].1)
            .unwrap();
        assert_eq!(cache.stats.entries, 1, "in-flight entry must survive");
        assert_eq!(cache.entries.len(), 1);
    }
}
