//! The traced replay of one comparison cell.
//!
//! `indexmac::experiment::run_gemm` is a short pipeline over the
//! workspace crates' public functions: generate operands (`sparse`),
//! plan the layout and build the kernel (`kernels`), decode and analyze
//! it (`vpu`), place the operands in simulated memory (`mem`), run the
//! timed simulation (`vpu`), read the product back and verify it
//! (`kernels`). Its private decode-once cache skips build, decode and
//! analyze for a kernel it already holds. This module performs the same
//! steps with a span around each call, and keeps a cache with the same
//! key, budget and FIFO eviction, so the traced run does the same work
//! as the untraced one and its hit/miss/eviction counts can be checked
//! against `decode_cache_stats()`. The traced run asserts that the
//! reports it produces equal the untraced run's.

use crate::trace::span;
use indexmac::experiment::{
    Algorithm, ExperimentConfig, ExperimentError, GemmComparison, LayerResult,
};
use indexmac::sparse::{prune, DenseMatrix, NmPattern, StructuredSparseMatrix};
use indexmac_kernels::verify::{self, KernelRun, VerifyError};
use indexmac_kernels::{
    dense, indexmac as vx, indexmac2 as vvi, rowwise, scalar_idx, GemmDims, GemmLayout,
    KernelParams,
};
use indexmac_vpu::{DecodedProgram, RunReport, Simulator, Verified};
use std::collections::VecDeque;
use std::rc::Rc;

/// µop budget of the core's per-thread decode cache
/// (`PROGRAM_CACHE_MAX_UOPS` in `indexmac::experiment`).
const CACHE_MAX_UOPS: usize = 2 << 20;

type CacheEntry = (
    Algorithm,
    GemmLayout,
    KernelParams,
    Rc<DecodedProgram>,
    Option<Verified>,
);

/// Counts the traced replay accumulates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Kernels decoded (one per cache miss).
    pub decode_calls: u64,
    /// Kernels analyzed (one per cache miss).
    pub analyze_calls: u64,
    /// Static instructions of the kernels built.
    pub static_instrs: u64,
    /// Instructions retired by the timed runs.
    pub instret: u64,
}

/// Traced replay state: the decode cache and one reusable simulator.
pub struct Replica {
    cache: VecDeque<CacheEntry>,
    resident_uops: usize,
    sim: Option<Simulator>,
    pub counts: Counts,
}

impl Replica {
    pub fn new() -> Self {
        Self {
            cache: VecDeque::new(),
            resident_uops: 0,
            sim: None,
            counts: Counts::default(),
        }
    }

    /// `indexmac::experiment::compare_gemm`, traced.
    pub fn compare_gemm(
        &mut self,
        dims: GemmDims,
        pattern: NmPattern,
        cfg: &ExperimentConfig,
    ) -> Result<GemmComparison, ExperimentError> {
        Ok(GemmComparison {
            baseline: self.run_gemm(dims, pattern, cfg.baseline, cfg)?,
            proposed: self.run_gemm(dims, pattern, cfg.proposed, cfg)?,
        })
    }

    /// `indexmac::experiment::run_gemm` for an f32 campaign, traced.
    fn run_gemm(
        &mut self,
        dims: GemmDims,
        pattern: NmPattern,
        algorithm: Algorithm,
        cfg: &ExperimentConfig,
    ) -> Result<LayerResult, ExperimentError> {
        assert!(
            !cfg.precision.is_int(),
            "the traced replay covers the f32 workloads only"
        );
        let capped = cfg.caps.apply(dims);
        let (a, b) = span("sparse", "sparse.operands", || {
            let a = prune::random_structured(capped.rows, capped.inner, pattern, cfg.seed);
            let b = DenseMatrix::random(capped.inner, capped.cols, cfg.seed.wrapping_add(1));
            (a, b)
        });
        let (layout, params) = span("kernels", "kernels.plan", || {
            plan_kernel(algorithm, &a, capped.cols, cfg)
        })?;
        let (program, token) = self.kernel(algorithm, &layout, &params)?;

        let sim = self.sim.get_or_insert_with(|| Simulator::new(cfg.sim));
        if sim.config() != &cfg.sim {
            *sim = Simulator::new(cfg.sim);
        }
        sim.set_max_instructions(cfg.max_instructions);
        span("mem", "mem.place", || {
            sim.reset();
            layout.write_operands(&a, &b, sim.memory_mut());
        });
        let report: RunReport = span("vpu", "vpu.run", || match token {
            Some(token) => sim.run_decoded_verified(&program, token),
            None => sim.run_decoded(&program),
        })
        .map_err(VerifyError::from)?;
        self.counts.instret += report.instructions;
        let c = span("mem", "mem.readback", || layout.read_c(sim.memory()));
        let run = KernelRun {
            c,
            c_int: None,
            report,
            static_instructions: program.len(),
        };
        if cfg.verify && algorithm != Algorithm::Dense {
            span("kernels", "kernels.verify", || {
                verify::check_against_reference(
                    &run,
                    &a,
                    &b,
                    verify::default_tolerance(layout.dims.inner),
                )
            })?;
        }
        Ok(LayerResult {
            algorithm,
            pattern,
            gemm: capped,
            full_gemm: dims,
            report: run.report,
        })
    }

    /// Cache lookup; on a miss, build, decode and analyze the kernel.
    fn kernel(
        &mut self,
        algorithm: Algorithm,
        layout: &GemmLayout,
        params: &KernelParams,
    ) -> Result<(Rc<DecodedProgram>, Option<Verified>), ExperimentError> {
        if let Some((.., program, token)) = self
            .cache
            .iter()
            .find(|(alg, l, p, ..)| *alg == algorithm && l == layout && p == params)
        {
            self.counts.cache_hits += 1;
            return Ok((Rc::clone(program), *token));
        }
        self.counts.cache_misses += 1;
        let program = span("kernels", "kernels.build", || {
            build_kernel(algorithm, layout, params)
        })?;
        self.counts.static_instrs += program.len() as u64;
        let decoded = Rc::new(span("vpu", "vpu.decode", || {
            DecodedProgram::decode(&program)
        }));
        self.counts.decode_calls += 1;
        // The same VLEN the core's cache analyzes at: the grouped
        // register width of the layout.
        let vlen_bits = layout.vl * layout.elem.bits();
        let token = span("vpu", "vpu.analyze", || {
            indexmac_vpu::analyze_with_contract(
                &decoded,
                vlen_bits,
                Some(&layout.analysis_contract()),
            )
            .verified()
        });
        self.counts.analyze_calls += 1;
        self.resident_uops += decoded.len();
        self.cache.push_back((
            algorithm,
            layout.clone(),
            *params,
            Rc::clone(&decoded),
            token,
        ));
        while self.resident_uops > CACHE_MAX_UOPS && self.cache.len() > 1 {
            let (.., evicted, _) = self.cache.pop_front().expect("len > 1");
            self.resident_uops -= evicted.len();
            self.counts.cache_evictions += 1;
        }
        Ok((decoded, token))
    }
}

/// The layout and effective kernel parameters `run_gemm` plans for one
/// `(algorithm, shape)` pair.
fn plan_kernel(
    algorithm: Algorithm,
    a: &StructuredSparseMatrix,
    cols: usize,
    cfg: &ExperimentConfig,
) -> Result<(GemmLayout, KernelParams), ExperimentError> {
    let (tile_rows, lmul) = if algorithm == Algorithm::IndexMac2 {
        let fitted = GemmLayout::fit_tile_rows(cfg.tile_rows, cfg.lmul, a.pattern());
        (fitted, cfg.lmul)
    } else {
        (cfg.tile_rows, 1)
    };
    let layout = GemmLayout::plan_elem(a, cols, &cfg.sim, tile_rows, lmul, cfg.precision)?;
    let unroll = match algorithm {
        Algorithm::IndexMac2 => cfg.params.unroll.min(vvi::max_unroll(&layout)),
        Algorithm::IndexMac => cfg.params.unroll.min(vx::max_unroll(&layout)),
        _ => cfg.params.unroll,
    };
    Ok((
        layout,
        KernelParams {
            unroll,
            ..cfg.params
        },
    ))
}

fn build_kernel(
    algorithm: Algorithm,
    layout: &GemmLayout,
    params: &KernelParams,
) -> Result<indexmac::isa::Program, ExperimentError> {
    Ok(match algorithm {
        Algorithm::Dense => dense::build(layout, params)?,
        Algorithm::RowWiseSpmm => rowwise::build(layout, params)?,
        Algorithm::IndexMac => vx::build(layout, params)?,
        Algorithm::IndexMac2 => vvi::build(layout, params)?,
        Algorithm::ScalarIndexed => scalar_idx::build(layout, params)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac::experiment::{compare_gemm, decode_cache_stats, reset_decode_cache};

    #[test]
    fn replay_matches_the_core_and_its_cache_counts() {
        let cfg = ExperimentConfig::fast();
        let shapes = [
            GemmDims {
                rows: 8,
                inner: 64,
                cols: 32,
            },
            GemmDims {
                rows: 16,
                inner: 128,
                cols: 32,
            },
            GemmDims {
                rows: 8,
                inner: 64,
                cols: 32,
            },
        ];
        reset_decode_cache();
        let mut replica = Replica::new();
        for dims in shapes {
            let want = compare_gemm(dims, NmPattern::P1_4, &cfg).unwrap();
            let got = replica.compare_gemm(dims, NmPattern::P1_4, &cfg).unwrap();
            assert_eq!(got, want);
        }
        let core = decode_cache_stats();
        assert_eq!(replica.counts.cache_hits, core.hits);
        assert_eq!(replica.counts.cache_misses, core.misses);
        assert_eq!(replica.counts.cache_evictions, core.evictions);
        assert_eq!(replica.counts.cache_hits, 2);
    }
}
