//! Running kernels on the simulator and checking results against the
//! reference product.

use crate::layout::GemmLayout;
use indexmac_isa::Program;
use indexmac_sparse::{quant, DenseMatrix, IntMatrix, StructuredSparseMatrix};
use indexmac_vpu::{Analysis, DecodedProgram, RunReport, SimConfig, SimError, Simulator};
use std::error::Error;
use std::fmt;

/// Tolerance for comparing simulated and reference products on a GEMM
/// with inner dimension `inner`.
///
/// The kernels and reference accumulate the same terms, but not always
/// in the same grouping (tiling changes the association), so rounding
/// error grows with the length of the reduction. A flat bound (the old
/// `1e-4`) is both needlessly slack for tiny GEMMs and — because the
/// worst-case drift of a `k`-term float32 reduction is `O(k · eps ·
/// |partial sums|)` — a flake waiting to happen at `k` in the
/// thousands. This bound scales linearly with `k`, floored so tiny
/// reductions keep a workable allowance:
/// `max(k, 64) * 8 * f32::EPSILON` (≈ `6.1e-5` up to `k = 64`,
/// ≈ `3.9e-3` at `k = 4096`).
pub fn default_tolerance(inner: usize) -> f32 {
    (inner.max(64) as f32) * 8.0 * f32::EPSILON
}

/// Result of one simulated kernel execution.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The computed product, read back from simulated memory. On the
    /// quantized paths this is the i32 accumulator converted to `f32`
    /// for display — exactness lives in [`KernelRun::c_int`].
    pub c: DenseMatrix,
    /// The i32 accumulator-domain product of a quantized run (`None`
    /// for f32 layouts). Compared with `==` against the exact integer
    /// reference — no tolerance.
    pub c_int: Option<IntMatrix>,
    /// Timing/traffic measurements.
    pub report: RunReport,
    /// Static program length in instructions.
    pub static_instructions: usize,
}

/// Verification errors.
#[derive(Debug)]
pub enum VerifyError {
    /// The simulator faulted.
    Sim(SimError),
    /// The computed product diverged from the reference.
    Mismatch {
        /// Largest absolute element difference.
        max_abs_diff: f32,
        /// Tolerance that was exceeded.
        tolerance: f32,
    },
    /// A quantized product diverged from the exact i32 reference —
    /// integer arithmetic admits no tolerance, so a single-LSB error is
    /// reported with its position and both values.
    IntMismatch {
        /// Row of the first mismatching element.
        row: usize,
        /// Column of the first mismatching element.
        col: usize,
        /// The kernel's value.
        got: i32,
        /// The reference value.
        want: i32,
    },
    /// Operand shapes disagree with the layout.
    ShapeMismatch,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Sim(e) => write!(f, "simulation failed: {e}"),
            VerifyError::Mismatch {
                max_abs_diff,
                tolerance,
            } => write!(
                f,
                "kernel result differs from reference by {max_abs_diff} (tolerance {tolerance})"
            ),
            VerifyError::IntMismatch {
                row,
                col,
                got,
                want,
            } => write!(
                f,
                "quantized kernel result differs from the exact i32 reference at \
                 ({row},{col}): got {got}, want {want}"
            ),
            VerifyError::ShapeMismatch => write!(f, "operand shapes disagree with the layout"),
        }
    }
}

impl Error for VerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> Self {
        VerifyError::Sim(e)
    }
}

/// Places the operands, runs `program` with full timing, and returns the
/// product and measurements.
///
/// # Errors
///
/// Returns [`VerifyError::ShapeMismatch`] on inconsistent operands and
/// [`VerifyError::Sim`] on simulator faults.
pub fn run_kernel(
    program: &Program,
    a: &StructuredSparseMatrix,
    b: &DenseMatrix,
    layout: &GemmLayout,
    cfg: &SimConfig,
) -> Result<KernelRun, VerifyError> {
    let mut sim = Simulator::new(*cfg);
    run_decoded_kernel(&mut sim, &DecodedProgram::decode(program), a, b, layout)
}

/// The warm-execution counterpart of [`run_kernel`]: places the
/// operands and runs an **already-decoded** program on a **reusable**
/// simulator. The simulator is reset in place (state and memory, both
/// allocations retained), so an experiment driver can run thousands of
/// cells through one `Simulator` with a `ProgramCache` of decoded
/// kernels, decoding each distinct kernel exactly once. Results are
/// bit-identical to [`run_kernel`] — a reset simulator and a fresh one
/// are indistinguishable, and the timing model is rebuilt cold per run.
///
/// # Errors
///
/// Returns [`VerifyError::ShapeMismatch`] on inconsistent operands and
/// [`VerifyError::Sim`] on simulator faults.
pub fn run_decoded_kernel(
    sim: &mut Simulator,
    program: &DecodedProgram,
    a: &StructuredSparseMatrix,
    b: &DenseMatrix,
    layout: &GemmLayout,
) -> Result<KernelRun, VerifyError> {
    place_operands(sim, a, b, layout)?;
    let report = sim.run_decoded(program)?;
    Ok(read_back(sim, layout, report, program.len()))
}

/// Statically analyzes a decoded kernel against its layout's memory
/// contract at the configuration's VLEN, without running it. This is
/// what `lint` reports; no simulation path consults it. A shipped
/// builder's program always analyzes clean (`.verified()` is `Some`),
/// which emission itself enforces in debug builds.
pub fn analyze_kernel(program: &DecodedProgram, layout: &GemmLayout, cfg: &SimConfig) -> Analysis {
    indexmac_vpu::analyze_with_contract(program, cfg.vlen_bits, Some(&layout.analysis_contract()))
}

fn place_operands(
    sim: &mut Simulator,
    a: &StructuredSparseMatrix,
    b: &DenseMatrix,
    layout: &GemmLayout,
) -> Result<(), VerifyError> {
    if a.shape() != (layout.dims.rows, layout.dims.inner)
        || b.shape() != (layout.dims.inner, layout.dims.cols)
    {
        return Err(VerifyError::ShapeMismatch);
    }
    sim.reset();
    layout.write_operands(a, b, sim.memory_mut());
    Ok(())
}

fn read_back(
    sim: &Simulator,
    layout: &GemmLayout,
    report: RunReport,
    static_instructions: usize,
) -> KernelRun {
    let (c, c_int) = if layout.elem.is_int() {
        let ci = layout.read_c_i32(sim.memory());
        let c = DenseMatrix::from_fn(layout.dims.rows, layout.dims.cols, |r, j| {
            ci.get(r, j) as f32
        });
        (c, Some(ci))
    } else {
        (layout.read_c(sim.memory()), None)
    };
    KernelRun {
        c,
        c_int,
        report,
        static_instructions,
    }
}

/// Checks a kernel run against the structured-sparse reference product.
///
/// # Errors
///
/// Returns [`VerifyError::Mismatch`] when any element differs by more
/// than `tolerance`.
pub fn check_against_reference(
    run: &KernelRun,
    a: &StructuredSparseMatrix,
    b: &DenseMatrix,
    tolerance: f32,
) -> Result<(), VerifyError> {
    let reference = a
        .spmm_reference(b)
        .map_err(|_| VerifyError::ShapeMismatch)?;
    let max_abs_diff = run.c.max_abs_diff(&reference);
    if max_abs_diff > tolerance {
        return Err(VerifyError::Mismatch {
            max_abs_diff,
            tolerance,
        });
    }
    Ok(())
}

/// Checks a quantized kernel run **bit-exactly** against the i32
/// reference product: integer results must match with `==` — the float
/// `default_tolerance` path never applies, so a ±1 LSB error is caught.
///
/// # Errors
///
/// Returns [`VerifyError::IntMismatch`] at the first differing element
/// and [`VerifyError::ShapeMismatch`] when the run carries no integer
/// result (an f32 run routed to the integer checker) or the operands
/// disagree.
pub fn check_int_exact(
    run: &KernelRun,
    a: &StructuredSparseMatrix,
    b: &DenseMatrix,
) -> Result<(), VerifyError> {
    let got = run.c_int.as_ref().ok_or(VerifyError::ShapeMismatch)?;
    let reference = quant::spmm_reference_i32(a, b).map_err(|_| VerifyError::ShapeMismatch)?;
    if got.shape() != reference.shape() {
        return Err(VerifyError::ShapeMismatch);
    }
    if let Some((row, col, got, want)) = got.first_mismatch(&reference) {
        return Err(VerifyError::IntMismatch {
            row,
            col,
            got,
            want,
        });
    }
    Ok(())
}

/// Convenience: run and verify in one call. Quantized layouts verify
/// bit-exactly via [`check_int_exact`]; f32 layouts use the `k`-scaled
/// tolerance.
///
/// # Errors
///
/// Any of the [`VerifyError`] conditions.
pub fn run_and_check(
    program: &Program,
    a: &StructuredSparseMatrix,
    b: &DenseMatrix,
    layout: &GemmLayout,
    cfg: &SimConfig,
) -> Result<KernelRun, VerifyError> {
    let mut sim = Simulator::new(*cfg);
    run_and_check_decoded(&mut sim, &DecodedProgram::decode(program), a, b, layout)
}

/// [`run_and_check`] over a reusable simulator and a decoded program —
/// the warm-path combination [`run_decoded_kernel`] + the precision's
/// checker.
///
/// # Errors
///
/// Any of the [`VerifyError`] conditions.
pub fn run_and_check_decoded(
    sim: &mut Simulator,
    program: &DecodedProgram,
    a: &StructuredSparseMatrix,
    b: &DenseMatrix,
    layout: &GemmLayout,
) -> Result<KernelRun, VerifyError> {
    let run = run_decoded_kernel(sim, program, a, b, layout)?;
    if layout.elem.is_int() {
        check_int_exact(&run, a, b)?;
    } else {
        check_against_reference(&run, a, b, default_tolerance(layout.dims.inner))?;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dense, indexmac, indexmac2, rowwise, scalar_idx, Dataflow, KernelParams};
    use indexmac_sparse::{prune, NmPattern};

    fn cfg() -> SimConfig {
        SimConfig::table_i()
    }

    fn fixture(
        rows: usize,
        inner: usize,
        cols: usize,
        pattern: NmPattern,
        seed: u64,
    ) -> (StructuredSparseMatrix, DenseMatrix, GemmLayout) {
        let a = prune::random_structured(rows, inner, pattern, seed);
        let b = DenseMatrix::random(inner, cols, seed + 1);
        let layout = GemmLayout::plan(&a, cols, &cfg(), 16).unwrap();
        (a, b, layout)
    }

    #[test]
    fn rowwise_computes_reference_product() {
        for pattern in NmPattern::ALL {
            let (a, b, layout) = fixture(6, 32, 20, pattern, 42);
            let p = rowwise::build(&layout, &KernelParams::default()).unwrap();
            run_and_check(&p, &a, &b, &layout, &cfg())
                .unwrap_or_else(|e| panic!("pattern {pattern}: {e}"));
        }
    }

    #[test]
    fn rowwise_all_dataflows_agree() {
        let (a, b, layout) = fixture(7, 48, 18, NmPattern::P2_4, 5);
        for df in Dataflow::ALL {
            let p = rowwise::build(
                &layout,
                &KernelParams {
                    unroll: 4,
                    dataflow: df,
                },
            )
            .unwrap();
            run_and_check(&p, &a, &b, &layout, &cfg()).unwrap_or_else(|e| panic!("{df}: {e}"));
        }
    }

    #[test]
    fn indexmac_computes_reference_product() {
        for pattern in NmPattern::ALL {
            let (a, b, layout) = fixture(6, 32, 20, pattern, 43);
            let p = indexmac::build(&layout, &KernelParams::default()).unwrap();
            run_and_check(&p, &a, &b, &layout, &cfg())
                .unwrap_or_else(|e| panic!("pattern {pattern}: {e}"));
        }
    }

    #[test]
    fn indexmac2_computes_reference_product() {
        for pattern in NmPattern::ALL {
            let (a, b, layout) = fixture(6, 32, 20, pattern, 52);
            let p = indexmac2::build(&layout, &KernelParams::default()).unwrap();
            run_and_check(&p, &a, &b, &layout, &cfg())
                .unwrap_or_else(|e| panic!("pattern {pattern}: {e}"));
        }
    }

    #[test]
    fn indexmac2_grouped_computes_reference_product() {
        for (lmul, tile_rows, unroll) in [(2, 8, 4), (4, 4, 2)] {
            let a = prune::random_structured(6, 32, NmPattern::P2_4, 53);
            let b = DenseMatrix::random(32, 40, 54);
            let layout = GemmLayout::plan_grouped(&a, 40, &cfg(), tile_rows, lmul).unwrap();
            let p = indexmac2::build(
                &layout,
                &KernelParams {
                    unroll,
                    ..Default::default()
                },
            )
            .unwrap();
            run_and_check(&p, &a, &b, &layout, &cfg())
                .unwrap_or_else(|e| panic!("lmul {lmul}: {e}"));
        }
    }

    #[test]
    fn second_generation_beats_algorithm_3() {
        let (a, b, layout) = fixture(16, 64, 64, NmPattern::P1_4, 55);
        let v1 = run_and_check(
            &indexmac::build(&layout, &KernelParams::default()).unwrap(),
            &a,
            &b,
            &layout,
            &cfg(),
        )
        .unwrap();
        let v2 = run_and_check(
            &indexmac2::build(&layout, &KernelParams::default()).unwrap(),
            &a,
            &b,
            &layout,
            &cfg(),
        )
        .unwrap();
        assert!(
            v2.report.cycles < v1.report.cycles,
            "vvi {} cycles vs vx {}",
            v2.report.cycles,
            v1.report.cycles
        );
        assert!(
            v2.report.instructions < v1.report.instructions,
            "vvi {} instret vs vx {}",
            v2.report.instructions,
            v1.report.instructions
        );
        assert_eq!(v2.report.v2s_syncs, 0, "no cross-domain coupling left");
        assert!(v1.report.v2s_syncs > 0);
    }

    #[test]
    fn indexmac_all_unrolls_agree() {
        let (a, b, layout) = fixture(5, 32, 33, NmPattern::P1_4, 44);
        for unroll in [1, 2, 3, 4] {
            let p = indexmac::build(
                &layout,
                &KernelParams {
                    unroll,
                    ..Default::default()
                },
            )
            .unwrap();
            run_and_check(&p, &a, &b, &layout, &cfg())
                .unwrap_or_else(|e| panic!("unroll {unroll}: {e}"));
        }
    }

    #[test]
    fn dense_computes_reference_product() {
        let (a, b, layout) = fixture(4, 24, 20, NmPattern::P2_4, 45);
        let p = dense::build(&layout, &KernelParams::default()).unwrap();
        let run = run_kernel(&p, &a, &b, &layout, &cfg()).unwrap();
        let reference = a.to_dense().matmul(&b).unwrap();
        assert!(
            run.c.approx_eq(&reference, default_tolerance(24)),
            "max diff {}",
            run.c.max_abs_diff(&reference)
        );
    }

    #[test]
    fn scalar_idx_computes_reference_product() {
        let (a, b, layout) = fixture(6, 32, 20, NmPattern::P2_4, 46);
        let p = scalar_idx::build(&layout, &KernelParams::default()).unwrap();
        run_and_check(&p, &a, &b, &layout, &cfg()).unwrap();
    }

    #[test]
    fn proposed_beats_baseline_on_cycles_and_traffic() {
        let (a, b, layout) = fixture(16, 64, 64, NmPattern::P1_4, 47);
        let base = run_and_check(
            &rowwise::build(&layout, &KernelParams::default()).unwrap(),
            &a,
            &b,
            &layout,
            &cfg(),
        )
        .unwrap();
        let prop = run_and_check(
            &indexmac::build(&layout, &KernelParams::default()).unwrap(),
            &a,
            &b,
            &layout,
            &cfg(),
        )
        .unwrap();
        assert!(
            prop.report.cycles < base.report.cycles,
            "proposed {} cycles vs baseline {}",
            prop.report.cycles,
            base.report.cycles
        );
        assert!(prop.report.mem.total_accesses() < base.report.mem.total_accesses());
    }

    #[test]
    fn ragged_shapes_still_verify() {
        // Deliberately awkward dims: rows % unroll != 0, inner % L != 0,
        // cols % VL != 0.
        let (a, b, layout) = fixture(5, 19, 21, NmPattern::P1_4, 48);
        for p in [
            rowwise::build(&layout, &KernelParams::default()).unwrap(),
            indexmac::build(&layout, &KernelParams::default()).unwrap(),
        ] {
            run_and_check(&p, &a, &b, &layout, &cfg()).unwrap();
        }
    }

    #[test]
    fn mismatch_detected() {
        let (a, b, layout) = fixture(3, 16, 8, NmPattern::P1_4, 49);
        let p = indexmac::build(&layout, &KernelParams::default()).unwrap();
        let mut run = run_kernel(&p, &a, &b, &layout, &cfg()).unwrap();
        run.c.set(0, 0, run.c.get(0, 0) + 1.0);
        assert!(matches!(
            check_against_reference(&run, &a, &b, default_tolerance(16)),
            Err(VerifyError::Mismatch { .. })
        ));
    }

    #[test]
    fn tolerance_scales_with_inner_dimension() {
        // Tiny reductions get a *tighter* bound than the old flat 1e-4;
        // k = 4096 gets a *looser* one (the flat bound would flake).
        assert!(default_tolerance(16) < 1e-4);
        assert!(default_tolerance(64) < 1e-4);
        assert!(default_tolerance(4096) > 1e-4);
        // Monotone in k above the floor.
        assert!(default_tolerance(8192) > default_tolerance(4096));
        assert_eq!(default_tolerance(1), default_tolerance(64));
    }

    #[test]
    fn deep_reduction_verifies_under_scaled_tolerance() {
        // Regression for the k = 4096 flake: a reduction 256 k-tiles
        // deep must still verify, which the k-scaled bound guarantees
        // headroom for.
        let (a, b, layout) = fixture(2, 4096, 8, NmPattern::P1_4, 51);
        assert_eq!(layout.num_ktiles, 256);
        let p = indexmac::build(&layout, &KernelParams::default()).unwrap();
        run_and_check(&p, &a, &b, &layout, &cfg()).unwrap();
    }

    fn int_fixture(
        rows: usize,
        inner: usize,
        cols: usize,
        pattern: NmPattern,
        elem: indexmac_sparse::ElemType,
        seed: u64,
    ) -> (StructuredSparseMatrix, DenseMatrix, GemmLayout) {
        use indexmac_sparse::quant;
        let a = quant::random_structured_int(rows, inner, pattern, seed, elem);
        let b = quant::random_dense_int(inner, cols, seed + 1, elem);
        let layout = GemmLayout::plan_elem(&a, cols, &cfg(), 16, 1, elem).unwrap();
        (a, b, layout)
    }

    #[test]
    fn quantized_indexmac_kernels_are_bit_exact() {
        use indexmac_sparse::ElemType;
        for elem in [ElemType::I8, ElemType::I16] {
            for pattern in NmPattern::EVALUATED {
                let (a, b, layout) = int_fixture(5, 32, 70, pattern, elem, 60);
                let unroll = crate::indexmac::max_unroll(&layout);
                let params = KernelParams {
                    unroll,
                    ..Default::default()
                };
                let r1 = run_and_check(
                    &crate::indexmac::build(&layout, &params).unwrap(),
                    &a,
                    &b,
                    &layout,
                    &cfg(),
                )
                .unwrap_or_else(|e| panic!("{elem} {pattern} vx: {e}"));
                assert!(r1.c_int.is_some(), "quantized runs carry the i32 product");
                let params2 = KernelParams {
                    unroll: indexmac2::max_unroll(&layout),
                    ..Default::default()
                };
                run_and_check(
                    &indexmac2::build(&layout, &params2).unwrap(),
                    &a,
                    &b,
                    &layout,
                    &cfg(),
                )
                .unwrap_or_else(|e| panic!("{elem} {pattern} vvi: {e}"));
            }
        }
    }

    #[test]
    fn quantized_verification_catches_one_lsb_errors() {
        // Regression: the integer path must compare with `==`, not the
        // float tolerance — a ±1 LSB error anywhere is a hard failure.
        use indexmac_sparse::ElemType;
        let (a, b, layout) = int_fixture(3, 16, 8, NmPattern::P1_4, ElemType::I8, 61);
        let params = KernelParams {
            unroll: indexmac2::max_unroll(&layout),
            ..Default::default()
        };
        let p = indexmac2::build(&layout, &params).unwrap();
        let mut run = run_kernel(&p, &a, &b, &layout, &cfg()).unwrap();
        check_int_exact(&run, &a, &b).expect("unperturbed product is exact");
        let ci = run.c_int.as_mut().unwrap();
        let old = ci.get(1, 3);
        ci.set(1, 3, old + 1); // one LSB off
        match check_int_exact(&run, &a, &b) {
            Err(VerifyError::IntMismatch {
                row: 1,
                col: 3,
                got,
                want,
            }) => {
                assert_eq!(got, want + 1);
            }
            other => panic!("±1 LSB error must be caught, got {other:?}"),
        }
        // -1 LSB equally.
        run.c_int.as_mut().unwrap().set(1, 3, old - 1);
        assert!(matches!(
            check_int_exact(&run, &a, &b),
            Err(VerifyError::IntMismatch { row: 1, col: 3, .. })
        ));
    }

    #[test]
    fn float_runs_reject_the_integer_checker() {
        let (a, b, layout) = fixture(3, 16, 8, NmPattern::P1_4, 62);
        let p = indexmac::build(&layout, &KernelParams::default()).unwrap();
        let run = run_kernel(&p, &a, &b, &layout, &cfg()).unwrap();
        assert!(run.c_int.is_none());
        assert!(matches!(
            check_int_exact(&run, &a, &b),
            Err(VerifyError::ShapeMismatch)
        ));
    }

    #[test]
    fn walk_kernels_reject_quantized_layouts() {
        use crate::KernelError;
        use indexmac_sparse::ElemType;
        let (_, _, layout) = int_fixture(4, 16, 8, NmPattern::P1_4, ElemType::I8, 63);
        for (name, err) in [
            (
                "dense",
                dense::build(&layout, &KernelParams::default()).unwrap_err(),
            ),
            (
                "rowwise",
                rowwise::build(&layout, &KernelParams::default()).unwrap_err(),
            ),
            (
                "scalar_idx",
                scalar_idx::build(&layout, &KernelParams::default()).unwrap_err(),
            ),
        ] {
            assert!(
                matches!(err, KernelError::UnsupportedPrecision { .. }),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn e8_beats_e32_on_cycles_and_vector_instructions() {
        // The headline of the refactor: at equal dims the e8 datapath
        // covers a column tile with 4x fewer instructions, so IndexMAC2
        // wins on cycles AND dynamic vector instructions, with >= 2x
        // fewer vector instructions in steady state.
        use indexmac_sparse::{prune, ElemType};
        let dims = (16usize, 64usize, 64usize);
        let f_a = prune::random_structured(dims.0, dims.1, NmPattern::P1_4, 70);
        let f_b = DenseMatrix::random(dims.1, dims.2, 71);
        let f_layout = GemmLayout::plan(&f_a, dims.2, &cfg(), 16).unwrap();
        let e32 = run_and_check(
            &indexmac2::build(&f_layout, &KernelParams::default()).unwrap(),
            &f_a,
            &f_b,
            &f_layout,
            &cfg(),
        )
        .unwrap();
        let (a, b, layout) = int_fixture(dims.0, dims.1, dims.2, NmPattern::P1_4, ElemType::I8, 70);
        let params = KernelParams {
            unroll: indexmac2::max_unroll(&layout),
            ..Default::default()
        };
        let e8 = run_and_check(
            &indexmac2::build(&layout, &params).unwrap(),
            &a,
            &b,
            &layout,
            &cfg(),
        )
        .unwrap();
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
    }

    #[test]
    fn warm_simulator_reuse_is_bit_identical_to_fresh_runs() {
        // One simulator + one decoded program, run across different
        // operand sets, must reproduce the cold per-run path exactly —
        // the contract the core experiment layer's warm path rests on.
        let mut sim = Simulator::new(cfg());
        let (a1, b1, layout) = fixture(6, 32, 20, NmPattern::P1_4, 80);
        let p = indexmac2::build(&layout, &KernelParams::default()).unwrap();
        let decoded = DecodedProgram::decode(&p);

        let warm1 = run_and_check_decoded(&mut sim, &decoded, &a1, &b1, &layout).unwrap();
        let cold1 = run_and_check(&p, &a1, &b1, &layout, &cfg()).unwrap();
        assert_eq!(warm1.report, cold1.report);
        assert_eq!(warm1.c.as_slice(), cold1.c.as_slice());

        // Different operands through the SAME simulator and program:
        // no leakage from the previous run.
        let a2 = prune::random_structured(6, 32, NmPattern::P1_4, 81);
        let b2 = DenseMatrix::random(32, 20, 82);
        let warm2 = run_and_check_decoded(&mut sim, &decoded, &a2, &b2, &layout).unwrap();
        let cold2 = run_and_check(&p, &a2, &b2, &layout, &cfg()).unwrap();
        assert_eq!(warm2.report, cold2.report);
        assert_eq!(warm2.c.as_slice(), cold2.c.as_slice());
        assert_ne!(warm1.c.as_slice(), warm2.c.as_slice());
        assert_eq!(warm2.static_instructions, p.len());
    }

    #[test]
    fn every_builder_analyzes_clean_and_mints_a_token() {
        let (.., layout) = fixture(6, 32, 20, NmPattern::P2_4, 90);
        let builds: Vec<(&str, Program)> = vec![
            (
                "dense",
                dense::build(&layout, &KernelParams::default()).unwrap(),
            ),
            (
                "rowwise",
                rowwise::build(&layout, &KernelParams::default()).unwrap(),
            ),
            (
                "scalar_idx",
                scalar_idx::build(&layout, &KernelParams::default()).unwrap(),
            ),
            (
                "indexmac",
                indexmac::build(&layout, &KernelParams::default()).unwrap(),
            ),
            (
                "indexmac2",
                indexmac2::build(&layout, &KernelParams::default()).unwrap(),
            ),
        ];
        for (name, p) in &builds {
            let decoded = DecodedProgram::decode(p);
            let analysis = analyze_kernel(&decoded, &layout, &cfg());
            assert!(
                analysis.diagnostics().is_empty(),
                "{name}: shipped kernels must analyze clean:\n{:?}",
                analysis.diagnostics()
            );
            let token = analysis.verified().expect("clean analysis mints a token");
            assert_eq!(token.program_len(), p.len(), "{name}");
            assert_eq!(token.vlen_bits(), cfg().vlen_bits, "{name}");
        }
    }

    #[test]
    fn shape_mismatch_detected() {
        let (a, b, layout) = fixture(3, 16, 8, NmPattern::P1_4, 50);
        let wrong_b = DenseMatrix::random(16, 9, 1);
        let p = indexmac::build(&layout, &KernelParams::default()).unwrap();
        assert!(matches!(
            run_kernel(&p, &a, &wrong_b, &layout, &cfg()),
            Err(VerifyError::ShapeMismatch)
        ));
        let _ = b;
    }
}
