//! Throughput of the timed execution paths that produce the published
//! numbers, against the legacy interpret-per-step loop.
//!
//! Two measurements, both emitted to `BENCH_engine.json`:
//!
//! * **instructions/sec** — a *timed* run (in-order timing model) of
//!   the pinned BERT-FFN `vindexmac.vvi` kernel (`3072x768x128`, the
//!   heaviest transformer shape; the e8 quantized row and the f32 `m2`
//!   row of the transformer campaign), and of the paper's own f32
//!   kernels — the row-wise SpMM baseline and `vindexmac.vx` — on
//!   ResNet50 `layer2.0.conv2` under the Fig. 4 caps, through the
//!   legacy stepwise oracle (`run_stepwise_timed`) and the decoded
//!   engine (`run_decoded`). Both must produce the same `RunReport`;
//!   the bench asserts it. The two paths alternate within each timed
//!   iteration; each reports the minimum, median and p90 of its
//!   iterations, and the throughput and speedup columns use the
//!   minimum.
//!   Decode is reported as a one-time cost of every cold kernel; the
//!   static analysis (`analyze_ms`) is the cost of linting the kernel,
//!   which the simulation path does not pay.
//! * **cells/sec** — a warm sweep: the same grid swept twice as a
//!   `indexmac::sweep::run_cell` loop on the calling thread, so the
//!   second pass runs entirely against that thread's decode-once
//!   `ProgramCache` and reused simulator (the bench asserts it decodes
//!   nothing new).
//!
//! `INDEXMAC_PROFILE=smoke` caps every GEMM (CI); `default`/`full` run
//! the uncapped BERT-FFN shape and the Fig. 4-capped ResNet50 shape.
//! The committed `BENCH_engine.json` comes from `INDEXMAC_PROFILE=full`;
//! other profiles write under `target/bench-out/`.

use indexmac::experiment::{decode_cache_stats, reset_decode_cache, ExperimentConfig, Precision};
use indexmac::kernels::{self, indexmac2, rowwise, GemmDims, GemmLayout, KernelParams};
use indexmac::models::{resnet50, GemmCaps};
use indexmac::sparse::{prune, quant, DenseMatrix, NmPattern, StructuredSparseMatrix};
use indexmac::sweep::{run_cell, SweepGrid};
use indexmac::vpu::{analyze_with_contract, DecodedProgram, SimConfig, Simulator};
use indexmac_bench::{banner, write_bench_output, Profile, Spread};
use serde::{Serialize, Value};
use std::time::Instant;

/// The BERT-base FFN-up GEMM (d_ff x d_model x seq_len), as pinned in
/// `tests/paper_claims.rs`.
const BERT_FFN: GemmDims = GemmDims {
    rows: 3072,
    inner: 768,
    cols: 128,
};

/// ResNet50's `layer2.0.conv2` (128 x 1152 x 784 before capping): the
/// Fig. 4 layer whose capped B tile overflows the L2.
const RESNET50_LAYER: &str = "layer2.0.conv2";

/// The kernel a row times.
#[derive(Clone, Copy)]
enum Kernel {
    /// Second-generation `vindexmac.vvi` (arXiv 2501.10189).
    Vvi,
    /// The paper's `vindexmac.vx` (Algorithm 3).
    Vx,
    /// The paper's row-wise SpMM baseline (Algorithm 2).
    RowWise,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Vvi => "vindexmac.vvi",
            Kernel::Vx => "vindexmac.vx",
            Kernel::RowWise => "rowwise",
        }
    }
}

struct Row {
    label: &'static str,
    kernel: Kernel,
    sew_bits: usize,
    lmul: usize,
    dims: GemmDims,
    instructions: u64,
    cycles: u64,
    decode_ms: f64,
    analyze_ms: f64,
    iters: u32,
    stepwise_ns: Spread,
    decoded_ns: Spread,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.stepwise_ns.min / self.decoded_ns.min
    }

    fn ips(&self, ns: f64) -> f64 {
        self.instructions as f64 / (ns * 1e-9)
    }

    fn to_value(&self) -> Value {
        Value::object([
            ("label", self.label.to_value()),
            ("kernel", self.kernel.name().to_value()),
            ("sew", self.sew_bits.to_value()),
            ("lmul", self.lmul.to_value()),
            (
                "dims",
                format!("{}x{}x{}", self.dims.rows, self.dims.inner, self.dims.cols).to_value(),
            ),
            ("dynamic_instructions", self.instructions.to_value()),
            ("cycles", self.cycles.to_value()),
            ("decode_ms", self.decode_ms.to_value()),
            ("analyze_ms", self.analyze_ms.to_value()),
            ("timed_iters", self.iters.to_value()),
            ("stepwise_timed_run_ns", self.stepwise_ns.min.to_value()),
            (
                "stepwise_timed_run_median_ns",
                self.stepwise_ns.median.to_value(),
            ),
            ("stepwise_timed_run_p90_ns", self.stepwise_ns.p90.to_value()),
            ("decoded_timed_run_ns", self.decoded_ns.min.to_value()),
            (
                "decoded_timed_run_median_ns",
                self.decoded_ns.median.to_value(),
            ),
            ("decoded_timed_run_p90_ns", self.decoded_ns.p90.to_value()),
            (
                "stepwise_instructions_per_sec",
                self.ips(self.stepwise_ns.min).to_value(),
            ),
            (
                "decoded_instructions_per_sec",
                self.ips(self.decoded_ns.min).to_value(),
            ),
            ("speedup", self.speedup().to_value()),
        ])
    }
}

/// Builds `kernel` for one shape and precision and times a run through
/// each of the two timed paths.
fn measure_row(
    label: &'static str,
    kernel: Kernel,
    precision: Precision,
    requested_lmul: usize,
    caps_dims: GemmDims,
    iters: u32,
) -> Row {
    let sim_cfg = SimConfig::table_i();
    let pattern = NmPattern::P1_4;
    let seed = 0xE16E_2026u64;
    let (a, b): (StructuredSparseMatrix, DenseMatrix) = if precision.is_int() {
        (
            quant::random_structured_int(caps_dims.rows, caps_dims.inner, pattern, seed, precision),
            quant::random_dense_int(caps_dims.inner, caps_dims.cols, seed + 1, precision),
        )
    } else {
        (
            prune::random_structured(caps_dims.rows, caps_dims.inner, pattern, seed),
            DenseMatrix::random(caps_dims.inner, caps_dims.cols, seed + 1),
        )
    };
    let (layout, unroll) = match kernel {
        Kernel::Vvi => {
            // The e8 widening accumulator caps grouping at m1
            // (lmul*32/SEW <= 4) — the same clamp `compare_model`
            // applies to quantized presets.
            let lmul = requested_lmul.min(4 / precision.widen()).max(1);
            let tile_rows = GemmLayout::fit_tile_rows(16, lmul, pattern);
            let layout =
                GemmLayout::plan_elem(&a, caps_dims.cols, &sim_cfg, tile_rows, lmul, precision)
                    .expect("pinned layout plans");
            let unroll = 4usize.min(indexmac2::max_unroll(&layout));
            (layout, unroll)
        }
        Kernel::Vx | Kernel::RowWise => {
            // The paper's configuration: m1, 16 preloaded tile rows.
            let layout = GemmLayout::plan_elem(&a, caps_dims.cols, &sim_cfg, 16, 1, precision)
                .expect("pinned layout plans");
            let unroll = match kernel {
                Kernel::Vx => 4usize.min(kernels::indexmac::max_unroll(&layout)),
                _ => 4,
            };
            (layout, unroll)
        }
    };
    let lmul = layout.lmul;
    let params = KernelParams {
        unroll,
        ..KernelParams::default()
    };
    let program = match kernel {
        Kernel::Vvi => indexmac2::build(&layout, &params),
        Kernel::Vx => kernels::indexmac::build(&layout, &params),
        Kernel::RowWise => rowwise::build(&layout, &params),
    }
    .expect("pinned kernel builds");

    let t0 = Instant::now();
    let decoded = DecodedProgram::decode(&program);
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3;

    // What linting this kernel costs: prove it fault-free against the
    // layout contract. No simulation path runs the analyzer.
    let t0 = Instant::now();
    let vlen_bits = layout.vl * layout.elem.bits();
    let analysis = analyze_with_contract(&decoded, vlen_bits, Some(&layout.analysis_contract()));
    let analyze_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(analysis.is_clean(), "pinned kernel analyzes clean");

    let mut sim = Simulator::new(sim_cfg);
    layout.write_operands(&a, &b, sim.memory_mut());

    // Warm-up, and the report every path must reproduce.
    let report = sim.run_decoded(&decoded).expect("pinned kernel executes");

    // The two paths are interleaved within each iteration (rather
    // than measured in back-to-back blocks) so slow drift of the
    // host — CPU frequency, steal time — lands on both equally.
    let mut stepwise_s = Vec::new();
    let mut decoded_s = Vec::new();
    for _ in 0..iters {
        let t = Instant::now();
        let r = sim
            .run_stepwise_timed(&program)
            .expect("legacy loop executes");
        stepwise_s.push(t.elapsed().as_secs_f64());
        assert_eq!(r, report, "stepwise oracle diverged");
        let t = Instant::now();
        let r = sim.run_decoded(&decoded).expect("decoded engine executes");
        decoded_s.push(t.elapsed().as_secs_f64());
        assert_eq!(r, report, "decoded engine diverged");
    }

    Row {
        label,
        kernel,
        sew_bits: precision.bits(),
        lmul,
        dims: caps_dims,
        instructions: report.instructions,
        cycles: report.cycles,
        decode_ms,
        analyze_ms,
        iters,
        stepwise_ns: Spread::of(&stepwise_s).scaled(1e9),
        decoded_ns: Spread::of(&decoded_s).scaled(1e9),
    }
}

/// Sweeps one grid twice on this thread and reports cold/warm cell
/// throughput plus the decode-cache counters.
fn measure_sweep(cfg: &ExperimentConfig) -> Value {
    reset_decode_cache();
    let grid = SweepGrid::new(
        NmPattern::EVALUATED.to_vec(),
        vec![
            GemmDims {
                rows: 16,
                inner: 128,
                cols: 32,
            },
            GemmDims {
                rows: 32,
                inner: 128,
                cols: 64,
            },
        ],
    );
    let cells = grid.cells();
    let n_cells = cells.len();
    let n = n_cells as f64;
    let sweep = || {
        let t = Instant::now();
        for &cell in &cells {
            run_cell(cell, cfg).expect("sweep cell runs");
        }
        t.elapsed().as_secs_f64()
    };
    let cold_s = sweep();
    let cold_misses = decode_cache_stats().misses;
    let warm_s = sweep();
    let stats = decode_cache_stats();
    assert_eq!(
        stats.misses, cold_misses,
        "the warm pass must decode nothing new"
    );
    println!(
        "warm sweep: {:.1} cells/sec cold -> {:.1} cells/sec warm ({n_cells} cells; decode cache: {stats})",
        n / cold_s,
        n / warm_s,
    );
    Value::object([
        ("cells", n_cells.to_value()),
        ("cold_cells_per_sec", (n / cold_s).to_value()),
        ("warm_cells_per_sec", (n / warm_s).to_value()),
        ("decode_cache_hits", stats.hits.to_value()),
        ("decode_cache_misses", stats.misses.to_value()),
    ])
}

fn main() {
    let profile = Profile::from_env();
    let base_cfg = profile.config();
    banner(
        "engine_throughput: timed execution paths vs interpret-per-step",
        &base_cfg,
    );
    let dims = profile.caps().apply(BERT_FFN);
    let iters = if dims == BERT_FFN { 5 } else { 10 };
    // The paper's kernels run at the Fig. 4 caps (smoke: the smoke caps).
    let resnet_caps = match profile {
        Profile::Smoke => GemmCaps::smoke(),
        _ => GemmCaps::default_eval(),
    };
    let resnet_dims = resnet_caps.apply(
        resnet50()
            .layer(RESNET50_LAYER)
            .expect("ResNet50 has the layer")
            .gemm,
    );
    println!(
        "pinned shapes: {}x{}x{} (BERT-FFN{}), vindexmac.vvi; {}x{}x{} (ResNet50 {RESNET50_LAYER}, \
         capped), row-wise and vindexmac.vx; timed runs x{iters}\n",
        dims.rows,
        dims.inner,
        dims.cols,
        if dims == BERT_FFN { "" } else { ", capped" },
        resnet_dims.rows,
        resnet_dims.inner,
        resnet_dims.cols,
    );

    let rows = vec![
        measure_row("bert-ffn-e8", Kernel::Vvi, Precision::I8, 2, dims, iters),
        measure_row(
            "bert-ffn-f32-m2",
            Kernel::Vvi,
            Precision::F32,
            2,
            dims,
            iters,
        ),
        measure_row(
            "resnet50-rowwise-f32",
            Kernel::RowWise,
            Precision::F32,
            1,
            resnet_dims,
            iters,
        ),
        measure_row(
            "resnet50-vx-f32",
            Kernel::Vx,
            Precision::F32,
            1,
            resnet_dims,
            iters,
        ),
    ];
    println!(
        "{:<21} {:<13} {:>4} {:>4} {:>12} {:>10} {:>10} {:>26} {:>26} {:>8} {:>12}",
        "row",
        "kernel",
        "sew",
        "lmul",
        "dyn instrs",
        "decode ms",
        "analyze ms",
        "stepwise ms min/med/p90",
        "decoded ms min/med/p90",
        "speedup",
        "decoded Mi/s"
    );
    let ms = |s: Spread| {
        format!(
            "{:.2}/{:.2}/{:.2}",
            s.min / 1e6,
            s.median / 1e6,
            s.p90 / 1e6
        )
    };
    for r in &rows {
        println!(
            "{:<21} {:<13} {:>4} {:>4} {:>12} {:>10.1} {:>10.1} {:>26} {:>26} {:>7.2}x {:>12.1}",
            r.label,
            r.kernel.name(),
            format!("e{}", r.sew_bits),
            format!("m{}", r.lmul),
            r.instructions,
            r.decode_ms,
            r.analyze_ms,
            ms(r.stepwise_ns),
            ms(r.decoded_ns),
            r.speedup(),
            r.ips(r.decoded_ns.min) / 1e6,
        );
    }

    println!();
    let sweep = measure_sweep(&base_cfg);

    let json = Value::object([
        ("bench", "engine_throughput".to_value()),
        ("profile", format!("{}", base_cfg.caps).to_value()),
        (
            "rows",
            Value::Array(rows.iter().map(Row::to_value).collect()),
        ),
        ("warm_sweep", sweep),
    ]);
    let path = write_bench_output(
        "BENCH_engine.json",
        Profile::Full,
        profile,
        &serde_json::to_string_pretty(&json).expect("total"),
    );
    println!("\nwrote {}", path.display());
    println!(
        "expected: the decoded engine's timed run is several times faster than the stepwise \
         loop (per-step re-decode and re-validation are gone, vector ops run on whole \
         register-group slices); `analyze ms` is a lint-only cost, off the simulation path"
    );
}
