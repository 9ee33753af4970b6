//! The pinned BERT-FFN vvi-vs-vx comparison under each timing backend
//! — the cross-backend acceptance measurement of the `TimingModel`'s
//! issue policies, emitted to `BENCH_timing.json`.
//!
//! One decoded kernel pair (`vindexmac.vx` baseline, `vindexmac.vvi`
//! m2 proposed, `3072x768x128` at 1:4 — the `tests/paper_claims.rs`
//! shape) drives the in-order scoreboard, the explicit 5-stage
//! pipeline, and the out-of-order core in turn. Per backend the row
//! records both kernels' simulated cycles, the vvi cycle lead, the ROB
//! stall mass, and the host wall time of the simulation itself (the
//! OoO structures cost real time to model). The kernels are built and
//! decoded before the first row, so every row's wall time is a warm run.
//!
//! Expected: instret is bit-identical across backends (the decoupled
//! vector engine is shared; timing models only move cycles), and the
//! OoO lead is no smaller than the in-order lead — vvi's zero scalar
//! coupling per nonzero is exactly what out-of-order dispatch cannot
//! accelerate away on the vx side (the per-index vector-to-scalar
//! round trip commits through the ROB on any machine).
//!
//! `INDEXMAC_PROFILE=smoke` caps the GEMM (CI); `default`/`full` run
//! the uncapped pinned shape.

use indexmac::experiment::{
    compare_gemm, decode_cache_stats, reset_decode_cache, ExperimentConfig, GemmComparison,
};
use indexmac::kernels::GemmDims;
use indexmac::sparse::NmPattern;
use indexmac::vpu::TimingKind;
use indexmac_bench::{banner, write_bench_output, Profile};
use serde::{Serialize, Value};
use std::time::Instant;

/// The BERT-base FFN-up GEMM (d_ff x d_model x seq_len), as pinned in
/// `tests/paper_claims.rs`.
const BERT_FFN: GemmDims = GemmDims {
    rows: 3072,
    inner: 768,
    cols: 128,
};

struct Row {
    backend: TimingKind,
    comparison: GemmComparison,
    wall_ms: f64,
}

impl Row {
    fn vx(&self) -> &indexmac::vpu::RunReport {
        &self.comparison.baseline.report
    }

    fn vvi(&self) -> &indexmac::vpu::RunReport {
        &self.comparison.proposed.report
    }

    /// vx cycles / vvi cycles — the lead the backends are compared on.
    fn lead(&self) -> f64 {
        self.comparison.speedup()
    }

    fn to_value(&self) -> Value {
        Value::object([
            ("backend", self.backend.name().to_value()),
            ("vx_cycles", self.vx().cycles.to_value()),
            ("vvi_cycles", self.vvi().cycles.to_value()),
            ("vx_instructions", self.vx().instructions.to_value()),
            ("vvi_instructions", self.vvi().instructions.to_value()),
            ("vx_rob_stall_cycles", self.vx().rob_stall_cycles.to_value()),
            (
                "vvi_rob_stall_cycles",
                self.vvi().rob_stall_cycles.to_value(),
            ),
            ("vx_v2s_syncs", self.vx().v2s_syncs.to_value()),
            ("vvi_v2s_syncs", self.vvi().v2s_syncs.to_value()),
            ("vvi_lead", self.lead().to_value()),
            ("sim_wall_ms", self.wall_ms.to_value()),
        ])
    }
}

fn main() {
    let profile = Profile::from_env();
    let base = ExperimentConfig {
        caps: profile.caps(),
        ..ExperimentConfig::transformer()
    };
    banner("timing_backends: vvi-vs-vx under each timing model", &base);
    let dims = profile.caps().apply(BERT_FFN);
    println!(
        "pinned shape {}x{}x{} (BERT-FFN{}), 1:4, vindexmac.vvi m{} vs vindexmac.vx\n",
        dims.rows,
        dims.inner,
        dims.cols,
        if dims == BERT_FFN { "" } else { ", capped" },
        base.lmul,
    );

    // One decoded program pair serves every backend: the decode cache
    // is keyed by kernel, not by timing model. An untimed comparison
    // builds and decodes the pair first, so every row times a warm run.
    reset_decode_cache();
    compare_gemm(BERT_FFN, NmPattern::P1_4, &base).expect("pinned comparison runs");
    let rows: Vec<Row> = TimingKind::ALL
        .into_iter()
        .map(|backend| {
            let cfg = base.with_timing(backend);
            let t = Instant::now();
            let comparison = compare_gemm(BERT_FFN, NmPattern::P1_4, &cfg)
                .expect("pinned comparison runs under every backend");
            Row {
                backend,
                comparison,
                wall_ms: t.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect();
    let cache = decode_cache_stats();
    assert_eq!(cache.misses, 2, "backends must reuse the decoded pair");
    for r in &rows {
        assert_eq!(
            r.vx().instructions,
            rows[0].vx().instructions,
            "{}: vx instret must be backend-invariant",
            r.backend
        );
        assert_eq!(
            r.vvi().instructions,
            rows[0].vvi().instructions,
            "{}: vvi instret must be backend-invariant",
            r.backend
        );
    }

    println!(
        "{:<10} {:>14} {:>14} {:>13} {:>13} {:>9} {:>12}",
        "backend",
        "vx cycles",
        "vvi cycles",
        "vx ROB stall",
        "vvi ROB stall",
        "vvi lead",
        "sim wall ms"
    );
    for r in &rows {
        println!(
            "{:<10} {:>14} {:>14} {:>13} {:>13} {:>8.2}x {:>12.1}",
            r.backend.name(),
            r.vx().cycles,
            r.vvi().cycles,
            r.vx().rob_stall_cycles,
            r.vvi().rob_stall_cycles,
            r.lead(),
            r.wall_ms,
        );
    }
    println!(
        "\ninstret backend-invariant: vx {} / vvi {} on all three backends (decode cache: {cache})",
        rows[0].vx().instructions,
        rows[0].vvi().instructions,
    );
    let (io, ooo) = (&rows[0], &rows[2]);
    // Exact cross-multiplied comparison, as asserted in paper_claims.
    let widened = ooo.vx().cycles as u128 * io.vvi().cycles as u128
        >= io.vx().cycles as u128 * ooo.vvi().cycles as u128;
    println!(
        "OoO lead {:.3} vs in-order lead {:.3}: {}",
        ooo.lead(),
        io.lead(),
        if widened {
            "no smaller — vvi's decoupling survives out-of-order issue"
        } else {
            "SMALLER — regression against the acceptance criterion"
        },
    );

    let json = Value::object([
        ("bench", "timing_backends".to_value()),
        ("profile", format!("{}", base.caps).to_value()),
        (
            "dims",
            format!("{}x{}x{}", dims.rows, dims.inner, dims.cols).to_value(),
        ),
        ("pattern", "1:4".to_value()),
        ("lmul", base.lmul.to_value()),
        (
            "rows",
            Value::Array(rows.iter().map(Row::to_value).collect()),
        ),
        ("ooo_lead_no_smaller_than_inorder", widened.to_value()),
    ]);
    let path = write_bench_output(
        "BENCH_timing.json",
        Profile::Default,
        profile,
        &serde_json::to_string_pretty(&json).expect("total"),
    );
    println!("\nwrote {}", path.display());
}
