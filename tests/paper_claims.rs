//! Integration tests asserting the paper's quantitative claims hold in
//! this reproduction (with tolerances appropriate to a re-implemented
//! timing model — see EXPERIMENTS.md for the measured values).

use indexmac::experiment::{compare_gemm, run_gemm, Algorithm, ExperimentConfig};
use indexmac::kernels::{Dataflow, GemmDims, KernelParams};
use indexmac::sparse::NmPattern;
use indexmac_models::GemmCaps;

/// A representative mid-network layer shape at evaluation scale.
const DIMS: GemmDims = GemmDims {
    rows: 64,
    inner: 512,
    cols: 128,
};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        caps: GemmCaps {
            max_rows: 64,
            max_inner: 512,
            max_cols: 128,
        },
        ..ExperimentConfig::paper()
    }
}

#[test]
fn speedups_fall_in_the_papers_bands() {
    // Paper Fig. 4: 1.60x-2.15x (1:4) and 1.63x-1.99x (2:4); allow a
    // modest margin for the re-implemented substrate.
    let c14 = compare_gemm(DIMS, NmPattern::P1_4, &cfg()).unwrap();
    assert!(
        (1.5..=2.4).contains(&c14.speedup()),
        "1:4 speedup {} outside the paper's band",
        c14.speedup()
    );
    let c24 = compare_gemm(DIMS, NmPattern::P2_4, &cfg()).unwrap();
    assert!(
        (1.5..=2.2).contains(&c24.speedup()),
        "2:4 speedup {} outside the paper's band",
        c24.speedup()
    );
}

#[test]
fn sparser_template_speeds_up_more() {
    // Paper Section IV-B: 2:4 speedup is slightly lower than 1:4
    // because A-side work doubles while the B-side optimisation target
    // stays the same.
    let c14 = compare_gemm(DIMS, NmPattern::P1_4, &cfg()).unwrap();
    let c24 = compare_gemm(DIMS, NmPattern::P2_4, &cfg()).unwrap();
    assert!(
        c14.speedup() > c24.speedup(),
        "1:4 ({}) must outpace 2:4 ({})",
        c14.speedup(),
        c24.speedup()
    );
}

#[test]
fn memory_access_reductions_match_fig6() {
    // Paper Fig. 6: ~52% normalized accesses for 1:4, ~35% for 2:4.
    let c14 = compare_gemm(DIMS, NmPattern::P1_4, &cfg()).unwrap();
    assert!(
        (0.45..=0.60).contains(&c14.mem_ratio()),
        "1:4 normalized accesses {} (paper ~0.52)",
        c14.mem_ratio()
    );
    let c24 = compare_gemm(DIMS, NmPattern::P2_4, &cfg()).unwrap();
    assert!(
        (0.30..=0.42).contains(&c24.mem_ratio()),
        "2:4 normalized accesses {} (paper ~0.35)",
        c24.mem_ratio()
    );
}

#[test]
fn proposed_eliminates_per_nonzero_vector_loads() {
    let c = compare_gemm(DIMS, NmPattern::P1_4, &cfg()).unwrap();
    // Baseline loads one B slice per nonzero; proposed only preloads
    // tiles, so its vector-load count must be several times smaller.
    assert!(
        c.proposed.report.mem.vector_loads * 2 < c.baseline.report.mem.vector_loads,
        "proposed {} vs baseline {} vector loads",
        c.proposed.report.mem.vector_loads,
        c.baseline.report.mem.vector_loads
    );
    // And it halves the cross-domain synchronisations (one move per
    // nonzero instead of two).
    assert_eq!(c.proposed.report.v2s_syncs * 2, c.baseline.report.v2s_syncs);
}

/// A shape whose B matrix (512 x 512 x 4 B = 1 MiB) overflows the 512 KiB
/// L2 — the full-size-layer regime the paper's dataflow claim is about.
/// (At small B sizes the dataflows tie, because B stays L2-resident no
/// matter the loop order.)
const BIG_B_DIMS: GemmDims = GemmDims {
    rows: 64,
    inner: 512,
    cols: 512,
};

fn big_b_cfg(dataflow: Dataflow) -> ExperimentConfig {
    ExperimentConfig {
        caps: GemmCaps {
            max_rows: 64,
            max_inner: 512,
            max_cols: 512,
        },
        params: KernelParams {
            unroll: 4,
            dataflow,
        },
        ..ExperimentConfig::paper()
    }
}

#[test]
fn b_stationary_is_the_best_rowwise_dataflow() {
    // Paper Section IV-A.
    let mut cycles = Vec::new();
    for dataflow in Dataflow::ALL {
        let c = big_b_cfg(dataflow);
        let r = run_gemm(BIG_B_DIMS, NmPattern::P1_4, Algorithm::RowWiseSpmm, &c).unwrap();
        cycles.push((dataflow, r.report.cycles));
    }
    let best = cycles.iter().min_by_key(|(_, c)| *c).unwrap();
    assert_eq!(best.0, Dataflow::BStationary, "cycles: {cycles:?}");
}

#[test]
fn c_stationary_cuts_stores_not_time() {
    let b_st = run_gemm(
        BIG_B_DIMS,
        NmPattern::P1_4,
        Algorithm::RowWiseSpmm,
        &big_b_cfg(Dataflow::BStationary),
    )
    .unwrap();
    let c_st = run_gemm(
        BIG_B_DIMS,
        NmPattern::P1_4,
        Algorithm::RowWiseSpmm,
        &big_b_cfg(Dataflow::CStationary),
    )
    .unwrap();
    // "its total number of memory stores would decrease significantly"
    assert!(c_st.report.mem.vector_stores * 4 < b_st.report.mem.vector_stores);
    // "...does not improve the total execution time"
    assert!(c_st.report.cycles as f64 >= 0.95 * b_st.report.cycles as f64);
}

#[test]
fn unrolling_benefits_both_kernels() {
    // Paper Section IV-A: "Both approaches benefit equally from loop
    // unrolling." Require >=20% gain for each and gains within 2x of
    // each other.
    let gain = |alg: Algorithm| {
        let u1 = ExperimentConfig {
            params: KernelParams {
                unroll: 1,
                ..Default::default()
            },
            ..cfg()
        };
        let u4 = cfg();
        let r1 = run_gemm(DIMS, NmPattern::P1_4, alg, &u1).unwrap();
        let r4 = run_gemm(DIMS, NmPattern::P1_4, alg, &u4).unwrap();
        r1.report.cycles as f64 / r4.report.cycles as f64
    };
    let g_base = gain(Algorithm::RowWiseSpmm);
    let g_prop = gain(Algorithm::IndexMac);
    assert!(g_base > 1.2, "baseline unroll gain {g_base}");
    assert!(g_prop > 1.2, "proposed unroll gain {g_prop}");
    assert!(
        (0.5..=2.0).contains(&(g_base / g_prop)),
        "gains diverge: baseline {g_base} vs proposed {g_prop}"
    );
}

#[test]
fn structured_sparsity_beats_dense_execution() {
    // The motivation for pruning at all: 1:4 sparse execution must be
    // far faster than the dense kernel on the same shape.
    let dense = run_gemm(DIMS, NmPattern::P1_4, Algorithm::Dense, &cfg()).unwrap();
    let sparse = run_gemm(DIMS, NmPattern::P1_4, Algorithm::IndexMac, &cfg()).unwrap();
    assert!(sparse.report.cycles * 2 < dense.report.cycles);
}

/// The BERT-base FFN-up GEMM at its standard fine-tuning sequence
/// length (d_ff=3072 output features, d_model=768 inputs, 128 tokens)
/// — the heaviest shape of the transformer workload family.
const BERT_FFN: GemmDims = GemmDims {
    rows: 3072,
    inner: 768,
    cols: 128,
};

#[test]
fn indexmac2_beats_vx_at_the_bert_ffn_shape() {
    // Pinned transformer regression: the second-generation kernel
    // (`vindexmac.vvi` under m2 register grouping) must beat the
    // `vindexmac.vx` baseline on BOTH cycles and dynamic instructions
    // at the BERT-base FFN shape, for 1:4 and 2:4 sparsity. The
    // configuration is exactly what `indexmac-cli model --preset
    // bert-base` runs (`ExperimentConfig::transformer()`, default
    // caps), so the CLI's aggregate speedup columns reproduce these
    // bands. Measured: 1.92x (1:4) and 2.43x (2:4).
    let cfg = ExperimentConfig::transformer();
    assert_eq!(cfg.lmul, 2);
    {
        // The shape really is the preset's FFN layer, not a transcription.
        let bert = indexmac_models::bert_base();
        assert_eq!(bert.layer("block0.ffn.up").unwrap().gemm, BERT_FFN);
    }
    for (pattern, band) in [(NmPattern::P1_4, 1.7..=2.1), (NmPattern::P2_4, 2.2..=2.7)] {
        let c = compare_gemm(BERT_FFN, pattern, &cfg).unwrap();
        assert_eq!(c.baseline.algorithm, Algorithm::IndexMac);
        assert_eq!(c.proposed.algorithm, Algorithm::IndexMac2);
        assert!(
            c.proposed.report.cycles < c.baseline.report.cycles,
            "{pattern}: vvi {} cycles vs vx {}",
            c.proposed.report.cycles,
            c.baseline.report.cycles
        );
        assert!(
            c.proposed.report.instructions < c.baseline.report.instructions,
            "{pattern}: vvi {} instret vs vx {}",
            c.proposed.report.instructions,
            c.baseline.report.instructions
        );
        assert!(
            band.contains(&c.speedup()),
            "{pattern}: speedup {} left the pinned band {band:?}",
            c.speedup()
        );
    }
}

#[test]
fn vvi_lead_survives_every_timing_backend_at_bert_ffn() {
    // The follow-up work's argument (arXiv 2501.10189): `vindexmac.vvi`
    // has zero scalar-side coupling per nonzero, so moving from the
    // in-order scoreboard to an out-of-order scalar core should widen —
    // never shrink — its cycle lead over `vindexmac.vx`, whose per-index
    // vector-to-scalar round trips serialise through the ROB commit on
    // any machine. Run the pinned BERT-FFN comparison under all three
    // backends from one decoded program pair and check:
    //   * instret is bit-identical across backends (timing models only
    //     reorder cycles, never instructions);
    //   * the OoO lead (vx/vvi cycles) is no smaller than in-order's,
    //     compared exactly by cross-multiplication in u128.
    use indexmac::vpu::TimingKind;
    indexmac::experiment::reset_decode_cache();
    let mut by_backend = Vec::new();
    for kind in TimingKind::ALL {
        let cfg = ExperimentConfig::transformer().with_timing(kind);
        let c = compare_gemm(BERT_FFN, NmPattern::P1_4, &cfg).unwrap();
        assert_eq!(c.baseline.algorithm, Algorithm::IndexMac);
        assert_eq!(c.proposed.algorithm, Algorithm::IndexMac2);
        by_backend.push((kind, c));
    }
    // One decoded program pair drove all three backends: the decode
    // cache saw exactly two kernels (vx and vvi), everything else hit.
    let stats = indexmac::experiment::decode_cache_stats();
    assert_eq!(stats.misses, 2, "backends must reuse the decoded pair");
    let (_, base) = &by_backend[0];
    for (kind, c) in &by_backend {
        assert_eq!(
            c.baseline.report.instructions, base.baseline.report.instructions,
            "{kind}: vx instret must be backend-invariant"
        );
        assert_eq!(
            c.proposed.report.instructions, base.proposed.report.instructions,
            "{kind}: vvi instret must be backend-invariant"
        );
        assert!(
            c.proposed.report.cycles < c.baseline.report.cycles,
            "{kind}: vvi {} cycles vs vx {}",
            c.proposed.report.cycles,
            c.baseline.report.cycles
        );
    }
    let lead = |c: &indexmac::experiment::GemmComparison| {
        (
            c.baseline.report.cycles as u128,
            c.proposed.report.cycles as u128,
        )
    };
    // Exact cycles per backend, as `BENCH_timing.json` records them
    // (its 64x512x128 cell is this test's capped BERT-FFN shape).
    let pinned = [
        (TimingKind::InOrder, 463_244, 241_260),
        (TimingKind::Pipelined, 509_568, 241_262),
        (TimingKind::OutOfOrder, 509_281, 241_259),
    ];
    for ((kind, c), (want_kind, vx, vvi)) in by_backend.iter().zip(pinned) {
        assert_eq!(*kind, want_kind);
        assert_eq!(
            (c.baseline.report.cycles, c.proposed.report.cycles),
            (vx, vvi),
            "{kind}: vx/vvi cycles moved from BENCH_timing.json"
        );
    }
    let (vx_io, vvi_io) = lead(&by_backend[0].1);
    let (vx_ooo, vvi_ooo) = lead(&by_backend[2].1);
    assert!(
        vx_ooo * vvi_io >= vx_io * vvi_ooo,
        "OoO lead {:.3} must not shrink below in-order lead {:.3}",
        vx_ooo as f64 / vvi_ooo as f64,
        vx_io as f64 / vvi_io as f64
    );
}

#[test]
fn tile_preload_bound_enforced() {
    // Paper Section III: at most M*VL/N rows of B are addressable. For
    // an 8:8 pattern that bound is 16, so L=20 must be rejected even
    // though the register budget would allow it.
    let cfg_l20 = ExperimentConfig {
        tile_rows: 20,
        ..cfg()
    };
    let r = run_gemm(
        GemmDims {
            rows: 8,
            inner: 40,
            cols: 16,
        },
        NmPattern::new(8, 8).unwrap(),
        Algorithm::IndexMac,
        &cfg_l20,
    );
    assert!(r.is_err(), "L beyond M*VL/N must be rejected");
}
