//! The two in-process workloads: cold comparison cells simulated on the
//! calling thread.
//!
//! - `fig4-resnet50`: `compare_model(resnet50(), 1:4, paper())`, the
//!   paper's headline figure. Many small cold kernels: the front end
//!   (build, decode, analyze) and decode-cache churn are half the run.
//! - `bert-ffn-full`: one uncapped BERT-base FFN-up cell (3072x768x128,
//!   1:4) under `transformer()` (vx vs vvi m2): two huge straight-line
//!   kernels with no reuse, and the run that sets peak memory.
//!
//! The unit of work is one `compare_model` call on a cold decode cache.
//! A window of hits on the first unit's results follows every unit (see
//! [`HitProbe`]). The traced run runs the unit once untraced, then
//! replays its cells through [`Replica`] with spans, and asserts both
//! give identical reports.

use crate::http::{single_cell, HitProbe, HIT_WINDOW, PROBE_HITS};
use crate::replica::Replica;
use crate::trace;
use crate::{Report, SimTotals, Workload};
use indexmac::experiment::{
    compare_model, decode_cache_stats, reset_decode_cache, ExperimentConfig, ExperimentError,
    GemmComparison, LayerComparison, ModelComparison,
};
use indexmac::sweep::CellResult;
use indexmac_kernels::GemmDims;
use indexmac_models::{bert_base, resnet50, GemmCaps, Model};
use indexmac_sparse::NmPattern;
use std::path::Path;
use std::time::Instant;

const PATTERN: NmPattern = NmPattern::P1_4;

/// What one set-up produces: the network whose distinct layer shapes
/// are the cells, and the campaign they run under.
struct Setup {
    model: Model,
    cfg: ExperimentConfig,
    base_seed: u64,
}

fn setup(workload: Workload, base_seed: u64) -> Result<Setup, ExperimentError> {
    // Each set-up ends with a warm-up pass over the same cells at caps
    // small enough for about half a second of work.
    let (model, base_cfg, warmup_caps) = trace::span("models", "models.build", || match workload {
        Workload::Fig4Resnet50 => {
            let warmup = GemmCaps {
                max_rows: 16,
                max_inner: 512,
                max_cols: 128,
            };
            (resnet50(), ExperimentConfig::paper(), warmup)
        }
        Workload::BertFfnFull => {
            let bert = bert_base();
            let up = bert
                .layer("block0.ffn.up")
                .expect("BERT-base has an FFN")
                .clone();
            let cell = Model::new("BERT-base FFN up", bert.family, vec![up]);
            let cfg = ExperimentConfig {
                caps: GemmCaps::unbounded(),
                ..ExperimentConfig::transformer()
            };
            let warmup = GemmCaps {
                max_rows: 128,
                ..GemmCaps::unbounded()
            };
            (cell, cfg, warmup)
        }
        Workload::DaemonMixed => unreachable!("daemon-mixed is not an in-process workload"),
    });
    assert!(!model.precision.is_int(), "f32 workloads only");
    // Every cell of the unit shares the seed of a single-cell request
    // for `base_seed`, so the hit probe can ask the daemon for them.
    let seed = single_cell(model.layers[0].gemm, PATTERN, base_seed).seed;
    let cfg = ExperimentConfig { seed, ..base_cfg };
    // Warm-up: fault in code and allocator arenas, then start the
    // timed part with a cold decode cache.
    compare_model(
        &model,
        PATTERN,
        &ExperimentConfig {
            caps: warmup_caps,
            ..cfg
        },
    )?;
    reset_decode_cache();
    Ok(Setup {
        model,
        cfg,
        base_seed,
    })
}

/// The comparison of every distinct layer shape of `model`, in network
/// order: the cells `compare_model` simulated to produce `mc`.
fn distinct_cells(model: &Model, mc: &ModelComparison) -> Vec<(GemmDims, GemmComparison)> {
    let mut cells: Vec<(GemmDims, GemmComparison)> = Vec::new();
    for (layer, result) in model.layers.iter().zip(&mc.layers) {
        if !cells.iter().any(|(g, _)| *g == layer.gemm) {
            cells.push((layer.gemm, result.comparison.clone()));
        }
    }
    cells
}

/// `compare_model`'s result from one comparison per distinct shape
/// (the inverse of [`distinct_cells`]).
fn assemble(
    model: &Model,
    cfg: &ExperimentConfig,
    done: &[(GemmDims, GemmComparison)],
) -> ModelComparison {
    let layers = model
        .layers
        .iter()
        .map(|layer| LayerComparison {
            name: layer.name.clone(),
            comparison: done
                .iter()
                .find(|(g, _)| *g == layer.gemm)
                .expect("every shape was simulated")
                .1
                .clone(),
        })
        .collect();
    ModelComparison {
        model: model.name.clone(),
        pattern: PATTERN,
        precision: cfg.precision,
        layers,
    }
}

fn sim_totals(mc: &ModelComparison) -> SimTotals {
    let mut sim = SimTotals::default();
    for l in &mc.layers {
        sim.add(&l.comparison);
    }
    sim
}

fn cell_results(s: &Setup, done: &[(GemmDims, GemmComparison)]) -> Vec<CellResult> {
    done.iter()
        .map(|(dims, comparison)| CellResult {
            cell: single_cell(*dims, PATTERN, s.base_seed),
            capped: s.cfg.caps.apply(*dims),
            comparison: comparison.clone(),
        })
        .collect()
}

pub fn run(
    workload: Workload,
    base_seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    report: &mut Report,
) -> Result<(), String> {
    if traced {
        trace::start();
    }
    let s = crate::timed_setups(report, traced, || setup(workload, base_seed), |_| Ok(()))
        .map_err(|e| format!("set-up failed: {e}"))?;
    let dir = scratch.join("probe");
    if traced {
        return run_traced(&s, &dir, report);
    }

    // The unit of work is repeated, cold each time, while another unit
    // still fits in `seconds` at the pace of the last one. Each unit is
    // one request that must simulate. After each unit, one window of hits
    // is sent to the probe serving the first unit's results, so that the
    // hit windows are spread over the run.
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let mut probe: Option<HitProbe> = None;
    while report.attempted == 0
        || start.elapsed().as_secs_f64() + walls.last().copied().unwrap_or(0.0) <= seconds
    {
        reset_decode_cache();
        report.attempted += 1;
        let t = Instant::now();
        let mc = match compare_model(&s.model, PATTERN, &s.cfg) {
            Ok(mc) => mc,
            Err(e) => {
                report.failed += 1;
                eprintln!("compare_model: {e}");
                continue;
            }
        };
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        report.miss_ms.push(wall * 1e3);
        report.requests += 1;
        let cells = distinct_cells(&s.model, &mc);
        for (_, c) in &cells {
            report.instret += c.baseline.report.instructions + c.proposed.report.instructions;
        }
        let sim = sim_totals(&mc);
        if report.sim.as_ref().is_some_and(|first| *first != sim) {
            report.failed += 1;
            eprintln!("a repeated unit simulated different results");
        }
        report.sim = Some(sim);
        let probe = match &mut probe {
            Some(p) => p,
            None => probe.insert(
                HitProbe::start(&dir, &s.cfg, s.base_seed, &cell_results(&s, &cells))
                    .map_err(|e| format!("hit probe: {e}"))?,
            ),
        };
        probe.batch(HIT_WINDOW);
    }
    let Some(mut probe) = probe else {
        return Err("every unit failed".into());
    };
    while probe.sent() < PROBE_HITS as u64 {
        probe.batch(HIT_WINDOW);
    }
    report.unit_walls = walls;
    finish_probe(probe, None, &dir, report)
}

fn finish_probe(
    probe: HitProbe,
    traced: Option<(&Setup, &CellResult)>,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let probe = probe
        .finish(traced.map(|(s, stored)| (&s.cfg, s.base_seed, stored, dir)))
        .map_err(|e| format!("hit probe: {e}"))?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    report.hit_ms = probe.hit_ms;
    for (name, value) in probe.layers {
        report.set_layer(name, value);
    }
    Ok(())
}

fn run_traced(s: &Setup, dir: &Path, report: &mut Report) -> Result<(), String> {
    // One untraced unit: the reference.
    let t = Instant::now();
    let mc = compare_model(&s.model, PATTERN, &s.cfg).map_err(|e| e.to_string())?;
    let untraced_wall = t.elapsed().as_secs_f64();
    let reference = distinct_cells(&s.model, &mc);
    let core_cache = decode_cache_stats();
    reset_decode_cache();

    // The same cells, replayed with a span around every layer call (the
    // recording started before set-up, which built the model).
    let t = Instant::now();
    let mut replica = Replica::new();
    let mut done: Vec<(GemmDims, GemmComparison)> = Vec::new();
    for (i, (dims, _)) in reference.iter().enumerate() {
        trace::set_request(i as u64);
        report.attempted += 1;
        let c = trace::span("core", "core.compare_gemm", || {
            replica.compare_gemm(*dims, PATTERN, &s.cfg)
        })
        .map_err(|e| e.to_string())?;
        done.push((*dims, c));
    }
    let traced_wall = t.elapsed().as_secs_f64();
    let spans = trace::finish();

    if done != reference {
        report.failed += 1;
        eprintln!("traced replay disagrees with the untraced run");
    }
    let cells: Vec<(GemmDims, NmPattern)> = done
        .iter()
        .map(|(dims, _)| (s.cfg.caps.apply(*dims), PATTERN))
        .collect();
    report.record_replay(
        &cells,
        replica.counts,
        core_cache,
        &spans,
        traced_wall,
        untraced_wall,
    );
    report.sim = Some(sim_totals(&assemble(&s.model, &s.cfg, &done)));
    let results = cell_results(s, &done);
    let mut probe = HitProbe::start(dir, &s.cfg, s.base_seed, &results)
        .map_err(|e| format!("hit probe: {e}"))?;
    probe.batch(PROBE_HITS);
    finish_probe(probe, Some((s, &results[0])), dir, report)
}
