//! Ablation for the Section IV-A claim: "the B-stationary dataflow
//! (used by 'Proposed') also yields the best total execution times for
//! 'Row-Wise-SpMM'", and "if 'Row-Wise-SpMM' were to employ a
//! C-stationary dataflow, its total number of memory stores would
//! decrease significantly [but] this reduction ... does not improve the
//! total execution time".
//!
//! Runs Row-Wise-SpMM under all three dataflows on representative
//! ResNet50 layers, fanned out to the sweep executor over the
//! (pattern × layer × dataflow) grid.

use indexmac::sparse::NmPattern;
use indexmac::sweep::{available_threads, run_cells, SweepCell};
use indexmac::table::Table;
use indexmac_bench::{banner, Profile};
use indexmac_kernels::Dataflow;
use indexmac_models::resnet50;

fn main() {
    let base_cfg = Profile::from_env().config();
    banner(
        "Ablation: Row-Wise-SpMM dataflow comparison (Section IV-A)",
        &base_cfg,
    );
    let model = resnet50();
    let picks = ["layer1.0.conv2", "layer2.1.conv2", "layer4.2.conv3"];
    let layers: Vec<_> = picks
        .iter()
        .map(|name| {
            model
                .layers
                .iter()
                .find(|l| l.name == *name)
                .expect("layer exists")
        })
        .collect();

    for pattern in NmPattern::EVALUATED {
        println!("\n{pattern} structured sparsity");
        // One sweep cell per (layer, dataflow), every cell pinned to the
        // campaign seed so operands match across dataflows.
        let cells: Vec<SweepCell> = layers
            .iter()
            .flat_map(|layer| {
                Dataflow::ALL.into_iter().map(|dataflow| SweepCell {
                    dims: layer.gemm,
                    pattern,
                    dataflow,
                    seed: base_cfg.seed,
                })
            })
            .collect();
        let results =
            run_cells(cells, &base_cfg, available_threads()).expect("simulation succeeds");

        let mut table = Table::new(vec![
            "layer",
            "dataflow",
            "cycles",
            "vs B-stationary",
            "stores",
        ]);
        for (layer, per_layer) in layers.iter().zip(results.chunks(Dataflow::ALL.len())) {
            let b_cycles = per_layer
                .iter()
                .find(|c| c.cell.dataflow == Dataflow::BStationary)
                .map(|c| c.comparison.baseline.report.cycles)
                .expect("B-stationary present");
            for cell in per_layer {
                let report = &cell.comparison.baseline.report;
                table.row(vec![
                    layer.name.clone(),
                    cell.cell.dataflow.to_string(),
                    report.cycles.to_string(),
                    format!(
                        "{:+.1}%",
                        (report.cycles as f64 / b_cycles as f64 - 1.0) * 100.0
                    ),
                    report.mem.vector_stores.to_string(),
                ]);
            }
        }
        print!("{}", table.render());
    }
    println!("\nexpected: B-stationary fastest; C-stationary far fewer stores, no time win");
}
