//! Sweep N:M sparsity templates on a fixed GEMM to see how the benefit
//! of `vindexmac` scales with the non-zero density — extending the
//! paper's 1:4 / 2:4 evaluation to the wider template family.
//!
//! ```text
//! cargo run --release --example sparsity_sweep
//! ```

use indexmac::experiment::{run_gemm, Algorithm, ExperimentConfig};
use indexmac::kernels::{Dataflow, GemmDims};
use indexmac::sparse::NmPattern;
use indexmac::sweep::{available_threads, run_cells, SweepCell};
use indexmac::table::{fmt_pct, fmt_speedup, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = GemmDims {
        rows: 64,
        inner: 256,
        cols: 128,
    };
    let cfg = ExperimentConfig::paper();
    println!(
        "sparsity sweep on a {}x{}x{} GEMM (Table I machine, L=16, unroll x4)\n",
        dims.rows, dims.inner, dims.cols
    );

    // Dense reference point (Algorithm 1).
    let dense = run_gemm(dims, NmPattern::P1_4, Algorithm::Dense, &cfg)?;
    println!(
        "dense row-wise baseline (Algorithm 1): {} cycles\n",
        dense.report.cycles
    );

    // Fan the whole template family out in parallel; pin every cell to
    // the campaign seed so the rows match a serial compare_gemm loop.
    let patterns = [(1usize, 2usize), (1, 4), (2, 4), (1, 8), (2, 8), (4, 8)]
        .into_iter()
        .map(|(n, m)| NmPattern::new(n, m))
        .collect::<Result<Vec<_>, _>>()?;
    let cells = patterns
        .iter()
        .map(|&pattern| SweepCell {
            dims,
            pattern,
            dataflow: Dataflow::BStationary,
            seed: cfg.seed,
        })
        .collect();
    let result = run_cells(cells, &cfg, available_threads())?;

    let mut table = Table::new(vec![
        "N:M",
        "density",
        "speedup vs Row-Wise-SpMM",
        "normalized mem accesses",
        "cycles vs dense",
    ]);
    for cell in &result {
        let cmp = &cell.comparison;
        table.row(vec![
            cell.cell.pattern.to_string(),
            fmt_pct(cell.cell.pattern.density()),
            fmt_speedup(cell.speedup()),
            fmt_pct(cell.mem_ratio()),
            fmt_speedup(dense.report.cycles as f64 / cmp.proposed.report.cycles as f64),
        ]);
    }
    print!("{}", table.render());
    println!("\ndenser templates do more MACs per row of A, so the eliminated B-loads");
    println!("are a larger share of the baseline and the memory cut grows (paper Fig. 6),");
    println!("while the speedup shrinks slightly (paper Section IV-B)");
    Ok(())
}
