//! Ablation for the **multi-precision datapath**: sweeps
//! SEW ∈ {8, 16, 32} for `vindexmac.vvi` at fixed dims/pattern and
//! prints every precision against the e32 baseline on the same shapes.
//!
//! At e8 every 512-bit register holds 64 elements instead of 16, so a
//! column tile is covered in 4× fewer vector instructions and the
//! fixed-shape metadata reload is paid 4× less often; the engine's
//! bit-sliced lanes keep elements-per-cycle constant, so the
//! instruction cut converts directly into cycles. The integer runs
//! verify **bit-exactly** against the i32 reference (no tolerance).
//!
//! Like the other harnesses, the simulations batch through the sweep
//! executor (`indexmac::sweep::run_grid`), one grid per precision, with
//! identical per-cell seeds so only SEW varies.

use indexmac::experiment::{Algorithm, ExperimentConfig, Precision};
use indexmac::kernels::GemmDims;
use indexmac::sparse::NmPattern;
use indexmac::sweep::{available_threads, run_grid, SweepGrid, SweepResult};
use indexmac::table::{fmt_speedup, Table};
use indexmac_bench::{banner, Profile};

fn sweep_at(precision: Precision, grid: &SweepGrid, base: &ExperimentConfig) -> SweepResult {
    let cfg = ExperimentConfig {
        precision,
        baseline: Algorithm::IndexMac,
        proposed: Algorithm::IndexMac2,
        ..*base
    };
    run_grid(grid, &cfg, available_threads()).expect("sweep simulates")
}

fn main() {
    let base_cfg = Profile::from_env().config();
    banner("Ablation: IndexMAC2 element width (SEW 8/16/32)", &base_cfg);
    let dims = vec![
        GemmDims {
            rows: 64,
            inner: 256,
            cols: 128,
        },
        GemmDims {
            rows: 32,
            inner: 128,
            cols: 256,
        },
    ];

    for pattern in NmPattern::EVALUATED {
        println!("\n{pattern} structured sparsity, vindexmac.vvi vs vindexmac.vx");
        let grid = SweepGrid::new(vec![pattern], dims.clone());
        let e32 = sweep_at(Precision::F32, &grid, &base_cfg);
        let mut table = Table::new(vec![
            "GEMM (RxKxN)",
            "sew",
            "cycles",
            "vs e32 cycles",
            "instret",
            "vector instrs (vvi side)",
            "verification",
        ]);
        for precision in [Precision::F32, Precision::I16, Precision::I8] {
            let result = if precision == Precision::F32 {
                e32.clone()
            } else {
                sweep_at(precision, &grid, &base_cfg)
            };
            for (cell, ref32) in result.cells.iter().zip(&e32.cells) {
                let d = cell.cell.dims;
                let prop = &cell.comparison.proposed.report;
                table.row(vec![
                    format!("{}x{}x{}", d.rows, d.inner, d.cols),
                    format!("e{}", precision.bits()),
                    prop.cycles.to_string(),
                    fmt_speedup(
                        ref32.comparison.proposed.report.cycles as f64 / prop.cycles as f64,
                    ),
                    prop.instructions.to_string(),
                    prop.counts.vector_total().to_string(),
                    if precision.is_int() {
                        "bit-exact i32"
                    } else {
                        "k-scaled tol"
                    }
                    .to_string(),
                ]);
            }
        }
        print!("{}", table.render());
    }
    println!(
        "\nexpected: e16 halves and e8 quarters the vector-instruction count of e32 at \
         equal dims (wider tiles amortise the fixed-shape metadata), which carries \
         straight into cycles; both integer precisions verify bit-exactly"
    );
}
