//! Reproduces **Fig. 4** — per-layer speedup of the proposed vindexmac
//! kernel over Row-Wise-SpMM on ResNet50, for 1:4 and 2:4 structured
//! sparsity. Prints one row per convolution layer (the paper's bars),
//! normalised to Row-Wise-SpMM, plus the min/max range the paper quotes
//! (1.60x–2.15x for 1:4; 1.63x–1.99x for 2:4).

use indexmac::sparse::NmPattern;
use indexmac::table::{fmt_speedup, Table};
use indexmac_bench::{banner, CachedCompare, Profile};
use indexmac_models::resnet50;

fn main() {
    let cfg = Profile::from_env().config();
    banner(
        "Fig. 4: per-layer speedup on ResNet50 (normalised to Row-Wise-SpMM)",
        &cfg,
    );
    let model = resnet50();

    for (panel, pattern) in ["(a)", "(b)"].into_iter().zip(NmPattern::EVALUATED) {
        let mut cache = CachedCompare::new(cfg);
        // Fan the whole layer list out to the sweep executor;
        // the serial loop below then prints from cache hits only.
        cache.warm(model.layers.iter().map(|l| (l.gemm, pattern)));
        let mut table = Table::new(vec!["layer", "GEMM (RxKxN)", "simulated", "speedup"]);
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for layer in &model.layers {
            let dims = layer.gemm;
            let cmp = cache.compare(dims, pattern);
            let s = cmp.speedup();
            lo = lo.min(s);
            hi = hi.max(s);
            table.row(vec![
                layer.name.clone(),
                format!("{}x{}x{}", dims.rows, dims.inner, dims.cols),
                format!(
                    "{}x{}x{}",
                    cmp.proposed.gemm.rows, cmp.proposed.gemm.inner, cmp.proposed.gemm.cols
                ),
                fmt_speedup(s),
            ]);
        }
        println!("\nFig. 4{panel} — {pattern} structured sparsity");
        print!("{}", table.render());
        println!(
            "range {}-{}  ({} unique simulations; paper reports {} across layers)",
            fmt_speedup(lo),
            fmt_speedup(hi),
            cache.unique_runs(),
            if pattern == NmPattern::P1_4 {
                "1.60x-2.15x"
            } else {
                "1.63x-1.99x"
            },
        );
    }
}
