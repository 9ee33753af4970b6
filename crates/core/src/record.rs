//! Bit-exact persistence codec for [`CellResult`]: a `Value`-tree
//! encoding that round-trips every measurement — including the two f64
//! hit rates, stored as raw IEEE-754 bits — so a warm store hit is
//! indistinguishable from a fresh simulation.
//!
//! The sweep service's acceptance bar is *bit identity*: a result
//! served from disk must compare equal (`==`, which on [`RunReport`]
//! includes float fields) to the result a fresh [`run_grid`] would
//! produce. JSON text round-trips of floats are shortest-representation
//! faithful in Rust, but the codec does not lean on that: `f64`s are
//! persisted as their `to_bits()` integer, making the record format
//! trivially exact and grep-friendly for everything else.
//!
//! [`run_grid`]: crate::sweep::run_grid

use crate::experiment::{GemmComparison, LayerResult};
use crate::sweep::{CellResult, SweepCell};
use indexmac_isa::InstrClass;
use indexmac_kernels::GemmDims;
use indexmac_mem::MemStats;
use indexmac_sparse::NmPattern;
use indexmac_vpu::RunReport;
use serde::Value;

/// Version tag of the record encoding itself (independent of the
/// digest version: the same digest can be re-encoded).
pub const RECORD_VERSION: u32 = 1;

fn dims_value(d: GemmDims) -> Value {
    Value::object([
        ("rows", Value::UInt(d.rows as u64)),
        ("inner", Value::UInt(d.inner as u64)),
        ("cols", Value::UInt(d.cols as u64)),
    ])
}

fn report_value(r: &RunReport) -> Value {
    Value::object([
        ("cycles", Value::UInt(r.cycles)),
        ("instructions", Value::UInt(r.instructions)),
        (
            "counts",
            Value::Array(
                InstrClass::ALL
                    .iter()
                    .map(|&c| Value::UInt(r.counts.get(c)))
                    .collect(),
            ),
        ),
        (
            "mem",
            Value::object([
                ("scalar_loads", Value::UInt(r.mem.scalar_loads)),
                ("scalar_stores", Value::UInt(r.mem.scalar_stores)),
                ("vector_loads", Value::UInt(r.mem.vector_loads)),
                ("vector_stores", Value::UInt(r.mem.vector_stores)),
                ("dram_reads", Value::UInt(r.mem.dram_reads)),
                ("dram_writes", Value::UInt(r.mem.dram_writes)),
            ]),
        ),
        ("l1d_hit_rate_bits", Value::UInt(r.l1d_hit_rate.to_bits())),
        ("l2_hit_rate_bits", Value::UInt(r.l2_hit_rate.to_bits())),
        ("engine_busy_cycles", Value::UInt(r.engine_busy_cycles)),
        ("vq_stall_cycles", Value::UInt(r.vq_stall_cycles)),
        ("rob_stall_cycles", Value::UInt(r.rob_stall_cycles)),
        ("v2s_syncs", Value::UInt(r.v2s_syncs)),
    ])
}

fn layer_value(l: &LayerResult) -> Value {
    Value::object([
        ("algorithm", Value::Str(l.algorithm.tag().into())),
        ("pattern_n", Value::UInt(l.pattern.n() as u64)),
        ("pattern_m", Value::UInt(l.pattern.m() as u64)),
        ("gemm", dims_value(l.gemm)),
        ("full_gemm", dims_value(l.full_gemm)),
        ("report", report_value(&l.report)),
    ])
}

/// Encodes a [`CellResult`] into the persistent record form.
pub fn encode_cell_result(r: &CellResult) -> Value {
    Value::object([
        ("version", Value::UInt(u64::from(RECORD_VERSION))),
        (
            "cell",
            Value::object([
                ("dims", dims_value(r.cell.dims)),
                ("pattern_n", Value::UInt(r.cell.pattern.n() as u64)),
                ("pattern_m", Value::UInt(r.cell.pattern.m() as u64)),
                ("dataflow", Value::Str(r.cell.dataflow.tag().into())),
                ("seed", Value::UInt(r.cell.seed)),
            ]),
        ),
        ("capped", dims_value(r.capped)),
        ("baseline", layer_value(&r.comparison.baseline)),
        ("proposed", layer_value(&r.comparison.proposed)),
    ])
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(field_u64(v, key)?).map_err(|e| format!("field '{key}' out of range: {e}"))
}

fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

fn decode_dims(v: &Value) -> Result<GemmDims, String> {
    Ok(GemmDims {
        rows: field_usize(v, "rows")?,
        inner: field_usize(v, "inner")?,
        cols: field_usize(v, "cols")?,
    })
}

fn decode_pattern(v: &Value) -> Result<NmPattern, String> {
    NmPattern::new(field_usize(v, "pattern_n")?, field_usize(v, "pattern_m")?)
        .map_err(|e| format!("invalid pattern: {e}"))
}

fn decode_report(v: &Value) -> Result<RunReport, String> {
    let counts_field = field(v, "counts")?
        .as_array()
        .ok_or_else(|| "field 'counts' is not an array".to_string())?;
    if counts_field.len() != InstrClass::COUNT {
        return Err(format!(
            "counts has {} entries, expected {}",
            counts_field.len(),
            InstrClass::COUNT
        ));
    }
    let mut counts = indexmac_vpu::ClassCounts::default();
    for (&class, value) in InstrClass::ALL.iter().zip(counts_field) {
        counts.set(
            class,
            value
                .as_u64()
                .ok_or_else(|| "counts entry is not an unsigned integer".to_string())?,
        );
    }
    let mem = field(v, "mem")?;
    Ok(RunReport {
        cycles: field_u64(v, "cycles")?,
        instructions: field_u64(v, "instructions")?,
        counts,
        mem: MemStats {
            scalar_loads: field_u64(mem, "scalar_loads")?,
            scalar_stores: field_u64(mem, "scalar_stores")?,
            vector_loads: field_u64(mem, "vector_loads")?,
            vector_stores: field_u64(mem, "vector_stores")?,
            dram_reads: field_u64(mem, "dram_reads")?,
            dram_writes: field_u64(mem, "dram_writes")?,
        },
        l1d_hit_rate: f64::from_bits(field_u64(v, "l1d_hit_rate_bits")?),
        l2_hit_rate: f64::from_bits(field_u64(v, "l2_hit_rate_bits")?),
        engine_busy_cycles: field_u64(v, "engine_busy_cycles")?,
        vq_stall_cycles: field_u64(v, "vq_stall_cycles")?,
        rob_stall_cycles: field_u64(v, "rob_stall_cycles")?,
        v2s_syncs: field_u64(v, "v2s_syncs")?,
    })
}

fn decode_layer(v: &Value) -> Result<LayerResult, String> {
    Ok(LayerResult {
        algorithm: field_str(v, "algorithm")?.parse()?,
        pattern: decode_pattern(v)?,
        gemm: decode_dims(field(v, "gemm")?)?,
        full_gemm: decode_dims(field(v, "full_gemm")?)?,
        report: decode_report(field(v, "report")?)?,
    })
}

/// Decodes a persisted record back into the exact [`CellResult`] it
/// was encoded from.
///
/// # Errors
///
/// Returns a descriptive message for any missing field, wrong type,
/// unknown tag or unsupported record version — the store maps every
/// decode failure to a cache miss.
pub fn decode_cell_result(v: &Value) -> Result<CellResult, String> {
    let version = field_u64(v, "version")?;
    if version != u64::from(RECORD_VERSION) {
        return Err(format!(
            "record version {version} unsupported (expected {RECORD_VERSION})"
        ));
    }
    let cell = field(v, "cell")?;
    Ok(CellResult {
        cell: SweepCell {
            dims: decode_dims(field(cell, "dims")?)?,
            pattern: decode_pattern(cell)?,
            dataflow: field_str(cell, "dataflow")?.parse()?,
            seed: field_u64(cell, "seed")?,
        },
        capped: decode_dims(field(v, "capped")?)?,
        comparison: GemmComparison {
            baseline: decode_layer(field(v, "baseline")?)?,
            proposed: decode_layer(field(v, "proposed")?)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Algorithm, ExperimentConfig};
    use crate::sweep::{run_cell, SweepGrid};
    use indexmac_kernels::Dataflow;

    fn sample_results() -> Vec<CellResult> {
        let grid = SweepGrid::new(
            NmPattern::EVALUATED.to_vec(),
            vec![GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            }],
        );
        let cfg = ExperimentConfig::fast();
        grid.cells()
            .into_iter()
            .map(|c| run_cell(c, &cfg).unwrap())
            .collect()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for result in sample_results() {
            let value = encode_cell_result(&result);
            let decoded = decode_cell_result(&value).unwrap();
            assert_eq!(decoded, result, "Value round trip must be exact");

            // And through JSON text — the real persistence path.
            let json = serde_json::to_string(&value).unwrap();
            let reparsed = serde_json::from_str(&json).unwrap();
            let decoded = decode_cell_result(&reparsed).unwrap();
            assert_eq!(decoded, result, "JSON round trip must be bit-identical");
            assert_eq!(
                decoded.comparison.baseline.report.l1d_hit_rate.to_bits(),
                result.comparison.baseline.report.l1d_hit_rate.to_bits(),
            );
        }
    }

    #[test]
    fn hit_rates_round_trip_exactly_even_when_display_would_not() {
        // A hit rate with no short decimal form: persisted as raw bits,
        // so the text round trip cannot perturb it.
        let mut result = sample_results().remove(0);
        result.comparison.proposed.report.l1d_hit_rate = 0.1 + 0.2; // 0.30000000000000004
        result.comparison.proposed.report.l2_hit_rate = f64::from_bits(0x3FD5_5555_5555_5555);
        let json = serde_json::to_string(&encode_cell_result(&result)).unwrap();
        let decoded = decode_cell_result(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(decoded, result);
    }

    #[test]
    fn decode_rejects_malformed_records() {
        let good = encode_cell_result(&sample_results().remove(0));
        assert!(decode_cell_result(&good).is_ok());

        let mut wrong_version = good.clone();
        if let Value::Object(fields) = &mut wrong_version {
            fields[0].1 = Value::UInt(999);
        }
        assert!(decode_cell_result(&wrong_version)
            .unwrap_err()
            .contains("version"));

        let mut missing = good.clone();
        if let Value::Object(fields) = &mut missing {
            fields.retain(|(k, _)| k != "baseline");
        }
        assert!(decode_cell_result(&missing)
            .unwrap_err()
            .contains("baseline"));

        assert!(decode_cell_result(&Value::Null).is_err());
        assert!("gpu".parse::<Algorithm>().is_err());
        assert!("x".parse::<Dataflow>().is_err());
    }

    #[test]
    fn tags_round_trip_every_variant() {
        for a in Algorithm::ALL {
            assert_eq!(a.tag().parse::<Algorithm>().unwrap(), a);
        }
        for d in Dataflow::ALL {
            assert_eq!(d.tag().parse::<Dataflow>().unwrap(), d);
        }
    }
}
