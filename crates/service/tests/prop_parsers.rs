//! Property tests of the parsers the daemon feeds untrusted bytes to:
//! the `serde_json` shim (request bodies and store records) and the
//! record decoder. Neither may panic on any input, and a record
//! survives the store's text round trip bit for bit.

use indexmac::experiment::ExperimentConfig;
use indexmac::record::{decode_cell_result, encode_cell_result};
use indexmac::sweep::{run_grid_serial, SweepGrid};
use indexmac_kernels::{Dataflow, GemmDims};
use indexmac_sparse::NmPattern;
use proptest::prelude::*;
use serde::Value;
use std::sync::OnceLock;

/// JSON fragments: every structural token, escapes (surrogates
/// included), literal prefixes, numbers at and beyond the integer
/// ranges, nesting runs past the parser's depth limit, and raw bytes.
fn json_fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop_oneof![
            Just(b"{".to_vec()),
            Just(b"}".to_vec()),
            Just(b"[".to_vec()),
            Just(b"]".to_vec()),
            Just(b",".to_vec()),
            Just(b":".to_vec()),
            Just(b"\"".to_vec()),
            Just(b" ".to_vec()),
        ],
        prop_oneof![
            Just(b"\\u".to_vec()),
            Just(b"\\ud800".to_vec()),
            Just(b"\\udc00".to_vec()),
            Just(b"\\".to_vec()),
            Just(b"tru".to_vec()),
            Just(b"null".to_vec()),
            Just(b"-".to_vec()),
            Just(b"1e400".to_vec()),
            Just(b".5".to_vec()),
        ],
        any::<u64>().prop_map(|n| n.to_string().into_bytes()),
        any::<i64>().prop_map(|n| n.to_string().into_bytes()),
        (0usize..300).prop_map(|n| vec![b'['; n]),
        (0usize..300).prop_map(|n| vec![b'{'; n]),
        prop::collection::vec(any::<u8>(), 0..16),
    ]
}

/// Records of real cells, as the store writes them.
fn sample_records() -> &'static [String] {
    static RECORDS: OnceLock<Vec<String>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let grid = SweepGrid::new(
            NmPattern::EVALUATED.to_vec(),
            vec![GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            }],
        );
        run_grid_serial(&grid, &ExperimentConfig::fast())
            .expect("sample cells simulate")
            .cells
            .iter()
            .map(|r| serde_json::to_string(&encode_cell_result(r)).expect("total"))
            .collect()
    })
}

/// The number of scalar leaves of `v`.
fn leaf_count(v: &Value) -> usize {
    match v {
        Value::Array(items) => items.iter().map(leaf_count).sum(),
        Value::Object(fields) => fields.iter().map(|(_, f)| leaf_count(f)).sum(),
        _ => 1,
    }
}

/// Replaces the `index`-th scalar leaf of `v`, counted depth first,
/// with `leaf`; returns whether there was one.
fn replace_leaf(v: &mut Value, index: &mut usize, leaf: &Value) -> bool {
    match v {
        Value::Array(items) => items.iter_mut().any(|i| replace_leaf(i, index, leaf)),
        Value::Object(fields) => fields.iter_mut().any(|(_, f)| replace_leaf(f, index, leaf)),
        scalar if *index == 0 => {
            *scalar = leaf.clone();
            true
        }
        _ => {
            *index -= 1;
            false
        }
    }
}

proptest! {
    #[test]
    fn json_parser_never_panics(
        raw in prop::collection::vec(any::<u8>(), 0..512),
        fragments in prop::collection::vec(json_fragment(), 0..48),
    ) {
        for bytes in [raw, fragments.concat()] {
            let _ = serde_json::from_str(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn record_decoder_never_panics(
        fragments in prop::collection::vec(json_fragment(), 0..48),
        record in 0usize..2,
        cut in any::<usize>(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        leaf in any::<usize>(),
        number in any::<u64>(),
    ) {
        // Arbitrary JSON, where it parses at all.
        if let Ok(v) = serde_json::from_str(&String::from_utf8_lossy(&fragments.concat())) {
            let _ = decode_cell_result(&v);
        }
        // A real record, truncated or with bytes overwritten.
        let text = sample_records()[record].as_bytes();
        let mut edited = text.to_vec();
        for (at, byte) in edits {
            let at = at % edited.len();
            edited[at] = byte;
        }
        for bytes in [&text[..cut % text.len()], &edited[..]] {
            if let Ok(v) = serde_json::from_str(&String::from_utf8_lossy(bytes)) {
                let _ = decode_cell_result(&v);
            }
        }
        // A real record with one field set to any number or a string.
        let mut v = serde_json::from_str(&sample_records()[record]).expect("record parses");
        let leaf = leaf % leaf_count(&v);
        for replacement in [Value::UInt(number), Value::Str(number.to_string())] {
            let mut at = leaf;
            prop_assert!(replace_leaf(&mut v, &mut at, &replacement));
            let _ = decode_cell_result(&v);
        }
    }

    #[test]
    fn records_round_trip_through_json_text(
        rows in 1usize..=16,
        inner_groups in 1usize..=16,
        cols in 1usize..=32,
        dataflow in 0usize..3,
        base_seed in any::<u64>(),
    ) {
        let mut grid = SweepGrid::new(
            NmPattern::ALL.to_vec(),
            vec![GemmDims {
                rows,
                inner: 4 * inner_groups,
                cols,
            }],
        )
        .with_base_seed(base_seed);
        grid.dataflows = vec![Dataflow::ALL[dataflow]];
        let result = run_grid_serial(&grid, &ExperimentConfig::fast()).expect("cells simulate");
        for cell in &result.cells {
            let text = serde_json::to_string(&encode_cell_result(cell)).expect("total");
            let decoded = decode_cell_result(&serde_json::from_str(&text).expect("record parses"));
            prop_assert_eq!(decoded.as_ref(), Ok(cell));
        }
    }
}
