//! Every shipped kernel builder emits only opcodes the decoded engine
//! runs as native µops: no slot of any builder × precision × LMUL ×
//! dataflow smoke kernel falls back to the `step()` oracle. The oracle
//! fallback (`Uop::Step`) is kept only for opcodes no builder emits.

use indexmac_isa::Program;
use indexmac_kernels::{
    dense, indexmac, indexmac2, rowwise, scalar_idx, Dataflow, ElemType, GemmLayout, KernelError,
    KernelParams,
};
use indexmac_sparse::{prune, quant, NmPattern, StructuredSparseMatrix};
use indexmac_vpu::{DecodedProgram, SimConfig};
use std::collections::BTreeSet;

type Builder = fn(&GemmLayout, &KernelParams) -> Result<Program, KernelError>;

const BUILDERS: [(&str, Builder); 5] = [
    ("dense", dense::build),
    ("rowwise", rowwise::build),
    ("scalar_idx", scalar_idx::build),
    ("indexmac", indexmac::build),
    ("indexmac2", indexmac2::build),
];

fn operand(elem: ElemType) -> StructuredSparseMatrix {
    let pattern = NmPattern::P2_4;
    match elem {
        ElemType::F32 => prune::random_structured(6, 40, pattern, 7),
        _ => quant::random_structured_int(6, 40, pattern, 7, elem),
    }
}

#[test]
fn every_shipped_kernel_decodes_to_native_uops_only() {
    let cfg = SimConfig::table_i();
    let mut built = BTreeSet::new();
    for elem in ElemType::ALL {
        let a = operand(elem);
        for lmul in [1, 2, 4] {
            let tile_rows = GemmLayout::fit_tile_rows(8, lmul, NmPattern::P2_4);
            // e8 and e16 cap the widening accumulator group at m4.
            let Ok(layout) = GemmLayout::plan_elem(&a, 20, &cfg, tile_rows, lmul, elem) else {
                continue;
            };
            for (name, build) in BUILDERS {
                for (dataflow, unroll) in Dataflow::ALL
                    .into_iter()
                    .flat_map(|d| (1..=4).map(move |u| (d, u)))
                {
                    let params = KernelParams { unroll, dataflow };
                    // Builders reject the precisions, groupings and
                    // unrolls they do not support; the set below pins
                    // which combinations were built.
                    let Ok(program) = build(&layout, &params) else {
                        continue;
                    };
                    let decoded = DecodedProgram::decode_owned(program);
                    assert_eq!(
                        decoded.oracle_slots(),
                        0,
                        "{name} {elem:?} m{lmul} {dataflow:?} x{unroll}: a slot falls back to the oracle"
                    );
                    built.insert(format!("{name} {elem:?} m{lmul}"));
                }
            }
        }
    }
    // f32 m1: all five builders; f32 m2/m4: indexmac2; i16 m1: both
    // IndexMAC generations, i16 m2: indexmac2; i8 m1: both generations.
    let expected: BTreeSet<String> = [
        "dense F32 m1",
        "rowwise F32 m1",
        "scalar_idx F32 m1",
        "indexmac F32 m1",
        "indexmac2 F32 m1",
        "indexmac2 F32 m2",
        "indexmac2 F32 m4",
        "indexmac I16 m1",
        "indexmac2 I16 m1",
        "indexmac2 I16 m2",
        "indexmac I8 m1",
        "indexmac2 I8 m1",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(built, expected);
}
