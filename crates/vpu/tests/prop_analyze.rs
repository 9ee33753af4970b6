//! Differential property suite: the static analyzer vs the stepwise
//! oracle.
//!
//! Two implications pin the analyzer to the interpreter:
//!
//! * **Soundness** — if `analyze` reports zero error-class diagnostics
//!   (so a `Verified` token is minted and `lint` reports the kernel
//!   clean), the stepwise oracle must never fault on the same program.
//!   A violation here would mean a clean lint verdict can hide a fault.
//! * **Precision tracking** — if the oracle faults, the analyzer must
//!   have flagged an error-class diagnostic, and that diagnostic must
//!   either name the rule corresponding to the concrete fault or be
//!   explicitly `Unprovable` / on the pinned imprecision allowlist
//!   (the analyzer lost the value and had to assume the worst).
//!
//! Whenever a token is minted, a third check runs the program through
//! the engine ([`Simulator::run_decoded`]) and the timed stepwise oracle
//! ([`Simulator::run_stepwise_timed`]): outcome, `RunReport`,
//! architectural state and a memory sample must be identical.
//!
//! The properties run over three program distributions: the hostile
//! generator from the engine differential suite (faults are common), a
//! tame, mostly-legal generator (clean verdicts are common), so neither
//! implication is routinely vacuous, and the unrolled `vindexmac.vvi`
//! block shape the kernel builders emit, over a patterned register file
//! so the indirect sources vary. Run with `PROPTEST_CASES=64` (or more)
//! in CI; the shim's deterministic per-test RNG makes failures
//! reproducible.

use indexmac_isa::instr::FReg;
use indexmac_isa::{Instruction, Lmul, Program, ProgramBuilder, Sew, VReg, XReg};
use indexmac_vpu::{
    analyze, Confidence, DecodedProgram, ExecError, NullObserver, Rule, Severity, SimConfig,
    SimError, Simulator,
};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Dynamic-instruction guard: hitting it is *not* a fault for these
/// properties (the analyzer proves fault-freedom, not termination).
const MAX_DYN: u64 = 4_000;

/// Rules the precision property accepts for *any* concrete fault, even
/// at `Proven` confidence: once the abstract vtype is lost, every
/// SEW-dependent runtime fault is downstream of the same imprecision.
const IMPRECISION_ALLOWLIST: &[Rule] = &[Rule::UnknownVtype];

fn treg() -> impl Strategy<Value = XReg> {
    (0u8..10).prop_map(XReg::new)
}

fn areg() -> impl Strategy<Value = XReg> {
    (10u8..14).prop_map(XReg::new)
}

fn vreg() -> impl Strategy<Value = VReg> {
    (0u8..32).prop_map(VReg::new)
}

fn freg() -> impl Strategy<Value = FReg> {
    (0u8..4).prop_map(FReg::new)
}

fn exec_sew() -> impl Strategy<Value = Sew> {
    prop_oneof![Just(Sew::E8), Just(Sew::E16), Just(Sew::E32)]
}

fn lmul() -> impl Strategy<Value = Lmul> {
    prop_oneof![Just(Lmul::M1), Just(Lmul::M2), Just(Lmul::M4)]
}

/// The hostile instruction mix from `prop_engine`: every SEW and LMUL,
/// odd addresses, e64 vsetvli, wild branch offsets — faults are common.
fn hostile_instr() -> BoxedStrategy<Instruction> {
    prop_oneof![
        (treg(), -1000i64..1000).prop_map(|(rd, imm)| Instruction::Li { rd, imm }),
        (areg(), 0i64..0x4000).prop_map(|(rd, v)| Instruction::Li {
            rd,
            imm: 0x1000 + v
        }),
        (treg(), treg(), -64i32..64).prop_map(|(rd, rs1, imm)| Instruction::Addi { rd, rs1, imm }),
        (treg(), treg(), treg()).prop_map(|(rd, rs1, rs2)| Instruction::Add { rd, rs1, rs2 }),
        (treg(), treg(), treg()).prop_map(|(rd, rs1, rs2)| Instruction::Sub { rd, rs1, rs2 }),
        (treg(), treg(), treg()).prop_map(|(rd, rs1, rs2)| Instruction::Mul { rd, rs1, rs2 }),
        (treg(), treg(), 0u8..8).prop_map(|(rd, rs1, shamt)| Instruction::Slli { rd, rs1, shamt }),
        (treg(), treg(), 0u8..8).prop_map(|(rd, rs1, shamt)| Instruction::Srli { rd, rs1, shamt }),
        (treg(), areg(), 0i32..256).prop_map(|(rd, rs1, imm)| Instruction::Lw { rd, rs1, imm }),
        (treg(), areg(), 0i32..256).prop_map(|(rs2, rs1, imm)| Instruction::Sw { rs2, rs1, imm }),
        (freg(), areg(), 0i32..256).prop_map(|(fd, rs1, imm)| Instruction::Flw { fd, rs1, imm }),
        (treg(), treg(), -4i32..8).prop_map(|(rs1, rs2, offset)| Instruction::Beq {
            rs1,
            rs2,
            offset
        }),
        (treg(), treg(), -4i32..8).prop_map(|(rs1, rs2, offset)| Instruction::Bne {
            rs1,
            rs2,
            offset
        }),
        (treg(), 1i32..6).prop_map(|(rd, offset)| Instruction::Jal { rd, offset }),
        (
            treg(),
            prop_oneof![Just(XReg::ZERO), treg()],
            exec_sew(),
            lmul()
        )
            .prop_map(|(rd, rs1, sew, lmul)| Instruction::Vsetvli { rd, rs1, sew, lmul }),
        (treg(), lmul()).prop_map(|(rd, lmul)| Instruction::Vsetvli {
            rd,
            rs1: XReg::ZERO,
            sew: Sew::E64,
            lmul
        }),
        (vreg(), areg()).prop_map(|(vd, rs1)| Instruction::Vle8 { vd, rs1 }),
        (vreg(), areg()).prop_map(|(vd, rs1)| Instruction::Vle16 { vd, rs1 }),
        (vreg(), areg()).prop_map(|(vd, rs1)| Instruction::Vle32 { vd, rs1 }),
        (vreg(), areg()).prop_map(|(vs3, rs1)| Instruction::Vse32 { vs3, rs1 }),
        (vreg(), vreg(), treg()).prop_map(|(vd, vs2, rs)| Instruction::VindexmacVx { vd, vs2, rs }),
        (vreg(), vreg(), vreg(), 0u8..20)
            .prop_map(|(vd, vs2, vs1, slot)| { Instruction::VindexmacVvi { vd, vs2, vs1, slot } }),
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs2, vs1)| Instruction::VaddVv { vd, vs2, vs1 }),
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs2, vs1)| Instruction::VfaddVv { vd, vs2, vs1 }),
        (vreg(), freg(), vreg()).prop_map(|(vd, fs1, vs2)| Instruction::VfmaccVf { vd, fs1, vs2 }),
        (vreg(), treg()).prop_map(|(vd, rs1)| Instruction::VmvVx { vd, rs1 }),
        (treg(), vreg()).prop_map(|(rd, vs2)| Instruction::VmvXs { rd, vs2 }),
        (vreg(), vreg(), 0u8..8).prop_map(|(vd, vs2, imm)| Instruction::VslidedownVi {
            vd,
            vs2,
            imm
        }),
    ]
    .boxed()
}

/// Hostile program: seeded address registers, a random initial
/// `vsetvli`, then a random body and a final `ebreak`.
fn hostile_program() -> impl Strategy<Value = Program> {
    (
        exec_sew(),
        lmul(),
        proptest::collection::vec(hostile_instr(), 0..40),
    )
        .prop_map(|(sew, lmul, body)| {
            let mut b = ProgramBuilder::new();
            b.li(XReg::new(10), 0x1000);
            b.li(XReg::new(11), 0x2000);
            b.li(XReg::new(12), 0x3004);
            b.li(XReg::new(13), 0x4000);
            b.push(Instruction::Vsetvli {
                rd: XReg::new(5),
                rs1: XReg::ZERO,
                sew,
                lmul,
            });
            for i in body {
                b.push(i);
            }
            b.halt();
            b.build()
        })
}

/// Mostly-legal instruction mix: aligned addresses, e32/m1 only,
/// in-range slots, short forward branches — clean verdicts are common,
/// which keeps the soundness implication non-vacuous.
fn tame_instr() -> BoxedStrategy<Instruction> {
    prop_oneof![
        (treg(), -1000i64..1000).prop_map(|(rd, imm)| Instruction::Li { rd, imm }),
        // Addresses stay 64-byte aligned so every vector access at any
        // SEW is element-aligned by construction.
        (areg(), 0i64..0x40).prop_map(|(rd, v)| Instruction::Li {
            rd,
            imm: 0x1000 + v * 0x40
        }),
        (treg(), treg(), treg()).prop_map(|(rd, rs1, rs2)| Instruction::Add { rd, rs1, rs2 }),
        (treg(), treg(), treg()).prop_map(|(rd, rs1, rs2)| Instruction::Mul { rd, rs1, rs2 }),
        (treg(), treg()).prop_map(|(rd, rs)| Instruction::Mv { rd, rs }),
        (treg(), areg(), 0i32..64).prop_map(|(rd, rs1, imm)| Instruction::Lw {
            rd,
            rs1,
            imm: imm * 4
        }),
        (treg(), areg(), 0i32..64).prop_map(|(rs2, rs1, imm)| Instruction::Sw {
            rs2,
            rs1,
            imm: imm * 4
        }),
        (treg(), treg(), 1i32..4).prop_map(|(rs1, rs2, offset)| Instruction::Beq {
            rs1,
            rs2,
            offset
        }),
        // Single-register vector ops at the entry vtype (e32/m1).
        (0u8..32, areg()).prop_map(|(vd, rs1)| Instruction::Vle32 {
            vd: VReg::new(vd),
            rs1
        }),
        (0u8..32, areg()).prop_map(|(vs3, rs1)| Instruction::Vse32 {
            vs3: VReg::new(vs3),
            rs1
        }),
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs2, vs1)| Instruction::VaddVv { vd, vs2, vs1 }),
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs2, vs1)| Instruction::VfaddVv { vd, vs2, vs1 }),
        (vreg(), vreg(), vreg(), 0u8..4)
            .prop_map(|(vd, vs2, vs1, slot)| { Instruction::VindexmacVvi { vd, vs2, vs1, slot } }),
        (vreg(), treg()).prop_map(|(vd, rs1)| Instruction::VmvVx { vd, rs1 }),
        (treg(), vreg()).prop_map(|(rd, vs2)| Instruction::VmvXs { rd, vs2 }),
    ]
    .boxed()
}

/// Tame program: e32/m1 `vsetvli`, aligned operands, and a halt pad so
/// short forward branches always land on an `ebreak`.
fn tame_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(tame_instr(), 0..40).prop_map(|body| {
        let mut b = ProgramBuilder::new();
        b.li(XReg::new(10), 0x1000);
        b.li(XReg::new(11), 0x2000);
        b.li(XReg::new(12), 0x3000);
        b.li(XReg::new(13), 0x4000);
        b.push(Instruction::Vsetvli {
            rd: XReg::new(5),
            rs1: XReg::ZERO,
            sew: Sew::E32,
            lmul: Lmul::M1,
        });
        for i in body {
            b.push(i);
        }
        for _ in 0..4 {
            b.halt();
        }
        b.build()
    })
}

/// Unrolled IndexMAC blocks: `reps` identical blocks of `u`
/// consecutive `vindexmac.vvi` + a counter `addi` + a fall-through
/// `bne`, the shape the kernel builders emit per dynamic iteration.
/// The patterned register file ([`warmed_vrf_sim`]) supplies the
/// metadata, so the indirect sources (and their aliasing with the
/// destinations) vary freely.
fn mac_block_program() -> impl Strategy<Value = Program> {
    (
        1usize..5,
        1u64..12,
        exec_sew(),
        0u8..3,
        (20u8..24, 24u8..28),
    )
        .prop_map(|(u, reps, sew, dst_sel, (vs2_idx, vs1_idx))| {
            // Destination group base, aligned to the widening factor so
            // the block is legal at every SEW.
            let vd = VReg::new(dst_sel * 4);
            let vs2 = VReg::new(vs2_idx);
            let vs1 = VReg::new(vs1_idx);
            let mut b = ProgramBuilder::new();
            b.li(XReg::A0, 4);
            b.push(Instruction::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::A0,
                sew,
                lmul: Lmul::M1,
            });
            b.li(XReg::T2, 100);
            for r in 0..reps {
                for q in 0..u {
                    b.push(Instruction::VindexmacVvi {
                        vd: VReg::new(vd.index() + (q as u8 % 2) * 4),
                        vs2,
                        vs1,
                        slot: (r % 4) as u8,
                    });
                }
                b.push(Instruction::Addi {
                    rd: XReg::T2,
                    rs1: XReg::T2,
                    imm: -1,
                });
                let next = b.new_label();
                b.bne(XReg::T2, XReg::ZERO, next);
                b.bind(next);
            }
            b.halt();
            b.build()
        })
}

/// A simulator with patterned memory (the analyzer never models data,
/// so interesting loaded values stress the "loaded scalars are
/// unknown" abstraction).
fn warmed_sim() -> Simulator {
    let mut sim = Simulator::new(SimConfig::table_i());
    sim.set_max_instructions(MAX_DYN);
    for i in 0..0x4000u64 {
        sim.memory_mut()
            .write_u8(0x1000 + i, (i as u8).wrapping_mul(31).wrapping_add(11));
    }
    sim
}

/// [`warmed_sim`] plus a patterned register file, so metadata lanes
/// select varied indirect sources.
fn warmed_vrf_sim() -> Simulator {
    let mut sim = warmed_sim();
    for r in 0..32u8 {
        for lane in 0..16 {
            sim.state_mut().set_v_lane(
                VReg::new(r),
                lane,
                Sew::E32,
                (r as u32)
                    .wrapping_mul(0x0101_0013)
                    .wrapping_add(lane as u32 * 0x2F),
            );
        }
    }
    sim
}

/// Runs `p` through the engine (`decoded`) and the timed stepwise
/// oracle on fresh simulators from `fresh`, asserting identical
/// outcomes, reports, architectural state and memory.
fn check_engine_matches_oracle(
    p: &Program,
    decoded: &DecodedProgram,
    fresh: fn() -> Simulator,
) -> Result<(), TestCaseError> {
    let mut engine = fresh();
    let mut oracle = fresh();
    let fast = engine.run_decoded(decoded);
    let slow = oracle.run_stepwise_timed(p);
    prop_assert_eq!(fast, slow, "the engine changed the run's outcome or report");
    prop_assert_eq!(
        engine.state(),
        oracle.state(),
        "architectural state diverged"
    );
    for addr in (0x1000u64..0x5000).step_by(257) {
        prop_assert_eq!(
            engine.memory().read_u8(addr),
            oracle.memory().read_u8(addr),
            "memory diverged at {:#x}",
            addr
        );
    }
    Ok(())
}

/// The analyzer rule that corresponds 1:1 to a concrete fault.
fn direct_rule(fault: &SimError) -> Rule {
    match fault {
        SimError::Exec(e) => match e {
            ExecError::Unaligned { .. } => Rule::UnalignedAccess,
            ExecError::UnsupportedSew { .. } => Rule::UnsupportedSew,
            ExecError::IllegalSewForOp { .. } => Rule::IllegalSewForOp,
            ExecError::IllegalWidening { .. } => Rule::IllegalWidening,
            ExecError::PcOutOfRange { .. } => Rule::PcOutOfRange,
            ExecError::GroupingUnsupported { .. } => Rule::GroupingUnsupported,
            ExecError::GroupOutOfRange { .. } => Rule::GroupOutOfRange,
            ExecError::SlotOutOfRange { .. } => Rule::SlotOutOfRange,
        },
        SimError::FellOffEnd { .. } => Rule::FallsOffEnd,
        SimError::InstructionLimit { .. } => {
            unreachable!("instruction limit is not a fault for these properties")
        }
    }
}

/// Runs both properties, the token invariant and, under a token, the
/// engine-vs-oracle comparison on one program, starting every simulator
/// from `fresh`.
fn check_differential(p: &Program, fresh: fn() -> Simulator) -> Result<(), TestCaseError> {
    let cfg = SimConfig::table_i();
    let decoded = DecodedProgram::decode(p);
    let analysis = analyze(&decoded, cfg.vlen_bits);

    // Token invariant: minted exactly when no error-class diagnostic,
    // and bound to this program's identity.
    match analysis.verified() {
        Some(token) => {
            prop_assert_eq!(analysis.error_count(), 0);
            prop_assert_eq!(token.program_len(), p.len());
            prop_assert_eq!(token.vlen_bits(), cfg.vlen_bits);
            check_engine_matches_oracle(p, &decoded, fresh)?;
        }
        None => prop_assert!(analysis.error_count() > 0),
    }

    let mut oracle = fresh();
    let outcome = oracle.run_stepwise(p, &mut NullObserver);
    let fault = match &outcome {
        Ok(_) | Err(SimError::InstructionLimit { .. }) => None,
        Err(e) => Some(e),
    };

    if let Some(fault) = fault {
        // Precision: a concrete fault must have been flagged as an
        // error, by the matching rule unless the analyzer declared the
        // imprecision (Unprovable or the pinned allowlist).
        let errors: Vec<_> = analysis
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        if errors.is_empty() {
            eprintln!("unflagged fault {fault:?} in:\n{p}");
        }
        prop_assert!(
            !errors.is_empty(),
            "oracle faulted ({:?}) but the analyzer found no error",
            fault
        );
        let direct = direct_rule(fault);
        let justified = errors.iter().any(|d| {
            d.rule == direct
                || d.confidence == Confidence::Unprovable
                || IMPRECISION_ALLOWLIST.contains(&d.rule)
        });
        if !justified {
            eprintln!("fault {fault:?} vs diagnostics {errors:?} in:\n{p}");
        }
        prop_assert!(
            justified,
            "fault {:?} not justified by any flagged rule (wanted {:?} or a declared imprecision)",
            fault,
            direct
        );
    } else if analysis.error_count() > 0 {
        // The reverse direction is intentionally one-sided: an
        // unprovable error on a program that happens not to fault is
        // the analyzer being conservative, which soundness permits.
    }

    // Soundness: a clean verdict (token minted) proves the oracle
    // cannot fault. This is the property a clean `lint` relies on.
    if analysis.error_count() == 0 {
        prop_assert!(
            fault.is_none(),
            "analyzer verdict was clean but the oracle faulted: {:?}",
            fault
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile distribution: faults are common, so this mostly
    /// exercises precision tracking (fault => flagged error).
    #[test]
    fn analyzer_matches_oracle_on_hostile_programs(p in hostile_program()) {
        check_differential(&p, warmed_sim)?;
    }

    /// Tame distribution: clean verdicts are common, so this mostly
    /// exercises soundness (clean => the oracle never faults).
    #[test]
    fn analyzer_matches_oracle_on_tame_programs(p in tame_program()) {
        check_differential(&p, warmed_sim)?;
    }

    /// Unrolled `vindexmac.vvi` blocks over a patterned register file:
    /// clean verdicts are common, so this mostly exercises the
    /// engine-vs-oracle comparison on the kernels' MAC shape.
    #[test]
    fn analyzer_matches_oracle_on_mac_blocks(p in mac_block_program()) {
        check_differential(&p, warmed_vrf_sim)?;
    }
}

/// The tame generator must actually produce verified programs with
/// reasonable frequency — otherwise the soundness property is vacuous.
/// Deterministic spot check: straight-line aligned code verifies.
#[test]
fn straight_line_aligned_program_verifies() {
    let mut b = ProgramBuilder::new();
    b.li(XReg::new(10), 0x1000);
    b.push(Instruction::Vsetvli {
        rd: XReg::ZERO,
        rs1: XReg::ZERO,
        sew: Sew::E32,
        lmul: Lmul::M1,
    });
    b.push(Instruction::Vle32 {
        vd: VReg::new(1),
        rs1: XReg::new(10),
    });
    b.push(Instruction::VaddVv {
        vd: VReg::new(2),
        vs2: VReg::new(1),
        vs1: VReg::new(1),
    });
    b.push(Instruction::Vse32 {
        vs3: VReg::new(2),
        rs1: XReg::new(10),
    });
    b.halt();
    let p = b.build();
    let cfg = SimConfig::table_i();
    let analysis = analyze(&DecodedProgram::decode(&p), cfg.vlen_bits);
    assert!(
        analysis.verified().is_some(),
        "diagnostics: {:?}",
        analysis.diagnostics()
    );
    let mut sim = warmed_sim();
    sim.run_stepwise(&p, &mut NullObserver).expect("runs clean");
}
