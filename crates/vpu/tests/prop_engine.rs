//! Differential property suite: the decode-once engine vs the
//! `step()` oracle.
//!
//! Random programs — every SEW and LMUL, loads/stores of every width,
//! branches and loops, both IndexMAC generations, the baselines' MAC,
//! slides and moves, plus the cold ops that fall back to the oracle
//! µop — are executed through [`DecodedProgram`] and through the
//! legacy interpret-per-step loop.
//! Both paths must produce identical architectural state (scalar, FP
//! and vector files, `vl`/`vtype`, the PC), identical [`RunReport`]s,
//! and identical faults, including the instruction-limit boundary.
//!
//! Run with `PROPTEST_CASES=256` in CI: this suite referees the native
//! µops behind every published number. The shim's per-test
//! deterministic RNG makes any failure reproducible.

use indexmac_isa::instr::FReg;
use indexmac_isa::{Instruction, Lmul, Program, ProgramBuilder, Sew, VReg, XReg};
use indexmac_vpu::{DecodedProgram, NullObserver, SimConfig, Simulator};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Dynamic-instruction guard for random programs (tight enough that
/// accidental infinite loops finish fast, loose enough for real runs).
const MAX_DYN: u64 = 4_000;

/// Scratch/arithmetic scalar registers (x1..x9; x0 reads zero and
/// discards writes — included deliberately).
fn treg() -> impl Strategy<Value = XReg> {
    (0u8..10).prop_map(XReg::new)
}

/// Address registers a0..a3: written only by positive `li`, so memory
/// accesses stay far from the top of the address space (no wrap-around
/// panics), while odd values still exercise alignment faults.
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

fn scalar_instr() -> BoxedStrategy<Instruction> {
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
        (treg(), treg()).prop_map(|(rd, rs)| Instruction::Mv { rd, rs }),
        Just(Instruction::Nop),
    ]
    .boxed()
}

fn memory_instr() -> BoxedStrategy<Instruction> {
    prop_oneof![
        (treg(), areg(), 0i32..256).prop_map(|(rd, rs1, imm)| Instruction::Lw { rd, rs1, imm }),
        (treg(), areg(), 0i32..256).prop_map(|(rd, rs1, imm)| Instruction::Lwu { rd, rs1, imm }),
        (treg(), areg(), 0i32..256).prop_map(|(rd, rs1, imm)| Instruction::Ld { rd, rs1, imm }),
        (treg(), areg(), 0i32..256).prop_map(|(rs2, rs1, imm)| Instruction::Sw { rs2, rs1, imm }),
        (treg(), areg(), 0i32..256).prop_map(|(rs2, rs1, imm)| Instruction::Sd { rs2, rs1, imm }),
        (freg(), areg(), 0i32..256).prop_map(|(fd, rs1, imm)| Instruction::Flw { fd, rs1, imm }),
    ]
    .boxed()
}

fn control_instr() -> BoxedStrategy<Instruction> {
    prop_oneof![
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
        (treg(), treg(), -4i32..8).prop_map(|(rs1, rs2, offset)| Instruction::Blt {
            rs1,
            rs2,
            offset
        }),
        (treg(), treg(), -4i32..8).prop_map(|(rs1, rs2, offset)| Instruction::Bge {
            rs1,
            rs2,
            offset
        }),
        (treg(), 1i32..6).prop_map(|(rd, offset)| Instruction::Jal { rd, offset }),
    ]
    .boxed()
}

fn vector_instr() -> BoxedStrategy<Instruction> {
    prop_oneof![
        // Mostly-legal vsetvli, with the occasional e64 for fault parity.
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
        (vreg(), areg()).prop_map(|(vs3, rs1)| Instruction::Vse8 { vs3, rs1 }),
        (vreg(), areg()).prop_map(|(vs3, rs1)| Instruction::Vse16 { vs3, rs1 }),
        (vreg(), areg()).prop_map(|(vs3, rs1)| Instruction::Vse32 { vs3, rs1 }),
        (vreg(), vreg(), treg()).prop_map(|(vd, vs2, rs)| Instruction::VindexmacVx { vd, vs2, rs }),
        (vreg(), vreg(), vreg(), 0u8..20)
            .prop_map(|(vd, vs2, vs1, slot)| { Instruction::VindexmacVvi { vd, vs2, vs1, slot } }),
        // The baselines' native µops: the MAC, the slides and the moves.
        (vreg(), freg(), vreg()).prop_map(|(vd, fs1, vs2)| Instruction::VfmaccVf { vd, fs1, vs2 }),
        (treg(), vreg()).prop_map(|(rd, vs2)| Instruction::VmvXs { rd, vs2 }),
        (vreg(), treg()).prop_map(|(vd, rs1)| Instruction::VmvSx { vd, rs1 }),
        (freg(), vreg()).prop_map(|(fd, vs2)| Instruction::VfmvFs { fd, vs2 }),
        (vreg(), vreg(), treg()).prop_map(|(vd, vs2, rs1)| Instruction::Vslide1downVx {
            vd,
            vs2,
            rs1
        }),
        (vreg(), vreg(), treg()).prop_map(|(vd, vs2, rs1)| Instruction::VaddVx { vd, vs2, rs1 }),
    ]
    .boxed()
}

/// Instructions whose µop is the oracle fallback (no kernel builder
/// emits them) — the cold tail must interleave with the native µops
/// without divergence.
fn cold_instr() -> BoxedStrategy<Instruction> {
    prop_oneof![
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs2, vs1)| Instruction::VaddVv { vd, vs2, vs1 }),
        (vreg(), vreg(), treg()).prop_map(|(vd, vs2, rs1)| Instruction::VmulVx { vd, vs2, rs1 }),
        (vreg(), treg(), vreg()).prop_map(|(vd, rs1, vs2)| Instruction::VmaccVx { vd, rs1, vs2 }),
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs2, vs1)| Instruction::VfaddVv { vd, vs2, vs1 }),
        (vreg(), vreg()).prop_map(|(vd, vs1)| Instruction::VmvVv { vd, vs1 }),
        (vreg(), treg()).prop_map(|(vd, rs1)| Instruction::VmvVx { vd, rs1 }),
        (vreg(), vreg(), 0u8..8).prop_map(|(vd, vs2, imm)| Instruction::VslidedownVi {
            vd,
            vs2,
            imm
        }),
    ]
    .boxed()
}

fn any_instr() -> BoxedStrategy<Instruction> {
    prop_oneof![
        scalar_instr(),
        memory_instr(),
        control_instr(),
        vector_instr(),
        cold_instr(),
    ]
    .boxed()
}

/// A random program: address registers seeded, a legal initial
/// `vsetvli`, then a random body and a final `ebreak`. Faulting bodies
/// are expected and compared fault-for-fault.
fn program() -> impl Strategy<Value = Program> {
    (
        exec_sew(),
        lmul(),
        proptest::collection::vec(any_instr(), 0..40),
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

/// A simulator with deterministically patterned memory and VRF, so
/// loads, stores and indirect MACs touch interesting data.
fn warmed_sim() -> Simulator {
    let mut sim = Simulator::new(SimConfig::table_i());
    sim.set_max_instructions(MAX_DYN);
    for i in 0..0x4000u64 {
        sim.memory_mut()
            .write_u8(0x1000 + i, (i as u8).wrapping_mul(31).wrapping_add(11));
    }
    for r in 0..32u8 {
        let reg = VReg::new(r);
        for lane in 0..16 {
            sim.state_mut().set_v_lane(
                reg,
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

/// Asserts every architectural-state component matches between the two
/// execution paths.
fn assert_states_match(engine: &Simulator, oracle: &Simulator) -> Result<(), TestCaseError> {
    for r in 0..32u8 {
        prop_assert_eq!(
            engine.state().x(XReg::new(r)),
            oracle.state().x(XReg::new(r)),
            "x{} diverged",
            r
        );
        prop_assert_eq!(
            engine.state().f_bits(FReg::new(r)),
            oracle.state().f_bits(FReg::new(r)),
            "f{} diverged",
            r
        );
        prop_assert_eq!(
            engine.state().v_bytes(VReg::new(r)),
            oracle.state().v_bytes(VReg::new(r)),
            "v{} diverged",
            r
        );
    }
    prop_assert_eq!(engine.state().vl(), oracle.state().vl());
    prop_assert_eq!(engine.state().vtype(), oracle.state().vtype());
    prop_assert_eq!(engine.state().pc, oracle.state().pc);
    prop_assert_eq!(engine.state().halted, oracle.state().halted);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Functional view: the decoded engine and the stepwise oracle,
    /// both unobserved, agree on the outcome, the fault (if
    /// any), and every architectural-state component.
    #[test]
    fn decoded_engine_matches_step_oracle_functionally(p in program()) {
        let mut engine = warmed_sim();
        let mut oracle = warmed_sim();
        let decoded = DecodedProgram::decode(&p);
        let fast = engine.run_decoded_with(&decoded, &mut NullObserver);
        let slow = oracle.run_stepwise(&p, &mut NullObserver);
        if fast != slow {
            // The shim has no shrinking: print the full program so a
            // divergence is immediately reproducible by hand.
            eprintln!("diverging program:\n{p}\nengine: {fast:?}\noracle: {slow:?}");
        }
        prop_assert_eq!(&fast, &slow, "outcome diverged");
        assert_states_match(&engine, &oracle)?;
        // Memory writes agree wherever the program could have stored.
        for addr in (0x1000u64..0x5000).step_by(257) {
            prop_assert_eq!(
                engine.memory().read_u8(addr),
                oracle.memory().read_u8(addr),
                "memory diverged at {:#x}",
                addr
            );
        }
    }

    /// Timed path: identical `RunReport`s (cycles, counts, traffic,
    /// stalls) — the event streams the two paths feed the timing model
    /// must be indistinguishable.
    #[test]
    fn decoded_engine_matches_step_oracle_reports(p in program()) {
        let mut engine = warmed_sim();
        let mut oracle = warmed_sim();
        let fast = engine.run(&p);
        let slow = oracle.run_stepwise_timed(&p);
        match (fast, slow) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "reports diverged"),
            (a, b) => prop_assert_eq!(a, b, "faults diverged"),
        }
        assert_states_match(&engine, &oracle)?;
    }

    /// The instruction-limit boundary is identical in both paths for
    /// arbitrary (small) limits — including the ebreak-exactly-at-the-
    /// limit case the off-by-one fix pinned.
    #[test]
    fn instruction_limit_boundary_parity(p in program(), limit in 1u64..40) {
        let mut engine = warmed_sim();
        engine.set_max_instructions(limit);
        let mut oracle = warmed_sim();
        oracle.set_max_instructions(limit);
        let fast = engine.run_decoded_with(&DecodedProgram::decode(&p), &mut NullObserver);
        let slow = oracle.run_stepwise(&p, &mut NullObserver);
        prop_assert_eq!(fast, slow, "limit handling diverged at {}", limit);
        assert_states_match(&engine, &oracle)?;
    }
}
