//! Golden per-event timing digests: one pinned digest per timing
//! backend.
//!
//! A fixed set of hand-written programs runs under every
//! [`TimingKind`], once at the Table I configuration and once at a
//! tight configuration that keeps the ROB, reservation stations,
//! load/store queues and decoupling queue full. Every traced
//! `(issue_at, start, completion)` record and the final [`RunReport`]
//! fold into one FNV-1a digest per backend. Any change to the cycle
//! model, on any path these programs reach, moves a digest; a refactor
//! of the timing model must leave all three untouched.
//!
//! The programs cover what the kernel-level pins do not: scalar
//! loads and stores (overlapping store→load pairs reach the
//! out-of-order LSQ conflict path), taken and not-taken branches, a
//! `jal` link, a `mul` chain, `vmv.x.s`/`vfmv.f.s` round trips, grouped
//! vector load/MAC/store, and both `vindexmac` generations at e32 and
//! at the widening e8 width.

use indexmac_isa::instr::FReg;
use indexmac_isa::{Instruction, Lmul, Program, ProgramBuilder, Sew, VReg, XReg};
use indexmac_vpu::{RunReport, SimConfig, Simulator, TimingKind};

/// Pinned digests, in [`TimingKind::ALL`] order.
const GOLDEN: [(TimingKind, u64); 3] = [
    (TimingKind::InOrder, 0x5932_d9ef_9172_c94c),
    (TimingKind::Pipelined, 0xe6bf_ae34_c449_c293),
    (TimingKind::OutOfOrder, 0xb8aa_64a5_ed3e_bbcf),
];

/// Base addresses of the operand regions every program may touch.
const SCALAR_DATA: i64 = 0x1000;
const SCALAR_COLD: i64 = 0x8_0000;
const VEC_A: i64 = 0x2_0000;
const VEC_B: i64 = 0x3_0000;
const VEC_OUT: i64 = 0x4_0000;
const META: i64 = 0x5_0000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn vsetvli(b: &mut ProgramBuilder, avl: XReg, sew: Sew, lmul: Lmul) {
    b.push(Instruction::Vsetvli {
        rd: XReg::T6,
        rs1: avl,
        sew,
        lmul,
    });
}

/// A counted loop: `bne` taken five times and not taken once, a `beq`
/// never taken, and a forward `jal` that writes its link register while
/// an older cold load into the same register is still in flight.
fn counted_loop() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(XReg::A1, SCALAR_COLD);
    b.push(Instruction::Lw {
        rd: XReg::RA,
        rs1: XReg::A1,
        imm: 64,
    });
    b.li(XReg::T0, 6);
    let top = b.bind_label();
    let skip = b.new_label();
    b.addi(XReg::T1, XReg::T1, 3);
    b.beq(XReg::T1, XReg::ZERO, skip);
    b.addi(XReg::T2, XReg::T2, 1);
    b.bind(skip);
    b.addi(XReg::T0, XReg::T0, -1);
    b.bne(XReg::T0, XReg::ZERO, top);
    b.push(Instruction::Jal {
        rd: XReg::RA,
        offset: 2,
    });
    b.addi(XReg::T3, XReg::ZERO, 99); // jumped over
    b.add(XReg::T4, XReg::RA, XReg::T2);
    b.halt();
    b.build()
}

/// Overlapping scalar store→load pairs whose store data arrives from a
/// cold load, plus disjoint and partially overlapping loads.
fn store_load_pairs() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(XReg::A0, SCALAR_DATA);
    b.li(XReg::A1, SCALAR_COLD);
    b.push(Instruction::Lw {
        rd: XReg::T0,
        rs1: XReg::A1,
        imm: 0,
    });
    b.push(Instruction::Sw {
        rs2: XReg::T0,
        rs1: XReg::A0,
        imm: 0,
    });
    b.push(Instruction::Lw {
        rd: XReg::T1,
        rs1: XReg::A0,
        imm: 0,
    });
    b.push(Instruction::Lw {
        rd: XReg::T2,
        rs1: XReg::A0,
        imm: 256,
    });
    b.push(Instruction::Sd {
        rs2: XReg::T1,
        rs1: XReg::A0,
        imm: 8,
    });
    b.push(Instruction::Ld {
        rd: XReg::T3,
        rs1: XReg::A0,
        imm: 8,
    });
    b.push(Instruction::Lw {
        rd: XReg::T4,
        rs1: XReg::A0,
        imm: 12,
    });
    b.add(XReg::T5, XReg::T3, XReg::T4);
    b.push(Instruction::Sw {
        rs2: XReg::T5,
        rs1: XReg::A0,
        imm: 4,
    });
    b.push(Instruction::Lwu {
        rd: XReg::T6,
        rs1: XReg::A0,
        imm: 4,
    });
    b.push(Instruction::Flw {
        fd: FReg::new(1),
        rs1: XReg::A1,
        imm: 64,
    });
    for i in 0..6 {
        b.push(Instruction::Sw {
            rs2: XReg::T6,
            rs1: XReg::A0,
            imm: 32 + 4 * i,
        });
        b.push(Instruction::Lw {
            rd: XReg::new(18 + i as u8),
            rs1: XReg::A0,
            imm: 32 + 4 * i,
        });
    }
    b.halt();
    b.build()
}

/// A dependent `mul` chain with independent ALU work beside it.
fn mul_chain() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(XReg::T1, 3);
    b.li(XReg::T2, 5);
    for i in 0..8 {
        b.push(Instruction::Mul {
            rd: XReg::T1,
            rs1: XReg::T1,
            rs2: XReg::T2,
        });
        b.addi(XReg::new(18 + (i % 4) as u8), XReg::ZERO, i);
    }
    b.push(Instruction::Mul {
        rd: XReg::T3,
        rs1: XReg::T2,
        rs2: XReg::T2,
    });
    b.push(Instruction::Slli {
        rd: XReg::T4,
        rs1: XReg::T1,
        shamt: 2,
    });
    b.push(Instruction::Sub {
        rd: XReg::T5,
        rs1: XReg::T4,
        rs2: XReg::T3,
    });
    b.halt();
    b.build()
}

/// Cross-domain round trips: `vmv.x.s` and `vfmv.f.s` feed scalar work
/// whose results go back into the vector engine.
fn cross_domain_round_trips() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(XReg::A0, 16);
    vsetvli(&mut b, XReg::A0, Sew::E32, Lmul::M1);
    b.li(XReg::A1, VEC_A);
    b.push(Instruction::Vle32 {
        vd: VReg::V1,
        rs1: XReg::A1,
    });
    for _ in 0..3 {
        b.push(Instruction::VmvXs {
            rd: XReg::T0,
            vs2: VReg::V1,
        });
        b.addi(XReg::T0, XReg::T0, 1);
        b.push(Instruction::VmvSx {
            vd: VReg::V1,
            rs1: XReg::T0,
        });
        b.push(Instruction::VfmvFs {
            fd: FReg::new(2),
            vs2: VReg::V1,
        });
        b.push(Instruction::VfmaccVf {
            vd: VReg::V3,
            fs1: FReg::new(2),
            vs2: VReg::V1,
        });
    }
    b.push(Instruction::VmvXs {
        rd: XReg::T1,
        vs2: VReg::V3,
    });
    b.push(Instruction::VmvVx {
        vd: VReg::V4,
        rs1: XReg::T1,
    });
    b.push(Instruction::VaddVx {
        vd: VReg::V5,
        vs2: VReg::V4,
        rs1: XReg::T1,
    });
    b.li(XReg::A2, VEC_OUT);
    b.push(Instruction::Vse32 {
        vs3: VReg::V5,
        rs1: XReg::A2,
    });
    b.halt();
    b.build()
}

/// Vector loads, MACs, slides and stores with more loads in flight
/// than the vector load queue holds, then grouped (LMUL=2, vl=32)
/// loads, a grouped `vindexmac.vvi` and grouped stores.
fn vector_load_mac_store() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(XReg::A0, 16);
    vsetvli(&mut b, XReg::A0, Sew::E32, Lmul::M1);
    b.li(XReg::A1, VEC_A);
    b.li(XReg::A2, VEC_B);
    b.li(XReg::A3, VEC_OUT);
    b.li(XReg::A4, 0x3f80_0000); // 1.0f32
    for i in 0..20 {
        let vd = VReg::new(1 + (i % 4) as u8);
        b.push(Instruction::Vle32 {
            vd,
            rs1: if i % 2 == 0 { XReg::A1 } else { XReg::A2 },
        });
        b.push(Instruction::VfmaccVv {
            vd: VReg::new(8),
            vs1: vd,
            vs2: VReg::V1,
        });
        b.addi(XReg::A1, XReg::A1, 64);
        b.addi(XReg::A2, XReg::A2, 4096);
    }
    b.push(Instruction::VfaddVv {
        vd: VReg::new(9),
        vs2: VReg::new(8),
        vs1: VReg::V2,
    });
    b.push(Instruction::VfmulVv {
        vd: VReg::new(10),
        vs2: VReg::new(9),
        vs1: VReg::V3,
    });
    b.push(Instruction::Vslide1downVx {
        vd: VReg::new(11),
        vs2: VReg::new(10),
        rs1: XReg::A4,
    });
    b.push(Instruction::VslidedownVi {
        vd: VReg::new(12),
        vs2: VReg::new(11),
        imm: 3,
    });
    b.push(Instruction::VmvVv {
        vd: VReg::new(13),
        vs1: VReg::new(12),
    });
    for i in 0..20 {
        b.push(Instruction::Vse32 {
            vs3: VReg::new(8 + (i % 6) as u8),
            rs1: XReg::A3,
        });
        b.addi(XReg::A3, XReg::A3, 64);
    }
    // Grouped: operands span register pairs.
    b.li(XReg::A0, 32);
    vsetvli(&mut b, XReg::A0, Sew::E32, Lmul::M2);
    b.li(XReg::A1, VEC_B);
    for r in [20, 22] {
        b.push(Instruction::Vle32 {
            vd: VReg::new(r),
            rs1: XReg::A1,
        });
        b.addi(XReg::A1, XReg::A1, 128);
    }
    b.li(XReg::A2, META + 512);
    b.push(Instruction::Vle32 {
        vd: VReg::new(24),
        rs1: XReg::A2,
    });
    // The metadata registers stay single under grouping: cold loads
    // into the registers just above them (v25, v27) must not delay the
    // vvi, which reads v24 and v26 only.
    b.li(XReg::A0, 16);
    vsetvli(&mut b, XReg::A0, Sew::E32, Lmul::M1);
    b.addi(XReg::A2, XReg::A2, 64);
    b.push(Instruction::Vle32 {
        vd: VReg::new(26),
        rs1: XReg::A2,
    });
    b.li(XReg::A5, SCALAR_COLD + 0x1_0000);
    for r in [25, 27] {
        b.push(Instruction::Vle32 {
            vd: VReg::new(r),
            rs1: XReg::A5,
        });
        b.addi(XReg::A5, XReg::A5, 0x1000);
    }
    b.li(XReg::A0, 32);
    vsetvli(&mut b, XReg::A0, Sew::E32, Lmul::M2);
    for slot in 0..2 {
        b.push(Instruction::VindexmacVvi {
            vd: VReg::new(16),
            vs2: VReg::new(26),
            vs1: VReg::new(24),
            slot,
        });
    }
    b.push(Instruction::Vse32 {
        vs3: VReg::new(16),
        rs1: XReg::A3,
    });
    b.halt();
    b.build()
}

/// Both IndexMAC generations: `vindexmac.vx` driven by `vmv.x.s`
/// index extraction, and `vindexmac.vvi` reading its metadata in place,
/// first at e32 (LMUL=1), then widening at e8.
fn indexmac_both_generations() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(XReg::A0, 16);
    vsetvli(&mut b, XReg::A0, Sew::E32, Lmul::M1);
    b.li(XReg::A1, VEC_B);
    for r in 20..24 {
        b.push(Instruction::Vle32 {
            vd: VReg::new(r),
            rs1: XReg::A1,
        });
        b.addi(XReg::A1, XReg::A1, 64);
    }
    b.li(XReg::A2, META);
    b.push(Instruction::Vle32 {
        vd: VReg::new(10),
        rs1: XReg::A2,
    });
    b.addi(XReg::A2, XReg::A2, 64);
    b.push(Instruction::Vle32 {
        vd: VReg::new(11),
        rs1: XReg::A2,
    });
    // vx: index in a scalar register, value in vs2[0].
    for _ in 0..4 {
        b.push(Instruction::VmvXs {
            rd: XReg::T0,
            vs2: VReg::new(10),
        });
        b.push(Instruction::VindexmacVx {
            vd: VReg::V1,
            vs2: VReg::new(11),
            rs: XReg::T0,
        });
        b.push(Instruction::Vslide1downVx {
            vd: VReg::new(10),
            vs2: VReg::new(10),
            rs1: XReg::ZERO,
        });
        b.push(Instruction::Vslide1downVx {
            vd: VReg::new(11),
            vs2: VReg::new(11),
            rs1: XReg::ZERO,
        });
    }
    // vvi: index and value read in place from the metadata slot.
    b.li(XReg::A2, META);
    b.push(Instruction::Vle32 {
        vd: VReg::new(12),
        rs1: XReg::A2,
    });
    for slot in 0..4 {
        b.push(Instruction::VindexmacVvi {
            vd: VReg::V2,
            vs2: VReg::new(13),
            vs1: VReg::new(12),
            slot,
        });
    }
    b.li(XReg::A3, VEC_OUT);
    b.push(Instruction::Vse32 {
        vs3: VReg::V2,
        rs1: XReg::A3,
    });
    // e8: the accumulator group widens to four e32 registers, so a
    // cold load into v6 delays the e8 MAC into v4..v7, and a store of
    // v7 waits for that MAC.
    b.li(XReg::A5, SCALAR_COLD + 0x2_0000);
    b.push(Instruction::Vle32 {
        vd: VReg::new(6),
        rs1: XReg::A5,
    });
    b.li(XReg::A0, 64);
    vsetvli(&mut b, XReg::A0, Sew::E8, Lmul::M1);
    b.li(XReg::A1, VEC_A);
    b.push(Instruction::Vle8 {
        vd: VReg::new(20),
        rs1: XReg::A1,
    });
    b.push(Instruction::Vle8 {
        vd: VReg::new(14),
        rs1: XReg::A1,
    });
    b.li(XReg::T0, 20);
    b.push(Instruction::VindexmacVx {
        vd: VReg::V4,
        vs2: VReg::new(14),
        rs: XReg::T0,
    });
    b.li(XReg::A2, META + 256);
    b.push(Instruction::Vle8 {
        vd: VReg::new(15),
        rs1: XReg::A2,
    });
    b.push(Instruction::VindexmacVvi {
        vd: VReg::V4,
        vs2: VReg::new(14),
        vs1: VReg::new(15),
        slot: 1,
    });
    b.push(Instruction::Vse8 {
        vs3: VReg::new(7),
        rs1: XReg::A3,
    });
    b.halt();
    b.build()
}

fn programs() -> Vec<(&'static str, Program)> {
    vec![
        ("counted_loop", counted_loop()),
        ("store_load_pairs", store_load_pairs()),
        ("mul_chain", mul_chain()),
        ("cross_domain_round_trips", cross_domain_round_trips()),
        ("vector_load_mac_store", vector_load_mac_store()),
        ("indexmac_both_generations", indexmac_both_generations()),
    ]
}

/// Table I, and a tight machine whose every queue and window fills.
fn configs() -> [SimConfig; 2] {
    let mut tight = SimConfig::table_i();
    tight.issue_width = 2;
    tight.rob_entries = 4;
    tight.rs_entries = 2;
    tight.lsq_entries = 2;
    tight.vq_depth = 2;
    tight.vlq_entries = 2;
    tight.vsq_entries = 2;
    [SimConfig::table_i(), tight]
}

/// Places the operands: B-tile rows, metadata whose e32 and e8 lanes
/// select registers 20..23 (20 and 22 for the grouped pairs) with
/// small values, and a cold scalar word.
fn place_operands(sim: &mut Simulator) {
    let mem = sim.memory_mut();
    let a: Vec<f32> = (0..1024).map(|i| (i % 7) as f32 * 0.5).collect();
    mem.write_f32_slice(VEC_A as u64, &a);
    let bvals: Vec<f32> = (0..4096).map(|i| 1.0 + (i % 5) as f32).collect();
    mem.write_f32_slice(VEC_B as u64, &bvals);
    for i in 0..16u64 {
        mem.write_u32(META as u64 + 4 * i, 20 + (i % 4) as u32);
        mem.write_u32(META as u64 + 64 + 4 * i, (1.5f32 + i as f32).to_bits());
    }
    for i in 0..64u64 {
        mem.write_u8(META as u64 + 256 + i, 20 + (i % 4) as u8);
    }
    for i in 0..16u64 {
        mem.write_u32(META as u64 + 512 + 4 * i, 20 + 2 * (i % 2) as u32);
        mem.write_u32(META as u64 + 576 + 4 * i, (0.25f32 * i as f32).to_bits());
    }
    mem.write_u32(SCALAR_COLD as u64, 0x1234_5678);
}

fn fold_report(h: &mut Fnv, r: &RunReport) {
    h.bytes(format!("{r:?}").as_bytes());
}

/// Runs every program under every configuration at `kind`, folding
/// each traced timing record and each report into one digest.
fn backend_digest(kind: TimingKind) -> u64 {
    let mut h = Fnv::new();
    for cfg in configs() {
        for (name, program) in programs() {
            let mut sim = Simulator::new(cfg.with_timing(kind));
            place_operands(&mut sim);
            let (report, trace) = sim
                .run_traced(&program, usize::MAX)
                .unwrap_or_else(|e| panic!("{kind} {name}: {e}"));
            assert!(!trace.truncated(), "{kind} {name}: trace truncated");
            assert_eq!(trace.observed(), report.instructions, "{kind} {name}");
            for e in trace.entries() {
                h.u64(e.timing.issue_at);
                h.u64(e.timing.start);
                h.u64(e.timing.completion);
            }
            fold_report(&mut h, &report);
        }
    }
    h.0
}

#[test]
fn golden_timing_digests_are_pinned_per_backend() {
    let got = TimingKind::ALL.map(|k| (k, backend_digest(k)));
    assert!(got == GOLDEN, "golden timing digests moved: {got:#x?}");
}

#[test]
fn golden_programs_exercise_the_paths_they_pin() {
    // The digests guard only what the programs reach: check the
    // coverage claims of the module doc once, at Table I.
    use indexmac_isa::InstrClass;
    let mut sim = Simulator::new(SimConfig::table_i());
    let mut total = indexmac_vpu::ClassCounts::default();
    for (_, program) in programs() {
        sim.reset();
        place_operands(&mut sim);
        let r = sim.run(&program).expect("golden program runs");
        for c in InstrClass::ALL {
            total.set(c, total.get(c) + r.counts.get(c));
        }
    }
    for c in InstrClass::ALL {
        assert!(total.get(c) > 0, "{c:?} never retired");
    }

    // The tight machine really fills its windows and queues.
    let tight = configs()[1];
    for kind in TimingKind::ALL {
        let (mut rob, mut vq) = (0, 0);
        for (_, program) in programs() {
            let mut sim = Simulator::new(tight.with_timing(kind));
            place_operands(&mut sim);
            let r = sim.run(&program).expect("golden program runs");
            rob += r.rob_stall_cycles;
            vq += r.vq_stall_cycles;
        }
        assert!(rob > 0, "{kind}: tight ROB never stalled");
        assert!(vq > 0, "{kind}: tight decoupling queue never stalled");
    }

    // The out-of-order LSQ orders the overlapping load behind the store
    // (whose data comes from a cold load) and lets the disjoint one pass.
    let mut sim = Simulator::new(SimConfig::table_i().with_timing(TimingKind::OutOfOrder));
    place_operands(&mut sim);
    let (_, trace) = sim.run_traced(&store_load_pairs(), 64).unwrap();
    let [store, overlapping, disjoint] = [3, 4, 5].map(|i| trace.entries()[i].timing);
    assert!(
        overlapping.start >= store.completion,
        "LSQ conflict not taken"
    );
    assert!(
        disjoint.start < overlapping.start,
        "disjoint load was ordered"
    );
}
