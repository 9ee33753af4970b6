//! The decode-once execution engine.
//!
//! The legacy [`crate::exec::step`] interpreter re-derives everything
//! from the [`Instruction`] enum on **every dynamic instruction**:
//! operand fields are re-unpacked, grouping support and e32-only rules
//! are re-matched, and branch offsets are re-added to the PC. With
//! sweeps spanning (pattern × dims × SEW × LMUL × kernel × model)
//! grids, that per-step overhead *is* the repository's hot path.
//!
//! [`DecodedProgram`] moves all of it to decode time, once per program:
//!
//! * operand fields are unpacked into flat µops (immediates
//!   pre-extended to the datapath width, branch targets resolved to
//!   absolute slots);
//! * per-slot static checks are resolved: whether an opcode has
//!   register-grouping semantics and whether it is e32-only is decided
//!   by the µop variant itself, so the per-step `group_aware` /
//!   `require_e32` re-matching disappears;
//! * the per-SEW constants the vector µops need — lane masks, widening
//!   factors, element sizes — live in the const [`SEW_INFO`] table,
//!   indexed rather than recomputed;
//! * the vector µops operate on whole register-group byte slices (one
//!   borrow per instruction) and page-chunked memory transfers instead
//!   of per-lane accessor calls.
//!
//! Every opcode a shipped kernel builder emits is a native µop: the
//! scalar ALU, load/store and branch ops, `vsetvli`, unit-stride
//! `vle*`/`vse*`, `vfmacc.vf`, both IndexMAC generations, and the
//! baselines' slides and moves (`vslide1down.vx`, `vadd.vx`, `vmv.x.s`,
//! `vmv.s.x`, `vfmv.f.s`). Only opcodes no builder emits decode to
//! `Uop::Step` and run through the legacy `step()` interpreter, which
//! is kept verbatim as the **oracle**: `vadd.vv/.vi`, `vmul.vv/.vx`,
//! `vmacc.vx`, `vfadd.vv`, `vfmul.vv`, `vfmacc.vv`, `vmv.v.v/.v.x` and
//! `vslidedown.vi`. [`DecodedProgram::oracle_slots`] counts those slots;
//! `crates/kernels/tests/native_uops.rs` pins it at 0 for every builder.
//!
//! There is one fetch loop, and it keeps every fault check the oracle
//! makes. Execution is observed through the [`Observer`] trait; the
//! engine is generic over it, so the timing path
//! ([`crate::TimingModel`]) gets its own monomorphized loop.
//! `crates/vpu/tests/prop_engine.rs` differentially tests the engine
//! against the oracle for identical architectural state, reports and
//! faults.

use crate::checks::{
    check_branch_target, check_e32_only, check_element_width, check_group,
    check_grouping_supported, check_sew_supported, check_slot, check_vector_alignment,
    check_widening_dst, group_regs,
};
use crate::exec::{step, ExecEvent, MemOp};
use crate::sim::SimError;
use crate::state::{sign_extend, ArchState};
use indexmac_isa::instr::FReg;
use indexmac_isa::{Instruction, Lmul, Program, Sew, VReg, XReg};
use indexmac_mem::MainMemory;

/// Observes the dynamic instruction stream of an engine run.
///
/// The engine is generic over the observer, so each implementation gets
/// its own monomorphized loop; the engine hands every observer one
/// [`ExecEvent`] per retired instruction.
pub trait Observer {
    /// Called once per retired dynamic instruction, in program order.
    fn observe(&mut self, ev: &ExecEvent);
}

/// An observer that ignores every event (tests that need only the
/// architectural result).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline]
    fn observe(&mut self, _ev: &ExecEvent) {}
}

/// Every `FnMut(&ExecEvent)` closure is an observer, so ad-hoc
/// inspection (tests, one-off instrumentation) keeps the old shape.
impl<F: FnMut(&ExecEvent)> Observer for F {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        self(ev);
    }
}

/// Per-SEW constants used by the vector µops, precomputed once instead
/// of re-derived per dynamic instruction: element bytes, the modular
/// lane mask, and the widening accumulator factor (`32 / SEW`).
#[derive(Debug, Clone, Copy)]
pub struct SewInfo {
    /// Element size in bytes.
    pub bytes: usize,
    /// Mask selecting the low `SEW` bits of a lane value.
    pub lane_mask: u32,
    /// Widening factor of the integer IndexMAC accumulator.
    pub widen: usize,
}

/// [`SewInfo`] for e8/e16/e32, indexed by [`sew_index`].
pub const SEW_INFO: [SewInfo; 3] = [
    SewInfo {
        bytes: 1,
        lane_mask: 0xFF,
        widen: 4,
    },
    SewInfo {
        bytes: 2,
        lane_mask: 0xFFFF,
        widen: 2,
    },
    SewInfo {
        bytes: 4,
        lane_mask: 0xFFFF_FFFF,
        widen: 1,
    },
];

/// Index of an executable SEW in [`SEW_INFO`].
///
/// # Panics
///
/// Panics on [`Sew::E64`], which the datapath does not execute (the
/// `vsetvli` µop faults before any lane math can ask for it).
pub fn sew_index(sew: Sew) -> usize {
    match sew {
        Sew::E8 => 0,
        Sew::E16 => 1,
        Sew::E32 => 2,
        Sew::E64 => panic!("e64 lanes are outside the modelled subset"),
    }
}

/// Largest register-group byte footprint the stack scratch buffers must
/// hold: an `m4` group of 4096-bit registers.
const MAX_GROUP_BYTES: usize = 4 * 512;

/// One predecoded micro-operation. Operands are unpacked, immediates
/// pre-extended, branch targets absolute; the variant itself encodes
/// the static properties (`group_aware`, e32-only) that the legacy
/// interpreter re-derives per step. Opcodes no kernel builder emits
/// decode to [`Uop::Step`], which defers to the oracle interpreter —
/// bit-for-bit the legacy semantics, paid only on the cold path.
#[derive(Debug, Clone, Copy)]
enum Uop {
    // ---- scalar ----
    Li {
        rd: XReg,
        imm: u64,
    },
    Mv {
        rd: XReg,
        rs: XReg,
    },
    Addi {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Add {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Sub {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Mul {
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    Slli {
        rd: XReg,
        rs1: XReg,
        shamt: u32,
    },
    Srli {
        rd: XReg,
        rs1: XReg,
        shamt: u32,
    },
    Lw {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Lwu {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Ld {
        rd: XReg,
        rs1: XReg,
        imm: u64,
    },
    Sw {
        rs2: XReg,
        rs1: XReg,
        imm: u64,
    },
    Sd {
        rs2: XReg,
        rs1: XReg,
        imm: u64,
    },
    Flw {
        fd: FReg,
        rs1: XReg,
        imm: u64,
    },
    Beq {
        rs1: XReg,
        rs2: XReg,
        target: i64,
    },
    Bne {
        rs1: XReg,
        rs2: XReg,
        target: i64,
    },
    Blt {
        rs1: XReg,
        rs2: XReg,
        target: i64,
    },
    Bge {
        rs1: XReg,
        rs2: XReg,
        target: i64,
    },
    Jal {
        rd: XReg,
        target: i64,
    },
    Nop,
    Halt,

    // ---- hot vector ----
    Vsetvli {
        rd: XReg,
        rs1: XReg,
        sew: Sew,
        lmul: Lmul,
    },
    /// Unit-stride vector load of any element width (the width is a
    /// decode-time constant, not a per-step re-match).
    VLoad {
        vd: VReg,
        rs1: XReg,
        ew: Sew,
    },
    /// Unit-stride vector store of any element width.
    VStore {
        vs3: VReg,
        rs1: XReg,
        ew: Sew,
    },
    /// `vfmacc.vf` — the baselines' inner-loop MAC (e32-only, m1-only;
    /// both facts are this variant, not a runtime lookup).
    VfmaccVf {
        vd: VReg,
        fs1: FReg,
        vs2: VReg,
    },
    /// First-generation `vindexmac.vx`.
    VindexmacVx {
        vd: VReg,
        vs2: VReg,
        rs: XReg,
    },
    /// Second-generation `vindexmac.vvi`.
    VindexmacVvi {
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        slot: u8,
    },
    /// `vslide1down.vx` — the baselines' per-non-zero metadata shift
    /// (no grouping semantics).
    Vslide1downVx {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
    },
    /// `vadd.vx` — the row-wise baseline's column-index rebase (no
    /// grouping semantics).
    VaddVx {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
    },
    /// `vmv.x.s` — element 0 to a scalar register, sign-extended.
    VmvXs {
        rd: XReg,
        vs2: VReg,
    },
    /// `vmv.s.x` — a scalar register into element 0.
    VmvSx {
        vd: VReg,
        rs1: XReg,
    },
    /// `vfmv.f.s` — element 0 to an FP register (e32-only).
    VfmvFs {
        fd: FReg,
        vs2: VReg,
    },

    // ---- cold tail ----
    /// Any opcode no kernel builder emits: defer to the `step()` oracle.
    Step,
}

fn decode_one(pc: usize, instr: &Instruction) -> Uop {
    use Instruction as I;
    let abs = |offset: i32| pc as i64 + offset as i64;
    match *instr {
        I::Li { rd, imm } => Uop::Li {
            rd,
            imm: imm as u64,
        },
        I::Mv { rd, rs } => Uop::Mv { rd, rs },
        I::Addi { rd, rs1, imm } => Uop::Addi {
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Add { rd, rs1, rs2 } => Uop::Add { rd, rs1, rs2 },
        I::Sub { rd, rs1, rs2 } => Uop::Sub { rd, rs1, rs2 },
        I::Mul { rd, rs1, rs2 } => Uop::Mul { rd, rs1, rs2 },
        I::Slli { rd, rs1, shamt } => Uop::Slli {
            rd,
            rs1,
            shamt: (shamt & 63) as u32,
        },
        I::Srli { rd, rs1, shamt } => Uop::Srli {
            rd,
            rs1,
            shamt: (shamt & 63) as u32,
        },
        I::Lw { rd, rs1, imm } => Uop::Lw {
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Lwu { rd, rs1, imm } => Uop::Lwu {
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Ld { rd, rs1, imm } => Uop::Ld {
            rd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Sw { rs2, rs1, imm } => Uop::Sw {
            rs2,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Sd { rs2, rs1, imm } => Uop::Sd {
            rs2,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Flw { fd, rs1, imm } => Uop::Flw {
            fd,
            rs1,
            imm: imm as i64 as u64,
        },
        I::Beq { rs1, rs2, offset } => Uop::Beq {
            rs1,
            rs2,
            target: abs(offset),
        },
        I::Bne { rs1, rs2, offset } => Uop::Bne {
            rs1,
            rs2,
            target: abs(offset),
        },
        I::Blt { rs1, rs2, offset } => Uop::Blt {
            rs1,
            rs2,
            target: abs(offset),
        },
        I::Bge { rs1, rs2, offset } => Uop::Bge {
            rs1,
            rs2,
            target: abs(offset),
        },
        I::Jal { rd, offset } => Uop::Jal {
            rd,
            target: abs(offset),
        },
        I::Nop => Uop::Nop,
        I::Halt => Uop::Halt,
        I::Vsetvli { rd, rs1, sew, lmul } => Uop::Vsetvli { rd, rs1, sew, lmul },
        I::Vle8 { vd, rs1 } => Uop::VLoad {
            vd,
            rs1,
            ew: Sew::E8,
        },
        I::Vle16 { vd, rs1 } => Uop::VLoad {
            vd,
            rs1,
            ew: Sew::E16,
        },
        I::Vle32 { vd, rs1 } => Uop::VLoad {
            vd,
            rs1,
            ew: Sew::E32,
        },
        I::Vse8 { vs3, rs1 } => Uop::VStore {
            vs3,
            rs1,
            ew: Sew::E8,
        },
        I::Vse16 { vs3, rs1 } => Uop::VStore {
            vs3,
            rs1,
            ew: Sew::E16,
        },
        I::Vse32 { vs3, rs1 } => Uop::VStore {
            vs3,
            rs1,
            ew: Sew::E32,
        },
        I::VfmaccVf { vd, fs1, vs2 } => Uop::VfmaccVf { vd, fs1, vs2 },
        I::VindexmacVx { vd, vs2, rs } => Uop::VindexmacVx { vd, vs2, rs },
        I::VindexmacVvi { vd, vs2, vs1, slot } => Uop::VindexmacVvi { vd, vs2, vs1, slot },
        I::Vslide1downVx { vd, vs2, rs1 } => Uop::Vslide1downVx { vd, vs2, rs1 },
        I::VaddVx { vd, vs2, rs1 } => Uop::VaddVx { vd, vs2, rs1 },
        I::VmvXs { rd, vs2 } => Uop::VmvXs { rd, vs2 },
        I::VmvSx { vd, rs1 } => Uop::VmvSx { vd, rs1 },
        I::VfmvFs { fd, vs2 } => Uop::VfmvFs { fd, vs2 },
        _ => Uop::Step,
    }
}

/// A program predecoded into µops, ready to run many times.
///
/// Decoding is a single O(static-length) pass; the payoff is per
/// *dynamic* instruction, so a kernel decoded once and swept over many
/// seeds amortises to nothing (see `indexmac::experiment`'s
/// `ProgramCache`). The original instructions are kept alongside the
/// µops for event construction, tracing and the cold-path oracle.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    uops: Box<[Uop]>,
    instrs: Vec<Instruction>,
}

impl DecodedProgram {
    /// Predecodes `program` into µops, copying its instructions. Callers
    /// that own the program should use [`DecodedProgram::decode_owned`].
    pub fn decode(program: &Program) -> Self {
        Self::from_instructions(program.instructions().to_vec())
    }

    /// Predecodes `program` into µops, taking its instruction stream
    /// without a copy.
    pub fn decode_owned(program: Program) -> Self {
        Self::from_instructions(program.into_instructions())
    }

    fn from_instructions(instrs: Vec<Instruction>) -> Self {
        let uops = instrs
            .iter()
            .enumerate()
            .map(|(pc, i)| decode_one(pc, i))
            .collect();
        Self { uops, instrs }
    }

    /// Static instruction count.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Static slots whose µop defers to the `step()` oracle. Every
    /// shipped kernel builder emits only native µops, so this is 0 for
    /// them (`crates/kernels/tests/native_uops.rs` enforces it).
    pub fn oracle_slots(&self) -> usize {
        self.uops.iter().filter(|u| matches!(u, Uop::Step)).count()
    }

    /// The original instruction at `pc` (µops keep their source form
    /// for events and listings).
    pub fn instruction(&self, pc: usize) -> Option<&Instruction> {
        self.instrs.get(pc)
    }

    /// The full original instruction stream — the static analyzer's
    /// input ([`crate::analyze`] walks instructions, not µops, so cold
    /// opcodes are covered too).
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Runs the program from slot 0 until `ebreak`, mutating `state`
    /// and `mem` exactly like the `step()` oracle would, reporting
    /// every dynamic instruction to `obs`.
    ///
    /// # Errors
    ///
    /// The same conditions — and the same values — as the stepwise
    /// loop: [`SimError::Exec`] on functional faults,
    /// [`SimError::FellOffEnd`] on a missing `ebreak`, and
    /// [`SimError::InstructionLimit`] once `max_instructions` retire
    /// without halting (a program whose `ebreak` *is* the limit-th
    /// instruction succeeds).
    pub fn execute<O: Observer>(
        &self,
        state: &mut ArchState,
        mem: &mut MainMemory,
        obs: &mut O,
        max_instructions: u64,
    ) -> Result<u64, SimError> {
        // Retirement semantics match the stepwise oracle bit-for-bit: at
        // least one instruction executes (even at `max_instructions ==
        // 0`, because the limit is checked only *after* executing).
        state.pc = 0;
        state.halted = false;
        let mut instret: u64 = 0;
        while !state.halted {
            let pc = state.pc;
            let Some(uop) = self.uops.get(pc) else {
                return Err(SimError::FellOffEnd { pc });
            };
            self.exec_uop(state, mem, obs, pc, uop)?;
            instret += 1;
            if instret >= max_instructions && !state.halted {
                return Err(SimError::InstructionLimit {
                    limit: max_instructions,
                });
            }
        }
        Ok(instret)
    }

    /// Executes one µop, advancing `state.pc`. Split out of the fetch
    /// loop so each observer's monomorphization stays readable in
    /// profiles.
    #[inline]
    fn exec_uop<O: Observer>(
        &self,
        state: &mut ArchState,
        mem: &mut MainMemory,
        obs: &mut O,
        pc: usize,
        uop: &Uop,
    ) -> Result<(), SimError> {
        // Event context for the observer.
        let mut mem_op: Option<MemOp> = None;
        let mut indirect: Option<VReg> = None;
        let mut taken = false;
        let mut ev_vl = state.vl();
        let mut ev_sew = state.vtype().sew;
        let mut next_pc = pc + 1;

        match *uop {
            Uop::Li { rd, imm } => state.set_x(rd, imm),
            Uop::Mv { rd, rs } => {
                let v = state.x(rs);
                state.set_x(rd, v);
            }
            Uop::Addi { rd, rs1, imm } => {
                let v = state.x(rs1).wrapping_add(imm);
                state.set_x(rd, v);
            }
            Uop::Add { rd, rs1, rs2 } => {
                let v = state.x(rs1).wrapping_add(state.x(rs2));
                state.set_x(rd, v);
            }
            Uop::Sub { rd, rs1, rs2 } => {
                let v = state.x(rs1).wrapping_sub(state.x(rs2));
                state.set_x(rd, v);
            }
            Uop::Mul { rd, rs1, rs2 } => {
                let v = state.x(rs1).wrapping_mul(state.x(rs2));
                state.set_x(rd, v);
            }
            Uop::Slli { rd, rs1, shamt } => {
                let v = state.x(rs1) << shamt;
                state.set_x(rd, v);
            }
            Uop::Srli { rd, rs1, shamt } => {
                let v = state.x(rs1) >> shamt;
                state.set_x(rd, v);
            }
            Uop::Lw { rd, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                let v = mem.read_u32(addr) as i32 as i64 as u64;
                state.set_x(rd, v);
                mem_op = Some(scalar_mem(addr, 4, false));
            }
            Uop::Lwu { rd, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                let v = mem.read_u32(addr) as u64;
                state.set_x(rd, v);
                mem_op = Some(scalar_mem(addr, 4, false));
            }
            Uop::Ld { rd, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                let v = mem.read_u64(addr);
                state.set_x(rd, v);
                mem_op = Some(scalar_mem(addr, 8, false));
            }
            Uop::Sw { rs2, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                mem.write_u32(addr, state.x(rs2) as u32);
                mem_op = Some(scalar_mem(addr, 4, true));
            }
            Uop::Sd { rs2, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                mem.write_u64(addr, state.x(rs2));
                mem_op = Some(scalar_mem(addr, 8, true));
            }
            Uop::Flw { fd, rs1, imm } => {
                let addr = state.x(rs1).wrapping_add(imm);
                state.set_f_bits(fd, mem.read_u32(addr));
                mem_op = Some(scalar_mem(addr, 4, false));
            }
            Uop::Beq { rs1, rs2, target } => {
                if state.x(rs1) == state.x(rs2) {
                    taken = true;
                    next_pc = checked_target(target)?;
                }
            }
            Uop::Bne { rs1, rs2, target } => {
                if state.x(rs1) != state.x(rs2) {
                    taken = true;
                    next_pc = checked_target(target)?;
                }
            }
            Uop::Blt { rs1, rs2, target } => {
                if (state.x(rs1) as i64) < (state.x(rs2) as i64) {
                    taken = true;
                    next_pc = checked_target(target)?;
                }
            }
            Uop::Bge { rs1, rs2, target } => {
                if (state.x(rs1) as i64) >= (state.x(rs2) as i64) {
                    taken = true;
                    next_pc = checked_target(target)?;
                }
            }
            Uop::Jal { rd, target } => {
                // The link write precedes the range check, like the
                // oracle (a faulting jal leaves rd written).
                state.set_x(rd, (pc + 1) as u64);
                taken = true;
                next_pc = checked_target(target)?;
            }
            Uop::Nop => {}
            Uop::Halt => state.halted = true,
            Uop::Vsetvli { rd, rs1, sew, lmul } => {
                check_sew_supported(pc, sew)?;
                state.set_vtype(indexmac_isa::VType { sew, lmul });
                let vlmax = state.vlmax_grouped();
                let avl = if rs1.is_zero() {
                    if rd.is_zero() {
                        state.vl()
                    } else {
                        vlmax
                    }
                } else {
                    state.x(rs1) as usize
                };
                let vl = avl.min(vlmax);
                state.set_vl(vl);
                state.set_x(rd, vl as u64);
                ev_vl = vl;
                ev_sew = sew;
            }
            Uop::VLoad { vd, rs1, ew } => {
                let sew = state.vtype().sew;
                let eb = SEW_INFO[sew_index(ew)].bytes;
                let addr = state.x(rs1);
                let vl = state.vl();
                let regs = group_regs(vl, state.vlmax());
                check_element_width(pc, sew, ew)?;
                check_vector_alignment(pc, addr, eb as u64)?;
                check_group(pc, vd, regs)?;
                let dst = state.v_group_bytes_mut(vd, regs);
                mem.read_slice(addr, &mut dst[..vl * eb]);
                mem_op = Some(MemOp {
                    addr,
                    bytes: (vl * eb) as u64,
                    write: false,
                    vector: true,
                });
            }
            Uop::VStore { vs3, rs1, ew } => {
                let sew = state.vtype().sew;
                let eb = SEW_INFO[sew_index(ew)].bytes;
                let addr = state.x(rs1);
                let vl = state.vl();
                let regs = group_regs(vl, state.vlmax());
                check_element_width(pc, sew, ew)?;
                check_vector_alignment(pc, addr, eb as u64)?;
                check_group(pc, vs3, regs)?;
                let src = state.v_group_bytes(vs3, regs);
                mem.write_slice(addr, &src[..vl * eb]);
                mem_op = Some(MemOp {
                    addr,
                    bytes: (vl * eb) as u64,
                    write: true,
                    vector: true,
                });
            }
            Uop::VfmaccVf { vd, fs1, vs2 } => {
                let vl = state.vl();
                let sew = state.vtype().sew;
                // Not group-aware: the oracle faults on grouping before
                // the element-width rule.
                check_grouping_supported(pc, vl, state.vlmax())?;
                check_e32_only(pc, sew)?;
                let s = state.f32(fs1);
                let mut buf = [0u8; MAX_GROUP_BYTES];
                buf[..vl * 4].copy_from_slice(&state.v_bytes(vs2)[..vl * 4]);
                let dst = state.v_bytes_mut(vd);
                for i in 0..vl {
                    let o = i * 4;
                    let a = f32::from_bits(le32(&buf, o));
                    let d = f32::from_bits(le32(dst, o));
                    dst[o..o + 4].copy_from_slice(&(d + s * a).to_bits().to_le_bytes());
                }
            }
            Uop::VindexmacVx { vd, vs2, rs } => {
                let sew = state.vtype().sew;
                // Unlike `.vvi`, the first-generation MAC has no
                // register-grouping semantics (the oracle's `group_aware`
                // list excludes it).
                check_grouping_supported(pc, state.vl(), state.vlmax())?;
                let src = VReg::new((state.x(rs) & 0x1F) as u8);
                let multiplier_bits = state.v_lane(vs2, 0, sew);
                indexmac_body(state, pc, vd, src, multiplier_bits, sew)?;
                indirect = Some(src);
            }
            Uop::VindexmacVvi { vd, vs2, vs1, slot } => {
                let sew = state.vtype().sew;
                check_slot(pc, slot, state.vlmax())?;
                let slot = slot as usize;
                let src = VReg::new((state.v_lane(vs1, slot, sew) & 0x1F) as u8);
                let multiplier_bits = state.v_lane(vs2, slot, sew);
                indexmac_body(state, pc, vd, src, multiplier_bits, sew)?;
                indirect = Some(src);
            }
            Uop::Vslide1downVx { vd, vs2, rs1 } => {
                let vl = state.vl();
                check_grouping_supported(pc, vl, state.vlmax())?;
                if vl > 0 {
                    // vd[i] = vs2[i + 1] for i < vl - 1, then the scalar
                    // (truncated to SEW) into the last active element.
                    let eb = SEW_INFO[sew_index(ev_sew)].bytes;
                    let n = (vl - 1) * eb;
                    state.copy_v_bytes(vs2, eb, vd, n);
                    let s = state.x(rs1).to_le_bytes();
                    state.v_bytes_mut(vd)[n..n + eb].copy_from_slice(&s[..eb]);
                }
            }
            Uop::VaddVx { vd, vs2, rs1 } => {
                let vl = state.vl();
                check_grouping_supported(pc, vl, state.vlmax())?;
                let eb = SEW_INFO[sew_index(ev_sew)].bytes;
                let s = state.x(rs1);
                // Copy the source into place, then add in place: correct
                // for vd == vs2 as well.
                state.copy_v_bytes(vs2, 0, vd, vl * eb);
                let dst = &mut state.v_bytes_mut(vd)[..vl * eb];
                match eb {
                    1 => dst.iter_mut().for_each(|d| *d = d.wrapping_add(s as u8)),
                    2 => dst.chunks_exact_mut(2).for_each(|d| {
                        let v = u16::from_le_bytes([d[0], d[1]]).wrapping_add(s as u16);
                        d.copy_from_slice(&v.to_le_bytes());
                    }),
                    _ => dst.chunks_exact_mut(4).for_each(|d| {
                        let v = le32(d, 0).wrapping_add(s as u32);
                        d.copy_from_slice(&v.to_le_bytes());
                    }),
                }
            }
            Uop::VmvXs { rd, vs2 } => {
                let v = sign_extend(state.v_lane(vs2, 0, ev_sew), ev_sew) as i64 as u64;
                state.set_x(rd, v);
            }
            Uop::VmvSx { vd, rs1 } => {
                let v = state.x(rs1) as u32;
                state.set_v_lane(vd, 0, ev_sew, v);
            }
            Uop::VfmvFs { fd, vs2 } => {
                check_e32_only(pc, ev_sew)?;
                let bits = state.v_lane(vs2, 0, Sew::E32);
                state.set_f_bits(fd, bits);
            }
            Uop::Step => {
                // Cold path: run the oracle interpreter for this one
                // instruction (it advances state.pc itself).
                let ev = step(state, mem, &self.instrs[pc])?;
                obs.observe(&ev);
                return Ok(());
            }
        }

        state.pc = next_pc;
        obs.observe(&ExecEvent {
            pc,
            instr: self.instrs[pc],
            mem: mem_op,
            indirect_vreg: indirect,
            branch_taken: taken,
            vl: ev_vl,
            sew: ev_sew,
        });
        Ok(())
    }
}

#[inline]
fn scalar_mem(addr: u64, bytes: u64, write: bool) -> MemOp {
    MemOp {
        addr,
        bytes,
        write,
        vector: false,
    }
}

/// Validates a precomputed absolute branch target, mirroring the
/// oracle's `next_pc < 0` rule (over-the-end targets surface later as
/// `FellOffEnd`, exactly like the oracle).
#[inline]
fn checked_target(target: i64) -> Result<usize, SimError> {
    check_branch_target(target)?;
    Ok(target as usize)
}

#[inline]
fn le32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

/// The shared MAC body of both IndexMAC µops — bit-for-bit the oracle's
/// `exec_indexmac_body`, restructured to borrow each register group's
/// bytes once instead of per lane.
fn indexmac_body(
    state: &mut ArchState,
    pc: usize,
    vd: VReg,
    src: VReg,
    multiplier_bits: u32,
    sew: Sew,
) -> Result<(), SimError> {
    let vl = state.vl();
    let regs = group_regs(vl, state.vlmax());
    check_group(pc, src, regs)?;
    let info = SEW_INFO[sew_index(sew)];
    let mut buf = [0u8; MAX_GROUP_BYTES];
    buf[..vl * info.bytes].copy_from_slice(&state.v_group_bytes(src, regs)[..vl * info.bytes]);
    if sew == Sew::E32 {
        check_group(pc, vd, regs)?;
        let m = f32::from_bits(multiplier_bits);
        let dst = state.v_group_bytes_mut(vd, regs);
        for i in 0..vl {
            let o = i * 4;
            let a = f32::from_bits(le32(&buf, o));
            let d = f32::from_bits(le32(dst, o));
            dst[o..o + 4].copy_from_slice(&(d + m * a).to_bits().to_le_bytes());
        }
    } else {
        // Widening integer MAC: i8/i16 operands, i32 accumulation, the
        // destination group `widen`× the source EMUL.
        let dst_regs = check_widening_dst(pc, sew, vd, regs)?;
        check_group(pc, vd, dst_regs)?;
        let m = sign_extend(multiplier_bits, sew);
        let dst = state.v_group_bytes_mut(vd, dst_regs);
        if sew == Sew::E8 {
            for (i, &raw) in buf.iter().enumerate().take(vl) {
                let a = raw as i8 as i32;
                let o = i * 4;
                let d = le32(dst, o) as i32;
                let v = d.wrapping_add(m.wrapping_mul(a));
                dst[o..o + 4].copy_from_slice(&v.to_le_bytes());
            }
        } else {
            for i in 0..vl {
                let a = i16::from_le_bytes([buf[i * 2], buf[i * 2 + 1]]) as i32;
                let o = i * 4;
                let d = le32(dst, o) as i32;
                let v = d.wrapping_add(m.wrapping_mul(a));
                dst[o..o + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac_isa::{ProgramBuilder, VType};

    fn fixture(build: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.build()
    }

    /// Runs `program` through both the decoded engine and the stepwise
    /// oracle on identical initial state, asserting identical results
    /// and final architectural state.
    fn assert_parity(program: &Program, setup: impl Fn(&mut ArchState, &mut MainMemory)) {
        let mut s_engine = ArchState::new(512);
        let mut m_engine = MainMemory::new();
        setup(&mut s_engine, &mut m_engine);
        let mut s_oracle = s_engine.clone();
        let mut m_oracle = m_engine.clone();

        let decoded = DecodedProgram::decode(program);
        let got = decoded.execute(&mut s_engine, &mut m_engine, &mut NullObserver, 100_000);

        // Oracle loop: fetch + step until halt.
        let want = (|| -> Result<u64, SimError> {
            s_oracle.pc = 0;
            s_oracle.halted = false;
            let mut n = 0u64;
            while !s_oracle.halted {
                let pc = s_oracle.pc;
                let instr = *program.fetch(pc).ok_or(SimError::FellOffEnd { pc })?;
                step(&mut s_oracle, &mut m_oracle, &instr)?;
                n += 1;
                if n >= 100_000 && !s_oracle.halted {
                    return Err(SimError::InstructionLimit { limit: 100_000 });
                }
            }
            Ok(n)
        })();

        assert_eq!(got, want, "run outcome diverged");
        for r in 0..32 {
            assert_eq!(
                s_engine.x(XReg::new(r)),
                s_oracle.x(XReg::new(r)),
                "x{r} diverged"
            );
            let v = VReg::new(r);
            assert_eq!(s_engine.v_bytes(v), s_oracle.v_bytes(v), "v{r} diverged");
            let f = FReg::new(r);
            assert_eq!(s_engine.f_bits(f), s_oracle.f_bits(f), "f{r} diverged");
        }
        assert_eq!(s_engine.vl(), s_oracle.vl());
        assert_eq!(s_engine.vtype(), s_oracle.vtype());
        assert_eq!(s_engine.pc, s_oracle.pc);
    }

    #[test]
    fn decode_unpacks_and_preserves_length() {
        let p = fixture(|b| {
            b.li(XReg::T0, 5);
            let top = b.bind_label();
            b.addi(XReg::T0, XReg::T0, -1);
            b.bne(XReg::T0, XReg::ZERO, top);
            b.halt();
        });
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.instruction(3), Some(&Instruction::Halt));
        assert_eq!(d.instruction(4), None);
        // The backward branch's target is absolute after decode.
        assert!(matches!(d.uops[2], Uop::Bne { target: 1, .. }));
    }

    #[test]
    fn scalar_loop_parity() {
        let p = fixture(|b| {
            b.li(XReg::T0, 10);
            let top = b.bind_label();
            b.addi(XReg::T1, XReg::T1, 7);
            b.addi(XReg::T0, XReg::T0, -1);
            b.bne(XReg::T0, XReg::ZERO, top);
            b.halt();
        });
        assert_parity(&p, |_, _| {});
    }

    #[test]
    fn vector_roundtrip_parity_at_each_sew() {
        for (sew, lmul) in [
            (Sew::E8, Lmul::M1),
            (Sew::E16, Lmul::M2),
            (Sew::E32, Lmul::M1),
            (Sew::E32, Lmul::M2),
        ] {
            let p = fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew,
                    lmul,
                });
                b.li(XReg::A0, 0x1000);
                b.li(XReg::A1, 0x2000);
                b.push(match sew {
                    Sew::E8 => Instruction::Vle8 {
                        vd: VReg::V4,
                        rs1: XReg::A0,
                    },
                    Sew::E16 => Instruction::Vle16 {
                        vd: VReg::V4,
                        rs1: XReg::A0,
                    },
                    _ => Instruction::Vle32 {
                        vd: VReg::V4,
                        rs1: XReg::A0,
                    },
                });
                b.push(match sew {
                    Sew::E8 => Instruction::Vse8 {
                        vs3: VReg::V4,
                        rs1: XReg::A1,
                    },
                    Sew::E16 => Instruction::Vse16 {
                        vs3: VReg::V4,
                        rs1: XReg::A1,
                    },
                    _ => Instruction::Vse32 {
                        vs3: VReg::V4,
                        rs1: XReg::A1,
                    },
                });
                b.halt();
            });
            assert_parity(&p, |_, m| {
                for i in 0..256u64 {
                    m.write_u8(0x1000 + i, (i as u8).wrapping_mul(31).wrapping_add(7));
                }
            });
        }
    }

    #[test]
    fn indexmac_vvi_parity_including_widening() {
        for sew in [Sew::E8, Sew::E16, Sew::E32] {
            let p = fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew,
                    lmul: Lmul::M1,
                });
                b.push(Instruction::VindexmacVvi {
                    vd: VReg::V0,
                    vs2: VReg::V8,
                    vs1: VReg::new(9),
                    slot: 2,
                });
                b.halt();
            });
            assert_parity(&p, |s, _| {
                s.set_vtype(VType {
                    sew,
                    lmul: Lmul::M1,
                });
                for i in 0..s.lanes(sew) {
                    s.set_v_lane(VReg::new(20), i, sew, (i as u32).wrapping_mul(0x83));
                    s.set_v_lane(
                        VReg::V8,
                        i,
                        sew,
                        (i as u32).wrapping_mul(0x2B).wrapping_add(1),
                    );
                }
                s.set_v_lane(VReg::new(9), 2, sew, 20);
            });
        }
    }

    #[test]
    fn fault_parity_on_bad_programs() {
        // Missing halt.
        assert_parity(
            &fixture(|b| {
                b.li(XReg::T0, 1);
            }),
            |_, _| {},
        );
        // Unaligned vector load.
        assert_parity(
            &fixture(|b| {
                b.li(XReg::A0, 0x1001);
                b.push(Instruction::Vle32 {
                    vd: VReg::V1,
                    rs1: XReg::A0,
                });
                b.halt();
            }),
            |_, _| {},
        );
        // e64 vsetvli.
        assert_parity(
            &fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew: Sew::E64,
                    lmul: Lmul::M1,
                });
                b.halt();
            }),
            |_, _| {},
        );
        // Backward branch past slot 0.
        assert_parity(
            &fixture(|b| {
                b.push(Instruction::Beq {
                    rs1: XReg::ZERO,
                    rs2: XReg::ZERO,
                    offset: -5,
                });
                b.halt();
            }),
            |_, _| {},
        );
        // Widening destination misaligned at e8.
        assert_parity(
            &fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew: Sew::E8,
                    lmul: Lmul::M1,
                });
                b.li(XReg::T1, 20);
                b.push(Instruction::VindexmacVx {
                    vd: VReg::V1,
                    vs2: VReg::V8,
                    rs: XReg::T1,
                });
                b.halt();
            }),
            |_, _| {},
        );
    }

    #[test]
    fn cold_uops_fall_back_to_the_oracle() {
        // vmv.v.x and vadd.vv are emitted by no kernel builder: they
        // decode to Uop::Step and still execute.
        let p = fixture(|b| {
            b.li(XReg::T0, 3);
            b.push(Instruction::VmvVx {
                vd: VReg::V1,
                rs1: XReg::T0,
            });
            b.push(Instruction::VaddVv {
                vd: VReg::V2,
                vs2: VReg::V1,
                vs1: VReg::V1,
            });
            b.push(Instruction::VmvXs {
                rd: XReg::T1,
                vs2: VReg::V2,
            });
            b.halt();
        });
        let d = DecodedProgram::decode(&p);
        assert!(matches!(d.uops[2], Uop::Step));
        assert_eq!(d.oracle_slots(), 2);
        assert_parity(&p, |_, _| {});
    }

    #[test]
    fn native_slides_and_moves_match_the_oracle_at_each_sew() {
        for (sew, lmul) in [
            (Sew::E8, Lmul::M1),
            (Sew::E16, Lmul::M1),
            (Sew::E32, Lmul::M1),
            // vl beyond one register: vadd.vx faults on grouping after
            // the element-0 moves ran.
            (Sew::E32, Lmul::M2),
        ] {
            let p = fixture(|b| {
                b.push(Instruction::Vsetvli {
                    rd: XReg::T0,
                    rs1: XReg::ZERO,
                    sew,
                    lmul,
                });
                b.li(XReg::T1, -2);
                b.push(Instruction::VmvXs {
                    rd: XReg::T2,
                    vs2: VReg::V8,
                });
                b.push(Instruction::VmvSx {
                    vd: VReg::V3,
                    rs1: XReg::T1,
                });
                b.push(Instruction::VaddVx {
                    vd: VReg::new(9),
                    vs2: VReg::V8,
                    rs1: XReg::T1,
                });
                b.push(Instruction::Vslide1downVx {
                    vd: VReg::V8,
                    vs2: VReg::V8,
                    rs1: XReg::T1,
                });
                b.push(Instruction::Vslide1downVx {
                    vd: VReg::V4,
                    vs2: VReg::new(9),
                    rs1: XReg::ZERO,
                });
                // e32-only: faults last at e8/e16.
                b.push(Instruction::VfmvFs {
                    fd: FReg::F0,
                    vs2: VReg::V8,
                });
                b.halt();
            });
            let d = DecodedProgram::decode(&p);
            assert_eq!(d.oracle_slots(), 0);
            assert_parity(&p, |s, _| {
                for r in [8, 9] {
                    for i in 0..s.lanes(Sew::E8) {
                        let v = (i as u32).wrapping_mul(0x9D).wrapping_add(r);
                        s.set_v_lane(VReg::new(r as u8), i, Sew::E8, v);
                    }
                }
            });
        }
    }

    #[test]
    fn slides_with_vl_zero_leave_the_destination_alone() {
        let p = fixture(|b| {
            b.push(Instruction::Vsetvli {
                rd: XReg::T0,
                rs1: XReg::T0,
                sew: Sew::E32,
                lmul: Lmul::M1,
            });
            b.li(XReg::T1, 7);
            b.push(Instruction::Vslide1downVx {
                vd: VReg::V2,
                vs2: VReg::V1,
                rs1: XReg::T1,
            });
            b.push(Instruction::VaddVx {
                vd: VReg::V2,
                vs2: VReg::V1,
                rs1: XReg::T1,
            });
            b.halt();
        });
        assert_parity(&p, |s, _| {
            s.set_v_lane(VReg::V1, 1, Sew::E32, 0xABCD);
            s.set_v_lane(VReg::V2, 0, Sew::E32, 0x1234);
        });
    }

    #[test]
    fn null_observer_and_event_observer_agree_on_state() {
        let p = fixture(|b| {
            b.li(XReg::A0, 0x3000);
            b.push(Instruction::Vle32 {
                vd: VReg::V2,
                rs1: XReg::A0,
            });
            b.push(Instruction::VfmaccVf {
                vd: VReg::V3,
                fs1: FReg::F0,
                vs2: VReg::V2,
            });
            b.halt();
        });
        let d = DecodedProgram::decode(&p);
        let mut s1 = ArchState::new(512);
        let mut m1 = MainMemory::new();
        m1.write_f32_slice(0x3000, &[1.5; 16]);
        let mut s2 = s1.clone();
        let mut m2 = m1.clone();
        let n1 = d
            .execute(&mut s1, &mut m1, &mut NullObserver, u64::MAX)
            .unwrap();
        let mut events = Vec::new();
        let n2 = d
            .execute(
                &mut s2,
                &mut m2,
                &mut |ev: &ExecEvent| events.push(*ev),
                u64::MAX,
            )
            .unwrap();
        assert_eq!(n1, n2);
        assert_eq!(events.len() as u64, n2);
        assert_eq!(s1.v_bytes(VReg::V3), s2.v_bytes(VReg::V3));
        // The event stream carries the memory op and program order.
        assert!(events[1].mem.unwrap().vector);
        assert_eq!(events[1].pc, 1);
    }

    #[test]
    fn sew_info_matches_the_derived_constants() {
        for sew in [Sew::E8, Sew::E16, Sew::E32] {
            let info = SEW_INFO[sew_index(sew)];
            assert_eq!(info.bytes, sew.bytes());
            assert_eq!(info.lane_mask as u64, (1u64 << sew.bits()) - 1);
            assert_eq!(info.widen, crate::exec::widen_factor(sew));
        }
    }
}
