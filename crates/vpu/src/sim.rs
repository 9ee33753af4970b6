//! The simulator front-end: functional execution + timing in one pass.
//!
//! Every `run*` entry point except the stepwise oracle goes through the
//! one checked engine loop ([`DecodedProgram::execute`]); they differ
//! only in who decodes and which [`Observer`] watches.

use crate::config::SimConfig;
use crate::engine::{DecodedProgram, Observer};
use crate::exec::{step, ExecError};
use crate::report::RunReport;
use crate::state::ArchState;
use crate::timing::TimingModel;
use crate::trace::TraceObserver;
use indexmac_isa::Program;
use indexmac_mem::MainMemory;
use std::error::Error;
use std::fmt;

/// Default cap on dynamic instructions (runaway-program guard).
pub const DEFAULT_MAX_INSTRUCTIONS: u64 = 2_000_000_000;

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A functional-execution fault (alignment, SEW, control flow).
    Exec(ExecError),
    /// The program ran past the end without `ebreak`.
    FellOffEnd {
        /// The out-of-range fetch slot.
        pc: usize,
    },
    /// The dynamic instruction limit was reached.
    InstructionLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "execution fault: {e}"),
            SimError::FellOffEnd { pc } => {
                write!(f, "program fell off the end at slot {pc} (missing ebreak)")
            }
            SimError::InstructionLimit { limit } => {
                write!(f, "dynamic instruction limit of {limit} reached")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

/// The decoupled vector-processor simulator.
///
/// Owns the architectural state, the simulated main memory and the
/// timing model. A typical experiment:
///
/// 1. build a [`Program`] (usually via `indexmac-kernels`);
/// 2. place operand data in [`Simulator::memory_mut`];
/// 3. [`Simulator::run`];
/// 4. read results back from memory and measurements from [`RunReport`].
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
    state: ArchState,
    mem: MainMemory,
    max_instructions: u64,
}

impl Simulator {
    /// Creates a simulator with zeroed state and empty memory.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            cfg,
            state: ArchState::new(cfg.vlen_bits),
            mem: MainMemory::new(),
            max_instructions: DEFAULT_MAX_INSTRUCTIONS,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Architectural state (registers, vl, pc).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable architectural state (useful for test setup).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// Simulated main memory.
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable simulated main memory (for placing operands).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// Overrides the dynamic-instruction guard.
    pub fn set_max_instructions(&mut self, limit: u64) {
        self.max_instructions = limit;
    }

    /// The active dynamic-instruction guard.
    pub fn max_instructions(&self) -> u64 {
        self.max_instructions
    }

    /// Resets architectural state (memory and config retained).
    pub fn reset_state(&mut self) {
        self.state.reset();
    }

    /// Resets architectural state **and** memory in place, reusing both
    /// allocations — the warm-execution path runs one simulator across
    /// thousands of experiment cells with this between runs instead of
    /// constructing a fresh `Simulator` per cell. The configuration and
    /// instruction guard are retained.
    pub fn reset(&mut self) {
        self.state.reset();
        self.mem.clear();
    }

    /// Runs `program` from slot 0 until `ebreak`, with timing.
    ///
    /// Decodes once and executes through the decode-once engine; for
    /// repeated runs of one program, predecode with
    /// [`DecodedProgram::decode`] and use [`Simulator::run_decoded`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on execution faults, a missing `ebreak`, or
    /// the instruction limit.
    pub fn run(&mut self, program: &Program) -> Result<RunReport, SimError> {
        self.run_decoded(&DecodedProgram::decode(program))
    }

    /// [`Simulator::run`] over an already-decoded program.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_decoded(&mut self, program: &DecodedProgram) -> Result<RunReport, SimError> {
        let mut timing = TimingModel::new(self.cfg);
        let instructions = self.run_decoded_with(program, &mut timing)?;
        Ok(make_report(&timing, instructions))
    }

    /// Runs `program` with timing, recording the first `trace_cap`
    /// dynamic instructions as a pipeline trace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_traced(
        &mut self,
        program: &Program,
        trace_cap: usize,
    ) -> Result<(RunReport, crate::trace::Trace), SimError> {
        let mut obs = TraceObserver::new(self.cfg, trace_cap);
        let instructions = self.run_decoded_with(&DecodedProgram::decode(program), &mut obs)?;
        let (timing, trace) = obs.into_parts();
        Ok((make_report(&timing, instructions), trace))
    }

    /// Core decoded-engine entry point: runs `program` under any
    /// [`Observer`], returning the dynamic instruction count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_decoded_with<O: Observer>(
        &mut self,
        program: &DecodedProgram,
        observer: &mut O,
    ) -> Result<u64, SimError> {
        program.execute(
            &mut self.state,
            &mut self.mem,
            observer,
            self.max_instructions,
        )
    }

    /// [`Simulator::run_decoded`] for a caller holding a
    /// [`crate::analyze::Verified`] token: the same checked run, plus
    /// debug assertions that the token was minted for this program's
    /// length and this simulator's VLEN. The token does not change how
    /// the program runs. The entry point stays only because the repo
    /// benchmark under `perfbench/` calls it; delete it once that
    /// benchmark calls [`Simulator::run_decoded`] instead.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_decoded_verified(
        &mut self,
        program: &DecodedProgram,
        token: crate::analyze::Verified,
    ) -> Result<RunReport, SimError> {
        debug_assert_eq!(
            token.program_len(),
            program.len(),
            "Verified token minted for a different program"
        );
        debug_assert_eq!(
            token.vlen_bits(),
            self.state.vlen_bits(),
            "Verified token minted for a different VLEN"
        );
        self.run_decoded(program)
    }

    /// The legacy interpret-per-step loop over [`step`] — kept verbatim
    /// as the **oracle** the decoded engine is differentially tested
    /// against (`crates/vpu/tests/prop_engine.rs`), and as the
    /// reference for throughput measurements (`engine_throughput`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_stepwise<O: Observer>(
        &mut self,
        program: &Program,
        observer: &mut O,
    ) -> Result<u64, SimError> {
        self.state.pc = 0;
        self.state.halted = false;
        let mut instret: u64 = 0;
        while !self.state.halted {
            let pc = self.state.pc;
            let instr = *program.fetch(pc).ok_or(SimError::FellOffEnd { pc })?;
            let ev = step(&mut self.state, &mut self.mem, &instr)?;
            observer.observe(&ev);
            instret += 1;
            // A program whose `ebreak` is exactly the limit-th dynamic
            // instruction has halted — only a still-running program
            // trips the guard.
            if instret >= self.max_instructions && !self.state.halted {
                return Err(SimError::InstructionLimit {
                    limit: self.max_instructions,
                });
            }
        }
        Ok(instret)
    }

    /// [`Simulator::run_stepwise`] with full timing, producing the same
    /// [`RunReport`] shape as [`Simulator::run`] (bit-identical by the
    /// differential suite).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_stepwise_timed(&mut self, program: &Program) -> Result<RunReport, SimError> {
        let mut timing = TimingModel::new(self.cfg);
        let instructions = self.run_stepwise(program, &mut timing)?;
        Ok(make_report(&timing, instructions))
    }
}

/// Collects a [`RunReport`] from a drained timing model.
fn make_report(timing: &TimingModel, instructions: u64) -> RunReport {
    let hier = timing.hierarchy();
    RunReport {
        cycles: timing.total_cycles(),
        instructions,
        counts: timing.counts(),
        mem: timing.mem_stats(),
        l1d_hit_rate: hier.l1d().stats().hit_rate(),
        l2_hit_rate: hier.l2().stats().hit_rate(),
        engine_busy_cycles: timing.engine_busy_cycles(),
        vq_stall_cycles: timing.vq_stall_cycles(),
        rob_stall_cycles: timing.rob_stall_cycles(),
        v2s_syncs: timing.v2s_syncs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullObserver;
    use indexmac_isa::{Instruction, Lmul, ProgramBuilder, Sew, VReg, XReg};

    fn sim() -> Simulator {
        Simulator::new(SimConfig::table_i())
    }

    #[test]
    fn run_trivial_program() {
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 5).addi(XReg::T0, XReg::T0, 2).halt();
        let mut s = sim();
        let r = s.run(&b.build()).unwrap();
        assert_eq!(s.state().x(XReg::T0), 7);
        assert_eq!(r.instructions, 3);
        assert!(r.cycles >= 1);
    }

    #[test]
    fn missing_halt_detected() {
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 5);
        let mut s = sim();
        assert!(matches!(
            s.run(&b.build()),
            Err(SimError::FellOffEnd { pc: 1 })
        ));
    }

    #[test]
    fn instruction_limit_detected() {
        // Infinite loop: beq zero, zero, self.
        let mut b = ProgramBuilder::new();
        let top = b.bind_label();
        b.beq(XReg::ZERO, XReg::ZERO, top);
        b.halt();
        let mut s = sim();
        s.set_max_instructions(1000);
        assert!(matches!(
            s.run(&b.build()),
            Err(SimError::InstructionLimit { limit: 1000 })
        ));
    }

    #[test]
    fn ebreak_exactly_at_the_limit_succeeds() {
        // Regression for the off-by-one: a program whose `ebreak` is
        // exactly the max_instructions-th dynamic instruction must
        // complete, in both the decoded engine and the stepwise oracle.
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 5);
        b.halt(); // dynamic instruction #2
        let p = b.build();
        for limit in [2u64, 3] {
            let mut s = sim();
            s.set_max_instructions(limit);
            assert_eq!(
                s.run(&p).expect("halt on/before the limit").instructions,
                2,
                "engine at limit {limit}"
            );
            let mut s = sim();
            s.set_max_instructions(limit);
            assert_eq!(
                s.run_stepwise(&p, &mut NullObserver).unwrap(),
                2,
                "oracle at limit {limit}"
            );
        }
        // One below the boundary still trips the guard.
        let mut s = sim();
        s.set_max_instructions(1);
        assert!(matches!(
            s.run(&p),
            Err(SimError::InstructionLimit { limit: 1 })
        ));
        let mut s = sim();
        s.set_max_instructions(1);
        assert!(matches!(
            s.run_stepwise(&p, &mut NullObserver),
            Err(SimError::InstructionLimit { limit: 1 })
        ));
    }

    #[test]
    fn decoded_engine_matches_stepwise_report_bit_for_bit() {
        let mut b = ProgramBuilder::new();
        b.li(XReg::A0, 16);
        b.push(Instruction::Vsetvli {
            rd: XReg::T0,
            rs1: XReg::A0,
            sew: Sew::E32,
            lmul: Lmul::M1,
        });
        b.li(XReg::A1, 0x1000);
        b.push(Instruction::Vle32 {
            vd: VReg::V2,
            rs1: XReg::A1,
        });
        b.li(XReg::T1, 2);
        b.push(Instruction::VindexmacVx {
            vd: VReg::V4,
            vs2: VReg::V2,
            rs: XReg::T1,
        });
        b.push(Instruction::Vse32 {
            vs3: VReg::V4,
            rs1: XReg::A1,
        });
        b.halt();
        let p = b.build();

        let mut engine = sim();
        engine.memory_mut().write_f32_slice(0x1000, &[1.25; 16]);
        let fast = engine.run(&p).unwrap();
        let mut oracle = sim();
        oracle.memory_mut().write_f32_slice(0x1000, &[1.25; 16]);
        let slow = oracle.run_stepwise_timed(&p).unwrap();
        assert_eq!(fast, slow, "reports must be bit-identical");
        assert_eq!(
            engine.state().x(XReg::T0),
            oracle.state().x(XReg::T0),
            "architectural state must agree"
        );
    }

    #[test]
    fn reset_clears_state_and_memory_in_place() {
        let mut s = sim();
        s.set_max_instructions(1234);
        s.memory_mut().write_u32(0x10, 77);
        s.state_mut().set_x(XReg::T0, 5);
        s.reset();
        assert_eq!(s.state().x(XReg::T0), 0);
        assert_eq!(s.memory().read_u32(0x10), 0, "reset() clears memory too");
        assert_eq!(s.max_instructions(), 1234, "guard survives reset");
        // A reset simulator behaves exactly like a fresh one.
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 7).halt();
        let p = b.build();
        let warm = s.run(&p).unwrap();
        let cold = sim().run(&p).unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn real_loop_executes() {
        // t0 = 10; do { t0 -= 1 } while t0 != 0; t1 = 99.
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 10);
        let top = b.bind_label();
        b.addi(XReg::T0, XReg::T0, -1);
        b.bne(XReg::T0, XReg::ZERO, top);
        b.li(XReg::T1, 99);
        b.halt();
        let mut s = sim();
        let r = s.run(&b.build()).unwrap();
        assert_eq!(s.state().x(XReg::T0), 0);
        assert_eq!(s.state().x(XReg::T1), 99);
        // 1 + 10*2 + 1 + 1 dynamic instructions.
        assert_eq!(r.instructions, 23);
        // Taken branches pay redirect: at least ~2 cycles per iteration.
        assert!(r.cycles >= 20);
    }

    #[test]
    fn vector_roundtrip_with_timing() {
        let mut s = sim();
        let data: Vec<f32> = (0..16).map(|i| i as f32 + 0.5).collect();
        s.memory_mut().write_f32_slice(0x1000, &data);
        let mut b = ProgramBuilder::new();
        b.li(XReg::A0, 16);
        b.push(Instruction::Vsetvli {
            rd: XReg::T0,
            rs1: XReg::A0,
            sew: Sew::E32,
            lmul: Lmul::M1,
        });
        b.li(XReg::A1, 0x1000);
        b.li(XReg::A2, 0x2000);
        b.push(Instruction::Vle32 {
            vd: VReg::V1,
            rs1: XReg::A1,
        });
        b.push(Instruction::Vse32 {
            vs3: VReg::V1,
            rs1: XReg::A2,
        });
        b.halt();
        let r = s.run(&b.build()).unwrap();
        assert_eq!(s.memory().read_f32_slice(0x2000, 16), data);
        assert_eq!(r.mem.vector_loads, 1);
        assert_eq!(r.mem.vector_stores, 1);
        assert!(r.cycles > 8, "must include L2/DRAM time, got {}", r.cycles);
    }

    #[test]
    fn functional_mode_matches_timed_architecturally() {
        let mut b = ProgramBuilder::new();
        b.li(XReg::T0, 3);
        let top = b.bind_label();
        b.addi(XReg::T1, XReg::T1, 7);
        b.addi(XReg::T0, XReg::T0, -1);
        b.bne(XReg::T0, XReg::ZERO, top);
        b.halt();
        let p = b.build();

        let mut a = sim();
        a.run(&p).unwrap();
        let mut f = sim();
        f.run_decoded_with(&DecodedProgram::decode(&p), &mut NullObserver)
            .unwrap();
        assert_eq!(a.state().x(XReg::T1), f.state().x(XReg::T1));
        assert_eq!(a.state().x(XReg::T1), 21);
    }

    #[test]
    fn run_traced_records_pipeline_timings() {
        let mut b = ProgramBuilder::new();
        b.li(XReg::A0, 0x1000);
        b.push(Instruction::Vle32 {
            vd: VReg::V1,
            rs1: XReg::A0,
        });
        b.push(Instruction::VmvXs {
            rd: XReg::T0,
            vs2: VReg::V1,
        });
        b.addi(XReg::T1, XReg::T0, 1);
        b.halt();
        let mut s = sim();
        let (report, trace) = s.run_traced(&b.build(), 16).unwrap();
        assert_eq!(trace.observed(), report.instructions);
        assert!(!trace.truncated());
        let entries = trace.entries();
        // Program order and monotone issue cycles.
        for w in entries.windows(2) {
            assert!(w[0].timing.issue_at <= w[1].timing.issue_at);
        }
        // The vector load's completion includes memory latency.
        let vload = &entries[1];
        assert!(
            vload.latency() > 8,
            "cold vector load latency {}",
            vload.latency()
        );
        // The dependent addi waits for the cross-domain move.
        let addi = &entries[3];
        let vmv = &entries[2];
        assert!(addi.timing.issue_at >= vmv.timing.completion);
        // Capacity truncation path.
        let mut s2 = sim();
        let (_, small) = s2
            .run_traced(
                &{
                    let mut b = ProgramBuilder::new();
                    b.li(XReg::T0, 1).li(XReg::T1, 2).halt();
                    b.build()
                },
                1,
            )
            .unwrap();
        assert!(small.truncated());
        assert_eq!(small.entries().len(), 1);
    }

    #[test]
    fn timing_backends_agree_on_instret_and_state() {
        // One program, three timing backends: architectural results and
        // instruction counts are bit-identical; only cycles may differ.
        let mut b = ProgramBuilder::new();
        b.li(XReg::A0, 16);
        b.push(Instruction::Vsetvli {
            rd: XReg::T0,
            rs1: XReg::A0,
            sew: Sew::E32,
            lmul: Lmul::M1,
        });
        b.li(XReg::A1, 0x1000);
        b.push(Instruction::Vle32 {
            vd: VReg::V2,
            rs1: XReg::A1,
        });
        b.push(Instruction::VmvXs {
            rd: XReg::T1,
            vs2: VReg::V2,
        });
        b.addi(XReg::T2, XReg::T1, 1);
        b.push(Instruction::Vse32 {
            vs3: VReg::V2,
            rs1: XReg::A1,
        });
        b.halt();
        let p = b.build();

        let mut reports = Vec::new();
        for kind in crate::config::TimingKind::ALL {
            let mut s = Simulator::new(SimConfig::table_i().with_timing(kind));
            s.memory_mut().write_f32_slice(0x1000, &[2.5; 16]);
            let r = s.run(&p).unwrap();
            assert!(r.cycles > 0, "{kind}: cycles accounted");
            reports.push((kind, r, s.state().x(XReg::T2)));
        }
        let (_, base, arch) = &reports[0];
        for (kind, r, x) in &reports {
            assert_eq!(r.instructions, base.instructions, "{kind}: instret");
            assert_eq!(r.counts, base.counts, "{kind}: class counts");
            assert_eq!(r.mem, base.mem, "{kind}: memory traffic");
            assert_eq!(x, arch, "{kind}: architectural state");
        }
        // The in-order backend is the default: selecting it explicitly
        // must not change the report.
        let mut s = Simulator::new(SimConfig::table_i());
        s.memory_mut().write_f32_slice(0x1000, &[2.5; 16]);
        assert_eq!(s.run(&p).unwrap(), reports[0].1);
    }

    #[test]
    fn reset_state_clears_registers_not_memory() {
        let mut s = sim();
        s.memory_mut().write_u32(0x10, 77);
        s.state_mut().set_x(XReg::T0, 5);
        s.reset_state();
        assert_eq!(s.state().x(XReg::T0), 0);
        assert_eq!(s.memory().read_u32(0x10), 77);
    }

    #[test]
    fn vindexmac_full_pipeline() {
        // Pre-load a "B row" into v20 from memory, then accumulate it
        // into v1 via the custom instruction, then store.
        let mut s = sim();
        s.memory_mut().write_f32_slice(0x1000, &[2.0; 16]); // B row
        s.memory_mut().write_f32_slice(0x2000, &[3.0; 16]); // values (3.0 at [0])
        let mut b = ProgramBuilder::new();
        b.li(XReg::A0, 0x1000);
        b.li(XReg::A1, 0x2000);
        b.li(XReg::A2, 0x3000);
        b.push(Instruction::Vle32 {
            vd: VReg::new(20),
            rs1: XReg::A0,
        });
        b.push(Instruction::Vle32 {
            vd: VReg::V2,
            rs1: XReg::A1,
        });
        b.li(XReg::T1, 20); // index of the tile register
        b.push(Instruction::VindexmacVx {
            vd: VReg::V1,
            vs2: VReg::V2,
            rs: XReg::T1,
        });
        b.push(Instruction::Vse32 {
            vs3: VReg::V1,
            rs1: XReg::A2,
        });
        b.halt();
        let r = s.run(&b.build()).unwrap();
        assert_eq!(s.memory().read_f32_slice(0x3000, 16), vec![6.0; 16]);
        assert_eq!(r.counts.get(indexmac_isa::InstrClass::VIndexMac), 1);
        assert_eq!(r.mem.vector_loads, 2, "vindexmac itself must not load");
    }
}
