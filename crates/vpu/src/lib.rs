//! Decoupled RISC-V vector-processor simulator — the evaluation
//! substrate of the IndexMAC reproduction (the paper used gem5 model
//! `1bDV`; this crate is the Rust stand-in).
//!
//! The simulated organisation follows the paper's Table I:
//!
//! * an 8-way out-of-order scalar core (60-entry ROB) with an L1D cache;
//! * a decoupled vector engine (512-bit, 16 lanes of 32-bit elements)
//!   fed through a vector instruction queue, with 16 load and 16 store
//!   queue entries connected **directly to the shared L2**;
//! * a shared 512 KiB L2 (8 banks, 8-cycle hit) over DDR4-2400.
//!
//! Execution is split into a *functional* interpreter ([`exec`]) that
//! computes architectural state (so kernel results can be checked against
//! a reference matmul bit-for-bit) and a *timing* model ([`timing`]) that
//! consumes the dynamic instruction stream event-by-event and produces
//! cycle counts and traffic statistics. [`Simulator`] drives both in a
//! single pass, through the decode-once [`engine`]: programs predecode
//! into µop form ([`DecodedProgram`]) and run in one checked fetch loop
//! under an [`Observer`] — the [`TimingModel`] on every timed path. The
//! per-step interpreter is retained as the differential-testing oracle
//! ([`sim::Simulator::run_stepwise`]). The static analyzer ([`analyze`])
//! proves kernels fault-free for `lint` and CI; it is not on the
//! simulation path.
//!
//! # Example
//!
//! ```
//! use indexmac_isa::{Instruction, ProgramBuilder, XReg};
//! use indexmac_vpu::{SimConfig, Simulator};
//!
//! let mut b = ProgramBuilder::new();
//! b.li(XReg::T0, 21);
//! b.push(Instruction::Add { rd: XReg::T1, rs1: XReg::T0, rs2: XReg::T0 });
//! b.halt();
//!
//! let mut sim = Simulator::new(SimConfig::table_i());
//! let report = sim.run(&b.build())?;
//! assert_eq!(sim.state().x(XReg::T1), 42);
//! assert!(report.cycles > 0);
//! # Ok::<(), indexmac_vpu::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod checks;
pub mod config;
pub mod engine;
pub mod exec;
pub mod report;
pub mod sim;
pub mod state;
pub mod timing;
pub mod trace;

pub use analyze::{
    analyze, analyze_instructions, analyze_with_contract, Analysis, AnalysisContract, Confidence,
    Diagnostic, OffsetTable, Rule, Severity, Verified, VregTable,
};
pub use config::{SimConfig, TimingKind};
pub use engine::{DecodedProgram, NullObserver, Observer};
pub use exec::{ExecError, ExecEvent, MemOp};
pub use report::RunReport;
pub use sim::{SimError, Simulator};
pub use state::ArchState;
pub use timing::{ClassCounts, InstrTiming, TimingModel};
pub use trace::{Trace, TraceEntry, TraceObserver};
