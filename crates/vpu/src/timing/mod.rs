//! Cycle-approximate timing model of the decoupled vector processor.
//!
//! One [`TimingModel`] consumes the dynamic instruction stream one
//! [`ExecEvent`] at a time (O(1) state per instruction, no global event
//! queue) and accumulates the counters [`crate::RunReport`] is built
//! from. It is itself the timing-path [`Observer`]. It holds, once, the
//! machine state every scalar core shares: the memory hierarchy, the
//! decoupled vector engine (`VectorSide`, in `vector.rs`), the scalar
//! register ready tables, the `mul`/ALU and scalar load/store
//! latencies, and the counters. [`crate::config::TimingKind`] in
//! [`SimConfig::timing`] selects only the scalar core's *issue policy*:
//!
//! * in-order — the original model: in-order issue at `issue_width` per
//!   cycle, a reorder-buffer window that gates issue when full, a
//!   register scoreboard, taken-branch redirect penalty;
//! * pipelined — the same issue stage behind an explicit fetch/decode
//!   front end and a writeback stage;
//! * out-of-order — in-order dispatch, out-of-order execution through a
//!   ROB, reservation stations, renamed registers and a scalar
//!   load/store queue.
//!
//! Every policy hands vector work to the same engine — bounded
//! instruction queue, per-`VReg` ready times, lane occupancy
//! `ceil(vl/lanes)`, load/store queues directly into L2 — so dynamic
//! instruction counts and memory traffic are identical across policies
//! by construction; only scalar-side cycle accounting differs. The
//! cross-domain `vmv.x.s`/`vfmv.f.s` synchronisation cost (the coupling
//! the paper's `vx` kernel pays per non-zero) is therefore charged
//! consistently everywhere.
//!
//! Invariants every policy upholds (pinned by `tests/prop_backends.rs`;
//! exact cycles by `tests/golden_timing.rs`):
//!
//! * each record satisfies `completion >= start >= issue_at`;
//! * [`TimingModel::total_cycles`] is monotone non-decreasing across
//!   events;
//! * [`TimingModel::engine_busy_cycles`] never exceeds total cycles;
//! * [`TimingModel::counts`] depends only on the event stream, never on
//!   the policy.

mod inorder;
mod ooo;
mod vector;

use crate::config::{SimConfig, TimingKind};
use crate::engine::Observer;
use crate::exec::ExecEvent;
use indexmac_isa::{InstrClass, Instruction};
use indexmac_mem::{MemStats, MemoryHierarchy};
use inorder::{FrontEnd, InOrderIssue};
use ooo::OutOfOrder;
use std::collections::VecDeque;
use vector::{VectorOutcome, VectorSide};

/// Bounded-completion-queue admission, shared by the decoupling queue,
/// the vector load/store queues and the out-of-order ROB: drains entries that
/// completed at or before `at`; when the queue still sits at `cap`,
/// pops the oldest entry and returns its completion time — the cycle a
/// new entry must wait for.
fn vecdeque_window(q: &mut VecDeque<u64>, cap: usize, at: u64) -> Option<u64> {
    while let Some(&c) = q.front() {
        if c <= at {
            q.pop_front();
        } else {
            break;
        }
    }
    if q.len() >= cap {
        Some(q.pop_front().expect("bounded queue non-empty at capacity"))
    } else {
        None
    }
}

/// Per-class dynamic instruction counts, indexed by
/// [`InstrClass::index`] and sized by [`InstrClass::COUNT`] — adding an
/// instruction class without extending `InstrClass::ALL` is a compile
/// error, so the table cannot silently drop a class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts([u64; InstrClass::COUNT]);

impl ClassCounts {
    /// Count of one class.
    pub fn get(&self, c: InstrClass) -> u64 {
        self.0[c.index()]
    }

    fn bump(&mut self, c: InstrClass) {
        self.0[c.index()] += 1;
    }

    /// Overwrites the count of one class (store-record decode path:
    /// persisted reports are reconstructed field by field).
    pub fn set(&mut self, c: InstrClass, count: u64) {
        self.0[c.index()] = count;
    }

    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Total vector-engine instructions.
    pub fn vector_total(&self) -> u64 {
        InstrClass::ALL
            .iter()
            .filter(|c| c.is_vector() && **c != InstrClass::VConfig)
            .map(|c| self.get(*c))
            .sum()
    }
}

/// Per-instruction timing record returned by [`TimingModel::account`],
/// consumed by the pipeline tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTiming {
    /// Cycle the scalar core issued (or dispatched) the instruction.
    pub issue_at: u64,
    /// Cycle execution began (engine start for vector instructions; at
    /// or after `issue_at` on the scalar side).
    pub start: u64,
    /// Cycle the result became architecturally available.
    pub completion: u64,
}

/// An issue (or dispatch) clock with its per-cycle slot budgets. Every
/// path that moves the clock — width exhaustion, operand/ROB waits,
/// branch redirect, vq back-pressure — funnels through
/// [`IssueClock::advance`], so the budgets can never be left stale in a
/// new cycle (a vector hand-over in a fresh cycle after a stall must
/// see a full budget).
#[derive(Debug, Clone, Copy, Default)]
struct IssueClock {
    cycle: u64,
    issued: u32,
    vissued: u32,
}

impl IssueClock {
    fn advance(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.cycle, "issue clock runs forward");
        self.cycle = cycle;
        self.issued = 0;
        self.vissued = 0;
    }

    /// Moves to the next cycle when this one has no slot left for an
    /// instruction; `vector` instructions also need a hand-over slot.
    fn open_slot(&mut self, cfg: &SimConfig, vector: bool) {
        if self.issued >= cfg.issue_width || (vector && self.vissued >= cfg.vdispatch_per_cycle) {
            self.advance(self.cycle + 1);
        }
    }

    fn take_slot(&mut self, vector: bool) {
        self.issued += 1;
        if vector {
            self.vissued += 1;
        }
    }
}

/// The machine state every issue policy shares.
#[derive(Debug, Clone)]
struct Core {
    cfg: SimConfig,
    hier: MemoryHierarchy,
    vec: VectorSide,
    /// Ready time of each scalar register's youngest definition. Under
    /// the out-of-order policy this is the register alias table:
    /// renaming removes WAW/WAR hazards, so only RAW waits remain.
    x_ready: [u64; 32],
    f_ready: [u64; 32],
    counts: ClassCounts,
    rob_stall_cycles: u64,
    last_completion: u64,
}

impl Core {
    /// Latest ready time across the event's scalar sources.
    fn sources_ready(&self, ev: &ExecEvent) -> u64 {
        let mut ready = 0u64;
        for src in ev.instr.x_srcs().into_iter().flatten() {
            ready = ready.max(self.x_ready[src.index() as usize]);
        }
        if let Some(fsrc) = ev.instr.f_src() {
            ready = ready.max(self.f_ready[fsrc.index() as usize]);
        }
        ready
    }

    /// Marks the event's scalar destinations ready at `at`.
    fn define(&mut self, ev: &ExecEvent, at: u64) {
        if let Some(rd) = ev.instr.x_dst() {
            self.x_ready[rd.index() as usize] = at;
        }
        if let Some(fd) = ev.instr.f_dst() {
            self.f_ready[fd.index() as usize] = at;
        }
    }

    /// Executes a scalar-side instruction starting at `at`, returning
    /// the cycle its result is ready. `vsetvli` resolves here too: the
    /// granted vl returns at once, and the engine is reconfigured in
    /// program order by construction.
    fn execute_scalar(&mut self, ev: &ExecEvent, class: InstrClass, at: u64) -> u64 {
        match class {
            InstrClass::ScalarAlu if matches!(ev.instr, Instruction::Mul { .. }) => {
                at + self.cfg.mul_latency
            }
            InstrClass::ScalarAlu => at + self.cfg.alu_latency,
            InstrClass::ScalarLoad => {
                let m = ev.mem.expect("scalar load carries a memory op");
                at + self.hier.scalar_read(m.addr, m.bytes, at)
            }
            InstrClass::ScalarStore => {
                let m = ev.mem.expect("scalar store carries a memory op");
                let _drain = self.hier.scalar_write(m.addr, m.bytes, at);
                // Stores commit from the store buffer off the critical path.
                at + 1
            }
            InstrClass::ControlFlow | InstrClass::System | InstrClass::VConfig => at + 1,
            _ => unreachable!("engine class routed to the scalar side"),
        }
    }

    /// Hands an engine instruction to the vector side at `at` and
    /// applies its scalar writeback (`vmv.x.s`/`vfmv.f.s`), visible
    /// `v2s_extra` cycles after the value arrives.
    fn run_vector(
        &mut self,
        ev: &ExecEvent,
        class: InstrClass,
        at: u64,
        v2s_extra: u64,
    ) -> VectorOutcome {
        let out = self.vec.run(&mut self.hier, ev, class, at);
        if let Some((rd, t)) = out.x_write {
            self.x_ready[rd.index() as usize] = t + v2s_extra;
        }
        if let Some((fd, t)) = out.f_write {
            self.f_ready[fd.index() as usize] = t + v2s_extra;
        }
        out
    }
}

/// The scalar core's issue policy, selected by [`SimConfig::timing`].
#[derive(Debug, Clone)]
enum Policy {
    /// [`TimingKind::InOrder`].
    InOrder(InOrderIssue),
    /// [`TimingKind::Pipelined`]: the in-order issue stage behind a
    /// fetch/decode front end.
    Pipelined(InOrderIssue, FrontEnd),
    /// [`TimingKind::OutOfOrder`].
    OutOfOrder(OutOfOrder),
}

/// The cycle-accounting model of the simulated machine, and the
/// [`Observer`] every timed run monomorphizes the engine loop over.
#[derive(Debug, Clone)]
pub struct TimingModel {
    core: Core,
    policy: Policy,
}

impl TimingModel {
    /// A cold model (empty caches and queues) under the issue policy
    /// `cfg.timing` selects.
    pub fn new(cfg: SimConfig) -> Self {
        let policy = match cfg.timing {
            TimingKind::InOrder => Policy::InOrder(InOrderIssue::new(&cfg)),
            TimingKind::Pipelined => {
                Policy::Pipelined(InOrderIssue::new(&cfg), FrontEnd::default())
            }
            TimingKind::OutOfOrder => Policy::OutOfOrder(OutOfOrder::new(&cfg)),
        };
        Self {
            core: Core {
                cfg,
                hier: MemoryHierarchy::new(cfg.hierarchy),
                vec: VectorSide::new(cfg),
                x_ready: [0; 32],
                f_ready: [0; 32],
                counts: ClassCounts::default(),
                rob_stall_cycles: 0,
                last_completion: 0,
            },
            policy,
        }
    }

    /// Accounts one dynamic instruction, returning its timing record.
    #[inline]
    pub fn account(&mut self, ev: &ExecEvent) -> InstrTiming {
        let class = ev.instr.class();
        let core = &mut self.core;
        core.counts.bump(class);
        let ready = core.sources_ready(ev);
        let (timing, rob_completion) = match &mut self.policy {
            Policy::InOrder(issue) => issue.account(core, None, ev, class, ready),
            Policy::Pipelined(issue, front) => issue.account(core, Some(front), ev, class, ready),
            Policy::OutOfOrder(ooo) => ooo.account(core, ev, class, ready),
        };
        core.last_completion = core
            .last_completion
            .max(rob_completion)
            .max(timing.completion);
        timing
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.core.cfg
    }

    /// The memory hierarchy (cache hit/miss counters etc.).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.core.hier
    }

    /// Memory-traffic counters collected so far.
    pub fn mem_stats(&self) -> MemStats {
        self.core.hier.stats()
    }

    /// Per-class dynamic instruction counts.
    pub fn counts(&self) -> ClassCounts {
        self.core.counts
    }

    /// Cycles the vector engine spent occupied.
    pub fn engine_busy_cycles(&self) -> u64 {
        self.core.vec.engine_busy()
    }

    /// Cycles the scalar core stalled on a full vector queue.
    pub fn vq_stall_cycles(&self) -> u64 {
        self.core.vec.vq_stall_cycles()
    }

    /// Cycles the scalar core stalled on a full ROB (in-flight window).
    pub fn rob_stall_cycles(&self) -> u64 {
        self.core.rob_stall_cycles
    }

    /// Number of vector-to-scalar synchronisations observed.
    pub fn v2s_syncs(&self) -> u64 {
        self.core.vec.v2s_syncs()
    }

    /// Total cycles: every component drained.
    pub fn total_cycles(&self) -> u64 {
        let front = match &self.policy {
            Policy::InOrder(issue) => issue.cycle(),
            Policy::Pipelined(issue, front) => front.fetch_cycle().max(issue.cycle()),
            Policy::OutOfOrder(ooo) => ooo.cycle(),
        };
        front
            .max(self.core.vec.engine_free())
            .max(self.core.last_completion)
    }
}

impl Observer for TimingModel {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        self.account(ev);
    }
}

/// Event builders for the timing unit tests: every event runs at
/// `vl = 16`, e32.
#[cfg(test)]
mod events {
    use crate::exec::{ExecEvent, MemOp};
    use indexmac_isa::instr::FReg;
    use indexmac_isa::{Instruction, Sew, VReg, XReg};

    pub fn ev(instr: Instruction) -> ExecEvent {
        ExecEvent {
            pc: 0,
            instr,
            mem: None,
            indirect_vreg: None,
            branch_taken: false,
            vl: 16,
            sew: Sew::E32,
        }
    }

    fn mem_ev(instr: Instruction, addr: u64, bytes: u64, write: bool, vector: bool) -> ExecEvent {
        ExecEvent {
            mem: Some(MemOp {
                addr,
                bytes,
                write,
                vector,
            }),
            ..ev(instr)
        }
    }

    /// `addi rd, rs1, 1`.
    pub fn alu_ev(rd: XReg, rs1: XReg) -> ExecEvent {
        ev(Instruction::Addi { rd, rs1, imm: 1 })
    }

    /// `lw rd, 0(a0)` reading `addr`.
    pub fn load_ev(rd: XReg, addr: u64) -> ExecEvent {
        let lw = Instruction::Lw {
            rd,
            rs1: XReg::A0,
            imm: 0,
        };
        mem_ev(lw, addr, 4, false, false)
    }

    /// `sw t0, 0(a0)` writing `addr`.
    pub fn store_ev(addr: u64) -> ExecEvent {
        let sw = Instruction::Sw {
            rs1: XReg::A0,
            rs2: XReg::T0,
            imm: 0,
        };
        mem_ev(sw, addr, 4, true, false)
    }

    /// A backward `bne` on `t0`.
    pub fn branch_ev(taken: bool) -> ExecEvent {
        ExecEvent {
            branch_taken: taken,
            ..ev(Instruction::Bne {
                rs1: XReg::ZERO,
                rs2: XReg::T0,
                offset: -1,
            })
        }
    }

    /// `vle32.v vd` of one full register from `addr`.
    pub fn vload_ev(vd: VReg, addr: u64) -> ExecEvent {
        mem_ev(
            Instruction::Vle32 { vd, rs1: XReg::A0 },
            addr,
            64,
            false,
            true,
        )
    }

    /// `vfmacc.vf vd, f0, vs2`.
    pub fn vmac_ev(vd: VReg, vs2: VReg) -> ExecEvent {
        ev(Instruction::VfmaccVf {
            vd,
            fs1: FReg::F0,
            vs2,
        })
    }

    /// `vmv.x.s rd, v1`.
    pub fn v2s_ev(rd: XReg) -> ExecEvent {
        ev(Instruction::VmvXs { rd, vs2: VReg::V1 })
    }

    /// `vindexmac.vx vd, vs2, t0` reading `indirect`.
    pub fn indexmac_ev(vd: VReg, vs2: VReg, indirect: VReg) -> ExecEvent {
        ExecEvent {
            indirect_vreg: Some(indirect),
            ..ev(Instruction::VindexmacVx {
                vd,
                vs2,
                rs: XReg::T0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::events::alu_ev;
    use super::*;
    use indexmac_isa::XReg;

    #[test]
    fn model_selects_policy_from_config() {
        for kind in TimingKind::ALL {
            let m = TimingModel::new(SimConfig::table_i().with_timing(kind));
            assert_eq!(m.config().timing, kind);
            let selected = match m.policy {
                Policy::InOrder(_) => TimingKind::InOrder,
                Policy::Pipelined(..) => TimingKind::Pipelined,
                Policy::OutOfOrder(_) => TimingKind::OutOfOrder,
            };
            assert_eq!(selected, kind);
        }
    }

    #[test]
    fn counts_are_policy_independent() {
        let mut models: Vec<TimingModel> = TimingKind::ALL
            .iter()
            .map(|&k| TimingModel::new(SimConfig::table_i().with_timing(k)))
            .collect();
        for i in 0..20 {
            let ev = alu_ev(XReg::new(1 + (i % 8)), XReg::ZERO);
            for m in &mut models {
                m.account(&ev);
            }
        }
        for m in &models {
            assert_eq!(m.counts().total(), 20);
            assert_eq!(m.counts().get(InstrClass::ScalarAlu), 20);
        }
    }

    #[test]
    fn class_counts_table_covers_every_class() {
        let mut c = ClassCounts::default();
        for class in InstrClass::ALL {
            c.bump(class);
        }
        assert_eq!(c.total(), InstrClass::COUNT as u64);
        for class in InstrClass::ALL {
            assert_eq!(c.get(class), 1, "{class:?} lost its count");
        }
        // vsetvli resolves scalar-side; everything else vector is engine
        // work.
        assert_eq!(c.vector_total(), 8);
    }
}
