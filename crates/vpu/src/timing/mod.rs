//! Cycle-approximate timing models of the decoupled vector processor.
//!
//! Timing is pluggable behind the [`TimingModel`] trait: every backend
//! consumes the dynamic instruction stream one [`ExecEvent`] at a time
//! (O(1) state per instruction, no global event queue) and accumulates
//! the counters [`crate::RunReport`] is built from. Three backends
//! ship, selected by [`crate::config::TimingKind`] in
//! [`SimConfig::timing`]:
//!
//! * [`InOrderScoreboard`] — the original model: in-order issue at
//!   `issue_width` per cycle, a reorder-buffer window that gates issue
//!   when full, a register scoreboard, taken-branch redirect penalty;
//! * [`Pipelined`] — an explicit fetch/decode/issue/execute/writeback
//!   pipeline with per-stage hazard stalls ([`PipeStalls`]);
//! * [`OutOfOrder`] — a scalar core that dispatches in order but
//!   executes out of order through a ROB, reservation stations, a
//!   register alias table and a scalar load/store queue.
//!
//! All three share one [`vector::VectorSide`] — the decoupled vector
//! engine with its bounded instruction queue, per-`VReg` ready times,
//! lane occupancy `ceil(vl/lanes)` and load/store queues directly into
//! L2 — so dynamic instruction counts and memory traffic are identical
//! across backends by construction; only scalar-side cycle accounting
//! differs. The cross-domain `vmv.x.s`/`vfmv.f.s` synchronisation cost
//! (the coupling the paper's `vx` kernel pays per non-zero) is therefore
//! charged consistently everywhere.

mod inorder;
mod ooo;
mod pipelined;
mod vector;

pub use inorder::InOrderScoreboard;
pub use ooo::OutOfOrder;
pub use pipelined::{PipeStalls, Pipelined};

use crate::config::{SimConfig, TimingKind};
use crate::engine::Observer;
use crate::exec::ExecEvent;
use indexmac_isa::InstrClass;
use indexmac_mem::{MemStats, MemoryHierarchy};
use std::collections::VecDeque;

/// Bounded-completion-queue admission, shared by the decoupling queue
/// and the vector/scalar load-store queues: drains entries that
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

/// Per-instruction timing record returned by [`TimingModel::observe`],
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

/// A pluggable cycle-accounting backend.
///
/// Implementations consume the dynamic instruction stream event by
/// event and expose the accumulated counters. Invariants every backend
/// upholds (pinned by `tests/prop_backends.rs`):
///
/// * each record satisfies `completion >= start >= issue_at`;
/// * [`TimingModel::total_cycles`] is monotone non-decreasing across
///   observations;
/// * [`TimingModel::engine_busy_cycles`] never exceeds total cycles;
/// * [`TimingModel::counts`] depends only on the event stream, never on
///   the backend — instruction counts are bit-identical across backends.
pub trait TimingModel {
    /// Accounts one dynamic instruction, returning its timing record.
    fn observe(&mut self, ev: &ExecEvent) -> InstrTiming;

    /// The configuration in use.
    fn config(&self) -> &SimConfig;

    /// The memory hierarchy (cache hit/miss counters etc.).
    fn hierarchy(&self) -> &MemoryHierarchy;

    /// Memory-traffic counters collected so far.
    fn mem_stats(&self) -> MemStats {
        self.hierarchy().stats()
    }

    /// Per-class dynamic instruction counts.
    fn counts(&self) -> ClassCounts;

    /// Cycles the vector engine spent occupied.
    fn engine_busy_cycles(&self) -> u64;

    /// Cycles the scalar core stalled on a full vector queue.
    fn vq_stall_cycles(&self) -> u64;

    /// Cycles the scalar core stalled on a full ROB (in-flight window).
    fn rob_stall_cycles(&self) -> u64;

    /// Number of vector-to-scalar synchronisations observed.
    fn v2s_syncs(&self) -> u64;

    /// Total cycles: every component drained.
    fn total_cycles(&self) -> u64;
}

/// The backend-dispatching [`TimingModel`]: holds whichever concrete
/// backend [`SimConfig::timing`] selects. Enum dispatch (rather than a
/// trait object) keeps the observer `Clone` and lets the engine loop
/// monomorphize over a sized type.
#[derive(Debug, Clone)]
pub enum AnyTimingModel {
    /// [`TimingKind::InOrder`].
    InOrder(InOrderScoreboard),
    /// [`TimingKind::Pipelined`].
    Pipelined(Pipelined),
    /// [`TimingKind::OutOfOrder`].
    OutOfOrder(OutOfOrder),
}

impl AnyTimingModel {
    /// Builds the backend `cfg.timing` selects (cold caches, empty
    /// queues).
    pub fn new(cfg: SimConfig) -> Self {
        match cfg.timing {
            TimingKind::InOrder => AnyTimingModel::InOrder(InOrderScoreboard::new(cfg)),
            TimingKind::Pipelined => AnyTimingModel::Pipelined(Pipelined::new(cfg)),
            TimingKind::OutOfOrder => AnyTimingModel::OutOfOrder(OutOfOrder::new(cfg)),
        }
    }

    /// Which backend is active.
    pub fn kind(&self) -> TimingKind {
        match self {
            AnyTimingModel::InOrder(_) => TimingKind::InOrder,
            AnyTimingModel::Pipelined(_) => TimingKind::Pipelined,
            AnyTimingModel::OutOfOrder(_) => TimingKind::OutOfOrder,
        }
    }
}

macro_rules! for_backend {
    ($self:expr, $m:ident $(, $arg:expr)*) => {
        match $self {
            AnyTimingModel::InOrder(t) => t.$m($($arg),*),
            AnyTimingModel::Pipelined(t) => t.$m($($arg),*),
            AnyTimingModel::OutOfOrder(t) => t.$m($($arg),*),
        }
    };
}

impl TimingModel for AnyTimingModel {
    fn observe(&mut self, ev: &ExecEvent) -> InstrTiming {
        for_backend!(self, observe, ev)
    }

    fn config(&self) -> &SimConfig {
        for_backend!(self, config)
    }

    fn hierarchy(&self) -> &MemoryHierarchy {
        for_backend!(self, hierarchy)
    }

    fn counts(&self) -> ClassCounts {
        for_backend!(self, counts)
    }

    fn engine_busy_cycles(&self) -> u64 {
        for_backend!(self, engine_busy_cycles)
    }

    fn vq_stall_cycles(&self) -> u64 {
        for_backend!(self, vq_stall_cycles)
    }

    fn rob_stall_cycles(&self) -> u64 {
        for_backend!(self, rob_stall_cycles)
    }

    fn v2s_syncs(&self) -> u64 {
        for_backend!(self, v2s_syncs)
    }

    fn total_cycles(&self) -> u64 {
        for_backend!(self, total_cycles)
    }
}

/// The timing-path [`Observer`]: feeds every event to the backend
/// [`SimConfig::timing`] selects and hands the drained model back for
/// report collection. This is what `Simulator::run` monomorphizes the
/// engine loop over.
#[derive(Debug, Clone)]
pub struct TimingObserver {
    model: AnyTimingModel,
}

impl TimingObserver {
    /// A fresh observer over a cold backend for `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            model: AnyTimingModel::new(cfg),
        }
    }

    /// The accumulated timing model.
    pub fn model(&self) -> &AnyTimingModel {
        &self.model
    }
}

impl Observer for TimingObserver {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        self.model.observe(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac_isa::{Instruction, XReg};

    fn alu_ev(rd: XReg, rs1: XReg) -> ExecEvent {
        ExecEvent {
            pc: 0,
            instr: Instruction::Addi { rd, rs1, imm: 1 },
            mem: None,
            indirect_vreg: None,
            branch_taken: false,
            vl: 16,
            sew: indexmac_isa::Sew::E32,
        }
    }

    #[test]
    fn any_model_selects_backend_from_config() {
        for kind in TimingKind::ALL {
            let cfg = SimConfig::table_i().with_timing(kind);
            let m = AnyTimingModel::new(cfg);
            assert_eq!(m.kind(), kind);
            assert_eq!(m.config().timing, kind);
        }
    }

    #[test]
    fn counts_are_backend_independent() {
        let mut models: Vec<AnyTimingModel> = TimingKind::ALL
            .iter()
            .map(|&k| AnyTimingModel::new(SimConfig::table_i().with_timing(k)))
            .collect();
        for i in 0..20 {
            let ev = alu_ev(XReg::new(1 + (i % 8)), XReg::ZERO);
            for m in &mut models {
                m.observe(&ev);
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
