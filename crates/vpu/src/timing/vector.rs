//! The decoupled vector engine shared by every issue policy.
//!
//! Instruction counts, memory traffic, queue behaviour and the
//! vector-to-scalar coupling cost are computed by exactly this code
//! under every [`crate::config::TimingKind`], so switching policies can
//! only move scalar-side cycle accounting.

use super::vecdeque_window;
use crate::config::SimConfig;
use crate::exec::ExecEvent;
use indexmac_isa::instr::FReg;
use indexmac_isa::{InstrClass, Instruction, VReg, XReg};
use indexmac_mem::MemoryHierarchy;
use std::collections::VecDeque;

/// Outcome of dispatching one instruction into the vector side.
#[derive(Debug, Clone, Copy)]
pub(super) struct VectorOutcome {
    /// Cycle the engine began executing the instruction.
    pub start: u64,
    /// Cycle the instruction retires from the scalar core's in-flight
    /// window (decoupled designs retire vector work early, right after
    /// the hand-over — except cross-domain moves, which hold the window
    /// until the scalar result arrives).
    pub rob_completion: u64,
    /// Cycle the *result* became architecturally available (what the
    /// pipeline trace reports).
    pub result_at: u64,
    /// The dispatch cycle after any vq-full stall; when it exceeds the
    /// cycle the scalar core handed the instruction over, the core was
    /// blocked and must advance its own clock to match.
    pub dispatch: u64,
    /// Scalar integer writeback (`vmv.x.s`), applied by the model.
    pub x_write: Option<(XReg, u64)>,
    /// Scalar floating-point writeback (`vfmv.f.s`).
    pub f_write: Option<(FReg, u64)>,
}

/// The decoupled vector engine: a bounded decoupling queue fed by the
/// scalar core, in-order execution with per-`VReg` ready times, lane
/// occupancy `ceil(vl/lanes)`, and non-blocking loads/stores through
/// bounded load/store queues attached directly to L2.
#[derive(Debug, Clone)]
pub(super) struct VectorSide {
    cfg: SimConfig,
    engine_free: u64,
    v_ready: [u64; 32],
    vq_starts: VecDeque<u64>,
    lq: VecDeque<u64>,
    sq: VecDeque<u64>,
    engine_busy: u64,
    vq_stall_cycles: u64,
    v2s_syncs: u64,
}

impl VectorSide {
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            cfg,
            engine_free: 0,
            v_ready: [0; 32],
            vq_starts: VecDeque::with_capacity(cfg.vq_depth),
            lq: VecDeque::with_capacity(cfg.vlq_entries),
            sq: VecDeque::with_capacity(cfg.vsq_entries),
            engine_busy: 0,
            vq_stall_cycles: 0,
            v2s_syncs: 0,
        }
    }

    pub fn engine_free(&self) -> u64 {
        self.engine_free
    }

    pub fn engine_busy(&self) -> u64 {
        self.engine_busy
    }

    pub fn vq_stall_cycles(&self) -> u64 {
        self.vq_stall_cycles
    }

    pub fn v2s_syncs(&self) -> u64 {
        self.v2s_syncs
    }

    /// Latest ready time across a register group of `regs` registers.
    fn ready_of(&self, r: VReg, regs: usize) -> u64 {
        let base = r.index() as usize;
        (base..(base + regs).min(32))
            .map(|i| self.v_ready[i])
            .max()
            .unwrap_or(0)
    }

    /// Marks a register group of `regs` registers ready at `at`.
    fn mark_ready(&mut self, r: VReg, regs: usize, at: u64) {
        let base = r.index() as usize;
        for i in base..(base + regs).min(32) {
            self.v_ready[i] = at;
        }
    }

    /// Runs one engine instruction handed over at `dispatch` (must not
    /// be `VConfig` — `vsetvli` resolves scalar-side).
    pub fn run(
        &mut self,
        hier: &mut MemoryHierarchy,
        ev: &ExecEvent,
        class: InstrClass,
        dispatch: u64,
    ) -> VectorOutcome {
        // ---- dispatch into the bounded decoupling queue ----
        let dispatch = match vecdeque_window(&mut self.vq_starts, self.cfg.vq_depth, dispatch) {
            Some(s) => {
                self.vq_stall_cycles += s.saturating_sub(dispatch);
                dispatch.max(s)
            }
            None => dispatch,
        };

        // ---- in-order engine start: operands + structural ----
        // Under register grouping (vl > one register's lanes) operands
        // span `emul` consecutive registers — computed at the event's
        // element width, so e8 instructions group 4× later than e32.
        let emul = ev.vl.div_ceil(self.cfg.vlmax_for(ev.sew)).max(1);
        // The widening integer MACs write an e32 accumulator group that
        // spans `32/SEW` times the source EMUL (the same factor the
        // functional executor applies).
        let widen = if class == InstrClass::VIndexMac {
            crate::exec::widen_factor(ev.sew)
        } else {
            1
        };
        let dst_regs = emul * widen;
        let dst = ev.instr.v_dst();
        // vindexmac.vvi reads its metadata operands element-wise: they
        // stay single registers even when the accumulator (vd) and the
        // indirect source span a group.
        let src_regs = if matches!(ev.instr, Instruction::VindexmacVvi { .. }) {
            1
        } else {
            emul
        };
        let mut start = self.engine_free.max(dispatch);
        for src in ev.instr.v_srcs().into_iter().flatten() {
            let regs = if Some(src) == dst { dst_regs } else { src_regs };
            start = start.max(self.ready_of(src, regs));
        }
        if let Some(ind) = ev.indirect_vreg {
            // The indirect VRF read of vindexmac (group-wide).
            start = start.max(self.ready_of(ind, emul));
        }

        let occ = self.cfg.occupancy_sew(ev.vl, ev.sew);
        let mut x_write = None;
        let mut f_write = None;
        let (rob_completion, result_at) = match class {
            InstrClass::VLoad => {
                // Load-queue entry (16 outstanding, Table I).
                if let Some(c) = vecdeque_window(&mut self.lq, self.cfg.vlq_entries, start) {
                    start = start.max(c);
                }
                let m = ev.mem.expect("vector load carries a memory op");
                let lat = hier.vector_read(m.addr, m.bytes, start);
                let data_at = start + lat;
                self.lq.push_back(data_at);
                if let Some(vd) = dst {
                    self.mark_ready(vd, dst_regs, data_at);
                }
                self.engine_free = start + occ;
                self.engine_busy += occ;
                // Decoupled: retires from the scalar ROB at dispatch.
                (dispatch + 1, data_at)
            }
            InstrClass::VStore => {
                if let Some(c) = vecdeque_window(&mut self.sq, self.cfg.vsq_entries, start) {
                    start = start.max(c);
                }
                let m = ev.mem.expect("vector store carries a memory op");
                let lat = hier.vector_write(m.addr, m.bytes, start);
                self.sq.push_back(start + lat);
                self.engine_free = start + occ;
                self.engine_busy += occ;
                (dispatch + 1, start + lat)
            }
            InstrClass::VMvToScalar => {
                self.engine_free = start + 1;
                self.engine_busy += 1;
                self.v2s_syncs += 1;
                let scalar_at = start + 1 + self.cfg.v2s_latency;
                if let Some(rd) = ev.instr.x_dst() {
                    x_write = Some((rd, scalar_at));
                }
                if let Some(fd) = ev.instr.f_dst() {
                    f_write = Some((fd, scalar_at));
                }
                (scalar_at, scalar_at)
            }
            InstrClass::VArith
            | InstrClass::VSlide
            | InstrClass::VMvFromScalar
            | InstrClass::VMac
            | InstrClass::VIndexMac => {
                let lat = match class {
                    InstrClass::VMac | InstrClass::VIndexMac => self.cfg.vmac_latency,
                    InstrClass::VSlide => self.cfg.vslide_latency,
                    _ => self.cfg.varith_latency,
                };
                self.engine_free = start + occ;
                self.engine_busy += occ;
                if let Some(vd) = dst {
                    self.mark_ready(vd, dst_regs, start + lat.max(occ));
                }
                (dispatch + 1, start + lat.max(occ))
            }
            _ => unreachable!("non-engine class routed to the vector side"),
        };
        self.vq_starts.push_back(start);
        VectorOutcome {
            start,
            rob_completion,
            result_at,
            dispatch,
            x_write,
            f_write,
        }
    }
}
