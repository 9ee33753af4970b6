//! The in-order issue policies: the flat scoreboard every pinned paper
//! number is measured under, and the same issue stage behind an
//! explicit fetch/decode front end.
//!
//! Under [`TimingKind::Pipelined`](crate::config::TimingKind) results
//! only appear `FRONT_DEPTH` cycles after fetch, taken branches refill
//! the whole front end (resolve-in-execute plus the redirect penalty
//! plus the fetch/decode stages), and every scalar instruction spends
//! one cycle in writeback. A stalled issue stage does not back-pressure
//! fetch: a skid-buffer bound would only delay the fetch of
//! instructions that issue later anyway, so it would move no cycle.

use super::{Core, InstrTiming, IssueClock};
use crate::config::SimConfig;
use crate::exec::ExecEvent;
use indexmac_isa::InstrClass;
use std::collections::VecDeque;

/// Pipeline stages ahead of issue (fetch + decode).
const FRONT_DEPTH: u64 = 2;
/// Writeback-stage occupancy per scalar instruction.
const WB_STAGE: u64 = 1;

/// In-order issue at `issue_width` per cycle behind a reorder-buffer
/// window that gates issue when full (in-order retire). Vector
/// instructions hand over to the shared vector engine.
#[derive(Debug, Clone)]
pub(super) struct InOrderIssue {
    clock: IssueClock,
    rob: VecDeque<u64>,
}

/// The pipelined policy's fetch/decode stages.
#[derive(Debug, Clone, Default)]
pub(super) struct FrontEnd {
    fetch_cycle: u64,
    fetched_in_cycle: u32,
}

impl FrontEnd {
    pub(super) fn fetch_cycle(&self) -> u64 {
        self.fetch_cycle
    }

    fn refetch_at(&mut self, cycle: u64) {
        self.fetch_cycle = cycle;
        self.fetched_in_cycle = 0;
    }
}

impl InOrderIssue {
    pub(super) fn new(cfg: &SimConfig) -> Self {
        Self {
            clock: IssueClock::default(),
            rob: VecDeque::with_capacity(cfg.rob_entries),
        }
    }

    pub(super) fn cycle(&self) -> u64 {
        self.clock.cycle
    }

    /// Issues one instruction whose scalar sources are ready at
    /// `ready`, behind `front` when the policy is pipelined. Returns the
    /// timing record and the cycle the instruction leaves the ROB.
    #[inline]
    pub(super) fn account(
        &mut self,
        core: &mut Core,
        mut front: Option<&mut FrontEnd>,
        ev: &ExecEvent,
        class: InstrClass,
        ready: u64,
    ) -> (InstrTiming, u64) {
        // ---- fetch & decode (pipelined; in order, issue_width wide) ----
        let mut ready = ready;
        if let Some(f) = front.as_deref_mut() {
            if f.fetched_in_cycle >= core.cfg.issue_width {
                f.refetch_at(f.fetch_cycle + 1);
            }
            f.fetched_in_cycle += 1;
            // Earliest possible issue: the instruction leaves decode.
            ready = ready.max(f.fetch_cycle + FRONT_DEPTH);
        }

        // ---- ROB window (in-order retire) ----
        let mut issue_at = ready.max(self.clock.cycle);
        while self.rob.len() >= core.cfg.rob_entries {
            let oldest = self.rob.pop_front().expect("rob non-empty");
            if oldest > issue_at {
                // Charge the stall AND advance the issue clock on the
                // same path: the two must always move together, or a
                // later issue-slot check could observe a clock that
                // lags the cycles already charged as stalled.
                core.rob_stall_cycles += oldest - issue_at;
                issue_at = oldest;
                self.clock.advance(oldest);
            }
        }

        // ---- issue-slot accounting ----
        if issue_at > self.clock.cycle {
            self.clock.advance(issue_at);
        }
        self.clock.open_slot(&core.cfg, class.is_vector());
        self.clock.take_slot(class.is_vector());
        let issue_at = self.clock.cycle;

        // ---- execute by class ----
        // `rob_completion` is when the instruction retires from the
        // scalar core's ROB (vector instructions retire early in the
        // decoupled design); `result_at` is when the *result* is
        // architecturally available, which is what the trace reports.
        let (start, rob_completion, result_at) =
            if class.is_vector() && class != InstrClass::VConfig {
                let out = core.run_vector(ev, class, issue_at, 0);
                if out.dispatch > self.clock.cycle {
                    // The scalar core was blocked handing the
                    // instruction over a full decoupling queue.
                    self.clock.advance(out.dispatch);
                }
                (out.start, out.rob_completion, out.result_at)
            } else {
                let exec_done = core.execute_scalar(ev, class, issue_at);
                if class == InstrClass::ControlFlow && ev.branch_taken {
                    let penalty = core.cfg.branch_taken_penalty;
                    match front.as_deref_mut() {
                        // The branch resolves in execute; the redirect
                        // then refills fetch *and* decode.
                        Some(f) => f.refetch_at(issue_at + 1 + penalty),
                        // Later instructions fetch after the penalty.
                        None => self.clock.advance(issue_at + penalty),
                    }
                }
                // Results bypass to consumers as execute produces them;
                // the pipelined policy completes one writeback later.
                core.define(ev, exec_done);
                let done = exec_done + if front.is_some() { WB_STAGE } else { 0 };
                (issue_at, done, done)
            };

        self.rob.push_back(rob_completion);
        let timing = InstrTiming {
            issue_at,
            start,
            completion: result_at,
        };
        (timing, rob_completion)
    }
}

#[cfg(test)]
mod tests {
    use super::super::events::*;
    use super::super::TimingModel;
    use super::*;
    use crate::config::TimingKind;
    use indexmac_isa::{VReg, XReg};

    fn cfg() -> SimConfig {
        SimConfig::table_i()
    }

    fn inorder() -> TimingModel {
        TimingModel::new(cfg())
    }

    fn pipelined() -> TimingModel {
        TimingModel::new(cfg().with_timing(TimingKind::Pipelined))
    }

    #[test]
    fn independent_alu_ops_pack_into_issue_width() {
        let mut t = inorder();
        // 8 independent ops with distinct dest regs fit in one cycle.
        for i in 1..=8 {
            t.account(&alu_ev(XReg::new(i), XReg::ZERO));
        }
        assert_eq!(t.total_cycles(), 1); // all issued at cycle 0, done at 1
                                         // A 9th op spills to the next cycle.
        t.account(&alu_ev(XReg::new(9), XReg::ZERO));
        assert_eq!(t.total_cycles(), 2);
    }

    #[test]
    fn dependent_chain_serialises() {
        let mut t = inorder();
        for _ in 0..10 {
            t.account(&alu_ev(XReg::T0, XReg::T0));
        }
        // Each op waits for the previous one's 1-cycle latency.
        assert!(t.total_cycles() >= 10);
    }

    #[test]
    fn scalar_load_latency_propagates_to_consumer() {
        let mut t = inorder();
        t.account(&load_ev(XReg::T0, 0x1000));
        let cold = t.total_cycles();
        assert!(cold > 10, "cold load must reach DRAM (got {cold})");
        // A dependent consumer issues only after the load returns.
        t.account(&alu_ev(XReg::T1, XReg::T0));
        assert_eq!(t.total_cycles(), cold + 1);
    }

    #[test]
    fn taken_branch_pays_redirect() {
        let mut t = inorder();
        t.account(&branch_ev(true));
        t.account(&alu_ev(XReg::T1, XReg::ZERO));
        // Next instruction issues only after the redirect penalty.
        assert!(t.total_cycles() > cfg().branch_taken_penalty);
    }

    #[test]
    fn vector_load_data_gates_dependent_mac() {
        let mut t = inorder();
        t.account(&vload_ev(VReg::V1, 0x0));
        t.account(&vmac_ev(VReg::V2, VReg::V1));
        let with_dep = t.total_cycles();

        let mut t2 = inorder();
        t2.account(&vload_ev(VReg::V1, 0x0));
        t2.account(&vmac_ev(VReg::V2, VReg::V3)); // independent
        let without_dep = t2.total_cycles();
        assert!(
            with_dep >= without_dep,
            "dependent MAC cannot finish before independent one ({with_dep} vs {without_dep})"
        );
    }

    #[test]
    fn indexmac_waits_for_indirect_source() {
        let mut t = inorder();
        // Load into v20, then vindexmac reading v20 indirectly.
        t.account(&vload_ev(VReg::new(20), 0x0));
        let loaded_at = t.total_cycles();
        t.account(&indexmac_ev(VReg::V1, VReg::V2, VReg::new(20)));
        assert!(
            t.total_cycles() >= loaded_at,
            "vindexmac must wait for the loaded tile"
        );
        assert_eq!(t.counts().get(InstrClass::VIndexMac), 1);
    }

    #[test]
    fn v2s_move_couples_clocks() {
        let mut t = inorder();
        t.account(&v2s_ev(XReg::T0));
        let sync = t.total_cycles();
        assert!(sync >= cfg().v2s_latency);
        // A scalar consumer of t0 waits for the transfer.
        t.account(&alu_ev(XReg::T1, XReg::T0));
        assert!(t.total_cycles() > sync);
        assert_eq!(t.v2s_syncs(), 1);
    }

    #[test]
    fn load_queue_caps_outstanding_loads() {
        let mut t = inorder();
        // Far more loads than queue entries, all to distinct cold lines.
        for i in 0..64 {
            t.account(&vload_ev(VReg::new((i % 8) as u8), (i as u64) * 4096));
        }
        // With 16 entries and ~90-cycle DRAM, 64 cold loads cannot all
        // overlap: total must exceed a single miss by a lot.
        assert!(t.total_cycles() > 200, "got {}", t.total_cycles());
    }

    #[test]
    fn engine_in_order_even_when_independent() {
        let mut t = inorder();
        t.account(&vmac_ev(VReg::V1, VReg::V2));
        let one = t.engine_busy_cycles();
        t.account(&vmac_ev(VReg::V3, VReg::V4));
        assert_eq!(t.engine_busy_cycles(), one * 2);
    }

    #[test]
    fn eliminating_the_load_is_faster() {
        // Micro-version of the paper's claim: (load+mac) vs indexmac.
        let mut with_load = inorder();
        let mut without = inorder();
        // Warm the line so the comparison is an L2-hit comparison.
        with_load.account(&vload_ev(VReg::V8, 0x100000));
        without.account(&vload_ev(VReg::V8, 0x100000));
        let w0 = with_load.total_cycles();
        let n0 = without.total_cycles();
        assert_eq!(w0, n0);
        for i in 0..32 {
            with_load.account(&vload_ev(VReg::V5, 0x100000));
            with_load.account(&vmac_ev(VReg::new((i % 4) as u8), VReg::V5));
            without.account(&indexmac_ev(VReg::new((i % 4) as u8), VReg::V6, VReg::V8));
        }
        assert!(
            with_load.total_cycles() > without.total_cycles(),
            "load+mac {} should exceed indexmac {}",
            with_load.total_cycles(),
            without.total_cycles()
        );
        assert!(with_load.mem_stats().vector_loads > without.mem_stats().vector_loads);
    }

    #[test]
    fn class_counts_accumulate() {
        let mut t = inorder();
        t.account(&alu_ev(XReg::T0, XReg::ZERO));
        t.account(&vload_ev(VReg::V1, 0));
        t.account(&vmac_ev(VReg::V2, VReg::V1));
        let c = t.counts();
        assert_eq!(c.total(), 3);
        assert_eq!(c.vector_total(), 2);
        assert_eq!(c.get(InstrClass::ScalarAlu), 1);
        assert_eq!(c.get(InstrClass::VLoad), 1);
        assert_eq!(c.get(InstrClass::VMac), 1);
    }

    /// Regression for the scattered `vdispatched_in_cycle` resets and
    /// the ROB-stall/issue-clock split: with a 2-entry window, a slow
    /// cold scalar load followed by vector work forces a ROB-full stall;
    /// the stall cycles charged must equal the issue-clock jump, and a
    /// vector dispatch landing in the *new* cycle must see a fresh
    /// dispatch budget (not be throttled by a stale per-cycle counter
    /// from before the stall).
    #[test]
    fn rob_stall_advances_clock_and_reopens_vector_dispatch_budget() {
        let mut c = cfg();
        c.rob_entries = 2;
        let mut t = TimingModel::new(c);

        // 1) Cold scalar load: retires only when DRAM answers.
        t.account(&load_ev(XReg::T0, 0x4000));
        let load_done = t.total_cycles();
        assert!(load_done > 10, "cold load reaches DRAM (got {load_done})");
        assert_eq!(t.rob_stall_cycles(), 0);

        // 2) One vector op fills the window (and consumes the cycle's
        // single vector-dispatch slot at cycle 0).
        t.account(&vmac_ev(VReg::V1, VReg::V2));
        assert_eq!(t.rob_stall_cycles(), 0);

        // 3) The next vector op finds the window full; the oldest entry
        // (the load) retires at `load_done`, so issue jumps there.
        let timing = t.account(&vmac_ev(VReg::V4, VReg::V5));
        assert_eq!(
            t.rob_stall_cycles(),
            load_done,
            "stall cycles must equal the issue-clock jump from 0"
        );
        // The jump landed in a fresh cycle: the vector op dispatches at
        // exactly the retire cycle, not one later — a stale
        // `vdispatched_in_cycle` from cycle 0 would have throttled it.
        assert_eq!(
            timing.issue_at, load_done,
            "vector dispatch in the new cycle must not be throttled"
        );
    }

    #[test]
    fn pipeline_depth_delays_first_result() {
        let timing = pipelined().account(&alu_ev(XReg::T0, XReg::ZERO));
        // Fetch at 0, decode, issue at FRONT_DEPTH, execute 1 cycle,
        // writeback 1 cycle.
        assert_eq!(timing.issue_at, FRONT_DEPTH);
        assert_eq!(timing.completion, FRONT_DEPTH + 1 + WB_STAGE);
        // The scoreboard finishes the same instruction sooner.
        assert!(inorder().account(&alu_ev(XReg::T0, XReg::ZERO)).completion < timing.completion);
    }

    #[test]
    fn taken_branch_refills_the_front_end() {
        let penalty = cfg().branch_taken_penalty;
        let mut pipe = pipelined();
        let mut flat = inorder();
        let mut next = Vec::new();
        for t in [&mut pipe, &mut flat] {
            let br = t.account(&branch_ev(true));
            next.push((br, t.account(&alu_ev(XReg::T1, XReg::ZERO))));
        }
        // The deeper machine pays resolve + penalty + refetch where the
        // scoreboard pays only the flat penalty.
        let (br, after) = next[0];
        assert_eq!(after.issue_at, br.issue_at + 1 + penalty + FRONT_DEPTH);
        let (br, after) = next[1];
        assert_eq!(after.issue_at, br.issue_at + penalty);
        assert!(
            pipe.total_cycles() > flat.total_cycles(),
            "pipelined {} vs scoreboard {}",
            pipe.total_cycles(),
            flat.total_cycles()
        );
        // Untaken branches cost nothing extra in fetch: the next
        // instruction issues in the branch's cycle.
        let mut quiet = pipelined();
        let br = quiet.account(&branch_ev(false));
        assert_eq!(
            quiet.account(&alu_ev(XReg::T1, XReg::ZERO)).issue_at,
            br.issue_at
        );
    }

    #[test]
    fn raw_hazard_counts_as_issue_stall() {
        let mut t = pipelined();
        // A long dependent chain through one register: all eight leave
        // decode at FRONT_DEPTH, and each waits in issue for the
        // previous result, bypassed as execute produces it.
        for i in 0..8 {
            let timing = t.account(&alu_ev(XReg::T0, XReg::T0));
            assert_eq!(timing.issue_at, FRONT_DEPTH + i, "op {i}");
            assert_eq!(timing.completion, timing.issue_at + 1 + WB_STAGE, "op {i}");
        }
    }

    #[test]
    fn fetch_runs_ahead_of_a_stalled_issue_stage() {
        // A cold load and its consumer stall issue until the load
        // returns; fetch meanwhile runs ahead, so the independent work
        // behind the consumer issues at full width from the cycle the
        // stall clears.
        let width = u64::from(cfg().issue_width);
        let mut t = pipelined();
        t.account(&load_ev(XReg::T0, 0x8000));
        let stall_clears = t.account(&alu_ev(XReg::T1, XReg::T0)).issue_at;
        assert!(stall_clears > 10, "the consumer waits for DRAM");
        for k in 1..=16 {
            let timing = t.account(&alu_ev(XReg::new(10 + (k % 8) as u8), XReg::ZERO));
            assert_eq!(timing.issue_at, stall_clears + k / width, "op {k}");
        }
    }

    #[test]
    fn vector_stream_matches_scoreboard_engine_accounting() {
        // The engine model is shared: busy cycles and class counts
        // agree with the scoreboard on a vector-only stream.
        let mut pipe = pipelined();
        let mut flat = inorder();
        let vmac = vmac_ev(VReg::V1, VReg::V2);
        for _ in 0..10 {
            pipe.account(&vmac);
            flat.account(&vmac);
        }
        assert_eq!(pipe.engine_busy_cycles(), flat.engine_busy_cycles());
        assert_eq!(pipe.counts(), flat.counts());
    }
}
