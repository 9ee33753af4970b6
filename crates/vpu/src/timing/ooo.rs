//! The out-of-order scalar core: in-order dispatch, out-of-order
//! execution, in-order retirement.
//!
//! Built from the standard microarchitectural structures, in the
//! textbook organisation:
//!
//! * a **register alias table** — the model's shared scalar ready
//!   table, tracking the ready time of each architectural register's
//!   *youngest* definition: renaming eliminates WAW/WAR hazards by
//!   construction (a new definition simply replaces the alias), leaving
//!   only true RAW dependences visible to the scheduler;
//! * **reservation stations** ([`ReservationStations`]) where scalar
//!   instructions wait for operands without blocking younger dispatch;
//! * a **reorder buffer** ([`Rob`]) enforcing in-order retirement
//!   (retire times are the running prefix-max of completions) and
//!   stalling dispatch when full;
//! * a scalar **load/store queue** ([`LoadStoreQueue`]) with
//!   conservative memory disambiguation — a load waits for the youngest
//!   older store whose byte range overlaps; stores commit in order.
//!
//! The decoupled vector engine is the one every policy shares:
//! vector instructions hand over *in program order* once their scalar
//! operands are ready, and the engine executes in order behind the
//! decoupling queue. Scalar instructions, however, are free to execute
//! around outstanding vector latency — which is what the follow-up
//! paper predicts should widen `vvi`'s lead over `vx`: `vx` pays a
//! [`V2S_COMMIT_EXTRA`]-inflated cross-domain round-trip per non-zero
//! that no amount of scalar reordering hides, while `vvi` has no scalar
//! coupling to reorder around.

use super::{vecdeque_window, Core, InstrTiming, IssueClock};
use crate::config::SimConfig;
use crate::exec::ExecEvent;
use indexmac_isa::InstrClass;
use std::collections::VecDeque;

/// Extra cycles a vector→scalar transfer (`vmv.x.s`) takes to become
/// visible to the out-of-order scheduler: cross-domain results are not
/// wired into the scalar bypass network and commit through the ROB.
pub const V2S_COMMIT_EXTRA: u64 = 2;

/// Reorder buffer: per-entry *retire* times in program order (the
/// prefix-max of completion times, since retirement is in order).
/// Dispatch blocks when full until the oldest entry retires.
#[derive(Debug, Clone)]
struct Rob {
    retire_times: VecDeque<u64>,
    cap: usize,
    last_retire: u64,
}

impl Rob {
    fn new(cap: usize) -> Self {
        Self {
            retire_times: VecDeque::with_capacity(cap),
            cap,
            last_retire: 0,
        }
    }

    /// Frees one slot for a dispatch at `at`, returning the (possibly
    /// later) cycle the slot is actually available.
    fn admit(&mut self, at: u64) -> u64 {
        vecdeque_window(&mut self.retire_times, self.cap, at).map_or(at, |r| at.max(r))
    }

    fn push(&mut self, completion: u64) {
        let retire = completion.max(self.last_retire);
        self.last_retire = retire;
        self.retire_times.push_back(retire);
    }
}

/// Reservation stations: a scalar instruction occupies an entry from
/// dispatch until it begins execution; a full pool stalls dispatch.
#[derive(Debug, Clone)]
struct ReservationStations {
    /// Per-entry cycle the occupying instruction starts executing.
    busy_until: Vec<u64>,
}

impl ReservationStations {
    fn new(cap: usize) -> Self {
        Self {
            busy_until: vec![0; cap.max(1)],
        }
    }

    /// Claims an entry for a dispatch at `at`: a free entry keeps the
    /// dispatch cycle; a full pool delays it to the earliest issue.
    fn acquire(&mut self, at: u64) -> (usize, u64) {
        if let Some(i) = self.busy_until.iter().position(|&b| b <= at) {
            return (i, at);
        }
        let (i, &soonest) = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|&(_, b)| b)
            .expect("reservation stations non-empty");
        (i, soonest)
    }

    fn occupy(&mut self, slot: usize, until: u64) {
        self.busy_until[slot] = until;
    }
}

/// One in-flight scalar memory operation.
#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    addr: u64,
    bytes: u64,
    complete: u64,
    is_store: bool,
}

/// Scalar load/store queue with conservative disambiguation.
#[derive(Debug, Clone)]
struct LoadStoreQueue {
    entries: VecDeque<LsqEntry>,
    cap: usize,
    /// Commit cycle of the youngest store (stores commit in order).
    last_store_commit: u64,
}

impl LoadStoreQueue {
    fn new(cap: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(cap),
            cap,
            last_store_commit: 0,
        }
    }

    /// Frees one slot for a dispatch at `at`, returning the (possibly
    /// later) cycle the slot is actually available.
    fn admit(&mut self, at: u64) -> u64 {
        while self.entries.front().is_some_and(|e| e.complete <= at) {
            self.entries.pop_front();
        }
        if self.entries.len() >= self.cap {
            let e = self.entries.pop_front().expect("lsq non-empty");
            at.max(e.complete)
        } else {
            at
        }
    }

    /// Completion cycle of the youngest older store whose byte range
    /// overlaps `[addr, addr + bytes)` — the cycle a load must wait for
    /// (no speculative disambiguation).
    fn older_store_conflict(&self, addr: u64, bytes: u64) -> u64 {
        self.entries
            .iter()
            .rev()
            .find(|e| e.is_store && e.addr < addr + bytes && addr < e.addr + e.bytes)
            .map_or(0, |e| e.complete)
    }

    fn push(&mut self, entry: LsqEntry) {
        self.entries.push_back(entry);
    }
}

/// The out-of-order issue policy.
#[derive(Debug, Clone)]
pub(super) struct OutOfOrder {
    /// In-order front end (fetch/rename/dispatch).
    clock: IssueClock,
    rob: Rob,
    rs: ReservationStations,
    lsq: LoadStoreQueue,
    /// Cycle the previous vector instruction was handed over.
    last_vq_hand: u64,
}

impl OutOfOrder {
    pub(super) fn new(cfg: &SimConfig) -> Self {
        Self {
            clock: IssueClock::default(),
            rob: Rob::new(cfg.rob_entries),
            rs: ReservationStations::new(cfg.rs_entries),
            lsq: LoadStoreQueue::new(cfg.lsq_entries),
            last_vq_hand: 0,
        }
    }

    pub(super) fn cycle(&self) -> u64 {
        self.clock.cycle
    }

    /// Holds dispatch until `at` when a structure is full until then.
    fn dispatch_no_earlier(&mut self, dispatch: u64, at: u64) -> u64 {
        if at > dispatch {
            self.clock.advance(at);
            at
        } else {
            dispatch
        }
    }

    /// Dispatches one instruction whose scalar sources are ready at
    /// `ready`. Returns the timing record and the cycle the instruction
    /// completes for the ROB.
    pub(super) fn account(
        &mut self,
        core: &mut Core,
        ev: &ExecEvent,
        class: InstrClass,
        ready: u64,
    ) -> (InstrTiming, u64) {
        let engine_vector = class.is_vector() && class != InstrClass::VConfig;

        // ---- in-order dispatch: width, then a ROB slot ----
        self.clock.open_slot(&core.cfg, engine_vector);
        let mut dispatch = self.clock.cycle;
        let slot_at = self.rob.admit(dispatch);
        if slot_at > dispatch {
            // Charge the stall and advance the dispatch clock on the
            // same path (the invariant the in-order policies pin).
            core.rob_stall_cycles += slot_at - dispatch;
            dispatch = self.dispatch_no_earlier(dispatch, slot_at);
        }

        // ---- execute out of order (scalar) / hand over (vector) ----
        let (start, rob_completion, result_at) = if engine_vector {
            // Vector instructions enter the decoupling queue in program
            // order, carrying their scalar operand values — the
            // hand-over waits for RAW readiness but does NOT block
            // younger scalar dispatch.
            let hand = dispatch.max(ready).max(self.last_vq_hand);
            let out = core.run_vector(ev, class, hand, V2S_COMMIT_EXTRA);
            self.last_vq_hand = out.dispatch;
            if out.dispatch > self.clock.cycle {
                // A full decoupling queue does block the front end.
                self.clock.advance(out.dispatch);
                dispatch = out.dispatch;
            }
            (out.start, out.rob_completion, out.result_at)
        } else {
            // Everything but a store waits for its operands in a
            // reservation station (vsetvli executes as an ALU op);
            // loads and stores also hold a load/store-queue entry.
            let rs_slot = if class == InstrClass::ScalarStore {
                None
            } else {
                let (slot, at) = self.rs.acquire(dispatch);
                dispatch = self.dispatch_no_earlier(dispatch, at);
                Some(slot)
            };
            let is_store = class == InstrClass::ScalarStore;
            let mem = if is_store || class == InstrClass::ScalarLoad {
                let at = self.lsq.admit(dispatch);
                dispatch = self.dispatch_no_earlier(dispatch, at);
                Some(ev.mem.expect("scalar load/store carries a memory op"))
            } else {
                None
            };
            let start = match mem {
                // Stores commit in order, once address and data are
                // ready.
                Some(_) if is_store => dispatch.max(ready).max(self.lsq.last_store_commit),
                Some(m) => dispatch
                    .max(ready)
                    .max(self.lsq.older_store_conflict(m.addr, m.bytes)),
                None => dispatch.max(ready),
            };
            if let Some(slot) = rs_slot {
                self.rs.occupy(slot, start);
            }
            let completion = core.execute_scalar(ev, class, start);
            if let Some(m) = mem {
                if is_store {
                    self.lsq.last_store_commit = completion;
                }
                self.lsq.push(LsqEntry {
                    addr: m.addr,
                    bytes: m.bytes,
                    complete: completion,
                    is_store,
                });
            }
            if class == InstrClass::ControlFlow {
                // Branches rename nothing (a `jal` link keeps its
                // previous definition). A taken one restarts the front
                // end after it resolves plus the refill penalty.
                if ev.branch_taken {
                    self.clock
                        .advance(completion + core.cfg.branch_taken_penalty);
                }
            } else {
                core.define(ev, completion);
            }
            (start, completion, completion)
        };

        self.clock.take_slot(engine_vector);
        self.rob.push(rob_completion);
        let timing = InstrTiming {
            issue_at: dispatch,
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

    fn ooo(cfg: SimConfig) -> TimingModel {
        TimingModel::new(cfg.with_timing(TimingKind::OutOfOrder))
    }

    #[test]
    fn independent_work_hides_a_slow_load() {
        // A cold load plus a dependent consumer, followed by a stream of
        // independent ALU work: the OoO core runs the independent work
        // under the load's shadow, the in-order core single-files it
        // behind the dependent consumer.
        let mut ooo = ooo(cfg());
        let mut flat = TimingModel::new(cfg());
        for t in [&mut ooo, &mut flat] {
            t.account(&load_ev(XReg::T0, 0x9000));
            t.account(&alu_ev(XReg::T1, XReg::T0)); // dependent
            for i in 0..64 {
                t.account(&alu_ev(XReg::new(10 + (i % 8)), XReg::ZERO));
            }
        }
        assert!(
            ooo.total_cycles() <= flat.total_cycles(),
            "ooo {} must not trail in-order {}",
            ooo.total_cycles(),
            flat.total_cycles()
        );
        assert_eq!(ooo.counts(), flat.counts(), "instret is backend-invariant");
    }

    #[test]
    fn dependent_consumer_still_waits() {
        let mut t = ooo(cfg());
        t.account(&load_ev(XReg::T0, 0x9000));
        let load_done = t.total_cycles();
        assert!(load_done > 10, "cold load reaches DRAM");
        let timing = t.account(&alu_ev(XReg::T1, XReg::T0));
        assert!(timing.start >= load_done - 1, "RAW dependence enforced");
        // But the *dispatch* of the consumer happened immediately.
        assert!(timing.issue_at <= 1);
    }

    #[test]
    fn rob_full_charges_stall_equal_to_dispatch_jump() {
        let mut c = cfg();
        c.rob_entries = 2;
        let mut t = ooo(c);
        t.account(&load_ev(XReg::T0, 0x9000)); // slow oldest entry
        let load_done = t.total_cycles();
        t.account(&alu_ev(XReg::T1, XReg::ZERO));
        assert_eq!(t.rob_stall_cycles(), 0);
        // Window full; the oldest (slow load) gates the third dispatch.
        let timing = t.account(&alu_ev(XReg::T2, XReg::ZERO));
        assert_eq!(
            t.rob_stall_cycles(),
            timing.issue_at,
            "stall cycles equal the dispatch-clock jump from 0"
        );
        assert!(timing.issue_at >= load_done, "dispatch jumped to retire");
    }

    #[test]
    fn loads_wait_for_overlapping_older_stores_only() {
        let mut t = ooo(cfg());
        // The store's data (t0) comes from a cold load, so it commits
        // late; a younger overlapping load must wait for that commit
        // while a disjoint one sails past.
        t.account(&load_ev(XReg::T0, 0xBEE_F000));
        let st = t.account(&store_ev(0x100));
        assert!(st.completion > 10, "store data arrives from DRAM");
        let conflicting = t.account(&load_ev(XReg::T4, 0x100));
        let disjoint = t.account(&load_ev(XReg::T5, 0x200));
        assert!(
            conflicting.start >= st.completion,
            "overlapping load must wait for the store's commit"
        );
        assert!(
            disjoint.start < conflicting.start,
            "disjoint load must not be ordered behind the store"
        );
    }

    #[test]
    fn reservation_stations_bound_waiting_instructions() {
        let mut c = cfg();
        c.rs_entries = 2;
        c.issue_width = 8;
        let mut t = ooo(c);
        // One slow producer, then many dependents camped on it: with 2
        // RS entries the third dependent cannot dispatch until a
        // station frees (when the producer's value arrives).
        t.account(&load_ev(XReg::T0, 0xA000));
        let load_done = t.total_cycles();
        let mut last = InstrTiming {
            issue_at: 0,
            start: 0,
            completion: 0,
        };
        for _ in 0..4 {
            last = t.account(&alu_ev(XReg::T1, XReg::T0));
        }
        assert!(
            last.issue_at >= load_done - 1,
            "RS exhaustion must throttle dispatch ({} < {load_done})",
            last.issue_at
        );
    }

    #[test]
    fn taken_branch_redirects_dispatch() {
        let mut t = ooo(cfg());
        t.account(&branch_ev(true));
        let next = t.account(&alu_ev(XReg::T1, XReg::ZERO));
        assert!(
            next.issue_at > cfg().branch_taken_penalty,
            "post-redirect dispatch must pay the penalty"
        );
    }

    #[test]
    fn v2s_transfer_pays_commit_extra() {
        let mut ooo = ooo(cfg());
        let mut flat = TimingModel::new(cfg());
        let consumer = alu_ev(XReg::T1, XReg::T0);
        ooo.account(&v2s_ev(XReg::T0));
        flat.account(&v2s_ev(XReg::T0));
        let o = ooo.account(&consumer);
        let f = flat.account(&consumer);
        assert_eq!(ooo.v2s_syncs(), 1);
        assert_eq!(
            o.start,
            f.start + V2S_COMMIT_EXTRA,
            "cross-domain value reaches the OoO scheduler through commit"
        );
    }

    #[test]
    fn vector_hand_over_stays_in_program_order() {
        let mut t = ooo(cfg());
        let a = t.account(&vmac_ev(VReg::V1, VReg::V2));
        let b = t.account(&vmac_ev(VReg::V3, VReg::V4));
        assert!(b.start >= a.start, "engine executes in order");
        assert_eq!(t.counts().vector_total(), 2);
    }
}
