//! Cross-backend timing invariants: for random valid programs, every
//! issue policy of the [`indexmac_vpu::TimingModel`] (in-order
//! scoreboard, pipelined, out-of-order) must uphold the model's
//! documented invariants event-by-event, and the policies must agree on
//! everything that is *not* timing — instret, per-class counts, memory
//! traffic:
//!
//! * per event: `completion >= start >= issue_at`;
//! * `total_cycles()` is monotone non-decreasing across events;
//! * `engine_busy_cycles() <= total_cycles()`;
//! * instret and [`indexmac_vpu::ClassCounts`] are backend-invariant;
//! * `counts().total()` equals the number of events observed.

mod common;

use common::{instr_strategy, program_from};
use indexmac_vpu::{
    DecodedProgram, ExecEvent, Observer, SimConfig, Simulator, TimingKind, TimingModel,
};
use proptest::prelude::*;

/// An [`Observer`] that checks the per-event invariants as the stream
/// flows through, then exposes the finished model.
struct InvariantObserver {
    model: TimingModel,
    events: u64,
    last_total: u64,
}

impl InvariantObserver {
    fn new(cfg: SimConfig) -> Self {
        Self {
            model: TimingModel::new(cfg),
            events: 0,
            last_total: 0,
        }
    }
}

impl Observer for InvariantObserver {
    fn observe(&mut self, ev: &ExecEvent) {
        let kind = self.model.config().timing;
        let t = self.model.account(ev);
        assert!(
            t.start >= t.issue_at,
            "{kind}: event {}: start {} < issue_at {}",
            self.events,
            t.start,
            t.issue_at
        );
        assert!(
            t.completion >= t.start,
            "{kind}: event {}: completion {} < start {}",
            self.events,
            t.completion,
            t.start
        );
        let total = self.model.total_cycles();
        assert!(
            total >= self.last_total,
            "{kind}: event {}: total_cycles went backwards ({} -> {})",
            self.events,
            self.last_total,
            total
        );
        self.last_total = total;
        self.events += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every backend satisfies the per-event and whole-run
    /// invariants on random programs, and the backend-invariant
    /// quantities agree bit-for-bit across all three.
    #[test]
    fn backends_satisfy_timing_invariants(
        instrs in prop::collection::vec(instr_strategy(), 1..160),
    ) {
        let program = DecodedProgram::decode(&program_from(&instrs));
        let mut runs = Vec::new();
        for kind in TimingKind::ALL {
            let cfg = SimConfig::table_i().with_timing(kind);
            let mut sim = Simulator::new(cfg);
            let mut obs = InvariantObserver::new(cfg);
            let instret = sim
                .run_decoded_with(&program, &mut obs)
                .expect("generated programs are valid");
            let counts = obs.model.counts();
            prop_assert_eq!(
                counts.total(),
                obs.events,
                "{}: counts.total() != events observed",
                kind
            );
            prop_assert_eq!(counts.total(), instret, "{}: counts.total() != instret", kind);
            prop_assert!(
                obs.model.engine_busy_cycles() <= obs.model.total_cycles(),
                "{}: engine busy {} > total {}",
                kind,
                obs.model.engine_busy_cycles(),
                obs.model.total_cycles()
            );
            runs.push((kind, instret, obs));
        }
        let (_, base_instret, base) = &runs[0];
        for (kind, instret, obs) in &runs {
            prop_assert_eq!(instret, base_instret, "{}: instret differs", kind);
            prop_assert_eq!(
                obs.model.counts(),
                base.model.counts(),
                "{}: class counts differ",
                kind
            );
            prop_assert_eq!(
                obs.model.mem_stats(),
                base.model.mem_stats(),
                "{}: memory traffic differs",
                kind
            );
        }
    }
}
