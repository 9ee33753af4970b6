//! Property tests of the simulator: timing-model invariants and
//! functional/timed equivalence over randomly generated straight-line
//! programs.

mod common;

use common::{instr_strategy, program_from};
use indexmac_isa::{VReg, XReg};
use indexmac_vpu::{DecodedProgram, NullObserver, SimConfig, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random valid programs execute without faulting, and cycles are
    /// bounded below by the issue-width limit.
    #[test]
    fn random_programs_run_and_respect_issue_width(
        instrs in prop::collection::vec(instr_strategy(), 1..200),
    ) {
        let p = program_from(&instrs);
        let mut sim = Simulator::new(SimConfig::table_i());
        let report = sim.run(&p).expect("generated programs are valid");
        prop_assert_eq!(report.instructions, instrs.len() as u64 + 1);
        let floor = report.instructions.div_ceil(SimConfig::table_i().issue_width as u64);
        prop_assert!(
            report.cycles >= floor,
            "{} cycles below issue floor {}",
            report.cycles,
            floor
        );
    }

    /// Appending instructions never makes a program finish earlier.
    #[test]
    fn timing_is_monotone_in_program_length(
        instrs in prop::collection::vec(instr_strategy(), 2..120),
        cut in 1usize..2,
    ) {
        let shorter = program_from(&instrs[..instrs.len() - cut.min(instrs.len() - 1)]);
        let longer = program_from(&instrs);
        let mut s1 = Simulator::new(SimConfig::table_i());
        let mut s2 = Simulator::new(SimConfig::table_i());
        let r1 = s1.run(&shorter).unwrap();
        let r2 = s2.run(&longer).unwrap();
        prop_assert!(r2.cycles >= r1.cycles, "longer {} < shorter {}", r2.cycles, r1.cycles);
    }

    /// Timed and functional execution agree on all architectural state.
    #[test]
    fn timed_and_functional_states_agree(
        instrs in prop::collection::vec(instr_strategy(), 1..150),
    ) {
        let p = program_from(&instrs);
        let mut timed = Simulator::new(SimConfig::table_i());
        let mut func = Simulator::new(SimConfig::table_i());
        timed.run(&p).unwrap();
        func.run_decoded_with(&DecodedProgram::decode(&p), &mut NullObserver)
            .unwrap();
        for i in 0..32 {
            let r = XReg::new(i);
            prop_assert_eq!(timed.state().x(r), func.state().x(r), "x{} differs", i);
            let v = VReg::new(i);
            prop_assert_eq!(timed.state().v_bytes(v), func.state().v_bytes(v), "v{} differs", i);
        }
        prop_assert_eq!(timed.state().vl(), func.state().vl());
    }

    /// A slower memory system never speeds a program up.
    #[test]
    fn slower_dram_never_helps(
        instrs in prop::collection::vec(instr_strategy(), 1..100),
    ) {
        let p = program_from(&instrs);
        let fast_cfg = SimConfig::table_i();
        let mut slow_cfg = SimConfig::table_i();
        slow_cfg.hierarchy.dram.latency *= 4;
        slow_cfg.hierarchy.l2_latency *= 2;
        let mut fast = Simulator::new(fast_cfg);
        let mut slow = Simulator::new(slow_cfg);
        let rf = fast.run(&p).unwrap();
        let rs = slow.run(&p).unwrap();
        prop_assert!(rs.cycles >= rf.cycles, "slow {} < fast {}", rs.cycles, rf.cycles);
    }
}
