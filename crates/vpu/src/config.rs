//! Simulated-processor configuration (paper Table I plus the
//! micro-architectural latencies the table leaves implicit).

use indexmac_mem::HierarchyConfig;

/// Which scalar-core timing backend the simulator accounts cycles with.
///
/// Each selects one issue policy of the single [`crate::TimingModel`];
/// only the scalar core differs — the decoupled vector engine, the
/// memory hierarchy and the register ready tables are shared, so
/// dynamic instruction counts are identical across backends and only
/// cycle counts move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimingKind {
    /// The in-order issue scoreboard (the original model; all pinned
    /// paper numbers are measured under this backend).
    #[default]
    InOrder,
    /// The in-order issue stage behind an explicit fetch/decode front
    /// end and a writeback stage.
    Pipelined,
    /// Out-of-order scalar core: ROB, reservation stations, register
    /// alias table and a scalar load/store queue.
    OutOfOrder,
}

impl TimingKind {
    /// Every backend, for exhaustive sweeps and cross-backend tests.
    pub const ALL: [TimingKind; 3] = [
        TimingKind::InOrder,
        TimingKind::Pipelined,
        TimingKind::OutOfOrder,
    ];

    /// The CLI / JSON name: `inorder`, `pipelined` or `ooo`.
    pub fn name(self) -> &'static str {
        match self {
            TimingKind::InOrder => "inorder",
            TimingKind::Pipelined => "pipelined",
            TimingKind::OutOfOrder => "ooo",
        }
    }
}

impl std::fmt::Display for TimingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TimingKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "inorder" | "in-order" | "scoreboard" => Ok(TimingKind::InOrder),
            "pipelined" | "pipeline" => Ok(TimingKind::Pipelined),
            "ooo" | "out-of-order" | "outoforder" => Ok(TimingKind::OutOfOrder),
            other => Err(format!(
                "unknown timing backend '{other}' (expected inorder|pipelined|ooo)"
            )),
        }
    }
}

/// Full configuration of the simulated decoupled vector processor.
///
/// [`SimConfig::table_i`] reproduces the paper's Table I; individual
/// fields can be overridden for ablations (e.g. the VLEN sweep bench).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    // ---- vector engine (Table I: "512-bit vector engine with 16-lane
    // configuration (32-bit elements x 16 execution lanes)") ----
    /// Hardware vector register length in bits.
    pub vlen_bits: usize,
    /// Number of execution lanes (32-bit each).
    pub lanes: usize,
    /// Depth of the scalar->vector instruction queue (decoupling depth).
    pub vq_depth: usize,
    /// Vector load-queue entries into L2 (Table I: 16).
    pub vlq_entries: usize,
    /// Vector store-queue entries into L2 (Table I: 16).
    pub vsq_entries: usize,
    /// Vector instructions the scalar core can hand over per cycle.
    pub vdispatch_per_cycle: u32,

    // ---- scalar core (Table I: 8-way OoO, 60-entry ROB) ----
    /// Timing backend the simulator accounts scalar cycles with.
    pub timing: TimingKind,
    /// Scalar issue width.
    pub issue_width: u32,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Reservation-station entries ([`TimingKind::OutOfOrder`] only).
    pub rs_entries: usize,
    /// Scalar load/store-queue entries ([`TimingKind::OutOfOrder`] only).
    pub lsq_entries: usize,
    /// Redirect penalty of a taken branch, cycles.
    pub branch_taken_penalty: u64,

    // ---- operation latencies (cycles) ----
    /// Simple integer ALU latency.
    pub alu_latency: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Vector arithmetic (non-MAC) latency.
    pub varith_latency: u64,
    /// Vector MAC latency (`vfmacc`, `vmacc`, `vindexmac`).
    pub vmac_latency: u64,
    /// Vector slide/permute latency.
    pub vslide_latency: u64,
    /// Vector-to-scalar transfer latency (`vmv.x.s` result to the scalar
    /// core — the cross-domain synchronisation both kernels pay).
    pub v2s_latency: u64,

    // ---- memory system ----
    /// Cache/DRAM hierarchy parameters.
    pub hierarchy: HierarchyConfig,
}

impl SimConfig {
    /// The configuration of the paper's Table I.
    pub fn table_i() -> Self {
        Self {
            vlen_bits: 512,
            lanes: 16,
            vq_depth: 16,
            vlq_entries: 16,
            vsq_entries: 16,
            vdispatch_per_cycle: 1,
            timing: TimingKind::InOrder,
            issue_width: 8,
            rob_entries: 60,
            rs_entries: 32,
            lsq_entries: 24,
            branch_taken_penalty: 2,
            alu_latency: 1,
            mul_latency: 3,
            varith_latency: 2,
            vmac_latency: 4,
            vslide_latency: 2,
            v2s_latency: 3,
            hierarchy: HierarchyConfig::table_i(),
        }
    }

    /// Maximum `vl` for 32-bit elements (`VLEN / 32`); 16 for Table I.
    pub fn vlmax_e32(&self) -> usize {
        self.vlen_bits / 32
    }

    /// Maximum `vl` per single register at element width `sew`
    /// (`VLEN / SEW`): 64 at e8 for Table I.
    pub fn vlmax_for(&self, sew: indexmac_isa::Sew) -> usize {
        self.vlen_bits / sew.bits()
    }

    /// Cycles the engine occupies issuing one `vl`-element operation
    /// across the lanes (`ceil(vl / lanes)`, minimum 1) at 32-bit
    /// elements.
    pub fn occupancy(&self, vl: usize) -> u64 {
        self.occupancy_sew(vl, indexmac_isa::Sew::E32)
    }

    /// SEW-aware engine occupancy: each 32-bit lane processes
    /// `32 / SEW` narrow elements per cycle (the datapath is bit-sliced),
    /// so elements-per-cycle scales with the selected element width —
    /// 64 e8 elements per cycle on the 16-lane Table I engine.
    pub fn occupancy_sew(&self, vl: usize, sew: indexmac_isa::Sew) -> u64 {
        let elems_per_cycle = self.lanes * (32 / sew.bits()).max(1);
        (vl.max(1)).div_ceil(elems_per_cycle) as u64
    }

    /// Copy with a different timing backend (used by the cross-backend
    /// comparison paths; warm simulators rebuild automatically because
    /// `SimConfig` comparisons see the field change).
    pub fn with_timing(mut self, timing: TimingKind) -> Self {
        self.timing = timing;
        self
    }

    /// Copy with a different VLEN (used by the VLEN-sweep ablation).
    pub fn with_vlen(mut self, vlen_bits: usize) -> Self {
        assert!(
            vlen_bits.is_multiple_of(32) && vlen_bits >= 32,
            "VLEN must be a multiple of 32"
        );
        self.vlen_bits = vlen_bits;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::table_i()
    }
}

impl std::fmt::Display for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Simulated processor configuration (paper Table I)")?;
        writeln!(
            f,
            "  Scalar core   : RV64GC, {}-way-issue out-of-order, {}-entry ROB",
            self.issue_width, self.rob_entries
        )?;
        writeln!(f, "  Timing model  : {}", self.timing)?;
        writeln!(
            f,
            "  L1D cache     : {}-cycle hit, {}-way, {}KB",
            self.hierarchy.l1_latency,
            self.hierarchy.l1d.ways,
            self.hierarchy.l1d.size_bytes / 1024
        )?;
        writeln!(
            f,
            "  Vector engine : {}-bit, {} lanes (32-bit elements), vl_max={}",
            self.vlen_bits,
            self.lanes,
            self.vlmax_e32()
        )?;
        writeln!(
            f,
            "  Vector memory : {} load queues + {} store queues directly into L2",
            self.vlq_entries, self.vsq_entries
        )?;
        writeln!(
            f,
            "  L2 cache      : {}-way, {}-bank, {}-cycle hit, {}KB shared",
            self.hierarchy.l2.ways,
            self.hierarchy.l2_banks,
            self.hierarchy.l2_latency,
            self.hierarchy.l2.size_bytes / 1024
        )?;
        write!(
            f,
            "  Main memory   : DDR4-2400 ({}-cycle latency, {} cycles/line)",
            self.hierarchy.dram.latency, self.hierarchy.dram.cycles_per_line
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_matches_paper() {
        let c = SimConfig::table_i();
        assert_eq!(c.vlen_bits, 512);
        assert_eq!(c.lanes, 16);
        assert_eq!(c.vlmax_e32(), 16);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.rob_entries, 60);
        assert_eq!(c.vlq_entries, 16);
        assert_eq!(c.vsq_entries, 16);
        assert_eq!(c.hierarchy.l1_latency, 2);
        assert_eq!(c.hierarchy.l2_latency, 8);
        assert_eq!(c.hierarchy.l2_banks, 8);
        assert_eq!(c.hierarchy.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.hierarchy.l2.size_bytes, 512 * 1024);
    }

    #[test]
    fn occupancy_rule() {
        let c = SimConfig::table_i();
        assert_eq!(c.occupancy(16), 1);
        assert_eq!(c.occupancy(1), 1);
        assert_eq!(c.occupancy(0), 1);
        assert_eq!(c.occupancy(17), 2);
        let wide = c.with_vlen(1024);
        assert_eq!(wide.vlmax_e32(), 32);
        assert_eq!(wide.occupancy(32), 2);
    }

    #[test]
    fn occupancy_scales_with_element_width() {
        use indexmac_isa::Sew;
        let c = SimConfig::table_i();
        assert_eq!(c.vlmax_for(Sew::E8), 64);
        assert_eq!(c.vlmax_for(Sew::E16), 32);
        assert_eq!(c.vlmax_for(Sew::E32), 16);
        // A full register's worth of elements is one cycle at any SEW.
        assert_eq!(c.occupancy_sew(64, Sew::E8), 1);
        assert_eq!(c.occupancy_sew(32, Sew::E16), 1);
        assert_eq!(c.occupancy_sew(16, Sew::E32), 1);
        // Beyond one register the occupancy grows per group register.
        assert_eq!(c.occupancy_sew(65, Sew::E8), 2);
        assert_eq!(c.occupancy_sew(128, Sew::E16), 4);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn with_vlen_validates() {
        let _ = SimConfig::table_i().with_vlen(100);
    }

    #[test]
    fn display_mentions_key_parameters() {
        let s = SimConfig::table_i().to_string();
        assert!(s.contains("8-way-issue"));
        assert!(s.contains("512-bit"));
        assert!(s.contains("DDR4-2400"));
        assert!(s.contains("inorder"));
    }

    #[test]
    fn timing_kind_round_trips_through_names() {
        for k in TimingKind::ALL {
            assert_eq!(k.name().parse::<TimingKind>().unwrap(), k);
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!("in-order".parse::<TimingKind>(), Ok(TimingKind::InOrder));
        assert_eq!(
            "out-of-order".parse::<TimingKind>(),
            Ok(TimingKind::OutOfOrder)
        );
        assert!("speculative".parse::<TimingKind>().is_err());
    }

    #[test]
    fn with_timing_changes_equality() {
        // The warm-simulator path rebuilds on config inequality; backend
        // selection must participate.
        let base = SimConfig::table_i();
        assert_eq!(
            base.timing,
            TimingKind::InOrder,
            "paper numbers stay pinned"
        );
        let ooo = base.with_timing(TimingKind::OutOfOrder);
        assert_ne!(base, ooo);
    }
}
