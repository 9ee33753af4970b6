//! The Table I memory hierarchy: scalar L1D -> shared, banked L2 ->
//! DDR4, with the vector engine's load/store port attached directly to
//! the L2 (bypassing the L1, as in the paper's decoupled design).

use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::dram::{DramConfig, DramModel};
use crate::stats::MemStats;

/// Latencies and geometry of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// L1D hit latency in cycles (Table I: 2).
    pub l1_latency: u64,
    /// L2 hit latency in cycles (Table I: 8).
    pub l2_latency: u64,
    /// Number of independent L2 banks (Table I: 8).
    pub l2_banks: usize,
    /// Cycles a bank is occupied per line access.
    pub l2_bank_occupancy: u64,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// The exact configuration of Table I of the paper.
    pub fn table_i() -> Self {
        Self {
            l1d: CacheConfig::table_i_l1d(),
            l2: CacheConfig::table_i_l2(),
            l1_latency: 2,
            l2_latency: 8,
            l2_banks: 8,
            l2_bank_occupancy: 2,
            dram: DramConfig::ddr4_2400(),
        }
    }
}

/// Stateful hierarchy combining the caches, banks and DRAM channel.
///
/// Every access method takes the current cycle (`now`) and returns the
/// *latency* in cycles until the data is available (or accepted, for
/// stores). Bank and DRAM contention are tracked against absolute time,
/// so interleaved callers see realistic queuing.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1d: Cache,
    l2: Cache,
    dram: DramModel,
    /// Earliest free cycle per L2 bank.
    bank_free: Vec<u64>,
    stats: MemStats,
}

impl MemoryHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the cache geometries are invalid (see [`Cache::new`]) or
    /// `l2_banks` is zero.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.l2_banks > 0, "need at least one L2 bank");
        Self {
            cfg,
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            dram: DramModel::new(cfg.dram),
            bank_free: vec![0; cfg.l2_banks],
            stats: MemStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// Program-level traffic counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// L1D cache state (hit/miss counters etc.).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// L2 cache state.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Cycles DRAM requests spent queued on channel bandwidth.
    pub fn dram_queue_cycles(&self) -> u64 {
        self.dram.queue_cycles()
    }

    fn bank_of(&self, line_addr: u64) -> usize {
        ((line_addr >> self.cfg.l2.line_bytes.trailing_zeros()) as usize) % self.cfg.l2_banks
    }

    /// One line access at the L2 level (bank arbitration + L2 lookup +
    /// DRAM on miss). Returns the completion cycle.
    fn l2_line_access(&mut self, line_addr: u64, kind: AccessKind, now: u64) -> u64 {
        let bank = self.bank_of(line_addr);
        let start = now.max(self.bank_free[bank]);
        self.bank_free[bank] = start + self.cfg.l2_bank_occupancy;
        let res = self.l2.access(line_addr, kind);
        if res.writeback {
            // Dirty victim drains to DRAM; consumes channel bandwidth but
            // is off the critical path of this access.
            self.dram.access(start);
            self.stats.dram_writes += 1;
        }
        if res.hit {
            start + self.cfg.l2_latency
        } else {
            self.stats.dram_reads += 1;

            self.dram.access(start + self.cfg.l2_latency)
        }
    }

    /// Iterates the lines covered by `[addr, addr + size)`. Addresses
    /// wrap at the top of the address space, as in
    /// [`crate::MainMemory::read_slice`], so an access that straddles it
    /// covers the last line and then line 0.
    fn lines(&self, addr: u64, size: u64) -> impl Iterator<Item = u64> {
        let lb = self.cfg.l2.line_bytes as u64;
        let first = addr & !(lb - 1);
        let last = addr.wrapping_add(size.max(1) - 1) & !(lb - 1);
        let count = last.wrapping_sub(first) / lb + 1;
        (0..count).map(move |i| first.wrapping_add(i * lb))
    }

    /// Scalar load through L1D. Returns latency in cycles.
    pub fn scalar_read(&mut self, addr: u64, size: u64, now: u64) -> u64 {
        self.stats.scalar_loads += 1;
        self.scalar_access(addr, size, AccessKind::Read, now)
    }

    /// Scalar store through L1D (write-allocate). Returns latency.
    pub fn scalar_write(&mut self, addr: u64, size: u64, now: u64) -> u64 {
        self.stats.scalar_stores += 1;
        self.scalar_access(addr, size, AccessKind::Write, now)
    }

    fn scalar_access(&mut self, addr: u64, size: u64, kind: AccessKind, now: u64) -> u64 {
        let mut done = now;
        for line in self.lines(addr, size) {
            let res = self.l1d.access(line, kind);
            let completion = if res.hit {
                now + self.cfg.l1_latency
            } else {
                // L1 fill from L2 (plus DRAM beneath on L2 miss).
                let l2_done =
                    self.l2_line_access(line, AccessKind::Read, now + self.cfg.l1_latency);
                if res.writeback {
                    // L1 dirty victim drains into L2 off the critical path.
                    self.l2_line_access(line, AccessKind::Write, l2_done);
                }
                l2_done
            };
            done = done.max(completion);
        }
        done - now
    }

    /// Vector unit-stride load: direct to the banked L2. Returns latency.
    pub fn vector_read(&mut self, addr: u64, size: u64, now: u64) -> u64 {
        self.stats.vector_loads += 1;
        let mut done = now;
        for line in self.lines(addr, size) {
            let completion = self.l2_line_access(line, AccessKind::Read, now);
            done = done.max(completion);
        }
        done - now
    }

    /// Vector unit-stride store: direct to the banked L2. Returns latency
    /// until the store is accepted.
    pub fn vector_write(&mut self, addr: u64, size: u64, now: u64) -> u64 {
        self.stats.vector_stores += 1;
        let mut done = now;
        for line in self.lines(addr, size) {
            let completion = self.l2_line_access(line, AccessKind::Write, now);
            done = done.max(completion);
        }
        done - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::table_i())
    }

    #[test]
    fn scalar_l1_hit_after_fill() {
        let mut m = h();
        let cold = m.scalar_read(0x1000, 4, 0);
        assert!(cold > m.config().l1_latency + m.config().l2_latency); // went to DRAM
        let warm = m.scalar_read(0x1000, 4, 1000);
        assert_eq!(warm, m.config().l1_latency);
        assert_eq!(m.stats().scalar_loads, 2);
    }

    #[test]
    fn vector_bypasses_l1() {
        let mut m = h();
        // Warm the line via the vector port.
        m.vector_read(0x2000, 64, 0);
        // A later vector access hits in L2, not L1.
        let lat = m.vector_read(0x2000, 64, 1000);
        assert_eq!(lat, m.config().l2_latency);
        // And the L1 has never seen the line.
        assert!(!m.l1d().probe(0x2000));
    }

    #[test]
    fn vector_l2_hit_latency_matches_table_i() {
        let mut m = h();
        m.vector_read(0x40, 64, 0);
        assert_eq!(m.vector_read(0x40, 64, 500), 8);
    }

    #[test]
    fn bank_contention_serialises_same_bank() {
        let mut m = h();
        // Same line twice at the same instant: second waits for the bank.
        m.vector_read(0x3000, 64, 0);
        m.vector_read(0x3000, 64, 2_000);
        let a = m.vector_read(0x3000, 64, 10_000);
        let b = m.vector_read(0x3000, 64, 10_000);
        assert_eq!(a, 8);
        assert!(b > a, "second same-bank access must queue (got {b} vs {a})");
    }

    #[test]
    fn different_banks_overlap() {
        let mut m = h();
        // Lines 0 and 1 map to different banks; warm both.
        m.vector_read(0x0, 64, 0);
        m.vector_read(0x40, 64, 1_000);
        let a = m.vector_read(0x0, 64, 10_000);
        let b = m.vector_read(0x40, 64, 10_000);
        assert_eq!(a, 8);
        assert_eq!(b, 8, "different banks must not serialise");
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut m = h();
        let lat = m.scalar_read(0x103C, 8, 0); // crosses 0x1040 boundary
        assert!(lat > 0);
        // Both lines now resident in L1.
        assert!(m.l1d().probe(0x1000));
        assert!(m.l1d().probe(0x1040));
    }

    #[test]
    fn access_straddling_the_top_of_the_address_space_wraps_to_line_zero() {
        let mut m = h();
        assert!(m.scalar_read(u64::MAX - 3, 8, 0) > 0);
        assert!(m.l1d().probe(u64::MAX));
        assert!(m.l1d().probe(0));
        assert_eq!(m.l1d().stats().accesses(), 2);
        m.vector_read(u64::MAX - 31, 64, 100);
        assert_eq!(
            m.l2().stats().accesses(),
            4,
            "two L1 fills + two vector lines"
        );
    }

    #[test]
    fn access_ending_at_the_top_of_the_address_space_covers_one_line() {
        let mut m = h();
        m.scalar_write(u64::MAX - 7, 8, 0);
        assert_eq!(m.l1d().stats().accesses(), 1);
        assert!(m.l1d().probe(u64::MAX - 63));
        assert!(!m.l1d().probe(0));
        m.vector_write(u64::MAX - 63, 64, 100);
        assert_eq!(
            m.l2().stats().accesses(),
            2,
            "one L1 fill + one vector line"
        );
    }

    #[test]
    fn store_counts_and_dram_writeback_path() {
        let mut m = h();
        // Dirty a line in L2 via vector store, then evict it by filling
        // the set; the writeback must be counted.
        m.vector_write(0x0, 64, 0);
        let sets = m.config().l2.sets() as u64;
        let stride = 64 * sets;
        for w in 1..=8 {
            m.vector_read(w * stride, 64, w * 10_000);
        }
        assert_eq!(m.stats().vector_stores, 1);
        assert!(m.stats().dram_writes >= 1, "dirty eviction must write back");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = h();
        m.scalar_read(0, 4, 0);
        m.scalar_write(8, 4, 10);
        m.vector_read(64, 64, 20);
        m.vector_write(128, 64, 30);
        let s = m.stats();
        assert_eq!(s.total_accesses(), 4);
        assert_eq!(s.vector_accesses(), 2);
    }
}
