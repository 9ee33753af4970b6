//! Set-associative cache model with LRU replacement.
//!
//! The model tracks tags, validity and dirtiness — not data. Simulated
//! data always lives in [`crate::MainMemory`]; caches only decide *how
//! long* an access takes and what traffic it generates, which is all the
//! timing model needs (caches are architecturally transparent).

use std::fmt;

/// Static parameters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets (`size / (ways * line)`).
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Paper Table I L1D: 64 KiB, 4-way, 64 B lines.
    pub fn table_i_l1d() -> Self {
        Self {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Paper Table I L2: 512 KiB, 8-way, 64 B lines.
    pub fn table_i_l2() -> Self {
        Self {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }
}

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (write-allocate: misses fetch the line first).
    Write,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a dirty victim had to be written back.
    pub writeback: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

/// Running counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Victim lines evicted (valid line replaced).
    pub evictions: u64,
    /// Dirty victim lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A write-back, write-allocate, LRU set-associative cache.
///
/// # Example
///
/// ```
/// use indexmac_mem::{Cache, CacheConfig, AccessKind};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64 });
/// assert!(!c.access(0x0, AccessKind::Read).hit);  // cold miss
/// assert!(c.access(0x4, AccessKind::Read).hit);   // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * ways, set-major
    /// `log2(line_bytes)`: address -> line number.
    line_shift: u32,
    /// `sets - 1`: line number -> set index.
    set_mask: u64,
    /// `log2(line_bytes * sets)`: address -> tag.
    tag_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics unless sets, ways and line size are non-zero and the line
    /// size and set count are powers of two (required for bit-sliced
    /// indexing, as in real hardware).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways > 0, "associativity must be non-zero");
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert_eq!(
            sets * cfg.ways * cfg.line_bytes,
            cfg.size_bytes,
            "size must factor exactly into sets*ways*line"
        );
        let line_shift = cfg.line_bytes.trailing_zeros();
        Self {
            cfg,
            lines: vec![Line::default(); sets * cfg.ways],
            line_shift,
            set_mask: sets as u64 - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The line-aligned base address containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Checks residency without updating any state.
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        self.lines[set * self.cfg.ways..(set + 1) * self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Performs an access, updating LRU/dirty state and statistics.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        self.clock += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let ways = self.cfg.ways;
        let base = set * ways;

        // Hit path.
        for i in base..base + ways {
            if self.lines[i].valid && self.lines[i].tag == tag {
                self.lines[i].stamp = self.clock;
                if kind == AccessKind::Write {
                    self.lines[i].dirty = true;
                }
                self.stats.hits += 1;
                return AccessResult {
                    hit: true,
                    writeback: false,
                };
            }
        }

        // Miss: pick invalid way, else LRU victim.
        self.stats.misses += 1;
        let victim = (base..base + ways)
            .min_by_key(|&i| {
                if self.lines[i].valid {
                    self.lines[i].stamp
                } else {
                    0
                }
            })
            .expect("ways > 0");
        let mut writeback = false;
        if self.lines[victim].valid {
            self.stats.evictions += 1;
            if self.lines[victim].dirty {
                self.stats.writebacks += 1;
                writeback = true;
            }
        }
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            stamp: self.clock,
        };
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Invalidates every line and clears dirtiness (statistics retained).
    pub fn invalidate_all(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats;
        write!(
            f,
            "{}KiB {}-way {}B-line cache: {} hits / {} misses ({:.1}% hit rate)",
            self.cfg.size_bytes / 1024,
            self.cfg.ways,
            self.cfg.line_bytes,
            s.hits,
            s.misses,
            s.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0, AccessKind::Read).hit);
        assert!(c.access(0x3F, AccessKind::Read).hit); // same 64B line
        assert!(!c.access(0x40, AccessKind::Read).hit); // next line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets*line = 256B).
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        c.access(0x000, AccessKind::Read); // refresh line 0
        c.access(0x200, AccessKind::Read); // evicts 0x100 (LRU)
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn writeback_only_for_dirty_victims() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Write); // dirty
        c.access(0x100, AccessKind::Read); // clean
        let r = c.access(0x200, AccessKind::Read); // evicts dirty 0x000
        assert!(r.writeback);
        let r = c.access(0x300, AccessKind::Read); // evicts clean 0x100
        assert!(!r.writeback);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Read); // clean fill
        c.access(0x000, AccessKind::Write); // dirty on hit
        c.access(0x100, AccessKind::Read);
        let r = c.access(0x200, AccessKind::Read); // evict 0x000
        assert!(r.writeback);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Read);
        let before = c.stats();
        assert!(c.probe(0x000));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn invalidate_clears_lines() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Write);
        assert_eq!(c.valid_lines(), 1);
        c.invalidate_all();
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.probe(0x000));
    }

    #[test]
    fn table_i_geometries() {
        let l1 = Cache::new(CacheConfig::table_i_l1d());
        assert_eq!(l1.config().sets(), 256);
        let l2 = Cache::new(CacheConfig::table_i_l2());
        assert_eq!(l2.config().sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 3 * 64 * 2,
            ways: 2,
            line_bytes: 64,
        });
    }

    #[test]
    fn full_capacity_no_conflict() {
        // Sequential fill of the whole cache must not evict anything.
        let mut c = tiny();
        for i in 0..8 {
            c.access(i * 64, AccessKind::Read);
        }
        assert_eq!(c.valid_lines(), 8);
        assert_eq!(c.stats().evictions, 0);
        // Re-touch all: all hits.
        for i in 0..8 {
            assert!(c.access(i * 64, AccessKind::Read).hit);
        }
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    fn bit_sliced_indexing_matches_the_division_form() {
        for cfg in [CacheConfig::table_i_l1d(), CacheConfig::table_i_l2()] {
            let c = Cache::new(cfg);
            let (line, sets) = (cfg.line_bytes as u64, cfg.sets() as u64);
            for addr in [0, 0x3F, 0x40, 0x1234_5678, u64::MAX - 63, u64::MAX] {
                assert_eq!(c.set_index(addr) as u64, (addr / line) % sets);
                assert_eq!(c.tag(addr), addr / line / sets);
            }
        }
    }

    #[test]
    fn display_smoke() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        assert!(c.to_string().contains("hit rate"));
    }
}
