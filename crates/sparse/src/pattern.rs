//! `N:M` structured-sparsity templates.

use crate::error::SparseError;
use std::fmt;

/// An `N:M` structured-sparsity pattern: every aligned block of `M`
/// consecutive elements within a row contains at most `N` non-zeros.
///
/// The paper evaluates [`NmPattern::P1_4`] (1:4) and [`NmPattern::P2_4`]
/// (2:4) and mentions 1:2 as a commonly supported template.
///
/// # Example
///
/// ```
/// use indexmac_sparse::NmPattern;
///
/// let p = NmPattern::new(2, 4)?;
/// assert_eq!(p.density(), 0.5);
/// assert_eq!(p.blocks_for(10), 3); // ceil(10 / 4)
/// # Ok::<(), indexmac_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NmPattern {
    n: usize,
    m: usize,
}

impl NmPattern {
    /// The 1:2 pattern (50 % density, block size 2).
    pub const P1_2: NmPattern = NmPattern { n: 1, m: 2 };
    /// The 1:4 pattern (25 % density, block size 4) — paper Fig. 4(a).
    pub const P1_4: NmPattern = NmPattern { n: 1, m: 4 };
    /// The 2:4 pattern (50 % density, block size 4) — paper Fig. 4(b).
    pub const P2_4: NmPattern = NmPattern { n: 2, m: 4 };

    /// Every preset pattern, in the order the storage figure sweeps them
    /// (1:2, 1:4, 2:4). The canonical list for exhaustive tests and
    /// sweeps — update it when adding a preset.
    pub const ALL: [NmPattern; 3] = [NmPattern::P1_2, NmPattern::P1_4, NmPattern::P2_4];

    /// The two patterns the paper's evaluation sections sweep
    /// (Fig. 4–6 run 1:4 and 2:4). The default axis for benches, the
    /// CLI and the sweep runner.
    pub const EVALUATED: [NmPattern; 2] = [NmPattern::P1_4, NmPattern::P2_4];

    /// Creates a pattern allowing up to `n` non-zeros per `m`-element block.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPattern`] unless `0 < n <= m`.
    pub fn new(n: usize, m: usize) -> Result<Self, SparseError> {
        if n == 0 || m == 0 || n > m {
            return Err(SparseError::InvalidPattern { n, m });
        }
        Ok(Self { n, m })
    }

    /// Maximum non-zeros per block (`N`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block size (`M`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Maximum fraction of non-zero elements, `N / M`.
    pub fn density(&self) -> f64 {
        self.n as f64 / self.m as f64
    }

    /// Minimum fraction of zero elements, `1 - N / M`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Number of blocks needed to cover a row of `cols` elements
    /// (`ceil(cols / M)`); the trailing block is implicitly zero-padded.
    pub fn blocks_for(&self, cols: usize) -> usize {
        cols.div_ceil(self.m)
    }

    /// Number of value slots stored for a row of `cols` elements in the
    /// fixed-shape hardware format: `blocks_for(cols) * N`.
    pub fn slots_for(&self, cols: usize) -> usize {
        self.blocks_for(cols) * self.n
    }

    /// The block index containing column `col`.
    pub fn block_of(&self, col: usize) -> usize {
        col / self.m
    }

    /// The in-block offset of column `col`, in `[0, M)`.
    pub fn offset_of(&self, col: usize) -> usize {
        col % self.m
    }

    /// The paper's bound on how many rows of B can usefully be pre-loaded
    /// per vector register file: `M * vl / N` (Section III). `vl` is the
    /// hardware vector length in elements.
    pub fn max_preload_rows(&self, vl: usize) -> usize {
        self.m * vl / self.n
    }
}

impl fmt::Display for NmPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.n, self.m)
    }
}

/// Parses the `N:M` form [`Display`](fmt::Display) prints: the CLI's
/// `--pattern` token and the daemon's `"patterns"` entries.
impl std::str::FromStr for NmPattern {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let not_nm = || format!("pattern `{s}` is not N:M");
        let (n, m) = s.split_once(':').ok_or_else(not_nm)?;
        let n = n.parse().map_err(|_| not_nm())?;
        let m = m.parse().map_err(|_| not_nm())?;
        NmPattern::new(n, m).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_and_invalid_patterns() {
        assert_eq!("2:4".parse::<NmPattern>().unwrap(), NmPattern::P2_4);
        for bad in ["5", "a:4", "1:", "1:4:2"] {
            assert!(
                bad.parse::<NmPattern>().unwrap_err().contains("N:M"),
                "{bad}"
            );
        }
        assert!("9:4".parse::<NmPattern>().is_err());
    }

    #[test]
    fn constructor_validates() {
        assert!(NmPattern::new(0, 4).is_err());
        assert!(NmPattern::new(4, 0).is_err());
        assert!(NmPattern::new(5, 4).is_err());
        assert!(NmPattern::new(4, 4).is_ok());
        assert!(NmPattern::new(1, 1).is_ok());
    }

    #[test]
    fn presets_match_paper() {
        assert_eq!(NmPattern::P1_4.density(), 0.25);
        assert_eq!(NmPattern::P2_4.density(), 0.5);
        assert_eq!(NmPattern::P1_2.density(), 0.5);
        assert_eq!(NmPattern::P1_4.to_string(), "1:4");
        assert_eq!(NmPattern::P2_4.to_string(), "2:4");
    }

    #[test]
    fn block_arithmetic() {
        let p = NmPattern::P2_4;
        assert_eq!(p.blocks_for(16), 4);
        assert_eq!(p.blocks_for(17), 5);
        assert_eq!(p.blocks_for(1), 1);
        assert_eq!(p.slots_for(16), 8);
        assert_eq!(p.block_of(7), 1);
        assert_eq!(p.offset_of(7), 3);
    }

    #[test]
    fn max_preload_rows_matches_paper_formula() {
        // VL = 16 elements (512-bit / 32-bit), 1:4 -> 4*16/1 = 64 rows;
        // 2:4 -> 4*16/2 = 32 rows.
        assert_eq!(NmPattern::P1_4.max_preload_rows(16), 64);
        assert_eq!(NmPattern::P2_4.max_preload_rows(16), 32);
        assert_eq!(NmPattern::P1_2.max_preload_rows(16), 32);
    }

    #[test]
    fn preset_lists_are_exhaustive_and_consistent() {
        assert_eq!(NmPattern::ALL.len(), 3);
        assert!(NmPattern::ALL.contains(&NmPattern::P1_2));
        assert!(NmPattern::ALL.contains(&NmPattern::P1_4));
        assert!(NmPattern::ALL.contains(&NmPattern::P2_4));
        // EVALUATED is a subset of ALL.
        assert!(NmPattern::EVALUATED
            .iter()
            .all(|p| NmPattern::ALL.contains(p)));
        // No duplicates.
        for (i, a) in NmPattern::ALL.iter().enumerate() {
            for b in NmPattern::ALL.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn all_presets_roundtrip_through_new_and_display() {
        for p in NmPattern::ALL {
            // `new` with the same (n, m) reconstructs the preset.
            assert_eq!(NmPattern::new(p.n(), p.m()).unwrap(), p);
            // Display renders exactly "N:M", which parses back.
            assert_eq!(p.to_string(), format!("{}:{}", p.n(), p.m()));
            assert_eq!(p.to_string().parse::<NmPattern>().unwrap(), p);
            // Derived quantities stay self-consistent.
            assert!(p.density() > 0.0 && p.density() <= 1.0);
            assert_eq!(p.slots_for(p.m()), p.n());
        }
    }

    #[test]
    fn ordering_and_hash_derives_work() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(NmPattern::P1_4);
        set.insert(NmPattern::P1_4);
        set.insert(NmPattern::P2_4);
        assert_eq!(set.len(), 2);
    }
}
