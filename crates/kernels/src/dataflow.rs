//! Dataflow (loop-order) choices for the Row-Wise-SpMM baseline.
//!
//! Section IV-A of the paper: "we tested all three dataflow types for
//! 'Row-Wise-SpMM', i.e., A-, B-, and C-stationary. The experimental
//! results show that the B-stationary dataflow (used by 'Proposed') also
//! yields the best total execution times for 'Row-Wise-SpMM'." The
//! `ablate_dataflow` bench reproduces that comparison.

use std::fmt;

/// Which operand stays resident across the innermost loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Rows of A (and their metadata) are walked in the outer loop;
    /// loop order `i -> k-tile -> col-tile`.
    AStationary,
    /// A tile of B stays resident while all rows of A stream past it;
    /// loop order `k-tile -> col-tile -> i`. The paper's choice for both
    /// kernels (and the only order that lets Algorithm 3 pin the tile in
    /// the vector register file).
    #[default]
    BStationary,
    /// A row of partial sums of C stays resident while the k-tiles
    /// stream; loop order `i -> col-tile -> k-tile`. Minimises stores
    /// (the paper notes this "does not improve the total execution
    /// time").
    CStationary,
}

impl Dataflow {
    /// All three dataflows, for sweeps.
    pub const ALL: [Dataflow; 3] = [
        Dataflow::AStationary,
        Dataflow::BStationary,
        Dataflow::CStationary,
    ];

    /// Stable short token, `a`, `b` or `c`: the CLI's `--dataflows`
    /// vocabulary, the daemon's `"dataflows"` entries and the persisted
    /// record tag.
    pub fn tag(self) -> &'static str {
        match self {
            Dataflow::AStationary => "a",
            Dataflow::BStationary => "b",
            Dataflow::CStationary => "c",
        }
    }
}

/// Parses a [`Dataflow::tag`].
impl std::str::FromStr for Dataflow {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Dataflow::ALL
            .into_iter()
            .find(|d| d.tag() == s)
            .ok_or_else(|| format!("unknown dataflow `{s}` (a|b|c)"))
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dataflow::AStationary => write!(f, "A-stationary"),
            Dataflow::BStationary => write!(f, "B-stationary"),
            Dataflow::CStationary => write!(f, "C-stationary"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_b_stationary() {
        assert_eq!(Dataflow::default(), Dataflow::BStationary);
    }

    #[test]
    fn display_names() {
        assert_eq!(Dataflow::BStationary.to_string(), "B-stationary");
        assert_eq!(Dataflow::ALL.len(), 3);
    }
}
