//! Content addressing for sweep cells: a stable, version-tagged digest
//! over everything that determines a [`CellResult`].
//!
//! The sweep service keys its persistent store by
//! [`config_digest`]`(cell, cfg)`. Two invariants carry the whole
//! design:
//!
//! 1. **Determinism across processes and sessions** — the digest is
//!    FNV-1a-128 over a canonical little-endian byte encoding of the
//!    cell and campaign configuration, so it never depends on pointer
//!    values, hash-map order or `DefaultHasher` seeds.
//! 2. **Pinned inputs** — every field that changes simulated results
//!    feeds the digest; fields that cannot (the `verify` cross-check
//!    flag is an observer, and `params.dataflow` is overridden per
//!    cell by [`crate::sweep::run_cell`]) are deliberately excluded so
//!    toggling them still hits the cache. [`CONFIG_DIGEST_VERSION`] is hashed
//!    first; bump it whenever the encoding or the simulator's observable
//!    behaviour changes, and the old store entries become misses instead
//!    of stale hits. Golden digests in the unit tests pin the encoding
//!    so accidental drift breaks CI rather than silently splitting the
//!    cache.
//!
//! [`CellResult`]: crate::sweep::CellResult

use crate::experiment::{Algorithm, ExperimentConfig};
use crate::sweep::SweepCell;
use indexmac_kernels::Dataflow;
use std::fmt;
use std::str::FromStr;

/// Version tag mixed into every digest. Bump on any change to the
/// encoding below **or** to simulated behaviour (timing models, kernel
/// builders, operand generation) — stored results are only valid for
/// the code that produced them.
pub const CONFIG_DIGEST_VERSION: u32 = 1;

/// A 128-bit content digest, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u128);

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for Digest {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(format!("digest must be 32 hex digits, got {}", s.len()));
        }
        u128::from_str_radix(s, 16)
            .map(Digest)
            .map_err(|e| format!("invalid digest '{s}': {e}"))
    }
}

/// Incremental FNV-1a-128 hasher over a canonical byte stream.
///
/// FNV is not cryptographic; the store treats collisions as
/// correctness-irrelevant (a collision would serve the wrong cell's
/// result, but at 2^-64 birthday odds across realistic sweep volumes
/// this is far below hardware error rates).
#[derive(Debug, Clone)]
pub struct DigestHasher {
    state: u128,
}

const FNV_OFFSET_BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

impl DigestHasher {
    /// A hasher seeded with the FNV offset basis and the version tag.
    pub fn new() -> Self {
        let mut h = Self {
            state: FNV_OFFSET_BASIS,
        };
        h.write_u32(CONFIG_DIGEST_VERSION);
        h
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u32` in little-endian canonical form.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` in little-endian canonical form.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to `u64` (platform-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The accumulated digest.
    pub fn finish(&self) -> Digest {
        Digest(self.state)
    }
}

impl Default for DigestHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable one-byte tag of an [`Algorithm`]. Exhaustive on purpose: a
/// new kernel variant fails to compile here until it gets a tag, so the
/// digest can never silently alias two algorithms.
fn algorithm_tag(a: Algorithm) -> u8 {
    match a {
        Algorithm::Dense => 0,
        Algorithm::RowWiseSpmm => 1,
        Algorithm::IndexMac => 2,
        Algorithm::IndexMac2 => 3,
        Algorithm::ScalarIndexed => 4,
    }
}

/// Stable one-byte tag of a [`Dataflow`].
fn dataflow_tag(d: Dataflow) -> u8 {
    match d {
        Dataflow::AStationary => 0,
        Dataflow::BStationary => 1,
        Dataflow::CStationary => 2,
    }
}

/// Stable one-byte tag of a timing backend.
fn timing_tag(t: indexmac_vpu::TimingKind) -> u8 {
    match t {
        indexmac_vpu::TimingKind::InOrder => 0,
        indexmac_vpu::TimingKind::Pipelined => 1,
        indexmac_vpu::TimingKind::OutOfOrder => 2,
    }
}

/// The content digest of one `(cell, campaign)` pair: the store key
/// under which the cell's [`CellResult`](crate::sweep::CellResult) is
/// cached.
///
/// Covers the cell coordinates (shape, pattern, dataflow, seed) and
/// every campaign field that reaches the simulation: algorithms on both
/// comparison sides, precision (SEW), LMUL, tile rows, unroll, the
/// instruction-limit guard, the GEMM caps, the full processor model
/// (including the timing backend and memory hierarchy). Excludes
/// `cfg.verify` (a pure cross-check — it can fail a run but never
/// change a returned result) and `cfg.params.dataflow` (overridden by
/// the cell's own dataflow).
pub fn config_digest(cell: &SweepCell, cfg: &ExperimentConfig) -> Digest {
    let mut h = DigestHasher::new();

    // Cell coordinates.
    h.write_usize(cell.dims.rows);
    h.write_usize(cell.dims.inner);
    h.write_usize(cell.dims.cols);
    h.write_usize(cell.pattern.n());
    h.write_usize(cell.pattern.m());
    h.write(&[dataflow_tag(cell.dataflow)]);
    h.write_u64(cell.seed);

    // Campaign: what runs and how it is measured.
    h.write(&[algorithm_tag(cfg.baseline), algorithm_tag(cfg.proposed)]);
    h.write_usize(cfg.precision.bits());
    h.write_usize(cfg.lmul);
    h.write_usize(cfg.tile_rows);
    h.write_usize(cfg.params.unroll);
    h.write_u64(cfg.max_instructions);
    h.write_usize(cfg.caps.max_rows);
    h.write_usize(cfg.caps.max_inner);
    h.write_usize(cfg.caps.max_cols);

    // Processor model (paper Table I and every override).
    let sim = &cfg.sim;
    h.write_usize(sim.vlen_bits);
    h.write_usize(sim.lanes);
    h.write_usize(sim.vq_depth);
    h.write_usize(sim.vlq_entries);
    h.write_usize(sim.vsq_entries);
    h.write_u32(sim.vdispatch_per_cycle);
    h.write(&[timing_tag(sim.timing)]);
    h.write_u32(sim.issue_width);
    h.write_usize(sim.rob_entries);
    h.write_usize(sim.rs_entries);
    h.write_usize(sim.lsq_entries);
    h.write_u64(sim.branch_taken_penalty);
    h.write_u64(sim.alu_latency);
    h.write_u64(sim.mul_latency);
    h.write_u64(sim.varith_latency);
    h.write_u64(sim.vmac_latency);
    h.write_u64(sim.vslide_latency);
    h.write_u64(sim.v2s_latency);

    // Memory hierarchy.
    let m = &sim.hierarchy;
    for cache in [&m.l1d, &m.l2] {
        h.write_usize(cache.size_bytes);
        h.write_usize(cache.ways);
        h.write_usize(cache.line_bytes);
    }
    h.write_u64(m.l1_latency);
    h.write_u64(m.l2_latency);
    h.write_usize(m.l2_banks);
    h.write_u64(m.l2_bank_occupancy);
    h.write_u64(m.dram.latency);
    h.write_u64(m.dram.cycles_per_line);

    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac_kernels::GemmDims;
    use indexmac_sparse::NmPattern;
    use indexmac_vpu::TimingKind;

    fn cell() -> SweepCell {
        SweepCell {
            dims: GemmDims {
                rows: 8,
                inner: 64,
                cols: 32,
            },
            pattern: NmPattern::P1_4,
            dataflow: Dataflow::BStationary,
            seed: 7,
        }
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let cfg = ExperimentConfig::fast();
        let d = config_digest(&cell(), &cfg);
        assert_eq!(d, config_digest(&cell(), &cfg), "same inputs, same digest");

        // Every axis the store must distinguish moves the digest.
        let mut other = cell();
        other.seed = 8;
        assert_ne!(d, config_digest(&other, &cfg));
        let mut other = cell();
        other.pattern = NmPattern::P2_4;
        assert_ne!(d, config_digest(&other, &cfg));
        let mut other = cell();
        other.dims.cols = 33;
        assert_ne!(d, config_digest(&other, &cfg));
        let mut other = cell();
        other.dataflow = Dataflow::AStationary;
        assert_ne!(d, config_digest(&other, &cfg));

        let quant = config_digest(
            &cell(),
            &ExperimentConfig {
                caps: cfg.caps,
                ..ExperimentConfig::quantized(crate::experiment::Precision::I8)
            },
        );
        assert_ne!(d, quant);
        assert_ne!(
            d,
            config_digest(&cell(), &cfg.with_timing(TimingKind::OutOfOrder))
        );
        let mut wide = cfg;
        wide.sim = wide.sim.with_vlen(1024);
        assert_ne!(d, config_digest(&cell(), &wide));
        let mut grouped = cfg;
        grouped.lmul = 2;
        assert_ne!(d, config_digest(&cell(), &grouped));
    }

    #[test]
    fn observer_fields_do_not_move_the_digest() {
        let cfg = ExperimentConfig::fast();
        let d = config_digest(&cell(), &cfg);
        let mut observed = cfg;
        observed.verify = false;
        observed.params.dataflow = Dataflow::CStationary; // per-cell override wins
        assert_eq!(
            d,
            config_digest(&cell(), &observed),
            "verify/params.dataflow are observers, not inputs"
        );
    }

    #[test]
    fn digest_renders_and_parses_as_32_hex() {
        let d = config_digest(&cell(), &ExperimentConfig::fast());
        let s = d.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(s.parse::<Digest>().unwrap(), d);
        assert!("xyz".parse::<Digest>().is_err());
        assert!("g".repeat(32).parse::<Digest>().is_err());
        assert_eq!(
            Digest(0).to_string(),
            "00000000000000000000000000000000",
            "leading zeroes are preserved"
        );
    }

    /// Golden digests: pin the canonical encoding. If this test fails
    /// without an intentional encoding change, the hash inputs drifted
    /// and a deployed store would silently split; if the change is
    /// intentional, bump [`CONFIG_DIGEST_VERSION`] and re-pin.
    #[test]
    fn golden_digest_matrix() {
        let fast = ExperimentConfig::fast();
        let cases: Vec<(SweepCell, ExperimentConfig, &str)> = vec![
            (cell(), fast, "300f16dc1fc074eb7ebb38cb350399fd"),
            (
                SweepCell {
                    seed: 0xD47E_2024,
                    ..cell()
                },
                fast,
                "39771c5b0624a8f7ce68b9c9b2b760b2",
            ),
            (
                SweepCell {
                    pattern: NmPattern::P2_4,
                    ..cell()
                },
                ExperimentConfig::paper(),
                "95b79306a20dee069321e9b41c21d63a",
            ),
            (
                cell(),
                ExperimentConfig {
                    caps: fast.caps,
                    ..ExperimentConfig::second_generation(2)
                },
                "0aa7b5b0c170ab7e5819e85a7a99997c",
            ),
            (
                cell(),
                fast.with_timing(TimingKind::Pipelined),
                "0f5844807bae17cb6975cb86a6d21eea",
            ),
        ];
        for (cell, cfg, want) in cases {
            let got = config_digest(&cell, &cfg).to_string();
            assert_eq!(
                got, want,
                "digest drift for cell {cell:?}: update CONFIG_DIGEST_VERSION \
                 if the encoding change is intentional"
            );
        }
    }
}
