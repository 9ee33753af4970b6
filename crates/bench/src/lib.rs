//! Shared utilities for the figure/table reproduction harnesses.
//!
//! Each `cargo bench` target in this crate regenerates one table or
//! figure of the paper (see DESIGN.md's experiment index) and prints the
//! same rows/series the paper reports. The `INDEXMAC_PROFILE`
//! environment variable selects the simulation scale:
//!
//! * `smoke` — tiny GEMM caps, seconds per figure (CI);
//! * `default` — the documented evaluation caps;
//! * `full` — uncapped layer sizes (hours; the gem5-equivalent run).
//!
//! Figure harnesses batch their simulations through the sweep cell
//! executor (`indexmac::sweep`) by calling [`CachedCompare::warm`] with
//! the full layer list up front; the printed numbers are identical to
//! a serial loop, just produced on every core.

#![warn(missing_docs)]

use indexmac::experiment::{compare_gemm, ExperimentConfig, GemmComparison};
use indexmac::kernels::GemmDims;
use indexmac::sparse::NmPattern;
use indexmac::sweep::{available_threads, run_cells, SweepCell};
use indexmac_models::GemmCaps;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Simulation scale selected via `INDEXMAC_PROFILE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Tiny caps for CI smoke runs.
    Smoke,
    /// The documented evaluation caps (default).
    Default,
    /// Uncapped, full-size layers.
    Full,
}

impl Profile {
    /// Reads `INDEXMAC_PROFILE` (unset or unknown values mean `Default`).
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var("INDEXMAC_PROFILE").ok().as_deref())
    }

    /// Pure counterpart of [`Profile::from_env`]: maps the raw
    /// environment value to a profile. `smoke`, `default` and `full`
    /// select their profile (case-sensitively, like the real env var);
    /// `None` (unset) and any unknown value fall back to `Default`, so
    /// a typo degrades to the documented evaluation scale instead of
    /// aborting a long harness run.
    pub fn from_env_value(value: Option<&str>) -> Self {
        match value {
            Some("smoke") => Profile::Smoke,
            Some("full") => Profile::Full,
            Some("default") | None => Profile::Default,
            Some(_) => Profile::Default,
        }
    }

    /// The GEMM caps this profile simulates under.
    pub fn caps(self) -> GemmCaps {
        match self {
            Profile::Smoke => GemmCaps::smoke(),
            Profile::Default => GemmCaps::default_eval(),
            Profile::Full => GemmCaps::unbounded(),
        }
    }

    /// An [`ExperimentConfig`] carrying these caps.
    pub fn config(self) -> ExperimentConfig {
        ExperimentConfig {
            caps: self.caps(),
            ..ExperimentConfig::paper()
        }
    }
}

type CacheKey = (usize, usize, usize, NmPattern);

/// Memoising wrapper around [`compare_gemm`]: CNN layers that cap to the
/// same GEMM shape share one simulation (capping erases what
/// distinguished them, so re-running would reproduce identical numbers).
/// [`CachedCompare::warm`] fills the cache in parallel via the sweep
/// executor.
pub struct CachedCompare {
    cfg: ExperimentConfig,
    cache: HashMap<CacheKey, GemmComparison>,
}

impl CachedCompare {
    /// Creates an empty cache over `cfg`.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Self {
            cfg,
            cache: HashMap::new(),
        }
    }

    /// The configuration used for every comparison.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Runs (or reuses) the baseline-vs-proposed comparison for `dims`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation itself fails — a bench harness has no
    /// useful recovery, and failing loudly is what we want there.
    pub fn compare(&mut self, dims: GemmDims, pattern: NmPattern) -> GemmComparison {
        let key = self.key(dims, pattern);
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone();
        }
        let result = compare_gemm(dims, pattern, &self.cfg)
            .unwrap_or_else(|e| panic!("comparison failed for {dims:?} {pattern}: {e}"));
        self.cache.insert(key, result.clone());
        result
    }

    /// Pre-populates the cache by fanning every *distinct capped*
    /// `(dims, pattern)` request out to the sweep executor, one worker
    /// per available core ([`indexmac::sweep::run_cells`]). Subsequent
    /// [`Self::compare`] calls are cache hits, so a figure harness
    /// becomes: `warm` the whole layer list in parallel, then print rows
    /// serially.
    ///
    /// Every warmed cell pins the campaign seed and dataflow, so the
    /// numbers are bit-identical to what a serial `compare` loop would
    /// have produced.
    ///
    /// # Panics
    ///
    /// Panics if any simulation fails, like [`Self::compare`].
    pub fn warm(&mut self, requests: impl IntoIterator<Item = (GemmDims, NmPattern)>) {
        let mut todo: Vec<(CacheKey, SweepCell)> = Vec::new();
        for (dims, pattern) in requests {
            let key = self.key(dims, pattern);
            if self.cache.contains_key(&key) || todo.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let cell = SweepCell {
                dims,
                pattern,
                dataflow: self.cfg.params.dataflow,
                seed: self.cfg.seed,
            };
            todo.push((key, cell));
        }
        if todo.is_empty() {
            return;
        }
        let (keys, cells): (Vec<CacheKey>, Vec<SweepCell>) = todo.into_iter().unzip();
        let results = run_cells(cells, &self.cfg, available_threads())
            .unwrap_or_else(|e| panic!("sweep warm-up failed: {e}"));
        for (key, result) in keys.into_iter().zip(results) {
            self.cache.insert(key, result.comparison);
        }
    }

    fn key(&self, dims: GemmDims, pattern: NmPattern) -> CacheKey {
        let capped = self.cfg.caps.apply(dims);
        (capped.rows, capped.inner, capped.cols, pattern)
    }

    /// Number of distinct simulations performed.
    pub fn unique_runs(&self) -> usize {
        self.cache.len()
    }
}

/// The workspace root (this crate lives at `crates/bench`).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

/// Where a bench writes its `file` when run at `profile` (see
/// [`write_bench_output`]).
fn bench_output_path(file: &str, committed_at: Profile, profile: Profile) -> PathBuf {
    let root = workspace_root();
    if profile == committed_at {
        root.join(file)
    } else {
        root.join("target").join("bench-out").join(file)
    }
}

/// Writes a bench's JSON report `file` (e.g. `BENCH_engine.json`) run
/// at `profile` and returns the path written. Only the profile the
/// committed file was produced at (`committed_at`) writes the repo-root
/// copy; every other profile writes under `target/bench-out/`, so a
/// smoke run never overwrites committed numbers. Paths are anchored at
/// the workspace root, not the invocation directory (cargo runs bench
/// binaries from the package directory).
///
/// # Panics
///
/// Panics when the file cannot be written (a bench has no caller to
/// report the error to).
pub fn write_bench_output(
    file: &str,
    committed_at: Profile,
    profile: Profile,
    json: &str,
) -> PathBuf {
    let path = bench_output_path(file, committed_at, profile);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Prints the standard harness banner: what figure this regenerates and
/// under which caps.
pub fn banner(what: &str, cfg: &ExperimentConfig) {
    println!("==========================================================================");
    println!("IndexMAC reproduction — {what}");
    println!(
        "simulation scale: {} | L={} | unroll x{} | seed {:#x}",
        cfg.caps, cfg.tile_rows, cfg.params.unroll, cfg.seed
    );
    println!("==========================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_output_goes_to_the_repo_root_only_at_the_committed_profile() {
        let root = workspace_root();
        let out = root.join("target").join("bench-out");
        for committed_at in [Profile::Smoke, Profile::Default, Profile::Full] {
            for profile in [Profile::Smoke, Profile::Default, Profile::Full] {
                let want = if profile == committed_at {
                    root.join("BENCH_x.json")
                } else {
                    out.join("BENCH_x.json")
                };
                assert_eq!(
                    bench_output_path("BENCH_x.json", committed_at, profile),
                    want,
                    "{profile:?} run of a file committed at {committed_at:?}"
                );
            }
        }
    }

    #[test]
    fn profile_parsing_defaults() {
        // Unset or garbage -> Default (cannot portably set env in tests
        // running in parallel, so only the default path is asserted).
        assert_eq!(Profile::from_env(), Profile::Default);
        assert_eq!(Profile::Smoke.caps(), GemmCaps::smoke());
        assert_eq!(Profile::Full.caps(), GemmCaps::unbounded());
    }

    #[test]
    fn profile_env_values_select_their_profile() {
        assert_eq!(Profile::from_env_value(Some("smoke")), Profile::Smoke);
        assert_eq!(Profile::from_env_value(Some("default")), Profile::Default);
        assert_eq!(Profile::from_env_value(Some("full")), Profile::Full);
    }

    #[test]
    fn profile_unset_env_falls_back_to_default() {
        assert_eq!(Profile::from_env_value(None), Profile::Default);
    }

    #[test]
    fn profile_unknown_env_values_degrade_to_default() {
        for bad in [
            "", "Smoke", "FULL", "smokey", "tiny", " smoke", "smoke ", "1",
        ] {
            assert_eq!(
                Profile::from_env_value(Some(bad)),
                Profile::Default,
                "value {bad:?}"
            );
        }
    }

    #[test]
    fn profile_caps_mapping_is_exhaustive() {
        assert_eq!(Profile::Default.caps(), GemmCaps::default_eval());
        assert_eq!(Profile::Smoke.config().caps, GemmCaps::smoke());
        // config() must keep everything but the caps at paper defaults.
        let cfg = Profile::Full.config();
        let paper = ExperimentConfig::paper();
        assert_eq!(cfg.seed, paper.seed);
        assert_eq!(cfg.tile_rows, paper.tile_rows);
        assert_eq!(cfg.params, paper.params);
    }

    #[test]
    fn cache_dedupes_equal_capped_shapes() {
        let mut c = CachedCompare::new(Profile::Smoke.config());
        let a = GemmDims {
            rows: 1000,
            inner: 1000,
            cols: 1000,
        };
        let b = GemmDims {
            rows: 2000,
            inner: 3000,
            cols: 4000,
        }; // same after caps
        let ra = c.compare(a, NmPattern::P1_4);
        let rb = c.compare(b, NmPattern::P1_4);
        assert_eq!(c.unique_runs(), 1);
        assert_eq!(ra.baseline.report.cycles, rb.baseline.report.cycles);
        // Different pattern -> new simulation.
        c.compare(a, NmPattern::P2_4);
        assert_eq!(c.unique_runs(), 2);
    }

    #[test]
    fn warm_matches_serial_compare_exactly() {
        let dims = [
            GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            },
            GemmDims {
                rows: 8,
                inner: 64,
                cols: 32,
            },
        ];
        let mut serial = CachedCompare::new(Profile::Smoke.config());
        let mut warmed = CachedCompare::new(Profile::Smoke.config());
        warmed.warm(dims.iter().map(|d| (*d, NmPattern::P1_4)));
        assert_eq!(warmed.unique_runs(), 2, "warm must fill the cache");
        for d in dims {
            let a = serial.compare(d, NmPattern::P1_4);
            let b = warmed.compare(d, NmPattern::P1_4);
            assert_eq!(a.baseline.report, b.baseline.report);
            assert_eq!(a.proposed.report, b.proposed.report);
        }
        // The warmed cache served everything without new simulations.
        assert_eq!(warmed.unique_runs(), 2);
    }

    #[test]
    fn warm_dedupes_capped_duplicates_and_tolerates_repeats() {
        let mut c = CachedCompare::new(Profile::Smoke.config());
        let a = GemmDims {
            rows: 1000,
            inner: 1000,
            cols: 1000,
        };
        let b = GemmDims {
            rows: 2000,
            inner: 3000,
            cols: 4000,
        }; // same after caps
        c.warm([
            (a, NmPattern::P1_4),
            (b, NmPattern::P1_4),
            (a, NmPattern::P1_4),
        ]);
        assert_eq!(c.unique_runs(), 1);
        c.warm([(a, NmPattern::P1_4)]); // already cached: no-op
        assert_eq!(c.unique_runs(), 1);
    }
}
