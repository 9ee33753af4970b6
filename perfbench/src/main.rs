//! Benchmark entry point: runs one workload in this process and prints its
//! metrics as one JSON object on the last line of standard output.
//!
//! ```text
//! indexmac-perfbench --workload <fig4-resnet50|bert-ffn-full|daemon-mixed>
//!     --seed <n> --seconds <s> --trace <0|1> --scratch <dir> [--trace-out <file>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! workload with a span around every call into a workspace crate and
//! reports the per-layer metrics instead. See `perfbench/README.md`.

mod cold;
mod daemon;
mod http;
mod replica;
mod stats;
mod trace;

use indexmac::experiment::{DecodeCacheStats, GemmComparison};
use indexmac_kernels::GemmDims;
use indexmac_sparse::NmPattern;
use indexmac_vpu::RunReport;
use stats::{median, quietest, tail_percentile};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// The paper's Fig. 4 band of per-layer ResNet50 speed-ups.
const PAPER_SPEEDUP: (f64, f64) = (1.80, 2.14);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig4Resnet50,
    BertFfnFull,
    DaemonMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fig4-resnet50" => Some(Self::Fig4Resnet50),
            "bert-ffn-full" => Some(Self::BertFfnFull),
            "daemon-mixed" => Some(Self::DaemonMixed),
            _ => None,
        }
    }
}

/// The layers spans are recorded for: the workspace crates the traced
/// replay calls into.
const LAYERS: [&str; 6] = ["models", "sparse", "kernels", "vpu", "mem", "core"];

/// Per-layer metrics a traced run reports, with their units (the
/// `vpu.*`/`mem.*` simulated statistics are added per comparison side).
const PER_LAYER: [(&str, &str); 32] = [
    ("core.cells_simulated", "count"),
    ("core.cells_distinct", "count"),
    ("core.decode_cache_hits", "count"),
    ("core.decode_cache_misses", "count"),
    ("core.decode_cache_evictions", "count"),
    ("vpu.decode_s", "s"),
    ("vpu.decode_calls", "count"),
    ("vpu.analyze_s", "s"),
    ("vpu.analyze_calls", "count"),
    ("kernels.build_s", "s"),
    ("kernels.static_instrs", "count"),
    ("vpu.run_s", "s"),
    ("vpu.run_minstr_per_s", "Minstr/s"),
    ("vpu.instret", "count"),
    ("sparse.operands_s", "s"),
    ("sparse.operands_share", "fraction"),
    ("kernels.verify_s", "s"),
    ("kernels.verify_share", "fraction"),
    ("core.digest_us", "us"),
    ("core.record_codec_us", "us"),
    ("service.store_get_us", "us"),
    ("service.store_put_us", "us"),
    ("service.daemon_hit_us", "us"),
    ("service.http_overhead_ms", "ms"),
    ("service.miss_overhead_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "fraction"),
    // Filled in per layer of LAYERS.
    ("self_s", "s"),
    ("calls", "count"),
    ("share", "fraction"),
];

/// Simulated statistics reported for each comparison side.
const PER_SIDE: [(&str, &str); 8] = [
    ("vpu.cycles", "cycles"),
    ("vpu.engine_utilisation", "fraction"),
    ("vpu.vq_stall_cycles", "cycles"),
    ("vpu.v2s_syncs", "count"),
    ("mem.l1d_hit_rate", "fraction"),
    ("mem.l2_hit_rate", "fraction"),
    ("mem.dram_lines", "lines"),
    ("mem.accesses", "count"),
];

/// Simulated totals of one comparison side over a workload's results.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Side {
    cycles: u64,
    busy: u64,
    vq_stall: u64,
    v2s: u64,
    l1d_sum: f64,
    l2_sum: f64,
    dram_lines: u64,
    accesses: u64,
    runs: u64,
}

impl Side {
    fn add(&mut self, r: &RunReport) {
        self.cycles += r.cycles;
        self.busy += r.engine_busy_cycles;
        self.vq_stall += r.vq_stall_cycles;
        self.v2s += r.v2s_syncs;
        self.l1d_sum += r.l1d_hit_rate;
        self.l2_sum += r.l2_hit_rate;
        self.dram_lines += r.mem.dram_lines();
        self.accesses += r.mem.total_accesses();
        self.runs += 1;
    }

    /// Values in [`PER_SIDE`] order; hit rates are means over runs.
    fn values(&self) -> [f64; 8] {
        let runs = self.runs.max(1) as f64;
        [
            self.cycles as f64,
            self.busy as f64 / self.cycles.max(1) as f64,
            self.vq_stall as f64,
            self.v2s as f64,
            self.l1d_sum / runs,
            self.l2_sum / runs,
            self.dram_lines as f64,
            self.accesses as f64,
        ]
    }
}

/// Simulated totals over a workload's comparisons (deterministic for a
/// given seed).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimTotals {
    baseline: Side,
    proposed: Side,
}

impl SimTotals {
    pub fn add(&mut self, c: &GemmComparison) {
        self.baseline.add(&c.baseline.report);
        self.proposed.add(&c.proposed.report);
    }

    /// Summed baseline cycles over summed proposed cycles (Fig. 5).
    fn speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.proposed.cycles as f64
    }

    /// Proposed memory accesses as a share of the baseline's (Fig. 6).
    fn mem_ratio(&self) -> f64 {
        self.proposed.accesses as f64 / self.baseline.accesses as f64
    }
}

/// Everything a workload run measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// Host seconds of each timed unit of work, in the order run.
    pub unit_walls: Vec<f64>,
    /// Simulated instructions computed in the timed units.
    pub instret: u64,
    /// Operations served in the timed units.
    pub requests: u64,
    /// Round-trip milliseconds of every hit and every miss, in the order
    /// sent.
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub sim: Option<SimTotals>,
    layers: Vec<(String, f64)>,
    spans: String,
    process_start: Instant,
}

impl Report {
    fn new(process_start: Instant) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            setup_s: 0.0,
            unit_walls: Vec::new(),
            instret: 0,
            requests: 0,
            hit_ms: Vec::new(),
            miss_ms: Vec::new(),
            sim: None,
            layers: Vec::new(),
            spans: String::new(),
            process_start,
        }
    }

    pub fn set_layer(&mut self, name: &str, value: f64) {
        match self.layers.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.layers.push((name.to_string(), value)),
        }
    }

    fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Records a traced replay of `cells` (capped shape and pattern of
    /// each): its counts, checked against the core's decode-cache
    /// statistics for the same cells run untraced, and its spans.
    pub fn record_replay(
        &mut self,
        cells: &[(GemmDims, NmPattern)],
        counts: replica::Counts,
        core_cache: DecodeCacheStats,
        spans: &[trace::Span],
        traced_wall: f64,
        untraced_wall: f64,
    ) {
        if (
            counts.cache_hits,
            counts.cache_misses,
            counts.cache_evictions,
        ) != (core_cache.hits, core_cache.misses, core_cache.evictions)
        {
            self.failed += 1;
            eprintln!(
                "replay decode-cache counts {counts:?} differ from the core's {core_cache:?}"
            );
        }
        let mut distinct = cells.to_vec();
        distinct.sort_by_key(|(d, p)| (d.rows, d.inner, d.cols, p.n(), p.m()));
        distinct.dedup();
        for (name, value) in [
            ("core.cells_simulated", cells.len() as u64),
            ("core.cells_distinct", distinct.len() as u64),
            ("core.decode_cache_hits", core_cache.hits),
            ("core.decode_cache_misses", core_cache.misses),
            ("core.decode_cache_evictions", core_cache.evictions),
            ("vpu.decode_calls", counts.decode_calls),
            ("vpu.analyze_calls", counts.analyze_calls),
            ("kernels.static_instrs", counts.static_instrs),
            ("vpu.instret", counts.instret),
        ] {
            self.set_layer(name, value as f64);
        }
        self.record_spans(spans, traced_wall, untraced_wall, counts.instret);
    }

    /// Per-layer self times, call counts and shares of the traced wall,
    /// per-call totals, and the tracing overhead against `untraced_wall`
    /// (the same work without spans).
    fn record_spans(
        &mut self,
        spans: &[trace::Span],
        traced_wall: f64,
        untraced_wall: f64,
        instret: u64,
    ) {
        let self_s = trace::self_times(spans);
        for layer in LAYERS {
            let (t, calls) = trace::totals(spans, &self_s, |s| s.layer)
                .into_iter()
                .find(|(name, ..)| *name == layer)
                .map_or((0.0, 0), |(_, t, n)| (t, n));
            self.set_layer(&format!("{layer}.self_s"), t);
            self.set_layer(&format!("{layer}.calls"), calls as f64);
            self.set_layer(&format!("{layer}.share"), t / traced_wall);
        }
        let by_call = trace::totals(spans, &self_s, |s| s.name);
        let call = |name: &str| {
            by_call
                .iter()
                .find(|(n, ..)| *n == name)
                .map_or(0.0, |e| e.1)
        };
        for (metric, name) in [
            ("vpu.decode_s", "vpu.decode"),
            ("vpu.analyze_s", "vpu.analyze"),
            ("vpu.run_s", "vpu.run"),
            ("sparse.operands_s", "sparse.operands"),
            ("kernels.verify_s", "kernels.verify"),
        ] {
            self.set_layer(metric, call(name));
        }
        self.set_layer(
            "kernels.build_s",
            call("kernels.plan") + call("kernels.build"),
        );
        self.set_layer(
            "vpu.run_minstr_per_s",
            instret as f64 / call("vpu.run") / 1e6,
        );
        self.set_layer(
            "sparse.operands_share",
            call("sparse.operands") / traced_wall,
        );
        self.set_layer("kernels.verify_share", call("kernels.verify") / traced_wall);
        self.set_layer("trace.wall_s", traced_wall);
        self.set_layer("trace.untraced_wall_s", untraced_wall);
        self.set_layer("trace.overhead_s", traced_wall - untraced_wall);
        self.set_layer("trace.coverage", self_s.iter().sum::<f64>() / traced_wall);
        self.spans = trace::to_json_lines(spans, &self_s);
    }
}

/// Sets the workload up [`SETUP_REPS`] times (once when traced), tearing
/// down every set-up but the last, and records the median set-up time in
/// `report.setup_s`. The first set-up is timed from process start.
pub fn timed_setups<T, E>(
    report: &mut Report,
    traced: bool,
    mut setup: impl FnMut() -> Result<T, E>,
    mut teardown: impl FnMut(T) -> Result<(), E>,
) -> Result<T, E> {
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        if let Some(previous) = kept.take() {
            teardown(previous)?;
        }
        let t = if rep == 0 {
            report.process_start
        } else {
            Instant::now()
        };
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    report.setup_s = median(&times);
    Ok(kept.expect("at least one set-up"))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut scratch, mut trace_out) =
        (None, None, 5.0, false, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => traced = value == "1",
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        scratch: scratch.ok_or("--scratch is required")?,
        trace_out,
    })
}

fn metric(out: &mut Vec<(String, f64, &'static str)>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_string(), value, unit));
}

/// The `--trace 0` metrics.
fn end_to_end(report: &Report) -> Result<Vec<(String, f64, &'static str)>, String> {
    let sim = report.sim.as_ref().ok_or("no simulated results")?;
    // A hit's latency sits on the daemon's 5 ms accept-loop sleep, a floor
    // the host cannot lower, and contention only adds time slices to it:
    // its percentiles are taken in the quietest window of hits. Unit and
    // miss times are CPU-bound and move both ways with the host's speed:
    // they are medians.
    let p95 = |c: &[f64]| tail_percentile(c, 95.0, 10).map(|p| p.1);
    let (hit_p95, hit_p95s) = quietest(&report.hit_ms, http::HIT_WINDOW, p95)
        .ok_or("too few hits for a tail percentile")?;
    let (hit_p50, hit_p50s) =
        quietest(&report.hit_ms, http::HIT_WINDOW, |c| Some(median(c))).ok_or("too few hits")?;
    if report.miss_ms.is_empty() || report.unit_walls.is_empty() {
        return Err("no unit or simulated request completed".into());
    }
    let wall_s = median(&report.unit_walls);
    eprintln!(
        "sim_speedup {:.3}x beside the paper's Fig. 4 ResNet50 band of {:.2}-{:.2}x \
         (only fig4-resnet50 runs that comparison; the model is otherwise unvalidated), \
         sim_mem_ratio {:.3}",
        sim.speedup(),
        PAPER_SPEEDUP.0,
        PAPER_SPEEDUP.1,
        sim.mem_ratio()
    );
    eprintln!(
        "{} hits in windows of {}: p50 {hit_p50s:.3?}, p95 {hit_p95s:.3?} ms",
        report.hit_ms.len(),
        http::HIT_WINDOW
    );
    eprintln!("{} misses", report.miss_ms.len());
    eprintln!(
        "{} requests in {} units: {:.3?} s",
        report.requests,
        report.unit_walls.len(),
        report.unit_walls
    );
    let units = report.unit_walls.len() as f64;
    let mut out = Vec::new();
    metric(&mut out, "wall_s", wall_s, "s");
    metric(&mut out, "setup_s", report.setup_s, "s");
    metric(
        &mut out,
        "sim_minstr_per_s",
        report.instret as f64 / units / wall_s / 1e6,
        "Minstr/s",
    );
    metric(&mut out, "peak_rss_mib", peak_rss_mib(), "MiB");
    metric(&mut out, "sim_speedup", sim.speedup(), "x");
    metric(&mut out, "sim_mem_ratio", sim.mem_ratio(), "fraction");
    metric(
        &mut out,
        "req_per_s",
        report.requests as f64 / units / wall_s,
        "1/s",
    );
    metric(&mut out, "hit_p50_ms", hit_p50, "ms");
    metric(&mut out, "hit_p95_ms", hit_p95, "ms");
    metric(&mut out, "miss_p50_ms", median(&report.miss_ms), "ms");
    Ok(out)
}

/// The `--trace 1` metrics.
fn per_layer(report: &Report) -> Result<Vec<(String, f64, &'static str)>, String> {
    let sim = report.sim.as_ref().ok_or("no simulated results")?;
    eprintln!(
        "sim_speedup {:.6}x, sim_mem_ratio {:.6} (traced)",
        sim.speedup(),
        sim.mem_ratio()
    );
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        if matches!(name, "self_s" | "calls" | "share") {
            for layer in LAYERS {
                let full = format!("{layer}.{name}");
                metric(&mut out, &full, report.layer(&full), unit);
            }
        } else {
            metric(&mut out, name, report.layer(name), unit);
        }
    }
    for (side, totals) in [("baseline", &sim.baseline), ("proposed", &sim.proposed)] {
        for ((name, unit), value) in PER_SIDE.iter().zip(totals.values()) {
            metric(&mut out, &format!("{name}.{side}"), value, unit);
        }
    }
    Ok(out)
}

fn render(report: &Report, metrics: &[(String, f64, &'static str)]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    json
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("creating {}: {e}", args.scratch.display()))?;
    match args.workload {
        Workload::DaemonMixed => {
            daemon::run(args.seed, args.seconds, args.traced, &args.scratch, report)
        }
        w => cold::run(
            w,
            args.seed,
            args.seconds,
            args.traced,
            &args.scratch,
            report,
        ),
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("indexmac-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new(process_start);
    let metrics = run(&args, &mut report).and_then(|()| {
        if args.traced {
            per_layer(&report)
        } else {
            end_to_end(&report)
        }
    });
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("indexmac-perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, &report.spans) {
            eprintln!("indexmac-perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", render(&report, &metrics));
}
