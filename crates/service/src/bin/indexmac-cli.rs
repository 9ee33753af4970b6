//! Command-line front-end for the IndexMAC reproduction.
//!
//! ```text
//! indexmac-cli config
//! indexmac-cli gemm --rows 64 --inner 256 --cols 128 --pattern 2:4
//! indexmac-cli gemm --rows 64 --inner 256 --cols 128 --algorithm indexmac
//! indexmac-cli layer --model resnet50 --name layer2.0.conv2 --pattern 1:4
//! indexmac-cli layer --model bert-base --name block0.ffn.up
//! indexmac-cli model --preset bert-base --seq-len 128 --pattern 2:4
//! indexmac-cli model --preset gpt2-small --sew 8
//! indexmac-cli list --model inceptionv3
//! indexmac-cli lint
//! indexmac-cli lint --algorithm indexmac2 --sew 8 --format json
//! indexmac-cli sweep --dims 16x128x32,32x256x64 --patterns 1:4,2:4 \
//!     --dataflows all --threads 8 --format json
//! indexmac-cli sweep --dims 16x128x32 --store-dir /var/tmp/indexmac-store
//! indexmac-cli serve --store-dir /var/tmp/indexmac-store --addr 127.0.0.1:0
//! ```

use indexmac::analysis::analyze;
use indexmac::experiment::{
    compare_gemm, compare_model, lint_gemm, run_gemm, Algorithm, ExperimentConfig, LintResult,
    Precision,
};
use indexmac::kernels::{Dataflow, GemmDims, KernelParams};
use indexmac::sparse::NmPattern;
use indexmac::sweep::{available_threads, run_grid, SweepGrid};
use indexmac::table::{fmt_pair, fmt_pct, fmt_speedup, Table};
use indexmac::vpu::{SimConfig, TimingKind};
use indexmac_models::{
    densenet121, inception_v3, resnet50, GemmCaps, Model, ModelFamily, TransformerConfig,
};
use indexmac_service::{CellStatus, ResultStore, SweepService};
use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

/// `print!` to stdout that returns a failed write as
/// [`Failure::Stdout`] instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(stdout(), $($arg)*).map_err(Failure::Stdout)?
    };
}

/// `println!` counterpart of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(stdout(), $($arg)*).map_err(Failure::Stdout)?
    };
}

/// Where command output goes. The unit tests run commands for their
/// outcome; their output would bypass the test harness's capture, so
/// there it is dropped.
fn stdout() -> Box<dyn std::io::Write> {
    if cfg!(test) {
        Box::new(std::io::sink())
    } else {
        Box::new(std::io::stdout())
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    /// Print the Table I machine configuration.
    Config,
    /// Run/compare kernels on an explicit GEMM shape.
    Gemm {
        dims: GemmDims,
        pattern: NmPattern,
        algorithm: Option<Algorithm>,
        unroll: usize,
        tile_rows: usize,
        lmul: usize,
        sew: Precision,
        seed: Option<u64>,
        max_instructions: Option<u64>,
        timing: TimingKind,
    },
    /// Run the comparison on a named model layer (CNN conv or
    /// transformer projection).
    Layer {
        model: String,
        name: String,
        pattern: NmPattern,
        seed: Option<u64>,
    },
    /// Run the whole-network comparison for a preset and print the
    /// per-layer table plus aggregates.
    Model {
        preset: String,
        pattern: NmPattern,
        seq_len: Option<usize>,
        sew: Option<Precision>,
        caps: GemmCaps,
        seed: Option<u64>,
        max_instructions: Option<u64>,
        timing: TimingKind,
    },
    /// List the GEMM layers of a model.
    List { model: String },
    /// Run the static µop-program analyzer over kernel builds and print
    /// the diagnostics (empty output = every config is provably
    /// fault-free).
    Lint {
        /// `None` lints every shipped kernel.
        algorithm: Option<Algorithm>,
        dims: GemmDims,
        patterns: Vec<NmPattern>,
        /// `None` sweeps every precision the kernel supports.
        sew: Option<Precision>,
        /// `None` sweeps every grouping the kernel/precision supports.
        lmul: Option<usize>,
        unroll: usize,
        tile_rows: usize,
        format: OutputFormat,
    },
    /// Fan comparisons over a (pattern x dims x dataflow) grid in parallel.
    Sweep {
        dims: Vec<GemmDims>,
        patterns: Vec<NmPattern>,
        dataflows: Vec<Dataflow>,
        seed: Option<u64>,
        threads: Option<usize>,
        format: OutputFormat,
        /// The proposed side of every comparison (default: indexmac).
        algorithm: Algorithm,
        /// The baseline side of every comparison (default: rowwise).
        baseline: Algorithm,
        /// Register grouping for indexmac2 cells.
        lmul: usize,
        /// Element precision (SEW) of every cell.
        sew: Precision,
        /// Override of the runaway-program guard.
        max_instructions: Option<u64>,
        /// Timing backend every cell runs under.
        timing: TimingKind,
        /// Persistent result store to consult/extend (incremental
        /// re-sweeps: only cells whose digest is absent simulate).
        store_dir: Option<String>,
    },
    /// Run the sweep daemon: a persistent content-addressed store and
    /// a worker pool behind an HTTP/1.1 API.
    Serve {
        /// Bind address; port 0 picks an ephemeral port (printed on
        /// stdout for scripting).
        addr: String,
        /// Worker threads; 0 = one per available core.
        threads: usize,
        store_dir: String,
        /// Campaign axes shared with `sweep` — they feed the digest,
        /// so the daemon must know which comparison it serves.
        algorithm: Algorithm,
        baseline: Algorithm,
        lmul: usize,
        sew: Precision,
        max_instructions: Option<u64>,
        timing: TimingKind,
    },
}

/// How `sweep` renders its results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Table,
    Json,
    JsonPretty,
}

fn parse_format(s: &str) -> Result<OutputFormat, String> {
    match s {
        "table" => Ok(OutputFormat::Table),
        "json" => Ok(OutputFormat::Json),
        "json-pretty" => Ok(OutputFormat::JsonPretty),
        other => Err(format!("unknown format `{other}` (table|json|json-pretty)")),
    }
}

/// A comma-separated list of tokens, each parsed by its type's
/// `FromStr` (`RxKxN` dims, `N:M` patterns, dataflow tags).
fn parse_list<T: FromStr<Err = String>>(s: &str) -> Result<Vec<T>, String> {
    s.split(',').map(str::parse).collect()
}

fn parse_lmul(s: &str) -> Result<usize, String> {
    match s {
        "1" => Ok(1),
        "2" => Ok(2),
        "4" => Ok(4),
        other => Err(format!("unknown lmul `{other}` (1|2|4)")),
    }
}

fn parse_sew(s: &str) -> Result<Precision, String> {
    s.parse::<usize>()
        .ok()
        .and_then(Precision::from_sew_bits)
        .ok_or_else(|| format!("unknown sew `{s}` (8|16|32)"))
}

/// The algorithms with a quantized (e8/e16) emission path.
fn supports_int(alg: Algorithm) -> bool {
    matches!(alg, Algorithm::IndexMac | Algorithm::IndexMac2)
}

/// The transformer preset behind a (lowercased, suffix-stripped) name.
fn transformer_preset(base: &str) -> Option<TransformerConfig> {
    match base {
        "bert-base" => Some(TransformerConfig::bert_base()),
        "gpt2-small" | "gpt-2-small" => Some(TransformerConfig::gpt2_small()),
        "vit-b16" | "vit-b/16" => Some(TransformerConfig::vit_b16()),
        _ => None,
    }
}

const MODEL_NAMES: &str = "resnet50|densenet121|inceptionv3|bert-base|gpt2-small|vit-b16, \
each also as <model>-int8";

/// Resolves a preset name to its model, optionally overriding the
/// transformer sequence length.
fn preset_by_name(name: &str, seq_len: Option<usize>) -> Result<Model, String> {
    let lower = name.to_ascii_lowercase();
    let (base, int8) = match lower.strip_suffix("-int8") {
        Some(b) => (b, true),
        None => (lower.as_str(), false),
    };
    if let Some(mut tc) = transformer_preset(base) {
        if let Some(s) = seq_len {
            if s == 0 {
                return Err("--seq-len must be positive".to_string());
            }
            tc = tc.with_seq_len(s);
        }
        let m = tc.model();
        return Ok(if int8 {
            let int8_name = format!("{}-int8", m.name);
            m.with_precision(int8_name, Precision::I8)
        } else {
            m
        });
    }
    let cnn = match base {
        "resnet50" => resnet50(),
        "densenet121" => densenet121(),
        "inceptionv3" | "inception_v3" => inception_v3(),
        _ => return Err(format!("unknown model `{lower}` ({MODEL_NAMES})")),
    };
    if seq_len.is_some() {
        return Err("--seq-len applies to transformer presets only".to_string());
    }
    Ok(if int8 {
        let int8_name = format!("{}-int8", cnn.name);
        cnn.with_precision(int8_name, Precision::I8)
    } else {
        cnn
    })
}

fn model_by_name(name: &str) -> Result<Model, String> {
    preset_by_name(name, None)
}

fn parse_caps(s: &str) -> Result<GemmCaps, String> {
    match s {
        "smoke" => Ok(GemmCaps::smoke()),
        "eval" => Ok(GemmCaps::default_eval()),
        "full" => Ok(GemmCaps::unbounded()),
        other => Err(format!("unknown caps `{other}` (smoke|eval|full)")),
    }
}

/// The campaign a model's family defaults to: the paper configuration
/// for CNNs, the follow-up vvi-vs-vx m2 comparison for transformers
/// (quantized presets are reconciled inside `compare_model`).
fn config_for_family(family: ModelFamily) -> ExperimentConfig {
    match family {
        ModelFamily::Cnn => ExperimentConfig::paper(),
        ModelFamily::Transformer => ExperimentConfig::transformer(),
    }
}

/// Parses the optional `--seed` flag shared by every run subcommand.
fn parse_seed(opts: &HashMap<String, String>) -> Result<Option<u64>, String> {
    match opts.get("seed") {
        Some(s) => Ok(Some(
            s.parse()
                .map_err(|_| "--seed must be an integer".to_string())?,
        )),
        None => Ok(None),
    }
}

/// Parses the optional `--max-instructions` runaway-guard override
/// shared by `gemm`, `model` and `sweep` (the default guard stays the
/// simulator's 2e9 when absent).
fn parse_max_instructions(opts: &HashMap<String, String>) -> Result<Option<u64>, String> {
    match opts.get("max-instructions") {
        Some(s) => {
            let n: u64 = s
                .parse()
                .map_err(|_| "--max-instructions must be an integer".to_string())?;
            if n == 0 {
                return Err("--max-instructions must be positive".to_string());
            }
            Ok(Some(n))
        }
        None => Ok(None),
    }
}

/// Parses the optional `--timing` backend selector shared by `gemm`,
/// `model` and `sweep` (defaults to the paper's in-order scoreboard).
fn parse_timing(opts: &HashMap<String, String>) -> Result<TimingKind, String> {
    match opts.get("timing") {
        Some(s) => s.parse(),
        None => Ok(TimingKind::InOrder),
    }
}

/// Applies the optional seed/guard overrides to a campaign config.
fn apply_overrides(cfg: &mut ExperimentConfig, seed: Option<u64>, max_instructions: Option<u64>) {
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if let Some(limit) = max_instructions {
        cfg.max_instructions = limit;
    }
}

/// Parses the argument vector (without the program name).
fn parse(args: &[String]) -> Result<Command, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE.to_string())?;
    let usage = usage_line(cmd).ok_or_else(|| format!("unknown command `{cmd}`\n{USAGE}"))?;
    let mut opts = HashMap::new();
    let mut rest = rest.iter();
    while let Some(flag) = rest.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("expected --option, got `{flag}`"))?;
        if !usage
            .split_whitespace()
            .any(|word| word.trim_start_matches('[') == flag)
        {
            return Err(format!("unknown flag `{flag}` for {cmd}\nusage: {usage}"));
        }
        let value = rest.next().ok_or(format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| opts.get(k).cloned();
    let get_usize = |k: &str, default: usize| -> Result<usize, String> {
        match opts.get(k) {
            Some(v) => v.parse().map_err(|_| format!("--{k} must be an integer")),
            None => Ok(default),
        }
    };
    match cmd.as_str() {
        "config" => Ok(Command::Config),
        "gemm" => {
            let rows = get_usize("rows", 0)?;
            let inner = get_usize("inner", 0)?;
            let cols = get_usize("cols", 0)?;
            if rows == 0 || inner == 0 || cols == 0 {
                return Err("gemm requires --rows, --inner and --cols".to_string());
            }
            let algorithm = match get("algorithm") {
                Some(a) => Some(a.parse()?),
                None => None,
            };
            let sew = match get("sew") {
                Some(s) => parse_sew(&s)?,
                None => Precision::F32,
            };
            // The walk-based baselines move values through the FP file
            // and have no quantized path.
            if sew.is_int() {
                if let Some(alg) = algorithm {
                    if !supports_int(alg) {
                        return Err(
                            "--sew 8|16 requires --algorithm indexmac or indexmac2".to_string()
                        );
                    }
                }
            }
            Ok(Command::Gemm {
                dims: GemmDims { rows, inner, cols },
                pattern: match get("pattern") {
                    Some(p) => p.parse()?,
                    None => NmPattern::P2_4,
                },
                algorithm,
                unroll: get_usize("unroll", 4)?,
                tile_rows: get_usize("tile-rows", 16)?,
                lmul: {
                    let lmul = match get("lmul") {
                        Some(l) => parse_lmul(&l)?,
                        None => 1,
                    };
                    // Only the second-generation kernel understands
                    // grouping; accepting the flag elsewhere would
                    // silently benchmark nothing.
                    if lmul > 1 && get("algorithm").as_deref() != Some("indexmac2") {
                        return Err("--lmul requires --algorithm indexmac2".to_string());
                    }
                    lmul
                },
                sew,
                seed: parse_seed(&opts)?,
                max_instructions: parse_max_instructions(&opts)?,
                timing: parse_timing(&opts)?,
            })
        }
        "layer" => Ok(Command::Layer {
            model: get("model").ok_or("layer requires --model")?,
            name: get("name").ok_or("layer requires --name")?,
            pattern: match get("pattern") {
                Some(p) => p.parse()?,
                None => NmPattern::P2_4,
            },
            seed: parse_seed(&opts)?,
        }),
        "model" => Ok(Command::Model {
            preset: get("preset").ok_or("model requires --preset")?,
            pattern: match get("pattern") {
                Some(p) => p.parse()?,
                None => NmPattern::P2_4,
            },
            seq_len: match get("seq-len") {
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| "--seq-len must be an integer".to_string())?,
                ),
                None => None,
            },
            sew: match get("sew") {
                Some(v) => Some(parse_sew(&v)?),
                None => None,
            },
            caps: match get("caps") {
                Some(v) => parse_caps(&v)?,
                None => GemmCaps::default_eval(),
            },
            seed: parse_seed(&opts)?,
            max_instructions: parse_max_instructions(&opts)?,
            timing: parse_timing(&opts)?,
        }),
        "list" => Ok(Command::List {
            model: get("model").ok_or("list requires --model")?,
        }),
        "lint" => {
            let algorithm = match get("algorithm") {
                None => None,
                Some(a) if a == "all" => None,
                Some(a) => Some(a.parse()?),
            };
            let sew = match get("sew") {
                Some(s) => Some(parse_sew(&s)?),
                None => None,
            };
            if let (Some(p), Some(alg)) = (sew, algorithm) {
                if p.is_int() && !supports_int(alg) {
                    return Err("--sew 8|16 requires --algorithm indexmac or indexmac2".to_string());
                }
            }
            let lmul = match get("lmul") {
                Some(l) => Some(parse_lmul(&l)?),
                None => None,
            };
            if let (Some(l), Some(alg)) = (lmul, algorithm) {
                if l > 1 && alg != Algorithm::IndexMac2 {
                    return Err("--lmul requires --algorithm indexmac2".to_string());
                }
            }
            Ok(Command::Lint {
                algorithm,
                dims: match get("dims") {
                    Some(d) => d.parse()?,
                    None => GemmDims {
                        rows: 16,
                        inner: 64,
                        cols: 64,
                    },
                },
                patterns: match get("patterns") {
                    Some(p) => parse_list(&p)?,
                    None => NmPattern::EVALUATED.to_vec(),
                },
                sew,
                lmul,
                unroll: get_usize("unroll", 4)?,
                tile_rows: get_usize("tile-rows", 16)?,
                format: match get("format") {
                    Some(f) => parse_format(&f)?,
                    None => OutputFormat::Table,
                },
            })
        }
        "sweep" => {
            let dims_spec = get("dims").ok_or("sweep requires --dims RxKxN[,RxKxN...]")?;
            let dims = parse_list(&dims_spec)?;
            let patterns = match get("patterns") {
                Some(p) => parse_list(&p)?,
                None => NmPattern::EVALUATED.to_vec(),
            };
            let dataflows = match get("dataflows").as_deref() {
                Some("all") => Dataflow::ALL.to_vec(),
                Some(f) => parse_list(f)?,
                None => vec![Dataflow::BStationary],
            };
            let seed = parse_seed(&opts)?;
            let threads = match get("threads") {
                Some(t) => {
                    let t: usize = t
                        .parse()
                        .map_err(|_| "--threads must be an integer".to_string())?;
                    if t == 0 {
                        return Err("--threads must be positive".to_string());
                    }
                    Some(t)
                }
                None => None,
            };
            let format = match get("format") {
                Some(f) => parse_format(&f)?,
                None => OutputFormat::Table,
            };
            let (sew, algorithm, baseline, lmul) = parse_campaign(&opts)?;
            Ok(Command::Sweep {
                dims,
                patterns,
                dataflows,
                seed,
                threads,
                format,
                algorithm,
                baseline,
                lmul,
                sew,
                max_instructions: parse_max_instructions(&opts)?,
                timing: parse_timing(&opts)?,
                store_dir: get("store-dir"),
            })
        }
        "serve" => {
            let store_dir = get("store-dir").ok_or("serve requires --store-dir DIR")?;
            let (sew, algorithm, baseline, lmul) = parse_campaign(&opts)?;
            Ok(Command::Serve {
                addr: get("addr").unwrap_or_else(|| "127.0.0.1:0".to_string()),
                threads: get_usize("threads", 0)?,
                store_dir,
                algorithm,
                baseline,
                lmul,
                sew,
                max_instructions: parse_max_instructions(&opts)?,
                timing: parse_timing(&opts)?,
            })
        }
        _ => unreachable!("usage_line knows every command"),
    }
}

/// The [`USAGE`] line of subcommand `cmd`: the one list of the flags it
/// accepts, so an unknown or misspelled flag is an error, never ignored.
fn usage_line(cmd: &str) -> Option<&'static str> {
    USAGE.lines().map(str::trim).find(|line| {
        line.strip_prefix("indexmac-cli ")
            .and_then(|rest| rest.split_whitespace().next())
            == Some(cmd)
    })
}

/// Parses the campaign axes `sweep` and `serve` share (`--sew`,
/// `--algorithm`, `--baseline`, `--lmul`), with the same defaulting
/// and validation rules — these feed [`indexmac::config_digest`], so
/// both commands must agree on them exactly.
fn parse_campaign(
    opts: &HashMap<String, String>,
) -> Result<(Precision, Algorithm, Algorithm, usize), String> {
    let sew = match opts.get("sew") {
        Some(s) => parse_sew(s)?,
        None => Precision::F32,
    };
    let algorithm = match opts.get("algorithm") {
        Some(a) => a.parse()?,
        // Quantized sweeps default to the kernel pair that owns
        // a widening path: vvi proposed, vx baseline.
        None if sew.is_int() => Algorithm::IndexMac2,
        None => Algorithm::IndexMac,
    };
    let baseline = match opts.get("baseline") {
        Some(a) => a.parse()?,
        // Comparing the two vindexmac generations is the whole
        // point of `--algorithm indexmac2`; default the baseline
        // to the first generation there, Row-Wise-SpMM otherwise.
        None if algorithm == Algorithm::IndexMac2 => Algorithm::IndexMac,
        None if sew.is_int() => Algorithm::IndexMac,
        None => Algorithm::RowWiseSpmm,
    };
    if sew.is_int() && (!supports_int(algorithm) || !supports_int(baseline)) {
        return Err("--sew 8|16 requires indexmac/indexmac2 on both comparison sides".to_string());
    }
    let lmul = match opts.get("lmul") {
        Some(l) => parse_lmul(l)?,
        None => 1,
    };
    if lmul > 1 && algorithm != Algorithm::IndexMac2 && baseline != Algorithm::IndexMac2 {
        return Err("--lmul requires indexmac2 as --algorithm or --baseline".to_string());
    }
    Ok((sew, algorithm, baseline, lmul))
}

const USAGE: &str = "usage:
  indexmac-cli config
  indexmac-cli gemm --rows R --inner K --cols N [--pattern N:M] [--algorithm dense|rowwise|indexmac|indexmac2|scalar] [--unroll U] [--tile-rows L] [--lmul 1|2|4] [--sew 8|16|32] [--timing inorder|pipelined|ooo] [--seed S] [--max-instructions I]
  indexmac-cli layer --model M --name NAME [--pattern N:M] [--seed S]
  indexmac-cli model --preset M [--pattern N:M] [--seq-len T] [--sew 8|16|32] [--caps smoke|eval|full] [--timing inorder|pipelined|ooo] [--seed S] [--max-instructions I]
  indexmac-cli list --model M
  indexmac-cli lint [--algorithm A|all] [--dims RxKxN] [--patterns N:M[,N:M...]] [--sew 8|16|32] [--lmul 1|2|4] [--unroll U] [--tile-rows L] [--format table|json|json-pretty]
  indexmac-cli sweep --dims RxKxN[,RxKxN...] [--patterns N:M[,N:M...]] [--dataflows a|b|c|all] [--algorithm A] [--baseline A] [--lmul 1|2|4] [--sew 8|16|32] [--timing inorder|pipelined|ooo] [--seed S] [--threads T] [--format table|json|json-pretty] [--max-instructions I] [--store-dir DIR]
  indexmac-cli serve --store-dir DIR [--addr HOST:PORT] [--threads T] [--algorithm A] [--baseline A] [--lmul 1|2|4] [--sew 8|16|32] [--timing inorder|pipelined|ooo] [--max-instructions I]

models: resnet50 | densenet121 | inceptionv3 | bert-base | gpt2-small | vit-b16, each also as <model>-int8 (e8 datapath)
transformer presets decompose into attention/FFN weight GEMMs; --seq-len rescales their batched columns
--sew 8|16 runs the quantized widening datapath (indexmac/indexmac2 only, bit-exact verification)
--timing selects the scalar-core timing backend: the paper's in-order scoreboard (default), an explicit 5-stage pipeline, or an out-of-order core (ROB/RS/RAT/LSQ); instret is backend-invariant
--max-instructions tunes the per-simulation runaway guard (default 2e9)
lint statically analyzes kernel builds without simulating (exit 1 on any diagnostic); unspecified lint axes sweep every shipped configuration
--store-dir DIR keeps a persistent content-addressed result store: sweep serves known cells from it and simulates only the rest; serve exposes it over HTTP (GET /healthz | GET /stats | GET /cell/<digest> | POST /sweep | POST /shutdown), binds --addr (port 0 = ephemeral, printed on stdout) and drains gracefully on POST /shutdown";

fn print_comparison(
    dims: GemmDims,
    pattern: NmPattern,
    cfg: &ExperimentConfig,
) -> Result<(), Failure> {
    let cmp = compare_gemm(dims, pattern, cfg).map_err(|e| e.to_string())?;
    outln!("{:<13} : {}", cfg.baseline.to_string(), cmp.baseline.report);
    outln!("{:<13} : {}", cfg.proposed.to_string(), cmp.proposed.report);
    outln!();
    outln!("speedup                 : {:.2}x", cmp.speedup());
    outln!("normalized mem accesses : {:.1}%", cmp.mem_ratio() * 100.0);
    outln!(
        "baseline bottleneck     : {}",
        analyze(&cmp.baseline.report, &cfg.sim)
    );
    outln!(
        "proposed bottleneck     : {}",
        analyze(&cmp.proposed.report, &cfg.sim)
    );
    Ok(())
}

/// Short element-type token for lint output.
fn precision_slug(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f32",
        Precision::I16 => "i16",
        Precision::I8 => "i8",
    }
}

/// Lints the requested kernel/precision/grouping/pattern matrix:
/// unspecified axes sweep every combination the kernels ship with,
/// which is exactly what the CI lint job runs.
fn run_lint(
    algorithm: Option<Algorithm>,
    dims: GemmDims,
    patterns: &[NmPattern],
    sew: Option<Precision>,
    lmul: Option<usize>,
    unroll: usize,
    tile_rows: usize,
) -> Result<Vec<LintResult>, String> {
    let algorithms: Vec<Algorithm> = match algorithm {
        Some(a) => vec![a],
        None => Algorithm::ALL.to_vec(),
    };
    let mut results = Vec::new();
    for &alg in &algorithms {
        let precisions: Vec<Precision> = match sew {
            Some(p) => {
                if p.is_int() && !supports_int(alg) {
                    continue; // walk-based kernels have no quantized path
                }
                vec![p]
            }
            None if supports_int(alg) => vec![Precision::F32, Precision::I16, Precision::I8],
            None => vec![Precision::F32],
        };
        for &precision in &precisions {
            let lmuls: Vec<usize> = match lmul {
                Some(l) => {
                    if l > 1 && alg != Algorithm::IndexMac2 {
                        continue; // only indexmac2 understands grouping
                    }
                    vec![l]
                }
                // The widening accumulator bounds the grouped register
                // budget: lmul * 32/SEW <= 4.
                None if alg == Algorithm::IndexMac2 => match precision {
                    Precision::F32 => vec![1, 2, 4],
                    Precision::I16 => vec![1, 2],
                    Precision::I8 => vec![1],
                },
                None => vec![1],
            };
            for &lm in &lmuls {
                for &pattern in patterns {
                    let cfg = ExperimentConfig {
                        precision,
                        lmul: lm,
                        tile_rows,
                        params: KernelParams {
                            unroll,
                            ..Default::default()
                        },
                        ..ExperimentConfig::paper()
                    };
                    results.push(lint_gemm(dims, pattern, alg, &cfg).map_err(|e| e.to_string())?);
                }
            }
        }
    }
    Ok(results)
}

/// Lint results as a serializable value tree (one object per config).
fn lint_value(results: &[LintResult]) -> serde_json::Value {
    use serde_json::Value;
    let json: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::object([
                ("kernel", Value::Str(r.algorithm.tag().into())),
                ("sew", Value::Str(precision_slug(r.precision).into())),
                ("lmul", Value::UInt(r.lmul as u64)),
                ("pattern", Value::Str(r.pattern.to_string())),
                ("gemm", Value::Str(r.gemm.to_string())),
                (
                    "static_instructions",
                    Value::UInt(r.static_instructions as u64),
                ),
                ("verified", Value::Bool(r.verified)),
                (
                    "diagnostics",
                    Value::Array(
                        r.diagnostics
                            .iter()
                            .map(|d| {
                                Value::object([
                                    ("rule", Value::Str(d.rule.id().into())),
                                    ("severity", Value::Str(d.severity.to_string())),
                                    ("confidence", Value::Str(d.confidence.to_string())),
                                    ("pc", Value::UInt(d.pc as u64)),
                                    ("message", Value::Str(d.message.clone())),
                                    ("hint", Value::Str(d.hint.into())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Value::object([
        ("results", Value::Array(json)),
        (
            "clean",
            Value::Bool(results.iter().all(|r| r.diagnostics.is_empty())),
        ),
    ])
}

/// Compact JSON rendering of lint results.
fn lint_json(results: &[LintResult]) -> String {
    serde_json::to_string(&lint_value(results)).expect("lint JSON serializes")
}

fn run(cmd: Command) -> Result<(), Failure> {
    match cmd {
        Command::Config => {
            outln!("{}", SimConfig::table_i());
            Ok(())
        }
        Command::Gemm {
            dims,
            pattern,
            algorithm,
            unroll,
            tile_rows,
            lmul,
            sew,
            seed,
            max_instructions,
            timing,
        } => {
            // Quantized comparisons default to the two vindexmac
            // generations (the walk-based baselines are f32-only).
            let base = if sew.is_int() {
                ExperimentConfig::quantized(sew)
            } else {
                ExperimentConfig::paper()
            };
            let mut cfg = ExperimentConfig {
                params: KernelParams {
                    unroll,
                    ..Default::default()
                },
                tile_rows,
                lmul,
                ..base
            }
            .with_timing(timing);
            apply_overrides(&mut cfg, seed, max_instructions);
            outln!(
                "GEMM {dims}, A pruned to {pattern}, {} elements, {timing} timing (simulated {:?})\n",
                cfg.precision,
                cfg.caps.apply(dims)
            );
            match algorithm {
                Some(alg) => {
                    let r = run_gemm(dims, pattern, alg, &cfg).map_err(|e| e.to_string())?;
                    outln!("{alg}:\n{}", r.report);
                    outln!("bottleneck: {}", analyze(&r.report, &cfg.sim));
                    if cfg.precision.is_int() {
                        outln!("verification: bit-exact against the i32 reference");
                    }
                    Ok(())
                }
                None => print_comparison(dims, pattern, &cfg),
            }
        }
        Command::Layer {
            model,
            name,
            pattern,
            seed,
        } => {
            let m = model_by_name(&model)?;
            let layer = m.layer(&name).ok_or(format!(
                "no layer `{name}` in {} (try `list --model {model}`)",
                m.name
            ))?;
            // Quantized presets run their layers on the e8 datapath;
            // transformer presets default to the vvi-vs-vx campaign.
            let mut cfg = if m.precision.is_int() {
                ExperimentConfig::quantized(m.precision)
            } else {
                config_for_family(m.family)
            };
            if let Some(seed) = seed {
                cfg.seed = seed;
            }
            outln!("{layer}  ({pattern}, {} elements)\n", m.precision);
            print_comparison(layer.gemm, pattern, &cfg)
        }
        Command::Model {
            preset,
            pattern,
            seq_len,
            sew,
            caps,
            seed,
            max_instructions,
            timing,
        } => {
            let mut m = preset_by_name(&preset, seq_len)?;
            if let Some(p) = sew {
                if p != m.precision {
                    // Drop a now-contradictory precision suffix before
                    // tagging the override (e.g. `-int8` + `--sew 32`).
                    let base = m.name.trim_end_matches("-int8").to_string();
                    let renamed = if p.is_int() {
                        format!("{base}-e{}", p.bits())
                    } else {
                        base
                    };
                    m = m.with_precision(renamed, p);
                }
            }
            let mut cfg = ExperimentConfig {
                caps,
                ..config_for_family(m.family)
            }
            .with_timing(timing);
            apply_overrides(&mut cfg, seed, max_instructions);
            indexmac::experiment::reset_decode_cache();
            outln!(
                "{}: {} {} layers ({} distinct GEMM shapes), {:.2} GMACs, {} elements, A pruned to {pattern}",
                m.name,
                m.layers.len(),
                m.family,
                m.unique_shapes().len(),
                m.total_macs() as f64 / 1e9,
                m.precision,
            );
            outln!(
                "caps: {} | seed {:#x} | {timing} timing\n",
                cfg.caps,
                cfg.seed
            );
            let c = compare_model(&m, pattern, &cfg).map_err(|e| e.to_string())?;
            let mut table = Table::new(vec![
                "layer",
                "GEMM (RxKxN)",
                "simulated",
                "cycles (base -> prop)",
                "instret (base -> prop)",
                "speedup",
                "normalized mem accesses",
            ]);
            for (layer, result) in m.layers.iter().zip(&c.layers) {
                let base = &result.comparison.baseline.report;
                let prop = &result.comparison.proposed.report;
                table.row(vec![
                    layer.name.clone(),
                    layer.gemm.to_string(),
                    result.comparison.proposed.gemm.to_string(),
                    fmt_pair(base.cycles, prop.cycles),
                    fmt_pair(base.instructions, prop.instructions),
                    fmt_speedup(result.comparison.speedup()),
                    fmt_pct(result.comparison.mem_ratio()),
                ]);
            }
            out!("{}", table.render());
            let (lo, hi) = c.speedup_range();
            // Report the kernels that actually ran: compare_model may
            // have reconciled the pair for a quantized preset.
            let ran = &c.layers[0].comparison;
            outln!(
                "baseline: {} | proposed: {} | {} elements",
                ran.baseline.algorithm,
                ran.proposed.algorithm,
                c.precision,
            );
            outln!(
                "total speedup {} | normalized mem accesses {} | per-layer range {}-{}",
                fmt_speedup(c.total_speedup()),
                fmt_pct(c.total_mem_ratio()),
                fmt_speedup(lo),
                fmt_speedup(hi),
            );
            outln!(
                "decode cache: {}",
                indexmac::experiment::decode_cache_stats()
            );
            Ok(())
        }
        Command::List { model } => {
            let m = model_by_name(&model)?;
            outln!("{m}");
            Ok(())
        }
        Command::Lint {
            algorithm,
            dims,
            patterns,
            sew,
            lmul,
            unroll,
            tile_rows,
            format,
        } => {
            let results = run_lint(algorithm, dims, &patterns, sew, lmul, unroll, tile_rows)?;
            let total_diags: usize = results.iter().map(|r| r.diagnostics.len()).sum();
            match format {
                OutputFormat::Json => outln!("{}", lint_json(&results)),
                OutputFormat::JsonPretty => outln!(
                    "{}",
                    serde_json::to_string_pretty(&lint_value(&results)).expect("serializes")
                ),
                OutputFormat::Table => {
                    let mut table = Table::new(vec![
                        "kernel",
                        "sew",
                        "lmul",
                        "pattern",
                        "GEMM (RxKxN)",
                        "instrs",
                        "diagnostics",
                        "verified",
                    ]);
                    for r in &results {
                        table.row(vec![
                            r.algorithm.tag().to_string(),
                            precision_slug(r.precision).to_string(),
                            r.lmul.to_string(),
                            r.pattern.to_string(),
                            r.gemm.to_string(),
                            r.static_instructions.to_string(),
                            r.diagnostics.len().to_string(),
                            if r.verified { "yes" } else { "NO" }.to_string(),
                        ]);
                    }
                    out!("{}", table.render());
                    for r in &results {
                        for d in &r.diagnostics {
                            outln!(
                                "{} {} lmul{} {}: {d}",
                                r.algorithm.tag(),
                                precision_slug(r.precision),
                                r.lmul,
                                r.pattern
                            );
                        }
                    }
                    outln!(
                        "{} kernel configurations linted, {} diagnostics",
                        results.len(),
                        total_diags
                    );
                }
            }
            if total_diags > 0 {
                return Err(format!(
                    "lint found {total_diags} diagnostics across {} configurations",
                    results.len()
                )
                .into());
            }
            Ok(())
        }
        Command::Sweep {
            dims,
            patterns,
            dataflows,
            seed,
            threads,
            format,
            algorithm,
            baseline,
            lmul,
            sew,
            max_instructions,
            timing,
            store_dir,
        } => {
            let mut cfg = ExperimentConfig {
                baseline,
                proposed: algorithm,
                lmul,
                precision: sew,
                ..ExperimentConfig::paper()
            }
            .with_timing(timing);
            apply_overrides(&mut cfg, None, max_instructions);
            let mut grid = SweepGrid::new(patterns, dims).with_dataflows(dataflows);
            if let Some(seed) = seed {
                grid = grid.with_base_seed(seed);
            }
            // With a store, the grid runs through the daemon, as under
            // `serve`: only cells whose digest is absent simulate. The
            // result is bit-identical to a fresh run either way, so
            // stdout stays stable and the store note goes to stderr.
            let threads = threads.unwrap_or_else(available_threads);
            let result = match &store_dir {
                Some(dir) => {
                    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
                    let service = SweepService::start(cfg, store, threads);
                    let (result, routed) = service.sweep_grid(&grid)?;
                    service.shutdown().map_err(|e| e.to_string())?;
                    let hits = routed
                        .iter()
                        .filter(|(_, status)| *status == CellStatus::Hit)
                        .count();
                    eprintln!("store {dir}: {hits} hits, {} computed", routed.len() - hits);
                    result
                }
                None => run_grid(&grid, &cfg, threads)?,
            };
            match format {
                OutputFormat::Json => outln!("{}", result.to_json()),
                OutputFormat::JsonPretty => outln!("{}", result.to_json_pretty()),
                OutputFormat::Table => {
                    outln!(
                        "baseline: {} | proposed: {}{} | {} elements | {} timing",
                        cfg.baseline,
                        cfg.proposed,
                        if cfg.proposed == Algorithm::IndexMac2 {
                            format!(" (lmul {})", cfg.lmul)
                        } else {
                            String::new()
                        },
                        cfg.precision,
                        result.timing,
                    );
                    let mut table = Table::new(vec![
                        "GEMM (RxKxN)",
                        "pattern",
                        "dataflow",
                        "seed",
                        "cycles (base -> prop)",
                        "instret (base -> prop)",
                        "speedup",
                        "normalized mem accesses",
                    ]);
                    for cell in &result.cells {
                        let base = &cell.comparison.baseline.report;
                        let prop = &cell.comparison.proposed.report;
                        table.row(vec![
                            cell.cell.dims.to_string(),
                            cell.cell.pattern.to_string(),
                            cell.cell.dataflow.to_string(),
                            format!("{:#x}", cell.cell.seed),
                            fmt_pair(base.cycles, prop.cycles),
                            fmt_pair(base.instructions, prop.instructions),
                            fmt_speedup(cell.speedup()),
                            fmt_pct(cell.mem_ratio()),
                        ]);
                    }
                    out!("{}", table.render());
                    if let (Some((lo, hi)), Some(geo)) =
                        (result.speedup_range(), result.geomean_speedup())
                    {
                        outln!(
                            "{} cells on {} threads | speedup range {}-{} | geomean {}",
                            result.cells.len(),
                            result.threads,
                            fmt_speedup(lo),
                            fmt_speedup(hi),
                            fmt_speedup(geo),
                        );
                    }
                }
            }
            Ok(())
        }
        Command::Serve {
            addr,
            threads,
            store_dir,
            algorithm,
            baseline,
            lmul,
            sew,
            max_instructions,
            timing,
        } => {
            let mut cfg = ExperimentConfig {
                baseline,
                proposed: algorithm,
                lmul,
                precision: sew,
                ..ExperimentConfig::paper()
            }
            .with_timing(timing);
            apply_overrides(&mut cfg, None, max_instructions);
            let store = ResultStore::open(&store_dir).map_err(|e| e.to_string())?;
            let threads = if threads == 0 {
                available_threads()
            } else {
                threads
            };
            let service = SweepService::start(cfg, store, threads);
            let listener = std::net::TcpListener::bind(&addr).map_err(|e| e.to_string())?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            // Scripts (the CI smoke) scrape this line for the bound
            // ephemeral port — keep the `http://host:port` shape.
            outln!("listening on http://{local} | {threads} workers | store {store_dir}");
            indexmac_service::http::serve(&service, listener).map_err(|e| e.to_string())?;
            outln!("drained and stopped");
            Ok(())
        }
    }
}

/// Why a command stopped.
#[derive(Debug)]
enum Failure {
    /// An error to report on stderr.
    Message(String),
    /// Writing to stdout failed.
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Message(message) => f.write_str(message),
            Failure::Stdout(e) => write!(f, "writing to stdout: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).map_err(Failure::from).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`indexmac-cli list | head -1`): nothing
        // is left to say, so stop quietly.
        Err(Failure::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_config_and_list() {
        assert_eq!(parse(&argv("config")).unwrap(), Command::Config);
        assert_eq!(
            parse(&argv("list --model resnet50")).unwrap(),
            Command::List {
                model: "resnet50".into()
            }
        );
    }

    #[test]
    fn parse_lint_defaults_and_overrides() {
        assert_eq!(
            parse(&argv("lint")).unwrap(),
            Command::Lint {
                algorithm: None,
                dims: GemmDims {
                    rows: 16,
                    inner: 64,
                    cols: 64
                },
                patterns: NmPattern::EVALUATED.to_vec(),
                sew: None,
                lmul: None,
                unroll: 4,
                tile_rows: 16,
                format: OutputFormat::Table,
            }
        );
        let c = parse(&argv(
            "lint --algorithm indexmac2 --sew 8 --patterns 1:4 --dims 8x32x32 --format json",
        ))
        .unwrap();
        match c {
            Command::Lint {
                algorithm,
                sew,
                patterns,
                dims,
                format,
                ..
            } => {
                assert_eq!(algorithm, Some(Algorithm::IndexMac2));
                assert_eq!(sew, Some(Precision::I8));
                assert_eq!(patterns, vec![NmPattern::P1_4]);
                assert_eq!(dims.inner, 32);
                assert_eq!(format, OutputFormat::Json);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // `all` is the explicit spelling of the default.
        assert!(matches!(
            parse(&argv("lint --algorithm all")).unwrap(),
            Command::Lint {
                algorithm: None,
                ..
            }
        ));
        // Constraint checks mirror the run subcommands.
        assert!(parse(&argv("lint --algorithm rowwise --sew 8")).is_err());
        assert!(parse(&argv("lint --algorithm indexmac --lmul 2")).is_err());
    }

    #[test]
    fn lint_matrix_is_clean_and_full() {
        // The full shipped-configuration sweep (what CI runs) must lint
        // with zero diagnostics, and every config must mint a token.
        let dims = GemmDims {
            rows: 8,
            inner: 32,
            cols: 32,
        };
        let results = run_lint(None, dims, &NmPattern::EVALUATED, None, None, 4, 16).unwrap();
        // 3 walk kernels (f32 only) + indexmac (3 precisions) +
        // indexmac2 (f32 x {1,2,4} + i16 x {1,2} + i8), per pattern.
        assert_eq!(results.len(), (3 + 3 + 6) * NmPattern::EVALUATED.len());
        for r in &results {
            assert!(
                r.diagnostics.is_empty(),
                "{} {} lmul{} {}: {:?}",
                r.algorithm.tag(),
                precision_slug(r.precision),
                r.lmul,
                r.pattern,
                r.diagnostics
            );
            assert!(r.verified);
        }
        // JSON shape sanity.
        let serde_json::Value::Object(fields) = lint_value(&results) else {
            panic!("lint JSON root must be an object");
        };
        assert_eq!(fields[1], ("clean".into(), serde_json::Value::Bool(true)));
        let serde_json::Value::Array(rows) = &fields[0].1 else {
            panic!("results must be an array");
        };
        assert_eq!(rows.len(), results.len());
        assert!(lint_json(&results).contains("\"clean\""));
    }

    #[test]
    fn parse_gemm_defaults_and_overrides() {
        let c = parse(&argv("gemm --rows 8 --inner 32 --cols 16")).unwrap();
        assert_eq!(
            c,
            Command::Gemm {
                dims: GemmDims {
                    rows: 8,
                    inner: 32,
                    cols: 16
                },
                pattern: NmPattern::P2_4,
                algorithm: None,
                unroll: 4,
                tile_rows: 16,
                lmul: 1,
                sew: Precision::F32,
                seed: None,
                max_instructions: None,
                timing: TimingKind::InOrder,
            }
        );
        let c = parse(&argv(
            "gemm --rows 8 --inner 32 --cols 16 --pattern 1:4 --algorithm indexmac2 --unroll 2 --tile-rows 8 --lmul 2 --seed 99",
        ))
        .unwrap();
        match c {
            Command::Gemm {
                pattern,
                algorithm,
                unroll,
                tile_rows,
                lmul,
                seed,
                ..
            } => {
                assert_eq!(pattern, NmPattern::P1_4);
                assert_eq!(algorithm, Some(Algorithm::IndexMac2));
                assert_eq!(unroll, 2);
                assert_eq!(tile_rows, 8);
                assert_eq!(lmul, 2);
                assert_eq!(seed, Some(99));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_sew_flags() {
        let c = parse(&argv(
            "gemm --rows 8 --inner 32 --cols 16 --algorithm indexmac2 --sew 8",
        ))
        .unwrap();
        match c {
            Command::Gemm { sew, .. } => assert_eq!(sew, Precision::I8),
            other => panic!("wrong parse: {other:?}"),
        }
        // Comparison mode accepts --sew (it pairs the vindexmac kernels).
        let c = parse(&argv("gemm --rows 8 --inner 32 --cols 16 --sew 16")).unwrap();
        match c {
            Command::Gemm { sew, algorithm, .. } => {
                assert_eq!(sew, Precision::I16);
                assert_eq!(algorithm, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // f32-only kernels reject quantized SEWs at parse time.
        assert!(parse(&argv(
            "gemm --rows 8 --inner 32 --cols 16 --algorithm rowwise --sew 8"
        ))
        .unwrap_err()
        .contains("indexmac"));
        assert!(parse(&argv("gemm --rows 8 --inner 32 --cols 16 --sew 64"))
            .unwrap_err()
            .contains("sew"));
        // Sweep: --sew 8 defaults to the vvi-vs-vx pair.
        let c = parse(&argv("sweep --dims 8x32x16 --sew 8")).unwrap();
        match c {
            Command::Sweep {
                sew,
                algorithm,
                baseline,
                ..
            } => {
                assert_eq!(sew, Precision::I8);
                assert_eq!(algorithm, Algorithm::IndexMac2);
                assert_eq!(baseline, Algorithm::IndexMac);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(
            parse(&argv("sweep --dims 8x32x16 --sew 8 --baseline rowwise"))
                .unwrap_err()
                .contains("both comparison sides")
        );
    }

    #[test]
    fn parse_max_instructions_flag() {
        // Accepted on gemm/model/sweep; 0 and non-integers rejected.
        let c = parse(&argv(
            "gemm --rows 8 --inner 32 --cols 16 --max-instructions 500",
        ))
        .unwrap();
        match c {
            Command::Gemm {
                max_instructions, ..
            } => assert_eq!(max_instructions, Some(500)),
            other => panic!("wrong parse: {other:?}"),
        }
        let c = parse(&argv("model --preset bert-base --max-instructions 1000")).unwrap();
        match c {
            Command::Model {
                max_instructions, ..
            } => assert_eq!(max_instructions, Some(1000)),
            other => panic!("wrong parse: {other:?}"),
        }
        let c = parse(&argv("sweep --dims 8x32x16 --max-instructions 2000")).unwrap();
        match c {
            Command::Sweep {
                max_instructions, ..
            } => assert_eq!(max_instructions, Some(2000)),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv(
            "gemm --rows 8 --inner 32 --cols 16 --max-instructions 0"
        ))
        .unwrap_err()
        .contains("positive"));
        assert!(parse(&argv("sweep --dims 8x32x16 --max-instructions lots"))
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn tight_max_instructions_fails_the_run() {
        let err = run(Command::Gemm {
            dims: GemmDims {
                rows: 4,
                inner: 16,
                cols: 8,
            },
            pattern: NmPattern::P1_4,
            algorithm: Some(Algorithm::IndexMac),
            unroll: 2,
            tile_rows: 16,
            lmul: 1,
            sew: Precision::F32,
            seed: None,
            max_instructions: Some(5),
            timing: TimingKind::InOrder,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("instruction limit"), "got: {err}");
    }

    #[test]
    fn parse_seed_on_gemm_and_layer() {
        let c = parse(&argv("layer --model resnet50 --name conv1 --seed 123")).unwrap();
        assert_eq!(
            c,
            Command::Layer {
                model: "resnet50".into(),
                name: "conv1".into(),
                pattern: NmPattern::P2_4,
                seed: Some(123),
            }
        );
        assert!(parse(&argv("gemm --rows 8 --inner 32 --cols 16 --seed x"))
            .unwrap_err()
            .contains("integer"));
        assert!(parse(&argv("layer --model resnet50 --name conv1 --seed x"))
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn int8_model_presets_resolve() {
        let m = model_by_name("resnet50-int8").unwrap();
        assert_eq!(m.name, "ResNet50-int8");
        assert!(m.precision.is_int());
        assert!(model_by_name("densenet121-int8").is_ok());
        assert!(model_by_name("inceptionv3-int8").is_ok());
    }

    #[test]
    fn transformer_presets_resolve() {
        use indexmac::kernels::ElemType;
        for (name, want) in [
            ("bert-base", "BERT-base"),
            ("gpt2-small", "GPT-2-small"),
            ("vit-b16", "ViT-B/16"),
        ] {
            let m = model_by_name(name).unwrap();
            assert_eq!(m.name, want);
            assert_eq!(m.family, ModelFamily::Transformer);
            assert_eq!(m.layers.len(), 72);
            let q = model_by_name(&format!("{name}-int8")).unwrap();
            assert_eq!(q.precision, ElemType::I8);
            assert_eq!(q.name, format!("{want}-int8"));
            assert_eq!(q.layers, m.layers);
        }
        // --seq-len rescales transformer columns and is rejected for CNNs.
        let short = preset_by_name("bert-base", Some(32)).unwrap();
        assert!(short.layers.iter().all(|l| l.gemm.cols == 32));
        assert!(preset_by_name("resnet50", Some(32))
            .unwrap_err()
            .contains("transformer"));
        // An unknown name reports the name, not the --seq-len flag.
        assert!(preset_by_name("bert-bas", Some(32))
            .unwrap_err()
            .contains("unknown model"));
        assert!(preset_by_name("bert-base", Some(0))
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn parse_model_command() {
        let c = parse(&argv(
            "model --preset bert-base --seq-len 64 --sew 8 --caps smoke --seed 9",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Model {
                preset: "bert-base".into(),
                pattern: NmPattern::P2_4,
                seq_len: Some(64),
                sew: Some(Precision::I8),
                caps: GemmCaps::smoke(),
                seed: Some(9),
                max_instructions: None,
                timing: TimingKind::InOrder,
            }
        );
        let c = parse(&argv("model --preset gpt2-small --pattern 1:4")).unwrap();
        assert_eq!(
            c,
            Command::Model {
                preset: "gpt2-small".into(),
                pattern: NmPattern::P1_4,
                seq_len: None,
                sew: None,
                caps: GemmCaps::default_eval(),
                seed: None,
                max_instructions: None,
                timing: TimingKind::InOrder,
            }
        );
        assert!(parse(&argv("model")).unwrap_err().contains("preset"));
        assert!(parse(&argv("model --preset bert-base --caps tiny"))
            .unwrap_err()
            .contains("caps"));
        assert!(parse(&argv("model --preset bert-base --seq-len x"))
            .unwrap_err()
            .contains("integer"));
        assert!(parse(&argv("model --preset bert-base --sew 64"))
            .unwrap_err()
            .contains("sew"));
    }

    #[test]
    fn run_transformer_model_and_layer_smoke() {
        // The whole-network table at smoke caps: 3 distinct shapes.
        run(Command::Model {
            preset: "bert-base".into(),
            pattern: NmPattern::P1_4,
            seq_len: Some(16),
            sew: None,
            caps: GemmCaps::smoke(),
            seed: None,
            max_instructions: None,
            timing: TimingKind::InOrder,
        })
        .unwrap();
        // A quantized preset plus an explicit --sew override both run.
        run(Command::Model {
            preset: "vit-b16-int8".into(),
            pattern: NmPattern::P2_4,
            seq_len: Some(16),
            sew: None,
            caps: GemmCaps::smoke(),
            seed: Some(3),
            max_instructions: None,
            timing: TimingKind::InOrder,
        })
        .unwrap();
        run(Command::Model {
            preset: "gpt2-small".into(),
            pattern: NmPattern::P2_4,
            seq_len: Some(16),
            sew: Some(Precision::I16),
            caps: GemmCaps::smoke(),
            seed: None,
            max_instructions: None,
            timing: TimingKind::InOrder,
        })
        .unwrap();
        // A single transformer layer through the layer command.
        run(Command::Layer {
            model: "bert-base-int8".into(),
            name: "block0.ffn.up".into(),
            pattern: NmPattern::P2_4,
            seed: None,
        })
        .unwrap();
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse(&argv("gemm --rows 8"))
            .unwrap_err()
            .contains("requires"));
        assert!(parse(&argv("gemm --rows x --inner 1 --cols 1"))
            .unwrap_err()
            .contains("integer"));
        assert!(parse(&argv("frob"))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&argv("gemm --rows"))
            .unwrap_err()
            .contains("needs a value"));
        assert!("5".parse::<NmPattern>().is_err());
        assert!("9:4".parse::<NmPattern>().is_err());
        assert!("gpu".parse::<Algorithm>().is_err());
        assert!(model_by_name("vgg").is_err());
    }

    /// `base` parses; the same line with a misspelled flag fails and
    /// names it; and every flag of the command's usage line is known.
    fn assert_strict_flags(base: &str) {
        parse(&argv(base)).unwrap();
        let err = parse(&argv(&format!("{base} --seeed 5"))).unwrap_err();
        assert!(err.contains("unknown flag `--seeed`"), "{base}: {err}");
        let cmd = base.split_whitespace().next().unwrap();
        for flag in usage_line(cmd).unwrap().split_whitespace() {
            let flag = flag.trim_start_matches('[');
            if flag.starts_with("--") {
                let err = parse(&argv(&format!("{base} {flag} 1"))).err();
                assert!(
                    !err.unwrap_or_default().contains("unknown flag"),
                    "{cmd} rejects its own {flag}"
                );
            }
        }
    }

    #[test]
    fn config_rejects_unknown_flags() {
        assert_strict_flags("config");
    }

    #[test]
    fn gemm_rejects_unknown_flags() {
        assert_strict_flags("gemm --rows 8 --inner 32 --cols 16");
        // A flag of another subcommand is unknown here too.
        assert!(
            parse(&argv("gemm --rows 8 --inner 32 --cols 16 --store-dir s"))
                .unwrap_err()
                .contains("`--store-dir`")
        );
    }

    #[test]
    fn layer_rejects_unknown_flags() {
        assert_strict_flags("layer --model resnet50 --name conv1");
    }

    #[test]
    fn model_rejects_unknown_flags() {
        assert_strict_flags("model --preset bert-base");
    }

    #[test]
    fn list_rejects_unknown_flags() {
        assert_strict_flags("list --model resnet50");
    }

    #[test]
    fn lint_rejects_unknown_flags() {
        assert_strict_flags("lint");
    }

    #[test]
    fn sweep_rejects_unknown_flags() {
        assert_strict_flags("sweep --dims 8x64x32");
        // The underscore spelling of --store-dir must not silently run
        // without a store.
        assert!(parse(&argv("sweep --dims 8x64x32 --store_dir s"))
            .unwrap_err()
            .contains("`--store_dir`"));
    }

    #[test]
    fn serve_rejects_unknown_flags() {
        assert_strict_flags("serve --store-dir s");
    }

    #[test]
    fn parse_sweep_defaults_and_overrides() {
        let c = parse(&argv("sweep --dims 8x32x16")).unwrap();
        assert_eq!(
            c,
            Command::Sweep {
                dims: vec![GemmDims {
                    rows: 8,
                    inner: 32,
                    cols: 16
                }],
                patterns: NmPattern::EVALUATED.to_vec(),
                dataflows: vec![Dataflow::BStationary],
                seed: None,
                max_instructions: None,
                threads: None,
                format: OutputFormat::Table,
                algorithm: Algorithm::IndexMac,
                baseline: Algorithm::RowWiseSpmm,
                lmul: 1,
                sew: Precision::F32,
                timing: TimingKind::InOrder,
                store_dir: None,
            }
        );
        let c = parse(&argv(
            "sweep --dims 8x32x16,16x64x32 --patterns 1:4 --dataflows all --seed 7 --threads 2 --format json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Sweep {
                dims: vec![
                    GemmDims {
                        rows: 8,
                        inner: 32,
                        cols: 16
                    },
                    GemmDims {
                        rows: 16,
                        inner: 64,
                        cols: 32
                    },
                ],
                patterns: vec![NmPattern::P1_4],
                dataflows: Dataflow::ALL.to_vec(),
                seed: Some(7),
                max_instructions: None,
                threads: Some(2),
                format: OutputFormat::Json,
                algorithm: Algorithm::IndexMac,
                baseline: Algorithm::RowWiseSpmm,
                lmul: 1,
                sew: Precision::F32,
                timing: TimingKind::InOrder,
                store_dir: None,
            }
        );
    }

    #[test]
    fn parse_sweep_second_generation_flags() {
        // `--algorithm indexmac2` defaults the baseline to the first
        // generation, so the sweep reports vvi-vs-vx out of the box.
        let c = parse(&argv("sweep --dims 8x32x16 --algorithm indexmac2 --lmul 2")).unwrap();
        match c {
            Command::Sweep {
                algorithm,
                baseline,
                lmul,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::IndexMac2);
                assert_eq!(baseline, Algorithm::IndexMac);
                assert_eq!(lmul, 2);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // An explicit baseline wins.
        let c = parse(&argv(
            "sweep --dims 8x32x16 --algorithm indexmac2 --baseline rowwise",
        ))
        .unwrap();
        match c {
            Command::Sweep {
                algorithm,
                baseline,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::IndexMac2);
                assert_eq!(baseline, Algorithm::RowWiseSpmm);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("sweep --dims 8x32x16 --lmul 3"))
            .unwrap_err()
            .contains("lmul"));
        assert!(parse(&argv("sweep --dims 8x32x16 --algorithm gpu"))
            .unwrap_err()
            .contains("algorithm"));
        // Grouping without a second-generation side is rejected, not
        // silently ignored.
        assert!(parse(&argv("sweep --dims 8x32x16 --lmul 2"))
            .unwrap_err()
            .contains("indexmac2"));
        assert!(parse(&argv("gemm --rows 8 --inner 32 --cols 16 --lmul 2"))
            .unwrap_err()
            .contains("indexmac2"));
        assert!(parse(&argv(
            "gemm --rows 8 --inner 32 --cols 16 --algorithm indexmac --lmul 2"
        ))
        .unwrap_err()
        .contains("indexmac2"));
    }

    #[test]
    fn parse_sweep_errors() {
        assert!(parse(&argv("sweep"))
            .unwrap_err()
            .contains("requires --dims"));
        assert!(parse(&argv("sweep --dims 8x32"))
            .unwrap_err()
            .contains("RxKxN"));
        assert!(parse(&argv("sweep --dims 0x32x16"))
            .unwrap_err()
            .contains("RxKxN"));
        assert!(parse(&argv("sweep --dims 8x32x16 --dataflows d"))
            .unwrap_err()
            .contains("dataflow"));
        assert!(parse(&argv("sweep --dims 8x32x16 --format csv"))
            .unwrap_err()
            .contains("format"));
        assert!(parse(&argv("sweep --dims 8x32x16 --threads 0"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("sweep --dims 8x32x16 --seed x"))
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn run_small_sweep_all_formats() {
        for format in [
            OutputFormat::Table,
            OutputFormat::Json,
            OutputFormat::JsonPretty,
        ] {
            run(Command::Sweep {
                dims: vec![GemmDims {
                    rows: 4,
                    inner: 16,
                    cols: 8,
                }],
                patterns: vec![NmPattern::P1_4],
                dataflows: vec![Dataflow::BStationary],
                seed: Some(3),
                max_instructions: None,
                threads: Some(2),
                format,
                algorithm: Algorithm::IndexMac,
                baseline: Algorithm::RowWiseSpmm,
                lmul: 1,
                sew: Precision::F32,
                timing: TimingKind::InOrder,
                store_dir: None,
            })
            .unwrap();
        }
    }

    #[test]
    fn run_second_generation_sweep() {
        run(Command::Sweep {
            dims: vec![GemmDims {
                rows: 4,
                inner: 16,
                cols: 8,
            }],
            patterns: NmPattern::EVALUATED.to_vec(),
            dataflows: vec![Dataflow::BStationary],
            seed: Some(3),
            max_instructions: None,
            threads: Some(2),
            format: OutputFormat::Table,
            algorithm: Algorithm::IndexMac2,
            baseline: Algorithm::IndexMac,
            lmul: 2,
            sew: Precision::F32,
            timing: TimingKind::InOrder,
            store_dir: None,
        })
        .unwrap();
    }

    #[test]
    fn parse_serve_and_store_flags() {
        let c = parse(&argv("sweep --dims 8x32x16 --store-dir /tmp/s")).unwrap();
        match c {
            Command::Sweep { store_dir, .. } => {
                assert_eq!(store_dir.as_deref(), Some("/tmp/s"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let c = parse(&argv("serve --store-dir /tmp/s")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                threads: 0,
                store_dir: "/tmp/s".into(),
                algorithm: Algorithm::IndexMac,
                baseline: Algorithm::RowWiseSpmm,
                lmul: 1,
                sew: Precision::F32,
                max_instructions: None,
                timing: TimingKind::InOrder,
            }
        );
        // The campaign axes obey the same defaulting rules as `sweep`
        // (they feed the digest, so they must agree).
        let c = parse(&argv(
            "serve --store-dir /tmp/s --addr 0.0.0.0:8080 --threads 4 --sew 8",
        ))
        .unwrap();
        match c {
            Command::Serve {
                addr,
                threads,
                sew,
                algorithm,
                baseline,
                ..
            } => {
                assert_eq!(addr, "0.0.0.0:8080");
                assert_eq!(threads, 4);
                assert_eq!(sew, Precision::I8);
                assert_eq!(algorithm, Algorithm::IndexMac2);
                assert_eq!(baseline, Algorithm::IndexMac);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("serve")).unwrap_err().contains("store-dir"));
        assert!(parse(&argv("serve --store-dir /tmp/s --lmul 3"))
            .unwrap_err()
            .contains("lmul"));
    }

    #[test]
    fn run_sweep_with_store_dir_twice() {
        let dir = std::env::temp_dir().join(format!("indexmac-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = || Command::Sweep {
            dims: vec![GemmDims {
                rows: 4,
                inner: 16,
                cols: 8,
            }],
            patterns: vec![NmPattern::P1_4],
            dataflows: vec![Dataflow::BStationary],
            seed: Some(3),
            max_instructions: None,
            threads: Some(2),
            format: OutputFormat::Json,
            algorithm: Algorithm::IndexMac,
            baseline: Algorithm::RowWiseSpmm,
            lmul: 1,
            sew: Precision::F32,
            timing: TimingKind::InOrder,
            store_dir: Some(dir.to_string_lossy().into_owned()),
        };
        run(cmd()).unwrap(); // cold: simulates and persists
        run(cmd()).unwrap(); // warm: served entirely from the store
        assert!(dir.join("results.log").exists());
        assert!(dir.join("index.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_config_and_small_gemm() {
        run(Command::Config).unwrap();
        run(Command::Gemm {
            dims: GemmDims {
                rows: 4,
                inner: 16,
                cols: 8,
            },
            pattern: NmPattern::P1_4,
            algorithm: Some(Algorithm::IndexMac),
            unroll: 2,
            tile_rows: 16,
            lmul: 1,
            sew: Precision::F32,
            seed: None,
            max_instructions: None,
            timing: TimingKind::InOrder,
        })
        .unwrap();
        run(Command::Gemm {
            dims: GemmDims {
                rows: 4,
                inner: 16,
                cols: 8,
            },
            pattern: NmPattern::P1_4,
            algorithm: Some(Algorithm::IndexMac2),
            unroll: 4,
            tile_rows: 16,
            lmul: 4,
            sew: Precision::F32,
            seed: None,
            max_instructions: None,
            timing: TimingKind::InOrder,
        })
        .unwrap();
        // The acceptance path: quantized vvi run, bit-exact verification.
        run(Command::Gemm {
            dims: GemmDims {
                rows: 4,
                inner: 16,
                cols: 8,
            },
            pattern: NmPattern::P1_4,
            algorithm: Some(Algorithm::IndexMac2),
            unroll: 4,
            tile_rows: 16,
            lmul: 1,
            sew: Precision::I8,
            seed: Some(5),
            max_instructions: None,
            timing: TimingKind::InOrder,
        })
        .unwrap();
    }

    #[test]
    fn parse_timing_flag_on_gemm_model_and_sweep() {
        let c = parse(&argv("gemm --rows 8 --inner 32 --cols 16 --timing ooo")).unwrap();
        match c {
            Command::Gemm { timing, .. } => assert_eq!(timing, TimingKind::OutOfOrder),
            other => panic!("wrong parse: {other:?}"),
        }
        let c = parse(&argv("model --preset bert-base --timing pipelined")).unwrap();
        match c {
            Command::Model { timing, .. } => assert_eq!(timing, TimingKind::Pipelined),
            other => panic!("wrong parse: {other:?}"),
        }
        let c = parse(&argv("sweep --dims 8x32x16 --timing inorder")).unwrap();
        match c {
            Command::Sweep { timing, .. } => assert_eq!(timing, TimingKind::InOrder),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(
            parse(&argv("gemm --rows 8 --inner 32 --cols 16 --timing warp"))
                .unwrap_err()
                .contains("timing backend")
        );
        assert!(USAGE.contains("--timing inorder|pipelined|ooo"));
    }

    #[test]
    fn run_gemm_smoke_under_every_backend() {
        for kind in TimingKind::ALL {
            run(Command::Gemm {
                dims: GemmDims {
                    rows: 4,
                    inner: 16,
                    cols: 8,
                },
                pattern: NmPattern::P1_4,
                algorithm: None,
                unroll: 2,
                tile_rows: 16,
                lmul: 1,
                sew: Precision::F32,
                seed: None,
                max_instructions: None,
                timing: kind,
            })
            .unwrap();
        }
    }

    #[test]
    fn run_layer_lookup_failure() {
        let err = run(Command::Layer {
            model: "resnet50".into(),
            name: "nope".into(),
            pattern: NmPattern::P1_4,
            seed: None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("no layer"));
    }
}
