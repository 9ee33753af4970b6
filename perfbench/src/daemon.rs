//! `daemon-mixed`: an in-process `SweepService` with one worker behind
//! `indexmac_service::http::serve` on loopback, and one closed-loop
//! client.
//!
//! Set-up opens a fresh store and primes it with 16 capped BERT-FFN
//! cells (up and down projections, 1:4 and 2:4, four seeds), which also
//! warms the worker's decode cache. The client then sends rounds of
//! single-cell `POST /sweep` requests until `--seconds` have passed. Each
//! round is the same mix of work: [`ROUND_HITS`] re-requests of primed
//! cells, served from the store without simulating, and [`ROUND_MISSES`]
//! 1:4 cells on fresh seeds, which simulate on the warm worker (no front
//! end) and are written to the store beside the reads. A round takes half
//! a second to a second, and `wall_s` is the median round, which a spell
//! of the host moves only if it covers half the run.

use crate::http::{
    parse_reply, request, service_layers, single_cell, sweep_reply, sweep_request, Server,
};
use crate::replica::Replica;
use crate::stats::{median, SplitMix64};
use crate::trace;
use crate::{Report, SimTotals};
use indexmac::experiment::{decode_cache_stats, reset_decode_cache, ExperimentConfig};
use indexmac::sweep::{run_cell, CellResult};
use indexmac_kernels::GemmDims;
use indexmac_models::bert_base;
use indexmac_service::ResultStore;
use indexmac_sparse::NmPattern;
use std::path::Path;
use std::time::Instant;

/// Store hits per round: each primed cell twice.
pub const ROUND_HITS: usize = 32;
/// Fresh-seed cells per round (a fifth of its requests).
pub const ROUND_MISSES: usize = 8;
/// Rounds a run makes at least: two windows of hits, and the misses the
/// simulated totals cover.
const MIN_ROUNDS: usize = 13;
/// Rounds one daemon serves: with the primed cells that is 248 puts,
/// under the 256 after which its store rewrites and fsyncs its index.
pub const MAX_ROUNDS: usize = 29;
/// Misses the traced run replays in-process (with every primed cell).
const TRACED_MISSES: usize = 50;
/// Seeds the primed cells are drawn for (× 2 shapes × 2 patterns).
const PRIME_SEEDS: usize = 4;
const PATTERNS: [NmPattern; 2] = [NmPattern::P1_4, NmPattern::P2_4];
/// Served cells whose bytes the untraced run recomputes in-process.
const SAMPLE_HITS: usize = 4;
const SAMPLE_MISSES: usize = 4;

/// One planned request: a single-cell grid, and whether the store
/// should already hold it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub dims: GemmDims,
    pub pattern: NmPattern,
    pub base_seed: u64,
    pub hit: bool,
}

impl Planned {
    fn body(&self) -> String {
        sweep_request(self.dims, self.pattern, self.base_seed)
    }

    fn cell(&self) -> indexmac::sweep::SweepCell {
        single_cell(self.dims, self.pattern, self.base_seed)
    }
}

/// BERT-base's FFN up and down projections (both cap to 64x512x128).
fn shapes() -> [GemmDims; 2] {
    let bert = bert_base();
    let gemm = |name: &str| bert.layer(name).expect("BERT-base has an FFN").gemm;
    [gemm("block0.ffn.up"), gemm("block0.ffn.down")]
}

/// The cells set-up primes the store with.
pub fn primed(seed: u64) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed ^ 0x7072_696d_6564);
    let mut cells = Vec::new();
    for _ in 0..PRIME_SEEDS {
        let base_seed = rng.next_u64();
        for dims in shapes() {
            for pattern in PATTERNS {
                cells.push(Planned {
                    dims,
                    pattern,
                    base_seed,
                    hit: false,
                });
            }
        }
    }
    cells
}

/// The endless sequence of request rounds for `seed`, in the order sent.
/// Every round holds each primed cell twice as a hit and
/// [`ROUND_MISSES`] fresh 1:4 cells, half of each shape, shuffled, so
/// every round and every seed asks for the same mix of work. The misses
/// are all of one pattern so that their latencies form one cluster: a
/// 2:4 cell (twice the nonzeros) simulates longer, and a median taken
/// near the edge of a cluster moves with every slow spell of the host.
/// The rounds are a pure function of `seed`.
pub struct Rounds {
    primed: Vec<Planned>,
    shapes: [GemmDims; 2],
    rng: SplitMix64,
    used: Vec<u64>,
}

impl Rounds {
    pub fn new(seed: u64) -> Self {
        let primed = primed(seed);
        let used = primed.iter().map(|p| p.base_seed).collect();
        Self {
            primed,
            shapes: shapes(),
            rng: SplitMix64::new(seed ^ 0x7365_7175_656e_6365),
            used,
        }
    }
}

impl Iterator for Rounds {
    type Item = Vec<Planned>;

    fn next(&mut self) -> Option<Vec<Planned>> {
        let mut round: Vec<Planned> = (0..ROUND_HITS)
            .map(|i| Planned {
                hit: true,
                ..self.primed[i % self.primed.len()]
            })
            .collect();
        for i in 0..ROUND_MISSES {
            let base_seed = loop {
                let s = self.rng.next_u64();
                if !self.used.contains(&s) {
                    break s;
                }
            };
            self.used.push(base_seed);
            round.push(Planned {
                dims: self.shapes[i % 2],
                pattern: NmPattern::P1_4,
                base_seed,
                hit: false,
            });
        }
        for i in (1..round.len()).rev() {
            round.swap(i, self.rng.below(i + 1));
        }
        Some(round)
    }
}

fn config() -> ExperimentConfig {
    ExperimentConfig::transformer()
}

/// Opens a fresh store in `dir`, starts the daemon and primes it.
/// Returns the server and the primed cells' replies.
fn setup(seed: u64, dir: &Path) -> Result<(Server, Vec<(Planned, String)>), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let store = ResultStore::open(dir).map_err(|e| format!("opening store: {e}"))?;
    let server = Server::start(config(), store).map_err(|e| format!("starting daemon: {e}"))?;
    let mut replies = Vec::new();
    for p in primed(seed) {
        let reply = request(server.addr, "POST", "/sweep", &p.body())
            .map_err(|e| format!("priming: {e}"))?;
        if reply.status != 200 {
            return Err(format!("priming answered {}: {}", reply.status, reply.body));
        }
        replies.push((p, reply.body));
    }
    Ok((server, replies))
}

/// Stops a set-up's daemon and removes its store.
fn teardown(server: Server, dir: &Path) -> Result<(), String> {
    server.stop().map_err(|e| format!("stopping daemon: {e}"))?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let dir = scratch.join("store");
    let (mut server, primed_replies) = crate::timed_setups(
        report,
        traced,
        || setup(seed, &dir),
        |(server, _)| teardown(server, &dir),
    )?;
    let cfg = config();

    // The closed loop, one round at a time, until `seconds` have passed
    // (at least MIN_ROUNDS). After every MAX_ROUNDS rounds the daemon is
    // set up afresh, untimed, before its store would fsync its index.
    let start = Instant::now();
    let mut served: Vec<(Planned, String)> = Vec::new();
    let mut walls = Vec::new();
    for (i, round) in Rounds::new(seed).enumerate() {
        if walls.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if i > 0 && i % MAX_ROUNDS == 0 {
            teardown(server, &dir)?;
            server = setup(seed, &dir)?.0;
        }
        let t = Instant::now();
        for p in round {
            send(&server, p, report, &mut served);
        }
        walls.push(t.elapsed().as_secs_f64());
    }
    report.unit_walls = walls;
    report.requests = served.len() as u64;

    // Check every reply: the routing the plan predicts, and for a cell
    // served more than once, the same record every time. `distinct`
    // holds the primed cells, then the misses, in the order served.
    let n_primed = primed_replies.len();
    let mut distinct: Vec<(Planned, String, CellResult)> = Vec::new();
    for (i, (p, body)) in primed_replies.iter().chain(&served).enumerate() {
        let want = if p.hit { "hit" } else { "computed" };
        let Some((_, result)) =
            parse_reply(body).filter(|(status, r)| status == want && r.cell == p.cell())
        else {
            report.failed += 1;
            eprintln!("reply for {p:?} is not a '{want}' record of that cell");
            continue;
        };
        match distinct.iter().find(|(q, ..)| q.cell() == p.cell()) {
            Some((.., first)) if *first != result => {
                report.failed += 1;
                eprintln!("cell {:?} was served two different records", p.cell());
            }
            Some(_) => {}
            None => {
                if i >= n_primed {
                    report.instret += result.comparison.baseline.report.instructions
                        + result.comparison.proposed.report.instructions;
                }
                distinct.push((*p, body.clone(), result));
            }
        }
    }
    // The simulated totals cover the primed cells and the misses of the
    // first MIN_ROUNDS rounds, which every run sends, so that they are a
    // function of the seed alone, however many rounds the host allowed.
    let mut sim = SimTotals::default();
    for (.., r) in distinct.iter().take(n_primed + MIN_ROUNDS * ROUND_MISSES) {
        sim.add(&r.comparison);
    }
    report.sim = Some(sim);

    if traced {
        let replayed = &distinct[..distinct.len().min(n_primed + TRACED_MISSES)];
        traced_breakdown(&cfg, &server, replayed, n_primed, scratch, report)?;
    } else {
        // Byte for byte: the first few distinct hits and misses served,
        // against the same cells computed in-process.
        for (want_hit, count) in [(true, SAMPLE_HITS), (false, SAMPLE_MISSES)] {
            let mut cells = Vec::new();
            for (p, body) in &served {
                if p.hit == want_hit && cells.len() < count && !cells.contains(&p.cell()) {
                    cells.push(p.cell());
                    report.attempted += 1;
                    let local = run_cell(p.cell(), &cfg).map_err(|e| e.to_string())?;
                    if !served_bytes_match(&cfg, p, body, &local) {
                        report.failed += 1;
                    }
                }
            }
        }
    }
    teardown(server, &dir)
}

/// Sends the request `p` plans and records its round trip as a hit or a
/// miss, or counts it as failed.
fn send(server: &Server, p: Planned, report: &mut Report, served: &mut Vec<(Planned, String)>) {
    report.attempted += 1;
    let t = Instant::now();
    let reply = request(server.addr, "POST", "/sweep", &p.body());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match reply {
        Ok(reply) if reply.status == 200 => {
            if p.hit {
                report.hit_ms.push(ms);
            } else {
                report.miss_ms.push(ms);
            }
            served.push((p, reply.body));
        }
        Ok(reply) => {
            report.failed += 1;
            eprintln!("request answered {}: {}", reply.status, reply.body);
        }
        Err(e) => {
            report.failed += 1;
            eprintln!("request failed: {e}");
        }
    }
}

/// Whether the daemon's reply `body` for `p` is byte for byte the reply
/// `local`, the same cell computed in-process, encodes to.
fn served_bytes_match(cfg: &ExperimentConfig, p: &Planned, body: &str, local: &CellResult) -> bool {
    let status = if p.hit { "hit" } else { "computed" };
    let ok = sweep_reply(p.base_seed, local, status, cfg) == body;
    if !ok {
        eprintln!(
            "served record of {:?} differs from the in-process result",
            p.cell()
        );
    }
    ok
}

/// Traced run: the primed cells and the first misses served are
/// recomputed in-process, first untraced through `run_cell` (checked
/// byte for byte against what was served), then replayed with spans;
/// plus the per-call service costs.
fn traced_breakdown(
    cfg: &ExperimentConfig,
    server: &Server,
    distinct: &[(Planned, String, CellResult)],
    n_primed: usize,
    scratch: &Path,
    report: &mut Report,
) -> Result<(), String> {
    reset_decode_cache();
    let t = Instant::now();
    let mut reference = Vec::new();
    let mut local_miss_ms = Vec::new();
    for (i, (p, body, _)) in distinct.iter().enumerate() {
        let tc = Instant::now();
        let r = run_cell(p.cell(), cfg).map_err(|e| e.to_string())?;
        if i >= n_primed {
            local_miss_ms.push(tc.elapsed().as_secs_f64() * 1e3);
        }
        report.attempted += 1;
        if !served_bytes_match(cfg, p, body, &r) {
            report.failed += 1;
        }
        reference.push(r);
    }
    let untraced_wall = t.elapsed().as_secs_f64();
    let core_cache = decode_cache_stats();
    reset_decode_cache();

    trace::start();
    let t = Instant::now();
    let mut replica = Replica::new();
    let mut replayed = Vec::new();
    for (i, (p, ..)) in distinct.iter().enumerate() {
        trace::set_request(i as u64);
        let cell = p.cell();
        let cell_cfg = ExperimentConfig {
            seed: cell.seed,
            ..*cfg
        };
        let c = trace::span("core", "core.compare_gemm", || {
            replica.compare_gemm(cell.dims, cell.pattern, &cell_cfg)
        })
        .map_err(|e| e.to_string())?;
        replayed.push(c);
    }
    let traced_wall = t.elapsed().as_secs_f64();
    let spans = trace::finish();
    if replayed
        .iter()
        .zip(&reference)
        .any(|(c, r)| *c != r.comparison)
    {
        report.failed += 1;
        eprintln!("traced replay disagrees with the untraced run");
    }

    let cells: Vec<(GemmDims, NmPattern)> = distinct
        .iter()
        .map(|(p, ..)| (cfg.caps.apply(p.dims), p.pattern))
        .collect();
    report.record_replay(
        &cells,
        replica.counts,
        core_cache,
        &spans,
        traced_wall,
        untraced_wall,
    );

    let (primed, _, primed_result) = &distinct[0];
    let layers = service_layers(
        cfg,
        primed.base_seed,
        primed_result,
        server,
        scratch,
        &report.hit_ms,
    )
    .map_err(|e| format!("service timings: {e}"))?;
    for (name, value) in layers {
        report.set_layer(name, value);
    }
    report.set_layer(
        "service.miss_overhead_ms",
        median(&report.miss_ms) - median(&local_miss_ms),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds of two daemons' worth.
    fn rounds(seed: u64) -> Vec<Vec<Planned>> {
        Rounds::new(seed).take(2 * MAX_ROUNDS).collect()
    }

    #[test]
    fn the_rounds_are_a_pure_function_of_the_seed() {
        assert_eq!(rounds(42), rounds(42));
        assert_ne!(rounds(42), rounds(43));
        assert_eq!(primed(42), primed(42));
        assert_ne!(primed(42), primed(43));
    }

    #[test]
    fn every_round_has_the_planned_mix() {
        let rounds = rounds(9);
        let primed = primed(9);
        assert_eq!(primed.len(), 16);
        let mut seeds: Vec<u64> = primed.iter().map(|p| p.base_seed).collect();
        seeds.dedup();
        for round in &rounds {
            assert_eq!(round.len(), ROUND_HITS + ROUND_MISSES);
            // The same work in every round: each primed cell is hit
            // twice, and misses are 1:4, split evenly over the shapes.
            for p in &primed {
                let n = round
                    .iter()
                    .filter(|q| **q == Planned { hit: true, ..*p })
                    .count();
                assert_eq!(n, ROUND_HITS / primed.len());
            }
            for p in &primed[..4] {
                let n = round
                    .iter()
                    .filter(|q| !q.hit && q.dims == p.dims && q.pattern == p.pattern)
                    .count();
                let share = if p.pattern == NmPattern::P1_4 { 1 } else { 0 };
                assert_eq!(n, ROUND_MISSES * share / 2);
            }
            // Every miss is a cell on a seed nothing else uses.
            for m in round.iter().filter(|p| !p.hit) {
                assert!(!seeds.contains(&m.base_seed));
                seeds.push(m.base_seed);
            }
        }
    }
}
