//! Loopback serving: the daemon under test (`SweepService` behind
//! `indexmac_service::http::serve`), a one-request-per-connection HTTP
//! client, and the hit probe every workload runs against its own results.

use crate::stats::median;
use indexmac::digest::config_digest;
use indexmac::experiment::ExperimentConfig;
use indexmac::record::{decode_cell_result, encode_cell_result};
use indexmac::sweep::{CellResult, SweepCell, SweepGrid};
use indexmac_kernels::GemmDims;
use indexmac_service::{http, ResultStore, SweepService};
use indexmac_sparse::NmPattern;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Hits per window of the hit latency percentiles (about a second of
/// requests; ten lie beyond each window's p95).
pub const HIT_WINDOW: usize = 200;

/// Hits the probe of an in-process workload sends at least (four
/// windows).
pub const PROBE_HITS: usize = 4 * HIT_WINDOW;

/// One HTTP response.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Sends one request on a fresh connection and reads the whole reply
/// (the server answers with `Connection: close`).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

/// A single-cell grid: the cell the daemon runs for `POST /sweep` with
/// one shape, one pattern and `base_seed`.
pub fn single_cell(dims: GemmDims, pattern: NmPattern, base_seed: u64) -> SweepCell {
    SweepGrid::new(vec![pattern], vec![dims])
        .with_base_seed(base_seed)
        .cells()[0]
}

/// `POST /sweep` body asking for [`single_cell`]`(dims, pattern, base_seed)`.
pub fn sweep_request(dims: GemmDims, pattern: NmPattern, base_seed: u64) -> String {
    format!(
        "{{\"dims\": [\"{}x{}x{}\"], \"patterns\": [\"{pattern}\"], \"base_seed\": {base_seed}}}",
        dims.rows, dims.inner, dims.cols
    )
}

/// The exact body the daemon answers a single-cell `POST /sweep` with.
pub fn sweep_reply(
    base_seed: u64,
    result: &CellResult,
    status: &str,
    cfg: &ExperimentConfig,
) -> String {
    let cell = Value::object([
        (
            "digest",
            Value::Str(config_digest(&result.cell, cfg).to_string()),
        ),
        ("status", Value::Str(status.into())),
        ("result", encode_cell_result(result)),
    ]);
    let body = Value::object([
        ("base_seed", Value::UInt(base_seed)),
        ("cells", Value::Array(vec![cell])),
    ]);
    serde_json::to_string(&body).expect("shim serialization is total")
}

/// The `status` tag and decoded record of a single-cell reply.
pub fn parse_reply(body: &str) -> Option<(String, CellResult)> {
    let v = serde_json::from_str(body).ok()?;
    let cell = v.get("cells")?.as_array()?.first()?;
    let status = cell.get("status")?.as_str()?.to_string();
    let result = decode_cell_result(cell.get("result")?).ok()?;
    Some((status, result))
}

/// The daemon under test: one worker, served over loopback.
pub struct Server {
    pub addr: SocketAddr,
    pub service: Arc<SweepService>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    pub fn start(cfg: ExperimentConfig, store: ResultStore) -> std::io::Result<Self> {
        let service = SweepService::start(cfg, store, 1);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let served = Arc::clone(&service);
        let thread = std::thread::spawn(move || http::serve(&served, listener));
        Ok(Self {
            addr,
            service,
            thread,
        })
    }

    /// `POST /shutdown`, then waits for the accept loop to drain.
    pub fn stop(self) -> std::io::Result<()> {
        let reply = request(self.addr, "POST", "/shutdown", "")?;
        let served = self.thread.join().expect("serve thread panicked");
        if reply.status != 200 {
            return Err(std::io::Error::other(format!(
                "shutdown answered {}",
                reply.status
            )));
        }
        served
    }
}

/// What the hit probe measured.
#[derive(Default)]
pub struct Probe {
    pub attempted: u64,
    pub failed: u64,
    /// Round-trip milliseconds of every hit, in the order sent.
    pub hit_ms: Vec<f64>,
    /// Per-layer service metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// The hit probe of an in-process workload: its results (each computed
/// for `single_cell(.., base_seed)`) served from a store in `dir`, and
/// requested in batches of single-cell `POST /sweep` requests, round
/// robin. Every reply must be a `200` whose body is byte-identical to the
/// in-process result's encoding; anything else counts as failed.
pub struct HitProbe {
    server: Server,
    /// Request body and expected reply of each result.
    requests: Vec<(String, String)>,
    probe: Probe,
}

impl HitProbe {
    pub fn start(
        dir: &Path,
        cfg: &ExperimentConfig,
        base_seed: u64,
        results: &[CellResult],
    ) -> std::io::Result<Self> {
        let mut store = ResultStore::open(dir)?;
        for r in results {
            store.put(config_digest(&r.cell, cfg), r)?;
        }
        store.flush()?;
        let server = Server::start(*cfg, store)?;
        let requests = results
            .iter()
            .map(|r| {
                (
                    sweep_request(r.cell.dims, r.cell.pattern, base_seed),
                    sweep_reply(base_seed, r, "hit", cfg),
                )
            })
            .collect();
        Ok(Self {
            server,
            requests,
            probe: Probe::default(),
        })
    }

    /// Hits sent so far.
    pub fn sent(&self) -> u64 {
        self.probe.attempted
    }

    /// Sends `n` more hits.
    pub fn batch(&mut self, n: usize) {
        for _ in 0..n {
            let (body, want) = &self.requests[self.probe.attempted as usize % self.requests.len()];
            self.probe.attempted += 1;
            let t = Instant::now();
            let reply = request(self.server.addr, "POST", "/sweep", body);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match reply {
                Ok(reply) if reply.status == 200 && reply.body == *want => {
                    self.probe.hit_ms.push(ms);
                }
                Ok(reply) => {
                    self.probe.failed += 1;
                    eprintln!("hit probe: status {} or body mismatch", reply.status);
                }
                Err(e) => {
                    self.probe.failed += 1;
                    eprintln!("hit probe: {e}");
                }
            }
        }
    }

    /// Stops the server; a traced run first times the per-call service
    /// costs behind a hit on `stored`, using `dir` as scratch.
    pub fn finish(
        mut self,
        traced: Option<(&ExperimentConfig, u64, &CellResult, &Path)>,
    ) -> std::io::Result<Probe> {
        if let Some((cfg, base_seed, stored, dir)) = traced {
            self.probe.layers = service_layers(
                cfg,
                base_seed,
                stored,
                &self.server,
                dir,
                &self.probe.hit_ms,
            )?;
        }
        self.server.stop()?;
        Ok(self.probe)
    }
}

/// Repetitions behind each per-call service timing.
const MICRO_REPS: usize = 200;

/// Median per-call microseconds of `f` over [`MICRO_REPS`] calls.
fn micro_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The per-call costs behind a hit on `stored` (a result the daemon
/// holds for `single_cell(.., base_seed)`): digest, record codec, store
/// get and put (on a scratch store in `dir`), and
/// `SweepService::sweep_grid` called directly; plus the HTTP share of a
/// hit round trip.
pub fn service_layers(
    cfg: &ExperimentConfig,
    base_seed: u64,
    stored: &CellResult,
    server: &Server,
    dir: &Path,
    hit_ms: &[f64],
) -> std::io::Result<Vec<(&'static str, f64)>> {
    if hit_ms.is_empty() {
        return Err(std::io::Error::other("no hit was served"));
    }
    let digest = config_digest(&stored.cell, cfg);
    let digest_us = micro_us(|| {
        std::hint::black_box(config_digest(std::hint::black_box(&stored.cell), cfg));
    });
    let codec_us = micro_us(|| {
        let text = serde_json::to_string(&encode_cell_result(stored)).expect("total");
        let value = serde_json::from_str(&text).expect("own encoding parses");
        std::hint::black_box(decode_cell_result(&value).expect("own encoding decodes"));
    });
    let scratch = dir.join("micro");
    let mut store = ResultStore::open(&scratch)?;
    let mut put_err = None;
    let put_us = micro_us(|| {
        if let Err(e) = store.put(digest, stored) {
            put_err = Some(e);
        }
    });
    if let Some(e) = put_err {
        return Err(e);
    }
    let get_us = micro_us(|| {
        std::hint::black_box(store.get(digest));
    });
    drop(store);
    std::fs::remove_dir_all(&scratch)?;
    let grid =
        SweepGrid::new(vec![stored.cell.pattern], vec![stored.cell.dims]).with_base_seed(base_seed);
    let daemon_hit_us = micro_us(|| {
        std::hint::black_box(
            server
                .service
                .sweep_grid(&grid)
                .expect("stored cell is served"),
        );
    });
    Ok(vec![
        ("core.digest_us", digest_us),
        ("core.record_codec_us", codec_us),
        ("service.store_get_us", get_us),
        ("service.store_put_us", put_us),
        ("service.daemon_hit_us", daemon_hit_us),
        (
            "service.http_overhead_ms",
            median(hit_ms) - daemon_hit_us / 1e3,
        ),
    ])
}
