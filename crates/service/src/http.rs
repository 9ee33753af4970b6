//! Minimal hand-rolled HTTP/1.1 front end over `std::net::TcpListener`
//! (crates.io is unreachable, so no tokio/hyper): a polling accept loop
//! handing each connection to a short-lived thread, `Connection: close`
//! semantics, bounded request sizes.
//!
//! # Routes
//!
//! | Route | Method | Behaviour |
//! |---|---|---|
//! | `/healthz` | GET | `200 ok` while the daemon is up |
//! | `/stats` | GET | hit/miss/coalesced/computed counters, queue depth, store stats |
//! | `/cell/<digest>` | GET | stored record for a 32-hex digest: `200` record, `404` miss, `400` malformed |
//! | `/sweep` | POST | JSON grid body → per-cell `{digest, status, result}`; misses simulate on the worker pool; `503` once shutdown was requested |
//! | `/shutdown` | POST | graceful drain: stop accepting, finish queued work, flush the store |
//!
//! The `POST /sweep` body mirrors [`SweepGrid`]:
//!
//! ```json
//! {
//!   "dims": ["8x64x32", "16x64x32"],
//!   "patterns": ["1:4", "2:4"],
//!   "dataflows": ["b"],
//!   "base_seed": 3564312612
//! }
//! ```
//!
//! `patterns`, `dataflows` and `base_seed` are optional (defaults: the
//! evaluated patterns, B-stationary, the campaign seed — the same
//! defaults as the CLI `sweep` command).

use crate::daemon::SweepService;
use indexmac::digest::Digest;
use indexmac::record::encode_cell_result;
use indexmac::sweep::{SweepGrid, SHUTTING_DOWN};
use indexmac_kernels::{Dataflow, GemmDims};
use indexmac_sparse::NmPattern;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on request body.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// A response under construction.
struct Response {
    status: u16,
    reason: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, reason: &'static str, value: &Value) -> Self {
        Self {
            status,
            reason,
            body: serde_json::to_string(value).expect("shim serialization is total"),
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Self {
        Self::json(
            status,
            reason,
            &Value::object([("error", Value::Str(message.to_string()))]),
        )
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Serves `service` on `listener` until a `POST /shutdown` arrives,
/// then drains the daemon and returns. Blocks the calling thread.
///
/// # Errors
///
/// Propagates listener configuration errors and the drain's final
/// store flush error; per-connection errors are contained to their
/// connection.
pub fn serve(service: &Arc<SweepService>, listener: TcpListener) -> std::io::Result<()> {
    // Nonblocking accept + poll: `accept` must notice the shutdown
    // flag set by a handler thread, and std has no cross-platform
    // listener wakeup.
    listener.set_nonblocking(true)?;
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if service.is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let service = Arc::clone(service);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(&service, stream);
                }));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    service.shutdown()
}

fn handle_connection(service: &Arc<SweepService>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nonblocking(false);
    let response = match read_request(&mut stream) {
        Ok(request) => route(service, &request),
        Err(message) => Response::error(400, "Bad Request", &message),
    };
    let _ = response.write_to(&mut stream);
}

/// Reads one request: request line, headers (only `Content-Length` is
/// interpreted), then exactly the declared body.
fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| "request line has no path".to_string())?
        .to_string();

    let mut content_length = 0usize;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("reading header: {e}"))?;
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err("request head too large".into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad Content-Length: {e}"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("request body too large".into());
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("reading body: {e}"))?;
    Ok(Request { method, path, body })
}

fn route(service: &Arc<SweepService>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "OK", &Value::Str("ok".into())),
        ("GET", "/stats") => stats_response(service),
        ("GET", path) if path.starts_with("/cell/") => {
            cell_response(service, &path["/cell/".len()..])
        }
        ("POST", "/sweep") => sweep_response(service, &request.body),
        ("POST", "/shutdown") => {
            // Flag first; the accept loop drains after responding.
            service.request_shutdown();
            Response::json(200, "OK", &Value::Str("draining".into()))
        }
        ("GET" | "POST", _) => Response::error(404, "Not Found", "no such route"),
        _ => Response::error(405, "Method Not Allowed", "use GET or POST"),
    }
}

fn stats_response(service: &Arc<SweepService>) -> Response {
    let stats = service.stats();
    Response::json(
        200,
        "OK",
        &Value::object([
            ("hits", Value::UInt(stats.hits)),
            ("misses", Value::UInt(stats.misses)),
            ("coalesced", Value::UInt(stats.coalesced)),
            ("computed", Value::UInt(stats.computed)),
            ("queue_depth", Value::UInt(stats.queue_depth as u64)),
            (
                "store",
                Value::object([
                    ("entries", Value::UInt(stats.store.entries as u64)),
                    ("log_bytes", Value::UInt(stats.store.log_bytes)),
                    ("lru_entries", Value::UInt(stats.store.lru_entries as u64)),
                    ("lru_hits", Value::UInt(stats.store.lru_hits)),
                    ("disk_hits", Value::UInt(stats.store.disk_hits)),
                    ("misses", Value::UInt(stats.store.misses)),
                    ("recovered_bytes", Value::UInt(stats.store.recovered_bytes)),
                ]),
            ),
        ]),
    )
}

fn cell_response(service: &Arc<SweepService>, digest_hex: &str) -> Response {
    let digest: Digest = match digest_hex.parse() {
        Ok(d) => d,
        Err(e) => return Response::error(400, "Bad Request", &e),
    };
    match service.lookup(digest) {
        Some(result) => Response::json(
            200,
            "OK",
            &Value::object([
                ("digest", Value::Str(digest.to_string())),
                ("result", encode_cell_result(&result)),
            ]),
        ),
        None => Response::error(404, "Not Found", "digest not in store"),
    }
}

fn sweep_response(service: &Arc<SweepService>, body: &[u8]) -> Response {
    let grid = match parse_grid(body, service) {
        Ok(grid) => grid,
        Err(message) => return Response::error(400, "Bad Request", &message),
    };
    match service.sweep_grid(&grid) {
        Ok((result, routed)) => {
            let cells: Vec<Value> = result
                .cells
                .iter()
                .zip(routed)
                .map(|(cell_result, (digest, status))| {
                    Value::object([
                        ("digest", Value::Str(digest.to_string())),
                        ("status", Value::Str(status.name().into())),
                        ("result", encode_cell_result(cell_result)),
                    ])
                })
                .collect();
            Response::json(
                200,
                "OK",
                &Value::object([
                    ("base_seed", Value::UInt(result.base_seed)),
                    ("cells", Value::Array(cells)),
                ]),
            )
        }
        Err(message) if message == SHUTTING_DOWN => {
            Response::error(503, "Service Unavailable", &message)
        }
        Err(message) => Response::error(500, "Internal Server Error", &message),
    }
}

/// Parses a `POST /sweep` body into a [`SweepGrid`].
fn parse_grid(body: &[u8], service: &Arc<SweepService>) -> Result<SweepGrid, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let v = serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let dims: Vec<GemmDims> = tokens(&v, "dims")?.ok_or("missing 'dims' array")?;
    if dims.is_empty() {
        return Err("'dims' must not be empty".into());
    }
    Ok(SweepGrid {
        patterns: tokens(&v, "patterns")?.unwrap_or_else(|| NmPattern::EVALUATED.to_vec()),
        dims,
        dataflows: tokens(&v, "dataflows")?.unwrap_or_else(|| vec![Dataflow::BStationary]),
        base_seed: match v.get("base_seed") {
            None => service.config().seed,
            Some(s) => s
                .as_u64()
                .ok_or("'base_seed' must be an unsigned integer")?,
        },
    })
}

/// The optional array field `key` of string tokens (`"8x64x32"`,
/// `"1:4"`, `"b"`), each parsed by its type's `FromStr`.
fn tokens<T: FromStr<Err = String>>(v: &Value, key: &str) -> Result<Option<Vec<T>>, String> {
    let Some(field) = v.get(key) else {
        return Ok(None);
    };
    let items = field
        .as_array()
        .ok_or_else(|| format!("'{key}' must be an array"))?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .ok_or_else(|| format!("'{key}' entries must be strings"))?
                .parse()
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResultStore;
    use indexmac::experiment::ExperimentConfig;

    #[test]
    fn a_sweep_after_shutdown_was_requested_answers_503() {
        let dir = std::env::temp_dir().join(format!("indexmac-http-503-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = SweepService::start(
            ExperimentConfig::fast(),
            ResultStore::open(&dir).unwrap(),
            1,
        );
        service.request_shutdown();
        let request = Request {
            method: "POST".into(),
            path: "/sweep".into(),
            body: br#"{"dims": ["4x32x16"], "patterns": ["1:4"]}"#.to_vec(),
        };
        let response = route(&service, &request);
        assert_eq!(response.status, 503, "body: {}", response.body);
        service.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
