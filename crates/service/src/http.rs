//! Minimal hand-rolled HTTP/1.1 front end over `std::net::TcpListener`
//! (crates.io is unreachable, so no tokio/hyper): a blocking accept loop
//! feeding a fixed pool of handler threads through a bounded queue
//! (`503` when it is full), `Connection: close` semantics, bounded
//! request sizes.
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
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::str::FromStr;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on request body.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Handler threads: the most connections served at once. A handler
/// blocks for the whole request, a cold `/sweep` included, so this
/// many slow clients or cold sweeps can be in progress before a hit
/// waits in the queue.
const HANDLERS: usize = 8;
/// Accepted connections waiting for a free handler; one more is
/// answered `503` by the accept thread.
const QUEUED_CONNECTIONS: usize = 16;
/// How long the accept thread waits for a turned-away client to close.
const LINGER: Duration = Duration::from_millis(50);

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

    /// Sends head and body in one write, so a `TCP_NODELAY` stream
    /// puts the whole response on the wire at once.
    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut bytes = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason,
            self.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        stream.write_all(&bytes)
    }
}

/// Serves `service` on `listener` until a `POST /shutdown` arrives,
/// then drains the daemon and returns. Blocks the calling thread.
///
/// The calling thread blocks in `accept` and hands each connection to
/// one of [`HANDLERS`] handler threads through a channel of
/// [`QUEUED_CONNECTIONS`] slots; when every slot is taken it answers
/// `503` itself. Shutdown runs in order: the `/shutdown` handler sets
/// the flag, answers, and wakes the blocked `accept` with a connection
/// of its own; the accept loop stops; the handlers finish the
/// connections already queued (a `/sweep` among them answers `503`);
/// `serve` joins them, and only then drains the workers and flushes
/// the store, so no submission can arrive after the workers left.
///
/// # Errors
///
/// Propagates a failing `accept` and the drain's final store flush
/// error; per-connection errors are contained to their connection.
pub fn serve(service: &Arc<SweepService>, listener: TcpListener) -> std::io::Result<()> {
    let wake_addr = wake_addr(listener.local_addr()?);
    let (queue, connections) = mpsc::sync_channel(QUEUED_CONNECTIONS);
    let connections = Mutex::new(connections);
    let accepted = std::thread::scope(|scope| {
        for _ in 0..HANDLERS {
            scope.spawn(|| handler_loop(service, &connections, wake_addr));
        }
        // Returning drops the sender, so each handler's `recv` fails
        // once the queue is empty and the scope can join it.
        accept_loop(service, listener, queue)
    });
    let drained = service.shutdown();
    accepted.and(drained)
}

/// Accepts until shutdown is requested; the listener closes on return.
fn accept_loop(
    service: &SweepService,
    listener: TcpListener,
    queue: SyncSender<TcpStream>,
) -> std::io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        if service.is_shutting_down() {
            // The handler's wake-up connection, or a client that came
            // after `/shutdown`: either way, the front end is closing.
            return Ok(());
        }
        let _ = stream.set_nodelay(true);
        match queue.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => turn_away(stream),
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("handlers outlive the sender: they stop only when it is dropped")
            }
        }
    }
}

/// Answers `503` on the accept thread without reading the request.
/// Closing a socket that holds unread request bytes resets the
/// connection, and a client reading to EOF then gets an error instead
/// of the reply; so the reply is followed by a FIN, and the close
/// waits up to [`LINGER`] for the client to close its side, discarding
/// what it sent.
fn turn_away(mut stream: TcpStream) {
    let _ =
        Response::error(503, "Service Unavailable", "every handler is busy").write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut discard = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if matches!(stream.read(&mut discard), Ok(0) | Err(_)) {
            return;
        }
    }
}

/// One handler thread: serves queued connections until the accept loop
/// drops the sender and the queue is empty.
fn handler_loop(
    service: &Arc<SweepService>,
    connections: &Mutex<Receiver<TcpStream>>,
    wake_addr: SocketAddr,
) {
    loop {
        // The guard drops at the end of this statement: only the wait
        // for a connection is serialised, never its handling.
        let next = connections
            .lock()
            .expect("no handler panics while holding the receiver")
            .recv();
        let Ok(stream) = next else { return };
        // A panic while routing costs its connection only, never a pool
        // thread.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            handle_connection(service, stream);
        }));
        if service.is_shutting_down() {
            // `accept` blocks until a connection arrives: make one. It
            // is refused at once if the accept loop already closed the
            // listener.
            let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1));
        }
    }
}

/// Where a connection reaches `local`: a listener bound to the
/// unspecified address accepts on loopback too.
fn wake_addr(mut local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        local.set_ip(match local {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    local
}

fn handle_connection(service: &Arc<SweepService>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(BufReader::new(&stream)) {
        Ok(request) => route(service, &request),
        Err(message) => Response::error(400, "Bad Request", &message),
    };
    let _ = response.write_to(&mut stream);
}

/// Reads one request: request line, headers (only `Content-Length` is
/// interpreted), then exactly the declared body. Reads at most
/// [`MAX_HEAD_BYTES`] of head and [`MAX_BODY_BYTES`] of body.
fn read_request(mut reader: impl BufRead) -> Result<Request, String> {
    let mut head = (&mut reader).take(MAX_HEAD_BYTES as u64);
    let mut line = String::new();
    read_head_line(&mut head, &mut line).map_err(|e| format!("reading request line: {e}"))?;
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
    loop {
        let mut header = String::new();
        read_head_line(&mut head, &mut header).map_err(|e| format!("reading header: {e}"))?;
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

/// Reads one line of the head into `line`; the stream ending first
/// ends the line. A line the head's byte budget cuts off is an error.
fn read_head_line(head: &mut Take<impl BufRead>, line: &mut String) -> Result<(), String> {
    head.read_line(line).map_err(|e| e.to_string())?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err("request head too large".into());
    }
    Ok(())
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
    use proptest::prelude::*;

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

    /// Runs `read_request` on `input`; also returns how many bytes it
    /// consumed.
    fn read_from(input: &[u8]) -> (Result<Request, String>, usize) {
        let mut rest = input;
        let result = read_request(&mut rest);
        (result, input.len() - rest.len())
    }

    /// Request fragments: CRLF and LF line ends, a request line, a
    /// `Content-Length` header name, numbers and raw bytes.
    fn fragment() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            Just(b"\r\n".to_vec()),
            Just(b"\n".to_vec()),
            Just(b"POST /sweep HTTP/1.1".to_vec()),
            Just(b"Content-Length:".to_vec()),
            Just(b" ".to_vec()),
            any::<u64>().prop_map(|n| n.to_string().into_bytes()),
            (0usize..64).prop_map(|n| n.to_string().into_bytes()),
            prop::collection::vec(any::<u8>(), 0..16),
            (0usize..2 * MAX_HEAD_BYTES).prop_map(|n| vec![b'a'; n]),
        ]
    }

    proptest! {
        #[test]
        fn read_request_keeps_its_bounds_on_arbitrary_bytes(
            raw in prop::collection::vec(any::<u8>(), 0..4096),
            fragments in prop::collection::vec(fragment(), 0..24),
        ) {
            for input in [raw, fragments.concat()] {
                let (result, consumed) = read_from(&input);
                match result {
                    Ok(request) => {
                        prop_assert!(!request.method.is_empty() && !request.path.is_empty());
                        prop_assert!(request.body.len() <= MAX_BODY_BYTES);
                        prop_assert!(consumed - request.body.len() <= MAX_HEAD_BYTES);
                    }
                    // Past the head, only the body read may consume.
                    Err(message) => prop_assert!(
                        consumed <= MAX_HEAD_BYTES
                            || (message.starts_with("reading body")
                                && consumed <= MAX_HEAD_BYTES + MAX_BODY_BYTES),
                        "consumed {consumed} bytes, then: {message}"
                    ),
                }
            }
        }

        #[test]
        fn read_request_accepts_exactly_the_heads_and_bodies_within_bounds(
            pad in 0usize..2 * MAX_HEAD_BYTES,
            declared in prop_oneof![
                0usize..64,
                Just(MAX_BODY_BYTES),
                Just(MAX_BODY_BYTES + 1),
                any::<usize>(),
            ],
            sent in 0usize..64,
        ) {
            let head = format!(
                "POST /sweep HTTP/1.1\r\nX-Pad: {}\r\nContent-Length: {declared}\r\n\r\n",
                "a".repeat(pad)
            );
            let mut input = head.clone().into_bytes();
            input.resize(head.len() + sent, b'x');
            let (result, _) = read_from(&input);
            let fits = head.len() <= MAX_HEAD_BYTES && declared <= MAX_BODY_BYTES;
            match result {
                Ok(request) => {
                    prop_assert!(fits && declared <= sent);
                    prop_assert_eq!(request.body, vec![b'x'; declared]);
                }
                Err(message) => prop_assert!(
                    !fits || declared > sent,
                    "rejected a request within bounds: {message}"
                ),
            }
        }
    }
}
