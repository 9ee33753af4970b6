//! End-to-end tests of the HTTP front end: route behaviour, the
//! concurrency contract — N clients hammering `POST /sweep` on the
//! same grid get bit-identical results to a serial `run_grid`, while
//! coalescing ensures each distinct digest simulates exactly once —
//! and the front end's robustness: silent clients, a full handler
//! pool, and shutdown with a sweep in flight.

use indexmac::experiment::ExperimentConfig;
use indexmac::record::{decode_cell_result, encode_cell_result};
use indexmac::sweep::{run_grid_serial, SweepGrid};
use indexmac_kernels::GemmDims;
use indexmac_service::{http, ResultStore, SweepService};
use indexmac_sparse::NmPattern;
use serde::Value;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("indexmac-http-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a daemon + HTTP server on an ephemeral port. Returns the
/// bound address and the server thread (joins after `POST /shutdown`).
fn start_server(
    dir: &std::path::Path,
    workers: usize,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    start_server_with(ExperimentConfig::fast(), dir, workers)
}

/// [`start_server`] under `cfg`.
fn start_server_with(
    cfg: ExperimentConfig,
    dir: &std::path::Path,
    workers: usize,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let store = ResultStore::open(dir).unwrap();
    let service = SweepService::start(cfg, store, workers);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        http::serve(&service, listener).unwrap();
    });
    (addr, handle)
}

/// Minimal HTTP/1.1 client: one request, `Connection: close` response.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let payload = raw.split("\r\n\r\n").nth(1).expect("body separator");
    (status, serde_json::from_str(payload).expect("JSON body"))
}

fn grid_body() -> &'static str {
    r#"{"dims": ["4x32x16", "8x32x16"], "patterns": ["1:4"], "dataflows": ["b"], "base_seed": 99}"#
}

fn reference_grid() -> SweepGrid {
    SweepGrid::new(
        vec![NmPattern::P1_4],
        vec![
            GemmDims {
                rows: 4,
                inner: 32,
                cols: 16,
            },
            GemmDims {
                rows: 8,
                inner: 32,
                cols: 16,
            },
        ],
    )
    .with_base_seed(99)
}

/// Renders the reference cells the way the server does, so equality is
/// a string comparison — bitwise, since float fields persist as
/// `f64::to_bits`.
fn reference_payloads() -> Vec<String> {
    let result = run_grid_serial(&reference_grid(), &ExperimentConfig::fast()).unwrap();
    result
        .cells
        .iter()
        .map(|c| serde_json::to_string(&encode_cell_result(c)).unwrap())
        .collect()
}

fn response_payloads(response: &Value) -> Vec<String> {
    response
        .get("cells")
        .and_then(Value::as_array)
        .expect("cells array")
        .iter()
        .map(|cell| {
            let result = cell.get("result").expect("result field");
            // Decode must succeed — the wire format is the store format.
            decode_cell_result(result).expect("decodable result");
            serde_json::to_string(result).unwrap()
        })
        .collect()
}

#[test]
fn routes_serve_health_stats_cells_and_errors() {
    let dir = temp_dir("routes");
    let (addr, server) = start_server(&dir, 2);

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, Some("ok")));

    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "PUT", "/healthz", "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/cell/zz", "");
    assert_eq!(status, 400, "malformed digest");
    let (status, _) = request(addr, "GET", "/cell/00000000000000000000000000000000", "");
    assert_eq!(status, 404, "absent digest");
    let (status, _) = request(addr, "POST", "/sweep", "{\"dims\": []}");
    assert_eq!(status, 400, "empty grid");
    let (status, _) = request(addr, "POST", "/sweep", "not json");
    assert_eq!(status, 400, "malformed body");

    // One sweep, then its digests are individually addressable.
    let (status, response) = request(addr, "POST", "/sweep", grid_body());
    assert_eq!(status, 200);
    let cells = response.get("cells").and_then(Value::as_array).unwrap();
    assert_eq!(cells.len(), 2);
    assert_eq!(
        response_payloads(&response),
        reference_payloads(),
        "daemon results are bit-identical to a serial run_grid"
    );
    for cell in cells {
        assert_eq!(cell.get("status").and_then(Value::as_str), Some("computed"));
        let digest = cell.get("digest").and_then(Value::as_str).unwrap();
        let (status, stored) = request(addr, "GET", &format!("/cell/{digest}"), "");
        assert_eq!(status, 200);
        assert_eq!(
            serde_json::to_string(stored.get("result").unwrap()).unwrap(),
            serde_json::to_string(cell.get("result").unwrap()).unwrap(),
            "GET /cell returns the stored record verbatim"
        );
    }

    // Stats reflect the two simulations.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("computed").and_then(Value::as_u64), Some(2));

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_get_serial_results_with_single_simulation() {
    let dir = temp_dir("hammer");
    let (addr, server) = start_server(&dir, 3);
    let reference = reference_payloads();

    // N clients post the same 2-cell grid simultaneously. Coalescing
    // must collapse the overlap: 2 simulations total, not 2 * N.
    const CLIENTS: usize = 6;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, response) = request(addr, "POST", "/sweep", grid_body());
                assert_eq!(status, 200);
                response
            })
        })
        .collect();
    for client in clients {
        let response = client.join().unwrap();
        assert_eq!(
            response_payloads(&response),
            reference,
            "every concurrent client sees the serial run_grid result, bit for bit"
        );
    }

    // The same grid landed CLIENTS times; each distinct digest
    // simulated exactly once — the rest were store hits or coalesced
    // onto the in-flight simulation.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(stats.get("computed").and_then(Value::as_u64), Some(2));
    assert_eq!(stats.get("misses").and_then(Value::as_u64), Some(2));
    let hits = stats.get("hits").and_then(Value::as_u64).unwrap();
    let coalesced = stats.get("coalesced").and_then(Value::as_u64).unwrap();
    assert_eq!(hits + coalesced, (CLIENTS as u64) * 2 - 2);

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes one request on `stream` without reading the reply.
fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
}

/// The status code of a whole `Connection: close` reply.
fn status_of(raw: &str) -> u16 {
    raw.split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status")
}

fn statuses(response: &Value) -> Vec<&str> {
    response
        .get("cells")
        .and_then(Value::as_array)
        .expect("cells array")
        .iter()
        .map(|cell| cell.get("status").and_then(Value::as_str).expect("status"))
        .collect()
}

#[test]
fn a_silent_client_does_not_delay_a_hit() {
    let dir = temp_dir("silent");
    let (addr, server) = start_server(&dir, 1);
    let (status, _) = request(addr, "POST", "/sweep", grid_body());
    assert_eq!(status, 200);

    // Connected, never sends a byte: it holds one handler until its
    // read times out.
    let silent = TcpStream::connect(addr).unwrap();
    let t = Instant::now();
    let (status, response) = request(addr, "POST", "/sweep", grid_body());
    let elapsed = t.elapsed();
    assert_eq!(status, 200);
    assert_eq!(statuses(&response), ["hit", "hit"]);
    assert!(
        elapsed < Duration::from_secs(1),
        "a hit next to a silent client took {elapsed:?}"
    );

    drop(silent);
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_handler_pool_answers_503_at_once() {
    let dir = temp_dir("full");
    let (addr, server) = start_server(&dir, 1);

    // Silent connections take every handler, then every queue slot.
    // Each one gets a moment to be handed over; the first connection
    // that is answered at all is the first one turned away.
    let mut held = Vec::new();
    let mut turned_away = None;
    for _ in 0..64 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut first = [0u8; 1];
        match stream.read(&mut first) {
            Ok(_) => {
                stream.set_read_timeout(None).unwrap();
                let mut rest = String::new();
                stream.read_to_string(&mut rest).unwrap();
                turned_away = Some(format!("{}{rest}", char::from(first[0])));
                break;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                held.push(stream);
            }
            Err(e) => panic!("silent connection failed: {e}"),
        }
    }
    let turned_away = turned_away.expect("the pool fills within 64 connections");
    assert_eq!(status_of(&turned_away), 503, "reply: {turned_away}");
    assert!(!held.is_empty(), "silent connections were held");

    // The next client is answered at once, not after a silent one's
    // read timeout.
    let t = Instant::now();
    let (status, body) = request(addr, "GET", "/healthz", "");
    let elapsed = t.elapsed();
    assert_eq!(status, 503);
    assert!(
        body.get("error").is_some(),
        "503 carries a JSON error: {body:?}"
    );
    assert!(elapsed < Duration::from_secs(1), "the 503 took {elapsed:?}");

    // Closing the silent connections frees the pool.
    drop(held);
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_answers_the_sweep_in_flight_and_returns() {
    let dir = temp_dir("drain");
    // Paper caps and one worker: four capped-BERT-sized cells keep the
    // sweep in flight for a good part of a second.
    let (addr, server) = start_server_with(ExperimentConfig::paper(), &dir, 1);
    const CELLS: u64 = 4;
    let body = r#"{"dims": ["64x512x128", "64x512x96"], "patterns": ["1:4", "2:4"]}"#;
    let mut sweep = TcpStream::connect(addr).unwrap();
    send_request(&mut sweep, "POST", "/sweep", body);

    // Wait until the daemon has taken the sweep on.
    let deadline = Instant::now() + Duration::from_secs(30);
    let computed = loop {
        let (status, stats) = request(addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        if stats.get("misses").and_then(Value::as_u64) == Some(CELLS) {
            break stats.get("computed").and_then(Value::as_u64).unwrap();
        }
        assert!(
            Instant::now() < deadline,
            "the sweep never reached the daemon"
        );
        std::thread::yield_now();
    };
    assert!(computed < CELLS, "the sweep is still in flight");

    let t = Instant::now();
    let (status, body) = request(addr, "POST", "/shutdown", "");
    assert_eq!((status, body.as_str()), (200, Some("draining")));

    let mut raw = String::new();
    sweep.read_to_string(&mut raw).unwrap();
    assert_eq!(status_of(&raw), 200, "reply: {raw}");
    let response = serde_json::from_str(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
    assert_eq!(statuses(&response), ["computed"; CELLS as usize]);

    while !server.is_finished() {
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "serve did not return after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
