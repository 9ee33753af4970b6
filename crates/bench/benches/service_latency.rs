//! Latency of the sweep service: a cold miss (full simulation through
//! the daemon) vs a warm hit (content-addressed store), per GEMM
//! shape, plus the store's open/scan throughput. Emits
//! `BENCH_service.json`.
//!
//! Three latencies per shape through `SweepService::sweep_grid`, so
//! they include the digest, store and daemon overheads a real client
//! pays, and one over HTTP:
//!
//! * **cold** — empty store: the cell simulates on a worker;
//! * **warm (memory)** — same digest again: served by the store's LRU
//!   front;
//! * **warm (HTTP)** — the same hit as a loopback `POST /sweep` round
//!   trip on a fresh connection (the front end's accept, parse and
//!   serialize on top of the in-process hit), median and p90;
//! * **warm (disk)** — a reopened store with the LRU disabled: served
//!   by a checksummed log read + record decode.
//!
//! The acceptance bar: a warm hit is **>100×** faster than the
//! recompute it replaces, for every measured shape (the asserts at the
//! bottom fail the harness otherwise).
//!
//! The store-scan section times `ResultStore::open` over a populated
//! store twice — trusting the index, and with the index removed
//! (crash-recovery path: a full log scan with checksum validation).

use indexmac::experiment::ExperimentConfig;
use indexmac::sweep::SweepGrid;
use indexmac::Digest;
use indexmac_bench::{banner, write_bench_output, Profile, Spread};
use indexmac_kernels::GemmDims;
use indexmac_service::{http, ResultStore, SweepService};
use indexmac_sparse::NmPattern;
use serde::{Serialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Warm-path iterations. In process the minimum is reported (see
/// `indexmac_bench::Spread` for why minimum beats mean on shared
/// hosts); over HTTP, where the front end's share is the question, the
/// median and p90.
const WARM_ITERS: usize = 200;
/// Synthetic records for the store-scan measurement.
const SCAN_RECORDS: usize = 512;

struct Row {
    label: String,
    dims: GemmDims,
    cold_ms: f64,
    warm_mem_us: f64,
    warm_http_us: Spread,
    warm_disk_us: f64,
}

impl Row {
    fn mem_speedup(&self) -> f64 {
        self.cold_ms * 1e3 / self.warm_mem_us
    }

    fn disk_speedup(&self) -> f64 {
        self.cold_ms * 1e3 / self.warm_disk_us
    }

    fn to_value(&self) -> Value {
        Value::object([
            ("label", self.label.to_value()),
            (
                "dims",
                format!("{}x{}x{}", self.dims.rows, self.dims.inner, self.dims.cols).to_value(),
            ),
            ("cold_miss_ms", self.cold_ms.to_value()),
            ("warm_hit_memory_us", self.warm_mem_us.to_value()),
            (
                "warm_hit_http_median_us",
                self.warm_http_us.median.to_value(),
            ),
            ("warm_hit_http_p90_us", self.warm_http_us.p90.to_value()),
            ("warm_hit_disk_us", self.warm_disk_us.to_value()),
            ("warm_memory_speedup", self.mem_speedup().to_value()),
            ("warm_disk_speedup", self.disk_speedup().to_value()),
        ])
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "indexmac-bench-service-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Minimum elapsed seconds of `f` over `iters` runs.
fn min_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// One `POST` on a fresh connection; returns the whole reply.
fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("daemon accepts");
    stream.set_nodelay(true).expect("nodelay");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("request sent");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reply read");
    reply
}

/// Serves `service` on loopback and times `WARM_ITERS` hits on `grid`
/// (already stored) as HTTP round trips; shuts the service down.
fn http_hits(service: &Arc<SweepService>, grid: &SweepGrid) -> Spread {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    let addr = listener.local_addr().expect("bound address");
    let served = Arc::clone(service);
    let server = std::thread::spawn(move || http::serve(&served, listener));
    let dims = grid.dims[0];
    let body = format!(
        "{{\"dims\": [\"{}x{}x{}\"], \"patterns\": [\"{}\"], \"base_seed\": {}}}",
        dims.rows, dims.inner, dims.cols, grid.patterns[0], grid.base_seed
    );
    let samples: Vec<f64> = (0..WARM_ITERS)
        .map(|_| {
            let t = Instant::now();
            let reply = post(addr, "/sweep", &body);
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(
                reply.starts_with("HTTP/1.1 200") && reply.contains("\"status\":\"hit\""),
                "HTTP hit failed: {reply}"
            );
            us
        })
        .collect();
    post(addr, "/shutdown", "");
    server
        .join()
        .expect("serve thread panicked")
        .expect("daemon drains");
    Spread::of(&samples)
}

fn measure_shape(label: &str, dims: GemmDims, cfg: &ExperimentConfig) -> Row {
    let dir = temp_dir(label);
    let grid = SweepGrid::new(vec![NmPattern::P1_4], vec![dims]);

    // Cold: the store is empty, the daemon simulates the cell.
    let store = ResultStore::open(&dir).expect("store opens");
    let service = SweepService::start(*cfg, store, 2);
    let t = Instant::now();
    let (cold, statuses) = service.sweep_grid(&grid).expect("cold sweep runs");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        statuses.iter().all(|(_, s)| s.name() == "computed"),
        "cold pass must simulate"
    );

    // Warm (memory): same digest, served by the LRU front.
    let warm_mem_us = min_secs(WARM_ITERS, || {
        let (warm, statuses) = service.sweep_grid(&grid).expect("warm sweep runs");
        debug_assert!(statuses.iter().all(|(_, s)| s.name() == "hit"));
        debug_assert_eq!(warm.cells, cold.cells);
    }) * 1e6;
    // Warm (HTTP): the same hit through the front end; `serve` drains
    // the service when it returns.
    let warm_http_us = http_hits(&service, &grid);

    // Warm (disk): reopen with the LRU disabled, so every hit pays the
    // checksummed log read + record decode.
    let store = ResultStore::open_with_lru(&dir, 0).expect("store reopens");
    let service = SweepService::start(*cfg, store, 2);
    let warm_disk_us = min_secs(WARM_ITERS, || {
        let (warm, statuses) = service.sweep_grid(&grid).expect("disk-warm sweep runs");
        debug_assert!(statuses.iter().all(|(_, s)| s.name() == "hit"));
        debug_assert_eq!(warm.cells, cold.cells);
    }) * 1e6;
    service.shutdown().expect("store flushes");

    let _ = std::fs::remove_dir_all(&dir);
    Row {
        label: label.to_string(),
        dims,
        cold_ms,
        warm_mem_us,
        warm_http_us,
        warm_disk_us,
    }
}

/// Populates a store with `SCAN_RECORDS` records and times reopening
/// it with and without the index file.
fn measure_scan(cfg: &ExperimentConfig) -> Value {
    let dir = temp_dir("scan");
    let grid = SweepGrid::new(
        vec![NmPattern::P1_4],
        vec![GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        }],
    );
    let mut store = ResultStore::open(&dir).expect("store opens");
    let result = indexmac::sweep::run_grid(&grid, cfg, 1).expect("seed cell simulates");
    let record = &result.cells[0];
    // One real record under many synthetic digests: the scan cost is
    // per-frame, not per-distinct-simulation.
    for i in 0..SCAN_RECORDS {
        store
            .put(Digest(i as u128), record)
            .expect("synthetic record persists");
    }
    store.flush().expect("store flushes");
    let log_bytes = store.stats().log_bytes;
    drop(store);

    let t = Instant::now();
    let store = ResultStore::open(&dir).expect("indexed reopen");
    let indexed_open_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(store.len(), SCAN_RECORDS);
    drop(store);

    std::fs::remove_file(dir.join("index.json")).expect("index removed");
    let t = Instant::now();
    let store = ResultStore::open(&dir).expect("scan reopen");
    let scan_s = t.elapsed().as_secs_f64();
    assert_eq!(store.len(), SCAN_RECORDS, "full scan finds every record");
    drop(store);

    let records_per_sec = SCAN_RECORDS as f64 / scan_s;
    let mb_per_sec = log_bytes as f64 / (1024.0 * 1024.0) / scan_s;
    println!(
        "store scan: {SCAN_RECORDS} records, {log_bytes} log bytes | indexed open {indexed_open_ms:.2} ms | full scan {:.2} ms ({records_per_sec:.0} records/sec, {mb_per_sec:.1} MB/sec)",
        scan_s * 1e3,
    );
    let _ = std::fs::remove_dir_all(&dir);
    Value::object([
        ("records", SCAN_RECORDS.to_value()),
        ("log_bytes", log_bytes.to_value()),
        ("indexed_open_ms", indexed_open_ms.to_value()),
        ("full_scan_ms", (scan_s * 1e3).to_value()),
        ("scan_records_per_sec", records_per_sec.to_value()),
        ("scan_mb_per_sec", mb_per_sec.to_value()),
    ])
}

fn main() {
    let profile = Profile::from_env();
    let cfg = profile.config();
    banner("service_latency: sweep-service cold miss vs warm hit", &cfg);

    let shapes = [
        (
            "gemm-8x64x32",
            GemmDims {
                rows: 8,
                inner: 64,
                cols: 32,
            },
        ),
        (
            "gemm-16x128x32",
            GemmDims {
                rows: 16,
                inner: 128,
                cols: 32,
            },
        ),
        (
            "bert-ffn-capped",
            cfg.caps.apply(GemmDims {
                rows: 3072,
                inner: 768,
                cols: 128,
            }),
        ),
    ];
    let rows: Vec<Row> = shapes
        .iter()
        .map(|(label, dims)| measure_shape(label, *dims, &cfg))
        .collect();

    println!(
        "{:<18} {:>12} {:>12} {:>14} {:>20} {:>13} {:>11} {:>11}",
        "shape",
        "dims",
        "cold ms",
        "warm(mem) us",
        "warm(http) us med/p90",
        "warm(disk) us",
        "mem x",
        "disk x"
    );
    for r in &rows {
        println!(
            "{:<18} {:>12} {:>12.2} {:>14.1} {:>20} {:>13.1} {:>10.0}x {:>10.0}x",
            r.label,
            format!("{}x{}x{}", r.dims.rows, r.dims.inner, r.dims.cols),
            r.cold_ms,
            r.warm_mem_us,
            format!("{:.1}/{:.1}", r.warm_http_us.median, r.warm_http_us.p90),
            r.warm_disk_us,
            r.mem_speedup(),
            r.disk_speedup(),
        );
    }
    println!();
    let scan = measure_scan(&cfg);

    let json = Value::object([
        ("bench", "service_latency".to_value()),
        ("profile", format!("{}", cfg.caps).to_value()),
        ("warm_iters", WARM_ITERS.to_value()),
        (
            "rows",
            Value::Array(rows.iter().map(Row::to_value).collect()),
        ),
        ("store_scan", scan),
    ]);
    let path = write_bench_output(
        "BENCH_service.json",
        Profile::Default,
        profile,
        &serde_json::to_string_pretty(&json).expect("total"),
    );
    println!("\nwrote {}", path.display());

    // The acceptance bar for the whole service: a warm hit (the LRU
    // front is on by default, so this is what clients actually see)
    // must beat recomputation by >100x on every shape. The LRU-disabled
    // disk path is a diagnostic — on smoke-capped shapes the recompute
    // itself is only ~1 ms, so it gets a softer regression bar.
    for r in &rows {
        assert!(
            r.mem_speedup() > 100.0,
            "{}: warm hit only {:.0}x faster than recompute",
            r.label,
            r.mem_speedup()
        );
        assert!(
            r.disk_speedup() > 10.0,
            "{}: LRU-disabled disk hit only {:.0}x faster than recompute",
            r.label,
            r.disk_speedup()
        );
    }
    println!("warm-hit acceptance: every shape >100x faster than recompute");
}
