//! End-to-end tests for the telemetry server over real sockets: every
//! route, concurrent scrapes during active recording, typed bind errors,
//! and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use db_obsd::{ObsdError, TelemetryServer, MAX_HEAD_BYTES, MAX_REQUEST_LINE_BYTES};

/// Serializes tests that read or write the process-global health slot.
static HEALTH_SERIAL: Mutex<()> = Mutex::new(());

/// Issues one HTTP/1.1 request and returns (status, body).
fn request(addr: std::net::SocketAddr, method: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn serves_all_routes() {
    let _health = HEALTH_SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    db_obs::health::reset();
    let server = TelemetryServer::start("127.0.0.1:0").expect("start");
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Register something so /metrics has content to expose.
    db_obs::counter!("obsd.test_requests").add(3);
    let (status, body) = request(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE obsd_test_requests counter"), "missing TYPE: {body}");
    assert!(body.contains("obsd_test_requests 3"), "missing sample: {body}");

    let (status, body) = request(addr, "GET", "/trace");
    assert_eq!(status, 200);
    let doc = db_obs::Json::parse(&body).expect("/trace must serve valid JSON");
    assert!(doc.get("traceEvents").is_some());

    // Query strings are ignored, unknown paths 404, non-GET 405.
    assert_eq!(request(addr, "GET", "/healthz?verbose=1").0, 200);
    assert_eq!(request(addr, "GET", "/nope").0, 404);
    assert_eq!(request(addr, "POST", "/metrics").0, 405);
}

#[test]
fn concurrent_scrapes_during_recording() {
    let server = TelemetryServer::start("127.0.0.1:0").expect("start");
    let addr = server.addr();
    db_obs::trace::set_enabled(true);

    std::thread::scope(|s| {
        // A writer hammers the metrics + trace ring while scrapers read.
        let writer = s.spawn(|| {
            for i in 0..20_000u64 {
                db_obs::counter!("obsd.scrape_race").add(1);
                db_obs::histogram!("obsd.scrape_race_hist").record((i & 0xff) as f64);
                db_obs::trace_instant!("obsd.scrape_mark", "i", i);
            }
        });
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    for _ in 0..25 {
                        let (status, body) = request(addr, "GET", "/metrics");
                        assert_eq!(status, 200);
                        // Exposition must stay well-formed mid-run: every
                        // non-comment line is `name{labels} value`.
                        for line in body.lines().filter(|l| !l.starts_with('#')) {
                            let mut it = line.rsplitn(2, ' ');
                            let value = it.next().unwrap();
                            assert!(
                                value == "NaN"
                                    || value.parse::<f64>().is_ok()
                                    || value.starts_with("+Inf"),
                                "bad sample line {line:?}"
                            );
                        }
                        let (status, body) = request(addr, "GET", "/trace");
                        assert_eq!(status, 200);
                        db_obs::Json::parse(&body).expect("torn /trace JSON");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for sc in scrapers {
            sc.join().unwrap();
        }
    });
}

#[test]
fn healthz_reflects_last_run_health() {
    let _health = HEALTH_SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let server = TelemetryServer::start("127.0.0.1:0").expect("start");
    let addr = server.addr();

    db_obs::health::reset();
    assert_eq!(request(addr, "GET", "/healthz"), (200, "ok\n".to_string()));

    db_obs::health::report_ok();
    assert_eq!(request(addr, "GET", "/healthz"), (200, "ok\n".to_string()));

    db_obs::health::report_degraded("halved k to 8");
    assert_eq!(request(addr, "GET", "/healthz"), (200, "degraded: halved k to 8\n".to_string()));

    db_obs::health::report_failing("deadline exceeded during clustering after 0.051s");
    let (status, body) = request(addr, "GET", "/healthz");
    assert_eq!(status, 503);
    assert_eq!(body, "failing: deadline exceeded during clustering after 0.051s\n");

    db_obs::health::reset();
}

/// Sends `raw` as-is (no terminating blank line added) and returns the
/// status code, or `None` if the server closed without responding.
fn raw_request(addr: std::net::SocketAddr, raw: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(raw).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    response.split_whitespace().nth(1).and_then(|s| s.parse().ok())
}

#[test]
fn oversized_request_line_gets_431_without_buffering_it() {
    let server = TelemetryServer::start("127.0.0.1:0").expect("start");
    let addr = server.addr();

    // A request line longer than its own cap (but with a proper head).
    let long_path = "x".repeat(MAX_REQUEST_LINE_BYTES + 100);
    let raw = format!("GET /{long_path} HTTP/1.1\r\n\r\n");
    assert_eq!(raw_request(addr, raw.as_bytes()), Some(431));

    // An endless request line: more than the whole head cap, no newline
    // at all. The server must answer promptly (bounded read), not wait
    // for a line that never ends.
    let t0 = Instant::now();
    let endless = vec![b'a'; MAX_HEAD_BYTES + 4096];
    assert_eq!(raw_request(addr, &endless), Some(431));
    assert!(t0.elapsed() < Duration::from_secs(2), "431 must not wait out the read timeout");

    // Headers exceeding the head cap (request line fine) also 431.
    let fat_headers =
        format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(MAX_HEAD_BYTES));
    assert_eq!(raw_request(addr, fat_headers.as_bytes()), Some(431));

    // The server is still healthy afterwards.
    assert_eq!(request(addr, "GET", "/metrics").0, 200);
}

#[test]
fn half_open_slow_client_gets_408_and_never_wedges_the_server() {
    let server = TelemetryServer::start("127.0.0.1:0").expect("start");
    let addr = server.addr();

    // Send a partial request line, then go silent: the server's read
    // timeout must fire and answer 408 instead of holding the socket.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.write_all(b"GET /metr").expect("partial write");
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // While the slow client is stalled, other clients are served (the
    // handler is per-connection, so this also proves no accept-loop
    // head-of-line blocking).
    assert_eq!(request(addr, "GET", "/healthz").0, 200);

    let mut response = String::new();
    slow.read_to_string(&mut response).expect("read 408");
    assert!(response.starts_with("HTTP/1.1 408 "), "expected 408, got {response:?}");

    // Same for a client that completes the request line but stalls
    // mid-headers.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n").expect("partial head");
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut response = String::new();
    stalled.read_to_string(&mut response).expect("read 408");
    assert!(response.starts_with("HTTP/1.1 408 "), "expected 408, got {response:?}");
}

#[test]
fn bind_conflict_is_a_typed_error() {
    let server = TelemetryServer::start("127.0.0.1:0").expect("start");
    let addr = server.addr().to_string();
    let err = TelemetryServer::start(&addr).expect_err("second bind must fail");
    match &err {
        ObsdError::Bind { addr: a, .. } => assert_eq!(a, &addr),
        other => panic!("expected Bind error, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains(&addr), "message should name the address: {msg}");
    assert!(msg.contains("already in use"), "message should say why: {msg}");
}

#[test]
fn shutdown_releases_the_port() {
    let mut server = TelemetryServer::start("127.0.0.1:0").expect("start");
    let addr = server.addr();
    assert_eq!(request(addr, "GET", "/healthz").0, 200);
    server.shutdown();
    server.shutdown(); // idempotent
    drop(server);
    // The port is free again (SO_REUSEADDR is not set, so a successful
    // rebind proves the listener actually closed).
    let rebound =
        TelemetryServer::start(&addr.to_string()).expect("port must be reusable after shutdown");
    assert_eq!(request(rebound.addr(), "GET", "/healthz").0, 200);
}
