//! `db-obsd`: a zero-dependency HTTP layer and telemetry endpoint.
//!
//! Two things live here:
//!
//! 1. [`http`] — a minimal, hardened HTTP/1.1 server over [`std::net`]
//!    with a pluggable [`http::Handler`]: capped request heads (`431`),
//!    capped bodies (`413`), half-open timeouts (`408`), typed bind
//!    errors, clean shutdown. `db-serve` builds the streaming clustering
//!    service on top of it.
//! 2. [`TelemetryServer`] — the classic telemetry endpoint, now a thin
//!    wrapper serving [`telemetry_response`] over an [`http::HttpServer`]:
//!
//! | route          | body                                                |
//! |----------------|-----------------------------------------------------|
//! | `GET /metrics` | Prometheus text exposition 0.0.4 of the metric
//! |                | registry (counters, gauges, histogram buckets,
//! |                | span summaries)                                     |
//! | `GET /trace`   | the tracing ring buffers as Chrome trace JSON
//! |                | (empty `traceEvents` unless `DB_TRACE=1`)           |
//! | `GET /healthz` | last supervised-run health from [`db_obs::health`]:
//! |                | `200 ok` / `200 degraded: …` / `503 failing: …`     |
//!
//! Every telemetry handler only *reads* shared state (a metrics snapshot
//! or a seqlock ring copy), so scrapes never block the instrumented code.
//!
//! Errors are typed ([`ObsdError`]); in particular binding a busy port
//! reports [`ObsdError::Bind`] with an address-in-use message instead of
//! panicking, so callers can print a clear diagnostic and exit.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

pub use http::{
    Handler, HttpServer, Request, Response, MAX_BODY_BYTES, MAX_HEAD_BYTES, MAX_REQUEST_LINE_BYTES,
};

/// Everything that can go wrong running a server from this crate.
#[derive(Debug)]
pub enum ObsdError {
    /// Binding the listen address failed (port in use, bad address,
    /// missing privileges, ...).
    Bind {
        /// The address that was requested.
        addr: String,
        /// The underlying OS error.
        source: io::Error,
    },
    /// The accept loop died on a non-transient error.
    Accept {
        /// The underlying OS error.
        source: io::Error,
    },
}

impl fmt::Display for ObsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsdError::Bind { addr, source } if source.kind() == io::ErrorKind::AddrInUse => {
                write!(
                    f,
                    "telemetry address {addr} is already in use — is another run serving \
                     there? pick a different --serve address"
                )
            }
            ObsdError::Bind { addr, source } => {
                write!(f, "cannot bind telemetry address {addr}: {source}")
            }
            ObsdError::Accept { source } => {
                write!(f, "telemetry accept loop failed: {source}")
            }
        }
    }
}

impl std::error::Error for ObsdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsdError::Bind { source, .. } | ObsdError::Accept { source } => Some(source),
        }
    }
}

/// Answers the three telemetry routes (`/metrics`, `/trace`, `/healthz`).
///
/// Telemetry is read-only, so any non-`GET` method is `405` — even on a
/// path another composed handler might accept for `POST`. Callers
/// composing their own routes (like `db-serve`) should therefore try
/// their routes *first* and fall back to this for everything else.
pub fn telemetry_response(req: &Request) -> Response {
    if req.method != "GET" {
        return Response::method_not_allowed();
    }
    match req.path.as_str() {
        "/healthz" => {
            let report = db_obs::health::current();
            match report.status {
                db_obs::health::Status::Unknown | db_obs::health::Status::Ok => {
                    Response::ok_text("ok\n")
                }
                db_obs::health::Status::Degraded => {
                    Response::text(200, format!("degraded: {}\n", report.detail))
                }
                db_obs::health::Status::Failing => {
                    Response::text(503, format!("failing: {}\n", report.detail))
                }
            }
        }
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
            body: db_obs::prometheus_text(&db_obs::snapshot()),
        },
        "/trace" => Response::json(200, db_obs::trace_json(&db_obs::trace::events())),
        _ => Response::not_found(),
    }
}

/// A running telemetry endpoint. Dropping it shuts the listener down
/// (best effort); call [`TelemetryServer::shutdown`] to do so explicitly
/// and join the accept thread.
#[derive(Debug)]
pub struct TelemetryServer {
    inner: HttpServer,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
    /// port) and starts serving in a background thread.
    ///
    /// # Errors
    ///
    /// [`ObsdError::Bind`] when the address cannot be bound; the server
    /// never panics on I/O.
    pub fn start(addr: &str) -> Result<TelemetryServer, ObsdError> {
        let inner = HttpServer::start(addr, "db-obsd", Arc::new(telemetry_response))?;
        Ok(TelemetryServer { inner })
    }

    /// The address actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stops accepting, wakes the accept loop, and joins it. Idempotent.
    /// In-flight request handlers finish on their own threads.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}
