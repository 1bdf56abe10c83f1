//! `--trace-out` / `--serve` support for the `figures` binary, which
//! accepts
//!
//! ```text
//! --trace-out <path>      write the run's trace as Chrome trace JSON
//! --serve <addr>          serve /metrics, /trace, /healthz while running
//! --serve-linger <secs>   keep serving this long after the work finishes
//! ```
//!
//! `--trace-out` turns event recording on for the process (equivalent to
//! `DB_TRACE=1`, which also works); `--serve` starts a
//! [`db_obsd::TelemetryServer`] before the workload and shuts it down
//! after the optional linger window, so CI smoke tests can scrape a
//! finished run deterministically.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use db_obsd::{ObsdError, TelemetryServer};

/// Everything the telemetry plumbing can fail on — flag parsing, binding
/// the serve address, writing the trace file. Typed so `figures` exits
/// nonzero with a clear message instead of panicking.
#[derive(Debug)]
pub enum TelemetryError {
    /// A flag that requires a value appeared last on the command line.
    MissingValue {
        /// The flag, e.g. `--serve`.
        flag: &'static str,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// A flag's value did not parse.
    BadValue {
        /// The flag, e.g. `--serve-linger`.
        flag: &'static str,
        /// The value as given.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// The live endpoint could not start (e.g. address already in use).
    Serve(ObsdError),
    /// The `--trace-out` file could not be written.
    TraceWrite {
        /// The requested output path.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::MissingValue { flag, expected } => {
                write!(f, "{flag} needs {expected}")
            }
            TelemetryError::BadValue { flag, value, expected } => {
                write!(f, "{flag} got {value:?} but needs {expected}")
            }
            TelemetryError::Serve(e) => write!(f, "{e}"),
            TelemetryError::TraceWrite { path, source } => {
                write!(f, "could not write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for TelemetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TelemetryError::Serve(e) => Some(e),
            TelemetryError::TraceWrite { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Telemetry options parsed from the command line.
#[derive(Debug, Default, Clone)]
pub struct TelemetryOptions {
    /// Where to write the Chrome trace JSON, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Listen address for the live endpoint, e.g. `127.0.0.1:9184`.
    pub serve: Option<String>,
    /// How long to keep serving after the workload completes.
    pub linger: Duration,
}

impl TelemetryOptions {
    /// Tries to consume one telemetry flag. Returns `Ok(true)` when `arg`
    /// was one (its value, if any, is taken from `args`), `Ok(false)` when
    /// it is not a telemetry flag, and a typed [`TelemetryError`] when a
    /// required value is missing or malformed.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::MissingValue`] / [`TelemetryError::BadValue`].
    pub fn consume_arg(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, TelemetryError> {
        match arg {
            "--trace-out" => {
                let v = args.next().ok_or(TelemetryError::MissingValue {
                    flag: "--trace-out",
                    expected: "a file path",
                })?;
                self.trace_out = Some(PathBuf::from(v));
                Ok(true)
            }
            "--serve" => {
                let v = args.next().ok_or(TelemetryError::MissingValue {
                    flag: "--serve",
                    expected: "an address, e.g. 127.0.0.1:9184",
                })?;
                self.serve = Some(v);
                Ok(true)
            }
            "--serve-linger" => {
                let raw = args.next().ok_or(TelemetryError::MissingValue {
                    flag: "--serve-linger",
                    expected: "a whole number of seconds",
                })?;
                let v = raw.parse::<u64>().map_err(|_| TelemetryError::BadValue {
                    flag: "--serve-linger",
                    value: raw,
                    expected: "a whole number of seconds",
                })?;
                self.linger = Duration::from_secs(v);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Starts whatever the options ask for. Call before the workload; pass
    /// the result to [`Telemetry::finish`] afterwards.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Serve`] when the serve address cannot be bound
    /// (e.g. the port is in use) — callers should print it and exit
    /// nonzero rather than panic.
    pub fn start(&self) -> Result<Telemetry, TelemetryError> {
        let server = match &self.serve {
            Some(addr) => {
                let server = TelemetryServer::start(addr).map_err(TelemetryError::Serve)?;
                eprintln!(
                    "telemetry: serving /metrics /trace /healthz on http://{}",
                    server.addr()
                );
                Some(server)
            }
            None => None,
        };
        if self.trace_out.is_some() {
            db_obs::trace::set_enabled(true);
        }
        Ok(Telemetry { server, trace_out: self.trace_out.clone(), linger: self.linger })
    }
}

/// Live telemetry state for one benchmark process.
#[derive(Debug)]
pub struct Telemetry {
    server: Option<TelemetryServer>,
    trace_out: Option<PathBuf>,
    linger: Duration,
}

impl Telemetry {
    /// Writes the trace file (when requested), serves out the linger
    /// window, and shuts the server down.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::TraceWrite`] when the trace file cannot be
    /// written.
    pub fn finish(mut self) -> Result<(), TelemetryError> {
        if let Some(path) = &self.trace_out {
            let json = db_obs::trace_json(&db_obs::trace::events());
            std::fs::write(path, &json)
                .map_err(|source| TelemetryError::TraceWrite { path: path.clone(), source })?;
            eprintln!("telemetry: wrote {} ({} bytes)", path.display(), json.len());
        }
        if let Some(server) = &mut self.server {
            if !self.linger.is_zero() {
                eprintln!("telemetry: lingering {:?} before shutdown", self.linger);
                std::thread::sleep(self.linger);
            }
            server.shutdown();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consume(cli: &[&str]) -> Result<TelemetryOptions, TelemetryError> {
        let mut opts = TelemetryOptions::default();
        let mut args = cli.iter().map(|s| (*s).to_string());
        while let Some(arg) = args.next() {
            opts.consume_arg(&arg, &mut args)?;
        }
        Ok(opts)
    }

    #[test]
    fn parses_all_flags() {
        let opts =
            consume(&["--trace-out", "t.json", "--serve", "127.0.0.1:0", "--serve-linger", "3"])
                .expect("valid flags");
        assert_eq!(opts.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!(opts.serve.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.linger, Duration::from_secs(3));
    }

    #[test]
    fn non_telemetry_flags_are_left_alone() {
        let mut opts = TelemetryOptions::default();
        let mut args = std::iter::empty();
        assert!(matches!(opts.consume_arg("--scale", &mut args), Ok(false)));
    }

    #[test]
    fn missing_values_are_typed_errors() {
        for flag in ["--trace-out", "--serve", "--serve-linger"] {
            match consume(&[flag]) {
                Err(TelemetryError::MissingValue { flag: f, .. }) => assert_eq!(f, flag),
                other => panic!("{flag}: expected MissingValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_linger_is_a_typed_error_that_names_the_value() {
        match consume(&["--serve-linger", "soon"]) {
            Err(e @ TelemetryError::BadValue { flag, .. }) => {
                assert_eq!(flag, "--serve-linger");
                let msg = e.to_string();
                assert!(msg.contains("soon"), "message should quote the value: {msg}");
            }
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn unbindable_serve_address_is_a_typed_error() {
        let opts = consume(&["--serve", "256.256.256.256:1"]).expect("parses fine");
        match opts.start() {
            Err(TelemetryError::Serve(_)) => {}
            other => panic!("expected Serve error, got {other:?}"),
        }
    }

    #[test]
    fn unwritable_trace_path_is_a_typed_error() {
        let opts = TelemetryOptions {
            trace_out: Some(PathBuf::from("/nonexistent-dir/trace.json")),
            ..TelemetryOptions::default()
        };
        let telemetry = opts.start().expect("no server requested");
        match telemetry.finish() {
            Err(TelemetryError::TraceWrite { path, .. }) => {
                assert_eq!(path, PathBuf::from("/nonexistent-dir/trace.json"));
            }
            other => panic!("expected TraceWrite error, got {other:?}"),
        }
    }
}
