//! A minimal HTTP/1.1 client for the load generator: one request per
//! connection, matching the server's `Connection: close` transport.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-request socket timeout; a request that exceeds it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed response: status code and body.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// A message naming the failed step (connect, send, receive, parse).
pub fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("set nodelay: {e}"))?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| format!("send: {e}"))?;
    stream.write_all(body.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed status line: {:?}", &raw[..raw.len().min(40)]))?;
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_string();
    Ok(Reply { status, body })
}
