//! A minimal HTTP/1.1 client for the serve daemon: one request per
//! connection, close-delimited responses, as the daemon speaks them.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use vax_analysis::Json;

/// Longest a request may stall before the benchmark gives up on it.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A response: status code and body bytes.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// True for a 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(&String::from_utf8_lossy(&self.body))
    }
}

fn send(addr: &str, method: &str, path: &str, body: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    Ok(stream)
}

/// Read the status line and headers; returns the status code.
fn read_head(reader: &mut impl BufRead) -> io::Result<u16> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {line:?}"),
            )
        })?;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            return Ok(status);
        }
    }
}

/// One request/response exchange.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut reader = BufReader::new(send(addr, method, path, body)?);
    let status = read_head(&mut reader)?;
    let mut body = Vec::new();
    reader.read_to_end(&mut body)?;
    Ok(Response { status, body })
}

/// Follow `/jobs/:id/events` until a terminal state arrives. Returns the
/// stream's HTTP status and the terminal state name (`None` when the
/// stream ended without one).
pub fn follow_events(addr: &str, id: &str) -> io::Result<(u16, Option<String>)> {
    let mut reader = BufReader::new(send(addr, "GET", &format!("/jobs/{id}/events"), "")?);
    let status = read_head(&mut reader)?;
    if status != 200 {
        return Ok((status, None));
    }
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        let state = Json::parse(line.trim())
            .ok()
            .and_then(|j| j.get("status").and_then(Json::as_str).map(str::to_string));
        if let Some(state) = state {
            if !matches!(state.as_str(), "queued" | "running") {
                return Ok((status, Some(state)));
            }
        }
        line.clear();
    }
    Ok((status, None))
}
