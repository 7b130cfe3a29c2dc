//! A blocking HTTP/1.1 client for one request per connection, the model
//! the daemon serves (`Connection: close`).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a client waits on a silent daemon before the request fails.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The `X-Ptk-Cache` state of a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// Served from the result cache.
    Hit,
    /// Executed, then cached.
    Miss,
    /// Executed, never cacheable.
    Uncacheable,
    /// No cache header (errors, control endpoints).
    None,
}

/// A response read off the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Ptk-Cache` header.
    pub cache: Cache,
    /// The body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

/// Client-side timestamps of one exchange.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Before `connect`.
    pub start: Instant,
    /// After the last request byte was written.
    pub sent: Instant,
    /// After the response was read to end of stream.
    pub done: Instant,
}

/// Connects, sends `request`, and reads the whole response. With
/// `half_close` the write side is shut after sending, which a request
/// that under-delivers its body needs to be answered at once.
pub fn exchange(
    addr: SocketAddr,
    request: &[u8],
    half_close: bool,
) -> io::Result<(Response, Timing)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(request)?;
    if half_close {
        stream.shutdown(Shutdown::Write)?;
    }
    let sent = Instant::now();
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let done = Instant::now();
    let response = parse_response(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    Ok((response, Timing { start, sent, done }))
}

/// `GET path`, returning the body when the status is 200.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: ptkbench\r\n\r\n");
    let (response, _) = exchange(addr, request.as_bytes(), false)?;
    if response.status != 200 {
        return Err(io::Error::other(format!(
            "GET {path}: status {}",
            response.status
        )));
    }
    String::from_utf8(response.body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Splits a full response into status, cache header and body; `None`
/// unless the status line parses and the body length matches
/// `Content-Length`.
pub fn parse_response(raw: &[u8]) -> Option<Response> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut cache = Cache::None;
    let mut length = None;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("x-ptk-cache") {
            cache = match value {
                "hit" => Cache::Hit,
                "miss" => Cache::Miss,
                "uncacheable" => Cache::Uncacheable,
                _ => return None,
            };
        } else if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().ok()?);
        }
    }
    let body = &raw[head_end + 4..];
    (length? == body.len()).then(|| Response {
        status,
        cache,
        body: body.to_vec(),
    })
}

/// FNV-1a over `bytes`: the digest each response body is checked by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_daemon_codec_writes() {
        let mut raw = Vec::new();
        ptk_serve::http::write_response(
            &mut raw,
            200,
            "text/plain",
            &[("X-Ptk-Cache", "hit")],
            "ab\n",
        )
        .expect("in-memory write");
        let r = parse_response(&raw).expect("parses");
        assert_eq!(
            (r.status, r.cache, r.body.as_slice()),
            (200, Cache::Hit, &b"ab\n"[..])
        );
        // A short body is a broken response, not a short answer.
        assert!(parse_response(&raw[..raw.len() - 1]).is_none());
    }
}
