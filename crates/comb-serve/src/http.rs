//! HTTP/1.1 framing over `std::net` — request parsing, response writing,
//! chunked streaming, and a small loopback client for tests and benches.
//!
//! Deliberately the minimum the serving API needs: `Content-Length`
//! bodies, keep-alive (pipelined requests are answered in order), and
//! chunked transfer-encoding on responses only. Every frame goes out in
//! one write.
//! Limits are hard (16 KiB of headers, 1 MiB of body) so a misbehaving
//! client cannot grow server memory.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY: usize = 1024 * 1024;

/// The server-side connection surface: a byte stream plus the two
/// transport facts the router needs (read pacing and peer locality).
/// Implemented by [`TcpStream`], by
/// [`FaultedStream`](crate::netfault::FaultedStream) wrapping any `Conn`,
/// and by the in-memory [`MemStream`] the fuzz harness drives, so the
/// whole request path can run without a socket.
pub trait Conn: Read + Write {
    /// Bound how long the next `read` may block (`None` = forever).
    /// Implementations may clamp tiny windows up to a minimum the OS
    /// accepts; they must never turn `Some` into an unbounded wait.
    fn set_read_window(&mut self, window: Option<Duration>) -> std::io::Result<()>;

    /// Whether the peer is a loopback address (gates `/admin/shutdown`).
    fn is_loopback(&self) -> bool;
}

impl Conn for TcpStream {
    fn set_read_window(&mut self, window: Option<Duration>) -> std::io::Result<()> {
        // A zero Duration means "no timeout" to the OS — clamp to 1 ms so
        // an expired deadline still produces a prompt TimedOut, not a hang.
        self.set_read_timeout(window.map(|w| w.max(Duration::from_millis(1))))
    }

    fn is_loopback(&self) -> bool {
        self.peer_addr()
            .map(|a| a.ip().is_loopback())
            .unwrap_or(false)
    }
}

/// In-memory bidirectional stream: reads come from a scripted input
/// buffer, writes accumulate in `out`. Lets the fuzz harness and unit
/// tests push adversarial byte sequences through [`read_request_limited`]
/// and the response writers without sockets or timing.
#[derive(Debug, Default)]
pub struct MemStream {
    input: std::io::Cursor<Vec<u8>>,
    /// Everything the server side wrote back.
    pub out: Vec<u8>,
    /// What [`Conn::is_loopback`] reports (default false).
    pub loopback: bool,
}

impl MemStream {
    /// A stream that will serve `input` to reads.
    pub fn new(input: Vec<u8>) -> MemStream {
        MemStream {
            input: std::io::Cursor::new(input),
            out: Vec::new(),
            loopback: false,
        }
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Conn for MemStream {
    fn set_read_window(&mut self, _window: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }

    fn is_loopback(&self) -> bool {
        self.loopback
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Method verb, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), as received.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// True for `HTTP/1.1` requests (keep-alive by default).
    pub http11: bool,
}

impl Request {
    /// First header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Result of trying to read one request from a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed (or went idle past the read timeout) before
    /// sending anything — reap silently.
    Closed,
    /// Bytes arrived but did not form a valid request — answer 400 and
    /// close.
    Malformed(String),
    /// A request *started* arriving but did not complete within the
    /// per-request deadline (a slowloris-paced head or a stalled body) —
    /// answer 408 and close, freeing the worker.
    TimedOut,
}

/// Read pacing for [`read_request_limited`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadLimits {
    /// How long to wait for the *first* byte (keep-alive idle reap).
    /// `None` leaves the stream's current read window untouched.
    pub idle: Option<Duration>,
    /// Deadline for the whole request once its first byte arrives. A
    /// client that trickles bytes slower than this is cut off with
    /// [`ReadOutcome::TimedOut`] no matter how often it resets the idle
    /// window.
    pub total: Option<Duration>,
}

/// Read one request with the stream's pre-configured read timeout as the
/// only pacing (legacy behavior: any timeout reads as
/// [`ReadOutcome::Closed`]).
pub fn read_request<S: Conn>(stream: &mut S) -> ReadOutcome {
    read_request_limited(stream, ReadLimits::default())
}

/// Read one request under [`ReadLimits`] through a fresh
/// [`RequestReader`], for callers that answer one request per connection.
/// Bytes past the request are dropped with the reader.
pub fn read_request_limited<S: Conn>(stream: &mut S, limits: ReadLimits) -> ReadOutcome {
    RequestReader::new().read(stream, limits)
}

/// Reads the requests of one connection through one buffer. Bytes that
/// arrive past a request's body belong to the next request (HTTP/1.1
/// pipelining) and are parsed first by the next [`RequestReader::read`],
/// so pipelined requests are answered in order.
#[derive(Debug, Default)]
pub struct RequestReader {
    buf: Vec<u8>,
}

impl RequestReader {
    /// A reader with nothing buffered.
    pub fn new() -> RequestReader {
        RequestReader::default()
    }

    /// Read the next request under [`ReadLimits`]. The idle window
    /// doubles as the keep-alive reaper (timeout with zero buffered bytes
    /// is a clean [`ReadOutcome::Closed`]); the total deadline bounds how
    /// long a worker can be held by one request once bytes start flowing.
    /// Bytes left over from the previous request count as arrived.
    pub fn read<S: Conn>(&mut self, stream: &mut S, limits: ReadLimits) -> ReadOutcome {
        read_buffered(&mut self.buf, stream, limits)
    }
}

/// [`RequestReader::read`] over the reader's buffer: parses the request
/// at the front of `buf`, reading more as needed, and leaves the bytes
/// after its body in `buf`.
fn read_buffered<S: Conn>(buf: &mut Vec<u8>, stream: &mut S, limits: ReadLimits) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    // Armed by the first byte of the request.
    let mut deadline: Option<Instant> = None;
    if limits.idle.is_some() && stream.set_read_window(limits.idle).is_err() {
        return ReadOutcome::Closed;
    }

    // Returns the remaining read window, or None when the deadline
    // expired. Shrinking the OS window to the remaining budget is what
    // defeats slowloris pacing: one byte per idle window would otherwise
    // reset the clock forever.
    let arm = |stream: &mut S, deadline: &mut Option<Instant>| -> Option<()> {
        let d = match (*deadline, limits.total) {
            (Some(d), _) => d,
            (None, Some(total)) => {
                let d = Instant::now() + total;
                *deadline = Some(d);
                d
            }
            (None, None) => return Some(()),
        };
        let left = d.checked_duration_since(Instant::now())?;
        if left.is_zero() {
            return None;
        }
        let window = match limits.idle {
            Some(idle) => idle.min(left),
            None => left,
        };
        stream.set_read_window(Some(window)).ok()?;
        Some(())
    };

    let head_end = loop {
        if let Some(i) = find_head_end(buf) {
            break i;
        }
        if buf.len() > MAX_HEAD {
            return ReadOutcome::Malformed("request head too large".to_string());
        }
        if !buf.is_empty() && arm(stream, &mut deadline).is_none() {
            return ReadOutcome::TimedOut;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed("connection closed mid-request".to_string())
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    // Idle reap: nothing arrived within the read window —
                    // the connection is dead weight, close it silently.
                    return ReadOutcome::Closed;
                }
                if deadline.is_none_or(|d| Instant::now() >= d) {
                    // Partial head past the request deadline (or with no
                    // deadline configured, legacy reap semantics).
                    return if limits.total.is_some() {
                        ReadOutcome::TimedOut
                    } else {
                        ReadOutcome::Closed
                    };
                }
            }
            Err(e) => return ReadOutcome::Malformed(format!("read error: {e}")),
        }
    };

    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return ReadOutcome::Malformed("non-UTF-8 request head".to_string()),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return ReadOutcome::Malformed(format!("bad request line '{request_line}'")),
    };
    let (method, path, http11) = (method.to_string(), path.to_string(), version == "HTTP/1.1");
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((k, v)) = line.split_once(':') else {
            return ReadOutcome::Malformed(format!("bad header line '{line}'"));
        };
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }

    let content_len = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_len > MAX_BODY {
        return ReadOutcome::Malformed("request body too large".to_string());
    }
    let end = head_end + 4 + content_len;
    while buf.len() < end {
        if arm(stream, &mut deadline).is_none() {
            return ReadOutcome::TimedOut;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Malformed("connection closed mid-body".to_string()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if deadline.is_none_or(|d| Instant::now() >= d) {
                    return if limits.total.is_some() {
                        ReadOutcome::TimedOut
                    } else {
                        // Legacy pacing: the stream's own read timeout
                        // expired mid-body — a truncated request.
                        ReadOutcome::Malformed("timed out mid-body".to_string())
                    };
                }
            }
            Err(e) => return ReadOutcome::Malformed(format!("body read error: {e}")),
        }
    }
    let body = buf[head_end + 4..end].to_vec();
    // Keep what follows the body: the start of the next request.
    buf.drain(..end);

    ReadOutcome::Request(Request {
        method,
        path,
        headers,
        body,
        http11,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Canonical reason phrase for the status codes the server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one complete (non-chunked) response: head and body are built
/// into one buffer and go out in one write, so a small response is one
/// TCP segment.
pub fn write_response<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let extra: usize = extra_headers
        .iter()
        .map(|(k, v)| k.len() + v.len() + 4)
        .sum();
    let mut frame = Vec::with_capacity(128 + content_type.len() + extra + body.len());
    write!(
        frame,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        status_text(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    push_headers(&mut frame, extra_headers);
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Append `Name: value` lines and the blank line that ends a head.
fn push_headers(frame: &mut Vec<u8>, headers: &[(&str, String)]) {
    for (k, v) in headers {
        frame.extend_from_slice(k.as_bytes());
        frame.extend_from_slice(b": ");
        frame.extend_from_slice(v.as_bytes());
        frame.extend_from_slice(b"\r\n");
    }
    frame.extend_from_slice(b"\r\n");
}

/// Incremental chunked-transfer response writer (used by the job event
/// stream). Always closes the connection when finished.
pub struct ChunkedWriter<'a, S: Write> {
    stream: &'a mut S,
}

impl<'a, S: Write> ChunkedWriter<'a, S> {
    /// Write the response head and switch the connection to chunked mode.
    pub fn start(
        stream: &'a mut S,
        content_type: &str,
        extra_headers: &[(&str, String)],
    ) -> std::io::Result<ChunkedWriter<'a, S>> {
        let mut head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n"
        )
        .into_bytes();
        push_headers(&mut head, extra_headers);
        stream.write_all(&head)?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Emit one chunk in one write (empty input is skipped — an empty
    /// chunk would terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut frame = Vec::with_capacity(data.len() + 20);
        write!(frame, "{:x}\r\n", data.len())?;
        frame.extend_from_slice(data);
        frame.extend_from_slice(b"\r\n");
        self.stream.write_all(&frame)?;
        self.stream.flush()
    }

    /// Terminate the stream.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A parsed client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Decoded body (chunked transfer-encoding is reassembled).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Issue one request over a fresh connection and read the full response.
/// This is the loopback client the tests, the CI smoke job (via curl
/// equivalence) and the serving bench use.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    send_request(&mut stream, method, path, body)?;
    read_client_response(&mut stream)
}

/// Write one request on an existing connection (keep-alive friendly),
/// head and body in one write.
pub fn send_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> std::io::Result<()> {
    let body = body.unwrap_or(&[]);
    let mut frame = Vec::with_capacity(64 + method.len() + path.len() + body.len());
    write!(
        frame,
        "{method} {path} HTTP/1.1\r\nHost: comb\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Read one response from an existing connection.
pub fn read_client_response(stream: &mut TcpStream) -> std::io::Result<ClientResponse> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof before response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line '{status_line}'"),
            )
        })?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let mut rest = buf[head_end + 4..].to_vec();
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        // Read until the zero-length terminator chunk, then decode.
        while !has_chunked_end(&rest) {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            rest.extend_from_slice(&chunk[..n]);
        }
        decode_chunked(&rest)?
    } else {
        let want: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        while rest.len() < want {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            rest.extend_from_slice(&chunk[..n]);
        }
        rest.truncate(want);
        rest
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

fn has_chunked_end(buf: &[u8]) -> bool {
    // The terminator is `0\r\n\r\n`, possibly preceded by chunk data
    // that could contain the same bytes — a full incremental parse is
    // overkill for loopback tests, so decode speculatively instead.
    decode_chunked(buf).is_ok()
}

fn decode_chunked(mut buf: &[u8]) -> std::io::Result<Vec<u8>> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut out = Vec::new();
    loop {
        let nl = buf
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| bad("missing chunk size line"))?;
        let size_line = std::str::from_utf8(&buf[..nl]).map_err(|_| bad("bad chunk size"))?;
        let size =
            usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
        buf = &buf[nl + 2..];
        if size == 0 {
            return Ok(out);
        }
        if buf.len() < size + 2 {
            return Err(bad("truncated chunk"));
        }
        out.extend_from_slice(&buf[..size]);
        buf = &buf[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_chunked_bodies() {
        let wire = b"5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(wire).unwrap(), b"hello, world");
        assert!(decode_chunked(b"5\r\nhel").is_err());
    }

    #[test]
    fn request_framing_round_trips_over_a_socket_pair() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            send_request(&mut s, "POST", "/v1/sweep", Some(b"{\"a\":1}")).unwrap();
            read_client_response(&mut s).unwrap()
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = match read_request(&mut server_side) {
            ReadOutcome::Request(r) => r,
            other => panic!("expected request, got {other:?}"),
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweep");
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
        write_response(
            &mut server_side,
            200,
            "text/plain",
            &[("X-Comb-Request", "1".to_string())],
            b"ok\n",
            false,
        )
        .unwrap();
        let resp = client.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-comb-request"), Some("1"));
        assert_eq!(resp.body, b"ok\n");
    }

    #[test]
    fn mem_stream_runs_the_request_path_without_sockets() {
        let wire = b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi".to_vec();
        let mut s = MemStream::new(wire);
        let req = match read_request(&mut s) {
            ReadOutcome::Request(r) => r,
            other => panic!("expected request, got {other:?}"),
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hi");
        write_response(&mut s, 200, "text/plain", &[], b"ok\n", false).unwrap();
        let text = String::from_utf8(s.out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("ok\n"), "{text}");
    }

    #[test]
    fn pipelined_requests_are_read_in_order_from_one_buffer() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
                     POST /v1/sweep HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
            .to_vec();
        let mut s = MemStream::new(wire);
        let mut reader = RequestReader::new();
        let limits = ReadLimits::default();
        let first = match reader.read(&mut s, limits) {
            ReadOutcome::Request(r) => r,
            other => panic!("expected the first request, got {other:?}"),
        };
        assert_eq!(
            (first.method.as_str(), first.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(first.body.is_empty());
        let second = match reader.read(&mut s, limits) {
            ReadOutcome::Request(r) => r,
            other => panic!("expected the second request, got {other:?}"),
        };
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("POST", "/v1/sweep")
        );
        assert_eq!(second.body, b"hello");
        assert!(matches!(reader.read(&mut s, limits), ReadOutcome::Closed));
    }

    /// Accepts every byte and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_goes_out_in_one_write() {
        for body in [Vec::new(), vec![b'x'; 64 * 1024]] {
            let mut w = CountingWriter::default();
            let extra = [("X-Comb-Request", "7".to_string())];
            write_response(&mut w, 200, "text/plain", &extra, &body, true).unwrap();
            assert_eq!(w.writes, 1, "response with a {}-byte body", body.len());
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
                 Connection: keep-alive\r\nX-Comb-Request: 7\r\n\r\n",
                body.len()
            );
            assert_eq!(&w.bytes[..head.len()], head.as_bytes());
            assert_eq!(&w.bytes[head.len()..], &body[..]);
        }

        let mut w = CountingWriter::default();
        let mut chunked = ChunkedWriter { stream: &mut w };
        chunked.chunk(b"hello, world").unwrap();
        assert_eq!(w.writes, 1, "one chunk");
        assert_eq!(w.bytes, b"c\r\nhello, world\r\n");

        let mut w = CountingWriter::default();
        send_request(&mut w, "POST", "/v1/sweep", Some(b"{}")).unwrap();
        assert_eq!(w.writes, 1, "one request");
        assert_eq!(
            w.bytes,
            b"POST /v1/sweep HTTP/1.1\r\nHost: comb\r\nContent-Length: 2\r\n\r\n{}"
        );
    }

    #[test]
    fn truncated_body_vs_content_length_is_malformed_not_a_hang() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nonly-a-bit".to_vec();
        let mut s = MemStream::new(wire);
        assert!(matches!(read_request(&mut s), ReadOutcome::Malformed(_)));
    }

    #[test]
    fn slowloris_head_is_cut_off_at_the_request_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // One byte per 20 ms keeps every idle window happy while the
            // head never completes.
            for b in b"GET / HTTP/1.1\r\nHost: drip\r\n" {
                if s.write_all(&[*b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let started = Instant::now();
        let outcome = read_request_limited(
            &mut server_side,
            ReadLimits {
                idle: Some(Duration::from_secs(5)),
                total: Some(Duration::from_millis(150)),
            },
        );
        assert!(matches!(outcome, ReadOutcome::TimedOut), "{outcome:?}");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "deadline must fire promptly, took {:?}",
            started.elapsed()
        );
        drop(server_side);
        client.join().unwrap();
    }

    #[test]
    fn stalled_body_times_out_instead_of_pinning_the_reader() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 64\r\n\r\npartial")
                .unwrap();
            std::thread::sleep(Duration::from_millis(600));
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let outcome = read_request_limited(
            &mut server_side,
            ReadLimits {
                idle: Some(Duration::from_secs(5)),
                total: Some(Duration::from_millis(120)),
            },
        );
        assert!(matches!(outcome, ReadOutcome::TimedOut), "{outcome:?}");
        client.join().unwrap();
    }

    #[test]
    fn idle_connection_reads_as_closed_after_timeout() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        assert!(matches!(
            read_request(&mut server_side),
            ReadOutcome::Closed
        ));
    }
}
