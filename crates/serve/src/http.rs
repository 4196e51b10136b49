//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Hand-rolled on purpose: the build environment has no async runtime
//! and no HTTP crates, and the service only needs the subset a
//! load-balancer-fronted API actually exercises — request line,
//! headers, `Content-Length` bodies, keep-alive. Parsing is
//! *incremental over an owned buffer*: reads use a short socket
//! timeout so the connection thread can notice server drain between
//! packets, and partially received requests survive those timeouts
//! because bytes accumulate in `Conn::buf` rather than in a
//! `BufRead` adapter that would lose them.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on the request line + headers block. Requests with bigger
/// preambles are attacks or bugs; both get a fast 431-ish rejection.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Socket read timeout: the granularity at which an idle connection
/// thread re-checks the drain flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// How long a *partially received* request may dribble in before the
/// connection is dropped as stalled.
const STALL_DEADLINE: Duration = Duration::from_secs(10);

/// Errors surfaced while reading one request off a connection.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request framing (bad request line, header, or length).
    Syntax(String),
    /// The declared body exceeds the configured cap.
    BodyTooLarge { declared: usize, limit: usize },
    /// The peer closed mid-request, or stalled past the dribble
    /// deadline.
    Disconnected,
    /// A transport error other than timeout/disconnect.
    Io(ErrorKind),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Syntax(detail) => write!(f, "malformed request: {detail}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "request body of {declared} bytes exceeds the {limit}-byte cap"
                )
            }
            HttpError::Disconnected => write!(f, "peer disconnected mid-request"),
            HttpError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// The raw request target (path plus any query string).
    pub target: String,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive single-header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let needle = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == needle)
            .map(|(_, v)| v.as_str())
    }

    /// The target with any query string stripped.
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }

    /// True when the client asked to close after this response (or
    /// spoke HTTP/1.0 semantics via `Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }

    /// The request body as UTF-8, or `None` when it isn't.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// One live connection: the stream plus the bytes received so far.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    max_body: usize,
}

impl Conn {
    /// Wraps an accepted stream. The short read timeout is what lets
    /// [`Conn::read_request`] poll `give_up` between packets.
    pub fn new(stream: TcpStream, max_body: usize) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            max_body,
        })
    }

    /// The underlying stream (responses are written through it, and
    /// its fd is what the disconnect watcher peeks).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads the next request off the connection.
    ///
    /// Returns `Ok(None)` when the peer closed cleanly between
    /// requests, or when `give_up` reports true while the connection
    /// is idle (server draining) — either way the caller just closes.
    /// A partially received request keeps accumulating across read
    /// timeouts until `STALL_DEADLINE`.
    pub fn read_request(
        &mut self,
        give_up: &dyn Fn() -> bool,
    ) -> Result<Option<Request>, HttpError> {
        let mut chunk = [0u8; 4096];
        let mut partial_since: Option<Instant> = None;
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                let (request, consumed) = self.try_frame(head_end)?;
                if let Some(request) = request {
                    self.buf.drain(..consumed);
                    return Ok(Some(request));
                }
                // Headers complete but the body is still arriving.
            } else if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::Syntax(format!(
                    "header block exceeds {MAX_HEAD_BYTES} bytes"
                )));
            }
            if !self.buf.is_empty() {
                let since = *partial_since.get_or_insert_with(Instant::now);
                if since.elapsed() > STALL_DEADLINE {
                    return Err(HttpError::Disconnected);
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(HttpError::Disconnected)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.buf.is_empty() && give_up() {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) =>
                {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(HttpError::Disconnected)
                    };
                }
                Err(e) => return Err(HttpError::Io(e.kind())),
            }
        }
    }

    /// Attempts to frame one request given a complete header block
    /// ending at `head_end` (index of the blank line). Returns the
    /// request and the total bytes consumed, or `(None, _)` when the
    /// body has not fully arrived yet.
    #[allow(clippy::type_complexity)]
    fn try_frame(&self, head_end: usize) -> Result<(Option<Request>, usize), HttpError> {
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| HttpError::Syntax("non-UTF-8 header block".to_string()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => (m, t, v),
            _ => {
                return Err(HttpError::Syntax(format!(
                    "bad request line {request_line:?}"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Syntax(format!(
                "unsupported version {version:?}"
            )));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::Syntax(format!("bad header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        if headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
        {
            return Err(HttpError::Syntax(
                "chunked transfer encoding is not supported".to_string(),
            ));
        }
        // RFC 9112 §6.3: the value is 1*DIGIT (`usize::from_str` would
        // also take `+5`), and fields that disagree leave the framing
        // ambiguous — a proxy in front that read another one would see
        // a different request boundary.
        let mut content_length = None;
        for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
            let n = (v.parse::<usize>().ok())
                .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| HttpError::Syntax(format!("bad content-length {v:?}")))?;
            if content_length.is_some_and(|first| first != n) {
                return Err(HttpError::Syntax(
                    "conflicting content-length fields".to_string(),
                ));
            }
            content_length = Some(n);
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > self.max_body {
            return Err(HttpError::BodyTooLarge {
                declared: content_length,
                limit: self.max_body,
            });
        }
        let body_start = head_end + 4;
        let total = body_start + content_length;
        if self.buf.len() < total {
            return Ok((None, 0));
        }
        let request = Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: self.buf[body_start..total].to_vec(),
        };
        Ok((Some(request), total))
    }
}

/// Index of the `\r\n\r\n` terminating the header block, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`).
    pub extra: Vec<(String, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            extra: Vec::new(),
        }
    }

    /// Adds a `Retry-After` header (seconds).
    pub fn retry_after(mut self, secs: u64) -> Self {
        self.extra
            .push(("Retry-After".to_string(), secs.to_string()));
        self
    }
}

/// The standard reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes `response` and writes it with one `write`; `close`
/// controls the `Connection` header. Head and body leave in a single
/// segment: written separately, the body waits for the client's
/// delayed ACK of the head (≈ 40 ms on Linux) before it is sent.
pub fn write_response(
    mut out: impl Write,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(128 + response.body.len());
    write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    for (name, value) in &response.extra {
        write!(wire, "{name}: {value}\r\n")?;
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(&response.body);
    out.write_all(&wire)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn parses_request_with_body_split_across_writes() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 1024).expect("conn");
        client
            .write_all(b"POST /explain HTTP/1.1\r\nContent-Le")
            .expect("write");
        client.flush().expect("flush");
        let handle = std::thread::spawn(move || conn.read_request(&|| false));
        std::thread::sleep(Duration::from_millis(120));
        client
            .write_all(b"ngth: 5\r\nX-Feo-Tenant: t1\r\n\r\nhello")
            .expect("write");
        let request = handle
            .join()
            .expect("no panic")
            .expect("parses")
            .expect("some");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path(), "/explain");
        assert_eq!(request.header("x-feo-tenant"), Some("t1"));
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn keep_alive_frames_two_requests() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 1024).expect("conn");
        client
            .write_all(b"GET /health HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n")
            .expect("write");
        let first = conn.read_request(&|| false).expect("parses").expect("some");
        assert_eq!(first.path(), "/health");
        let second = conn.read_request(&|| false).expect("parses").expect("some");
        assert_eq!(second.path(), "/stats");
    }

    #[test]
    fn clean_eof_between_requests_is_none() {
        let (client, server) = pair();
        let mut conn = Conn::new(server, 1024).expect("conn");
        drop(client);
        assert!(conn.read_request(&|| false).expect("no error").is_none());
    }

    #[test]
    fn disconnect_mid_request_is_an_error() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 1024).expect("conn");
        client
            .write_all(b"POST /explain HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort")
            .expect("write");
        drop(client);
        assert!(matches!(
            conn.read_request(&|| false),
            Err(HttpError::Disconnected)
        ));
    }

    #[test]
    fn oversized_body_is_rejected_by_declared_length() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 16).expect("conn");
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n")
            .expect("write");
        assert!(matches!(
            conn.read_request(&|| false),
            Err(HttpError::BodyTooLarge { declared: 64, .. })
        ));
    }

    /// The body length the head `head` frames, or the framing error.
    fn framed(head: &str) -> Result<usize, HttpError> {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 1024).expect("conn");
        client
            .write_all(format!("POST /x HTTP/1.1\r\n{head}\r\nhelloworld").as_bytes())
            .expect("write");
        let request = conn.read_request(&|| false)?;
        Ok(request.expect("a request").body.len())
    }

    #[test]
    fn content_length_is_digits_and_agrees_with_itself() {
        for bad in [
            "Content-Length: +5\r\n",
            "Content-Length: 0x10\r\n",
            "Content-Length: 5\r\nContent-Length: 6\r\n",
        ] {
            assert!(matches!(framed(bad), Err(HttpError::Syntax(_))), "{bad:?}");
        }
        let twice = "Content-Length: 5\r\nContent-Length: 5\r\n";
        assert_eq!(framed(twice).expect("frames"), 5);
    }

    #[test]
    fn give_up_closes_idle_connections_only() {
        let (_client, server) = pair();
        let mut conn = Conn::new(server, 1024).expect("conn");
        // Idle connection + give_up → clean None, not an error.
        assert!(conn.read_request(&|| true).expect("no error").is_none());
    }

    #[test]
    fn response_wire_format() {
        let (mut client, mut server_stream) = pair();
        let response = Response::json(429, "{\"error\":\"shed\"}").retry_after(2);
        write_response(&mut server_stream, &response, true).expect("write");
        drop(server_stream);
        let mut raw = String::new();
        use std::io::Read as _;
        client.read_to_string(&mut raw).expect("read");
        assert!(
            raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Retry-After: 2\r\n"), "{raw}");
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
        assert!(raw.ends_with("{\"error\":\"shed\"}"), "{raw}");
    }
}
