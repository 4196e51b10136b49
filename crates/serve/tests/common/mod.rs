//! Shared helpers for the integration tests: engine fixtures and a
//! tiny blocking HTTP client.
#![allow(dead_code)] // each test file uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use feo_core::EngineBase;
use feo_foodkg::{curated, Season, SystemContext, UserProfile};
use feo_serve::{AdmissionConfig, ServeConfig, ServerHandle};

/// An engine over the curated KG with one committed epoch
/// ("pregnant") so `as_of` and history have something to see.
pub fn base_with_epoch() -> Arc<EngineBase> {
    let user = UserProfile::new("test-user");
    let ctx = SystemContext::new(Season::Autumn);
    let mut base = EngineBase::new(curated(), user.clone(), ctx).expect("curated is consistent");
    base.commit_with("pregnant", |overlay| {
        feo_core::ecosystem::apply_hypothesis(&feo_core::Hypothesis::Pregnant, &user, overlay);
    });
    Arc::new(base)
}

/// Default test config: ephemeral port, roomy gate.
pub fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        admission: AdmissionConfig {
            max_inflight: 4,
            max_queue: 16,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Spawns a server over [`base_with_epoch`] with `cfg`.
pub fn spawn(cfg: ServeConfig) -> ServerHandle {
    feo_serve::Server::spawn(base_with_epoch(), cfg).expect("bind ephemeral port")
}

/// One HTTP exchange over a fresh connection. Returns `(status,
/// headers, body)`.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, response_body) = text.split_once("\r\n\r\n").expect("header terminator");
    (status_of(head), head.to_string(), response_body.to_string())
}

/// The status code on the first line of a response head.
fn status_of(head: &str) -> u16 {
    head.strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .expect("status line")
}

/// POST with a JSON body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    http(addr, "POST", path, &[], body)
}

/// GET a path.
pub fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    http(addr, "GET", path, &[], "")
}

/// A keep-alive client connection. It frames replies by
/// `Content-Length`, so pipelined replies that arrive together are
/// handed out one at a time, and it leaves `TCP_NODELAY` off, as curl
/// and most HTTP clients do — a server that makes such a client wait
/// for a delayed ACK shows it here.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    /// Sends `raw` (one request, or several pipelined) in one write.
    pub fn send(&mut self, raw: &str) {
        self.stream
            .write_all(raw.as_bytes())
            .expect("write request");
    }

    /// Reads the next reply; returns `(status, body)`.
    pub fn read_response(&mut self) -> (u16, String) {
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end]).expect("UTF-8 head");
                let status = status_of(head);
                let length = head
                    .lines()
                    .find_map(|line| line.strip_prefix("Content-Length: "))
                    .and_then(|v| v.parse::<usize>().ok())
                    .expect("content-length");
                let total = head_end + 4 + length;
                if self.buf.len() >= total {
                    let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
                        .expect("UTF-8 body");
                    self.buf.drain(..total);
                    return (status, body);
                }
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed the connection mid-reply");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// A keep-alive `POST /explain` carrying `body`.
pub fn explain_request(body: &str) -> String {
    format!(
        "POST /explain HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}
