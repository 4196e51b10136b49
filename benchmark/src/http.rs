//! The load generator's HTTP/1.1 client: just enough to send one
//! request and read one `Content-Length`-framed response, on a
//! keep-alive connection or a fresh one.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response the load generator can check.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(detail: &str) -> std::io::Error {
    std::io::Error::other(detail.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // The generator's own segments must not wait on Nagle; what the
        // server's socket does is the thing under measurement.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request (head and body in a single write) and reads
    /// the framed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<Reply> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            if close { "close" } else { "keep-alive" },
            body.len(),
        );
        self.stream.write_all(request.as_bytes())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head"))?;
        let status = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad("unparseable status line"))?;
        let length = head
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse::<usize>().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed inside the response body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Reply { status, body })
    }
}

/// One request on a fresh connection with `Connection: close`.
pub fn one_shot(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    Client::connect(addr)?.request(method, path, body, true)
}
