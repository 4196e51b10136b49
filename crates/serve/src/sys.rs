//! The two system calls the server needs that `std::net` does not
//! offer, declared directly because the build has no `libc` crate (the
//! approach `shutdown.rs` takes for `signal(2)` and `feo_rdf`'s
//! `disk/mmap.rs` for `mmap(2)`): `poll(2)`, so the accept loop can
//! wait *for a connection* with a timeout instead of sleeping one out,
//! and `recv(2)` with `MSG_PEEK | MSG_DONTWAIT`, so the disconnect
//! watcher can ask a socket whether its peer is still there without
//! owning a handle to it, blocking on it, or touching its timeouts.
//! Constants are Linux's.

use std::ffi::{c_int, c_ulong, c_void};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const MSG_PEEK: c_int = 0x02;
const MSG_DONTWAIT: c_int = 0x40;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

/// Blocks until `fd` is readable (for a listener: a connection is
/// waiting), `timeout` has passed, or a signal interrupted the wait —
/// the caller loops and re-checks its own conditions in every case.
/// `Err` is a failure of `poll` itself.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<()> {
    let mut pollfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `pollfd` is one valid, exclusively borrowed `struct
    // pollfd` and `nfds` is 1, so the kernel reads and writes only it.
    let ready = unsafe { poll(&mut pollfd, 1, timeout_ms) };
    if ready >= 0 {
        return Ok(());
    }
    match io::Error::last_os_error() {
        e if e.kind() == io::ErrorKind::Interrupted => Ok(()),
        e => Err(e),
    }
}

/// True when the peer of the connected socket `fd` has closed,
/// half-closed or reset the connection. Never blocks and consumes
/// nothing: unread bytes (a pipelined next request) and an empty
/// receive queue both mean the peer is alive.
///
/// `fd` must be an open socket for the duration of the call; the
/// server guarantees that by only calling this under the lock that
/// also guards the request's removal from the live registry.
pub fn peer_gone(fd: RawFd) -> bool {
    let mut probe = 0u8;
    // SAFETY: the buffer is one valid, exclusively borrowed byte and
    // `len` is 1; MSG_PEEK leaves the socket's queue untouched.
    let peeked = unsafe {
        recv(
            fd,
            (&mut probe as *mut u8).cast::<c_void>(),
            1,
            MSG_PEEK | MSG_DONTWAIT,
        )
    };
    match peeked {
        // Orderly shutdown: the client hung up mid-request.
        0 => true,
        n if n > 0 => false,
        // EAGAIN is "nothing to read yet"; anything else (reset,
        // broken pipe) means the peer is gone.
        _ => !matches!(
            io::Error::last_os_error().kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn wait_readable_returns_on_arrival_and_on_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let started = Instant::now();
        wait_readable(listener.as_raw_fd(), Duration::from_millis(30)).expect("poll");
        assert!(started.elapsed() >= Duration::from_millis(25));

        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let started = Instant::now();
        wait_readable(listener.as_raw_fd(), Duration::from_secs(5)).expect("poll");
        assert!(started.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn peer_gone_tells_silence_and_pipelined_bytes_from_a_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (mut client, server) = pair(&listener);
        let fd = server.as_raw_fd();
        assert!(!peer_gone(fd), "a silent peer is alive");
        client.write_all(b"next request").expect("write");
        assert!(!peer_gone(fd), "unread bytes are not a disconnect");

        // The FIN crosses loopback asynchronously: wait for it.
        let eventually_gone = |server: &TcpStream| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !peer_gone(server.as_raw_fd()) && Instant::now() < deadline {
                std::thread::yield_now();
            }
            peer_gone(server.as_raw_fd())
        };
        let (client, server) = pair(&listener);
        client.shutdown(Shutdown::Write).expect("half-close");
        assert!(eventually_gone(&server), "a half-close is a hangup");

        let (client, server) = pair(&listener);
        drop(client);
        assert!(eventually_gone(&server), "a close is a hangup");
    }
}
