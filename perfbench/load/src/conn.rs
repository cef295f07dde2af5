//! A keep-alive HTTP/1.1 client connection with pipelining, framed by
//! `Content-Length`, plus the response checks.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a read may wait for the next byte before the request counts
/// as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One connection with the pool indices of its requests in flight.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    consumed: usize,
    /// Pool request indices sent and not yet answered, with their send
    /// times, oldest first.
    pub inflight: VecDeque<(usize, Instant)>,
}

/// The bytes of one received response, as offsets into the buffer.
#[derive(Debug, Clone, Copy)]
pub struct Framed {
    /// End of the head, including the blank line.
    pub head_end: usize,
    /// End of the body.
    pub end: usize,
}

impl Conn {
    /// Opens a connection with Nagle's algorithm off, so each pipelined
    /// request leaves immediately.
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            consumed: 0,
            inflight: VecDeque::new(),
        })
    }

    /// Sends one request and notes its pool index. The request is noted
    /// even when the write fails, so the failed read that follows
    /// accounts for it.
    pub fn send(&mut self, request: &[u8], index: usize) -> std::io::Result<()> {
        self.inflight.push_back((index, Instant::now()));
        self.stream.write_all(request)
    }

    /// Reads the next complete response. Its bytes stay valid through
    /// [`Conn::bytes`] until the next call.
    pub fn recv(&mut self) -> std::io::Result<Framed> {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let length = content_length(&self.buf[..head_end]).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no Content-Length")
        })?;
        let end = head_end + length;
        while self.buf.len() < end {
            self.fill()?;
        }
        self.consumed = end;
        Ok(Framed { head_end, end })
    }

    /// The buffer the last [`Framed`] points into.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn content_length(head: &[u8]) -> Option<usize> {
    let head = std::str::from_utf8(head).ok()?;
    head.split("\r\n").find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })
}

/// A validated response: the head without its `X-Request-Id` line, and
/// the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Status line and headers, `X-Request-Id` removed.
    pub head: Vec<u8>,
    /// The body.
    pub body: Vec<u8>,
}

/// Copies `head` into `out` without its `X-Request-Id` header line.
pub fn strip_request_id(head: &[u8], out: &mut Vec<u8>) {
    out.clear();
    const NAME: &[u8] = b"\r\nx-request-id:";
    let found = head
        .windows(NAME.len())
        .position(|w| w.eq_ignore_ascii_case(NAME));
    match found {
        None => out.extend_from_slice(head),
        Some(start) => {
            let after = start + 2;
            let line_end = head[after..]
                .windows(2)
                .position(|w| w == b"\r\n")
                .map_or(head.len(), |p| after + p);
            out.extend_from_slice(&head[..start]);
            out.extend_from_slice(&head[line_end..]);
        }
    }
}

/// True for an HTTP 200 response.
pub fn is_ok(head: &[u8]) -> bool {
    head.starts_with(b"HTTP/1.1 200 ")
}

/// True for a success envelope: `{"ok":true,"data":...,"error":null}`.
pub fn is_success_envelope(body: &[u8]) -> bool {
    body.starts_with(b"{\"ok\":true,\"data\":") && body.ends_with(b",\"error\":null}")
}

/// Checks one response against its validated bytes, or, where none
/// exist, that it is a 200 success envelope.
pub fn check(
    response: &[u8],
    frame: Framed,
    expected: Option<&Expected>,
    scratch: &mut Vec<u8>,
) -> bool {
    let head = &response[..frame.head_end];
    let body = &response[frame.head_end..frame.end];
    match expected {
        Some(e) => {
            strip_request_id(head, scratch);
            *scratch == e.head && body == e.body.as_slice()
        }
        None => is_ok(head) && is_success_envelope(body),
    }
}

/// Sends one request on a fresh connection and returns head and body.
pub fn request_once(addr: &str, request: &[u8]) -> std::io::Result<(Vec<u8>, Vec<u8>)> {
    let mut conn = Conn::open(addr)?;
    conn.send(request, 0)?;
    let f = conn.recv()?;
    let bytes = conn.bytes();
    Ok((
        bytes[..f.head_end].to_vec(),
        bytes[f.head_end..f.end].to_vec(),
    ))
}
