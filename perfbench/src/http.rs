//! A minimal HTTP/1.1 keep-alive client for `POST /v1/infer/{tenant}`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bitflow_tensor::io::encode_tensor;
use bitflow_tensor::Tensor;

/// The full request bytes for one input, built once before timing.
pub fn request_bytes(tenant: &str, input: &Tensor) -> Vec<u8> {
    let body = encode_tensor(input);
    let mut req = format!(
        "POST /v1/infer/{tenant} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/octet-stream\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(&body);
    req
}

/// One keep-alive connection with a reusable receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One response: status, body range in the connection buffer, bytes read,
/// and whether the server asked to close.
pub struct Reply {
    pub status: u16,
    pub body: std::ops::Range<usize>,
    pub bytes_read: usize,
    pub close: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Writes one request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads one complete response into the connection buffer.
    pub fn receive(&mut self) -> io::Result<Reply> {
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 response head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        let mut close = false;
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                let v = v.trim();
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let total = head_end + content_length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            body: head_end..total,
            bytes_read: self.buf.len(),
            close,
        })
    }

    /// The bytes of the last response's body.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body.clone()]
    }
}
