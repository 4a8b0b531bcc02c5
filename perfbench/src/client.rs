//! A small keep-alive HTTP/1.1 client.
//!
//! The benchmark carries its own client so that a change to the program's
//! client code never changes how the benchmark measures the server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Read and write timeout of every benchmark connection.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A status code and body.
pub type Reply = std::io::Result<(u16, Vec<u8>)>;

/// One persistent connection; requests go one at a time (depth 1).
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    head: Vec<u8>,
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

impl Conn {
    /// Connect to `addr`.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            reader: BufReader::with_capacity(1 << 16, stream),
            head: Vec::new(),
        })
    }

    /// Replace a broken connection with a fresh one.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Conn::open(self.addr)?;
        Ok(())
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Reply {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, json: &str) -> Reply {
        self.request("POST", path, Some(json.as_bytes()))
    }

    /// Send one request and read its response.
    pub fn request(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> Reply {
        let mut out = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n").into_bytes();
        if let Some(payload) = body {
            out.extend_from_slice(
                format!(
                    "content-type: application/json\r\ncontent-length: {}\r\n",
                    payload.len()
                )
                .as_bytes(),
            );
        }
        out.extend_from_slice(b"\r\n");
        if let Some(payload) = body {
            out.extend_from_slice(payload);
        }
        self.reader.get_mut().write_all(&out)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Reply {
        let mut status = None;
        let mut length = None;
        loop {
            self.head.clear();
            if self.reader.read_until(b'\n', &mut self.head)? == 0 {
                return Err(invalid("connection closed mid-response"));
            }
            let line = std::str::from_utf8(&self.head)
                .map_err(|_| invalid("non-UTF-8 response head"))?
                .trim_end();
            if line.is_empty() {
                break;
            }
            if status.is_none() {
                status = line.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
                if status.is_none() {
                    return Err(invalid("malformed status line"));
                }
            } else if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let status = status.ok_or_else(|| invalid("empty response"))?;
        let length = length.ok_or_else(|| invalid("response without content-length"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// One request on a fresh connection.
pub fn once(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    Conn::open(addr)?.request(method, path, body.map(str::as_bytes))
}
