//! A minimal blocking HTTP/1.1 client over `TcpStream`, for the
//! integration tests and the load generators of `repro
//! swap_availability` and perfbench's serve workloads.
//!
//! Living here (rather than in `incite-bench`) keeps lint rule INC007
//! honest: `std::net` stays confined to `crates/serve` and the CLI, and
//! every other crate that needs to talk to the service goes through this
//! typed wrapper. Connections are keep-alive: one client can issue many
//! sequential requests over a single socket, which is what a
//! latency-measuring load generator wants.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One keep-alive connection to the service.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    host: String,
}

impl HttpClient {
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> std::io::Result<Self> {
        let host = addr.to_string();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            host,
        })
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, None, &[])
    }

    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", path, Some(body), &[])
    }

    /// `post_json` with extra request headers, e.g. a tenant's
    /// `x-api-key` for admission control.
    pub fn post_json_with_headers(
        &mut self,
        path: &str,
        body: &str,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.request("POST", path, Some(body), extra_headers)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n",
            self.host,
            body.len()
        );
        for (name, value) in extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(bad("connection closed before a status line"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("unparseable status line"))?;
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside headers"));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                headers.push((name.trim().to_string(), value.trim().to_string()));
            }
        }
        let length: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("response without content-length"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?;
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}
