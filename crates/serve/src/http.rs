//! A minimal HTTP/1.1 layer over `TcpStream` — just what the service
//! needs: request line + headers + `Content-Length` bodies in, status +
//! headers + body out, keep-alive by default. No chunked encoding, no
//! TLS, no compression; anything outside that subset is a typed `400`.
//!
//! Reads run against a short socket timeout so connection handlers can
//! notice a drain without dedicated poller threads: a timeout *between*
//! requests checks the abort flag and closes cleanly; a timeout
//! *mid-request* keeps the bytes read so far (the `read_until` contract)
//! and retries against a bounded grace window, so a stalled client can
//! never hold shutdown hostage.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on request line + headers, bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body, bytes.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// How long a request already in flight may continue after a drain began.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub target: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Outcome of waiting for the next request on a keep-alive connection.
#[derive(Debug)]
pub enum Received {
    Request(Request),
    /// Clean close: EOF, or the drain flag flipped while idle.
    Closed,
}

/// Receive-side failures, split by who is at fault.
#[derive(Debug)]
pub enum RecvError {
    /// Socket-level failure or an unrecoverable stall; drop the
    /// connection without a response.
    Io(std::io::Error),
    /// The bytes are not the HTTP subset we speak → `400`.
    Malformed(&'static str),
    /// Head or body over the hard cap → `413`.
    TooLarge(&'static str),
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads one request. `abort` is polled on read timeouts: while no byte
/// of a new request has arrived it closes the connection cleanly; once a
/// request has started it bounds the remaining patience to
/// `DRAIN_GRACE`.
///
/// `io_window` is the per-connection anti-slow-loris deadline: it starts
/// the moment the first request byte arrives, and covers the rest of the
/// request line, the headers, and the body. A connection may idle between
/// requests indefinitely, but once a request has begun the client must
/// deliver it whole within the window or lose the connection — a handler
/// thread can no longer be pinned by a one-byte-per-poll drip feed.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    abort: &dyn Fn() -> bool,
    io_window: Duration,
) -> Result<Received, RecvError> {
    let mut line = String::new();
    let mut drain_deadline: Option<Instant> = None;
    let mut head_deadline: Option<Instant> = None;
    // Request line: the only place a connection legitimately idles — but
    // only while it is still *empty*. The first byte starts the clock.
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(Received::Closed)
                } else {
                    Err(RecvError::Malformed("unterminated request line"))
                };
            }
            Ok(_) => break,
            Err(e) if is_timeout(&e) => {
                if abort() {
                    if line.is_empty() {
                        return Ok(Received::Closed);
                    }
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                    if Instant::now() > deadline {
                        return Err(RecvError::Io(e));
                    }
                }
                if !line.is_empty() {
                    let deadline = *head_deadline.get_or_insert_with(|| Instant::now() + io_window);
                    if Instant::now() > deadline {
                        return Err(RecvError::Io(e));
                    }
                }
                if line.len() > MAX_HEAD_BYTES {
                    return Err(RecvError::TooLarge("request line"));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(RecvError::Io(e)),
        }
    }

    let (method, target) = parse_request_line(line.trim_end())?;
    // The request has started: everything else must arrive within the
    // I/O window regardless of drain state. Reuse the clock the first
    // dribbled byte may already have started.
    let io_deadline = head_deadline.unwrap_or_else(|| Instant::now() + io_window);

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let mut header_line = String::new();
        read_line_within(reader, &mut header_line, io_deadline)?;
        let trimmed = header_line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        head_bytes += header_line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(RecvError::TooLarge("request headers"));
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or(RecvError::Malformed("header line without a colon"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let request = Request {
        method,
        target,
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(RecvError::Malformed("transfer-encoding is not supported"));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RecvError::Malformed("content-length is not a number"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(RecvError::TooLarge("request body"));
    }
    let mut request = request;
    if content_length > 0 {
        request.body = read_exact_within(reader, content_length, io_deadline)?;
    }
    Ok(Received::Request(request))
}

/// `read_line` retrying timeouts until `deadline`; partial bytes persist
/// in `buf` across retries per the `read_until` contract.
fn read_line_within(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
    deadline: Instant,
) -> Result<(), RecvError> {
    loop {
        match reader.read_line(buf) {
            Ok(0) => return Err(RecvError::Malformed("connection closed mid-request")),
            Ok(_) => return Ok(()),
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::Interrupted => {
                if Instant::now() > deadline {
                    return Err(RecvError::Io(e));
                }
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
}

/// Reads exactly `n` body bytes, retrying timeouts until `deadline`.
fn read_exact_within(
    reader: &mut BufReader<TcpStream>,
    n: usize,
    deadline: Instant,
) -> Result<Vec<u8>, RecvError> {
    let mut body = vec![0u8; n];
    let mut filled = 0;
    while filled < n {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(RecvError::Malformed("connection closed mid-body")),
            Ok(read) => filled += read,
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::Interrupted => {
                if Instant::now() > deadline {
                    return Err(RecvError::Io(e));
                }
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    Ok(body)
}

fn parse_request_line(line: &str) -> Result<(String, String), RecvError> {
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(RecvError::Malformed("empty request line"))?;
    let target = parts
        .next()
        .ok_or(RecvError::Malformed("request line without a target"))?;
    let version = parts
        .next()
        .ok_or(RecvError::Malformed("request line without a version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed("unsupported HTTP version"));
    }
    Ok((method.to_string(), target.to_string()))
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    pub extra_headers: Vec<(&'static str, String)>,
    /// Close the connection after writing (`Connection: close`).
    pub close: bool,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Writes head and body as one `write_all`: on a `TCP_NODELAY` socket
    /// two writes can send two segments, and the client's read can wake
    /// on the head before the body has arrived.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(128 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            wire.extend_from_slice(name.as_bytes());
            wire.extend_from_slice(b": ");
            wire.extend_from_slice(value.as_bytes());
            wire.extend_from_slice(b"\r\n");
        }
        if self.close {
            wire.extend_from_slice(b"connection: close\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Reason phrases for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_and_rejects() {
        assert!(parse_request_line("GET /healthz HTTP/1.1").is_ok());
        let (m, t) = parse_request_line("POST /v1/score HTTP/1.1").expect("parse");
        assert_eq!(m, "POST");
        assert_eq!(t, "/v1/score");
        assert!(matches!(
            parse_request_line("GET /x SPDY/3"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            parse_request_line("GET"),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn response_wire_format_is_http11() {
        let mut buf = Vec::new();
        Response::json(429, "{\"error\":\"overloaded\"}".to_string())
            .with_header("retry-after", "1".to_string())
            .closing()
            .write_to(&mut buf)
            .expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("content-length: 22\r\n"), "{text}");
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(
            text.ends_with("\r\n\r\n{\"error\":\"overloaded\"}"),
            "{text}"
        );
    }

    #[test]
    fn slow_loris_request_line_is_cut_off_at_the_io_window() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // One byte, then silence: the classic slow-loris opener. The
            // connection stays up until the server hangs up on us.
            stream.write_all(b"G").expect("first byte");
            let mut sink = [0u8; 16];
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = stream.read(&mut sink);
        });
        let (stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream);
        let io_window = Duration::from_millis(200);
        let started = Instant::now();
        let result = read_request(&mut reader, &|| false, io_window);
        let elapsed = started.elapsed();
        assert!(
            matches!(result, Err(RecvError::Io(_))),
            "a dribbled request must be cut off, got {result:?}"
        );
        assert!(
            elapsed >= io_window,
            "cut-off must not fire before the window ({elapsed:?})"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "cut-off must be prompt, took {elapsed:?}"
        );
        drop(reader);
        client.join().expect("client thread");
    }

    #[test]
    fn idle_connection_outlives_the_io_window() {
        use std::net::TcpListener;

        // A keep-alive connection that has sent *nothing* is idle, not
        // slow-loris: the window must not start until the first byte.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            std::thread::sleep(Duration::from_millis(400));
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .expect("request");
            let mut sink = [0u8; 16];
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = stream.read(&mut sink);
        });
        let (stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream);
        // Window far shorter than the client's idle pause.
        let result = read_request(&mut reader, &|| false, Duration::from_millis(100));
        match result {
            Ok(Received::Request(req)) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.target, "/healthz");
            }
            other => panic!("idle-then-request must parse, got {other:?}"),
        }
        drop(reader);
        client.join().expect("client thread");
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = Request {
            method: "POST".into(),
            target: "/v1/score".into(),
            headers: vec![("Content-Length".into(), "12".into())],
            body: Vec::new(),
        };
        assert_eq!(req.header("content-length"), Some("12"));
        assert_eq!(req.header("CONTENT-LENGTH"), Some("12"));
        assert!(!req.wants_close());
    }
}
