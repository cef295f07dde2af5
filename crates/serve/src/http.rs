//! A deliberately small HTTP/1.1 layer: enough of RFC 9112 to serve JSON
//! evaluation requests over loopback or a trusted LAN, built on `std`
//! only. Requests are parsed *incrementally* ([`parse_request_bytes`])
//! so the nonblocking event loop can feed it partial reads and
//! pipelined request streams; keep-alive is the HTTP/1.1 default and
//! honoured by [`Response::serialize`]. Explicit size limits apply to
//! the head and body, and there is no support for chunked transfer
//! encoding — clients must send `Content-Length`.

/// Hard limit on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard limit on the request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Hard limit on the number of header fields in one request. The head
/// byte limit alone would admit thousands of tiny headers; this bounds
/// the per-request allocation count too.
pub const MAX_HEADERS: usize = 64;

/// A reading or parsing failure, mapped onto the status code the server
/// should answer with.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire were not a well-formed request (400).
    Malformed(String),
    /// The head or declared body exceeded its limit (413).
    TooLarge(String),
    /// The read timeout expired before a full request arrived (408).
    Timeout,
}

impl HttpError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::TooLarge(_) => 413,
            HttpError::Timeout => 408,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::Timeout => f.write_str("i/o: timed out"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target, without the query.
    pub path: String,
    /// The raw query string (no percent-decoding), if any.
    pub query: Option<String>,
    /// Headers in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a `key=value` query parameter (no percent-decoding;
    /// the parameters this server defines are plain tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Malformed`] for invalid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|e| HttpError::Malformed(format!("body is not UTF-8: {e}")))
    }
}

/// One request parsed out of a byte buffer, with enough framing
/// information for a keep-alive event loop: how many bytes of the
/// buffer the request occupied (pipelined successors may follow) and
/// whether the client asked to keep the connection open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The request itself.
    pub request: Request,
    /// Bytes consumed from the front of the buffer (head + body).
    pub consumed: usize,
    /// Whether HTTP keep-alive semantics apply: `HTTP/1.1` unless the
    /// client sent `Connection: close`, `HTTP/1.0` only with an
    /// explicit `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// Incrementally parses one request from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a prefix of a request
/// (read more and call again), `Ok(Some(parsed))` once a complete
/// request is available — `parsed.consumed` bytes belong to it; any
/// remainder is the start of the next pipelined request — and an error
/// as soon as the bytes can never become a valid request, however much
/// more arrives.
///
/// # Errors
///
/// Returns [`HttpError`] for malformed or oversized requests.
pub fn parse_request_bytes(buf: &[u8]) -> Result<Option<Parsed>, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge(format!(
            "request head exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|e| HttpError::Malformed(format!("head is not UTF-8: {e}")))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} header fields"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    // Exactly zero or one Content-Length: taking the first of several
    // (or letting `usize::from_str` accept "+5") is the shape of a
    // request-smuggling bug, even though this server reads one request
    // per connection. Conflicting duplicates are rejected outright.
    let mut content_length: usize = 0;
    let mut length_seen = false;
    for (k, v) in &headers {
        if k != "content-length" {
            continue;
        }
        if length_seen {
            return Err(HttpError::Malformed(
                "duplicate Content-Length header".into(),
            ));
        }
        length_seen = true;
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::Malformed(format!("bad Content-Length {v:?}")));
        }
        content_length = v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?;
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "declared body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed(
            "chunked transfer encoding is not supported; send Content-Length".into(),
        ));
    }

    // Body: exactly `Content-Length` bytes after the head terminator.
    let body_start = head_end + 4;
    let consumed = body_start + content_length;
    if buf.len() < consumed {
        return Ok(None);
    }
    let body = buf[body_start..consumed].to_vec();

    // Keep-alive: the HTTP/1.1 default, opted out of with
    // `Connection: close`; HTTP/1.0 must opt in explicitly.
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.as_str())
        .unwrap_or("");
    let wants = |token: &str| {
        connection
            .split(',')
            .any(|t| t.trim().eq_ignore_ascii_case(token))
    };
    let keep_alive = if version == "HTTP/1.0" {
        wants("keep-alive")
    } else {
        !wants("close")
    };

    Ok(Some(Parsed {
        request: Request {
            method: method.to_string(),
            path,
            query,
            headers,
            body,
        },
        consumed,
        keep_alive,
    }))
}

/// The error a connection earns by reaching EOF with an incomplete
/// request buffered: distinguishes a truncated head from a truncated
/// body.
pub fn closed_early(buf: &[u8]) -> HttpError {
    if find_head_end(buf).is_none() {
        HttpError::Malformed("connection closed before a full request head arrived".into())
    } else {
        HttpError::Malformed("connection closed mid-body".into())
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response, serialized by [`Response::serialize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Extra headers beyond the always-present `Content-Type`,
    /// `Content-Length`, and `Connection`.
    pub headers: Vec<(String, String)>,
    /// The `Content-Type` value.
    pub content_type: String,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            content_type: "application/json".into(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error in the v1 response envelope:
    /// `{"ok": false, "data": null, "error": {"code": ..., "message": ...}}`.
    /// The code is derived from the status via [`Response::error_code`].
    pub fn error(status: u16, message: &str) -> Self {
        Self::error_with_kind(status, None, message)
    }

    /// Like [`Response::error`], with an optional model-level `kind`
    /// field inside the error object: the closed snake_case category
    /// (`invalid_parameter`, `work_fraction_sum`, `spec_parse`, …) the
    /// application layer attributes the failure to. `None` omits the
    /// field, keeping plain transport errors byte-identical to before.
    pub fn error_with_kind(status: u16, kind: Option<&str>, message: &str) -> Self {
        use gables_model::json::Json;
        let mut fields = vec![("code".to_string(), Json::str(Self::error_code(status)))];
        if let Some(kind) = kind {
            fields.push(("kind".into(), Json::str(kind)));
        }
        fields.push(("message".into(), Json::str(message)));
        Self::json(
            status,
            Json::Object(vec![
                ("ok".into(), Json::Bool(false)),
                ("data".into(), Json::Null),
                ("error".into(), Json::Object(fields)),
            ])
            .to_string(),
        )
    }

    /// The closed transport error vocabulary: every `(status, code)`
    /// pair this server can put in an error envelope. `GET /v1`
    /// discovery and [`Response::error_code`] both read this table, so
    /// the documented set cannot drift from the served one.
    pub const ERROR_CODES: &'static [(u16, &'static str)] = &[
        (400, "bad_request"),
        (404, "not_found"),
        (405, "method_not_allowed"),
        (408, "timeout"),
        (409, "conflict"),
        (410, "endpoint_gone"),
        (413, "too_large"),
        (422, "unprocessable"),
        (500, "internal"),
        (503, "unavailable"),
    ];

    /// The stable machine-readable error code for a status — the
    /// documented set in the crate docs. Unknown statuses map to
    /// `"internal"`.
    pub fn error_code(status: u16) -> &'static str {
        Self::ERROR_CODES
            .iter()
            .find(|(s, _)| *s == status)
            .map(|(_, c)| *c)
            .unwrap_or("internal")
    }

    /// Adds a header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The standard reason phrase for the statuses this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            413 => "Content Too Large",
            422 => "Unprocessable Content",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the whole response into one buffer, announcing
    /// `Connection: keep-alive` or `Connection: close` — the event
    /// loop's single-write path.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        self.serialize_into(keep_alive, &mut out);
        out
    }

    /// [`Response::serialize`] into a caller-owned buffer. The buffer is
    /// cleared, not reallocated, so a connection that recycles its write
    /// buffer serializes steady-state responses without fresh heap
    /// traffic once the buffer has grown to the working-set size.
    pub fn serialize_into(&self, keep_alive: bool, out: &mut Vec<u8>) {
        use std::io::Write as _;
        out.clear();
        // `write!` to a Vec<u8> is infallible: Vec's io::Write never errors.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as the event loop does once the peer has sent
    /// everything: a complete request parses, and a strict prefix is an
    /// early close.
    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        match parse_request_bytes(raw)? {
            Some(parsed) => Ok(parsed.request),
            None => Err(closed_early(raw)),
        }
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            b"POST /eval?format=text&x=1 HTTP/1.1\r\n\
              Host: localhost\r\n\
              Content-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/eval");
        assert_eq!(req.query_param("format"), Some("text"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert_eq!(req.body_str().unwrap(), "hello");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            parse(b"NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x SPDY/3\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Closed before the head completes.
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_declarations() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)));
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn rejects_duplicate_content_length() {
        // Taking the first of two conflicting lengths is how request
        // smuggling starts; both orders must be rejected.
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde")
            .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        assert!(
            err.to_string().contains("duplicate Content-Length"),
            "{err}"
        );
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nabcde")
            .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        // `usize::from_str` accepts a leading '+'; the wire grammar
        // (RFC 9110 §8.6) does not.
        for bad in ["+5", "-5", "5 5", "0x5", "5,5", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            let err = parse(raw.as_bytes()).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn rejects_too_many_headers() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)), "{err}");
        assert_eq!(err.status(), 413);
        // Exactly at the limit still parses.
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(parse(raw.as_bytes()).is_ok());
    }

    #[test]
    fn error_with_kind_adds_the_kind_field() {
        let resp = Response::error_with_kind(400, Some("invalid_parameter"), "bpeak is nan");
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(
            body,
            r#"{"ok":false,"data":null,"error":{"code":"bad_request","kind":"invalid_parameter","message":"bpeak is nan"}}"#
        );
        // Without a kind the envelope is unchanged.
        let resp = Response::error(400, "nope");
        let body = String::from_utf8(resp.body).unwrap();
        assert!(!body.contains("kind"), "{body}");
    }

    #[test]
    fn truncated_body_is_an_error() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let out = Response::text(200, "hi")
            .with_header("Retry-After", "1")
            .serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn error_response_is_an_envelope_with_a_code() {
        let resp = Response::error(503, "queue full");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.content_type, "application/json");
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(
            body,
            r#"{"ok":false,"data":null,"error":{"code":"unavailable","message":"queue full"}}"#
        );
    }

    #[test]
    fn error_codes_cover_every_served_status() {
        for (status, code) in [
            (400, "bad_request"),
            (404, "not_found"),
            (405, "method_not_allowed"),
            (408, "timeout"),
            (409, "conflict"),
            (410, "endpoint_gone"),
            (413, "too_large"),
            (422, "unprocessable"),
            (500, "internal"),
            (503, "unavailable"),
        ] {
            assert_eq!(Response::error_code(status), code);
        }
        // The lookup is driven by the same table discovery serves.
        for (status, code) in Response::ERROR_CODES {
            assert_eq!(Response::error_code(*status), *code);
        }
    }

    #[test]
    fn incremental_parse_waits_for_the_full_request() {
        // Every strict prefix is incomplete, however the bytes were split
        // across reads; an EOF there is an early close.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            assert!(
                parse_request_bytes(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must not parse"
            );
            assert_eq!(closed_early(&raw[..cut]).status(), 400);
        }
        let parsed = parse_request_bytes(raw).unwrap().expect("complete");
        assert_eq!(parsed.consumed, raw.len());
        assert_eq!(parsed.request.body, b"hello");
        assert!(parsed.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn pipelined_requests_report_their_consumed_length() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let first = parse_request_bytes(raw).unwrap().expect("first");
        assert_eq!(first.request.path, "/a");
        assert!(first.keep_alive);
        let rest = &raw[first.consumed..];
        let second = parse_request_bytes(rest).unwrap().expect("second");
        assert_eq!(second.request.path, "/b");
        assert_eq!(first.consumed + second.consumed, raw.len());
        assert!(!second.keep_alive, "Connection: close opts out");
    }

    #[test]
    fn keep_alive_follows_the_http_version_default() {
        let parse_ka = |raw: &[u8]| parse_request_bytes(raw).unwrap().unwrap().keep_alive;
        assert!(!parse_ka(b"GET /x HTTP/1.0\r\n\r\n"));
        assert!(parse_ka(
            b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ));
        assert!(parse_ka(b"GET /x HTTP/1.1\r\n\r\n"));
        assert!(!parse_ka(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!parse_ka(
            b"GET /x HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"
        ));
    }

    #[test]
    fn serialize_announces_keep_alive() {
        let bytes = Response::text(200, "hi").serialize(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn serialize_into_reuses_and_matches_serialize() {
        let resp = Response::text(200, "hi");
        let mut buf = Vec::with_capacity(256);
        resp.serialize_into(true, &mut buf);
        assert_eq!(buf, resp.serialize(true));
        // A second response reuses the same storage: the buffer is
        // cleared, not reallocated.
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        Response::text(404, "no").serialize_into(false, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 404"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    #[test]
    fn closed_early_distinguishes_head_from_body() {
        assert!(closed_early(b"GET /x HT")
            .to_string()
            .contains("before a full request head"));
        assert!(
            closed_early(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc")
                .to_string()
                .contains("mid-body")
        );
    }

    #[test]
    fn timeout_maps_to_408() {
        assert_eq!(HttpError::Timeout.status(), 408);
        assert_eq!(HttpError::Timeout.to_string(), "i/o: timed out");
    }
}
