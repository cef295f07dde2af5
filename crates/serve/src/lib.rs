//! # gables-serve
//!
//! A dependency-free HTTP/1.1 JSON serving layer for the Gables suite,
//! built entirely on `std`: a nonblocking epoll event loop ([`poll`] +
//! [`server`]) that holds tens of thousands of idle keep-alive
//! connections while CPU-bound work drains through a bounded worker
//! pool, a tiny incremental request/response codec ([`http`]), a
//! sharded LRU response cache ([`cache`]), always-on request telemetry
//! ([`metrics`]), and a flight recorder of recent requests with their
//! span trees ([`flight`]) — all in the spirit of the simulator's
//! `Recorder` layer: observation never perturbs serving behaviour.
//!
//! This crate is *generic* server infrastructure: it knows nothing
//! about spec files or roofline endpoints. The Gables endpoints
//! (`/eval`, `/sweep`, `/whatif`, `/simulate`, `/metrics`) are wired up
//! in `gables-cli`, which owns the spec parsers, and exposed as the
//! `gables serve` subcommand. Capacity is explicit at every stage —
//! worker count, queue depth, cache size, head/body byte limits — and
//! load beyond the queue is shed immediately with `503` +
//! `Retry-After` rather than buffered unboundedly.
//!
//! ## Response envelope and error codes
//!
//! Every JSON response this layer emits uses one envelope:
//!
//! ```json
//! {"ok": true,  "data": { ... }, "error": null}
//! {"ok": false, "data": null,    "error": {"code": "...", "message": "..."}}
//! {"ok": false, "data": null,    "error": {"code": "...", "kind": "...", "message": "..."}}
//! ```
//!
//! [`Response::error`] produces the failure form;
//! [`Response::error_with_kind`] additionally carries a `kind` — a
//! fine-grained, closed domain code (the model's `ErrorKind` codes such
//! as `invalid_parameter` or `work_fraction_sum`, or the spec parser's
//! `spec_parse`) naming *why* the input was rejected, while `code`
//! stays a pure transport-status mapping. The success form is
//! assembled by the route layer. The `code` field is a closed, stable
//! set mapped from the HTTP status by [`Response::error_code`]:
//!
//! | code                 | status | meaning                                   |
//! |----------------------|--------|-------------------------------------------|
//! | `bad_request`        | 400    | unparsable request, spec, or parameters   |
//! | `not_found`          | 404    | no route at this path                     |
//! | `method_not_allowed` | 405    | path exists, method does not              |
//! | `timeout`            | 408    | the request did not arrive in time        |
//! | `conflict`           | 409    | an exclusive resource is already in use   |
//! | `endpoint_gone`      | 410    | a sunset endpoint; follow the `Link` header |
//! | `too_large`          | 413    | head or body over its byte limit          |
//! | `unprocessable`      | 422    | well-formed but semantically invalid input |
//! | `internal`           | 500    | handler panic or other server-side fault  |
//! | `unavailable`        | 503    | queue full — retry after `Retry-After`    |
//!
//! ## Example
//!
//! ```
//! use gables_serve::{Response, Router, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let handle = server.handle()?;
//! let join = std::thread::spawn(move || {
//!     server.run(Router::new().route("GET", "/ping", |_| Response::text(200, "pong")))
//! });
//! // ... issue requests against handle.addr() ...
//! handle.shutdown();
//! join.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod faults;
pub mod flight;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod server;
pub mod slo;

pub use cache::ShardedCache;
pub use faults::{FaultCase, FaultKind, FaultOutcome, FaultReport, FaultSchedule};
pub use flight::{FlightRecord, FlightRecorder};
pub use http::{
    parse_request_bytes, HttpError, Parsed, Request, Response, MAX_BODY_BYTES, MAX_HEADERS,
    MAX_HEAD_BYTES,
};
pub use metrics::{MetricsSnapshot, ServerMetrics, LATENCY_BUCKETS, MAX_ROUTE_LABELS};
pub use server::{Handler, Router, Server, ServerConfig, ServerHandle};
pub use slo::{SloRegistry, SloSnapshot, SloSpec};
