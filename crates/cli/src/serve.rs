//! The `gables serve` subcommand: Gables-specific endpoints on top of
//! the generic `gables-serve` infrastructure.
//!
//! ## The v1 API
//!
//! Canonical routes live under `/v1/` (HTTP/1.1 with keep-alive and
//! pipelining, JSON by default, `?format=text` for the plain CLI
//! output). `GET /v1` returns a machine-readable index of everything
//! below — routes, methods, query parameters, and the closed
//! error-code vocabulary:
//!
//! * `POST /v1/eval` — spec text in the body → attainment + bottleneck.
//!   With `?format=text` the body is byte-identical to `gables eval`.
//! * `POST /v1/batch` — many specs in one JSON body (`{"specs":
//!   [...]}` or a bare array of spec strings) → one envelope whose
//!   `items` array holds, in order, *exactly* the envelope each spec
//!   would have produced as a single `POST /v1/eval` — per-item error
//!   codes included, so one bad spec never fails the batch. Items are
//!   spliced into a single write buffer, and each item runs under a
//!   `batch` span in the flight record.
//! * `POST /v1/sweep` — ERT-style sweep; `?param=f|bpeak|intensity`,
//!   `?from=`, `?to=`, `?steps=` (defaults sweep intensity 0.25..64).
//!   Grid points are evaluated in parallel (`gables_model::par`), with
//!   output bit-identical to the serial CLI.
//! * `POST /v1/whatif` — JSON body `{"spec": ..., "edits": ...}` → the
//!   what-if delta report.
//! * `POST /v1/simulate` — spec text in the body → a soc-sim run with
//!   per-job bottleneck attribution.
//! * `POST /v1/carm` — spec text with `[cache.<level>]` sections → the
//!   cache-aware roofline: measured ceiling ladder, knee intensities,
//!   and the binding level per sweep point. With `?format=text` the
//!   body is byte-identical to `gables carm`.
//! * `GET /v1/metrics` — request counters, latency histogram, cache hit
//!   rate; `?format=text` renders an ASCII histogram, `?format=prom`
//!   the Prometheus text exposition (with `uptime_seconds` and
//!   `build_info`).
//! * `GET /v1/healthz` — liveness probe; plain `ok` by default
//!   (byte-identical for existing probes), `?format=json` adds uptime,
//!   version, in-flight count, and worker-pool saturation.
//! * `GET /v1/slo` — per-route streaming latency quantiles (DDSketch,
//!   [`gables_model::sketch`]) over 1m/5m/1h windows plus the
//!   cumulative sketch, error rates, and the error-budget burn rate of
//!   every `--slo 'route=/v1/eval p99<2ms err<0.1%'` definition.
//!   `?format=prom` renders `gables_slo_*` gauges and quantile series.
//! * `GET /v1/debug/requests` — the flight recorder: the last N
//!   requests with id, route, status, latency, cache outcome, and span
//!   summary (`?n=` limits, `?id=` fetches one with full spans,
//!   `?id=...&format=trace` exports Chrome trace-event JSON for
//!   `chrome://tracing`, `?id=...&format=text` an ASCII span tree).
//! * `GET /v1/debug/profile` — runs the in-process sampling profiler
//!   for `?seconds=` (default 1, capped) and returns a collapsed-stack
//!   profile (`?format=folded`, flamegraph.pl compatible) or a JSON
//!   document (`?format=json`). One session at a time (409 `conflict`
//!   while busy); invalid parameters get a 422 `unprocessable`.
//!
//! Every request is traced: the server opens a `server.request` span
//! (trace ID derived from `X-Request-Id`), the route layer nests the
//! handler span (`eval`, `sweep`, …), and `gables_model::par` worker
//! chunks nest under those — see `gables_model::obs`.
//!
//! The original unversioned paths (`/eval`, `/sweep`, …) carried
//! `Deprecation: true` for one release; that sunset has now executed.
//! They answer `410 Gone` with the closed `endpoint_gone` error code
//! and a `Link: </v1/...>; rel="successor-version"` header naming the
//! canonical route — a stable, machine-readable redirect, not a silent
//! removal.
//!
//! ## Replicas
//!
//! `gables serve --replicas N` runs N shared-nothing shard processes,
//! each with its own event loop, worker pool, LRU cache, flight
//! recorder, and Prometheus registry. The parent process is a router:
//! it parses each spec just enough to compute the canonical cache key
//! ([`Spec::canonical_key`]) and consistent-hashes it onto a shard, so
//! identical specs always land on the same shard's cache.
//! `/v1/metrics`, `/v1/healthz`, and `/v1/slo` aggregate across every
//! shard (quantile sketches merge exactly, so fleet quantiles are
//! bit-identical to a single sketch fed the union stream), and
//! `/v1/debug/requests` interleaves every shard's flight ring into one
//! fleet timeline ordered by wall-clock completion, each record tagged
//! with its shard index. `?shard=i` pins either debug route to one
//! shard (422 when the index is out of range). Shard children are
//! supervised over pipes: each announces `LISTENING <addr>` on stdout
//! and exits when its stdin reaches EOF, so no shard can outlive its
//! parent.
//!
//! Every JSON response uses the envelope documented in [`gables_serve`]:
//! `{"ok": true, "data": ..., "error": null}` on success and
//! `{"ok": false, "data": null, "error": {"code", "message"}}` on
//! failure, with the closed error-code set mapped from the HTTP status.
//! `?format=text` responses are the raw CLI text, no envelope.
//!
//! `POST` bodies are either carrier of [`Spec`]: raw spec text, or a
//! JSON object with a `"spec"` field (spec files start with `#` or `[`,
//! so the two are unambiguous). Successful responses are cached in a
//! sharded LRU keyed by the canonical `/v1` route, the query, and
//! [`Spec::canonical_key`], so re-evaluating the same design — the
//! common dashboard-polling case — skips parsing and evaluation
//! entirely, and an alias request primes the cache for the v1 route
//! (and vice versa).

use std::sync::Arc;
use std::time::Instant;

use gables_model::json::Json;
use gables_model::{evaluate, obs};
use gables_serve::{
    FlightRecorder, Request, Response, Router, Server, ServerConfig, ServerMetrics, ShardedCache,
    SloSnapshot, SloSpec,
};

use crate::spec::{Spec, SpecError};
use crate::{eval_command, sweep_command_with, whatif_command};

/// Version string stamped into `build_info` and `/v1/healthz?format=json`.
const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Parsed `gables serve` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen address, default `127.0.0.1:7878`.
    pub addr: String,
    /// Worker threads, default 4.
    pub workers: usize,
    /// Shard processes behind a routing parent; 1 means serve in-process.
    pub replicas: usize,
    /// Supervised mode: print `LISTENING <addr>` on stdout once bound
    /// and shut down when stdin reaches EOF (how replica shards — and
    /// tests — manage server lifetime).
    pub announce: bool,
    /// SLO definitions (`--slo 'route=/v1/eval p99<2ms err<0.1%'`,
    /// repeatable), evaluated by `GET /v1/slo`.
    pub slos: Vec<SloSpec>,
}

/// Parses `[addr] [--workers N] [--replicas N] [--slo DEF]...
/// [--announce]`.
///
/// # Errors
///
/// Returns [`SpecError`] for unknown flags, a malformed count, or an
/// unparsable SLO definition.
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, SpecError> {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7878".to_string(),
        workers: 4,
        replicas: 1,
        announce: false,
        slos: Vec::new(),
    };
    let mut it = args.iter();
    let mut addr_seen = false;
    let positive = |flag: &str, n: &str| -> Result<usize, SpecError> {
        let v: usize = n
            .parse()
            .map_err(|_| SpecError::general(format!("{flag}: {n:?} is not a positive integer")))?;
        if v == 0 {
            return Err(SpecError::general(format!("{flag} must be at least 1")));
        }
        Ok(v)
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let n = it
                    .next()
                    .ok_or_else(|| SpecError::general("--workers needs a count"))?;
                opts.workers = positive("--workers", n)?;
            }
            "--replicas" => {
                let n = it
                    .next()
                    .ok_or_else(|| SpecError::general("--replicas needs a count"))?;
                opts.replicas = positive("--replicas", n)?;
            }
            "--slo" => {
                let text = it.next().ok_or_else(|| {
                    SpecError::general(
                        "--slo needs a definition, e.g. 'route=/v1/eval p99<2ms err<0.1%'",
                    )
                })?;
                opts.slos.push(
                    SloSpec::parse(text).map_err(|e| SpecError::general(format!("--slo: {e}")))?,
                );
            }
            "--announce" => opts.announce = true,
            other if other.starts_with('-') => {
                return Err(SpecError::general(format!(
                    "unknown serve flag {other:?} (only --workers <n>, --replicas <n>, \
                     --slo <def>, --announce)"
                )))
            }
            other => {
                if addr_seen {
                    return Err(SpecError::general(format!(
                        "unexpected extra argument {other:?}"
                    )));
                }
                opts.addr = other.to_string();
                addr_seen = true;
            }
        }
    }
    Ok(opts)
}

/// `gables serve [addr] [--workers N] [--replicas N]`: bind, log the
/// listen address, and serve until the process is killed (or, with
/// `--announce`, until stdin reaches EOF).
///
/// # Errors
///
/// Returns [`SpecError`] for bad arguments, a failed bind, or a failed
/// shard spawn.
pub fn serve_command(args: &[String]) -> Result<String, SpecError> {
    let opts = parse_serve_args(args)?;
    // A long-running server narrates its lifecycle and access log at
    // info by default; an explicit `--log` or `GABLES_LOG` still wins.
    if !obs::level_is_explicit() && std::env::var_os("GABLES_LOG").is_none() {
        obs::set_level(Some(obs::Level::Info));
    }
    if opts.replicas > 1 {
        return run_replicated(&opts);
    }
    let config = ServerConfig {
        workers: opts.workers,
        ..ServerConfig::default()
    };
    let server = Server::bind(opts.addr.as_str(), config)
        .map_err(|e| SpecError::general(format!("bind {}: {e}", opts.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| SpecError::general(e.to_string()))?;
    let state = ServeState::new(
        server.metrics(),
        Arc::new(ShardedCache::new(8, 128)),
        server.flight(),
        opts.workers,
    )
    .with_slos(opts.slos.clone());
    let router = build_router_with(&state);
    obs::log(
        obs::Level::Info,
        "serve",
        "listening",
        &[
            ("addr", format!("http://{addr}").into()),
            ("workers", opts.workers.into()),
            ("slos", opts.slos.len().into()),
            ("version", VERSION.into()),
            (
                "routes",
                "GET /v1; POST /v1/{eval,batch,sweep,whatif,simulate,carm}; \
                 GET /v1/{metrics,healthz,slo,debug/requests,debug/profile}"
                    .into(),
            ),
        ],
    );
    if opts.announce {
        announce_and_watch(
            addr,
            server
                .handle()
                .map_err(|e| SpecError::general(e.to_string()))?,
        );
    }
    server
        .run(router)
        .map_err(|e| SpecError::general(e.to_string()))?;
    obs::log(obs::Level::Info, "serve", "shutdown complete", &[]);
    Ok(String::new())
}

/// Supervised-mode plumbing: print `LISTENING <addr>` so the spawner
/// can discover an ephemeral port, then watch stdin from a thread and
/// trigger a graceful shutdown when it reaches EOF — the pipe-based
/// lifetime contract that keeps a shard from outliving its parent.
fn announce_and_watch(addr: std::net::SocketAddr, handle: gables_serve::ServerHandle) {
    use std::io::Write as _;
    println!("LISTENING {addr}");
    let _ = std::io::stdout().flush();
    std::thread::spawn(move || {
        use std::io::Read as _;
        let mut stdin = std::io::stdin();
        let mut sink = [0u8; 256];
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        handle.shutdown();
    });
}

/// The route-layer handler shape: returns the raw data payload (JSON
/// text, or plain text under `?format=text`) or a complete error
/// response. The envelope is applied by the route layer, never here.
type GablesHandler = fn(&Request, &Spec, &str) -> Result<String, Response>;

/// Everything the route layer shares across requests: counters, the
/// response cache, the flight recorder, and enough static facts (worker
/// count, start time) to answer `/v1/healthz?format=json` and stamp
/// `uptime_seconds` into the Prometheus exposition.
#[derive(Debug, Clone)]
pub struct ServeState {
    /// The live request counters (shared with the server loop).
    pub metrics: Arc<ServerMetrics>,
    /// The sharded LRU response cache.
    pub cache: Arc<ShardedCache>,
    /// The flight recorder (shared with the server loop).
    pub flight: Arc<FlightRecorder>,
    /// Configured worker-pool size, for the saturation gauge.
    pub workers: usize,
    /// When this serving instance came up.
    pub started: Instant,
    /// SLO definitions evaluated by `GET /v1/slo` (none by default).
    pub slos: Arc<Vec<SloSpec>>,
}

impl ServeState {
    /// Assembles the shared state; `started` is stamped now.
    pub fn new(
        metrics: Arc<ServerMetrics>,
        cache: Arc<ShardedCache>,
        flight: Arc<FlightRecorder>,
        workers: usize,
    ) -> Self {
        Self {
            metrics,
            cache,
            flight,
            workers,
            started: Instant::now(),
            slos: Arc::new(Vec::new()),
        }
    }

    /// Attaches SLO definitions (builder-style; the default is none).
    #[must_use]
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = Arc::new(slos);
        self
    }

    fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Builds the Gables route table over shared metrics and cache with a
/// standalone flight recorder — the signature predating [`ServeState`],
/// kept for tests that only care about the endpoint behaviour.
pub fn build_router(metrics: Arc<ServerMetrics>, cache: Arc<ShardedCache>) -> Router {
    let workers = ServerConfig::default().workers;
    build_router_with(&ServeState::new(
        metrics,
        cache,
        Arc::new(FlightRecorder::new(64)),
        workers,
    ))
}

/// The sunset unversioned aliases: `(method, alias path, successor)`.
/// Each answers `410 Gone` with the closed `endpoint_gone` error code
/// and a `Link` header naming its `/v1` successor.
const SUNSET_ALIASES: &[(&str, &str, &str)] = &[
    ("POST", "/eval", "/v1/eval"),
    ("POST", "/sweep", "/v1/sweep"),
    ("POST", "/whatif", "/v1/whatif"),
    ("POST", "/simulate", "/v1/simulate"),
    ("POST", "/carm", "/v1/carm"),
    ("GET", "/metrics", "/v1/metrics"),
    ("GET", "/healthz", "/v1/healthz"),
];

/// The `410 Gone` answer for a sunset alias.
fn gone(v1_path: &str) -> Response {
    Response::error(
        410,
        &format!("this unversioned endpoint has been sunset; use {v1_path}"),
    )
    .with_header("Link", format!("<{v1_path}>; rel=\"successor-version\""))
}

/// Builds the Gables route table over the shared [`ServeState`]: the
/// `GET /v1` discovery index, the canonical `/v1/*` routes, and the
/// `410 Gone` tombstones for the sunset unversioned aliases. Public so
/// tests can run the server on an ephemeral port.
pub fn build_router_with(state: &ServeState) -> Router {
    let healthz_state = state.clone();
    let debug_state = state.clone();
    let metrics_state = state.clone();
    let slo_state = state.clone();
    let batch_metrics = Arc::clone(&state.metrics);
    let batch_cache = Arc::clone(&state.cache);
    let mut router = Router::new()
        .route("GET", "/v1", |_| discovery_response())
        .route("GET", "/v1/healthz", move |req| {
            healthz_response(req, &healthz_state)
        })
        .route("GET", "/v1/slo", move |req| slo_response(req, &slo_state))
        .route("GET", "/v1/debug/requests", move |req| {
            debug_requests_response(req, &debug_state)
        })
        .route("GET", "/v1/debug/profile", debug_profile_response)
        .route("GET", "/v1/metrics", move |req| {
            let snapshot = metrics_state.metrics.snapshot();
            if req.query_param("format") == Some("prom") {
                let mut body = snapshot.to_prometheus(metrics_state.uptime_seconds(), VERSION);
                body.push_str(&gables_model::prof::prometheus_text());
                let mut resp = Response::text(200, body);
                resp.content_type = "text/plain; version=0.0.4; charset=utf-8".to_string();
                resp
            } else if wants_text(req) {
                Response::text(200, snapshot.to_text())
            } else {
                Response::json(200, envelope(&snapshot.to_json()))
            }
        })
        .route("POST", "/v1/batch", move |req| {
            batch_response(req, &batch_metrics, &batch_cache)
        });
    for (name, handler) in [
        ("eval", eval_handler as GablesHandler),
        ("sweep", sweep_handler),
        ("whatif", whatif_handler),
        ("simulate", simulate_handler),
        ("carm", carm_handler),
    ] {
        let v1_path = format!("/v1/{name}");
        let v1 = v1_path.clone();
        let metrics = Arc::clone(&state.metrics);
        let cache = Arc::clone(&state.cache);
        router = router.route("POST", &v1_path, move |req| {
            handle_post(&v1, handler, &metrics, &cache, req)
        });
    }
    for (method, alias, v1) in SUNSET_ALIASES {
        router = router.route(method, alias, move |_| gone(v1));
    }
    router
}

/// `GET /v1/healthz`: plain `ok` by default — byte-identical to the
/// pre-observability response so existing probes keep matching — or a
/// JSON status document under `?format=json`.
fn healthz_response(req: &Request, state: &ServeState) -> Response {
    if req.query_param("format") != Some("json") {
        return Response::text(200, "ok\n");
    }
    let snapshot = state.metrics.snapshot();
    let workers = state.workers.max(1);
    let doc = Json::Object(vec![
        ("status".into(), Json::str("ok")),
        ("version".into(), Json::str(VERSION)),
        ("uptime_seconds".into(), Json::num(state.uptime_seconds())),
        ("in_flight".into(), Json::num(snapshot.in_flight as f64)),
        ("workers".into(), Json::num(state.workers as f64)),
        (
            "worker_saturation".into(),
            Json::num(snapshot.in_flight as f64 / workers as f64),
        ),
    ]);
    Response::json(200, envelope(&doc.to_string()))
}

/// `GET /v1/slo`: windowed latency quantiles, error rates, and the
/// error-budget burn rate of every configured `--slo` definition, from
/// this process's own [`gables_serve::SloRegistry`]. JSON by default
/// (the mergeable sketch core plus derived quantile/burn sections);
/// `?format=prom` renders `gables_slo_*` gauges and quantile series.
fn slo_response(req: &Request, state: &ServeState) -> Response {
    let snapshot = state.metrics.slo().snapshot();
    slo_render(req, &snapshot, &state.slos, 1)
}

/// Renders an SLO snapshot (local or fleet-merged) in the requested
/// format. `shards` stamps how many sources the snapshot aggregates.
fn slo_render(req: &Request, snapshot: &SloSnapshot, specs: &[SloSpec], shards: usize) -> Response {
    use gables_serve::slo::{render_slo_json, render_slo_prometheus};
    if req.query_param("format") == Some("prom") {
        let mut resp = Response::text(200, render_slo_prometheus(snapshot, specs, shards));
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8".to_string();
        resp
    } else {
        Response::json(200, envelope(&render_slo_json(snapshot, specs, shards)))
    }
}

/// The route descriptors behind `GET /v1`: method, path, recognized
/// query parameters, one-line summary. This table *is* the API surface;
/// `discovery_routes_match_the_router` keeps it honest against the
/// actual route table.
const V1_ROUTE_DOCS: &[(&str, &str, &[&str], &str)] = &[
    ("GET", "/v1", &[], "this discovery document"),
    (
        "POST",
        "/v1/eval",
        &["format"],
        "evaluate a spec: attainable performance and the binding bottleneck",
    ),
    (
        "POST",
        "/v1/batch",
        &[],
        "evaluate many specs in one body; ordered per-item envelopes",
    ),
    (
        "POST",
        "/v1/sweep",
        &["param", "from", "to", "steps", "format"],
        "sweep f, bpeak, or intensity over a grid",
    ),
    (
        "POST",
        "/v1/whatif",
        &["format"],
        "apply edits to a spec and report the delta",
    ),
    (
        "POST",
        "/v1/simulate",
        &["format"],
        "cycle-level simulation with per-job bottleneck attribution",
    ),
    (
        "POST",
        "/v1/carm",
        &["format"],
        "cache-aware roofline: measured per-level ceiling ladder",
    ),
    (
        "GET",
        "/v1/metrics",
        &["format"],
        "request counters, latency histogram, cache hit rate",
    ),
    ("GET", "/v1/healthz", &["format"], "liveness probe"),
    (
        "GET",
        "/v1/slo",
        &["format"],
        "windowed latency quantiles, error rates, and SLO burn rates",
    ),
    (
        "GET",
        "/v1/debug/requests",
        &["n", "id", "format", "shard"],
        "flight recorder: recent requests with span trees",
    ),
    (
        "GET",
        "/v1/debug/profile",
        &["seconds", "format", "shard"],
        "run the sampling profiler and return the profile",
    ),
];

/// Error kinds minted by the route layer itself (not the model or the
/// spec parser): fine-grained `kind` codes that appear in error
/// envelopes alongside the transport `code`.
const ROUTE_ERROR_KINDS: &[&str] = &["invalid_parameter", "profile_in_progress"];

/// `GET /v1`: the machine-readable API index — every route with its
/// methods and query parameters, the sunset aliases with their
/// successors, and the closed error-code vocabulary. The transport
/// codes come from [`Response::ERROR_CODES`] and the kinds from
/// [`gables_model::ErrorKind::code`] (plus the spec parser's and the
/// route layer's own), so the document can never drift from what the
/// server actually emits.
fn discovery_response() -> Response {
    let routes = Json::Array(
        V1_ROUTE_DOCS
            .iter()
            .map(|(method, path, params, summary)| {
                Json::Object(vec![
                    ("method".into(), Json::str(*method)),
                    ("path".into(), Json::str(*path)),
                    (
                        "params".into(),
                        Json::Array(params.iter().map(|p| Json::str(*p)).collect()),
                    ),
                    ("summary".into(), Json::str(*summary)),
                ])
            })
            .collect(),
    );
    let transport = Json::Array(
        Response::ERROR_CODES
            .iter()
            .map(|(status, code)| {
                Json::Object(vec![
                    ("code".into(), Json::str(*code)),
                    ("status".into(), Json::num(f64::from(*status))),
                ])
            })
            .collect(),
    );
    let mut kinds: Vec<&str> = gables_model::ErrorKind::ALL
        .iter()
        .map(|k| k.code())
        .collect();
    kinds.push(crate::spec::SPEC_PARSE_KIND);
    kinds.extend(ROUTE_ERROR_KINDS);
    kinds.sort_unstable();
    kinds.dedup();
    let sunset = Json::Array(
        SUNSET_ALIASES
            .iter()
            .map(|(method, alias, v1)| {
                Json::Object(vec![
                    ("method".into(), Json::str(*method)),
                    ("path".into(), Json::str(*alias)),
                    ("successor".into(), Json::str(*v1)),
                    ("status".into(), Json::num(410.0)),
                ])
            })
            .collect(),
    );
    let doc = Json::Object(vec![
        ("version".into(), Json::str(VERSION)),
        ("routes".into(), routes),
        (
            "error_codes".into(),
            Json::Object(vec![
                ("transport".into(), transport),
                (
                    "kinds".into(),
                    Json::Array(kinds.into_iter().map(Json::str).collect()),
                ),
            ]),
        ),
        ("sunset".into(), sunset),
    ]);
    Response::json(200, envelope(&doc.to_string()))
}

/// Most specs accepted in one `POST /v1/batch` body.
const MAX_BATCH_ITEMS: usize = 256;

/// `POST /v1/batch`: evaluate many specs in one request. The body is
/// `{"specs": [...]}` or a bare JSON array of spec strings; the
/// response `data` carries `count` and `items`, where `items[i]` is —
/// byte for byte — the envelope a single `POST /v1/eval` would have
/// produced for `specs[i]` (per-item error codes included, so one bad
/// spec never fails the batch). Items are spliced into one write
/// buffer, and each runs under a `batch` span so flight records show
/// the per-item timing.
fn batch_response(req: &Request, metrics: &ServerMetrics, cache: &ShardedCache) -> Response {
    let specs = match batch_specs(req) {
        Ok(specs) => specs,
        Err(resp) => return *resp,
    };
    let items: Vec<String> = specs
        .iter()
        .map(|spec_text| {
            let _item_span = obs::span("batch");
            let item_req = Request {
                method: "POST".into(),
                path: "/v1/eval".into(),
                query: None,
                headers: Vec::new(),
                body: spec_text.as_bytes().to_vec(),
            };
            let resp = handle_post("/v1/eval", eval_handler, metrics, cache, &item_req);
            String::from_utf8(resp.body).unwrap_or_default()
        })
        .collect();
    Response::json(200, envelope(&splice_batch_items(&items)))
}

/// Extracts the spec strings from a batch body, or the error response.
/// (Boxed so the happy path doesn't carry a `Response` by value.)
fn batch_specs(req: &Request) -> Result<Vec<String>, Box<Response>> {
    let body = req.body_str().map_err(|e| {
        Box::new(Response::error_with_kind(
            400,
            Some("invalid_parameter"),
            &e.to_string(),
        ))
    })?;
    let doc = Json::parse(body).map_err(|_| {
        Box::new(Response::error_with_kind(
            400,
            Some("invalid_parameter"),
            "batch body must be JSON: {\"specs\": [...]} or a bare array of spec strings",
        ))
    })?;
    let array = match &doc {
        Json::Array(items) => items,
        other => match other.get("specs") {
            Some(Json::Array(items)) => items,
            _ => {
                return Err(Box::new(Response::error_with_kind(
                    400,
                    Some("invalid_parameter"),
                    "batch body must be {\"specs\": [...]} or a bare array of spec strings",
                )))
            }
        },
    };
    if array.is_empty() {
        return Err(Box::new(Response::error_with_kind(
            400,
            Some("invalid_parameter"),
            "batch needs at least one spec",
        )));
    }
    if array.len() > MAX_BATCH_ITEMS {
        return Err(Box::new(Response::error_with_kind(
            400,
            Some("invalid_parameter"),
            &format!(
                "batch has {} items; the limit is {MAX_BATCH_ITEMS}",
                array.len()
            ),
        )));
    }
    array
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.as_str().map(str::to_string).ok_or_else(|| {
                Box::new(Response::error_with_kind(
                    400,
                    Some("invalid_parameter"),
                    &format!("batch item {i} must be a spec string"),
                ))
            })
        })
        .collect()
}

/// Splices pre-serialized per-item envelopes into the batch `data`
/// payload with one amortized allocation — no re-parsing, no
/// re-serialization, so item bytes are exactly what single requests
/// produce.
fn splice_batch_items(items: &[String]) -> String {
    let total: usize = items.iter().map(String::len).sum();
    let mut buf = String::with_capacity(total + items.len() + 48);
    buf.push_str("{\"count\":");
    buf.push_str(&items.len().to_string());
    buf.push_str(",\"items\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(item);
    }
    buf.push_str("]}");
    buf
}

/// Most records `GET /v1/debug/requests` returns in one listing.
const MAX_DEBUG_REQUESTS: usize = 1000;

/// `GET /v1/debug/requests`: the flight recorder. Without `?id=`, lists
/// the most recent `?n=` requests (newest first, default 32). With
/// `?id=`, returns that request with its full span list; `format=trace`
/// instead exports raw Chrome trace-event JSON (no envelope, ready for
/// `chrome://tracing`), and `format=text` an ASCII span tree.
fn debug_requests_response(req: &Request, state: &ServeState) -> Response {
    if let Some(id) = req.query_param("id") {
        let Some(record) = state.flight.find(id) else {
            return Response::error(404, &format!("no retained request with id {id:?}"));
        };
        return match req.query_param("format") {
            Some("trace") => Response::json(200, obs::chrome_trace_for_spans(&record.spans)),
            Some("text") => Response::text(
                200,
                format!(
                    "{} {} {} status={} latency_us={} spans={} dropped={}\n\n{}",
                    record.id,
                    record.method,
                    record.route,
                    record.status,
                    record.latency_us,
                    record.spans.len(),
                    record.spans_dropped,
                    gables_plot::render_span_tree(&record.spans),
                ),
            ),
            _ => Response::json(200, envelope(&record.to_json(true).to_string())),
        };
    }
    let n = match query_num(req, "n", 32.0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if n.fract() != 0.0 || n < 1.0 || n > MAX_DEBUG_REQUESTS as f64 {
        return Response::error_with_kind(
            400,
            Some("invalid_parameter"),
            &format!("query parameter n={n} must be an integer in 1..={MAX_DEBUG_REQUESTS}"),
        );
    }
    let records = state.flight.recent(n as usize);
    let doc = Json::Object(vec![
        ("capacity".into(), Json::num(state.flight.capacity() as f64)),
        (
            "recorded_total".into(),
            Json::num(state.flight.recorded_total() as f64),
        ),
        ("count".into(), Json::num(records.len() as f64)),
        (
            "requests".into(),
            Json::Array(records.iter().map(|r| r.to_json(false)).collect()),
        ),
    ]);
    Response::json(200, envelope(&doc.to_string()))
}

/// Longest profiling window `/v1/debug/profile` accepts, seconds. The
/// handler sleeps for the window on its worker thread, so the bound
/// keeps a debug request from pinning a worker indefinitely.
const MAX_PROFILE_SECONDS: f64 = 15.0;

/// `GET /v1/debug/profile`: runs the process-global sampling profiler
/// ([`gables_model::prof`]) for `?seconds=` (default 1, bounded) and
/// returns the aggregated profile — collapsed-stack text by default
/// (`?format=folded`, flamegraph.pl compatible, identical to what
/// `gables <cmd> --profile` writes) or a JSON document under
/// `?format=json`. Sessions are one-at-a-time: a concurrent request
/// gets a structured 409 `conflict`; out-of-range or non-numeric
/// parameters get a structured 422 `unprocessable`.
fn debug_profile_response(req: &Request) -> Response {
    use gables_model::prof;
    let seconds = match req.query_param("seconds") {
        None => 1.0,
        Some(raw) => match raw.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 && v <= MAX_PROFILE_SECONDS => v,
            _ => {
                return Response::error_with_kind(
                    422,
                    Some("invalid_parameter"),
                    &format!(
                        "query parameter seconds={raw:?} must be a finite number in \
                         (0, {MAX_PROFILE_SECONDS}]"
                    ),
                )
            }
        },
    };
    let format = req.query_param("format").unwrap_or("folded");
    if format != "folded" && format != "json" {
        return Response::error_with_kind(
            422,
            Some("invalid_parameter"),
            &format!("query parameter format={format:?} must be \"folded\" or \"json\""),
        );
    }
    let session = match prof::start(prof::SampleConfig::default()) {
        Ok(s) => s,
        Err(prof::ProfError::Busy) => {
            return Response::error_with_kind(
                409,
                Some("profile_in_progress"),
                "a profiling session is already running; retry after it finishes",
            )
        }
    };
    // The handler thread itself holds `server.request` / `dispatch`
    // spans, so even an idle server profiles to a non-empty stack set.
    std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
    let profile = session.stop();
    if format == "json" {
        Response::json(200, envelope(&profile.to_json().to_string()))
    } else {
        Response::text(200, profile.to_folded())
    }
}

/// Parses the body once into a [`Spec`], consults the cache (keyed by
/// the canonical v1 path so aliases share entries), and runs the
/// handler on a miss. The whole route runs inside a handler-named span
/// (`eval`, `sweep`, …) so worker spans from the parallel map nest under
/// it, and the cache outcome is reported out-of-band to the server loop
/// via an `X-Cache: hit|miss` response header (surfaced in the access
/// log and the flight recorder).
fn handle_post(
    v1_path: &str,
    handler: GablesHandler,
    metrics: &ServerMetrics,
    cache: &ShardedCache,
    req: &Request,
) -> Response {
    let _route_span = obs::span(v1_path.trim_start_matches("/v1/"));
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => {
            return Response::error_with_kind(
                400,
                Some(crate::spec::SPEC_PARSE_KIND),
                &e.to_string(),
            )
        }
    };
    let spec = {
        let _parse_span = obs::span("parse");
        match Spec::parse(body) {
            Ok(s) => s,
            Err(e) => return bad_request(&e),
        }
    };
    let key = format!(
        "{v1_path}|{}|{}|{}",
        req.query.as_deref().unwrap_or(""),
        if wants_text(req) { "text" } else { "json" },
        spec.canonical_key(),
    );
    if let Some(data) = cache.get(&key) {
        metrics.record_cache_hit();
        return finish(req, data).with_header("X-Cache", "hit");
    }
    metrics.record_cache_miss();
    match handler(req, &spec, body) {
        Ok(data) => {
            cache.insert(key, data.clone());
            finish(req, data).with_header("X-Cache", "miss")
        }
        Err(resp) => resp.with_header("X-Cache", "miss"),
    }
}

fn wants_text(req: &Request) -> bool {
    req.query_param("format") == Some("text")
}

/// Wraps a raw data payload in the success envelope. The payload is
/// already JSON text, so this is a splice, not a re-serialization.
fn envelope(data: &str) -> String {
    format!("{{\"ok\":true,\"data\":{data},\"error\":null}}")
}

fn finish(req: &Request, data: String) -> Response {
    if wants_text(req) {
        Response::text(200, data)
    } else {
        Response::json(200, envelope(&data))
    }
}

fn bad_request(e: &SpecError) -> Response {
    Response::error_with_kind(400, Some(e.code()), &e.to_string())
}

/// `POST /v1/eval`: with `?format=text`, exactly the `gables eval`
/// output; otherwise the structured summary plus that output.
fn eval_handler(req: &Request, spec: &Spec, body: &str) -> Result<String, Response> {
    let output = eval_command(body).map_err(|e| bad_request(&e))?;
    if wants_text(req) {
        return Ok(output);
    }
    let soc = spec.soc().map_err(|e| bad_request(&e))?;
    let workload = spec.workload().map_err(|e| bad_request(&e))?;
    let eval = evaluate(&soc, &workload).map_err(|e| bad_request(&SpecError::from(e)))?;
    Ok(Json::Object(vec![
        (
            "attainable_gops".into(),
            Json::num(eval.attainable().to_gops()),
        ),
        (
            "bottleneck".into(),
            Json::str(eval.bottleneck().to_string()),
        ),
        ("output".into(), Json::str(output)),
    ])
    .to_string())
}

fn query_num(req: &Request, key: &str, default: f64) -> Result<f64, Response> {
    match req.query_param(key) {
        None => Ok(default),
        Some(raw) => match raw.parse::<f64>() {
            // `f64::from_str` happily produces NaN/∞ from "nan", "inf",
            // and overflow literals like "1e400"; none of them is a
            // meaningful sweep bound, so close the hole at the query
            // boundary with the same closed error code as spec input.
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(Response::error_with_kind(
                400,
                Some("invalid_parameter"),
                &format!("query parameter {key}={raw:?} is not a finite number"),
            )),
        },
    }
}

/// Largest accepted `?steps=` grid. Enough for any plausible plot, small
/// enough that a hostile request cannot turn the sweep into a CPU sink
/// (`steps=inf` used to cast to `usize::MAX`).
const MAX_SWEEP_STEPS: usize = 100_000;

fn query_steps(req: &Request, default: usize) -> Result<usize, Response> {
    let raw = query_num(req, "steps", default as f64)?;
    if raw.fract() != 0.0 || raw < 1.0 || raw > MAX_SWEEP_STEPS as f64 {
        return Err(Response::error_with_kind(
            400,
            Some("invalid_parameter"),
            &format!("query parameter steps={raw} must be an integer in 1..={MAX_SWEEP_STEPS}"),
        ));
    }
    Ok(raw as usize)
}

/// `POST /v1/sweep`: `?param=f|bpeak|intensity` with `from`/`to`/`steps`;
/// defaults to an ERT-style intensity sweep over 0.25..64 ops/byte. The
/// grid is evaluated under the `Auto` parallelism policy; the output is
/// bit-identical to the serial CLI by construction.
fn sweep_handler(req: &Request, _spec: &Spec, body: &str) -> Result<String, Response> {
    let param = req.query_param("param").unwrap_or("intensity");
    let from = query_num(req, "from", 0.25)?;
    let to = query_num(req, "to", 64.0)?;
    let steps = query_steps(req, 16)?;
    let output = sweep_command_with(
        body,
        param,
        from,
        to,
        steps,
        gables_model::Parallelism::Auto,
    )
    .map_err(|e| bad_request(&e))?;
    if wants_text(req) {
        return Ok(output);
    }
    Ok(Json::Object(vec![
        ("param".into(), Json::str(param)),
        ("output".into(), Json::str(output)),
    ])
    .to_string())
}

/// `POST /v1/whatif`: requires the JSON carrier with `"spec"` and
/// `"edits"`.
fn whatif_handler(req: &Request, spec: &Spec, body: &str) -> Result<String, Response> {
    let edits = spec.edits().ok_or_else(|| {
        Response::error(
            400,
            "whatif needs a JSON body with \"spec\" and \"edits\" fields, e.g. {\"spec\": \"...\", \"edits\": \"set_bpeak 30\"}",
        )
    })?;
    let output = whatif_command(body, edits).map_err(|e| bad_request(&e))?;
    if wants_text(req) {
        return Ok(output);
    }
    Ok(Json::Object(vec![
        ("edits".into(), Json::str(edits)),
        ("output".into(), Json::str(output)),
    ])
    .to_string())
}

/// `POST /v1/simulate`: run the spec's workload through the cycle-level
/// simulator and report per-job bottleneck attribution.
fn simulate_handler(_req: &Request, spec: &Spec, _body: &str) -> Result<String, Response> {
    use gables_soc_sim::telemetry::{BindingConstraint, NullRecorder};

    let soc = spec.soc().map_err(|e| bad_request(&e))?;
    let workload = spec.workload().map_err(|e| bad_request(&e))?;
    let names = spec.ip_names();
    let run = gables_soc_sim::run_gables_workload(&soc, &workload, &mut NullRecorder)
        .map_err(|e| Response::error(400, &e.to_string()))?;

    let jobs = Json::Array(
        run.jobs
            .iter()
            .map(|j| {
                let breakdown = Json::Object(
                    BindingConstraint::ALL
                        .iter()
                        .map(|&c| (c.label().to_string(), Json::num(j.breakdown.fraction(c))))
                        .collect(),
                );
                Json::Object(vec![
                    ("ip".into(), Json::num(j.ip as f64)),
                    (
                        "name".into(),
                        Json::str(
                            names
                                .get(j.ip)
                                .cloned()
                                .unwrap_or_else(|| format!("IP{}", j.ip)),
                        ),
                    ),
                    ("gflops".into(), Json::num(j.flops / 1e9)),
                    ("gbytes".into(), Json::num(j.bytes / 1e9)),
                    (
                        "dominant_bottleneck".into(),
                        Json::str(j.breakdown.dominant().label()),
                    ),
                    ("bottleneck_breakdown".into(), breakdown),
                ])
            })
            .collect(),
    );
    let doc = Json::Object(vec![
        ("makespan_seconds".into(), Json::num(run.makespan_seconds)),
        (
            "aggregate_gflops_per_sec".into(),
            Json::num(run.aggregate_flops_per_sec / 1e9),
        ),
        ("jobs".into(), jobs),
    ]);
    // The simulate report is JSON-native; ?format=text serves the same
    // document with a text/plain content type (finish() handles that).
    Ok(doc.to_string())
}

/// `POST /v1/carm`: spec text with `[cache.<level>]` sections → the
/// cache-aware roofline report. With `?format=text`, byte-identical to
/// `gables carm`; otherwise the structured ladder/sweep payload plus
/// that output. The ladder sweep runs through `par::try_map`, so the
/// payload is byte-identical across worker parallelism policies.
fn carm_handler(req: &Request, _spec: &Spec, body: &str) -> Result<String, Response> {
    let report = crate::carm::carm_report(body, gables_model::Parallelism::Auto)
        .map_err(|e| bad_request(&e))?;
    let output = crate::carm::render_text(&report);
    if wants_text(req) {
        return Ok(output);
    }
    let Json::Object(mut fields) = crate::carm::json_data(&report) else {
        unreachable!("carm json_data is always an object");
    };
    fields.push(("output".into(), Json::str(output)));
    Ok(Json::Object(fields).to_string())
}

// ---------------------------------------------------------------------------
// Replica sharding: a consistent-hash router in front of shard children.
// ---------------------------------------------------------------------------

/// Virtual nodes per shard on the consistent-hash ring. More points
/// smooth the key distribution across shards.
const RING_POINTS_PER_SHARD: usize = 64;

/// A consistent-hash ring over shard indices: each shard contributes
/// [`RING_POINTS_PER_SHARD`] points, and a key maps to the shard owning
/// the first point at or after the key's hash (wrapping). Adding or
/// removing one shard moves only ~1/N of the key space.
#[derive(Debug, Clone)]
pub struct HashRing {
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds the ring for `shards` shard indices (`shards >= 1`).
    pub fn new(shards: usize) -> Self {
        let mut points = Vec::with_capacity(shards.max(1) * RING_POINTS_PER_SHARD);
        for shard in 0..shards.max(1) {
            for point in 0..RING_POINTS_PER_SHARD {
                points.push((obs::hash64(&format!("shard-{shard}-point-{point}")), shard));
            }
        }
        points.sort_unstable();
        Self { points }
    }

    /// The shard index owning this key.
    pub fn shard_for(&self, key: &str) -> usize {
        let h = obs::hash64(key);
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[i % self.points.len()].1
    }
}

/// One supervised shard child: its announced address plus the process
/// and stdin handles that bound its lifetime to the parent's.
struct Shard {
    addr: String,
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
}

/// Renders a parsed SLO back to its canonical `--slo` text (the clause
/// labels round-trip through [`SloSpec::parse`]), so shard children are
/// spawned with the same definitions the parent evaluates.
fn slo_arg(spec: &SloSpec) -> String {
    let mut text = format!("route={}", spec.route);
    for objective in &spec.objectives {
        text.push(' ');
        text.push_str(&objective.label());
    }
    text
}

impl Shard {
    /// Spawns one shard on an ephemeral port and waits for its
    /// `LISTENING <addr>` announcement.
    fn spawn(workers: usize, slos: &[SloSpec]) -> Result<Self, SpecError> {
        use std::io::BufRead as _;
        let exe = std::env::current_exe()
            .map_err(|e| SpecError::general(format!("cannot locate own executable: {e}")))?;
        let mut args = vec![
            "serve".to_string(),
            "127.0.0.1:0".to_string(),
            "--workers".to_string(),
            workers.to_string(),
            "--announce".to_string(),
        ];
        for spec in slos {
            args.push("--slo".to_string());
            args.push(slo_arg(spec));
        }
        let mut child = std::process::Command::new(exe)
            .args(&args)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| SpecError::general(format!("cannot spawn shard: {e}")))?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .expect("shard stdout was requested piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| SpecError::general(format!("shard announcement failed: {e}")))?;
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .ok_or_else(|| SpecError::general(format!("unexpected shard announcement {line:?}")))?
            .to_string();
        Ok(Self { addr, child, stdin })
    }

    /// Asks the shard to exit (stdin EOF) and reaps it, escalating to a
    /// kill if it ignores the contract.
    fn stop(&mut self) {
        drop(self.stdin.take());
        for _ in 0..30 {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(100)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `gables serve --replicas N`: spawn N shard children, then serve as a
/// consistent-hash router in front of them.
fn run_replicated(opts: &ServeOptions) -> Result<String, SpecError> {
    let mut shards = Vec::with_capacity(opts.replicas);
    for _ in 0..opts.replicas {
        shards.push(Shard::spawn(opts.workers, &opts.slos)?);
    }
    let addrs: Arc<Vec<String>> = Arc::new(shards.iter().map(|s| s.addr.clone()).collect());
    let ring = Arc::new(HashRing::new(opts.replicas));

    let config = ServerConfig {
        workers: opts.workers,
        ..ServerConfig::default()
    };
    let server = Server::bind(opts.addr.as_str(), config)
        .map_err(|e| SpecError::general(format!("bind {}: {e}", opts.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| SpecError::general(e.to_string()))?;
    let state = ServeState::new(
        server.metrics(),
        Arc::new(ShardedCache::new(8, 128)),
        server.flight(),
        opts.workers,
    )
    .with_slos(opts.slos.clone());
    let router = build_parent_router(&state, addrs, ring);
    obs::log(
        obs::Level::Info,
        "serve",
        "listening",
        &[
            ("addr", format!("http://{addr}").into()),
            ("replicas", opts.replicas.into()),
            ("workers", opts.workers.into()),
            ("version", VERSION.into()),
            (
                "shards",
                shards
                    .iter()
                    .map(|s| s.addr.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
                    .into(),
            ),
        ],
    );
    if opts.announce {
        announce_and_watch(
            addr,
            server
                .handle()
                .map_err(|e| SpecError::general(e.to_string()))?,
        );
    }
    let run_result = server.run(router);
    for shard in &mut shards {
        shard.stop();
    }
    run_result.map_err(|e| SpecError::general(e.to_string()))?;
    obs::log(obs::Level::Info, "serve", "shutdown complete", &[]);
    Ok(String::new())
}

/// Builds the parent (router) route table: spec-carrying `POST`s are
/// forwarded to the shard owning the spec's canonical key, `/v1/batch`
/// scatters per item and gathers in order, `/v1/metrics`,
/// `/v1/healthz`, and `/v1/slo` aggregate across shards, the debug
/// routes answer fleet-wide (or pinned with `?shard=`), and the
/// discovery document and alias tombstones answer locally.
fn build_parent_router(state: &ServeState, addrs: Arc<Vec<String>>, ring: Arc<HashRing>) -> Router {
    let healthz_addrs = Arc::clone(&addrs);
    let metrics_addrs = Arc::clone(&addrs);
    let slo_addrs = Arc::clone(&addrs);
    let requests_addrs = Arc::clone(&addrs);
    let profile_addrs = Arc::clone(&addrs);
    let metrics_state = state.clone();
    let slo_state = state.clone();
    let healthz_state = state.clone();
    let batch_addrs = Arc::clone(&addrs);
    let batch_ring = Arc::clone(&ring);
    let mut router = Router::new()
        .route("GET", "/v1", |_| discovery_response())
        .route("GET", "/v1/healthz", move |req| {
            aggregated_healthz(req, &healthz_addrs, &healthz_state)
        })
        .route("GET", "/v1/metrics", move |req| {
            aggregated_metrics(req, &metrics_addrs, &metrics_state)
        })
        .route("GET", "/v1/slo", move |req| {
            aggregated_slo(req, &slo_addrs, &slo_state)
        })
        .route("GET", "/v1/debug/requests", move |req| {
            fleet_debug_requests(req, &requests_addrs)
        })
        .route("GET", "/v1/debug/profile", move |req| {
            fleet_debug_profile(req, &profile_addrs)
        })
        .route("POST", "/v1/batch", move |req| {
            parent_batch_response(req, &batch_addrs, &batch_ring)
        });
    for name in ["eval", "sweep", "whatif", "simulate", "carm"] {
        let path = format!("/v1/{name}");
        let addrs = Arc::clone(&addrs);
        let ring = Arc::clone(&ring);
        let forward_path = path.clone();
        router = router.route("POST", &path, move |req| {
            route_to_shard(req, &forward_path, &addrs, &ring)
        });
    }
    for (method, alias, v1) in SUNSET_ALIASES {
        router = router.route(method, alias, move |_| gone(v1));
    }
    router
}

/// Forwards one spec-carrying `POST` to the shard that owns the spec's
/// canonical key. Bodies that don't parse are answered locally — the
/// same code path a shard would take, so the bytes are identical.
fn route_to_shard(
    req: &Request,
    path: &str,
    addrs: &Arc<Vec<String>>,
    ring: &Arc<HashRing>,
) -> Response {
    let _route_span = obs::span("shard.route");
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => {
            return Response::error_with_kind(
                400,
                Some(crate::spec::SPEC_PARSE_KIND),
                &e.to_string(),
            )
        }
    };
    let spec = match Spec::parse(body) {
        Ok(s) => s,
        Err(e) => return bad_request(&e),
    };
    let shard = ring.shard_for(spec.canonical_key());
    forward(&addrs[shard], req, path)
        .unwrap_or_else(|e| Response::error(503, &format!("shard {shard} unavailable: {e}")))
}

/// Parent-side `POST /v1/batch`: scatter each item to the shard owning
/// its canonical key (so every item hits the same shard cache a single
/// request would), gather in order, splice. Item bytes therefore match
/// `--replicas 1` and plain single-request serving exactly.
fn parent_batch_response(
    req: &Request,
    addrs: &Arc<Vec<String>>,
    ring: &Arc<HashRing>,
) -> Response {
    let specs = match batch_specs(req) {
        Ok(specs) => specs,
        Err(resp) => return *resp,
    };
    let items: Vec<String> = specs
        .iter()
        .map(|spec_text| {
            let _item_span = obs::span("batch");
            let item_req = Request {
                method: "POST".into(),
                path: "/v1/eval".into(),
                query: None,
                headers: Vec::new(),
                body: spec_text.as_bytes().to_vec(),
            };
            let resp = route_to_shard(&item_req, "/v1/eval", addrs, ring);
            String::from_utf8(resp.body).unwrap_or_default()
        })
        .collect();
    Response::json(200, envelope(&splice_batch_items(&items)))
}

/// Parent-side `GET /v1/metrics`: fetch every shard's JSON snapshot,
/// merge counter-wise, render in the requested format. The uptime and
/// version stamped into the Prometheus view are the parent's own.
fn aggregated_metrics(req: &Request, addrs: &Arc<Vec<String>>, state: &ServeState) -> Response {
    use gables_serve::MetricsSnapshot;
    let mut aggregate: Option<MetricsSnapshot> = None;
    for (i, addr) in addrs.iter().enumerate() {
        let shard_req = Request {
            method: "GET".into(),
            path: "/v1/metrics".into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
        };
        let snapshot = forward(addr, &shard_req, "/v1/metrics")
            .ok()
            .filter(|resp| resp.status == 200)
            .and_then(|resp| {
                let body = String::from_utf8(resp.body).ok()?;
                let doc = Json::parse(&body).ok()?;
                MetricsSnapshot::from_json(&doc.get("data")?.to_string())
            });
        let Some(snapshot) = snapshot else {
            return Response::error(503, &format!("shard {i} metrics unavailable"));
        };
        match &mut aggregate {
            Some(total) => total.merge(&snapshot),
            None => aggregate = Some(snapshot),
        }
    }
    let Some(snapshot) = aggregate else {
        return Response::error(503, "no shards configured");
    };
    if req.query_param("format") == Some("prom") {
        let mut body = snapshot.to_prometheus(state.uptime_seconds(), VERSION);
        body.push_str(&gables_model::prof::prometheus_text());
        let mut resp = Response::text(200, body);
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8".to_string();
        resp
    } else if wants_text(req) {
        Response::text(200, snapshot.to_text())
    } else {
        Response::json(200, envelope(&snapshot.to_json()))
    }
}

/// Parent-side `GET /v1/healthz`: healthy only if every shard is. The
/// default body stays the byte-exact `ok\n` probes expect;
/// `?format=json` details per-shard status.
fn aggregated_healthz(req: &Request, addrs: &Arc<Vec<String>>, state: &ServeState) -> Response {
    let statuses: Vec<(String, bool)> = addrs
        .iter()
        .map(|addr| {
            let shard_req = Request {
                method: "GET".into(),
                path: "/v1/healthz".into(),
                query: None,
                headers: Vec::new(),
                body: Vec::new(),
            };
            let healthy = forward(addr, &shard_req, "/v1/healthz")
                .map(|resp| resp.status == 200)
                .unwrap_or(false);
            (addr.clone(), healthy)
        })
        .collect();
    let all_healthy = statuses.iter().all(|(_, healthy)| *healthy);
    if req.query_param("format") != Some("json") {
        return if all_healthy {
            Response::text(200, "ok\n")
        } else {
            Response::error(503, "one or more shards are unhealthy")
        };
    }
    let doc = Json::Object(vec![
        (
            "status".into(),
            Json::str(if all_healthy { "ok" } else { "degraded" }),
        ),
        ("version".into(), Json::str(VERSION)),
        ("uptime_seconds".into(), Json::num(state.uptime_seconds())),
        ("replicas".into(), Json::num(addrs.len() as f64)),
        (
            "shards".into(),
            Json::Array(
                statuses
                    .iter()
                    .map(|(addr, healthy)| {
                        Json::Object(vec![
                            ("addr".into(), Json::str(addr.clone())),
                            (
                                "status".into(),
                                Json::str(if *healthy { "ok" } else { "unreachable" }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let body = envelope(&doc.to_string());
    if all_healthy {
        Response::json(200, body)
    } else {
        let mut resp = Response::json(503, body);
        resp.content_type = "application/json".to_string();
        resp
    }
}

/// Parent-side `GET /v1/slo`: fetch every shard's snapshot, merge the
/// quantile sketches (exact bucket-wise addition — the fleet sketch is
/// bit-identical to one sketch fed the union stream), and evaluate the
/// parent's SLO definitions against the merged windows.
fn aggregated_slo(req: &Request, addrs: &Arc<Vec<String>>, state: &ServeState) -> Response {
    let mut aggregate: Option<SloSnapshot> = None;
    for (i, addr) in addrs.iter().enumerate() {
        let shard_req = Request {
            method: "GET".into(),
            path: "/v1/slo".into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
        };
        let snapshot = forward(addr, &shard_req, "/v1/slo")
            .ok()
            .filter(|resp| resp.status == 200)
            .and_then(|resp| {
                let body = String::from_utf8(resp.body).ok()?;
                let doc = Json::parse(&body).ok()?;
                SloSnapshot::from_json(doc.get("data")?)
            });
        let Some(snapshot) = snapshot else {
            return Response::error(503, &format!("shard {i} SLO snapshot unavailable"));
        };
        match &mut aggregate {
            Some(total) => {
                if !total.merge(&snapshot) {
                    return Response::error(503, &format!("shard {i} SLO snapshot incompatible"));
                }
            }
            None => aggregate = Some(snapshot),
        }
    }
    let Some(snapshot) = aggregate else {
        return Response::error(503, "no shards configured");
    };
    slo_render(req, &snapshot, &state.slos, addrs.len())
}

/// Parses `?shard=` against the shard count: `Ok(None)` when absent,
/// a 422 `invalid_parameter` when not an index in `0..shards`.
fn shard_index_param(req: &Request, shards: usize) -> Result<Option<usize>, Box<Response>> {
    let Some(raw) = req.query_param("shard") else {
        return Ok(None);
    };
    match raw.parse::<usize>() {
        Ok(i) if i < shards => Ok(Some(i)),
        _ => Err(Box::new(Response::error_with_kind(
            422,
            Some("invalid_parameter"),
            &format!("query parameter shard={raw:?} must be an integer in 0..{shards}"),
        ))),
    }
}

/// Parent-side `GET /v1/debug/requests`: with `?shard=i` the request is
/// forwarded verbatim to that shard; without it, every shard's flight
/// ring is fetched and interleaved into one fleet timeline ordered by
/// wall-clock completion (`ts_unix_us`, newest first), each record
/// tagged with its shard index. `?id=` scans the shards and relays the
/// first one retaining the record.
fn fleet_debug_requests(req: &Request, addrs: &Arc<Vec<String>>) -> Response {
    let shard = match shard_index_param(req, addrs.len()) {
        Ok(shard) => shard,
        Err(resp) => return *resp,
    };
    if let Some(i) = shard {
        return forward(&addrs[i], req, "/v1/debug/requests")
            .unwrap_or_else(|e| Response::error(503, &format!("shard {i} unavailable: {e}")));
    }
    if let Some(id) = req.query_param("id") {
        for addr in addrs.iter() {
            if let Ok(resp) = forward(addr, req, "/v1/debug/requests") {
                if resp.status == 200 {
                    return resp;
                }
            }
        }
        return Response::error(404, &format!("no shard retains a request with id {id:?}"));
    }
    let n = match query_num(req, "n", 32.0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if n.fract() != 0.0 || n < 1.0 || n > MAX_DEBUG_REQUESTS as f64 {
        return Response::error_with_kind(
            400,
            Some("invalid_parameter"),
            &format!("query parameter n={n} must be an integer in 1..={MAX_DEBUG_REQUESTS}"),
        );
    }
    let mut capacity = 0u64;
    let mut recorded_total = 0u64;
    let mut merged: Vec<Json> = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        let shard_req = Request {
            method: "GET".into(),
            path: "/v1/debug/requests".into(),
            query: Some(format!("n={}", n as usize)),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let data = forward(addr, &shard_req, "/v1/debug/requests")
            .ok()
            .filter(|resp| resp.status == 200)
            .and_then(|resp| {
                let body = String::from_utf8(resp.body).ok()?;
                Json::parse(&body).ok()?.get("data").cloned()
            });
        let Some(data) = data else {
            return Response::error(503, &format!("shard {i} flight records unavailable"));
        };
        let count = |key: &str| data.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        capacity += count("capacity");
        recorded_total += count("recorded_total");
        if let Some(requests) = data.get("requests").and_then(Json::as_array) {
            for record in requests {
                if let Json::Object(mut fields) = record.clone() {
                    fields.push(("shard".into(), Json::num(i as f64)));
                    merged.push(Json::Object(fields));
                }
            }
        }
    }
    // One fleet timeline: newest completion first across every shard.
    merged.sort_by(|a, b| {
        let ts = |r: &Json| r.get("ts_unix_us").and_then(Json::as_f64).unwrap_or(0.0);
        ts(b)
            .partial_cmp(&ts(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    merged.truncate(n as usize);
    let doc = Json::Object(vec![
        ("capacity".into(), Json::num(capacity as f64)),
        ("recorded_total".into(), Json::num(recorded_total as f64)),
        ("shards".into(), Json::num(addrs.len() as f64)),
        ("count".into(), Json::num(merged.len() as f64)),
        ("requests".into(), Json::Array(merged)),
    ]);
    Response::json(200, envelope(&doc.to_string()))
}

/// Parent-side `GET /v1/debug/profile`: `?shard=i` forwards the request
/// to that shard's profiler (422 when the index is out of range);
/// without it the parent profiles its own routing process, as before.
fn fleet_debug_profile(req: &Request, addrs: &Arc<Vec<String>>) -> Response {
    match shard_index_param(req, addrs.len()) {
        Err(resp) => *resp,
        Ok(Some(i)) => forward(&addrs[i], req, "/v1/debug/profile")
            .unwrap_or_else(|e| Response::error(503, &format!("shard {i} unavailable: {e}"))),
        Ok(None) => debug_profile_response(req),
    }
}

/// Response headers never relayed from a shard: connection framing is
/// the parent's business, and the parent stamps its own request ID.
const HOP_HEADERS: &[&str] = &[
    "connection",
    "content-length",
    "content-type",
    "x-request-id",
];

/// Forwards a request to one shard over a fresh connection (clean
/// `Connection: close` framing; shard keep-alive serves external
/// clients, not this internal hop) and parses the response. The
/// client's `X-Request-Id` is propagated so parent and shard flight
/// records correlate. Also the transport behind `gables top`'s polling.
pub(crate) fn forward(addr: &str, req: &Request, path: &str) -> std::io::Result<Response> {
    use std::io::{Read as _, Write as _};
    let _span = obs::span("shard.forward");
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(std::time::Duration::from_secs(30)))?;
    let target = match &req.query {
        Some(q) => format!("{path}?{q}"),
        None => path.to_string(),
    };
    let mut head = format!(
        "{} {} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n",
        req.method,
        target,
        req.body.len(),
    );
    if let Some(id) = req.header("x-request-id") {
        head.push_str(&format!("X-Request-Id: {id}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&req.body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_shard_response(&raw)
}

/// Parses a shard's full `Connection: close` response into a
/// [`Response`], relaying status, content type, body, and every header
/// except the hop-by-hop set in [`HOP_HEADERS`].
fn parse_shard_response(raw: &[u8]) -> std::io::Result<Response> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("shard response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| bad("shard response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty shard response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparsable shard status line"))?;
    let mut resp = Response::text(status, "");
    resp.body = raw[head_end + 4..].to_vec();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-type") {
            resp.content_type = value.to_string();
        } else if !HOP_HEADERS.iter().any(|h| name.eq_ignore_ascii_case(h)) {
            resp = resp.with_header(name, value);
        }
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_command;
    use crate::spec::FIGURE_6B_SPEC;

    fn post(path: &str, query: Option<&str>, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: query.map(String::from),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str, query: Option<&str>) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.map(String::from),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn router() -> Router {
        build_router(
            Arc::new(ServerMetrics::new()),
            Arc::new(ShardedCache::new(4, 32)),
        )
    }

    fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Parses an envelope body and returns (ok, data) with the error
    /// field checked for consistency.
    fn open_envelope(resp: &Response) -> (bool, Json) {
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let ok = doc.get("ok").and_then(Json::as_bool).unwrap();
        if ok {
            assert!(matches!(doc.get("error"), Some(Json::Null)));
            (ok, doc.get("data").unwrap().clone())
        } else {
            assert!(matches!(doc.get("data"), Some(Json::Null)));
            (ok, doc.get("error").unwrap().clone())
        }
    }

    #[test]
    fn parse_serve_args_defaults_and_overrides() {
        let opts = parse_serve_args(&[]).unwrap();
        assert_eq!(opts.addr, "127.0.0.1:7878");
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.replicas, 1);
        assert!(!opts.announce);
        let opts =
            parse_serve_args(&["0.0.0.0:9000".into(), "--workers".into(), "2".into()]).unwrap();
        assert_eq!(opts.addr, "0.0.0.0:9000");
        assert_eq!(opts.workers, 2);
        let opts =
            parse_serve_args(&["--replicas".into(), "3".into(), "--announce".into()]).unwrap();
        assert_eq!(opts.replicas, 3);
        assert!(opts.announce);
        assert!(parse_serve_args(&["--workers".into()]).is_err());
        assert!(parse_serve_args(&["--workers".into(), "0".into()]).is_err());
        assert!(parse_serve_args(&["--replicas".into(), "0".into()]).is_err());
        assert!(parse_serve_args(&["--replicas".into(), "two".into()]).is_err());
        assert!(parse_serve_args(&["--frob".into()]).is_err());
        assert!(parse_serve_args(&["a:1".into(), "b:2".into()]).is_err());
    }

    #[test]
    fn parse_serve_args_accepts_repeatable_slo_definitions() {
        let opts = parse_serve_args(&[
            "--slo".into(),
            "route=/v1/eval p99<2ms err<0.1%".into(),
            "--slo".into(),
            "route=/v1/sweep p50<500us".into(),
        ])
        .unwrap();
        assert_eq!(opts.slos.len(), 2);
        assert_eq!(opts.slos[0].route, "/v1/eval");
        assert_eq!(opts.slos[0].objectives.len(), 2);
        assert_eq!(opts.slos[1].route, "/v1/sweep");
        // Canonical text round-trips, so shards see the same definition.
        assert_eq!(slo_arg(&opts.slos[0]), "route=/v1/eval p99<2ms err<0.1%");
        assert_eq!(
            SloSpec::parse(&slo_arg(&opts.slos[0])).unwrap(),
            opts.slos[0]
        );
        assert!(parse_serve_args(&["--slo".into()]).is_err());
        let err = parse_serve_args(&["--slo".into(), "p99<2ms".into()]).unwrap_err();
        assert!(err.message.contains("route="), "{err}");
        assert!(parse_serve_args(&["--slo".into(), "route=/v1/eval p75<2ms".into()]).is_err());
    }

    #[test]
    fn slo_endpoint_reports_quantiles_and_burn_rates() {
        let state = state().with_slos(vec![
            SloSpec::parse("route=/v1/eval p99<1us").unwrap(),
            SloSpec::parse("route=/v1/eval p99<60s err<50%").unwrap(),
        ]);
        for i in 0..50u64 {
            let status = if i % 10 == 0 { 500 } else { 200 };
            state.metrics.record_handled(
                "/v1/eval",
                status,
                std::time::Duration::from_micros(100 + i),
            );
        }
        let router = build_router_with(&state);
        let resp = router.dispatch(&get("/v1/slo", None));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert_eq!(data.get("shards").and_then(Json::as_f64), Some(1.0));
        let route = data.get("routes").unwrap().get("/v1/eval").unwrap();
        assert_eq!(route.get("total").and_then(Json::as_f64), Some(50.0));
        assert_eq!(route.get("errors").and_then(Json::as_f64), Some(5.0));
        let cumulative = data
            .get("quantiles")
            .unwrap()
            .get("/v1/eval")
            .unwrap()
            .get("cumulative")
            .unwrap();
        let p50 = cumulative.get("p50_us").and_then(Json::as_f64).unwrap();
        assert!((100.0..=150.0).contains(&p50), "{p50}");
        // Every request breaks p99<1us (burn ≫ 1); the generous SLO
        // holds (burn ≤ 1 means within budget).
        let slos = data.get("slos").unwrap().as_array().unwrap();
        assert_eq!(slos.len(), 3, "one entry per objective");
        let burn = |idx: usize| {
            slos[idx].get("windows").unwrap().as_array().unwrap()[0]
                .get("burn_rate")
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert!(burn(0) > 1.0, "tight latency SLO must burn: {}", burn(0));
        assert!(burn(1) <= 1.0, "loose latency SLO holds: {}", burn(1));
        // err<50% with a 10% error rate burns at 0.2.
        assert!((burn(2) - 0.2).abs() < 1e-9, "{}", burn(2));

        let resp = router.dispatch(&get("/v1/slo", Some("format=prom")));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain; version=0.0.4"));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("gables_slo_shards 1\n"), "{body}");
        assert!(
            body.contains("gables_route_latency_quantile_seconds{route=\"/v1/eval\""),
            "{body}"
        );
        assert!(
            body.contains("gables_slo_burn_rate{route=\"/v1/eval\""),
            "{body}"
        );
        assert!(body.contains("gables_slo_ok{route=\"/v1/eval\""), "{body}");
    }

    #[test]
    fn fleet_debug_routes_reject_out_of_range_shard_indices() {
        // The 422 contract needs no live shards: validation happens
        // before any forwarding.
        let addrs: Arc<Vec<String>> = Arc::new(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
        for (target, handler) in [
            (
                "/v1/debug/profile",
                fleet_debug_profile as fn(&Request, &Arc<Vec<String>>) -> Response,
            ),
            ("/v1/debug/requests", fleet_debug_requests),
        ] {
            for bad in ["shard=2", "shard=-1", "shard=one"] {
                let resp = handler(&get(target, Some(bad)), &addrs);
                assert_eq!(resp.status, 422, "{target}?{bad}");
                let (ok, err) = open_envelope(&resp);
                assert!(!ok);
                assert_eq!(
                    err.get("kind").and_then(Json::as_str),
                    Some("invalid_parameter"),
                    "{target}?{bad}"
                );
            }
        }
    }

    #[test]
    fn hash_ring_is_deterministic_and_covers_all_shards() {
        let ring = HashRing::new(4);
        // Deterministic: the same key always lands on the same shard.
        for key in ["alpha", "beta", "gamma"] {
            assert_eq!(ring.shard_for(key), HashRing::new(4).shard_for(key));
        }
        // Coverage: enough keys reach every shard.
        let mut hit = [false; 4];
        for i in 0..256 {
            hit[ring.shard_for(&format!("key-{i}"))] = true;
        }
        assert!(hit.iter().all(|&h| h), "{hit:?}");
        // Stability: growing the ring by one shard moves only part of
        // the key space.
        let bigger = HashRing::new(5);
        let moved = (0..256)
            .filter(|i| {
                let key = format!("key-{i}");
                ring.shard_for(&key) != bigger.shard_for(&key)
            })
            .count();
        assert!(
            moved < 160,
            "consistent hashing should move ~1/5, moved {moved}/256"
        );
    }

    #[test]
    fn eval_text_format_matches_cli_output_exactly() {
        let resp = router().dispatch(&post("/v1/eval", Some("format=text"), FIGURE_6B_SPEC));
        assert_eq!(resp.status, 200);
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            eval_command(FIGURE_6B_SPEC).unwrap()
        );
    }

    #[test]
    fn eval_json_has_structured_fields_in_the_envelope() {
        let resp = router().dispatch(&post("/v1/eval", None, FIGURE_6B_SPEC));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        let gops = data.get("attainable_gops").and_then(Json::as_f64).unwrap();
        assert!((gops - 1.3278).abs() < 1e-3, "{gops}");
        assert_eq!(
            data.get("bottleneck").and_then(Json::as_str),
            Some("memory interface")
        );
        assert!(data
            .get("output")
            .and_then(Json::as_str)
            .unwrap()
            .contains("Pattainable"));
    }

    #[test]
    fn eval_accepts_a_json_wrapped_spec() {
        let body = Json::Object(vec![("spec".into(), Json::str(FIGURE_6B_SPEC))]).to_string();
        let resp = router().dispatch(&post("/v1/eval", None, &body));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn eval_rejects_empty_and_invalid_bodies_with_error_envelopes() {
        for body in ["", "{\"nope\": 1}", "[soc]\nbogus = 1\n"] {
            let resp = router().dispatch(&post("/v1/eval", None, body));
            assert_eq!(resp.status, 400, "{body:?}");
            let (ok, error) = open_envelope(&resp);
            assert!(!ok, "{body:?}");
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("bad_request"),
                "{body:?}"
            );
            assert!(error.get("message").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn carm_serves_the_ladder_in_the_envelope() {
        let spec = crate::carm::tests::carm_spec();
        let resp = router().dispatch(&post("/v1/carm", None, &spec));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        let ladder = data.get("ladder").unwrap();
        let Json::Array(rungs) = ladder else {
            panic!("ladder must be an array: {ladder:?}");
        };
        assert_eq!(rungs.len(), 4, "three cache levels plus DRAM");
        for rung in rungs {
            assert!(rung.get("gbps").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(rung
                .get("knee_ops_per_byte")
                .and_then(Json::as_f64)
                .is_some());
        }
        let Some(Json::Array(sweep)) = data.get("sweep") else {
            panic!("sweep must be an array");
        };
        assert!(!sweep.is_empty());
        assert!(sweep
            .iter()
            .any(|p| p.get("binding").and_then(Json::as_str) == Some("compute")));

        // ?format=text matches the CLI byte for byte.
        let resp = router().dispatch(&post("/v1/carm", Some("format=text"), &spec));
        assert_eq!(resp.status, 200);
        let report = crate::carm::carm_report(&spec, gables_model::Parallelism::Auto).unwrap();
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            crate::carm::render_text(&report)
        );

        // Malformed hierarchies carry the closed code.
        let bad = format!("{FIGURE_6B_SPEC}\n[cache.l1]\ncapacity_kib = 0\nlatency_ns = 1\n");
        let resp = router().dispatch(&post("/v1/carm", None, &bad));
        assert_eq!(resp.status, 400);
        let (ok, error) = open_envelope(&resp);
        assert!(!ok);
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("invalid_cache_config"),
            "{error:?}"
        );
    }

    #[test]
    fn sweep_defaults_to_an_intensity_sweep() {
        let resp = router().dispatch(&post("/v1/sweep", None, FIGURE_6B_SPEC));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert_eq!(data.get("param").and_then(Json::as_str), Some("intensity"));
        let out = data.get("output").and_then(Json::as_str).unwrap();
        assert!(out.contains("I(ops/B)"), "{out}");
        assert_eq!(out.lines().count(), 18, "header + 17 rows");
    }

    #[test]
    fn sweep_accepts_explicit_params_and_rejects_bad_ones() {
        let resp = router().dispatch(&post(
            "/v1/sweep",
            Some("param=bpeak&from=5&to=40&steps=4"),
            FIGURE_6B_SPEC,
        ));
        assert_eq!(resp.status, 200);
        let resp = router().dispatch(&post("/v1/sweep", Some("from=banana"), FIGURE_6B_SPEC));
        assert_eq!(resp.status, 400);
        let resp = router().dispatch(&post("/v1/sweep", Some("param=nope"), FIGURE_6B_SPEC));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn sweep_rejects_non_finite_bounds_and_unbounded_steps() {
        // `steps=inf` used to cast through `as usize` to usize::MAX and
        // turn one request into an effectively unbounded evaluation loop.
        for query in [
            "steps=inf",
            "steps=nan",
            "steps=1e400",
            "steps=0",
            "steps=-3",
            "steps=2.5",
            "steps=200000",
            "from=nan",
            "to=inf",
            "from=-1e400",
        ] {
            let resp = router().dispatch(&post("/v1/sweep", Some(query), FIGURE_6B_SPEC));
            assert_eq!(resp.status, 400, "{query}");
            let (ok, error) = open_envelope(&resp);
            assert!(!ok, "{query}");
            assert_eq!(
                error.get("kind").and_then(Json::as_str),
                Some("invalid_parameter"),
                "{query}"
            );
        }
        // The cap itself is inclusive.
        let resp = router().dispatch(&post("/v1/sweep", Some("steps=5"), FIGURE_6B_SPEC));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn error_envelopes_carry_the_closed_error_kind() {
        // Model-rule violation surfaces the `ErrorKind` code.
        let unbalanced =
            FIGURE_6B_SPEC.replace("fractions   = 0.25, 0.75", "fractions   = 0.25, 0.5");
        let resp = router().dispatch(&post("/v1/eval", None, &unbalanced));
        assert_eq!(resp.status, 400);
        let (ok, error) = open_envelope(&resp);
        assert!(!ok);
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("work_fraction_sum")
        );
        // Non-finite literal in the spec is an invalid_parameter.
        let poisoned = FIGURE_6B_SPEC.replace("ppeak_gops = 40", "ppeak_gops = nan");
        let resp = router().dispatch(&post("/v1/eval", None, &poisoned));
        assert_eq!(resp.status, 400);
        let (_, error) = open_envelope(&resp);
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("invalid_parameter")
        );
        // Transport-level parse failure gets the parser's own kind.
        let resp = router().dispatch(&post("/v1/eval", None, "not a spec"));
        assert_eq!(resp.status, 400);
        let (_, error) = open_envelope(&resp);
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some(crate::spec::SPEC_PARSE_KIND)
        );
    }

    #[test]
    fn whatif_needs_json_body_with_edits() {
        let body = Json::Object(vec![
            ("spec".into(), Json::str(FIGURE_6B_SPEC)),
            ("edits".into(), Json::str("set_bpeak 30; set_intensity 1 8")),
        ])
        .to_string();
        let resp = router().dispatch(&post("/v1/whatif", None, &body));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert!(data
            .get("output")
            .and_then(Json::as_str)
            .unwrap()
            .contains("baseline"));
        // Raw spec text (no edits field) is a clear 400.
        let resp = router().dispatch(&post("/v1/whatif", None, FIGURE_6B_SPEC));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn simulate_reports_per_job_attribution() {
        let resp = router().dispatch(&post("/v1/simulate", None, FIGURE_6B_SPEC));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert!(data.get("makespan_seconds").and_then(Json::as_f64).unwrap() > 0.0);
        let jobs = data.get("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs.len(), 2);
        let cpu = &jobs[0];
        assert_eq!(cpu.get("name").and_then(Json::as_str), Some("CPU"));
        let breakdown = cpu
            .get("bottleneck_breakdown")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(breakdown.len(), 6);
        let total: f64 = breakdown.iter().map(|(_, v)| v.as_f64().unwrap()).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "fractions sum to 1, got {total}"
        );
        assert!(cpu
            .get("dominant_bottleneck")
            .and_then(Json::as_str)
            .is_some());
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let metrics = Arc::new(ServerMetrics::new());
        let router = build_router(Arc::clone(&metrics), Arc::new(ShardedCache::new(4, 32)));
        let first = router.dispatch(&post("/v1/eval", None, FIGURE_6B_SPEC));
        // Cosmetically different spelling of the same spec still hits.
        let respelled = format!("# a comment\n{}", FIGURE_6B_SPEC.replace(" = ", "="));
        let second = router.dispatch(&post("/v1/eval", None, &respelled));
        assert_eq!(first.body, second.body);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.cache_misses, 1);
        assert_eq!(snapshot.cache_hits, 1);
    }

    #[test]
    fn sunset_aliases_answer_410_gone_with_successor_links() {
        let router = router();
        for (method, alias, v1) in SUNSET_ALIASES {
            let req = if *method == "POST" {
                post(alias, None, FIGURE_6B_SPEC)
            } else {
                get(alias, None)
            };
            let resp = router.dispatch(&req);
            assert_eq!(resp.status, 410, "{alias}");
            assert_eq!(header(&resp, "Deprecation"), None, "{alias}");
            let link = header(&resp, "Link").unwrap_or_default();
            assert!(
                link.contains(v1) && link.contains("successor-version"),
                "{alias}: {link:?}"
            );
            let (ok, error) = open_envelope(&resp);
            assert!(!ok, "{alias}");
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("endpoint_gone"),
                "{alias}"
            );
            assert!(
                error
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains(v1),
                "{alias}"
            );
        }
    }

    #[test]
    fn v1_routes_carry_no_deprecation_headers() {
        let router = router();
        for req in [
            post("/v1/eval", None, FIGURE_6B_SPEC),
            get("/v1/metrics", None),
            get("/v1/healthz", None),
        ] {
            let resp = router.dispatch(&req);
            assert_eq!(resp.status, 200, "{}", req.path);
            assert_eq!(header(&resp, "Deprecation"), None, "{}", req.path);
        }
    }

    #[test]
    fn healthz_answers_ok_at_the_v1_path_only() {
        let resp = router().dispatch(&get("/v1/healthz", None));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok\n");
        let resp = router().dispatch(&get("/healthz", None));
        assert_eq!(resp.status, 410);
    }

    #[test]
    fn discovery_lists_routes_sunsets_and_the_closed_error_vocabulary() {
        let resp = router().dispatch(&get("/v1", None));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert_eq!(data.get("version").and_then(Json::as_str), Some(VERSION));
        let routes = data.get("routes").unwrap().as_array().unwrap();
        let listed: Vec<(&str, &str)> = routes
            .iter()
            .map(|r| {
                (
                    r.get("method").and_then(Json::as_str).unwrap(),
                    r.get("path").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        // The document covers exactly the live route table (aliases are
        // listed under "sunset", not "routes").
        let live_router = router();
        let table = live_router.route_table();
        let live: Vec<(String, String)> = table
            .iter()
            .filter(|(_, p)| p.starts_with("/v1"))
            .map(|(m, p)| (m.to_string(), p.to_string()))
            .collect();
        assert_eq!(listed.len(), live.len());
        for (method, path) in &live {
            assert!(
                listed.contains(&(method.as_str(), path.as_str())),
                "{method} {path} missing from discovery"
            );
        }
        // Sweep documents its query params.
        let sweep = routes
            .iter()
            .find(|r| r.get("path").and_then(Json::as_str) == Some("/v1/sweep"))
            .unwrap();
        let params: Vec<&str> = sweep
            .get("params")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert!(params.contains(&"steps"), "{params:?}");
        // The error vocabulary is sourced from the closed sets.
        let codes = data.get("error_codes").unwrap();
        let transport: Vec<&str> = codes
            .get("transport")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|c| c.get("code").and_then(Json::as_str))
            .collect();
        for (_, code) in Response::ERROR_CODES {
            assert!(transport.contains(code), "{code} missing");
        }
        let kinds: Vec<&str> = codes
            .get("kinds")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        for kind in gables_model::ErrorKind::ALL {
            assert!(kinds.contains(&kind.code()), "{} missing", kind.code());
        }
        assert!(kinds.contains(&crate::spec::SPEC_PARSE_KIND));
        assert!(kinds.contains(&"profile_in_progress"));
        // Every sunset alias names its successor.
        let sunset = data.get("sunset").unwrap().as_array().unwrap();
        assert_eq!(sunset.len(), SUNSET_ALIASES.len());
        for tomb in sunset {
            assert_eq!(tomb.get("status").and_then(Json::as_f64), Some(410.0));
            assert!(tomb.get("successor").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn batch_items_are_bit_identical_to_single_eval_responses() {
        let router = router();
        let bad_spec = "not a spec";
        let specs = Json::Object(vec![(
            "specs".into(),
            Json::Array(vec![
                Json::str(FIGURE_6B_SPEC),
                Json::str(bad_spec),
                Json::str(FIGURE_6B_SPEC),
            ]),
        )])
        .to_string();
        let resp = router.dispatch(&post("/v1/batch", None, &specs));
        assert_eq!(resp.status, 200, "one bad spec must not fail the batch");
        let body = String::from_utf8(resp.body.clone()).unwrap();
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert_eq!(data.get("count").and_then(Json::as_f64), Some(3.0));

        // Bit-identity: each item is byte-for-byte a single /v1/eval
        // response. The good spec was evaluated by the batch first, so
        // the single request below is a cache hit — same bytes either
        // way, which is the whole point of the canonical cache key.
        let single_good = router.dispatch(&post("/v1/eval", None, FIGURE_6B_SPEC));
        let single_bad = router.dispatch(&post("/v1/eval", None, bad_spec));
        let good = String::from_utf8(single_good.body).unwrap();
        let bad = String::from_utf8(single_bad.body).unwrap();
        let expected = format!(
            "{{\"ok\":true,\"data\":{{\"count\":3,\"items\":[{good},{bad},{good}]}},\"error\":null}}"
        );
        assert_eq!(body, expected);

        // The per-item error carries its own closed code.
        let items = data.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(items[1].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            items[1]
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(crate::spec::SPEC_PARSE_KIND)
        );
    }

    #[test]
    fn batch_accepts_a_bare_array_and_rejects_malformed_bodies() {
        let router = router();
        let bare = Json::Array(vec![Json::str(FIGURE_6B_SPEC)]).to_string();
        let resp = router.dispatch(&post("/v1/batch", None, &bare));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert_eq!(data.get("count").and_then(Json::as_f64), Some(1.0));

        for body in [
            "",
            "not json",
            "{\"nope\": 1}",
            "{\"specs\": \"one\"}",
            "[]",
            "{\"specs\": []}",
            "[42]",
        ] {
            let resp = router.dispatch(&post("/v1/batch", None, body));
            assert_eq!(resp.status, 400, "{body:?}");
            let (ok, error) = open_envelope(&resp);
            assert!(!ok, "{body:?}");
            assert_eq!(
                error.get("kind").and_then(Json::as_str),
                Some("invalid_parameter"),
                "{body:?}"
            );
        }
        let over = Json::Array(vec![Json::str("x"); MAX_BATCH_ITEMS + 1]).to_string();
        let resp = router.dispatch(&post("/v1/batch", None, &over));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn deeply_nested_bodies_get_a_400_not_a_stack_overflow() {
        // Without the nesting cap, 10 KB of `[` overflows a worker's
        // stack and aborts the process; under --replicas the parent
        // parses these bodies before forwarding.
        let deep = "[".repeat(10_000);
        let bodies = [
            ("/v1/batch", deep.clone()),
            ("/v1/batch", format!("{{\"specs\":{deep}")),
            ("/v1/eval", format!("{{\"spec\":{deep}")),
        ];
        let unreachable = Arc::new(vec!["127.0.0.1:9".to_string(); 2]);
        let routers = [
            router(),
            build_parent_router(&state(), unreachable, Arc::new(HashRing::new(2))),
        ];
        for router in &routers {
            for (path, body) in &bodies {
                let resp = router.dispatch(&post(path, None, body));
                assert_eq!(resp.status, 400, "{path}");
                assert!(!open_envelope(&resp).0, "{path}");
            }
        }
        let resp = routers[0].dispatch(&post("/v1/eval", None, FIGURE_6B_SPEC));
        assert_eq!(resp.status, 200, "the server keeps serving");
    }

    #[test]
    fn batch_shares_the_cache_with_single_eval_requests() {
        let metrics = Arc::new(ServerMetrics::new());
        let router = build_router(Arc::clone(&metrics), Arc::new(ShardedCache::new(4, 32)));
        let _ = router.dispatch(&post("/v1/eval", None, FIGURE_6B_SPEC));
        let batch = Json::Array(vec![Json::str(FIGURE_6B_SPEC)]).to_string();
        let _ = router.dispatch(&post("/v1/batch", None, &batch));
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.cache_misses, 1);
        assert_eq!(
            snapshot.cache_hits, 1,
            "the batch item must hit the single-request cache entry"
        );
    }

    fn state() -> ServeState {
        ServeState::new(
            Arc::new(ServerMetrics::new()),
            Arc::new(ShardedCache::new(4, 32)),
            Arc::new(FlightRecorder::new(8)),
            4,
        )
    }

    #[test]
    fn healthz_json_reports_uptime_version_and_saturation() {
        let state = state();
        state.metrics.enter_in_flight();
        let router = build_router_with(&state);
        let resp = router.dispatch(&get("/v1/healthz", Some("format=json")));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert_eq!(data.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(data.get("version").and_then(Json::as_str), Some(VERSION));
        assert!(data.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(data.get("in_flight").and_then(Json::as_f64), Some(1.0));
        assert_eq!(data.get("workers").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            data.get("worker_saturation").and_then(Json::as_f64),
            Some(0.25)
        );
        // The default stays byte-identical even with other formats around.
        let resp = router.dispatch(&get("/v1/healthz", None));
        assert_eq!(resp.body, b"ok\n");
        let resp = router.dispatch(&get("/v1/healthz", Some("format=yaml")));
        assert_eq!(resp.body, b"ok\n", "unknown formats fall back to plain");
    }

    #[test]
    fn metrics_prom_format_exposes_the_exposition() {
        let state = state();
        state
            .metrics
            .record_handled("/v1/eval", 200, std::time::Duration::from_micros(50));
        let router = build_router_with(&state);
        let resp = router.dispatch(&get("/v1/metrics", Some("format=prom")));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain; version=0.0.4"));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("gables_requests_handled_total 1\n"), "{body}");
        assert!(body.contains(&format!("gables_build_info{{version=\"{VERSION}\"}} 1\n")));
        assert!(body.contains("gables_uptime_seconds "));
        assert!(body.contains("gables_request_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        // Process-global profiler/allocator series are appended.
        assert!(body.contains("gables_profile_samples_total "), "{body}");
        assert!(body.contains("gables_allocs_total "));
        assert!(body.contains("gables_alloc_bytes_total "));
        assert!(body.contains("# HELP gables_phase_self_seconds_total "));
    }

    #[test]
    fn debug_profile_validates_rejects_concurrency_and_profiles() {
        use gables_model::prof;
        let router = router();
        // 422 for unbounded, non-numeric, or non-finite seconds and for
        // unknown formats — the structured `unprocessable` contract.
        for bad in [
            "seconds=0",
            "seconds=-1",
            "seconds=16",
            "seconds=inf",
            "seconds=nan",
            "seconds=never",
            "format=xml",
        ] {
            let resp = router.dispatch(&get("/v1/debug/profile", Some(bad)));
            assert_eq!(resp.status, 422, "{bad}");
            let (ok, err) = open_envelope(&resp);
            assert!(!ok);
            assert_eq!(
                err.get("code").and_then(Json::as_str),
                Some("unprocessable")
            );
            assert_eq!(
                err.get("kind").and_then(Json::as_str),
                Some("invalid_parameter"),
                "{bad}"
            );
        }
        // 409 while another session holds the process-global profiler.
        {
            let _busy = prof::start(prof::SampleConfig::default()).expect("session starts");
            let resp = router.dispatch(&get("/v1/debug/profile", Some("seconds=0.05")));
            assert_eq!(resp.status, 409);
            let (ok, err) = open_envelope(&resp);
            assert!(!ok);
            assert_eq!(err.get("code").and_then(Json::as_str), Some("conflict"));
            assert_eq!(
                err.get("kind").and_then(Json::as_str),
                Some("profile_in_progress")
            );
        }
        // Happy path: folded is plain text with `path count` lines
        // (possibly empty when dispatched without a serving thread);
        // json is an enveloped profile document.
        let resp = router.dispatch(&get("/v1/debug/profile", Some("seconds=0.05")));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; charset=utf-8");
        let body = String::from_utf8(resp.body).unwrap();
        for line in body.lines() {
            let (path, count) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!path.is_empty());
            count.parse::<u64>().expect("folded count");
        }
        let resp = router.dispatch(&get("/v1/debug/profile", Some("seconds=0.05&format=json")));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert!(data.get("samples_total").and_then(Json::as_f64).is_some());
        assert!(data.get("alloc_bytes").and_then(Json::as_f64).is_some());
        assert!(data.get("stacks").is_some());
    }

    #[test]
    fn debug_requests_lists_and_fetches_flight_records() {
        use gables_serve::FlightRecord;
        let state = state();
        for i in 0..3 {
            state.flight.record(FlightRecord {
                seq: 0,
                id: format!("req-{i}"),
                method: "POST".into(),
                route: "/v1/eval".into(),
                status: 200,
                ts_unix_us: 1_700_000_000_000_000 + i,
                latency_us: 100 + i,
                cache_hit: Some(i == 2),
                allocs: 12,
                alloc_bytes: 4096,
                cpu_busy_us: 120.0,
                spans: vec![gables_model::obs::SpanRecord {
                    name: "server.request".into(),
                    trace_id: 7,
                    span_id: 9,
                    parent_id: 0,
                    start_us: 0.0,
                    dur_us: 120.0,
                }],
                spans_dropped: 0,
            });
        }
        let router = build_router_with(&state);

        let resp = router.dispatch(&get("/v1/debug/requests", Some("n=2")));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert_eq!(data.get("recorded_total").and_then(Json::as_f64), Some(3.0));
        assert_eq!(data.get("count").and_then(Json::as_f64), Some(2.0));
        let reqs = data.get("requests").unwrap().as_array().unwrap();
        assert_eq!(reqs[0].get("id").and_then(Json::as_str), Some("req-2"));
        assert_eq!(reqs[0].get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(
            reqs[0].get("span_summary").and_then(Json::as_str),
            Some("server.request")
        );
        assert!(reqs[0].get("spans").is_none(), "list view omits full spans");

        let resp = router.dispatch(&get("/v1/debug/requests", Some("id=req-1")));
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert_eq!(data.get("latency_us").and_then(Json::as_f64), Some(101.0));
        assert_eq!(data.get("spans").unwrap().as_array().unwrap().len(), 1);

        let resp = router.dispatch(&get("/v1/debug/requests", Some("id=req-1&format=trace")));
        assert_eq!(resp.status, 200);
        let trace = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(!trace
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());

        let resp = router.dispatch(&get("/v1/debug/requests", Some("id=req-1&format=text")));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("server.request"), "{text}");

        let resp = router.dispatch(&get("/v1/debug/requests", Some("id=ghost")));
        assert_eq!(resp.status, 404);
        for bad in ["n=0", "n=1.5", "n=nan", "n=100000"] {
            let resp = router.dispatch(&get("/v1/debug/requests", Some(bad)));
            assert_eq!(resp.status, 400, "{bad}");
        }
    }

    #[test]
    fn post_responses_carry_the_cache_outcome_header() {
        let router = router();
        let first = router.dispatch(&post("/v1/eval", None, FIGURE_6B_SPEC));
        assert_eq!(header(&first, "X-Cache"), Some("miss"));
        let second = router.dispatch(&post("/v1/eval", None, FIGURE_6B_SPEC));
        assert_eq!(header(&second, "X-Cache"), Some("hit"));
        let bad = router.dispatch(&post("/v1/eval", None, "not a spec"));
        assert_eq!(
            header(&bad, "X-Cache"),
            None,
            "parse failures have no outcome"
        );
    }

    #[test]
    fn metrics_endpoint_reports_both_formats() {
        let metrics = Arc::new(ServerMetrics::new());
        let router = build_router(Arc::clone(&metrics), Arc::new(ShardedCache::new(4, 32)));
        let resp = router.dispatch(&get("/v1/metrics", None));
        assert_eq!(resp.status, 200);
        let (ok, data) = open_envelope(&resp);
        assert!(ok);
        assert!(data.get("requests_total").is_some() || data.as_object().is_some());
        let resp = router.dispatch(&get("/v1/metrics", Some("format=text")));
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("gables-serve metrics"));
    }
}
