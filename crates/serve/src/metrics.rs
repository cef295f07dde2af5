//! Serve-side telemetry, designed like the simulator's `Recorder` layer
//! (`gables_soc_sim::telemetry`): the serving loop *hands data out* —
//! request outcomes, latencies, queue rejections — and observation never
//! influences behaviour. Counters are lock-free atomics updated on the
//! worker threads (a handful of relaxed adds per request, the serving
//! analog of the engine's always-on `BottleneckBreakdown` accumulation);
//! [`ServerMetrics::snapshot`] materializes a consistent-enough view for
//! the `/metrics` endpoint, and the snapshot — like the epoch timeline —
//! has JSON and text exporters.
//!
//! A request's latency and route are recorded once, in the per-route
//! sketches of the [`SloRegistry`] behind `/v1/slo`; the route counts,
//! latency sum and log2 histogram (bucket `i` counts requests under
//! `2^i µs`, plus one overflow bucket) are derived from them. Latencies
//! below 64 µs land in their exact bucket; above, one within `2α/(1−α)`
//! (~2% at the sketches' α = 1%) over an edge may land one bucket low.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use gables_model::json::Json;
use gables_model::sketch::QuantileSketch;

use crate::slo::SloRegistry;

/// Number of log2 latency buckets (the last is the overflow bucket).
pub const LATENCY_BUCKETS: usize = 22;

/// Maximum distinct route labels tracked before new ones aggregate under
/// `"(other)"`. The server already folds unknown paths into
/// `"(unmatched)"`, so this is a second fence: even a bug upstream can't
/// let a client grow the route map one label per arbitrary path.
pub const MAX_ROUTE_LABELS: usize = 64;

/// Maximum distinct span-phase labels tracked before new ones aggregate
/// under `"(other)"`. Phase names come from span names (`server.request`,
/// `dispatch /v1/eval`, `parse`, `eval`, `worker`, …), which are
/// low-cardinality by construction; this fence makes that a guarantee.
pub const MAX_PHASE_LABELS: usize = 64;

/// Lock-free request counters shared between the server loop, the
/// handlers (for cache attribution), and the `/metrics` endpoint.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    handled: AtomicU64,
    rejected: AtomicU64,
    in_flight: AtomicU64,
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    // Accumulated span self-time per phase (span name), microseconds.
    phase_self_us: Mutex<BTreeMap<String, u64>>,
    // The one per-request latency and route recorder.
    slo: SloRegistry,
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one fully processed request (any status) with its
    /// observed service latency, in the SLO registry only.
    pub fn record_handled(&self, route: &str, status: u16, latency: Duration) {
        self.handled.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        let latency_us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.slo.record(route, status, latency_us);
    }

    /// Accumulates one request's span *self time* (duration minus direct
    /// children, see [`gables_model::prof::self_times_us`]) under its
    /// phase label — where server-side time actually goes, per span
    /// name, feeding `gables_phase_self_seconds_total`.
    pub fn record_phase_self(&self, phase: &str, self_us: f64) {
        if !self_us.is_finite() || self_us <= 0.0 {
            return;
        }
        let us = self_us.round() as u64;
        let mut phases = self.phase_self_us.lock().expect("phase map poisoned");
        *fenced_entry(&mut phases, phase, MAX_PHASE_LABELS) += us;
    }

    /// The per-route SLO registry fed by [`Self::record_handled`] —
    /// quantile sketches and windowed error rates for `/v1/slo`.
    pub fn slo(&self) -> &SloRegistry {
        &self.slo
    }

    /// Records one connection refused by queue backpressure (503 sent
    /// from the accept loop; not counted as handled).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a caught handler panic (the request was answered with a
    /// structured 500 and the worker survived).
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a request as entering service. Pair with
    /// [`Self::exit_in_flight`].
    pub fn enter_in_flight(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a request as leaving service.
    pub fn exit_in_flight(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a response served from the cache.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a response that had to be computed.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter, the latency views derived
    /// from the SLO registry's lifetime sketches. Individual loads are
    /// relaxed, so a snapshot taken mid-request may be off by the
    /// in-flight request — fine for an operational endpoint.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut latency = vec![0; LATENCY_BUCKETS];
        let mut latency_sum_us = 0;
        let mut routes = Vec::new();
        self.slo.for_each_lifetime(|route, sketch| {
            add_log2_buckets(sketch, &mut latency);
            latency_sum_us += sketch.sum_us();
            routes.push((route.to_string(), sketch.count()));
        });
        MetricsSnapshot {
            handled: self.handled.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            status_2xx: self.status_2xx.load(Ordering::Relaxed),
            status_4xx: self.status_4xx.load(Ordering::Relaxed),
            status_5xx: self.status_5xx.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            latency,
            latency_sum_us,
            routes,
            phase_self_us: self
                .phase_self_us
                .lock()
                .expect("phase map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }
}

/// Adds a sketch into a log2 histogram: the count below edge `2^i` µs is
/// all but [`QuantileSketch::count_above`]`(2^i − 1)`, so a value sharing
/// a sketch bucket with `2^i − 1` counts as below the edge.
fn add_log2_buckets(sketch: &QuantileSketch, buckets: &mut [u64]) {
    let mut below_prev = 0;
    for (i, bucket) in buckets.iter_mut().take(LATENCY_BUCKETS - 1).enumerate() {
        let below = sketch.count() - sketch.count_above((1 << i) - 1);
        *bucket += below - below_prev;
        below_prev = below;
    }
    buckets[LATENCY_BUCKETS - 1] += sketch.count() - below_prev;
}

/// The entry for `label` in a map fenced at `cap` labels (beyond it, new
/// labels share `"(other)"`), copying the label only on its first use.
pub(crate) fn fenced_entry<'m, V: Default>(
    map: &'m mut BTreeMap<String, V>,
    label: &str,
    cap: usize,
) -> &'m mut V {
    let label = if map.len() < cap || map.contains_key(label) {
        label
    } else {
        "(other)"
    };
    if !map.contains_key(label) {
        map.insert(label.to_string(), V::default());
    }
    map.get_mut(label).expect("label inserted above")
}

/// A point-in-time copy of [`ServerMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests fully processed (any status), excluding rejections.
    pub handled: u64,
    /// Connections refused by queue backpressure (503 at accept).
    pub rejected: u64,
    /// Requests currently in service.
    pub in_flight: u64,
    /// Responses with a 2xx status.
    pub status_2xx: u64,
    /// Responses with a 4xx status.
    pub status_4xx: u64,
    /// Responses with a 5xx status (handled, not accept-loop 503s).
    pub status_5xx: u64,
    /// Handler panics caught and answered with a structured 500.
    pub panics: u64,
    /// Responses served from the cache.
    pub cache_hits: u64,
    /// Responses computed on a cache miss.
    pub cache_misses: u64,
    /// Log2 latency histogram counts (see [`LATENCY_BUCKETS`]).
    pub latency: Vec<u64>,
    /// Sum of all observed service latencies, in microseconds.
    pub latency_sum_us: u64,
    /// Per-route handled counts, sorted by route.
    pub routes: Vec<(String, u64)>,
    /// Accumulated span self-time per phase (span name), microseconds,
    /// sorted by phase.
    pub phase_self_us: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Cache hits over cache-eligible requests, 0 when none were seen.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The human label of one latency bucket (`"<1us"`, `"<2us"`, …,
    /// `">=1.0s"` for the overflow bucket).
    pub fn bucket_label(i: usize) -> String {
        let (prefix, micros) = if i + 1 >= LATENCY_BUCKETS {
            (">=", 1u64 << (LATENCY_BUCKETS - 2))
        } else {
            ("<", 1u64 << i)
        };
        if micros >= 1_000_000 {
            format!("{prefix}{:.1}s", micros as f64 / 1e6)
        } else if micros >= 1_000 {
            format!("{prefix}{:.0}ms", micros as f64 / 1e3)
        } else {
            format!("{prefix}{micros}us")
        }
    }

    /// Serializes the snapshot as the `/metrics` JSON document.
    pub fn to_json(&self) -> String {
        let latency = Json::Array(
            self.latency
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    Json::Object(vec![
                        ("bucket".into(), Json::str(Self::bucket_label(i))),
                        ("count".into(), Json::num(n as f64)),
                    ])
                })
                .collect(),
        );
        let routes = Json::Object(
            self.routes
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                .collect(),
        );
        Json::Object(vec![
            ("handled".into(), Json::num(self.handled as f64)),
            ("rejected".into(), Json::num(self.rejected as f64)),
            ("in_flight".into(), Json::num(self.in_flight as f64)),
            ("status_2xx".into(), Json::num(self.status_2xx as f64)),
            ("status_4xx".into(), Json::num(self.status_4xx as f64)),
            ("status_5xx".into(), Json::num(self.status_5xx as f64)),
            ("panics".into(), Json::num(self.panics as f64)),
            ("cache_hits".into(), Json::num(self.cache_hits as f64)),
            ("cache_misses".into(), Json::num(self.cache_misses as f64)),
            ("cache_hit_rate".into(), Json::num(self.cache_hit_rate())),
            (
                "latency_sum_us".into(),
                Json::num(self.latency_sum_us as f64),
            ),
            ("latency_us_log2".into(), latency),
            ("routes".into(), routes),
            (
                "phase_self_us".into(),
                Json::Object(
                    self.phase_self_us
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Parses a snapshot back out of the `/metrics` JSON document
    /// ([`Self::to_json`]'s output) — how a replica router reads each
    /// shard's counters before aggregating them. Returns `None` when
    /// the document is not a metrics snapshot. The derived
    /// `cache_hit_rate` field is ignored; it is recomputed from the
    /// parsed counters.
    pub fn from_json(text: &str) -> Option<Self> {
        let doc = Json::parse(text).ok()?;
        let num =
            |key: &str| -> Option<u64> { doc.get(key).and_then(Json::as_f64).map(|v| v as u64) };
        let latency: Vec<u64> = doc
            .get("latency_us_log2")?
            .as_array()?
            .iter()
            .map(|b| b.get("count").and_then(Json::as_f64).unwrap_or(0.0) as u64)
            .collect();
        if latency.len() != LATENCY_BUCKETS {
            return None;
        }
        let pairs = |key: &str| -> Option<Vec<(String, u64)>> {
            Some(
                doc.get(key)?
                    .as_object()?
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0) as u64))
                    .collect(),
            )
        };
        Some(Self {
            handled: num("handled")?,
            rejected: num("rejected")?,
            in_flight: num("in_flight")?,
            status_2xx: num("status_2xx")?,
            status_4xx: num("status_4xx")?,
            status_5xx: num("status_5xx")?,
            panics: num("panics")?,
            cache_hits: num("cache_hits")?,
            cache_misses: num("cache_misses")?,
            latency,
            latency_sum_us: num("latency_sum_us")?,
            routes: pairs("routes")?,
            phase_self_us: pairs("phase_self_us")?,
        })
    }

    /// Adds another snapshot's counters into this one (histogram
    /// buckets bucket-wise, route and phase maps key-wise) — the
    /// aggregation a replica router applies across its shards.
    pub fn merge(&mut self, other: &Self) {
        self.handled += other.handled;
        self.rejected += other.rejected;
        self.in_flight += other.in_flight;
        self.status_2xx += other.status_2xx;
        self.status_4xx += other.status_4xx;
        self.status_5xx += other.status_5xx;
        self.panics += other.panics;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.latency_sum_us += other.latency_sum_us;
        self.latency.resize(LATENCY_BUCKETS, 0);
        for (i, n) in other.latency.iter().enumerate().take(LATENCY_BUCKETS) {
            self.latency[i] += n;
        }
        let mut routes: BTreeMap<String, u64> = self.routes.drain(..).collect();
        for (route, n) in &other.routes {
            *routes.entry(route.clone()).or_insert(0) += n;
        }
        self.routes = routes.into_iter().collect();
        let mut phases: BTreeMap<String, u64> = self.phase_self_us.drain(..).collect();
        for (phase, us) in &other.phase_self_us {
            *phases.entry(phase.clone()).or_insert(0) += us;
        }
        self.phase_self_us = phases.into_iter().collect();
    }

    /// Renders the snapshot as a human-readable text page with an ASCII
    /// latency histogram (the `/metrics?format=text` view).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("=== gables-serve metrics ===\n");
        out.push_str(&format!("handled        {}\n", self.handled));
        out.push_str(&format!("rejected (503) {}\n", self.rejected));
        out.push_str(&format!("in flight      {}\n", self.in_flight));
        out.push_str(&format!(
            "status         2xx {}  4xx {}  5xx {}\n",
            self.status_2xx, self.status_4xx, self.status_5xx
        ));
        out.push_str(&format!("caught panics  {}\n", self.panics));
        out.push_str(&format!(
            "cache          {} hits / {} misses ({:.1}% hit rate)\n",
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0
        ));
        out.push_str("\nper-route handled counts:\n");
        if self.routes.is_empty() {
            out.push_str("  (none)\n");
        }
        for (route, count) in &self.routes {
            out.push_str(&format!("  {route:<12} {count}\n"));
        }
        out.push_str("\nservice latency (log2 buckets):\n");
        // Trim trailing all-zero buckets so the histogram stays compact,
        // but keep at least one row.
        let last_used = self
            .latency
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        let bins: Vec<(String, u64)> = self
            .latency
            .iter()
            .take(last_used.max(1))
            .enumerate()
            .map(|(i, &n)| (Self::bucket_label(i), n))
            .collect();
        out.push_str(&gables_plot::render_histogram(&bins, 48));
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (the `/v1/metrics?format=prom` view).
    ///
    /// The log2 latency histogram becomes a native Prometheus histogram:
    /// internal bucket `i` holds requests in `[2^(i-1), 2^i) µs`, so the
    /// cumulative `le="2^i µs in seconds"` series is the prefix sum, the
    /// overflow bucket folds into `le="+Inf"`, and `_count` equals the
    /// total handled. `uptime_seconds` and `build_info` come from the
    /// caller because a snapshot has no clock or version of its own.
    pub fn to_prometheus(&self, uptime_seconds: f64, version: &str) -> String {
        let mut out = String::with_capacity(2048);
        self.to_prometheus_into(&mut out, uptime_seconds, version);
        out
    }

    /// Renders the Prometheus exposition into a caller-provided buffer
    /// without allocating: every label and value is written straight
    /// into `out` (integer and float `Display` format on the stack),
    /// so a scrape that reuses its buffer does zero heap work. The
    /// allocation budget is asserted by `tests/alloc_budget.rs`.
    pub fn to_prometheus_into(&self, out: &mut String, uptime_seconds: f64, version: &str) {
        use std::fmt::Write as _;
        let header = |out: &mut String, name: &str, kind: &str, help: &str| {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(help);
            out.push_str("\n# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
        };
        header(
            out,
            "gables_requests_handled_total",
            "counter",
            "Requests fully processed (any status), excluding rejections.",
        );
        let _ = writeln!(out, "gables_requests_handled_total {}", self.handled);
        header(
            out,
            "gables_requests_rejected_total",
            "counter",
            "Connections refused by queue backpressure (503 at accept).",
        );
        let _ = writeln!(out, "gables_requests_rejected_total {}", self.rejected);
        header(
            out,
            "gables_requests_in_flight",
            "gauge",
            "Requests currently in service.",
        );
        let _ = writeln!(out, "gables_requests_in_flight {}", self.in_flight);
        header(
            out,
            "gables_responses_total",
            "counter",
            "Responses by status class.",
        );
        let _ = writeln!(
            out,
            "gables_responses_total{{class=\"2xx\"}} {}",
            self.status_2xx
        );
        let _ = writeln!(
            out,
            "gables_responses_total{{class=\"4xx\"}} {}",
            self.status_4xx
        );
        let _ = writeln!(
            out,
            "gables_responses_total{{class=\"5xx\"}} {}",
            self.status_5xx
        );
        header(
            out,
            "gables_handler_panics_total",
            "counter",
            "Handler panics caught and answered with a structured 500.",
        );
        let _ = writeln!(out, "gables_handler_panics_total {}", self.panics);
        header(
            out,
            "gables_cache_requests_total",
            "counter",
            "Cache-eligible requests by outcome.",
        );
        let _ = writeln!(
            out,
            "gables_cache_requests_total{{result=\"hit\"}} {}",
            self.cache_hits
        );
        let _ = writeln!(
            out,
            "gables_cache_requests_total{{result=\"miss\"}} {}",
            self.cache_misses
        );
        header(
            out,
            "gables_route_requests_total",
            "counter",
            "Handled requests by route.",
        );
        for (route, n) in &self.routes {
            out.push_str("gables_route_requests_total{route=\"");
            push_escaped_label(out, route);
            let _ = writeln!(out, "\"}} {n}");
        }
        header(
            out,
            "gables_phase_self_seconds_total",
            "counter",
            "Span self-time accumulated per phase (span name).",
        );
        for (phase, us) in &self.phase_self_us {
            out.push_str("gables_phase_self_seconds_total{phase=\"");
            push_escaped_label(out, phase);
            let _ = writeln!(out, "\"}} {}", *us as f64 / 1e6);
        }

        // Histogram: cumulative buckets in seconds, +Inf = total.
        header(
            out,
            "gables_request_latency_seconds",
            "histogram",
            "Service latency of handled requests.",
        );
        let mut cumulative = 0u64;
        for (i, count) in self.latency.iter().enumerate().take(LATENCY_BUCKETS - 1) {
            cumulative += count;
            let _ = writeln!(
                out,
                "gables_request_latency_seconds_bucket{{le=\"{}\"}} {cumulative}",
                (1u64 << i) as f64 / 1e6,
            );
        }
        let total: u64 = self.latency.iter().sum();
        let _ = writeln!(
            out,
            "gables_request_latency_seconds_bucket{{le=\"+Inf\"}} {total}"
        );
        let _ = writeln!(
            out,
            "gables_request_latency_seconds_sum {}",
            self.latency_sum_us as f64 / 1e6
        );
        let _ = writeln!(out, "gables_request_latency_seconds_count {total}");

        header(
            out,
            "gables_uptime_seconds",
            "gauge",
            "Seconds since the server started.",
        );
        let _ = writeln!(
            out,
            "gables_uptime_seconds {}",
            if uptime_seconds.is_finite() {
                uptime_seconds.max(0.0)
            } else {
                0.0
            }
        );
        header(
            out,
            "gables_build_info",
            "gauge",
            "Build metadata; the value is always 1.",
        );
        out.push_str("gables_build_info{version=\"");
        push_escaped_label(out, version);
        out.push_str("\"} 1\n");
    }
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline must be backslash-escaped per the text exposition format.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    push_escaped_label(&mut out, value);
    out
}

/// Appends an escaped Prometheus label value into `out` — the
/// allocation-free form [`escape_label`] wraps, used on the scrape
/// path.
pub fn push_escaped_label(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handled_requests_update_every_counter_family() {
        let m = ServerMetrics::new();
        m.record_handled("/eval", 200, Duration::from_micros(3));
        m.record_handled("/eval", 400, Duration::from_micros(900));
        m.record_handled("/metrics", 200, Duration::from_millis(5));
        m.record_rejected();
        let s = m.snapshot();
        assert_eq!(s.handled, 3);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.status_2xx, 2);
        assert_eq!(s.status_4xx, 1);
        assert_eq!(s.status_5xx, 0);
        assert_eq!(s.routes, vec![("/eval".into(), 2), ("/metrics".into(), 1)]);
        assert_eq!(s.latency.iter().sum::<u64>(), 3);
    }

    #[test]
    fn latency_buckets_are_log2_with_overflow() {
        // < 1µs lands in bucket 0, exactly 1µs in bucket 1 (an edge
        // belongs to the bucket above it), 3µs in bucket 2 (< 4µs), and
        // an absurd latency in the overflow bucket.
        let m = ServerMetrics::new();
        for ns in [10, 1_000, 3_000, 3_600_000_000_000] {
            m.record_handled("/a", 200, Duration::from_nanos(ns));
        }
        let mut want = vec![0; LATENCY_BUCKETS];
        for i in [0, 1, 2, LATENCY_BUCKETS - 1] {
            want[i] = 1;
        }
        assert_eq!(m.snapshot().latency, want);
    }

    #[test]
    fn derived_histogram_is_exact_in_totals_low_only_near_edges_and_merges() {
        // Seeded latencies across every bucket — log-uniform from under
        // 1 µs to past the overflow edge, plus each edge, its neighbours
        // and a point 2% above it — over three routes and two shards.
        let mut rng = gables_model::rng::SplitMix64::new(0x1062_B0C4);
        let mut latencies: Vec<u64> = (0..5_000)
            .map(|_| 2f64.powf(rng.range_f64(-1.0, 22.0)) as u64)
            .collect();
        for edge in (0..LATENCY_BUCKETS).map(|i| 1u64 << i) {
            latencies.extend([edge - 1, edge, edge + 1, edge + edge / 50]);
        }
        let exact_bucket = |us: u64| {
            (0..LATENCY_BUCKETS - 1)
                .find(|&i| us < 1 << i)
                .unwrap_or(LATENCY_BUCKETS - 1)
        };
        let (a, b, union) = (
            ServerMetrics::new(),
            ServerMetrics::new(),
            ServerMetrics::new(),
        );
        let mut exact = [0u64; LATENCY_BUCKETS];
        let mut routes = BTreeMap::new();
        for (i, &us) in latencies.iter().enumerate() {
            let route = ["/v1/eval", "/v1/carm", "(unmatched)"][rng.range_usize(0, 2)];
            for m in [if i % 2 == 0 { &a } else { &b }, &union] {
                m.record_handled(route, 200, Duration::from_micros(us));
            }
            exact[exact_bucket(us)] += 1;
            *routes.entry(route.to_string()).or_insert(0) += 1;
        }
        let s = union.snapshot();
        // `+Inf` and `_count` render the bucket total and `_sum` the
        // latency sum: exact, like the per-route counts.
        assert_eq!(s.latency.iter().sum::<u64>(), latencies.len() as u64);
        assert_eq!(s.latency_sum_us, latencies.iter().sum::<u64>());
        assert_eq!(s.routes, routes.into_iter().collect::<Vec<_>>());

        // A latency lands in its own bucket or, only from 64 µs up and
        // within γ = (1+α)/(1−α) ≈ 1 + 2α above the edge it missed, one
        // bucket low. The snapshot sums these placements, so buckets
        // with edges below 64 µs are exact.
        let alpha = f64::from(crate::slo::SLO_ALPHA_PPM) / 1e6;
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        let mut placed = vec![0u64; LATENCY_BUCKETS];
        for &us in &latencies {
            let mut one = QuantileSketch::new(crate::slo::SLO_ALPHA_PPM);
            one.record(us);
            let mut buckets = [0; LATENCY_BUCKETS];
            add_log2_buckets(&one, &mut buckets);
            let got = buckets.iter().position(|&n| n == 1).expect("one bucket");
            let low_near_edge = got + 1 == exact_bucket(us)
                && us >= 64
                && (us as f64) < (1u64 << got) as f64 * gamma;
            assert!(got == exact_bucket(us) || low_near_edge, "{us} µs in {got}");
            placed[got] += 1;
        }
        assert_eq!(s.latency, placed);
        assert_ne!(
            s.latency, exact,
            "the stream crosses edges inside sketch buckets"
        );
        assert_eq!(s.latency[..6], exact[..6]);

        // The shards' derived snapshots, merged over the JSON codec as a
        // replica parent does, equal the union's.
        let parse = |m: &ServerMetrics| MetricsSnapshot::from_json(&m.snapshot().to_json());
        let mut merged = parse(&a).unwrap();
        merged.merge(&parse(&b).unwrap());
        assert_eq!(merged, s);
    }

    #[test]
    fn in_flight_gauge_tracks_enter_exit() {
        let m = ServerMetrics::new();
        m.enter_in_flight();
        m.enter_in_flight();
        assert_eq!(m.snapshot().in_flight, 2);
        m.exit_in_flight();
        assert_eq!(m.snapshot().in_flight, 1);
    }

    #[test]
    fn cache_hit_rate_is_guarded_against_divide_by_zero() {
        let m = ServerMetrics::new();
        assert_eq!(m.snapshot().cache_hit_rate(), 0.0);
        m.record_cache_hit();
        m.record_cache_hit();
        m.record_cache_miss();
        let rate = m.snapshot().cache_hit_rate();
        assert!((rate - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_export_parses_and_reconciles() {
        use gables_model::json::Json;
        let m = ServerMetrics::new();
        m.record_handled("/eval", 200, Duration::from_micros(10));
        m.record_cache_miss();
        let doc = Json::parse(&m.snapshot().to_json()).unwrap();
        assert_eq!(doc.get("handled").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("cache_misses").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("routes")
                .unwrap()
                .get("/eval")
                .and_then(Json::as_f64),
            Some(1.0)
        );
        let hist = doc.get("latency_us_log2").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), LATENCY_BUCKETS);
        let total: f64 = hist
            .iter()
            .map(|b| b.get("count").and_then(Json::as_f64).unwrap())
            .sum();
        assert_eq!(total, 1.0);
    }

    #[test]
    fn text_export_contains_histogram_and_counters() {
        let m = ServerMetrics::new();
        m.record_handled("/eval", 200, Duration::from_micros(100));
        let text = m.snapshot().to_text();
        assert!(text.contains("gables-serve metrics"));
        assert!(text.contains("handled        1"));
        assert!(text.contains("/eval"));
        assert!(text.contains('#'), "histogram bar expected:\n{text}");
        assert!(text.contains("<128us"));
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let m = ServerMetrics::new();
        m.record_handled("/v1/eval", 200, Duration::from_micros(3));
        m.record_handled("/v1/eval", 200, Duration::from_micros(700));
        m.record_handled("(unmatched)", 404, Duration::from_micros(40));
        m.record_cache_hit();
        m.record_cache_miss();
        let prom = m.snapshot().to_prometheus(12.5, "0.1.0");

        // Every non-comment line is `name{labels} value`.
        for line in prom.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        }
        assert!(prom.contains("gables_requests_handled_total 3\n"));
        assert!(prom.contains("gables_responses_total{class=\"2xx\"} 2\n"));
        assert!(prom.contains("gables_route_requests_total{route=\"/v1/eval\"} 2\n"));
        assert!(prom.contains("gables_route_requests_total{route=\"(unmatched)\"} 1\n"));
        assert!(prom.contains("gables_cache_requests_total{result=\"hit\"} 1\n"));
        assert!(prom.contains("gables_uptime_seconds 12.5\n"));
        assert!(prom.contains("gables_build_info{version=\"0.1.0\"} 1\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf_equal_to_handled() {
        let m = ServerMetrics::new();
        m.record_handled("/a", 200, Duration::from_micros(1)); // bucket 1
        m.record_handled("/a", 200, Duration::from_micros(3)); // bucket 2
        m.record_handled("/a", 200, Duration::from_secs(3600)); // overflow
        let s = m.snapshot();
        let prom = s.to_prometheus(0.0, "test");
        let buckets: Vec<(String, u64)> = prom
            .lines()
            .filter_map(|l| l.strip_prefix("gables_request_latency_seconds_bucket{le=\""))
            .map(|rest| {
                let (le, tail) = rest.split_once("\"} ").unwrap();
                (le.to_string(), tail.parse::<u64>().unwrap())
            })
            .collect();
        assert_eq!(buckets.len(), LATENCY_BUCKETS, "one per finite le + +Inf");
        assert_eq!(buckets.last().unwrap().0, "+Inf");
        assert_eq!(buckets.last().unwrap().1, s.handled);
        for pair in buckets.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "buckets must be monotone: {pair:?}");
        }
        // The 3600s observation is only in +Inf, not the last finite le.
        assert_eq!(buckets[LATENCY_BUCKETS - 2].1, 2);
        assert!(prom.contains(&format!(
            "gables_request_latency_seconds_count {}\n",
            s.handled
        )));
        let sum_line = prom
            .lines()
            .find(|l| l.starts_with("gables_request_latency_seconds_sum "))
            .unwrap();
        let sum: f64 = sum_line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!((sum - s.latency_sum_us as f64 / 1e6).abs() < 1e-9);
        assert!(sum > 3600.0, "the one-hour observation dominates the sum");
    }

    #[test]
    fn phase_self_time_accumulates_and_exports() {
        let m = ServerMetrics::new();
        m.record_phase_self("eval", 100.0);
        m.record_phase_self("eval", 50.4);
        m.record_phase_self("server.request", 10.0);
        m.record_phase_self("ignored", f64::NAN);
        m.record_phase_self("ignored", -5.0);
        let s = m.snapshot();
        assert_eq!(
            s.phase_self_us,
            vec![("eval".into(), 150), ("server.request".into(), 10)]
        );
        let prom = s.to_prometheus(0.0, "test");
        assert!(prom.contains("gables_phase_self_seconds_total{phase=\"eval\"} 0.00015\n"));
        assert!(prom.contains("# TYPE gables_phase_self_seconds_total counter"));
        let json = gables_model::json::Json::parse(&s.to_json()).unwrap();
        assert_eq!(
            json.get("phase_self_us")
                .unwrap()
                .get("eval")
                .and_then(gables_model::json::Json::as_f64),
            Some(150.0)
        );
        // Cardinality fence: hostile phase names fold into "(other)".
        for i in 0..(MAX_PHASE_LABELS + 10) {
            m.record_phase_self(&format!("hostile{i}"), 1.0);
        }
        let capped = m.snapshot();
        assert!(capped.phase_self_us.len() <= MAX_PHASE_LABELS + 1);
        assert!(capped.phase_self_us.iter().any(|(p, _)| p == "(other)"));
    }

    #[test]
    fn snapshot_json_round_trips_and_merges() {
        let a = ServerMetrics::new();
        a.record_handled("/v1/eval", 200, Duration::from_micros(10));
        a.record_handled("/v1/eval", 400, Duration::from_micros(100));
        a.record_cache_hit();
        a.record_phase_self("eval", 40.0);
        let b = ServerMetrics::new();
        b.record_handled("/v1/eval", 200, Duration::from_micros(20));
        b.record_handled("/v1/sweep", 200, Duration::from_micros(30));
        b.record_rejected();
        b.record_cache_miss();
        b.record_phase_self("eval", 10.0);
        b.record_phase_self("sweep", 5.0);

        // Round trip: to_json → from_json is lossless.
        let sa = a.snapshot();
        let parsed = MetricsSnapshot::from_json(&sa.to_json()).unwrap();
        assert_eq!(parsed, sa);
        assert!(MetricsSnapshot::from_json("{\"not\": \"metrics\"}").is_none());
        assert!(MetricsSnapshot::from_json("garbage").is_none());

        // Merge: every counter family is additive.
        let mut merged = sa.clone();
        merged.merge(&b.snapshot());
        assert_eq!(merged.handled, 4);
        assert_eq!(merged.rejected, 1);
        assert_eq!(merged.status_2xx, 3);
        assert_eq!(merged.status_4xx, 1);
        assert_eq!(merged.cache_hits, 1);
        assert_eq!(merged.cache_misses, 1);
        assert_eq!(merged.latency.iter().sum::<u64>(), 4);
        assert_eq!(merged.latency_sum_us, 160);
        assert_eq!(
            merged.routes,
            vec![("/v1/eval".into(), 3), ("/v1/sweep".into(), 1)]
        );
        assert_eq!(
            merged.phase_self_us,
            vec![("eval".into(), 50), ("sweep".into(), 5)]
        );
    }

    /// A randomized snapshot drawn from a seeded SplitMix64: counters,
    /// a full histogram, and route/phase maps over a shared label pool
    /// (so two snapshots overlap on some labels and differ on others).
    fn random_label_pairs(
        rng: &mut gables_model::rng::SplitMix64,
        max: usize,
    ) -> Vec<(String, u64)> {
        const LABEL_POOL: [&str; 6] = [
            "/v1/eval",
            "/v1/sweep",
            "/v1/metrics",
            "/v1/carm",
            "(unmatched)",
            "(other)",
        ];
        let mut map = BTreeMap::new();
        for _ in 0..rng.range_usize(0, max) {
            let label = LABEL_POOL[rng.range_usize(0, LABEL_POOL.len() - 1)];
            *map.entry(label.to_string()).or_insert(0) += rng.range_u64(1, 1000);
        }
        map.into_iter().collect()
    }

    fn random_snapshot(rng: &mut gables_model::rng::SplitMix64) -> MetricsSnapshot {
        MetricsSnapshot {
            handled: rng.range_u64(0, 10_000),
            rejected: rng.range_u64(0, 100),
            in_flight: rng.range_u64(0, 8),
            status_2xx: rng.range_u64(0, 10_000),
            status_4xx: rng.range_u64(0, 1_000),
            status_5xx: rng.range_u64(0, 100),
            panics: rng.range_u64(0, 10),
            cache_hits: rng.range_u64(0, 5_000),
            cache_misses: rng.range_u64(0, 5_000),
            latency: (0..LATENCY_BUCKETS)
                .map(|_| rng.range_u64(0, 500))
                .collect(),
            latency_sum_us: rng.range_u64(0, 1 << 40),
            routes: random_label_pairs(rng, 8),
            phase_self_us: random_label_pairs(rng, 8),
        }
    }

    #[test]
    fn merge_is_commutative_and_associative_on_random_snapshots() {
        let mut rng = gables_model::rng::SplitMix64::new(0x5EED_0E7A);
        for _ in 0..64 {
            let a = random_snapshot(&mut rng);
            let b = random_snapshot(&mut rng);
            let c = random_snapshot(&mut rng);
            // Commutativity: a ⊕ b == b ⊕ a.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative");
            // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
            let mut left = ab.clone();
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "merge must be associative");
            // The identity: merging an all-zero snapshot changes nothing.
            let zero = MetricsSnapshot::from_json(&ServerMetrics::new().snapshot().to_json())
                .expect("zero snapshot");
            let mut with_zero = a.clone();
            with_zero.merge(&zero);
            assert_eq!(with_zero, a, "the empty snapshot is the identity");
        }
    }

    #[test]
    fn merge_adds_disjoint_and_overlapping_maps_keywise() {
        let mut a = MetricsSnapshot::from_json(&ServerMetrics::new().snapshot().to_json()).unwrap();
        a.routes = vec![("/v1/eval".into(), 3), ("/v1/sweep".into(), 5)];
        a.phase_self_us = vec![("eval".into(), 100)];
        let mut b = a.clone();
        // Overlap on /v1/eval and eval; disjoint on the rest.
        b.routes = vec![("/v1/eval".into(), 7), ("/v1/whatif".into(), 2)];
        b.phase_self_us = vec![("eval".into(), 50), ("parse".into(), 9)];
        a.merge(&b);
        assert_eq!(
            a.routes,
            vec![
                ("/v1/eval".into(), 10),
                ("/v1/sweep".into(), 5),
                ("/v1/whatif".into(), 2),
            ],
            "overlapping keys add, disjoint keys union, output stays sorted"
        );
        assert_eq!(
            a.phase_self_us,
            vec![("eval".into(), 150), ("parse".into(), 9)]
        );
    }

    #[test]
    fn merge_adds_histograms_bucket_wise_on_random_snapshots() {
        let mut rng = gables_model::rng::SplitMix64::new(0xB0C4E7);
        for _ in 0..32 {
            let a = random_snapshot(&mut rng);
            let b = random_snapshot(&mut rng);
            let mut merged = a.clone();
            merged.merge(&b);
            assert_eq!(merged.latency.len(), LATENCY_BUCKETS);
            for i in 0..LATENCY_BUCKETS {
                assert_eq!(
                    merged.latency[i],
                    a.latency[i] + b.latency[i],
                    "bucket {i} must add exactly"
                );
            }
            assert_eq!(merged.latency_sum_us, a.latency_sum_us + b.latency_sum_us);
            assert_eq!(merged.handled, a.handled + b.handled);
            assert_eq!(merged.cache_hits, a.cache_hits + b.cache_hits);
        }
    }

    #[test]
    fn prometheus_label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        let m = ServerMetrics::new();
        m.record_handled("/x\"y", 200, Duration::from_micros(1));
        let prom = m.snapshot().to_prometheus(0.0, "v\"1");
        assert!(prom.contains("gables_route_requests_total{route=\"/x\\\"y\"} 1\n"));
        assert!(prom.contains("gables_build_info{version=\"v\\\"1\"} 1\n"));
    }

    #[test]
    fn route_labels_are_bounded_against_cardinality_abuse() {
        let m = ServerMetrics::new();
        for i in 0..(MAX_ROUTE_LABELS + 50) {
            m.record_handled(&format!("/hostile/{i}"), 404, Duration::from_micros(1));
        }
        // A known route keeps counting even after the cap.
        m.record_handled("/hostile/0", 404, Duration::from_micros(1));
        let s = m.snapshot();
        assert!(s.routes.len() <= MAX_ROUTE_LABELS + 1, "{}", s.routes.len());
        let other = s.routes.iter().find(|(r, _)| r == "(other)").unwrap().1;
        assert_eq!(other, 50);
        let known = s.routes.iter().find(|(r, _)| r == "/hostile/0").unwrap().1;
        assert_eq!(known, 2);
        assert_eq!(s.handled, (MAX_ROUTE_LABELS + 51) as u64);
    }

    #[test]
    fn bucket_labels_scale_units() {
        assert_eq!(MetricsSnapshot::bucket_label(0), "<1us");
        assert_eq!(MetricsSnapshot::bucket_label(10), "<1ms");
        assert_eq!(MetricsSnapshot::bucket_label(20), "<1.0s");
        assert_eq!(MetricsSnapshot::bucket_label(LATENCY_BUCKETS - 1), ">=1.0s");
    }
}
