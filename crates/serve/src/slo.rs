//! The serving tier's SLO engine: per-route streaming quantile
//! sketches, windowed error rates, SLO specs with error-budget burn
//! rates, and the mergeable snapshot the `/v1/slo` endpoint speaks.
//!
//! Every handled request lands in a [`SloRegistry`]: a cumulative
//! [`QuantileSketch`] plus a rolling [`WindowRing`] per route, guarded
//! by a label-cardinality fence. It is the server's only per-request
//! latency and route recorder; `/v1/metrics` derives its views from the
//! cumulative sketches. A
//! [`SloSnapshot`] carries the sketches themselves (integer state, not
//! derived quantiles), so a replica router can merge shard snapshots
//! *exactly* — the merged fleet sketch is bit-identical to one sketch
//! fed the union stream — and only then derive quantiles and burn
//! rates at the fleet level.
//!
//! Burn rate follows the standard error-budget convention: an SLO
//! `err < 0.1%` grants a budget of 0.1% failed requests; a window
//! burning at rate 1.0 consumes exactly its budget, and rate 14.4 on
//! the 1-hour window is the classic "page now" threshold. Latency
//! objectives (`p99 < 2ms`) budget the violating fraction: 1% of
//! requests may exceed the threshold, and the burn rate is the
//! observed violating fraction over that 1%. Only 5xx statuses burn
//! the error budget — 4xx are the client's fault.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use gables_model::json::Json;
use gables_model::sketch::{QuantileSketch, WindowRing, WindowStats, WINDOWS_SECS};

use crate::metrics::{escape_label, fenced_entry, MAX_ROUTE_LABELS};

/// The quantiles every SLO surface reports, as (label, q) pairs.
pub const REPORT_QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];

/// Relative accuracy of all serving-tier sketches: 1%.
pub const SLO_ALPHA_PPM: u32 = 10_000;

/// Wall-clock seconds since the Unix epoch, the time base of every
/// [`WindowRing`] in the registry.
pub fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Wall-clock microseconds since the Unix epoch — the timestamp
/// stamped onto flight records so a fleet view can interleave them.
pub fn unix_now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Per-route tracking state: lifetime sketch plus the windowed ring.
#[derive(Debug)]
struct RouteTrack {
    cumulative: QuantileSketch,
    ring: WindowRing,
    errors: u64,
}

impl Default for RouteTrack {
    fn default() -> Self {
        RouteTrack {
            cumulative: QuantileSketch::new(SLO_ALPHA_PPM),
            ring: WindowRing::new(SLO_ALPHA_PPM),
            errors: 0,
        }
    }
}

/// Streaming per-route SLO state, updated once per handled request.
///
/// Beyond [`MAX_ROUTE_LABELS`] distinct routes, new labels fold into
/// `"(other)"` so hostile paths cannot grow the map unboundedly.
#[derive(Debug, Default)]
pub struct SloRegistry {
    routes: Mutex<BTreeMap<String, RouteTrack>>,
}

impl SloRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request at an explicit wall time (seconds
    /// since the Unix epoch). Only 5xx statuses count as errors. The
    /// route label is copied only on that route's first request.
    pub fn record_at(&self, now_secs: u64, route: &str, status: u16, latency_us: u64) {
        let is_error = status >= 500;
        let mut routes = self.routes.lock().expect("slo route map poisoned");
        let track = fenced_entry(&mut routes, route, MAX_ROUTE_LABELS);
        track.cumulative.record(latency_us);
        track.ring.record(now_secs, latency_us, is_error);
        if is_error {
            track.errors += 1;
        }
    }

    /// Records one handled request at the current wall time.
    pub fn record(&self, route: &str, status: u16, latency_us: u64) {
        self.record_at(unix_now_secs(), route, status, latency_us);
    }

    /// A mergeable point-in-time snapshot: cumulative sketch plus the
    /// trailing 1m/5m/1h windows, per route, evaluated at `now_secs`.
    pub fn snapshot_at(&self, now_secs: u64) -> SloSnapshot {
        let routes = self.routes.lock().expect("slo route map poisoned");
        SloSnapshot {
            alpha_ppm: SLO_ALPHA_PPM,
            routes: routes
                .iter()
                .map(|(route, track)| {
                    (
                        route.clone(),
                        RouteSlo {
                            cumulative: track.cumulative.clone(),
                            errors: track.errors,
                            total: track.cumulative.count(),
                            windows: WINDOWS_SECS
                                .iter()
                                .map(|&w| track.ring.window(now_secs, w))
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// A snapshot at the current wall time.
    pub fn snapshot(&self) -> SloSnapshot {
        self.snapshot_at(unix_now_secs())
    }

    /// Visits each route's lifetime sketch in route order, under the
    /// registry's lock and without copying a sketch.
    pub(crate) fn for_each_lifetime(&self, mut visit: impl FnMut(&str, &QuantileSketch)) {
        let routes = self.routes.lock().expect("slo route map poisoned");
        for (route, track) in routes.iter() {
            visit(route, &track.cumulative);
        }
    }
}

/// One route's share of a [`SloSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteSlo {
    /// Lifetime latency sketch for the route.
    pub cumulative: QuantileSketch,
    /// Lifetime 5xx count.
    pub errors: u64,
    /// Lifetime handled count.
    pub total: u64,
    /// Trailing windows, one per [`WINDOWS_SECS`] entry, in order.
    pub windows: Vec<WindowStats>,
}

/// A point-in-time, *mergeable* copy of the registry: sketches travel
/// as integer state, so shard snapshots merge exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSnapshot {
    /// Relative accuracy shared by every embedded sketch.
    pub alpha_ppm: u32,
    /// Per-route state, sorted by route label.
    pub routes: Vec<(String, RouteSlo)>,
}

impl SloSnapshot {
    /// An empty snapshot (what a shard with no traffic reports).
    pub fn empty() -> Self {
        SloSnapshot {
            alpha_ppm: SLO_ALPHA_PPM,
            routes: Vec::new(),
        }
    }

    /// Merges another snapshot into this one: sketches bucket-wise
    /// (exact), counters additively, windows paired positionally
    /// (both sides carry [`WINDOWS_SECS`] in order). Returns `false`
    /// on accuracy mismatch, leaving `self` unchanged.
    #[must_use = "a false return means the snapshots were incompatible"]
    pub fn merge(&mut self, other: &SloSnapshot) -> bool {
        if self.alpha_ppm != other.alpha_ppm {
            return false;
        }
        let mut routes: BTreeMap<String, RouteSlo> = self.routes.drain(..).collect();
        for (route, theirs) in &other.routes {
            match routes.get_mut(route) {
                None => {
                    routes.insert(route.clone(), theirs.clone());
                }
                Some(ours) => {
                    if !ours.cumulative.merge(&theirs.cumulative) {
                        return false;
                    }
                    ours.errors += theirs.errors;
                    ours.total += theirs.total;
                    for (mine, their) in ours.windows.iter_mut().zip(&theirs.windows) {
                        if !mine.sketch.merge(&their.sketch) {
                            return false;
                        }
                        mine.errors += their.errors;
                        mine.total += their.total;
                    }
                }
            }
        }
        self.routes = routes.into_iter().collect();
        true
    }

    /// Serializes the mergeable core: route sketches and counters,
    /// every field integral so the round trip is exact.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"alpha_ppm\":{},\"routes\":{{", self.alpha_ppm);
        for (i, (route, slo)) in self.routes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"total\":{},\"errors\":{},\"cumulative\":{},\"windows\":[",
                Json::str(route.as_str()),
                slo.total,
                slo.errors,
                slo.cumulative.to_json()
            );
            for (j, window) in slo.windows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"secs\":{},\"total\":{},\"errors\":{},\"sketch\":{}}}",
                    window.window_secs,
                    window.total,
                    window.errors,
                    window.sketch.to_json()
                );
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Decodes a snapshot out of [`to_json`](Self::to_json) output or
    /// any larger document embedding the same `alpha_ppm`/`routes`
    /// shape (the `/v1/slo` body qualifies — derived fields are
    /// ignored). `None` on any shape violation.
    pub fn from_json(doc: &Json) -> Option<SloSnapshot> {
        let alpha_ppm = doc.get("alpha_ppm")?.as_f64()? as u32;
        let mut routes = Vec::new();
        for (route, entry) in doc.get("routes")?.as_object()? {
            let int = |key: &str| -> Option<u64> {
                let x = entry.get(key)?.as_f64()?;
                (x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
            };
            let mut windows = Vec::new();
            for w in entry.get("windows")?.as_array()? {
                windows.push(WindowStats {
                    window_secs: w.get("secs")?.as_f64()? as u64,
                    total: w.get("total")?.as_f64()? as u64,
                    errors: w.get("errors")?.as_f64()? as u64,
                    sketch: QuantileSketch::from_json(w.get("sketch")?)?,
                });
            }
            routes.push((
                route.clone(),
                RouteSlo {
                    cumulative: QuantileSketch::from_json(entry.get("cumulative")?)?,
                    errors: int("errors")?,
                    total: int("total")?,
                    windows,
                },
            ));
        }
        routes.sort_by(|a, b| a.0.cmp(&b.0));
        Some(SloSnapshot { alpha_ppm, routes })
    }

    /// Parses a snapshot from JSON text.
    pub fn parse(text: &str) -> Option<SloSnapshot> {
        SloSnapshot::from_json(&Json::parse(text).ok()?)
    }
}

/// One objective inside an SLO spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Objective {
    /// `pQ < threshold`: at most `100 − Q`% of requests may exceed
    /// the threshold. `quantile_pct` ∈ {50, 90, 99}.
    Latency {
        /// The quantile, as a percentage (50, 90, or 99).
        quantile_pct: u8,
        /// The latency threshold in microseconds.
        threshold_us: u64,
    },
    /// `err < budget`: at most `budget_ppm` parts per million of
    /// requests may fail with a 5xx.
    ErrorRate {
        /// The error budget in parts per million (0.1% = 1000 ppm).
        budget_ppm: u64,
    },
}

impl Objective {
    /// The canonical clause text (`p99<2ms`, `err<0.1%`).
    pub fn label(&self) -> String {
        match self {
            Objective::Latency {
                quantile_pct,
                threshold_us,
            } => format!("p{quantile_pct}<{}", format_us(*threshold_us)),
            Objective::ErrorRate { budget_ppm } => {
                format!("err<{}%", trim_decimal(*budget_ppm as f64 / 10_000.0))
            }
        }
    }

    /// The violating fraction's budget in `[0, 1]`: `1 − Q/100` for a
    /// latency objective, `budget_ppm / 1e6` for an error objective.
    pub fn budget(&self) -> f64 {
        match self {
            Objective::Latency { quantile_pct, .. } => 1.0 - f64::from(*quantile_pct) / 100.0,
            Objective::ErrorRate { budget_ppm } => *budget_ppm as f64 / 1e6,
        }
    }

    /// The observed violating fraction in a window.
    pub fn violation_rate(&self, window: &WindowStats) -> f64 {
        if window.total == 0 {
            return 0.0;
        }
        match self {
            Objective::Latency { threshold_us, .. } => {
                window.sketch.count_above(*threshold_us) as f64 / window.total as f64
            }
            Objective::ErrorRate { .. } => window.error_rate(),
        }
    }

    /// Error-budget burn rate in a window: violating fraction over
    /// budget. 1.0 burns exactly the budget; > 1.0 is out of SLO.
    pub fn burn_rate(&self, window: &WindowStats) -> f64 {
        let budget = self.budget();
        if budget <= 0.0 {
            return 0.0;
        }
        self.violation_rate(window) / budget
    }
}

/// One parsed `--slo` definition: a route and its objectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSpec {
    /// The route label the objectives apply to (e.g. `/v1/eval`).
    pub route: String,
    /// The objectives, in spec order.
    pub objectives: Vec<Objective>,
}

impl SloSpec {
    /// Parses `route=/v1/eval p99<2ms err<0.1%`: whitespace-separated
    /// clauses, exactly one `route=`, at least one objective. Latency
    /// thresholds take `us`/`ms`/`s` suffixes; error budgets are
    /// percentages.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let mut route = None;
        let mut objectives = Vec::new();
        for clause in text.split_whitespace() {
            if let Some(path) = clause.strip_prefix("route=") {
                if route.replace(path.to_string()).is_some() {
                    return Err(format!("duplicate route= clause in SLO '{text}'"));
                }
            } else if let Some(budget) = clause.strip_prefix("err<") {
                let pct = budget
                    .strip_suffix('%')
                    .ok_or_else(|| format!("error budget '{clause}' must end in %"))?;
                let pct: f64 = pct
                    .parse()
                    .map_err(|_| format!("unparsable error budget '{clause}'"))?;
                if !(0.0..=100.0).contains(&pct) || pct <= 0.0 {
                    return Err(format!("error budget '{clause}' must be in (0, 100]%"));
                }
                objectives.push(Objective::ErrorRate {
                    budget_ppm: (pct * 10_000.0).round() as u64,
                });
            } else if let Some(rest) = clause.strip_prefix('p') {
                let (quantile, threshold) = rest
                    .split_once('<')
                    .ok_or_else(|| format!("objective '{clause}' must be pQ<THRESHOLD"))?;
                let quantile_pct: u8 = quantile
                    .parse()
                    .map_err(|_| format!("unparsable quantile in '{clause}'"))?;
                if ![50, 90, 99].contains(&quantile_pct) {
                    return Err(format!(
                        "quantile p{quantile_pct} unsupported; use p50, p90, or p99"
                    ));
                }
                objectives.push(Objective::Latency {
                    quantile_pct,
                    threshold_us: parse_duration_us(threshold)
                        .ok_or_else(|| format!("unparsable threshold in '{clause}'"))?,
                });
            } else {
                return Err(format!("unrecognized SLO clause '{clause}'"));
            }
        }
        let route = route.ok_or_else(|| format!("SLO '{text}' is missing route="))?;
        if objectives.is_empty() {
            return Err(format!("SLO '{text}' has no objectives"));
        }
        Ok(SloSpec { route, objectives })
    }
}

/// Parses `2ms`, `1500us`, `0.5s` into whole microseconds.
fn parse_duration_us(text: &str) -> Option<u64> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("us") {
        (d, 1.0)
    } else if let Some(d) = text.strip_suffix("ms") {
        (d, 1_000.0)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1_000_000.0)
    } else {
        return None;
    };
    let value: f64 = digits.parse().ok()?;
    (value > 0.0 && value.is_finite()).then(|| (value * scale).round() as u64)
}

/// Formats whole microseconds back into the tersest of `us`/`ms`/`s`.
fn format_us(us: u64) -> String {
    if us >= 1_000_000 && us.is_multiple_of(1_000) {
        format!("{}s", trim_decimal(us as f64 / 1e6))
    } else if us >= 1_000 {
        format!("{}ms", trim_decimal(us as f64 / 1e3))
    } else {
        format!("{us}us")
    }
}

/// `2` for 2.0, `0.1` for 0.1 — drops a trailing `.0`.
fn trim_decimal(x: f64) -> String {
    let text = format!("{x}");
    text.strip_suffix(".0").unwrap_or(&text).to_string()
}

/// Renders the full `/v1/slo` JSON data object: the mergeable core
/// (`alpha_ppm` + `routes` with embedded sketches) plus derived
/// quantiles per window and the burn-rate evaluation of `specs`.
/// `shards` reports how many sources the snapshot aggregates (1 for a
/// single process).
pub fn render_slo_json(snapshot: &SloSnapshot, specs: &[SloSpec], shards: usize) -> String {
    let mut out = String::with_capacity(1024);
    let core = snapshot.to_json();
    // Splice the derived sections into the core object: drop the
    // closing brace and append.
    out.push_str(&core[..core.len() - 1]);
    let _ = write!(out, ",\"shards\":{shards},\"windows_secs\":[");
    for (i, w) in WINDOWS_SECS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{w}");
    }
    out.push_str("],\"quantiles\":{");
    for (i, (route, slo)) in snapshot.routes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{{\"cumulative\":", Json::str(route.as_str()));
        write_quantiles(&mut out, &slo.cumulative);
        out.push_str(",\"windows\":[");
        for (j, window) in slo.windows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"secs\":{},\"total\":{},\"errors\":{},\"error_rate\":{},\"latency\":",
                window.window_secs,
                window.total,
                window.errors,
                Json::num(window.error_rate())
            );
            write_quantiles(&mut out, &window.sketch);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("},\"slos\":[");
    let mut first = true;
    for spec in specs {
        let slo = snapshot.routes.iter().find(|(r, _)| r == &spec.route);
        for objective in &spec.objectives {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"route\":{},\"objective\":{},\"budget\":{},\"windows\":[",
                Json::str(spec.route.as_str()),
                Json::str(objective.label().as_str()),
                Json::num(objective.budget())
            );
            for (j, &window_secs) in WINDOWS_SECS.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let empty = WindowStats {
                    window_secs,
                    sketch: QuantileSketch::new(snapshot.alpha_ppm),
                    errors: 0,
                    total: 0,
                };
                let window = slo.map(|(_, s)| &s.windows[j]).unwrap_or(&empty);
                let burn = objective.burn_rate(window);
                let _ = write!(
                    out,
                    "{{\"secs\":{},\"violation_rate\":{},\"burn_rate\":{},\"ok\":{}}}",
                    window_secs,
                    Json::num(objective.violation_rate(window)),
                    Json::num(burn),
                    burn <= 1.0
                );
            }
            out.push_str("]}");
        }
    }
    out.push_str("]}");
    out
}

/// Appends `{"count":N,"mean_us":m,"p50_us":...,"p90_us":...,"p99_us":...,"max_us":M}`.
fn write_quantiles(out: &mut String, sketch: &QuantileSketch) {
    let mean = if sketch.count() == 0 {
        0.0
    } else {
        sketch.sum_us() as f64 / sketch.count() as f64
    };
    let _ = write!(
        out,
        "{{\"count\":{},\"mean_us\":{}",
        sketch.count(),
        Json::num(mean)
    );
    for (label, q) in REPORT_QUANTILES {
        let _ = write!(
            out,
            ",\"{label}_us\":{}",
            Json::num(sketch.quantile(q).unwrap_or(0.0))
        );
    }
    let _ = write!(out, ",\"max_us\":{}}}", sketch.max_us().unwrap_or(0));
}

/// Renders the `/v1/slo?format=prom` view: per-route/window quantile
/// series plus `gables_slo_*` burn-rate and compliance gauges.
pub fn render_slo_prometheus(snapshot: &SloSnapshot, specs: &[SloSpec], shards: usize) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(concat!(
        "# HELP gables_slo_shards Shards aggregated into this SLO view.\n",
        "# TYPE gables_slo_shards gauge\n",
    ));
    let _ = writeln!(out, "gables_slo_shards {shards}");
    out.push_str(concat!(
        "# HELP gables_route_latency_quantile_seconds Windowed latency quantiles per route, from the merged sketch.\n",
        "# TYPE gables_route_latency_quantile_seconds gauge\n",
    ));
    for (route, slo) in &snapshot.routes {
        for window in &slo.windows {
            for (label, q) in REPORT_QUANTILES {
                let _ = label;
                let _ = writeln!(
                    out,
                    "gables_route_latency_quantile_seconds{{route=\"{}\",window=\"{}\",quantile=\"{}\"}} {}",
                    escape_label(route),
                    window_label(window.window_secs),
                    q,
                    Json::num(window.sketch.quantile(q).unwrap_or(0.0) / 1e6)
                );
            }
        }
    }
    out.push_str(concat!(
        "# HELP gables_route_error_rate Windowed 5xx error rate per route.\n",
        "# TYPE gables_route_error_rate gauge\n",
    ));
    for (route, slo) in &snapshot.routes {
        for window in &slo.windows {
            let _ = writeln!(
                out,
                "gables_route_error_rate{{route=\"{}\",window=\"{}\"}} {}",
                escape_label(route),
                window_label(window.window_secs),
                Json::num(window.error_rate())
            );
        }
    }
    out.push_str(concat!(
        "# HELP gables_slo_burn_rate Error-budget burn rate per objective and window (1.0 = burning exactly the budget).\n",
        "# TYPE gables_slo_burn_rate gauge\n",
    ));
    let mut ok_lines = String::new();
    for spec in specs {
        let slo = snapshot.routes.iter().find(|(r, _)| r == &spec.route);
        for objective in &spec.objectives {
            let mut all_ok = true;
            for (j, &window_secs) in WINDOWS_SECS.iter().enumerate() {
                let empty = WindowStats {
                    window_secs,
                    sketch: QuantileSketch::new(snapshot.alpha_ppm),
                    errors: 0,
                    total: 0,
                };
                let window = slo.map(|(_, s)| &s.windows[j]).unwrap_or(&empty);
                let burn = objective.burn_rate(window);
                all_ok &= burn <= 1.0;
                let _ = writeln!(
                    out,
                    "gables_slo_burn_rate{{route=\"{}\",objective=\"{}\",window=\"{}\"}} {}",
                    escape_label(&spec.route),
                    escape_label(&objective.label()),
                    window_label(window_secs),
                    Json::num(burn)
                );
            }
            let _ = writeln!(
                ok_lines,
                "gables_slo_ok{{route=\"{}\",objective=\"{}\"}} {}",
                escape_label(&spec.route),
                escape_label(&objective.label()),
                u8::from(all_ok)
            );
        }
    }
    out.push_str(concat!(
        "# HELP gables_slo_ok 1 when the objective is within budget on every window.\n",
        "# TYPE gables_slo_ok gauge\n",
    ));
    out.push_str(&ok_lines);
    out
}

/// `60 → "1m"`, `300 → "5m"`, `3600 → "1h"`, anything else in seconds.
fn window_label(secs: u64) -> String {
    match secs {
        60 => "1m".to_string(),
        300 => "5m".to_string(),
        3600 => "1h".to_string(),
        other => format!("{other}s"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_and_snapshots_per_route() {
        let registry = SloRegistry::new();
        let t0 = 1_700_000_000u64;
        registry.record_at(t0, "/v1/eval", 200, 1_000);
        registry.record_at(t0 + 1, "/v1/eval", 500, 9_000);
        registry.record_at(t0 + 2, "/v1/sweep", 200, 2_000);
        let snapshot = registry.snapshot_at(t0 + 2);
        assert_eq!(snapshot.routes.len(), 2);
        let (route, eval) = &snapshot.routes[0];
        assert_eq!(route, "/v1/eval");
        assert_eq!(eval.total, 2);
        assert_eq!(eval.errors, 1, "only 5xx burns budget");
        assert_eq!(eval.windows.len(), WINDOWS_SECS.len());
        assert_eq!(eval.windows[0].total, 2);
        assert_eq!(eval.cumulative.count(), 2);
    }

    #[test]
    fn route_cardinality_is_fenced() {
        let registry = SloRegistry::new();
        for i in 0..(MAX_ROUTE_LABELS + 25) {
            registry.record_at(0, &format!("/hostile/{i}"), 200, 10);
        }
        let snapshot = registry.snapshot_at(0);
        assert!(snapshot.routes.len() <= MAX_ROUTE_LABELS + 1);
        let other = snapshot
            .routes
            .iter()
            .find(|(r, _)| r == "(other)")
            .unwrap();
        assert_eq!(other.1.total, 25);
    }

    #[test]
    fn snapshot_json_round_trips_and_merges_exactly() {
        let a = SloRegistry::new();
        let b = SloRegistry::new();
        let union = SloRegistry::new();
        let t0 = 1_700_000_000u64;
        for i in 0..200u64 {
            let latency = 100 + i * 7;
            let status = if i % 20 == 0 { 500 } else { 200 };
            let route = if i % 3 == 0 { "/v1/eval" } else { "/v1/sweep" };
            union.record_at(t0 + i % 60, route, status, latency);
            if i % 2 == 0 {
                a.record_at(t0 + i % 60, route, status, latency);
            } else {
                b.record_at(t0 + i % 60, route, status, latency);
            }
        }
        let now = t0 + 59;
        let sa = a.snapshot_at(now);
        let sb = b.snapshot_at(now);
        let direct = union.snapshot_at(now);
        // Round trip is exact.
        let parsed = SloSnapshot::parse(&sa.to_json()).expect("round trip");
        assert_eq!(parsed, sa);
        // Merge equals the union registry, sketches bit-identical.
        let mut merged = sa.clone();
        assert!(merged.merge(&sb));
        assert_eq!(merged, direct);
        // And the same through the JSON codec (the fleet path).
        let mut over_wire = SloSnapshot::parse(&sa.to_json()).unwrap();
        assert!(over_wire.merge(&SloSnapshot::parse(&sb.to_json()).unwrap()));
        assert_eq!(over_wire, direct);
        // The rendered /v1/slo body still parses as the mergeable core.
        let body = render_slo_json(&direct, &[], 2);
        let reparsed = SloSnapshot::parse(&body).expect("body embeds the core");
        assert_eq!(reparsed, direct);
    }

    #[test]
    fn slo_spec_grammar_accepts_the_documented_form() {
        let spec = SloSpec::parse("route=/v1/eval p99<2ms err<0.1%").unwrap();
        assert_eq!(spec.route, "/v1/eval");
        assert_eq!(
            spec.objectives,
            vec![
                Objective::Latency {
                    quantile_pct: 99,
                    threshold_us: 2_000
                },
                Objective::ErrorRate { budget_ppm: 1_000 },
            ]
        );
        assert_eq!(spec.objectives[0].label(), "p99<2ms");
        assert_eq!(spec.objectives[1].label(), "err<0.1%");
        let sub = SloSpec::parse("route=/x p50<1500us").unwrap();
        assert_eq!(
            sub.objectives,
            vec![Objective::Latency {
                quantile_pct: 50,
                threshold_us: 1_500
            }]
        );
        let secs = SloSpec::parse("route=/x p90<0.5s").unwrap();
        assert_eq!(
            secs.objectives,
            vec![Objective::Latency {
                quantile_pct: 90,
                threshold_us: 500_000
            }]
        );
    }

    #[test]
    fn slo_spec_grammar_rejects_malformed_input() {
        for bad in [
            "p99<2ms",                   // no route
            "route=/x",                  // no objectives
            "route=/x route=/y p99<2ms", // duplicate route
            "route=/x p75<2ms",          // unsupported quantile
            "route=/x p99<2",            // missing unit
            "route=/x err<0.1",          // missing %
            "route=/x err<0%",           // empty budget
            "route=/x q99<2ms",          // unknown clause
            "route=/x p99<-3ms",         // negative threshold
        ] {
            assert!(SloSpec::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn burn_rates_scale_with_violations() {
        let mut window = WindowStats {
            window_secs: 60,
            sketch: QuantileSketch::new(SLO_ALPHA_PPM),
            errors: 0,
            total: 0,
        };
        // 100 requests at 1ms, 2 at 100ms.
        for _ in 0..100 {
            window.sketch.record(1_000);
        }
        for _ in 0..2 {
            window.sketch.record(100_000);
        }
        window.total = 102;
        window.errors = 2;
        let p99 = Objective::Latency {
            quantile_pct: 99,
            threshold_us: 2_000,
        };
        // ~2% violating over a 1% budget: burning ~2x.
        let burn = p99.burn_rate(&window);
        assert!((1.5..2.5).contains(&burn), "burn {burn}");
        let err = Objective::ErrorRate { budget_ppm: 10_000 }; // 1%
        let burn = err.burn_rate(&window);
        assert!((burn - (2.0 / 102.0) / 0.01).abs() < 1e-9);
        // An empty window burns nothing.
        let empty = WindowStats {
            window_secs: 60,
            sketch: QuantileSketch::new(SLO_ALPHA_PPM),
            errors: 0,
            total: 0,
        };
        assert_eq!(p99.burn_rate(&empty), 0.0);
    }

    #[test]
    fn rendered_views_carry_slo_series() {
        let registry = SloRegistry::new();
        let t0 = 1_700_000_000u64;
        for i in 0..50 {
            registry.record_at(t0, "/v1/eval", if i < 5 { 500 } else { 200 }, 1_000);
        }
        let snapshot = registry.snapshot_at(t0);
        let specs = vec![SloSpec::parse("route=/v1/eval p99<2ms err<1%").unwrap()];
        let json = render_slo_json(&snapshot, &specs, 1);
        let doc = Json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("shards").and_then(Json::as_f64), Some(1.0));
        let slos = doc.get("slos").unwrap().as_array().unwrap();
        assert_eq!(slos.len(), 2, "one entry per objective");
        // err<1% with a 10% observed error rate: burning 10x.
        let err = &slos[1];
        assert_eq!(err.get("objective").and_then(Json::as_str), Some("err<1%"));
        let windows = err.get("windows").unwrap().as_array().unwrap();
        let burn = windows[0].get("burn_rate").and_then(Json::as_f64).unwrap();
        assert!((burn - 10.0).abs() < 1e-9, "burn {burn}");
        assert_eq!(windows[0].get("ok").and_then(Json::as_bool), Some(false));

        let prom = render_slo_prometheus(&snapshot, &specs, 1);
        for line in prom.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "));
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparseable: {line}");
        }
        assert!(prom.contains(
            "gables_slo_burn_rate{route=\"/v1/eval\",objective=\"err<1%\",window=\"1m\"}"
        ));
        assert!(prom.contains("gables_slo_ok{route=\"/v1/eval\",objective=\"err<1%\"} 0"));
        assert!(prom.contains("gables_route_latency_quantile_seconds{route=\"/v1/eval\",window=\"1h\",quantile=\"0.99\"}"));
    }
}
