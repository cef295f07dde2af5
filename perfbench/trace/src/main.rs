//! Traced in-process replay of the benchmark pools.
//!
//! ```text
//! perfbench-trace --workload <name> --seed <n> --seconds <s> --spans <file>
//! ```
//!
//! For each item of the workload's pool it calls, in the server's
//! pipeline order, the public function of each layer and wraps the call
//! in a span (name, start, end, parent, item):
//!
//! * `item`: `serve.http.parse` (`parse_request_bytes`) →
//!   `cli.serve.dispatch` (`Router::dispatch` on a `build_router_with`
//!   router) → `serve.metrics.record` (`ServerMetrics::record_handled`) →
//!   `serve.flight.record` (`FlightRecorder::record`) →
//!   `serve.http.serialize` (`Response::serialize_into`);
//! * `route`: what the dispatch does inside, replayed from public calls:
//!   `model.json.parse` (batch bodies), then per spec `cli.spec.parse`,
//!   `cli.fleet.shard_for`, `serve.cache.get`, the CARM calls
//!   (`cli.carm.report`, `cli.carm.render`, `sim.ladder`), `cli.eval.render`,
//!   `model.evaluate` and `serve.cache.insert`.
//!
//! Layers the workload's specs cannot feed are measured on a small
//! companion sample from the same seed: the CARM calls on two `carm`
//! specs, and `model.json.parse` on the workload's own specs in batch form
//! once per 64 items. Spans are kept in memory and written to `--spans`
//! (JSON lines) when the run ends. Traced and untraced blocks alternate,
//! and their per-item medians give the tracing overhead. The last line
//! of stdout is one JSON object of per-call medians.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gables_cli::carm::{carm_report, render_text};
use gables_cli::eval_command;
use gables_cli::serve::{build_router_with, HashRing, ServeState};
use gables_cli::spec::Spec;
use gables_model::json::Json;
use gables_model::{evaluate, Parallelism};
use gables_serve::{
    parse_request_bytes, FlightRecord, FlightRecorder, Router, ServerMetrics, ShardedCache,
};
use gables_soc_sim::{measure_bandwidth_ladder, HierarchyConfig};
use perfbench_pool::{batch_body, Pool, Workload, BATCH_ITEMS};

/// Per-rung accesses and seed of the `/v1/carm` route's ladder.
const LADDER_ACCESSES: u64 = 20_000;
const LADDER_SEED: u64 = 0xCAB1E;
/// CARM specs replayed for the CARM layers on the other workloads.
const CARM_COMPANIONS: usize = 3;
/// Items per traced or untraced block.
const BLOCK: usize = 16;
/// Spans written to the span file: whole items, from the first, until
/// this many are written.
const SPAN_FILE_SPANS: usize = 20_000;
/// Most items replayed in one run, to bound memory.
const MAX_ITEMS: u32 = 40_000;

/// One finished span. `parent` is the index of the parent span in the
/// run's span list, or `None` for an item's root span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    item: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder; when off it only runs the calls.
struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, item: u32, parent: Option<u32>) -> Option<u32> {
        if !self.on {
            return None;
        }
        // Push first, so a growth of the span list is not timed.
        self.spans.push(Span {
            name,
            item,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        let i = self.spans.len() - 1;
        self.spans[i].start_ns = self.now();
        Some(i as u32)
    }

    fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            let end = self.now();
            self.spans[i as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    fn time<R>(
        &mut self,
        name: &'static str,
        item: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, item, parent);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut spans) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--spans" => spans = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload needs a known workload")?,
        seed: seed.ok_or("--seed needs a number")?,
        seconds: seconds.ok_or("--seconds needs a number")?,
        spans: spans.ok_or("--spans is required")?,
    })
}

/// Everything one replay shares across items.
struct Replay {
    pool: Pool,
    requests: Vec<Vec<u8>>,
    /// The workload's specs in batch form, 64 per body, for
    /// `model.json.parse` on workloads that send no batches.
    batch_forms: Vec<String>,
    router: Router,
    metrics: Arc<ServerMetrics>,
    flight: Arc<FlightRecorder>,
    /// The route layer's cache, replayed: lookups, then inserts.
    cache: ShardedCache,
    ring: HashRing,
    out: Vec<u8>,
    failed: u64,
}

impl Replay {
    fn new(pool: Pool) -> Replay {
        let metrics = Arc::new(ServerMetrics::new());
        let flight = Arc::new(FlightRecorder::new(64));
        let state = ServeState::new(
            Arc::clone(&metrics),
            Arc::new(ShardedCache::new(8, 128)),
            Arc::clone(&flight),
            2,
        );
        let requests = (0..pool.requests()).map(|i| pool.http_request(i)).collect();
        let batch_forms = pool
            .specs
            .chunks(BATCH_ITEMS)
            .map(|c| String::from_utf8(batch_body(c)).expect("batch bodies are UTF-8"))
            .collect();
        Replay {
            router: build_router_with(&state),
            metrics,
            flight,
            cache: ShardedCache::new(8, 128),
            ring: HashRing::new(2),
            requests,
            batch_forms,
            pool,
            out: Vec::with_capacity(1 << 16),
            failed: 0,
        }
    }

    /// The server's per-request pipeline for request `r`.
    fn serve(&mut self, t: &mut Tracer, item: u32, r: usize) {
        let root = t.open("item", item, None);
        let parsed = t.time("serve.http.parse", item, root, || {
            parse_request_bytes(&self.requests[r])
        });
        let Ok(Some(parsed)) = parsed else {
            self.failed += 1;
            t.close(root);
            return;
        };
        let req = parsed.request;
        let started = Instant::now();
        let router = &self.router;
        let response = t.time("cli.serve.dispatch", item, root, || router.dispatch(&req));
        let id = format!("{:016x}", u64::from(item));
        let response = response.with_header("X-Request-Id", id.as_str());
        let latency = started.elapsed();
        let status = response.status;
        let metrics = &self.metrics;
        t.time("serve.metrics.record", item, root, || {
            metrics.record_handled(&req.path, status, latency)
        });
        let record = FlightRecord {
            seq: 0,
            id,
            method: req.method.clone(),
            route: req.path.clone(),
            status,
            ts_unix_us: 0,
            latency_us: latency.as_micros() as u64,
            cache_hit: None,
            allocs: 0,
            alloc_bytes: 0,
            cpu_busy_us: 0.0,
            spans: Vec::new(),
            spans_dropped: 0,
        };
        let flight = &self.flight;
        t.time("serve.flight.record", item, root, || flight.record(record));
        let out = &mut self.out;
        out.clear();
        t.time("serve.http.serialize", item, root, || {
            response.serialize_into(true, out)
        });
        if status != 200 || !response.body.starts_with(b"{\"ok\":true,") {
            self.failed += 1;
        }
        t.close(root);
    }

    /// The dispatch's inner calls for request `r`, replayed from public
    /// functions in the route's order.
    fn route(&mut self, t: &mut Tracer, item: u32, r: usize) {
        let root = t.open("route", item, None);
        if self.pool.items_per_request > 1 {
            let body = std::str::from_utf8(&self.pool.bodies[r]).expect("bodies are UTF-8");
            t.time("model.json.parse", item, root, || Json::parse(body).is_ok());
        } else if r.is_multiple_of(BATCH_ITEMS) {
            let body = &self.batch_forms[r / BATCH_ITEMS];
            t.time("model.json.parse", item, root, || Json::parse(body).is_ok());
        }
        let n = self.pool.items_per_request;
        for k in r * n..(r + 1) * n {
            let text = &self.pool.specs[k];
            let Ok(spec) = t.time("cli.spec.parse", item, root, || {
                Spec::parse(text).inspect(|s| {
                    std::hint::black_box(s.canonical_key());
                })
            }) else {
                self.failed += 1;
                continue;
            };
            let key = format!("/v1/eval||json|{}", spec.canonical_key());
            let ring = &self.ring;
            t.time("cli.fleet.shard_for", item, root, || {
                ring.shard_for(spec.canonical_key())
            });
            let cache = &self.cache;
            t.time("serve.cache.get", item, root, || cache.get(&key));
            if let Some(hierarchy) = spec.cache_hierarchy().ok().flatten() {
                carm_calls(t, item, root, text, &hierarchy);
            }
            let output = t.time("cli.eval.render", item, root, || eval_command(text));
            let (Ok(soc), Ok(workload), Ok(output)) = (spec.soc(), spec.workload(), output) else {
                self.failed += 1;
                continue;
            };
            t.time("model.evaluate", item, root, || {
                evaluate(&soc, &workload).is_ok()
            });
            t.time("serve.cache.insert", item, root, || {
                cache.insert(key, output)
            });
        }
        t.close(root);
    }
}

/// The CARM route's work for one spec: the full report, its text
/// rendering, and the bandwidth ladder alone.
fn carm_calls(
    t: &mut Tracer,
    item: u32,
    root: Option<u32>,
    text: &str,
    hierarchy: &HierarchyConfig,
) {
    if let Ok(report) = t.time("cli.carm.report", item, root, || {
        carm_report(text, Parallelism::Serial)
    }) {
        t.time("cli.carm.render", item, root, || render_text(&report));
    }
    t.time("sim.ladder", item, root, || {
        measure_bandwidth_ladder(hierarchy, LADDER_ACCESSES, LADDER_SEED, Parallelism::Serial)
            .is_ok()
    });
}

/// Simulated accesses of one ladder, computed from the hierarchy: each
/// rung's sequential warm-up over its working set plus its probes.
fn ladder_accesses(h: &HierarchyConfig) -> u64 {
    let line = h.levels[0].geometry.line_bytes;
    let cap = |k: usize| h.levels[k].geometry.capacity_bytes;
    let rungs = h.levels.len() + 1;
    (0..rungs)
        .map(|k| {
            let ws = if k == 0 {
                cap(0) / 2
            } else if k < h.levels.len() {
                cap(k - 1) + (cap(k) - cap(k - 1)) / 2
            } else {
                cap(h.levels.len() - 1) * 4
            };
            (ws.max(2 * line) / line).max(1) + LADDER_ACCESSES
        })
        .sum()
}

fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (values.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The mean of the middle half of `values`: the timer floor, kept with
/// its fractional digits.
fn middle_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let middle = &values[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let pool = Pool::build(w, args.seed);
    let carm_pool = Pool::build(Workload::Carm, args.seed);
    let mut replay = Replay::new(pool);
    let mut t = Tracer {
        epoch: Instant::now(),
        on: true,
        spans: Vec::new(),
    };

    // The timer's own cost, from empty spans, subtracted from every
    // per-call median below.
    for _ in 0..2_000 {
        t.time("timer.floor", 0, None, || ());
    }

    // eval_hot and fleet_eval are all cache hits after warm-up: prime
    // the router's cache and the replayed route cache.
    if matches!(w, Workload::EvalHot | Workload::FleetEval) {
        t.on = false;
        for r in 0..replay.requests.len() {
            replay.serve(&mut t, 0, r);
            replay.route(&mut t, 0, r);
        }
        t.on = true;
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // CARM layers on the workloads whose specs have no hierarchy.
    let hierarchy = Spec::parse(&carm_pool.specs[0])
        .ok()
        .and_then(|s| s.cache_hierarchy().ok().flatten())
        .expect("carm specs carry a hierarchy");
    if w != Workload::Carm {
        for (k, text) in carm_pool.specs.iter().take(CARM_COMPANIONS).enumerate() {
            let item = u32::MAX - k as u32;
            let root = t.open("carm.companion", item, None);
            carm_calls(&mut t, item, root, text, &hierarchy);
            t.close(root);
        }
    }

    let start =
        (perfbench_pool::Rng::new(args.seed, 9).next_u64() % replay.requests.len() as u64) as usize;
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut item = 0u32;
    let mut attempted = 0u64;
    'run: while Instant::now() < deadline && item < MAX_ITEMS {
        for on in [true, false] {
            t.on = on;
            for _ in 0..BLOCK {
                let r = (start + item as usize) % replay.requests.len();
                let began = Instant::now();
                replay.serve(&mut t, item, r);
                replay.route(&mut t, item, r);
                let ns = began.elapsed().as_nanos() as f64;
                if on { &mut traced_ns } else { &mut untraced_ns }.push(ns);
                attempted += replay.pool.items_per_request as u64;
                item += 1;
                if Instant::now() >= deadline {
                    break 'run;
                }
            }
        }
    }
    t.on = false;

    // Self time per span: its duration minus its children's.
    let mut child_ns = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, s) in t.spans.iter().enumerate() {
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        by_name.entry(s.name).or_default().push(self_ns as f64);
    }
    let floor = middle_mean(by_name.get_mut("timer.floor").expect("floor spans"));

    // Spans of the first traced items, written out now the run is over.
    if let Ok(file) = std::fs::File::create(&args.spans) {
        let mut file = std::io::BufWriter::new(file);
        let mut written = 0;
        let mut last_item = None;
        for (i, s) in t.spans.iter().enumerate() {
            if s.name == "timer.floor" {
                continue;
            }
            if written >= SPAN_FILE_SPANS && last_item != Some(s.item) {
                break;
            }
            written += 1;
            last_item = Some(s.item);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                file,
                "{{\"span\":{i},\"parent\":{parent},\"item\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.item, s.name, s.start_ns, s.end_ns
            );
        }
        if file.flush().is_err() {
            eprintln!("perfbench-trace: could not write {}", args.spans.display());
        }
    }

    let per_item = replay.pool.items_per_request as f64;
    let mut metrics: Vec<(String, f64)> = Vec::new();
    println!(
        "workload {} seed {}: {item} traced+untraced requests, timer floor {floor:.1} ns",
        w.name(),
        args.seed
    );
    println!(
        "{:<22} {:>8} {:>14} {:>10}",
        "span", "calls", "median self", "IQR/med"
    );
    for (name, values) in by_name.iter_mut() {
        if *name == "timer.floor" {
            continue;
        }
        let (q1, q2, q3) = quartiles(values);
        let med = q2 - floor;
        println!(
            "{name:<22} {:>8} {:>11.1} ns {:>10.3}",
            values.len(),
            med,
            (q3 - q1) / q2
        );
        let (key, value) = match *name {
            "cli.serve.dispatch" => ("cli.serve.dispatch_us", med / 1e3),
            "model.json.parse" if replay.pool.items_per_request > 1 => {
                ("model.json.parse_us", med / 1e3 / per_item)
            }
            "model.json.parse" => ("model.json.parse_us", med / 1e3 / BATCH_ITEMS as f64),
            "cli.carm.report" => ("cli.carm.report_ms", med / 1e6),
            "cli.carm.render" => ("cli.carm.render_ms", med / 1e6),
            "sim.ladder" => ("sim.ladder_ms", med / 1e6),
            "serve.http.parse" => ("serve.http.parse_ns", med),
            "serve.http.serialize" => ("serve.http.serialize_ns", med),
            "serve.metrics.record" => ("serve.metrics.record_ns", med),
            "serve.flight.record" => ("serve.flight.record_ns", med),
            "serve.cache.get" => ("serve.cache.get_ns", med),
            "serve.cache.insert" => ("serve.cache.insert_ns", med),
            "cli.spec.parse" => ("cli.spec.parse_ns", med),
            "cli.eval.render" => ("cli.eval.render_ns", med),
            "model.evaluate" => ("model.evaluate_ns", med),
            "cli.fleet.shard_for" => ("cli.fleet.shard_for_ns", med),
            _ => continue,
        };
        metrics.push((key.to_string(), value));
    }
    let accesses = ladder_accesses(&hierarchy) as f64;
    metrics.push(("sim.accesses_per_item".into(), accesses));
    if let Some(&(_, ladder_ms)) = metrics.iter().find(|(k, _)| k == "sim.ladder_ms") {
        metrics.push(("sim.ns_per_access".into(), ladder_ms * 1e6 / accesses));
    }
    let traced = quartiles(&mut traced_ns).1;
    let untraced = quartiles(&mut untraced_ns).1;
    metrics.push((
        "trace.overhead_pct".into(),
        (traced / untraced - 1.0) * 100.0,
    ));
    println!(
        "per-item replay: traced {:.1} us, untraced {:.1} us; {} failed",
        traced / 1e3,
        untraced / 1e3,
        replay.failed
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"attempted\":{attempted},\"failed\":{},{}}}",
        replay.failed,
        fields.join(",")
    );
}
