//! Closed-loop load generator and checker for `gables serve`.
//!
//! ```text
//! perfbench-load --gables <binary> --workload <name> --seed <n>
//!                --seconds <s> --mode e2e|layers --work-dir <dir>
//! ```
//!
//! It starts the release `gables` binary as a separate server process
//! (`--workers 2`, `GABLES_THREADS=1`, stderr discarded), validates every
//! pool entry against the CLI path, then drives one cycle per second of
//! two closed-loop slices from this one thread:
//!
//! * saturated: 2 keep-alive connections with up to 4 pipelined requests
//!   each, giving `items_per_s` and `server_cpu_us_per_item`;
//! * single: 1 connection with 1 request in flight, giving
//!   `latency_p50_us`.
//!
//! Each cycle places the server's threads and this thread on one CPU,
//! taking the allowed CPUs in turn (see [`place`]).
//!
//! Every timed response is compared with its validated bytes (ignoring
//! `X-Request-Id`), and the server's own `GET /v1/metrics` is reconciled
//! with the client's counts. It talks to the server only over sockets
//! and shares no code with the layers it measures. The last line of
//! stdout is one JSON object; `--mode layers` runs shorter phases and
//! adds the replica-hop probe, for the traced run.

mod conn;
mod proc;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use conn::{check, is_ok, is_success_envelope, request_once, strip_request_id, Conn, Expected};
use perfbench_pool::{json_escape, Pool, Rng, Workload, BATCH_ITEMS, HOT_DESIGNS};
use proc::Server;

/// Connections in the saturated phase (one per vCPU of the 2-vCPU host
/// the benchmark was sized on).
const SATURATED_CONNS: usize = 2;
/// Requests pipelined per connection in the saturated phase.
const PIPELINE_DEPTH: usize = 4;
/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Saturated-then-single cycles in the shorter server part of a
/// `--mode layers` run; the timed part of a full run has one per second.
/// Both are even, so each of two CPUs hosts half of them.
const LAYER_CYCLES: usize = 6;
/// Share of each cycle spent in the saturated phase.
const SATURATED_SHARE: f64 = 0.6;
/// Untimed warm-up before the timed phases.
const WARM_UP: Duration = Duration::from_millis(500);
/// `carm` and `batch_cold` entries checked against the CLI itself.
const CLI_SAMPLES: usize = 3;

struct Args {
    gables: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    layers: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut gables, mut workload, mut seed, mut seconds, mut mode, mut work_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--gables" => gables = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--mode" => mode = Some(value),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let layers = match mode.as_deref() {
        Some("e2e") => false,
        Some("layers") => true,
        _ => return Err("--mode must be e2e or layers".into()),
    };
    Ok(Args {
        gables: gables.ok_or("--gables is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        layers,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Responses one server sent, as the client counted them, to reconcile
/// with the server's `handled` and `status_2xx`.
#[derive(Debug, Default)]
struct Counts {
    answered: u64,
    ok: u64,
}

/// Items attempted and failed in one phase.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn show(&self, phase: &str) -> String {
        format!(
            "{phase}: {} attempted, {} succeeded, {} failed",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        )
    }
}

/// What the phases drive: one server and the pool's request bytes.
struct Target<'a> {
    addr: &'a str,
    requests: &'a [Vec<u8>],
    expected: &'a [Option<Expected>],
    items_per_request: u64,
}

/// The outcome of one closed-loop phase.
#[derive(Default)]
struct Phase {
    items_ok: u64,
    /// Verified items completed before the deadline, and the time from
    /// the start to the last of them. The rate counts only these, so the
    /// drain of the last pipelined requests (which can wait out a
    /// delayed ACK) stays out of it.
    items_by_deadline: u64,
    by_deadline: Duration,
    wall: Duration,
    latencies_us: Vec<f64>,
}

/// Runs a closed loop for `dur`: `conns` connections, each kept at
/// `depth` requests in flight, cycling the pool from `cursor`. Requests
/// still in flight at the deadline are drained and counted. A read
/// error or timeout fails every request in flight on that connection,
/// which is then reopened.
fn closed_loop(
    t: &Target,
    cursor: &mut usize,
    conns: usize,
    depth: usize,
    dur: Duration,
    counts: &mut Counts,
    tally: &mut Tally,
) -> std::io::Result<Phase> {
    let mut open = Vec::with_capacity(conns);
    for _ in 0..conns {
        open.push(Conn::open(t.addr)?);
    }
    let mut phase = Phase::default();
    let mut send_next = |c: &mut Conn| {
        let i = *cursor % t.requests.len();
        *cursor += 1;
        // A failed write surfaces as a failed read of this request.
        let _ = c.send(&t.requests[i], i);
    };
    let start = Instant::now();
    let deadline = start + dur;
    for c in &mut open {
        for _ in 0..depth {
            send_next(c);
        }
    }
    let mut scratch = Vec::new();
    loop {
        let mut busy = false;
        for c in &mut open {
            if c.inflight.is_empty() {
                continue;
            }
            busy = true;
            match c.recv() {
                Ok(frame) => {
                    let now = Instant::now();
                    let (i, sent) = c.inflight.pop_front().expect("a request is in flight");
                    let bytes = c.bytes();
                    counts.answered += 1;
                    counts.ok += u64::from(is_ok(&bytes[..frame.head_end]));
                    tally.attempted += t.items_per_request;
                    if check(bytes, frame, t.expected[i].as_ref(), &mut scratch) {
                        phase.items_ok += t.items_per_request;
                        if now < deadline {
                            phase.items_by_deadline += t.items_per_request;
                            phase.by_deadline = now - start;
                        }
                    } else {
                        tally.failed += t.items_per_request;
                    }
                    phase.latencies_us.push((now - sent).as_secs_f64() * 1e6);
                    if now < deadline {
                        send_next(c);
                    }
                }
                Err(_) => {
                    let lost = c.inflight.len() as u64 * t.items_per_request;
                    tally.attempted += lost;
                    tally.failed += lost;
                    *c = Conn::open(t.addr)?;
                    if Instant::now() < deadline {
                        for _ in 0..depth {
                            send_next(c);
                        }
                    }
                }
            }
        }
        if !busy {
            break;
        }
    }
    phase.wall = start.elapsed();
    Ok(phase)
}

/// One request on `conn`, returning the head (without `X-Request-Id`)
/// and body.
fn roundtrip(conn: &mut Conn, request: &[u8], counts: &mut Counts) -> std::io::Result<Expected> {
    conn.send(request, 0)?;
    let frame = conn.recv()?;
    conn.inflight.clear();
    let bytes = conn.bytes();
    let mut head = Vec::new();
    strip_request_id(&bytes[..frame.head_end], &mut head);
    counts.answered += 1;
    counts.ok += u64::from(is_ok(&head));
    Ok(Expected {
        head,
        body: bytes[frame.head_end..frame.end].to_vec(),
    })
}

/// Runs `gables <command> <spec file>` and returns its stdout.
fn cli_output(args: &Args, command: &str, name: &str, spec: &str) -> Result<String, String> {
    let path = args.work_dir.join(format!("{name}.gables"));
    std::fs::write(&path, spec).map_err(|e| format!("write {}: {e}", path.display()))?;
    let out = std::process::Command::new(&args.gables)
        .arg(command)
        .arg(&path)
        .env("GABLES_THREADS", proc::GABLES_THREADS)
        .output()
        .map_err(|e| format!("run gables {command}: {e}"))?;
    if !out.status.success() {
        return Err(format!("gables {command} {name} failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("gables {command} output is not UTF-8"))
}

/// The end of a success envelope whose `data` ends with the CLI text in
/// its `output` field.
fn output_tail(cli: &str) -> Vec<u8> {
    format!("\"output\":\"{}\"}},\"error\":null}}", json_escape(cli)).into_bytes()
}

fn expect_output(what: &str, r: &Expected, tail: &[u8], errors: &mut Vec<String>) {
    if !(is_ok(&r.head) && is_success_envelope(&r.body) && r.body.ends_with(tail)) {
        errors.push(format!("{what}: response does not carry the CLI output"));
    }
}

/// `eval_hot` and `fleet_eval`: every entry's body must carry
/// `gables eval`'s output for its design, every spelling of a design
/// must give the same body, and the second pass (all cache hits) gives
/// the validated bytes.
fn validate_hot(
    args: &Args,
    pool: &Pool,
    addr: &str,
    requests: &[Vec<u8>],
    counts: &mut Counts,
    errors: &mut Vec<String>,
) -> std::io::Result<Vec<Option<Expected>>> {
    let mut tails = Vec::with_capacity(HOT_DESIGNS);
    for d in 0..HOT_DESIGNS {
        let first = pool
            .design
            .iter()
            .position(|&x| x == d)
            .expect("design in pool");
        match cli_output(args, "eval", &format!("hot-{d}"), &pool.specs[first]) {
            Ok(text) => tails.push(output_tail(&text)),
            Err(e) => {
                errors.push(e);
                tails.push(Vec::new());
            }
        }
    }
    let mut conn = Conn::open(addr)?;
    let mut expected = vec![None; requests.len()];
    let mut design_body: Vec<Option<Vec<u8>>> = vec![None; HOT_DESIGNS];
    for pass in 0..2 {
        for (i, request) in requests.iter().enumerate() {
            let r = roundtrip(&mut conn, request, counts)?;
            let d = pool.design[i];
            expect_output(&format!("eval_hot entry {i}"), &r, &tails[d], errors);
            match &design_body[d] {
                Some(body) if *body != r.body => {
                    errors.push(format!(
                        "eval_hot entry {i}: spellings of design {d} differ"
                    ));
                }
                Some(_) => {}
                None => design_body[d] = Some(r.body.clone()),
            }
            if pass == 1 {
                expected[i] = Some(r);
            }
        }
    }
    Ok(expected)
}

/// `fleet_eval`: the replica router must answer every entry with the
/// bytes a single-process server gives.
fn compare_with_single(
    args: &Args,
    requests: &[Vec<u8>],
    expected: &[Option<Expected>],
    errors: &mut Vec<String>,
) -> std::io::Result<()> {
    let reference = Server::spawn(&args.gables, 1)?;
    let mut conn = Conn::open(&reference.addr)?;
    let mut reference_counts = Counts::default();
    for pass in 0..2 {
        for (i, request) in requests.iter().enumerate() {
            let r = roundtrip(&mut conn, request, &mut reference_counts)?;
            if pass == 1 && expected[i].as_ref().map(|e| &e.body) != Some(&r.body) {
                errors.push(format!("fleet_eval entry {i}: body differs from eval_hot"));
            }
        }
    }
    drop(conn);
    drop(reference);
    Ok(())
}

/// `batch_cold`: every batch response must be the splice of the
/// single-`/v1/eval` envelopes of its specs, and a seeded sample of
/// those envelopes must carry `gables eval`'s output. Both passes walk
/// the pool in the timed phases' cyclic order from `start`, so the timed
/// phases continue the cycle and every lookup keeps missing the LRU.
fn validate_batch(
    args: &Args,
    pool: &Pool,
    addr: &str,
    requests: &[Vec<u8>],
    start: usize,
    counts: &mut Counts,
    errors: &mut Vec<String>,
) -> std::io::Result<Vec<Option<Expected>>> {
    let n = requests.len();
    let order: Vec<usize> = (start..start + n).map(|j| j % n).collect();
    let mut conn = Conn::open(addr)?;
    let mut singles = vec![Vec::new(); pool.specs.len()];
    for &j in &order {
        let items = j * BATCH_ITEMS..(j + 1) * BATCH_ITEMS;
        for (i, spec) in items.clone().zip(&pool.specs[items]) {
            let single = perfbench_pool::http_post("/v1/eval", spec.as_bytes());
            let r = roundtrip(&mut conn, &single, counts)?;
            if !(is_ok(&r.head) && is_success_envelope(&r.body)) {
                errors.push(format!("batch_cold spec {i}: single /v1/eval failed"));
            }
            singles[i] = r.body;
        }
    }
    let mut rng = Rng::new(args.seed, 10);
    for _ in 0..CLI_SAMPLES {
        let i = rng.int(0, pool.specs.len() as u64 - 1) as usize;
        match cli_output(args, "eval", &format!("batch-{i}"), &pool.specs[i]) {
            Ok(text) if singles[i].ends_with(&output_tail(&text)) => {}
            Ok(_) => errors.push(format!(
                "batch_cold spec {i}: /v1/eval differs from gables eval"
            )),
            Err(e) => errors.push(e),
        }
    }
    let mut expected = vec![None; n];
    for &j in &order {
        let items = &singles[j * BATCH_ITEMS..(j + 1) * BATCH_ITEMS];
        let mut body =
            format!("{{\"ok\":true,\"data\":{{\"count\":{BATCH_ITEMS},\"items\":[").into_bytes();
        for (k, item) in items.iter().enumerate() {
            if k > 0 {
                body.push(b',');
            }
            body.extend_from_slice(item);
        }
        body.extend_from_slice(b"]},\"error\":null}");
        let r = roundtrip(&mut conn, &requests[j], counts)?;
        if !is_ok(&r.head) || r.body != body {
            errors.push(format!(
                "batch_cold request {j}: not the splice of its single evals"
            ));
        }
        expected[j] = Some(r);
    }
    Ok(expected)
}

/// `carm`: a seeded sample of entries must carry `gables carm`'s output.
/// The sample sits just behind the timed phases' starting point, so a
/// run reaches it only after a full pass and the cache cannot serve it.
fn validate_carm(
    args: &Args,
    pool: &Pool,
    addr: &str,
    requests: &[Vec<u8>],
    start: usize,
    counts: &mut Counts,
    errors: &mut Vec<String>,
) -> std::io::Result<Vec<Option<Expected>>> {
    let n = requests.len();
    let mut conn = Conn::open(addr)?;
    let mut expected = vec![None; n];
    for j in 0..CLI_SAMPLES {
        let i = (start + n - 1 - j) % n;
        let r = roundtrip(&mut conn, &requests[i], counts)?;
        match cli_output(args, "carm", &format!("carm-{i}"), &pool.specs[i]) {
            Ok(text) => expect_output(&format!("carm entry {i}"), &r, &output_tail(&text), errors),
            Err(e) => errors.push(e),
        }
        expected[i] = Some(r);
    }
    Ok(expected)
}

/// The counters of the server's `GET /v1/metrics` the run reconciles.
#[derive(Debug, Default)]
struct ServerCounts {
    handled: u64,
    rejected: u64,
    status_2xx: u64,
    status_5xx: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Reads `"key":<number>` from a small JSON document.
fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let digits: String = doc[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse::<f64>().ok().map(|v| v as u64)
}

fn server_counts(addr: &str) -> Result<ServerCounts, String> {
    let (head, body) = request_once(addr, b"GET /v1/metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
        .map_err(|e| format!("GET /v1/metrics: {e}"))?;
    let doc = String::from_utf8(body).map_err(|_| "metrics body is not UTF-8")?;
    if !is_ok(&head) {
        return Err(format!("GET /v1/metrics answered {doc}"));
    }
    let get = |key: &str| json_u64(&doc, key).ok_or_else(|| format!("metrics lack {key}"));
    Ok(ServerCounts {
        handled: get("handled")?,
        rejected: get("rejected")?,
        status_2xx: get("status_2xx")?,
        status_5xx: get("status_5xx")?,
        cache_hits: get("cache_hits")?,
        cache_misses: get("cache_misses")?,
    })
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest of p90/p99/p99.9/p99.99 with at least ten samples beyond
/// it, from sorted samples: `(percentile, value)`.
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let mut best = (50.0, sorted.get(n / 2).copied().unwrap_or(f64::NAN));
    for p in [90.0, 99.0, 99.9, 99.99] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n >= rank + 10 {
            best = (p, sorted[rank - 1]);
        }
    }
    best
}

/// Puts every thread of the server tree `pids` and this thread on the
/// `k`-th of `cpus`, taken in turn. False when the kernel refuses.
///
/// On the 2-vCPU VM this was built on, a hand-off between threads on
/// different vCPUs wakes an idle vCPU, which costs a VM exit priced by the
/// host's load, and where the kernel puts four or more runnable threads
/// differs from run to run. On one vCPU each hand-off is a plain context
/// switch. Each vCPU also runs fast or slow for seconds at a time, on its
/// own, so taking them in turn lets every run sample both.
fn place(pids: &[u32], cpus: &[usize], k: usize) -> bool {
    let Some(&cpu) = cpus.get(k % cpus.len().max(1)) else {
        return false;
    };
    proc::pin_tree(pids, cpu) && proc::pin_self(cpu)
}

/// A short pure-CPU probe, ns per million SplitMix64 steps (median of
/// five). Context for comparing hosts; it never scales a metric.
fn cpu_probe_ms() -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut rng = Rng::new(1, 1);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut runs)
}

/// Replica-hop probe: a single-process server and a `--replicas 2`
/// router side by side, each warmed with two passes over the `eval_hot`
/// pool (whose bodies must agree), then timed in alternating blocks of
/// single requests, with both trees and this thread on one CPU (the
/// second half of the probe on the next CPU). Returns the difference of
/// the two medians in µs, and the connections the host opened over the
/// timed blocks per request sent through the router: the client's own
/// keep-alive connections are open before, and a single-process server
/// opens none, so these are the router's forwards.
fn hop_probe(
    args: &Args,
    cpus: &[usize],
    dur: Duration,
    errors: &mut Vec<String>,
) -> std::io::Result<(f64, f64)> {
    let pool = Pool::build(Workload::EvalHot, args.seed);
    let requests: Vec<Vec<u8>> = (0..pool.requests()).map(|i| pool.http_request(i)).collect();
    let single = Server::spawn(&args.gables, 1)?;
    let fleet = Server::spawn(&args.gables, 2)?;
    let trees = [single.tree(), fleet.tree()].concat();
    let mut counts = Counts::default();
    let (mut cs, mut cf) = (Conn::open(&single.addr)?, Conn::open(&fleet.addr)?);
    for _ in 0..2 {
        for (i, request) in requests.iter().enumerate() {
            let a = roundtrip(&mut cs, request, &mut counts)?;
            let b = roundtrip(&mut cf, request, &mut counts)?;
            if a.body != b.body || !is_ok(&b.head) {
                errors.push(format!("hop probe entry {i}: replica body differs"));
            }
        }
    }
    let (mut ls, mut lf) = (Vec::new(), Vec::new());
    let opens0 = proc::tcp_active_opens();
    let start = Instant::now();
    let (mut i, mut half) = (0, None);
    while start.elapsed() < dur {
        // The first half of the probe on one CPU, the second on the next.
        let now_half = usize::from(start.elapsed() > dur / 2);
        if half != Some(now_half) {
            place(&trees, cpus, now_half);
            half = Some(now_half);
        }
        for (conn, lat) in [(&mut cs, &mut ls), (&mut cf, &mut lf)] {
            for k in 0..32 {
                let t = Instant::now();
                roundtrip(conn, &requests[(i + k) % requests.len()], &mut counts)?;
                lat.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        i += 32;
    }
    let opens = proc::tcp_active_opens().saturating_sub(opens0);
    drop((cs, cf));
    drop((single, fleet));
    let conns_per_request = opens as f64 / lf.len().max(1) as f64;
    Ok((median(&mut lf) - median(&mut ls), conns_per_request))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// A JSON number, or `null` when there is none.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-load: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench-load: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> std::io::Result<()> {
    let w = args.workload;
    // Inputs are built before any clock starts.
    let pool = Pool::build(w, args.seed);
    let requests: Vec<Vec<u8>> = (0..pool.requests()).map(|i| pool.http_request(i)).collect();
    let start = (Rng::new(args.seed, 9).next_u64() % requests.len() as u64) as usize;
    let replicas = if w == Workload::FleetEval { 2 } else { 1 };
    let began = Instant::now();
    let mut stages = Vec::new();
    let probe_ms = cpu_probe_ms();
    let time_wait = proc::tcp_time_wait();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    std::fs::create_dir_all(&args.work_dir)?;

    // Set-up: start the server several times, each on the next CPU (it
    // inherits this thread's placement); the last one serves.
    let allowed = proc::allowed_cpus();
    let mut placed = true;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut servers = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        placed &= place(&[], &allowed, k);
        let s = Server::spawn(&args.gables, replicas)?;
        setups.push(s.setup.as_secs_f64());
        servers.push(s);
    }
    let server = servers.pop().expect("at least one server");
    // Stop the spare starts together: signal all, then wait for each.
    for s in &mut servers {
        s.begin_stop();
    }
    drop(servers);
    let setup_list: Vec<String> = setups.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    let setup_s = median(&mut setups);
    stages.push(("set-up", began.elapsed()));
    let tree = server.tree();
    let addr = server.addr.clone();

    let mut errors = Vec::new();
    let mut counts = Counts::default();
    let expected = match w {
        Workload::EvalHot | Workload::FleetEval => {
            let e = validate_hot(args, &pool, &addr, &requests, &mut counts, &mut errors)?;
            if w == Workload::FleetEval {
                compare_with_single(args, &requests, &e, &mut errors)?;
            }
            e
        }
        Workload::BatchCold => validate_batch(
            args,
            &pool,
            &addr,
            &requests,
            start,
            &mut counts,
            &mut errors,
        )?,
        Workload::Carm => validate_carm(
            args,
            &pool,
            &addr,
            &requests,
            start,
            &mut counts,
            &mut errors,
        )?,
    };
    stages.push(("validation", began.elapsed()));
    let target = Target {
        addr: &addr,
        requests: &requests,
        expected: &expected,
        items_per_request: pool.items_per_request as u64,
    };

    // The timed part alternates saturated and single slices, so both
    // phases see the same mix of host states, and each cycle gives one
    // value of every metric.
    let secs = args.seconds;
    let (cycles, timed_s) = if args.layers {
        (LAYER_CYCLES, 0.3 * secs)
    } else {
        (2 * ((secs / 2.0).round() as usize).max(1), secs)
    };
    let mut cursor = start;
    let mut warm = Tally::default();
    placed &= place(&tree, &allowed, 0);
    closed_loop(
        &target,
        &mut cursor,
        SATURATED_CONNS,
        PIPELINE_DEPTH,
        WARM_UP,
        &mut counts,
        &mut warm,
    )?;
    if warm.failed > 0 {
        errors.push(format!("{} warm-up items failed", warm.failed));
    }

    stages.push(("warm-up", began.elapsed()));
    let (mut sat_tally, mut single_tally) = (Tally::default(), Tally::default());
    let mut sat = Phase::default();
    let mut latencies = Vec::new();
    let mut sat_cpu_us = 0.0;
    let (mut rates, mut cpus, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let timed_start = Instant::now();
    for k in 0..cycles {
        // Each cycle gets an equal share of the time left, so the drains
        // of earlier slices (up to 8 pipelined `carm` items, ~200 ms)
        // shorten later slices instead of lengthening the run.
        let left = timed_s - timed_start.elapsed().as_secs_f64();
        let cycle_s = (left / (cycles - k) as f64).max(0.05);
        placed &= place(&tree, &allowed, k);
        let cpu0 = proc::cpu_us(&tree);
        let s = closed_loop(
            &target,
            &mut cursor,
            SATURATED_CONNS,
            PIPELINE_DEPTH,
            Duration::from_secs_f64(SATURATED_SHARE * cycle_s),
            &mut counts,
            &mut sat_tally,
        )?;
        let cpu = proc::cpu_us(&tree) - cpu0;
        let mut single = closed_loop(
            &target,
            &mut cursor,
            1,
            1,
            Duration::from_secs_f64((1.0 - SATURATED_SHARE) * cycle_s),
            &mut counts,
            &mut single_tally,
        )?;
        rates.push(if s.items_by_deadline == 0 {
            0.0
        } else {
            s.items_by_deadline as f64 / s.by_deadline.as_secs_f64()
        });
        cpus.push(cpu / s.items_ok.max(1) as f64);
        latencies.extend_from_slice(&single.latencies_us);
        p50s.push(median(&mut single.latencies_us));
        sat_cpu_us += cpu;
        sat.items_ok += s.items_ok;
        sat.items_by_deadline += s.items_by_deadline;
        sat.by_deadline += s.by_deadline;
        sat.wall += s.wall;
    }

    // Verify the traffic from the server's side, untimed.
    let mut hit_ratio = f64::NAN;
    let (mut rejected, mut status_5xx) = (0, 0);
    match server_counts(&addr) {
        Ok(m) => {
            if m.handled != counts.answered || m.status_2xx != counts.ok {
                errors.push(format!(
                    "server counted {} handled / {} 2xx, client {} / {}",
                    m.handled, m.status_2xx, counts.answered, counts.ok
                ));
            }
            rejected = m.rejected;
            status_5xx = m.status_5xx;
            if rejected != 0 || status_5xx != 0 {
                errors.push(format!(
                    "server rejected {rejected}, answered {status_5xx} 5xx"
                ));
            }
            let lookups = m.cache_hits + m.cache_misses;
            hit_ratio = if lookups == 0 {
                0.0
            } else {
                m.cache_hits as f64 / lookups as f64
            };
            let fits = match w {
                Workload::EvalHot | Workload::FleetEval => hit_ratio >= 0.95,
                Workload::BatchCold | Workload::Carm => m.cache_hits == 0,
            };
            if !fits {
                errors.push(format!(
                    "cache hit ratio {hit_ratio:.4} contradicts {}",
                    w.name()
                ));
            }
        }
        Err(e) => errors.push(e),
    }
    stages.push(("timed cycles", began.elapsed()));
    let rss_kib = proc::peak_rss_kib(&server.tree());
    drop(server);

    let (hop_us, hop_conns_per_item) = if args.layers {
        hop_probe(
            args,
            &allowed,
            Duration::from_secs_f64(0.2 * secs),
            &mut errors,
        )?
    } else {
        (f64::NAN, f64::NAN)
    };

    stages.push(("stop and probe", began.elapsed()));

    // The host's vCPUs switch between a fast and a ~1.5x slower state
    // every few seconds, and the slow share differs from run to run. The
    // gated values are therefore totals over all cycles, and the mean of
    // the per-cycle medians for latency: these move in proportion to the
    // slow share, where a median across cycles jumps between the two
    // states when that share nears one half.
    let items_per_s = sat.items_by_deadline as f64 / sat.by_deadline.as_secs_f64();
    let cpu_per_item = sat_cpu_us / sat.items_ok.max(1) as f64;
    let p50 = p50s.iter().sum::<f64>() / p50s.len() as f64;
    let whole_rate = sat.items_ok as f64 / sat.wall.as_secs_f64();
    let samples = latencies.len();
    let whole_p50 = median(&mut latencies);
    let (tail_pct, tail_us) = tail(&latencies);
    let attempted = sat_tally.attempted + single_tally.attempted;
    let failed = sat_tally.failed + single_tally.failed;
    let correct = errors.is_empty() && failed == 0;

    println!(
        "workload {} seed {} mode {}",
        w.name(),
        args.seed,
        if args.layers { "layers" } else { "e2e" }
    );
    println!(
        "conditions: nproc {nproc}, server `gables {}` with GABLES_THREADS={} and stderr discarded, \
         cpu probe {probe_ms:.3} ms, TIME_WAIT at start {time_wait}",
        proc::server_args(replicas).join(" "),
        proc::GABLES_THREADS,
    );
    if placed {
        println!(
            "placement: server tree and client on one CPU per cycle, in turn over CPUs {allowed:?}"
        );
    } else {
        println!("placement: refused by the kernel, threads left where the scheduler puts them");
    }
    println!(
        "whole phases: saturated {} items in {:.3} s with drains = {whole_rate:.1} items/s; \
         single {samples} requests, p50 {whole_p50:.1} us, p{tail_pct} {tail_us:.1} us",
        sat.items_ok,
        sat.wall.as_secs_f64()
    );
    println!(
        "items: {}; {}",
        sat_tally.show("saturated"),
        single_tally.show("single")
    );
    println!("setups: [{}] ms", setup_list.join(" "));
    let timeline: Vec<String> = stages
        .iter()
        .map(|(name, at)| format!("{name} {:.2}", at.as_secs_f64()))
        .collect();
    println!("timeline (s since start): {}", timeline.join(", "));
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("cycles, in time order: items/s [{}]", show(&rates));
    println!("cycles, in time order: cpu us/item [{}]", show(&cpus));
    println!("cycles, in time order: p50 us [{}]", show(&p50s));
    for e in &errors {
        println!("error: {e}");
    }
    let errors_json: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    let fields = [
        ("items_per_s", json_num(items_per_s)),
        ("latency_p50_us", json_num(p50)),
        ("latency_tail_pct", json_num(tail_pct)),
        ("latency_tail_us", json_num(tail_us)),
        ("latency_samples", samples.to_string()),
        ("server_cpu_us_per_item", json_num(cpu_per_item)),
        ("server_rss_kib", rss_kib.to_string()),
        ("setup_s", json_num(setup_s)),
        ("hit_ratio", json_num(hit_ratio)),
        ("rejected", rejected.to_string()),
        ("status_5xx", status_5xx.to_string()),
        ("hop_conns_per_item", json_num(hop_conns_per_item)),
        ("hop_us", json_num(hop_us)),
        ("nproc", nproc.to_string()),
        ("cpu_probe_ms", json_num(probe_ms)),
        ("time_wait_at_start", time_wait.to_string()),
    ];
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},{},\"errors\":[{}]}}",
        attempted,
        failed,
        fields.join(","),
        errors_json.join(","),
    );
    Ok(())
}
