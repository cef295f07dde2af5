//! Seeded request pools for the `gables serve` benchmark.
//!
//! Both the load generator and the traced replay build their inputs
//! here, so one `--seed` gives both programs byte-identical requests.
//! Pools are built before any clock starts. The seed changes the numbers
//! inside each spec, never the amount of work: every spec of a workload
//! has the same sections, the same number formats and (for `carm`) the
//! same cache geometry.

use std::collections::HashSet;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `POST /v1/eval`, 16 designs x 16 cosmetic spellings, all cache hits.
    EvalHot,
    /// `POST /v1/batch`, 64 distinct specs per request cycling 4,096 designs.
    BatchCold,
    /// `POST /v1/carm`, 4,096 specs with seeded cache latencies.
    Carm,
    /// `eval_hot`'s pool sent through `gables serve --replicas 2`.
    FleetEval,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    const ALL: [Workload; 4] = [
        Workload::EvalHot,
        Workload::BatchCold,
        Workload::Carm,
        Workload::FleetEval,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalHot => "eval_hot",
            Workload::BatchCold => "batch_cold",
            Workload::Carm => "carm",
            Workload::FleetEval => "fleet_eval",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Designs in the `eval_hot` pool.
pub const HOT_DESIGNS: usize = 16;
/// Cosmetic spellings of each `eval_hot` design.
const HOT_SPELLINGS: usize = 16;
/// Distinct designs cycled by `batch_cold` and `carm`: four times the
/// server's 8 x 128-entry LRU, so a cyclic pass never hits.
const COLD_DESIGNS: usize = 4096;
/// Specs per `batch_cold` request.
pub const BATCH_ITEMS: usize = 64;

/// A workload's requests, in the order the load generator cycles them.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The route every request of the pool is posted to.
    pub route: &'static str,
    /// One spec text per item; a request carries `items_per_request`
    /// consecutive specs.
    pub specs: Vec<String>,
    /// Items carried by one request: 1, or [`BATCH_ITEMS`] for batches.
    pub items_per_request: usize,
    /// For each spec, the index of its design (spellings of one design
    /// share an index and a canonical cache key).
    pub design: Vec<usize>,
    /// Request bodies, one per request.
    pub bodies: Vec<Vec<u8>>,
}

impl Pool {
    /// Builds the pool of `workload` for `seed`.
    pub fn build(workload: Workload, seed: u64) -> Pool {
        match workload {
            Workload::EvalHot | Workload::FleetEval => hot_pool(seed),
            Workload::BatchCold => batch_pool(seed),
            Workload::Carm => carm_pool(seed),
        }
    }

    /// Requests in the pool.
    pub fn requests(&self) -> usize {
        self.bodies.len()
    }

    /// The full HTTP/1.1 request bytes of request `i`.
    pub fn http_request(&self, i: usize) -> Vec<u8> {
        http_post(self.route, &self.bodies[i])
    }
}

/// A keep-alive `POST` with a `Content-Length` body.
pub fn http_post(route: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {route} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Escapes `s` as the body of a JSON string literal: quote, backslash,
/// the short escapes for newline, carriage return and tab, and `\u00XX`
/// for the other control characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `{"specs": [...]}` body of a batch request.
pub fn batch_body(specs: &[String]) -> Vec<u8> {
    let mut body = String::from("{\"specs\":[");
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('"');
        body.push_str(&json_escape(spec));
        body.push('"');
    }
    body.push_str("]}");
    body.into_bytes()
}

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` tag, so pools of
    /// different workloads drawn from one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A number written with a fixed count of decimals from an integer
/// count of hundredths (or tenths, thousandths), so every seed writes
/// values of the same width.
fn fixed(units: u64, decimals: u32) -> String {
    let scale = 10u64.pow(decimals);
    format!(
        "{}.{:0width$}",
        units / scale,
        units % scale,
        width = decimals as usize
    )
}

/// The numbers of one three-IP design.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Design {
    ppeak: String,
    bpeak: String,
    cpu_bw: String,
    gpu_accel: String,
    gpu_bw: String,
    dsp_accel: String,
    dsp_bw: String,
    fractions: [String; 3],
    intensities: [String; 3],
}

impl Design {
    fn draw(rng: &mut Rng) -> Design {
        // Thousandths summing to exactly 1000.
        let f0 = rng.int(100, 399);
        let f1 = rng.int(100, 399);
        let f2 = 1000 - f0 - f1;
        Design {
            ppeak: fixed(rng.int(200, 799), 1),
            bpeak: fixed(rng.int(100, 399), 1),
            cpu_bw: fixed(rng.int(100, 399), 1),
            gpu_accel: fixed(rng.int(100, 199), 1),
            gpu_bw: fixed(rng.int(100, 399), 1),
            dsp_accel: fixed(rng.int(100, 199), 1),
            dsp_bw: fixed(rng.int(100, 399), 1),
            fractions: [fixed(f0, 3), fixed(f1, 3), fixed(f2, 3)],
            intensities: [
                fixed(rng.int(100, 999), 2),
                fixed(rng.int(100, 999), 2),
                fixed(rng.int(100, 999), 2),
            ],
        }
    }

    /// Writes the design in cosmetic spelling `s` (0..16). Every
    /// spelling has the same canonical form: the variations are only
    /// comments, blank lines and whitespace around `=` and `,`.
    fn spell(&self, label: &str, s: usize) -> String {
        let eq = if s & 1 == 0 { " = " } else { "=" };
        let sep = if s & 2 == 0 { ", " } else { " ,\t" };
        let blank = if s & 4 == 0 { "\n" } else { "" };
        let note = |text: &str| {
            if s & 8 == 0 {
                String::new()
            } else {
                format!("   # {text}")
            }
        };
        let mut out = format!("# {label}, spelling {s}\n[soc]\n");
        push_kv(
            &mut out,
            "ppeak_gops",
            &self.ppeak,
            eq,
            &note("peak compute"),
        );
        push_kv(
            &mut out,
            "bpeak_gbps",
            &self.bpeak,
            eq,
            &note("memory interface"),
        );
        out.push_str(blank);
        out.push_str("[ip.CPU]\n");
        push_kv(&mut out, "bandwidth_gbps", &self.cpu_bw, eq, "");
        out.push_str(blank);
        out.push_str(&format!("[ip.GPU]{}\n", note("accelerator")));
        push_kv(&mut out, "acceleration", &self.gpu_accel, eq, "");
        push_kv(&mut out, "bandwidth_gbps", &self.gpu_bw, eq, "");
        out.push_str(blank);
        out.push_str("[ip.DSP]\n");
        push_kv(&mut out, "acceleration", &self.dsp_accel, eq, "");
        push_kv(&mut out, "bandwidth_gbps", &self.dsp_bw, eq, "");
        out.push_str(blank);
        out.push_str("[workload]\n");
        push_kv(&mut out, "fractions", &self.fractions.join(sep), eq, "");
        push_kv(&mut out, "intensities", &self.intensities.join(sep), eq, "");
        out
    }
}

fn push_kv(out: &mut String, key: &str, value: &str, eq: &str, comment: &str) {
    out.push_str(key);
    out.push_str(eq);
    out.push_str(value);
    out.push_str(comment);
    out.push('\n');
}

/// `n` pairwise-distinct designs.
fn distinct_designs(rng: &mut Rng, n: usize) -> Vec<Design> {
    let mut seen = HashSet::with_capacity(n);
    let mut designs = Vec::with_capacity(n);
    while designs.len() < n {
        let d = Design::draw(rng);
        if seen.insert(d.clone()) {
            designs.push(d);
        }
    }
    designs
}

fn single_bodies(specs: &[String]) -> Vec<Vec<u8>> {
    specs.iter().map(|s| s.as_bytes().to_vec()).collect()
}

/// 16 designs x 16 spellings, interleaved so consecutive requests name
/// different designs: request `i` is design `i % 16`, spelling `i / 16`.
fn hot_pool(seed: u64) -> Pool {
    let mut rng = Rng::new(seed, 1);
    let designs = distinct_designs(&mut rng, HOT_DESIGNS);
    let mut specs = Vec::with_capacity(HOT_DESIGNS * HOT_SPELLINGS);
    let mut design = Vec::with_capacity(HOT_DESIGNS * HOT_SPELLINGS);
    for s in 0..HOT_SPELLINGS {
        for (d, dz) in designs.iter().enumerate() {
            specs.push(dz.spell(&format!("hot design {d}"), s));
            design.push(d);
        }
    }
    Pool {
        route: "/v1/eval",
        bodies: single_bodies(&specs),
        specs,
        items_per_request: 1,
        design,
    }
}

/// 4,096 distinct designs in one plain spelling, 64 per batch request.
fn batch_pool(seed: u64) -> Pool {
    let mut rng = Rng::new(seed, 2);
    let specs: Vec<String> = distinct_designs(&mut rng, COLD_DESIGNS)
        .iter()
        .enumerate()
        .map(|(i, d)| d.spell(&format!("cold design {i}"), 0))
        .collect();
    let bodies = specs.chunks(BATCH_ITEMS).map(batch_body).collect();
    Pool {
        route: "/v1/batch",
        design: (0..specs.len()).collect(),
        specs,
        items_per_request: BATCH_ITEMS,
        bodies,
    }
}

/// 4,096 distinct CARM specs: the geometry of `specs/carm_example.ini`
/// (so every item simulates the same accesses) with seeded per-level
/// latencies, DRAM latency and workload.
fn carm_pool(seed: u64) -> Pool {
    let mut rng = Rng::new(seed, 3);
    let mut seen = HashSet::with_capacity(COLD_DESIGNS);
    let mut specs = Vec::with_capacity(COLD_DESIGNS);
    while specs.len() < COLD_DESIGNS {
        let f0 = rng.int(100, 899);
        let numbers = [
            fixed(f0, 3),
            fixed(1000 - f0, 3),
            fixed(rng.int(100, 999), 2),
            fixed(rng.int(100, 999), 2),
            fixed(rng.int(50, 199), 2),
            fixed(rng.int(200, 799), 2),
            fixed(rng.int(800, 1999), 2),
            fixed(rng.int(500, 1199), 1),
        ];
        if !seen.insert(numbers.clone()) {
            continue;
        }
        let [f0, f1, i0, i1, l1, l2, slc, dram] = numbers;
        specs.push(format!(
            "# carm design {n}: Figure-6b SoC with the carm_example hierarchy\n\
             [soc]\nppeak_gops = 40\nbpeak_gbps = 10\n\n\
             [ip.CPU]\nbandwidth_gbps = 6\n\n\
             [ip.GPU]\nacceleration = 5\nbandwidth_gbps = 15\n\n\
             [workload]\nfractions = {f0}, {f1}\nintensities = {i0}, {i1}\n\n\
             [cache.l1]\ncapacity_kib = 16\nassociativity = 4\nlatency_ns = {l1}\n\n\
             [cache.l2]\ncapacity_kib = 128\nassociativity = 8\nlatency_ns = {l2}\n\n\
             [cache.slc]\ncapacity_kib = 512\nassociativity = 16\nlatency_ns = {slc}\n\
             policy = mru\n\n\
             [cache]\ndram_latency_ns = {dram}\n",
            n = specs.len(),
        ));
    }
    Pool {
        route: "/v1/carm",
        bodies: single_bodies(&specs),
        design: (0..specs.len()).collect(),
        specs,
        items_per_request: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_and_sizes() {
        for w in Workload::ALL {
            let a = Pool::build(w, 7);
            let b = Pool::build(w, 7);
            assert_eq!(a.bodies, b.bodies);
            assert_ne!(a.bodies, Pool::build(w, 8).bodies);
        }
        assert_eq!(Pool::build(Workload::EvalHot, 1).requests(), 256);
        assert_eq!(Pool::build(Workload::BatchCold, 1).requests(), 64);
        assert_eq!(Pool::build(Workload::Carm, 1).requests(), 4096);
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\\n\t\u{1}"), "a\\\"b\\\\\\n\\t\\u0001");
    }
}
