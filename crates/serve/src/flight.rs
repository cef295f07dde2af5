//! A flight recorder: a bounded ring buffer of the most recent requests,
//! each with its identity, outcome, latency, and collected span tree.
//!
//! Aggregate counters ([`crate::metrics`]) answer "how is the server
//! doing"; the flight recorder answers "what did the last requests
//! actually do" — the serving analog of the simulator's epoch timeline.
//! The ring holds the last [`FlightRecorder::capacity`] requests and
//! overwrites the oldest, so memory stays constant under any traffic
//! volume. A monotonically increasing sequence number counts every
//! request ever recorded, letting `/v1/debug/requests` reconcile the
//! ring against the metrics counters.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gables_model::json::Json;
use gables_model::obs::SpanRecord;

/// One recorded request.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Recording sequence number (1-based, never reused).
    pub seq: u64,
    /// The request's `X-Request-Id` (client-provided or generated).
    pub id: String,
    /// HTTP method.
    pub method: String,
    /// Route label as recorded in metrics (`"(unmatched)"`,
    /// `"(unparsed)"`, or a registered path).
    pub route: String,
    /// Response status code.
    pub status: u16,
    /// Wall-clock completion time, microseconds since the Unix epoch.
    /// Lets a replica router interleave shard flight records into one
    /// fleet-wide timeline.
    pub ts_unix_us: u64,
    /// End-to-end service latency in microseconds.
    pub latency_us: u64,
    /// Cache outcome, when the handler reported one.
    pub cache_hit: Option<bool>,
    /// Heap allocations made while the request was served, counted on
    /// the thread that served it ([`gables_model::prof::AllocScope`]):
    /// concurrent requests never add to it, and neither do `par`
    /// helper threads the request fans out to.
    pub allocs: u64,
    /// Heap bytes requested while the request was served (same
    /// this-thread scope as `allocs`).
    pub alloc_bytes: u64,
    /// Total span self-time in microseconds
    /// ([`gables_model::prof::cpu_busy_us`]): time attributed to the
    /// request's own spans across all threads, which exceeds
    /// `latency_us` when parallel workers overlap.
    pub cpu_busy_us: f64,
    /// The request's finished spans (empty when tracing collected none).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the bounded collector was full.
    pub spans_dropped: u64,
}

impl FlightRecord {
    /// The one-line span-tree summary shown in list views.
    pub fn span_summary(&self) -> String {
        gables_plot::span_tree_summary(&self.spans)
    }

    /// Serializes the record for `/v1/debug/requests`. `detail` adds the
    /// full span list on top of the always-present summary fields.
    pub fn to_json(&self, detail: bool) -> Json {
        let mut fields = vec![
            ("seq".to_string(), Json::num(self.seq as f64)),
            ("id".to_string(), Json::str(&self.id)),
            ("method".to_string(), Json::str(&self.method)),
            ("route".to_string(), Json::str(&self.route)),
            ("status".to_string(), Json::num(f64::from(self.status))),
            ("ts_unix_us".to_string(), Json::num(self.ts_unix_us as f64)),
            ("latency_us".to_string(), Json::num(self.latency_us as f64)),
            (
                "cache".to_string(),
                match self.cache_hit {
                    Some(true) => Json::str("hit"),
                    Some(false) => Json::str("miss"),
                    None => Json::Null,
                },
            ),
            ("allocs".to_string(), Json::num(self.allocs as f64)),
            (
                "alloc_bytes".to_string(),
                Json::num(self.alloc_bytes as f64),
            ),
            ("cpu_busy_us".to_string(), Json::num(self.cpu_busy_us)),
            ("span_count".to_string(), Json::num(self.spans.len() as f64)),
            (
                "spans_dropped".to_string(),
                Json::num(self.spans_dropped as f64),
            ),
            ("span_summary".to_string(), Json::str(self.span_summary())),
        ];
        if detail {
            fields.push((
                "spans".to_string(),
                Json::Array(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Object(vec![
                                ("name".to_string(), Json::str(&s.name)),
                                ("span".to_string(), Json::str(format!("{:016x}", s.span_id))),
                                (
                                    "parent".to_string(),
                                    Json::str(format!("{:016x}", s.parent_id)),
                                ),
                                ("start_us".to_string(), Json::num(s.start_us)),
                                ("dur_us".to_string(), Json::num(s.dur_us)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::Object(fields)
    }
}

/// The bounded ring of recent [`FlightRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<FlightRecord>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` requests (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// How many records the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total requests ever recorded (survives ring eviction).
    pub fn recorded_total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Appends a record, evicting the oldest at capacity, and stamps its
    /// sequence number.
    pub fn record(&self, mut record: FlightRecord) {
        record.seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The most recent `n` records, newest first.
    pub fn recent(&self, n: usize) -> Vec<FlightRecord> {
        let ring = self.ring.lock().expect("flight ring poisoned");
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Looks up a retained record by request ID (newest match wins).
    pub fn find(&self, id: &str) -> Option<FlightRecord> {
        let ring = self.ring.lock().expect("flight ring poisoned");
        ring.iter().rev().find(|r| r.id == id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, status: u16) -> FlightRecord {
        FlightRecord {
            seq: 0,
            id: id.to_string(),
            method: "GET".to_string(),
            route: "/v1/eval".to_string(),
            status,
            ts_unix_us: 1_700_000_000_000_000,
            latency_us: 42,
            cache_hit: Some(false),
            allocs: 7,
            alloc_bytes: 512,
            cpu_busy_us: 10.0,
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    #[test]
    fn ring_keeps_only_the_most_recent_records() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record(record(&format!("r{i}"), 200));
        }
        assert_eq!(rec.recorded_total(), 5);
        let recent = rec.recent(10);
        let ids: Vec<&str> = recent.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["r4", "r3", "r2"], "newest first, oldest evicted");
        assert_eq!(recent[0].seq, 5);
        assert_eq!(rec.recent(1).len(), 1);
    }

    #[test]
    fn find_returns_the_newest_match() {
        let rec = FlightRecorder::new(4);
        rec.record(record("dup", 200));
        rec.record(record("other", 404));
        rec.record(record("dup", 500));
        let hit = rec.find("dup").unwrap();
        assert_eq!(hit.status, 500);
        assert!(rec.find("gone").is_none());
    }

    #[test]
    fn record_json_has_summary_and_optional_spans() {
        let mut r = record("abc", 200);
        r.spans.push(gables_model::obs::SpanRecord {
            name: "server.request".to_string(),
            trace_id: 1,
            span_id: 2,
            parent_id: 0,
            start_us: 0.0,
            dur_us: 10.0,
        });
        let list = r.to_json(false).to_string();
        assert!(list.contains("\"span_summary\":\"server.request\""));
        assert!(list.contains("\"cache\":\"miss\""));
        assert!(list.contains("\"allocs\":7"));
        assert!(list.contains("\"alloc_bytes\":512"));
        assert!(list.contains("\"cpu_busy_us\":10"));
        assert!(!list.contains("\"spans\":["));
        let detail = r.to_json(true).to_string();
        assert!(detail.contains("\"spans\":["));
        assert!(detail.contains("\"0000000000000002\""));
        let parsed = Json::parse(&detail).unwrap();
        assert_eq!(parsed.get("spans").unwrap().as_array().unwrap().len(), 1);
    }
}
