//! Allocation-budget gates for the metrics hot paths.
//!
//! PR 9 established the workspace rule: steady-state hot paths do zero
//! heap allocations. Recording a request of a route seen before is one,
//! and so is a metrics scrape — exporters poll every few seconds
//! forever — so rendering a snapshot into a reused buffer must not touch
//! the heap once the buffer has grown to size. [`AllocScope`] counts the
//! calling thread's allocations only, so other test threads cannot leak
//! into these `== 0` assertions.

use std::time::Duration;

use gables_model::prof::AllocScope;
use gables_model::sketch::SLOT_SECS;
use gables_serve::slo::unix_now_secs;
use gables_serve::ServerMetrics;

/// A metrics instance with representative traffic: several routes,
/// every status class, phases, cache outcomes, and a latency spread.
fn populated_metrics() -> ServerMetrics {
    let m = ServerMetrics::new();
    for i in 0..100u64 {
        let route = match i % 4 {
            0 => "/v1/eval",
            1 => "/v1/sweep",
            2 => "/v1/metrics",
            _ => "(unmatched)",
        };
        let status = match i % 10 {
            9 => 500,
            7 | 8 => 404,
            _ => 200,
        };
        m.record_handled(route, status, Duration::from_micros(1 + i * 37));
    }
    m.record_phase_self("eval", 120.0);
    m.record_phase_self("parse", 30.0);
    m.record_cache_hit();
    m.record_cache_miss();
    m
}

#[test]
fn recording_a_route_seen_before_allocates_nothing() {
    let metrics = populated_metrics();
    let latency = Duration::from_micros(40);
    loop {
        // The SLO ring starts a fresh sketch every `SLOT_SECS`, and its
        // first value allocates a bucket. Measure inside one slot: warm
        // it, then record.
        let slot = unix_now_secs() / SLOT_SECS;
        metrics.record_handled("/v1/eval", 200, latency);
        let scope = AllocScope::begin();
        for _ in 0..64 {
            metrics.record_handled("/v1/eval", 200, latency);
        }
        let delta = scope.delta();
        if unix_now_secs() / SLOT_SECS != slot {
            continue; // a slot boundary fell inside the measurement
        }
        assert_eq!(
            delta.allocs, 0,
            "recording a known route must not touch the heap: {delta:?}"
        );
        break;
    }
}

#[test]
fn prometheus_scrape_into_a_reused_buffer_allocates_nothing() {
    let metrics = populated_metrics();
    let snapshot = metrics.snapshot();
    let mut buf = String::new();
    // Warmup: grow the buffer to steady-state size and fault in any
    // lazy formatting machinery.
    for _ in 0..8 {
        buf.clear();
        snapshot.to_prometheus_into(&mut buf, 12.5, "0.1.0");
    }
    assert!(buf.contains("gables_requests_handled_total 100\n"));
    let capacity = buf.capacity();
    let scope = AllocScope::begin();
    for _ in 0..32 {
        buf.clear();
        snapshot.to_prometheus_into(&mut buf, 12.5, "0.1.0");
        std::hint::black_box(&buf);
    }
    let delta = scope.delta();
    assert_eq!(
        delta.allocs, 0,
        "a steady-state scrape must not touch the heap: {delta:?}"
    );
    assert_eq!(delta.bytes, 0, "{delta:?}");
    assert_eq!(buf.capacity(), capacity, "the buffer never regrows");
}
