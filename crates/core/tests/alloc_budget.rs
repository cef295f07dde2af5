//! Allocation-budget gates for the model's hot paths.
//!
//! [`AllocScope`] counts the calling thread's allocations through the
//! counting allocator ([`gables_model::prof::CountingAllocator`]), so
//! other test threads cannot leak into a `== 0` assertion.
//!
//! The budgets are exact, not "small": steady-state [`evaluate`] does
//! zero heap allocations once the spec exists, and an offload sweep
//! pays only its fixed setup (result storage, the workload template)
//! with zero additional allocations per sweep point.

use gables_model::analysis::offload_sweep_with;
use gables_model::prof::AllocScope;
use gables_model::units::{BytesPerSec, OpsPerSec};
use gables_model::{evaluate, Parallelism, SocSpec, Workload};

/// The paper's Figure 6b SoC: CPU plus one accelerator.
fn soc() -> SocSpec {
    SocSpec::builder()
        .ppeak(OpsPerSec::from_gops(40.0))
        .bpeak(BytesPerSec::from_gbps(2.0))
        .cpu("CPU", BytesPerSec::from_gbps(6.0))
        .accelerator("ACC", 4.0, BytesPerSec::from_gbps(10.0))
        .unwrap()
        .build()
        .unwrap()
}

fn workload() -> Workload {
    Workload::two_ip(0.6, 0.25, 4.0).unwrap()
}

#[test]
fn steady_state_evaluate_allocates_nothing() {
    let soc = soc();
    let workload = workload();
    // Warmup: fault in any lazy one-time state (formatting machinery,
    // thread-local counters) before measuring.
    for _ in 0..8 {
        let eval = evaluate(&soc, &workload).unwrap();
        assert!(eval.attainable().value() > 0.0);
    }
    let scope = AllocScope::begin();
    for _ in 0..64 {
        let eval = evaluate(&soc, &workload).unwrap();
        std::hint::black_box(&eval);
    }
    let delta = scope.delta();
    assert_eq!(
        delta.allocs, 0,
        "steady-state evaluate must not touch the heap: {delta:?}"
    );
    assert_eq!(delta.bytes, 0, "{delta:?}");
}

#[test]
fn offload_sweep_allocates_nothing_per_point() {
    let soc = soc();
    let run =
        |steps: usize| offload_sweep_with(&soc, 0.25, 4.0, steps, Parallelism::Serial).unwrap();
    // Warmup faults in one-time state shared by both measured runs.
    assert_eq!(run(8).len(), 9);
    // Measure two sweeps that differ only in step count: the sweep's
    // fixed setup (result vec, template workload, baseline evaluation)
    // cancels out, so the difference is the pure per-point cost.
    let scope = AllocScope::begin();
    let small = run(64);
    let after_small = scope.delta();
    let large = run(192);
    let per_point_allocs =
        scope.delta().since(after_small).allocs as i64 - after_small.allocs as i64;
    assert_eq!(small.len(), 65);
    assert_eq!(large.len(), 193);
    assert_eq!(
        per_point_allocs, 0,
        "128 extra sweep points must cost zero extra allocations \
         (first sweep: {after_small:?})"
    );
    // And the fixed setup itself stays small: a handful of allocations
    // for the whole sweep, independent of the step count.
    assert!(
        after_small.allocs <= 8,
        "sweep setup budget exceeded: {after_small:?}"
    );
}
