#!/usr/bin/env sh
# Full local gate: formatting, lints, release build, every test in the
# workspace, and the regression-gated benchmark trajectory. Run from the
# repository root; exits non-zero on the first failure. Works offline —
# the workspace has no external deps.
#
# `--quick` skips the release-mode builds/tests and both bench stages
# (smoke + trajectory/perf gate) for a fast edit-compile-test loop; the
# full run is the gate that counts.
set -eu

cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *)
      echo "usage: scripts/check.sh [--quick]" >&2
      exit 2
      ;;
  esac
done

echo "==> no stray stdout printing in library crates"
# Library code must log through gables_model::obs (stderr, leveled),
# never print to stdout. eprintln! is allowed; println!/print! are not.
# The char class before 'print' keeps 'eprintln!' from matching.
if grep -rnE '(^|[^a-zA-Z0-9_e])print(ln)?!\(' \
    crates/core/src crates/serve/src crates/soc-sim/src crates/ert/src; then
  echo "stray stdout printing found in library crates (use gables_model::obs)" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

if [ "$QUICK" -eq 0 ]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test (tier-1: root suite)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> JSON decoder suite (differential fuzzer vs the char-at-a-time reference, 1 MiB linear-time budget, nesting cap)"
# Debug build on purpose: the 1 MiB budget must hold unoptimized.
cargo test -q -p gables-model --lib json::

echo "==> allocation-budget gate (zero-alloc evaluate / sweep points / request recording / scrape, debug)"
cargo test -q -p gables-model --test alloc_budget
cargo test -q -p gables-serve --test alloc_budget

echo "==> serve loopback smoke test (real server on an ephemeral port)"
cargo test -q -p gables-cli --test serve_loopback

echo "==> observability loopback suite (request IDs, flight recorder, prom, spans)"
cargo test -q -p gables-cli --test obs_loopback

echo "==> profiler suite (folded stacks, alloc counters, /v1/debug/profile)"
cargo test -q -p gables-cli --test profile

echo "==> fault-injection smoke (deterministic adversarial clients)"
cargo test -q -p gables-cli --test fault_injection

echo "==> carm loopback (envelope -> flight record -> prom reconciliation)"
cargo test -q -p gables-cli --test carm_loopback

echo "==> event-loop suite (pipelining, 10k idle soak, slow writers, batch/replica matrix)"
cargo test -q -p gables-cli --test event_loop

echo "==> SLO loopback suite (fleet sketch merge, burn rates, shard pinning)"
# Under --quick the storm half (a --replicas 2 fleet plus a request and
# fault storm) is skipped via GABLES_QUICK=1; the shard-pinning checks
# still run.
GABLES_QUICK="$QUICK" cargo test -q -p gables-cli --test slo_loopback

echo "==> replica router smoke (gables serve --replicas 2 boots, announces, shuts down)"
# Immediate stdin EOF trips the supervised-mode watchdog, so the router
# must announce its address and then exit cleanly on its own.
announce="$(printf '' | timeout 60 cargo run -q -p gables-cli --bin gables -- \
    serve 127.0.0.1:0 --replicas 2 --announce | head -n1)"
case "$announce" in
  "LISTENING "*) ;;
  *)
    echo "replica smoke failed: expected a LISTENING announcement, got '$announce'" >&2
    exit 1
    ;;
esac

if [ "$QUICK" -eq 0 ]; then
  echo "==> release-mode suites (debug_assert! compiled out)"
  cargo test --release -q -p gables-cli --test obs_loopback
  cargo test --release -q -p gables-cli

  echo "==> allocation-budget gate (release: the optimized hot paths)"
  cargo test --release -q -p gables-model --test alloc_budget
  cargo test --release -q -p gables-serve --test alloc_budget
fi

echo "==> differential property suite (dual forms, serial vs parallel, CLI vs HTTP)"
GABLES_LOG=debug cargo test -q --test differential

echo "==> parallel determinism suite (forced GABLES_THREADS=2, debug logging on)"
GABLES_THREADS=2 GABLES_LOG=debug cargo test -q --test parallel_determinism

if [ "$QUICK" -eq 0 ]; then
  echo "==> parallel bench smoke (small grid, artifact to target/figures)"
  # Capture the log and check the exit status explicitly: `cargo bench
  # -q` is silent on success, and this guards against any wrapper ever
  # swallowing a nonzero exit from the bench binary itself.
  bench_log="target/bench-smoke.log"
  if ! GABLES_BENCH_SCALE=4 cargo bench -q -p gables-bench --bench parallel \
      >"$bench_log" 2>&1; then
    cat "$bench_log" >&2
    echo "parallel bench smoke failed (log above)" >&2
    exit 1
  fi

  echo "==> benchmark trajectory + perf gate (vs committed BENCH_*.json)"
  sh scripts/perf_gate.sh
fi

if [ "$QUICK" -eq 1 ]; then
  echo "all quick checks passed (run without --quick for the full gate)"
else
  echo "all checks passed"
fi
