#!/usr/bin/env python3
"""End-to-end benchmark of `gables serve` (see perfbench/README.md).

    python3 perfbench/run.py --workload eval_hot --seed 1 --seconds 38 --trace 0

Run from the repository root. It builds the release `gables` binary and
the benchmark's two programs (into $CARGO_TARGET_DIR, default
`.bench_build`, which also takes the run's files), then:

* `--trace 0`: runs the load generator against a `gables serve` process
  and prints the end-to-end metrics;
* `--trace 1`: runs the load generator's short server phases plus the
  replica-hop probe, then the traced in-process replay, and prints the
  per-layer metrics.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("eval_hot", "batch_cold", "carm", "fleet_eval")

END_TO_END = (
    ("items_per_s", "items/s"),
    ("latency_p50_us", "us"),
    ("server_cpu_us_per_item", "us"),
    ("server_rss_kib", "KiB"),
    ("setup_s", "s"),
)

# Per-layer metric -> (unit, source): "load" values come from the server
# phases, "trace" values from the in-process replay.
PER_LAYER = (
    ("serve.overhead_us", "us", None),
    ("serve.http.parse_ns", "ns", "trace"),
    ("serve.http.serialize_ns", "ns", "trace"),
    ("serve.metrics.record_ns", "ns", "trace"),
    ("serve.flight.record_ns", "ns", "trace"),
    ("serve.cache.get_ns", "ns", "trace"),
    ("serve.cache.insert_ns", "ns", "trace"),
    ("serve.cache.hit_ratio", "ratio", "load:hit_ratio"),
    ("serve.rejected", "count", "load:rejected"),
    ("serve.status_5xx", "count", "load:status_5xx"),
    ("cli.serve.dispatch_us", "us", "trace"),
    ("cli.spec.parse_ns", "ns", "trace"),
    ("cli.eval.render_ns", "ns", "trace"),
    ("model.evaluate_ns", "ns", "trace"),
    ("model.json.parse_us", "us", "trace"),
    ("cli.carm.report_ms", "ms", "trace"),
    ("cli.carm.render_ms", "ms", "trace"),
    ("sim.ladder_ms", "ms", "trace"),
    ("sim.accesses_per_item", "count", "trace"),
    ("sim.ns_per_access", "ns", "trace"),
    ("cli.fleet.shard_for_ns", "ns", "trace"),
    ("cli.fleet.hop_us", "us", "load:hop_us"),
    ("cli.fleet.conns_per_item", "ratio", "load:hop_conns_per_item"),
    ("trace.overhead_pct", "%", "trace"),
)

# Share of --seconds the traced replay gets in a --trace 1 run; the load
# generator's short phases and hop probe take most of the rest.
TRACE_SHARE = 0.5

# Every integer names a seed: the programs take it modulo 2^64.
SEED_SPACE = 2 ** 64


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cargo_build(args, target_dir):
    """Builds with cargo and returns {binary name: path} for the
    executables it reports, wherever the cargo configuration puts them."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # rustup installs cargo here, which a non-login PATH may lack.
    cargo = shutil.which("cargo") or os.path.expanduser("~/.cargo/bin/cargo")
    if not os.path.isfile(cargo):
        fail("cargo is not on PATH")
    proc = subprocess.run([cargo, "build", "--release", "--offline", "--quiet",
                           "--message-format=json-render-diagnostics"] + args,
                          env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")
    executables = {}
    for line in proc.stdout.splitlines():
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if message.get("reason") == "compiler-artifact" and message.get("executable"):
            executables[message["target"]["name"]] = message["executable"]
    return executables


def number(value):
    """A metric for the readable table: NaN where the program had none."""
    return float("nan") if value is None else value


def run_json(cmd, env=None):
    """Runs one benchmark program, echoes its report lines, and returns
    the JSON object on its last line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{os.path.basename(cmd[0])} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    built = cargo_build(["-p", "gables-cli", "--bin", "gables"], target_dir)
    built.update(cargo_build(["--manifest-path", "perfbench/Cargo.toml"], target_dir))
    for name in ("gables", "perfbench-load", "perfbench-trace"):
        if name not in built:
            fail(f"cargo reported no {name} executable")
    # The build directory is writable wherever the build ran.
    work_dir = os.path.join(target_dir, "perfbench-runs")
    os.makedirs(work_dir, exist_ok=True)

    seed = opts.seed % SEED_SPACE
    common = ["--workload", opts.workload, "--seed", str(seed)]
    load = run_json([built["perfbench-load"], "--gables", built["gables"],
                     "--seconds", str(opts.seconds),
                     "--mode", "layers" if opts.trace else "e2e", "--work-dir", work_dir]
                    + common)
    for error in load["errors"]:
        print(f"error: {error}", file=sys.stderr)
    correct = load["correct"]
    attempted = load["attempted"]
    failed = load["failed"]

    metrics = {}
    if not opts.trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": load[name], "unit": unit}
        print(f"latency: p50 {number(load['latency_p50_us']):.1f} us, "
              f"p{load['latency_tail_pct']} {number(load['latency_tail_us']):.1f} us "
              f"over {load['latency_samples']} requests (tail not gated)")
    else:
        spans = os.path.join(work_dir, f"spans-{opts.workload}-{seed}.jsonl")
        trace = run_json([built["perfbench-trace"], "--seconds",
                          str(TRACE_SHARE * opts.seconds), "--spans", spans] + common,
                         env=dict(os.environ, GABLES_THREADS="1"))
        print(f"spans: {spans}")
        attempted += trace["attempted"]
        failed += trace["failed"]
        correct = correct and trace["failed"] == 0
        for name, unit, source in PER_LAYER:
            if source is None:
                value = number(load["latency_p50_us"]) - number(trace["cli.serve.dispatch_us"])
            elif source == "trace":
                value = trace[name]
            else:
                value = load[source.split(":", 1)[1]]
            metrics[name] = {"value": value, "unit": unit}

    for name, m in metrics.items():
        print(f"{name:<26} {number(m['value']):>16.4f} {m['unit']}")
        if m["value"] is None or m["value"] != m["value"]:
            print(f"error: no value for {name}", file=sys.stderr)
            m["value"] = None
            correct = False
    print(f"attempted {attempted} items, failed {failed}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
