#!/usr/bin/env python3
"""End-to-end benchmark runner.

Builds the perfbench binary (and the library sources it links) from the
checkout with CMake, runs one workload, and prints the binary's result as
the last line of standard output:

    python3 perfbench/run.py --workload fig6 --seed 0 --seconds 10 --trace 0

Workloads: fig6, azure-stream, serve-azure. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics (spans are written to
<build>/spans/). Seed 0 reproduces the repository's default seeds.

    python3 perfbench/run.py --self-test

runs the benchmark's own tests on shrunken geometries: the timing wrappers
must leave every scheme's simulated metrics byte-identical, and every
metric named in BENCHMARK.json must be printed with its unit.

Build output and diagnostics go to standard error. Exits non-zero without
a result if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6", "azure-stream", "serve-azure")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(path)


def build(out):
    """Configure and build incrementally; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def recorded_digests(workload, seed):
    """Metrics digests recorded for this workload and seed, if any."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        table = json.load(f)
    return table.get(workload, {}).get(str(seed), {})


def run_binary(binary, out, args):
    """Run the binary; returns the parsed last stdout line or None."""
    spill = os.path.join(out, "spill")
    os.makedirs(spill, exist_ok=True)
    cmd = [binary, "--spill-dir", spill] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out:", " ".join(cmd))
        return None
    if done.returncode != 0:
        log("perfbench: run failed with exit code", done.returncode)
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("perfbench: run printed no result")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return None
    return result


def workload_args(workload, seed, seconds, trace, out):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(spans, f"{workload}-seed{seed}.json")]
    for scheme, digest in sorted(recorded_digests(workload, seed).items()):
        args += ["--expect-digest", f"{scheme}={digest}"]
    return args


def self_test(binary, out):
    """Byte-identity and metric-name checks on shrunken geometries."""
    if run_binary_status(binary, out, ["--self-test"]) != 0:
        log("self-test: timing wrappers changed simulated metrics")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "0", "--seconds", "0",
                    "--trace", str(trace), "--small"]
            result = run_binary(binary, out, args)
            if result is None:
                failures += 1
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (printed == expected[trace] and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1)
            log(f"self-test {workload} trace={trace}:",
                "ok" if ok else f"FAIL (printed {printed})")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def run_binary_status(binary, out, args):
    spill = os.path.join(out, "spill")
    os.makedirs(spill, exist_ok=True)
    done = subprocess.run([binary, "--spill-dir", spill] + args,
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and opts.workload is None:
        parser.error("--workload is required")
    if opts.seed < 0 or opts.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("perfbench: build failed:", err)
        binary = None
    if binary is None:
        return 1
    if opts.self_test:
        return self_test(binary, out)

    result = run_binary(binary, out, workload_args(
        opts.workload, opts.seed, opts.seconds, opts.trace, out))
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
