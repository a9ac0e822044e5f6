#!/usr/bin/env python3
"""Golden-file check for a bench binary's JSON output schema.

Runs ``<bench> <args> --json <tmp>`` and compares the sorted set of
dot-notation key paths in the produced JSON against the committed
golden file. Values are deliberately ignored -- timings are
machine-dependent -- but a key that appears, disappears or moves is a
schema change that downstream consumers (the --baseline gates, CI
dashboards) must hear about, so it must be made consciously by
re-running with --update.

Usage:
    check_bench_schema.py PATH_TO_BENCH [--golden PATH] [--args "..."]
                          [--json-flag FLAG] [--update]

Defaults check bench_sim: golden file tests/golden/bench_sim_schema.txt,
args "--smoke", JSON output requested via --json. Binaries that spell
the flag differently (live_serve writes its stats snapshot via
--stats-json) pass --json-flag.
"""

import argparse
import json
import pathlib
import shlex
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_GOLDEN = REPO / "tests" / "golden" / "bench_sim_schema.txt"
DEFAULT_ARGS = "--smoke"


def key_paths(value, prefix=""):
    """Sorted dot-notation paths of every key in a JSON document."""
    paths = []
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.append(path)
            paths.extend(key_paths(child, path))
    elif isinstance(value, list):
        # Element schema only; indices are not part of the shape.
        for child in value:
            paths.extend(key_paths(child, prefix + "[]"))
    return sorted(set(paths))


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("bench", help="path to the bench binary")
    parser.add_argument("--golden", type=pathlib.Path,
                        default=DEFAULT_GOLDEN,
                        help="golden key-path file to compare against")
    parser.add_argument("--args", default=DEFAULT_ARGS,
                        help="bench arguments (one shell-quoted string)")
    parser.add_argument("--json-flag", default="--json",
                        help="flag the binary takes its JSON output "
                             "path through (default --json)")
    parser.add_argument("--update", action="store_true",
                        help="re-bless the golden file")
    opts = parser.parse_args(argv[1:])

    with tempfile.TemporaryDirectory() as tmp:
        out_path = pathlib.Path(tmp) / "bench.json"
        cmd = ([opts.bench] + shlex.split(opts.args)
               + [opts.json_flag, str(out_path)])
        result = subprocess.run(cmd, capture_output=True, text=True)
        if result.returncode != 0:
            print(result.stdout, file=sys.stderr)
            print(result.stderr, file=sys.stderr)
            print(f"FAIL: {' '.join(cmd)} exited {result.returncode}",
                  file=sys.stderr)
            return 1
        document = json.loads(out_path.read_text())

    actual = key_paths(document)
    if opts.update:
        opts.golden.parent.mkdir(parents=True, exist_ok=True)
        opts.golden.write_text("\n".join(actual) + "\n")
        print(f"updated {opts.golden} ({len(actual)} key paths)")
        return 0

    if not opts.golden.exists():
        print(f"FAIL: golden file {opts.golden} missing; "
              "run with --update", file=sys.stderr)
        return 1
    expected = opts.golden.read_text().split()
    if actual != expected:
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        for path in missing:
            print(f"FAIL: key path disappeared: {path}", file=sys.stderr)
        for path in extra:
            print(f"FAIL: new key path not in golden: {path}",
                  file=sys.stderr)
        print(f"(update consciously with: {argv[0]} {opts.bench} "
              f"--golden {opts.golden} --args={opts.args!r} --update)",
              file=sys.stderr)
        return 1
    print(f"OK: {len(actual)} key paths match {opts.golden.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
