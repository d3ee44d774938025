#!/usr/bin/env python3
"""Builds and runs the hydra end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --smoke

The first form builds the `hydra-e2e` binary from source (release profile,
into `$CARGO_TARGET_DIR` or `e2ebench/target`), runs one workload and relays
its output. The last line of standard output is the JSON result; it is
printed only when the binary succeeded and its metrics are exactly the ones
`BENCHMARK.json` names for that mode, with the same units.

`--smoke` runs every workload at a tiny scale, untraced and traced, checks
the same checks for each, and prints the tracing overhead row of each
workload.

`ng-hot` runs like the others but is not listed in `BENCHMARK.json`: its
sub-millisecond median drifts with the host by about the 0.25 bound between
runs (see e2ebench/README.md), so it is not a gated workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "e2ebench", "Cargo.toml")
# A run must finish within 180 s; leave the build and start-up some room.
RUN_TIMEOUT_S = 170
UNGATED_WORKLOADS = ["ng-hot"]


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary and returns its path."""
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        fail("cargo build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "e2ebench", "target")
    binary = os.path.join(ROOT, target, "release", "hydra-e2e")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")
    return binary


def revision():
    """The git revision, or a hash of the sources when not in a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("crates", "e2ebench/src"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        with open(os.path.join(ROOT, name), "rb") as f:
            digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_metrics(result, spec, trace):
    """Problems with a result line against the metric list of `spec`."""
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {metrics[name].get('unit')}, not {unit}")
        elif not isinstance(metrics[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def run_once(binary, args, spec, rev):
    """Runs one workload; returns (output lines, parsed result, problems).
    The result line is the last of the output lines."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--rev", rev]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], None, [f"{args.workload} did not finish within {RUN_TIMEOUT_S} s"]
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return lines, None, [f"{args.workload} printed no result (exit {proc.returncode})"]
    problems = check_metrics(result, spec, args.trace == 1)
    if proc.returncode != 0 or result.get("correct") is not True:
        problems.append(f"{args.workload} reported incorrect answers (exit {proc.returncode})")
    return lines, result, problems


def smoke(binary, spec, rev):
    rows = []
    problems = []
    for name in [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=1,
                                      trace=trace, scale="smoke")
            _, result, found = run_once(binary, args, spec, rev)
            problems += found
            status = "ok" if not found else "FAILED"
            print(f"smoke {name:<13} trace {trace}: {status}")
            if trace == 1 and result is not None:
                m = result["metrics"]
                rows.append((name,
                             m.get("trace.overhead_throughput_pct", {}).get("value"),
                             m.get("trace.overhead_latency_p50_pct", {}).get("value")))
    print(f"{'tracing overhead':<16} {'throughput %':>13} {'latency p50 %':>14}")
    for name, tput, p50 in rows:
        print(f"{name:<16} {tput:>13.2f} {p50:>14.2f}")
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny scale and check its output")
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    if not args.smoke and args.workload not in names:
        fail(f"--workload must be one of {names}", code=2)
    binary = build()
    rev = revision()
    if args.smoke:
        sys.exit(smoke(binary, spec, rev))
    args.scale = "full"
    lines, result, problems = run_once(binary, args, spec, rev)
    for line in lines[:-1]:
        print(line)
    if problems:
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        sys.exit(1)
    print(lines[-1])


if __name__ == "__main__":
    main()
