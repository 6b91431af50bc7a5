#!/usr/bin/env python3
"""Canonical end-to-end benchmark of the SpiderCache library.

Run from the root of a source tree:

    python3 perfbench/run.py --workload train_spider --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library sources it compiles) into the build
directory ($CARGO_TARGET_DIR, default .bench_build), runs one workload for
the given number of seconds, checks the output against BENCHMARK.json and
prints a human-readable summary followed, as the last line, by the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer metrics of a traced run. The full result, with
provenance and extra numbers, is also written to <build dir>/results/.
Exits non-zero without a result when the sources are missing, the build
fails or the run produces no valid result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_spider", "train_lru_ssd", "serve_loader")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# A run must finish within 180 s; the first one in a tree may take 900 s
# because it builds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 600


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(root):
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    """{name: unit} of the metrics a --trace run must report."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def validate(result, spec, trace):
    """Problems with `result` as a --trace run's output; empty when valid."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    missing = [k for k in RESULT_KEYS if k not in result]
    if missing:
        return [f"missing keys {missing}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{key} is not a non-negative integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    expected = expected_metrics(spec, trace)
    if set(metrics) != set(expected):
        extra = sorted(set(metrics) - set(expected))
        absent = sorted(set(expected) - set(metrics))
        problems.append(f"metric names differ: extra {extra}, missing {absent}")
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: not a {{value, unit}} object")
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and entry["unit"] != expected[name]:
            problems.append(f"{name}: unit {entry['unit']!r}, "
                            f"expected {expected[name]!r}")
    return problems


def contract_line(result):
    """The final output line: exactly the keys the result format names."""
    return json.dumps({key: result[key] for key in RESULT_KEYS})


def source_digest(root):
    """SHA-256 over the library and benchmark sources, so results from a
    tree without git history can still be told apart."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root):
    """HEAD commit read straight from root/.git (git itself would search
    the directories above the tree); "none" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def run_logged(cmd, log, timeout, env):
    with open(log, "a", encoding="utf-8") as f:
        f.write(f"$ {' '.join(cmd)}\n")
        f.flush()
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=timeout, env=env, check=False).returncode


def build(build_dir, env, deadline):
    """Configures (once) and builds the benchmark; returns the binary."""
    cmake_dir = build_dir / "perfbench"
    log = build_dir / "build.log"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            code = run_logged(cmd, log, max(deadline - time.monotonic(), 1), env)
        except subprocess.TimeoutExpired:
            fail(f"build timed out; see {log}")
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-4000:]
            print(tail, file=sys.stderr)
            fail(f"build failed; see {log}")
    return cmake_dir / "perfbench"


def print_summary(result, trace):
    title = "per-layer (traced run)" if trace else "end-to-end (untraced run)"
    print(f"perfbench {result['provenance'].get('workload')}: {title}")
    for name, entry in sorted(result["metrics"].items()):
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}")
    for name, entry in sorted(result.get("info", {}).items()):
        print(f"  [info] {name:29s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    print("  provenance: " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    start = time.monotonic()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT}")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"BENCHMARK.json not found under {ROOT}")
    spec = load_spec(ROOT)

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp_root = build_dir / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    # Compilers and the benchmark keep their scratch files inside the tree.
    env = dict(os.environ, TMPDIR=str(tmp_root))
    binary = build(build_dir, env, start + BUILD_BUDGET_S)

    run_dir = tmp_root / f"{args.workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    spans = build_dir / "traces" / f"{args.workload}.spans.tsv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp", str(run_dir)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    run_start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_BUDGET_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_BUDGET_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("the benchmark printed no JSON result")
    problems = validate(result, spec, bool(args.trace))
    if problems:
        fail("invalid result: " + "; ".join(problems))

    result["provenance"].update({
        "git_sha": git_sha(ROOT),
        "source_digest": source_digest(ROOT),
        "cpu_count": str(os.cpu_count()),
        "run_wall_s": f"{time.monotonic() - run_start:.3f}",
    })
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")

    print_summary(result, args.trace)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
