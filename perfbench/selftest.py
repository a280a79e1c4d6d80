#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (scans to T = 256, |entry| <= 2, 20 hits).

    python3 perfbench/selftest.py

Checks that every workload passes its output checks, that a deliberately
corrupted output is counted as failed, that traced self times sum to no
more than the traced wall time, that BENCHMARK.json (when present) names
exactly the metrics the code reports, and that the benchmark exits non-zero
without a result when the package sources are missing.  Exit code 0 when
all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 5
SECONDS = 0.3


def _corrupt_decay(out):
    if out["exhaustive"] is not None:
        out["exhaustive"].c_eps *= 1.001


def _corrupt_cli(out):
    key, (code, text) = out["hits"][0]
    out["hits"][0] = (key, (code, text.replace('"payload": {', '"payload": { ', 1)))


CORRUPTIONS = {
    "decay-bounds": _corrupt_decay,
    "cli-session": _corrupt_cli,
}


def check_benchmark_json(problems):
    path = run.ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    bench = json.loads(path.read_text())
    spec = {
        "end_to_end": [(n, u, b) for n, u, b in run.END_TO_END],
        "per_layer": [(n, u, b) for n, u, b, _fn in run.PER_LAYER],
    }
    for key, want in spec.items():
        got = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if got != want:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")
    names = [w["name"] for w in bench["workloads"]]
    if names != ["decay-bounds", "cli-session"]:
        problems.append(f"BENCHMARK.json workloads {names}")


def check_bare_directory(problems):
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = run.RUNS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__")
    )
    if (run.ROOT / "BENCHMARK.json").exists():
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("a directory without src/ still produced a result")


def main():
    problems = []
    for name, corrupt in CORRUPTIONS.items():
        result, record, _wl = run.run(name, SEED, SECONDS, False, size="toy")
        if not result["correct"] or result["failed"]:
            problems.append(f"{name}: toy run failed its checks: {record['errors']}")
        if set(result["metrics"]) != {n for n, _u, _b in run.END_TO_END}:
            problems.append(f"{name}: end-to-end metrics {sorted(result['metrics'])}")

        result, record, _wl = run.run(name, SEED, SECONDS, False, size="toy", corrupt=corrupt)
        if result["failed"] < len(record["passes"]):
            problems.append(f"{name}: corrupted outputs counted {result['failed']} failures")

        result, record, _wl = run.run(name, SEED, SECONDS, True, size="toy")
        if not result["correct"]:
            problems.append(f"{name}: traced toy run failed its checks: {record['errors']}")
        if set(result["metrics"]) != {n for n, _u, _b, _f in run.PER_LAYER}:
            problems.append(f"{name}: per-layer metrics {sorted(result['metrics'])}")
        if name == "cli-session" and not result["metrics"]["enumeration.thread_speedup"]["value"] > 0:
            problems.append("cli-session: traced run gave no thread speed-up")
        self_sum = sum(record["self_s_per_pass"].values())
        wall = sum(record["traced_wall_s"]) / len(record["traced_wall_s"])
        if self_sum > wall:
            problems.append(f"{name}: self times {self_sum:.6f} s exceed traced wall {wall:.6f} s")
        print(f"{name}: traced self time {self_sum:.4f} s of {wall:.4f} s wall per pass")
    check_benchmark_json(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
