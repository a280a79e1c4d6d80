#!/usr/bin/env python3
"""Run both workloads, each in its own process, and print their tables.

    python3 perfbench/report.py [--seed 1] [--seconds 45] [--trace 0]

Exit code 0 when every run exits 0 and reports no failed operation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("decay-bounds", "cli-session")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr, flush=True)
        ok = ok and proc.returncode == 0 and json.loads(lines[-1])["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
