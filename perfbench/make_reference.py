#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the root of a source checkout at the commit whose outputs are the
reference (the outputs are meant never to change):

    python3 perfbench/make_reference.py

It writes perfbench/reference.json: for each size ("full" and "toy") the
decay-bounds constants of the exhaustive box and the diagonal probe, and
the cli-session cold-phase payloads, CSV digest and number of records the
cold phase appends.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as W  # noqa: E402
from heightcount import mixing  # noqa: E402


def decay_reference(size):
    wl = W.DecayBounds(size, 0, None, None)
    wl.setup()
    out = {}
    for part in ("exhaustive", "probe"):
        rep = mixing.verify_bounds(wl.samples[part], eps=wl.EPS, m=wl.M, lp_prime=wl.PRIME)
        assert rep.lower_sandwich_violations == 0
        out[part] = {"sample_size": rep.sample_size, "c_eps": rep.c_eps, "c_height": rep.c_height}
    return out


def cli_reference(size):
    workdir = BENCH_DIR / "_runs" / f"reference-{size}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = W.CliSession(size, 0, workdir, None)
    cold = {}
    for label, argv, csv in wl.cold_commands():
        code, text = wl._main(wl.cache, argv, csv)
        assert code == 0, (label, code)
        cold[label] = [json.loads(line)["payload"] for line in text.splitlines()]
    out = {
        "cold": cold,
        "csv_sha256": hashlib.sha256(wl.csv.read_bytes()).hexdigest(),
        "cold_records": W._count_lines(wl.cache),
    }
    shutil.rmtree(workdir)
    return out


def main():
    ref = {"decay-bounds": {}, "cli-session": {}}
    for size in W.SIZES:
        ref["decay-bounds"][size] = decay_reference(size)
        ref["cli-session"][size] = cli_reference(size)
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
