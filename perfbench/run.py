#!/usr/bin/env python3
"""Benchmark of heightcount: one workload per process, end to end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; without it the run
fails with exit code 2 and prints no result.  Set-up runs SETUP_REPEATS
times (the median counts); then timed passes repeat until ``--seconds`` of
pass time is spent; each pass's outputs are checked, untimed, before the
next pass starts.  The run re-executes itself with PYTHONHASHSEED=0 so that
every run hashes strings alike.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
spans of the traced ones, plus the tracing overhead; for cli-session it
also times the cold count's scan on one thread and on two to give the
thread speed-up.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, per-pass figures, first failures) and, for traced runs, the
spans are written under perfbench/_runs/.
"""

import os

# numpy must not add BLAS/OpenMP threads to the scan's own threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "_runs"
SETUP_REPEATS = 3
HASH_SEED = "0"
EXIT_NO_PACKAGE = 2

# name, unit, better.  The median op latency is printed but not reported:
# per-point and per-read latencies are multi-modal, and their median moved
# by up to a quarter between runs of the same code on a 2-vCPU VM.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("op_p95_ms", "ms", "lower"),
)


def _share(*names):
    return lambda L: sum(L.self_s.get(n, 0.0) for n in names) / L.traced_wall_s


def _calls(name):
    return lambda L: L.calls.get(name, 0) / L.passes


def _ratio(num, den):
    return num / den if den else 0.0


# name, unit, better, value from the traced passes.  A ".share" is self time
# over traced wall time; the seconds per pass are in the run record.  Shares,
# not seconds, because a layer a workload bypasses reads 0 on every run.
PER_LAYER = (
    ("enumeration.scan_pgl2_adjoint.share", "ratio", "lower", _share("enumeration.scan_pgl2_adjoint")),
    ("enumeration.scan_pgl2_adjoint.calls", "count", "lower", _calls("enumeration.scan_pgl2_adjoint")),
    ("enumeration.spectrum_reads.share", "ratio", "lower", _share("enumeration.PGL2Scan.spectrum", "enumeration.PGL2Scan.histogram")),
    ("enumeration.convolve_counts.share", "ratio", "lower", _share("enumeration.convolve_counts")),
    ("enumeration.count_projective.share", "ratio", "lower", _share("enumeration.count_projective")),
    ("enumeration.count_projective.calls", "count", "lower", _calls("enumeration.count_projective")),
    ("enumeration.points_counted", "count", "higher", lambda L: L.counter("enumeration.scan_pgl2_adjoint", "enumeration.count_projective")),
    ("enumeration.thread_speedup", "ratio", "higher", lambda L: L.thread_speedup),
    ("heights.adjoint_rep.share", "ratio", "lower", _share("heights.adjoint_rep")),
    ("heights.adjoint_rep.calls", "count", "lower", _calls("heights.adjoint_rep")),
    ("heights.smith_exponents.share", "ratio", "lower", _share("heights.smith_exponents")),
    ("heights.smith_exponents.calls", "count", "lower", _calls("heights.smith_exponents")),
    ("heights.cartan_radial_real.share", "ratio", "lower", _share("heights.cartan_radial_real")),
    ("heights.cartan_radial_real.calls", "count", "lower", _calls("heights.cartan_radial_real")),
    ("mixing.verify_bounds.share", "ratio", "lower", _share("mixing.verify_bounds")),
    ("mixing.evaluate_point.share", "ratio", "lower", _share("mixing.evaluate_point")),
    ("mixing.xi_real.share", "ratio", "lower", _share("mixing.xi_real")),
    ("mixing.xi_real.calls", "count", "lower", _calls("mixing.xi_real")),
    ("mixing.xi_padic_squared.share", "ratio", "lower", _share("mixing.xi_padic_squared")),
    ("mixing.lp_probe.share", "ratio", "lower", _share("mixing.lp_probe")),
    ("mixing.finite_places_per_point", "ratio", "lower", lambda L: _ratio(L.calls.get("heights.smith_exponents", 0), L.counter("mixing.verify_bounds") * L.passes)),
    ("zeta.residue_estimate.share", "ratio", "lower", _share("zeta.residue_estimate")),
    ("zeta.tauberian_fit.share", "ratio", "lower", _share("zeta.tauberian_fit")),
    ("zeta.archimedean_factor.share", "ratio", "lower", _share("zeta.archimedean_factor")),
    ("zeta.euler_product_estimate.share", "ratio", "lower", _share("zeta.euler_product_estimate")),
    ("zeta.euler_product_estimate.calls", "count", "lower", _calls("zeta.euler_product_estimate")),
    ("zeta.LocalFactor.evaluate.share", "ratio", "lower", _share("zeta.LocalFactor.evaluate")),
    ("rootdata.manin_invariants.share", "ratio", "lower", _share("rootdata.manin_invariants")),
    ("rootdata.manin_invariants.calls", "count", "lower", _calls("rootdata.manin_invariants")),
    ("cli.main.share", "ratio", "lower", _share("cli.main")),
    ("cli.run.share", "ratio", "lower", _share("cli.run")),
    ("cli.cache_lookup.share", "ratio", "lower", _share("cli.ResultCache.lookup")),
    ("cli.cache_lookup.calls", "count", "lower", _calls("cli.ResultCache.lookup")),
    ("cli.cache_append.share", "ratio", "lower", _share("cli.ResultCache.append")),
    ("cli.cache_append.calls", "count", "lower", _calls("cli.ResultCache.append")),
    ("cli.cache_hits", "count", "higher", lambda L: L.counter("cli.ResultCache.lookup")),
    ("cli.cache_misses", "count", "lower", lambda L: L.calls.get("cli.ResultCache.lookup", 0) / L.passes - L.counter("cli.ResultCache.lookup")),
    ("cli.cache_records", "count", "lower", lambda L: L.cache_records),
    ("cli.scans_per_cold_count", "ratio", "lower", lambda L: L.scans_per_cold_count),
    ("trace.overhead_s", "s", "lower", lambda L: L.overhead_s),
)

# span name -> number read off the call's return value, summed per pass
TRACE_HOOKS = {
    "enumeration.scan_pgl2_adjoint": lambda scan: int(scan.height_counts.sum()),
    "enumeration.count_projective": lambda spectrum: spectrum.total,
    "mixing.verify_bounds": lambda report: report.sample_size,
    "cli.ResultCache.lookup": lambda rec: rec is not None,
}


def load_package():
    """Import heightcount from src/ of this checkout."""
    src = ROOT / "src"
    if not (src / "heightcount" / "__init__.py").is_file():
        print(f"perfbench: no heightcount package under {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)
    sys.path.insert(0, str(src))
    import heightcount

    if Path(heightcount.__file__).resolve().parent != (src / "heightcount").resolve():
        print(f"perfbench: imported heightcount from {heightcount.__file__}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)


def time_import():
    """Seconds a fresh interpreter takes to import heightcount from src/."""
    code = "import time; t = time.perf_counter(); import heightcount; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout)


def source_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heightcount").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def percentile(values, q):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, -(-len(xs) * q // 100) - 1)]


class LayerView:
    """What the per-layer metric functions read."""

    def __init__(self, tracer, untraced, traced, thread_speedup):
        self.passes = max(1, len(traced))
        self.traced_wall_s = sum(p.wall_s for p in traced)
        self.self_s, self.calls = tracer.self_times()
        self._counters = tracer.counters
        self.thread_speedup = thread_speedup
        self.overhead_s = (
            statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
        )
        self.cache_records = statistics.median(p.extra.get("cache_records", 0) for p in traced)
        scans, cold_counts = tracer.calls_in_ops("enumeration.scan_pgl2_adjoint", "count-pgl2")
        self.scans_per_cold_count = _ratio(scans, cold_counts)

    def counter(self, *names):
        return sum(self._counters.get(n, 0) for n in names) / self.passes


def run(workload_name, seed, seconds, trace, size="full", corrupt=None):
    """One benchmark run; returns (result line, full record, workload).

    ``corrupt``, if given, is applied to each pass's outputs before they
    are checked (the self-test uses it to show that bad output fails).
    """
    load_package()
    import spans
    import workloads

    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    RUNS_DIR.mkdir(exist_ok=True)
    tag = f"{workload_name}-{size}-seed{seed}-trace{int(trace)}"
    wl = workloads.WORKLOADS[workload_name](size, seed, RUNS_DIR / f"{tag}-{os.getpid()}", ref)
    session = workloads.Session()
    try:
        imports, setups = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            imports.append(0.0 if trace else time_import())
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)

        # one warm-up pass, checked but not timed: the first pass after
        # set-up is the first to make the full-size allocations and runs slow
        gc.collect()
        wl.check(wl.run_pass(session).out, session)

        tracer = spans.Tracer(TRACE_HOOKS) if trace else None
        untraced, traced = [], []
        # passes run while the next one, as long as the last, still fits
        measured, last = 0.0, 0.0
        while measured + last <= seconds or not untraced or (trace and not traced):
            # every pass starts from the same heap: no garbage left by the last
            gc.collect()
            if trace and len(untraced) > len(traced):
                session.tracer = tracer
                with tracer:
                    p = wl.run_pass(session)
                session.tracer = None
                traced.append(p)
            else:
                p = wl.run_pass(session)
                untraced.append(p)
            measured += p.wall_s
            last = p.wall_s
            # checked between passes, untimed, and dropped so that memory
            # does not grow with the number of passes
            if corrupt is not None:
                corrupt(p.out)
            wl.check(p.out, session)
            p.out = None
        all_passes = untraced + traced
        wl.final_check(session)

        thread_speedup = 0.0
        if trace and workload_name == "cli-session":
            thread_speedup = wl.thread_speedup(session)
    finally:
        wl.cleanup()

    record = {
        "workload": workload_name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "import_s": imports,
        "setup_runs_s": setups,
        "passes": [
            {"traced": p in traced, "wall_s": p.wall_s, "work_s": p.work_s, "points": p.points,
             "op_p50_ms": 1e3 * percentile(p.op_s, 50) if p.op_s else None,
             "op_p95_ms": 1e3 * percentile(p.op_s, 95) if p.op_s else None, **p.extra}
            for p in all_passes
        ],
        "errors": session.errors,
    }
    if trace:
        view = LayerView(tracer, untraced, traced, thread_speedup)
        metrics = {name: (fn(view), unit) for name, unit, _b, fn in PER_LAYER}
        record["traced_wall_s"] = [p.wall_s for p in traced]
        record["untraced_wall_s"] = [p.wall_s for p in untraced]
        record["self_s_per_pass"] = {k: v / view.passes for k, v in sorted(view.self_s.items())}
        record["calls_per_pass"] = {k: v / view.passes for k, v in sorted(view.calls.items())}
        record["spans_file"] = f"{tag}-spans.jsonl.gz"
        tracer.write(RUNS_DIR / record["spans_file"])
    else:
        ops = [x for p in untraced for x in p.op_s]
        metrics = {
            "setup_s": (statistics.median(map(sum, zip(imports, setups))), "s"),
            "wall_s": (statistics.median(p.wall_s for p in untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "points_per_s": (statistics.median(p.points / p.work_s for p in untraced), "1/s"),
            "op_p95_ms": (1e3 * percentile(ops, 95), "ms"),
        }
        record["op_samples"] = len(ops)
        record["op_p50_ms"] = 1e3 * percentile(ops, 50)
        record["cold_phase_s"] = [p.extra["cold_phase_s"] for p in untraced if "cold_phase_s" in p.extra]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": record["metrics"],
    }
    record["result"] = result
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return result, record, wl


def environment():
    import numpy
    import workloads

    return {
        "nproc": os.cpu_count(),
        "scan_threads": workloads.SCAN_THREADS,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy": numpy.__version__,
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def print_table(result, record, wl):
    env = record["env"]
    print(
        f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} passes={len(record['passes'])} nproc={env['nproc']} "
        f"scan_threads={env['scan_threads']} blas_threads={env['blas_threads']} "
        f"python={env['python']} numpy={env['numpy']} commit={env['commit']}"
    )
    for name, m in result["metrics"].items():
        alias = wl.aliases.get(name)
        shown = f"{name} ({alias})" if alias else name
        print(f"{shown:42s} {m['value']:>16.6g} {m['unit']}")
    if "op_samples" in record:
        name = wl.aliases.get("op_p50_ms")
        shown = f"op_p50_ms ({name})" if name else "op_p50_ms"
        print(f"{shown:42s} {record['op_p50_ms']:>16.6g} ms")
        print(f"{'op latency samples':42s} {record['op_samples']:>16d}")
    if record.get("cold_phase_s"):
        print(f"{'cold_phase_s (median)':42s} {statistics.median(record['cold_phase_s']):>16.6g} s")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{'error_rate':42s} {rate:>16.6g} ratio ({result['failed']}/{result['attempted']})")
    for err in record["errors"]:
        print(f"  failed: {err}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("decay-bounds", "cli-session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, record, wl = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result, record, wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # the same string-hash seed in every run, so that dict and set layouts,
    # and with them the cost of the dict-heavy passes, do not vary by process
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
