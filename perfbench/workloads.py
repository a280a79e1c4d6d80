"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload drives the public API of heightcount from this process and
stresses a different set of layers (the package modules):

* ``decay-bounds`` ``verify_bounds`` on the exhaustive entry box, on seeded
  random primitive matrices with large determinants (more prime places per
  point), and on the diagonal mixing-probe family at p = 2.  All time is in
  ``heights`` and ``mixing``; ``enumeration`` does no work.
* ``cli-session``  in-process ``heightcount.cli.main`` calls against a fresh
  copy of a cache pre-grown with seeded records: a cold phase of misses
  (counts with --csv, for a product group and for projective space,
  zeta --residue, invariants, fit) and a warm phase of seeded repeats that
  hit the cache.  The counting experiment (adjoint-height scans, spectrum
  and histogram reads, convolutions, the Tauberian fit, the residue) runs
  here through the CLI; ``heights`` and ``mixing`` do no work.

Checks run outside the timed region and compare against references
recorded at the seed commit (reference.json) or against independent
oracles; every mismatch counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from heightcount import cli, enumeration, heights, mixing, zeta

clock = time.perf_counter

SCAN_THREADS = 2
PRIMES = (2, 3)
SPEEDUP_REPEATS = 3
REL_TOL = 1e-9

# "full" is what the benchmark measures; "toy" is for the self-test
SIZES = {
    "full": {
        "decay-bounds": {"box": 6, "random": 2000, "entry": 1000, "probe_max_exponent": 20},
        "cli-session": {
            "pregrow": 300,
            "hits": 200,
            "pgl2_grid": (256, 512, 1024, 2048),
            "product_grid": (512, 1024, 2048),
            "projective_grid": (16, 32, 64, 128),
            "fit_grid": (16, 32, 64, 128, 256, 512, 1024, 2048),
            "root_types": ("A2", "B2", "G2", "A1xA1"),
        },
    },
    "toy": {
        "decay-bounds": {"box": 2, "random": 20, "entry": 50, "probe_max_exponent": 20},
        "cli-session": {
            "pregrow": 20,
            "hits": 20,
            "pgl2_grid": (64, 128, 256),
            "product_grid": (128, 256),
            "projective_grid": (8, 16),
            "fit_grid": (16, 32, 64, 128, 256),
            "root_types": ("A2", "A1xA1"),
        },
    },
}


class SetupError(RuntimeError):
    """The workload could not build its inputs."""


class Session:
    """Counts the operations a run attempts and those that fail, and labels
    trace spans with the operation that caused them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None

    def call(self, label, fn, *args, ops=1, **kwargs):
        """Run one operation (``ops`` of them for a batch); an exception
        fails every operation of the batch and returns None."""
        self.attempted += ops
        if self.tracer is not None:
            self.tracer.begin_op(label)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is counted
            self.fail(f"{label}: {type(exc).__name__}: {exc}", ops)
            return None

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(message)


@dataclass(eq=False)
class Pass:
    """One timed pass: its wall time, the kernel part that processes points,
    per-operation latencies, and the outputs checked afterwards."""

    wall_s: float
    work_s: float
    points: int
    op_s: list[float]
    out: dict
    extra: dict = field(default_factory=dict)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def same_json(a, b) -> bool:
    """Structural equality with floats compared to REL_TOL."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and close(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_json, a, b))
    return a == b


class Workload:
    """Inputs from (size, seed); ``setup`` may run several times, each
    ``run_pass`` is timed, ``check`` and ``final_check`` are not."""

    name = ""
    aliases: dict[str, str] = {}  # workload-specific names of the generic metrics

    def __init__(self, size: str, seed: int, workdir: Path, ref: dict):
        self.p = SIZES[size][self.name]
        self.seed = seed
        self.ref = ref[self.name][size] if ref else None
        self.dir = workdir

    def final_check(self, session: Session) -> None:
        """Checks made once per run, after the last pass."""

    def cleanup(self) -> None:
        """Remove what the workload wrote."""


# --------------------------------------------------------------------------
# decay-bounds


def box_sample(box: int) -> list:
    """Every canonical primitive matrix with det != 0 and entries in
    [-box, box] (the population of acceptance criterion 9)."""
    pts = []
    for a, b, c, d in itertools.product(range(-box, box + 1), repeat=4):
        first = next((x for x in (a, b, c, d) if x), None)
        if first is None or first < 0 or a * d - b * c == 0:
            continue
        if math.gcd(math.gcd(a, b), math.gcd(c, d)) != 1:
            continue
        pts.append(heights.PrimitiveMatrix(((a, b), (c, d))))
    return pts


def random_sample(rng: random.Random, n: int, entry: int) -> list:
    """n canonical primitive matrices with det != 0, entries uniform in
    [-entry, entry] (rejection sampling)."""
    pts = []
    while len(pts) < n:
        a, b, c, d = (rng.randint(-entry, entry) for _ in range(4))
        if a * d - b * c == 0 or math.gcd(math.gcd(a, b), math.gcd(c, d)) != 1:
            continue
        first = next(x for x in (a, b, c, d) if x)
        s = 1 if first > 0 else -1
        pts.append(heights.PrimitiveMatrix(((s * a, s * b), (s * c, s * d))))
    return pts


def _timed(sample, gaps: list):
    """Yield the sample, appending the time the consumer spent on each item."""
    for g in sample:
        t0 = clock()
        yield g
        gaps.append(clock() - t0)


def _valuations(n: int) -> set[tuple[int, int]]:
    """{(p, v_p(n))} over the primes dividing n, by trial division."""
    n, out, f = abs(n), set(), 2
    while f * f <= n:
        if n % f == 0:
            v = 0
            while n % f == 0:
                n //= f
                v += 1
            out.add((f, v))
        f += 1
    if n > 1:
        out.add((n, 1))
    return out


class DecayBounds(Workload):
    """Op latency: one sample point inside ``verify_bounds``.  Points: sample
    points over the time in ``verify_bounds``."""

    name = "decay-bounds"
    aliases = {"points_per_s": "verify_points_per_s"}
    EPS, M, PRIME = 0.1, 4, 2

    def setup(self) -> None:
        rng = random.Random(self.seed)
        p = self.PRIME
        self.samples = {
            "exhaustive": box_sample(self.p["box"]),
            "random": random_sample(rng, self.p["random"], self.p["entry"]),
            "probe": [
                heights.PrimitiveMatrix(((p**j, 0), (0, 1)))
                for j in range(self.p["probe_max_exponent"] + 1)
            ],
        }
        mixing.verify_bounds(self.samples["exhaustive"][:50], eps=self.EPS, m=self.M)

    def run_pass(self, session: Session) -> Pass:
        gaps: list[float] = []
        reports = {}
        t0 = clock()
        for part, sample in self.samples.items():
            reports[part] = session.call(
                part,
                mixing.verify_bounds,
                _timed(sample, gaps),
                eps=self.EPS,
                m=self.M,
                lp_prime=self.PRIME,
                lp_exponents=(2.0, 2.5, 3.0),
                ops=len(sample),
            )
        wall = clock() - t0
        n = sum(len(s) for s in self.samples.values())
        return Pass(wall_s=wall, work_s=wall, points=n, op_s=gaps, out=reports)

    def check(self, out: dict, session: Session) -> None:
        for part, rep in out.items():
            if rep is None:
                continue
            n = len(self.samples[part])
            if rep.lower_sandwich_violations:
                session.fail(f"{part}: {rep.lower_sandwich_violations} sandwich violations",
                             min(n, rep.lower_sandwich_violations))
            if rep.sample_size != n:
                session.fail(f"{part}: sample_size {rep.sample_size}, want {n}")
            if part == "random":
                if not (0 < rep.c_eps < math.inf and 0 < rep.c_height < math.inf):
                    session.fail("random: constants not finite and positive")
                continue
            ref = self.ref[part]
            if not (close(rep.c_eps, ref["c_eps"]) and close(rep.c_height, ref["c_height"])):
                session.fail(f"{part}: c_eps/c_height {rep.c_eps}/{rep.c_height} differ from the reference")
            if part == "probe":
                div, con = rep.lp_partial_sums[2.0], rep.lp_partial_sums[3.0]
                if not (div[-1] / div[0] > 10 and abs(con[-1] - con[-2]) < 1e-8):
                    session.fail("probe: L^p trends wrong")

    def final_check(self, session: Session) -> None:
        """Oracle: at every finite place the p-adic level of a random point
        is v_p(det)."""
        for g in self.samples["random"]:
            got = {
                (ev.place.p, ev.radial.exponents[-1])
                for ev in mixing.evaluate_point(g)
                if ev.place.is_finite
            }
            if got != _valuations(g.det()):
                session.fail(f"levels of {g.entries}: {sorted(got)}")


# --------------------------------------------------------------------------
# cli-session


def _count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def convolution_oracle(hc: np.ndarray, w1: int, w2: int, T: int) -> int:
    """#{(g, h): H(g)^w1 H(h)^w2 < T} as a direct double sum over heights."""
    h = np.nonzero(hc)[0].astype(np.int64)
    c = hc[h].astype(np.int64)
    h1, h2 = h**w1, h**w2
    total = 0
    # blocks of 64 rows keep the temporaries near 1 MB, below the peak
    # resident set of the passes
    for lo in range(0, len(h), 64):
        mask = h2[lo : lo + 64, None] * h1[None, :] < T
        total += int((c[lo : lo + 64, None] * (mask * c[None, :])).sum())
    return total


def _pregrow_candidates() -> list[list[str]]:
    """Cheap distinct queries of the kinds a long-lived cache accumulates
    (the probe stops at p^12: far larger levels are numerically singular)."""
    primes = zeta.primes_below(50)
    out = [["zeta", "--primes", str(p), "--at", str(s)] for p in primes for s in range(2, 13)]
    out += [["count", "--target", "projective:1", "--grid", str(t)] for t in range(2, 151)]
    out += [
        ["mixing-probe", "--prime", str(p), "--max-exponent", str(k)]
        for p in (2, 3, 5, 7)
        for k in range(1, 13)
    ]
    return out


class CliSession(Workload):
    """Op latency: one CLI call answered from the cache.  Points: the
    points the cold pgl2-adjoint and projective ``count`` commands report at
    their top threshold, over those commands' time."""

    name = "cli-session"
    aliases = {"op_p50_ms": "hit_p50_ms", "op_p95_ms": "hit_p95_ms"}

    def __init__(self, size: str, seed: int, workdir: Path, ref: dict):
        super().__init__(size, seed, workdir, ref)
        self.base = workdir / "base.jsonl"
        self.cache = workdir / "session.jsonl"
        self.csv = workdir / "spectrum.csv"
        self._product_totals: dict[int, int] = {}

    def _main(self, cache: Path, argv: list[str], csv: Path | None = None):
        full = ["--cache", str(cache), "--json", "--threads", str(SCAN_THREADS)]
        if csv is not None:
            full += ["--csv", str(csv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(full + argv)
        return code, out.getvalue()

    def cold_commands(self) -> list[tuple[str, list[str], Path | None]]:
        p = self.p
        grid = lambda g: ",".join(map(str, g))  # noqa: E731
        cmds = [
            ("count-pgl2", ["count", "--target", "pgl2-adjoint", "--grid", grid(p["pgl2_grid"]), "--primes", "2,3"], self.csv),
            ("count-product", ["count", "--target", "product-pgl2:1,2", "--grid", grid(p["product_grid"])], None),
            ("count-projective", ["count", "--target", "projective:2", "--grid", grid(p["projective_grid"])], None),
            ("zeta-residue", ["zeta", "--residue"], None),
        ]
        cmds += [(f"invariants-{t}", ["invariants", "--type", t], None) for t in p["root_types"]]
        cmds.append(("fit", ["fit", "--count-grid", grid(p["fit_grid"])], None))
        return cmds

    @staticmethod
    def _single_queries(argv: list[str]) -> list[list[str]]:
        """The one-record queries a cold command's records answer, in
        output order."""
        if "--grid" not in argv:
            return [argv]
        i = argv.index("--grid")
        return [argv[: i + 1] + [t] + argv[i + 2 :] for t in argv[i + 1].split(",")]

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        rng = random.Random(self.seed)
        self.pregrown = []
        for argv in rng.sample(_pregrow_candidates(), self.p["pregrow"]):
            code, out = self._main(self.base, argv)
            if code != 0:
                raise SetupError(f"pre-growing the cache: {argv} exited {code}")
            self.pregrown.append((argv, out))
        self.base_records = _count_lines(self.base)
        self.cold = self.cold_commands()
        # each hit repeats one earlier query: ("cold", index) or ("pregrown", index)
        pool = [("pregrown", i) for i in range(len(self.pregrown))]
        for label, argv, _csv in self.cold:
            pool += [("cold", (label, j)) for j in range(len(self._single_queries(argv)))]
        self.hits = rng.choices(pool, k=self.p["hits"])
        # warm-up: one miss and one hit on a scratch cache
        scratch = self.dir / "warmup.jsonl"
        for _ in range(2):
            self._main(scratch, ["count", "--target", "pgl2-adjoint", "--grid", "64", "--primes", "2,3"])
        scratch.unlink()

    def _hit_argv(self, key) -> list[str]:
        kind, idx = key
        if kind == "pregrown":
            return self.pregrown[idx][0]
        label, j = idx
        argv = next(a for lab, a, _ in self.cold if lab == label)
        return self._single_queries(argv)[j]

    def run_pass(self, session: Session) -> Pass:
        shutil.copyfile(self.base, self.cache)
        self.csv.unlink(missing_ok=True)
        cold, hits, op_s = {}, [], []
        t0 = clock()
        for label, argv, csv in self.cold:
            c0 = clock()
            cold[label] = (session.call(label, self._main, self.cache, argv, csv), clock() - c0)
        cold_s = clock() - t0
        for key in self.hits:
            argv = self._hit_argv(key)
            h0 = clock()
            hits.append((key, session.call("hit", self._main, self.cache, argv)))
            op_s.append(clock() - h0)
        wall = clock() - t0
        records = _count_lines(self.cache)
        csv_sha = hashlib.sha256(self.csv.read_bytes()).hexdigest() if self.csv.exists() else None
        points, work_s = 0, 0.0
        for label in ("count-pgl2", "count-projective"):
            res, dt = cold[label]
            if res is not None and res[0] == 0:
                points += json.loads(res[1].splitlines()[-1])["payload"]["total"]
            work_s += dt
        return Pass(
            wall_s=wall,
            work_s=work_s,
            points=points,
            op_s=op_s,
            out={"cold": cold, "hits": hits, "records": records, "csv_sha": csv_sha},
            extra={"cold_phase_s": cold_s, "cache_records": records},
        )

    def _product_total(self, T: int) -> int:
        """The product count at T by the convolution oracle, over the
        heights of a separate scan (computed once per run, untimed)."""
        if not self._product_totals:
            hc = enumeration.scan_pgl2_adjoint(max(self.p["product_grid"]), (), threads=SCAN_THREADS).height_counts
            self._product_totals = {t: convolution_oracle(hc, 1, 2, t) for t in self.p["product_grid"]}
        return self._product_totals.get(T)

    def check(self, out: dict, session: Session) -> None:
        expected_lines, checked = {}, set()
        for label, argv, _csv in self.cold:
            res, _dt = out["cold"][label]
            if res is None:
                continue
            code, text = res
            lines = text.splitlines()
            payloads = [json.loads(line)["payload"] for line in lines] if code == 0 else None
            if payloads is None or not same_json(payloads, self.ref["cold"][label]):
                session.fail(f"{label}: exit {code} or payload differs from the reference")
                continue
            checked.add(label)
            for j, line in enumerate(lines):
                expected_lines[(label, j)] = line + "\n"
        if "count-product" in checked:
            (_code, text), _dt = out["cold"]["count-product"]
            for line in text.splitlines():
                payload = json.loads(line)["payload"]
                if payload["total"] != self._product_total(payload["T"]):
                    session.fail(f"count-product at {payload['T']}: total disagrees with the double sum")
        if out["csv_sha"] != self.ref["csv_sha256"]:
            session.fail("count-pgl2: CSV spectrum differs from the reference")
        for key, res in out["hits"]:
            if res is None:
                continue
            kind, idx = key
            want = self.pregrown[idx][1] if kind == "pregrown" else expected_lines.get(idx)
            if res[0] != 0 or res[1] != want:
                session.fail(f"hit {self._hit_argv(key)}: exit {res[0]} or output not byte-identical")
        want_records = self.base_records + self.ref["cold_records"]
        if out["records"] != want_records:
            session.fail(f"cache holds {out['records']} records, want {want_records}")

    def thread_speedup(self, session: Session) -> float:
        """Time of the cold count's scan on one thread over its time on
        SCAN_THREADS threads, each the median of SPEEDUP_REPEATS scans run
        alternately; the two scans must agree."""
        T = max(self.p["pgl2_grid"])
        times: dict[int, list[float]] = {1: [], SCAN_THREADS: []}
        scans = {}
        for _ in range(SPEEDUP_REPEATS):
            for threads, ts in times.items():
                t0 = clock()
                scans[threads] = session.call(
                    f"scan-{threads}-thread", enumeration.scan_pgl2_adjoint, T, PRIMES, threads=threads
                )
                ts.append(clock() - t0)
                if scans[threads] is None:
                    return 0.0
        one, many = scans[1], scans[SCAN_THREADS]
        if not np.array_equal(one.height_counts, many.height_counts) or any(
            not np.array_equal(one.joint[p], many.joint[p]) for p in PRIMES
        ):
            session.fail("scan-1-thread: counts differ from the threaded scan")
        return statistics.median(times[1]) / statistics.median(times[SCAN_THREADS])

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DecayBounds, CliSession)}
