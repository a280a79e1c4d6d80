"""Experiment driver: subcommands, JSON-lines results cache, reproducibility.

Subcommands
-----------
invariants    growth exponents (a, b, critical set, saturation) from root data
count         exact point counts over a threshold grid (projective / pgl2 /
              weighted products), with per-prime Cartan histograms
zeta          local factors, Euler product, residue extrapolation
fit           Tauberian fit of a counted grid
mixing-probe  decay-function sandwich constants and L^p trend tables
equidist      empirical Cartan-cell frequencies vs the model prediction

Results are cached in an append-only JSON-lines file keyed by a digest of
the canonicalized parameters; identical parameters always produce identical
payloads (wall time and timestamps live outside the payload), so cache hits
are byte-faithful.  Records from a different tool version are ignored
unless --allow-stale is given.  Each record is appended with one write(2)
on an O_APPEND descriptor, which local Linux filesystems apply atomically,
so there concurrent writers do not interleave inside a line (NFS gives no
such guarantee).  A process indexes each cache file once, digest -> records in file
order: a lookup reads the file, parses only the complete lines appended
since the last lookup, and indexes the file again from scratch when its
bytes no longer start with the ones already indexed (a copy or rewrite).

Exit codes: 0 success, 2 invalid configuration, 3 resource guard tripped,
4 internal invariant violation (including cache corruption).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .rootdata import (
    GaloisOrbits,
    RootDataError,
    adjoint_weight_root_coords,
    manin_invariants,
    named_root_system,
    parse_root_system_config,
    weight_to_root_basis,
)
from .enumeration import (
    ResourceGuardError,
    cartan_statistics,
    convolve_counts,
    count_projective,
    scan_pgl2_adjoint,
)
from .zeta import (
    ZetaError,
    local_factor_pgl2_adjoint,
    model_cell_probabilities,
    residue_estimate,
    tauberian_fit,
)
from .mixing import MixingError, verify_bounds
from .heights import PrimitiveMatrix, _is_prime

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    pass


# --------------------------------------------------------------------------
# config and records


@dataclass
class ExperimentConfig:
    subcommand: str
    parameters: dict[str, str]
    grid: list[int] = field(default_factory=list)
    cache_path: str = "heightcount_cache.jsonl"
    threads: int = 1
    seed: int = 0
    allow_stale: bool = False
    audit_rate: int = 0  # re-verify ~1 in N cache hits; 0 disables

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("grid must be strictly increasing")


@dataclass
class ResultRecord:
    params_digest: str
    payload: dict
    created_at: str
    tool_version: str
    wall_time: float = 0.0

    def line(self) -> str:
        return json.dumps(
            {
                "digest": self.params_digest,
                "tool_version": self.tool_version,
                "created_at": self.created_at,
                "wall_time": self.wall_time,
                "payload": self.payload,
            },
            sort_keys=True,
        )


_digits_lock = threading.Lock()
_digits_depth = 0
_digits_saved = 0


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on int <-> decimal str conversions while any
    thread is inside a block: exact counts of projective spectra pass 4300
    digits.  The limit is process-wide, so blocks may nest and overlap
    across threads; the last one out restores the limit the first one met."""
    global _digits_depth, _digits_saved
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.11
        yield
        return
    with _digits_lock:
        if _digits_depth == 0:
            _digits_saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _digits_depth += 1
    try:
        yield
    finally:
        with _digits_lock:
            _digits_depth -= 1
            if _digits_depth == 0:
                sys.set_int_max_str_digits(_digits_saved)


def canonical_params(subcommand: str, params: dict) -> str:
    """Sorted-key JSON with exact values rendered as strings ('p/q' for
    rationals); the digest preimage."""

    def norm(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        if isinstance(v, (list, tuple)):
            return [norm(x) for x in v]
        if isinstance(v, dict):
            return {str(k): norm(x) for k, x in sorted(v.items())}
        return v

    return json.dumps({"subcommand": subcommand, "params": norm(params)}, sort_keys=True)


def params_digest(subcommand: str, params: dict) -> str:
    return hashlib.sha256(canonical_params(subcommand, params).encode()).hexdigest()


# --------------------------------------------------------------------------
# cache


def _parse_record(text: bytes) -> ResultRecord:
    """One cache line as a record; raises ValueError, KeyError or TypeError
    if it is malformed."""
    obj = json.loads(text)
    return ResultRecord(
        params_digest=obj["digest"],
        payload=obj["payload"],
        created_at=obj["created_at"],
        tool_version=obj["tool_version"],
        wall_time=obj.get("wall_time", 0.0),
    )


def _warn_malformed(lineno: int, exc: Exception) -> None:
    print(f"warning: skipping malformed cache line {lineno}: {exc}", file=sys.stderr)


class _CacheIndex:
    """The records of a cache file's newline-terminated prefix, by digest."""

    def __init__(self):
        self.prefix = b""  # the bytes indexed so far, ending in a newline
        self.lines = 0
        self.skipped_lines = 0
        # digest -> [(tool_version, start, end) of its lines in prefix], in file order
        self.by_digest: dict[str, list[tuple[str, int, int]]] = {}

    def extend(self, data: bytes, end: int) -> None:
        """Index the lines of data[len(prefix):end]; data must start with
        the prefix and data[end - 1] be a newline."""
        pos = len(self.prefix)
        while pos < end:
            stop = data.index(b"\n", pos)
            self.lines += 1
            line = data[pos:stop]
            if line.strip():
                try:
                    rec = _parse_record(line)
                    self.by_digest.setdefault(rec.params_digest, []).append(
                        (rec.tool_version, pos, stop)
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    self.skipped_lines += 1
                    _warn_malformed(self.lines, exc)
            pos = stop + 1
        self.prefix = data if end == len(data) else data[:end]


# absolute cache path -> its index, shared by every ResultCache of the process
_INDEXES: dict[str, _CacheIndex] = {}


class ResultCache:
    """Append-only JSON-lines store; malformed lines are skipped and counted.

    ``skipped_lines`` is the number of malformed lines the last lookup met in
    the file.  Each is warned about when its line is first indexed; an
    unterminated last line is parsed again, and warned about, on every
    lookup until a newline completes it.  Integers past Python's 4300-digit
    str conversion limit parse and print only inside
    ``_unlimited_int_digits``, as ``run`` and ``main`` use the cache;
    elsewhere a line holding one counts as malformed.
    """

    def __init__(self, path: str, tool_version: str, allow_stale: bool = False):
        self.path = path
        self.tool_version = tool_version
        self.allow_stale = allow_stale
        self.skipped_lines = 0

    def _index(self) -> tuple[_CacheIndex, bytes]:
        """The file's index, brought up to date, and its unterminated tail."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        key = os.path.abspath(self.path)
        index = _INDEXES.get(key)
        if index is None or not data.startswith(index.prefix):
            index = _INDEXES[key] = _CacheIndex()
        end = data.rfind(b"\n") + 1
        if end > len(index.prefix):
            index.extend(data, end)
        return index, data[end:]

    def _current(self, version) -> bool:
        return version == self.tool_version or self.allow_stale

    def lookup(self, digest: str) -> ResultRecord | None:
        """The last record for ``digest`` under the version policy, with a
        payload of its own."""
        index, tail = self._index()
        self.skipped_lines = index.skipped_lines
        if tail.strip():
            try:
                rec = _parse_record(tail)
            except (ValueError, KeyError, TypeError) as exc:
                self.skipped_lines += 1
                _warn_malformed(index.lines + 1, exc)
            else:
                if rec.params_digest == digest and self._current(rec.tool_version):
                    return rec  # last write wins
        for version, start, end in reversed(index.by_digest.get(digest, ())):
            if self._current(version):
                return _parse_record(index.prefix[start:end])
        return None

    def append(self, rec: ResultRecord) -> None:
        data = (rec.line() + "\n").encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # one write(2) per record: on an O_APPEND descriptor a local Linux
            # filesystem places it whole at the end of the file, so concurrent
            # appends do not interleave there; the loop only finishes a short
            # write (a signal, a full disk), which may then split the line
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)


# --------------------------------------------------------------------------
# subcommand payload builders (pure: params -> payload dict)


def _parse_target(target: str):
    if target.startswith("projective:"):
        return ("projective", int(target.split(":", 1)[1]))
    if target == "pgl2-adjoint":
        return ("pgl2", None)
    if target.startswith("product-pgl2:"):
        w = target.split(":", 1)[1]
        w1, w2 = (int(x) for x in w.split(","))
        return ("product", (w1, w2))
    raise ConfigError(f"unknown target {target!r}")


def _spectrum_digest(spectrum) -> str:
    body = "\n".join(f"{h},{c}" for h, c in sorted(spectrum.counts.items()))
    return hashlib.sha256(body.encode()).hexdigest()


def payload_invariants(params: dict) -> dict:
    if "config_text" in params:
        rs, gal = parse_root_system_config(params["config_text"])
    else:
        rs = named_root_system(params["type"])
        gal = (
            GaloisOrbits(tuple(frozenset(o) for o in json.loads(params["galois"])))
            if params.get("galois")
            else GaloisOrbits.trivial(rs.rank)
        )
    weight = params.get("weight", "adjoint")
    if weight == "adjoint":
        if "type" not in params:
            raise ConfigError("--weight adjoint needs a named --type")
        m = [Fraction(x) for x in adjoint_weight_root_coords(params["type"])]
    else:
        fund = [Fraction(x) for x in weight.split(",")]
        m = list(weight_to_root_basis(rs, fund))
    inv = manin_invariants(rs, m, gal)
    return {
        "label": rs.label,
        "rank": rs.rank,
        "u": list(inv.u),
        "m": [f"{x.numerator}/{x.denominator}" for x in m],
        "a": f"{inv.a.numerator}/{inv.a.denominator}",
        "b": inv.b,
        "delta_iota": sorted(inv.delta_iota),
        "saturated": inv.saturated,
    }


def payload_count(params: dict, T: int, scan_cache: dict, threads: int) -> dict:
    kind, extra = _parse_target(params["target"])
    primes = tuple(int(p) for p in params.get("primes", "").split(",") if p)
    # checked for every target: projective counts ignore the primes, but the
    # query records them
    composite = [p for p in primes if not _is_prime(p)]
    if composite:
        raise ConfigError(f"tracked primes must be prime, got {composite[0]}")
    if kind == "projective":
        spectrum = _top_spectrum(scan_cache, params, threads).below(T)
        hists = {}
        total = spectrum.total
    elif kind == "pgl2":
        scan = _shared_pgl2_scan(scan_cache, params, primes, threads)
        spectrum = scan.spectrum(T)
        total = spectrum.total
        hists = {
            str(p): {str(k): c for k, c in scan.histogram(p, T).freq.items()}
            for p in primes
        }
    else:
        w1, w2 = extra
        scan = _shared_pgl2_scan(scan_cache, params, primes, threads)
        factor = scan.spectrum()
        total = convolve_counts(factor, factor, w1, w2, T)
        spectrum = factor
        hists = {}
    return {
        "query": {"target": params["target"], "primes": list(primes)},
        "T": T,
        "total": total,
        "spectrum_digest": _spectrum_digest(spectrum),
        "histograms": hists,
    }


def _shared_pgl2_scan(scan_cache: dict, params: dict, primes, threads: int):
    key = (params.get("_scan_T"), primes)
    if key not in scan_cache:
        scan_cache[key] = scan_pgl2_adjoint(
            int(params["_scan_T"]), primes, threads=threads
        )
    return scan_cache[key]


def _top_spectrum(scan_cache: dict, params: dict, threads: int):
    """The count target's spectrum below ``_scan_T``, the top of the grid,
    from a count or scan this run already made if there is one."""
    kind, extra = _parse_target(params["target"])
    top = params.get("_scan_T")
    if kind == "projective":
        key = (top, "projective", extra)
        if key not in scan_cache:
            scan_cache[key] = count_projective(extra, int(top))
        return scan_cache[key]
    primes = tuple(int(p) for p in params.get("primes", "").split(",") if p)
    scan = scan_cache.get((top, primes))
    if scan is None:
        scan = _shared_pgl2_scan(scan_cache, params, (), threads)
    return scan.spectrum()


def payload_zeta(params: dict) -> dict:
    primes = [int(p) for p in params.get("primes", "2,3,5").split(",")]
    s_exact = int(params.get("at", "2"))
    out = {"factors": []}
    for p in primes:
        lf = local_factor_pgl2_adjoint(p)
        out["factors"].append(
            {
                "p": p,
                "rational_function": f"(1 + t)/(1 - {p} t), t = {p}^(-s)",
                "cell_volumes": {
                    str(k): f"{v.numerator}/{v.denominator}"
                    for k, v in enumerate(lf.cell_volumes[:6])
                },
                "value_at": {
                    str(s_exact): str(lf.evaluate_exact(s_exact)),
                },
            }
        )
    if params.get("residue"):
        cutoff = int(params.get("cutoff", "2000"))
        samples = [2 + 0.4 / 2**j for j in range(6)]
        est = residue_estimate(cutoff, samples)
        out["residue"] = {
            "cutoff": cutoff,
            "value": est.value,
            "error": est.error,
            "converged": est.converged,
        }
    return out


def payload_fit(params: dict, grid_counts: list[tuple[int, int]]) -> dict:
    a = Fraction(params.get("a", "2"))
    b = int(params.get("b", "1"))
    fit = tauberian_fit(grid_counts, a, b)
    return {
        "a": f"{a.numerator}/{a.denominator}",
        "b": b,
        "a_hat": fit.a_hat,
        "c_hat": fit.c_hat,
        "d_hat": fit.d_hat,
        "residuals": fit.residuals,
        "grid": [[t, n] for t, n in fit.grid],
    }


def payload_mixing(params: dict) -> dict:
    p = int(params.get("prime", "2"))
    kmax = int(params.get("max_exponent", "20"))
    eps = float(params.get("eps", "0.1"))
    m = int(params.get("m", "4"))
    pexp = [float(x) for x in params.get("pexp", "2,2.5,3").split(",")]
    sample = [
        PrimitiveMatrix(((p**j, 0), (0, 1))) if j else PrimitiveMatrix(((1, 0), (0, 1)))
        for j in range(kmax + 1)
    ]
    rep = verify_bounds(sample, eps=eps, m=m, lp_prime=p, lp_exponents=pexp)
    return {
        "prime": p,
        "max_exponent": kmax,
        "eps": eps,
        "m": m,
        "sample_size": rep.sample_size,
        "lower_sandwich_violations": rep.lower_sandwich_violations,
        "c_eps": rep.c_eps,
        "c_height": rep.c_height,
        "lp_partial_sums": {str(e): v for e, v in rep.lp_partial_sums.items()},
    }


def payload_equidist(params: dict, T: int, scan_cache: dict, threads: int) -> dict:
    primes = tuple(int(p) for p in params.get("primes", "2,3").split(","))
    scan = _shared_pgl2_scan(scan_cache, params, primes, threads)
    rows = {}
    for p in primes:
        hist = scan.histogram(p, T)
        emp = cartan_statistics(hist)
        model, _tail = model_cell_probabilities(p, max(emp) if emp else 0)
        rows[str(p)] = {
            str(k): {
                "empirical": float(emp.get(k, 0)),
                "model": float(model.get(k, 0)),
                "abs_diff": abs(float(emp.get(k, 0)) - float(model.get(k, 0))),
            }
            for k in sorted(set(emp) | set(model))
        }
    return {"T": T, "frequencies": rows}


# --------------------------------------------------------------------------
# the driver


@_unlimited_int_digits()
def run(config: ExperimentConfig, scan_cache: dict | None = None) -> list[ResultRecord]:
    """Execute a subcommand over its grid, cache-aware; returns the records.

    The scans and counts it makes are left in ``scan_cache`` if given.
    """
    cache = ResultCache(config.cache_path, __version__, config.allow_stale)
    rng = random.Random(config.seed)
    records: list[ResultRecord] = []
    scan_cache = {} if scan_cache is None else scan_cache
    params = dict(config.parameters)

    if config.subcommand in ("count", "equidist"):
        # one scan or count at the top of the grid serves every threshold
        params["_scan_T"] = _top_of_grid(config)

    grid = config.grid or [0]
    for T in grid:
        call_params = dict(params)
        if config.subcommand in ("count", "equidist"):
            call_params["T"] = str(T)
        call_params.pop("_scan_T", None)
        digest = params_digest(config.subcommand, call_params)
        cached = cache.lookup(digest)
        if cached is not None:
            if config.audit_rate > 0 and rng.randrange(config.audit_rate) == 0:
                fresh = _compute(config, params, T, scan_cache)
                if _comparable(fresh) != _comparable(cached.payload):
                    raise InvariantViolation(
                        f"cache audit mismatch for digest {digest[:12]}"
                    )
            records.append(cached)
            continue
        t0 = time.monotonic()
        payload = _compute(config, params, T, scan_cache)
        rec = ResultRecord(
            params_digest=digest,
            payload=payload,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            tool_version=__version__,
            wall_time=round(time.monotonic() - t0, 6),
        )
        cache.append(rec)
        records.append(rec)
    return records


def _comparable(payload: dict) -> str:
    slim = {k: v for k, v in payload.items() if not k.startswith("wall_time")}
    return json.dumps(slim, sort_keys=True)


def _compute(config: ExperimentConfig, params: dict, T: int, scan_cache: dict) -> dict:
    sub = config.subcommand
    if sub == "invariants":
        return payload_invariants(params)
    if sub == "count":
        return payload_count(params, T, scan_cache, config.threads)
    if sub == "zeta":
        return payload_zeta(params)
    if sub == "fit":
        counts = _grid_counts_for_fit(config, params, scan_cache)
        return payload_fit(params, counts)
    if sub == "mixing-probe":
        return payload_mixing(params)
    if sub == "equidist":
        return payload_equidist(params, T, scan_cache, config.threads)
    raise ConfigError(f"unknown subcommand {sub!r}")


def _grid_counts_for_fit(config, params, scan_cache) -> list[tuple[int, int]]:
    grid = [int(x) for x in params.get("count_grid", "").split(",") if x]
    if not grid:
        raise ConfigError("fit needs --count-grid T1,T2,...")
    kind, extra = _parse_target(params.get("target", "pgl2-adjoint"))
    scan_params = dict(params, _scan_T=str(max(grid)))
    if kind == "projective":
        spectrum = _top_spectrum(scan_cache, scan_params, config.threads)
        return [(t, spectrum.count_below(t)) for t in grid]
    scan = _shared_pgl2_scan(scan_cache, scan_params, (), config.threads)
    if kind == "pgl2":
        return [(t, scan.spectrum(t).total) for t in grid]
    w1, w2 = extra
    factor = scan.spectrum()
    return [(t, convolve_counts(factor, factor, w1, w2, t)) for t in grid]


# --------------------------------------------------------------------------
# argument parsing / entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heightcount",
        description="rational points of bounded height: counts, exponents, "
        "local factors, decay bounds",
    )
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--cache", default="heightcount_cache.jsonl")
    ap.add_argument("--json", action="store_true", help="emit JSON lines to stdout")
    ap.add_argument("--csv", help="write full height spectra to this CSV path")
    ap.add_argument("--allow-stale", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--audit-rate", type=int, default=0)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p_inv = sub.add_parser("invariants")
    p_inv.add_argument("--type")
    p_inv.add_argument("--weight", default="adjoint")
    p_inv.add_argument("--galois")

    p_count = sub.add_parser("count")
    p_count.add_argument("--target", required=True)
    p_count.add_argument("--grid", required=True)
    p_count.add_argument("--primes", default="")

    p_zeta = sub.add_parser("zeta")
    p_zeta.add_argument("--primes", default="2,3,5")
    p_zeta.add_argument("--at", default="2")
    p_zeta.add_argument("--residue", action="store_true")
    p_zeta.add_argument("--cutoff", default="2000")

    p_fit = sub.add_parser("fit")
    p_fit.add_argument("--target", default="pgl2-adjoint")
    p_fit.add_argument("--count-grid", required=True)
    p_fit.add_argument("--a", default="2")
    p_fit.add_argument("--b", default="1")

    p_mix = sub.add_parser("mixing-probe")
    p_mix.add_argument("--prime", default="2")
    p_mix.add_argument("--max-exponent", default="20")
    p_mix.add_argument("--eps", default="0.1")
    p_mix.add_argument("--m", default="4")
    p_mix.add_argument("--pexp", default="2,2.5,3")

    p_eq = sub.add_parser("equidist")
    p_eq.add_argument("--grid", required=True)
    p_eq.add_argument("--primes", default="2,3")
    return ap


_PARAM_KEYS = {
    "invariants": ["type", "weight", "galois"],
    "count": ["target", "primes"],
    "zeta": ["primes", "at", "residue", "cutoff"],
    "fit": ["target", "count_grid", "a", "b"],
    "mixing-probe": ["prime", "max_exponent", "eps", "m", "pexp"],
    "equidist": ["primes"],
}


def config_from_args(args) -> ExperimentConfig:
    params: dict[str, str] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            params["config_text"] = fh.read()
    for key in _PARAM_KEYS[args.subcommand]:
        val = getattr(args, key, None)
        if val not in (None, "", False):
            params[key] = str(val) if not isinstance(val, bool) else "1"
    grid = []
    if getattr(args, "grid", None):
        grid = [int(x) for x in args.grid.split(",")]
    return ExperimentConfig(
        subcommand=args.subcommand,
        parameters=params,
        grid=grid,
        cache_path=args.cache,
        threads=args.threads,
        seed=args.seed,
        allow_stale=args.allow_stale,
        audit_rate=args.audit_rate,
    )


def _print_records(records: list[ResultRecord], as_json: bool) -> None:
    if as_json:
        for rec in records:
            print(rec.line())
        return
    for rec in records:
        print(f"# digest {rec.params_digest[:12]}  v{rec.tool_version}")
        _print_table(rec.payload)


def _print_table(payload: dict, indent: str = "") -> None:
    for k, v in payload.items():
        if isinstance(v, dict):
            print(f"{indent}{k}:")
            _print_table(v, indent + "  ")
        else:
            print(f"{indent}{k}: {v}")


def _top_of_grid(config: ExperimentConfig) -> str:
    return str(max(config.grid)) if config.grid else config.parameters.get("T", "0")


def _write_csv(path: str, config: ExperimentConfig, scan_cache: dict) -> None:
    """Full (height, count) spectrum of the count query at the top of the
    grid, if any; it scans again only when ``run`` found every grid point
    in the results cache."""
    if config.subcommand != "count":
        return
    params = dict(config.parameters, _scan_T=_top_of_grid(config))
    spectrum = _top_spectrum(scan_cache, params, config.threads)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("height,count\n")
        for h in sorted(spectrum.counts):
            fh.write(f"{h},{spectrum.counts[h]}\n")


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
        scan_cache: dict = {}
        with _unlimited_int_digits():
            records = run(config, scan_cache)
            _print_records(records, args.json)
            if args.csv:
                _write_csv(args.csv, config, scan_cache)
        return EXIT_OK
    except (ConfigError, RootDataError, ZetaError, MixingError, ValueError) as exc:
        if isinstance(exc, ResourceGuardError):
            print(f"resource guard: {exc}", file=sys.stderr)
            return EXIT_GUARD
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
