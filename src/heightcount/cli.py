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
such guarantee).  A process indexes each cache file once, digest -> records
in file order: a lookup reads the file, parses only the complete lines
appended since the last lookup, and indexes the file again from scratch
when its bytes no longer start with the ones already indexed (a copy or
rewrite).  A line that is not a record, or holds NaN or an infinity, is
malformed: skipped with a warning and counted, so its query is computed
again.

Exit codes: 0 success, 2 invalid configuration, 3 resource guard tripped,
4 internal invariant violation (including cache corruption, and a payload
that is not JSON, which never reaches the cache).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import random
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__

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
    seed: int = 0
    allow_stale: bool = False
    audit_rate: int = 0  # re-verify ~1 in N cache hits; 0 disables

    def __post_init__(self):
        _check_grid(self.grid)


def _check_grid(grid: list[int]) -> list[int]:
    """A threshold grid, checked: positive and strictly increasing."""
    if any(t < 1 for t in grid):
        raise ConfigError("grid points must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be strictly increasing")
    return grid


def _comma_list(text: str, cast=int) -> list:
    """The items of a comma-separated option value, each read by ``cast``:
    "" has none, and an empty item is a configuration error."""
    items = text.split(",") if text else []
    if "" in items:
        raise ConfigError(f"empty item in {text!r}")
    return [cast(x) for x in items]


@dataclass
class ResultRecord:
    params_digest: str
    payload: dict
    created_at: str
    tool_version: str
    wall_time: float = 0.0
    # the record's cache line: as read from the file, or once encoded
    text: str | None = field(default=None, repr=False, compare=False)

    def line(self) -> str:
        """The cache line: a record read from the cache keeps the line it
        was read from, and any other is encoded on first use."""
        if self.text is None:
            self.text = json.dumps(
                {
                    "digest": self.params_digest,
                    "tool_version": self.tool_version,
                    "created_at": self.created_at,
                    "wall_time": self.wall_time,
                    "payload": self.payload,
                },
                sort_keys=True,
                allow_nan=False,  # NaN and infinities are not JSON
            )
        return self.text


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


def canonical_params(subcommand: str, params: dict[str, str]) -> str:
    """Sorted-key JSON of the string parameters that ``_keyed`` makes; the
    digest preimage."""
    return json.dumps({"subcommand": subcommand, "params": params}, sort_keys=True)


def params_digest(subcommand: str, params: dict[str, str]) -> str:
    return hashlib.sha256(canonical_params(subcommand, params).encode()).hexdigest()


# --------------------------------------------------------------------------
# cache


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


# NaN and the infinities, which Python's json reads by default and
# ``ResultRecord.line()`` refuses to write, make a cache line malformed
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _parse_record(text: bytes) -> ResultRecord:
    """One cache line as a record; raises ValueError, KeyError or TypeError
    if it is malformed."""
    line = text.decode()
    obj = _DECODER.decode(line)
    return ResultRecord(
        params_digest=obj["digest"],
        payload=obj["payload"],
        created_at=obj["created_at"],
        tool_version=obj["tool_version"],
        wall_time=obj.get("wall_time", 0.0),
        text=line,
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
# subcommand payload builders (pure: params, T, top of the grid, the run's
# scans -> payload dict).  Each imports numpy and the library modules it
# uses itself, so a run answered from the cache loads neither.


def _scan_text(scans: dict, key: tuple, counts, T: int) -> str:
    """The lines "h,c" of the nonzero counts[h] with h < T in ascending h,
    the body of both the spectrum digest and the --csv file: a prefix of
    the lines of the whole spectrum of the run's count or scan
    ``scans[key]``, which are formatted once per run."""
    import numpy as np

    if ("text", key) not in scans:
        hs = np.flatnonzero(counts)
        pairs = np.stack([hs, counts[hs]], axis=1).ravel().tolist()
        scans["text", key] = hs, ("\n".join(["%d,%d"] * len(hs)) % tuple(pairs)).split("\n")
    hs, lines = scans["text", key]
    return "\n".join(lines[: int(np.searchsorted(hs, T))])


def _count(target: str, T: int, top: int, scans: dict, primes: tuple[int, ...] = ()):
    """A count target's total below T, a function giving the text of the
    spectrum its payload digests, and for pgl2-adjoint the Cartan
    histograms below T of ``primes`` (per-k arrays), from the run's one
    scan or count at ``top``, the top of its grid, kept in ``scans``."""
    from .enumeration import convolve_counts, count_projective, scan_pgl2_adjoint

    if target.startswith("projective:"):
        key = "projective", int(target.split(":", 1)[1]), top
        if key not in scans:
            scans[key] = count_projective(key[1], top)
        full = scans[key]
        return full.below(T).total, lambda: _scan_text(scans, key, full.counts, T), {}
    if target.startswith("product-pgl2:"):
        w1, w2 = _comma_list(target.split(":", 1)[1])
        primes = ()  # a product has no histograms: any scan at top serves
    elif target != "pgl2-adjoint":
        raise ConfigError(f"unknown target {target!r}")
    key = "pgl2", top
    scan = scans.get(key)
    if scan is None or not set(primes) <= scan.joint.keys():
        scan = scans[key] = scan_pgl2_adjoint(top, primes)
    if target == "pgl2-adjoint":
        hists = {p: scan.histogram(p, T) for p in primes}
        return scan.spectrum(T).total, lambda: _scan_text(scans, key, scan.height_counts, T), hists
    spectrum = scan.spectrum()
    total = convolve_counts(spectrum, spectrum, w1, w2, T)
    return total, lambda: _scan_text(scans, key, spectrum.counts, top), {}


def _fraction(text: str) -> Fraction:
    """An exact rational option value: Fraction(text), where a zero
    denominator is a configuration error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ConfigError(f"zero denominator in {text!r}") from None


def payload_invariants(params: dict, T: int, top: int, scans: dict) -> dict:
    from .rootdata import (
        adjoint_weight_root_coords,
        manin_invariants,
        parse_config,
        root_datum,
        weight_to_root_basis,
    )

    if "config_text" in params:
        datum = parse_config(params["config_text"])
    else:
        datum = {k: params[k] for k in ("type", "galois") if params[k]}
    rs, gal = root_datum(datum)
    if params["weight"] != "adjoint":
        m = weight_to_root_basis(rs, _comma_list(params["weight"], _fraction))
    elif "type" in datum:
        m = adjoint_weight_root_coords(datum["type"])
    else:
        raise ConfigError("--weight adjoint needs a named type")
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


def payload_count(params: dict, T: int, top: int, scans: dict) -> dict:
    from .heights import _is_prime

    primes = tuple(_comma_list(params["primes"]))
    # checked for every target: projective counts ignore the primes, but the
    # query records them
    composite = [p for p in primes if not _is_prime(p)]
    if composite:
        raise ConfigError(f"tracked primes must be prime, got {composite[0]}")
    total, text, hists = _count(params["target"], T, top, scans, primes)
    return {
        "query": {"target": params["target"], "primes": list(primes)},
        "T": T,
        "total": total,
        "spectrum_digest": hashlib.sha256(text().encode()).hexdigest(),
        "histograms": {
            str(p): {str(k): c for k, c in enumerate(hist.tolist()) if c} for p, hist in hists.items()
        },
    }


def payload_zeta(params: dict, T: int, top: int, scans: dict) -> dict:
    from .zeta import cell_volume, local_factor_pgl2_adjoint, residue_estimate

    primes = _comma_list(params["primes"])
    s_exact = int(params["at"])
    out = {"factors": []}
    for p in primes:
        lf = local_factor_pgl2_adjoint(p)
        out["factors"].append(
            {
                "p": p,
                "rational_function": f"(1 + t)/(1 - {p} t), t = {p}^(-s)",
                "cell_volumes": {str(k): f"{cell_volume(p, k)}/1" for k in range(6)},
                "value_at": {
                    str(s_exact): str(lf.evaluate_exact(s_exact)),
                },
            }
        )
    if params["residue"]:
        cutoff = int(params["cutoff"])
        samples = [2 + 0.4 / 2**j for j in range(6)]
        est = residue_estimate(cutoff, samples)
        out["residue"] = {
            "cutoff": cutoff,
            "value": est.value,
            "error": est.error,
            "converged": est.converged,
        }
    return out


def payload_fit(params: dict, T: int, top: int, scans: dict) -> dict:
    from .zeta import tauberian_fit

    grid = _check_grid(_comma_list(params["count_grid"]))
    a = _fraction(params["a"])
    b = int(params["b"])
    counts = [(t, _count(params["target"], t, max(grid), scans)[0]) for t in grid]
    fit = tauberian_fit(counts, a, b)
    return {
        "a": f"{a.numerator}/{a.denominator}",
        "b": b,
        "a_hat": fit.a_hat,
        "c_hat": fit.c_hat,
        "d_hat": fit.d_hat,
        "residuals": fit.residuals,
        "grid": [[t, n] for t, n in fit.grid],
    }


def payload_mixing(params: dict, T: int, top: int, scans: dict) -> dict:
    from .heights import PrimitiveMatrix
    from .mixing import verify_bounds

    p = int(params["prime"])
    kmax = int(params["max_exponent"])
    eps = float(params["eps"])
    m = int(params["m"])
    pexp = _comma_list(params["pexp"], float)
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


def payload_equidist(params: dict, T: int, top: int, scans: dict) -> dict:
    from .enumeration import cartan_statistics
    from .zeta import model_cell_probabilities

    primes = tuple(_comma_list(params["primes"]))
    _, _, hists = _count("pgl2-adjoint", T, top, scans, primes)
    rows = {}
    for p, hist in hists.items():
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


# subcommand -> (payload builder, {option: default}).  A default of None
# marks a required option and False a switch; "" leaves the option out of
# the digest unless given.  Every option but --grid, the thresholds, is a
# digest key, and a subcommand with --grid keys each threshold T too.
_SUBCOMMANDS = {
    "invariants": (payload_invariants, {"type": "", "weight": "adjoint", "galois": ""}),
    "count": (payload_count, {"target": None, "grid": None, "primes": ""}),
    "zeta": (payload_zeta, {"primes": "2,3,5", "at": "2", "residue": False, "cutoff": "2000"}),
    "fit": (payload_fit, {"target": "pgl2-adjoint", "count_grid": None, "a": "2", "b": "1"}),
    "mixing-probe": (
        payload_mixing,
        {"prime": "2", "max_exponent": "20", "eps": "0.1", "m": "4", "pexp": "2,2.5,3"},
    ),
    "equidist": (payload_equidist, {"grid": None, "primes": "2,3"}),
}


def _flag(key: str) -> str:
    """The command-line flag of an option key."""
    return "--" + key.replace("_", "-")


def _keyed(subcommand: str, given: dict) -> dict:
    """The digested parameters: the options ``given``, else their defaults,
    as strings ("1" for a set switch) unless empty, and whatever else
    ``given`` holds (the --config text of invariants).  An option given as
    "" whose default is not empty is a configuration error: it would run
    with the default under another digest.  The cutoff shapes only the zeta
    residue: keying on it without --residue would split one payload."""
    options = _SUBCOMMANDS[subcommand][1]
    keyed = {k: v for k, v in given.items() if k not in options}
    for key, default in options.items():
        val = given.get(key, default)
        if val == "" and default:
            raise ConfigError(f"{_flag(key)} is empty")
        if key != "grid" and val not in (None, "", False):
            keyed[key] = "1" if val is True else str(val)
    if subcommand == "zeta" and "residue" not in keyed:
        keyed.pop("cutoff", None)
    return keyed


# --------------------------------------------------------------------------
# the driver


@_unlimited_int_digits()
def run(config: ExperimentConfig, scan_cache: dict | None = None) -> list[ResultRecord]:
    """Execute a subcommand over its grid, cache-aware; returns the records.

    Options left out of ``config.parameters`` take their defaults, so the
    digests match the command line's.  The scans and counts it makes are
    left in ``scan_cache`` if given.
    """
    if config.subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    build, options = _SUBCOMMANDS[config.subcommand]
    keyed = _keyed(config.subcommand, config.parameters)
    for key, default in options.items():
        if default is None and not (config.grid if key == "grid" else keyed.get(key)):
            raise ConfigError(f"{config.subcommand} needs {_flag(key)}")
    params = {**options, **keyed}
    cache = ResultCache(config.cache_path, __version__, config.allow_stale)
    # only the audit draws from it
    rng = random.Random(config.seed) if config.audit_rate > 0 else None
    records: list[ResultRecord] = []
    scan_cache = {} if scan_cache is None else scan_cache
    # one scan or count at the top of the grid serves every threshold
    top = max(config.grid, default=0)

    for T in config.grid or [0]:
        digest = params_digest(
            config.subcommand, dict(keyed, T=str(T)) if "grid" in options else keyed
        )
        cached = cache.lookup(digest)
        if cached is not None:
            if config.audit_rate > 0 and rng.randrange(config.audit_rate) == 0:
                fresh = build(params, T, top, scan_cache)
                if json.dumps(fresh, sort_keys=True) != json.dumps(cached.payload, sort_keys=True):
                    raise InvariantViolation(
                        f"cache audit mismatch for digest {digest[:12]}"
                    )
            records.append(cached)
            continue
        t0 = time.monotonic()
        payload = build(params, T, top, scan_cache)
        rec = ResultRecord(
            params_digest=digest,
            payload=payload,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            tool_version=__version__,
            wall_time=round(time.monotonic() - t0, 6),
        )
        try:
            cache.append(rec)
        except ValueError as exc:  # from line(): a payload that is not JSON
            raise InvariantViolation(f"payload of {digest[:12]} is not JSON: {exc}") from None
        records.append(rec)
    return records


# --------------------------------------------------------------------------
# argument parsing / entry point
#
# A command line is the global flags, a subcommand, then that subcommand's
# options, in that order.  It is read in one argparse pass by a parser of
# the global flags and that subcommand's options, chosen by the first token
# that names a subcommand (the value of a global flag is skipped).  Global
# flags are spelled in full; a subcommand's options may be abbreviated, as
# argparse matches prefixes among that subcommand's options alone.

# global flag -> (default, type, help); a default of False marks a switch
_GLOBAL_FLAGS = {
    "config": (None, str, "key=value config file"),
    "threads": (1, int, "accepted for older command lines; every scan runs on one thread"),
    "cache": ("heightcount_cache.jsonl", str, None),
    "json": (False, None, "emit JSON lines to stdout"),
    "csv": (None, str, "write full height spectra to this CSV path"),
    "allow_stale": (False, None, None),
    "seed": (0, int, None),
    "audit_rate": (0, int, None),
}


# the option strings of the global flags, help included, and those that take a value
_GLOBAL = {_flag(k) for k in _GLOBAL_FLAGS} | {"-h", "--help"}
_VALUED = {_flag(k) for k, (default, _, _) in _GLOBAL_FLAGS.items() if default is not False}
# what argparse reads as an option it does not know: a dash, no space, and
# neither a negative number nor "-h" with more after it
_UNKNOWN_OPTION = re.compile(r"(?s)(?!--\Z|-h.|-\d+$|-\d*\.\d+$)-[^ ]+\Z")


def _mask(token: str, masked: dict[str, str]) -> str:
    """``token`` spelt so that no parser has an option of that name."""
    masked["---" + token] = token
    return "---" + token


@functools.cache
def _build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The parser of the global flags and the options of ``subcommand``;
    without one, it takes the subcommand as its positional, and serves the
    help, usage and errors of a line that names none."""
    ap = argparse.ArgumentParser(
        prog="heightcount",
        allow_abbrev=False,  # _option_names matches prefixes, after the subcommand only
        description="rational points of bounded height: counts, exponents, "
        "local factors, decay bounds",
    )
    group = ap.add_argument_group("global flags, before the subcommand")
    for key, (default, type_, help_) in _GLOBAL_FLAGS.items():
        if default is False:
            group.add_argument(_flag(key), action="store_true", help=help_)
        else:
            group.add_argument(_flag(key), type=type_, default=default, help=help_)
    if subcommand is None:
        # the subcommand and every word after it, as argparse's subparsers take them
        ap.add_argument("subcommand", nargs=argparse.PARSER, choices=_SUBCOMMANDS, help="and its options")
        return ap
    ap.set_defaults(subcommand=subcommand)
    group = ap.add_argument_group(f"{subcommand} options, after it")
    usage = ["%(prog)s [global flags]", subcommand, "[-h]"]
    for key, default in _SUBCOMMANDS[subcommand][1].items():
        flag = _flag(key)
        if default is False:
            group.add_argument(flag, action="store_true")
            usage.append(f"[{flag}]")
        else:
            group.add_argument(flag, required=default is None, default=default)
            usage.append(f"{flag} {key.upper()}" if default is None else f"[{flag} {key.upper()}]")
    ap.usage = " ".join(usage)
    return ap


@functools.cache
def _option_names(subcommand: str) -> dict[str, str | None]:
    """How a long option name after ``subcommand`` reads: as the option of
    the subcommand it names or abbreviates (argparse's prefix matching among
    that subcommand's options and --help), None if it abbreviates several,
    and "" for a global flag, which is masked there: it stays an unknown
    option, as it always was after the subcommand."""
    flags = ["--help"] + [_flag(k) for k in _SUBCOMMANDS[subcommand][1]]
    matches: dict[str, list[str]] = {}
    for flag in flags:
        for end in range(2, len(flag) + 1):
            matches.setdefault(flag[:end], []).append(flag)
    names: dict[str, str | None] = dict.fromkeys(map(_flag, _GLOBAL_FLAGS), "")
    for prefix, found in matches.items():
        names[prefix] = prefix if prefix in flags else found[0] if len(found) == 1 else None
    return names


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` read by the parser of the subcommand it names, in one pass;
    argparse exits 2 on an error and 0 after --help."""
    head, tail, masked = [], [], {}
    i, n = 0, len(argv)
    while i < n and argv[i] not in _SUBCOMMANDS:
        token = argv[i]
        if token.partition("=")[0] in _GLOBAL:
            head.append(token)
            if token in _VALUED and i + 1 < n:
                i += 1
                value = argv[i]
                if " " in value and value.partition("=")[0] not in _GLOBAL:
                    # a value before the subcommand, though "--primes=2 3"
                    # would read as one of the subcommand's options
                    head[-1] += "=" + value
                else:
                    head.append(value)
        elif _UNKNOWN_OPTION.match(token):  # an error once the line is read
            head.append(_mask(token, masked))
        else:
            break
        i += 1
    if i == n or argv[i] not in _SUBCOMMANDS:
        # no subcommand, or something else in its place: the parser without
        # one exits with the help or the error ...
        ap = _build_parser()
        ap.parse_known_args(argv)
        if argv[i : i + 1] != ["--"]:
            ap.error(f"unrecognized arguments: {' '.join(argv[i:])}")
        # ... unless this argparse drops a "--" before the subcommand
        return _parse_args(argv[:i] + argv[i + 1 :])
    subcommand = argv[i]
    ap, names = _build_parser(subcommand), _option_names(subcommand)
    for j in range(i + 1, n):
        token = argv[j]
        if token == "--":  # every later token is a positional
            tail += argv[j:]
            break
        name, eq, value = token.partition("=")
        read = names.get(name, name)
        if read is None:
            # argparse reads the head first, so its help or error comes first
            ap.parse_known_args(head)
            found = [f for f in names if names[f] == f and f.startswith(name)]
            ap.error(f"ambiguous option: {name} could match {', '.join(found)}")
        if read != name:
            token = _mask(token, masked) if read == "" else read + eq + value
        tail.append(token)
    args, extras = ap.parse_known_args(head + tail)
    if extras:
        ap.error(f"unrecognized arguments: {' '.join(masked.get(x, x) for x in extras)}")
    for key, val in vars(args).items() if masked else ():
        if val in masked:  # a global flag's spelling taken as an option's value
            setattr(args, key, masked[val])
    return args


def config_from_args(args) -> ExperimentConfig:
    if args.threads < 1:
        raise ConfigError("threads must be >= 1")
    options = _SUBCOMMANDS[args.subcommand][1]
    params = {key: getattr(args, key) for key in options if key != "grid"}
    if args.config:
        # the config file is a whole root datum: it replaces --type and --galois
        if args.subcommand != "invariants" or args.type or args.galois:
            raise ConfigError("--config is read by invariants alone, without --type or --galois")
        with open(args.config, "r", encoding="utf-8") as fh:
            params["config_text"] = fh.read()
    return ExperimentConfig(
        subcommand=args.subcommand,
        parameters=params,
        grid=_comma_list(args.grid) if "grid" in options else [],
        cache_path=args.cache,
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


def _write_csv(fh, config: ExperimentConfig, scan_cache: dict) -> None:
    """Full (height, count) spectrum of the count query at the top of the
    grid; it scans again only when ``run`` found every grid point in the
    results cache."""
    top = max(config.grid)
    text = _count(config.parameters["target"], top, top, scan_cache)[1]()
    fh.truncate(0)
    fh.write("height,count\n" + (text + "\n" if text else ""))


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
        scan_cache: dict = {}
        # a count's CSV file is opened before the count, and truncated after it
        csv = args.csv if config.subcommand == "count" else None
        fh = open(csv, "a", encoding="utf-8") if csv else None
        with fh or contextlib.nullcontext(), _unlimited_int_digits():
            records = run(config, scan_cache)
            _print_records(records, args.json)
            if fh:
                _write_csv(fh, config, scan_cache)
        return EXIT_OK
    except (ValueError, OSError) as exc:  # every library error is a ValueError
        # a guard can trip only in a run that loaded zeta, which defines it
        zeta = sys.modules.get("heightcount.zeta")
        if zeta and isinstance(exc, zeta.ResourceGuardError):
            print(f"resource guard: {exc}", file=sys.stderr)
            return EXIT_GUARD
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
