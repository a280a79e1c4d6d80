import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from heightcount import __version__
from heightcount.cli import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    ResultCache,
    ResultRecord,
    canonical_params,
    main,
    params_digest,
    run,
)


def make_config(tmp_path, subcommand, params, grid=(), **kw):
    return ExperimentConfig(
        subcommand=subcommand,
        parameters=dict(params),
        grid=list(grid),
        cache_path=str(tmp_path / "cache.jsonl"),
        **kw,
    )


# --------------------------------------------------------------------------
# digests and cache mechanics


def test_canonical_params_sorts_and_stringifies():
    from fractions import Fraction

    s = canonical_params("count", {"b": Fraction(1, 3), "a": [1, 2]})
    assert s.index('"a"') < s.index('"b"')
    assert "1/3" in s


def test_digest_ignores_param_order():
    d1 = params_digest("count", {"x": "1", "y": "2"})
    d2 = params_digest("count", {"y": "2", "x": "1"})
    assert d1 == d2
    assert d1 != params_digest("count", {"x": "1", "y": "3"})


def test_cache_insert_and_lookup(tmp_path):
    cache = ResultCache(str(tmp_path / "c.jsonl"), __version__)
    rec = ResultRecord("abc", {"v": 1}, "2026-01-01T00:00:00", __version__)
    cache.append(rec)
    got = cache.lookup("abc")
    assert got is not None and got.payload == {"v": 1}
    assert cache.lookup("missing") is None
    fresh = ResultCache(str(tmp_path / "c.jsonl"), __version__)
    assert fresh.lookup("abc").payload == {"v": 1}
    assert fresh.lookup("missing") is None


def test_cache_version_policy(tmp_path):
    path = str(tmp_path / "c.jsonl")
    stale = ResultRecord("abc", {"v": 1}, "2026-01-01T00:00:00", "0.0.0-old")
    ResultCache(path, "0.0.0-old").append(stale)
    assert ResultCache(path, __version__).lookup("abc") is None
    assert ResultCache(path, __version__, allow_stale=True).lookup("abc") is not None


def test_cache_skips_malformed_lines(tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    with open(path, "w") as fh:
        fh.write("this is not json\n")
        fh.write('{"missing": "keys"}\n')
    cache = ResultCache(path, __version__)
    rec = ResultRecord("abc", {"v": 1}, "2026-01-01T00:00:00", __version__)
    cache.append(rec)
    assert cache.lookup("abc").payload == {"v": 1}
    assert cache.skipped_lines == 2
    assert "malformed cache line" in capsys.readouterr().err


# --------------------------------------------------------------------------
# run(): subcommands, caching, determinism


def test_invariants_payload(tmp_path):
    cfg = make_config(tmp_path, "invariants", {"type": "A3", "weight": "adjoint"})
    (rec,) = run(cfg)
    assert rec.payload["a"] == "5/1"
    assert rec.payload["b"] == 1
    assert rec.payload["delta_iota"] == [2]
    assert rec.payload["u"] == [3, 4, 3]
    assert rec.payload["saturated"] is True


def test_invariants_explicit_weight(tmp_path):
    cfg = make_config(tmp_path, "invariants", {"type": "A2", "weight": "1,1"})
    (rec,) = run(cfg)
    assert rec.payload["a"] == "3/1"


def test_count_is_cached_and_byte_identical(tmp_path):
    params = {"target": "pgl2-adjoint", "primes": "2"}
    cfg = make_config(tmp_path, "count", params, grid=[16, 64])
    first = run(cfg)
    second = run(make_config(tmp_path, "count", params, grid=[16, 64]))
    assert [r.line() for r in first] == [r.line() for r in second]
    # and the totals agree with a direct enumeration
    from heightcount.enumeration import scan_pgl2_adjoint

    assert first[0].payload["total"] == scan_pgl2_adjoint(16).spectrum().total


def test_count_payload_independent_of_threads(tmp_path):
    params = {"target": "pgl2-adjoint", "primes": "2,3"}
    os.makedirs(tmp_path / "a")
    os.makedirs(tmp_path / "b")
    r1 = run(make_config(tmp_path / "a", "count", params, grid=[64], threads=1))
    r2 = run(make_config(tmp_path / "b", "count", params, grid=[64], threads=2))
    assert r1[0].payload == r2[0].payload


def test_count_product_target(tmp_path):
    cfg = make_config(tmp_path, "count", {"target": "product-pgl2:1,2"}, grid=[64])
    (rec,) = run(cfg)
    from heightcount.enumeration import convolve_counts, scan_pgl2_adjoint

    s = scan_pgl2_adjoint(64).spectrum()
    assert rec.payload["total"] == convolve_counts(s, s, 1, 2, 64)


def test_count_projective_target(tmp_path):
    cfg = make_config(tmp_path, "count", {"target": "projective:1"}, grid=[10, 20])
    recs = run(cfg)
    assert [r.payload["total"] for r in recs] == [
        sum(c for h, c in __import__("heightcount").count_projective(1, t).counts.items())
        for t in (10, 20)
    ]


def test_cache_audit_detects_tampering(tmp_path):
    params = {"target": "pgl2-adjoint"}
    cfg = make_config(tmp_path, "count", params, grid=[16])
    (rec,) = run(cfg)
    # corrupt the cached record
    path = cfg.cache_path
    with open(path) as fh:
        obj = json.loads(fh.read())
    obj["payload"]["total"] += 1
    with open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")
    audited = make_config(tmp_path, "count", params, grid=[16], audit_rate=1)
    with pytest.raises(InvariantViolation):
        run(audited)


def test_zeta_subcommand(tmp_path):
    cfg = make_config(tmp_path, "zeta", {"primes": "2,3", "at": "2"})
    (rec,) = run(cfg)
    f2 = rec.payload["factors"][0]
    assert f2["p"] == 2
    assert f2["value_at"]["2"] == "5/2"
    assert "1 - 2 t" in f2["rational_function"]


def test_fit_subcommand(tmp_path):
    cfg = make_config(
        tmp_path,
        "fit",
        {"target": "pgl2-adjoint", "count_grid": "16,32,64,128,256,512", "a": "2", "b": "1"},
    )
    (rec,) = run(cfg)
    assert 1.5 < rec.payload["a_hat"] < 2.5
    assert rec.payload["c_hat"] > 0


def test_mixing_probe_subcommand(tmp_path):
    cfg = make_config(
        tmp_path, "mixing-probe", {"prime": "2", "max_exponent": "6", "m": "4", "eps": "0.1"}
    )
    (rec,) = run(cfg)
    assert rec.payload["lower_sandwich_violations"] == 0
    assert rec.payload["c_eps"] >= 1.0


def test_equidist_subcommand(tmp_path):
    cfg = make_config(tmp_path, "equidist", {"primes": "2"}, grid=[256])
    (rec,) = run(cfg)
    freq = rec.payload["frequencies"]["2"]
    assert "0" in freq
    assert abs(freq["0"]["empirical"] - freq["0"]["model"]) < 0.2
    total = sum(v["empirical"] for v in freq.values())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_run_rejects_bad_grid(tmp_path):
    with pytest.raises(ConfigError):
        make_config(tmp_path, "count", {"target": "pgl2-adjoint"}, grid=[64, 32])


def test_run_rejects_unknown_target(tmp_path):
    cfg = make_config(tmp_path, "count", {"target": "nonsense"}, grid=[16])
    with pytest.raises(ConfigError):
        run(cfg)


# --------------------------------------------------------------------------
# entry point / exit codes


def test_main_ok_and_json_output(tmp_path, capsys):
    code = main(
        [
            "--cache",
            str(tmp_path / "c.jsonl"),
            "--json",
            "invariants",
            "--type",
            "A3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    obj = json.loads(out)
    assert obj["payload"]["a"] == "5/1"


def test_main_table_output(tmp_path, capsys):
    code = main(["--cache", str(tmp_path / "c.jsonl"), "invariants", "--type", "A1xA1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "a: 2/1" in out and "b: 2" in out


def test_main_invalid_config_exit_2(tmp_path, capsys):
    code = main(
        ["--cache", str(tmp_path / "c.jsonl"), "count", "--target", "bogus", "--grid", "16"]
    )
    assert code == 2


def test_main_bad_flag_exit_2():
    assert main(["count"]) == 2  # missing required --target/--grid


def test_main_resource_guard_exit_3(tmp_path):
    code = main(
        [
            "--cache",
            str(tmp_path / "c.jsonl"),
            "count",
            "--target",
            "projective:1",
            "--grid",
            "10000000",
        ]
    )
    assert code == 3


def test_main_projective_any_dimension(tmp_path):
    # P^5 has no enumeration cap: counted by the Moebius identity
    code = main(
        ["--cache", str(tmp_path / "c.jsonl"), "count", "--target", "projective:5", "--grid", "8"]
    )
    assert code == 0


def test_main_csv_output(tmp_path):
    csv_path = tmp_path / "spectrum.csv"
    code = main(
        [
            "--cache",
            str(tmp_path / "c.jsonl"),
            "--csv",
            str(csv_path),
            "count",
            "--target",
            "projective:1",
            "--grid",
            "12",
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "height,count"
    assert lines[1] == "1,4"


def _spectrum_csv(spectrum) -> str:
    return "height,count\n" + "".join(f"{h},{c}\n" for h, c in sorted(spectrum.counts.items()))


def _count_calls(monkeypatch, name):
    from heightcount import cli

    calls = []
    real = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_cold_count_csv_scans_once(tmp_path, monkeypatch):
    from heightcount.enumeration import scan_pgl2_adjoint

    calls = _count_calls(monkeypatch, "scan_pgl2_adjoint")
    csv_path = tmp_path / "spectrum.csv"
    argv = ["--cache", str(tmp_path / "c.jsonl"), "--csv", str(csv_path), "count",
            "--target", "pgl2-adjoint", "--grid", "16,64", "--primes", "2"]
    assert main(argv) == 0
    assert len(calls) == 1
    expected = _spectrum_csv(scan_pgl2_adjoint(64).spectrum())
    assert csv_path.read_text() == expected
    # every grid point is now a cache hit: only the CSV needs a scan
    csv_path.unlink()
    assert main(argv) == 0
    assert len(calls) == 2
    assert csv_path.read_text() == expected


def test_cold_projective_count_csv_counts_once(tmp_path, monkeypatch):
    from heightcount.enumeration import count_projective

    calls = _count_calls(monkeypatch, "count_projective")
    csv_path = tmp_path / "spectrum.csv"
    argv = ["--cache", str(tmp_path / "c.jsonl"), "--json", "--csv", str(csv_path),
            "count", "--target", "projective:1", "--grid", "6,12"]
    assert main(argv) == 0
    assert len(calls) == 1
    assert csv_path.read_text() == _spectrum_csv(count_projective(1, 12))


def test_main_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "rs.cfg"
    cfg_file.write_text("cartan=[[2,-1],[-1,2]]\nfactors=[[1,2]]\ngalois=[[1],[2]]\n")
    code = main(
        [
            "--cache",
            str(tmp_path / "c.jsonl"),
            "--json",
            "--config",
            str(cfg_file),
            "invariants",
            "--weight",
            "1,1",
        ]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["payload"]["a"] == "3/1"


# --------------------------------------------------------------------------
# the results-cache index


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code: str, *argv: str, **kw):
    """Start a fresh interpreter running ``code`` with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env, text=True, **kw)


def _rec(digest, payload, version=__version__):
    return ResultRecord(digest, payload, "2026-01-01T00:00:00", version)


def test_cache_sees_appends_by_another_cache(tmp_path):
    path = str(tmp_path / "c.jsonl")
    reader = ResultCache(path, __version__)
    assert reader.lookup("abc") is None
    ResultCache(path, __version__).append(_rec("abc", {"v": 1}))
    assert reader.lookup("abc").payload == {"v": 1}
    ResultCache(path, __version__).append(_rec("abc", {"v": 2}))
    assert reader.lookup("abc").payload == {"v": 2}  # last write wins


def test_cache_sees_appends_by_another_process(tmp_path):
    path = str(tmp_path / "c.jsonl")
    cache = ResultCache(path, __version__)
    cache.append(_rec("abc", {"v": 1}))
    assert cache.lookup("xyz") is None
    proc = _python(
        "from heightcount import __version__\n"
        "from heightcount.cli import ResultCache, ResultRecord\n"
        f"ResultCache({path!r}, __version__).append("
        "ResultRecord('xyz', {'v': 9}, '2026-01-01T00:00:00', __version__))\n"
    )
    assert proc.wait(timeout=60) == 0
    assert cache.lookup("xyz").payload == {"v": 9}
    assert cache.lookup("abc").payload == {"v": 1}


def test_cache_reindexes_a_smaller_copy(tmp_path):
    base, path = str(tmp_path / "base.jsonl"), str(tmp_path / "c.jsonl")
    ResultCache(base, __version__).append(_rec("abc", {"v": 1}))
    shutil.copyfile(base, path)
    cache = ResultCache(path, __version__)
    cache.append(_rec("xyz", {"v": 2}))
    assert cache.lookup("xyz").payload == {"v": 2}
    shutil.copyfile(base, path)
    assert cache.lookup("xyz") is None
    assert cache.lookup("abc").payload == {"v": 1}


def test_cache_reindexes_a_same_size_rewrite(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ResultCache(str(path), __version__)
    cache.append(_rec("abc", {"v": 1}))
    assert cache.lookup("abc").payload == {"v": 1}
    before = path.read_bytes()
    after = before.replace(b'{"v": 1}', b'{"v": 7}')
    assert len(after) == len(before) and after != before
    with open(path, "r+b") as fh:  # in place: same inode, same size
        fh.write(after)
    assert cache.lookup("abc").payload == {"v": 7}


def test_cache_serves_an_unterminated_last_line(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ResultCache(str(path), __version__)
    cache.append(_rec("abc", {"v": 1}))
    with open(path, "a") as fh:
        fh.write(_rec("abc", {"v": 2}).line())  # no newline yet
    assert cache.lookup("abc").payload == {"v": 2}
    assert cache.skipped_lines == 0
    with open(path, "a") as fh:
        fh.write("\n")
    cache.append(_rec("xyz", {"v": 3}))
    assert cache.lookup("abc").payload == {"v": 2}
    assert cache.lookup("xyz").payload == {"v": 3}


def test_cache_unterminated_malformed_line_is_reread(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    cache = ResultCache(str(path), __version__)
    cache.append(_rec("abc", {"v": 1}))
    line = _rec("xyz", {"v": 2}).line()
    with open(path, "a") as fh:
        fh.write(line[:20])  # a writer caught mid-record
    for _ in range(2):
        assert cache.lookup("abc").payload == {"v": 1}
        assert cache.skipped_lines == 1
        assert "malformed cache line 2" in capsys.readouterr().err
    with open(path, "a") as fh:
        fh.write(line[20:] + "\n")  # the writer finishes: the line is whole
    assert cache.lookup("xyz").payload == {"v": 2}
    assert cache.skipped_lines == 0
    assert capsys.readouterr().err == ""


def test_cache_warns_once_per_malformed_line(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text("this is not json\n")
    cache = ResultCache(str(path), __version__)
    cache.append(_rec("abc", {"v": 1}))
    for _ in range(3):
        assert cache.lookup("abc").payload == {"v": 1}
        assert cache.skipped_lines == 1
    assert capsys.readouterr().err.count("malformed cache line 1") == 1
    assert ResultCache(str(path), __version__).lookup("abc") is not None
    assert capsys.readouterr().err == ""


def test_cache_version_policy_prefers_last_current_record(tmp_path):
    path = str(tmp_path / "c.jsonl")
    cache = ResultCache(path, __version__)
    cache.append(_rec("abc", {"v": 1}))
    cache.append(_rec("abc", {"v": 2}, version="0.0.0-old"))
    assert cache.lookup("abc").payload == {"v": 1}
    stale_ok = ResultCache(path, __version__, allow_stale=True)
    assert stale_ok.lookup("abc").payload == {"v": 2}


def test_cache_hit_payload_is_a_copy(tmp_path):
    path = str(tmp_path / "c.jsonl")
    cache = ResultCache(path, __version__)
    cache.append(_rec("abc", {"v": [1, 2]}))
    cache.lookup("abc").payload["v"].append(3)
    assert cache.lookup("abc").payload == {"v": [1, 2]}


def test_concurrent_appends_keep_lines_whole(tmp_path):
    path = str(tmp_path / "c.jsonl")
    go = tmp_path / "go"
    n, size = 20, 100 * 1024  # records well over a 64 KiB pipe or buffer
    code = (
        "import os, sys, time\n"
        "from heightcount import __version__\n"
        "from heightcount.cli import ResultCache, ResultRecord\n"
        f"cache = ResultCache({path!r}, __version__)\n"
        "tag = sys.argv[1]\n"
        "print('ready', flush=True)\n"
        f"while not os.path.exists({str(go)!r}):\n"
        "    time.sleep(0.001)\n"
        f"for i in range({n}):\n"
        f"    cache.append(ResultRecord(f'{{tag}}{{i}}', {{'fill': tag * {size}}}, '', __version__))\n"
    )
    procs = [_python(code, tag, stdout=subprocess.PIPE) for tag in "ab"]
    for proc in procs:
        assert proc.stdout.readline().strip() == "ready"
    go.touch()
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    for proc in procs:
        proc.stdout.close()
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2 * n
    digests = {json.loads(line)["digest"] for line in lines}
    assert digests == {f"{tag}{i}" for tag in "ab" for i in range(n)}
    cache = ResultCache(path, __version__)
    assert cache.lookup("b7").payload == {"fill": "b" * size}
    assert cache.skipped_lines == 0


# --------------------------------------------------------------------------
# entry point: parser reuse, big integers, import footprint


def test_parser_is_built_once_and_reused(tmp_path):
    from heightcount.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert main(["count"]) == 2
    assert main(["--threads", "x", "invariants"]) == 2
    assert main(["--cache", str(tmp_path / "c.jsonl"), "invariants", "--type", "A2"]) == 0
    assert main(["count"]) == 2


def test_main_mixing_probe_singular_exit_2(tmp_path):
    # diag(2^40, 1) is numerically singular in floating point
    argv = ["--cache", str(tmp_path / "c.jsonl"), "mixing-probe", "--max-exponent", "40"]
    assert main(argv) == 2


def _rejected_without_record(tmp_path, argv):
    """True when ``argv`` exits 2 and leaves a seeded cache byte-identical."""
    cache = tmp_path / "c.jsonl"
    assert main(["--cache", str(cache), "invariants", "--type", "A2"]) == 0
    before = cache.read_bytes()
    code = main(["--cache", str(cache)] + argv)
    return code == 2 and cache.read_bytes() == before


@pytest.mark.parametrize("cutoff", ["1", "0", "-5"])
def test_main_residue_cutoff_below_2_exit_2(tmp_path, cutoff):
    assert _rejected_without_record(tmp_path, ["zeta", "--residue", "--cutoff", cutoff])


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--primes", "4,6"],
        ["zeta", "--primes", "2,9"],
        ["count", "--target", "pgl2-adjoint", "--grid", "16", "--primes", "4"],
        ["count", "--target", "product-pgl2:1,1", "--grid", "16", "--primes", "2,6"],
        ["count", "--target", "projective:3", "--grid", "16", "--primes", "4"],
        ["equidist", "--grid", "16", "--primes", "4"],
        ["mixing-probe", "--prime", "4", "--max-exponent", "5"],
        ["mixing-probe", "--prime", "1", "--max-exponent", "5"],
    ],
    ids=[
        "zeta", "zeta-mixed", "count", "count-product", "count-projective", "equidist",
        "mixing", "mixing-1",
    ],
)
def test_main_composite_prime_exit_2(tmp_path, argv):
    assert _rejected_without_record(tmp_path, argv)


def test_main_projective_counts_past_4300_digits(tmp_path, capsys):
    from heightcount.cli import _unlimited_int_digits

    csv_path = tmp_path / "spectrum.csv"
    argv = ["--cache", str(tmp_path / "c.jsonl"), "--json", "--csv", str(csv_path),
            "count", "--target", "projective:5000", "--grid", "10"]
    assert main(argv) == 0
    cold, cold_csv = capsys.readouterr().out, csv_path.read_bytes()
    with _unlimited_int_digits():
        total = str(json.loads(cold)["payload"]["total"])
    assert len(total) > 4300
    csv_path.unlink()
    assert main(argv) == 0  # a cache hit
    assert capsys.readouterr().out == cold
    assert csv_path.read_bytes() == cold_csv
    lines = (tmp_path / "c.jsonl").read_text().splitlines()
    assert len(lines) == 1
    # the table output prints the count in full too
    assert main(argv[:2] + argv[5:]) == 0
    assert f"total: {total}" in capsys.readouterr().out


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before 3.11"
)
def test_int_digit_lift_nests_across_threads():
    import threading

    from heightcount.cli import _unlimited_int_digits

    old = sys.get_int_max_str_digits()
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with _unlimited_int_digits():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with _unlimited_int_digits():
            b_in.set()
            a_out.wait(10)
            seen.append(sys.get_int_max_str_digits())  # A left, B still in

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert seen == [0]
    assert sys.get_int_max_str_digits() == old
    with _unlimited_int_digits():
        with _unlimited_int_digits():
            assert sys.get_int_max_str_digits() == 0
        assert sys.get_int_max_str_digits() == 0
    assert sys.get_int_max_str_digits() == old


def test_import_loads_no_scipy():
    proc = _python(
        "import sys\n"
        "import heightcount.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n",
        stdout=subprocess.PIPE,
    )
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.strip() == "[]"
