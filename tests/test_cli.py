import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
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
    s = canonical_params("count", {"b": "1/3", "a": "1,2"})
    assert s.index('"a"') < s.index('"b"')
    assert '"b": "1/3"' in s and '"a": "1,2"' in s


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


def test_count_payload_independent_of_threads(tmp_path, capsys):
    # every scan runs on one thread: --threads is kept for older command
    # lines, changes no count, and still rejects values below 1
    payloads = []
    for threads in (1, 2):
        argv = ["--cache", str(tmp_path / f"m{threads}.jsonl"), "--json", "--threads", str(threads)]
        assert main(argv + ["count", "--target", "pgl2-adjoint", "--grid", "64", "--primes", "2,3"]) == 0
        payloads.append(json.loads(capsys.readouterr().out)["payload"])
    assert payloads[0] == payloads[1]
    assert _rejected_without_record(tmp_path, ["--threads", "0", "invariants", "--type", "A2"])


def test_count_product_target(tmp_path):
    cfg = make_config(tmp_path, "count", {"target": "product-pgl2:1,2"}, grid=[64])
    (rec,) = run(cfg)
    from heightcount.enumeration import convolve_counts, scan_pgl2_adjoint

    s = scan_pgl2_adjoint(64).spectrum()
    assert rec.payload["total"] == convolve_counts(s, s, 1, 2, 64)


def test_count_projective_target(tmp_path):
    from heightcount.enumeration import count_projective

    cfg = make_config(tmp_path, "count", {"target": "projective:1"}, grid=[10, 20])
    recs = run(cfg)
    assert [r.payload["total"] for r in recs] == [
        sum(count_projective(1, t).counts)
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
    csv_path.write_text("stale\n" * 100)  # overwritten, not appended to
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
    assert "stale" not in csv_path.read_text()


def _spectrum_csv(spectrum) -> str:
    return "height,count\n" + "".join(f"{h},{c}\n" for h, c in enumerate(spectrum.counts) if c)


def _count_calls(monkeypatch, name):
    # the CLI looks the counting functions up in enumeration at each call
    from heightcount import enumeration

    calls = []
    real = getattr(enumeration, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, name, counted)
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


def test_product_count_with_primes_runs_a_plain_scan(tmp_path, monkeypatch, capsys):
    # a product payload has no histograms, so its tracked primes need no
    # Cartan rows
    calls = _count_calls(monkeypatch, "scan_pgl2_adjoint")
    payloads = {}
    for primes in ([], ["--primes", "2,3"]):
        argv = ["--cache", str(tmp_path / f"c{len(primes)}.jsonl"), "--json",
                "count", "--target", "product-pgl2:1,2", "--grid", "16,64"] + primes
        assert main(argv) == 0
        payloads[bool(primes)] = [json.loads(line)["payload"] for line in capsys.readouterr().out.splitlines()]
    assert [args[1] for args in calls] == [(), ()]
    for plain, primed in zip(payloads[False], payloads[True]):
        assert primed["query"]["primes"] == [2, 3]
        assert primed["total"] == plain["total"]
        assert primed["spectrum_digest"] == plain["spectrum_digest"]


def _exit_2_in_one_line(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code == 2 and len(err.splitlines()) == 1 and "Traceback" not in err


def test_main_missing_config_file_exit_2(tmp_path, capsys):
    argv = ["--cache", str(tmp_path / "c.jsonl"), "--config", str(tmp_path / "missing.cfg"),
            "invariants", "--weight", "1,1"]
    assert _exit_2_in_one_line(argv, capsys)


def test_main_cache_directory_exit_2(tmp_path, capsys):
    argv = ["--cache", str(tmp_path), "invariants", "--type", "A2"]
    assert _exit_2_in_one_line(argv, capsys)


def test_main_csv_in_missing_directory_exit_2(tmp_path, capsys):
    # the CSV path fails before the count: nothing printed, nothing cached
    cache = tmp_path / "c.jsonl"
    for target in ("projective:1", "pgl2-adjoint"):
        argv = ["--cache", str(cache), "--csv", str(tmp_path / "missing" / "s.csv"),
                "count", "--target", target, "--grid", "64,128"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert not cache.exists()


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


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("terminated", [True, False], ids=["indexed", "tail"])
def test_cache_non_json_constant_is_malformed(tmp_path, capsys, constant, terminated):
    # json.loads reads these tokens, so such a line used to be served
    path = tmp_path / "c.jsonl"
    line = _rec("abc", {"v": 1}).line().replace('{"v": 1}', f'{{"v": {constant}}}')
    path.write_text(line + ("\n" if terminated else ""))
    cache = ResultCache(str(path), __version__)
    assert cache.lookup("abc") is None
    assert cache.skipped_lines == 1
    assert f"malformed cache line 1: {constant} is not JSON" in capsys.readouterr().err


def test_main_non_json_cached_payload_is_recomputed(tmp_path, capsys):
    # a record the parent cached for this query, holding "c_eps": Infinity,
    # used to be served as a hit, whose --json line then failed to print
    cache = tmp_path / "c.jsonl"
    digest = params_digest("mixing-probe", {"eps": "-25.5", "m": "4", "max_exponent": "20",
                                            "pexp": "2,2.5,3", "prime": "2"})
    line = _rec(digest, {"c_eps": 1.0}).line().replace('{"c_eps": 1.0}', '{"c_eps": Infinity}')
    cache.write_text(line + "\n")
    before = cache.read_bytes()
    assert main(["--cache", str(cache), "--json", "mixing-probe", "--eps=-25.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and cache.read_bytes() == before
    lines = captured.err.splitlines()
    assert len(lines) == 2 and "malformed cache line 1: Infinity is not JSON" in lines[0]
    assert lines[1].startswith("invalid configuration:") and "JSON compliant" not in lines[1]


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


def test_main_mixing_probe_float_overflow_exit_2(tmp_path, capsys):
    # the L^p probe's cell volume 37^199 * 38 at its last term passes the
    # float range; it used to escape as an OverflowError traceback
    argv = ["--cache", str(tmp_path / "c.jsonl"), "mixing-probe", "--prime", "37", "--max-exponent", "3"]
    assert _exit_2_in_one_line(argv, capsys)
    assert not (tmp_path / "c.jsonl").exists()


def _rejected_without_record(tmp_path, argv):
    """True when ``argv`` exits 2 and leaves a seeded cache byte-identical."""
    cache = tmp_path / "c.jsonl"
    assert main(["--cache", str(cache), "invariants", "--type", "A2"]) == 0
    before = cache.read_bytes()
    code = main(["--cache", str(cache)] + argv)
    return code == 2 and cache.read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants"],
        ["invariants", "--weight", "1,1"],
        ["invariants", "--type", "A3", "--galois", "5"],
        ["invariants", "--type", "A3", "--galois", "[1,2,3]"],
        ["invariants", "--type", "A3", "--galois", '[[1],[2],["3"]]'],
        ["invariants", "--type", "A3", "--galois", "[[1],[2]]"],
    ],
    ids=["bare", "weight-only", "galois-int", "galois-flat", "galois-str", "galois-short"],
)
def test_main_invariants_malformed_exit_2(tmp_path, capsys, argv):
    assert _rejected_without_record(tmp_path, argv)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("factors", ["5", "[1,2]", "[[1],[]]"])
def test_main_config_malformed_factors_exit_2(tmp_path, factors):
    cfg_file = tmp_path / "rs.cfg"
    cfg_file.write_text(f"cartan=[[2,0],[0,2]]\nfactors={factors}\n")
    assert _rejected_without_record(tmp_path, ["--config", str(cfg_file), "invariants", "--weight", "1,1"])


@pytest.mark.parametrize(
    "cartan",
    ["5", "[[2,-1],5]", "[[2,-1],[-1,2.0]]", '[[2,-1],[-1,"2"]]', "[[2,-1],[-1]]"],
    ids=["int", "row-int", "float", "str", "ragged"],
)
def test_main_config_malformed_cartan_exit_2(tmp_path, capsys, cartan):
    cfg_file = tmp_path / "rs.cfg"
    cfg_file.write_text(f"cartan={cartan}\n")
    assert _rejected_without_record(tmp_path, ["--config", str(cfg_file), "invariants", "--weight", "1,1"])
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_main_config_and_flags_give_one_root_datum(tmp_path, capsys):
    cfg_file = tmp_path / "a3.cfg"
    for text, flags, weight in (
        ("type=A3\ngalois=[[1,3],[2]]\n", ["--type", "A3", "--galois", "[[1,3],[2]]"], ["--weight", "1,1,1"]),
        # the adjoint weight used to read --type alone, so the file exited 2
        ("type=A3\n", ["--type", "A3"], []),
    ):
        cfg_file.write_text(text)
        payloads = []
        for argv in (["--config", str(cfg_file), "invariants"], ["invariants"] + flags):
            assert main(["--cache", str(tmp_path / "c.jsonl"), "--json"] + argv + weight) == 0
            payloads.append(json.loads(capsys.readouterr().out)["payload"])
        assert payloads[0] == payloads[1]
        assert (payloads[0]["label"], payloads[0]["b"]) == ("A3", 1)


def test_main_adjoint_weight_of_a_cartan_datum_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "a2.cfg"
    cfg_file.write_text("cartan=[[2,-1],[-1,2]]\n")
    assert _rejected_without_record(tmp_path, ["--config", str(cfg_file), "invariants"])
    assert "--weight adjoint needs a named type" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--target", "pgl2-adjoint", "--grid", "64", "--primes", "2,,3"],
        ["count", "--target", "pgl2-adjoint", "--grid", "64", "--primes", "2,3,"],
        ["count", "--target", "pgl2-adjoint", "--grid", "16,,32"],
        ["count", "--target", "product-pgl2:1,", "--grid", "64"],
        ["fit", "--target", "projective:2", "--count-grid", "16,,32,64,128,256"],
        ["zeta", "--primes", "2,,3"],
        ["equidist", "--grid", "64", "--primes", ",2"],
        ["invariants", "--type", "A2", "--weight", "1,,1"],
        ["mixing-probe", "--pexp", "2,,3"],
    ],
    ids=["count-primes", "count-primes-trailing", "grid", "product", "count-grid", "zeta-primes",
         "equidist-primes", "weight", "pexp"],
)
def test_main_empty_comma_list_item_exit_2(tmp_path, capsys, argv):
    # count's --primes and fit's --count-grid used to drop empty items, and
    # stored the payload of the list without them under another digest
    assert _rejected_without_record(tmp_path, argv)
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: empty item in") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--primes="],
        ["zeta", "--at="],
        ["mixing-probe", "--pexp="],
        ["equidist", "--grid", "64", "--primes="],
        ["invariants", "--type", "A2", "--weight="],
        ["fit", "--count-grid", "16,32,64,128,256", "--a="],
    ],
    ids=["zeta-primes", "zeta-at", "pexp", "equidist-primes", "weight", "fit-a"],
)
def test_main_empty_value_of_a_non_empty_default_exit_2(tmp_path, capsys, argv):
    # these ran with the default and stored its payload under another digest
    assert _rejected_without_record(tmp_path, argv)
    err = capsys.readouterr().err
    flag = argv[-1].rstrip("=")
    assert err == f"invalid configuration: {flag} is empty\n"


def test_main_empty_value_of_an_empty_default_keeps_its_digest(tmp_path, capsys):
    lines = []
    for primes in ([], ["--primes="]):
        argv = ["count", "--target", "pgl2-adjoint", "--grid", "64"] + primes
        assert main(["--cache", str(tmp_path / f"c{len(lines)}.jsonl"), "--json"] + argv) == 0
        lines.append(json.loads(capsys.readouterr().out))
    assert lines[0]["digest"] == lines[1]["digest"]
    assert lines[0]["payload"] == lines[1]["payload"]


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--type", "B2"],
        ["invariants", "--galois", "[[1,2]]", "--weight", "1,1"],
        ["zeta", "--primes", "2"],
    ],
    ids=["with-type", "with-galois", "zeta"],
)
def test_main_config_with_flags_or_other_subcommands_exit_2(tmp_path, capsys, argv):
    # the file's datum used to win, mixed with --type's adjoint weight or
    # ignoring --galois, and other subcommands digested the file unread
    cfg_file = tmp_path / "a2.cfg"
    cfg_file.write_text("type=A2\n")
    assert _rejected_without_record(tmp_path, ["--config", str(cfg_file)] + argv)
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--type", "A2", "--weight", "1/0,1"],
        ["fit", "--count-grid", "16,32,64,128,256", "--a", "1/0"],
    ],
    ids=["invariants-weight", "fit-a"],
)
def test_main_zero_denominator_exit_2(tmp_path, capsys, argv):
    # Fraction("1/0") raises ZeroDivisionError, which is no ValueError: it
    # used to escape main as a traceback
    assert _rejected_without_record(tmp_path, argv)
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--max-exponent", "2", "--eps", "nan"], id="--eps-nan"),
        pytest.param(["--max-exponent", "2", "--eps", "inf"], id="--eps-inf"),
        pytest.param(["--max-exponent", "2", "--pexp", "nan"], id="--pexp-nan"),
        pytest.param(["--max-exponent", "2", "--pexp", "2,-inf"], id="--pexp-2,-inf"),
        # finite options whose constants or sums leave the float range
        pytest.param(["--eps=-25.5"], id="c_eps-infinite"),
        pytest.param(["--eps=-26.5"], id="eta-power-underflow"),
        pytest.param(["--eps", "100"], id="eta-power-overflow"),
        pytest.param(["--pexp=-1000"], id="kernel-power-overflow"),
        pytest.param(["--prime", "31", "--max-exponent", "3", "--pexp=-2"], id="lp-sum-infinite"),
    ],
)
def test_main_mixing_probe_non_finite_exit_2(tmp_path, capsys, argv):
    # a NaN or an infinity used to be cached as NaN/Infinity, which is not
    # JSON, and an overflow or a division by zero escaped as a traceback
    assert _rejected_without_record(tmp_path, ["mixing-probe"] + argv)
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "option",
    [["--a", "1e400"], ["--a=-150"], ["--a=-300"], ["--b=-500"]],
    ids=["a-float-overflow", "a-150", "a-300", "b-500"],
)
def test_main_fit_non_finite_exit_2(tmp_path, capsys, option):
    # 1e400 is a valid rational past the float range (it used to escape as
    # an OverflowError); the others made the normalised counts infinite,
    # and were cached as NaN/Infinity
    assert _rejected_without_record(tmp_path, ["fit", "--count-grid", "16,32,64,128,256"] + option)
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and len(err.splitlines()) == 1


def test_main_non_json_payload_exit_4_without_record(tmp_path, capsys, monkeypatch):
    from heightcount import cli

    options = cli._SUBCOMMANDS["zeta"][1]
    monkeypatch.setitem(cli._SUBCOMMANDS, "zeta", (lambda *args: {"v": float("inf")}, options))
    cache = tmp_path / "c.jsonl"
    assert main(["--cache", str(cache), "--json", "zeta"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal invariant violation:")
    assert len(err.splitlines()) == 1 and not cache.exists()


def test_main_zeta_at_past_the_exact_limit_exit_3_without_record(tmp_path, capsys):
    # --at 4000000 ran for minutes; 2^65536 is still exact, 3^41350 is past
    # 2^65536
    cache = tmp_path / "c.jsonl"
    assert main(["--cache", str(cache), "zeta", "--primes", "2", "--at", "65536"]) == 0
    before = cache.read_bytes()
    capsys.readouterr()
    for argv in (["--at", "4000000"], ["--primes", "3", "--at", "41350"]):
        assert main(["--cache", str(cache), "zeta"] + argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource guard:") and len(err.splitlines()) == 1
        assert cache.read_bytes() == before


def test_main_fit_exponent_flags_parse(tmp_path, capsys):
    # fit's --a is its own option, not an abbreviation of a global flag
    digests = []
    for extra in ([], ["--a", "2"], ["--a=2", "--b", "1"]):
        argv = ["--cache", str(tmp_path / "c.jsonl"), "--json", "fit", "--count-grid", "16,32,64,128,256"]
        assert main(argv + extra) == 0
        digests.append(json.loads(capsys.readouterr().out)["digest"])
    assert digests == [digests[0]] * 3
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 1
    # and a global flag is no longer matched by a prefix
    assert main(["--cache", str(tmp_path / "c.jsonl"), "--aud", "1", "invariants", "--type", "A2"]) == 2


# one command line per subcommand with every option at its default, and the
# digest that main stores for it (recorded before the option table existed)
DEFAULT_DIGESTS = [
    (["invariants", "--type", "A2"], "f8e0d802348f76a52a39a329fdbb28d7937606a0e515fc3d0a78290ba9347865"),
    (["count", "--target", "pgl2-adjoint", "--grid", "16"], "fbdeb1cae047caf82407628d63352e9254d1606f560c7f7c5db0a4158fd71123"),
    (["zeta"], "d2e6a0762e8e10049011ba65cf82eef40cc899922f0d1206539859e03addec69"),
    (["zeta", "--residue"], "ffef2082eaca3a5bfe4a008e2331cf97ce1724696bcd26a54be74c89ed0e409d"),
    (["fit", "--count-grid", "16,32,64,128,256"], "8b23f486100f3126d068224719ac7f4fed89ac8d417a7b9f728d32b4c2a194e7"),
    (["mixing-probe"], "c541eeef266989247d46ea975a47cddb01156928fe22157daae1ba3c2eef1729"),
    (["equidist", "--grid", "16"], "349057c73d8869d5b5839f17d8b7f72bf9a4f397f2c9094a54e640c68fba8916"),
]
# the same queries through run(), with only the options that have no default
RUN_PARAMS = [
    ("invariants", {"type": "A2"}, []),
    ("count", {"target": "pgl2-adjoint"}, [16]),
    ("zeta", {}, []),
    ("zeta", {"residue": True}, []),
    ("fit", {"count_grid": "16,32,64,128,256"}, []),
    ("mixing-probe", {}, []),
    ("equidist", {}, [16]),
]


@pytest.mark.parametrize("argv, digest", DEFAULT_DIGESTS, ids=[" ".join(a[:2]) for a, _ in DEFAULT_DIGESTS])
def test_main_default_digests_are_pinned(tmp_path, capsys, argv, digest):
    assert main(["--cache", str(tmp_path / "c.jsonl"), "--json"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == digest


@pytest.mark.parametrize(
    "line, run_params", zip(DEFAULT_DIGESTS, RUN_PARAMS), ids=[" ".join(a[:2]) for a, _ in DEFAULT_DIGESTS]
)
def test_run_fills_defaults_like_main(tmp_path, line, run_params):
    # run() with options left out keys them at their defaults: one record,
    # whichever of run() and main asks first
    (argv, digest), (subcommand, params, grid) = line, run_params
    (rec,) = run(make_config(tmp_path, subcommand, params, grid=grid))
    assert rec.params_digest == digest
    assert main(["--cache", str(tmp_path / "cache.jsonl")] + argv) == 0
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1


def test_zeta_cutoff_keys_only_the_residue(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    argv = ["--cache", str(cache), "--json", "zeta", "--primes", "2"]
    assert main(argv + ["--cutoff", "5"]) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--cutoff", "7"]) == 0
    # without --residue the cutoff changes nothing: a hit, one record
    assert capsys.readouterr().out == first
    assert len(cache.read_text().splitlines()) == 1
    for cutoff in ("5", "7"):
        assert main(argv + ["--residue", "--cutoff", cutoff]) == 0
    assert len(cache.read_text().splitlines()) == 3


def test_default_residue_payload_is_pinned(tmp_path, capsys):
    assert main(["--cache", str(tmp_path / "c.jsonl"), "--json", "zeta", "--residue"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["residue"] == {
        "converged": True,
        "cutoff": 2000,
        "error": 0.001035775578469377,
        "value": 2.026305197661619,
    }


def test_main_residue_cutoff_above_the_limit_exit_3_without_record(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    assert main(["--cache", str(cache), "invariants", "--type", "A2"]) == 0
    before = cache.read_bytes()
    capsys.readouterr()
    code = main(["--cache", str(cache), "zeta", "--residue", "--cutoff", str(10**11)])
    assert code == 3
    assert capsys.readouterr().err.startswith("resource guard:")
    assert cache.read_bytes() == before


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


@pytest.mark.parametrize("grid", ["-5,100", "0,10"])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--target", "pgl2-adjoint", "--primes", "2"],
        ["count", "--target", "pgl2-adjoint"],
        ["count", "--target", "product-pgl2:1,2"],
        ["count", "--target", "projective:1"],
        ["equidist", "--primes", "2"],
    ],
    ids=["pgl2-primed", "pgl2", "product", "projective", "equidist"],
)
def test_main_nonpositive_grid_point_exit_2(tmp_path, argv, grid):
    # a threshold T < 1 counts nothing; it used to be cached as a slice
    # [:T] of the top scan (T = -5 held the count below height 95)
    assert _rejected_without_record(tmp_path, argv + [f"--grid={grid}"])


def test_scan_reads_reject_nonpositive_threshold():
    from heightcount.enumeration import EnumerationError, scan_pgl2_adjoint

    scan = scan_pgl2_adjoint(100, (2,))
    for T in (0, -5):
        with pytest.raises(EnumerationError, match=">= 1"):
            scan.spectrum(T)
        with pytest.raises(EnumerationError, match=">= 1"):
            scan.histogram(2, T)


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


def test_cache_hit_loads_no_numpy_or_mpmath(tmp_path):
    # a fresh interpreter answering every query from a filled cache prints
    # the miss's bytes without loading numpy, mpmath or the enumerator
    queries = [
        ["zeta", "--residue"],
        ["count", "--target", "pgl2-adjoint", "--grid", "16,64", "--primes", "2,3"],
    ]
    heavy = ("numpy", "mpmath", "heightcount.enumeration")
    code = (
        "import sys\n"
        "from heightcount.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    for query in queries:
        argv = ["--cache", str(tmp_path / "c.jsonl"), "--json"] + query
        outs = []
        for _ in range(2):  # a miss, then a hit
            proc = _python(code, *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            outs.append((out, err))
        (miss, _), (hit, loaded) = outs
        assert hit == miss
        assert loaded.strip() == "[]"
    proc = _python(
        "import sys\n"
        "import heightcount\n"
        "print(sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))\n",
        stdout=subprocess.PIPE,
    )
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.strip() == "[]"


# the cold primed count a user runs (and cli-session times), pinned to the
# payloads and CSV of the spectrum sweep before the Cartan-row rework
COLD_PRIMED_PINS = {
    256: (318256, "80e52ceb38601ff5d297b689bce1a397cd4c9d109b0529161848c39dbf89aef5"),
    512: (1361176, "e30f4a4bc062866995bde0ff55ec1213ce2807f01ea26e97fd4c60d88fab6e0c"),
    1024: (5347832, "2501f65163eee67d37b3d22f1669dfcdedb49372f5bf9628099f82f516642e87"),
    2048: (22413416, "8468c6063d2389d847865a8b5ad3a8cf1eac4f1efa4ec583f493c5121b4009c1"),
}
COLD_PRIMED_HISTOGRAMS_SHA256 = "e7bcb7d063ca70e3d1096a2643d1bb77f21f7b31f4898c37e11c90cb9e6641a6"
COLD_PRIMED_CSV_SHA256 = "dc68026cc4d77b1b246abc3048b0ac75049cf9a14ae47d93c107d3210f8e9ec5"


def test_cold_primed_count_is_pinned(tmp_path, capsys):
    import hashlib

    csv_path = tmp_path / "spectrum.csv"
    argv = ["--cache", str(tmp_path / "c.jsonl"), "--json", "--csv", str(csv_path), "count",
            "--target", "pgl2-adjoint", "--grid", "256,512,1024,2048", "--primes", "2,3"]
    assert main(argv) == 0
    payloads = [json.loads(line)["payload"] for line in capsys.readouterr().out.splitlines()]
    assert {p["T"]: (p["total"], p["spectrum_digest"]) for p in payloads} == COLD_PRIMED_PINS
    hists = json.dumps([p["histograms"] for p in payloads], sort_keys=True).encode()
    assert hashlib.sha256(hists).hexdigest() == COLD_PRIMED_HISTOGRAMS_SHA256
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == COLD_PRIMED_CSV_SHA256


@pytest.mark.parametrize("grid", ["0,16,64,128", "-4,16,64,128"])
def test_main_fit_nonpositive_count_grid_exit_2(tmp_path, capsys, grid):
    # a count at T < 1 used to reach the fit: a numpy divide-by-zero warning
    # and "counts must be positive to fit", or "span too small"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _rejected_without_record(tmp_path, ["fit", "--target", "projective:2", f"--count-grid={grid}"])
    assert "grid points must be >= 1" in capsys.readouterr().err


# --------------------------------------------------------------------------
# the grammar: global flags, the subcommand, then its options, read in one
# argparse pass; the digests below are those the two-pass parser stored


ZETA_PRIMES_2 = "21e3eeeab0c6a7d58c66320b79991bbaa8e4b09cf914b5f9d74c7e770ddc4fcb"
GRAMMAR_DIGESTS = [
    (["--cache", "count", "--json", "zeta", "--primes", "2"], ZETA_PRIMES_2),
    (["--cache=count", "--json", "zeta", "--primes=2"], ZETA_PRIMES_2),
    (["--json", "--cache", "count", "zeta", "--pr", "2"], ZETA_PRIMES_2),
    (["--seed", "-1", "--json", "--cache", "count", "zeta", "--prim=2"], ZETA_PRIMES_2),
    (["--json", "--cache", "zeta", "zeta"], DEFAULT_DIGESTS[2][1]),
    (["--json", "--cache", "--primes=a b", "zeta", "--primes", "2"], ZETA_PRIMES_2),  # a path with a space
    (["--json", "--cache", "c", "count", "--t", "pgl2-adjoint", "--g", "16"], DEFAULT_DIGESTS[1][1]),
    (["--json", "--cache", "c", "count", "--target=pgl2-adjoint", "--grid=16"], DEFAULT_DIGESTS[1][1]),
    (["--json", "--cache", "c", "fit", "--co", "16,32,64,128,256"], DEFAULT_DIGESTS[4][1]),
    (["--json", "--cache", "c", "mixing-probe", "--m", "4"], DEFAULT_DIGESTS[5][1]),
    (["--json", "--cache", "c", "zeta", "--res"], DEFAULT_DIGESTS[3][1]),
    (["--json", "--cache", "c", "--threads=2", "--audit-rate=0", "invariants", "--ty=A2"], DEFAULT_DIGESTS[0][1]),
]


@pytest.mark.parametrize("argv, digest", GRAMMAR_DIGESTS, ids=[" ".join(a) for a, _ in GRAMMAR_DIGESTS])
def test_main_grammar_keeps_digests(tmp_path, monkeypatch, capsys, argv, digest):
    # a global flag's value may name a subcommand, --flag=value works on
    # both sides, and a subcommand's options may be abbreviated
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == digest


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--json"],
        ["--cache", "zeta"],  # zeta is the cache path: no subcommand
        ["zeta", "--cache", "X"],
        ["zeta", "--json"],
        ["zeta", "--seed=1"],
        ["--primes", "2", "zeta"],
        ["--threads", "x", "invariants"],
        ["--aud", "1", "invariants"],
        ["--he", "zeta"],
        ["mixing-probe", "--p", "3"],  # --prime or --pexp
        ["zeta", "--", "--primes", "2"],
        ["--", "zeta"],
        ["zeta", "zeta"],
    ],
)
def test_main_grammar_rejects_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no cache file made


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["zeta", "--help"], ["zeta", "--he"], ["--help", "zeta", "--json"], ["-h", "mixing-probe", "--p", "3"]],
)
def test_main_help_exits_0(tmp_path, monkeypatch, capsys, argv):
    # help is read where argparse reaches it, before an error it finds later
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: heightcount") and "global flags" in out
    assert not list(tmp_path.iterdir())


def test_main_reads_a_line_in_one_argparse_pass(tmp_path, monkeypatch):
    import argparse

    from heightcount.cli import _build_parser

    argv = ["--cache", str(tmp_path / "c.jsonl"), "--json", "zeta", "--primes", "2"]
    assert main(argv) == 0
    passes = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_known_args", lambda self, *a, **kw: passes.append(self) or parse(self, *a, **kw)
    )
    assert main(argv) == 0  # a hit
    assert passes == [_build_parser("zeta")]


# --------------------------------------------------------------------------
# a cache hit prints the line it was read from


def test_hit_prints_the_cache_lines(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    argv = ["--cache", str(cache), "--json", "count", "--target", "pgl2-adjoint", "--grid", "16,32,64,128",
            "--primes", "2,3"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == cache.read_bytes() == cold.encode()
    assert len(cold.splitlines()) == 4


def test_hit_prints_a_projective_line_past_4300_digits(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    argv = ["--cache", str(cache), "--json", "count", "--target", "projective:5000", "--grid", "10"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    hit = capsys.readouterr().out.encode()
    assert hit == cache.read_bytes() and len(hit) > 4300


def _noncanonical_zeta_line(tmp_path, capsys, payload=None):
    """The cache line of ``zeta --primes 2`` rewritten with other key order
    and spacing (and ``payload`` if given)."""
    cache = tmp_path / "c.jsonl"
    assert main(["--cache", str(cache), "--json", "zeta", "--primes", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    obj = dict(reversed(list(obj.items())), payload=payload or obj["payload"])
    line = json.dumps(obj, indent=None, separators=(" ,", ":  "))
    cache.write_text(line + "\n")
    return cache, line


def test_hit_prints_a_noncanonical_line_as_stored(tmp_path, capsys):
    cache, line = _noncanonical_zeta_line(tmp_path, capsys)
    assert main(["--cache", str(cache), "--json", "zeta", "--primes", "2"]) == 0
    assert capsys.readouterr().out == line + "\n"
    # the table output reads the decoded payload
    assert main(["--cache", str(cache), "zeta", "--primes", "2"]) == 0
    assert "'value_at': {'2': '5/2'}" in capsys.readouterr().out
    assert cache.read_text() == line + "\n"


def test_audit_compares_decoded_payloads_of_a_noncanonical_line(tmp_path, capsys):
    argv = ["--audit-rate", "1", "--json", "zeta", "--primes", "2"]
    cache, line = _noncanonical_zeta_line(tmp_path, capsys)
    assert main(["--cache", str(cache)] + argv) == 0  # same payload, other spelling
    assert capsys.readouterr().out == line + "\n"
    obj = json.loads(line)
    obj["payload"]["factors"][0]["p"] = 3
    cache, line = _noncanonical_zeta_line(tmp_path, capsys, obj["payload"])
    assert main(["--cache", str(cache)] + argv) == 4
    assert "cache audit mismatch" in capsys.readouterr().err


def test_miss_encodes_its_record_once(tmp_path, monkeypatch, capsys):
    import heightcount.cli as cli

    encoded = []
    dumps = json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda obj, **kw: encoded.append("payload" in obj) or dumps(obj, **kw))
    cache = tmp_path / "c.jsonl"
    assert main(["--cache", str(cache), "--json", "zeta", "--primes", "2"]) == 0
    assert encoded.count(True) == 1  # one line for the append and the print
    assert capsys.readouterr().out.encode() == cache.read_bytes()


# tokens that probe how argparse classifies a word: flags, their prefixes
# and "=" forms on both sides of the subcommand, values with spaces,
# negative numbers, "--" and "-h" variants
SUBCOMMAND_NAMES = ["invariants", "count", "zeta", "fit", "mixing-probe", "equidist"]
GRAMMAR_WORDS = (
    SUBCOMMAND_NAMES
    + ["--", "-", "", "-h", "--help", "--he", "-hx", "-hh", "-h=x", "--=x", "-x", "---json"]
    + ["--config", "--threads", "--cache", "--json", "--csv", "--allow-stale", "--seed", "--audit-rate"]
    + ["--aud", "--al", "--c", "--s", "--cache=x", "--cache=a b", "--seed=3", "--json=1", "--threads=x"]
    + ["--primes", "--prime", "--pr", "--p", "--at", "--a", "--b", "--res", "--r", "--cutoff", "--c=5"]
    + ["--target", "--t", "--ta", "--grid", "--g", "--gr=16", "--count-grid", "--co", "--type", "--ty"]
    + ["--weight", "--max-exponent", "--m", "--ma", "--eps", "--pexp", "--primes=a b", "--seed=1 2"]
    + ["--tar=a b", "2", "-1", "-0.5", "x", "a b", "pgl2-adjoint", "16", "2,3", "A2"]
)


def _read(parse, argv):
    """("exit", code) or ("ok", the values read) for one parse of argv."""
    try:
        return "ok", vars(parse(argv))
    except SystemExit as exc:
        return "exit", 0 if exc.code in (0, None) else 2


def _compare_with_the_two_pass_parser(seed, lines, dashes=0.0):
    """The number of ``lines`` seeded random lines that both parsers accept;
    fails on the first line they read differently."""
    import random

    from heightcount.cli import _parse_args
    from oracles import two_pass_parser

    oracle = two_pass_parser()
    rng = random.Random(seed)
    accepted = 0
    for _ in range(lines):
        argv = [rng.choice(GRAMMAR_WORDS) for _ in range(rng.randrange(7))]
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(SUBCOMMAND_NAMES))
        if rng.random() < dashes:
            argv.insert(rng.randrange(len(argv) + 1), "--")
        want = _read(oracle.parse_args, argv)
        assert _read(_parse_args, argv) == want, argv
        accepted += want[0] == "ok"
    return accepted


def test_one_pass_grammar_matches_the_two_pass_parser(capsys):
    assert _compare_with_the_two_pass_parser(25, 2500) > 100
    capsys.readouterr()


def test_one_pass_grammar_where_argparse_drops_a_dash_dash(monkeypatch, capsys):
    # later argparse versions drop the "--" in "heightcount -- zeta" and
    # run zeta; the one-pass reading follows whichever argparse it runs on
    import argparse

    get_values = argparse.ArgumentParser._get_values

    def dropping(self, action, arg_strings):
        if action.nargs == argparse.PARSER and arg_strings[:1] == ["--"]:
            arg_strings = arg_strings[1:]
        return get_values(self, action, arg_strings)

    monkeypatch.setattr(argparse.ArgumentParser, "_get_values", dropping)
    assert _compare_with_the_two_pass_parser(26, 2500, dashes=0.3) > 100
    capsys.readouterr()
