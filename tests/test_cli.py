"""Command-line interface: exit codes, output schema, campaign plumbing."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham import complexcheck, exactla, hodge, refcheck
from derham.cli import k_range, main
from derham.complexcheck import NAIVE_DIAGRAM
from derham.operators import OpMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mesh_info_ok(capsys):
    code, out, _ = run(capsys, "mesh-info", "--kind", "tri", "--nx", "2", "--ny", "2")
    assert code == 0
    assert "cells=8" in out and "faces=12" in out and "points=4" in out


def test_python_m_derham_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "derham", "mesh-info", "--kind", "tri",
                           "--nx", "2", "--ny", "2"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "cells=8" in proc.stdout and "faces=12" in proc.stdout


def test_mesh_info_rejects_small_grid(capsys):
    code, _, err = run(capsys, "mesh-info", "--kind", "quad", "--nx", "1", "--ny", "3")
    assert code == 2
    assert "nx >= 2" in err


def test_mesh_info_json(capsys):
    code, out, _ = run(capsys, "mesh-info", "--kind", "quad", "--nx", "3", "--ny", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["cells"] == 6 and doc["faces"] == 12 and doc["points"] == 6
    assert doc["counts_match_formulas"] is True


def test_verify_range(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "tri-dp",
                       "--nx", "2", "--ny", "2", "--k", "0..1")
    assert code == 0
    assert out.count("-> PASS") == 2
    assert "summary: 2/2" in out


def test_verify_naive_rank(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "quad-naive-k0",
                       "--nx", "3", "--ny", "4")
    assert code == 0
    assert "rank: expected=17 computed=17" in out


def test_verify_enriched_kernel(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "quad-enriched",
                       "--k", "1", "--nx", "2", "--ny", "2")
    assert code == 0
    assert "second_kernel_dim: expected=17 computed=17" in out


def test_verify_needs_target(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "--diagram or --all" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "tri-dp", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["passed"] is True
    checks = doc["reports"][0]["checks"]
    assert any(c["name"] == "betti_numbers" for c in checks)


def test_naive_float_check_at_32x32(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "quad-naive-k0", "--nx", "32",
                       "--ny", "32", "--float-check", "--format", "json")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["reports"][0]["checks"]}
    # rank 2N - Nx - Ny with N = 32 x 32 cells
    assert checks["rank_float"]["computed"] == 1984
    assert checks["rank_float"]["backend"] == "float"


def test_verify_jobs_pool(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "tri-dp", "--k", "0..1",
                       "--jobs", "2")
    assert code == 0
    assert "summary: 2/2" in out


def test_appendix(capsys):
    code, out, _ = run(capsys, "appendix", "--nx", "3", "--ny", "3")
    assert code == 0
    assert "nullity: expected=10 computed=10" in out


def test_refcheck(capsys):
    code, out, _ = run(capsys, "refcheck", "--cell", "tri", "--k", "3")
    assert code == 0
    assert "boundary_map_rank: expected=11 computed=11" in out


def test_hodge(capsys):
    code, out, _ = run(capsys, "hodge", "--diagram", "tri-dp", "--k", "1",
                       "--seed", "7", "--fields", "4")
    assert code == 0
    assert "parts_pairwise_orthogonal" in out


def test_hodge_float_backend(capsys):
    code, out, _ = run(capsys, "hodge", "--diagram", "tri-dp", "--k", "0",
                       "--backend", "float", "--fields", "4")
    assert code == 0
    assert "-> PASS" in out


def test_audit(capsys):
    code, out, _ = run(capsys, "audit", "--kind", "quad", "--k-max", "2")
    assert code == 0
    assert "summary: 2/2" in out


def test_width_cap_exits_2(capsys, monkeypatch):
    # the jump-constraint count still eliminates exactly: 27 columns > 10
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "10")
    code, _, err = run(capsys, "appendix", "--nx", "3", "--ny", "3")
    assert code == 2
    assert "DERHAM_MAX_EXACT_COLS" in err
    assert "float" not in err  # only hodge has a float backend


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_width_cap_below_one_exits_2(tmp_path, raw):
    # a fresh process, so no cached reference result skips the cap
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "derham", "refcheck", "--cell", "tri"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src), DERHAM_MAX_EXACT_COLS=raw))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: DERHAM_MAX_EXACT_COLS must be a positive integer, got '{raw}'\n"


@pytest.mark.parametrize("k,width", [(45, 47 ** 2), (200, 202 ** 2)])
def test_refcheck_width_cap_before_any_basis(capsys, monkeypatch, k, width):
    # the map's scalar width (k+2)^2 is refused in closed form: no local
    # basis is built and nothing large is allocated
    def no_basis(*args, **kwargs):
        raise AssertionError("a local basis was built")

    monkeypatch.setattr(refcheck, "scalar_local_basis", no_basis)
    monkeypatch.setattr(refcheck, "reference_basis", no_basis)
    monkeypatch.delenv("DERHAM_MAX_EXACT_COLS", raising=False)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "refcheck", "--cell", "quad", "--k", str(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == (f"error: {width} columns exceeds the exact cap "
                   f"{exactla.DEFAULT_MAX_EXACT_COLS}; raise DERHAM_MAX_EXACT_COLS\n")
    assert peak < 1 << 20


def test_verify_ignores_width_cap(capsys, monkeypatch):
    # verify certifies by witness plus rank mod p, so the exact cap never applies
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "10")
    code, out, _ = run(capsys, "verify", "--diagram", "tri-dp", "--k", "1")
    assert code == 0
    assert "-> PASS" in out


def run_broken_over_cap(capsys, monkeypatch, command):
    """Run ``command`` on tri-dp k=1 with one entry of second changed, under
    a cap one column below dim B."""
    build_diagram = complexcheck.build_diagram

    def broken(*args, **kwargs):
        inst = build_diagram(*args, **kwargs)
        second = inst.second
        inst.second = second + OpMatrix.from_entries(second.nrows, second.ncols,
                                                     {min(second.entries): 1})
        return inst

    monkeypatch.setattr(complexcheck, "build_diagram", broken)
    monkeypatch.setattr(hodge, "build_diagram", broken)
    dim_b = build_diagram("tri-dp", 2, 2, 1).b_space.dim
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", str(dim_b - 1))
    return run(capsys, command, "--diagram", "tri-dp", "--k", "1")


def test_width_cap_exits_2_on_broken_diagram(capsys, monkeypatch):
    # a broken complex misses its witness bounds, so its ranks are eliminated
    # over Q, where the cap applies
    code, out, err = run_broken_over_cap(capsys, monkeypatch, "verify")
    assert code == 2
    assert out == ""
    assert "DERHAM_MAX_EXACT_COLS" in err
    assert "float" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "hodge"])
def test_width_cap_names_no_float_backend(capsys, monkeypatch, command):
    # the float Hodge backend is slower than the exact one, so no command's
    # width-cap message advises it
    code, out, err = run_broken_over_cap(capsys, monkeypatch, command)
    assert code == 2
    assert out == ""
    assert err.endswith("; raise DERHAM_MAX_EXACT_COLS\n")
    assert "float" not in err


def test_hodge_ignores_width_cap(capsys, monkeypatch):
    # the exact splitter takes verify's certificate and solves only its normal
    # matrices, so the exact cap never applies
    monkeypatch.setenv("DERHAM_MAX_EXACT_COLS", "10")
    code, out, _ = run(capsys, "hodge", "--diagram", "tri-dp", "--k", "1")
    assert code == 0
    assert "-> PASS" in out


def test_replay_bound_exits_2_with_its_own_advice(capsys, monkeypatch):
    # the int64 replay bound of a lifted solve is fixed by its prime, so the
    # width-cap variable does not move it
    monkeypatch.setattr(exactla, "_replay_terms", lambda p: 1)
    code, out, err = run(capsys, "hodge", "--diagram", "tri-dp", "--k", "1")
    assert code == 2
    assert out == ""
    assert "replay bound" in err and err.endswith("; try a smaller mesh\n")
    assert "DERHAM_MAX_EXACT_COLS" not in err
    assert "Traceback" not in err


def test_dense_svd_over_physical_memory_exits_2(capsys, monkeypatch):
    # at 2x2 every float rank is one dense SVD; with the memory read as 1 kB
    # each is refused before anything is allocated
    monkeypatch.setattr(exactla, "_PHYSICAL_MEMORY", 1000)
    code, out, err = run(capsys, "verify", "--diagram", "tri-dp", "--k", "1", "--float-check")
    assert code == 2
    assert out == ""
    assert err.startswith("error: verify: a dense SVD of a ")
    assert "1,000 bytes of physical memory" in err
    assert err.endswith("; try a smaller mesh or drop --float-check\n")
    assert "Traceback" not in err


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes: list = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.sizes = []
    monkeypatch.setattr("derham.cli.ProcessPoolExecutor", FakePool)
    return FakePool


def test_jobs_pool_sized_to_job_count(capsys, fake_pool, monkeypatch):
    monkeypatch.setattr("derham.cli.os.cpu_count", lambda: 8)  # more cores than jobs
    code, out, _ = run(capsys, "verify", "--diagram", "tri-dp", "--k", "0..1",
                       "--jobs", "100000")
    assert code == 0
    assert "summary: 2/2" in out
    assert fake_pool.sizes == [2]


def test_jobs_single_job_runs_inline(capsys, fake_pool):
    code, _, _ = run(capsys, "verify", "--diagram", "tri-dp", "--jobs", "8")
    assert code == 0
    assert fake_pool.sizes == []


def test_jobs_pool_capped_at_the_core_count(capsys, fake_pool, monkeypatch):
    monkeypatch.setattr("derham.cli.os.cpu_count", lambda: 3)
    code, out, _ = run(capsys, "verify", "--all", "--jobs", "1000")
    assert code == 0
    assert fake_pool.sizes == [3]
    fake_pool.sizes.clear()
    monkeypatch.setattr("derham.cli.os.cpu_count", lambda: None)  # unknown: run inline
    assert run(capsys, "verify", "--diagram", "tri-dp", "--k", "0..1", "--jobs", "8")[0] == 0
    assert fake_pool.sizes == []


def test_jobs_pool_fed_in_bounded_batches_in_order(capsys, fake_pool, monkeypatch):
    # 20 levels on 2 workers go to the pool 8 at a time; the reports come
    # back in level order
    monkeypatch.setattr("derham.cli.os.cpu_count", lambda: 2)
    batches = []
    monkeypatch.setattr(fake_pool, "map",
                        lambda self, fn, items: batches.append(len(items)) or map(fn, items))
    monkeypatch.setattr("derham.cli._run_job", lambda job: SimpleNamespace(
        passed=True, format_text=lambda: f"level {job[4]}"))
    code, out, _ = run(capsys, "verify", "--diagram", "tri-dp", "--k", "0..19", "--jobs", "2")
    assert code == 0
    assert fake_pool.sizes == [2]
    assert batches == [8, 8, 4]
    assert out.splitlines() == [f"level {k}" for k in range(20)] + [
        "== summary: 20/20 reports passed"]


def out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv,report,advice", [
    (["verify", "--diagram", "tri-dp", "--float-check"], "verify_diagram",
     "; try a smaller mesh or drop --float-check\n"),
    (["verify", "--diagram", "tri-dp"], "verify_diagram", "; try a smaller mesh\n"),
    (["hodge", "--diagram", "tri-dp", "--backend", "float"], "hodge_report",
     "; try a smaller mesh or use --backend exact\n"),
    (["appendix", "--nx", "4", "--ny", "4"], "appendix_report", "; try a smaller mesh\n"),
    (["verify", "--diagram", "tri-dp", "--k", "0..1000000000000"], "verify_diagram",
     "; try a smaller mesh\n"),
    (["refcheck", "--cell", "quad", "--k", "0..1000000000000"], "refcheck_report",
     "; try a smaller mesh\n"),
    (["verify", "--diagram", "tri-dp", "--k", "0..1000000000000", "--jobs", "2"],
     "verify_diagram", "; try a smaller mesh\n"),
])
def test_out_of_memory_exits_2(capsys, monkeypatch, fake_pool, argv, report, advice):
    # the report raises MemoryError without allocating anything; the first
    # of a trillion levels runs before any list of them is built, inline or
    # in a pool
    calls = []
    monkeypatch.setattr(f"derham.cli.{report}",
                        lambda *a, **kw: calls.append(a) or out_of_memory())
    monkeypatch.setattr("derham.cli.os.cpu_count", lambda: 8)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[0]} ran out of memory{advice}"
    assert len(calls) == 1
    assert fake_pool.sizes == ([2] if "--jobs" in argv else [])


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(capsys, fake_pool, jobs):
    code, _, err = run(capsys, "verify", "--all", "--jobs", jobs)
    assert code == 2
    assert "--jobs must be at least 1" in err
    assert fake_pool.sizes == []


@pytest.mark.parametrize("argv,message", [
    (["hodge", "--diagram", "tri-dp", "--fields", "-1"], "fields must be >= 0, got -1"),
    (["refcheck", "--cell", "tri", "--samples", "-3"], "samples must be >= 0, got -3"),
    (["audit", "--kind", "tri", "--k-max", "-1"], "k_max must be >= 0, got -1"),
])
def test_invalid_count_exits_2(capsys, fake_pool, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""
    assert fake_pool.sizes == []


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--diagram", "tri-dp",
                       "--format", "json", "--output", str(path))
    assert code == 0
    assert json.loads(path.read_text())["passed"] is True
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ["mesh-info", "--kind", "tri", "--nx", "2", "--ny", "2"],
    ["verify", "--diagram", "tri-dp"],
])
def test_unwritable_output_exits_2_before_any_report(capsys, monkeypatch, fake_pool, tmp_path, argv):
    def boom(job):
        raise AssertionError("a report ran")
    monkeypatch.setattr("derham.cli._run_job", boom)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2
    assert err == f"error: cannot write --output {path}: No such file or directory\n"
    assert "Traceback" not in err
    assert out == ""
    assert fake_pool.sizes == []


def test_output_check_leaves_no_file(capsys, monkeypatch, tmp_path):
    path = tmp_path / "x.json"
    monkeypatch.setattr("derham.cli._dispatch", lambda args: 1 if path.exists() else 0)
    code, _, _ = run(capsys, "mesh-info", "--kind", "tri", "--nx", "2", "--ny", "2",
                     "--output", str(path))
    assert code == 0


def test_k_range_parser():
    assert k_range("2") == range(2, 3)
    assert list(k_range("0..3")) == [0, 1, 2, 3]
    assert k_range("0..1000000000000") == range(10 ** 12 + 1)  # lazy: no list of levels
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        k_range("3..1")
    with pytest.raises(argparse.ArgumentTypeError):
        k_range("x")
    with pytest.raises(argparse.ArgumentTypeError, match="levels must be >= 0"):
        k_range("-1000000000..0")  # refused before any range is built


def test_bad_subcommand_usage():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--k", "oops"])
    assert err.value.code == 2


# --- invalid numeric inputs, drawn by Hypothesis


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


_junk = st.text(max_size=6).filter(_not_an_int)
_small = st.integers(-3, 3)


def _size_argv():
    """A command taking --nx and --ny, one of them at most 1 or not an
    integer, the other a small valid size."""
    command = st.sampled_from([
        ["verify", "--diagram=tri-dp"], ["verify", f"--diagram={NAIVE_DIAGRAM}"],
        ["appendix"], ["hodge", "--diagram=quad-enriched"], ["mesh-info", "--kind=tri"],
        ["mesh-info", "--kind=quad"], ["audit", "--kind=tri"]])
    bad = st.one_of(st.integers(max_value=1).map(str), _junk, st.floats().map(repr))
    good = st.sampled_from(["2", "3"])
    sizes = st.one_of(st.tuples(bad, good), st.tuples(good, bad))
    return st.tuples(command, sizes).map(lambda t: t[0] + [f"--nx={t[1][0]}", f"--ny={t[1][1]}"])


def _level_argv():
    """A negative --k, plain or as the low end of a range, or a malformed
    LO..HI."""
    negative = st.one_of(st.integers(max_value=-1).map(str),
                         st.tuples(st.integers(max_value=-1), st.integers(-1, 2)).map(
                             lambda t: f"{t[0]}..{t[1]}"))
    malformed = st.one_of(
        st.tuples(_small, _small).filter(lambda t: t[1] < t[0]).map(lambda t: f"{t[0]}..{t[1]}"),
        st.tuples(_small, _junk).map(lambda t: f"{t[0]}..{t[1]}"),
        st.tuples(_junk, _small).map(lambda t: f"{t[0]}..{t[1]}"),
        st.tuples(_small, _small, _small).map(lambda t: "..".join(map(str, t))))
    command = st.sampled_from([
        ["verify", "--diagram=tri-dp"], ["verify", "--diagram=quad-dn"],
        ["verify", f"--diagram={NAIVE_DIAGRAM}"], ["refcheck", "--cell=tri"],
        ["refcheck", "--cell=quad"]])
    ranged = st.tuples(command, st.one_of(negative, malformed)).map(
        lambda t: t[0] + [f"--k={t[1]}"])
    hodge = st.one_of(negative, malformed).map(
        lambda k: ["hodge", "--diagram=tri-dp", f"--k={k}"])
    return st.one_of(ranged, hodge)


def _count_argv():
    """A negative --fields, --samples or --k-max, or --jobs below 1."""
    negative = st.integers(max_value=-1)
    return st.one_of(
        negative.map(lambda v: ["hodge", "--diagram=tri-dp", f"--fields={v}"]),
        negative.map(lambda v: ["refcheck", "--cell=quad", f"--samples={v}"]),
        negative.map(lambda v: ["audit", "--kind=quad", f"--k-max={v}"]),
        st.integers(max_value=0).map(
            lambda v: ["verify", "--diagram=tri-dp", "--k=0..1", f"--jobs={v}"]))


def assert_rejected(argv):
    """Exit code 2, returned or argparse's, an error line on stderr, no
    traceback and nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code == 2, (argv, err)
    assert any("error:" in line for line in err.splitlines()), (argv, err)
    assert "Traceback" not in err
    assert out.getvalue() == ""


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(_size_argv(), _level_argv(), _count_argv()))
def test_invalid_numeric_inputs_exit_2(argv):
    assert_rejected(argv)


def test_naive_diagram_rejects_other_levels(capsys):
    code, out, err = run(capsys, "verify", "--diagram", NAIVE_DIAGRAM, "--k", "1")
    assert code == 2 and out == ""
    assert err == f"error: {NAIVE_DIAGRAM} is defined at k = 0 only, got --k 1\n"


def test_naive_diagram_rejects_a_range_past_sys_maxsize(capsys):
    # len() of such a range raises OverflowError; the message names it as given
    levels = f"0..{10 ** 20}"
    code, out, err = run(capsys, "verify", "--diagram", NAIVE_DIAGRAM, "--k", levels)
    assert code == 2 and out == ""
    assert err == f"error: {NAIVE_DIAGRAM} is defined at k = 0 only, got --k {levels}\n"
