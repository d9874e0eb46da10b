import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
from hypothesis import given, settings, strategies as st

import stheat.cli
from stheat.cli import (
    EXIT_CONFIG,
    EXIT_NO_EXACT,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_UNWRITABLE,
    ConfigError,
    ExperimentConfig,
    keep_heap_pages,
    level_bytes,
    level_diagnostics,
    level_geometry,
    main,
    parse_config,
    run_level,
)
import stheat.solver
from stheat.analysis import error_norms, stability_check
from stheat.fem import FemSpace, assemble
from stheat.problems import problem_2d_smooth, problem_by_id
from stheat.solver import run_decomposed
from stheat.timegrid import TemporalBasis, make_uniform_partition

# numpy's two ufunc buffers, which level_bytes counts on top of a march stage
BUFFERS = 2 * np.getbufsize()

SMALL_RUN = {
    "problem": "heat1d-smooth",
    "q": 0,
    "p": 1,
    "levels": [2, 3],
    "coupling_c": 1.0,
    "coupling_gamma": 2.0,
}


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_config_round_trip():
    cfg = parse_config(json.dumps(SMALL_RUN))
    again = parse_config(json.dumps(dataclasses.asdict(cfg)))
    assert again == cfg
    assert cfg.levels == (2, 3)
    assert cfg.errors is True


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(levels=[]),
    lambda d: d.update(levels=[4, 4]),
    lambda d: d.update(levels=[4, 3]),
    lambda d: d.update(q=-1),
    lambda d: d.update(p=7),
    lambda d: d.update(coupling_c=0.0),
    lambda d: d.update(problem="advection"),
    lambda d: d.update(frobnicate=True),
    lambda d: d.pop("problem"),
    lambda d: d.update(explicit_N=[4]),  # must match len(levels)
    lambda d: d.update(seed=-1),  # the config rule: seed is a non-negative integer
])
def test_parse_config_rejections(mutate):
    payload = dict(SMALL_RUN)
    mutate(payload)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(payload))


def test_level_geometry_follows_coupling():
    cfg = parse_config(json.dumps(SMALL_RUN))
    n, N = level_geometry(cfg, 0, 1.0)
    assert n == 2
    assert N == max(1, round(1.0 / (1.0 * 0.5 ** 2)))  # T / (c h^gamma)
    cfg2 = parse_config(json.dumps(dict(SMALL_RUN, explicit_N=[5, 9])))
    assert level_geometry(cfg2, 1, 1.0) == (3, 9)


@pytest.mark.parametrize("key,value", [
    ("levels", [4.0, 8.0]),
    ("q", 1.5),
    ("coupling_c", float("nan")),
    ("p", True),
    ("errors", "no"),
])
def test_main_rejects_mistyped_config_values(tmp_path, key, value):
    cfg = _write_config(tmp_path, dict(SMALL_RUN, **{key: value}))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert not out.exists()


def test_main_rejects_bad_json(tmp_path):
    """Text that is no JSON, bytes that are no UTF-8, and an integer past
    Python's digit limit for int(str) are a bad config."""
    path = tmp_path / "broken.json"
    for content in (b"{not json", b"\xff\xfe{}", b'{"problem": "heat1d-smooth", "levels": [' +
                    b"1" * 5000 + b"]}"):
        path.write_bytes(content)
        assert main(["run", str(path)]) == EXIT_CONFIG


def test_main_rejects_missing_file(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_main_rejects_unknown_key(tmp_path):
    cfg = _write_config(tmp_path, dict(SMALL_RUN, shiny=1))
    assert main(["run", cfg]) == EXIT_CONFIG


def test_main_errors_need_exact_solution(tmp_path):
    payload = dict(SMALL_RUN, problem="impulse", explicit_N=[4, 8])
    cfg = _write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--quiet"]) == EXIT_NO_EXACT


def test_main_unwritable_output(tmp_path):
    cfg = _write_config(tmp_path, SMALL_RUN)
    assert main(["run", cfg, "--out", "/proc/nowhere/out", "--quiet"]) == EXIT_UNWRITABLE


def _read_artifacts(out):
    return {
        name: open(os.path.join(out, name), "rb").read()
        for name in ("rates.csv", "loglog.csv", "summary.json")
    }


def test_run_outputs_are_deterministic(tmp_path):
    cfg = _write_config(tmp_path, SMALL_RUN)
    out1, out2 = (str(tmp_path / d) for d in ("a", "b"))
    assert main(["run", cfg, "--out", out1, "--quiet"]) == EXIT_OK
    assert main(["run", cfg, "--out", out2, "--quiet"]) == EXIT_OK
    assert _read_artifacts(out1) == _read_artifacts(out2)


def _python(*args, **env):
    """Run a fresh interpreter with args, importing stheat from this tree,
    with the environment variables env set besides."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stheat.cli.__file__)))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=120)


# Runs main on its arguments and prints the numpy and scipy modules that main
# loads; asserts that no scipy module is loaded at all, and that numpy.random
# is loaded neither by the imports nor by main.
IMPORT_GUARD = """
import sys
import stheat
from stheat.cli import parse_config, main
def loaded():
    return {m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")}
before = loaded()
assert "numpy.random" not in before, "imports load numpy.random"
assert main(sys.argv[1:]) == 0
assert not any(m.split(".")[0] == "scipy" for m in sys.modules), sorted(loaded())
assert "numpy.random" not in sys.modules, "main loads numpy.random"
print(" ".join(sorted(loaded() - before)))
"""


def test_run_and_diagnose_import_no_scipy(tmp_path):
    """No command imports scipy, with diagnostics or without, and no numpy
    module loads inside main: a lazy import there (numpy.ma behind
    np.unique, say) would be paid inside a level.  numpy.random (6 MB of
    RSS) loads neither at import nor in main.  pytest's own process holds
    scipy already, so each command runs in a fresh interpreter."""
    payload = {"problem": "heat1d-smooth", "q": 1, "p": 2, "levels": [4, 8], "errors": True}
    for diagnostics in (False, True):
        cfg = _write_config(tmp_path, dict(payload, diagnostics=diagnostics))
        for command in ("run", "diagnose"):
            out = str(tmp_path / command / str(diagnostics))
            done = _python("-c", IMPORT_GUARD, command, cfg, "--out", out, "--quiet")
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == "", "modules loaded inside main: " + done.stdout


# main with scipy unimportable.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from stheat.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_runs_and_diagnoses_without_scipy(tmp_path):
    """With scipy unimportable, a run with diagnostics and diagnose write
    the same bytes as with scipy loaded."""
    payload = {"problem": "heat1d-smooth", "q": 1, "p": 2, "levels": [4, 8], "diagnostics": True}
    cfg = _write_config(tmp_path, payload)
    for command, names in (("run", ("rates.csv", "loglog.csv", "summary.json")),
                           ("diagnose", ("diagnostics.json",))):
        without, with_ = (tmp_path / d / command for d in ("without", "with"))
        done = _python("-c", NO_SCIPY, command, cfg, "--out", str(without), "--quiet")
        assert done.returncode == EXIT_OK, done.stderr
        assert main([command, cfg, "--out", str(with_), "--quiet"]) == EXIT_OK
        for name in names:
            assert (without / name).read_bytes() == (with_ / name).read_bytes(), name


def test_impulse_off_the_nodes_exits_2_before_any_level(tmp_path, capsys, monkeypatch):
    """The pre-flight refuses an impulse time that is no node of a level, in
    one line naming the level, before any level is built: run checks every
    level, diagnose level 0 only, as for memory."""
    def refuse(*_):
        raise AssertionError("a level was built")

    monkeypatch.setattr(stheat.cli, "_build_level", refuse)
    payload = {"problem": "impulse", "levels": [4, 8], "errors": False}
    out = tmp_path / "out"
    for command, counts, level in (("run", [4, 5], "n=8, N=5"), ("diagnose", [5, 4], "n=4, N=5")):
        cfg = _write_config(tmp_path, dict(payload, explicit_N=counts))
        assert main([command, cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: level %s: impulse time 0.5 does not" % level), lines
    assert not out.exists()
    monkeypatch.undo()
    cfg = _write_config(tmp_path, dict(payload, explicit_N=[4, 5]))
    assert main(["diagnose", cfg, "--out", str(out), "--quiet"]) == EXIT_OK


def test_rates_csv_layout(tmp_path):
    cfg = _write_config(tmp_path, SMALL_RUN)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--quiet"]) == EXIT_OK
    lines = open(os.path.join(out, "rates.csv")).read().splitlines()
    assert lines[0] == "N,h,k,err_u1_L2V,err_u2_nodal_max,rate_u1,rate_u2"
    assert len(lines) == 1 + len(SMALL_RUN["levels"])
    first = lines[1].split(",")
    assert first[5] == "" and first[6] == ""  # no rate on the coarsest level

    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["expected"] == {"u1": 1, "u2": 2}
    assert "fitted" in summary["rates"]
    assert len(summary["levels"]) == 2


def test_single_level_run_writes_artifacts_without_rates(tmp_path):
    cfg = _write_config(tmp_path, dict(SMALL_RUN, levels=[3]))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == EXIT_OK
    artifacts = _read_artifacts(out)
    assert len(artifacts["rates.csv"].decode().splitlines()) == 2
    assert len(artifacts["loglog.csv"].decode().splitlines()) == 2
    summary = json.loads(artifacts["summary.json"])
    assert "rates" not in summary and "pass" not in summary
    assert summary["levels"][0]["err_u1_L2V"] > 0.0


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_out_flag_beats_config_out_dir(tmp_path, monkeypatch, command):
    """The output directory is --out, else out_dir; the environment plays no part."""
    artifact = "summary.json" if command == "run" else "diagnostics.json"
    config_out, cli_out, env_out = (tmp_path / d for d in ("from_config", "from_cli", "from_env"))
    cfg = _write_config(tmp_path, dict(SMALL_RUN, out_dir=str(config_out)))
    monkeypatch.setenv("STHEAT_OUT_DIR", str(env_out))
    assert main([command, cfg, "--out", str(cli_out), "--quiet"]) == EXIT_OK
    assert (cli_out / artifact).exists() and not config_out.exists()
    assert main([command, cfg, "--quiet"]) == EXIT_OK
    assert (config_out / artifact).exists()
    assert not env_out.exists()


def test_diagnose_writes_constants(tmp_path):
    payload = dict(SMALL_RUN, diagnostics=True)
    cfg = _write_config(tmp_path, payload)
    out = str(tmp_path / "diag")
    assert main(["diagnose", cfg, "--quiet"] + ["--out", out]) == EXIT_OK
    data = json.loads(open(os.path.join(out, "diagnostics.json")).read())
    block = data["diagnostics"]
    assert block["c_B"] == pytest.approx(1.0, abs=1e-6)
    assert block["C_B"] == pytest.approx(1.0, abs=1e-6)
    assert block["c_S"] >= 1.0
    assert block["C_CFL"] > 0.0
    assert data["config"]["problem"] == "heat1d-smooth"


def test_diagnostics_run_on_the_level_itself(tmp_path):
    """A level far past any dense-matrix size (n=4, N=8000: 24003 space-time
    unknowns) gets its own constants from both commands."""
    payload = dict(SMALL_RUN, levels=[4], explicit_N=[8000], errors=False)
    cfg = _write_config(tmp_path, payload)
    diag_out, run_out = str(tmp_path / "diag"), str(tmp_path / "run")
    assert main(["diagnose", cfg, "--out", diag_out, "--quiet"]) == EXIT_OK
    diag = json.loads(open(os.path.join(diag_out, "diagnostics.json")).read())["diagnostics"]
    cfg = _write_config(tmp_path, dict(payload, diagnostics=True))
    assert main(["run", cfg, "--out", run_out, "--quiet"]) == EXIT_OK
    level = json.loads(open(os.path.join(run_out, "summary.json")).read())["levels"][0]
    assert (level["n"], level["N"]) == (4, 8000)
    for block in (diag, level["diagnostics"]):
        assert "surrogate" not in block
        assert block["c_B"] == pytest.approx(1.0, abs=1e-6)
        assert block["C_B"] == pytest.approx(1.0, abs=1e-6)
        assert block["C_CFL"] == pytest.approx(diag["C_CFL"], rel=1e-15)
    assert level["diagnostics"]["stability"]["satisfied"]


def test_a_level_without_a_rhs_checks_the_bound():
    """run_level gives every impulse-free problem its stability block, one
    without a right-hand side too: there f_dual_sq is 0 and, the scheme
    keeping the energy identity, lhs = ||u0||^2 - ||U1||^2_{L2(V)}."""
    problem = dataclasses.replace(problem_by_id("heat1d-lowreg"), rhs=None, exact=None,
                                  time_breakpoints=())
    cfg = parse_config(json.dumps({"problem": "heat1d-lowreg", "levels": [6], "explicit_N": [300],
                                   "errors": False, "diagnostics": True}))
    block = run_level(cfg, 0, problem)["diagnostics"]["stability"]
    assert block["f_dual_sq"] == 0.0 and block["u0_H_sq"] > 0.0 and block["satisfied"]
    assert block["lhs"] == pytest.approx(block["u0_H_sq"] - block["u1_L2V_sq"], rel=1e-13)


def test_experiment_config_is_frozen():
    cfg = parse_config(json.dumps(SMALL_RUN))
    assert isinstance(cfg, ExperimentConfig)
    with pytest.raises(Exception):
        cfg.q = 3


def test_level_bytes_counts_the_solution_arrays():
    # doubles: the line matrices M, K and the eigenbasis 3(np-1)^2; the
    # partition's nodes and widths 2N+1; with errors, the per-node errors
    # N+1 and the modal loads of the trace and of its Ritz projection 2 dof,
    # and once a level the floor's exact and discrete gradients on the grid,
    # 2 dim (n(p+4))^dim, with numpy's two buffers in 2D; rows of dof
    # doubles: the local inverses, r and alpha of one width, (q+1)^2 + q+2,
    # the eigenvalues, the carried nodal value and the rhs factor's modal
    # load 3; then, for a chunk of c intervals,
    # the largest of: its scalar time quadrature (times, weights and factor
    # values, 3(q+3), and moments q+2 an interval) beside its load moments,
    # (q+2) dof an interval; the gather of its inverses beside its moments
    # and forced parts, (q+1)^2 + 2q+3 rows an interval; its solution beside
    # its recurrence terms, 3q+6 rows an interval and 1; with errors, its
    # solution c(q+2)+1 rows beside the modal error rows and the Legendre
    # coefficients, c(q+1) of dof + 2 values, and the quadrature of the time
    # factors, 6c(q+4); on top of the stage, numpy's two einsum buffers
    # of getbufsize() doubles, or of the c(q+1)^2 dof values of the gather
    # if fewer.  No term grows with N dof.
    # 1D p=2, n=4: dof 7; q=0, N=10: one chunk of 10 intervals
    kept = 3 * 7 ** 2 + 21
    assert level_bytes(1, 4, 2, 0, 10) == (kept + 6 * 7 + 2 * 70 + 61 * 7) * 8
    # with errors: 10 rows of 7 + 2 values beside the solution, and 6 * 4
    # values an interval of the time quadrature
    assert level_bytes(1, 4, 2, 0, 10, False, True, True) == (
        kept + 11 + 2 * 7 + 6 * 7 + 2 * 70 + 21 * 7 + 10 * (7 + 2) + 6 * 10 * 4) * 8
    # 2D p=2, n=64: dof 127^2; q=1, N=4096: one interval a chunk; the
    # floor's two gradients on the grid of 384^2 points, once a level,
    # beside numpy's two buffers, set the level: 5.6 MB, not the 1.06 GB of
    # its solution (12.3 MB while every chunk gathered its error rows)
    kept, dof = 3 * 127 ** 2 + 8193 + 4097 + 2 * 127 ** 2, 127 ** 2
    errors = level_bytes(2, 64, 2, 1, 4096, False, True, True)
    assert errors == (kept + 2 * 2 * 384 ** 2 + BUFFERS) * 8
    assert errors < 5.6e6 < 1.06e9 < 8 * 4097 * 3 * dof
    # errors off: one interval's solution beside its recurrence terms, 10 rows
    assert level_bytes(2, 64, 2, 1, 4096) == (3 * 127 ** 2 + 8193 + 10 * dof + BUFFERS
                                              + 10 * dof) * 8
    # 1D p=3, n=8, q=9, N=1: the gather of the 10x10 inverses beside its buffers
    assert level_bytes(1, 8, 3, 9, 1) == (
        3 * 23 ** 2 + 3 + 114 * 23 + 2 * 100 * 23 + 121 * 23) * 8
    # 1D p=1, n=2 (dof 1), N=10^6: the nodes and widths beside the scalar
    # time quadrature of one chunk of 1820 intervals, 13 values each; no
    # index over the intervals
    assert level_bytes(1, 2, 1, 0, 10 ** 6) == (
        3 + 2000001 + 6 + 2 * 1820 + 1820 * 13) * 8


def test_level_bytes_counts_the_diagnostic_bands():
    # the diagnostics add, beside what the level keeps: the eigenvalues, 1
    # row; the width index and its list, 5N doubles at the peak of
    # np.unique; four arrays of the interval blocks of one width of the one
    # mode they search, (q+2)^2 values each; numpy's two ufunc buffers,
    # while the blocks broadcast over the widths.  On a run, the stability
    # bound keeps no row, and adds a stage to the march: a chunk's solution
    # beside its f term's quadrature times,
    # weights, factor values and their temporaries, 6 values a time, q+4
    # times an interval.  1D p=1, n=2: dof 1, one mode.
    # q=0, N=10^6: the width index beside the eigenvalues and the blocks
    # beats the march
    kept, diag = 3 + 2000001, 1 + 5 * 10 ** 6 + 4 * 4 + BUFFERS
    assert level_bytes(1, 2, 1, 0, 10 ** 6, True) == (kept + diag) * 8
    assert level_bytes(1, 2, 1, 0, 10 ** 6) < (kept + diag) * 8
    # q=0, N=1365: the f term of one chunk of 1365 intervals, 6 * 4 values
    # each, beside the chunk's 1365 * 2 + 1 solution rows, beats the rest
    # of the march and the diagnostics
    assert level_bytes(1, 2, 1, 0, 1365, True) == (
        3 + 2731 + 6 + 2 * 1365 + 2731 + 6 * 1365 * 4) * 8
    # diagnose keeps no solution and runs no march: at q=9, N=2000 the march
    # sets a run's memory, with the stability bound or without, and
    # diagnose needs less than half of it
    diagnose = level_bytes(1, 2, 1, 9, 2000, True, False)
    assert diagnose == (3 + 4001 + 1 + 10000 + 4 * 121 + BUFFERS) * 8
    assert level_bytes(1, 2, 1, 9, 2000, True) == level_bytes(1, 2, 1, 9, 2000)
    assert diagnose < level_bytes(1, 2, 1, 9, 2000) / 2


def _traced_level(problem_id, n, p, q, N, errors, diagnostics=False):
    """Traced peak of run_level on a level built inside it."""
    problem = problem_by_id(problem_id)
    cfg = parse_config(json.dumps({"problem": problem_id, "p": p, "q": q, "levels": [n],
                                   "explicit_N": [N], "errors": errors,
                                   "diagnostics": diagnostics}))
    tracemalloc.start()
    try:
        run_level(cfg, 0, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("problem_id,n,p,q,N,errors", [
    ("heat2d-smooth", 24, 3, 9, 2, False),     # the per-mode inverses dominate
    ("heat1d-smooth", 64, 2, 0, 4096, True),   # the error norms' values and the line matrices
    ("heat2d-smooth", 48, 3, 0, 2, False),     # one interval's load block dominates
    ("heat2d-smooth", 24, 3, 9, 100, False),   # 100 one-interval chunks, one width formed once
    ("heat2d-smooth", 60, 3, 9, 2, True),      # one interval's error values dominate
    ("heat1d-lowreg", 16, 2, 1, 301, False),   # the kink inside interval 150 cuts its chunk
    ("heat1d-lowreg", 16, 2, 1, 301, True),    # ... and its error values
    ("heat1d-lowreg", 8, 2, 0, 64, False),     # the kink on a node; numpy's ufunc buffers
    ("heat1d-lowreg", 8, 2, 0, 64, True),
    ("heat1d-smooth", 2, 1, 0, 1365, True),    # one unknown: the buffers beside small blocks
], ids=["heat2d-smooth-24-3-9-2", "heat1d-smooth-64-2-0-4096", "heat2d-smooth-48-3-0-2",
        "heat2d-smooth-24-3-9-100", "heat2d-smooth-60-3-9-2-errors", "heat1d-lowreg-16-2-1-301",
        "heat1d-lowreg-16-2-1-301-errors", "heat1d-lowreg-8-2-0-64",
        "heat1d-lowreg-8-2-0-64-errors", "heat1d-smooth-2-1-0-1365-errors"])
def test_level_bytes_tracks_the_march_peak(problem_id, n, p, q, N, errors):
    """The pre-flight's bound is at least 0.8 times the traced peak of a
    streamed level (run_level), assembly, march and error norms."""
    peak = _traced_level(problem_id, n, p, q, N, errors)
    dimension = problem_by_id(problem_id).dimension
    assert level_bytes(dimension, n, p, q, N, False, True, errors) >= 0.8 * peak


@pytest.mark.parametrize("problem_id,n,p,q,N,errors", [
    ("heat1d-smooth", 64, 2, 0, 4096, True),    # assembly: M and K symmetrized in place
    ("heat1d-smooth", 64, 3, 0, 4096, False),   # the eigenbasis beside the partition
], ids=["heat1d-smooth-64-2-0-4096-errors", "heat1d-smooth-64-3-0-4096"])
def test_level_bytes_counts_the_line_matrices_stages(problem_id, n, p, q, N, errors):
    """On 1D levels whose line matrices set the memory, the bound is at least
    0.97 times the traced peak of run_level: the line's eigenbasis takes
    four line^2 transients beside M, K and the partition's nodes and widths,
    and assemble symmetrizes M and K in place."""
    peak = _traced_level(problem_id, n, p, q, N, errors)
    assert level_bytes(1, n, p, q, N, False, True, errors) >= 0.97 * peak


def test_time_bases_are_evaluated_once_per_level(monkeypatch):
    """On an uncut level of 98 march chunks (1D p=2, q=0, n=64, N=4096,
    errors on) every row has the reference Gauss points, so the time bases
    come from timegrid.reference_values: the test basis
    and the Legendre values are evaluated a bounded number of times (what
    filling the caches takes), not once per chunk."""
    calls = []
    eval_all, legvander = TemporalBasis.eval_all, npleg.legvander
    monkeypatch.setattr(TemporalBasis, "eval_all",
                        lambda basis, tau: calls.append("eval_all") or eval_all(basis, tau))
    monkeypatch.setattr(npleg, "legvander",
                        lambda *args: calls.append("legvander") or legvander(*args))
    cfg = parse_config(json.dumps({"problem": "heat1d-smooth", "p": 2, "q": 0, "levels": [64]}))
    run_level(cfg, 0, problem_by_id("heat1d-smooth"))
    assert calls.count("eval_all") <= 2 and calls.count("legvander") <= 5


def test_a_level_integrates_its_spatial_factors_once(monkeypatch):
    """heat1d-smooth, 1D p=2, n=16, q=1, errors and diagnostics on: the
    number of fem.load_vector calls of a level does not grow with N (one
    for the rhs factor in the march and one for the stability bound, one
    for the trace factor of the error norms and one for its Laplacian, the
    load of its Ritz projection), and fem.gather runs once a level, on the
    one row of that projection, not on any chunk."""
    calls, rows = [], []
    load_vector, gather = stheat.fem.load_vector, stheat.fem.gather
    monkeypatch.setattr(stheat.fem, "load_vector",
                        lambda *args, **kw: calls.append(1) or load_vector(*args, **kw))
    monkeypatch.setattr(stheat.fem, "gather",
                        lambda table, c: rows.append(c.shape[0]) or gather(table, c))
    counts = []
    for N in (64, 1024):
        cfg = parse_config(json.dumps({"problem": "heat1d-smooth", "p": 2, "q": 1, "levels": [16],
                                       "explicit_N": [N], "diagnostics": True}))
        del calls[:], rows[:]
        run_level(cfg, 0, problem_by_id("heat1d-smooth"))
        counts.append(len(calls))
        assert rows == [1], N
    assert counts == [4, 4]


def test_level_memory_is_independent_of_the_interval_count():
    """1D p=2, n=16, q=0 with errors: from N = 1000 to 16000 the traced peak
    of run_level grows by at most 64 bytes an interval, what its vectors
    over the intervals and nodes take (nodes, widths and per-node errors),
    and by no row of dof doubles an interval."""
    _traced_level("heat1d-smooth", 16, 2, 0, 10, True)   # caches filled outside the trace
    small = _traced_level("heat1d-smooth", 16, 2, 0, 1000, True)
    large = _traced_level("heat1d-smooth", 16, 2, 0, 16000, True)
    assert large - small <= 64 * 15000


@pytest.mark.parametrize("problem_id,n,p,q,N,errors", [
    ("heat1d-smooth", 2, 1, 9, 2000, True),    # one mode, q = 9
    ("heat1d-smooth", 2, 1, 1, 20000, True),   # one mode, many intervals
    ("heat1d-smooth", 8, 3, 9, 500, True),     # 23 modes
    ("heat2d-smooth", 4, 1, 1, 2000, True),    # 9 modes, 6 distinct eigenvalues
    # errors off, many chunks: the stability sums' f blocks beside a chunk set the march's peak
    ("heat1d-smooth", 64, 2, 0, 4096, False),  # 98 chunks of 42 intervals
    ("heat2d-smooth", 16, 2, 0, 256, False),   # 128 chunks of 2 intervals
    ("heat1d-lowreg", 16, 2, 1, 301, False),   # 3 chunks, the kink inside interval 150
    ("heat1d-smooth", 2, 1, 0, 1365, False),   # one chunk: the f blocks beat the march
], ids=["heat1d-smooth-2-1-9-2000", "heat1d-smooth-2-1-1-20000", "heat1d-smooth-8-3-9-500",
        "heat2d-smooth-4-1-1-2000", "heat1d-smooth-64-2-0-4096-no-errors",
        "heat2d-smooth-16-2-0-256-no-errors", "heat1d-lowreg-16-2-1-301-no-errors",
        "heat1d-smooth-2-1-0-1365-no-errors"])
def test_level_bytes_tracks_the_diagnostics_peak(problem_id, n, p, q, N, errors):
    """With diagnostics the pre-flight's bound is at least 0.8 times the
    traced peak of a level of `run` (run_level: the diagnostics, then the march with the
    error norms, if any, and the stability sums) and of `diagnose` (the
    diagnostics alone), each on a freshly assembled level."""
    problem = problem_by_id(problem_id)
    peak = _traced_level(problem_id, n, p, q, N, errors, True)
    assert level_bytes(problem.dimension, n, p, q, N, True, True, errors) >= 0.8 * peak
    space = assemble(problem.dimension, n, p)
    partition = make_uniform_partition(problem.final_time, N)
    tracemalloc.start()
    try:
        level_diagnostics(space, partition, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level_bytes(problem.dimension, n, p, q, N, True, False) >= 0.8 * peak


def test_preflight_stays_below_the_level_it_checks():
    """1D p=1, n=2 (one unknown), N = 10^6: the pre-flight's own traced
    peak, the partition's nodes and widths, stays below the bound it
    computes for the level."""
    problem = problem_by_id("heat1d-smooth")
    payload = {"problem": "heat1d-smooth", "p": 1, "levels": [2], "explicit_N": [1000000]}
    cfg = parse_config(json.dumps(payload))
    tracemalloc.start()
    try:
        stheat.cli.preflight(cfg, problem, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < level_bytes(1, 2, 1, 0, 1000000)


@pytest.mark.parametrize("n,p", [(400, 1), (200, 3)])
def test_level_bytes_tracks_the_assembly_peak(n, p):
    """On a 1D level with one interval, assemble's dense tables, not the
    march, set the memory: the bound is at least 0.8 times its traced peak."""
    tracemalloc.start()
    try:
        assemble(1, n, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level_bytes(1, n, p, 0, 1) >= 0.8 * peak


def test_preflight_refuses_a_level_that_only_assembly_overflows(monkeypatch):
    """1D p=1, n=15000, one interval: the march needs about 3.6 GB, but
    assemble's tables 14.4 GB, so an 8 GB machine refuses the level before
    it is built.  Nothing is assembled at that size."""
    monkeypatch.setattr(stheat.cli, "physical_memory", lambda: 8 * 1024 ** 3)
    payload = {"problem": "heat1d-smooth", "p": 1, "levels": [15000], "explicit_N": [1]}
    cfg = parse_config(json.dumps(payload))
    assert level_bytes(1, 15000, 1, 0, 1) > 8 * 1024 ** 3
    with pytest.raises(ConfigError, match="physical memory"):
        stheat.cli.preflight(cfg, problem_by_id("heat1d-smooth"), True)


def test_preflight_accepts_a_2d_level_whose_solution_exceeds_the_memory(monkeypatch):
    """2D p=2, q=0, n=128 with k = h^2 (N = 16384, dof 255^2), errors on: the
    whole solution would take 17 GB, but a streamed level holds one chunk
    of it, and its bound, the error norms' values included, stays below
    1 GB, so an 8 GB machine accepts it."""
    monkeypatch.setattr(stheat.cli, "physical_memory", lambda: 8 * 1024 ** 3)
    cfg = parse_config(json.dumps({"problem": "heat2d-smooth", "p": 2, "q": 0, "levels": [128]}))
    problem = problem_by_id("heat2d-smooth")
    assert level_geometry(cfg, 0, problem.final_time) == (128, 16384)
    assert 8 * (16384 + 16385) * 255 ** 2 > 17e9
    assert level_bytes(2, 128, 2, 0, 16384, False, True, True) < 1e9
    stheat.cli.preflight(cfg, problem, True)


def test_diagnose_refuses_a_level_that_only_its_bands_overflow(tmp_path, monkeypatch, capsys):
    """1D p=1, n=2, q=0, N=10^6: the march, which holds no index over the
    intervals, sets a run at 16218480 bytes, and the diagnostics' width
    index (5N doubles at np.unique's peak) beside the eigenvalue, their
    mode's blocks and numpy's two buffers sets diagnose, and a run with
    them, at 56131240 bytes; so on a machine of 56000000 bytes `diagnose` exits 2
    before the level is built, so does a run with diagnostics, and a run
    without them passes the pre-flight."""
    monkeypatch.setattr(stheat.cli, "physical_memory", lambda: 56000000)
    payload = {"problem": "heat1d-smooth", "p": 1, "q": 0, "levels": [2],
               "explicit_N": [1000000], "errors": False}
    assert level_bytes(1, 2, 1, 0, 1000000) == 16218480
    assert level_bytes(1, 2, 1, 0, 1000000, True, False) == 56131240
    assert level_bytes(1, 2, 1, 0, 1000000, True) == 56131240
    problem = problem_by_id("heat1d-smooth")
    stheat.cli.preflight(parse_config(json.dumps(payload)), problem, True)
    monkeypatch.setattr(stheat.cli, "assemble", None)   # must never be reached
    for command, diagnostics in (("diagnose", False), ("run", True)):
        cfg = _write_config(tmp_path, dict(payload, diagnostics=diagnostics))
        out = tmp_path / command
        assert main([command, cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_main_rejects_levels_beyond_physical_memory(tmp_path, monkeypatch, capsys, command):
    """The pre-flight exits 2 before any level is built.  The memory probe is
    turned down to 64 bytes, below the 1624 of the smallest level of `run`
    (n=2, N=4, dof 1)."""
    monkeypatch.setattr(stheat.cli, "physical_memory", lambda: 64)
    monkeypatch.setattr(stheat.cli, "assemble", None)   # must never be reached
    cfg = _write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", [
    {"problem": "heat1d-smooth", "levels": [4, 8], "coupling_c": 1e300},   # both N = 1
    {"problem": "heat1d-smooth", "levels": [3, 5], "explicit_N": [1, 1], "diagnostics": True},
])
def test_main_rejects_levels_with_equal_steps(tmp_path, monkeypatch, capsys, payload):
    """With errors on, a rate needs distinct step sizes; two levels with the
    same N exit 2 before any level is built."""
    monkeypatch.setattr(stheat.cli, "assemble", None)   # must never be reached
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "distinct step size" in capsys.readouterr().err
    assert not out.exists()
    # without errors there is no rate to fit, and the same levels run
    monkeypatch.undo()
    cfg = _write_config(tmp_path, dict(payload, errors=False, diagnostics=False))
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_OK


@pytest.mark.parametrize("q", [10, 40])
def test_main_rejects_trial_degree_past_the_bound(tmp_path, capsys, q):
    cfg = _write_config(tmp_path, dict(SMALL_RUN, levels=[2], q=q))
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_CONFIG
    assert "q must lie in 0..9" in capsys.readouterr().err


@pytest.mark.parametrize("law", [
    {"coupling_gamma": 1e300},
    {"coupling_c": 1e-310},
    {"levels": [2], "coupling_c": 1e-307},   # N = 4e307: its bytes pass the float range
    {"levels": [2], "explicit_N": [10 ** 400]},
])
def test_main_rejects_step_law_without_finite_interval_count(tmp_path, law):
    """k = c h^gamma underflows to 0, or T/k overflows, or N is finite but
    its level's bytes pass the float range: `run` and `diagnose` exit 2, not
    with a traceback."""
    cfg = _write_config(tmp_path, dict(SMALL_RUN, **law))
    for command in ("run", "diagnose"):
        assert main([command, cfg, "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_CONFIG


_RANDOM_CONFIG = st.fixed_dictionaries(
    {
        "problem": st.sampled_from(["heat1d-smooth", "heat2d-smooth", "heat1d-lowreg",
                                    "impulse", "advection"]),
        # mostly strictly increasing, as a valid config needs
        "levels": st.one_of(st.lists(st.integers(2, 4), min_size=1, max_size=3, unique=True)
                            .map(sorted), st.lists(st.integers(1, 4), max_size=3)),
    },
    optional={
        "q": st.sampled_from([0, 1, 2, -1, 10, 40]),
        "p": st.sampled_from([1, 2, 3, 0, 4]),
        "coupling_c": st.sampled_from([0.5, 1.0, 4.0, 1e300, -1.0, 5e-324, 1e-300, 1e-307]),
        "coupling_gamma": st.sampled_from([0.5, 1.0, 2.0, 0.0, 1e300]),
        "explicit_N": st.lists(st.integers(0, 6), min_size=1, max_size=3),
        "epsilon": st.sampled_from([0.1, 0.5, 0.0, 1.5]),
        "errors": st.booleans(),
        "diagnostics": st.booleans(),
    })


@pytest.mark.parametrize("command", ["run", "diagnose"])
@settings(max_examples=25, deadline=None)
@given(payload=_RANDOM_CONFIG)
def test_main_random_configs_exit_with_a_documented_code(command, payload):
    """Small random configs, valid or not, end in a documented exit code;
    main never raises, so `python -m stheat run` or `diagnose` never prints
    a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as handle:
            json.dump(payload, handle)
        code = main([command, cfg, "--out", os.path.join(tmp, "out"), "--quiet"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_NO_EXACT, EXIT_UNWRITABLE)


@pytest.mark.parametrize("problem_id,n,p,q,N", [
    ("heat1d-smooth", 12, 2, 0, 300),
    ("impulse", 16, 2, 1, 300),        # the jump at t = 1/2, node 150, inside the first chunk
    ("heat1d-lowreg", 16, 2, 3, 201),  # the kink at t = 1/2, inside interval 100
    ("heat2d-smooth", 8, 2, 0, 64),
    ("heat2d-smooth", 7, 2, 1, 40),
    ("heat2d-smooth", 5, 2, 3, 40),
    ("heat1d-smooth", 32, 2, 0, 1024),  # march chunks of 85 intervals
])
def test_streamed_level_matches_the_collected_solution(problem_id, n, p, q, N):
    """run_level's errors and stability sums, fed chunk by chunk from the
    march, equal those of the collected solution bit for bit.  Each level
    marches in several chunks, which error_norms and stability_check follow
    on the collected solution, each chunk whole.  The impulse
    problem has no exact solution, so it borrows heat1d-smooth's: any field
    compares the paths."""
    problem = problem_by_id(problem_id)
    if problem.exact is None:
        problem = dataclasses.replace(problem, exact=problem_by_id("heat1d-smooth").exact)
    cfg = parse_config(json.dumps({"problem": problem_id, "p": p, "q": q, "levels": [n],
                                   "explicit_N": [N], "diagnostics": True}))
    space, partition = stheat.cli._build_level(cfg, 0, problem)
    assert len(stheat.solver.march_chunks(space, partition, q)) > 1
    row = run_level(cfg, 0, problem)
    solution = run_decomposed(problem, space, partition, q)
    report = error_norms(solution, problem)
    assert (row["err_u1_L2V"], row["err_u2_nodal_max"]) == (
        report.err_u1_L2V, report.err_u2_nodal_max)
    assert ("stability" in row["diagnostics"]) == (not problem.impulses)
    if not problem.impulses:
        collected = stability_check(solution, problem, row["diagnostics"]["c_S"])
        assert row["diagnostics"]["stability"] == collected


def test_a_load_that_turns_nan_exits_3_at_its_chunk(tmp_path, monkeypatch, capsys):
    """heat1d-smooth with f NaN after T/2, 1D p=2, n=16, q=0, N=1024: `stheat
    run` exits 3 (EXIT_SOLVER), and only after the error norms have taken
    every chunk of the march before the one holding T/2 (interval 512)."""
    smooth = problem_by_id("heat1d-smooth")
    half = 0.5 * smooth.final_time
    (X, T), = smooth.rhs
    problem = dataclasses.replace(
        smooth, rhs=((X, lambda t: np.where(t > half, np.nan, T(t))),))
    fed = []

    class Recording(stheat.cli.LevelSums):
        def add(self, lo, hi, u1, u2):
            fed.append((lo, hi))
            super().add(lo, hi, u1, u2)

    monkeypatch.setattr(stheat.cli, "problem_by_id", lambda pid, epsilon: problem)
    monkeypatch.setattr(stheat.cli, "LevelSums", Recording)
    # the spot-check fails this rhs before any level; skip it to reach the march
    monkeypatch.setattr(stheat.cli, "validate_residual", lambda problem, seed: 0.0)
    cfg = _write_config(tmp_path, {"problem": "heat1d-smooth", "p": 2, "levels": [16],
                                   "explicit_N": [1024]})
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_SOLVER
    assert "non-finite" in capsys.readouterr().err
    partition = make_uniform_partition(smooth.final_time, 1024)
    chunks = stheat.solver.march_chunks(assemble(1, 16, 2), partition, 0)
    assert fed == [(lo, hi) for lo, hi in chunks if hi <= 512] and len(fed) == 3


def test_a_nan_rhs_exits_3_before_any_level(tmp_path, monkeypatch, capsys):
    """The residual spot-check fails a rhs that is NaN for t > 1/2: `stheat
    run` exits 3 (EXIT_SOLVER) before any level runs, and writes nothing."""
    smooth = problem_by_id("heat1d-smooth")
    (X, T), = smooth.rhs
    problem = dataclasses.replace(smooth, rhs=((X, lambda t: np.where(t > 0.5, np.nan, T(t))),))

    def no_level(*args):
        raise AssertionError("a level ran")

    monkeypatch.setattr(stheat.cli, "problem_by_id", lambda pid, epsilon: problem)
    monkeypatch.setattr(stheat.cli, "run_level", no_level)
    cfg = _write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_SOLVER
    assert "residual nan" in capsys.readouterr().err
    assert not out.exists()


def test_run_level_2d_never_forms_dense_matrices(monkeypatch):
    """Errors, diagnostics and the stability check of a 2D level all work from
    the line matrices and the modal basis: a space has no dense matrices."""
    spaces = []

    def recording_assemble(*args):
        spaces.append(assemble(*args))
        return spaces[-1]

    monkeypatch.setattr(stheat.cli, "assemble", recording_assemble)
    cfg = parse_config(json.dumps({"problem": "heat2d-smooth", "levels": [4], "diagnostics": True}))
    row = run_level(cfg, 0, problem_2d_smooth())
    assert row["err_u1_L2V"] > 0.0 and row["diagnostics"]["stability"]["satisfied"]
    assert len(spaces) == 1 and spaces[0].dimension == 2
    for name in ("mass", "stiffness"):
        assert not hasattr(FemSpace, name) and not hasattr(spaces[0], name)


def test_python_m_stheat_runs_without_runpy_warning(tmp_path):
    cfg = _write_config(tmp_path, dict(SMALL_RUN, levels=[2]))
    done = _python("-m", "stheat", "run", cfg, "--quiet", "--out", str(tmp_path / "out"))
    assert done.returncode == EXIT_OK, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert (tmp_path / "out" / "rates.csv").exists()


def _minor_faults(*args, **env):
    """Minor page faults of a fresh interpreter run with args (_python)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = _python(*args, **env)
    assert done.returncode == 0, done.stderr
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings are glibc's")
@pytest.mark.parametrize("payload,threads", [
    ({"problem": "heat2d-smooth", "p": 2, "q": 1, "levels": [4, 8, 16]}, "2"),
    ({"problem": "heat1d-smooth", "p": 2, "q": 0, "levels": [4, 8, 16, 32, 64]}, "1"),
    ({"problem": "heat1d-smooth", "p": 2, "q": 0, "levels": [4, 8, 16, 32, 64]}, "2"),
], ids=["heat2d-smooth-2-1-errors", "heat1d-smooth-2-0-errors-1-thread",
        "heat1d-smooth-2-0-errors-2-threads"])
def test_a_streamed_run_does_not_fault_its_blocks_back_in(tmp_path, payload, threads):
    """main has glibc keep the freed top of the heap (keep_heap_pages, every
    setting taken), so each chunk of a level reuses the pages of the chunk
    before: beyond a bare import of stheat.cli, `python -m stheat run` takes
    at most 5000 minor page faults on a 2D sweep at q=1 and on a 1D sweep at
    one and two BLAS threads (0.7-0.9 k measured; 83.7 k, 22.8 k and 4.0 k
    while glibc handed the freed top back after every block)."""
    assert keep_heap_pages() == (1, 1, 1)
    cfg = _write_config(tmp_path, payload)
    bare = _minor_faults("-c", "import stheat.cli", OPENBLAS_NUM_THREADS=threads)
    run = _minor_faults("-m", "stheat", "run", cfg, "--quiet", "--out", str(tmp_path / "out"),
                        OPENBLAS_NUM_THREADS=threads)
    assert run - bare <= 5000
