import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

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
    config_to_dict,
    level_bytes,
    level_geometry,
    main,
    parse_config,
    run_level,
)
from stheat.fem import assemble
from stheat.problems import problem_2d_smooth, problem_by_id
from stheat.solver import run_decomposed
from stheat.timegrid import make_uniform_partition

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
    again = parse_config(json.dumps(config_to_dict(cfg)))
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
    path = tmp_path / "broken.json"
    path.write_text("{not json")
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


def test_out_dir_environment_override(tmp_path, monkeypatch):
    cfg_payload = dict(SMALL_RUN, out_dir=str(tmp_path / "from_config"))
    cfg = _write_config(tmp_path, cfg_payload)
    env_out = tmp_path / "from_env"
    monkeypatch.setenv("STHEAT_OUT_DIR", str(env_out))
    assert main(["run", cfg, "--quiet"]) == EXIT_OK
    assert (env_out / "summary.json").exists()
    assert not (tmp_path / "from_config").exists()
    # explicit --out beats the environment
    cli_out = tmp_path / "from_cli"
    assert main(["run", cfg, "--out", str(cli_out), "--quiet"]) == EXIT_OK
    assert (cli_out / "summary.json").exists()


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


def test_experiment_config_is_frozen():
    cfg = parse_config(json.dumps(SMALL_RUN))
    assert isinstance(cfg, ExperimentConfig)
    with pytest.raises(Exception):
        cfg.q = 3


def test_level_bytes_counts_the_solution_arrays():
    # rows of dof doubles: u1 N(q+1), u2 N+1, inverses and their gather
    # 2(q+1)^2, chunk moments and forced part (q+2) + (q+1)
    # 1D p=2, n=4: dof 7; q=0, N=10
    assert level_bytes(1, 4, 2, 0, 10) == (10 + 11 + 2 + 3) * 7 * 8
    # 2D p=2, n=64: dof 127^2; q=1, N=4096
    assert level_bytes(2, 64, 2, 1, 4096) == (8192 + 4097 + 8 + 5) * 127 ** 2 * 8
    assert level_bytes(1, 8, 3, 2, 1) == (3 + 2 + 18 + 7) * 23 * 8


@pytest.mark.parametrize("problem_id,n,p,q,N", [
    ("heat2d-smooth", 24, 3, 9, 2),      # the per-mode inverses dominate
    ("heat1d-smooth", 64, 2, 0, 4096),   # the solution arrays dominate
])
def test_level_bytes_tracks_the_march_peak(problem_id, n, p, q, N):
    """The pre-flight's bound is at least 0.8 times the traced peak of
    run_decomposed on a freshly assembled level."""
    problem = problem_by_id(problem_id)
    space = assemble(problem.dimension, n, p)
    partition = make_uniform_partition(problem.final_time, N)
    tracemalloc.start()
    try:
        run_decomposed(problem, space, partition, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level_bytes(problem.dimension, n, p, q, N) >= 0.8 * peak


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_main_rejects_levels_beyond_physical_memory(tmp_path, monkeypatch, capsys, command):
    """The pre-flight exits 2 before any level is built.  The memory probe is
    turned down to 64 bytes, below the smallest level's 112 (n=2, N=4, dof 1)."""
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


@pytest.mark.parametrize("law", [{"coupling_gamma": 1e300}, {"coupling_c": 1e-310}])
def test_main_rejects_step_law_without_finite_interval_count(tmp_path, law):
    """k = c h^gamma underflows to 0, or T/k overflows: exit 2, not a traceback."""
    cfg = _write_config(tmp_path, dict(SMALL_RUN, **law))
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_CONFIG


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
        "coupling_c": st.sampled_from([0.5, 1.0, 4.0, 1e300, -1.0, 5e-324, 1e-300]),
        "coupling_gamma": st.sampled_from([0.5, 1.0, 2.0, 0.0, 1e300]),
        "explicit_N": st.lists(st.integers(0, 6), min_size=1, max_size=3),
        "epsilon": st.sampled_from([0.1, 0.5, 0.0, 1.5]),
        "errors": st.booleans(),
        "diagnostics": st.booleans(),
    })


@settings(max_examples=25, deadline=None)
@given(payload=_RANDOM_CONFIG)
def test_main_random_configs_exit_with_a_documented_code(payload):
    """Small random configs, valid or not, end in a documented exit code;
    main never raises, so `python -m stheat run` never prints a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as handle:
            json.dump(payload, handle)
        code = main(["run", cfg, "--out", os.path.join(tmp, "out"), "--quiet"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_NO_EXACT, EXIT_UNWRITABLE)


def test_run_level_2d_never_forms_dense_matrices(monkeypatch):
    """Errors, diagnostics and the stability check of a 2D level all work from
    the line matrices and the modal basis."""
    spaces = []

    def recording_assemble(*args):
        spaces.append(assemble(*args))
        return spaces[-1]

    monkeypatch.setattr(stheat.cli, "assemble", recording_assemble)
    cfg = parse_config(json.dumps({"problem": "heat2d-smooth", "levels": [4], "diagnostics": True}))
    row = run_level(cfg, 0, problem_2d_smooth())
    assert row["err_u1_L2V"] > 0.0 and row["diagnostics"]["stability"]["satisfied"]
    assert len(spaces) == 1
    assert "mass" not in vars(spaces[0]) and "stiffness" not in vars(spaces[0])


def test_python_m_stheat_runs_without_runpy_warning(tmp_path):
    cfg = _write_config(tmp_path, dict(SMALL_RUN, levels=[2]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(stheat.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "stheat", "run", cfg, "--quiet",
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert (tmp_path / "out" / "rates.csv").exists()
