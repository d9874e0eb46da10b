import json
import os

import pytest

from stheat.cli import (
    EXIT_CONFIG,
    EXIT_NO_EXACT,
    EXIT_OK,
    EXIT_UNWRITABLE,
    ConfigError,
    ExperimentConfig,
    config_to_dict,
    level_geometry,
    main,
    parse_config,
)

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
    out1, out2, out3 = (str(tmp_path / d) for d in ("a", "b", "c"))
    assert main(["run", cfg, "--out", out1, "--quiet"]) == EXIT_OK
    assert main(["run", cfg, "--out", out2, "--quiet"]) == EXIT_OK
    assert main(["run", cfg, "--out", out3, "--parallel", "2", "--quiet"]) == EXIT_OK
    a, b, c = _read_artifacts(out1), _read_artifacts(out2), _read_artifacts(out3)
    assert a == b
    assert a == c


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
