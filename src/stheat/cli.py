"""Declarative experiment runner: JSON config in, convergence tables out.

Config schema (flat JSON object):
  problem         str    "heat1d-smooth", "heat2d-smooth", "heat1d-lowreg", "impulse"
  q               int    temporal trial degree 0..9 (MAX_TRIAL_DEGREE), default 0
  p               int    spatial degree 1..3, default 2
  levels          list   spatial refinements n, nonempty, strictly increasing
  coupling_c      float  time step law k = c * h^gamma, default 1.0
  coupling_gamma  float  default 2.0
  explicit_N      list   per-level interval counts; overrides the coupling law
  epsilon         float  kink exponent parameter of "heat1d-lowreg", default 0.1
  errors          bool   compute error norms (requires an exact solution), default true
  diagnostics     bool   emit inf-sup / c_S / CFL / stability per level, default false
  out_dir         str    output directory, default "results"
  seed            int    seed of the residual spot check, default 0

Artifacts written to the output directory: rates.csv (one row per level,
per-pair rates in the last two columns), loglog.csv (plot-ready k-vs-error
pairs), summary.json (fitted rates, expected orders, pass flags; rates and
flags need at least two levels).  The
`diagnose` subcommand writes diagnostics.json instead.  The directory is
taken from --out if given, else the STHEAT_OUT_DIR environment variable,
else the config.  Floats are written with 17 significant digits and JSON
keys are sorted, so reruns of the same config are byte-identical.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .analysis import (cfl_constant, cs_constant, error_norms, fit_rate,
                       infsup_discrete, stability_check)
from .fem import assemble
from .problems import problem_by_id, validate_residual
from .solver import run_decomposed
from .timegrid import MAX_TRIAL_DEGREE, make_uniform_partition

OUT_DIR_ENV = "STHEAT_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NO_EXACT = 4
EXIT_UNWRITABLE = 5


class ConfigError(ValueError):
    pass


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    q: int = 0
    p: int = 2
    levels: tuple = ()
    coupling_c: float = 1.0
    coupling_gamma: float = 2.0
    explicit_N: tuple = None
    epsilon: float = 0.1
    errors: bool = True
    diagnostics: bool = False
    out_dir: str = "results"
    seed: int = 0

    def __post_init__(self):
        for name in ("q", "p", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError("%s must be an integer" % name)
        for name in ("coupling_c", "coupling_gamma", "epsilon"):
            if not _is_real(getattr(self, name)):
                raise ConfigError("%s must be a finite number" % name)
        for name in ("errors", "diagnostics"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError("%s must be true or false" % name)
        for name in ("problem", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError("%s must be a string" % name)
        if not self.levels:
            raise ConfigError("levels must be a nonempty list")
        if any(not _is_int(n) or n < 2 for n in self.levels):
            raise ConfigError("levels must be integers >= 2")
        if list(self.levels) != sorted(set(self.levels)):
            raise ConfigError("levels must be strictly increasing")
        if not 0 <= self.q <= MAX_TRIAL_DEGREE:
            raise ConfigError("q must lie in 0..%d: no shipped config needs a higher degree, and "
                              "the march is untested above it" % MAX_TRIAL_DEGREE)
        if self.p not in (1, 2, 3):
            raise ConfigError("p must be 1, 2 or 3")
        if self.coupling_c <= 0 or self.coupling_gamma <= 0:
            raise ConfigError("coupling constants must be positive")
        if self.explicit_N is not None:
            if len(self.explicit_N) != len(self.levels):
                raise ConfigError("explicit_N must match levels in length")
            if any(not _is_int(N) or N < 1 for N in self.explicit_N):
                raise ConfigError("explicit_N entries must be integers >= 1")


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def parse_config(text):
    """Parse the JSON text of a config file into an ExperimentConfig."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    if "problem" not in raw:
        raise ConfigError("config needs a problem id")
    for key in ("levels", "explicit_N"):
        if raw.get(key) is not None:
            if not isinstance(raw[key], list):
                raise ConfigError("%s must be a list" % key)
            raw[key] = tuple(raw[key])
    try:
        cfg = ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc))
    try:
        problem_by_id(cfg.problem, cfg.epsilon)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc))
    return cfg


def config_to_dict(cfg):
    out = dataclasses.asdict(cfg)
    out["levels"] = list(cfg.levels)
    out["explicit_N"] = None if cfg.explicit_N is None else list(cfg.explicit_N)
    return out


def level_geometry(cfg, idx, final_time):
    """Interval count for refinement level idx under the coupling law."""
    n = cfg.levels[idx]
    if cfg.explicit_N is not None:
        return n, cfg.explicit_N[idx]
    h = 1.0 / n
    k_target = cfg.coupling_c * h ** cfg.coupling_gamma
    steps = final_time / k_target if k_target > 0.0 else math.inf
    if not math.isfinite(steps):
        raise ConfigError("level n=%d: the step law k = %g * h^%g gives no finite "
                          "interval count" % (n, cfg.coupling_c, cfg.coupling_gamma))
    return n, max(1, int(round(steps)))


def level_bytes(dimension, n, p, q, N):
    """Lower bound on the memory of a level: what run_decomposed holds at
    once, counted for one interval width and a load chunk of one interval.

    In rows of dof = (np-1)^dimension doubles: u1 and u2, N(q+1) + N+1; the
    per-mode (q+1)x(q+1) inverses and their gather over the chunk,
    2(q+1)^2; the chunk's modal load moments and forced part, (q+2) + (q+1).
    """
    rows = N * (q + 2) + 1 + 2 * (q + 1) ** 2 + 2 * q + 3
    return rows * (n * p - 1) ** dimension * 8


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(cfg, count):
    """Raise ConfigError if one of the first count levels cannot fit in
    physical memory; runs before any level allocates."""
    problem = problem_by_id(cfg.problem, cfg.epsilon)
    available = physical_memory()
    for idx in range(count):
        n, N = level_geometry(cfg, idx, problem.final_time)
        need = level_bytes(problem.dimension, n, cfg.p, cfg.q, N)
        if need > available:
            raise ConfigError("level n=%d, N=%d needs at least %.3g GB, more than the "
                              "%.3g GB of physical memory" % (n, N, need / 1e9, available / 1e9))


def check_step_sizes(cfg):
    """Raise ConfigError if errors are on and two levels share an interval
    count: equal step sizes k leave no rate to fit in log k."""
    if not cfg.errors or len(cfg.levels) < 2:
        return
    final_time = problem_by_id(cfg.problem, cfg.epsilon).final_time
    counts = [level_geometry(cfg, idx, final_time)[1] for idx in range(len(cfg.levels))]
    if len(set(counts)) < len(counts):
        raise ConfigError("levels %s get interval counts %s; rates need a distinct step "
                          "size on every level" % (list(cfg.levels), counts))


def run_level(cfg, idx, problem):
    """Solve one refinement level; returns a result dict."""
    n, N = level_geometry(cfg, idx, problem.final_time)
    space = assemble(problem.dimension, n, cfg.p)
    partition = make_uniform_partition(problem.final_time, N)
    solution = run_decomposed(problem, space, partition, cfg.q)
    row = {"n": n, "N": N, "h": space.h, "k": partition.k_max}
    if cfg.errors:
        report = error_norms(solution, problem)
        row["err_u1_L2V"] = report.err_u1_L2V
        row["err_u2_nodal_max"] = report.err_u2_nodal_max
    if cfg.diagnostics:
        row["diagnostics"] = level_diagnostics(problem, space, partition, cfg.q, solution)
    return row


def level_diagnostics(problem, space, partition, q, solution=None):
    """Inf-sup, c_S and CFL constants of a level; with its solution, also
    the stability bound."""
    c_B, C_B = infsup_discrete(space, partition, q)
    c_S = cs_constant(space, partition, q)
    block = {"c_B": c_B, "C_B": C_B, "c_S": c_S, "C_CFL": cfl_constant(space, partition.k_max)}
    if solution is not None and not problem.impulses and problem.rhs is not None:
        block["stability"] = stability_check(solution, problem, c_S)
    return block


def _fmt(value):
    return "%.17g" % float(value)


def _pair_rates(ks, errs):
    rates = [None]
    for i in range(1, len(ks)):
        rates.append(float(np.log(errs[i - 1] / errs[i]) / np.log(ks[i - 1] / ks[i])))
    return rates


def emit_report(cfg, rows, out_dir):
    """Write rates.csv, loglog.csv and summary.json; byte-stable.

    Fitted rates and pass flags need at least two levels with errors; a
    single level is reported without them.  Returns the summary.
    """
    os.makedirs(out_dir, exist_ok=True)
    with_errors = all("err_u1_L2V" in r for r in rows) and rows
    summary = {"config": config_to_dict(cfg), "levels": []}
    for row in rows:
        entry = {k: row[k] for k in ("n", "N", "h", "k")}
        if "err_u1_L2V" in row:
            entry["err_u1_L2V"] = row["err_u1_L2V"]
            entry["err_u2_nodal_max"] = row["err_u2_nodal_max"]
        if "diagnostics" in row:
            entry["diagnostics"] = row["diagnostics"]
        summary["levels"].append(entry)

    lines = ["N,h,k,err_u1_L2V,err_u2_nodal_max,rate_u1,rate_u2"]
    log_lines = ["k,err_u1_L2V,err_u2_nodal_max"]
    if with_errors:
        ks = [r["k"] for r in rows]
        e1 = [r["err_u1_L2V"] for r in rows]
        e2 = [r["err_u2_nodal_max"] for r in rows]
        r1, r2 = _pair_rates(ks, e1), _pair_rates(ks, e2)
        for i, row in enumerate(rows):
            lines.append(",".join([
                str(row["N"]), _fmt(row["h"]), _fmt(row["k"]), _fmt(e1[i]), _fmt(e2[i]),
                "" if r1[i] is None else _fmt(r1[i]),
                "" if r2[i] is None else _fmt(r2[i])]))
            log_lines.append(",".join([_fmt(ks[i]), _fmt(e1[i]), _fmt(e2[i])]))
        expected = {"u1": cfg.q + 1, "u2": 2 * (cfg.q + 1)}
        summary["expected"] = expected
        if len(rows) > 1:
            fitted = {"u1": fit_rate(list(zip(ks, e1))), "u2": fit_rate(list(zip(ks, e2)))}
            summary["rates"] = {
                "fitted": fitted,
                "per_pair_u1": r1[1:],
                "per_pair_u2": r2[1:],
            }
            summary["pass"] = {
                key: bool(expected[key] - 0.35 <= fitted[key] <= expected[key] + 0.65)
                for key in ("u1", "u2")
            }
    else:
        for row in rows:
            lines.append(",".join([str(row["N"]), _fmt(row["h"]), _fmt(row["k"]), "", "", "", ""]))

    _write_text(os.path.join(out_dir, "rates.csv"), "\n".join(lines) + "\n")
    _write_text(os.path.join(out_dir, "loglog.csv"), "\n".join(log_lines) + "\n")
    _write_text(os.path.join(out_dir, "summary.json"),
                json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def _write_text(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def _resolve_out_dir(cfg, cli_out):
    if cli_out:
        return cli_out
    return os.environ.get(OUT_DIR_ENV) or cfg.out_dir


def run_experiment(cfg, out_dir, quiet=False):
    problem = problem_by_id(cfg.problem, cfg.epsilon)
    if cfg.errors and problem.exact is None:
        print("error: problem %r has no exact solution; set errors=false" % cfg.problem,
              file=sys.stderr)
        return EXIT_NO_EXACT
    try:
        if problem.exact is not None:
            validate_residual(problem, seed=cfg.seed)
        rows = [run_level(cfg, i, problem) for i in range(len(cfg.levels))]
    except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
        print("error: solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    if not quiet:
        for row in rows:
            msg = "n=%-4d N=%-6d k=%.3e" % (row["n"], row["N"], row["k"])
            if "err_u1_L2V" in row:
                msg += "  err_u1=%.6e  err_u2=%.6e" % (
                    row["err_u1_L2V"], row["err_u2_nodal_max"])
            print(msg)
    try:
        summary = emit_report(cfg, rows, out_dir)
    except OSError as exc:
        print("error: cannot write %r: %s" % (out_dir, exc), file=sys.stderr)
        return EXIT_UNWRITABLE
    if not quiet and "rates" in summary:
        fitted, expected = summary["rates"]["fitted"], summary["expected"]
        print("fitted rates: u1 %.4f (expected %d), u2 %.4f (expected %d)"
              % (fitted["u1"], expected["u1"], fitted["u2"], expected["u2"]))
    return EXIT_OK


def run_diagnose(cfg, out_dir, quiet=False):
    problem = problem_by_id(cfg.problem, cfg.epsilon)
    try:
        n, N = level_geometry(cfg, 0, problem.final_time)
        space = assemble(problem.dimension, n, cfg.p)
        block = level_diagnostics(problem, space,
                                  make_uniform_partition(problem.final_time, N), cfg.q)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print("error: solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "diagnostics.json"),
                    json.dumps({"config": config_to_dict(cfg), "diagnostics": block},
                               sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        print("error: cannot write %r: %s" % (out_dir, exc), file=sys.stderr)
        return EXIT_UNWRITABLE
    if not quiet:
        print("c_B=%.12f C_B=%.12f c_S=%.6f C_CFL=%.6f (n=%d, N=%d)"
              % (block["c_B"], block["C_B"], block["c_S"], block["C_CFL"], n, N))
    return EXIT_OK


def _load_config(path):
    try:
        with open(path) as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="stheat",
                                     description="space-time heat experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a convergence experiment")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--quiet", action="store_true")
    diag_p = sub.add_parser("diagnose", help="inf-sup / c_S / CFL constants only")
    diag_p.add_argument("config")
    diag_p.add_argument("--out", default=None)
    diag_p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        check_memory(cfg, len(cfg.levels) if args.command == "run" else 1)
        if args.command == "run":
            check_step_sizes(cfg)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG

    out_dir = _resolve_out_dir(cfg, args.out)
    if args.command == "run":
        return run_experiment(cfg, out_dir, quiet=args.quiet)
    return run_diagnose(cfg, out_dir, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
