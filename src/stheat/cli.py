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
  seed            int    seed of the residual spot check, >= 0, default 0

Artifacts written to the output directory: rates.csv (one row per level,
per-pair rates in the last two columns), loglog.csv (plot-ready k-vs-error
pairs), summary.json (fitted rates, expected orders, pass flags; rates and
flags need at least two levels).  The
`diagnose` subcommand writes diagnostics.json instead.  The directory is
--out if given, else the config's out_dir.  Floats are written with 17
significant digits and JSON keys are sorted, so reruns of the same config
are byte-identical.

Before any level is built, the pre-flight checks every level the command
builds against physical memory and for impulses off its nodes, and on a run
with errors that the levels have distinct step sizes.  main maps each
failure to its exit code.

A level of `run` streams: run_level feeds each chunk of the march to the
error norms and, with diagnostics, to the stability sums, and drops it, so
a level's memory grows with the spatial unknowns and not with N times them
(level_bytes).

No command imports scipy, diagnostics included, and no numpy module loads
inside main after the package's import, so a level pays for no import.
"""

import argparse
import ctypes
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .analysis import ErrorNorms, StabilitySums, cfl_constant, diagnostic_constants, fit_rate
from .fem import assemble
from .problems import problem_by_id, validate_residual
from .solver import chunk_length, impulse_nodes, march
from .timegrid import MAX_TRIAL_DEGREE, make_uniform_partition

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
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
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
    except ValueError as exc:   # JSONDecodeError, or an integer past int's digit limit
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


def level_bytes(dimension, n, p, q, N, diagnostics=False, run=True, errors=False):
    """Lower bound on the memory of a level: the largest of the peaks of
    assemble, of the march (if run) with the consumers that it feeds (the
    error norms if errors, the stability sums if diagnostics), and of the
    diagnostics, if any.  It counts one interval width, as an exactly
    uniform partition has, and one product term of the data, as every
    problem of the catalogue has; it leaves out the march's inverses and
    the diagnostics' blocks of each further width, and the row that a kink
    cutting an interval adds to its chunk.  No term grows with N dof: a run
    holds one chunk of its solution at a time, and the inverses of that
    chunk's widths.  Beside what the level keeps (with errors, the exact
    gradients on the spatial grid and the trace's modal load), the march's
    peak is the larger of a spatial factor's load on its grid, once a
    level, and its per-chunk stages beside the inverses: the chunk's
    scalar time quadrature beside its load moments, the gather of the
    inverses, the solution beside its recurrence terms, the solution beside
    the error norms' gathered rows and beside the f term's quadrature, each
    of the whole chunk; numpy holds two buffers of up to getbufsize()
    doubles on top while the chunk's einsums run, and while the
    diagnostics' blocks broadcast over the widths.  The README gives the
    formula and what each term holds.
    """
    line = n * p - 1
    dof = line ** dimension
    assembly = 3 * (n * p + 1) * n * (p + 1) + 2 * line ** 2
    kept = march = 3 * line ** 2 + 2 * N + 1
    if run:
        points, grid = (n * (p + 2)) ** dimension, (n * (p + 4)) ** dimension
        kept += (N + 1 + dimension * grid + dof) * errors + dof * diagnostics
        c = min(N, chunk_length(q, points))
        solution = (c * (q + 2) + 1) * dof
        once = max(points * (2 * p + 3) // (p + 2), 2 * grid * errors)
        stages = [c * (4 * q + 11 + (q + 2) * dof),
                  c * ((q + 1) ** 2 + 2 * q + 3) * dof,
                  (c * (3 * q + 6) + 1) * dof,
                  (solution + c * (q + 1) * (dof + (dimension + 1) * grid + 1)
                   + 4 * c * (q + 4)) * errors,
                  (solution + 6 * c * (q + 4)) * diagnostics]
        buffers = 2 * min(np.getbufsize(), c * (q + 1) ** 2 * dof)
        march = kept + max(once, ((q + 1) ** 2 + q + 5) * dof + buffers + max(stages))
    diag = dof + 5 * N + 4 * (q + 2) ** 2 + 2 * np.getbufsize() if diagnostics else 0
    return 8 * max(assembly, march, kept + diag)


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _gigabytes(nbytes):
    """nbytes / 1e9 to three digits, also for an int past the float range."""
    if nbytes < 1e300:
        return "%.3g" % (nbytes / 1e9)
    from decimal import Decimal   # only a level that no machine holds pays for the import
    return format(Decimal(nbytes).scaleb(-9), ".3g")


def preflight(cfg, problem, run):
    """Raise ConfigError, before any level allocates, if a level that the
    command builds (all on `run`, level 0 on `diagnose`) cannot fit in
    physical memory, diagnostics included, or has an impulse off its nodes,
    or if errors are on and two of them share an interval count: equal step
    sizes k leave no rate to fit in log k."""
    available = physical_memory()
    diagnostics = cfg.diagnostics or not run
    errors = cfg.errors and run
    counts = []
    for idx in range(len(cfg.levels) if run else 1):
        n, N = level_geometry(cfg, idx, problem.final_time)
        need = level_bytes(problem.dimension, n, cfg.p, cfg.q, N, diagnostics, run, errors)
        if need > available:
            raise ConfigError("level n=%d, N=%d needs at least %s GB, more than the "
                              "%.3g GB of physical memory" % (n, N, _gigabytes(need),
                                                             available / 1e9))
        try:   # the level fits, so its partition does: level_bytes counts nodes and widths
            impulse_nodes(problem, make_uniform_partition(problem.final_time, N))
        except ValueError as exc:
            raise ConfigError("level n=%d, N=%d: %s" % (n, N, exc))
        counts.append(N)
    if cfg.errors and len(set(counts)) < len(counts):
        raise ConfigError("levels %s get interval counts %s; rates need a distinct step "
                          "size on every level" % (list(cfg.levels), counts))


def _build_level(cfg, idx, problem):
    """Space and time partition of refinement level idx."""
    n, N = level_geometry(cfg, idx, problem.final_time)
    return assemble(problem.dimension, n, cfg.p), make_uniform_partition(problem.final_time, N)


def run_level(cfg, idx, problem):
    """Solve one refinement level; returns its row of summary.json.

    The level's solution is never held whole: every chunk of the march
    goes to the error norms and, with diagnostics, to the stability sums,
    and is dropped.  c_S needs only the space and the partition, so the
    diagnostics come first."""
    space, partition = _build_level(cfg, idx, problem)
    row = {"n": space.n, "N": partition.num_intervals, "h": space.h, "k": partition.k_max}
    errors = ErrorNorms(problem, space, partition, cfg.q) if cfg.errors else None
    stability = None
    if cfg.diagnostics:
        row["diagnostics"] = block = level_diagnostics(space, partition, cfg.q)
        if not problem.impulses:   # what the bound needs
            stability = StabilitySums(problem, space, partition, cfg.q)
    sums = [acc for acc in (errors, stability) if acc is not None]
    for chunk in march(problem, space, partition, cfg.q):
        for acc in sums:
            acc.add(*chunk)
        del chunk   # the next chunk is computed without this one
    if errors is not None:
        report = errors.report()
        row["err_u1_L2V"] = report.err_u1_L2V
        row["err_u2_nodal_max"] = report.err_u2_nodal_max
    if stability is not None:
        block["stability"] = stability.result(block["c_S"])
    return row


def level_diagnostics(space, partition, q):
    """Inf-sup, c_S and CFL constants of a level."""
    c_B, C_B, c_S = diagnostic_constants(space, partition, q)
    return {"c_B": c_B, "C_B": C_B, "c_S": c_S, "C_CFL": cfl_constant(space, partition.k_max)}


def _cell(value):
    return "" if value is None else "%.17g" % float(value)


def _pair_rates(ks, errs):
    """Rate of each level against the one before; None where an error is exactly 0."""
    rates = [None]
    for i in range(1, len(ks)):
        positive = min(errs[i - 1], errs[i]) > 0.0
        rates.append(float(np.log(errs[i - 1] / errs[i]) / np.log(ks[i - 1] / ks[i]))
                     if positive else None)
    return rates


def _fitted(ks, errs):
    """fit_rate of the levels' errors; None if one is exactly 0, where log k leaves no fit."""
    return fit_rate(list(zip(ks, errs))) if min(errs) > 0.0 else None


def emit_report(cfg, rows, out_dir):
    """Write rates.csv, loglog.csv and summary.json; byte-stable.

    Fitted rates and pass flags need at least two levels with errors; a
    single level is reported without them.  A rate that would take the log
    of an error that is exactly 0 is null, and its pass flag false.
    Returns the summary.
    """
    summary = {"config": dataclasses.asdict(cfg), "levels": rows}
    ks = [r["k"] for r in rows]
    e1 = [r.get("err_u1_L2V") for r in rows]
    e2 = [r.get("err_u2_nodal_max") for r in rows]
    r1 = r2 = [None] * len(rows)
    if cfg.errors:
        r1, r2 = _pair_rates(ks, e1), _pair_rates(ks, e2)
        expected = {"u1": cfg.q + 1, "u2": 2 * (cfg.q + 1)}
        summary["expected"] = expected
        if len(rows) > 1:
            fitted = {"u1": _fitted(ks, e1), "u2": _fitted(ks, e2)}
            summary["rates"] = {"fitted": fitted, "per_pair_u1": r1[1:], "per_pair_u2": r2[1:]}
            summary["pass"] = {
                key: fitted[key] is not None
                and bool(expected[key] - 0.35 <= fitted[key] <= expected[key] + 0.65)
                for key in ("u1", "u2")
            }
    lines = ["N,h,k,err_u1_L2V,err_u2_nodal_max,rate_u1,rate_u2"]
    log_lines = ["k,err_u1_L2V,err_u2_nodal_max"]
    for row, *cells in zip(rows, e1, e2, r1, r2):
        lines.append(",".join([str(row["N"])] + [_cell(v) for v in [row["h"], row["k"]] + cells]))
        if cfg.errors:
            log_lines.append(",".join(_cell(v) for v in [row["k"]] + cells[:2]))
    _write(out_dir, {"rates.csv": "\n".join(lines) + "\n",
                     "loglog.csv": "\n".join(log_lines) + "\n",
                     "summary.json": summary})
    return summary


def _write(out_dir, files):
    """Write each name: content of files into out_dir, creating it; content
    that is not text is written as JSON with sorted keys."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        if not isinstance(content, str):
            content = json.dumps(content, sort_keys=True, indent=2) + "\n"
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write(content)


def run_experiment(cfg, problem, out_dir, quiet=False):
    """Solve every level of cfg and write its artifacts to out_dir.

    Raises the solver failures and OSError that main maps to exit codes.
    """
    if problem.exact is not None:
        validate_residual(problem, seed=cfg.seed)
    rows = [run_level(cfg, i, problem) for i in range(len(cfg.levels))]
    if not quiet:
        for row in rows:
            msg = "n=%-4d N=%-6d k=%.3e" % (row["n"], row["N"], row["k"])
            if "err_u1_L2V" in row:
                msg += "  err_u1=%.6e  err_u2=%.6e" % (
                    row["err_u1_L2V"], row["err_u2_nodal_max"])
            print(msg)
    summary = emit_report(cfg, rows, out_dir)
    if not quiet and "rates" in summary:
        fitted, expected = summary["rates"]["fitted"], summary["expected"]
        print("fitted rates: " + ", ".join(
            "%s %s (expected %d)" % (key, "none" if fitted[key] is None else "%.4f" % fitted[key],
                                     expected[key]) for key in ("u1", "u2")))


def run_diagnose(cfg, problem, out_dir, quiet=False):
    """Constants of the first level of cfg, written to out_dir/diagnostics.json."""
    space, partition = _build_level(cfg, 0, problem)
    block = level_diagnostics(space, partition, cfg.q)
    _write(out_dir, {"diagnostics.json": {"config": dataclasses.asdict(cfg), "diagnostics": block}})
    if not quiet:
        print("c_B=%.12f C_B=%.12f c_S=%.6f C_CFL=%.6f (n=%d, N=%d)" % (
            block["c_B"], block["C_B"], block["c_S"], block["C_CFL"],
            space.n, partition.num_intervals))


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)


def keep_heap_pages():
    """Keep the freed top of the heap, and arrays up to 32 MiB on it, so that a chunk reuses
    the pages of the one before instead of faulting in fresh ones (README: Memory); returns
    mallopt's result per setting, 1 where it took, or () where the C library has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return ()
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_TOP_PAD, M_TRIM_THRESHOLD and M_MMAP_THRESHOLD in bytes, set together: one threshold
    # alone ends glibc's dynamic thresholds and helps nothing
    return tuple(mallopt(p, v) for p, v in ((-2, 16 << 20), (-1, 64 << 20), (-3, 32 << 20)))


def main(argv=None):
    keep_heap_pages()
    parser = argparse.ArgumentParser(prog="stheat",
                                     description="space-time heat experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "run a convergence experiment"),
                       ("diagnose", "inf-sup / c_S / CFL constants only")):
        command = sub.add_parser(name, help=text)
        command.add_argument("config")
        command.add_argument("--out", default=None, help="output directory override")
        command.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    run = args.command == "run"
    out_dir = args.out
    try:
        cfg = _load_config(args.config)
        problem = problem_by_id(cfg.problem, cfg.epsilon)
        preflight(cfg, problem, run)
        if run and cfg.errors and problem.exact is None:
            print("error: problem %r has no exact solution; set errors=false" % cfg.problem,
                  file=sys.stderr)
            return EXIT_NO_EXACT
        out_dir = args.out or cfg.out_dir
        (run_experiment if run else run_diagnose)(cfg, problem, out_dir, quiet=args.quiet)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
        print("error: solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print("error: cannot write %r: %s" % (out_dir, exc), file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
