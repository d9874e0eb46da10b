"""stheat benchmark: serial `stheat run` sweeps, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ./src.  One run
is a closed loop with a single client: repeats of one workload start one at
a time, each in a fresh interpreter (child.py), until the next one would end
after --seconds.  The config of every repeat is the workload file with its
`seed` set to --seed.  Each repeat is checked against reference.json, values
recorded at the commit that added this benchmark.  Metric units are those
declared in BENCHMARK.json.

--trace 0 prints the end-to-end metrics, medians over the repeats:
  wall_s       main() entry to artifacts written
  setup_s      `import stheat` through parse_config, in a fresh interpreter
  peak_rss_mb  ru_maxrss of the process that ran the workload
--trace 1 makes pairs of one untraced and one timing-traced repeat within
--seconds, then one memory-traced repeat (tracemalloc distorts times, so
peaks come from their own repeat).  It prints the per-layer metrics of
hooks.py, medians over the traced repeats, and trace.overhead_s, the median
over the pairs of traced minus untraced wall_s.  It makes at least
TRACE_PAIRS pairs and as many more as fit in --seconds; the output says how
many repeats each figure rests on.  It writes the spans to
.bench_build/perfbench/spans-<workload>-seed<N>.json.  The metrics of a
layer the workload never calls read 0 and are listed as absent (the last
line must carry every per-layer metric); those of a hook whose target is
gone are listed as absent and left out of the last line.

The last line of output is one JSON object: correct, attempted, failed,
metrics.  A repeat fails when stheat exits nonzero or the check fails.
--smoke runs each workload's coarsest level, untraced and traced, and
asserts that every metric named in BENCHMARK.json is emitted.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hooks

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-1d-q0", "diag-1d-q1")
# setup_s is a median over this many dedicated set-up interpreters plus the
# set-up of every repeat; one sample spreads by tens of percent.
SETUP_SAMPLES = 5
# --trace 1 makes at least this many pairs of untraced and traced repeats,
# even past --seconds: a diag-1d-q1 pair takes about 16 s.
TRACE_PAIRS = 2
# A run must end within 180 s; no child may outlive this many seconds of it.
HARD_LIMIT_S = 170.0
# Reference errors must match to RTOL relative plus ATOL absolute.  The exact
# solutions have amplitude 1, so a solution that matches to ~1e-12 relative
# moves an error norm by a few 1e-12 at most; any real defect moves it more.
RTOL = 1e-9
ATOL = 1e-10
# Diagnostics of diag-1d-q1: c_B and C_B must equal 1 to this tolerance.
INFSUP_TOL = 1e-10


class Bench:
    """Paths, environment and deadline shared by the repeats of one run."""

    def __init__(self, root, workload, seed, coarsest_only=False):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.out_root = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(self.out_root, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=self.out_root)
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.threads = min(2, len(os.sched_getaffinity(0)))
        pythonpath = os.pathsep.join(filter(None, [self.src, os.environ.get("PYTHONPATH")]))
        self.env = dict(os.environ, PYTHONPATH=pythonpath)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.env.pop("STHEAT_OUT_DIR", None)
        with open(os.path.join(HERE, "workloads", workload + ".json")) as handle:
            config = json.load(handle)
        if coarsest_only:
            # One level cannot fit a convergence rate, so stheat must skip errors.
            config["levels"] = config["levels"][:1]
            config["errors"] = False
        self.errors = config.get("errors", True)
        config["seed"] = seed
        self.levels = len(config["levels"])
        self.config = os.path.join(self.work, "config.json")
        with open(self.config, "w") as handle:
            json.dump(config, handle)
        self.versions = {}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def child(self, *flags):
        """Run child.py once; returns its result dict and the output dir."""
        out_dir = tempfile.mkdtemp(prefix="out-", dir=self.work)
        result_path = os.path.join(out_dir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.src,
               self.config, out_dir, result_path, *flags]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return {"error": "timed out after %.0f s" % timeout}, out_dir
        try:
            with open(result_path) as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            result = {"error": "child exited %d: %s" % (proc.returncode, proc.stderr[-2000:])}
        for key in ("python", "numpy", "scipy"):
            if key in result:
                self.versions[key] = result[key]
        return result, out_dir

    def repeat(self, *flags):
        """One workload repeat; returns (result, problems), problems empty if correct."""
        result, out_dir = self.child(*flags)
        try:
            if "error" in result:
                return result, [result["error"]]
            if result.get("rc") != 0:
                return result, ["stheat run exited %r" % (result.get("rc"),)]
            return result, check_summary(self.workload, os.path.join(out_dir, "summary.json"),
                                         self.levels, self.errors)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def context(self):
        return dict(self.versions, workload=self.workload, seed=self.seed,
                    blas_threads=self.threads, nproc=os.cpu_count(),
                    cpus_available=len(os.sched_getaffinity(0)),
                    mem_total_mb=round(os.sysconf("SC_PHYS_PAGES")
                                       * os.sysconf("SC_PAGE_SIZE") / 2 ** 20),
                    src_lines=src_line_count(self.src))


def src_line_count(src):
    total = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as handle:
                    total += sum(1 for _ in handle)
    return total


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def check_summary(workload, path, levels, errors=True):
    """Problems found in one run's summary.json; empty when it is correct."""
    try:
        with open(path) as handle:
            summary = json.load(handle)
    except (OSError, ValueError) as exc:
        return ["cannot read summary.json: %s" % exc]
    expected = load_reference()[workload][:levels]
    got = summary.get("levels", [])
    if len(got) != len(expected):
        return ["%d levels in summary.json, expected %d" % (len(got), len(expected))]
    problems = []
    for idx, (row, ref) in enumerate(zip(got, expected)):
        for key in ("n", "N"):
            if row.get(key) != ref[key]:
                problems.append("level %d: %s=%r, expected %r" % (idx, key, row.get(key), ref[key]))
        for key in ("err_u1_L2V", "err_u2_nodal_max") if errors else ():
            value = row.get(key)
            if not isinstance(value, float) or abs(value - ref[key]) > RTOL * abs(ref[key]) + ATOL:
                problems.append("level %d: %s=%r, reference %r" % (idx, key, value, ref[key]))
        if "diagnostics" in ref:
            diag = row.get("diagnostics", {})
            for key in ("c_B", "C_B"):
                value = diag.get(key)
                if not isinstance(value, float) or abs(value - 1.0) > INFSUP_TOL:
                    problems.append("level %d: %s=%r, expected 1" % (idx, key, value))
            if diag.get("stability", {}).get("satisfied") is not True:
                problems.append("level %d: stability bound not satisfied" % idx)
    return problems


def run_until(deadline, step, at_least=1):
    """Call step() at_least times, then again while the next call should end by deadline."""
    durations = []
    while (len(durations) < at_least
           or time.monotonic() + statistics.median(durations) <= deadline):
        start = time.monotonic()
        step()
        durations.append(time.monotonic() - start)


def median_of(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure(bench, seconds, trace, spec):
    """Repeats of one workload within `seconds`; returns (values, attempted, failures, extra)."""
    bench.child("--setup-only")  # fills the bytecode cache; not measured
    deadline = time.monotonic() + seconds
    attempted, failures = [], []

    def one(*flags):
        result, problems = bench.repeat(*flags)
        attempted.append(result)
        if problems:
            failures.append(problems)
        return result

    if trace:
        pairs = []
        run_until(deadline, lambda: pairs.append((one(), one("--trace"))), at_least=TRACE_PAIRS)
        one("--trace-memory")
        layers = [r["trace"] for r in attempted if "trace" in r]
        values = {}
        for name in hooks.LAYER_METRICS:
            found = [layer["metrics"][name] for layer in layers if name in layer["metrics"]]
            if found:
                values[name] = statistics.median(found)
        overheads = [traced["wall_s"] - plain["wall_s"] for plain, traced in pairs
                     if "wall_s" in plain and "wall_s" in traced]
        if overheads:
            values["trace.overhead_s"] = statistics.median(overheads)
        extra = {"layers": layers, "overheads": overheads}
        for key in ("missing", "not_exercised"):
            hooks_named = {h for layer in layers for h in layer[key]}
            extra[key] = [m for m, (h, _) in hooks.LAYER_METRICS.items() if h in hooks_named]
        return values, attempted, failures, extra

    setups = []
    for _ in range(SETUP_SAMPLES):
        result, _ = bench.child("--setup-only")
        setups.append(result)
    run_until(deadline, one)
    values = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        value = median_of(setups + attempted if name == "setup_s" else attempted, name)
        if value is not None:
            values[name] = value
    return values, attempted, failures, {}


def run_workload(root, workload, seed, seconds, trace, coarsest_only=False, quiet=False):
    """Measure one workload; prints details and returns the result object."""
    spec = load_spec(root)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bench = Bench(root, workload, seed, coarsest_only)
    try:
        values, attempted, failures, extra = measure(bench, seconds, trace, spec)
    finally:
        bench.close()
    context = bench.context()
    out = {"correct": not failures, "attempted": len(attempted), "failed": len(failures),
           "metrics": {name: {"value": value, "unit": units[name]}
                       for name, value in values.items()}}
    if not quiet:
        print("context: " + json.dumps(context, sort_keys=True))
        print("failed share: %d/%d" % (len(failures), len(attempted)))
        for problems in failures[:3]:
            print("failure: " + "; ".join(problems)[:1000])
        if trace:
            timed = sum(1 for layer in extra["layers"] if not layer["memory"])
            print("timing-traced repeats behind each time and count: %d; memory-traced "
                  "repeats behind each peak: %d" % (timed, len(extra["layers"]) - timed))
            print("trace.overhead_s per pair (traced minus untraced wall_s): "
                  + " ".join("%.3f" % d for d in extra["overheads"]))
            print("absent, hook target missing: " + (", ".join(extra["missing"]) or "none"))
            print("absent, layer not exercised (reported as 0): "
                  + (", ".join(extra["not_exercised"]) or "none"))
            path = os.path.join(bench.out_root, "spans-%s-seed%d.json" % (workload, seed))
            with open(path, "w") as handle:
                json.dump({"context": context, "traced_runs": extra["layers"],
                           "untraced_wall_s": [r.get("wall_s") for r in attempted
                                               if "trace" not in r],
                           "overhead_per_pair_s": extra["overheads"]}, handle)
            print("spans: " + os.path.relpath(path, root))
        else:
            print("wall_s per repeat: " + " ".join("%.3f" % r["wall_s"] for r in attempted
                                                     if "wall_s" in r))
    return out


def _require(condition, message):
    if not condition:
        raise SystemExit("smoke failed: %s" % (message,))


def smoke(root):
    """Coarsest level of every workload, untraced and traced; every metric must appear."""
    spec = load_spec(root)
    _require([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = {m["name"] for m in spec[key]}
            out = run_workload(root, workload, 0, 0, trace, coarsest_only=True, quiet=True)
            _require(out["correct"] and out["failed"] == 0, (workload, trace, out))
            _require(set(out["metrics"]) == names, (workload, trace, sorted(out["metrics"])))
            print("smoke %s trace=%d: %d metrics" % (workload, trace, len(out["metrics"])))
    print("smoke: ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stheat", "cli.py")):
        print("error: no stheat source at %s; run from the repository root"
              % os.path.join(root, "src"), file=sys.stderr)
        return 2
    if args.smoke:
        smoke(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    out = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
