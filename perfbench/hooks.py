"""Per-layer tracing of one `stheat run`, from outside the package.

Each hook names a public function (or method) of a stheat module.  Installing
it rebinds every name in the loaded `stheat.*` modules that refers to the
target object, because `from .x import y` gives each importing module its own
binding (`stheat.cli.run_decomposed`, `stheat.solver.gauss_rule`, ...).  A
hook whose target no longer exists is listed as missing: the metrics derived
from it are left out and the run goes on.

"span" hooks record a span (name, start, end, parent, level index); "peak"
hooks also record the tracemalloc peak of memory allocated inside the call;
"count" hooks only count calls, per level, because they fire thousands of
times per level.  tracemalloc slows allocation-heavy layers several times
over, so a Tracer either times (memory=False) or measures peaks
(memory=True), and reports only the metrics of its mode; with memory=True
tracemalloc runs only while a "peak" span is open.
"""

import functools
import importlib
import sys
import time
import tracemalloc

MB = 1024.0 * 1024.0

# (hook name, module, attribute path, kind)
HOOKS = (
    ("cli.level", "stheat.cli", "run_level", "span"),
    ("cli.diagnostics", "stheat.cli", "level_diagnostics", "peak"),
    ("cli.emit", "stheat.cli", "emit_report", "span"),
    ("problems.validate_residual", "stheat.problems", "validate_residual", "span"),
    ("fem.assemble", "stheat.fem", "assemble", "peak"),
    ("fem.load_vector", "stheat.fem", "load_vector", "count"),
    ("timegrid.gauss_rule", "stheat.timegrid", "gauss_rule", "count"),
    ("timegrid.temporal_basis", "stheat.timegrid", "TemporalBasis.__init__", "count"),
    ("solver.solve", "stheat.solver", "run_decomposed", "peak"),
    ("solver.loads", "stheat.solver", "interval_moments", "span"),
    ("solver.factor", "stheat.solver", "LocalBlockSystem.__init__", "span"),
    ("solver.march", "stheat.solver", "LocalBlockSystem.step", "span"),
    ("analysis.errors", "stheat.analysis", "error_norms", "span"),
    ("analysis.infsup", "stheat.analysis", "infsup_discrete", "span"),
    ("analysis.cs", "stheat.analysis", "cs_constant", "span"),
    ("analysis.cfl", "stheat.analysis", "cfl_constant", "span"),
    ("analysis.stability", "stheat.analysis", "stability_check", "span"),
)

# The hook whose second positional argument is the level index (run_level(cfg, idx, problem)).
LEVEL_HOOK = "cli.level"

# Per-layer metric -> (hook, statistic); units are declared in BENCHMARK.json.
# Statistics: "s" summed span time, "calls" call count, "self_s" span time
# minus direct child spans, "peak_mb" largest tracemalloc peak of one call,
# "rate" space-time unknowns solved per second of span time.
LAYER_METRICS = {
    "solver.loads_s": ("solver.loads", "s"),
    "solver.loads_calls": ("solver.loads", "calls"),
    "fem.load_vector_calls": ("fem.load_vector", "calls"),
    "timegrid.gauss_rule_calls": ("timegrid.gauss_rule", "calls"),
    "timegrid.temporal_basis_calls": ("timegrid.temporal_basis", "calls"),
    "solver.march_s": ("solver.march", "s"),
    "solver.steps": ("solver.march", "calls"),
    "solver.factor_s": ("solver.factor", "s"),
    "solver.factor_calls": ("solver.factor", "calls"),
    "solver.solve_s": ("solver.solve", "s"),
    "solver.solve_self_s": ("solver.solve", "self_s"),
    "solver.unknowns_per_s": ("solver.solve", "rate"),
    "solver.solve_peak_mb": ("solver.solve", "peak_mb"),
    "fem.assemble_s": ("fem.assemble", "s"),
    "fem.assemble_calls": ("fem.assemble", "calls"),
    "fem.assemble_peak_mb": ("fem.assemble", "peak_mb"),
    "analysis.errors_s": ("analysis.errors", "s"),
    "analysis.infsup_s": ("analysis.infsup", "s"),
    "analysis.cs_s": ("analysis.cs", "s"),
    "analysis.cfl_s": ("analysis.cfl", "s"),
    "analysis.stability_s": ("analysis.stability", "s"),
    "analysis.diag_peak_mb": ("cli.diagnostics", "peak_mb"),
    "cli.diagnostics_s": ("cli.diagnostics", "s"),
    "problems.validate_residual_s": ("problems.validate_residual", "s"),
    "cli.level_s": ("cli.level", "s"),
    "cli.emit_s": ("cli.emit", "s"),
}


def _resolve(module_name, path):
    """(owner, attribute, object) for module_name + dotted path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, parts[-1], None)
    if target is None:
        return None
    return owner, parts[-1], target


def _unknowns(solution):
    """(N(q+1)+1) * dof of a SpaceTimeSolution, or None for another result."""
    try:
        return int(solution.u1.size + solution.u2.shape[1])
    except (AttributeError, IndexError, TypeError):
        return None


class Tracer:
    """Spans and call counts of one traced run, kept in memory."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.counts = {}
        self.missing = []
        self._open = []
        self._peaks = []
        self._t0 = time.perf_counter()

    def install(self):
        """Wrap every hook target that exists in the loaded stheat modules."""
        for name, module_name, path, kind in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, target = found
            if kind == "count":
                wrapper = self._counting(name, target)
            else:
                wrapper = self._spanning(name, target, self.memory and kind == "peak")
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "stheat" and not mod_name.startswith("stheat."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)

    def _level(self):
        return self.spans[self._open[-1]]["level"] if self._open else None

    def _counting(self, name, fn):
        per_level = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = str(self._level())
            per_level[key] = per_level.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name, fn, peak):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            level = self._level()
            if name == LEVEL_HOOK and len(args) > 1 and isinstance(args[1], int):
                level = args[1]
            span = {"name": name, "start": None, "end": None,
                    "parent": self._open[-1] if self._open else None, "level": level}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            if peak:
                self._enter_peak()
            span["start"] = time.perf_counter() - self._t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._t0
                if peak:
                    span["peak_mb"] = self._exit_peak()
                self._open.pop()
            if name == "solver.solve":
                span["unknowns"] = _unknowns(result)
            return result
        return wrapper

    # Nested peak spans share one tracemalloc trace: each open span keeps
    # its entry baseline and the largest traced total seen while it was open.
    def _enter_peak(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, high = tracemalloc.get_traced_memory()
        for frame in self._peaks:
            frame[1] = max(frame[1], high)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def _exit_peak(self):
        _, high = tracemalloc.get_traced_memory()
        for frame in self._peaks:
            frame[1] = max(frame[1], high)
        base, top = self._peaks.pop()
        if not self._peaks:
            tracemalloc.stop()
        return (top - base) / MB

    def report(self):
        """Per-layer metrics of this run plus the hooks that never fired."""
        by_hook = {}
        for idx, span in enumerate(self.spans):
            by_hook.setdefault(span["name"], []).append(idx)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        installed = {name for name, *_ in HOOKS} - set(self.missing)
        metrics = {}
        for metric, (hook, stat) in LAYER_METRICS.items():
            if hook not in installed or (stat == "peak_mb") != self.memory:
                continue
            idxs = by_hook.get(hook, [])
            total = sum((self.spans[i]["end"] - self.spans[i]["start"] for i in idxs), 0.0)
            if stat == "s":
                value = total
            elif stat == "calls":
                value = (sum(self.counts.get(hook, {}).values())
                         if hook in self.counts else len(idxs))
            elif stat == "self_s":
                value = total - sum(child_time[i] for i in idxs)
            elif stat == "peak_mb":
                value = max((self.spans[i]["peak_mb"] for i in idxs), default=0.0)
            else:
                unknowns = [self.spans[i].get("unknowns") for i in idxs]
                if None in unknowns:
                    continue
                value = sum(unknowns) / total if total > 0.0 else 0.0
            metrics[metric] = value
        fired = set(by_hook) | {h for h, c in self.counts.items() if c}
        return {"metrics": metrics, "missing": list(self.missing),
                "not_exercised": sorted(installed - fired)}
