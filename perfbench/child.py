"""One benchmark repeat, run in a fresh interpreter by run.py.

    python3 child.py SRC CONFIG OUT_DIR RESULT_JSON [--setup-only | --trace | --trace-memory]

Times `import stheat` through `parse_config` (setup_s), then one serial
`stheat.cli.main(["run", CONFIG, "--out", OUT_DIR, "--quiet"])` (wall_s),
and records ru_maxrss of this process (peak_rss_mb).  With --trace the run
goes through the timing hooks of hooks.py, with --trace-memory through its
memory-peak hooks.  The result is written as JSON
to RESULT_JSON; the correctness check is run.py's job.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback


def main(argv):
    src, config, out_dir, result_path = argv[:4]
    flags = set(argv[4:])
    tracer = None
    if "--trace" in flags or "--trace-memory" in flags:
        import hooks
        tracer = hooks.Tracer(memory="--trace-memory" in flags)

    t0 = time.perf_counter()
    import stheat
    from stheat.cli import parse_config
    with open(config) as handle:
        parse_config(handle.read())
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    result = {"setup_s": setup_s, "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    package_dir = os.path.dirname(os.path.realpath(stheat.__file__))
    if package_dir != os.path.join(os.path.realpath(src), "stheat"):
        result["error"] = "stheat imported from %s, not from %s" % (package_dir, src)
    elif "--setup-only" not in flags:
        if tracer is not None:
            tracer.install()
        from stheat.cli import main as stheat_main
        t1 = time.perf_counter()
        try:
            result["rc"] = stheat_main(["run", config, "--out", out_dir, "--quiet"])
        except Exception:
            result["rc"] = None
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace"] = tracer.report()
            result["trace"]["spans"] = tracer.spans
            result["trace"]["counts"] = tracer.counts
            result["trace"]["memory"] = tracer.memory
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
