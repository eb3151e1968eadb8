"""One workload in one fresh process: set-up, the timed closed loop, then
the oracle checks outside the timed region.

Protocol on standard output: a line ``READY`` once the package is imported
and the inputs are generated and parsed, then (unless --setup-only) a line
``RESULT <path>`` naming the JSON file with everything measured.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from twocav import cli, correlations, dynamics, scenario, teleport, wigner  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = {"cli": cli, "correlations": correlations, "dynamics": dynamics,
           "scenario": scenario, "teleport": teleport, "wigner": wigner}


def _run_op(op, out_dir):
    """One CLI invocation; returns True when it exited 0 without raising."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(op.argv + ["--out", out_dir])
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False
    if code != 0:
        print("operation %s exited %d" % (op.name, code), file=sys.stderr)
    return code == 0


def _digests(out_dir):
    digests = {}
    for d, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _environment():
    """Interpreter, library and BLAS details of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    shutil.rmtree(args.work_dir, ignore_errors=True)
    tracer = tracing.Tracer(MODULES) if args.trace else None
    if tracer:
        tracer.install("setup")
    ops = workloads.make_ops(args.workload, args.seed,
                             os.path.join(args.work_dir, "inputs"))
    for op in ops:
        if op.scenario is not None:
            scenario.parse_scenario(op.scenario)
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # Closed loop: iterations run back to back; another one starts only
    # while it is predicted to end within the measuring time.  Two are the
    # minimum, so outputs can be compared across iterations (and, when
    # tracing, one traced iteration has an untraced one to compare with).
    walls, traced, untraced, digests = [], {}, {}, []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        k = len(walls)
        trace_this = bool(tracer) and k % 2 == 1
        out_dir = os.path.join(args.work_dir, "iter%d" % k)
        if trace_this:
            tracer.install(k)
        start = time.perf_counter()
        for op in ops:
            attempted += 1
            failed += not _run_op(op, os.path.join(out_dir, op.name))
        wall = time.perf_counter() - start
        if trace_this:
            tracer.uninstall()
        walls.append(wall)
        (traced if trace_this else untraced)[k] = wall
        digests.append(_digests(out_dir))
        if k > 0:
            shutil.rmtree(out_dir)
        elapsed = time.perf_counter() - loop_start
        if len(walls) >= 2 and elapsed + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    identical = all(d == digests[0] for d in digests[1:])
    tally = oracles.check_outputs(os.path.join(args.work_dir, "iter0"), args.seed,
                                  types.SimpleNamespace(**MODULES),
                                  os.path.join(args.work_dir, "checks"))
    result = {
        "environment": _environment(),
        "iteration_walls_s": walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "outputs_identical": identical,
        "csv_files": len(digests[0]),
        "oracle": tally.as_dict(),
    }
    if tracer:
        metrics, shares = tracing.summarise(tracer, traced, untraced)
        result["per_layer"] = metrics
        result["layer_shares"] = shares
        spans_path = os.path.join(args.work_dir, "spans.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "iteration"],
                       "spans": tracer.spans}, fh)
        result["spans_file"] = spans_path
    path = os.path.join(args.work_dir, "worker-result.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print("RESULT %s" % path, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
