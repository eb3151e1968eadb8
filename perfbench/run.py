"""twocav benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decay_figures --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the package is imported from
src/ of that checkout.  With --trace 0 it reports the end-to-end metrics
(wall_s, setup_s, peak_rss_mb), with --trace 1 the per-layer metrics of a
traced run.  Every run also reports fail_ratio and oracle_mismatch_ratio
and records provenance.  The last line of standard output is a JSON object
with the keys correct, attempted, failed and metrics; the full record goes
to .perfbench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("decay_figures", "phase_space", "scenario_sweep")
SETUP_PROBES = 2  # extra fresh-interpreter set-ups per untraced run
DEADLINE_S = 170.0  # the whole run, set-up probes included

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _nproc():
    return len(os.sched_getaffinity(0))


def _worker_env():
    env = dict(os.environ)
    threads = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(args, deadline):
    """Start the worker; return (process, seconds from spawn to READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, env=_worker_env())
    ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        _stop(proc)
        raise BenchError("worker did not get ready (exit code %s)" % proc.returncode)
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _wait(proc, deadline):
    """Wait for a worker to exit 0 before the deadline; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    return out


def _load_result(out):
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no result")
    with open(lines[-1][len("RESULT "):]) as fh:
        return json.load(fh)


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest():
    src = os.path.join(ROOT, "src", "twocav")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def _predictions(workload, per_layer, shares):
    """Check the layer shares the workload description predicts."""
    layer_self = shares["layer_self_s"]
    if workload == "decay_figures":
        largest = max(layer_self, key=layer_self.get)
        return {"dynamics is the largest layer": {
            "confirmed": largest == "dynamics", "largest": largest,
            "layer_self_s": layer_self}}
    if workload == "phase_space":
        cover = shares["wigner_cover_share"]
        return {"wigner spans cover >= 90% of the iteration": {
            "confirmed": cover >= 0.9, "wigner_cover_share": cover}}
    brute = per_layer["correlations.bruteforce_s"]
    others = {k: v for k, v in layer_self.items() if k != "correlations"}
    return {"correlations.bruteforce_s is the largest layer": {
        "confirmed": all(brute >= v for v in others.values()),
        "correlations.bruteforce_s": brute, "other_layers_self_s": others}}


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "twocav", "cli.py")):
        raise BenchError("no twocav sources under %s" % os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)

    work = os.path.join(OUT, args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            proc, setup = _spawn(common + ["--setup-only", "--work-dir",
                                           os.path.join(work, "probe%d" % k)], deadline)
            _wait(proc, deadline)
            setups.append(setup)
    proc, setup = _spawn(common + ["--seconds", str(args.seconds), "--trace",
                                   str(args.trace), "--work-dir",
                                   os.path.join(work, "run")], deadline)
    setups.append(setup)
    res = _load_result(_wait(proc, deadline))

    oracle = res["oracle"]
    correct = (res["failed"] == 0 and res["outputs_identical"]
               and oracle["unexplained_count"] == 0 and oracle["values_checked"] > 0)
    walls = res["iteration_walls_s"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": dict(res["environment"],
                           git_commit=_git_commit() or "unavailable (not a git checkout)",
                           source_sha256=_source_digest(),
                           nproc=_nproc(),
                           machine=platform.machine(),
                           cpu=_cpu_model(),
                           platform=platform.platform(),
                           loop="closed, one caller"),
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        "oracle": oracle,
        "outputs_identical": res["outputs_identical"],
        "iteration_walls_s": walls,
        "wall_tail": _tail(walls),
        "setup_samples_s": setups,
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]}
                   for k, v in res["per_layer"].items()}
        record["layer_shares"] = res["layer_shares"]
        record["predictions"] = _predictions(args.workload, res["per_layer"],
                                             res["layer_shares"][0])
        record["spans_file"] = res["spans_file"]
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record["metrics"] = metrics
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    _report(record, path)
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _report(rec, path):
    p = rec["provenance"]
    print("# twocav benchmark  workload=%s seed=%d trace=%d seconds=%g"
          % (rec["workload"], rec["seed"], rec["trace"], rec["seconds"]))
    print("# git=%s src_sha256=%s python=%s numpy=%s scipy=%s nproc=%d "
          "blas=%s threads=%s" % (p["git_commit"], p["source_sha256"][:12],
                                  p["python"], p["numpy"], p["scipy"], p["nproc"],
                                  p["blas"], p["blas_threads"]))
    walls = rec["iteration_walls_s"]
    tail = rec["wall_tail"]
    tail_text = ("p%.1f %.4f s" % (tail["percentile"], tail["value"]) if tail
                 else "no percentile has 10 samples beyond it")
    for name, m in rec["metrics"].items():
        note = ""
        if name == "wall_s":
            note = "median of %d iterations; %s" % (len(walls), tail_text)
        elif name == "setup_s":
            note = "median of %d fresh-interpreter set-ups" % len(rec["setup_samples_s"])
        print("%-34s %14.6g %-5s %s" % (name, m["value"], m["unit"], note))
    o = rec["oracle"]
    print("%-34s %14.6g %-5s %d of %d CLI operations" % (
        "fail_ratio", rec["fail_ratio"], "ratio", rec["failed"], rec["attempted"]))
    print("%-34s %14.6g %-5s %d of %d values; attributed %s; unexplained %d" % (
        "oracle_mismatch_ratio", o["mismatch_ratio"], "ratio", o["values_mismatched"],
        o["values_checked"], json.dumps(o["attributed_by_defect"], sort_keys=True),
        o["unexplained_count"]))
    for line in o["unexplained"]:
        print("#   unexplained mismatch: %s" % line)
    print("# outputs identical across iterations: %s" % rec["outputs_identical"])
    for claim, res in rec.get("predictions", {}).items():
        print("# prediction '%s': %s" % (claim, "confirmed" if res["confirmed"]
                                         else "NOT confirmed"))
    print("# full record: %s" % os.path.relpath(path, ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
