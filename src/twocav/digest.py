"""Digest of the published figure CSVs, checked in as tests/golden/figures.json.

    python -m twocav.digest [--out tests/golden/figures.json]

regenerates every `twocav figures` bundle into a temporary directory and
writes, for each CSV, its SHA-256 and per column the row count and the
%.17g of the column's min, max and sum, together with the fingerprint of
the machine that produced them (Python, numpy, scipy, BLAS, CPU).  The file
is written by this tool only, never by hand: a change that moves published
values regenerates it in the same commit, so the drift is a file diff.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import sys
import tempfile

import numpy as np

from . import cli

DEFAULT_PATH = os.path.join("tests", "golden", "figures.json")


def _cpu():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint():
    """What decides the last bits of a figure: interpreter, libraries, CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "cpu": _cpu(),
    }


def summarise(path):
    """SHA-256 of the file and, per column, rows and %.17g min/max/sum."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    columns = {}
    for k, name in enumerate(header):
        col = rows[:, k]
        columns[name] = {"rows": len(col),
                         "min": "%.17g" % np.min(col),
                         "max": "%.17g" % np.max(col),
                         "sum": "%.17g" % np.sum(col)}
    return {"sha256": hashlib.sha256(raw).hexdigest(), "columns": columns}


def figure_digest(out_dir):
    """Write every figure bundle into out_dir and digest each CSV."""
    figures = {}
    for figure_id in cli.FIGURE_IDS:
        for path in cli.run_figures(figure_id, out_dir):
            figures[os.path.basename(path)] = summarise(path)
    return {"fingerprint": fingerprint(), "figures": figures}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m twocav.digest",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_PATH)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digest = figure_digest(tmp)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(digest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
