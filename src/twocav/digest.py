"""Digest of the published figure CSVs, checked in as tests/golden/figures.json.

    python -m twocav.digest [--out tests/golden/figures.json]

regenerates every `twocav figures` bundle into a temporary directory and
writes, for each CSV, its SHA-256 and per column the row count and the
%.17g of the column's min, max and sum, together with the fingerprint of
the machine that produced them (Python, numpy, scipy, BLAS, CPU).  The file
is written by this tool only, never by hand: a change that moves published
values regenerates it in the same commit, so the drift is a file diff.

    python -m twocav.digest --diff DIR_A DIR_B

compares the CSVs of two output trees (for example the same runs from two
versions of the package), by path relative to each directory.  It prints
each CSV as byte-identical, or the columns that differ with their largest
|B - A| and the number of rows in which they changed, and exits 1 if any
CSV differs or is in one tree only.
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


def _read(path):
    """Raw bytes, comment line, header and rows of field strings of a CSV."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    return raw, lines[0], lines[1].split(","), [line.split(",") for line in lines[2:]]


def summarise(path):
    """SHA-256 of the file and, per column, rows and %.17g min/max/sum."""
    raw, _, header, fields = _read(path)
    rows = np.array([[float(x) for x in row] for row in fields])
    columns = {}
    for k, name in enumerate(header):
        col = rows[:, k]
        columns[name] = {"rows": len(col),
                         "min": "%.17g" % np.min(col),
                         "max": "%.17g" % np.max(col),
                         "sum": "%.17g" % np.sum(col)}
    return {"sha256": hashlib.sha256(raw).hexdigest(), "columns": columns}


def _csv_paths(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files if f.endswith(".csv")}


def diff_csv(path_a, path_b):
    """Lines saying how CSV b differs from CSV a, none if byte-identical: the
    rows changed, then each column with a changed field (compared as text,
    so -0 against 0 counts) and its largest |B - A|."""
    raw_a, comment_a, header, rows_a = _read(path_a)
    raw_b, comment_b, header_b, rows_b = _read(path_b)
    if raw_a == raw_b:
        return []
    if header != header_b or len(rows_a) != len(rows_b):
        return ["header or row count differs"]
    a, b = (np.array(r, dtype=str).reshape(len(r), len(header)) for r in (rows_a, rows_b))
    moved = a != b
    lines = ["%d of %d rows changed" % (np.count_nonzero(moved.any(axis=1)), len(a))]
    if comment_a != comment_b:
        lines.append("comment line differs")
    for k in np.flatnonzero(moved.any(axis=0)):
        rows = moved[:, k]
        with np.errstate(invalid="ignore"):  # inf - inf
            delta = np.max(np.abs(b[rows, k].astype(float) - a[rows, k].astype(float)))
        lines.append("%s: max |delta| %.3g in %d rows"
                     % (header[k], delta, np.count_nonzero(rows)))
    return lines


def diff_trees(dir_a, dir_b):
    """Print how each CSV under dir_b differs from its namesake under dir_a;
    returns the number of CSVs that differ or are in one tree only."""
    in_a, in_b = _csv_paths(dir_a), _csv_paths(dir_b)
    differ = 0
    for rel in sorted(in_a | in_b):
        if rel in in_a and rel in in_b:
            lines = diff_csv(os.path.join(dir_a, rel), os.path.join(dir_b, rel))
        else:
            lines = ["only in %s" % (dir_a if rel in in_a else dir_b)]
        differ += bool(lines)
        print("%s: %s" % (rel, "\n  ".join(lines or ["byte-identical"])))
    return differ


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
    parser.add_argument("--diff", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare the CSVs of two output trees instead")
    args = parser.parse_args(argv)
    if args.diff:
        return 1 if diff_trees(*args.diff) else 0
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
