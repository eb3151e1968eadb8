"""Write the CSVs of every phase_space and scenario_sweep benchmark operation.

    python tests/write_workload_csvs.py DIR --seeds 1-10

For each workload and seed, `perfbench/workloads.make_ops` generates the
scenario files and operations exactly as the benchmark does (this script
only calls it), and each operation runs through `twocav.cli.main` with its
CSVs written to DIR/<workload>/seed<N>/<operation>/, next to the scenario
files in DIR/<workload>/seed<N>/inputs/.  Two trees, written by two
versions of the package or twice by one, compare CSV by CSV with

    python -m twocav.digest --diff DIR_A DIR_B

The package is imported as usual, and src/ of this checkout is appended to
the import path, so PYTHONPATH=OTHER/src writes another tree's outputs with
the same workload definitions.  The script prints which package it
imported, and exits 1 if any operation exits non-zero.  Its name does not
match test_*.py, so pytest does not collect it.
"""

import argparse
import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "src"))
sys.path.append(os.path.join(ROOT, "perfbench"))

import twocav  # noqa: E402
from twocav import cli  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("phase_space", "scenario_sweep")


def parse_seeds(text):
    """'1-10' or '4' as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def write_workload(workload, seed, out_dir):
    """Run every operation of one workload and seed; returns the number of
    operations and the names of those that exited non-zero."""
    ops = workloads.make_ops(workload, seed, os.path.join(out_dir, "inputs"))
    failed = []
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(op.argv + ["--out", os.path.join(out_dir, op.name)])
        if code != 0:
            failed.append("%s (exit %d)" % (op.name, code))
    return len(ops), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", metavar="DIR")
    parser.add_argument("--seeds", type=parse_seeds, default=[1],
                        help="seeds as 1-10 or 4 (default 1)")
    args = parser.parse_args(argv)
    print("twocav from %s" % os.path.dirname(twocav.__file__))
    failed = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            out_dir = os.path.join(args.out, workload, "seed%d" % seed)
            count, bad = write_workload(workload, seed, out_dir)
            failed += ["%s seed %d: %s" % (workload, seed, name) for name in bad]
            print("%s seed %d: %d operations, %d failed" % (workload, seed, count, len(bad)))
    for line in failed:
        print("failed: %s" % line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
