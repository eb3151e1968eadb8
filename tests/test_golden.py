"""Every figure CSV against the checked-in digest tests/golden/figures.json.

On the machine the digest was written on (same fingerprint) each file must
hash the same.  On every machine each column's row count must match and
its min, max and sum must agree within a relative 1e-10, measured against
the column's own scale so that rounding-level entries near 0 do not count.
Regenerate the digest with `python -m twocav.digest`.
"""

import json
import math
import os

import pytest

from twocav import cli, digest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "figures.json")
REL_TOL = 1e-10


def _close(got, want, scale):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want), scale)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    return golden, digest.figure_digest(str(tmp_path_factory.mktemp("figures")))


def test_figures_hash_as_in_the_golden_digest(digests):
    golden, current = digests
    assert sorted(current["figures"]) == sorted(golden["figures"])
    assert len(golden["figures"]) == 22
    if current["fingerprint"] != golden["fingerprint"]:
        pytest.skip("digest written on another machine: %s" % golden["fingerprint"])
    for name, want in golden["figures"].items():
        assert current["figures"][name]["sha256"] == want["sha256"], name


def test_figure_columns_match_the_golden_summaries(digests):
    golden, current = digests
    for name, want in golden["figures"].items():
        got = current["figures"][name]["columns"]
        assert sorted(got) == sorted(want["columns"]), name
        for column, w in want["columns"].items():
            g = got[column]
            assert g["rows"] == w["rows"], (name, column)
            scale = max(abs(float(w["min"])), abs(float(w["max"])))
            for key in ("min", "max", "sum"):
                assert _close(float(g[key]), float(w[key]), scale), (name, column, key)


def test_digest_diff_reports_the_one_changed_field(tmp_path, capsys):
    # Two trees of three CSVs: one identical, one with a single field
    # moved, one in tree B only.
    a, b = tmp_path / "a", tmp_path / "b"
    rows = [[0.0, 0.25, -1.5], [0.5, 0.125, 2.0], [1.0, 0.0625, 3.0]]
    for root in (a, b):
        os.makedirs(root / "sub")
        cli.write_csv(str(root / "same.csv"), "state = epr", ["t", "x", "y"], rows)
    moved = [list(r) for r in rows]
    moved[1][2] = 2.0 + 3e-12
    cli.write_csv(str(a / "sub" / "moved.csv"), "state = epr", ["t", "x", "y"], rows)
    cli.write_csv(str(b / "sub" / "moved.csv"), "state = epr", ["t", "x", "y"], moved)
    cli.write_csv(str(b / "extra.csv"), "state = epr", ["t"], [[0.0]])
    assert digest.main(["--diff", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "extra.csv: only in %s" % b
    assert lines[1] == "same.csv: byte-identical"
    assert lines[2] == os.path.join("sub", "moved.csv") + ": 1 of 3 rows changed"
    assert lines[3].startswith("  y: max |delta| 3") and lines[3].endswith("e-12 in 1 rows")
    assert len(lines) == 4
    os.remove(b / "extra.csv")
    cli.write_csv(str(b / "sub" / "moved.csv"), "state = epr", ["t", "x", "y"], rows)
    assert digest.main(["--diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.count("byte-identical") == 2


def test_digest_diff_reports_header_row_count_and_comment_changes(tmp_path):
    rows = [[0.0, 0.25], [0.5, 0.125]]
    base = str(tmp_path / "base.csv")
    cli.write_csv(base, "state = epr", ["t", "x"], rows)
    for name, comment, header, body in (
            ("header", "state = epr", ["t", "y"], rows),
            ("rows", "state = epr", ["t", "x"], rows[:1]),
            ("comment", "state = noon", ["t", "x"], rows)):
        path = str(tmp_path / (name + ".csv"))
        cli.write_csv(path, comment, header, body)
        want = (["0 of 2 rows changed", "comment line differs"] if name == "comment"
                else ["header or row count differs"])
        assert digest.diff_csv(base, path) == want, name


def test_digest_main_writes_the_digest_file(tmp_path, monkeypatch, capsys):
    # The regeneration branch: one space of indent, sorted keys and a final
    # newline, so a regenerated digest diffs line by line.
    fake = {"fingerprint": {"python": "3"},
            "figures": {"b.csv": {"sha256": "00"}, "a.csv": {"sha256": "11"}}}
    monkeypatch.setattr(digest, "figure_digest", lambda out_dir: fake)
    out = tmp_path / "golden" / "figures.json"
    assert digest.main(["--out", str(out)]) == 0
    assert out.read_text() == (
        '{\n "figures": {\n  "a.csv": {\n   "sha256": "11"\n  },\n'
        '  "b.csv": {\n   "sha256": "00"\n  }\n },\n'
        ' "fingerprint": {\n  "python": "3"\n }\n}\n')
    assert capsys.readouterr().out == "%s\n" % out
