import math
import os
import subprocess
import sys

import numpy as np
import pytest

import twocav
from twocav import cli, dynamics, scenario as sc
from twocav.errors import ScenarioError

BASE = """
schema = 1
state = epr
model = markovian
gamma_m = 1.0
m1 = 0
t_max = 1.0
steps = 10
"""


def test_parse_minimal_scenario():
    scn = sc.parse_scenario(BASE)
    assert scn.state == "epr"
    assert scn.steps == 10
    assert scn.window.m1 == 0
    rho = scn.initial_state()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ScenarioError):
        sc.parse_scenario(BASE + "bogus = 1\n")
    with pytest.raises(ScenarioError):
        sc.parse_scenario(BASE + "m1 = 2\n")


def test_parse_requires_schema_and_core_keys():
    with pytest.raises(ScenarioError):
        sc.parse_scenario("state = epr\nmodel = markovian\nt_max = 1\nsteps = 5\n")
    with pytest.raises(ScenarioError):
        sc.parse_scenario("schema = 1\nstate = epr\nmodel = markovian\n")
    with pytest.raises(ScenarioError):
        sc.parse_scenario(BASE.replace("schema = 1", "schema = 9"))


# Coherent amplitudes that overflow double precision: 182! and 1e30**16.
COHERENT_OVERFLOWS = tuple(
    BASE.replace("state = epr", "state = coherent\nnbar_prime = %s" % nbar_prime)
    .replace("m1 = 0", "n1 = %d\nm1 = %d" % window)
    for nbar_prime, window in (("1.5", (12, 13)), ("1e30", (3, 3)))
)


def test_parse_validates_values():
    with pytest.raises(ScenarioError):
        sc.parse_scenario(BASE.replace("steps = 10", "steps = 1"))
    with pytest.raises(ScenarioError):
        sc.parse_scenario(BASE.replace("t_max = 1.0", "t_max = -1"))
    with pytest.raises(ScenarioError):
        sc.parse_scenario(BASE.replace("state = epr", "state = ghz"))
    with pytest.raises(ScenarioError):
        sc.parse_scenario(BASE + "points = 7\n")
    # Each value is checked by the object that uses it, at parse time.
    coherent = BASE.replace("state = epr", "state = coherent")
    for bad in (BASE + "nbar = -1\n",
                coherent + "nbar_prime = -1\n",
                BASE.replace("state = epr", "state = epr\na = 2"),
                # An 8-point volume grid has no coarser twin to gate against.
                BASE + "points = 8\n",
                # Retired keys; the volume box now always follows the window.
                BASE + "elements = paper\n",
                BASE + "extent = -2\n",
                # Not keys: omega0 only sets the time unit, and the printed
                # rho13 term is an erratum.
                BASE.replace("model = markovian", "model = ohmic\nomega0 = 1"),
                BASE + "rho13_strict = true\n",
                BASE + "index_order = sideways\n",
                *COHERENT_OVERFLOWS):
        with pytest.raises(ScenarioError):
            sc.parse_scenario(bad)
    # Non-finite floats pass comparison-based range checks; parsing rejects them.
    for old, bad in (("state = epr", "state = epr\na = nan\nd = nan"),
                     ("gamma_m = 1.0", "gamma_m = nan"),
                     ("t_max = 1.0", "t_max = inf"),
                     ("t_max = 1.0", "t_max = 1.0\nq = nan"),
                     ("t_max = 1.0", "t_max = 1.0\nnbar = -inf")):
        with pytest.raises(ScenarioError):
            sc.parse_scenario(BASE.replace(old, bad))


def test_comments_and_blank_lines_ignored():
    text = BASE + "\n# trailing comment\n\n"
    scn = sc.parse_scenario(text)
    assert scn.t_max == 1.0


def _write(tmp_path, text):
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    return str(path)


def test_cli_evolve_writes_csv(tmp_path):
    path = _write(tmp_path, BASE)
    code = cli.main(["evolve", "--scenario", path, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1].split(",")[0] == "t"
    assert len(lines) == 2 + 10


def test_cli_zero_duration_single_row(tmp_path):
    path = _write(tmp_path, BASE.replace("t_max = 1.0", "t_max = 0"))
    code = cli.main(["evolve", "--scenario", path, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 3
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.5, abs=1e-12)


def test_cli_bad_scenario_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "schema = 1\nstate = epr\n")
    assert cli.main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 2
    for text, message in (
            (BASE + "steps 10\n", "line 9 is not a key=value pair"),
            (BASE.replace("model = markovian", "model = lorentzian"),
             "model must be markovian, ohmic or kernel"),
            (BASE.replace("steps = 10", "steps = abc"),
             "scenario key 'steps' has invalid value 'abc'")):
        path = _write(tmp_path, text)
        assert cli.main(["evolve", "--scenario", path,
                         "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    path = _write(tmp_path, BASE.replace("gamma_m = 1.0", "gamma_m = nan"))
    assert cli.main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert cli.main(["evolve", "--scenario", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 2
    for text in (BASE + "index_order = sideways\n",) + COHERENT_OVERFLOWS:
        path = _write(tmp_path, text)
        for command in ("evolve", "teleport"):
            assert cli.main([command, "--scenario", path,
                             "--out", str(tmp_path)]) == 2


def test_kernel_model_from_scenario_file(tmp_path, capsys):
    kernel = BASE.replace("model = markovian", "model = kernel")
    scn = sc.parse_scenario(kernel + "omega_c = 1.5\n")
    assert scn.model == dynamics.KernelIntegral(omega_c=1.5)
    path = _write(tmp_path, kernel + "omega_c = 0\n")
    assert cli.main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert "omega_c must be positive" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_cli_drained_window_teleport_exit_2(tmp_path, capsys):
    # The scenario parses and evolves, but the leaky m1 = 2 window drains
    # (trace 4e-174 at t = 200) and the teleported trace underflows to 0,
    # so the run exits 2 after evolving, without writing a CSV.
    text = BASE.replace("m1 = 0", "m1 = 2").replace("t_max = 1.0", "t_max = 200")
    path = _write(tmp_path, text.replace("steps = 10", "steps = 3"))
    assert cli.main(["teleport", "--scenario", path,
                     "--out", str(tmp_path)]) == 2
    assert "teleported state has non-positive trace" in capsys.readouterr().err
    assert not (tmp_path / "teleport.csv").exists()


def test_cli_unused_keys_are_still_checked_exit_2(tmp_path):
    # Keys the run does not use are converted and checked finite too.
    for line in ("r = abc", "omega_c = nan", "nbar_prime = inf"):
        path = _write(tmp_path, BASE + line + "\n")
        assert cli.main(["evolve", "--scenario", path,
                         "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "trajectory.csv").exists()


def test_cli_overflow_exit_3(tmp_path):
    text = BASE.replace("model = markovian", "model = ohmic\nr = 5.0")
    text = text.replace("t_max = 1.0", "t_max = 200")
    path = _write(tmp_path, text)
    assert cli.main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 3
    # Theta(1) = 1e308: the state turns non-finite at t = 1 (IntegrationError).
    text = BASE.replace("gamma_m = 1.0", "gamma_m = 1e308")
    path = _write(tmp_path, text.replace("t_max = 1.0\nsteps = 10",
                                         "t_max = 2\nsteps = 3"))
    assert cli.main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "trajectory.csv").exists()


def test_cli_volume_eight_points_exit_2(tmp_path):
    path = _write(tmp_path, BASE + "points = 8\n")
    assert cli.main(["volume", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "volume.csv").exists()


def test_cli_paper_elements_rejected(tmp_path):
    path = _write(tmp_path, BASE + "elements = paper\n")
    for command in ("wigner", "volume"):
        assert cli.main([command, "--scenario", path, "--out", str(tmp_path)]) == 2


def test_cli_quadrature_exit_4(tmp_path):
    # A coarse grid on a strongly negative state trips the convergence gate.
    text = BASE.replace("state = epr", "state = noon")
    text += "points = 16\n"
    path = _write(tmp_path, text)
    assert cli.main(["volume", "--scenario", path, "--out", str(tmp_path)]) == 4


def test_cli_nan_volume_exit_4(tmp_path):
    # The displaced-parity recurrence overflows this far up the Fock
    # ladder, and a NaN volume must fail the gate, not reach the CSV.
    text = BASE.replace("m1 = 0", "n1 = 200\nm1 = 0").replace("steps = 10", "steps = 2")
    path = _write(tmp_path, text + "points = 10\n")
    with np.errstate(invalid="ignore", over="ignore"):
        code = cli.main(["volume", "--scenario", path, "--out", str(tmp_path)])
    assert code == 4
    assert not (tmp_path / "volume.csv").exists()


def test_cli_correlations_columns(tmp_path):
    path = _write(tmp_path, BASE)
    assert cli.main(["correlations", "--scenario", path,
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "correlations.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["t", "negativity", "log_negativity", "concurrence",
                      "discord"]
    first = lines[2].split(",")
    for col in (2, 3, 4):
        assert float(first[col]) == pytest.approx(1.0, abs=1e-6)
    # LN = log2(1 + 2N) identically along the column.
    for line in lines[2:]:
        vals = [float(x) for x in line.split(",")]
        assert vals[2] == pytest.approx(math.log2(1 + 2 * vals[1]), abs=1e-10)


def test_cli_wigner_origin_column(tmp_path):
    path = _write(tmp_path, BASE.replace("state = epr", "state = noon"))
    assert cli.main(["wigner", "--scenario", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "wigner.csv").read_text().splitlines()
    first = [float(x) for x in lines[2].split(",")]
    # NOON start is parity-odd in one mode: W(0,0) = -4/pi^2.
    assert first[1] == pytest.approx(-4.0 / math.pi**2, abs=1e-9)


def test_cli_teleport_columns_and_flags(tmp_path):
    text = BASE + "p = 0.99\nq = 0.97\n"
    path = _write(tmp_path, text)
    assert cli.main(["teleport", "--scenario", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "teleport.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["t", "fidelity", "fidelity_closed", "concurrence_out",
                      "log_negativity_out", "discord_out", "c1", "c2", "c3",
                      "beats_classical", "non_physical_input"]
    rows = [line.split(",") for line in lines[2:]]
    assert all(row[-1] == "1" for row in rows)  # non-physical input flagged
    assert all(math.isfinite(float(row[1])) for row in rows)
    assert all(float(row[2]) > 0.0 for row in rows)


def test_cli_determinism(tmp_path):
    path = _write(tmp_path, BASE)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        assert cli.main(["correlations", "--scenario", path,
                         "--out", str(out)]) == 0
    assert (out1 / "correlations.csv").read_bytes() == \
        (out2 / "correlations.csv").read_bytes()


def test_cli_figures_unknown_id(tmp_path):
    assert cli.main(["figures", "fig99"]) == 2
    with pytest.raises(ScenarioError):
        cli.run_figures("fig1", str(tmp_path))


def test_cli_main_runs_figures(tmp_path, capsys):
    assert cli.main(["figures", "fig2", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        str(tmp_path / "fig2a_measures.csv"),
        str(tmp_path / "fig2b_populations.csv")]


def test_cli_fig3_bundle(tmp_path):
    paths = cli.run_figures("fig3", str(tmp_path))
    assert len(paths) == 3
    for p in paths:
        assert (tmp_path / p.split("/")[-1]).exists()


def test_cli_fig2_panels_share_one_trajectory(tmp_path, monkeypatch):
    calls = []
    evolve = cli.dynamics.evolve

    def counting_evolve(*args):
        calls.append(args)
        return evolve(*args)

    monkeypatch.setattr(cli.dynamics, "evolve", counting_evolve)
    paths = cli.run_figures("fig2", str(tmp_path))
    assert [p.split("/")[-1] for p in paths] == [
        "fig2a_measures.csv", "fig2b_populations.csv"]
    assert len(calls) == 1


# CSV names of each bundle, in order, and how many trajectories it evolves.
FIGURE_BUNDLES = {
    "fig2": (["fig2a_measures", "fig2b_populations"], 1),
    "fig3": (["fig3a_measures", "fig3b_measures", "fig3c_measures"], 3),
    "fig4": (["fig4a_measures", "fig4b_measures", "fig4c_measures",
              "fig4d_measures"], 4),
    "fig5": (["fig5a_wigner", "fig5a_volume", "fig5b_wigner", "fig5b_volume"], 2),
    "fig6": (["fig6_teleport"], 1),
    "fig7": (["fig7a_teleport", "fig7b_teleport", "fig7c_teleport"], 3),
    "fig8": (["fig8a_teleport", "fig8b_teleport"], 2),
    "fig9": (["fig9a_teleport", "fig9b_teleport", "fig9c_teleport"], 3),
}


@pytest.mark.parametrize("figure_id", cli.FIGURE_IDS)
def test_cli_figure_bundle_evolves_each_scenario_once(figure_id, tmp_path,
                                                      monkeypatch):
    calls = []
    evolve = cli.dynamics.evolve

    def counting_evolve(*args):
        calls.append(args)
        return evolve(*args)

    monkeypatch.setattr(cli.dynamics, "evolve", counting_evolve)
    paths = cli.run_figures(figure_id, str(tmp_path))
    names, evolutions = FIGURE_BUNDLES[figure_id]
    assert [os.path.basename(p) for p in paths] == [n + ".csv" for n in names]
    assert len(calls) == evolutions


def test_cli_coherent_teleport_rejected_before_evolving(tmp_path):
    # The Ohmic t_max overflows (exit 3) if the channel is ever evolved.
    text = BASE.replace("state = epr", "state = coherent\nnbar_prime = 1.0")
    text = text.replace("model = markovian", "model = ohmic\nr = 5.0")
    path = _write(tmp_path, text.replace("t_max = 1.0", "t_max = 200"))
    assert cli.main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 3
    assert cli.main(["teleport", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_cli_unwritable_out_exit_2(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert cli.main(["evolve", "--scenario", path, "--out", out]) == 2
    assert cli.main(["figures", "fig6", "--out", out]) == 2
    assert capsys.readouterr().err.count("configuration error:") == 2


def test_cli_scenario_file_sets_modes(tmp_path):
    path = _write(tmp_path, BASE)
    for flag, value in (("--mode", "paper"), ("--elements", "oracle"),
                        ("--index-order", "symmetric")):
        assert cli.main(["teleport", "--scenario", path, "--out", str(tmp_path),
                         flag, value]) == 2
    path = _write(tmp_path, BASE + "closure = paper\nindex_order = symmetric\n")
    out = tmp_path / "modes"
    assert cli.main(["teleport", "--scenario", path, "--out", str(out)]) == 0
    header = (out / "teleport.csv").read_text().splitlines()[0].split()
    assert "closure=paper" in header
    assert "index_order=symmetric" in header
    assert "elements=oracle" not in header


def test_cli_import_defers_scipy_optimize():
    # Only brute-force discord needs scipy.optimize; importing the CLI
    # must not pay for it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(twocav.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, twocav.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
