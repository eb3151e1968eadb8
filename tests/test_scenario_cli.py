import ast
import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import twocav
from twocav import cli, dynamics, scenario as sc, states, teleport
from twocav.errors import QuadratureConvergenceError, ScenarioError

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
    assert len(scn.times) == 10
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
    assert scn.times[-1] == 1.0


def test_parsed_arrays_are_read_only():
    scn = sc.parse_scenario(BASE)
    assert scn.initial_state() is scn.rho0
    for array in (scn.rho0, scn.times):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_teleport_input_is_read_only():
    # The matrix, its correction terms and the Bell projectors are computed
    # once and shared; a write would leave the corrections stale.
    inp = sc.parse_scenario(BASE + "p = 0.1\nq = 0.5\n").teleport_input
    for array in (inp.matrix, inp.corrections[5], teleport.BELL_PROJECTORS[2],
                  teleport._KRON, teleport._KRON_SWAPPED):
        with pytest.raises(ValueError):
            array[0, 3] = 0.45
    channel = states.build_epr(0.6, 0.8)
    fresh = teleport.input_state(0.1, 0.5)
    assert (teleport.teleport_general(channel, inp).fidelity
            == teleport.teleport_general(channel, fresh).fidelity)


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


def test_cli_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    good = ["evolve", "--scenario", path, "--out", str(tmp_path)]
    for bad in (["evolve", "--out", str(tmp_path)], ["nonsense"],
                ["figures", "fig99"], ["evolve", "--scenario"]):
        assert cli.main(bad) == 2
        assert cli.main(good) == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert cli._parser() is cli._parser()
    capsys.readouterr()


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


def test_cli_huge_steps_and_points_exit_2(tmp_path):
    # Every upper bound holds at parse, before the time grid or a phase-space
    # table is allocated, the Wigner code's factorials run in a window index,
    # or a huge nbar turns the state non-finite; the bounds themselves parse.
    for text in (BASE.replace("steps = 10", "steps = %d" % 10**15),
                 BASE.replace("steps = 10", "steps = 10001"),
                 BASE + "points = 130\n", BASE + "points = %d\n" % 10**12,
                 BASE.replace("m1 = 0", "n1 = 1001\nm1 = 0"),
                 BASE.replace("m1 = 0", "m1 = 1001"), BASE + "nbar = 1e200\n"):
        path = _write(tmp_path, text)
        assert cli.main(["volume", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "volume.csv").exists()
    scn = sc.parse_scenario(BASE.replace("steps = 10", "steps = 10000")
                            .replace("m1 = 0", "n1 = 1000\nm1 = 1000")
                            + "points = 128\nnbar = 1e6\n")
    assert (len(scn.times), scn.points) == (10000, 128)
    assert (scn.window, scn.evolution.nbar) == (states.FockWindow(1000, 1000), 1e6)


def test_cli_paper_elements_rejected(tmp_path):
    path = _write(tmp_path, BASE + "elements = paper\n")
    for command in ("wigner", "volume"):
        assert cli.main([command, "--scenario", path, "--out", str(tmp_path)]) == 2


def test_cli_quadrature_exit_4(tmp_path):
    # 16 and 8 nodes of the polar rule on a coherent state on window (3, 3)
    # trip the convergence gate (EPR and NOON states take the reduced path,
    # which resolves them at 16 points).
    text = BASE.replace("state = epr", "state = coherent\nnbar_prime = 2.0")
    text = text.replace("m1 = 0", "n1 = 3\nm1 = 3") + "points = 16\n"
    path = _write(tmp_path, text)
    assert cli.main(["volume", "--scenario", path, "--out", str(tmp_path)]) == 4


def test_cli_nan_volume_exit_4(tmp_path, capsys):
    # At n1 = 400 the `_Mode` Laguerre recurrence overflows on the volume
    # radii, and a NaN volume must fail the gate, not reach the CSV; at
    # n1 = 200 the elements stay finite and the gap fails it.
    for n1, nan in ((200, False), (400, True)):
        text = BASE.replace("m1 = 0", "n1 = %d\nm1 = 0" % n1).replace("steps = 10", "steps = 2")
        path = _write(tmp_path, text + "points = 10\n")
        with np.errstate(invalid="ignore", over="ignore"):
            code = cli.main(["volume", "--scenario", path, "--out", str(tmp_path)])
        assert code == 4
        assert ("nan vs nan" in capsys.readouterr().err) == nan
        assert not (tmp_path / "volume.csv").exists()


@pytest.mark.parametrize("fine, first", [([0.1, 0.2, 0.9, 0.9, 0.2], 2),
                                         ([0.1, math.nan, 0.9, 0.2, 0.2], 1)],
                         ids=["gap", "nan"])
def test_volume_gate_raises_at_first_failing_time(fine, first, monkeypatch):
    coarse = [0.1, 0.2, 0.3, 0.4, 0.2]
    monkeypatch.setattr(cli.wigner, "volume_pair",
                        lambda *args: (np.array(fine), np.array(coarse)))
    times = np.linspace(0.0, 1.0, 5)
    traj = dynamics.Trajectory(times=times, states=np.zeros((5, 4, 4), complex))
    with pytest.raises(QuadratureConvergenceError) as err:
        cli.TABLES["volume"][0](sc.parse_scenario(BASE), traj)
    assert "at t = %g:" % times[first] in str(err.value)
    assert np.array_equal([err.value.fine, err.value.coarse],
                          [fine[first], coarse[first]], equal_nan=True)


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


def test_cli_teleport_builds_its_input_state_once(tmp_path, monkeypatch):
    built = []
    post_init = teleport.InputState.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(teleport.InputState, "__post_init__", counting_post_init)
    path = _write(tmp_path, BASE + "p = 0.99\nq = 0.97\n")
    assert cli.main(["teleport", "--scenario", path, "--out", str(tmp_path)]) == 0
    assert len(built) == 1


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


@functools.lru_cache(maxsize=None)
def _scipy_after_cli_import():
    """The scipy submodules that `import twocav.cli` loads, in a fresh
    interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(twocav.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, twocav.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_cli_import_defers_scipy_optimize():
    # Only brute-force discord needs scipy.optimize; importing the CLI
    # must not pay for it.
    assert not {"scipy.optimize", "scipy.integrate"} & _scipy_after_cli_import()


def test_cli_coherent_correlations_never_load_scipy_optimize(tmp_path):
    # Every coherent state falls back to brute-force discord, which needs
    # no scipy.optimize either.
    path = _write(tmp_path, BASE.replace(
        "state = epr", "state = coherent\nnbar_prime = 1.0").replace(
        "steps = 10", "steps = 3"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(twocav.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys; from twocav import cli, correlations as co\n"
        "calls = []\n"
        "brute = co.discord_bruteforce\n"
        "co.discord_bruteforce = lambda rho: calls.append(1) or brute(rho)\n"
        "code = cli.main(['correlations', '--scenario', %r, '--out', %r])\n"
        "print(code, len(calls), 'scipy.optimize' in sys.modules)\n"
        % (path, str(tmp_path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1].split() == ["0", "3", "False"]


def test_cli_import_leaves_out_scipy_linalg():
    # Only the expm path of evolve (nbar > 0 or the paper closure) needs
    # scipy.linalg, and it imports it late.
    assert "scipy.linalg" not in _scipy_after_cli_import()


def _scipy_import_sites(tree):
    """Dotted enclosing function or class of every `import scipy...` and
    `from scipy... import` node of a module ('' at module level)."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, owner + (child.name,))
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                sites.append(".".join(owner))
            visit(child, owner)

    visit(tree, ())
    return sites


def test_scipy_is_imported_only_by_the_expm_propagator():
    # README's Install claim: the package uses scipy only for `expm` in the
    # general propagator.  Test oracles that need scipy live in tests/.
    pkg = os.path.dirname(os.path.abspath(twocav.__file__))
    sites = set()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            sites.update(name[:-3] + "." + owner
                         for owner in _scipy_import_sites(tree))
    assert sites == {"dynamics._expm_vectors"}


def _reference_write_csv(path, comment, header, rows):
    # The field-by-field writer that the one-format-per-row writer replaced.
    with open(path, "w") as fh:
        fh.write("# %s\n" % comment)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map("%.17g".__mod__, row)) + "\n")


def test_write_csv_matches_the_field_by_field_writer(tmp_path):
    special = [0.0, -0.0, True, False, 0, -7, 2**60, 5e-324, -2.2250738585072e-308,
               math.inf, -math.inf, math.nan, 0.1, -1.0 / 3.0, 1e300, np.float64(2.5)]
    rng = np.random.default_rng(3)
    rows = [special] + [list(r) for r in rng.normal(size=(40, len(special))).tolist()]
    rows.append([bool(x > 0) for x in rows[1]])
    header = ["c%d" % k for k in range(len(special))]
    for write, name in ((cli.write_csv, "new.csv"), (_reference_write_csv, "old.csv")):
        write(str(tmp_path / name), "scenario", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert "-0,1,0,0,-7," in (tmp_path / "new.csv").read_text()
    # A table with no rows writes the comment and the header only.
    cli.write_csv(str(tmp_path / "empty.csv"), "scenario", header, [])
    _reference_write_csv(str(tmp_path / "empty_old.csv"), "scenario", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "empty_old.csv").read_bytes()
