"""Scenario-driven command line emitting deterministic CSV series.

Subcommands: evolve, correlations, wigner, volume, teleport, figures.
Exit codes: 0 success, 2 configuration problem, 3 integration failure,
4 quadrature non-convergence.
"""

import argparse
import os
import sys

import numpy as np

from . import correlations, dynamics, scenario as scenario_mod, teleport, wigner
from .errors import (
    DomainError,
    IntegrationError,
    OverflowGuardError,
    QuadratureConvergenceError,
    ScenarioError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_QUADRATURE = 4


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % x


def write_csv(path, comment, header, rows):
    with open(path, "w") as fh:
        fh.write("# %s\n" % comment)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _evolve(scn):
    return dynamics.evolve(
        scn.initial_state(), scn.params(), scn.model, scn.time_grid()
    )


def _write_trajectory(scn, traj, out_dir, name):
    path = os.path.join(out_dir, "%s.csv" % name)
    write_csv(path, scn.summary(), dynamics.TRAJECTORY_COLUMNS,
              dynamics.trajectory_rows(traj))
    return [path]


def run_evolve(scn, out_dir, name="trajectory"):
    return _write_trajectory(scn, _evolve(scn), out_dir, name)


CORRELATION_COLUMNS = ["t", "negativity", "log_negativity", "concurrence", "discord"]


def _write_correlations(scn, traj, out_dir, name):
    rows = []
    for t, rho in zip(traj.times, traj.states):
        rep = correlations.correlation_report(rho)
        rows.append([t, rep.negativity, rep.log_negativity, rep.concurrence,
                     rep.discord])
    path = os.path.join(out_dir, "%s.csv" % name)
    write_csv(path, scn.summary(), CORRELATION_COLUMNS, rows)
    return [path]


def run_correlations(scn, out_dir, name="correlations"):
    return _write_correlations(scn, _evolve(scn), out_dir, name)


def run_wigner(scn, out_dir, name="wigner"):
    traj = _evolve(scn)
    rows = []
    for t, rho in zip(traj.times, traj.states):
        w0 = wigner.wigner_joint(rho, 0.0, 0.0, scn.window,
                                 element_source=scn.elements)
        rows.append([t, w0])
    path = os.path.join(out_dir, "%s.csv" % name)
    # The sampled point is the phase-space origin.
    write_csv(path, scn.summary() + " point=origin", ["t", "w_origin"], rows)
    return [path]


VOLUME_GATE = 0.05  # largest tolerated drift between the two resolutions


def run_volume(scn, out_dir, name="volume"):
    traj = _evolve(scn)
    extent = scn.extent if scn.extent is not None else wigner.default_extent(scn.window)
    grid = wigner.PhaseSpaceGrid(extent=extent, points_per_axis=scn.points)
    rows = []
    for t, rho in zip(traj.times, traj.states):
        v, v_half = wigner.volume_pair(rho, grid, scn.window,
                                       element_source=scn.elements)
        if abs(v - v_half) > VOLUME_GATE:
            raise QuadratureConvergenceError(
                "volume quadrature not converged at t = %g: %g vs %g"
                % (t, v, v_half),
                fine=v,
                coarse=v_half,
            )
        rows.append([t, v, v_half])
    path = os.path.join(out_dir, "%s.csv" % name)
    write_csv(path, scn.summary(), ["t", "volume", "volume_half"], rows)
    return [path]


TELEPORT_COLUMNS = [
    "t", "fidelity", "fidelity_closed", "concurrence_out", "log_negativity_out",
    "discord_out", "c1", "c2", "c3", "beats_classical", "non_physical_input",
]


def run_teleport(scn, out_dir, name="teleport"):
    if scn.state == "coherent":
        raise ScenarioError("teleport runs need an epr or noon channel family")
    traj = _evolve(scn)
    inp = teleport.input_state(scn.p, scn.q)
    closed = teleport.closed_form_epr if scn.state == "epr" else teleport.closed_form_noon
    rows = []
    for t, rho in zip(traj.times, traj.states):
        res = teleport.teleport_general(rho, inp, index_order=scn.index_order)
        c1, c2, c3 = closed(rho, scn.p, scn.q)
        rep = teleport.teleported_measures(res)
        rows.append([
            t, res.fidelity, teleport.closed_form_fidelity(c1, c2, scn.q),
            rep.concurrence, rep.log_negativity, rep.discord,
            c1, c2, c3, res.fidelity > 2.0 / 3.0, res.non_physical_input,
        ])
    path = os.path.join(out_dir, "%s.csv" % name)
    write_csv(path, scn.summary(), TELEPORT_COLUMNS, rows)
    return [path]


def _scn(**kv):
    lines = ["schema = 1"]
    lines += ["%s = %s" % (k, v) for k, v in kv.items()]
    return scenario_mod.parse_scenario("\n".join(lines))


FIGURE_IDS = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]

# The memory-kernel rate changes sign at a finite horizon (about
# omega_0 t = 1.04 for r = 1, 5.7 for r = 0.1, 1.75 for r = 5); past it
# the window re-amplifies and eventually overflows, so the presets stop
# just short of that time.
_OHMIC_TMAX = {1.0: 1.0, 0.1: 3.0, 5.0: 1.5}


def run_figures(figure_id, out_dir):
    """Preset scenario bundles; one CSV per panel."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if figure_id == "fig2":
        scn = _scn(state="epr", model="markovian", m1=0, t_max=5, steps=200)
        traj = _evolve(scn)
        paths += _write_correlations(scn, traj, out_dir, "fig2a_measures")
        paths += _write_trajectory(scn, traj, out_dir, "fig2b_populations")
    elif figure_id == "fig3":
        for label, r in (("a", 1.0), ("b", 0.1), ("c", 5.0)):
            scn = _scn(state="epr", model="ohmic", r=r, m1=0,
                       t_max=_OHMIC_TMAX[r], steps=200)
            paths += run_correlations(scn, out_dir, "fig3%s_measures" % label)
    elif figure_id == "fig4":
        scn = _scn(state="noon", model="markovian", m1=0, t_max=5, steps=200)
        paths += run_correlations(scn, out_dir, "fig4a_measures")
        scn = _scn(state="noon", model="markovian", m1=1, t_max=5, steps=200)
        paths += run_correlations(scn, out_dir, "fig4b_measures")
        scn = _scn(state="noon", model="ohmic", r=1.0, m1=0,
                   t_max=_OHMIC_TMAX[1.0], steps=200)
        paths += run_correlations(scn, out_dir, "fig4c_measures")
        scn = _scn(state="noon", model="ohmic", r=0.1, m1=0,
                   t_max=_OHMIC_TMAX[0.1], steps=200)
        paths += run_correlations(scn, out_dir, "fig4d_measures")
    elif figure_id == "fig5":
        # The m1 = 2 panel uses the trace-closing mode and a finer grid;
        # its leaky counterpart drains the window and the volume integral
        # loses meaning.
        for label, m1, closure, points in (("a", 0, "leaky", 32),
                                           ("b", 2, "paper", 64)):
            scn = _scn(state="epr", model="markovian", m1=m1, t_max=0.68,
                       steps=8, points=points, closure=closure)
            paths += run_wigner(scn, out_dir, "fig5%s_wigner" % label)
            paths += run_volume(scn, out_dir, "fig5%s_volume" % label)
    elif figure_id == "fig6":
        scn = _scn(state="epr", model="markovian", m1=0, t_max=5, steps=200,
                   p=0.99, q=0.97)
        paths += run_teleport(scn, out_dir, "fig6_teleport")
    elif figure_id == "fig7":
        for label, r in (("a", 1.0), ("b", 0.1), ("c", 5.0)):
            scn = _scn(state="epr", model="ohmic", r=r, m1=0,
                       t_max=_OHMIC_TMAX[r], steps=200, p=0.99, q=0.97)
            paths += run_teleport(scn, out_dir, "fig7%s_teleport" % label)
    elif figure_id == "fig8":
        scn = _scn(state="noon", model="markovian", m1=0, t_max=5, steps=200,
                   p=0.99, q=0.97)
        paths += run_teleport(scn, out_dir, "fig8a_teleport")
        scn = _scn(state="noon", model="markovian", m1=1, t_max=5, steps=200,
                   p=0.99, q=0.99)
        paths += run_teleport(scn, out_dir, "fig8b_teleport")
    elif figure_id == "fig9":
        for label, r in (("a", 1.0), ("b", 0.1), ("c", 5.0)):
            scn = _scn(state="noon", model="ohmic", r=r, m1=0,
                       t_max=_OHMIC_TMAX[r], steps=200, p=0.99, q=0.99)
            paths += run_teleport(scn, out_dir, "fig9%s_teleport" % label)
    else:
        raise ScenarioError("unknown figure id %r" % figure_id)
    return paths


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twocav",
        description="Two-cavity damped field toolkit: evolution, correlation "
                    "measures, Wigner functions and teleportation pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("evolve", "correlations", "wigner", "volume", "teleport"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--mode", choices=["leaky", "paper"])
        p.add_argument("--elements", choices=["oracle", "paper"])
        p.add_argument("--index-order", choices=["printed", "symmetric"])
    p = sub.add_parser("figures")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out", default=".")
    return parser


_RUNNERS = {
    "evolve": run_evolve,
    "correlations": run_correlations,
    "wigner": run_wigner,
    "volume": run_volume,
    "teleport": run_teleport,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    try:
        os.makedirs(args.out, exist_ok=True)
        if args.command == "figures":
            paths = run_figures(args.figure, args.out)
        else:
            scn = scenario_mod.load_scenario(args.scenario)
            if args.mode:
                scn.closure = args.mode
            if args.elements:
                scn.elements = args.elements
            if args.index_order:
                scn.index_order = args.index_order
            paths = _RUNNERS[args.command](scn, args.out)
    except (ScenarioError, DomainError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, OverflowGuardError) as exc:
        print("integration error: %s" % exc, file=sys.stderr)
        return EXIT_INTEGRATION
    except QuadratureConvergenceError as exc:
        print("quadrature error: %s" % exc, file=sys.stderr)
        return EXIT_QUADRATURE
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
