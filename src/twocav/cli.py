"""Scenario-driven command line emitting deterministic CSV series.

Subcommands: evolve, correlations, wigner, volume, teleport, figures.
The scenario subcommands take only --scenario and --out: the scenario file
is the whole configuration of a run.  Each scenario subcommand names a
table builder in `TABLES` that turns a scenario and its evolved trajectory
into CSV columns and rows; each builder names every column beside its
values, and no other module names a CSV column.  The builders read the
parsed scenario's objects and pass each layer the whole trajectory stack.
`run_scenario` evolves a scenario once and writes every requested table;
`figures` runs the preset bundles of `FIGURES` through it.  The volume
table holds the one convergence gate of the negativity volume,
`VOLUME_GATE`.
Exit codes: 0 success, 2 configuration problem (including an output
directory that cannot be created or written), 3 integration failure,
4 quadrature non-convergence.
"""

import argparse
import functools
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


def write_csv(path, comment, header, rows):
    # %.17g round-trips every float and writes booleans as 1 and 0; one
    # format string per table formats a whole row at once.
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write("# %s\n" % comment)
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def _table(**columns):
    """Header and rows of a table given column by column, each named once."""
    values = (np.asarray(c).tolist() for c in columns.values())
    return list(columns), [list(row) for row in zip(*values)]


def _trajectory_table(scn, traj):
    rho = traj.states
    entries = {}
    for i, j in np.ndindex(4, 4):
        entries["re%d%d" % (i + 1, j + 1)] = rho[:, i, j].real
        entries["im%d%d" % (i + 1, j + 1)] = rho[:, i, j].imag
    # evolve returns (rho + rho^dagger)/2, which is Hermitian bit for bit.
    return _table(t=traj.times, **entries,
                  trace=np.real(np.trace(rho, axis1=-2, axis2=-1)),
                  min_eigenvalue=np.linalg.eigvalsh(rho)[:, 0])


def _correlations_table(scn, traj):
    rep = correlations.correlation_report(traj.states)
    return _table(t=traj.times, negativity=rep.negativity,
                  log_negativity=rep.log_negativity,
                  concurrence=rep.concurrence, discord=rep.discord)


def _wigner_table(scn, traj):
    return _table(t=traj.times,
                  w_origin=wigner.wigner_joint(traj.states, 0.0, 0.0, scn.window))


VOLUME_GATE = 0.05  # largest tolerated drift between the two resolutions


def _volume_table(scn, traj):
    volume, volume_half = wigner.volume_pair(traj.states, scn.points, scn.window)
    # Written so that a NaN volume fails the gate too.
    failed = ~(np.abs(volume - volume_half) <= VOLUME_GATE)
    if failed.any():
        k = int(np.argmax(failed))
        raise QuadratureConvergenceError(
            "volume quadrature not converged at t = %g: %g vs %g"
            % (traj.times[k], volume[k], volume_half[k]),
            fine=float(volume[k]), coarse=float(volume_half[k]))
    return _table(t=traj.times, volume=volume, volume_half=volume_half)


def _teleport_table(scn, traj):
    inp = scn.teleport_input
    closed = teleport.closed_form_epr if scn.state == "epr" else teleport.closed_form_noon
    res = teleport.teleport_general(traj.states, inp)
    c1, c2, c3 = closed(traj.states, scn.p, scn.q)
    rep = teleport.teleported_measures(res)
    return _table(
        t=traj.times, fidelity=res.fidelity,
        fidelity_closed=teleport.closed_form_fidelity(c1, c2, scn.q),
        concurrence_out=rep.concurrence, log_negativity_out=rep.log_negativity,
        discord_out=rep.discord, c1=c1, c2=c2, c3=c3,
        beats_classical=res.fidelity > 2.0 / 3.0,
        non_physical_input=[inp.non_physical] * len(traj.times))


# Subcommand -> (table builder, default CSV name, note appended to the
# scenario summary in the comment line).
TABLES = {
    "evolve": (_trajectory_table, "trajectory", ""),
    "correlations": (_correlations_table, "correlations", ""),
    # The sampled point is the phase-space origin.
    "wigner": (_wigner_table, "wigner", " point=origin"),
    "volume": (_volume_table, "volume", ""),
    "teleport": (_teleport_table, "teleport", ""),
}


def run_scenario(scn, outputs, out_dir):
    """Evolve scn once and write one CSV per (command, name) of outputs."""
    if scn.state == "coherent" and any(cmd == "teleport" for cmd, _ in outputs):
        raise ScenarioError("teleport runs need an epr or noon channel family")
    traj = dynamics.evolve(scn.rho0, scn.evolution, scn.model, scn.times)
    paths = []
    for command, name in outputs:
        build, _, note = TABLES[command]
        header, rows = build(scn, traj)
        path = os.path.join(out_dir, "%s.csv" % name)
        write_csv(path, scn.summary() + note, header, rows)
        paths.append(path)
    return paths


def _scn(**kv):
    lines = ["schema = 1"]
    lines += ["%s = %s" % (k, v) for k, v in kv.items()]
    return scenario_mod.parse_scenario("\n".join(lines))


# The memory-kernel rate changes sign at a finite horizon (about
# omega_0 t = 1.04 for r = 1, 5.7 for r = 0.1, 1.75 for r = 5); past it
# the window re-amplifies and eventually overflows, so the presets stop
# just short of that time.
_OHMIC_TMAX = {1.0: 1.0, 0.1: 3.0, 5.0: 1.5}


def _markovian(state, **kv):
    keys = dict(state=state, model="markovian", m1=0, t_max=5, steps=200)
    keys.update(kv)
    return keys


def _ohmic(state, r, **kv):
    return dict(state=state, model="ohmic", r=r, m1=0, t_max=_OHMIC_TMAX[r],
                steps=200, **kv)


_RATES = (("a", 1.0), ("b", 0.1), ("c", 5.0))

# Figure id -> [(scenario keys, [(command, CSV name), ...]), ...].  The
# key values are printed into every CSV header, so they are kept verbatim.
FIGURES = {
    "fig2": [(_markovian("epr"), [("correlations", "fig2a_measures"),
                                  ("evolve", "fig2b_populations")])],
    "fig3": [(_ohmic("epr", r), [("correlations", "fig3%s_measures" % label)])
             for label, r in _RATES],
    "fig4": [
        (_markovian("noon"), [("correlations", "fig4a_measures")]),
        (_markovian("noon", m1=1), [("correlations", "fig4b_measures")]),
        (_ohmic("noon", 1.0), [("correlations", "fig4c_measures")]),
        (_ohmic("noon", 0.1), [("correlations", "fig4d_measures")]),
    ],
    # The m1 = 2 panel uses the trace-closing mode and a finer grid; its
    # leaky counterpart drains the window and the volume integral loses
    # meaning.
    "fig5": [(_markovian("epr", m1=m1, t_max=0.68, steps=8, points=points,
                         closure=closure),
              [("wigner", "fig5%s_wigner" % label),
               ("volume", "fig5%s_volume" % label)])
             for label, m1, closure, points in (("a", 0, "leaky", 32),
                                                ("b", 2, "paper", 64))],
    "fig6": [(_markovian("epr", p=0.99, q=0.97), [("teleport", "fig6_teleport")])],
    "fig7": [(_ohmic("epr", r, p=0.99, q=0.97),
              [("teleport", "fig7%s_teleport" % label)]) for label, r in _RATES],
    "fig8": [
        (_markovian("noon", p=0.99, q=0.97), [("teleport", "fig8a_teleport")]),
        (_markovian("noon", m1=1, p=0.99, q=0.99), [("teleport", "fig8b_teleport")]),
    ],
    "fig9": [(_ohmic("noon", r, p=0.99, q=0.99),
              [("teleport", "fig9%s_teleport" % label)]) for label, r in _RATES],
}
FIGURE_IDS = list(FIGURES)


def run_figures(figure_id, out_dir):
    """Preset scenario bundles; one CSV per panel."""
    if figure_id not in FIGURES:
        raise ScenarioError("unknown figure id %r" % figure_id)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for keys, outputs in FIGURES[figure_id]:
        paths += run_scenario(_scn(**keys), outputs, out_dir)
    return paths


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twocav",
        description="Two-cavity damped field toolkit: evolution, correlation "
                    "measures, Wigner functions and teleportation pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TABLES:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True)
        p.add_argument("--out", default=".")
    p = sub.add_parser("figures")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out", default=".")
    return parser


# Built on the first `main` call, not at import, and shared by later calls:
# parse_args keeps no state between calls.
_parser = functools.cache(build_parser)


def main(argv=None):
    parser = _parser()
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
            paths = run_scenario(scn, [(args.command, TABLES[args.command][1])],
                                 args.out)
    except (ScenarioError, DomainError, OSError) as exc:
        # OSError: the output directory cannot be created or written to.
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
