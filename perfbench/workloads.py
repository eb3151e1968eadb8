"""Workload definitions: the inputs each workload generates and the CLI
operations one iteration runs.

Every workload is a closed loop with one caller: each operation is a
``twocav`` command line invocation that starts only after the previous one
returned.  Inputs depend on the seed alone, so one seed always produces
the same scenario files and the same CSV outputs.  README.md in this
directory says why each workload was chosen and what it predicts.
"""

import math
import os

import numpy as np

DECAY_FIGURES = ["fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9"]

# Horizons of the Ohmic memory-kernel models, keyed by the cutoff ratio r,
# as used by the CLI presets: past them the rate changes sign, the window
# re-amplifies and the integration eventually overflows.  Drawing t_max
# below them keeps every sweep operation inside the model's domain.
OHMIC_HORIZON = {1.0: 1.0, 0.1: 3.0, 5.0: 1.5}

COHERENT_FILES = 32
COHERENT_STEPS = 2

# The fig5 panels: (label, m1, closure, points); t_max = 0.68 over 8 steps.
FIG5_PANELS = (("a", 0, "leaky", 32), ("b", 2, "paper", 64))
FIG5_T_MAX = 0.68
FIG5_STEPS = 8


class Op:
    """One CLI invocation; `scenario` is the generated file text, if any."""

    def __init__(self, name, argv, scenario=None):
        self.name = name
        self.argv = argv
        self.scenario = scenario


def _scenario_text(**kv):
    lines = ["schema = 1"] + ["%s = %s" % (k, v) for k, v in kv.items()]
    return "\n".join(lines) + "\n"


def _amplitudes(rng, state):
    a = round(float(rng.uniform(0.3, 0.95)), 6)
    other = repr(math.sqrt(1.0 - a * a))
    if state == "epr":
        return {"a": a, "d": other}
    return {"b": a, "c": other}


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _ohmic(rng):
    r = _pick(rng, sorted(OHMIC_HORIZON))
    t_max = round(float(rng.uniform(0.4, 0.6)) * OHMIC_HORIZON[r], 6)
    return {"model": "ohmic", "r": r}, t_max


def _sweep_scenarios(rng):
    """The scenario_sweep files in a fixed order with fixed per-subcommand
    counts (correlations 34, teleport 2, wigner 2, evolve 2); the seed draws
    only the physical parameters inside each slot."""
    u = lambda lo, hi: round(float(rng.uniform(lo, hi)), 6)
    out = []

    # Coherent amplitudes fill the whole window: not X-structured, so every
    # discord value comes from the brute-force minimiser.  Its cost per
    # state depends on the state (30-95 ms, most of all on the window), so
    # the brute-force states are spread over many short files that cycle
    # through the windows, which keeps the iteration time nearly the same
    # for every seed.
    windows = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0)]
    for i in range(COHERENT_FILES):
        n1, m1 = windows[i % len(windows)]
        if i % 2:
            model = dict(model="kernel", omega_c=u(0.5, 2.0), nbar=u(0.05, 0.3),
                         closure="paper")
        else:
            model = dict(model="markovian", gamma_m=u(0.5, 1.5))
        out.append(("correlations", "corr_coherent_%d" % i, dict(
            state="coherent", nbar_prime=u(0.3, 1.5), n1=n1, m1=m1, **model,
            t_max=u(0.5, 3.0), steps=COHERENT_STEPS)))
    # Leaky shifted windows with nbar > 0 lose trace, so the closed-form
    # discord meets unnormalised states here.
    n1, m1 = _pick(rng, [(1, 2), (2, 1), (0, 1), (1, 0)])
    out.append(("correlations", "corr_epr_shifted_nbar", dict(
        state="epr", **_amplitudes(rng, "epr"), n1=n1, m1=m1,
        model="markovian", gamma_m=u(0.5, 1.5), nbar=u(0.05, 0.4),
        t_max=u(0.6, 1.8), steps=60)))
    model, t_max = _ohmic(rng)
    n1, m1 = _pick(rng, [(0, 0), (1, 1)])
    out.append(("correlations", "corr_noon_ohmic_paper", dict(
        state="noon", **_amplitudes(rng, "noon"), n1=n1, m1=m1, **model,
        closure="paper", t_max=t_max, steps=60)))

    n1, m1 = _pick(rng, [(0, 0), (0, 1), (1, 0)])
    out.append(("teleport", "tele_epr_printed", dict(
        state="epr", **_amplitudes(rng, "epr"), n1=n1, m1=m1,
        model="markovian", gamma_m=u(0.5, 1.5), t_max=u(0.6, 1.8), steps=60,
        p=u(0.0, 0.3), q=u(0.5, 1.0), index_order="printed")))
    n1, m1 = _pick(rng, [(0, 0), (1, 0), (0, 2)])
    out.append(("teleport", "tele_noon_symmetric", dict(
        state="noon", **_amplitudes(rng, "noon"), n1=n1, m1=m1,
        model="kernel", omega_c=u(0.5, 2.0), nbar=u(0.05, 0.3),
        t_max=u(0.6, 1.8), steps=60, p=u(0.0, 0.3), q=u(0.5, 1.0),
        index_order="symmetric")))

    n1, m1 = _pick(rng, [(0, 2), (2, 1), (1, 2)])
    out.append(("wigner", "wig_coherent_shifted", dict(
        state="coherent", nbar_prime=u(0.3, 1.5), n1=n1, m1=m1,
        model="markovian", gamma_m=u(0.5, 1.5), nbar=u(0.05, 0.3),
        t_max=u(0.6, 1.8), steps=60)))
    model, t_max = _ohmic(rng)
    n1, m1 = _pick(rng, [(2, 2), (1, 0), (0, 3)])
    out.append(("wigner", "wig_epr_ohmic_paper", dict(
        state="epr", **_amplitudes(rng, "epr"), n1=n1, m1=m1, **model,
        closure="paper", t_max=t_max, steps=60)))

    n1, m1 = _pick(rng, [(1, 0), (0, 2), (2, 1)])
    out.append(("evolve", "evo_coherent_kernel", dict(
        state="coherent", nbar_prime=u(0.3, 1.5), n1=n1, m1=m1,
        model="kernel", omega_c=u(0.5, 2.0), nbar=u(0.05, 0.4),
        t_max=u(0.6, 1.8), steps=60)))
    model, t_max = _ohmic(rng)
    n1, m1 = _pick(rng, [(0, 1), (1, 2), (2, 0)])
    out.append(("evolve", "evo_noon_ohmic_paper", dict(
        state="noon", **_amplitudes(rng, "noon"), n1=n1, m1=m1, **model,
        closure="paper", t_max=t_max, steps=60)))
    return [(cmd, name, _scenario_text(**kv)) for cmd, name, kv in out]


def _phase_scenarios(rng):
    """Both fig5 panels over two time points, t = 0 and t_max.

    t_max is drawn up to one step of the published 8-step grid, so no
    interval is longer than in fig5.  The Wigner work per time point does
    not depend on the state, so the seed changes no cost.
    """
    step = FIG5_T_MAX / (FIG5_STEPS - 1)
    t_max = round(float(rng.uniform(0.5, 1.0)) * step, 6)
    out = []
    for label, m1, closure, points in FIG5_PANELS:
        text = _scenario_text(state="epr", model="markovian", m1=m1,
                              t_max=t_max, steps=2, points=points,
                              closure=closure)
        out.append(("wigner", "fig5%s_wigner" % label, text))
        out.append(("volume", "fig5%s_volume" % label, text))
    return out


def make_ops(workload, seed, input_dir):
    """Write the workload's scenario files and return its operations.

    Each Op.argv lacks the trailing ``--out DIR``, which the caller adds
    per iteration.
    """
    rng = np.random.default_rng(seed)
    if workload == "decay_figures":
        return [Op(fig, ["figures", fig]) for fig in DECAY_FIGURES]
    if workload == "phase_space":
        specs = _phase_scenarios(rng)
    elif workload == "scenario_sweep":
        specs = _sweep_scenarios(rng)
    else:
        raise ValueError("unknown workload %r" % workload)
    os.makedirs(input_dir, exist_ok=True)
    ops = []
    for cmd, name, text in specs:
        path = os.path.join(input_dir, name + ".txt")
        with open(path, "w") as fh:
            fh.write(text)
        ops.append(Op(name, [cmd, "--scenario", path], scenario=text))
    return ops
