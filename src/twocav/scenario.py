"""Plain key=value scenario files driving the command-line pipelines.

A scenario file is the whole description of a run.  `parse_scenario`
resolves it into a `Scenario` that holds every object a run uses: the
evolution parameters, the initial state, the time grid, the points per
axis of the negativity volume (whose extent follows from the window in
`wigner`) and the teleport input.  Each is built once, there, so each
value is checked by the object that uses it, bad input fails before
anything is evolved, and the table builders read the stored objects.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, states, teleport
from .errors import DomainError, ScenarioError

SCHEMA_VERSION = 1

# Every scenario key and the conversion of its value.  Each value in a
# file is converted, and each float checked finite, at parse time, whether
# or not the run uses it; range checks stay with the object that does.
_KEY_TYPES = {
    "schema": int, "state": str.lower,
    "a": float, "d": float, "b": float, "c": float, "nbar_prime": float,
    "n1": int, "m1": int, "nbar": float,
    "model": str.lower, "gamma_m": float, "r": float, "omega_c": float,
    "t_max": float, "steps": int, "closure": str.lower,
    "p": float, "q": float, "index_order": str.lower, "points": int,
}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Scenario:
    """Resolved run: every object a run uses, built once by `parse_scenario`
    (which holds every default).  `rho0` and `times` are read-only."""

    state: str
    model: object
    evolution: dynamics.EvolutionParams
    rho0: np.ndarray
    times: np.ndarray
    points: int  # per axis of the negativity volume (`wigner.volume_pair`)
    teleport_input: teleport.InputState
    raw: dict

    def __post_init__(self):
        self.rho0.flags.writeable = self.times.flags.writeable = False

    @property
    def window(self):
        return self.evolution.window

    @property
    def p(self):
        return self.teleport_input.p

    @property
    def q(self):
        return self.teleport_input.q

    @property
    def index_order(self):
        return self.teleport_input.index_order

    # The benchmark harness (perfbench/) reads these two accessors.
    def initial_state(self):
        return self.rho0

    def params(self):
        return self.evolution

    def summary(self):
        """One-line key=value record for CSV comment headers; closure and
        index_order appear even when the file leaves them at their
        defaults."""
        items = dict(self.raw, closure=self.evolution.closure_mode,
                     index_order=self.index_order)
        return " ".join("%s=%s" % (k, items[k]) for k in sorted(items))


def _convert(key, text):
    try:
        value = _KEY_TYPES[key](text)
    except ValueError:
        raise ScenarioError("scenario key '%s' has invalid value %r" % (key, text))
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError("scenario key '%s' must be finite, got %r" % (key, text))
    return value


def _required(values, key):
    if key not in values:
        raise ScenarioError("scenario is missing required key '%s'" % key)
    return values[key]


def _model(values):
    name = _required(values, "model")
    if name == "markovian":
        return dynamics.Markovian(gamma_m=values.get("gamma_m", 1.0))
    if name == "ohmic":
        return dynamics.NonMarkovianOhmic(r=values.get("r", 1.0))
    if name == "kernel":
        return dynamics.KernelIntegral(omega_c=values.get("omega_c", 1.0))
    raise ScenarioError("model must be markovian, ohmic or kernel")


def _initial_state(state, values, window):
    if state == "epr":
        return states.build_epr(*(values.get(k, _INV_SQRT2) for k in "ad"))
    if state == "noon":
        return states.build_noon(*(values.get(k, _INV_SQRT2) for k in "bc"))
    return states.pure_state(
        states.coherent_amplitudes_paper(_required(values, "nbar_prime"), window))


def parse_scenario(text):
    table, values = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError("line %d is not a key=value pair" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ScenarioError("unknown scenario key '%s'" % key)
        if key in table:
            raise ScenarioError("duplicate scenario key '%s'" % key)
        table[key] = value
        values[key] = _convert(key, value)

    schema = _required(values, "schema")
    if schema != SCHEMA_VERSION:
        raise ScenarioError("unsupported schema version %d" % schema)

    state = _required(values, "state")
    if state not in ("epr", "noon", "coherent"):
        raise ScenarioError("state must be epr, noon or coherent")

    t_max = _required(values, "t_max")
    if t_max < 0:
        raise ScenarioError("t_max must be non-negative")
    # The upper bounds of steps and points cap what a run allocates; README
    # "Command line" gives the allocation measured at each.
    steps = _required(values, "steps")
    if not 2 <= steps <= 10000:
        raise ScenarioError("steps must be between 2 and 10000")

    # The volume gate compares the grid with one of half the points, never
    # fewer than 8: an 8-point grid would be compared with itself.
    points = values.get("points", 32)
    if not 10 <= points <= 128 or points % 2:
        raise ScenarioError("points must be even and between 10 and 128")
    # The Wigner code runs factorials and Laguerre loops as long as a window
    # index, and from about nbar = 1e20 the state turns non-finite; both
    # bounds are far above every figure, workload and test value.
    for key in ("n1", "m1"):
        if values.get(key, 0) > 1000:
            raise ScenarioError("%s must not exceed 1000" % key)
    if values.get("nbar", 0.0) > 1e6:
        raise ScenarioError("nbar must not exceed 1e6")

    try:
        window = states.FockWindow(n1=values.get("n1", 0), m1=values.get("m1", 0))
        return Scenario(
            state=state,
            model=_model(values),
            evolution=dynamics.EvolutionParams(
                window=window, nbar=values.get("nbar", 0.0),
                closure_mode=values.get("closure", dynamics.LEAKY)),
            rho0=_initial_state(state, values, window),
            times=np.linspace(0.0, t_max, steps) if t_max else np.array([0.0]),
            points=points,
            teleport_input=teleport.input_state(
                values.get("p", 0.0), values.get("q", 1.0),
                values.get("index_order", teleport.PRINTED)),
            raw=table,
        )
    except DomainError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError("cannot read scenario file: %s" % exc)
    return parse_scenario(text)
