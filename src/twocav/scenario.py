"""Plain key=value scenario files driving the command-line pipelines.

A scenario file is the whole description of a run.  `parse_scenario`
builds every object a run uses (evolution parameters, initial state,
volume grid and teleport input) once, so each value is checked by the
object that uses it and bad input fails before anything is evolved.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from . import dynamics, states, teleport, wigner
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
    "p": float, "q": float, "index_order": str.lower,
    "extent": float, "points": int,
}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Scenario:
    """Fully-resolved run description, as parsed from a scenario file."""

    state: str
    window: states.FockWindow
    nbar: float
    model: object
    t_max: float
    steps: int
    closure: str = dynamics.LEAKY
    state_params: dict = field(default_factory=dict)
    p: float = 0.0
    q: float = 1.0
    index_order: str = teleport.PRINTED
    extent: Optional[float] = None
    points: int = 32
    raw: dict = field(default_factory=dict)

    def initial_state(self):
        if self.state == "epr":
            return states.build_epr(self.state_params["a"], self.state_params["d"])
        if self.state == "noon":
            return states.build_noon(self.state_params["b"], self.state_params["c"])
        return states.pure_state(
            states.coherent_amplitudes_paper(
                self.state_params["nbar_prime"], self.window
            )
        )

    def params(self):
        return dynamics.EvolutionParams(
            window=self.window,
            nbar=self.nbar,
            closure_mode=self.closure,
        )

    def time_grid(self):
        import numpy as np

        if self.t_max == 0.0:
            return np.array([0.0])
        return np.linspace(0.0, self.t_max, self.steps)

    def grid(self):
        """Phase-space grid of the negativity volume."""
        extent = self.extent
        if extent is None:
            extent = wigner.default_extent(self.window)
        return wigner.PhaseSpaceGrid(extent=extent, points_per_axis=self.points)

    def summary(self):
        """One-line key=value record for CSV comment headers; closure and
        index_order appear even when the file leaves them at their
        defaults."""
        items = dict(self.raw, closure=self.closure, index_order=self.index_order)
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
    if state == "epr":
        state_params = {k: values.get(k, _INV_SQRT2) for k in ("a", "d")}
    elif state == "noon":
        state_params = {k: values.get(k, _INV_SQRT2) for k in ("b", "c")}
    else:
        state_params = {"nbar_prime": _required(values, "nbar_prime")}

    t_max = _required(values, "t_max")
    if t_max < 0:
        raise ScenarioError("t_max must be non-negative")
    steps = _required(values, "steps")
    if steps < 2:
        raise ScenarioError("steps must be at least 2")

    # The volume gate compares the grid with one of half the points, never
    # fewer than 8: an 8-point grid would be compared with itself.
    points = values.get("points", 32)
    if points < 10 or points % 2:
        raise ScenarioError("points must be even and at least 10")

    try:
        scn = Scenario(
            state=state,
            window=states.FockWindow(n1=values.get("n1", 0), m1=values.get("m1", 0)),
            nbar=values.get("nbar", 0.0),
            model=_model(values),
            t_max=t_max,
            steps=steps,
            closure=values.get("closure", dynamics.LEAKY),
            state_params=state_params,
            p=values.get("p", 0.0),
            q=values.get("q", 1.0),
            index_order=values.get("index_order", teleport.PRINTED),
            extent=values.get("extent"),
            points=points,
            raw=table,
        )
        # Build what a run builds, so the checks of each object fire now.
        scn.params()
        scn.initial_state()
        scn.grid()
        teleport.input_state(scn.p, scn.q, scn.index_order)
    except DomainError as exc:
        raise ScenarioError(str(exc)) from exc
    return scn


def load_scenario(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError("cannot read scenario file: %s" % exc)
    return parse_scenario(text)
