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

_KNOWN_KEYS = {
    "schema", "state", "a", "d", "b", "c", "nbar_prime",
    "n1", "m1", "nbar",
    "model", "gamma_m", "r", "omega_c",
    "t_max", "steps", "closure",
    "p", "q", "index_order",
    "extent", "points", "elements",
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
    elements: str = "oracle"
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
        """One-line key=value record for CSV comment headers; closure,
        index_order and elements appear even when the file leaves them at
        their defaults."""
        items = dict(self.raw, closure=self.closure,
                     index_order=self.index_order, elements=self.elements)
        return " ".join("%s=%s" % (k, items[k]) for k in sorted(items))


def _get(table, key, convert, default=None, required=False):
    if key not in table:
        if required:
            raise ScenarioError("scenario is missing required key '%s'" % key)
        return default
    try:
        value = convert(table[key])
    except (TypeError, ValueError):
        raise ScenarioError("scenario key '%s' has invalid value %r" % (key, table[key]))
    if convert is float and not math.isfinite(value):
        raise ScenarioError("scenario key '%s' must be finite, got %r" % (key, table[key]))
    return value


def _model(table):
    name = _get(table, "model", str, required=True).lower()
    if name == "markovian":
        return dynamics.Markovian(gamma_m=_get(table, "gamma_m", float, default=1.0))
    if name == "ohmic":
        return dynamics.NonMarkovianOhmic(r=_get(table, "r", float, default=1.0))
    if name == "kernel":
        return dynamics.KernelIntegral(omega_c=_get(table, "omega_c", float, default=1.0))
    raise ScenarioError("model must be markovian, ohmic or kernel")


def parse_scenario(text):
    table = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError("line %d is not a key=value pair" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ScenarioError("unknown scenario key '%s'" % key)
        if key in table:
            raise ScenarioError("duplicate scenario key '%s'" % key)
        table[key] = value

    schema = _get(table, "schema", int, required=True)
    if schema != SCHEMA_VERSION:
        raise ScenarioError("unsupported schema version %d" % schema)

    state = _get(table, "state", str, required=True).lower()
    if state not in ("epr", "noon", "coherent"):
        raise ScenarioError("state must be epr, noon or coherent")
    state_params = {}
    if state == "epr":
        state_params["a"] = _get(table, "a", float, default=_INV_SQRT2)
        state_params["d"] = _get(table, "d", float, default=_INV_SQRT2)
    elif state == "noon":
        state_params["b"] = _get(table, "b", float, default=_INV_SQRT2)
        state_params["c"] = _get(table, "c", float, default=_INV_SQRT2)
    else:
        state_params["nbar_prime"] = _get(
            table, "nbar_prime", float, required=True
        )

    t_max = _get(table, "t_max", float, required=True)
    if t_max < 0:
        raise ScenarioError("t_max must be non-negative")
    steps = _get(table, "steps", int, required=True)
    if steps < 2:
        raise ScenarioError("steps must be at least 2")

    # The key stays in every CSV header; its one value names the Laguerre
    # closed form of the displaced-parity elements.
    elements = _get(table, "elements", str, default="oracle").lower()
    if elements != "oracle":
        raise ScenarioError("elements must be oracle")

    # The volume gate compares the grid with one of half the points, never
    # fewer than 8: an 8-point grid would be compared with itself.
    points = _get(table, "points", int, default=32)
    if points < 10 or points % 2:
        raise ScenarioError("points must be even and at least 10")

    try:
        scn = Scenario(
            state=state,
            window=states.FockWindow(n1=_get(table, "n1", int, default=0),
                                     m1=_get(table, "m1", int, default=0)),
            nbar=_get(table, "nbar", float, default=0.0),
            model=_model(table),
            t_max=t_max,
            steps=steps,
            closure=_get(table, "closure", str, default=dynamics.LEAKY).lower(),
            state_params=state_params,
            p=_get(table, "p", float, default=0.0),
            q=_get(table, "q", float, default=1.0),
            index_order=_get(table, "index_order", str,
                             default=teleport.PRINTED).lower(),
            extent=_get(table, "extent", float, default=None),
            points=points,
            elements=elements,
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
