"""Plain key=value scenario files driving the command-line pipelines."""

import math
from dataclasses import dataclass, field
from typing import Optional

from . import dynamics, states
from .errors import ScenarioError

SCHEMA_VERSION = 1

_KNOWN_KEYS = {
    "schema", "state", "a", "d", "b", "c", "nbar_prime",
    "n1", "m1", "nbar",
    "model", "gamma_m", "omega0", "r", "omega_c",
    "t_max", "steps", "closure", "rho13_strict",
    "p", "q", "index_order",
    "extent", "points", "elements",
}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class Scenario:
    """Fully-resolved run description, as parsed from a scenario file."""

    state: str
    window: states.FockWindow
    nbar: float
    model: object
    t_max: float
    steps: int
    closure: str = dynamics.LEAKY
    rho13_strict: bool = False
    state_params: dict = field(default_factory=dict)
    p: float = 0.0
    q: float = 1.0
    index_order: str = "printed"
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
            rho13_strict=self.rho13_strict,
        )

    def time_grid(self):
        import numpy as np

        if self.t_max == 0.0:
            return np.array([0.0])
        return np.linspace(0.0, self.t_max, self.steps)

    def summary(self):
        """One-line key=value record for CSV comment headers, overrides included."""
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


def _parse_bool(text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(text)


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

    window = states.FockWindow(
        n1=_get(table, "n1", int, default=0), m1=_get(table, "m1", int, default=0)
    )

    model_name = _get(table, "model", str, required=True).lower()
    if model_name == "markovian":
        model = dynamics.Markovian(gamma_m=_get(table, "gamma_m", float, default=1.0))
    elif model_name == "ohmic":
        model = dynamics.NonMarkovianOhmic(
            omega0=_get(table, "omega0", float, default=1.0),
            r=_get(table, "r", float, default=1.0),
        )
    elif model_name == "kernel":
        model = dynamics.KernelIntegral(
            omega_c=_get(table, "omega_c", float, default=1.0)
        )
    else:
        raise ScenarioError("model must be markovian, ohmic or kernel")

    t_max = _get(table, "t_max", float, required=True)
    if t_max < 0:
        raise ScenarioError("t_max must be non-negative")
    steps = _get(table, "steps", int, required=True)
    if steps < 2:
        raise ScenarioError("steps must be at least 2")

    closure = _get(table, "closure", str, default=dynamics.LEAKY).lower()
    if closure not in (dynamics.LEAKY, dynamics.PAPER_CLOSURE):
        raise ScenarioError("closure must be leaky or paper")

    index_order = _get(table, "index_order", str, default="printed").lower()
    if index_order not in ("printed", "symmetric"):
        raise ScenarioError("index_order must be printed or symmetric")

    elements = _get(table, "elements", str, default="oracle").lower()
    if elements not in ("oracle", "paper"):
        raise ScenarioError("elements must be oracle or paper")

    points = _get(table, "points", int, default=32)
    if points < 8 or points % 2:
        raise ScenarioError("points must be even and at least 8")

    p = _get(table, "p", float, default=0.0)
    q = _get(table, "q", float, default=1.0)
    if not 0.0 <= p <= 1.0:
        raise ScenarioError("p must lie in [0, 1]")
    if q <= 0.0:
        raise ScenarioError("q must be positive")

    return Scenario(
        state=state,
        window=window,
        nbar=_get(table, "nbar", float, default=0.0),
        model=model,
        t_max=t_max,
        steps=steps,
        closure=closure,
        rho13_strict=_get(table, "rho13_strict", _parse_bool, default=False),
        state_params=state_params,
        p=p,
        q=q,
        index_order=index_order,
        extent=_get(table, "extent", float, default=None),
        points=points,
        elements=elements,
        raw=table,
    )


def load_scenario(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError("cannot read scenario file: %s" % exc)
    return parse_scenario(text)
