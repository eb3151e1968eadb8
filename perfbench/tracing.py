"""Spans around the public functions of each twocav layer.

The tracer replaces module attributes with wrappers for the duration of a
traced iteration.  The package looks these functions up through module
globals or attributes at call time, so calls between layers are recorded
too.  Spans stay in memory; the caller writes them out when the run ends.
"""

import functools
import hashlib
import os
import time
import tracemalloc

import numpy as np

# (module, function) pairs wrapped in a traced run.  `states` runs once per
# scenario in microseconds and `errata` is on no production path, so
# neither is wrapped.
TARGETS = (
    ("dynamics", "evolve_ode"),
    ("correlations", "correlation_report"),
    ("correlations", "discord_bruteforce"),
    ("wigner", "parity_table"),
    ("wigner", "wigner_field"),
    ("wigner", "integrate_field"),
    ("wigner", "volume_pair"),
    ("wigner", "wigner_joint"),
    ("teleport", "teleport_general"),
    ("teleport", "teleported_measures"),
    ("cli", "write_csv"),
    ("scenario", "parse_scenario"),
)

LAYERS = ("scenario", "dynamics", "correlations", "wigner", "teleport", "cli")

PER_LAYER_UNITS = {
    "dynamics.evolve_s": "s",
    "dynamics.evolve_calls": "count",
    "dynamics.states_out": "count",
    "correlations.report_s": "s",
    "correlations.report_calls": "count",
    "correlations.bruteforce_s": "s",
    "correlations.bruteforce_calls": "count",
    "correlations.closed_form_ratio": "ratio",
    "wigner.k_table_s": "s",
    "wigner.k_table_calls": "count",
    "wigner.k_table_points": "count",
    "wigner.k_table_distinct_ratio": "ratio",
    "wigner.field_self_s": "s",
    "wigner.field_points": "count",
    "wigner.field_bytes_computed": "B",
    "wigner.quadrature_s": "s",
    "wigner.volume_self_s": "s",
    "wigner.peak_alloc_mb": "MB",
    "wigner.joint_s": "s",
    "wigner.joint_calls": "count",
    "teleport.general_s": "s",
    "teleport.general_calls": "count",
    "teleport.measures_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.rows_written": "count",
    "scenario.parse_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans (id, name, start, end, parent id, iteration) and the
    per-call counts that the per-layer metrics need."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> imported module
        self.spans = []
        self.events = []  # (iteration, name, key, value) per-call counts
        self.iteration = None
        self._stack = []
        self._saved = []

    def install(self, iteration):
        self.iteration = iteration
        for mod_name, fn_name in TARGETS:
            mod = self.modules[mod_name]
            original = getattr(mod, fn_name)
            self._saved.append((mod, fn_name, original))
            setattr(mod, fn_name, self._wrap("%s.%s" % (mod_name, fn_name), original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved = []
        self.iteration = None

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        measure_alloc = name == "wigner.volume_pair"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            own_alloc = measure_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.events.append((self.iteration, name, "peak_alloc", peak))
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent,
                                       self.iteration)
            if count is not None:
                for key, value in count(args, kwargs, result):
                    self.events.append((self.iteration, name, key, value))
            return result

        return wrapper


def _evolve_counts(args, kwargs, traj):
    yield "states_out", len(traj.times)


def _parity_counts(args, kwargs, table):
    alphas = np.ascontiguousarray(args[0] if args else kwargs["alphas"],
                                  dtype=complex)
    window_index = args[1] if len(args) > 1 else kwargs["window_index"]
    cutoff = args[2] if len(args) > 2 else kwargs["cutoff"]
    grid_key = hashlib.sha1(alphas.tobytes()).hexdigest()
    yield "points", alphas.size
    yield "key", (grid_key, int(window_index), int(cutoff))


def _field_counts(args, kwargs, field):
    points = int(np.asarray(field.values).size)
    yield "points", points
    # The contraction produces a complex128 value per point before the
    # real part is kept: these are bytes computed, not memory traffic.
    yield "bytes_computed", 16 * points


def _write_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    yield "bytes", os.path.getsize(path)
    yield "rows", len(rows)


_COUNTERS = {
    "dynamics.evolve_ode": _evolve_counts,
    "wigner.parity_table": _parity_counts,
    "wigner.wigner_field": _field_counts,
    "cli.write_csv": _write_counts,
}


def self_times(spans):
    """Duration minus the part covered by direct children, per span id."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def iteration_metrics(spans, events, iteration):
    """Per-layer metrics of one traced iteration."""
    spans = [s for s in spans if s[5] == iteration]
    events = [e for e in events if e[0] == iteration]
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, []))

    def self_total(name):
        return sum(own[s[0]] for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def event_values(name, key):
        return [e[3] for e in events if e[1] == name and e[2] == key]

    reports = by_name.get("correlations.correlation_report", [])
    report_ids = {s[0] for s in reports}
    fell_back = {s[4] for s in by_name.get("correlations.discord_bruteforce", [])
                 if s[4] in report_ids}
    k_keys = event_values("wigner.parity_table", "key")
    peaks = event_values("wigner.volume_pair", "peak_alloc")
    return {
        "dynamics.evolve_s": total("dynamics.evolve_ode"),
        "dynamics.evolve_calls": calls("dynamics.evolve_ode"),
        "dynamics.states_out": sum(event_values("dynamics.evolve_ode", "states_out")),
        "correlations.report_s": total("correlations.correlation_report"),
        "correlations.report_calls": len(reports),
        "correlations.bruteforce_s": total("correlations.discord_bruteforce"),
        "correlations.bruteforce_calls": calls("correlations.discord_bruteforce"),
        # 0 when there is no report: correlations.report_calls is the base.
        "correlations.closed_form_ratio":
            (len(reports) - len(fell_back)) / len(reports) if reports else 0.0,
        "wigner.k_table_s": total("wigner.parity_table"),
        "wigner.k_table_calls": len(k_keys),
        "wigner.k_table_points": sum(event_values("wigner.parity_table", "points")),
        # 0 when no table is built: wigner.k_table_calls is the base.
        "wigner.k_table_distinct_ratio":
            len(set(k_keys)) / len(k_keys) if k_keys else 0.0,
        "wigner.field_self_s": self_total("wigner.wigner_field"),
        "wigner.field_points": sum(event_values("wigner.wigner_field", "points")),
        "wigner.field_bytes_computed":
            sum(event_values("wigner.wigner_field", "bytes_computed")),
        "wigner.quadrature_s": total("wigner.integrate_field"),
        "wigner.volume_self_s": self_total("wigner.volume_pair"),
        "wigner.peak_alloc_mb": max(peaks) / 2**20 if peaks else 0.0,
        "wigner.joint_s": total("wigner.wigner_joint"),
        "wigner.joint_calls": calls("wigner.wigner_joint"),
        "teleport.general_s": total("teleport.teleport_general"),
        "teleport.general_calls": calls("teleport.teleport_general"),
        "teleport.measures_s": total("teleport.teleported_measures"),
        "cli.write_s": total("cli.write_csv"),
        "cli.bytes_written": sum(event_values("cli.write_csv", "bytes")),
        "cli.rows_written": sum(event_values("cli.write_csv", "rows")),
    }


def layer_shares(spans, iteration, wall):
    """Self time of each layer and its share of the iteration wall time;
    also the share covered by outermost wigner spans."""
    spans = [s for s in spans if s[5] == iteration]
    own = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    layer_self = {layer: 0.0 for layer in LAYERS}
    wigner_cover = 0.0
    for s in spans:
        layer = s[1].split(".")[0]
        layer_self[layer] += own[s[0]]
        parent_layer = names[s[4]].split(".")[0] if s[4] is not None else None
        if layer == "wigner" and parent_layer != "wigner":
            wigner_cover += s[3] - s[2]
    return {
        "layer_self_s": layer_self,
        "layer_self_share": {k: v / wall for k, v in layer_self.items()},
        "wigner_cover_share": wigner_cover / wall,
    }


def summarise(tracer, traced, untraced):
    """Per-layer metrics as the median over traced iterations.

    `traced` and `untraced` map iteration ids to wall times.
    """
    per_iter = [iteration_metrics(tracer.spans, tracer.events, i) for i in traced]
    metrics = {name: _median([m[name] for m in per_iter])
               for name in per_iter[0]}
    parse = [s for s in tracer.spans
             if s[5] == "setup" and s[1] == "scenario.parse_scenario"]
    metrics["scenario.parse_s"] = sum(s[3] - s[2] for s in parse)
    metrics["trace.overhead_s"] = (_median(list(traced.values()))
                                   - _median(list(untraced.values())))
    shares = [layer_shares(tracer.spans, i, w) for i, w in traced.items()]
    return metrics, shares
