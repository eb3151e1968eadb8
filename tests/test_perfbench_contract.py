"""What the benchmark under perfbench/ reads from the package.

The benchmark wraps package functions by (module, name) and parses each CSV
comment line back into a scenario, so both must keep working.  Its files
are loaded from the checkout, not modified.
"""

import importlib
import importlib.util
import os
import re

import pytest

import twocav
from twocav import cli, scenario

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    for mod_name, fn_name in _load("tracing").TARGETS:
        module = importlib.import_module("twocav." + mod_name)
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)


@pytest.mark.parametrize("figure_id", cli.FIGURE_IDS)
def test_figure_headers_parse_back_to_the_same_scenario(figure_id):
    oracles = _load("oracles")
    for keys, outputs in cli.FIGURES[figure_id]:
        summary = cli._scn(**keys).summary()
        for command, _ in outputs:
            comment = summary + cli.TABLES[command][2]
            text = oracles._scenario_text(comment, oracles._SCENARIO_KEYS)
            assert scenario.parse_scenario(text).summary() == summary


def test_scenario_accessors_the_benchmark_reads():
    # perfbench/oracles.py rebuilds each trajectory from these two.
    scn = cli._scn(**cli.FIGURES["fig2"][0][0])
    assert scn.params() is scn.evolution
    assert scn.initial_state() is scn.rho0


def test_package_names_the_oracles_read_resolve():
    # perfbench/oracles.py reaches the package as `tc` and binds
    # co = tc.correlations and tp = tc.teleport; `scn` is a parsed scenario
    # and `window` its FockWindow.  Every attribute it reads must exist.
    with open(os.path.join(PERFBENCH, "oracles.py")) as fh:
        text = fh.read()
    assert "co = tc.correlations" in text and "tp = tc.teleport" in text
    scn = cli._scn(**cli.FIGURES["fig2"][0][0])
    owners = {"co": twocav.correlations, "tp": twocav.teleport, "scn": scn,
              "window": scn.window}
    read = {(owner, name) for owner, name in
            re.findall(r"\b(co|tp|scn|window)\.([A-Za-z_]\w*)", text)}
    for module, name in re.findall(r"\btc\.([a-z_]+)\.([A-Za-z_]\w*)", text):
        importlib.import_module("twocav." + module)
        owners["tc." + module] = getattr(twocav, module)
        read.add(("tc." + module, name))
    assert {owner for owner, _ in read} >= {"co", "tp", "scn", "window", "tc.cli"}
    for owner, name in sorted(read):
        assert hasattr(owners[owner], name), (owner, name)
