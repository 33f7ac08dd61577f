"""Counted work per layer, gated: a fixed feed's Python calls per route.

:func:`repro.experiments.workbudget.run_work_budget` announces and
withdraws a synthetic feed's tail through BGP, the RIB and the FEA on one
simulated-clock host, counting each phase's Python calls per route by
``repro`` package (:class:`repro.profiler.workcount.CallCounter`).  Every
layer of both phases is compared with its entry in ``work_budget.json``
for this interpreter's minor version (3.12 inlines comprehensions, so the
same code makes fewer calls there).  A layer more than :data:`SLACK`
over its entry fails.

The count runs in a fresh interpreter, as ``python -m
repro.experiments.workbudget``: bounded process-wide caches (the names
:func:`repro.xrl.types.check_name` has passed, say) hold whatever earlier
tests left in them, and the work a route costs is measured from a
router's own start.  The same command prints a new entry.  A change that
means to grow a layer commits the new entry and says why; a change that
shrinks one commits the lower entry, so the gate holds the gain.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.workbudget import run_work_budget
from repro.rib.redist import RedistStage

BUDGET = json.loads(
    (Path(__file__).with_name("work_budget.json")).read_text())
VERSION = "%d.%d" % sys.version_info[:2]
#: how far over its entry a layer may read
SLACK = 0.01


def count_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments.workbudget"], env=env,
        check=True, capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


def over_budget(measured, budget):
    """``(phase, layer, calls, entry)`` for each layer over its entry; a
    layer the entry does not name has an entry of 0."""
    return [(phase, layer, calls, budget[phase].get(layer, 0.0))
            for phase, table in sorted(measured.items())
            for layer, calls in sorted(table.items())
            if calls > budget[phase].get(layer, 0.0) * (1 + SLACK)]


@pytest.fixture(scope="module")
def measured():
    return count_in_a_fresh_interpreter()


@pytest.fixture
def budget():
    if VERSION not in BUDGET:
        pytest.skip(f"work_budget.json has no entry for Python {VERSION}")
    return BUDGET[VERSION]


def test_no_layer_is_over_its_budget(measured, budget):
    assert over_budget(measured, budget) == []


def test_two_runs_agree_within_a_thousandth_per_layer(measured):
    again = count_in_a_fresh_interpreter()
    assert again.keys() == measured.keys()
    for phase, table in measured.items():
        assert again[phase].keys() == table.keys(), phase
        for layer, calls in table.items():
            assert again[phase][layer] == pytest.approx(calls, rel=1e-3), \
                (phase, layer)


def _extra_call(route):
    """Work a stage should not do: one Python call per route."""


def test_one_extra_call_per_route_in_a_rib_stage_fails_the_gate(
        budget, monkeypatch):
    for name in ("add_routes", "delete_routes"):
        real = getattr(RedistStage, name)

        def seeded(self, routes, *args, _real=real, **kwargs):
            for route in routes:
                _extra_call(route)
            return _real(self, routes, *args, **kwargs)

        monkeypatch.setattr(RedistStage, name, seeded)
    flagged = {(phase, layer)
               for phase, layer, __, ___ in over_budget(run_work_budget(),
                                                        budget)}
    assert {("announce", "rib"), ("withdraw", "rib")} <= flagged
