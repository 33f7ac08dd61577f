"""Counted work per layer, gated: a fixed feed's Python calls and
bytecode instructions per route.

:func:`repro.experiments.workbudget.run_work_budget` announces and
withdraws a synthetic feed's tail through BGP, the RIB and the FEA on one
simulated-clock host, counting each phase's Python calls and bytecode
instructions per route by ``repro`` package
(:class:`repro.profiler.workcount.CallCounter`).  Every layer of both
phases, in both counts, is compared with its entry in
``work_budget.json`` for this interpreter's minor version (3.12 inlines
comprehensions, so the same code makes fewer calls there, and each
version executes different bytecode).  A layer more than :data:`SLACK`
over its entry fails.

The count runs in a fresh interpreter, as ``python -m
repro.experiments.workbudget``: bounded process-wide caches (the names
:func:`repro.xrl.types.check_name` has passed, say) hold whatever earlier
tests left in them, and the work a route costs is measured from a
router's own start.  The same command prints a new entry.  A change that
means to grow a layer commits the new entry and says why; a change that
shrinks one commits the lower entry, so the gate holds the gain.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.eventloop import collector
from repro.experiments.workbudget import run_work_budget
from repro.profiler.workcount import CallCounter
from repro.rib.redist import RedistStage
from repro.trie import RouteTrie, trie as trie_module

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
    """``(count, phase, layer, value, entry)`` for each layer over its
    entry, *count* being ``"calls"`` or ``"instructions"``; a layer the
    entry does not name has an entry of 0."""
    return [(count, phase, layer, value, budget[count][phase].get(layer, 0.0))
            for count, phases in sorted(measured.items())
            for phase, table in sorted(phases.items())
            for layer, value in sorted(table.items())
            if value > budget[count][phase].get(layer, 0.0) * (1 + SLACK)]


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
    assert again.keys() == measured.keys() == {"calls", "instructions"}
    for count, phases in measured.items():
        for phase, table in phases.items():
            assert again[count][phase].keys() == table.keys(), phase
            for layer, value in table.items():
                assert again[count][phase][layer] == \
                    pytest.approx(value, rel=1e-3), (count, phase, layer)


def test_the_collector_moves_no_count(monkeypatch):
    """A loop turn costs the loop the same whatever the collector has to
    consider, and the harness that runs the phases books nothing.  Counted
    from a collector that has just collected, from one a
    middle-generation collection away from looking, and from one looking
    on every turn with no full collection allowed, every layer reads the
    same."""
    enter = CallCounter.__enter__
    tables = []
    for promoted, due in ((0, 0.0),
                          (collector.PROMOTIONS_PER_FULL - 1, 0.0),
                          (collector.PROMOTIONS_PER_FULL, float("inf"))):
        def armed(self, promoted=promoted, due=due):
            collector.promoted, collector._full_due = promoted, due
            return enter(self)

        monkeypatch.setattr(CallCounter, "__enter__", armed)
        tables.append(run_work_budget())
    assert tables[1] == tables[0]
    assert tables[2] == tables[0]
    assert not any("experiments" in table
                   for phases in tables[0].values()
                   for table in phases.values())


def _extra_call(route):
    """Work a stage should not do: one Python call per route."""


def _seed_an_extra_call_per_route_in_a_rib_stage(monkeypatch):
    for name in ("add_routes", "delete_routes"):
        real = getattr(RedistStage, name)

        def seeded(self, routes, *args, _real=real, **kwargs):
            for route in routes:
                _extra_call(route)
            return _real(self, routes, *args, **kwargs)

        monkeypatch.setattr(RedistStage, name, seeded)


def _seed_an_extra_loop_iteration_in_a_trie_descent(monkeypatch):
    """Work the call gate cannot see: a lookup descent that loops once
    more, with no extra call.  The seeded copy is compiled as the trie's
    own code, so its frames book to ``trie``."""
    source = inspect.getsource(RouteTrie._find_node)
    seeded = source.replace(
        "        node = self._root\n",
        "        node, extra = self._root, True\n").replace(
        "        while node is not None:\n",
        "        while node is not None:\n"
        "            if extra:\n"
        "                extra = False\n"
        "                continue\n")
    assert seeded.count("extra") == 3
    namespace = dict(vars(trie_module))
    exec(compile("if True:\n" + seeded, trie_module.__file__, "exec"),
         namespace)
    monkeypatch.setattr(RouteTrie, "_find_node", namespace["_find_node"])


def test_seeded_work_fails_the_gate_on_its_own_layer_and_count(
        budget, monkeypatch):
    """An extra call per route in a RIB stage fails ``rib``'s calls in
    both phases; an extra loop iteration in the trie's descent fails
    ``trie``'s instructions and none of its calls.  One run carries both
    seeds."""
    _seed_an_extra_call_per_route_in_a_rib_stage(monkeypatch)
    _seed_an_extra_loop_iteration_in_a_trie_descent(monkeypatch)
    flagged = {(count, phase, layer) for count, phase, layer, __, ___
               in over_budget(run_work_budget(), budget)}
    assert {("calls", "announce", "rib"), ("calls", "withdraw", "rib")} \
        <= flagged
    trie = {count for count, __, layer in flagged if layer == "trie"}
    assert trie == {"instructions"}
