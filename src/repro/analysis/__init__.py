"""Architectural lint for the XORP reproduction (``python -m repro.analysis``).

XORP enforced its inter-process contracts at build time: the IDL compiler
(``xrlc``) checked every stub against the ``.xif`` interface files, the
multi-process design made shared state impossible, and the single-threaded
event loop demanded that nothing block (paper §4, §6.1).  A Python port
keeps none of those guarantees for free — interface drift, cross-process
imports, and wall-clock calls all slip in silently and only surface when a
test happens to exercise them.

This package restores the guarantees statically.  Each module is walked
once (:mod:`repro.analysis.sites`); every rule is a function of what that
walk recorded:

``xrl-conformance`` (XRL001–XRL003, XRL005, XRL006)
    Every XRL call site (``Xrl(...)`` construction, client stubs,
    ``register_raw_method``, textual ``call_xrl`` literals) and every
    handler registration (``bind``) is cross-checked against the IDL
    catalogue in :mod:`repro.interfaces` — interface and version
    existence, method names, argument names/types/arity, handler
    signatures.  A missing handler is ``XrlInterface.bind``'s
    ``IdlError``, raised whenever the class is bound.

``isolation`` (ISO001–ISO002)
    Process packages (bgp, rib, fea, ...) must not import each other's
    internals; everything crosses via ``repro.xrl`` / ``repro.interfaces``.
    Shared library packages must not reach into process packages either.

``determinism`` (DET001–DET005)
    No wall-clock reads, blocking sleeps, unseeded randomness, blocking
    socket work or zero-delay timers outside ``eventloop/`` and
    ``xrl/transport/`` — these break
    :class:`~repro.eventloop.SimulatedClock` reproducibility and the
    seeded chaos/recovery tests built on it.

``callback-safety`` (CB001)
    Deferred callbacks (``loop.call_soon`` / ``loop.call_later``) that
    capture process state must carry a liveness or generation guard — the
    paper's §4 stale-callback discipline.

``stage-message`` (STG001) and ``backend`` (BKD001)
    Stage messages pass ``caller`` by keyword only (§5); FEA code selects
    a FIB backend through ``make_backend(name)`` rather than constructing
    one (§3).

The last five families live in :mod:`repro.analysis.rules`, the XRL
rules in :mod:`repro.analysis.xrlcheck`.  On top of them, one
**interprocedural** pass joins every module's sites:

``protocol-graph`` (PRO001–PRO003)
    :mod:`repro.analysis.protograph` attributes every send site and every
    registration to its owning process package and joins them through
    the IDL catalogue into the whole-system process interaction graph —
    the static twin of the paper's Figure 2.  On that graph it reports
    sends nobody handles (PRO001), synchronous request cycles that
    deadlock once processes become OS subprocesses (PRO002) and reply
    atoms read but never produced (PRO003).  ``python -m repro.analysis
    --graph-out g.json --graph-dot g.dot`` exports the graph itself
    (byte-stable JSON / Graphviz).

Every finding is an error: a clean tree prints nothing and exits 0.
What a route costs is not linted here; it is counted and measured (see
DESIGN.md, "Where cost is gated").
Findings are suppressed per line with ``# repro: allow[RULE] reason``;
suppressions that no longer suppress anything are themselves flagged
(SUP002).  The suite runs as a pytest gate (``tests/test_analysis.py``)
so drift fails the build the way XORP's xrlc did.
"""

from repro.analysis.core import Finding, ModuleInfo, RULES, Rule
from repro.analysis.protograph import (
    ProtocolGraph,
    build_protocol_graph,
    check_protocol_graph,
)
from repro.analysis.runner import (
    analyze_paths,
    analyze_source,
    analyze_sources,
    collect_modules,
    run_checkers,
)

__all__ = [
    "Finding",
    "ModuleInfo",
    "ProtocolGraph",
    "RULES",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "build_protocol_graph",
    "check_protocol_graph",
    "collect_modules",
    "run_checkers",
]
