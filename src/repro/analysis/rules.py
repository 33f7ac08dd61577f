"""The per-module architectural rules, each a function of the walk's facts.

Every rule here reads what :func:`repro.analysis.sites.sites_of` recorded
in its one walk of a module — imports, calls with their enclosing
function and class, per-function scopes, the class index — and walks
nothing itself.  The XRL rules are :mod:`repro.analysis.xrlcheck`.

``isolation`` (ISO001–ISO002, paper §4: "misbehaving code ... cannot
directly corrupt the memory of another process")
    In the C++ original isolation was physical — separate address
    spaces; here it is a discipline.  A module inside one process package
    must not import another process package (ISO001); shared library
    packages are loaded into every process, so they must not import any
    (ISO002).  The composition harnesses (``experiments``, ``simnet``)
    hand the Router Manager factories for the process classes they
    configure and are exempt.  The Router Manager itself loads a module's
    package *by name* when it launches it (``rtrmgr/launcher.py``) and
    reaches what it started through XRLs only.

``determinism`` (DET001–DET005, §4: a single-threaded process "must
never block")
    Outside ``eventloop/`` (the clock and poller) and ``xrl/transport/``
    (real sockets): no wall-clock reads (DET001), blocking sleeps
    (DET002), unseeded randomness (DET003), blocking socket/select calls
    (DET004) or zero-delay timers (DET005: ``call_later(0, ...)`` parks
    work at the current deadline, so whether it runs before a sibling
    same-deadline timer is an accident of heap order; say ``call_soon``
    or a real delay).  Detection is name-based — a lint for honest code,
    not a sandbox.

``callback-safety`` (CB001, §4: "callbacks must be written carefully so
that they check that the state they are about to act on is still valid")
    A callback handed to ``call_soon``/``call_later`` that captures
    process state (references ``self``) must read a liveness-flavoured
    name (``running``, ``alive``, ``generation``, ...) or make an
    identity comparison — itself, or in a ``self`` method it calls.  The
    heuristic is deliberately broad: it catches callbacks written with
    *no* staleness story, it does not prove the guard correct.

``stage-message`` (STG001, §5)
    Stage messages thread the *caller* so receivers can key state per
    ``(caller, receiver)`` edge; it is keyword-only.  A call passing it
    positionally, or a ``def`` declaring it positional, is STG001.

``backend`` (BKD001, §3: "a stable API for communicating with a
forwarding engine")
    FEA code outside ``fea/backends/`` selects a FIB backend through
    ``make_backend(name)``; constructing one directly hardwires the
    engine, and backends registered by extension code become invisible.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Tuple

from repro.analysis.core import Finding, ModuleInfo
from repro.analysis.sites import ModuleSites, ProjectIndex, Scope, simple_name

# -- isolation ----------------------------------------------------------------

#: packages that model one OS process each (paper §4's functional units)
PROCESS_PACKAGES = frozenset({
    "bgp", "rib", "fea", "rip", "ospf", "pim", "mld6igmp",
    "staticroutes", "rtrmgr",
})

#: multi-process composition harnesses, exempt by design
HARNESS_PACKAGES = frozenset({"experiments", "simnet"})


def check_isolation(module: ModuleInfo, sites: ModuleSites,
                    project: ProjectIndex) -> Iterator[Finding]:
    own = module.package
    if own in HARNESS_PACKAGES:
        return
    for target, line in sites.imports:
        if target not in PROCESS_PACKAGES or target == own:
            continue
        if own in PROCESS_PACKAGES:
            yield Finding(
                str(module.path), line, "ISO001",
                f"process package {own!r} imports process package "
                f"{target!r}; cross-process interaction must go through "
                "repro.xrl / repro.interfaces")
        else:
            yield Finding(
                str(module.path), line, "ISO002",
                f"shared package {own or module.logical[0]!r} imports "
                f"process package {target!r}; shared code is loaded into "
                "every process and must stay process-agnostic")


# -- determinism --------------------------------------------------------------

#: logical path prefixes allowed to touch real time / sockets / entropy
ALLOWED_PREFIXES: Tuple[Tuple[str, ...], ...] = (
    ("eventloop",),
    ("xrl", "transport"),
)

_WALL_CLOCK = {
    "time": {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
             "perf_counter_ns", "localtime", "gmtime", "ctime"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}
_RANDOM_FUNCS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "betavariate", "expovariate", "gauss", "normalvariate",
    "random_bytes", "getrandbits",
}
_BLOCKING_SOCKET = {
    "socket": {"socket", "create_connection", "create_server", "socketpair",
               "getaddrinfo", "gethostbyname"},
    "select": {"select", "poll", "epoll", "kqueue"},
    "selectors": {"DefaultSelector", "SelectSelector", "PollSelector",
                  "EpollSelector", "KqueueSelector"},
}

#: timer-scheduling entry points whose first argument is a delay
_DELAY_SCHEDULERS = {"call_later", "schedule_after"}


def check_determinism(module: ModuleInfo, sites: ModuleSites,
                      project: ProjectIndex) -> Iterator[Finding]:
    if any(module.logical[:len(prefix)] == prefix
           for prefix in ALLOWED_PREFIXES):
        return
    path = str(module.path)
    for node, _fn, _cls in sites.calls:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _DELAY_SCHEDULERS and node.args
                and isinstance(node.args[0], ast.Constant)
                and type(node.args[0].value) in (int, float)
                and node.args[0].value == 0):
            yield Finding(
                path, node.lineno, "DET005",
                f"{func.attr}(0, ...) relies on same-deadline timer order, "
                "which the schedule shuffler deliberately permutes; use "
                "call_soon for next-iteration intent or a real delay")
            continue
        dotted = _dotted_call(node)
        if dotted is None:
            continue
        base, attr = dotted
        if base == "time" and attr == "sleep":
            yield Finding(
                path, node.lineno, "DET002",
                "time.sleep() blocks the event loop; schedule a timer "
                "on loop.call_later instead")
        elif attr in _WALL_CLOCK.get(base, ()):
            yield Finding(
                path, node.lineno, "DET001",
                f"{base}.{attr}() reads the wall clock; use the event "
                "loop's clock so SimulatedClock runs stay reproducible")
        elif base == "random" and attr in _RANDOM_FUNCS:
            yield Finding(
                path, node.lineno, "DET003",
                f"module-level random.{attr}() is unseeded; use a "
                "random.Random(seed) instance plumbed from the scenario")
        elif base == "random" and attr == "SystemRandom":
            yield Finding(
                path, node.lineno, "DET003",
                "random.SystemRandom is entropy-backed and can never "
                "replay deterministically")
        elif base == "random" and attr == "Random" and not node.args \
                and not node.keywords:
            yield Finding(
                path, node.lineno, "DET003",
                "random.Random() without a seed breaks deterministic "
                "replay; pass an explicit seed")
        elif attr in _BLOCKING_SOCKET.get(base, ()):
            yield Finding(
                path, node.lineno, "DET004",
                f"{base}.{attr}() is blocking I/O; only "
                "eventloop//xrl.transport may touch sockets")


def _dotted_call(node: ast.Call) -> Optional[Tuple[str, str]]:
    """``base.attr(...)`` with a plain-name or dotted base, else None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id, func.attr
    # datetime.datetime.now() / socket.socket(...) style double dotting
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        return value.attr, func.attr
    return None


# -- callback safety ----------------------------------------------------------

_DEFER_METHODS = {"call_soon": 0, "call_later": 1}

#: identifier fragments that signal a liveness/generation/state check
_GUARD_RE = re.compile(
    r"running|alive|done|completed|closed|cancelled|stopped|dead|down"
    r"|state|generation|_gen\b|token|epoch|scheduled|pending|inflight",
)


def check_callbacks(module: ModuleInfo, sites: ModuleSites,
                    project: ProjectIndex) -> Iterator[Finding]:
    if module.logical[:1] == ("eventloop",):
        return
    for node, fn, cls in sites.calls:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _DEFER_METHODS
                and len(node.args) > _DEFER_METHODS[func.attr]):
            continue
        callback = node.args[_DEFER_METHODS[func.attr]]
        local = sites.scopes[fn] if fn is not None else None
        if _callback_guarded(callback, local, cls, project) is False:
            yield Finding(
                str(module.path), node.lineno, "CB001",
                f"callback deferred via {func.attr}() captures process "
                "state with no liveness/generation guard; the process may "
                "be gone when it fires (see DESIGN.md \"Static "
                "guarantees\")")


def _callback_guarded(callback: ast.AST, local: Optional[Scope],
                      cls: Optional[ast.ClassDef],
                      project: ProjectIndex) -> Optional[bool]:
    """True = guarded, False = unguarded self-capture, None = not in scope."""
    body = _callback_body(callback, local, cls, project)
    if body is None or "self" not in body.names:
        return None
    if _has_guard(body):
        return True
    # One level of indirection: the self-methods the callback invokes
    # (e.g. ``lambda: self._retry_fire(call)``).
    if cls is not None:
        for called in body.self_calls:
            target = project.find_method(cls, called)
            if target is not None and _has_guard(project.scopes[target]):
                return True
    return False


def _callback_body(callback: ast.AST, local: Optional[Scope],
                   cls: Optional[ast.ClassDef],
                   project: ProjectIndex) -> Optional[Scope]:
    """The scope of what the deferred callback will run, if resolvable."""
    target: Optional[ast.AST] = None
    if isinstance(callback, ast.Lambda):
        target = callback
    elif isinstance(callback, ast.Attribute):
        # self.method passed bound
        if isinstance(callback.value, ast.Name) \
                and callback.value.id == "self" and cls is not None:
            target = project.find_method(cls, callback.attr)
    elif isinstance(callback, ast.Name) and local is not None:
        target = local.defs.get(callback.id)
    elif isinstance(callback, ast.Call) and callback.args \
            and simple_name(callback.func) == "partial":
        # functools.partial(self.method, ...)
        return _callback_body(callback.args[0], local, cls, project)
    return project.scopes[target] if target is not None else None


def _guardish(name: str) -> bool:
    # "up" only as the whole identifier: the substring would match
    # "update"/"group"; the full word (link.up, peer.up) is a guard.
    return bool(_GUARD_RE.search(name)) or name == "up"


def _has_guard(scope: Scope) -> bool:
    return scope.identity or any(map(_guardish, scope.names)) \
        or any(map(_guardish, scope.attrs))


# -- stage messages -----------------------------------------------------------

#: message name -> number of route/net positional operands it takes
_MESSAGE_ARITY = {
    "lookup_route": 1,
    "add_routes": 1,
    "delete_routes": 1,
    "replace_route": 2,
}


def check_stage_messages(module: ModuleInfo, sites: ModuleSites,
                         project: ProjectIndex) -> Iterator[Finding]:
    path = str(module.path)
    for node, _fn, _cls in sites.calls:
        func = node.func
        arity = _MESSAGE_ARITY.get(func.attr) \
            if isinstance(func, ast.Attribute) else None
        if arity is not None and len(node.args) > arity and not any(
                isinstance(arg, ast.Starred) for arg in node.args):
            yield Finding(
                path, node.lineno, "STG001",
                f"{func.attr}() called with {len(node.args)} positional "
                f"arguments; 'caller' must be passed by keyword "
                f"(caller=...)")
    for fn in sites.scopes:
        if getattr(fn, "name", None) in _MESSAGE_ARITY and "caller" in [
                a.arg for a in fn.args.posonlyargs + fn.args.args]:
            yield Finding(
                path, fn.lineno, "STG001",
                f"{fn.name}() declares 'caller' as a positional "
                f"parameter; the stage message API requires it "
                f"keyword-only (*, caller=None)")


# -- backends -----------------------------------------------------------------

#: the concrete implementations shipped by repro.fea.backends — known by
#: name so single-file fixtures (and moved call sites) are still caught
#: even when the backends package is outside the analyzed path set.
KNOWN_BACKEND_CLASSES = frozenset({"TrieFibBackend", "NetlinkFibBackend"})


def check_backends(module: ModuleInfo, sites: ModuleSites,
                   project: ProjectIndex) -> Iterator[Finding]:
    if module.package != "fea" or "backends" in module.logical:
        return
    backends = KNOWN_BACKEND_CLASSES | project.subclasses("FibBackend")
    for node, _fn, _cls in sites.calls:
        name = simple_name(node.func)
        if name in backends:
            yield Finding(
                str(module.path), node.lineno, "BKD001",
                f"direct construction of FIB backend {name!r} outside "
                "repro.fea.backends; select backends through "
                "make_backend(name) so the engine stays a "
                "configuration choice")
