"""Event-loop hygiene: no wall clocks, sleeps, entropy, or blocking I/O.

The whole stack runs on one cooperative event loop whose notion of time
comes from a :class:`~repro.eventloop.clock.Clock` (paper §4: a
single-threaded process "must never block").  The deterministic
chaos/recovery tests additionally pin every source of randomness to a
seed so failures replay exactly.  Both properties die quietly the moment
someone writes ``time.time()`` or ``random.random()`` in protocol code,
so this checker bans them outside the two places that legitimately touch
the real world: ``eventloop/`` (the clock + poller) and
``xrl/transport/`` (real sockets).

Rules: DET001 wall-clock reads, DET002 blocking sleeps, DET003 unseeded
randomness, DET004 blocking socket/select calls, DET005 zero-delay
timers.  The detection is name-based (``time.sleep`` spelled via an
alias escapes) — this is a lint for honest code, not a sandbox.

DET005 is the static half of schedule independence, whose runtime half
is ``repro.sanitizer``'s :class:`ScheduleShuffler`:
``call_later(0, ...)`` parks work in the timer queue at the *current*
deadline, so whether it runs before or after a sibling same-deadline
timer is an accident of heap insertion order.  Code that needs
"next iteration" ordering should say ``call_soon`` (FIFO within a
batch is still not guaranteed under the shuffler, but intent is
explicit); code that needs real delay should use a nonzero one.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.core import Checker, Finding, ModuleInfo, ProjectIndex

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


class DeterminismChecker(Checker):
    name = "determinism"
    rules = ("DET001", "DET002", "DET003", "DET004", "DET005")

    def check(self, module: ModuleInfo, project: ProjectIndex
              ) -> Iterator[Finding]:
        if any(module.logical[:len(prefix)] == prefix
               for prefix in ALLOWED_PREFIXES):
            return
        path = str(module.path)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
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
            elif (attr in _DELAY_SCHEDULERS and node.args
                  and isinstance(node.args[0], ast.Constant)
                  and isinstance(node.args[0].value, (int, float))
                  and not isinstance(node.args[0].value, bool)
                  and node.args[0].value == 0):
                yield Finding(
                    path, node.lineno, "DET005",
                    f"{attr}(0, ...) relies on same-deadline timer order, "
                    "which the schedule shuffler deliberately permutes; use "
                    "call_soon for next-iteration intent or a real delay")


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
