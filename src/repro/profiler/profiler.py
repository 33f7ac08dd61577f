"""Profiling points, configured externally through XRLs.

    "XORP contains a simple profiling mechanism which permits the
    insertion of profiling points anywhere in the code.  Each profiling
    point is associated with a profiling variable, and these variables are
    configured by an external program xorp_profiler using XRLs.  Enabling
    a profiling point causes a time stamped record to be stored, such as:

        route_ribin 1097173928 664085 add 10.0.1.0/24"

The latency experiments (Figures 10-12) are driven entirely through this
mechanism: every hop a route takes from "entering BGP" to "entering the
kernel" logs through a :class:`ProfileVar`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.eventloop.clock import Clock

# The profile/1.0 IDL lives in the central catalogue (repro.interfaces)
# with every other inter-process API; re-exported here for callers that
# bind the profiler without caring where the declaration lives.
from repro.interfaces import PROFILER_IDL


class ProfileVar:
    """One named profiling point."""

    __slots__ = ("name", "enabled", "entries", "_clock")

    def __init__(self, name: str, clock: Clock):
        self.name = name
        self.enabled = False
        self.entries: List[Tuple[float, str]] = []
        self._clock = clock

    def log(self, data: str) -> None:
        """Store a timestamped record iff the variable is enabled.

        The disabled path is a single attribute test, so leaving profile
        points in hot code is nearly free — the property the paper's
        mechanism depends on.
        """
        if self.enabled:
            self.entries.append((self._clock.now(), data))

    def log_op(self, op: str, obj: object) -> None:
        """``log(f"{op} {obj}")`` with the formatting done lazily.

        Hot-path callers must not build the record string when the point
        is disabled — on a 1M-route flush that is a million f-strings for
        nothing.  The stringification happens inside the enabled test.
        """
        if self.enabled:
            self.entries.append((self._clock.now(), f"{op} {obj}"))

    def log_each(self, records: List[str]) -> None:
        """``log`` every record of a batch, in order (the sent-moment of
        a vectorized XRL: still one record per route)."""
        for data in records:
            self.log(data)

    def format_entries(self) -> List[str]:
        """Render records in the paper's format: name, secs, usecs, data."""
        lines = []
        for timestamp, data in self.entries:
            seconds = int(timestamp)
            microseconds = int(round((timestamp - seconds) * 1e6))
            lines.append(f"{self.name} {seconds} {microseconds:06d} {data}")
        return lines


class Profiler:
    """The per-process registry of profiling variables.

    Also implements the ``profile/1.0`` XRL interface, so an external
    program (the paper's ``xorp_profiler``) can enable points and collect
    records over IPC; bind with ``router.bind(PROFILER_IDL, profiler)``.
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        self._vars: Dict[str, ProfileVar] = {}

    def create(self, name: str) -> ProfileVar:
        """Create (or fetch) the profiling variable *name*."""
        var = self._vars.get(name)
        if var is None:
            var = ProfileVar(name, self._clock)
            self._vars[name] = var
        return var

    def var(self, name: str) -> ProfileVar:
        var = self._vars.get(name)
        if var is None:
            raise KeyError(f"no profiling variable {name!r}")
        return var

    def enable(self, name: str) -> None:
        self.var(name).enabled = True

    def disable(self, name: str) -> None:
        self.var(name).enabled = False

    def clear(self, name: str) -> None:
        self.var(name).entries.clear()

    def names(self) -> List[str]:
        return sorted(self._vars)

    # -- profile/1.0 XRL handlers -----------------------------------------
    def xrl_enable(self, pname: str) -> None:
        self.enable(pname)

    def xrl_disable(self, pname: str) -> None:
        self.disable(pname)

    def xrl_clear(self, pname: str) -> None:
        self.clear(pname)

    def xrl_list(self) -> dict:
        return {"pnames": ",".join(self.names())}

    def xrl_get_entries(self, pname: str) -> dict:
        return {"entries": "\n".join(self.var(pname).format_entries())}
