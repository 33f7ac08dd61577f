"""XRL dispatch sanitizer — IDL conformance at the runtime boundary.

``repro.analysis`` rules XRL001–006 resolve statically every XRL whose
interface/method/arguments are literal in the source.  XRLs assembled
dynamically (method names from variables, args built in loops) escape
that net; this sanitizer closes it by validating every ``XrlRouter.send``
against the :mod:`repro.interfaces` catalogue at the moment of dispatch,
turning would-be deep-in-handler failures into structured SAN101–103
reports at the boundary — the analogue of XORP's marshaling checks.

``bench/1.0`` is exempt by default: the scaling experiments deliberately
serve it raw with varying atoms (see ``repro.interfaces``).

Armed, it is one ``around`` function on ``XrlRouter.send``, installed
and removed by the instrumentation seam (:mod:`repro.core.taps`), so it
composes with the tracer's in either order and the disarmed path is the
pristine function.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro import interfaces
from repro.core import taps
from repro.obs.trace import TRACE_ARG
from repro.sanitizer.report import ViolationLog
from repro.xrl import Xrl, XrlArgs, XrlError, XrlInterface, XrlRouter

#: interfaces intentionally dispatched without IDL conformance
DEFAULT_EXEMPT: FrozenSet[str] = frozenset({"bench/1.0"})


class XrlDispatchSanitizer:
    """Validates every dispatched XRL against the IDL catalogue."""

    def __init__(self, log: Optional[ViolationLog] = None, *,
                 exempt: FrozenSet[str] = DEFAULT_EXEMPT):
        self.log = log if log is not None else ViolationLog()
        self.exempt = frozenset(exempt)
        self.checked = 0
        self._catalogue: Dict[str, XrlInterface] = {}
        self._armed = False

    # -- lifecycle ---------------------------------------------------------
    def arm(self) -> None:
        if self._armed:
            return
        self._armed = True
        self._catalogue = interfaces.catalogue()
        taps.wrap(XrlRouter, "send", self._around_send)

    def disarm(self) -> None:
        if not self._armed:
            return
        taps.unwrap(XrlRouter, "send", self._around_send)
        self._armed = False

    def __enter__(self) -> "XrlDispatchSanitizer":
        self.arm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    @property
    def violations(self):
        return self.log.violations

    # -- the check ---------------------------------------------------------
    def _around_send(self, call, router, xrl, *args, **kwargs):
        self._observe(router, xrl)
        return call(router, xrl, *args, **kwargs)

    def _observe(self, router: XrlRouter, xrl: Xrl) -> None:
        fullname = f"{xrl.interface}/{xrl.version}"
        if fullname in self.exempt:
            return
        self.checked += 1
        origin = (f"{router.instance_name} -> {xrl.target} "
                  f"{xrl.method_path}")
        iface = self._catalogue.get(fullname)
        if iface is None:
            self.log.record(
                "SAN101", origin,
                f"dispatched XRL names interface {fullname!r}, absent from "
                "the IDL catalogue",
                {"interface": fullname})
            return
        method = iface.methods.get(xrl.method)
        if method is None:
            self.log.record(
                "SAN102", origin,
                f"interface {fullname!r} declares no method {xrl.method!r}",
                {"interface": fullname, "method": xrl.method})
            return
        args = xrl.args
        if args.has(TRACE_ARG):
            # The reserved obs trace-context atom rides outside every IDL
            # signature (like bench/1.0 it is deliberately unchecked):
            # strip it before conformance checking so an armed tracer and
            # an armed sanitizer compose.
            args = XrlArgs([a for a in args if a.name != TRACE_ARG])
        try:
            method.check_args(args)
        except XrlError as exc:
            self.log.record(
                "SAN103", origin,
                f"arguments disagree with the IDL signature: {exc}",
                {"interface": fullname, "method": xrl.method,
                 "args": sorted(atom.name for atom in args)})
