"""Counted work per layer: the Python calls a phase makes, by package.

A timed phase on a shared host reads up to 2.5x apart from one day to
the next; the number of Python calls the same phase makes does not move.  So calls are
what a regression gate can compare, and what says which layer an
optimisation took work out of.

:class:`CallCounter` arms :func:`sys.setprofile` for one phase and books
every Python-level call (a generator resuming is a call) to the
``repro`` package whose code runs: ``bgp``, ``rib``, ``net``, ``trie``
and so on; a module directly under ``repro`` books to ``repro``.  A call
into code outside the package — the stdlib — is booked to the nearest
``repro`` frame below it on the stack, so a layer pays for the library
calls it makes.  Calls made by nothing in ``repro`` (the code that
runs the phase) are not booked, nor are the garbage collector's (its
accounting hook and the loop's between-event check, :data:`_UNBOOKED`):
when those run depends on the heap and the wall clock, not on the
phase.  C functions are free: the count is blind to work done in C,
which is what a faster data structure moves work into.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Dict, Optional

#: ``.../repro/``: a code object whose file is under it belongs to a layer
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep
#: modules whose calls, and the calls made from them, are not booked
_UNBOOKED = {os.path.join(_ROOT, "eventloop", "collector.py")}


class CallCounter:
    """``with CallCounter() as counter: phase()``, then read
    :attr:`calls`, a ``Counter`` of layer name to Python calls."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        #: code object -> its layer, ``""`` if unbooked, or None for
        #: code outside ``repro``
        self._layers: Dict[object, Optional[str]] = {}

    def _layer(self, code) -> Optional[str]:
        layer = self._layers.get(code, False)
        if layer is False:
            path = code.co_filename
            layer = None
            if path in _UNBOOKED:
                layer = ""
            elif path.startswith(_ROOT):
                head, sep, __ = path[len(_ROOT):].partition(os.sep)
                layer = head if sep else "repro"
            self._layers[code] = layer
        return layer

    def _profile(self, frame, event: str, arg) -> None:
        if event != "call":
            return
        layer = self._layer(frame.f_code)
        while layer is None:
            frame = frame.f_back
            if frame is None:
                return
            layer = self._layer(frame.f_code)
        if layer:
            self.calls[layer] += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)

    def per(self, units: int) -> Dict[str, float]:
        """Calls per unit of work (per route, say), layer by layer, with
        the layers' sum under ``"total"``.  A layer that rounds to no
        calls (the phase's own caller, say) is left out."""
        table = {layer: round(calls / units, 2)
                 for layer, calls in sorted(self.calls.items())
                 if round(calls / units, 2)}
        table["total"] = round(sum(self.calls.values()) / units, 2)
        return table
