"""Counted work per layer: the Python calls and bytecode instructions a
phase makes, by package.

A timed phase on a shared host reads up to 2.5x apart from one day to
the next; the number of Python calls the same phase makes does not move.  So calls are
what a regression gate can compare, and what says which layer an
optimisation took work out of.  Calls alone reward inlining, which
lowers them and leaves the work where it was, so the instructions each
layer's frames execute are counted beside them.

:class:`CallCounter` arms one :func:`sys.settrace` hook for one phase.
It books every Python-level call (a generator resuming is a call) to the
``repro`` package whose code runs: ``bgp``, ``rib``, ``net``, ``trie``
and so on; a module directly under ``repro`` books to ``repro``.  A call
into code outside the package — the stdlib — is booked to the nearest
``repro`` frame below it on the stack, so a layer pays for the library
calls it makes.  Every frame it books traces opcodes, and each
instruction goes to the same layer as the frame's call.  The code that
runs the phase is not booked, whether it is outside ``repro`` or is the
work gate's own harness (:mod:`repro.experiments.workbudget`), nor are
the garbage collector's calls (its accounting hook and the loop's
between-event check): what they do depends on the heap and the wall
clock, not on the phase.  Those two modules are :data:`_UNBOOKED`.  C
functions are free: the count is blind to work done in C, which is what
a faster data structure moves work into.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: ``.../repro/``: a code object whose file is under it belongs to a layer
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep
#: modules whose calls, and the calls made from them, are not booked
_UNBOOKED = {os.path.join(_ROOT, "eventloop", "collector.py"),
             os.path.join(_ROOT, "experiments", "workbudget.py")}


class CallCounter:
    """``with CallCounter() as counter: phase()``, then read
    :attr:`calls` and :attr:`instructions`, ``Counter``s of layer name
    to Python calls and bytecode instructions.  With *by_function*
    they are keyed ``(layer, code object)`` instead."""

    def __init__(self, by_function: bool = False) -> None:
        self.calls: Counter = Counter()
        self.instructions: Counter = Counter()
        self._by_function = by_function
        #: code object -> its layer, ``""`` if unbooked, or None for
        #: code outside ``repro``
        self._layers: Dict[object, Optional[str]] = {}
        #: booking key -> the local trace function counting its opcodes
        self._tracers: Dict[object, Callable] = {}

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

    def _trace(self, frame, event: str, arg) -> Optional[Callable]:
        caller = frame  # the event is "call": only those reach here
        layer = self._layer(frame.f_code)
        while layer is None:
            caller = caller.f_back
            if caller is None:
                return None
            layer = self._layer(caller.f_code)
        if not layer:
            return None
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        key = (layer, frame.f_code) if self._by_function else layer
        self.calls[key] += 1
        tracer = self._tracers.get(key)
        if tracer is None:
            tracer = self._tracers[key] = self._opcodes(key)
        return tracer

    def _opcodes(self, key) -> Callable:
        instructions = self.instructions

        def tracer(frame, event: str, arg) -> Callable:
            if event == "opcode":
                instructions[key] += 1
            return tracer
        return tracer

    def __enter__(self) -> "CallCounter":
        # 3.12 arms opcode events at settrace only once some frame has
        # asked for them
        sys._getframe().f_trace_opcodes = True
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.settrace(None)

    def per(self, units: int, counts: Optional[Counter] = None
            ) -> Dict[str, float]:
        """Calls (or *counts*) per unit of work (per route, say), layer
        by layer, with the layers' sum under ``"total"``.  A layer that
        rounds to nothing (the phase's own caller, say) is left out."""
        counts = self.calls if counts is None else counts
        table = {layer: round(value / units, 2)
                 for layer, value in sorted(counts.items())
                 if round(value / units, 2)}
        table["total"] = round(sum(counts.values()) / units, 2)
        return table

    def functions(self, units: int) -> List[Tuple[str, str, float, float]]:
        """``(layer, function, calls, instructions)`` per unit, most
        instructions first (with *by_function*)."""
        rows = [(layer, f"{os.path.basename(code.co_filename)}:"
                        f"{getattr(code, 'co_qualname', code.co_name)}",
                 round(calls / units, 2),
                 round(self.instructions[layer, code] / units, 2))
                for (layer, code), calls in self.calls.items()]
        return sorted(rows, key=lambda row: -row[3])
