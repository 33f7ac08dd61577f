"""The one instrumentation seam: the only code that rebinds a class attribute.

The paper's two debugging aids are uniform — one cache stage that fits
any stage edge (§5.1), one profiling facility whose points cost "nearly
nothing" when off (§8.1).  This module is that uniformity for whatever
observes the router from outside (the obs tracer, the stage sanitizer,
the schedule shuffler).  Importing it rebinds nothing; it
has two surfaces, both order-free:

* :func:`wrap` / :func:`unwrap` put ``around(call, *args, **kwargs)``
  about ``cls.name``; *call* continues to the next tap and finally to
  the pristine function.  The chain is rebuilt from the pristine function
  on every change, so no tap ever holds another tap's wrapper, taps leave
  in any order, and with none left the class attribute is the original
  object again: the untapped path is the uninstrumented code.
* :func:`attach` / :func:`detach` give a :class:`StageTap` every stage
  message once, normalised, at the stage it lands on, plus pipeline
  rewiring and ``stream_reset``.  The seam alone knows the method names,
  follows classes defined later, and holds the one re-entrancy guard.
"""

from __future__ import annotations

from functools import partial, wraps
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import stages as _stages

#: (class, method name) -> [pristine function, around, around, ...]
_chains: Dict[Tuple[type, str], List[Callable]] = {}


def wrap(cls: type, name: str, around: Callable) -> None:
    """Run ``around(call, *args, **kwargs)`` about every ``cls.name`` call."""
    chain = _chains.setdefault((cls, name), [vars(cls)[name]])
    chain.append(around)
    _rebuild(cls, name, chain)


def unwrap(cls: type, name: str, around: Callable) -> None:
    """Take *around* off ``cls.name``; a no-op where it is not installed."""
    chain = _chains.get((cls, name))
    if chain is not None and around in chain[1:]:
        chain.remove(around)
        _rebuild(cls, name, chain)


def installed() -> List[Tuple[type, str]]:
    """Every (class, method name) that is not its pristine function now."""
    return list(_chains)


def _rebuild(cls: type, name: str, chain: List[Callable]) -> None:
    pristine = call = chain[0]
    for around in chain[1:]:
        call = _link(pristine, around, call)
    setattr(cls, name, call)
    if call is pristine:
        del _chains[(cls, name)]


def _link(pristine: Callable, around: Callable, call: Callable) -> Callable:
    @wraps(pristine)
    def tapped(*args, **kwargs):
        return around(call, *args, **kwargs)
    return tapped


# -- the stage surface -------------------------------------------------------
class StageTap:
    """What an observer of the stage graph is told; override what it needs."""

    def stage_message(self, stage: Any, op: str, items: List[Any],
                      caller: Any) -> Optional[Callable[[Any], None]]:
        """*stage* is about to handle *op* — ``add | delete | replace |
        lookup | originate | withdraw`` — on *items*: routes (nets for a
        lookup or withdraw, ``[old, new]`` for a replace).  A callable
        returned runs with the handler's result, ``None`` if it raised."""

    def stage_plumbed(self, old_edge: Tuple[Any, Any],
                      new_edge: Optional[Tuple[Any, Any]]) -> None:
        """A stage was spliced in or out: what flowed over the (upstream,
        downstream) *old_edge* now flows over *new_edge*, or ended."""

    def stream_reset(self, stages: Tuple[Any, ...]) -> None:
        """*stages* dropped their route state without emitting deletes."""


_stage_taps: List[StageTap] = []
_in_flight: set = set()  # (id(stage), is a lookup) of the calls in progress


def attach(tap: StageTap) -> None:
    """Deliver the stage surface to *tap* until it is detached."""
    _stage_taps.append(tap)
    _stages.reset_listeners.append(tap.stream_reset)
    if len(_stage_taps) == 1:
        _stages.class_hooks.append(_tap_class)
        for cls in _stages.all_stage_classes():
            _tap_class(cls)


def detach(tap: StageTap) -> None:
    """Stop delivering to *tap*."""
    _stage_taps.remove(tap)
    _stages.reset_listeners.remove(tap.stream_reset)
    if not _stage_taps:
        _stages.class_hooks.remove(_tap_class)
        for cls in _stages.all_stage_classes():
            _tap_class(cls, unwrap)
        _in_flight.clear()


def _tap_class(cls: type, change: Callable = wrap) -> None:
    for name, around in _AROUNDS.items():
        if name in vars(cls):
            change(cls, name, around)


def _message(op: str, batch: bool, call: Callable, stage: Any, *args,
             **kwargs) -> Any:
    # A nested call of the same kind on the same stage is its super()
    # chain: one message.  A lookup asked of a stage inside its own add is
    # still a question — that is when downstream stages ask.
    key = (id(stage), op == "lookup")
    if key in _in_flight:
        return call(stage, *args, **kwargs)
    items = list(args[0]) if batch else list(args)
    if batch:
        args = (items,)  # the handler gets the list the taps saw
    caller = kwargs.get("caller")
    _in_flight.add(key)
    finishers, result = [], None
    try:
        for tap in list(_stage_taps):
            finish = tap.stage_message(stage, op, items, caller)
            if finish is not None:
                finishers.append(finish)
        result = call(stage, *args, **kwargs)
        return result
    finally:
        _in_flight.discard(key)
        for finish in reversed(finishers):
            finish(result)


def _insert_downstream(call: Callable, stage: Any, new_stage: Any) -> Any:
    downstream = stage.next_table
    result = call(stage, new_stage)
    if downstream is not None:
        _plumbed((stage, downstream), (new_stage, downstream))
    return result


def _unplumb(call: Callable, stage: Any) -> Any:
    upstream, downstream = stage.parent, stage.next_table
    result = call(stage)
    if upstream is not None:
        _plumbed((upstream, stage), None)
    if downstream is not None:
        _plumbed((stage, downstream),
                 (upstream, downstream) if upstream is not None else None)
    return result


def _plumbed(old_edge, new_edge) -> None:
    for tap in list(_stage_taps):
        tap.stage_plumbed(old_edge, new_edge)


#: stage method -> its around; a message's knows (op, argument is a list)
_AROUNDS = {name: partial(_message, op, batch) for name, op, batch in (
    ("add_routes", "add", True), ("delete_routes", "delete", True),
    ("replace_route", "replace", False), ("lookup_route", "lookup", False),
    ("originate_batch", "originate", True),
    ("withdraw_batch", "withdraw", True))}
_AROUNDS.update(insert_downstream=_insert_downstream, unplumb=_unplumb)
