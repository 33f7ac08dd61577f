"""Pluggable FIB backends — the dataplanes the FEA can drive.

The registry maps the names accepted by ``FeaProcess(backend=...)`` (and
the ``repro-fea --backend`` flag) to implementations; ``make_backend``
is the one constructor the FEA itself is allowed to call (analysis rule
BKD001 enforces that the FEA never builds a dataplane any other way).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.fea.backends.base import (
    ADD,
    DELETE,
    CompletionCallback,
    FibBackend,
    FibOp,
    HealthCallback,
)
from repro.fea.backends.netlink import (
    BackendFaultPlan,
    NetlinkFibBackend,
    NetlinkStats,
)
from repro.fea.backends.trie import TrieFibBackend

#: name -> factory; factories accept the keyword options of the backend
BACKENDS: Dict[str, Callable[..., FibBackend]] = {
    TrieFibBackend.name: TrieFibBackend,
    NetlinkFibBackend.name: NetlinkFibBackend,
}


def make_backend(name: str, **options) -> FibBackend:
    """Construct a registered backend by name.

    >>> make_backend("trie").name
    'trie'
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(
            f"unknown FIB backend {name!r} (known: {known})") from None
    return factory(**options)


__all__ = [
    "ADD",
    "DELETE",
    "BACKENDS",
    "BackendFaultPlan",
    "CompletionCallback",
    "FibBackend",
    "FibOp",
    "HealthCallback",
    "NetlinkFibBackend",
    "NetlinkStats",
    "TrieFibBackend",
    "make_backend",
]
