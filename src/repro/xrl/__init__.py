"""XORP Resource Locators — the IPC mechanism (paper §6).

An XRL names a method on a *component* (not a process: "the unit of IPC
addressing is the component instance rather than the process").  Its
canonical form is textual and URL-like::

    finder://bgp/bgp/1.0/set_local_as?as:u32=1777

and after Finder resolution::

    stcp://192.1.2.3:16878/bgp/1.0/set_local_as?as:u32=1777

The pieces:

* :mod:`repro.xrl.types` / :mod:`repro.xrl.args` — the core argument atom
  types and their textual + binary marshaling;
* :mod:`repro.xrl.xrl` — the :class:`Xrl` object itself;
* :mod:`repro.xrl.idl` — the interface definition language, the
  import-time-checked senders and signature checking;
* :mod:`repro.xrl.finder` — the Finder broker: registration, resolution
  with 16-byte per-method access keys, caching + invalidation, component
  lifetime notification, and XRL access control (paper §7);
* :mod:`repro.xrl.router` — the per-component dispatch point
  (:class:`XrlRouter`), one per component;
* :mod:`repro.xrl.transport` — pluggable protocol families: intra-process,
  TCP, UDP, simulated-latency, and "kill".
"""

from repro.xrl.args import XrlArgs
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.finder import Finder
from repro.xrl.idl import IdlError, IdlParseError, XrlInterface, parse_idl
from repro.xrl.router import XrlRouter
from repro.xrl.types import XrlAtom, XrlAtomType
from repro.xrl.xrl import Xrl

__all__ = [
    "Finder",
    "IdlError",
    "IdlParseError",
    "Xrl",
    "XrlArgs",
    "XrlAtom",
    "XrlAtomType",
    "XrlError",
    "XrlErrorCode",
    "XrlInterface",
    "XrlRouter",
    "parse_idl",
]
