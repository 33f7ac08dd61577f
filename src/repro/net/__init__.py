"""Network addressing primitives used throughout the stack.

XORP uses C++ template classes (``IPv4``, ``IPv6``, ``IPvX``, ``IPNet<A>``)
so that a single protocol implementation can serve both address families.
This package mirrors that arrangement: :class:`IPv4`, :class:`IPv6`, the
family-agnostic :class:`IPvX`, and the prefix type :class:`IPNet`.
"""

from repro.net.addr import IPv4, IPv6, IPvX, AddressError
from repro.net.mac import Mac
from repro.net.prefix import V6_TAG, IPNet, IPv4Net, IPv6Net

__all__ = [
    "AddressError",
    "IPNet",
    "IPv4",
    "IPv4Net",
    "IPv6",
    "IPv6Net",
    "IPvX",
    "Mac",
    "V6_TAG",
]
