"""XRL atom types and their marshaling.

    "XRL arguments ... are restricted to a set of core types used
    throughout XORP, including network addresses, numbers, strings,
    booleans, binary arrays, and lists of these primitives."  (paper §6.1)

Each argument is an :class:`XrlAtom` — a ``name:type=value`` triple.  This
module holds the in-memory model and the **textual** encoding — the
canonical, human-readable, scriptable form used in XRL strings and by
``call_xrl``.  The one wire encoding ("Internally XRLs are encoded more
efficiently") is :mod:`repro.xrl.codec`'s.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, List

from repro.net import IPNet, IPv4, IPv6, Mac
from repro.xrl.error import XrlError, XrlErrorCode


class XrlAtomType(str, Enum):
    """Core XRL atom types and their textual tags."""

    I32 = "i32"
    U32 = "u32"
    I64 = "i64"
    U64 = "u64"
    TXT = "txt"
    BOOL = "bool"
    IPV4 = "ipv4"
    IPV6 = "ipv6"
    IPV4NET = "ipv4net"
    IPV6NET = "ipv6net"
    MAC = "mac"
    BINARY = "binary"
    LIST = "list"


# Looking a member up on an Enum class goes through its metaclass
# (0.1 µs each); the per-atom paths compare against these constants
# (unpacked in the definition order above).
(I32, U32, I64, U64, TXT, BOOL, IPV4, IPV6, IPV4NET, IPV6NET, MAC, BINARY,
 LIST) = XrlAtomType

_INT_RANGES = {
    I32: (-(1 << 31), (1 << 31) - 1),
    U32: (0, (1 << 32) - 1),
    I64: (-(1 << 63), (1 << 63) - 1),
    U64: (0, (1 << 64) - 1),
}

# Characters with structural meaning in XRL text; %-escaped in values.
_ESCAPE_CHARS = "%&=?/:,\n "


def escape_text(value: str) -> str:
    """Percent-escape XRL-structural characters in *value*."""
    out: List[str] = []
    for ch in value:
        if ch in _ESCAPE_CHARS or ord(ch) < 0x20:
            for byte in ch.encode("utf-8"):
                out.append(f"%{byte:02X}")
        else:
            out.append(ch)
    return "".join(out)


def unescape_text(value: str) -> str:
    """Inverse of :func:`escape_text`."""
    out = bytearray()
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "%":
            if i + 3 > len(value):
                raise XrlError(XrlErrorCode.BAD_ARGS, f"truncated escape in {value!r}")
            try:
                out.append(int(value[i + 1 : i + 3], 16))
            except ValueError as exc:
                raise XrlError(
                    XrlErrorCode.BAD_ARGS, f"bad escape in {value!r}"
                ) from exc
            i += 3
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    return out.decode("utf-8")


def _validate(atom_type: XrlAtomType, value: Any) -> Any:
    """Coerce and range-check *value* for *atom_type*; raise BAD_ARGS."""
    try:
        if atom_type in _INT_RANGES:
            value = int(value)
            lo, hi = _INT_RANGES[atom_type]
            if not lo <= value <= hi:
                raise ValueError(f"{value} outside [{lo}, {hi}]")
            return value
        if atom_type is TXT:
            if not isinstance(value, str):
                raise ValueError(f"txt atom needs str, got {type(value).__name__}")
            return value
        if atom_type is BOOL:
            if isinstance(value, str):
                lowered = value.lower()
                if lowered in ("true", "1"):
                    return True
                if lowered in ("false", "0"):
                    return False
                raise ValueError(f"bad bool text {value!r}")
            return bool(value)
        if atom_type is IPV4:
            return value if isinstance(value, IPv4) else IPv4(value)
        if atom_type is IPV6:
            return value if isinstance(value, IPv6) else IPv6(value)
        if atom_type is IPV4NET or atom_type is IPV6NET:
            net = value if isinstance(value, IPNet) else IPNet.parse(value)
            want_v4 = atom_type is IPV4NET
            if net.is_ipv4() != want_v4:
                raise ValueError(f"{net} is the wrong family for {atom_type.value}")
            return net
        if atom_type is MAC:
            return value if isinstance(value, Mac) else Mac(value)
        if atom_type is BINARY:
            if isinstance(value, str):
                return bytes.fromhex(value)
            return bytes(value)
        if atom_type is LIST:
            if not isinstance(value, (list, tuple)):
                raise ValueError("list atom needs a list of XrlAtom")
            items = list(value)
            for item in items:
                if not isinstance(item, XrlAtom):
                    raise ValueError("list elements must be XrlAtom")
            return items
    except XrlError:
        raise
    except Exception as exc:
        raise XrlError(
            XrlErrorCode.BAD_ARGS,
            f"bad value {value!r} for type {atom_type.value}: {exc}",
        ) from exc
    raise XrlError(XrlErrorCode.BAD_ARGS, f"unknown atom type {atom_type!r}")


#: names that already passed :func:`check_name`, so the per-atom paths pay
#: a set lookup; bounded because the wire decoder feeds it the peer's names
CHECKED_NAMES: set = set()
_CHECKED_NAMES_MAX = 4096


def check_name(name: str) -> None:
    """The atom-name rule: non-empty, no XRL-structural character.
    A name that passes is remembered in :data:`CHECKED_NAMES`."""
    if not name or any(c in _ESCAPE_CHARS for c in name):
        raise XrlError(XrlErrorCode.BAD_ARGS, f"bad atom name {name!r}")
    if len(CHECKED_NAMES) < _CHECKED_NAMES_MAX:
        CHECKED_NAMES.add(name)


#: atom types whose every value of exactly this class is valid as it
#: stands, so construction need not run :func:`_validate` over it
_VALID_AS_IS = {TXT: str, BOOL: bool, IPV4: IPv4, IPV6: IPv6, MAC: Mac,
                BINARY: bytes}


class XrlAtom:
    """One named, typed XRL argument."""

    __slots__ = ("name", "type", "value")

    def __init__(self, name: str, atom_type: XrlAtomType, value: Any):
        if name not in CHECKED_NAMES:
            check_name(name)
        if atom_type.__class__ is not XrlAtomType:
            atom_type = XrlAtomType(atom_type)
        self.name = name
        self.type = atom_type
        if value.__class__ is _VALID_AS_IS.get(atom_type):
            self.value = value
        else:
            self.value = _validate(atom_type, value)

    # -- textual form -----------------------------------------------------
    def to_text(self) -> str:
        """Render as ``name:type=value`` (canonical XRL text)."""
        return f"{self.name}:{self.type.value}={self._value_text()}"

    def _value_text(self) -> str:
        if self.type is BOOL:
            return "true" if self.value else "false"
        if self.type is BINARY:
            return self.value.hex()
        if self.type is LIST:
            return ",".join(escape_text(a.to_text()) for a in self.value)
        return escape_text(str(self.value))

    @classmethod
    def from_text(cls, text: str) -> "XrlAtom":
        """Parse ``name:type=value`` text."""
        head, eq, raw_value = text.partition("=")
        if not eq:
            raise XrlError(XrlErrorCode.BAD_ARGS, f"atom missing '=': {text!r}")
        name, colon, type_tag = head.partition(":")
        if not colon:
            raise XrlError(XrlErrorCode.BAD_ARGS, f"atom missing ':type': {text!r}")
        try:
            atom_type = XrlAtomType(type_tag)
        except ValueError as exc:
            raise XrlError(
                XrlErrorCode.BAD_ARGS, f"unknown atom type {type_tag!r}"
            ) from exc
        if atom_type is LIST:
            items = []
            if raw_value:
                for chunk in raw_value.split(","):
                    items.append(cls.from_text(unescape_text(chunk)))
            return cls(name, atom_type, items)
        return cls(name, atom_type, unescape_text(raw_value))

    # -- dunder -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XrlAtom)
            and self.name == other.name
            and self.type == other.type
            and self.value == other.value
        )

    def __repr__(self) -> str:
        return f"XrlAtom({self.to_text()!r})"
