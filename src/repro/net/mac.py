"""Ethernet MAC addresses (one of the XRL core atom types)."""

from __future__ import annotations

import re
from typing import Union

from repro.net.addr import AddressError

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")


class Mac:
    """A 48-bit Ethernet address, printed as ``aa:bb:cc:dd:ee:ff``."""

    __slots__ = ("_value",)

    BITS = 48
    MAX = (1 << 48) - 1

    def __init__(self, value: Union[str, int, bytes, "Mac"] = 0):
        if isinstance(value, Mac):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= self.MAX:
                raise AddressError(f"MAC value out of range: {value:#x}")
            self._value = value
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise AddressError(f"malformed MAC address {value!r}")
            self._value = int(value.replace(":", ""), 16)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise AddressError(f"MAC needs 6 packed bytes, got {len(value)}")
            self._value = int.from_bytes(bytes(value), "big")
        else:
            raise AddressError(f"cannot build Mac from {type(value).__name__}")

    def to_int(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(6, "big")

    def is_multicast(self) -> bool:
        return bool((self._value >> 40) & 1)

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"Mac({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mac) and self._value == other._value

    def __lt__(self, other: "Mac") -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("mac", self._value))
