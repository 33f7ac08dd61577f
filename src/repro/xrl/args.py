"""XrlArgs — an ordered collection of XRL atoms.

Used both for the arguments of an outgoing XRL and for the values returned
by a dispatched method.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.net import IPNet, IPv4, IPv6, Mac
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.types import XrlAtom, XrlAtomType


class XrlArgs:
    """Ordered, name-addressable argument list.

    Construction is chainable, mirroring XORP's ``XrlArgs``::

        args = XrlArgs().add_u32("as", 1777).add_ipv4("peer", "10.0.0.1")
    """

    __slots__ = ("_atoms", "_index")

    def __init__(self, atoms: Optional[List[XrlAtom]] = None):
        self._atoms: List[XrlAtom] = []
        self._index: Dict[str, XrlAtom] = {}
        if atoms:
            for atom in atoms:
                self.add(atom)

    # -- building ----------------------------------------------------------
    def add(self, atom: XrlAtom) -> "XrlArgs":
        if atom.name in self._index:
            raise XrlError(XrlErrorCode.BAD_ARGS, f"duplicate atom {atom.name!r}")
        self._atoms.append(atom)
        self._index[atom.name] = atom
        return self

    def add_i32(self, name: str, value: int) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.I32, value))

    def add_u32(self, name: str, value: int) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.U32, value))

    def add_i64(self, name: str, value: int) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.I64, value))

    def add_u64(self, name: str, value: int) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.U64, value))

    def add_txt(self, name: str, value: str) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.TXT, value))

    def add_bool(self, name: str, value: bool) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.BOOL, value))

    def add_ipv4(self, name: str, value) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.IPV4, value))

    def add_ipv6(self, name: str, value) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.IPV6, value))

    def add_ipv4net(self, name: str, value) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.IPV4NET, value))

    def add_ipv6net(self, name: str, value) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.IPV6NET, value))

    def add_mac(self, name: str, value) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.MAC, value))

    def add_binary(self, name: str, value: bytes) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.BINARY, value))

    def add_list(self, name: str, value: List[XrlAtom]) -> "XrlArgs":
        return self.add(XrlAtom(name, XrlAtomType.LIST, value))

    # -- reading ------------------------------------------------------------
    def _get(self, name: str, atom_type: XrlAtomType) -> Any:
        atom = self._index.get(name)
        if atom is None:
            raise XrlError(XrlErrorCode.BAD_ARGS, f"missing atom {name!r}")
        if atom.type != atom_type:
            raise XrlError(
                XrlErrorCode.BAD_ARGS,
                f"atom {name!r} has type {atom.type.value}, wanted {atom_type.value}",
            )
        return atom.value

    def get_i32(self, name: str) -> int:
        return self._get(name, XrlAtomType.I32)

    def get_u32(self, name: str) -> int:
        return self._get(name, XrlAtomType.U32)

    def get_i64(self, name: str) -> int:
        return self._get(name, XrlAtomType.I64)

    def get_u64(self, name: str) -> int:
        return self._get(name, XrlAtomType.U64)

    def get_txt(self, name: str) -> str:
        return self._get(name, XrlAtomType.TXT)

    def get_bool(self, name: str) -> bool:
        return self._get(name, XrlAtomType.BOOL)

    def get_ipv4(self, name: str) -> IPv4:
        return self._get(name, XrlAtomType.IPV4)

    def get_ipv6(self, name: str) -> IPv6:
        return self._get(name, XrlAtomType.IPV6)

    def get_ipv4net(self, name: str) -> IPNet:
        return self._get(name, XrlAtomType.IPV4NET)

    def get_ipv6net(self, name: str) -> IPNet:
        return self._get(name, XrlAtomType.IPV6NET)

    def get_mac(self, name: str) -> Mac:
        return self._get(name, XrlAtomType.MAC)

    def get_binary(self, name: str) -> bytes:
        return self._get(name, XrlAtomType.BINARY)

    def get_list(self, name: str) -> List[XrlAtom]:
        return self._get(name, XrlAtomType.LIST)

    def has(self, name: str) -> bool:
        return name in self._index

    def atom(self, name: str) -> XrlAtom:
        atom = self._index.get(name)
        if atom is None:
            raise XrlError(XrlErrorCode.BAD_ARGS, f"missing atom {name!r}")
        return atom

    # -- marshaling ----------------------------------------------------------
    def to_text(self) -> str:
        """Canonical ``a:t=v&b:t=v`` query-string form."""
        return "&".join(atom.to_text() for atom in self._atoms)

    @classmethod
    def from_text(cls, text: str) -> "XrlArgs":
        args = cls()
        if not text:
            return args
        for chunk in text.split("&"):
            args.add(XrlAtom.from_text(chunk))
        return args

    # -- dunder -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[XrlAtom]:
        return iter(self._atoms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XrlArgs) and self._atoms == other._atoms

    def __repr__(self) -> str:
        return f"XrlArgs({self.to_text()!r})"
