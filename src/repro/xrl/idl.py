"""XRL interface definition language (IDL).

    "As with many other IPC mechanisms, we have an interface definition
    language (IDL) that supports interface specification, automatic stub
    code generation, and basic error checking."  (paper §6.1)

The concrete syntax follows XORP's ``.xif`` files::

    /* Routing Information Base interface. */
    interface rib/1.0 {
        add_route    ? protocol:txt & net:ipv4net & nexthop:ipv4 & metric:u32;
        delete_route ? protocol:txt & net:ipv4net;
        lookup_route ? addr:ipv4 -> net:ipv4net & nexthop:ipv4 & metric:u32;
    }

:func:`parse_idl` turns that into :class:`XrlInterface` objects.  Stubs are
generated at runtime: ``iface.client(router, "rib")`` yields a proxy whose
methods compose and dispatch XRLs; ``iface.bind(router, impl)`` registers a
Python object's methods as XRL handlers with signature checking on both
sides.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.xrl.args import XrlArgs
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.types import XrlAtom, XrlAtomType
from repro.xrl.xrl import Xrl


class IdlError(ValueError):
    """Raised for malformed IDL text or signature violations."""


class IdlParseError(IdlError):
    """Malformed IDL text, located: :attr:`line` is 1-based in the source.

    Subclasses :class:`IdlError` so callers that only care about "the IDL
    is bad" keep working; tooling (``repro.analysis``, error reporting)
    reads :attr:`line` to point at the offending declaration.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_IFACE_RE = re.compile(
    r"interface\s+([A-Za-z0-9_\-]+)/([0-9.]+)\s*\{([^}]*)\}", re.DOTALL
)
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")


def _blank_preserving_lines(text: str, start: int, end: int) -> str:
    """Replace ``text[start:end]`` with spaces, keeping every newline."""
    blanked = re.sub(r"[^\n]", " ", text[start:end])
    return text[:start] + blanked + text[end:]


def _parse_params(text: str, where: str, line: int) -> List[Tuple[str, XrlAtomType]]:
    params: List[Tuple[str, XrlAtomType]] = []
    text = text.strip()
    if not text:
        return params
    seen = set()
    for chunk in text.split("&"):
        chunk = chunk.strip()
        name, colon, type_tag = chunk.partition(":")
        name = name.strip()
        type_tag = type_tag.strip()
        if not colon or not _NAME_RE.match(name):
            raise IdlParseError(f"bad parameter {chunk!r} in {where}", line)
        try:
            atom_type = XrlAtomType(type_tag)
        except ValueError as exc:
            raise IdlParseError(
                f"unknown type {type_tag!r} in {where}", line) from exc
        if name in seen:
            raise IdlParseError(f"duplicate parameter {name!r} in {where}", line)
        seen.add(name)
        params.append((name, atom_type))
    return params


class XrlMethod:
    """One method signature: input parameters and return values."""

    __slots__ = ("name", "params", "returns")

    def __init__(self, name: str, params: List[Tuple[str, XrlAtomType]],
                 returns: List[Tuple[str, XrlAtomType]]):
        self.name = name
        self.params = params
        self.returns = returns

    @property
    def signature(self) -> Tuple[Tuple[Tuple[str, str], ...],
                                 Tuple[Tuple[str, str], ...]]:
        """Machine-readable ``((param, type), ...), ((ret, type), ...)``.

        Types are the IDL spellings (``u32``, ``ipv4net``, ...) so external
        tooling (the ``repro.analysis`` conformance checker) can compare
        signatures without importing :class:`XrlAtomType`.
        """
        return (tuple((n, t.value) for n, t in self.params),
                tuple((n, t.value) for n, t in self.returns))

    def check_args(self, args: XrlArgs) -> None:
        """Validate *args* against the declared parameters (BAD_ARGS on fail)."""
        self._check(args, self.params, "argument")

    def check_returns(self, args: XrlArgs) -> None:
        self._check(args, self.returns, "return value")

    def _check(self, args: XrlArgs, spec: List[Tuple[str, XrlAtomType]],
               what: str) -> None:
        if len(args) != len(spec):
            raise XrlError(
                XrlErrorCode.BAD_ARGS,
                f"{self.name}: expected {len(spec)} {what}s, got {len(args)}",
            )
        for name, atom_type in spec:
            if not args.has(name):
                raise XrlError(
                    XrlErrorCode.BAD_ARGS, f"{self.name}: missing {what} {name!r}"
                )
            atom = args.atom(name)
            if atom.type != atom_type:
                raise XrlError(
                    XrlErrorCode.BAD_ARGS,
                    f"{self.name}: {what} {name!r} is {atom.type.value}, "
                    f"wanted {atom_type.value}",
                )

    def build_args(self, values: Dict[str, Any]) -> XrlArgs:
        """Build an XrlArgs from keyword values, coercing to declared types."""
        args = XrlArgs()
        for name, atom_type in self.params:
            if name not in values:
                raise XrlError(
                    XrlErrorCode.BAD_ARGS, f"{self.name}: missing argument {name!r}"
                )
            args.add(XrlAtom(name, atom_type, values[name]))
        extras = set(values) - {n for n, __ in self.params}
        if extras:
            raise XrlError(
                XrlErrorCode.BAD_ARGS,
                f"{self.name}: unexpected arguments {sorted(extras)}",
            )
        return args

    def build_returns(self, values: Optional[Dict[str, Any]]) -> XrlArgs:
        values = values or {}
        args = XrlArgs()
        for name, atom_type in self.returns:
            if name not in values:
                raise XrlError(
                    XrlErrorCode.COMMAND_FAILED,
                    f"{self.name}: handler omitted return value {name!r}",
                )
            args.add(XrlAtom(name, atom_type, values[name]))
        return args


class XrlInterface:
    """A named, versioned group of related methods (paper §6.1)."""

    def __init__(self, name: str, version: str):
        self.name = name
        self.version = version
        self.methods: Dict[str, XrlMethod] = {}

    @property
    def fullname(self) -> str:
        return f"{self.name}/{self.version}"

    def add_method(self, method: XrlMethod) -> None:
        if method.name in self.methods:
            raise IdlError(f"duplicate method {method.name!r} in {self.fullname}")
        self.methods[method.name] = method

    def method(self, name: str) -> XrlMethod:
        try:
            return self.methods[name]
        except KeyError as exc:
            raise XrlError(
                XrlErrorCode.NO_SUCH_METHOD, f"{self.fullname} has no {name!r}"
            ) from exc

    # -- stub generation -----------------------------------------------------
    def client(self, router, target: str) -> "XrlClientStub":
        """A client proxy sending this interface's XRLs to *target*."""
        return XrlClientStub(self, router, target)

    def bind(self, router, impl: Any, *, prefix: str = "xrl_") -> None:
        """Register *impl*'s methods as handlers on *router*.

        For each IDL method ``m``, the implementation object must provide
        ``xrl_m`` (preferred) or ``m``.  Handlers receive the declared
        parameters as keyword arguments and return a dict of return values
        (or None when the method returns nothing).
        """
        for method in self.methods.values():
            handler = getattr(impl, prefix + method.name, None)
            if handler is None:
                handler = getattr(impl, method.name, None)
            if handler is None or not callable(handler):
                raise IdlError(
                    f"{type(impl).__name__} does not implement "
                    f"{self.fullname}/{method.name}"
                )
            router.register_method(self, method, handler)


class XrlClientStub:
    """Dynamically generated client stub for one interface and target."""

    def __init__(self, interface: XrlInterface, router, target: str):
        self._interface = interface
        self._router = router
        self._target = target

    def __getattr__(self, method_name: str) -> Callable:
        method = self._interface.method(method_name)

        def invoke(callback: Optional[Callable] = None, **values: Any):
            args = method.build_args(values)
            xrl = Xrl(self._target, self._interface.name,
                      self._interface.version, method.name, args)
            return self._router.send(xrl, callback)

        invoke.__name__ = method_name
        return invoke

    def __repr__(self) -> str:
        return (
            f"<XrlClientStub {self._interface.fullname} -> {self._target!r}>"
        )


def parse_idl(text: str) -> Dict[str, XrlInterface]:
    """Parse IDL text; return interfaces keyed by ``name/version``.

    Malformed text raises :class:`IdlParseError` carrying the 1-based
    source line of the offending declaration.  Comments and interface
    bodies are blanked rather than excised while parsing, so character
    offsets — and therefore reported line numbers — always refer to the
    original *text*.
    """
    stripped = _COMMENT_RE.sub(
        lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)

    def line_of(offset: int) -> int:
        return stripped.count("\n", 0, offset) + 1

    interfaces: Dict[str, XrlInterface] = {}
    leftovers = stripped
    for match in _IFACE_RE.finditer(stripped):
        leftovers = _blank_preserving_lines(leftovers, *match.span())
        name, version, body = match.groups()
        iface = XrlInterface(name, version)
        iface_line = line_of(match.start())
        body_start = match.start(3)
        pos = 0
        for raw_line in body.split(";"):
            chunk_offset = pos
            pos += len(raw_line) + 1  # account for the ';' separator
            line = raw_line.strip()
            if not line:
                continue
            decl_line = line_of(
                body_start + chunk_offset + len(raw_line) - len(raw_line.lstrip()))
            head, arrow, ret_text = line.partition("->")
            method_text = head.strip()
            method_name, qmark, param_text = method_text.partition("?")
            method_name = method_name.strip()
            if not _NAME_RE.match(method_name):
                raise IdlParseError(
                    f"bad method name {method_name!r} in {iface.fullname}",
                    decl_line)
            params = _parse_params(param_text if qmark else "", method_name,
                                   decl_line)
            returns = _parse_params(ret_text if arrow else "", method_name,
                                    decl_line)
            if method_name in iface.methods:
                raise IdlParseError(
                    f"duplicate method {method_name!r} in {iface.fullname}",
                    decl_line)
            iface.add_method(XrlMethod(method_name, params, returns))
        if iface.fullname in interfaces:
            raise IdlParseError(f"duplicate interface {iface.fullname}",
                                iface_line)
        interfaces[iface.fullname] = iface
    residue = leftovers.strip()
    if residue:
        first_bad = len(leftovers) - len(leftovers.lstrip())
        raise IdlParseError(
            f"unparsed IDL text: {' '.join(residue.split())[:80]!r}",
            line_of(first_bad))
    if not interfaces:
        raise IdlParseError("no interfaces found in IDL text", 1)
    return interfaces
