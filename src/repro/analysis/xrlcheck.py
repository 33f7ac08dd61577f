"""XRL conformance: every send and bind site against the IDL catalogue.

This is the static half of what XORP's ``xrlc`` did at build time
(paper §6.1: "interface specification, automatic stub code generation,
and basic error checking").  The runtime already rejects bad calls when
they happen; this checker rejects them when they are *written*.  The
sites come from :mod:`repro.analysis.sites`; each rule is a function of
one site, the catalogue and (for handlers) the class index:

* a :class:`~repro.analysis.sites.SendSite` — ``Xrl(...)`` construction,
  client-stub call, textual literal, helper-wrapper call — must name an
  interface/version the catalogue has (XRL001) and methods it declares
  (XRL002), and where its arguments resolve statically they must match
  the declared names/types/arity (XRL003);
* a :class:`~repro.analysis.sites.BindSite` must name a known interface
  (XRL001); a raw registration a declared method (XRL002); each handler
  a ``bind()`` finds on its implementation class must accept the
  declared parameters (XRL005).  A handler that is missing altogether
  needs no rule: :meth:`XrlInterface.bind <repro.xrl.idl.XrlInterface.bind>`
  refuses it with an ``IdlError`` whenever the class is bound;
* a textual XRL or raw method path that does not parse is XRL006.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional

from repro.analysis.core import Finding, ModuleInfo
from repro.analysis.sites import (
    Atom,
    BindSite,
    ModuleSites,
    ProjectIndex,
    SendSite,
    load_catalogue,
)


def check_xrl(module: ModuleInfo, sites: ModuleSites,
              project: ProjectIndex) -> Iterator[Finding]:
    catalogue = load_catalogue()[0]
    yield from sites.errors
    for send in sites.sends:
        yield from check_send(send, catalogue)
    for bind in sites.binds:
        yield from check_bind(bind, catalogue, project)


def _describe(atoms: Iterable[Atom]) -> str:
    return "&".join(f"{n}:{t}" if t else n for n, t in atoms) or "<none>"


def check_send(site: SendSite, catalogue: Dict[str, object]
               ) -> Iterator[Finding]:
    """XRL001–XRL003 for one send site."""
    iface = catalogue.get(site.interface)
    if iface is None:
        yield Finding(site.path, site.iface_line, "XRL001",
                      f"unknown interface {site.interface!r}")
        return
    unknown = [(m, line) for m, line in site.method_lines
               if m not in iface.methods]
    for method, line in unknown:
        yield Finding(site.path, line, "XRL002",
                      f"{site.interface} declares no method {method!r}")
    if unknown or not site.method_lines or site.atoms is None:
        return
    # Stub keywords and run-time atom types carry names only: compare on
    # what the site knows.
    typed = all(tag is not None for _name, tag in site.atoms)
    atoms = {(n, t if typed else None) for n, t in site.atoms}
    wanted = [[(n, t if typed else None)
               for n, t in iface.methods[m].signature[0]]
              for m in site.methods]
    if not any(atoms == set(want) for want in wanted):
        yield Finding(
            site.path, site.args_line, "XRL003",
            f"arguments {_describe(site.atoms)} do not match "
            f"{site.interface}/{'|'.join(site.methods)} "
            f"({' | '.join(map(_describe, wanted))})")


def check_bind(site: BindSite, catalogue: Dict[str, object],
               project: ProjectIndex) -> Iterator[Finding]:
    """XRL001/XRL002 for a registration, XRL005 for its handlers."""
    iface = catalogue.get(site.interface)
    if iface is None:
        yield Finding(site.path, site.iface_line, "XRL001",
                      f"unknown interface {site.interface!r}")
        return
    if site.methods is not None:        # a raw registration: no class to check
        for method in site.methods:
            if method not in iface.methods:
                yield Finding(
                    site.path, site.iface_line, "XRL002",
                    f"{site.interface} declares no method {method!r}")
        return
    impl = project.class_def(site.impl) if isinstance(site.impl, str) \
        else site.impl
    if impl is None:
        return
    for method in iface.methods.values():
        handler = project.find_method(impl, f"xrl_{method.name}", method.name)
        if handler is None:
            continue            # XrlInterface.bind raises IdlError
        problem = _handler_signature_problem(handler, method)
        if problem is not None:
            yield Finding(
                site.path, site.line, "XRL005",
                f"{impl.name}.{handler.name} cannot accept "
                f"{iface.fullname}/{method.name}: {problem}")


def _handler_signature_problem(handler: ast.FunctionDef,
                               method) -> Optional[str]:
    """Why *handler* cannot be called with the method's kwargs, or None."""
    arg_spec = handler.args
    if arg_spec.kwarg is not None:
        return None
    names = [a.arg for a in arg_spec.args + arg_spec.kwonlyargs
             if a.arg != "self"]
    wanted = [n for n, _t in method.signature[0]]
    missing = [n for n in wanted if n not in names]
    if missing:
        return f"missing parameters {missing}"
    defaults_count = len(arg_spec.defaults)
    positional = [a.arg for a in arg_spec.args if a.arg != "self"]
    required = positional[:len(positional) - defaults_count] \
        if defaults_count else positional
    required_kwonly = [
        a.arg for a, d in zip(arg_spec.kwonlyargs, arg_spec.kw_defaults)
        if d is None
    ]
    extra = [n for n in required + required_kwonly if n not in wanted]
    if extra:
        return f"requires undeclared parameters {extra}"
    return None
