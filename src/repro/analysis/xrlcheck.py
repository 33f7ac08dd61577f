"""XRL conformance: every send and bind site against the IDL catalogue.

XORP's ``xrlc`` checked every stub against the ``.xif`` files at build
time (paper §6.1: "interface specification, automatic stub code
generation, and basic error checking").  Here the calling side is checked
when its module is imported: every send is an
:class:`~repro.xrl.idl.XrlSender`, whose declaration raises ``IdlError``
for a method the interface lacks or parameter names that differ from the
declared ones, and every dispatch checks the arguments again.  What no
import checks is left to this checker.  The sites come from
:mod:`repro.analysis.sites`; each rule is a function of one site, the
catalogue and (for handlers) the class index:

* a textual XRL literal must name an interface/version the catalogue has
  (XRL001) and a method it declares (XRL002);
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
from typing import Dict, Iterator, Optional

from repro.analysis.core import Finding, ModuleInfo
from repro.analysis.sites import (
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


def check_send(site: SendSite, catalogue: Dict[str, object]
               ) -> Iterator[Finding]:
    """XRL001/XRL002 for one send site; a sender passed them at import."""
    iface = catalogue.get(site.interface)
    if iface is None:
        yield Finding(site.path, site.iface_line, "XRL001",
                      f"unknown interface {site.interface!r}")
        return
    for method, line in site.method_lines:
        if method not in iface.methods:
            yield Finding(site.path, line, "XRL002",
                          f"{site.interface} declares no method {method!r}")


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
