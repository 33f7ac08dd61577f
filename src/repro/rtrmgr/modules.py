"""Module declarations, XORP's ``%modinfo``.

A :class:`ModuleSpec` is all the Router Manager knows of a module, so a
new protocol is one :meth:`~repro.rtrmgr.rtrmgr.RouterManager.declare`
and no Router Manager code.  The manager's state is keyed by ``name``;
Finder questions and XRL targets use ``class_name``.  Process classes
are dotted strings: rtrmgr, a process package itself, imports none.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, NamedTuple, Optional, Tuple, Union

from repro.rtrmgr.translate import (Translator, _bgp, _interfaces, _ospf,
                                    _pim, _rip, _static)


class ModuleSpec(NamedTuple):
    name: str
    #: the XRL target class it registers with the Finder
    class_name: str
    #: ``"package.Class"``, built ``Class(host, **params)``, or a factory
    process: Union[str, Callable, None] = None
    #: the ``python -m`` program of the OS-process deployment, if any
    program: Optional[str] = None
    #: the subtree that calls for it (``()``: any; None: start_module only)
    subtree: Optional[Tuple[str, ...]] = None
    #: modules restarted before it when both are down
    depends_on: Tuple[str, ...] = ()
    #: Finder ACL: the target classes it may resolve (None: any)
    acl: Optional[FrozenSet[str]] = None
    #: RIB origin tables it owns, flushed when it dies
    rib_protocols: Tuple[str, ...] = ()
    #: ``(keyword, config path, mandatory)`` start-up keywords (or argv)
    params: Tuple[Tuple[str, Tuple[str, ...], bool], ...] = ()
    #: its share of :func:`~repro.rtrmgr.translate.translate`
    translator: Optional[Translator] = None


#: the stock modules in start order, which is also translation order
STOCK = (
    ModuleSpec("fea", "fea", "repro.fea.FeaProcess", "repro.fea",
               subtree=(), translator=_interfaces),
    ModuleSpec("rib", "rib", "repro.rib.RibProcess", "repro.rib",
               subtree=(), depends_on=("fea",)),
    ModuleSpec("bgp", "bgp", "repro.bgp.BgpProcess", "repro.bgp",
               subtree=("protocols", "bgp"), depends_on=("rib",),
               acl=frozenset({"rib", "bgp"}), rib_protocols=("ebgp", "ibgp"),
               params=(("local_as", ("protocols", "bgp", "local-as"), True),
                       ("bgp_id", ("protocols", "bgp", "bgp-id"), False)),
               translator=_bgp),
    ModuleSpec("static_routes", "static_routes",
               "repro.staticroutes.StaticRoutesProcess",
               subtree=("protocols", "static"), depends_on=("rib",),
               acl=frozenset({"rib"}), rib_protocols=("static",),
               translator=_static),
    ModuleSpec("rip", "rip", "repro.rip.RipProcess",
               subtree=("protocols", "rip"), depends_on=("fea", "rib"),
               acl=frozenset({"rib", "fea", "rip"}), rib_protocols=("rip",),
               translator=_rip),
    ModuleSpec("ospf", "ospf", "repro.ospf.OspfProcess",
               subtree=("protocols", "ospf"), depends_on=("fea", "rib"),
               acl=frozenset({"rib", "fea"}), rib_protocols=("ospf",),
               params=(("router_id", ("protocols", "ospf", "router-id"),
                        True),),
               translator=_ospf),
    ModuleSpec("mld6igmp", "mld6igmp", "repro.mld6igmp.Mld6igmpProcess",
               subtree=("protocols", "pim"), acl=frozenset({"pim"})),
    ModuleSpec("pim", "pim", "repro.pim.PimProcess",
               subtree=("protocols", "pim"),
               depends_on=("fea", "rib", "mld6igmp"),
               acl=frozenset({"rib", "fea", "mld6igmp"}), translator=_pim),
)
