"""The static-routes process.

Deliberately tiny: it exists because in the XORP architecture even static
routes are just another routing protocol feeding the RIB through the same
public XRL interface — nothing is special-cased inside the RIB for them.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.process import Host, XorpProcess
from repro.interfaces import COMMON_IDL, RIB_IDL, STATIC_ROUTES_IDL
from repro.net import IPNet
from repro.xrl import XrlError
from repro.xrl.error import XrlErrorCode

_ADD_ROUTE4 = RIB_IDL.sender("add_route4", "protocol", "net", "nexthop",
                             "metric", "policytags")
_REPLACE_ROUTE4 = RIB_IDL.sender("replace_route4", "protocol", "net",
                                 "nexthop", "metric", "policytags")
_DELETE_ROUTE4 = RIB_IDL.sender("delete_route4", "protocol", "net")


class StaticRoutesProcess(XorpProcess):
    process_name = "static_routes"
    version = "repro-static/1.0"

    def __init__(self, host: Host, *, rib_target: str = "rib"):
        super().__init__(host)
        self.rib_target = rib_target
        self.xrl = self.create_router("static_routes", singleton=True)
        self.routes: Dict[IPNet, tuple] = {}
        self.metrics.gauge("routes", lambda: len(self.routes))
        self.xrl.bind(STATIC_ROUTES_IDL, self)
        self.xrl.bind(COMMON_IDL, self)

    def xrl_add_route4(self, net, nexthop, metric) -> None:
        is_replace = net in self.routes
        self.routes[net] = (nexthop, metric)
        self.xrl.send((_REPLACE_ROUTE4 if is_replace else _ADD_ROUTE4)(
            self.rib_target, "static", net, nexthop, metric, []))

    def xrl_delete_route4(self, net) -> None:
        if net not in self.routes:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED, f"no static route for {net}"
            )
        del self.routes[net]
        self.xrl.send(_DELETE_ROUTE4(self.rib_target, "static", net))
