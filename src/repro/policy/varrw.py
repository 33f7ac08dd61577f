"""Variable read/write adapters: the bridge between policies and routes.

A :class:`VarRW` exposes a route's fields as named policy variables.  The
compiled program is protocol-agnostic; each protocol supplies an adapter
(XORP's ``VarRW`` class, one subclass per protocol).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.net import IPNet


class PolicyVariableError(KeyError):
    """Unknown policy variable for this adapter."""


class VarRW:
    """Base adapter: dict-backed, mainly for tests."""

    def __init__(self, values: Optional[Dict[str, Any]] = None):
        self._values = dict(values or {})
        self.modified = False

    def read(self, variable: str) -> Any:
        try:
            return self._values[variable]
        except KeyError as exc:
            raise PolicyVariableError(variable) from exc

    def write(self, variable: str, value: Any) -> None:
        self._values[variable] = value
        self.modified = True


class BgpVarRW(VarRW):
    """Adapter over a :class:`repro.bgp.route.BGPRoute`.

    Reads expose attributes; writes are buffered and produce a *new* route
    from :meth:`result` (attribute lists are immutable).
    """

    READABLE = ("network4", "nexthop4", "aspath", "aspath-length", "origin",
                "med", "localpref", "community", "neighbor", "tag")

    def __init__(self, route, neighbor=None):
        super().__init__()
        self._route = route
        self._neighbor = neighbor
        self._changes: Dict[str, Any] = {}
        self._rejected = False

    def read(self, variable: str) -> Any:
        if variable in self._changes:
            return self._changes[variable]
        attrs = self._route.attributes
        if variable == "network4":
            return self._route.net
        if variable == "nexthop4":
            return attrs.nexthop
        if variable == "aspath":
            return attrs.as_path.as_list()
        if variable == "aspath-length":
            return attrs.as_path.path_length()
        if variable == "origin":
            return int(attrs.origin)
        if variable == "med":
            return attrs.med if attrs.med is not None else 0
        if variable == "localpref":
            return attrs.local_pref if attrs.local_pref is not None else 100
        if variable == "community":
            return list(attrs.communities)
        if variable == "neighbor":
            return self._neighbor
        if variable == "tag":
            return list(self._route.policytags)
        raise PolicyVariableError(variable)

    def write(self, variable: str, value: Any) -> None:
        if variable not in ("localpref", "med", "nexthop4", "community",
                            "community-add", "tag", "origin"):
            raise PolicyVariableError(f"read-only or unknown: {variable}")
        self._changes[variable] = value
        self.modified = True

    def result(self):
        """The route with buffered modifications applied (or original)."""
        if not self._changes:
            return self._route
        attrs = self._route.attributes
        replacements = {}
        if "localpref" in self._changes:
            replacements["local_pref"] = int(self._changes["localpref"])
        if "med" in self._changes:
            replacements["med"] = int(self._changes["med"])
        if "nexthop4" in self._changes:
            from repro.net import IPv4

            replacements["nexthop"] = IPv4(self._changes["nexthop4"])
        if "origin" in self._changes:
            replacements["origin"] = int(self._changes["origin"])
        if "community" in self._changes:
            value = self._changes["community"]
            replacements["communities"] = (
                value if isinstance(value, (list, tuple)) else [value])
        if "community-add" in self._changes:
            extra = self._changes["community-add"]
            communities = list(attrs.communities)
            communities.append(int(extra))
            replacements["communities"] = communities
        route = self._route.with_attributes(attrs.replace(**replacements))
        if "tag" in self._changes:
            value = self._changes["tag"]
            route.policytags = (tuple(value)
                                if isinstance(value, (list, tuple))
                                else (int(value),))
        return route


class RibVarRW(VarRW):
    """Adapter over a :class:`repro.rib.route.RibRoute` (redistribution)."""

    def __init__(self, route):
        super().__init__()
        self._route = route
        self._changes: Dict[str, Any] = {}

    def read(self, variable: str) -> Any:
        if variable in self._changes:
            return self._changes[variable]
        if variable == "network4":
            return self._route.net
        if variable == "nexthop4":
            return self._route.nexthop
        if variable == "metric":
            return self._route.metric
        if variable == "protocol":
            return self._route.protocol
        if variable == "admin-distance":
            return self._route.admin_distance
        if variable == "tag":
            return list(self._route.policytags)
        raise PolicyVariableError(variable)

    def write(self, variable: str, value: Any) -> None:
        if variable not in ("metric", "tag"):
            raise PolicyVariableError(f"read-only or unknown: {variable}")
        self._changes[variable] = value
        self.modified = True

    def result(self):
        if not self._changes:
            return self._route
        tags = self._changes.get("tag", self._route.policytags)
        if not isinstance(tags, (list, tuple)):
            tags = (int(tags),)
        # The route rebuilds itself (RibRoute.replaced): policy is shared
        # library code and must not import RIB internals.
        return self._route.replaced(
            metric=int(self._changes.get("metric", self._route.metric)),
            policytags=tags,
        )
