"""PIM-SM-lite: (*, G) state driven by IGMP, RPF via RIB registration.

This implements the control-plane relationships the paper's Figure 1
draws for multicast:

* group membership arrives from the IGMP process
  (``mld6igmp_client/0.1`` notifications);
* the reverse path towards the rendezvous point is resolved through the
  RIB's *interest registration* (§5.2.1) — the same mechanism BGP uses for
  nexthops — and re-resolved on ``route_info_invalid4``;
* multicast forwarding entries go **directly to the FEA** (``fea_mfib``),
  bypassing the RIB.

Inter-router PIM Join/Prune messaging is out of scope (see DESIGN.md);
the per-router state machine and all three process couplings are real.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.process import Host, XorpProcess
from repro.interfaces import (
    COMMON_IDL,
    MLD6IGMP_CLIENT_IDL,
    PIM_IDL,
    RIB_CLIENT_IDL,
)
from repro.net import IPNet, IPv4
from repro.xrl import XrlArgs, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.xrl import Xrl


class GroupState:
    """(*, G) state: output interfaces and the RPF path to the RP."""

    __slots__ = ("group", "rp", "oifs", "iif", "rpf_subnet", "installed")

    def __init__(self, group: IPv4, rp: Optional[IPv4]):
        self.group = group
        self.rp = rp
        self.oifs: Set[str] = set()
        self.iif: str = ""
        self.rpf_subnet: Optional[IPNet] = None
        self.installed = False

    def __repr__(self) -> str:
        return (f"GroupState({self.group} rp={self.rp} iif={self.iif!r} "
                f"oifs={sorted(self.oifs)})")


class PimProcess(XorpProcess):
    """PIM-SM-lite as a XORP process."""

    process_name = "pim"
    version = "repro-pim/1.0"

    def __init__(self, host: Host, *, rib_target: str = "rib",
                 fea_target: str = "fea"):
        super().__init__(host)
        self.rib_target = rib_target
        self.fea_target = fea_target
        self.xrl = self.create_router("pim", singleton=True)
        #: RP set: group prefix -> RP address (most specific prefix wins)
        self.rp_set: List[Tuple[IPNet, IPv4]] = []
        self.groups: Dict[int, GroupState] = {}
        self.xrl.bind(PIM_IDL, self)
        self.xrl.bind(MLD6IGMP_CLIENT_IDL, self)
        self.xrl.bind(RIB_CLIENT_IDL, self)
        self.xrl.bind(COMMON_IDL, self)

    # -- RP set --------------------------------------------------------------
    def rp_for(self, group: IPv4) -> Optional[IPv4]:
        best: Optional[Tuple[IPNet, IPv4]] = None
        for prefix, rp in self.rp_set:
            if prefix.contains_addr(group):
                if best is None or prefix.prefix_len > best[0].prefix_len:
                    best = (prefix, rp)
        return best[1] if best is not None else None

    def xrl_set_rp(self, group_prefix, rp) -> None:
        if not group_prefix.network.is_multicast() and not group_prefix.is_default():
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"{group_prefix} is not a multicast prefix",
            )
        self.rp_set = [(p, r) for p, r in self.rp_set if p != group_prefix]
        self.rp_set.append((group_prefix, rp))
        # Existing groups may map to the new RP.
        for state in self.groups.values():
            fresh_rp = self.rp_for(state.group)
            if fresh_rp != state.rp:
                state.rp = fresh_rp
                self._resolve_rpf(state)

    # -- membership notifications from IGMP ------------------------------------
    def xrl_membership_change4(self, ifname: str, group, joined: bool) -> None:
        if joined:
            self._join(ifname, group)
        else:
            self._prune(ifname, group)

    def xrl_join_group4(self, ifname: str, group) -> None:
        self._join(ifname, group)

    def xrl_leave_group4(self, ifname: str, group) -> None:
        self._prune(ifname, group)

    def _join(self, ifname: str, group: IPv4) -> None:
        state = self.groups.get(group.to_int())
        if state is None:
            state = GroupState(group, self.rp_for(group))
            self.groups[group.to_int()] = state
        if ifname in state.oifs:
            return
        state.oifs.add(ifname)
        if state.rp is None:
            return  # no RP configured: cannot build the tree yet
        if not state.iif:
            self._resolve_rpf(state)
        else:
            self._install(state)

    def _prune(self, ifname: str, group: IPv4) -> None:
        state = self.groups.get(group.to_int())
        if state is None or ifname not in state.oifs:
            return
        state.oifs.discard(ifname)
        if state.oifs:
            self._install(state)
            return
        # Last receiver gone: tear the entry down.
        if state.installed:
            args = (XrlArgs().add_ipv4("source", state.rp or IPv4(0))
                    .add_ipv4("group", state.group))
            self.xrl.send(Xrl(self.fea_target, "fea_mfib", "1.0",
                              "delete_mfc4", args))
        if state.rpf_subnet is not None:
            dereg = (XrlArgs().add_txt("target", self.xrl.class_name)
                     .add_ipv4net("subnet", state.rpf_subnet))
            self.xrl.send(Xrl(self.rib_target, "rib", "1.0",
                              "deregister_interest4", dereg))
        del self.groups[state.group.to_int()]

    # -- RPF resolution through the RIB ----------------------------------------
    def _resolve_rpf(self, state: GroupState) -> None:
        if state.rp is None:
            return
        args = (XrlArgs().add_txt("target", self.xrl.class_name)
                .add_ipv4("addr", state.rp))
        xrl = Xrl(self.rib_target, "rib", "1.0", "register_interest4", args)

        def completion(error, response) -> None:
            if not error.is_okay:
                return
            state.rpf_subnet = response.get_ipv4net("subnet")
            if response.get_bool("resolves"):
                # The RPF interface towards the RP: ask the FEA's FIB.
                self._lookup_rpf_interface(state)
            else:
                state.iif = ""

        self.xrl.send(xrl, completion)

    def _lookup_rpf_interface(self, state: GroupState) -> None:
        args = XrlArgs().add_ipv4("addr", state.rp)
        xrl = Xrl(self.fea_target, "fea_fib", "1.0", "lookup_entry4", args)

        def completion(error, response) -> None:
            if not error.is_okay or not response.get_bool("resolves"):
                return
            state.iif = response.get_txt("ifname")
            self._install(state)

        self.xrl.send(xrl, completion)

    # -- rib_client/0.1: routing changed under our RPF cache --------------------
    def xrl_route_info_invalid4(self, subnet) -> None:
        """Paper: PIM monitors "routing changes that affect ... PIM
        Rendezvous-Point routers" via the RIB registration machinery."""
        for state in self.groups.values():
            if (state.rpf_subnet is not None
                    and state.rpf_subnet.overlaps(subnet)):
                state.rpf_subnet = None
                self._resolve_rpf(state)

    # -- MFC installation -------------------------------------------------------
    def _install(self, state: GroupState) -> None:
        if not state.iif or not state.oifs:
            return
        args = (XrlArgs().add_ipv4("source", state.rp or IPv4(0))
                .add_ipv4("group", state.group)
                .add_txt("iif", state.iif)
                .add_txt("oifs", ",".join(sorted(state.oifs))))
        state.installed = True
        self.xrl.send(Xrl(self.fea_target, "fea_mfib", "1.0",
                          "add_mfc4", args))
