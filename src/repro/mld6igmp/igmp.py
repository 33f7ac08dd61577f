"""IGMPv2 message codec and the membership-tracking process.

Real IGMP runs directly over IP protocol 2; our FEA relay carries UDP
datagrams only, so host membership reports are injected through the
``mld6igmp/0.1`` XRL interface instead (the DESIGN.md substitution table
covers this).  The wire codec is still implemented and tested — the state
machine consumes decoded reports exactly as it would from the wire.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set

from repro.core.process import Host, XorpProcess
from repro.interfaces import COMMON_IDL, MLD6IGMP_IDL
from repro.net import IPv4
from repro.xrl import XrlArgs, XrlError
from repro.xrl.error import XrlErrorCode
from repro.xrl.xrl import Xrl

IGMP_MEMBERSHIP_QUERY = 0x11
IGMP_V2_MEMBERSHIP_REPORT = 0x16
IGMP_LEAVE_GROUP = 0x17


class IgmpPacketError(ValueError):
    """Malformed IGMP message."""


def _checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class IgmpPacket:
    """An IGMPv2 message: type, max-response-time, group."""

    __slots__ = ("type", "max_resp", "group")

    def __init__(self, igmp_type: int, group: IPv4, max_resp: int = 0):
        if igmp_type not in (IGMP_MEMBERSHIP_QUERY, IGMP_V2_MEMBERSHIP_REPORT,
                             IGMP_LEAVE_GROUP):
            raise IgmpPacketError(f"bad IGMP type {igmp_type:#x}")
        self.type = igmp_type
        self.max_resp = max_resp
        self.group = group

    def encode(self) -> bytes:
        body = struct.pack("!BBH", self.type, self.max_resp, 0)
        body += self.group.to_bytes()
        checksum = _checksum(body)
        return body[:2] + struct.pack("!H", checksum) + body[4:]

    @classmethod
    def decode(cls, data: bytes) -> "IgmpPacket":
        if len(data) != 8:
            raise IgmpPacketError(f"bad IGMP length {len(data)}")
        igmp_type, max_resp, checksum = struct.unpack_from("!BBH", data, 0)
        verify = _checksum(data[:2] + b"\x00\x00" + data[4:])
        if verify != checksum:
            raise IgmpPacketError("bad IGMP checksum")
        return cls(igmp_type, IPv4(data[4:8]), max_resp)

    def __repr__(self) -> str:
        return f"IgmpPacket(type={self.type:#x} group={self.group})"


class Mld6igmpProcess(XorpProcess):
    """Tracks (interface, group) memberships; notifies routing clients."""

    process_name = "mld6igmp"
    version = "repro-mld6igmp/1.0"

    def __init__(self, host: Host, *,
                 notify_targets: Optional[List[str]] = None):
        super().__init__(host)
        self.xrl = self.create_router("mld6igmp", singleton=True)
        self.memberships: Dict[str, Set[int]] = {}
        self.notify_targets = list(notify_targets) if notify_targets else ["pim"]
        self.xrl.bind(MLD6IGMP_IDL, self)
        self.xrl.bind(COMMON_IDL, self)

    # -- membership updates (from XRL-injected or decoded reports) -----------
    def process_report(self, ifname: str, packet: IgmpPacket) -> None:
        """Apply one decoded IGMP message to the membership database."""
        if packet.type == IGMP_V2_MEMBERSHIP_REPORT:
            self._join(ifname, packet.group)
        elif packet.type == IGMP_LEAVE_GROUP:
            self._leave(ifname, packet.group)

    def _join(self, ifname: str, group: IPv4) -> None:
        if not group.is_multicast():
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED, f"{group} is not multicast"
            )
        groups = self.memberships.setdefault(ifname, set())
        if group.to_int() in groups:
            return
        groups.add(group.to_int())
        self._notify(ifname, group, joined=True)

    def _leave(self, ifname: str, group: IPv4) -> None:
        groups = self.memberships.get(ifname, set())
        if group.to_int() not in groups:
            return
        groups.discard(group.to_int())
        self._notify(ifname, group, joined=False)

    def _notify(self, ifname: str, group: IPv4, joined: bool) -> None:
        for target in self.notify_targets:
            args = (XrlArgs().add_txt("ifname", ifname)
                    .add_ipv4("group", group).add_bool("joined", joined))
            self.xrl.send(Xrl(target, "mld6igmp_client", "0.1",
                              "membership_change4", args))

    # -- mld6igmp/0.1 -----------------------------------------------------
    def xrl_add_membership4(self, ifname: str, group) -> None:
        self._join(ifname, group)

    def xrl_delete_membership4(self, ifname: str, group) -> None:
        self._leave(ifname, group)

    def xrl_list_memberships4(self, ifname: str) -> dict:
        groups = sorted(self.memberships.get(ifname, set()))
        return {"groups": ",".join(str(IPv4(g)) for g in groups)}
