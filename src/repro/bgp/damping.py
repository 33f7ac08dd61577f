"""Route flap damping as a pluggable pipeline stage (paper §8.3).

    "Route flap damping was also not a part of our original BGP design.
    We are currently adding this functionality (ISPs demand it, even
    though it's a flawed mechanism), and can do so efficiently and simply
    by adding another stage to the BGP pipeline.  The code does not impact
    other stages, which need not be aware that damping is occurring."

RFC 2439-style figure-of-merit damping: each flap adds a penalty that
decays exponentially; a prefix whose penalty exceeds the suppress
threshold is withheld from downstream until it decays below the reuse
threshold.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.core.stages import RouteTableStage
from repro.net import IPNet

#: default RFC 2439-ish parameters (seconds / penalty units)
DEFAULT_HALF_LIFE = 900.0
DEFAULT_SUPPRESS = 3000.0
DEFAULT_REUSE = 750.0
DEFAULT_MAX_PENALTY = 12000.0
WITHDRAWAL_PENALTY = 1000.0
ATTRIBUTE_CHANGE_PENALTY = 500.0
REUSE_SCAN_INTERVAL = 10.0


class DampInfo:
    __slots__ = ("penalty", "last_update", "suppressed", "held_route",
                 "announced")

    def __init__(self) -> None:
        self.penalty = 0.0
        self.last_update = 0.0
        self.suppressed = False
        self.held_route: Optional[Any] = None
        #: whether downstream currently has an announcement for this prefix
        self.announced = False


class DampingStage(RouteTableStage):
    """Per-prefix flap damping on one peer's input branch."""

    def __init__(self, name: str, loop, *,
                 half_life: float = DEFAULT_HALF_LIFE,
                 suppress_threshold: float = DEFAULT_SUPPRESS,
                 reuse_threshold: float = DEFAULT_REUSE,
                 max_penalty: float = DEFAULT_MAX_PENALTY):
        super().__init__(name)
        self.loop = loop
        self.half_life = half_life
        self.suppress_threshold = suppress_threshold
        self.reuse_threshold = reuse_threshold
        self.max_penalty = max_penalty
        self.info: Dict[IPNet, DampInfo] = {}
        self.suppress_count = 0
        self._reuse_timer = loop.call_periodic(
            REUSE_SCAN_INTERVAL, self._reuse_scan, name=f"{name}-reuse")

    def stop(self) -> None:
        self._reuse_timer.cancel()

    # -- penalty arithmetic ---------------------------------------------------
    def _decayed(self, info: DampInfo) -> float:
        elapsed = self.loop.now() - info.last_update
        if elapsed <= 0:
            return info.penalty
        return info.penalty * math.pow(2.0, -elapsed / self.half_life)

    def _charge(self, info: DampInfo, penalty: float) -> None:
        info.penalty = min(self._decayed(info) + penalty, self.max_penalty)
        info.last_update = self.loop.now()

    def penalty_of(self, net: IPNet) -> float:
        info = self.info.get(net)
        return self._decayed(info) if info is not None else 0.0

    # -- stage messages ------------------------------------------------------
    def _info_for(self, net: IPNet) -> DampInfo:
        info = self.info.get(net)
        if info is None:
            info = DampInfo()
            info.last_update = self.loop.now()
            self.info[net] = info
        return info

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        passed: List[Any] = []
        for route in routes:
            info = self._info_for(route.net)
            if info.suppressed:
                info.held_route = route  # still suppressed: swallow
                continue
            if self._decayed(info) >= self.suppress_threshold:
                info.suppressed = True
                info.held_route = route
                self.suppress_count += 1
                continue
            info.announced = True
            info.held_route = None
            passed.append(route)
        if passed:
            super().add_routes(passed, caller=caller)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        passed: List[Any] = []
        for route in routes:
            info = self.info.get(route.net)
            if info is None:
                passed.append(route)
                continue
            self._charge(info, WITHDRAWAL_PENALTY)
            if info.suppressed:
                info.held_route = None  # withdrawn while suppressed
            elif info.announced:
                info.announced = False
                passed.append(route)
        if passed:
            super().delete_routes(passed, caller=caller)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        info = self._info_for(new_route.net)
        self._charge(info, ATTRIBUTE_CHANGE_PENALTY)
        if info.suppressed:
            info.held_route = new_route
            return
        if self._decayed(info) >= self.suppress_threshold and info.announced:
            # Suppress: withdraw from downstream, hold the new version.
            info.suppressed = True
            info.held_route = new_route
            info.announced = False
            self.suppress_count += 1
            super().delete_routes([old_route], caller=caller)
            return
        info.announced = True
        super().replace_route(old_route, new_route, caller=caller)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        info = self.info.get(net)
        if info is not None and (info.suppressed or not info.announced):
            return None
        return super().lookup_route(net, caller=caller)

    # -- reuse ----------------------------------------------------------------
    def _reuse_scan(self) -> None:
        reused: List[Any] = []
        for net, info in list(self.info.items()):
            if info.suppressed and self._decayed(info) < self.reuse_threshold:
                info.suppressed = False
                held = info.held_route
                info.held_route = None
                if held is not None:
                    info.announced = True
                    reused.append(held)
            if (not info.suppressed and not info.announced
                    and self._decayed(info) < 1.0):
                del self.info[net]  # fully decayed; forget the prefix
        if reused:
            super().add_routes(reused, caller=None)
