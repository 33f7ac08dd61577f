"""Retry policy for XRL dispatch (paper §3, §6.5).

The paper's robustness story depends on transient IPC failure being
recoverable: a routing process may die and be restarted by the Router
Manager, and its peers must ride out the gap rather than wedge.  A
:class:`RetryPolicy` makes that an explicit, opt-in property of a call:
idempotent methods may be retried with jittered exponential backoff when
the transport fails (``SEND_FAILED``), the target is momentarily
unresolvable (``RESOLVE_FAILED``, e.g. between death and restart), or an
attempt times out (``REPLY_TIMED_OUT``, e.g. a dropped frame).

Retries are never the default — a non-idempotent call (``add_peer``)
retried after a lost *response* would execute twice.  Callers opt in per
call or per transmit queue, exactly where they know idempotence holds.

The jitter source is a seeded :class:`random.Random`, so retry schedules
are deterministic under the simulated clock — the property the chaos
tests rely on.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional

from repro.xrl.error import XrlErrorCode

#: codes that indicate the call may not have reached the target at all
RETRYABLE_CODES: FrozenSet[XrlErrorCode] = frozenset({
    XrlErrorCode.SEND_FAILED,
    XrlErrorCode.RESOLVE_FAILED,
    XrlErrorCode.REPLY_TIMED_OUT,
})


class RetryPolicy:
    """How (and whether) one XRL call is retried.

    *max_attempts* bounds total tries (first attempt included).  Between
    tries the delay grows exponentially from *backoff* by *multiplier*,
    capped at *max_backoff*, with +/- *jitter* (a fraction) of random
    spread so restarted fleets do not retry in lockstep.

    *attempt_timeout*, when set, arms a per-attempt timer: an attempt
    whose reply has not arrived within it is abandoned (a late reply is
    counted and dropped) and the call re-dispatched.  This is what turns
    a silently dropped frame into a retry instead of a hang.
    """

    __slots__ = ("max_attempts", "backoff", "multiplier", "max_backoff",
                 "jitter", "attempt_timeout", "_rng")

    def __init__(self, max_attempts: int = 4, *,
                 backoff: float = 0.05,
                 multiplier: float = 2.0,
                 max_backoff: float = 2.0,
                 jitter: float = 0.1,
                 attempt_timeout: Optional[float] = 1.0,
                 seed: int = 0):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.multiplier = multiplier
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.attempt_timeout = attempt_timeout
        self._rng = random.Random(seed)

    def retryable(self, code: XrlErrorCode) -> bool:
        return code in RETRYABLE_CODES

    def delay(self, attempt: int) -> float:
        """Backoff before retry number *attempt* (1 = first retry)."""
        base = min(self.max_backoff,
                   self.backoff * self.multiplier ** max(0, attempt - 1))
        if self.jitter <= 0:
            return base
        return base * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))

    def __repr__(self) -> str:
        return (f"<RetryPolicy attempts={self.max_attempts} "
                f"backoff={self.backoff}x{self.multiplier}"
                f"<={self.max_backoff}>")
